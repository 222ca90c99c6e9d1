"""An executable lambda calculus with non-deterministic choice, fresh
symbolic variables, and first-order unification over values, including
located closures.

The package provides the AST and substitution machinery (syntax), the
unification engine (unify), structural equivalence and the normal-form
classifier (equiv), the small-step evaluator (reduction), a simultaneous
evaluator used as a cross-check (parallel), simple types (typecheck),
finite denotational semantics (denot), concrete syntax (concrete), a
random program generator (generator), and a CLI (cli).
"""

from .concrete import (
    ParseError, SourceFile, hm_translate, parse_file, parse_program,
    parse_term, pretty_program, pretty_term,
)
from .denot import Model, TooLarge, denote, denote_toplevel, soundness_check
from .equiv import (
    canonical_program, canonical_thread, is_normal_program, is_normal_term,
    is_stuck, struct_equiv,
)
from .generator import Generator, GeneratorConfig, sample_programs
from .parallel import par_normalize, par_step
from .reduction import (
    EvalResult, Exploration, TraceStep, evaluate, find_redex,
    reachable_normal_forms, replay, step,
)
from .syntax import (
    FAIL, Abs, AbsLoc, App, CoherenceError, Cons, Fresh, Guard, LamuError,
    Program, Session, Substitution, Term, Unif, Var, alpha_eq,
    check_coherent, coherence_witness, free_vars, singleton, subst_apply,
    subst_single,
)
from .typecheck import (
    Arrow, Base, Type, TypeCheckError, check, default_signature, infer,
    subject_reduction_check,
)
from .unify import Failed, Goal, Problem, Solved, is_unifier, mgu, mgu_goal

__version__ = "0.1.0"

__all__ = [
    "Abs", "AbsLoc", "App", "Arrow", "Base", "CoherenceError", "Cons",
    "EvalResult", "Exploration", "FAIL", "Failed", "Fresh", "Generator",
    "GeneratorConfig", "Goal", "Guard", "LamuError", "Model", "ParseError",
    "Problem", "Program", "Session", "Solved", "SourceFile", "Substitution",
    "Term", "TooLarge", "TraceStep", "Type", "TypeCheckError", "Unif", "Var",
    "alpha_eq", "canonical_program", "canonical_thread", "check",
    "check_coherent", "coherence_witness", "default_signature", "denote",
    "denote_toplevel", "evaluate", "find_redex", "free_vars", "hm_translate",
    "infer", "is_normal_program", "is_normal_term", "is_stuck", "is_unifier",
    "mgu", "mgu_goal", "par_normalize", "par_step", "parse_file",
    "parse_program", "parse_term", "pretty_program", "pretty_term",
    "reachable_normal_forms", "replay", "sample_programs", "singleton",
    "soundness_check", "step", "struct_equiv", "subject_reduction_check",
    "subst_apply", "subst_single",
]
