"""Helpers that only the tests use: a timer, the locations and names a
term holds, value-ness by walking the term, terms, programs and records
as the dataclasses that their equality, hash and repr are checked
against, rebuilding a term or record node by node, term predicates, the
recursive coherence walk and coherence as a predicate, weak contexts as
terms with a hole and plugging into them, the closure-based redex
search that the paths are checked against, the redex selection by
strategy over every redex, the printer that decides parentheses by
intrinsic level, location renaming, substitution equality,
composition, support and range, the recursive free variables, the
rebuilding substitution and one-variable substitution through a
Substitution, trace replay, the whole-program step and the
product-space explorer, the explorer that steps a state again in every
search that visits it, the unitary check of denotations, the
whole-program toplevel denotation, the model whose bases are closed in
rounds to a least fixpoint, the typed layer that built a copy of
the input in each of two passes (inference with its defaulter, check
returning that typing, the step loop that replays whole programs and
soundness over them), the free variables, terms and
substitution instance of a unification problem, a batch of generated
goals, the brute-force unification oracle, the criterion-4 critical
pairs, the recursive normal/stuck classifier, the whole-program
simultaneous evaluator and the carry-over loop that lists every thread
on every step, the two-phase unification step, and the full
simultaneous reduction relation for the diamond spot checks."""

import functools
import itertools
import signal
from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Optional

from lamu import unify
from lamu.concrete import SourceFile, Token
from lamu.denot import (
    Atom, DenotError, InclusionReport, Model, SemValue, SoundnessVerdict,
    Table, TooLarge, _result_base, denote, denote_toplevel,
)
from lamu.equiv import (
    STUCK_CONS, STUCK_GUARD, STUCK_LAM, STUCK_UNIF, STUCK_VAR, StuckKind,
    canonical_program, canonical_thread, is_normal_term,
)
from lamu.generator import DEFAULT_SIGNATURE, GeneratorConfig
from lamu.parallel import (
    ParNormalResult, ParResult, _lift, _par_thread, par_term,
)
from lamu.reduction import (
    ALLOC, BETA, FAILRULE, FRESH, GUARD, UNIF, EvalResult, Exploration,
    Redex, enumerate_redexes, evaluate, step_at,
)
from lamu.reduction import replay as replay_programs
from lamu.syntax import (
    OK, Abs, AbsLoc, App, CoherenceError, Cons, Fresh, Guard, LamuError,
    Program, Session, Substitution, Term, Unif, Var, alpha_eq, check_coherent,
    coherence_witness, free_vars, is_value, make_spine, singleton, spine,
    subst_apply, subterms,
)
from lamu.typecheck import (
    Arrow, Base, Meta, StepReport, Type, TypeCheckError, Typing, Verdict,
    _Solver, ambient_context, arg_types, base_names,
)


def within(seconds, what, run):
    """run(), failing with TimeoutError if it takes longer than seconds."""
    def too_slow(signum, frame):
        raise TimeoutError(f"{what} took {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _children(t: Term):
    if isinstance(t, App):
        return (t.fn, t.arg)
    if isinstance(t, (Guard, Unif)):
        return (t.left, t.right)
    return ()


def locations(x) -> frozenset:
    """Every location of a term or program."""
    return frozenset(t.loc for t in subterms(x) if isinstance(t, AbsLoc))


def all_names(x) -> frozenset:
    """Every variable name occurring in a term or program, free or bound."""
    out = set()
    for t in subterms(x):
        if isinstance(t, Var):
            out.add(t.name)
        elif isinstance(t, (Abs, AbsLoc, Fresh)):
            out.add(t.var)
    return frozenset(out)


def is_value_oracle(t: Term) -> bool:
    """A variable, a located abstraction, or a constructor applied to
    values, decided by walking t with an explicit stack: the definition
    that the flag Term.value, set when a term is built, is checked
    against."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, (Var, AbsLoc)):
            continue
        head, args = spine(t)
        if not isinstance(head, Cons):
            return False
        stack.extend(args)
    return True


# ---------------------------------------------------------------------------
# Terms and programs as the frozen dataclasses they were before they
# became plain slotted classes: the equality, hash and repr that
# syntax's hand-written ones are checked against

@dataclass(frozen=True, slots=True)
class MirrorTerm:
    value = False


@dataclass(frozen=True, slots=True)
class MirrorVar(MirrorTerm):
    name: str
    value = True


@dataclass(frozen=True, slots=True)
class MirrorCons(MirrorTerm):
    name: str
    value = True


@dataclass(frozen=True, slots=True)
class MirrorAbs(MirrorTerm):
    var: str
    body: "MirrorProgram"
    ann: Optional[object] = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class MirrorAbsLoc(MirrorTerm):
    loc: int
    var: str
    body: "MirrorProgram"
    ann: Optional[object] = field(default=None, compare=False)
    value = True


@dataclass(frozen=True, slots=True)
class MirrorApp(MirrorTerm):
    # value stays unset: the mirror checks only what ignores it
    fn: MirrorTerm
    arg: MirrorTerm
    value: bool = field(init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class MirrorFresh(MirrorTerm):
    var: str
    body: MirrorTerm
    ann: Optional[object] = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class MirrorGuard(MirrorTerm):
    left: MirrorTerm
    right: MirrorTerm


@dataclass(frozen=True, slots=True)
class MirrorUnif(MirrorTerm):
    left: MirrorTerm
    right: MirrorTerm


@dataclass(frozen=True, slots=True)
class MirrorProgram:
    threads: tuple = ()


MIRRORS = {Var: MirrorVar, Cons: MirrorCons, Abs: MirrorAbs,
           AbsLoc: MirrorAbsLoc, App: MirrorApp, Fresh: MirrorFresh,
           Guard: MirrorGuard, Unif: MirrorUnif, Program: MirrorProgram}
SAME = {cls: cls for cls in MIRRORS}


def rebuild(x, classes):
    """x built again node by node, recursively, each node of class c by
    classes[c] from its fields other than value: with MIRRORS its
    mirror, with SAME a copy that shares no node with x.  Tuples and
    frozensets are taken apart too, so a record's values inside its
    fields are rebuilt as well."""
    if type(x) is tuple:
        return tuple(rebuild(t, classes) for t in x)
    if type(x) is frozenset:
        return frozenset(rebuild(t, classes) for t in x)
    if type(x) not in classes:
        return x
    return classes[type(x)](*[rebuild(getattr(x, f), classes)
                              for f in type(x).__slots__ if f != "value"])


# ---------------------------------------------------------------------------
# The records (types, semantic values, goals, verdicts, results) as the
# dataclasses they were before they became plain slotted classes: the
# equality, hash and repr that the hand-written ones are checked against.
# Methods that print or compare nothing are left out.

@dataclass
class MirrorToken:
    kind: str
    text: str
    line: int
    col: int


@dataclass
class MirrorSourceFile:
    signature: dict = field(default_factory=dict)
    base_sizes: dict = field(default_factory=dict)
    definitions: dict = field(default_factory=dict)
    program: Program = field(default_factory=Program)


@dataclass(frozen=True)
class MirrorAtom:
    base: str
    tag: object

    def __repr__(self):
        if self.tag[0] == "atom":
            return f"{self.base}#{self.tag[1]}"
        name, args = self.tag[1], self.tag[2]
        if args:
            return f"{name}({', '.join(map(repr, args))})"
        return name


@dataclass(frozen=True)
class MirrorTable:
    entries: tuple

    def __repr__(self):
        inner = ", ".join(
            f"{a!r}->{{{','.join(sorted(map(repr, img)))}}}"
            for a, img in self.entries)
        return f"Table[{inner}]"


@dataclass
class MirrorInclusionReport:
    rule: str
    ok: bool
    equal: bool
    detail: str = ""


@dataclass
class MirrorSoundnessVerdict:
    ok: bool
    steps: list
    final_denotation: Optional[frozenset] = None


@dataclass(frozen=True)
class MirrorStuckKind:
    kind: str
    sub: tuple = ()


@dataclass
class MirrorGeneratorConfig:
    seed: int = 0
    max_depth: int = 4
    variables: tuple = ("x", "y", "z")
    signature: dict = field(default_factory=lambda: dict(DEFAULT_SIGNATURE))
    allow_absloc: bool = True
    well_typed: bool = False


@dataclass(frozen=True)
class MirrorParResult:
    program: Program
    goals: tuple


@dataclass
class MirrorParNormalResult:
    program: Program
    steps: int
    normal: bool


@dataclass
class MirrorEvalResult:
    program: Program
    trace: list
    normal: bool


@dataclass
class MirrorExploration:
    normal_forms: set
    states: int
    complete: bool


@dataclass(frozen=True)
class MirrorBase:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class MirrorArrow:
    left: object
    right: object

    def __repr__(self):
        l = (f"({self.left!r})" if isinstance(self.left, MirrorArrow)
             else f"{self.left!r}")
        return f"{l} -> {self.right!r}"


@dataclass(frozen=True)
class MirrorMeta:
    id: int

    def __repr__(self):
        return f"?{self.id}"


@dataclass
class MirrorTyping:
    type: object
    node: object
    gamma: dict


@dataclass
class MirrorStepReport:
    rule: str
    ok: bool
    error: Optional[str] = None


@dataclass
class MirrorVerdict:
    ok: bool
    steps: list = field(default_factory=list)


@dataclass(frozen=True)
class MirrorGoal:
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if not (is_value(self.lhs) and is_value(self.rhs)):
            raise unify.NotAGoalError("both sides of a goal must be values")


@dataclass(frozen=True)
class MirrorStepped:
    problem: unify.Problem
    rule: str


@dataclass(frozen=True)
class MirrorFailed:
    reason: str
    goal: MirrorGoal


@dataclass(frozen=True)
class MirrorSolved:
    substitution: Substitution


RECORD_MIRRORS = {
    Token: MirrorToken, SourceFile: MirrorSourceFile, Atom: MirrorAtom,
    Table: MirrorTable, InclusionReport: MirrorInclusionReport,
    SoundnessVerdict: MirrorSoundnessVerdict, StuckKind: MirrorStuckKind,
    GeneratorConfig: MirrorGeneratorConfig, ParResult: MirrorParResult,
    ParNormalResult: MirrorParNormalResult, EvalResult: MirrorEvalResult,
    Exploration: MirrorExploration, Base: MirrorBase, Arrow: MirrorArrow,
    Meta: MirrorMeta, Typing: MirrorTyping, StepReport: MirrorStepReport,
    Verdict: MirrorVerdict, unify.Goal: MirrorGoal,
    unify.Stepped: MirrorStepped, unify.Failed: MirrorFailed,
    unify.Solved: MirrorSolved}
# the records that were frozen, each rebuilt as itself
SAME_VALUES = {cls: cls for cls, mirror in RECORD_MIRRORS.items()
               if mirror.__dataclass_params__.frozen}


def assert_records_match_the_mirror(records, pairs):
    """repr and hash of every record as its dataclass mirror has them,
    each record equal to a copy that shares no record with it, and ==
    and != for each (i, j) in pairs as the mirrors have them.  Only for
    the records that were frozen, the ones with a hash.  Returns how
    many of the pairs are unequal."""
    mirrors = [rebuild(x, RECORD_MIRRORS) for x in records]
    for x, m in zip(records, mirrors):
        copy = rebuild(x, SAME_VALUES)
        assert copy is not x and copy == x and not copy != x, x
        assert repr(x) == repr(m).replace("Mirror", "")
        assert hash(x) == hash(m) == hash(copy), x
    unequal = 0
    for i, j in pairs:
        equal = mirrors[i] == mirrors[j]
        assert (records[i] == records[j]) is equal, (records[i], records[j])
        assert (records[i] != records[j]) is (mirrors[i] != mirrors[j])
        unequal += not equal
    return unequal


# ---------------------------------------------------------------------------
# Weak contexts as the paper defines them: a term with one hole, never
# under a binder

class Hole(Term):
    """The hole of a weak context.  A weak context is a Term containing
    exactly one Hole, never under Abs, AbsLoc, or Fresh."""
    __slots__ = ()


HOLE = Hole()


def plug_term(w: Term, t: Term) -> Term:
    if isinstance(w, Hole):
        return t
    if isinstance(w, (Var, Cons)):
        return w
    if isinstance(w, App):
        return App(plug_term(w.fn, t), plug_term(w.arg, t))
    if isinstance(w, Guard):
        return Guard(plug_term(w.left, t), plug_term(w.right, t))
    if isinstance(w, Unif):
        return Unif(plug_term(w.left, t), plug_term(w.right, t))
    # weak contexts never place the hole under a binder
    return w


def weak_context(redex: Redex) -> Term:
    """The redex's path as a term with a hole: each link, outermost
    last, is a one-node frame around the context built so far."""
    w, path = HOLE, redex.path
    while path is not None:
        parent, side, path = path
        left, right = _children(parent)
        frame = type(parent)(HOLE, right) if side == 0 else type(parent)(left, HOLE)
        w = plug_term(frame, w)
    return w


class ContextRedex(NamedTuple):
    """A redex found by redexes_with_contexts: its weak context as a term
    with a hole instead of a path."""
    thread: int
    context: Term
    focus: Term
    rule: str
    unify_outcome: object = None


def _term_redexes_with_contexts(t: Term, context_of, thread: int) -> Iterator[ContextRedex]:
    """Redexes of one thread in leftmost-innermost order (post-order,
    children left to right).  context_of(sub) rebuilds the weak context
    around the given replacement for t."""
    if isinstance(t, App):
        yield from _term_redexes_with_contexts(t.fn, lambda h: context_of(App(h, t.arg)), thread)
        yield from _term_redexes_with_contexts(t.arg, lambda h: context_of(App(t.fn, h)), thread)
        if isinstance(t.fn, AbsLoc) and is_value_oracle(t.arg):
            yield ContextRedex(thread, context_of(HOLE), t, BETA)
    elif isinstance(t, Guard):
        yield from _term_redexes_with_contexts(t.left, lambda h: context_of(Guard(h, t.right)), thread)
        yield from _term_redexes_with_contexts(t.right, lambda h: context_of(Guard(t.left, h)), thread)
        if is_value_oracle(t.left):
            yield ContextRedex(thread, context_of(HOLE), t, GUARD)
    elif isinstance(t, Unif):
        yield from _term_redexes_with_contexts(t.left, lambda h: context_of(Unif(h, t.right)), thread)
        yield from _term_redexes_with_contexts(t.right, lambda h: context_of(Unif(t.left, h)), thread)
        if is_value_oracle(t.left) and is_value_oracle(t.right):
            outcome = unify.mgu_goal(t.left, t.right)
            rule = UNIF if isinstance(outcome, unify.Solved) else FAILRULE
            yield ContextRedex(thread, context_of(HOLE), t, rule, outcome)
    elif isinstance(t, Abs):
        yield ContextRedex(thread, context_of(HOLE), t, ALLOC)
    elif isinstance(t, Fresh):
        yield ContextRedex(thread, context_of(HOLE), t, FRESH)
    # Var, Cons, AbsLoc: no redex at or below this weak position


def redexes_with_contexts(p) -> List[ContextRedex]:
    """Every redex of a program, in order, each with its weak context:
    the search that enumerate_redexes's paths are checked against."""
    out = []
    for i, t in enumerate(p):
        out.extend(_term_redexes_with_contexts(t, lambda h: h, i))
    return out


def find_redex_oracle(p, strategy="leftmost", rng=None):
    """The redex the strategy picks among every redex of the program, in
    order: the selection that reduction.find_redex, which stops early
    under leftmost and rightmost, is checked against."""
    redexes = enumerate_redexes(p)
    if not redexes:
        return None
    if strategy == "leftmost":
        return redexes[0]
    if strategy == "rightmost":
        return redexes[-1]
    return redexes[rng.randrange(len(redexes))]


def is_structure(t: Term) -> bool:
    head, _ = spine(t)
    return isinstance(head, Cons) and is_value_oracle(t)


def is_weak_context(w: Term) -> bool:
    def count(t):
        if isinstance(t, Hole):
            return 1
        if isinstance(t, (App, Guard, Unif)):
            return sum(count(c) for c in _children(t))
        return 0
    return count(w) == 1


def _abslocs_with_bound(t: Term, bound: frozenset, out: list):
    if isinstance(t, (Var, Cons)):
        return
    if isinstance(t, Abs):
        for th in t.body:
            _abslocs_with_bound(th, bound | {t.var}, out)
        return
    if isinstance(t, AbsLoc):
        out.append((t, bound))
        for th in t.body:
            _abslocs_with_bound(th, bound | {t.var}, out)
        return
    if isinstance(t, Fresh):
        _abslocs_with_bound(t.body, bound | {t.var}, out)
        return
    for c in _children(t):
        _abslocs_with_bound(c, bound, out)


def coherence_witness_oracle(terms):
    """The witness of syntax.coherence_witness, with the closures and the
    names bound above them found by recursion on the terms: the
    definition that the explicit-stack walk is checked against."""
    occurrences = []
    for t in terms:
        _abslocs_with_bound(t, frozenset(), occurrences)
    by_loc = {}
    for node, bound in occurrences:
        captured = free_vars(node) & bound
        if captured:
            return ("captured-variable", node, sorted(captured))
        by_loc.setdefault(node.loc, []).append(node)
    for loc, nodes in by_loc.items():
        first = nodes[0]
        for other in nodes[1:]:
            if not alpha_eq(first, other):
                return ("location-mismatch", loc, first, other)
    return None


def coherent(x) -> bool:
    if isinstance(x, Program):
        return all(coherence_witness([t]) is None for t in x)
    return coherence_witness([x]) is None


def plug(w: Term, x):
    """Plug a term or program into a weak context; programs distribute
    thread-wise and fail maps to fail."""
    if isinstance(x, Program):
        return Program(tuple(plug_term(w, t) for t in x))
    return plug_term(w, x)


# ---------------------------------------------------------------------------
# The printer that concrete.pretty_term, which dispatches on the node's
# type, is checked against

_LVL_OPEN, _LVL_UNIF, _LVL_APP, _LVL_ATOM = 1, 2, 3, 4


def _intrinsic(t: Term) -> int:
    if isinstance(t, (Abs, AbsLoc, Fresh, Guard)):
        return _LVL_OPEN
    if isinstance(t, Unif):
        return _LVL_UNIF
    if isinstance(t, App):
        return _LVL_APP
    return _LVL_ATOM


def pretty_term_oracle(t: Term, ctx: int = _LVL_OPEN,
                       rightmost: bool = True) -> str:
    """t printed at level ctx: parentheses when its intrinsic level is
    below ctx, or when it is a binder that something follows."""
    parens = _intrinsic(t) < ctx or (
        isinstance(t, (Abs, AbsLoc, Fresh)) and not rightmost)
    rm = True if parens else rightmost
    if isinstance(t, Var):
        s = t.name
    elif isinstance(t, Cons):
        s = t.name
    elif isinstance(t, Abs):
        s = f"\\{t.var}. {pretty_program_oracle(t.body, rm)}"
    elif isinstance(t, AbsLoc):
        s = f"\\{t.var}@L{t.loc}. {pretty_program_oracle(t.body, rm)}"
    elif isinstance(t, Fresh):
        s = f"fresh {t.var}. {pretty_term_oracle(t.body, _LVL_OPEN, rm)}"
    elif isinstance(t, Guard):
        s = (f"{pretty_term_oracle(t.left, _LVL_UNIF, False)} ; "
             f"{pretty_term_oracle(t.right, _LVL_OPEN, rm)}")
    elif isinstance(t, Unif):
        s = (f"{pretty_term_oracle(t.left, _LVL_APP, False)} =:= "
             f"{pretty_term_oracle(t.right, _LVL_APP, rm)}")
    elif isinstance(t, App):
        s = (f"{pretty_term_oracle(t.fn, _LVL_APP, False)} "
             f"{pretty_term_oracle(t.arg, _LVL_ATOM, False)}")
    else:
        raise LamuError(f"cannot print {t!r}")
    return f"({s})" if parens else s


def pretty_program_oracle(p: Program, rightmost: bool = True) -> str:
    if p.is_fail:
        return "fail"
    last = len(p) - 1
    return " | ".join(pretty_term_oracle(t, _LVL_OPEN, rightmost and i == last)
                      for i, t in enumerate(p))


def subst_loc(x, old: int, new: int):
    """Replace every location decoration old by new."""
    if isinstance(x, Program):
        return Program(tuple(subst_loc(t, old, new) for t in x))
    t = x
    if isinstance(t, (Var, Cons)):
        return t
    if isinstance(t, Abs):
        return Abs(t.var, subst_loc(t.body, old, new), t.ann)
    if isinstance(t, AbsLoc):
        loc = new if t.loc == old else t.loc
        return AbsLoc(loc, t.var, subst_loc(t.body, old, new), t.ann)
    if isinstance(t, Fresh):
        return Fresh(t.var, subst_loc(t.body, old, new), t.ann)
    if isinstance(t, App):
        return App(subst_loc(t.fn, old, new), subst_loc(t.arg, old, new))
    if isinstance(t, Guard):
        return Guard(subst_loc(t.left, old, new), subst_loc(t.right, old, new))
    return Unif(subst_loc(t.left, old, new), subst_loc(t.right, old, new))


def support(sigma: Substitution) -> frozenset:
    return frozenset(name for name, _ in sigma.items())


def range_values(sigma: Substitution) -> list:
    return [v for _, v in sigma.items()]


def compose(rho: Substitution, sigma: Substitution) -> Substitution:
    """(rho . sigma)(x) = sigma applied to rho(x)."""
    out = {name: subst_apply(v, sigma) for name, v in rho.items()}
    for name, v in sigma.items():
        out.setdefault(name, v)
    return Substitution(out)


def subst_equal(a: Substitution, b: Substitution) -> bool:
    """Extensional equality of substitutions, up to alpha."""
    if support(a) != support(b):
        return False
    return all(alpha_eq(a(x), b(x)) for x in support(a))


# ---------------------------------------------------------------------------
# The rebuilding substitution that syntax's sharing substitution is
# checked against: it builds every node anew and, at each binder, walks
# the body's free variables before it decides capture

def free_vars_oracle(x) -> frozenset:
    """The free variables of a term or program by recursion on its
    structure: the definition that syntax.free_vars, which walks an
    explicit stack, is checked against."""
    if isinstance(x, Program):
        return frozenset().union(*map(free_vars_oracle, x))
    if isinstance(x, Var):
        return frozenset((x.name,))
    if isinstance(x, (Abs, AbsLoc, Fresh)):
        return free_vars_oracle(x.body) - {x.var}
    return frozenset().union(*map(free_vars_oracle, _children(x)))


def _pick_fresh_oracle(base: str, forbidden) -> str:
    candidate = base + "'"
    while candidate in forbidden:
        candidate += "'"
    return candidate


def _subst_term_oracle(t: Term, mapping: dict) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, App):
        return App(_subst_term_oracle(t.fn, mapping),
                   _subst_term_oracle(t.arg, mapping))
    if isinstance(t, Cons):
        return t
    if isinstance(t, (Guard, Unif)):
        return type(t)(_subst_term_oracle(t.left, mapping),
                       _subst_term_oracle(t.right, mapping))
    if isinstance(t, (Abs, AbsLoc, Fresh)):
        body_fv = free_vars_oracle(t.body)
        inner = {k: v for k, v in mapping.items()
                 if k != t.var and k in body_fv}
        if not inner:
            return t
        var = t.var
        body = t.body
        captured = set()
        for v in inner.values():
            captured |= free_vars_oracle(v)
        if var in captured:
            forbidden = captured | body_fv | set(inner)
            new = _pick_fresh_oracle(var, forbidden)
            body = subst_oracle(body, {var: Var(new)})
            var = new
        if isinstance(t, Abs):
            return Abs(var, subst_oracle(body, inner), t.ann)
        if isinstance(t, AbsLoc):
            return AbsLoc(t.loc, var, subst_oracle(body, inner), t.ann)
        return Fresh(var, subst_oracle(body, inner), t.ann)
    raise TypeError(f"unexpected term {t!r}")


def subst_oracle(x, mapping: dict):
    """x, a term or a program, with mapping applied, every node rebuilt."""
    if isinstance(x, Program):
        return Program(tuple(_subst_term_oracle(t, mapping) for t in x))
    return _subst_term_oracle(x, mapping)


def subst_apply_oracle(x, sigma: Substitution):
    """subst_apply by the rebuilding substitution."""
    return subst_oracle(x, dict(sigma.items()))


def subst_single_oracle(x, name: str, value: Term):
    """x with value for name, through a one-binding Substitution (which
    rejects a non-value) and the rebuilding substitution: the definition
    that syntax.subst_single and syntax.subst_threads are checked
    against."""
    return subst_apply_oracle(x, Substitution({name: value}))


def splice(p: Program, ts) -> Program:
    """The whole program after the thread-level step ts of p."""
    return Program(p.threads[:ts.thread] + ts.after + p.threads[ts.thread + 1:])


def replay(trace, initial: Program) -> bool:
    """Check that the trace, replayed from the initial program, applies
    each delta to the thread it names: the thread exists and is the
    recorded before."""
    current = initial
    for ts in trace:
        if not 0 <= ts.thread < len(current) or current[ts.thread] != ts.before:
            return False
        current = splice(current, ts)
    return True


class ProgramStep(NamedTuple):
    """A whole-program step: the program before and after."""
    rule: str
    thread: int
    before: Program
    after: Program
    substitution: Optional[Substitution] = None
    fresh_var: Optional[str] = None
    fresh_loc: Optional[int] = None
    focus: Optional[Term] = None


def program_step_at(p: Program, redex: Redex, session: Session) -> ProgramStep:
    """Contract the redex by plugging the contractum into its weak
    context, then splice the result into a new program: the
    whole-program step that the thread-level step_at is checked
    against."""
    i = redex.thread
    w = weak_context(redex)
    focus = redex.focus
    rule = redex.rule
    sigma = fresh_var = fresh_loc = None
    if rule == ALLOC:
        fresh_loc = session.fresh_loc()
        middle = (plug_term(w, AbsLoc(fresh_loc, focus.var, focus.body, focus.ann)),)
    elif rule == BETA:
        body = subst_single_oracle(focus.fn.body, focus.fn.var, focus.arg)
        middle = plug(w, body).threads
    elif rule == GUARD:
        middle = (plug_term(w, focus.right),)
    elif rule == FRESH:
        fresh_var = session.fresh_var()
        body = subst_single_oracle(focus.body, focus.var, Var(fresh_var))
        middle = (plug_term(w, body),)
    elif rule == UNIF:
        sigma = redex.unify_outcome.substitution
        middle = (subst_apply_oracle(plug_term(w, Cons(OK)), sigma),)
    elif rule == FAILRULE:
        middle = ()
    else:
        raise ValueError(f"unknown rule {rule!r}")
    after = Program(p.threads[:i] + middle + p.threads[i + 1:])
    return ProgramStep(rule, i, p, after, sigma, fresh_var, fresh_loc, focus)


def is_unitary(value: SemValue, ty: Type) -> bool:
    """Every (iterated) application image is a singleton."""
    if isinstance(ty, Base):
        return isinstance(value, Atom)
    if not isinstance(value, Table):
        return False
    for _, image in value.entries:
        if len(image) != 1:
            return False
        (b,) = image
        if not is_unitary(b, ty.right):
            return False
    return True


def denote_toplevel_oracle(x, model, gamma=None):
    """The toplevel denotation as the union over every environment on all
    the free variables of x, each denoting the whole of x: the definition
    that the thread-by-thread denot.denote_toplevel is checked against."""
    names = sorted(free_vars(x))
    gamma = gamma or {}
    missing = [n for n in names if n not in gamma]
    if missing:
        raise DenotError(f"no types for free variables {missing}")
    domains = [model.enum_type(gamma[n]) for n in names]
    out = frozenset()
    for combo in itertools.product(*domains):
        out |= denote(x, dict(zip(names, combo)), model)
    return out


class RoundLoopModel(Model):
    """The model whose bases are closed as a least fixpoint: every
    constructor product is rebuilt in rounds over the atoms found so far,
    the enumerations cleared each round, until no base gains an atom;
    each product is compared with the cap only once built.  The
    definition that denot.Model's one closure in dependency order is
    checked against."""

    def __init__(self, base_sizes, sig, cap=4096):
        for name, n in base_sizes.items():
            if n < 0:
                raise DenotError(f"negative size for base type {name}")
            if n > cap:
                raise TooLarge(f"base type {name}", n, cap)
        self.cap = cap
        self.sig = dict(sig)
        self._bases = {name: [Atom(name, ("atom", i)) for i in range(n)]
                       for name, n in base_sizes.items()}
        self._enum_cache = {}
        self._cons_cache = {}
        self._close_bases()
        for name, atoms in self._bases.items():
            if not atoms:
                raise DenotError(f"base type {name} is empty")

    def _close_bases(self):
        feeds = {}   # base -> the bases its arguments use
        for c in self.sig:
            base = _result_base(self.sig[c])
            self._bases.setdefault(base, [])
            for sub in base_names(*arg_types(self.sig[c])):
                self._bases.setdefault(sub, [])
                feeds.setdefault(base, set()).add(sub)
        for base in sorted(feeds):
            seen, stack = set(), list(feeds[base])
            while stack:
                sub = stack.pop()
                if sub == base:
                    raise TooLarge(f"base type {base}", "infinitely many",
                                   self.cap)
                if sub not in seen:
                    seen.add(sub)
                    stack.extend(feeds.get(sub, ()))
        changed = True
        while changed:
            changed = False
            self._enum_cache.clear()
            for c in sorted(self.sig):
                args = arg_types(self.sig[c])
                base = _result_base(self.sig[c])
                known = set(self._bases[base])
                domains = [self.enum_type(a) for a in args]
                for combo in itertools.product(*domains):
                    atom = Atom(base, ("cons", c, tuple(combo)))
                    if atom not in known:
                        known.add(atom)
                        self._bases[base].append(atom)
                        changed = True
                if len(self._bases[base]) > self.cap:
                    raise TooLarge(f"base type {base}",
                                   len(self._bases[base]), self.cap)
        self._enum_cache.clear()

    def enum_type(self, ty):
        if ty in self._enum_cache:
            return self._enum_cache[ty]
        if isinstance(ty, Meta):
            raise DenotError("cannot enumerate an unsolved metavariable")
        if isinstance(ty, Base):
            if ty.name not in self._bases:
                raise DenotError(f"base type {ty.name} has no interpretation")
            result = list(self._bases[ty.name])
        else:
            domain = self.enum_type(ty.left)
            codomain = self.enum_type(ty.right)
            n, m = len(domain), len(codomain)
            count = (2 ** m) ** n
            if count > self.cap:
                raise TooLarge(repr(ty), count, self.cap)
            subsets = [frozenset(s)
                       for k in range(m + 1)
                       for s in itertools.combinations(codomain, k)]
            result = [
                Table(tuple(zip(domain, images)))
                for images in itertools.product(subsets, repeat=n)]
        self._enum_cache[ty] = result
        return result


# ---------------------------------------------------------------------------
# The typed layer as it was before it built only what its verdicts read:
# an inferencer that builds a copy of the input with metavariables for its
# binders, a defaulter that builds it again, check returning that typing,
# a step loop that rebuilds every whole program with replay, and
# soundness that denotes the whole program after every step

class _NodeInferencer:
    def __init__(self, sig):
        self.sig = sig
        self.solver = _Solver()

    def lift(self, ty):
        return self.solver.fresh() if ty is None else ty

    def term(self, gamma, t):
        if isinstance(t, Var):
            if t.name not in gamma:
                raise TypeCheckError(f"unbound variable {t.name}")
            return t, gamma[t.name]
        if isinstance(t, Cons):
            if t.name not in self.sig:
                raise TypeCheckError(f"constructor {t.name} has no declared type")
            return t, self.sig[t.name]
        if isinstance(t, (Abs, AbsLoc)):
            a = self.lift(t.ann)
            body, b = self.program({**gamma, t.var: a}, t.body)
            node = (AbsLoc(t.loc, t.var, body, a) if isinstance(t, AbsLoc)
                    else Abs(t.var, body, a))
            return node, Arrow(a, b)
        if isinstance(t, App):
            fn, fty = self.term(gamma, t.fn)
            arg, aty = self.term(gamma, t.arg)
            result = self.solver.fresh()
            self.solver.unify(fty, Arrow(aty, result), "application")
            return App(fn, arg), result
        if isinstance(t, Fresh):
            a = self.lift(t.ann)
            body, b = self.term({**gamma, t.var: a}, t.body)
            return Fresh(t.var, body, a), b
        if isinstance(t, Guard):
            left, lty = self.term(gamma, t.left)
            right, rty = self.term(gamma, t.right)
            self.solver.unify(lty, self.sig[OK], "guard condition")
            return Guard(left, right), rty
        if isinstance(t, Unif):
            left, lty = self.term(gamma, t.left)
            right, rty = self.term(gamma, t.right)
            self.solver.unify(lty, rty, "unification goal")
            return Unif(left, right), self.sig[OK]
        raise TypeCheckError(f"cannot type {t!r}")

    def program(self, gamma, p):
        ty = self.solver.fresh()
        threads = []
        for t in p:
            t2, tty = self.term(gamma, t)
            self.solver.unify(tty, ty, "alternative thread")
            threads.append(t2)
        return Program(tuple(threads)), ty


class _Defaulter:
    """Replaces leftover metas with fresh base types, deterministically
    in traversal order."""

    def __init__(self, solver, taken):
        self.solver = solver
        self.map = {}
        self._n = 0
        self._taken = set(taken)

    def default(self, ty):
        ty = self.solver.resolve(ty)
        if isinstance(ty, Meta):
            if ty.id not in self.map:
                while True:
                    name = f"t{self._n}"
                    self._n += 1
                    if name not in self._taken:
                        break
                self.map[ty.id] = Base(name)
            return self.map[ty.id]
        if isinstance(ty, Arrow):
            return Arrow(self.default(ty.left), self.default(ty.right))
        return ty

    def node(self, x):
        if isinstance(x, Program):
            return Program(tuple(self.node(t) for t in x))
        t = x
        if isinstance(t, (Var, Cons)):
            return t
        if isinstance(t, (Abs, AbsLoc, Fresh)):
            # the body first: that order numbers the defaulted names
            body = self.node(t.body)
            ann = self.default(t.ann)
            if isinstance(t, AbsLoc):
                return AbsLoc(t.loc, t.var, body, ann)
            return type(t)(t.var, body, ann)    # Abs and Fresh alike
        if isinstance(t, App):
            return App(self.node(t.fn), self.node(t.arg))
        if isinstance(t, Guard):
            return Guard(self.node(t.left), self.node(t.right))
        if isinstance(t, Unif):
            return Unif(self.node(t.left), self.node(t.right))
        raise TypeCheckError(f"cannot default {t!r}")


def _typing_oracle(gamma, sig, x, expected=None) -> Typing:
    inf = _NodeInferencer(sig)
    solved_gamma = {}
    for name, ty in gamma.items():
        solved_gamma[name] = inf.solver.fresh() if ty is None else ty
    if isinstance(x, Program):
        node, ty = inf.program(solved_gamma, x)
    else:
        node, ty = inf.term(solved_gamma, x)
    if expected is not None:
        inf.solver.unify(ty, expected, "expected type")
    defaulter = _Defaulter(inf.solver, base_names(*sig.values()))
    return Typing(
        defaulter.default(ty),
        defaulter.node(node),
        {name: defaulter.default(t) for name, t in solved_gamma.items()})


def infer_oracle(gamma, sig, x) -> Typing:
    """The typing that typecheck.infer is checked against."""
    return _typing_oracle(gamma, sig, x)


def check_oracle(gamma, sig, x, expected) -> Typing:
    """The check that typecheck.check is checked against: the typing at
    the expected type, or TypeCheckError."""
    return _typing_oracle(gamma, sig, x, expected)


def typed_steps_oracle(typing: Typing, fuel):
    """Each step of the trace of typing.node with the typing context
    after it (one dict, extended in place) and the whole program after
    it."""
    context = dict(typing.gamma)
    for ts, after in replay_programs(typing.node,
                                     evaluate(typing.node, fuel).trace):
        if ts.rule == FRESH:
            context[ts.fresh_var] = ts.focus.ann
        yield ts, context, after


def soundness_check_oracle(p: Program, model, fuel=200) -> SoundnessVerdict:
    """The soundness harness that denotes the whole program after every
    step: the definition that denot.soundness_check is checked against."""
    typing = infer_oracle(ambient_context(p), model.sig, p)
    before_sem = denote_toplevel(typing.node, model, typing.gamma)
    verdict = SoundnessVerdict(True, [])
    for ts, context, after in typed_steps_oracle(typing, fuel):
        after_sem = denote_toplevel(after, model, context)
        equal = after_sem == before_sem
        ok = equal or (ts.rule == FAILRULE and after_sem <= before_sem)
        report = InclusionReport(ts.rule, ok, equal)
        if not ok:
            report.detail = (f"before={sorted(map(repr, before_sem))} "
                             f"after={sorted(map(repr, after_sem))}")
            verdict.ok = False
        verdict.steps.append(report)
        before_sem = after_sem
    verdict.final_denotation = before_sem
    return verdict


def product_bfs(p: Program, key=canonical_program, fuel=200,
                max_states=10000) -> Exploration:
    """Breadth-first search over whole programs, identified by key: the
    product of the threads' state spaces.  The oracle that
    reachable_normal_forms is checked against, on small bounds."""
    check_coherent(p)
    session = Session.for_program(p)
    visited = {key(p)}
    frontier = [p]
    normal_forms = set()
    states = 1
    for _ in range(fuel):
        if not frontier:
            break
        next_frontier = []
        for q in frontier:
            redexes = enumerate_redexes(q)
            if not redexes:
                normal_forms.add(key(q))
                continue
            for r in redexes:
                nxt = program_step_at(q, r, session).after
                k = key(nxt)
                if k in visited:
                    continue
                visited.add(k)
                states += 1
                if states > max_states:
                    return Exploration(normal_forms, states, False)
                next_frontier.append(nxt)
        frontier = next_frontier
    return Exploration(normal_forms, states, not frontier)


def reachable_normal_forms_oracle(p: Program, fuel=200,
                                  max_states=10000) -> Exploration:
    """The thread-modular explorer that steps and keys a state again in
    every search that visits it: each breadth-first search enumerates
    and steps its own states.  The definition that
    reduction.reachable_normal_forms, which expands each key once per
    call, is checked against: same normal forms, states and
    completeness."""
    check_coherent(p)
    session = Session.for_program(p)
    states = 0
    memo = {}           # thread key -> (normal forms, complete)
    active = set()      # keys of the explorations in progress

    def program_nfs(threads):
        nfs, complete = {()}, True
        for t in threads:
            sub, ok = yield t
            nfs = {tuple(sorted(a + b)) for a in nfs for b in sub}
            complete = complete and ok
        return nfs, complete

    def thread_nfs(t, key):
        nonlocal states
        visited = {key}
        frontier = [(t, key)]
        nfs, complete = set(), True
        for _ in range(fuel):
            next_frontier = []
            for s, k in frontier:
                redexes = enumerate_redexes((s,), session.unifications)
                if not redexes:
                    nfs.add((k,))
                for r in redexes:
                    after = step_at(s, r, session).after
                    if len(after) != 1:
                        sub, ok = yield from program_nfs(after)
                        nfs |= sub
                        complete = complete and ok
                        continue
                    k2 = canonical_thread(after[0])
                    if k2 in visited:
                        continue
                    if k2 in active:
                        complete = False
                        continue
                    if states >= max_states:
                        return nfs, False
                    visited.add(k2)
                    states += 1
                    next_frontier.append((after[0], k2))
            frontier = next_frontier
            if not frontier:
                break
        return nfs, complete and not frontier

    stack = [(None, program_nfs(p.threads))]
    reply = None
    while True:
        key, gen = stack[-1]
        try:
            t = gen.send(reply)
        except StopIteration as stop:
            stack.pop()
            if not stack:
                normal_forms, complete = stop.value
                break
            active.discard(key)
            memo[key] = reply = stop.value
            continue
        k = canonical_thread(t)
        if k in memo:
            reply = memo[k]
        elif k in active or len(stack) > fuel or states >= max_states:
            reply = (set(), False)
        else:
            states += 1
            active.add(k)
            stack.append((k, thread_nfs(t, k)))
            reply = None
    return Exploration(normal_forms, states, complete)


def critical_pair_instances():
    """(v1 =:= v2) (w1 =:= w2) t with both goals solvable, so the two
    interleavings must meet after discharging both unifiers."""
    x, y, z = Var("x"), Var("y"), Var("z")
    C, D = Cons("C"), Cons("D")
    S = lambda v: App(Cons("S"), v)
    P = lambda v, w: App(App(Cons("P"), v), w)
    return [
        (x, C, y, D, P(x, y)),
        (x, S(y), y, C, P(x, y)),
        (x, y, y, D, P(x, y)),
        (P(x, y), P(C, D), x, C, P(y, x)),
        (x, C, x, y, P(x, y)),
        (S(x), S(C), y, S(x), P(x, y)),
        (x, AbsLoc(1, "v", singleton(Var("v"))), y, C, P(x, y)),
        (P(x, C), P(D, y), z, S(x), P(z, y)),
        (x, y, z, D, P(x, z)),
        (S(S(x)), S(S(C)), y, x, P(x, y)),
    ]


# ---------------------------------------------------------------------------
# Recursive normal/stuck classifier and whole-program simultaneous
# evaluator: the definitions that equiv's one-walk classifier and
# parallel's thread-modular par_normalize are checked against

def is_stuck_oracle(t: Term):
    """The stuck judgment by its rules, deciding each premise on its own
    (exponential in the nesting depth)."""
    head, args = spine(t)
    arg_kinds = []
    for a in args:
        if not is_normal_term_oracle(a):
            return None
        arg_kinds.append(is_stuck_oracle(a))
    if isinstance(head, Var):
        if args:
            return StuckKind(STUCK_VAR)
        return None
    if isinstance(head, Cons):
        stuck_args = tuple(k for k in arg_kinds if k is not None)
        if stuck_args:
            return StuckKind(STUCK_CONS, stuck_args)
        return None
    if isinstance(head, Guard):
        left = is_stuck_oracle(head.left)
        if left is not None and is_normal_term_oracle(head.right):
            return StuckKind(STUCK_GUARD, (left,))
        return None
    if isinstance(head, Unif):
        if not (is_normal_term_oracle(head.left)
                and is_normal_term_oracle(head.right)):
            return None
        sides = tuple(k for k in (is_stuck_oracle(head.left),
                                  is_stuck_oracle(head.right))
                      if k is not None)
        if sides:
            return StuckKind(STUCK_UNIF, sides)
        return None
    if isinstance(head, AbsLoc):
        if args and arg_kinds[0] is not None:
            return StuckKind(STUCK_LAM, (arg_kinds[0],))
        return None
    return None


def is_normal_term_oracle(t: Term) -> bool:
    return is_value_oracle(t) or is_stuck_oracle(t) is not None


def par_step_oracle(p: Program, session: Session) -> Program:
    """One simultaneous reduction of the whole program: every thread is
    reduced and its goals unified, normal or not."""
    threads = []
    for t in p:
        result = par_term(t, session)
        outcome = unify.mgu(unify.Problem(result.goals))
        if isinstance(outcome, unify.Failed):
            continue
        threads.extend(subst_apply_oracle(
            result.program, outcome.substitution).threads)
    return Program(tuple(threads))


def par_normalize_oracle(p: Program, fuel=200) -> ParNormalResult:
    """par_step_oracle on the whole program until every thread is normal
    by is_normal_term_oracle, or for exactly fuel steps."""
    check_coherent(p)
    session = Session.for_program(p)
    current = p
    for n in range(fuel + 1):
        if all(is_normal_term_oracle(t) for t in current):
            return ParNormalResult(current, n, True)
        if n == fuel:
            break
        current = par_step_oracle(current, session)
    return ParNormalResult(current, fuel, False)


def par_normalize_carry_oracle(p: Program, fuel=200) -> ParNormalResult:
    """par_normalize as a loop that lists every thread on every step and
    carries the normal ones over unstepped: the loop that the pending-only
    par_normalize replaced, quadratic when one thread keeps splitting."""
    check_coherent(p)
    session = Session.for_program(p)
    threads = [(t, is_normal_term(t)) for t in p]
    steps = 0
    while steps < fuel and not all(normal for _, normal in threads):
        threads = [(u, normal or is_normal_term(u)) for t, normal in threads
                   for u in ((t,) if normal else _par_thread(t, session))]
        steps += 1
    return ParNormalResult(Program(tuple(t for t, _ in threads)), steps,
                           all(normal for _, normal in threads))


# ---------------------------------------------------------------------------
# The two-phase unification step that unify.unify_step is checked
# against: pick a rule name per goal, then dispatch on it

def _rule_for(goal, rest_fv: frozenset) -> Optional[str]:
    """Highest-priority applicable rule for one goal.  Priority:
    delete > clash > occurs-check > orient > match-lam > match-cons
    > eliminate."""
    v, w = goal.lhs, goal.rhs
    if isinstance(v, Var) and isinstance(w, Var) and v.name == w.name:
        return "u-delete"
    if unify.clash(v, w) is not None:
        return "u-clash"
    if isinstance(v, Var) and not (isinstance(w, Var) and w.name == v.name) \
            and v.name in free_vars(w):
        return "u-occurs-check"
    if isinstance(w, Var) and not isinstance(v, Var):
        return "u-orient"
    if isinstance(v, AbsLoc) and isinstance(w, AbsLoc) and v.loc == w.loc:
        return "u-match-lam"
    if not isinstance(v, Var) and not isinstance(w, Var):
        return "u-match-cons"
    if isinstance(v, Var) and v.name in rest_fv:
        return "u-eliminate"
    return None


def unify_step_oracle(problem):
    """Apply exactly one rewrite rule to the first eligible goal, in
    insertion order.  Returns Stepped, Failed, or None in solved form."""
    Goal, Problem, Stepped = unify.Goal, unify.Problem, unify.Stepped
    goals = problem.goals
    for i, goal in enumerate(goals):
        rest = goals[:i] + goals[i + 1:]
        rest_fv = frozenset()
        for g in rest:
            rest_fv |= g.free_vars()
        rule = _rule_for(goal, rest_fv)
        if rule is None:
            continue
        v, w = goal.lhs, goal.rhs
        if rule == "u-delete":
            return Stepped(Problem(rest), rule)
        if rule == "u-clash":
            return unify.Failed(unify.clash(v, w), goal)
        if rule == "u-occurs-check":
            return unify.Failed(unify.OCCURS_CHECK, goal)
        if rule == "u-orient":
            return Stepped(Problem(rest[:i] + (Goal(w, v),) + rest[i:]), rule)
        if rule == "u-match-lam":
            if not alpha_eq(v, w):
                raise CoherenceError(
                    "equal locations with distinct bodies in unification goal")
            return Stepped(Problem(rest), rule)
        if rule == "u-match-cons":
            _, v_args = spine(v)
            _, w_args = spine(w)
            decomposed = tuple(Goal(a, b) for a, b in zip(v_args, w_args))
            return Stepped(Problem(rest[:i] + decomposed + rest[i:]), rule)
        if rule == "u-eliminate":
            sigma = Substitution({v.name: w})
            new_rest = tuple(g.subst(sigma) for g in rest)
            return Stepped(Problem(new_rest[:i] + (goal,) + new_rest[i:]), rule)
    return None


# ---------------------------------------------------------------------------
# Unification problems and goals, read by the tests only

def problem_free_vars(problem) -> frozenset:
    out = frozenset()
    for g in problem:
        out |= g.free_vars()
    return out


def problem_terms(problem) -> Iterator[Term]:
    for g in problem:
        yield g.lhs
        yield g.rhs


def problem_subst(problem, sigma: Substitution):
    """The problem with sigma applied to both sides of every goal."""
    return unify.Problem(g.subst(sigma) for g in problem)


def goals(gen, n: int) -> list:
    """n goals drawn from the generator gen."""
    return [gen.goal() for _ in range(n)]


# ---------------------------------------------------------------------------
# Ground unification oracle

@functools.lru_cache(maxsize=None)
def ground_universe(depth, closures):
    """The ground values built from C and D by S and P up to depth, plus
    the given located closures (a tuple) at every level."""
    if depth == 0:
        return [Cons("C"), Cons("D")]
    smaller = ground_universe(depth - 1, closures)
    out = list(smaller)
    out.extend(make_spine(Cons("S"), [v]) for v in smaller)
    out.extend(make_spine(Cons("P"), [v, w]) for v in smaller for w in smaller)
    out.extend(closures)
    return out


def ground_eq(v, w, asg):
    """Equality of the two sides under a total ground assignment.
    Located closures compare by location alone, which is sound whenever
    each location carries one body up to alpha."""
    if isinstance(v, Var):
        v = asg[v.name]
    if isinstance(w, Var):
        w = asg[w.name]
    if isinstance(v, AbsLoc) or isinstance(w, AbsLoc):
        return isinstance(v, AbsLoc) and isinstance(w, AbsLoc) and v.loc == w.loc
    if isinstance(v, Cons) or isinstance(w, Cons):
        return v == w
    if isinstance(v, App) and isinstance(w, App):
        return ground_eq(v.fn, w.fn, asg) and ground_eq(v.arg, w.arg, asg)
    return False


def brute_force_unifiable(problem, universe):
    """The first ground assignment, in itertools.product order over the
    sorted names and the universe, that satisfies every goal, or None.
    The search is depth-first and checks each goal as soon as all of its
    variables are assigned, which prunes but visits candidates in the
    same order."""
    names = sorted(problem_free_vars(problem))
    position = {name: k for k, name in enumerate(names)}
    # due[k]: the goals whose variables are all among names[:k]
    due = [[] for _ in range(len(names) + 1)]
    for g in problem:
        due[max((position[n] + 1 for n in g.free_vars()), default=0)].append(g)
    asg = {}

    def search(k):
        if not all(ground_eq(g.lhs, g.rhs, asg) for g in due[k]):
            return False
        if k == len(names):
            return True
        for v in universe:
            asg[names[k]] = v
            if search(k + 1):
                return True
        del asg[names[k]]
        return False

    return Substitution(dict(asg)) if search(0) else None


# ---------------------------------------------------------------------------
# Full relational enumeration, for tiny terms only (diamond spot checks)

def par_term_all(t: Term, session: Session) -> List[ParResult]:
    """Every member of the simultaneous reduction relation for a term.
    Exponential; intended for bounded-size inputs."""
    out: List[ParResult] = []

    def binary(ctor, left, right, extra=None):
        for lp in par_term_all(left, session):
            for rp in par_term_all(right, session):
                out.append(ParResult(_lift(ctor, lp.program, rp.program),
                                     lp.goals + rp.goals))
        if extra is not None:
            out.append(extra())

    if isinstance(t, (Var, Cons, AbsLoc)):
        return [ParResult(singleton(t), ())]
    if isinstance(t, Abs):
        loc = session.fresh_loc()
        return [ParResult(singleton(t), ()),
                ParResult(singleton(AbsLoc(loc, t.var, t.body, t.ann)), ())]
    if isinstance(t, Fresh):
        results = [ParResult(singleton(t), ())]
        y = session.fresh_var()
        body = subst_single_oracle(t.body, t.var, Var(y))
        results.extend(par_term_all(body, session))
        return results
    if isinstance(t, App):
        binary(App, t.fn, t.arg)
        if isinstance(t.fn, AbsLoc) and is_value_oracle(t.arg):
            body = subst_single_oracle(t.fn.body, t.fn.var, t.arg)
            out.append(ParResult(body, ()))
        return out
    if isinstance(t, Guard):
        binary(Guard, t.left, t.right)
        if is_value_oracle(t.left):
            out.extend(par_term_all(t.right, session))
        return out
    if isinstance(t, Unif):
        binary(Unif, t.left, t.right)
        if is_value_oracle(t.left) and is_value_oracle(t.right):
            out.append(ParResult(singleton(Cons(OK)),
                                 (unify.Goal(t.left, t.right),)))
        return out
    raise TypeError(f"unexpected term {t!r}")


def par_step_all(p: Program, session=None) -> List[Program]:
    """Every program reachable by one simultaneous reduction."""
    if session is None:
        session = Session.for_program(p)
    options_per_thread = []
    for t in p:
        resolved = []
        for r in par_term_all(t, session):
            outcome = unify.mgu(unify.Problem(r.goals))
            if isinstance(outcome, unify.Failed):
                resolved.append(None)
            else:
                resolved.append(subst_apply(r.program, outcome.substitution))
        options_per_thread.append(resolved)
    results = [Program(())]
    for options in options_per_thread:
        new_results = []
        for prefix in results:
            for option in options:
                if option is None:
                    new_results.append(prefix)
                else:
                    new_results.append(prefix + option)
        results = new_results
    return results
