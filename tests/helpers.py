"""Helpers that only the tests use.  Each fast path of src/ is checked
against one slow definition, here unless named:

  fast path                            its oracle
  Term.value, set when built           is_value_oracle: a walk
  == / hash / repr of nodes, records   rule_key, rule_repr, fields: the
                                       rules over the fields
  coherence_witness, free_vars         coherence_witness_oracle,
    (explicit stacks)                  free_vars_oracle (recursion)
  subst_single, subst_apply (sharing)  subst_oracle (rebuilding)
  pretty_term (dispatch on type)       pretty_term_oracle (levels)
  enumerate_redexes's paths            redexes_with_contexts (weak contexts)
  enumerate_redexes (explicit stack)   redexes_oracle (recursion)
  find_redex (stops early)             find_redex_oracle (every redex,
                                       by redexes_oracle)
  step_at, evaluate (thread deltas)    program_step_at (plug, then splice)
  reachable_normal_forms               product_bfs (whole programs)
  term_key, canonical_program          canon_oracle.canonicalize
  is_stuck, is_normal_term             is_stuck_oracle (rule by rule)
  par_normalize (pending threads)      par_normalize_oracle (whole program)
  mgu (one pass, in place)             mgu_oracle (iterates unify_step)
  mgu_goal (one goal, no Problem)      mgu of a one-goal Problem (test_unify)
  infer, check                         infer_oracle, check_oracle
  denote (each closed binder denoted   denote_oracle (every binder under
    once per call)                     every environment)
  denote_toplevel (thread by thread)   denote_toplevel_oracle (product,
                                       by denote_oracle)
  Atom, Table (hash taken when built,  ScanAtom, ScanTable (hash taken
    application by lookup)             on every call, a linear scan),
                                       through denote_toplevel_scanning
  Model (bases closed in order)        RoundLoopModel (rounds, fixpoint)
  soundness_check, typed_steps         soundness_check_oracle,
                                       typed_steps_oracle (whole programs)
  concrete.hm_translate                typecheck.infer (test_concrete)

Besides: a timer, term, context and substitution utilities, the small
values that the substitution and canonical-form laws range over, trace
replay, unification-problem helpers, the brute-force ground unifier of
criterion 6, the inputs of the acceptance criteria (each drawn afresh
by every test that reads it) and the full simultaneous reduction
relation for the diamond spot checks."""

import functools
import itertools
import os
import random
import signal
import subprocess
import sys
from typing import Iterator, List, NamedTuple, Optional

from lamu import denot, unify
from lamu.concrete import parse_file, parse_program
from lamu.denot import (
    Atom, DenotError, InclusionReport, Model, SemValue, SoundnessVerdict,
    Table, TooLarge, _result_base, denote_toplevel,
)
from lamu.equiv import (
    STUCK_CONS, STUCK_GUARD, STUCK_LAM, STUCK_UNIF, STUCK_VAR, StuckKind,
    canonical_program,
)
from lamu.generator import STRATIFIED_SIGNATURE, Generator, GeneratorConfig
from lamu.parallel import ParNormalResult, _lift, par_term
from lamu.reduction import (
    ALLOC, BETA, FAILRULE, FRESH, GUARD, UNIF, Exploration, Redex,
    enumerate_redexes, evaluate,
)
from lamu.reduction import replay as replay_programs
from lamu.syntax import (
    OK, Abs, AbsLoc, App, CoherenceError, Cons, Fresh, Guard, LamuError,
    Program, Record, Session, Substitution, Term, Unif, Value, Var, _Node,
    alpha_eq, check_coherent, coherence_witness, free_vars, make_spine,
    singleton, spine, subst_apply, subterms, term_key,
)
from lamu.typecheck import (
    Arrow, Base, Meta, Type, TypeCheckError, Typing, ambient_context,
    arg_types, base_names, base_names_used, default_signature, infer,
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
# The rules that ==, hash and repr of the nodes and records keep, stated
# once over their fields: what the hand-written ones are checked against

def _ruled(x) -> bool:
    """A node, or a record that the rules below speak of: Substitution
    (its map compared and hashed as a set of items) is not one."""
    return (isinstance(x, (_Node, Record, Atom, Table, Base, Arrow, Meta))
            and type(x) is not Substitution)


def _is_field(slot: str) -> bool:
    """Whether a slot holds a field, not a fact taken when its object is
    built: a term's value flag, or an underscored slot, such as an
    Atom's or a Table's hash and a Table's index."""
    return slot != "value" and not slot.startswith("_")


def fields(x) -> tuple:
    """x's fields in slot order, without its construction-time facts."""
    return tuple([getattr(x, f) for f in type(x).__slots__ if _is_field(f)])


def rule_key(x):
    """What == compares: a node or record is its class with its fields'
    keys, leaving out ann on terms; a tuple or frozenset is its
    elements' keys; anything else is itself.  Two objects are equal
    exactly when their keys are."""
    if type(x) is tuple:
        return tuple(map(rule_key, x))
    if type(x) is frozenset:
        return frozenset(map(rule_key, x))
    if not _ruled(x):
        return x
    compared = [f for f in type(x).__slots__
                if _is_field(f) and not (f == "ann" and isinstance(x, Term))]
    return (type(x), *[rule_key(getattr(x, f)) for f in compared])


def rule_repr(x) -> str:
    """What repr prints: a node or record as Class(field=value, ...),
    its fields only; an atom as base#i or its constructor applied to its
    arguments, a table as its entries, a base type as its name, an
    arrow with its left side in parentheses when that is an arrow, a
    metavariable as ?id; anything else as its own repr."""
    cls = type(x)
    if cls is tuple:
        inner = ", ".join(map(rule_repr, x))
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    if cls is Atom:
        if x.tag[0] == "atom":
            return f"{x.base}#{x.tag[1]}"
        name, args = x.tag[1:]
        return f"{name}({', '.join(map(rule_repr, args))})" if args else name
    if cls is Table:
        return "Table[" + ", ".join(
            f"{rule_repr(a)}->{{{','.join(sorted(map(rule_repr, image)))}}}"
            for a, image in x.entries) + "]"
    if cls is Base:
        return x.name
    if cls is Arrow:
        left = rule_repr(x.left)
        return (f"({left})" if type(x.left) is Arrow else left) + \
            f" -> {rule_repr(x.right)}"
    if cls is Meta:
        return f"?{x.id}"
    if not _ruled(x) or cls is unify.Problem:
        return repr(x)
    shown = [f"{f}={rule_repr(getattr(x, f))}" for f in cls.__slots__
             if _is_field(f)]
    return f"{cls.__name__}({', '.join(shown)})"


def rebuild(x):
    """x built again node by node from its fields, sharing no node or
    record with it: tuples and frozensets are taken apart too."""
    if type(x) is tuple:
        return tuple(map(rebuild, x))
    if type(x) is frozenset:
        return frozenset(map(rebuild, x))
    if not _ruled(x):
        return x
    return type(x)(*map(rebuild, fields(x)))


def assert_records_keep_the_rules(records, pairs):
    """repr of every record as the rules print it, its hash the hash of
    its field tuple, and the record equal to a copy that shares no
    record with it; == and != for each (i, j) in pairs as the rules
    have them.  Only for the records with a hash.  Returns how many of
    the pairs are unequal."""
    keys = [rule_key(x) for x in records]
    for x in records:
        copy = rebuild(x)
        assert copy is not x and copy == x and not copy != x, x
        assert repr(x) == rule_repr(x)
        assert hash(x) == hash(fields(x)) == hash(copy), x
    unequal = 0
    for i, j in pairs:
        equal = keys[i] == keys[j]
        assert (records[i] == records[j]) is equal, (records[i], records[j])
        assert (records[i] != records[j]) is not equal
        unequal += not equal
    return unequal


# the record of one step of unify_step, below
class Stepped(Value):
    """The problem one rule rewrote the last one to, and the rule.  Like
    Failed and Solved, a ``Value``."""
    __slots__ = ("problem", "rule")

    def __init__(self, problem, rule):
        self.problem = problem
        self.rule = rule


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
            yield ContextRedex(thread, context_of(HOLE), t, UNIF)
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


def collect_oracle(t: Term, path, thread: int, out: list):
    """Append the redexes of t, reached along path in the given thread,
    to out in leftmost-innermost order (post-order, children left to
    right): the recursive search, one Python frame per level, that
    reduction._collect's explicit stack replaced.  It enters no child
    that is a value: a value holds no redex."""
    cls = type(t)
    if cls is App:
        fn, arg = t.fn, t.arg
        if not fn.value:
            collect_oracle(fn, (t, 0, path), thread, out)
        if not arg.value:
            collect_oracle(arg, (t, 1, path), thread, out)
        elif type(fn) is AbsLoc:
            out.append(Redex(thread, path, t, BETA))
    elif cls is Guard or cls is Unif:
        left, right = t.left, t.right
        if not left.value:
            collect_oracle(left, (t, 0, path), thread, out)
        if not right.value:
            collect_oracle(right, (t, 1, path), thread, out)
        if cls is Guard:
            if left.value:
                out.append(Redex(thread, path, t, GUARD))
        elif left.value and right.value:
            out.append(Redex(thread, path, t, UNIF))
    elif cls is Abs:
        out.append(Redex(thread, path, t, ALLOC))
    elif cls is Fresh:
        out.append(Redex(thread, path, t, FRESH))


def redexes_oracle(p) -> List[Redex]:
    """Every redex of a program or a sequence of threads, in order, by
    collect_oracle: what enumerate_redexes is checked against."""
    out = []
    for i, t in enumerate(p):
        collect_oracle(t, None, i, out)
    return out


def find_redex_oracle(p, strategy="leftmost", rng=None):
    """The redex the strategy picks among every redex of the program, in
    order: the selection that reduction.find_redex, which stops early
    under leftmost and rightmost, is checked against."""
    redexes = redexes_oracle(p)
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


def check_step_invariants(threads_before, ts):
    """The threads after the step ts of a run whose threads were
    threads_before, once the step is checked against what a run keeps.
    The stepped thread is the object at index ts.thread, so a caller
    that splices every step and ends with the run's own threads, object
    for object, has seen each step leave every other thread alone.
    Every thread the step made is coherent.  The location alloc issued,
    or the variable fresh issued, occurs nowhere before the step."""
    assert threads_before[ts.thread] is ts.before, (
        "the stepped thread is not the thread at its index", ts)
    for t in ts.after:
        witness = coherence_witness([t])
        assert witness is None, ("an incoherent thread", t, witness)
    if ts.rule == ALLOC:
        assert not any(ts.fresh_loc in locations(t)
                       for t in threads_before), ("a reissued location", ts)
    elif ts.rule == FRESH:
        assert not any(ts.fresh_var in all_names(t)
                       for t in threads_before), ("a reissued variable", ts)
    i = ts.thread
    return [*threads_before[:i], *ts.after, *threads_before[i + 1:]]


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
# The small values that the substitution and canonical-form laws range
# over: the leaves x, y, C, D and \x@L1. x, and the nodes C a b and D a b

VALUE_LEAVES = (Var("x"), Var("y"), Cons("C"), Cons("D"),
                AbsLoc(1, "x", singleton(Var("x"))))
VALUE_HEADS = (Cons("C"), Cons("D"))


def _values_of(leaves: int) -> list:
    """Every value of the universe with exactly leaves leaves, in a fixed
    order: 5, 50 and 1 000 of them for 1, 2 and 3 leaves."""
    if leaves == 1:
        return list(VALUE_LEAVES)
    return [App(App(head, a), b)
            for k in range(1, leaves)
            for a in _values_of(k) for b in _values_of(leaves - k)
            for head in VALUE_HEADS]


def small_values(leaves: int) -> list:
    """Every value of the universe with at most leaves leaves, fewest
    first: 55 for 2 leaves, 1 055 for 3."""
    return [v for n in range(1, leaves + 1) for v in _values_of(n)]


def draw_value(rng) -> Term:
    """A value of the universe with at most 6 leaves, drawn from rng: the
    count uniformly, then the shape, the leaves and the heads."""
    return _draw_value_of(rng, rng.randint(1, 6))


def _draw_value_of(rng, leaves: int) -> Term:
    if leaves == 1:
        return rng.choice(VALUE_LEAVES)
    k = rng.randint(1, leaves - 1)
    return App(App(rng.choice(VALUE_HEADS), _draw_value_of(rng, k)),
               _draw_value_of(rng, leaves - k))


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
    that syntax.subst_single is checked against."""
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
    against.  A unif redex steps by unif or fail as a fresh mgu_goal of
    its sides says."""
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
        outcome = unify.mgu_goal(focus.left, focus.right)
        if isinstance(outcome, unify.Solved):
            sigma = outcome.substitution
            middle = (subst_apply_oracle(plug_term(w, Cons(OK)), sigma),)
        else:
            rule, middle = FAILRULE, ()
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


def denote_oracle(x, env, model):
    """The denotation of a term or program under env, each binder walked
    again under every environment, closed or not: the definition that
    denot.denote, which denotes each closed binder once per call, is
    checked against."""
    if isinstance(x, Program):
        out = frozenset()
        for t in x:
            out |= denote_oracle(t, env, model)
        return out
    t = x
    if isinstance(t, Var):
        if t.name not in env:
            raise DenotError(f"variable {t.name} missing from environment")
        return frozenset((env[t.name],))
    if isinstance(t, Cons):
        return frozenset((model.cons_interp(t.name),))
    if isinstance(t, (Abs, AbsLoc)):
        if t.ann is None:
            raise DenotError("abstraction lacks a binder type annotation")
        domain = model.enum_type(t.ann)
        entries = tuple(
            (a, denote_oracle(t.body, {**env, t.var: a}, model))
            for a in domain)
        return frozenset((Table(entries),))
    if isinstance(t, App):
        fns = denote_oracle(t.fn, env, model)
        args = denote_oracle(t.arg, env, model)
        out = set()
        for f in fns:
            if not isinstance(f, Table):
                raise DenotError("application of a non-function denotation")
            for a in args:
                out |= f(a)
        return frozenset(out)
    if isinstance(t, Unif):
        if denote_oracle(t.left, env, model) & denote_oracle(t.right, env,
                                                             model):
            return frozenset((model.ok,))
        return frozenset()
    if isinstance(t, Guard):
        if not denote_oracle(t.left, env, model):
            return frozenset()
        return denote_oracle(t.right, env, model)
    if isinstance(t, Fresh):
        if t.ann is None:
            raise DenotError("fresh binder lacks a type annotation")
        out = frozenset()
        for a in model.enum_type(t.ann):
            out |= denote_oracle(t.body, {**env, t.var: a}, model)
        return out
    raise DenotError(f"cannot denote {t!r}")


def denote_toplevel_oracle(x, model, gamma, walk=None):
    """The toplevel denotation as the union over every environment on all
    the free variables of x, each denoting the whole of x with walk,
    denote_oracle unless given: the definition that the thread-by-thread
    denot.denote_toplevel is checked against."""
    walk = walk or denote_oracle
    names = sorted(free_vars(x))
    missing = [n for n in names if n not in gamma]
    if missing:
        raise DenotError(f"no types for free variables {missing}")
    domains = [model.enum_type(gamma[n]) for n in names]
    out = frozenset()
    for combo in itertools.product(*domains):
        out |= walk(x, dict(zip(names, combo)), model)
    return out


class ScanAtom(Atom):
    """An Atom hashed afresh from its fields on every call: the
    definition that Atom's hash, taken once when it is built, is checked
    against.  It is equal to an Atom with the same fields, so that a
    denotation of these compares with one of src's values, through their
    hashes too."""
    __slots__ = ()

    def __eq__(self, other):
        if isinstance(other, Atom):
            return (self.base, self.tag) == (other.base, other.tag)
        return NotImplemented

    def __hash__(self):
        return hash((self.base, self.tag))


class ScanTable(Table):
    """A Table hashed afresh on every call, compared as ScanAtom, and
    applied by a linear scan of its entries: the definition that Table's
    hash and index, taken once when it is built, are checked against."""
    __slots__ = ()

    def __eq__(self, other):
        if isinstance(other, Table):
            return (self.entries,) == (other.entries,)
        return NotImplemented

    def __hash__(self):
        return hash((self.entries,))

    def __call__(self, arg):
        for a, image in self.entries:
            if a == arg:
                return image
        raise DenotError(f"argument {arg!r} outside table domain")


def denote_toplevel_scanning(x, model, gamma):
    """denote_toplevel in model built again, from its declared atoms,
    signature and cap, with ScanAtom and ScanTable in place of lamu.denot's
    Atom and Table while it runs."""
    declared = {name: sum(a.tag[0] == "atom" for a in atoms)
                for name, atoms in model._bases.items()}
    saved = denot.Atom, denot.Table
    denot.Atom, denot.Table = ScanAtom, ScanTable
    try:
        return denote_toplevel(x, Model(declared, model.sig, model.cap),
                               gamma)
    finally:
        denot.Atom, denot.Table = saved


def equal_images_source(n: int) -> str:
    """A file whose denotation is one table of n tables of n entries,
    each entry applying the constructor K twice."""
    return f"base i = {n}.\ncons K : i -> k.\n\\x. \\y. K x =:= K y\n"


class RoundLoopModel(Model):
    """The model whose bases are closed as a least fixpoint: every
    constructor product is rebuilt in rounds over the atoms found so far,
    the enumerations cleared each round, until no base gains an atom;
    each product is compared with the cap only once built.  The
    definition that denot.Model's one closure in dependency order is
    checked against.  A cycle of the feed graph is searched for first,
    in the order of Model's closing walk: from each constructor's result
    base, constructors in name order, their argument bases left to
    right; the first base met again on the current path is named.  So
    on a signature with both a cycle and a product past the cap the two
    may name different faults; the parity cases hold none such."""

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
        feeds = {}   # base -> the bases its arguments use, in walk order
        for c in self.sig:
            base = _result_base(self.sig[c])
            self._bases.setdefault(base, [])
            for sub in base_names(*arg_types(self.sig[c])):
                self._bases.setdefault(sub, [])
        for c in sorted(self.sig):
            feeds.setdefault(_result_base(self.sig[c]), []).extend(
                base_names(*arg_types(self.sig[c])))
        acyclic = set()

        def search(base, path):
            if base in path:
                raise TooLarge(f"base type {base}", "infinitely many",
                               self.cap)
            if base not in acyclic:
                for sub in feeds.get(base, ()):
                    search(sub, path | {base})
                acyclic.add(base)

        for c in sorted(self.sig):
            search(_result_base(self.sig[c]), frozenset())
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
                shown = count if count < 2 ** 64 else \
                    f"2^{count.bit_length() - 1}"
                raise TooLarge(repr(ty), shown, self.cap)
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
# soundness that denotes the whole program after every step; and the
# solver they share, whose metavariables are Meta records bound in a dict

class _Solver:
    def __init__(self):
        self._next = 0
        self._bindings = {}

    def fresh(self):
        m = Meta(self._next)
        self._next += 1
        return m

    def resolve(self, ty):
        while isinstance(ty, Meta) and ty.id in self._bindings:
            ty = self._bindings[ty.id]
        return ty

    def _occurs(self, mid, ty):
        ty = self.resolve(ty)
        if isinstance(ty, Meta):
            return ty.id == mid
        if isinstance(ty, Arrow):
            return self._occurs(mid, ty.left) or self._occurs(mid, ty.right)
        return False

    def unify(self, a, b, where):
        a = self.resolve(a)
        b = self.resolve(b)
        if a == b:
            return
        if isinstance(a, Meta):
            if self._occurs(a.id, b):
                raise TypeCheckError(f"occurs check failed at {where}: "
                                     f"{a!r} in {self.zonk(b)!r}")
            self._bindings[a.id] = b
            return
        if isinstance(b, Meta):
            self.unify(b, a, where)
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.left, b.left, where)
            self.unify(a.right, b.right, where)
            return
        raise TypeCheckError(
            f"type mismatch at {where}: {self.zonk(a)!r} vs {self.zonk(b)!r}")

    def zonk(self, ty):
        ty = self.resolve(ty)
        if isinstance(ty, Arrow):
            return Arrow(self.zonk(ty.left), self.zonk(ty.right))
        return ty


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
            self.solver.unify(lty, self.term(gamma, Cons(OK))[1],
                              "guard condition")
            return Guard(left, right), rty
        if isinstance(t, Unif):
            left, lty = self.term(gamma, t.left)
            right, rty = self.term(gamma, t.right)
            self.solver.unify(lty, rty, "unification goal")
            return Unif(left, right), self.term(gamma, Cons(OK))[1]
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
    session = check_coherent(p)
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


def critical_pair_instances():
    """Criterion 4's critical-pair family: (v1 =:= v2) (w1 =:= w2) t
    with both goals solvable, so the two interleavings must meet after
    discharging both unifiers."""
    x, y, z = Var("x"), Var("y"), Var("z")
    C, D = Cons("C"), Cons("D")
    S = lambda v: App(Cons("S"), v)
    P = lambda v, w: App(App(Cons("P"), v), w)
    return [singleton(App(App(Unif(v1, v2), Unif(w1, w2)), t))
            for v1, v2, w1, w2, t in (
                (x, C, y, D, P(x, y)),
                (x, S(y), y, C, P(x, y)),
                (x, y, y, D, P(x, y)),
                (P(x, y), P(C, D), x, C, P(y, x)),
                (x, C, x, y, P(x, y)),
                (S(x), S(C), y, S(x), P(x, y)),
                (x, AbsLoc(1, "v", singleton(Var("v"))), y, C, P(x, y)),
                (P(x, C), P(D, y), z, S(x), P(z, y)),
                (x, y, z, D, P(x, z)),
                (S(S(x)), S(S(C)), y, x, P(x, y)))]


# ---------------------------------------------------------------------------
# The acceptance criteria's inputs, which test_acceptance checks and the
# tests of a fast path on the same inputs draw again.  Every call draws
# afresh: no test sees another's draws.

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
# never normal: every beta step spawns a copy of itself beside a C
DIVERGENT = r"(\x. x x | C) (\x. x x | C)"
# criterion 8 checks 200 draws and skips 15 that have no finite model
CRITERION_8_DRAWS = 215


def criterion_4_programs(count):
    """The first count draws of criteria 4 and 9's stream: depth 4,
    seed 7."""
    return itertools.islice(
        Generator(GeneratorConfig(seed=7, max_depth=4)).programs(), count)


def confluence_stream(count=40):
    """The criterion 4/9 stream's first count programs, the critical
    pairs and the divergent program: at 40, the programs that the
    benchmark's confluence workload explores."""
    return [*criterion_4_programs(count), *critical_pair_instances(),
            parse_program(DIVERGENT)]


def equivalent_variant(p: Program, rng) -> Program:
    """A program related to p by thread reordering plus injective
    renaming of per-thread free variables and of locations."""
    threads = []
    for k, t in enumerate(p):
        sigma = Substitution({n: Var(f"w{k}_{j}")
                              for j, n in enumerate(sorted(free_vars(t)))})
        renamed = subst_apply(t, sigma)
        for loc in sorted(locations(renamed), reverse=True):
            renamed = subst_loc(renamed, loc, loc + 1000)
        threads.append(renamed)
    rng.shuffle(threads)
    return Program(tuple(threads))


def criterion_5_draws(count):
    """Criterion 5's count triples: a depth-3 program from seed 71 that
    has a redex, an equivalent variant of it and the redex to step, both
    chosen by one rng, also seeded 71."""
    rng = random.Random(71)
    gen = Generator(GeneratorConfig(seed=71, max_depth=3))
    drawn = 0
    while drawn < count:
        p = gen.program()
        redexes = enumerate_redexes(p)
        if redexes:
            q = equivalent_variant(p, rng)
            yield p, q, redexes[rng.randrange(len(redexes))]
            drawn += 1


def criterion_6_generator() -> Generator:
    """The generator of criterion 6's goals: depth-3 values over x and
    y, seed 13."""
    return Generator(GeneratorConfig(seed=13, max_depth=3,
                                     variables=("x", "y")))


def criterion_6_problems() -> list:
    """Criterion 6's 1 000 goal sets, of one to three goals each."""
    gen = criterion_6_generator()
    return [unify.Problem([unify.Goal(*gen.goal())
                           for _ in range(gen.rng.randint(1, 3))])
            for _ in range(1000)]


def criterion_7_config() -> GeneratorConfig:
    """Criterion 7's stream: well-typed depth-3 programs without
    locations over the default signature, seed 19."""
    return GeneratorConfig(seed=19, max_depth=3, allow_absloc=False,
                           well_typed=True)


def criterion_8_config() -> GeneratorConfig:
    """Criterion 8's stream: as criterion 7's, over the stratified
    signature, seed 29."""
    return GeneratorConfig(seed=29, max_depth=3, allow_absloc=False,
                           well_typed=True,
                           signature=dict(STRATIFIED_SIGNATURE))


def model_sizes(typing: Typing) -> dict:
    """Criterion 8's model: two atoms for each base type of the typing
    but unit."""
    return {n: 2 for n in base_names_used(typing) if n != "unit"}


def criterion_8_draws():
    """Criterion 8's stream, each draw with its typing and its model
    (cap 4 096), or the TooLarge or DenotError that building the model
    raised, for which criterion 8 skips the draw."""
    config = criterion_8_config()
    sig = default_signature(config.signature)
    for p in Generator(config).programs():
        typing = infer(ambient_context(p), sig, p)
        try:
            model = Model(model_sizes(typing), sig, cap=4096)
        except (TooLarge, DenotError) as exc:
            model = exc
        yield p, typing, model


def worked_example():
    """Criterion 8's worked example, and its model: nat has four atoms,
    N1 and N2 are nats and T pairs two of them into a tuple."""
    nat, tup = Base("nat"), Base("tuple")
    sig = default_signature({
        "N1": nat, "N2": nat, "T": Arrow(nat, Arrow(nat, tup))})
    return (parse_program(r"fresh x. ((\z. fresh y. ((z =:= T N1 y); "
                          r"(T y x))) (T x N2))"),
            Model({"nat": 4}, sig))


def criterion_10_config() -> GeneratorConfig:
    """Criterion 10's stream: depth-4 programs, seed 43."""
    return GeneratorConfig(seed=43, max_depth=4)


def corpus_sources() -> Iterator[tuple]:
    """Each corpus file's name and its parsed source, in name order."""
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as handle:
            yield name, parse_file(handle.read())


def python(*argv, **popen):
    """Python started in a subprocess with src/ on its path, which it
    does not get from pytest's pythonpath setting."""
    src_dir = os.path.join(os.path.dirname(CORPUS), os.pardir, "src")
    pythonpath = os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, **popen.pop("env", {}))
    return subprocess.Popen([sys.executable, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, **popen)


def cli(*argv, **popen):
    """lamu.cli started in a subprocess."""
    return python("-m", "lamu.cli", *argv, **popen)


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
        reduct, goals = par_term(t, session)
        outcome = unify.mgu(unify.Problem(goals))
        if isinstance(outcome, unify.Failed):
            continue
        threads.extend(subst_apply_oracle(
            Program(reduct), outcome.substitution).threads)
    return Program(tuple(threads))


def par_normalize_oracle(p: Program, fuel=200) -> ParNormalResult:
    """par_step_oracle on the whole program until every thread is normal
    by is_normal_term_oracle, or for exactly fuel steps."""
    session = check_coherent(p)
    current = p
    for n in range(fuel + 1):
        if all(is_normal_term_oracle(t) for t in current):
            return ParNormalResult(current, n, True)
        if n == fuel:
            break
        current = par_step_oracle(current, session)
    return ParNormalResult(current, fuel, False)


# ---------------------------------------------------------------------------
# The rule-by-rule unification step, which rebuilds the problem after
# every rule, and the mgu that iterates it: the oracle of unify.mgu

def goal_free_vars(goal) -> frozenset:
    return free_vars(goal.lhs) | free_vars(goal.rhs)


def goal_subst(goal, sigma: Substitution):
    return unify.Goal(subst_apply(goal.lhs, sigma), subst_apply(goal.rhs, sigma))


def keyed_problem(goals):
    """The problem of goals, each alpha-duplicate of an earlier goal
    dropped by its full key, as unify.Problem drops it."""
    first = {}
    for g in goals:
        first.setdefault((term_key(g.lhs), term_key(g.rhs)), g)
    return unify.Problem(first.values())


def unify_step(problem):
    """Apply exactly one rewrite rule to the first goal that some rule
    fits, in insertion order.  For that goal the rule is the first that
    fits in the priority delete > clash > occurs-check > orient >
    match-lam > match-cons > eliminate.  Returns Stepped, Failed, or
    None when the problem is in solved form."""
    Goal, Problem = unify.Goal, keyed_problem
    goals = problem.goals
    for i, goal in enumerate(goals):
        v, w = goal.lhs, goal.rhs
        rest = goals[:i] + goals[i + 1:]
        if isinstance(v, Var):
            if isinstance(w, Var) and w.name == v.name:
                return Stepped(Problem(rest), "u-delete")
            if v.name in free_vars(w):
                return unify.Failed(unify.OCCURS_CHECK, goal)
            if any(v.name in goal_free_vars(g) for g in rest):
                sigma = Substitution({v.name: w})
                new_rest = tuple(goal_subst(g, sigma) for g in rest)
                return Stepped(Problem(new_rest[:i] + (goal,) + new_rest[i:]),
                               "u-eliminate")
            continue
        reason = unify.clash(v, w)
        if reason is not None:
            return unify.Failed(reason, goal)
        if isinstance(w, Var):
            return Stepped(Problem(rest[:i] + (Goal(w, v),) + rest[i:]),
                           "u-orient")
        if isinstance(v, AbsLoc):
            # without a clash, w is an AbsLoc at the same location
            if not alpha_eq(v, w):
                raise CoherenceError(
                    "equal locations with distinct bodies in unification goal")
            return Stepped(Problem(rest), "u-match-lam")
        # without a clash, both are structures with one head and arity
        _, v_args = spine(v)
        _, w_args = spine(w)
        decomposed = tuple(Goal(a, b) for a, b in zip(v_args, w_args))
        return Stepped(Problem(rest[:i] + decomposed + rest[i:]), "u-match-cons")
    return None


def mgu_oracle(problem):
    """unify_step iterated to a normal form: the idempotent most general
    unifier read off the solved form, or the failure witness."""
    while True:
        result = unify_step(problem)
        if result is None:
            return unify.Solved(Substitution(
                {g.lhs.name: g.rhs for g in problem}))
        if isinstance(result, unify.Failed):
            return result
        problem = result.problem


# ---------------------------------------------------------------------------
# Unification problems and goals, read by the tests only

def problem_free_vars(problem) -> frozenset:
    out = frozenset()
    for g in problem:
        out |= goal_free_vars(g)
    return out


def problem_terms(problem) -> Iterator[Term]:
    for g in problem:
        yield g.lhs
        yield g.rhs


def problem_subst(problem, sigma: Substitution):
    """The problem with sigma applied to both sides of every goal."""
    return unify.Problem(goal_subst(g, sigma) for g in problem)


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
        due[max((position[n] + 1 for n in goal_free_vars(g)),
                default=0)].append(g)
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

def par_term_all(t: Term, session: Session) -> List[tuple]:
    """Every member of the simultaneous reduction relation for a term,
    each a (threads, goals) pair as par_term returns it.  Exponential;
    intended for bounded-size inputs."""
    out: List[tuple] = []

    def binary(ctor, left, right):
        for lts, lgoals in par_term_all(left, session):
            for rts, rgoals in par_term_all(right, session):
                out.append((_lift(ctor, lts, rts), lgoals + rgoals))

    if isinstance(t, (Var, Cons, AbsLoc)):
        return [((t,), ())]
    if isinstance(t, Abs):
        loc = session.fresh_loc()
        return [((t,), ()), ((AbsLoc(loc, t.var, t.body, t.ann),), ())]
    if isinstance(t, Fresh):
        results = [((t,), ())]
        y = session.fresh_var()
        body = subst_single_oracle(t.body, t.var, Var(y))
        results.extend(par_term_all(body, session))
        return results
    if isinstance(t, App):
        binary(App, t.fn, t.arg)
        if isinstance(t.fn, AbsLoc) and is_value_oracle(t.arg):
            body = subst_single_oracle(t.fn.body, t.fn.var, t.arg)
            out.append((body.threads, ()))
        return out
    if isinstance(t, Guard):
        binary(Guard, t.left, t.right)
        if is_value_oracle(t.left):
            out.extend(par_term_all(t.right, session))
        return out
    if isinstance(t, Unif):
        binary(Unif, t.left, t.right)
        if is_value_oracle(t.left) and is_value_oracle(t.right):
            out.append(((Cons(OK),), (unify.Goal(t.left, t.right),)))
        return out
    raise TypeError(f"unexpected term {t!r}")


def par_step_all(p: Program, session=None) -> List[Program]:
    """Every program reachable by one simultaneous reduction."""
    if session is None:
        session = check_coherent(p)
    options_per_thread = []
    for t in p:
        resolved = []
        for threads, goals in par_term_all(t, session):
            outcome = unify.mgu(unify.Problem(goals))
            if isinstance(outcome, unify.Failed):
                resolved.append(())
            else:
                resolved.append(subst_apply(
                    Program(threads), outcome.substitution).threads)
        options_per_thread.append(resolved)
    results = [()]
    for options in options_per_thread:
        results = [prefix + option for prefix in results
                   for option in options]
    return [Program(threads) for threads in results]
