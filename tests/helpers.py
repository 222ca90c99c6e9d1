"""Helpers that only the tests use: term predicates, coherence as a
predicate, location renaming, substitution equality, trace replay, the
product-space explorer, the brute-force unification oracle, the
criterion-4 critical pairs, the recursive normal/stuck classifier and
the whole-program simultaneous evaluator, and the full simultaneous
reduction relation for the diamond spot checks."""

import functools
from typing import List

from lamu import unify
from lamu.equiv import (
    STUCK_CONS, STUCK_GUARD, STUCK_LAM, STUCK_UNIF, STUCK_VAR, StuckKind,
    canonical_program,
)
from lamu.parallel import ParNormalResult, ParResult, _lift, par_term
from lamu.reduction import Exploration, enumerate_redexes, step_at
from lamu.syntax import (
    OK, Abs, AbsLoc, App, Cons, Fresh, Guard, Hole, Program, Session,
    Substitution, Term, Unif, Var, alpha_eq, check_coherent,
    coherence_witness, is_value, make_spine, singleton, spine, subst_apply,
    subst_single, _children,
)


def is_structure(t: Term) -> bool:
    head, _ = spine(t)
    return isinstance(head, Cons) and is_value(t)


def is_weak_context(w: Term) -> bool:
    def count(t):
        if isinstance(t, Hole):
            return 1
        if isinstance(t, (App, Guard, Unif)):
            return sum(count(c) for c in _children(t))
        return 0
    return count(w) == 1


def coherent(x) -> bool:
    if isinstance(x, Program):
        return all(coherence_witness([t]) is None for t in x)
    return coherence_witness([x]) is None


def subst_loc(x, old: int, new: int):
    """Replace every location decoration old by new."""
    if isinstance(x, Program):
        return Program(tuple(subst_loc(t, old, new) for t in x))
    t = x
    if isinstance(t, (Var, Cons, Hole)):
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


def subst_equal(a: Substitution, b: Substitution) -> bool:
    """Extensional equality of substitutions, up to alpha."""
    if a.support != b.support:
        return False
    return all(alpha_eq(a(x), b(x)) for x in a.support)


def replay(trace, initial: Program) -> bool:
    """Check that the trace, replayed from the initial program,
    reproduces each recorded snapshot."""
    current = initial
    for ts in trace:
        if current != ts.before:
            return False
        current = ts.after
    return True


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
                nxt = step_at(q, r, session).after
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
    return is_value(t) or is_stuck_oracle(t) is not None


def par_step_oracle(p: Program, session: Session) -> Program:
    """One simultaneous reduction of the whole program: every thread is
    reduced and its goals unified, normal or not."""
    threads = []
    for t in p:
        result = par_term(t, session)
        outcome = unify.mgu(unify.Problem(result.goals))
        if isinstance(outcome, unify.Failed):
            continue
        threads.extend(
            subst_apply(result.program, outcome.substitution).threads)
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
    names = sorted(problem.free_vars())
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
        results.extend(par_term_all(subst_single(t.body, t.var, Var(y)), session))
        return results
    if isinstance(t, App):
        binary(App, t.fn, t.arg)
        if isinstance(t.fn, AbsLoc) and is_value(t.arg):
            out.append(ParResult(subst_single(t.fn.body, t.fn.var, t.arg), ()))
        return out
    if isinstance(t, Guard):
        binary(Guard, t.left, t.right)
        if is_value(t.left):
            out.extend(par_term_all(t.right, session))
        return out
    if isinstance(t, Unif):
        binary(Unif, t.left, t.right)
        if is_value(t.left) and is_value(t.right):
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
