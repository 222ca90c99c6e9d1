"""Helpers that only the tests use: term predicates, coherence as a
predicate, location renaming, substitution equality, trace replay, the
product-space explorer, the brute-force unification oracle, and the
full simultaneous reduction relation for the diamond spot checks."""

import functools
from typing import List

from lamu import unify
from lamu.equiv import canonical_program
from lamu.parallel import ParResult, _lift
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
