"""First-order unification over values, with location-aware clash.

``mgu`` runs Martelli & Montanari's (1982) transformations in place on
one list of goals between values, each with the free names of its sides
once a step needed them, and returns an idempotent most general unifier
or a ``Failed`` witness (clash or occurs check).  Allocated abstractions
unify only when their locations coincide; under the coherence invariant
equal locations imply alpha-equal bodies.
"""
from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Optional

from .syntax import (
    AbsLoc, CoherenceError, Cons, NotAValueError, Substitution, Term, Value,
    Var, alpha_eq, free_vars, spine, subst_apply, subst_single, term_key,
)


class Goal(Value):
    """A goal between two values; as a ``Value``, == and hash compare
    the field tuple."""
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        if not (lhs.value and rhs.value):
            raise NotAValueError("both sides of a goal must be values")
        self.lhs = lhs
        self.rhs = rhs


def _head(t: Term):
    """What alpha-equivalence keeps of a value's top node."""
    return t.name if type(t) in (Var, Cons) else getattr(t, "loc", None)


def _distinct(goals, sides):
    """The goals without each one alpha-equal to an earlier one, where
    sides(goal) is its pair of sides.  Alpha-equal goals have equal
    heads, so goals whose heads all differ are not keyed."""
    pairs = [sides(g) for g in goals]
    if len({(_head(a), _head(b)) for a, b in pairs}) == len(goals):
        return goals
    first = {}
    for g, (a, b) in zip(goals, pairs):
        first.setdefault((term_key(a), term_key(b)), g)
    return list(first.values())


class Problem(Value):
    """A unification problem: a set of goals with insertion order kept
    for the deterministic rewrite policy.  Duplicates (up to alpha)
    collapse.  As a ``Value``, == and hash compare the goals."""

    __slots__ = ("goals",)

    def __init__(self, goals=()):
        goals = tuple(goals)
        self.goals = goals if len(goals) < 2 else tuple(
            _distinct(goals, attrgetter("lhs", "rhs")))

    def __iter__(self):
        return iter(self.goals)

    def __len__(self):
        return len(self.goals)

    def __repr__(self):
        return f"Problem({list(self.goals)!r})"


# ---------------------------------------------------------------------------
# Clash detection

CONSTRUCTOR_CLASH = "constructor clash"
ARITY_CLASH = "arity clash"
TYPE_CLASH = "type clash"
LOCATION_CLASH = "location clash"
OCCURS_CHECK = "occurs check"


def clash(v: Term, w: Term) -> Optional[str]:
    """Report which of the four clash conditions holds, if any."""
    v_head, v_args = spine(v)
    w_head, w_args = spine(w)
    v_struct = isinstance(v_head, Cons)
    w_struct = isinstance(w_head, Cons)
    if v_struct and w_struct:
        if v_head.name != w_head.name:
            return CONSTRUCTOR_CLASH
        if len(v_args) != len(w_args):
            return ARITY_CLASH
        return None
    if v_struct and isinstance(w, AbsLoc):
        return TYPE_CLASH
    if isinstance(v, AbsLoc) and w_struct:
        return TYPE_CLASH
    if isinstance(v, AbsLoc) and isinstance(w, AbsLoc) and v.loc != w.loc:
        return LOCATION_CLASH
    return None


# ---------------------------------------------------------------------------
# The rewrite system

class Failed(Value):
    """A clash or the occurs check, at the goal where it was found."""
    __slots__ = ("reason", "goal")

    def __init__(self, reason, goal):
        self.reason = reason
        self.goal = goal


class Solved(Value):
    __slots__ = ("substitution",)

    def __init__(self, substitution):
        self.substitution = substitution


def _eliminate(side, names, name, value, value_names):
    """One side of a goal and its free names, with value for name."""
    if name in names:
        return subst_single(side, name, value), names - {name} | value_names
    return side, names


def mgu(problem: Problem):
    """Rewrite the goals to a normal form and read off the idempotent
    most general unifier, or the failure witness."""
    return _solve([[g.lhs, None, g.rhs, None, g] for g in problem.goals])


def mgu_goal(v: Term, w: Term):
    """mgu(Problem([Goal(v, w)])), without building the goal or the
    problem: the witness of a failure is a Goal built then."""
    if not (v.value and w.value):
        raise NotAValueError("both sides of a goal must be values")
    return _solve([[v, None, w, None, None]])


def _solve(goals: list):
    """mgu's loop.  A step rewrites the first goal, in insertion order,
    that a rule fits, by the first rule in the order delete > clash >
    occurs check > orient > match-lam > match-cons > eliminate;
    alpha-duplicate goals collapse to the first.  A goal is [lhs, its
    free names, rhs, its free names, the Goal given or None], the names
    None until a step needs them."""
    i = 0
    while i < len(goals):
        goal = goals[i]
        v, w = goal[0], goal[2]
        if type(v) is Var:
            name = v.name
            if type(w) is Var and w.name == name:
                del goals[i]                                # u-delete
                i = 0
                continue
            for g in goals:
                if g[1] is None:
                    g[1], g[3] = free_vars(g[0]), free_vars(g[2])
            if name in goal[3]:
                return Failed(OCCURS_CHECK, goal[4] or Goal(v, w))
            i += 1              # on to the next goal, unless one changes
            for j, g in enumerate(goals):                   # u-eliminate
                if g is not goal and (name in g[1] or name in g[3]):
                    goals[j] = [*_eliminate(g[0], g[1], name, w, goal[3]),
                                *_eliminate(g[2], g[3], name, w, goal[3]), None]
                    i = 0
            if i == 0:
                goals[:] = _distinct(goals, itemgetter(0, 2))
            continue
        reason = clash(v, w)
        if reason is not None:
            return Failed(reason, goal[4] or Goal(v, w))
        if type(w) is Var:                                  # u-orient
            created = [[w, goal[3], v, goal[1], None]]
        elif type(v) is AbsLoc:                             # u-match-lam
            # without a clash, w is an AbsLoc at the same location
            if not alpha_eq(v, w):
                raise CoherenceError(
                    "equal locations with distinct bodies in unification goal")
            created = []
        else:                                               # u-match-cons
            # without a clash, both are structures with one head and arity
            created = [[a, None, b, None, None]
                       for a, b in zip(spine(v)[1], spine(w)[1])]
        goals[i:i + 1] = created
        if created and len(goals) > 1:
            goals[:] = _distinct(goals, itemgetter(0, 2))
        i = 0
    return Solved(Substitution({g[0].name: g[2] for g in goals}))


def is_unifier(sigma: Substitution, problem: Problem) -> bool:
    """Whether sigma makes the two sides of every goal alpha-equal."""
    for g in problem:
        a, b = subst_apply(g.lhs, sigma), subst_apply(g.rhs, sigma)
        if a != b and not alpha_eq(a, b):
            return False
    return True
