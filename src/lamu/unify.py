"""First-order unification over values, with location-aware clash.

The rewrite system operates on finite sets of goals between values and
produces either an idempotent most general unifier or a ``Failed``
witness (clash or occurs check), the one record of failure for a step
and for ``mgu``.  Allocated abstractions unify only when their locations
coincide; under the coherence invariant equal locations imply
alpha-equal bodies.
"""
from __future__ import annotations

from typing import Optional

from .syntax import (
    AbsLoc, CoherenceError, Cons, LamuError, Substitution, Term, Value,
    Var, alpha_eq, free_vars, is_value, spine, subst_apply, term_key,
)


class NotAGoalError(LamuError):
    pass


class Goal(Value):
    """A goal between two values; as a ``Value``, == and hash compare
    the field tuple."""
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        if not (is_value(lhs) and is_value(rhs)):
            raise NotAGoalError("both sides of a goal must be values")
        self.lhs = lhs
        self.rhs = rhs

    def subst(self, sigma: Substitution) -> "Goal":
        return Goal(subst_apply(self.lhs, sigma), subst_apply(self.rhs, sigma))

    def free_vars(self):
        return free_vars(self.lhs) | free_vars(self.rhs)


def _goal_key(g: Goal):
    return term_key(g.lhs), term_key(g.rhs)


class Problem(Value):
    """A unification problem: a set of goals with insertion order kept
    for the deterministic rewrite policy.  Duplicates (up to alpha)
    collapse; a problem of one goal holds no duplicate, so only a
    problem of two or more goals keys them.  As a ``Value``, == and hash
    compare the goals."""

    __slots__ = ("goals",)

    def __init__(self, goals=()):
        goals = tuple(goals)
        if len(goals) > 1:
            seen = set()
            out = []
            for g in goals:
                key = _goal_key(g)
                if key not in seen:
                    seen.add(key)
                    out.append(g)
            goals = tuple(out)
        self.goals = goals

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

class Stepped(Value):
    """The problem one rule rewrote the last one to, and the rule.  Like
    Failed and Solved, a ``Value``."""
    __slots__ = ("problem", "rule")

    def __init__(self, problem, rule):
        self.problem = problem
        self.rule = rule


class Failed(Value):
    """A clash or the occurs check, at the goal where it was found."""
    __slots__ = ("reason", "goal")

    def __init__(self, reason, goal):
        self.reason = reason
        self.goal = goal


def unify_step(problem: Problem):
    """Apply exactly one rewrite rule to the first goal that some rule
    fits, in insertion order.  For that goal the rule is the first that
    fits in the priority delete > clash > occurs-check > orient >
    match-lam > match-cons > eliminate.  Returns Stepped, Failed, or
    None when the problem is in solved form."""
    goals = problem.goals
    for i, goal in enumerate(goals):
        v, w = goal.lhs, goal.rhs
        rest = goals[:i] + goals[i + 1:]
        if isinstance(v, Var):
            if isinstance(w, Var) and w.name == v.name:
                return Stepped(Problem(rest), "u-delete")
            if v.name in free_vars(w):
                return Failed(OCCURS_CHECK, goal)
            if any(v.name in g.free_vars() for g in rest):
                sigma = Substitution({v.name: w})
                new_rest = tuple(g.subst(sigma) for g in rest)
                return Stepped(Problem(new_rest[:i] + (goal,) + new_rest[i:]),
                               "u-eliminate")
            continue
        reason = clash(v, w)
        if reason is not None:
            return Failed(reason, goal)
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


# ---------------------------------------------------------------------------
# mgu

class Solved(Value):
    __slots__ = ("substitution",)

    def __init__(self, substitution):
        self.substitution = substitution


def mgu(problem: Problem):
    """Iterate the rewrite system to a normal form and read off the
    idempotent most general unifier, or the failure witness."""
    current = problem
    while True:
        result = unify_step(current)
        if result is None:
            bindings = {}
            for g in current:
                assert isinstance(g.lhs, Var), "normal form is not solved"
                bindings[g.lhs.name] = g.rhs
            return Solved(Substitution(bindings))
        if isinstance(result, Failed):
            return result
        current = result.problem


def mgu_goal(v: Term, w: Term):
    return mgu(Problem([Goal(v, w)]))


def is_unifier(sigma: Substitution, problem: Problem) -> bool:
    return all(
        alpha_eq(subst_apply(g.lhs, sigma), subst_apply(g.rhs, sigma))
        for g in problem)
