"""Simultaneous (parallel) reduction: a maximal-parallel evaluator that
collects pending unification goals per thread and discharges them at the
thread boundary.  Used as an independent oracle against the small-step
evaluator.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from . import unify
from .equiv import is_normal_program
from .syntax import (
    OK, Abs, AbsLoc, App, Cons, Fresh, Guard, Program, Session, Term,
    Unif, Var, check_coherent, is_value, singleton, subst_apply,
    subst_single,
)

@dataclass(frozen=True)
class ParResult:
    program: Program
    goals: Tuple[unify.Goal, ...]


def _lift(ctor, p: Program, q: Program) -> Program:
    """Lift a binary term constructor to programs:
    (+_i t_i) * (+_j s_j) = +_i +_j (t_i * s_j)."""
    return Program(tuple(ctor(t, s) for t in p for s in q))


def par_term(t: Term, session: Session) -> ParResult:
    """One maximal simultaneous reduction of a term: every root redex is
    contracted and every value-value unification is emitted as a pending
    goal; values map to themselves."""
    if is_value(t):
        return ParResult(singleton(t), ())
    if isinstance(t, Abs):
        loc = session.fresh_loc()
        return ParResult(singleton(AbsLoc(loc, t.var, t.body, t.ann)), ())
    if isinstance(t, Fresh):
        y = session.fresh_var()
        return par_term(subst_single(t.body, t.var, Var(y)), session)
    if isinstance(t, App):
        if isinstance(t.fn, AbsLoc) and is_value(t.arg):
            body = subst_single(t.fn.body, t.fn.var, t.arg)
            return ParResult(body, ())
        fn = par_term(t.fn, session)
        arg = par_term(t.arg, session)
        return ParResult(_lift(App, fn.program, arg.program),
                         fn.goals + arg.goals)
    if isinstance(t, Guard):
        if is_value(t.left):
            return par_term(t.right, session)
        left = par_term(t.left, session)
        right = par_term(t.right, session)
        return ParResult(_lift(Guard, left.program, right.program),
                         left.goals + right.goals)
    if isinstance(t, Unif):
        if is_value(t.left) and is_value(t.right):
            return ParResult(singleton(Cons(OK)),
                             (unify.Goal(t.left, t.right),))
        left = par_term(t.left, session)
        right = par_term(t.right, session)
        return ParResult(_lift(Unif, left.program, right.program),
                         left.goals + right.goals)
    raise TypeError(f"unexpected term {t!r}")


def par_step(p: Program, session=None) -> Program:
    """One simultaneous reduction of a program: reduce each thread, then
    apply the mgu of its pending goals, dropping the thread on failure."""
    if session is None:
        session = Session.for_program(p)
    threads = []
    for t in p:
        result = par_term(t, session)
        outcome = unify.mgu(unify.Problem(result.goals))
        if isinstance(outcome, unify.Failed):
            continue
        threads.extend(subst_apply(result.program, outcome.substitution).threads)
    return Program(tuple(threads))


@dataclass
class ParNormalResult:
    program: Program
    steps: int
    normal: bool


def par_normalize(p: Program, fuel=200) -> ParNormalResult:
    """Iterate par_step until the program is normal (a fixpoint up to
    structural equivalence); normal=False means out of fuel."""
    check_coherent(p)
    session = Session.for_program(p)
    current = p
    for n in range(fuel + 1):
        if is_normal_program(current):
            return ParNormalResult(current, n, True)
        current = par_step(current, session)
    return ParNormalResult(current, fuel, False)
