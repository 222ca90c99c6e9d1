"""Simultaneous (parallel) reduction: a maximal-parallel evaluator that
collects pending unification goals per thread and discharges them at the
thread boundary.  Used as an independent oracle against the small-step
evaluator.  ``par_term`` returns the reduct's threads and its pending
goals.  Threads never interact, so a thread is the unit of work:
``par_normalize`` steps only the threads that are not yet normal, and
its loop holds only those, so its cost is linear in the thread-steps
it takes.
"""
from __future__ import annotations

from typing import Tuple

from . import unify
from .equiv import is_normal_term
from .syntax import (
    OK, Abs, AbsLoc, App, Cons, Fresh, Guard, Program, Record, Session,
    Term, Unif, Var, check_coherent, subst_apply, subst_single,
)


def _lift(ctor, ts: tuple, us: tuple) -> tuple:
    """Lift a binary term constructor to threads:
    (+_i t_i) * (+_j s_j) = +_i +_j (t_i * s_j)."""
    return tuple([ctor(t, s) for t in ts for s in us])


def par_term(t: Term, session: Session) -> Tuple[tuple, tuple]:
    """One maximal simultaneous reduction of a term: every root redex is
    contracted and every value-value unification is emitted as a pending
    goal; values map to themselves."""
    if t.value:
        return (t,), ()
    if isinstance(t, Abs):
        loc = session.fresh_loc()
        return (AbsLoc(loc, t.var, t.body, t.ann),), ()
    if isinstance(t, Fresh):
        y = session.fresh_var()
        return par_term(subst_single(t.body, t.var, Var(y)), session)
    if isinstance(t, App):
        if isinstance(t.fn, AbsLoc) and t.arg.value:
            return subst_single(t.fn.body, t.fn.var, t.arg).threads, ()
        fn, fn_goals = par_term(t.fn, session)
        arg, arg_goals = par_term(t.arg, session)
        return _lift(App, fn, arg), fn_goals + arg_goals
    if isinstance(t, Guard):
        if t.left.value:
            return par_term(t.right, session)
        left, left_goals = par_term(t.left, session)
        right, right_goals = par_term(t.right, session)
        return _lift(Guard, left, right), left_goals + right_goals
    if isinstance(t, Unif):
        if t.left.value and t.right.value:
            return (Cons(OK),), (unify.Goal(t.left, t.right),)
        left, left_goals = par_term(t.left, session)
        right, right_goals = par_term(t.right, session)
        return _lift(Unif, left, right), left_goals + right_goals
    raise TypeError(f"unexpected term {t!r}")


def _par_thread(t: Term, session: Session) -> Tuple[Term, ...]:
    """One simultaneous step of one thread: reduce it, then apply the mgu
    of its pending goals; no threads when they fail to unify."""
    threads, goals = par_term(t, session)
    if not goals:
        return threads
    outcome = unify.mgu(unify.Problem(goals))
    if isinstance(outcome, unify.Failed):
        return ()
    return tuple([subst_apply(u, outcome.substitution) for u in threads])


def par_step(p: Program, session=None) -> Program:
    """One simultaneous reduction of a program, thread by thread; without
    a session, check_coherent checks p coherent and makes one."""
    if session is None:
        session = check_coherent(p)
    return Program(tuple(u for t in p for u in _par_thread(t, session)))


class ParNormalResult(Record):
    __slots__ = ("program", "steps", "normal")

    def __init__(self, program, steps, normal):
        self.program = program
        self.steps = steps
        self.normal = normal


def _place(threads, slot: list, pending: list):
    """Append each thread to slot: a normal one as itself, any other as
    a new slot, queued with its thread on pending."""
    for u in threads:
        if is_normal_term(u):
            slot.append(u)
        else:
            sub = []
            slot.append(sub)
            pending.append((u, sub))


def par_normalize(p: Program, fuel=200) -> ParNormalResult:
    """Iterate par_step until the program is normal; normal=False means
    out of fuel, with the program after exactly fuel steps.  A thread is
    classified once, when it appears, and a normal one is never looked
    at again: it is a fixpoint of par_term that emits no goal and draws
    nothing from the session, so this equals par_step on the whole
    program.  The loop holds only the pending threads, in program order,
    each with the slot (a list) that receives what it steps to; a slot
    holds normal threads and the slots of pending ones, and the slot
    tree is flattened once at the end.  A step costs the pending
    threads, not the finished ones."""
    session = check_coherent(p)
    root, pending = [], []
    _place(p.threads, root, pending)
    steps = 0
    while pending and steps < fuel:
        nxt = []
        for t, slot in pending:
            _place(_par_thread(t, session), slot, nxt)
        pending = nxt
        steps += 1
    for t, slot in pending:
        slot.append(t)
    threads, stack = [], [root]
    while stack:
        x = stack.pop()
        if type(x) is list:
            stack.extend(reversed(x))
        else:
            threads.append(x)
    return ParNormalResult(Program(tuple(threads)), steps, not pending)
