"""Simultaneous (parallel) reduction: a maximal-parallel evaluator that
collects pending unification goals per thread and discharges them at the
thread boundary.  Used as an independent oracle against the small-step
evaluator.  Threads never interact, so a thread is the unit of work:
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
    Term, Unif, Value, Var, check_coherent, is_value, singleton,
    subst_apply, subst_single,
)

class ParResult(Value):
    """A reduct and the unification goals it leaves pending; a
    ``Value``."""
    __slots__ = ("program", "goals")

    def __init__(self, program, goals):
        self.program = program
        self.goals = goals


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


def _par_thread(t: Term, session: Session) -> Tuple[Term, ...]:
    """One simultaneous step of one thread: reduce it, then apply the mgu
    of its pending goals; no threads when they fail to unify."""
    result = par_term(t, session)
    if not result.goals:
        return result.program.threads
    outcome = unify.mgu(unify.Problem(result.goals))
    if isinstance(outcome, unify.Failed):
        return ()
    return subst_apply(result.program, outcome.substitution).threads


def par_step(p: Program, session=None) -> Program:
    """One simultaneous reduction of a program, thread by thread."""
    if session is None:
        session = Session.for_program(p)
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
    check_coherent(p)
    session = Session.for_program(p)
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
