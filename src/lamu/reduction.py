"""Small-step operational semantics: redex search under weak contexts,
the six reduction rules, and fuel-bounded normalization with traces.

Reduction rules rewrite a single thread of the toplevel program; beta
steps may split one thread into several, and failed unifications delete
the thread.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from . import unify
from .equiv import canonical_program
from .syntax import (
    OK, Abs, AbsLoc, App, Cons, Fresh, Guard, HOLE,
    Program, Session, Substitution, Term, Unif, Var, check_coherent,
    free_vars, is_value, locations, plug, plug_term, subst_apply,
    subst_single,
)

ALLOC = "alloc"
BETA = "beta"
GUARD = "guard"
FRESH = "fresh"
UNIF = "unif"
FAILRULE = "fail"

RULES = (ALLOC, BETA, GUARD, FRESH, UNIF, FAILRULE)

STRATEGIES = ("leftmost", "rightmost", "random")


@dataclass(frozen=True)
class Redex:
    thread: int
    context: Term            # weak context: a term with one Hole
    focus: Term
    rule: str
    unify_outcome: object = field(default=None, compare=False)


@dataclass(frozen=True)
class TraceStep:
    index: int
    rule: str
    thread: int
    before: Program
    after: Program
    substitution: Optional[Substitution] = None
    fresh_var: Optional[str] = None
    fresh_loc: Optional[int] = None
    focus: Optional[Term] = None


def _term_redexes(t: Term, context_of, thread: int) -> Iterator[Redex]:
    """Redexes of one thread in leftmost-innermost order (post-order,
    children left to right).  context_of(sub) rebuilds the weak context
    around the given replacement for t."""
    if isinstance(t, App):
        yield from _term_redexes(t.fn, lambda h: context_of(App(h, t.arg)), thread)
        yield from _term_redexes(t.arg, lambda h: context_of(App(t.fn, h)), thread)
        if isinstance(t.fn, AbsLoc) and is_value(t.arg):
            yield Redex(thread, context_of(HOLE), t, BETA)
    elif isinstance(t, Guard):
        yield from _term_redexes(t.left, lambda h: context_of(Guard(h, t.right)), thread)
        yield from _term_redexes(t.right, lambda h: context_of(Guard(t.left, h)), thread)
        if is_value(t.left):
            yield Redex(thread, context_of(HOLE), t, GUARD)
    elif isinstance(t, Unif):
        yield from _term_redexes(t.left, lambda h: context_of(Unif(h, t.right)), thread)
        yield from _term_redexes(t.right, lambda h: context_of(Unif(t.left, h)), thread)
        if is_value(t.left) and is_value(t.right):
            outcome = unify.mgu_goal(t.left, t.right)
            rule = UNIF if isinstance(outcome, unify.Solved) else FAILRULE
            yield Redex(thread, context_of(HOLE), t, rule, outcome)
    elif isinstance(t, Abs):
        yield Redex(thread, context_of(HOLE), t, ALLOC)
    elif isinstance(t, Fresh):
        yield Redex(thread, context_of(HOLE), t, FRESH)
    # Var, Cons, AbsLoc: no redex at or below this weak position


def enumerate_redexes(p: Program) -> List[Redex]:
    out = []
    for i, t in enumerate(p):
        out.extend(_term_redexes(t, lambda h: h, i))
    return out


def find_redex(p: Program, strategy="leftmost", rng=None) -> Optional[Redex]:
    """Select a redex.  Default: leftmost thread, leftmost-innermost
    position.  Returns None iff the program is normal."""
    if strategy == "leftmost":
        for i, t in enumerate(p):
            for r in _term_redexes(t, lambda h: h, i):
                return r
        return None
    redexes = enumerate_redexes(p)
    if not redexes:
        return None
    if strategy == "rightmost":
        return redexes[-1]
    if strategy == "random":
        if rng is None:
            raise ValueError("random strategy needs an rng")
        return redexes[rng.randrange(len(redexes))]
    raise ValueError(f"unknown strategy {strategy!r}")


def step_at(p: Program, redex: Redex, session: Session) -> Program:
    """Contract the given redex."""
    i = redex.thread
    before_threads = p.threads[:i]
    after_threads = p.threads[i + 1:]
    w = redex.context
    focus = redex.focus
    rule = redex.rule
    if rule == ALLOC:
        loc = session.fresh_loc()
        new = plug_term(w, AbsLoc(loc, focus.var, focus.body, focus.ann))
        middle = (new,)
    elif rule == BETA:
        body = subst_single(focus.fn.body, focus.fn.var, focus.arg)
        middle = plug(w, body).threads
    elif rule == GUARD:
        middle = (plug_term(w, focus.right),)
    elif rule == FRESH:
        y = session.fresh_var()
        middle = (plug_term(w, subst_single(focus.body, focus.var, Var(y))),)
    elif rule == UNIF:
        outcome = redex.unify_outcome or unify.mgu_goal(focus.left, focus.right)
        assert isinstance(outcome, unify.Solved)
        new = subst_apply(plug_term(w, Cons(OK)), outcome.substitution)
        middle = (new,)
    elif rule == FAILRULE:
        middle = ()
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return Program(before_threads + middle + after_threads)


def step(p: Program, strategy="leftmost", session: Optional[Session] = None,
         rng=None, check=False, index=0) -> Optional[TraceStep]:
    """One reduction step under the chosen strategy, or None if normal."""
    if check:
        check_coherent(p)
    if session is None:
        session = Session.for_program(p)
    redex = find_redex(p, strategy, rng)
    if redex is None:
        return None
    sigma = fresh_var = fresh_loc = None
    if redex.rule == UNIF:
        sigma = (redex.unify_outcome
                 or unify.mgu_goal(redex.focus.left, redex.focus.right)).substitution
    after = step_at(p, redex, session)
    if redex.rule == FRESH:
        new_names = free_names_introduced(p, after)
        fresh_var = new_names[0] if new_names else None
    if redex.rule == ALLOC:
        new_thread = after.threads[redex.thread]
        old_thread = p.threads[redex.thread]
        fresh_loc = _new_location(old_thread, new_thread)
    return TraceStep(index, redex.rule, redex.thread, p, after,
                     substitution=sigma, fresh_var=fresh_var,
                     fresh_loc=fresh_loc, focus=redex.focus)


def free_names_introduced(before: Program, after: Program):
    return sorted(free_vars(after) - free_vars(before))


def _new_location(old: Term, new: Term):
    diff = locations(new) - locations(old)
    return next(iter(diff)) if diff else None


@dataclass
class EvalResult:
    program: Program
    trace: List[TraceStep]
    normal: bool

    @property
    def steps(self):
        return len(self.trace)


def evaluate(p: Program, fuel=1000, strategy="leftmost", seed=0,
             check_each_step=False) -> EvalResult:
    """Iterate step up to fuel times.  normal=False means out of fuel."""
    check_coherent(p)
    session = Session.for_program(p)
    rng = random.Random(seed) if strategy == "random" else None
    trace: List[TraceStep] = []
    current = p
    for n in range(fuel):
        ts = step(current, strategy, session, rng,
                  check=check_each_step, index=n)
        if ts is None:
            return EvalResult(current, trace, True)
        trace.append(ts)
        current = ts.after
    if find_redex(current) is None:
        return EvalResult(current, trace, True)
    return EvalResult(current, trace, False)


def replay(trace: List[TraceStep], initial: Program) -> bool:
    """Check that the trace, replayed from the initial program,
    reproduces each recorded snapshot."""
    current = initial
    for ts in trace:
        if current != ts.before:
            return False
        current = ts.after
    return True


class BoundsExceeded(Exception):
    def __init__(self, states, normal_forms):
        super().__init__(f"exploration bound exceeded after {states} states")
        self.states = states
        self.normal_forms = normal_forms


@dataclass
class Exploration:
    """normal_forms holds the canonical_program keys of the reachable
    normal forms, one per structural-equivalence class."""
    normal_forms: set
    states: int
    complete: bool


def reachable_normal_forms(p: Program, fuel=200, max_states=10000,
                           strict=False) -> Exploration:
    """Breadth-first exploration of every redex choice; states are
    identified up to structural equivalence (justified by the strong
    bisimulation property) and kept as canonical_program keys."""
    check_coherent(p)
    session = Session.for_program(p)
    visited = {canonical_program(p)}
    frontier = [p]
    normal_forms = set()
    states = 1
    complete = True
    for _ in range(fuel):
        if not frontier:
            break
        next_frontier = []
        for q in frontier:
            redexes = enumerate_redexes(q)
            if not redexes:
                normal_forms.add(canonical_program(q))
                continue
            for r in redexes:
                nxt = step_at(q, r, session)
                key = canonical_program(nxt)
                if key in visited:
                    continue
                visited.add(key)
                states += 1
                if states > max_states:
                    if strict:
                        raise BoundsExceeded(states, normal_forms)
                    return Exploration(normal_forms, states, False)
                next_frontier.append(nxt)
        frontier = next_frontier
    if frontier:
        complete = False
        if strict:
            raise BoundsExceeded(states, normal_forms)
    return Exploration(normal_forms, states, complete)
