"""Small-step operational semantics: redex search under weak contexts,
the six reduction rules, and fuel-bounded normalization with traces.

A weak context never goes under a binder, so it is a path of ``App``,
``Guard`` and ``Unif`` nodes from the thread root down to the redex.  A
``Redex`` carries that path as a zipper (Huet 1997): each link names the
parent node and the side the path takes through it.  One walk on an
explicit stack, the defunctionalised recursion (Reynolds 1972), appends
a thread's redexes in post-order and stops once it holds as many as the
caller asks for: one under ``leftmost``, every redex under ``random``.
``rightmost`` walks the mirror image and stops at the first redex.

Reduction rules rewrite a single thread of the toplevel program; beta
steps may split one thread into several, and failed unifications delete
the thread.  ``step_at`` is the one place that contracts a redex: it
rebuilds only the nodes on the redex's path, shares every subterm beside
it, and returns a ``TraceStep``, a delta naming the thread, what it
became and the location, variable or substitution the rule issued.  Beta
substitutes straight into the body's threads, and the substitution
shares every subterm it does not change.  A ``Unif`` of two values is
one ``unif`` redex: ``step_at`` contracts it by unif when its sides
have a most general unifier, else by fail.  A run contracts each
(closure, argument) pair and unifies each pair of value sides once:
terms are immutable and shared, so a pair of objects gives the same
outcome every time, and ``step_at`` reads it from the session's memos,
so the explorer does not unify again the sides a state shares with its
parent.  The memos are keyed by identity: ``==`` would hash whole
terms, and a location alone would rest on coherence and ignore ``ann``.
``Redex`` and ``TraceStep`` are built through ``tuple.__new__``, which
skips the NamedTuple's generated Python-level ``__new__``.  ``evaluate``
is the one loop that steps a program, and under ``leftmost`` it runs the
walk itself from its cursor.  It writes each delta into a list of
threads, so a step costs the size of the thread it rewrites, not the
size of the program.  ``replay`` rebuilds the whole programs from the
deltas for ``--trace``.

Because threads never interact, ``reachable_normal_forms`` explores each
thread on its own and sums the threads' normal forms: its cost is the
sum of the threads' state spaces, not their product (partial-order
reduction, Godefroid 1996).  Its searches share one table of the call
from key to node, so each distinct thread state up to ``≡`` is stepped,
and its successors keyed, once per call; ``states`` still counts a
state once per search that visits it.
"""
from __future__ import annotations

import random
import sys
from typing import Iterator, List, NamedTuple, Optional, Tuple

from . import unify
from .equiv import canonical_thread
from .syntax import (
    OK, Abs, AbsLoc, App, Cons, Fresh, Guard, Program, Record, Session,
    Substitution, Term, Unif, Var, check_coherent, subst_apply, subst_single,
)

ALLOC = "alloc"
BETA = "beta"
GUARD = "guard"
FRESH = "fresh"
UNIF = "unif"
FAILRULE = "fail"

STRATEGIES = ("leftmost", "rightmost", "random")
_ALL = sys.maxsize      # the limit that collects every redex
_new = tuple.__new__    # builds a NamedTuple without its Python-level __new__


class Redex(NamedTuple):
    """The redex focus of thread ``thread``, contracted by ``rule``; a
    ``Unif`` of two values is a ``unif`` redex, and ``step_at`` decides
    whether unif or fail contracts it.  ``path`` leads from focus back
    to the thread root: a linked list of ``(parent, side, outer_path)``
    with side 0 for the ``fn``/``left`` child of parent and 1 for
    ``arg``/``right``, None at the root.  A NamedTuple because the
    search builds one per redex, through ``tuple.__new__``."""
    thread: int
    path: Optional[tuple]
    focus: Term
    rule: str


class TraceStep(NamedTuple):
    """One contracted redex, as a delta: thread ``thread`` of the program
    was the term ``before`` and became the threads ``after`` (none for
    fail, several for a splitting beta).  A NamedTuple because the
    explorer builds one per edge, through ``tuple.__new__`` with every
    field given."""
    rule: str
    thread: int
    before: Term
    after: Tuple[Term, ...]
    substitution: Optional[Substitution] = None
    fresh_var: Optional[str] = None
    fresh_loc: Optional[int] = None
    focus: Optional[Term] = None


def _collect(t: Term, thread: int, out: list, limit: int):
    """Append the redexes of t, the given thread, to out in
    leftmost-innermost order (post-order, children left to right),
    stopping once out holds limit of them.  The walk enters no child that
    is a value: a value holds no redex.  Its stack, a linked list of
    (parent, side, outer path, rest), holds each right sibling still to
    search (side 1) and each guard whose left side is a value (side 2),
    which fires after its right side."""
    path = stack = None
    while True:
        cls = type(t)
        if cls is App:
            fn, arg = t.fn, t.arg
            if not fn.value:
                if not arg.value:
                    stack = (t, 1, path, stack)
                t, path = fn, (t, 0, path)
                continue
            if not arg.value:
                t, path = arg, (t, 1, path)
                continue
            rule = BETA if type(fn) is AbsLoc else None
        elif cls is Guard or cls is Unif:
            left, right = t.left, t.right
            if not left.value:
                if not right.value:
                    stack = (t, 1, path, stack)
                t, path = left, (t, 0, path)
                continue
            if not right.value:
                if cls is Guard:
                    stack = (t, 2, path, stack)
                t, path = right, (t, 1, path)
                continue
            rule = GUARD if cls is Guard else UNIF
        else:
            rule = ALLOC if cls is Abs else FRESH if cls is Fresh else None
        while True:
            if rule is not None:
                out.append(_new(Redex, (thread, path, t, rule)))
                if len(out) >= limit:
                    return
            if stack is None:
                return
            t, side, path, stack = stack
            if side == 1:
                t, path = (t.arg if type(t) is App else t.right), (t, 1, path)
                break
            rule = GUARD


def _last_redex(t: Term, thread: int) -> Optional[Redex]:
    """The last of t's redexes in _collect's order, or None: the mirror
    walk, a node's own redex first and then its children right to left,
    stops at the first redex it meets."""
    path = stack = None
    while True:
        cls = type(t)
        if cls is Abs or cls is Fresh:
            return _new(Redex, (thread, path, t, ALLOC if cls is Abs else FRESH))
        if cls is App or cls is Guard or cls is Unif:
            if cls is App:
                left, right, rule = t.fn, t.arg, BETA
                fires = right.value and type(left) is AbsLoc
            else:
                left, right, rule = t.left, t.right, GUARD if cls is Guard else UNIF
                fires = left.value and (cls is Guard or right.value)
            if fires:
                return _new(Redex, (thread, path, t, rule))
            if not left.value:
                stack = (t, path, stack)    # a left sibling still to search
            if not right.value:
                t, path = right, (t, 1, path)
                continue
        if stack is None:
            return None
        t, path, stack = stack
        t, path = (t.fn if type(t) is App else t.left), (t, 0, path)


def _plug(path, t: Term) -> Term:
    """Rebuild the thread around t along path: only the nodes on the path
    are new, every subterm beside it is shared."""
    while path is not None:
        parent, side, path = path
        if type(parent) is App:
            t = App(t, parent.arg) if side == 0 else App(parent.fn, t)
        else:
            t = (type(parent)(t, parent.right) if side == 0
                 else type(parent)(parent.left, t))
    return t


def enumerate_redexes(p) -> List[Redex]:
    """Every redex of a program or a sequence of threads, in order."""
    out = []
    for i, t in enumerate(p):
        if not t.value:
            _collect(t, i, out, _ALL)
    return out


def find_redex(p, strategy="leftmost", rng=None, start=0) -> Optional[Redex]:
    """Select a redex of a program or a sequence of threads.  Default:
    leftmost thread, leftmost-innermost position, searching from thread
    start on.  Returns None iff the program is normal (from thread start
    on, under leftmost).  Leftmost searches forward from thread start and
    rightmost backward from the last thread, walking each thread's
    redexes backward; both skip the threads that are values and stop at
    the first redex they meet.  Random draws from every redex of the
    program."""
    if strategy == "leftmost":
        out = []
        for i in range(start, len(p)):
            if not p[i].value:
                _collect(p[i], i, out, 1)
                if out:
                    return out[0]
    elif strategy == "rightmost":
        for i in range(len(p) - 1, -1, -1):
            redex = None if p[i].value else _last_redex(p[i], i)
            if redex is not None:
                return redex
    elif strategy == "random":
        redexes = enumerate_redexes(p)
        if redexes:
            if rng is None:
                raise ValueError("random strategy needs an rng")
            return redexes[rng.randrange(len(redexes))]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return None


def step_at(t: Term, redex: Redex, session: Session) -> TraceStep:
    """Contract the given redex of thread t (thread redex.thread of its
    program) and return the delta.  Each thread after the step is the
    contractum plugged back along redex.path, so it shares with t every
    subterm beside that path.  The step records what the rule issued:
    the location of alloc and the variable of fresh, taken from the
    session, and the substitution of unif.  A ``unif`` redex steps by
    unif if its two sides have a most general unifier, else by fail.
    Beta substitutes the argument into the closure's body, and unif
    unifies the two sides, once per pair of objects in a session; after
    that, the step reads the outcome from the session's memo, so a run
    that meets the pair again shares it."""
    path = redex.path
    focus = redex.focus
    rule = redex.rule
    sigma = fresh_var = fresh_loc = None
    if rule == ALLOC:
        fresh_loc = session.fresh_loc()
        after = (_plug(path, AbsLoc(fresh_loc, focus.var, focus.body, focus.ann)),)
    elif rule == BETA:
        fn, arg = focus.fn, focus.arg
        key = (id(fn), id(arg))
        entry = session.betas.get(key)
        if entry is not None:
            body = entry[2]
        else:
            body = subst_single(fn.body, fn.var, arg).threads
            session.betas[key] = (fn, arg, body)
        after = body if path is None else tuple([_plug(path, s) for s in body])
    elif rule == GUARD:
        after = (_plug(path, focus.right),)
    elif rule == FRESH:
        fresh_var = session.fresh_var()
        after = (_plug(path, subst_single(focus.body, focus.var, Var(fresh_var))),)
    elif rule == UNIF:
        left, right = focus.left, focus.right
        key = (id(left), id(right))
        entry = session.unifications.get(key)
        if entry is not None:
            outcome = entry[2]
        else:
            outcome = unify.mgu_goal(left, right)
            session.unifications[key] = (left, right, outcome)
        if isinstance(outcome, unify.Solved):
            sigma = outcome.substitution
            after = (subst_apply(_plug(path, Cons(OK)), sigma),)
        else:
            rule, after = FAILRULE, ()
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return _new(TraceStep, (rule, redex.thread, t, after, sigma, fresh_var,
                            fresh_loc, focus))


def step(p: Program, session: Optional[Session] = None) -> Optional[TraceStep]:
    """One leftmost reduction step, or None if normal.  Without a
    session, check_coherent checks p coherent and makes one; a given
    session is used as it is, and p is not walked again."""
    session = session or check_coherent(p)
    redex = find_redex(p)
    if redex is None:
        return None
    return step_at(p[redex.thread], redex, session)


class EvalResult(Record):
    """The program reached and the deltas of the steps that reached it;
    ``replay`` turns the trace back into whole programs."""
    __slots__ = ("program", "trace", "normal")

    def __init__(self, program, trace, normal):
        self.program = program
        self.trace = trace
        self.normal = normal

    @property
    def steps(self):
        return len(self.trace)


def evaluate(p: Program, fuel=1000, strategy="leftmost", seed=0) -> EvalResult:
    """Step the program up to fuel times.  normal=False means out of fuel.
    The threads live in one list: a step that leaves one thread replaces
    it by index, any other splices its delta in.  Under leftmost every
    thread before the last stepped one is normal and unchanged, so the
    loop searches from that thread on itself, without find_redex."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    session = check_coherent(p)
    rng = random.Random(seed) if strategy == "random" else None
    leftmost = strategy == "leftmost"
    trace: List[TraceStep] = []
    threads, i, n = list(p), 0, len(p)
    for _ in range(fuel):
        if leftmost:
            out = []
            while i < n:
                t = threads[i]
                if not t.value:
                    _collect(t, i, out, 1)
                    if out:
                        break
                i += 1
            else:
                return EvalResult(Program(threads), trace, True)
            redex = out[0]
        else:
            redex = find_redex(threads, strategy, rng)
            if redex is None:
                return EvalResult(Program(threads), trace, True)
            i = redex.thread
        ts = step_at(threads[i], redex, session)
        trace.append(ts)
        after = ts.after
        if len(after) == 1:
            threads[i] = after[0]
        else:
            threads[i:i + 1] = after
            n = len(threads)
    return EvalResult(Program(threads), trace,
                      find_redex(threads, start=i if leftmost else 0) is None)


def replay(p: Program, trace) -> Iterator[Tuple[TraceStep, Program]]:
    """Each step of a trace of p with the whole program it led to."""
    threads = list(p)
    for ts in trace:
        threads[ts.thread:ts.thread + 1] = ts.after
        yield ts, Program(threads)


class Exploration(Record):
    """normal_forms holds the canonical_program keys of the reachable
    normal forms, one per structural-equivalence class; when complete is
    False it holds a subset of them.  states counts the distinct
    single-thread states visited, summed over every thread explored."""
    __slots__ = ("normal_forms", "states", "complete")

    def __init__(self, normal_forms, states, complete):
        self.normal_forms = normal_forms
        self.states = states
        self.complete = complete


def reachable_normal_forms(p: Program, fuel=200,
                           max_states=10000) -> Exploration:
    """Every normal form reachable by any choice of redexes, up to
    structural equivalence.

    Threads never interact, so each thread is explored on its own: a
    breadth-first search over single-thread states keyed by
    canonical_thread, at most fuel levels deep.  A step that leaves 0 or
    several threads contributes the multiset-sums of its children's
    normal forms; each child is explored once and memoised by its key.
    A child or successor whose key is still being explored further out
    (a thread that spawns a copy of itself) is not followed, and makes
    the exploration incomplete, as does split nesting deeper than fuel.
    states counts the distinct thread states of every exploration, a
    state once per search that visits it; past max_states the search
    stops.  An incomplete exploration reports a subset of the normal
    forms.

    The searches share one table of the call from key to node: each
    distinct thread state up to ``≡`` has its redexes enumerated and
    stepped, and its successors keyed, once, however many searches
    visit it.  A node is a list ``[key, thread, successors, result]``.
    Until the node is expanded, thread is a thread with that key and
    successors None; after, thread is None and successors holds, for
    each redex in enumerate_redexes order, the node of the one thread
    the step leaves or a tuple of the nodes of the 0 or several threads
    it leaves.  A step commutes with the renamings of ``≡``, so any
    thread with the key gives the same successors up to ``≡``.  result
    is None until an exploration from the node starts, False while it
    is in progress, and then its (normal forms, complete) pair.
    """
    session = check_coherent(p)
    states = 0
    table = {}      # thread key -> its node [key, thread, successors, result]

    def node(t):
        k = canonical_thread(t)
        n = table.get(k)
        if n is None:
            n = table[k] = [k, t, None, None]
        return n

    def program_nfs(nodes):
        """Multiset-sums of the nodes' normal forms; the driver below
        answers each yielded node with its (normal forms, complete)."""
        nfs, complete = {()}, True
        for n in nodes:
            sub, ok = yield n
            nfs = {tuple(sorted(a + b)) for a in nfs for b in sub}
            complete = complete and ok
        return nfs, complete

    def thread_nfs(start):
        """Breadth-first search over the single-thread states reachable
        from the node start; each split step's nodes go through
        program_nfs."""
        nonlocal states
        visited = {start[0]}
        frontier = [start]
        nfs, complete = set(), True
        for _ in range(fuel):
            next_frontier = []
            for n in frontier:
                succ = n[2]
                if succ is None:
                    s, n[1] = n[1], None
                    succ = n[2] = []
                    for r in enumerate_redexes((s,)):
                        after = step_at(s, r, session).after
                        succ.append(node(after[0]) if len(after) == 1
                                    else tuple([node(t) for t in after]))
                if not succ:
                    nfs.add((n[0],))
                for n2 in succ:
                    if type(n2) is tuple:
                        sub, ok = yield from program_nfs(n2)
                        nfs |= sub
                        complete = complete and ok
                        continue
                    if n2[0] in visited:
                        continue
                    if n2[3] is False:
                        complete = False
                        continue
                    if states >= max_states:
                        return nfs, False
                    visited.add(n2[0])
                    states += 1
                    next_frontier.append(n2)
            frontier = next_frontier
            if not frontier:
                break
        return nfs, complete and not frontier

    # Explicit stack of (node, its exploration): split nesting is bounded
    # by fuel, not by Python's recursion limit.
    stack = [(None, program_nfs([node(t) for t in p.threads]))]
    reply = None
    while True:
        n, gen = stack[-1]
        try:
            n2 = gen.send(reply)
        except StopIteration as stop:
            stack.pop()
            if not stack:
                normal_forms, complete = stop.value
                break
            n[3] = reply = stop.value
            continue
        result = n2[3]
        if result is None and len(stack) <= fuel and states < max_states:
            states += 1
            n2[3] = False
            stack.append((n2, thread_nfs(n2)))
            reply = None
        else:
            # explored, in progress further out, or past a bound
            reply = result or (set(), False)
    return Exploration(normal_forms, states, complete)
