"""``evaluate`` against the loop it replaced: the leftmost redex among
every redex of the whole program on every step, the whole-program step
(plug, then splice into a new program), the issued variable and
location recovered by diffing ``free_vars`` and ``locations`` over the
before and after programs, and the unif substitution recomputed by
``mgu_goal``.  ``evaluate``'s thread-level deltas are replayed into
whole programs and compared with the oracle's step by step.  Under
every strategy, each step of ``evaluate`` is checked against the step
of the redex that the strategy picks among every redex.  The redexes'
paths are checked against the weak contexts of the closure-based search
on every thread the streams visit, the value flag each term sets when
it is built against the walk that decides value-ness from scratch, and
``subst_single`` against a ``Substitution`` through the rebuilding
substitution.  Every step the explorer takes on the criterion 4/9
stream is checked against the step rebuilt from its weak context by
the rebuilding substitution, and every unification it steps, its
outcome memoised or not, against a fresh ``mgu_goal``.  A sha256 pins
every answer of ``evaluate`` and the explorer on the criterion-4 stream
and the critical pairs.  Three pinned programs put leftmost ``evaluate``'s
step memo and node table where a mistake shows, and a count of
``step_at`` calls pins that each distinct thread is stepped once."""

import hashlib
import random
from collections import Counter

from helpers import (
    DIVERGENT, ProgramStep, confluence_stream, corpus_sources,
    criterion_4_programs, find_redex_oracle, is_value_oracle, locations,
    program_step_at, redexes_with_contexts, subst_single_oracle,
    weak_context, within,
)
from lamu import reduction
from lamu import unify
from lamu.concrete import parse_program, pretty_program
from lamu.reduction import (
    ALLOC, BETA, FAILRULE, FRESH, GUARD, STRATEGIES, UNIF, enumerate_redexes, evaluate,
    reachable_normal_forms, replay, step_at,
)
from lamu.syntax import (
    Abs, AbsLoc, App, Cons, Program, Term, Var, check_coherent, free_vars,
    singleton, subst_single, subterms,
)


def free_names_introduced(before, after):
    return sorted(free_vars(after) - free_vars(before))


def _new_location(old, new):
    diff = locations(new) - locations(old)
    return next(iter(diff)) if diff else None


def oracle_evaluate(p, fuel):
    session = check_coherent(p)
    trace = []
    current = p
    for _ in range(fuel):
        redex = find_redex_oracle(current)
        if redex is None:
            return current, trace, True
        old = program_step_at(current, redex, session)
        after = old.after
        fresh_var = fresh_loc = None
        if redex.rule == FRESH:
            new_names = free_names_introduced(current, after)
            fresh_var = new_names[0] if new_names else None
        if redex.rule == ALLOC:
            fresh_loc = _new_location(current.threads[redex.thread],
                                      after.threads[redex.thread])
        trace.append(ProgramStep(old.rule, redex.thread, current, after,
                                 old.substitution, fresh_var, fresh_loc,
                                 redex.focus))
        current = after
    return current, trace, find_redex_oracle(current) is None


def assert_same_trace(p, fuel):
    result = evaluate(p, fuel)
    program, trace, normal = oracle_evaluate(p, fuel)
    assert (result.program, result.normal) == (program, normal)
    assert len(result.trace) == len(trace)
    before = p
    for (ts, after), old in zip(replay(p, result.trace), trace):
        assert (ts.rule, ts.thread, before, after) == \
            (old.rule, old.thread, old.before, old.after)
        assert ts.before == old.before.threads[ts.thread]
        before = after
        if old.substitution is None:
            assert ts.substitution is None
        else:
            assert dict(ts.substitution.items()) == \
                dict(old.substitution.items())
        if old.fresh_var is not None:
            assert ts.fresh_var == old.fresh_var
        if old.fresh_loc is not None:
            assert ts.fresh_loc == old.fresh_loc
    return result


def fork_program(k):
    """The k-fork program: k nested calls of a function that splits its
    argument v into v | S v, so it ends in 2 ** k threads."""
    calls = "f (" * k + "C" + ")" * k
    return parse_program(rf"(\f. {calls}) (\x. x | S x)")


def fork_ladder():
    """(k, fuel, the k-fork program) for k = 2..8."""
    for k in range(2, 9):
        yield k, 10 * 2 ** k, fork_program(k)


ISSUED = r"fresh y. C | fresh y. (y =:= C) | \x. x"
# builds the value S (S (... C)), one level every three steps
GROWING = r"(\x. \y. x x (S y)) (\x. \y. x x (S y)) C"
OMEGA = r"(\x. x x) (\x. x x)"
# (program, its normal form): where leftmost evaluate's step memo and
# node table could go wrong.  In the first two one thread object recurs
# with an alloc, then a fresh redex, each of which must issue a new
# name; in the third a Guard and a Unif are rebuilt over the same two
# children.
MEMO_EDGES = [
    (r"(\f. f C | f C) (\x. \y. y)", r"(\y@L3. y) | \y@L4. y"),
    (r"(\f. f C | f C) (\x. fresh y. y)", "v0 | v1"),
    (r"(\v. ((\x. x) v =:= v) | ((\x. x) v ; v)) D", "Ok | D"),
]


def test_fork_ladder_matches_oracle():
    for k, fuel, p in fork_ladder():
        result = assert_same_trace(p, fuel)
        assert result.normal and len(result.program) == 2 ** k


def test_corpus_matches_oracle():
    for _, src in corpus_sources():
        assert_same_trace(src.program, 1000)


def test_generated_programs_match_oracle():
    for p in criterion_4_programs(200):
        assert_same_trace(p, 200)


def test_memo_edges_match_oracle():
    for src, normal_form in MEMO_EDGES:
        result = assert_same_trace(parse_program(src), 20)
        assert result.normal
        assert pretty_program(result.program) == normal_form


def test_leftmost_steps_each_distinct_thread_once(monkeypatch):
    # the k-fork ladder's 2 ** k + 2 steps meet k (k + 1) / 2 + 3
    # distinct threads, and its 2 ** k result threads are k + 1 distinct
    # objects; omega and the divergent program each step one thread
    # object over and over; each stepped every thread before the memo
    calls = Counter()

    def counting_step_at(t, redex, session):
        calls["step_at"] += 1
        return step_at(t, redex, session)

    monkeypatch.setattr(reduction, "step_at", counting_step_at)
    for k, expected in [(10, 58), (12, 81)]:
        calls.clear()
        result = evaluate(fork_program(k), fuel=10 * 2 ** k)
        assert result.normal and result.steps == 2 ** k + 2
        assert calls["step_at"] == expected
        assert len({id(t) for t in result.program}) == k + 1
    for src in (OMEGA, DIVERGENT):
        calls.clear()
        result = evaluate(parse_program(src), fuel=5000)
        assert not result.normal and result.steps == 5000
        assert calls["step_at"] == 5


def test_oracle_sees_issued_names():
    # the diff finds the fresh variable only where it occurs, and
    # step_at records it either way
    p = parse_program(ISSUED)
    result = assert_same_trace(p, 10)
    _, trace, _ = oracle_evaluate(p, 10)
    assert [ts.rule for ts in result.trace] == [FRESH, FRESH, UNIF, ALLOC]
    assert all(ts.fresh_var for ts in result.trace if ts.rule == FRESH)
    assert trace[0].fresh_var is None
    assert trace[1].fresh_var == result.trace[1].fresh_var
    assert result.trace[3].fresh_loc == trace[3].fresh_loc == 1


def test_divergent_matches_oracle():
    result = assert_same_trace(parse_program(DIVERGENT), 2000)
    assert not result.normal and len(result.program) == 1999
    assert not assert_same_trace(parse_program(GROWING), 900).normal


def test_rightmost_stops_at_the_last_thread_with_a_redex():
    # every step splits a C off the diverging thread, to its right; a
    # search that collected the redexes of every thread on every step
    # took several seconds
    p = parse_program(DIVERGENT)
    result = within(3.0, "4 000 rightmost steps of the divergent program",
                    lambda: evaluate(p, fuel=4000, strategy="rightmost"))
    assert not result.normal and result.steps == 4000
    assert len(result.program) == 3999


def _p_tree(leaves):
    """One thread: a balanced tree of P over leaves copies of \\x. x."""
    if leaves == 1:
        return Abs("x", singleton(Var("x")))
    half = _p_tree(leaves // 2)
    return App(App(Cons("P"), half), half)


def test_leftmost_stops_at_the_first_redex_of_a_wide_thread():
    # each step allocates the leftmost leaf still unallocated; the search
    # skips the allocated subtrees, which are values, and stops at the
    # first redex it meets (about 0.16 s), where one that collected every
    # redex of the thread on each step took 8 s or more
    p = Program((_p_tree(4096),))
    result = within(3.0, "4 096 leftmost steps of one wide thread",
                    lambda: evaluate(p, fuel=40_960))
    assert result.normal and result.steps == 4096
    assert {ts.rule for ts in result.trace} == {ALLOC}


def test_rightmost_stops_at_the_last_redex_of_a_wide_thread():
    # each step allocates the rightmost leaf still unallocated; the walk
    # backward meets it first (about 0.05 s), where one that collected
    # every redex of the thread on each step took 13.8 s
    p = Program((_p_tree(4096),))
    result = within(1.0, "4 096 rightmost steps of one wide thread",
                    lambda: evaluate(p, fuel=40_960, strategy="rightmost"))
    assert result.normal and result.steps == 4096
    assert {ts.rule for ts in result.trace} == {ALLOC}


def test_divergent_evaluates_in_linear_time():
    # after two allocs every step splits a C off the diverging thread; a
    # step that copied the whole program would make 20 000 steps
    # quadratic (several seconds), so a timer turns that regression into
    # a failure
    p = parse_program(DIVERGENT)
    result = within(3.0, "20 000 steps of the divergent program",
                    lambda: evaluate(p, fuel=20_000))
    assert not result.normal and result.steps == 20_000
    assert all(isinstance(ts.before, Term) for ts in result.trace)
    assert sum(len(ts.after) - 1 for ts in result.trace) == \
        len(result.program) - len(p)


def test_growing_value_evaluates_on_the_main_thread():
    # at fuel 6 000 the value is 2 000 levels deep: a redex search that
    # enters values raises RecursionError, and one that re-walks the
    # value at every step is quadratic in the fuel
    p = parse_program(GROWING)
    result = within(3.0, "6 000 steps of the growing-value program",
                    lambda: evaluate(p, fuel=6000))
    assert not result.normal and result.steps == 6000


def test_step_shares_the_value_beside_the_hole():
    # F F v steps F F, then allocates what it became, and keeps v, the
    # S tower built so far, as the same object
    result = evaluate(parse_program(GROWING), fuel=300)
    steps = [ts for ts in result.trace
             if isinstance(ts.before, App) and ts.focus is ts.before.fn]
    depth, v = 0, steps[-1].before.arg
    while isinstance(v, App):
        depth, v = depth + 1, v.arg
    assert len(steps) >= 100 and depth >= 90
    for ts in steps:
        (after,) = ts.after
        assert after.arg is ts.before.arg


def visited_threads(p, fuel):
    """Every thread state evaluate passes through on p."""
    threads = list(p)
    for ts in evaluate(p, fuel).trace:
        threads.extend(ts.after)
    return threads


def streams():
    """(program, fuel) for every stream the oracles above run."""
    out = [(p, fuel) for _, fuel, p in fork_ladder()]
    out += [(src.program, 1000) for _, src in corpus_sources()]
    out += [(p, 200) for p in criterion_4_programs(200)]
    out += [(parse_program(ISSUED), 10), (parse_program(DIVERGENT), 2000),
            (parse_program(GROWING), 900)]
    out += [(parse_program(src), 20) for src, _ in MEMO_EDGES]
    return out


def explored_threads(monkeypatch):
    """Every thread the explorer's steps make on the confluence stream."""
    threads = []

    def recording_step_at(t, redex, session):
        ts = step_at(t, redex, session)
        threads.extend(ts.after)
        return ts

    with monkeypatch.context() as patch:
        patch.setattr(reduction, "step_at", recording_step_at)
        for p in confluence_stream():
            reachable_normal_forms(p, fuel=200, max_states=10_000)
    return threads


def test_value_flag_matches_the_walk(monkeypatch):
    # every subterm of every thread the streams reach, of every thread
    # the explorer makes on the confluence stream and of the growing
    # value 1 000 levels deep; steps share subterms, so each distinct
    # object is checked once, and a run contracts each (closure,
    # argument) pair once, so repeated betas add no new objects
    threads = [t for p, fuel in streams() for t in visited_threads(p, fuel)]
    threads += explored_threads(monkeypatch)
    (grown,) = evaluate(parse_program(GROWING), fuel=3000).program
    terms = {id(t): t for t in subterms(Program(threads + [grown]))}
    assert len(terms) > 15_000
    for t in terms.values():
        assert t.value == is_value_oracle(t), t
    tower = list(subterms(grown.arg))
    assert len(tower) > 1000 and all(t.value for t in tower)


def by_value(ts):
    """ts with its substitution as a dict, which compares by value."""
    sigma = ts.substitution
    return ts._replace(
        substitution=None if sigma is None else dict(sigma.items()))


def assert_strategy_picks(p, fuel, strategy, seed):
    """Replay evaluate's trace and check each step against the step_at
    of the redex that the strategy picks among every redex of the
    threads.  Both steps share every subterm beside the redex's path, so
    comparing them costs the path, not the thread."""
    result = evaluate(p, fuel, strategy, seed)
    session = check_coherent(p)
    rng = random.Random(seed)
    threads = list(p)
    for ts in result.trace:
        redex = find_redex_oracle(threads, strategy, rng)
        old = step_at(threads[redex.thread], redex, session)
        assert by_value(old) == by_value(ts)
        threads[ts.thread:ts.thread + 1] = ts.after
    assert (find_redex_oracle(threads) is None) == result.normal
    assert Program(threads) == result.program


def test_every_strategy_matches_the_oracle():
    # leftmost and rightmost ignore the seed, so they run at seed 0
    # alone, as the last lines check; random draws under two seeds
    runs = [(strategy, 0) for strategy in STRATEGIES] + [("random", 1)]
    for p, fuel in streams():
        for strategy, seed in runs:
            assert_strategy_picks(p, fuel, strategy, seed)
    p = parse_program(ISSUED)
    for strategy in ("leftmost", "rightmost"):
        traces = [[by_value(ts) for ts in evaluate(p, 10, strategy, seed).trace]
                  for seed in (0, 1)]
        assert traces[0] == traces[1] and len(traces[0]) == 4


def test_paths_match_weak_contexts():
    for p, fuel in streams():
        threads = visited_threads(p, fuel)
        redexes = enumerate_redexes(threads)
        old = redexes_with_contexts(threads)
        assert len(redexes) == len(old)
        for r, o in zip(redexes, old):
            assert (r.thread, weak_context(r), r.focus, r.rule) == \
                (o.thread, o.context, o.focus, o.rule)


def test_subst_single_matches_the_substitution():
    # the body, variable and value of every beta and fresh step the
    # streams take, the growing value at fuel 900 among them
    calls = []
    for p, fuel in streams():
        for ts in evaluate(p, fuel).trace:
            if ts.rule == BETA:
                fn = ts.focus.fn
                calls.append((fn.body, fn.var, ts.focus.arg))
            elif ts.rule == FRESH:
                calls.append((ts.focus.body, ts.focus.var, Var(ts.fresh_var)))
    assert sum(isinstance(x, Program) for x, _, _ in calls) > 1000
    assert sum(isinstance(x, Term) for x, _, _ in calls) > 100
    for x, name, value in calls:
        out = subst_single_oracle(x, name, value)
        assert subst_single(x, name, value) == out


class Issued:
    """A session that hands out the variable and location a step
    recorded, so the oracle's step issues the same ones."""

    def __init__(self, ts):
        self.ts = ts

    def fresh_var(self):
        return self.ts.fresh_var

    def fresh_loc(self):
        return self.ts.fresh_loc


def test_every_explorer_step_matches_the_rebuilding_step(monkeypatch):
    # each step the explorer takes, against the whole-program step that
    # plugs into the weak context and substitutes by rebuilding; ==
    # compares binder names, so a renamed binder gets the same name; the
    # explorer steps each distinct state once per call, so the floor
    # takes the first 80 draws
    checked = Counter()

    def checked_step_at(t, redex, session):
        ts = step_at(t, redex, session)
        old = program_step_at(singleton(t), redex._replace(thread=0),
                              Issued(ts))
        assert ts.after == old.after.threads
        checked[ts.rule] += 1
        return ts

    monkeypatch.setattr(reduction, "step_at", checked_step_at)
    for p in confluence_stream(80):
        reachable_normal_forms(p, fuel=200, max_states=10_000)
    assert sum(checked.values()) > 3_000
    assert set(checked) == {ALLOC, BETA, FRESH, UNIF, GUARD, FAILRULE}


def test_every_enumerated_unification_matches_a_fresh_mgu(monkeypatch):
    # the explorer steps, in each state, the unifications that state
    # shares with its parent, and step_at reads their outcomes from the
    # session's memo; only a fresh mgu_goal of the sides, taken beside
    # step_at, can catch a stale outcome
    mgu_goal = unify.mgu_goal
    counts = Counter()

    def counting_mgu_goal(v, w):
        counts["computed"] += 1
        return mgu_goal(v, w)

    def checked_step_at(t, redex, session):
        ts = step_at(t, redex, session)
        if redex.rule == UNIF:
            fresh = mgu_goal(redex.focus.left, redex.focus.right)
            solved = isinstance(fresh, unify.Solved)
            assert ts.rule == (UNIF if solved else FAILRULE)
            if solved:
                assert dict(ts.substitution.items()) == \
                    dict(fresh.substitution.items())
            counts["stepped"] += 1
        return ts

    monkeypatch.setattr(unify, "mgu_goal", counting_mgu_goal)
    monkeypatch.setattr(reduction, "step_at", checked_step_at)
    for p in confluence_stream():
        reachable_normal_forms(p, fuel=200, max_states=10_000)
    assert 0 < counts["computed"] < counts["stepped"]


# the sha256 of the answers below, pinned before the redex search left
# the choice between unif and fail to step_at
ANSWERS_DIGEST = "9c2b1da151afde6e77d04814f7fa3e20df47d430e7f0c8f8682957aca76a3ad0"


def test_answers_match_the_pinned_digest():
    # every step, EvalResult and Exploration on the criterion-4 stream's
    # first 100 draws and the critical pairs (the stream without its
    # divergent program), under every strategy
    answers = []
    for p in confluence_stream(100)[:-1]:
        for strategy, seed in [("leftmost", 0), ("rightmost", 0),
                               ("random", 0), ("random", 1), ("random", 2)]:
            result = evaluate(p, 200, strategy, seed)
            answers.extend((ts.rule, ts.thread, pretty_program(after))
                           for ts, after in replay(p, result.trace))
            answers.append(result.normal)
        e = reachable_normal_forms(p, fuel=200, max_states=10_000)
        answers.append((e.states, e.complete, sorted(e.normal_forms)))
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == ANSWERS_DIGEST


def test_beta_shares_the_body_beside_the_occurrences():
    # (\x. P x (S C) | \y. y | D) D: only the nodes above x are new
    body = Program((App(App(Cons("P"), Var("x")), App(Cons("S"), Cons("C"))),
                    AbsLoc(1, "y", singleton(Var("y"))), Cons("D")))
    p = singleton(App(AbsLoc(2, "x", body), Cons("D")))
    (ts,) = evaluate(p, fuel=1).trace
    assert ts.rule == BETA and len(ts.after) == 3
    assert ts.after[0].arg is body[0].arg
    assert ts.after[0].fn.fn is body[0].fn.fn
    assert ts.after[1] is body[1] and ts.after[2] is body[2]
