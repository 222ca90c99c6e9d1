"""``evaluate`` against the loop it replaced: ``find_redex`` from thread 0
on every step, the whole-program step (plug, then splice into a new
program), the issued variable and location recovered by diffing
``free_vars`` and ``locations`` over the before and after programs, and
the unif substitution recomputed by ``mgu_goal``.  ``evaluate``'s
thread-level deltas are replayed into whole programs and compared with
the oracle's step by step.  The redexes' paths are checked against the
weak contexts of the closure-based search on every thread the streams
visit."""

import itertools
import os

from helpers import (
    ProgramStep, program_step_at, redexes_with_contexts, weak_context, within,
)
from lamu import unify
from lamu.concrete import parse_file, parse_program
from lamu.generator import Generator, GeneratorConfig
from lamu.reduction import (
    ALLOC, FRESH, UNIF, enumerate_redexes, evaluate, find_redex, replay,
)
from lamu.syntax import (
    App, Session, Term, check_coherent, free_vars, locations,
)

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def free_names_introduced(before, after):
    return sorted(free_vars(after) - free_vars(before))


def _new_location(old, new):
    diff = locations(new) - locations(old)
    return next(iter(diff)) if diff else None


def oracle_evaluate(p, fuel):
    check_coherent(p)
    session = Session.for_program(p)
    trace = []
    current = p
    for _ in range(fuel):
        redex = find_redex(current)
        if redex is None:
            return current, trace, True
        after = program_step_at(current, redex, session).after
        sigma = fresh_var = fresh_loc = None
        if redex.rule == UNIF:
            sigma = unify.mgu_goal(redex.focus.left,
                                   redex.focus.right).substitution
        if redex.rule == FRESH:
            new_names = free_names_introduced(current, after)
            fresh_var = new_names[0] if new_names else None
        if redex.rule == ALLOC:
            fresh_loc = _new_location(current.threads[redex.thread],
                                      after.threads[redex.thread])
        trace.append(ProgramStep(redex.rule, redex.thread, current, after,
                                 sigma, fresh_var, fresh_loc, redex.focus))
        current = after
    return current, trace, find_redex(current) is None


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


def fork_ladder():
    """(k, fuel, the k-fork program) for k = 2..8."""
    for k in range(2, 9):
        calls = "f (" * k + "C" + ")" * k
        yield k, 10 * 2 ** k, parse_program(rf"(\f. {calls}) (\x. x | S x)")


def corpus_programs():
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as handle:
            yield parse_file(handle.read()).program


def generated_programs():
    gen = Generator(GeneratorConfig(seed=7, max_depth=4))
    return itertools.islice(gen.programs(), 200)


ISSUED = r"fresh y. C | fresh y. (y =:= C) | \x. x"
DIVERGENT = r"(\x. x x | C) (\x. x x | C)"
# builds the value S (S (... C)), one level every three steps
GROWING = r"(\x. \y. x x (S y)) (\x. \y. x x (S y)) C"


def test_fork_ladder_matches_oracle():
    for k, fuel, p in fork_ladder():
        result = assert_same_trace(p, fuel)
        assert result.normal and len(result.program) == 2 ** k


def test_corpus_matches_oracle():
    for p in corpus_programs():
        assert_same_trace(p, 1000)


def test_generated_programs_match_oracle():
    for p in generated_programs():
        assert_same_trace(p, 200)


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
    # at fuel 1 500 the value is 500 levels deep: a recursive is_value
    # raises RecursionError, and a search that re-walks the value at
    # every application is slow
    p = parse_program(GROWING)
    result = within(3.0, "1 500 steps of the growing-value program",
                    lambda: evaluate(p, fuel=1500))
    assert not result.normal and result.steps == 1500


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


def test_paths_match_weak_contexts():
    streams = [(p, fuel) for _, fuel, p in fork_ladder()]
    streams += [(p, 1000) for p in corpus_programs()]
    streams += [(p, 200) for p in generated_programs()]
    streams += [(parse_program(ISSUED), 10), (parse_program(DIVERGENT), 2000),
                (parse_program(GROWING), 900)]
    for p, fuel in streams:
        threads = visited_threads(p, fuel)
        redexes = enumerate_redexes(threads)
        old = redexes_with_contexts(threads)
        assert len(redexes) == len(old)
        for r, o in zip(redexes, old):
            assert (r.thread, weak_context(r), r.focus, r.rule) == \
                (o.thread, o.context, o.focus, o.rule)
