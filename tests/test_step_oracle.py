"""``evaluate`` against the loop it replaced: ``find_redex`` from thread 0
on every step, with the issued variable and location recovered by
diffing ``free_vars`` and ``locations`` over the before and after
programs, and the unif substitution recomputed by ``mgu_goal``."""

import itertools
import os

from lamu import unify
from lamu.concrete import parse_file, parse_program
from lamu.generator import Generator, GeneratorConfig
from lamu.reduction import (
    ALLOC, FRESH, UNIF, TraceStep, evaluate, find_redex, step_at,
)
from lamu.syntax import Session, check_coherent, free_vars, locations

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
        after = step_at(current, redex, session).after
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
        trace.append(TraceStep(redex.rule, redex.thread, current, after,
                               sigma, fresh_var, fresh_loc, redex.focus))
        current = after
    return current, trace, find_redex(current) is None


def assert_same_trace(p, fuel):
    result = evaluate(p, fuel)
    program, trace, normal = oracle_evaluate(p, fuel)
    assert (result.program, result.normal) == (program, normal)
    assert len(result.trace) == len(trace)
    for ts, old in zip(result.trace, trace):
        assert (ts.rule, ts.thread, ts.before, ts.after) == \
            (old.rule, old.thread, old.before, old.after)
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


def test_fork_ladder_matches_oracle():
    for k in range(2, 9):
        calls = "f (" * k + "C" + ")" * k
        p = parse_program(rf"(\f. {calls}) (\x. x | S x)")
        result = assert_same_trace(p, 10 * 2 ** k)
        assert result.normal and len(result.program) == 2 ** k


def test_corpus_matches_oracle():
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as handle:
            assert_same_trace(parse_file(handle.read()).program, 1000)


def test_generated_programs_match_oracle():
    gen = Generator(GeneratorConfig(seed=7, max_depth=4))
    for p in itertools.islice(gen.programs(), 200):
        assert_same_trace(p, 200)


def test_oracle_sees_issued_names():
    # the diff finds the fresh variable only where it occurs, and
    # step_at records it either way
    p = parse_program(r"fresh y. C | fresh y. (y =:= C) | \x. x")
    result = assert_same_trace(p, 10)
    _, trace, _ = oracle_evaluate(p, 10)
    assert [ts.rule for ts in result.trace] == [FRESH, FRESH, UNIF, ALLOC]
    assert all(ts.fresh_var for ts in result.trace if ts.rule == FRESH)
    assert trace[0].fresh_var is None
    assert trace[1].fresh_var == result.trace[1].fresh_var
    assert result.trace[3].fresh_loc == trace[3].fresh_loc == 1
