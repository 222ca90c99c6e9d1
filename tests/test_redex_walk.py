"""The redex search against the recursive one it replaced.

``enumerate_redexes`` walks each thread on an explicit stack; the
oracle, ``redexes_oracle``, recurses one Python frame per level.  Both
must give the same redexes in the same order, with the same path links:
the same parent objects, by identity, and the same sides.  The strategies
of ``find_redex``, which stop early, are checked against
``find_redex_oracle``, which picks among every redex.  Then the depth:
the search, and ``evaluate`` through it, reach a redex 100 000 levels
down, where the recursion raises ``RecursionError``."""

import random

import pytest

from helpers import criterion_4_programs, find_redex_oracle, redexes_oracle
from lamu import reduction
from lamu.reduction import (
    ALLOC, BETA, GUARD, enumerate_redexes, evaluate, find_redex,
    reachable_normal_forms,
)
from lamu.syntax import Abs, App, Cons, Guard, Program, Var, singleton

DEPTH = 100_000


def same_redex(r, o) -> bool:
    """r and o name the same thread, rule and focus, and their paths
    have the same links: the same parents by identity, the same sides."""
    if (r.thread, r.rule) != (o.thread, o.rule) or r.focus is not o.focus:
        return False
    a, b = r.path, o.path
    while a is not None and b is not None:
        if a[0] is not b[0] or a[1] != b[1]:
            return False
        a, b = a[2], b[2]
    return a is None and b is None


def assert_search_matches_the_oracle(p, seed):
    redexes, old = enumerate_redexes(p), redexes_oracle(p)
    assert len(redexes) == len(old)
    assert all(same_redex(r, o) for r, o in zip(redexes, old))
    for strategy in ("leftmost", "rightmost"):
        r, o = find_redex(p, strategy), find_redex_oracle(p, strategy)
        assert (r is None) == (o is None)
        assert r is None or same_redex(r, o)
    r = find_redex(p, "random", random.Random(seed))
    o = find_redex_oracle(p, "random", random.Random(seed))
    assert (r is None) == (o is None)
    assert r is None or same_redex(r, o)


def test_the_walk_matches_the_recursion(monkeypatch):
    # criterion 4's 500 draws, then every state the explorer expands
    # for the first 40 of them
    programs = list(criterion_4_programs(500))
    for seed, p in enumerate(programs):
        assert_search_matches_the_oracle(p, seed)
    expanded = []

    def recording_enumerate_redexes(threads):
        expanded.append(threads)
        return enumerate_redexes(threads)

    monkeypatch.setattr(reduction, "enumerate_redexes",
                        recording_enumerate_redexes)
    for p in programs[:40]:
        reachable_normal_forms(p, fuel=200, max_states=10_000)
    monkeypatch.undo()
    assert len(expanded) > 800
    for seed, threads in enumerate(expanded):
        assert_search_matches_the_oracle(threads, seed)


IDENTITY = Abs("x", singleton(Var("x")))


def guard_chain():
    """(((\\x. x ; \\x. x) ; \\x. x) ; ...) ; \\x. x, DEPTH guards deep."""
    t = IDENTITY
    for _ in range(DEPTH):
        t = Guard(t, IDENTITY)
    return Program((t,))


def app_spine():
    """(\\x. x) C C ... C, DEPTH applications deep."""
    t = IDENTITY
    for _ in range(DEPTH):
        t = App(t, Cons("C"))
    return Program((t,))


def shallow(call):
    """call(), failing at once on RecursionError.  pytest's report of a
    RecursionError compares the locals of each pair of frames with ==,
    which walks these terms: on the recursive search it took minutes."""
    try:
        return call()
    except RecursionError:
        pass
    pytest.fail("RecursionError", pytrace=False)


def path_length(path) -> int:
    n = 0
    while path is not None:
        n, path = n + 1, path[2]
    return n


def test_a_guard_chain_deeper_than_the_recursion_limit():
    p = guard_chain()
    first = shallow(lambda: find_redex(p))
    assert first.rule == ALLOC and path_length(first.path) == DEPTH
    assert first.path[1] == 0 and first.path[0].left is IDENTITY
    last = shallow(lambda: find_redex(p, "rightmost"))
    assert (last.rule, last.path[:2], path_length(last.path)) == \
        (ALLOC, (p[0], 1), 1)
    redexes = shallow(lambda: enumerate_redexes(p))
    assert len(redexes) == DEPTH + 1
    assert same_redex(redexes[0], first) and same_redex(redexes[-1], last)
    # the innermost guard allocates its two sides, then fires
    result = shallow(lambda: evaluate(p, fuel=3))
    assert [ts.rule for ts in result.trace] == [ALLOC, ALLOC, GUARD]
    assert not result.normal


def test_an_app_spine_deeper_than_the_recursion_limit():
    # the one redex is the head, at the bottom of the spine
    p = app_spine()
    for strategy in ("leftmost", "rightmost"):
        redex = shallow(lambda: find_redex(p, strategy))
        assert redex.rule == ALLOC and redex.focus is IDENTITY
        assert path_length(redex.path) == DEPTH
    (redex,) = shallow(lambda: enumerate_redexes(p))
    assert redex.focus is IDENTITY and path_length(redex.path) == DEPTH
    # the head allocates, then takes the first C: what is left is a value
    result = shallow(lambda: evaluate(p, fuel=3))
    assert [ts.rule for ts in result.trace] == [ALLOC, BETA]
    assert result.normal and result.program[0].value
