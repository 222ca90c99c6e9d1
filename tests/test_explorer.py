"""The thread-modular explorer against the product-space BFS it
replaced, its bounds (an exploration cut by one reports at most
max_states states and a subset of the normal forms, and one that
completes is the exploration without the cut), and its edge cases:
self-spawning threads, deep split nesting and the partial normal forms
of an incomplete exploration."""

import pytest

from helpers import DIVERGENT, criterion_4_programs, product_bfs
from lamu import reduction
from lamu.concrete import parse_program
from lamu.equiv import canonical_program
from lamu.reduction import enumerate_redexes, evaluate, reachable_normal_forms

# every split spawns a thread one S deeper, so no key ever repeats
GROWING = r"(\x. \y. x x (S y) | y) (\x. \y. x x (S y) | y) C"
# with F = \x. (Ok ; x x) | C, the thread Ok ; F F spawns Ok ; Ok ; F F,
# whose guard step leads back to Ok ; F F
RESPAWNING = r"(\x. (Ok ; x x) | C) (\x. (Ok ; x x) | C)"


def test_parity_with_product_bfs():
    bounds = dict(fuel=60, max_states=300)
    bfs_incomplete = 0
    for p in criterion_4_programs(150):
        modular = reachable_normal_forms(p, **bounds)
        product = product_bfs(p, **bounds)
        if product.complete:
            assert modular.complete, p
            assert modular.normal_forms == product.normal_forms, p
        else:
            bfs_incomplete += 1
            assert product.normal_forms <= modular.normal_forms, p
    assert bfs_incomplete > 10


def test_normal_forms_are_multiset_sums():
    p = parse_program(r"(\x. x | (x =:= C) ; D) C | fresh y. (y =:= D) ; y")
    ex = reachable_normal_forms(p)
    assert ex.complete
    assert ex.normal_forms == {canonical_program(evaluate(p).program)}
    assert len(next(iter(ex.normal_forms))) == 3


def test_equal_threads_are_explored_once():
    one = reachable_normal_forms(parse_program("(C =:= C) ; D"))
    two = reachable_normal_forms(parse_program("(C =:= C) ; D | (C =:= C) ; D"))
    assert two.complete and two.states == one.states
    assert two.normal_forms == {tuple(2 * nf) for nf in one.normal_forms}


def test_fail_and_empty_programs():
    assert reachable_normal_forms(parse_program("C =:= D")).normal_forms == {()}
    assert reachable_normal_forms(parse_program("fail")).normal_forms == {()}


def test_self_spawning_thread_is_incomplete():
    ex = reachable_normal_forms(parse_program(DIVERGENT))
    assert not ex.complete
    assert ex.normal_forms == set()


def test_successor_under_exploration_is_incomplete():
    # a single-thread step that reaches a thread still being explored
    # further out is not followed and makes the exploration incomplete;
    # following it instead would visit 103 states
    ex = reachable_normal_forms(parse_program(RESPAWNING), fuel=10)
    assert (ex.complete, ex.normal_forms, ex.states) == (False, set(), 59)


def test_deep_split_nesting_is_incomplete_without_recursion_error():
    # each split nests one exploration deeper; the nesting here outgrows
    # Python's recursion limit, while the S-terms stay shallow enough for
    # the recursive term traversals
    ex = reachable_normal_forms(parse_program(GROWING), fuel=5000,
                                max_states=900)
    assert not ex.complete
    assert ex.states == 900
    ex = reachable_normal_forms(parse_program(GROWING), fuel=50)
    assert not ex.complete and ex.states < 900


def test_incomplete_exploration_has_partial_normal_forms():
    ex = reachable_normal_forms(parse_program(DIVERGENT))
    assert not ex.complete and ex.normal_forms == set()
    wide = parse_program("(C =:= C) ; D | (\\x. x) C")
    ex = reachable_normal_forms(wide, fuel=1)
    assert not ex.complete
    assert ex.normal_forms <= reachable_normal_forms(wide).normal_forms


@pytest.fixture(scope="module")
def criterion_4_stream():
    """The criterion 4/9 stream's 500 draws."""
    return tuple(criterion_4_programs(500))


@pytest.fixture(scope="module")
def criterion_4_explorations(criterion_4_stream):
    """Each draw's exploration under the default bounds, pinned in
    test_step_oracle's digest; every one completes."""
    return tuple(reachable_normal_forms(p) for p in criterion_4_stream)


def _exploration(ex):
    return ex.normal_forms, ex.states, ex.complete


@pytest.mark.parametrize("fuel, max_states, incomplete", [
    (200, 10_000, 0), (6, 10_000, 147), (200, 40, 95), (3, 200, 360)])
def test_matches_the_oracle_that_steps_every_visit_on_the_stream(
        criterion_4_stream, criterion_4_explorations, fuel, max_states,
        incomplete):
    # each exploration complete or cut by fuel, by max_states or by
    # split nesting, against the same draw explored without a cut
    cut = 0
    for p, full in zip(criterion_4_stream, criterion_4_explorations):
        ex = reachable_normal_forms(p, fuel, max_states)
        assert full.complete and ex.states <= max_states, p
        if ex.complete:
            assert _exploration(ex) == _exploration(full), p
        else:
            assert ex.normal_forms <= full.normal_forms, p
        cut += not ex.complete
    assert cut == incomplete


@pytest.mark.parametrize("source, fuel, max_states, states", [
    pytest.param(DIVERGENT, 200, 10_000, 6, id="divergent"),
    pytest.param(GROWING, 5000, 900, 900, id="growing-900-states"),
    pytest.param(GROWING, 50, 10_000, 202, id="growing-fuel-50"),
    pytest.param(RESPAWNING, 10, 10_000, 59, id="respawning-fuel-10"),
    pytest.param(RESPAWNING, 200, 60, 60, id="respawning-60-states")])
def test_matches_the_oracle_that_steps_every_visit_on_spawning_threads(
        source, fuel, max_states, states):
    # no normal form is reached, and the count of states is pinned
    ex = reachable_normal_forms(parse_program(source), fuel, max_states)
    assert _exploration(ex) == (set(), states, False)


def test_each_state_is_expanded_once_per_call(criterion_4_stream,
                                              monkeypatch):
    # draw 26 of the criterion 4/9 stream: its searches visit 930 states
    # but only 254 distinct keys, and only those are enumerated and
    # stepped
    p = criterion_4_stream[26]
    calls = []

    def counting_enumerate_redexes(threads):
        calls.append(threads)
        return enumerate_redexes(threads)

    monkeypatch.setattr(reduction, "enumerate_redexes",
                        counting_enumerate_redexes)
    ex = reachable_normal_forms(p)
    assert (ex.complete, ex.states, len(ex.normal_forms)) == (True, 930, 1)
    assert len(calls) == 254
