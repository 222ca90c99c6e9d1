"""The thread-modular explorer against the product-space BFS it
replaced, and its edge cases: self-spawning threads, deep split nesting
and the partial normal forms of an incomplete exploration."""

from helpers import product_bfs
from lamu.concrete import parse_program
from lamu.equiv import canonical_program
from lamu.generator import Generator, GeneratorConfig
from lamu.reduction import evaluate, reachable_normal_forms

# spawns a copy of itself next to C on every beta step
DIVERGENT = r"(\x. x x | C) (\x. x x | C)"
# every split spawns a thread one S deeper, so no key ever repeats
GROWING = r"(\x. \y. x x (S y) | y) (\x. \y. x x (S y) | y) C"


def test_parity_with_product_bfs():
    gen = Generator(GeneratorConfig(seed=7, max_depth=4))
    bounds = dict(fuel=60, max_states=300)
    bfs_incomplete = 0
    for _ in range(150):
        p = gen.program()
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
