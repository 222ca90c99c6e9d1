"""Tests for structural equivalence and the normal/stuck classifier,
whose stuck kinds compare, hash and print as the dataclass they were."""

import itertools
import signal

from helpers import (
    assert_records_keep_the_rules, criterion_4_programs,
    is_normal_term_oracle, is_stuck_oracle,
)
from lamu.equiv import (
    STUCK_CONS, STUCK_GUARD, STUCK_LAM, STUCK_UNIF, STUCK_VAR,
    canonical_program, canonical_thread, is_normal_program, is_normal_term,
    is_stuck, struct_equiv,
)
from lamu.generator import Generator, GeneratorConfig
from lamu.parallel import par_normalize
from lamu.reduction import find_redex
from lamu.syntax import (
    Abs, AbsLoc, App, Cons, Fresh, Guard, Program, Unif, Var, singleton,
    subterms,
)

X, Y, Z = Var("x"), Var("y"), Var("z")
C, D = Cons("C"), Cons("D")
ID1 = AbsLoc(1, "x", singleton(X))
ID2 = AbsLoc(2, "x", singleton(X))


def test_struct_equiv_reorder():
    assert struct_equiv(Program((X, C)), Program((C, X)))
    assert not struct_equiv(Program((X, C)), Program((C, C)))
    assert not struct_equiv(Program((X,)), Program((X, X)))


def test_struct_equiv_renaming():
    # free variables rename injectively, per thread
    assert struct_equiv(singleton(App(X, X)), singleton(App(Y, Y)))
    assert not struct_equiv(singleton(App(X, X)), singleton(App(X, Y)))
    # locations rename injectively too
    assert struct_equiv(singleton(ID1), singleton(ID2))
    assert not struct_equiv(singleton(Unif(ID1, ID1)),
                            singleton(Unif(ID1, ID2)))


def test_struct_equiv_thread_local():
    # the renaming need not be consistent across threads
    assert struct_equiv(Program((X, X)), Program((X, Y)))


def test_canonical_program_sorted():
    p = Program((C, X))
    q = Program((X, C))
    assert canonical_program(p) == canonical_program(q)


def test_canonical_thread_is_representative():
    assert canonical_thread(App(Y, Y)) == canonical_thread(App(Z, Z))


def test_values_are_normal_not_stuck():
    for v in (X, C, App(C, D), ID1):
        assert is_normal_term(v)
        assert is_stuck(v) is None


def test_stuck_var():
    k = is_stuck(App(X, C))
    assert k is not None and k.kind == STUCK_VAR
    assert is_normal_term(App(X, C))


def test_stuck_cons():
    k = is_stuck(App(C, App(X, C)))
    assert k is not None and k.kind == STUCK_CONS


def test_stuck_guard():
    k = is_stuck(Guard(App(X, C), D))
    assert k is not None and k.kind == STUCK_GUARD
    # guard on a value is a redex, not stuck
    assert is_stuck(Guard(C, D)) is None


def test_stuck_unif():
    k = is_stuck(Unif(App(X, C), D))
    assert k is not None and k.kind == STUCK_UNIF
    assert is_stuck(Unif(C, D)) is None


def test_stuck_lam():
    k = is_stuck(App(ID1, App(X, C)))
    assert k is not None and k.kind == STUCK_LAM
    # closure applied to a value is a beta redex
    assert is_stuck(App(ID1, C)) is None


def test_redexes_are_not_normal():
    for t in (Abs("x", singleton(X)), Fresh("x", X), Guard(C, D),
              Unif(C, D), App(ID1, C)):
        assert not is_normal_term(t)


def test_normal_program():
    assert is_normal_program(Program(()))
    assert is_normal_program(Program((C, App(X, C))))
    assert not is_normal_program(Program((C, Unif(C, C))))


def test_classifier_matches_redex_search_on_samples():
    gen = Generator(GeneratorConfig(seed=23, max_depth=3))
    for _ in range(300):
        p = gen.program()
        assert is_normal_program(p) == (find_redex(p) is None)


def test_classifier_matches_recursive_oracle_on_every_subterm():
    # the programs and their normal forms, which hold every stuck kind
    kinds = set()
    for p in criterion_4_programs(300):
        for t in (*subterms(p), *subterms(par_normalize(p, fuel=300).program)):
            k = is_stuck(t)
            assert k == is_stuck_oracle(t), t
            assert is_normal_term(t) == is_normal_term_oracle(t), t
            kinds.add(k and k.kind)
    assert kinds >= {None, STUCK_VAR, STUCK_CONS, STUCK_GUARD, STUCK_UNIF,
                     STUCK_LAM}


def test_stuck_kinds_match_the_dataclass_mirror_on_criterion_4():
    # the kinds of every subterm of each program and of its normal form,
    # every pair of one program's kinds compared
    count = unequal = 0
    for p in criterion_4_programs(500):
        kinds = [k for t in (*subterms(p),
                             *subterms(par_normalize(p, fuel=300).program))
                 if (k := is_stuck(t)) is not None]
        count += len(kinds)
        unequal += assert_records_keep_the_rules(
            kinds, itertools.combinations(range(len(kinds)), 2))
    assert count > 2_000 and unequal > 3_000


def test_deep_stuck_chain_is_classified_in_linear_time():
    # the recursive oracle decides each argument twice: 2^60 walks here,
    # so a timer turns that regression into a failure, not a hang
    t = App(X, Y)
    for _ in range(60):
        t = App(Cons("S"), t)

    def too_slow(signum, frame):
        raise TimeoutError("classifying a 60-deep chain took 0.5 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        k = is_stuck(t)
        assert is_normal_term(t)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for _ in range(60):
        assert k.kind == STUCK_CONS
        k, = k.sub
    assert k == is_stuck(App(X, Y))


def test_struct_equiv_reflexive():
    # the first program of each seed 0..99
    programs = [Generator(GeneratorConfig(seed=seed, max_depth=3)).program()
                for seed in range(100)]
    assert len(programs) == 100
    for p in programs:
        assert struct_equiv(p, p), p
        assert struct_equiv(p, Program(tuple(reversed(p.threads)))), p
