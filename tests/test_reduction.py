"""Tests for the small-step evaluator: individual rules, strategies,
traces, and bounded exploration."""

import random

import pytest

from helpers import replay, splice
from lamu.concrete import parse_program
from lamu.equiv import struct_equiv
from lamu.reduction import (
    ALLOC, BETA, FAILRULE, FRESH, GUARD, UNIF, enumerate_redexes,
    evaluate, find_redex, reachable_normal_forms, step, step_at,
)
from lamu.syntax import (
    Abs, AbsLoc, App, CoherenceError, Cons, Fresh, Guard, Program, Session,
    Unif, Var, alpha_eq, singleton,
)

X, Y = Var("x"), Var("y")
C, D = Cons("C"), Cons("D")
ID1 = AbsLoc(1, "x", singleton(X))


def run(text, **kw):
    return evaluate(parse_program(text), **kw)


def test_alloc_rule():
    p = singleton(Abs("x", singleton(X)))
    r = evaluate(p, fuel=1)
    assert r.trace[0].rule == ALLOC
    out = splice(p, r.trace[0]).threads[0]
    assert isinstance(out, AbsLoc)
    assert out.loc == 1


def test_alloc_uses_fresh_location():
    p = Program((ID1, Abs("y", singleton(Y))))
    r = evaluate(p, fuel=1)
    assert r.trace[0].fresh_loc == 2


def test_beta_splits_threads():
    body = Program((X, C))
    p = singleton(App(AbsLoc(1, "x", body), D))
    ts = step(p, session=Session.for_program(p))
    assert ts.rule == BETA
    assert splice(p, ts) == Program((D, C))


def test_beta_fail_body_deletes_thread():
    p = Program((App(AbsLoc(1, "x", Program(())), D), C))
    ts = step(p, session=Session.for_program(p))
    assert ts.rule == BETA
    assert splice(p, ts) == Program((C,))


def test_guard_rule():
    p = singleton(Guard(C, D))
    ts = step(p, session=Session())
    assert ts.rule == GUARD
    assert splice(p, ts) == singleton(D)


def test_fresh_rule_renames():
    p = singleton(Fresh("x", Unif(X, C)))
    ts = step(p, session=Session.for_program(p))
    assert ts.rule == FRESH
    assert ts.fresh_var is not None
    assert alpha_eq(splice(p, ts).threads[0], Unif(Var(ts.fresh_var), C))


def test_unif_applies_mgu_to_whole_thread():
    p = singleton(Guard(Unif(X, C), App(D, X)))
    ts = step(p, session=Session.for_program(p))
    assert ts.rule == UNIF
    assert splice(p, ts) == singleton(Guard(Cons("Ok"), App(D, C)))
    assert ts.substitution is not None and ts.substitution("x") == C


def test_unif_does_not_touch_other_threads():
    p = Program((Unif(X, C), X))
    ts = step(p, session=Session.for_program(p))
    assert splice(p, ts) == Program((Cons("Ok"), X))


def test_fail_rule_deletes_thread():
    p = Program((Unif(C, D), X))
    ts = step(p, session=Session.for_program(p))
    assert ts.rule == FAILRULE
    assert splice(p, ts) == Program((X,))


def test_no_reduction_under_binders():
    p = singleton(AbsLoc(1, "x", singleton(Unif(C, C))))
    assert find_redex(p) is None
    assert find_redex(singleton(Fresh("x", App(Abs("y", singleton(Y)), C)))) \
        is not None  # fresh itself is the redex
    ts = step(singleton(Fresh("x", Unif(C, C))), session=Session())
    assert ts.rule == FRESH


def test_golden_trace():
    r = run(r"(\x. x | fresh y. ((x =:= C y); y)) (C D)")
    assert r.normal
    assert [ts.rule for ts in r.trace] == [ALLOC, BETA, FRESH, UNIF, GUARD]
    assert struct_equiv(r.program, parse_program("C D | D"))


def test_strategies_agree_up_to_equiv():
    texts = [
        r"(\x. x | fresh y. ((x =:= C y); y)) (C D)",
        r"(C =:= C) ; ((\x. x) D)",
        r"fresh x. fresh y. ((P x y =:= P C D); x)",
        r"C =:= D | (\z. z) C",
    ]
    for text in texts:
        left = run(text, strategy="leftmost")
        right = run(text, strategy="rightmost")
        rand = run(text, strategy="random", seed=5)
        assert left.normal and right.normal and rand.normal
        assert struct_equiv(left.program, right.program)
        assert struct_equiv(left.program, rand.program)


def test_evaluate_deterministic():
    text = r"fresh x. ((x =:= C) ; x) | (\y. y) D"
    a = run(text)
    b = run(text)
    assert a.program == b.program
    assert [t.rule for t in a.trace] == [t.rule for t in b.trace]


def test_fuel_exhaustion():
    omega = run(r"(\x. x x) (\x. x x)", fuel=30)
    assert not omega.normal
    assert len(omega.trace) == 30


def test_replay():
    r = run(r"(\x. x | fresh y. ((x =:= C y); y)) (C D)")
    assert replay(r.trace, parse_program(r"(\x. x | fresh y. ((x =:= C y); y)) (C D)"))
    assert not replay(r.trace, parse_program("C"))


def test_evaluate_rejects_incoherent_input():
    bad = singleton(App(ID1, AbsLoc(1, "x", singleton(C))))
    with pytest.raises(CoherenceError):
        evaluate(bad)


def test_enumerate_redexes_positions():
    p = singleton(App(Unif(C, C), Unif(D, D)))
    redexes = enumerate_redexes(p)
    assert len(redexes) == 2
    assert all(r.rule == UNIF for r in redexes)


def test_step_at_either_redex():
    p = singleton(App(Unif(C, C), Unif(D, D)))
    session = Session.for_program(p)
    redexes = enumerate_redexes(p)
    left = splice(p, step_at(p[0], redexes[0], session))
    right = splice(p, step_at(p[0], redexes[1], session))
    assert left == singleton(App(Cons("Ok"), Unif(D, D)))
    assert right == singleton(App(Unif(C, C), Cons("Ok")))


def test_random_strategy_needs_rng():
    with pytest.raises(ValueError):
        find_redex(singleton(Unif(C, C)), strategy="random")
    assert find_redex(singleton(Unif(C, C)), strategy="random",
                      rng=random.Random(0)) is not None


def test_reachable_normal_forms_simple():
    ex = reachable_normal_forms(parse_program("C =:= C | C =:= D"))
    assert ex.complete
    assert len(ex.normal_forms) == 1


def test_omega_explores_to_finite_quotient():
    # the reachable graph is finite up to structural equivalence and has
    # no normal forms
    omega = parse_program(r"(\x. x x) (\x. x x)")
    ex = reachable_normal_forms(omega, fuel=10, max_states=50)
    assert ex.complete
    assert ex.normal_forms == set()


def test_reachable_normal_forms_bounds():
    wide = parse_program(
        "(C =:= C) ; ((D =:= D) ; C)"
        " | (C =:= C) ; ((D =:= D) ; D)"
        " | (C =:= C) ; ((D =:= D) ; x)")
    ex = reachable_normal_forms(wide, fuel=1, max_states=10_000)
    assert not ex.complete
    assert not reachable_normal_forms(wide, fuel=10, max_states=3).complete
