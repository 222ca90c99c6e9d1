"""Tests for the simultaneous evaluator and its agreement with the
small-step semantics."""

from helpers import par_step_all, par_term_all
from lamu.concrete import parse_program
from lamu.equiv import struct_equiv
from lamu.generator import Generator, GeneratorConfig
from lamu.parallel import par_normalize, par_step, par_term
from lamu.reduction import evaluate
from lamu.syntax import (
    AbsLoc, App, Cons, Guard, Program, Session, Unif, Var, singleton,
)

X, Y = Var("x"), Var("y")
C, D = Cons("C"), Cons("D")
ID1 = AbsLoc(1, "x", singleton(X))


def test_par_term_value_is_identity():
    r = par_term(C, Session())
    assert r.program == singleton(C) and r.goals == ()


def test_par_term_contracts_nested_redexes():
    # both unification goals fire in one simultaneous step
    t = App(Unif(C, C), Unif(D, D))
    r = par_term(t, Session())
    assert r.program == singleton(App(Cons("Ok"), Cons("Ok")))
    assert len(r.goals) == 2


def test_par_term_beta_splits():
    t = App(AbsLoc(1, "x", Program((X, C))), D)
    r = par_term(t, Session())
    assert r.program == Program((D, C))


def test_par_step_discharges_goals():
    p = singleton(Guard(Unif(X, C), X))
    out = par_step(p)
    assert out == singleton(Guard(Cons("Ok"), C))


def test_par_step_drops_failing_thread():
    p = Program((Unif(C, D), C))
    assert par_step(p) == Program((C,))


def test_par_step_choice_lifting():
    # a beta under an application distributes alternatives pairwise
    inner = App(AbsLoc(1, "x", Program((X, C))), D)
    p = singleton(App(Cons("P"), inner))
    out = par_step(p)
    assert out == Program((App(Cons("P"), D), App(Cons("P"), C)))


def test_par_normalize_golden():
    p = parse_program(r"(\x. x | fresh y. ((x =:= C y); y)) (C D)")
    r = par_normalize(p)
    assert r.normal
    assert struct_equiv(r.program, parse_program("C D | D"))


def test_par_normalize_divergence_reports_fuel():
    omega = parse_program(r"(\x. x x) (\x. x x)")
    r = par_normalize(omega, fuel=20)
    assert not r.normal


def test_par_term_all_contains_reflexive_and_maximal():
    t = Unif(C, C)
    session = Session()
    results = par_term_all(t, session)
    programs = [r.program for r in results]
    assert singleton(t) in programs
    assert singleton(Cons("Ok")) in programs


def test_diamond_property_on_tiny_programs():
    texts = [
        "C =:= C",
        "fresh x. (x =:= C)",
        r"(\x. x) C",
        "(C =:= C) ; (D =:= D)",
        "C =:= C | C =:= D",
    ]
    for text in texts:
        p = parse_program(text)
        successors = par_step_all(p)
        for a in successors:
            for b in successors:
                closes = any(
                    any(struct_equiv(a2, b2) for b2 in par_step_all(b))
                    for a2 in par_step_all(a))
                assert closes, f"diamond fails to close for {text}"


def test_agreement_with_small_step_on_samples():
    gen = Generator(GeneratorConfig(seed=31, max_depth=3))
    for _ in range(150):
        p = gen.program()
        ev = evaluate(p, fuel=2000)
        pv = par_normalize(p, fuel=200)
        assert ev.normal == pv.normal
        if ev.normal:
            assert struct_equiv(ev.program, pv.program)
