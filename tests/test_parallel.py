"""Tests for the simultaneous evaluator and its agreement with the
small-step semantics."""

from helpers import (
    DIVERGENT, confluence_stream, par_normalize_oracle, par_step_all,
    par_term_all, within,
)
from lamu.concrete import parse_program
from lamu.equiv import is_normal_term, struct_equiv
from lamu.generator import Generator, GeneratorConfig
from lamu.parallel import ParNormalResult, par_normalize, par_step, par_term
from lamu.reduction import evaluate
from lamu.syntax import (
    AbsLoc, App, Cons, Guard, Program, Session, Unif, Var, check_coherent,
    singleton,
)

X, Y = Var("x"), Var("y")
C, D = Cons("C"), Cons("D")
ID1 = AbsLoc(1, "x", singleton(X))


def test_par_term_value_is_identity():
    assert par_term(C, Session()) == ((C,), ())


def test_par_term_contracts_nested_redexes():
    # both unification goals fire in one simultaneous step
    t = App(Unif(C, C), Unif(D, D))
    threads, goals = par_term(t, Session())
    assert threads == (App(Cons("Ok"), Cons("Ok")),)
    assert len(goals) == 2


def test_par_term_beta_splits():
    t = App(AbsLoc(1, "x", Program((X, C))), D)
    threads, goals = par_term(t, Session())
    assert threads == (D, C) and goals == ()


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


def test_par_normalize_out_of_fuel_takes_exactly_fuel_steps():
    # the divergent program makes one more C thread on every step
    p = parse_program(DIVERGENT)
    assert par_normalize(p, fuel=0) == ParNormalResult(p, 0, False)
    for fuel in (1, 2, 5):
        session = check_coherent(p)
        expected = p
        for _ in range(fuel):
            expected = par_step(expected, session)
        assert par_normalize(p, fuel=fuel) == ParNormalResult(
            expected, fuel, False)


def test_par_normalize_matches_whole_program_oracle():
    # exact equality: thread order, names and locations issued, steps;
    # against the whole-program loop, in and out of fuel
    for i, p in enumerate(confluence_stream(150)):
        for fuel in (0, 1, 3, 300):
            expected = par_normalize_oracle(p, fuel=fuel)
            assert par_normalize(p, fuel=fuel) == expected, (i, fuel)


def test_par_normalize_skips_finished_threads():
    # every step splits a C off the diverging thread; a loop that lists
    # the finished threads on every step took about 0.9 s at fuel 3 000
    p = parse_program(DIVERGENT)
    r = within(0.3, "3 000 simultaneous steps of the divergent program",
               lambda: par_normalize(p, fuel=3000))
    assert not r.normal and r.steps == 3000
    assert r.program.threads[1:] == (C,) * 2999


def test_normal_threads_are_par_term_fixpoints():
    """What par_normalize's carry-over relies on: a normal thread steps
    to itself, emits no goal and draws no name or location."""
    checked = set()
    for p in confluence_stream(150):
        session = check_coherent(p)
        current = p
        for _ in range(300):
            normal = [t for t in current if is_normal_term(t)]
            for t in set(normal) - checked:
                used = check_coherent(singleton(t))
                twin = check_coherent(singleton(t))
                assert par_term(t, used) == ((t,), ())
                assert used.fresh_var() == twin.fresh_var()
                assert used.fresh_loc() == twin.fresh_loc()
                checked.add(t)
            if len(normal) == len(current):
                break
            current = par_step(current, session)
    assert len(checked) > 100


def test_par_term_all_contains_reflexive_and_maximal():
    t = Unif(C, C)
    session = Session()
    results = par_term_all(t, session)
    reducts = [threads for threads, _ in results]
    assert (t,) in reducts
    assert (Cons("Ok"),) in reducts


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
