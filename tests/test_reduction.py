"""Tests for the small-step evaluator: individual rules, strategies,
traces, bounded exploration, and the session's memo of beta steps."""

import random

import pytest

from helpers import replay, splice, subst_single_oracle
from lamu import reduction
from lamu.concrete import parse_program
from lamu.equiv import is_normal_term, struct_equiv
from lamu.parallel import par_normalize
from lamu.reduction import (
    ALLOC, BETA, FAILRULE, FRESH, GUARD, UNIF, enumerate_redexes,
    evaluate, find_redex, reachable_normal_forms, step, step_at,
)
from lamu.syntax import (
    Abs, AbsLoc, App, CoherenceError, Cons, Fresh, Guard, Program, Session,
    Unif, Var, alpha_eq, check_coherent, singleton, subst_threads,
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


def test_a_session_contracts_each_pair_once(monkeypatch):
    # omega allocates both closures, contracts L1 L2 to L2 L2 and then
    # L2 L2 to a new L2 L2 built from the same two objects, so from step
    # 4 on every beta reads the memo
    calls = []

    def counting_subst_threads(threads, name, value):
        calls.append(name)
        return subst_threads(threads, name, value)

    monkeypatch.setattr(reduction, "subst_threads", counting_subst_threads)
    omega = run(r"(\x. x x) (\x. x x)", fuel=50)
    assert not omega.normal and omega.steps == 50
    assert [ts.rule for ts in omega.trace] == [ALLOC, ALLOC] + [BETA] * 48
    assert len({id(ts.after) for ts in omega.trace[3:]}) == 1
    assert len(calls) == 2


def test_the_beta_memo_lives_as_long_as_its_session():
    # omega on an allocated closure: every step contracts the same two
    # objects, and a second run contracts them again
    closure = AbsLoc(1, "x", singleton(App(X, X)))
    p = singleton(App(closure, closure))
    first, second = evaluate(p, fuel=50), evaluate(p, fuel=50)

    def contracta(result):
        return {id(x) for ts in result.trace if ts.rule == BETA
                for x in (ts.after, *ts.after)}

    assert len(contracta(first)) == len(contracta(second)) == 2
    assert contracta(first).isdisjoint(contracta(second))


def test_a_memoised_beta_avoids_capture_like_the_oracle():
    # (\^1 x. \y. x y) y, the same thread object twice: the body's binder
    # y would capture the argument, so both betas rename it
    closure = AbsLoc(1, "x", singleton(Abs("y", singleton(App(X, Y)))))
    thread = App(closure, Y)
    result = evaluate(Program((thread, thread)))
    betas = [ts for ts in result.trace if ts.rule == BETA]
    assert len(betas) == 2
    expected = subst_single_oracle(closure.body, "x", Y).threads
    assert betas[0].after == betas[1].after == expected
    assert betas[0].after[0].var != "y"
    assert betas[1].after is betas[0].after


def test_replay():
    r = run(r"(\x. x | fresh y. ((x =:= C y); y)) (C D)")
    assert replay(r.trace, parse_program(r"(\x. x | fresh y. ((x =:= C y); y)) (C D)"))
    assert not replay(r.trace, parse_program("C"))


def test_evaluate_rejects_incoherent_input():
    bad = singleton(App(ID1, AbsLoc(1, "x", singleton(C))))
    with pytest.raises(CoherenceError):
        evaluate(bad)


def test_a_deep_value_passes_every_entry_check():
    # Ok ; S (S (... C)) 3 000 levels deep: only the value is deep, and
    # no check around evaluation may recurse into it
    value = C
    for _ in range(3000):
        value = App(Cons("S"), value)
    p = singleton(Guard(Cons("Ok"), value))
    check_coherent(p)
    assert is_normal_term(value)
    result = evaluate(p)
    assert result.normal and result.program == singleton(value)
    exploration = reachable_normal_forms(p)
    assert exploration.complete and len(exploration.normal_forms) == 1
    parallel = par_normalize(p)
    assert parallel.normal and parallel.program == singleton(value)


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


def test_an_unknown_strategy_is_rejected_before_any_search():
    # a normal program, a reducible one, and no step at all
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        find_redex(parse_program("C"), "bogus")
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        evaluate(parse_program("C | D"), strategy="bogus")
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        evaluate(parse_program("C =:= C"), fuel=0, strategy="bogus")


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
