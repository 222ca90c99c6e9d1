"""Tests for the small-step evaluator: individual rules, strategies,
traces, bounded exploration, and the session's memo of beta steps."""

import itertools
import operator
import random

import pytest

from helpers import (
    CRITERION_8_DRAWS, check_step_invariants, criterion_7_config,
    criterion_8_config, replay, splice, subst_single_oracle,
)
from lamu import reduction, syntax
from lamu.concrete import parse_program
from lamu.equiv import is_normal_term, struct_equiv
from lamu.generator import Generator
from lamu.parallel import par_normalize, par_step
from lamu.reduction import (
    ALLOC, BETA, FAILRULE, FRESH, GUARD, STRATEGIES, UNIF,
    enumerate_redexes, evaluate, find_redex, reachable_normal_forms, step,
    step_at,
)
from lamu.syntax import (
    Abs, AbsLoc, App, CoherenceError, Cons, Fresh, Guard, Program, Session,
    Unif, Var, alpha_eq, check_coherent, singleton, subst_single,
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
    ts = step(p, session=check_coherent(p))
    assert ts.rule == BETA
    assert splice(p, ts) == Program((D, C))


def test_beta_fail_body_deletes_thread():
    p = Program((App(AbsLoc(1, "x", Program(())), D), C))
    ts = step(p, session=check_coherent(p))
    assert ts.rule == BETA
    assert splice(p, ts) == Program((C,))


def test_guard_rule():
    p = singleton(Guard(C, D))
    ts = step(p, session=Session())
    assert ts.rule == GUARD
    assert splice(p, ts) == singleton(D)


def test_fresh_rule_renames():
    p = singleton(Fresh("x", Unif(X, C)))
    ts = step(p, session=check_coherent(p))
    assert ts.rule == FRESH
    assert ts.fresh_var is not None
    assert alpha_eq(splice(p, ts).threads[0], Unif(Var(ts.fresh_var), C))


def test_unif_applies_mgu_to_whole_thread():
    p = singleton(Guard(Unif(X, C), App(D, X)))
    ts = step(p, session=check_coherent(p))
    assert ts.rule == UNIF
    assert splice(p, ts) == singleton(Guard(Cons("Ok"), App(D, C)))
    assert ts.substitution is not None and ts.substitution("x") == C


def test_unif_does_not_touch_other_threads():
    p = Program((Unif(X, C), X))
    ts = step(p, session=check_coherent(p))
    assert splice(p, ts) == Program((Cons("Ok"), X))


def test_fail_rule_deletes_thread():
    p = Program((Unif(C, D), X))
    ts = step(p, session=check_coherent(p))
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

    def counting_subst_single(x, name, value):
        calls.append(name)
        return subst_single(x, name, value)

    monkeypatch.setattr(reduction, "subst_single", counting_subst_single)
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


# two-thread programs whose second thread is not coherent: (\x@1. x)
# (\y@1. C), two closures at one location, and \y. \x@1. y, a closure
# that captures a bound name
MISMATCH = AbsLoc(1, "y", singleton(C))
CAPTURING = AbsLoc(1, "x", singleton(Y))
INCOHERENT = [
    (Program((C, App(ID1, MISMATCH))), "location-mismatch",
     ("location-mismatch", 1, ID1, MISMATCH)),
    (Program((D, Abs("y", singleton(CAPTURING)))), "captured-variable",
     ("captured-variable", CAPTURING, ["y"])),
]
# every entry that runs a program without being given a session
ENTRIES = [evaluate, reachable_normal_forms, par_normalize, step, par_step,
           check_coherent]


def test_evaluate_rejects_incoherent_input():
    # each entry raises what check_coherent raises, witness included
    for bad, kind, witness in INCOHERENT:
        for entry in ENTRIES:
            with pytest.raises(CoherenceError) as info:
                entry(bad)
            assert str(info.value) == (
                f"thread 1 violates coherence: {kind}"), entry
            assert info.value.witness == witness, entry


def _count_walks(monkeypatch):
    """The list that each whole-program walk made in syntax appends its
    name to: the coherence walk, and coherence_witness and subterms,
    through which a second walk of the same program would go."""
    walks = []

    def counted(name, walk):
        def wrapper(*args):
            walks.append(name)
            return walk(*args)
        return wrapper

    for name in ("_coherence_walk", "coherence_witness", "subterms"):
        walk = getattr(syntax, name, None)
        if walk is not None:
            monkeypatch.setattr(syntax, name, counted(name, walk))
    return walks


@pytest.mark.parametrize("entry", ENTRIES[:5])
def test_a_run_walks_each_thread_once_before_it_starts(monkeypatch, entry):
    p = parse_program(r"(\x. x) C | fresh y. (y =:= C) | D")
    walks = _count_walks(monkeypatch)
    entry(p)
    assert walks == ["_coherence_walk"] * len(p)


def test_a_given_session_is_not_walked_again(monkeypatch):
    # the caller that made the session walked the program; step and
    # par_step with it walk nothing, and so do not see incoherence
    p = parse_program(r"(\x. x) C | fresh y. (y =:= C) | D")
    session = check_coherent(p)
    walks = _count_walks(monkeypatch)
    assert step(p, session) is not None
    par_step(p, session)
    assert walks == []
    bad = INCOHERENT[0][0]
    assert step(bad, Session()).rule == BETA
    assert par_step(bad, Session()) == Program((C, MISMATCH))


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
    session = check_coherent(p)
    redexes = enumerate_redexes(p)
    left = splice(p, step_at(p[0], redexes[0], session))
    right = splice(p, step_at(p[0], redexes[1], session))
    assert left == singleton(App(Cons("Ok"), Unif(D, D)))
    assert right == singleton(App(Unif(C, C), Cons("Ok")))


def test_every_step_keeps_the_run_invariants_on_criteria_7_and_8():
    # each stream at its criterion's fuel, under every strategy: each
    # step's threads coherent, each issued name new to the program, and
    # the run's threads, object for object, the spliced deltas
    steps = {}
    for config, count, fuel in ((criterion_7_config(), 300, 200),
                                (criterion_8_config(), CRITERION_8_DRAWS,
                                 100)):
        programs = list(itertools.islice(Generator(config).programs(),
                                         count))
        for strategy, p in itertools.product(STRATEGIES, programs):
            result = evaluate(p, fuel, strategy)
            threads = list(p)
            for ts in result.trace:
                threads = check_step_invariants(threads, ts)
                steps[ts.rule] = steps.get(ts.rule, 0) + 1
            assert len(threads) == len(result.program)
            assert all(map(operator.is_, threads, result.program))
    assert all(steps.get(rule) for rule in (ALLOC, BETA, FAILRULE, FRESH,
                                            GUARD, UNIF)), steps


def test_the_step_checker_refuses_each_broken_invariant():
    threads = [ID1, Abs("y", singleton(Y)), Fresh("z", Var("z"))]
    session = check_coherent(Program(threads))
    alloc = step_at(threads[1], enumerate_redexes(Program(threads))[0],
                    session)
    fresh = step_at(threads[2], enumerate_redexes(Program(threads))[1],
                    session)
    assert (alloc.rule, alloc.thread, fresh.rule) == (ALLOC, 1, FRESH)
    after = check_step_invariants(check_step_invariants(threads, alloc),
                                  fresh)
    assert after[0] is ID1 and len(after) == 3
    clash = App(ID1, AbsLoc(1, "y", singleton(C)))
    for broken in (alloc._replace(thread=0), alloc._replace(fresh_loc=1),
                   fresh._replace(fresh_var="x"),
                   alloc._replace(after=(clash,))):
        with pytest.raises(AssertionError):
            check_step_invariants(threads, broken)


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
