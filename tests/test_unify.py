"""Tests for the unification engine: single rules, mgu outcomes, clash
detection, and the unifier laws on random goal sets; goals, steps and
outcomes compare, hash and print as the dataclasses they were."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_records_match_the_mirror, brute_force_unifiable, compose, ground_universe, problem_subst,
    problem_terms, range_values, subst_equal, unify_step_oracle,
)
from lamu import unify
from lamu.generator import Generator, GeneratorConfig
from lamu.syntax import (
    AbsLoc, App, CoherenceError, Cons, Substitution, Var,
    coherence_witness, free_vars, make_spine, singleton, term_key,
)
from lamu.unify import (
    ARITY_CLASH, CONSTRUCTOR_CLASH, LOCATION_CLASH,
    OCCURS_CHECK, TYPE_CLASH, Failed, Goal, NotAGoalError, Problem,
    Solved, Stepped, clash, is_unifier, mgu, mgu_goal,
    unify_step,
)

X, Y, Z = Var("x"), Var("y"), Var("z")
C, D, S = Cons("C"), Cons("D"), Cons("S")
ID1 = AbsLoc(1, "x", singleton(X))
ID2 = AbsLoc(2, "x", singleton(X))


def cons(name, *args):
    return make_spine(Cons(name), list(args))


def test_goal_requires_values():
    with pytest.raises(NotAGoalError):
        Goal(App(X, C), C)


def test_problem_dedups_up_to_alpha():
    p = Problem([Goal(ID1, X), Goal(AbsLoc(1, "y", singleton(Y)), X)])
    assert len(p) == 1


def test_only_a_problem_of_two_or_more_goals_is_keyed(monkeypatch):
    # one goal cannot be a duplicate, so it costs no term_key walk
    keyed = []
    monkeypatch.setattr(unify, "term_key",
                        lambda x: keyed.append(x) or term_key(x))
    goal = Goal(cons("S", X), ID1)
    assert Problem([goal]).goals == (goal,)
    assert Problem(iter([goal])).goals == (goal,)
    assert Problem().goals == ()
    assert keyed == []
    assert Problem([goal, goal]).goals == (goal,)
    assert len(keyed) == 4


def test_clash_cases():
    assert clash(C, D) == CONSTRUCTOR_CLASH
    assert clash(cons("C", X), cons("C", X, Y)) == ARITY_CLASH
    assert clash(C, ID1) == TYPE_CLASH
    assert clash(ID1, cons("C", X)) == TYPE_CLASH
    assert clash(ID1, ID2) == LOCATION_CLASH
    assert clash(ID1, ID1) is None
    assert clash(cons("C", X), cons("C", D)) is None
    assert clash(X, C) is None


def test_step_delete():
    out = unify_step(Problem([Goal(X, X)]))
    assert isinstance(out, Stepped) and out.rule == "u-delete"
    assert len(out.problem) == 0


def test_step_orient():
    out = unify_step(Problem([Goal(C, X)]))
    assert isinstance(out, Stepped) and out.rule == "u-orient"
    assert out.problem.goals == (Goal(X, C),)


def test_step_match_lam():
    out = unify_step(Problem([Goal(ID1, AbsLoc(1, "y", singleton(Y)))]))
    assert isinstance(out, Stepped) and out.rule == "u-match-lam"
    assert len(out.problem) == 0


def test_step_match_lam_incoherent_raises():
    incoherent = Problem([Goal(ID1, AbsLoc(1, "y", singleton(C)))])
    for step in (unify_step, unify_step_oracle):
        with pytest.raises(CoherenceError):
            step(incoherent)


def test_step_match_cons_decomposes():
    out = unify_step(Problem([Goal(cons("P", X, C), cons("P", D, Y))]))
    assert isinstance(out, Stepped) and out.rule == "u-match-cons"
    assert out.problem.goals == (Goal(X, D), Goal(C, Y))


def test_step_eliminate_substitutes_rest():
    out = unify_step(Problem([Goal(X, C), Goal(Y, cons("S", X))]))
    assert isinstance(out, Stepped) and out.rule == "u-eliminate"
    assert out.problem.goals == (Goal(X, C), Goal(Y, cons("S", C)))


def test_step_occurs_check():
    out = unify_step(Problem([Goal(X, cons("S", X))]))
    assert isinstance(out, Failed) and out.reason == OCCURS_CHECK


def test_step_clash():
    out = unify_step(Problem([Goal(cons("C", X), cons("D", X))]))
    assert isinstance(out, Failed) and out.reason == CONSTRUCTOR_CLASH


def test_solved_form_is_normal():
    assert unify_step(Problem([Goal(X, C)])) is None


def test_mgu_simple():
    out = mgu_goal(cons("P", X, D), cons("P", C, Y))
    assert isinstance(out, Solved)
    assert subst_equal(out.substitution, Substitution({"x": C, "y": D}))


def test_mgu_chained():
    # x = S y, y = C  =>  x = S C
    out = mgu(Problem([Goal(X, cons("S", Y)), Goal(Y, C)]))
    assert isinstance(out, Solved)
    assert out.substitution("x") == cons("S", C)
    assert out.substitution("y") == C


def test_mgu_shared_variable():
    out = mgu(Problem([Goal(X, Y), Goal(X, C)]))
    assert isinstance(out, Solved)
    assert out.substitution("x") == C
    assert out.substitution("y") == C


def test_mgu_failures():
    assert isinstance(mgu_goal(C, D), Failed)
    assert isinstance(mgu_goal(X, cons("S", X)), Failed)
    out = mgu_goal(cons("P", C, X), cons("P", D, Y))
    assert isinstance(out, Failed) and out.reason == CONSTRUCTOR_CLASH


def test_location_clash_vs_same_location():
    # same location: unifiable; distinct locations: clash
    same = mgu_goal(ID1, AbsLoc(1, "y", singleton(Y)))
    assert isinstance(same, Solved) and not same.substitution
    diff = mgu_goal(ID1, ID2)
    assert isinstance(diff, Failed) and diff.reason == LOCATION_CLASH


def test_mgu_variable_to_closure():
    out = mgu_goal(X, ID1)
    assert isinstance(out, Solved)
    assert out.substitution("x") == ID1


def test_incoherent_problem_has_a_location_witness():
    bad = Problem([Goal(ID1, X), Goal(AbsLoc(1, "y", singleton(C)), Y)])
    assert coherence_witness(problem_terms(bad))[0] == "location-mismatch"


def test_is_unifier():
    g = Problem([Goal(cons("P", X, D), cons("P", C, Y))])
    assert is_unifier(Substitution({"x": C, "y": D}), g)
    assert not is_unifier(Substitution({"x": D, "y": D}), g)


# -- oracle: exhaustive search over a small ground value universe

def brute_force(problem):
    return brute_force_unifiable(problem, ground_universe(2, (ID1, ID2)))


def test_brute_force_agrees_on_small_problems():
    goals = [
        Problem([Goal(X, C)]),
        Problem([Goal(X, cons("S", Y)), Goal(Y, C)]),
        Problem([Goal(C, D)]),
        Problem([Goal(X, cons("S", X))]),
        Problem([Goal(ID1, ID2)]),
        Problem([Goal(X, ID1), Goal(X, ID2)]),
    ]
    for g in goals:
        outcome = mgu(g)
        witness = brute_force(g)
        if isinstance(outcome, Solved):
            assert witness is not None or not g.free_vars()
        else:
            assert witness is None


def _random_problems(count, seed):
    gen = Generator(GeneratorConfig(seed=seed, max_depth=3))
    out = []
    for _ in range(count):
        out.append(Problem([Goal(*gen.goal())
                            for _ in range(gen.rng.randint(1, 3))]))
    return out


def test_mgu_laws_on_random_goal_sets():
    solved = failed = 0
    for problem in _random_problems(300, seed=17):
        outcome = mgu(problem)
        if isinstance(outcome, Solved):
            solved += 1
            sigma = outcome.substitution
            assert is_unifier(sigma, problem)
            # idempotence
            assert subst_equal(sigma, compose(sigma, sigma))
            # instantiated problem plus the range stays coherent
            leftover = list(problem_terms(problem_subst(problem, sigma))) + \
                range_values(sigma)
            assert coherence_witness(leftover) is None
        else:
            failed += 1
            assert brute_force(problem) is None
    assert solved > 20 and failed > 20


def test_records_match_the_dataclass_mirror_on_criterion_6():
    # criterion 6's goal sets: each problem's goals, every step with the
    # goals it leaves, and the outcome of mgu and of the last step, which
    # for a failure is an equal record built separately
    gen = Generator(GeneratorConfig(seed=13, max_depth=3,
                                    variables=("x", "y")))
    kinds = set()
    unequal = 0
    for _ in range(1000):
        problem = Problem([Goal(*gen.goal())
                           for _ in range(gen.rng.randint(1, 3))])
        records = [*problem, mgu(problem)]
        result = unify_step(problem)
        while isinstance(result, Stepped):
            records += [result, *result.problem]
            result = unify_step(result.problem)
        if result is not None:
            records.append(result)
        kinds.update(type(r) for r in records)
        unequal += assert_records_match_the_mirror(
            records, itertools.combinations(range(len(records)), 2))
    assert kinds == {Goal, Stepped, Failed, Solved} and unequal > 15_000


def test_substitutions_and_problems_compare_by_value():
    assert mgu_goal(X, C) == mgu_goal(X, C)
    assert hash(mgu_goal(X, C)) == hash(mgu_goal(X, C))
    assert mgu_goal(X, C) != mgu_goal(X, D)
    # the map's order is not part of the value
    xy = Substitution({"x": C, "y": D})
    assert xy == Substitution({"y": D, "x": C}) and hash(xy) == hash(
        Substitution({"y": D, "x": C}))
    assert xy != Substitution({"x": C}) and Substitution() == Substitution({"x": X})
    # a problem's goals are in order
    xc, yd = Goal(X, C), Goal(Y, D)
    assert Problem([xc, yd]) == Problem([Goal(X, C), Goal(Y, D)])
    assert hash(Problem([xc, yd])) == hash(Problem([Goal(X, C), Goal(Y, D)]))
    assert Problem([xc, yd]) != Problem([yd, xc])
    assert Stepped(Problem([xc]), "u-orient") == Stepped(Problem([xc]), "u-orient")
    assert Substitution() != Problem() and Problem() != ()


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_mgu_deterministic(seed):
    problems = _random_problems(3, seed)
    for problem in problems:
        a = mgu(problem)
        b = mgu(problem)
        assert a == b and hash(a) == hash(b)
        if isinstance(a, Solved):
            assert subst_equal(a.substitution, b.substitution)


# -- the one-pass step against the two-phase oracle (rule name, then dispatch)

def _step_to_end(step, problem):
    """Every result of step from problem until a Failed or the solved
    form (None), and the mgu outcome read off the last problem."""
    results = []
    while True:
        result = step(problem)
        results.append(result)
        if isinstance(result, Failed):
            return results, result
        if result is None:
            return results, {g.lhs.name: g.rhs for g in problem}
        problem = result.problem


def test_one_pass_step_matches_two_phase_oracle():
    rules = set()
    for seed, depth in ((1, 3), (2, 4), (3, 2)):
        gen = Generator(GeneratorConfig(seed=seed, max_depth=depth))
        for _ in range(3000):
            problem = Problem([Goal(*gen.goal())
                               for _ in range(gen.rng.randint(1, 4))])
            got, outcome = _step_to_end(unify_step, problem)
            want, expected = _step_to_end(unify_step_oracle, problem)
            assert len(got) == len(want), problem
            for a, b in zip(got, want):
                assert type(a) is type(b), problem
                if isinstance(a, Stepped):
                    assert (a.rule, a.problem.goals) == (b.rule, b.problem.goals)
                    rules.add(a.rule)
                elif isinstance(a, Failed):
                    assert (a.reason, a.goal) == (b.reason, b.goal)
                    rules.add(a.reason)
            assert outcome == expected, problem
            solved = mgu(problem)
            if isinstance(solved, Solved):
                assert dict(solved.substitution.items()) == expected, problem
            else:
                assert solved == expected, problem
    # every rule fires; an arity clash needs a constructor used at two
    # arities, which the generator never builds
    assert rules == {"u-delete", "u-orient", "u-match-lam", "u-match-cons",
                     "u-eliminate", OCCURS_CHECK, CONSTRUCTOR_CLASH,
                     TYPE_CLASH, LOCATION_CLASH}
