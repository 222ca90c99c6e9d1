"""Tests for the unification engine: single rules, mgu outcomes, clash
detection, and the unifier laws on random goal sets; goals, steps and
outcomes compare, hash and print as the dataclasses they were."""

import itertools

import pytest

from helpers import (
    Stepped, assert_records_keep_the_rules, brute_force_unifiable, compose,
    criterion_6_problems, ground_universe, mgu_oracle, problem_free_vars,
    problem_subst, problem_terms, range_values, subst_equal, unify_step,
)
from lamu import unify
from lamu.generator import Generator, GeneratorConfig
from lamu.syntax import (
    AbsLoc, App, CoherenceError, Cons, NotAValueError, Substitution, Var,
    alpha_eq, coherence_witness, make_spine, singleton, term_key,
)
from lamu.unify import (
    ARITY_CLASH, CONSTRUCTOR_CLASH, LOCATION_CLASH,
    OCCURS_CHECK, TYPE_CLASH, Failed, Goal, Problem,
    Solved, clash, is_unifier, mgu, mgu_goal,
)

X, Y, Z = Var("x"), Var("y"), Var("z")
C, D, S = Cons("C"), Cons("D"), Cons("S")
ID1 = AbsLoc(1, "x", singleton(X))
ID2 = AbsLoc(2, "x", singleton(X))


def cons(name, *args):
    return make_spine(Cons(name), list(args))


def test_goal_requires_values():
    with pytest.raises(NotAValueError):
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


def test_goals_on_closures_at_distinct_locations_are_not_keyed(monkeypatch):
    # a closure's head is its location, so goals on closures at two
    # locations cannot be alpha-duplicates: no term_key walk finds that
    keyed = []
    monkeypatch.setattr(unify, "term_key",
                        lambda x: keyed.append(x) or term_key(x))
    problem = Problem([Goal(X, ID1), Goal(X, ID2)])
    assert len(problem) == 2 and keyed == []
    assert mgu(problem) == Failed(LOCATION_CLASH, Goal(ID1, ID2))
    assert keyed == []


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
    for step in (unify_step, mgu):
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
            assert witness is not None or not problem_free_vars(g)
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
    kinds = set()
    unequal = 0
    for problem in criterion_6_problems():
        records = [*problem, mgu(problem)]
        result = unify_step(problem)
        while isinstance(result, Stepped):
            records += [result, *result.problem]
            result = unify_step(result.problem)
        if result is not None:
            records.append(result)
        kinds.update(type(r) for r in records)
        unequal += assert_records_keep_the_rules(
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


def test_mgu_deterministic():
    # three goal sets from each seed 0..39
    problems = [problem for seed in range(40)
                for problem in _random_problems(3, seed)]
    assert len(problems) == 120
    for problem in problems:
        a = mgu(problem)
        b = mgu(problem)
        assert a == b and hash(a) == hash(b)
        if isinstance(a, Solved):
            assert subst_equal(a.substitution, b.substitution)


# -- the one-pass mgu against the rule-by-rule step

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
            steps, expected = _step_to_end(unify_step, problem)
            rules.update(s.rule if isinstance(s, Stepped) else s.reason
                         for s in steps if s is not None)
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


# -- mgu against mgu_oracle, which iterates the rule-by-rule unify_step

def test_mgu_matches_the_oracle_on_criterion_6():
    outcomes = [mgu(problem) for problem in criterion_6_problems()]
    assert outcomes == [mgu_oracle(problem)
                        for problem in criterion_6_problems()]
    assert {type(o) for o in outcomes} == {Solved, Failed}


def test_mgu_goal_is_mgu_of_its_one_goal_on_criterion_6():
    # every goal of criterion 6's problems, witnesses included: a
    # failure's witness is a Goal that mgu_goal builds on failure
    goals = [g for problem in criterion_6_problems() for g in problem]
    outcomes = [mgu_goal(g.lhs, g.rhs) for g in goals]
    assert outcomes == [mgu(Problem([g])) for g in goals]
    failed = [o for o in outcomes if isinstance(o, Failed)]
    assert len(failed) > 100 and all(type(o.goal) is Goal for o in failed)
    assert len(outcomes) - len(failed) > 100
    with pytest.raises(NotAValueError):
        mgu_goal(App(X, C), C)


def test_mgu_matches_the_oracle_on_random_problems():
    # the whole outcome: a substitution, or a reason and its goal
    kinds = set()
    for seed in (1, 2, 3):
        gen = Generator(GeneratorConfig(seed=seed, max_depth=3,
                                        variables=("x", "y", "z")))
        for _ in range(5000):
            problem = Problem([Goal(*gen.goal())
                               for _ in range(gen.rng.randint(1, 5))])
            outcome = mgu(problem)
            assert outcome == mgu_oracle(problem), problem
            kinds.add(outcome.reason if isinstance(outcome, Failed)
                      else len(outcome.substitution.items()))
    assert kinds >= {OCCURS_CHECK, CONSTRUCTOR_CLASH, TYPE_CLASH,
                     LOCATION_CLASH, 0, 1, 2, 3}


def test_mgu_raises_the_oracles_coherence_error():
    # two closures at one location with distinct bodies, met at once and
    # after an eliminate step made them so
    for problem in (
            Problem([Goal(ID1, AbsLoc(1, "y", singleton(C)))]),
            Problem([Goal(X, C), Goal(ID1, AbsLoc(1, "y", singleton(X)))])):
        errors = []
        for solve in (mgu, mgu_oracle):
            with pytest.raises(CoherenceError) as info:
                solve(problem)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


def test_mgu_keys_goals_only_where_their_heads_collide(monkeypatch):
    # alpha-equal goals have equal heads (a variable's or constructor's
    # name, a closure's location), so only a collision costs term_key
    # walks; a step that creates no goal (delete, match-lam, a nullary
    # match-cons) has nothing to look for
    id1b = AbsLoc(1, "y", singleton(Y))
    pair = Goal(cons("S", X), cons("S", C)), Goal(cons("S", Y), cons("S", D))
    one_goal = [Problem([g]) for g in (
        Goal(X, cons("S", Y)), Goal(C, X), Goal(ID1, id1b), pair[0],
        Goal(C, C), Goal(C, D), Goal(X, cons("S", X)))]
    # after the first step the two goals' heads collide
    dropping = [Problem([first, *pair]) for first in (
        Goal(X, X), Goal(ID1, id1b), Goal(D, D))]
    duplicate = Problem([Goal(cons("P", cons("S", X), cons("S", X)),
                              cons("P", cons("S", C), cons("S", C)))])
    keyed = []
    monkeypatch.setattr(unify, "term_key",
                        lambda x: keyed.append(x) or term_key(x))
    for problem in one_goal + dropping:
        mgu(problem)
    assert Problem([Goal(X, C), Goal(Y, C), Goal(ID1, X)]).goals
    assert keyed == []
    # match-cons makes S x = S C twice: a collision, keyed and collapsed
    assert mgu(duplicate) == Solved(Substitution({"x": C}))
    assert len(keyed) == 4
    # equal sides, the common case, are not keyed by is_unifier either
    compared = []
    monkeypatch.setattr(unify, "alpha_eq",
                        lambda a, b: compared.append(a) or alpha_eq(a, b))
    sigma = Substitution({"x": C, "y": D})
    assert is_unifier(sigma, Problem([Goal(X, C), *pair]))
    assert compared == []
    assert is_unifier(Substitution(), Problem([Goal(ID1, id1b)]))
    assert len(compared) == 1
