"""Tests for the core AST: values, substitution, alpha equivalence,
weak contexts, coherence, name supplies, and node equality.  The sharing
substitution is checked against the rebuilding one, free_vars against
the recursive definition, and ==, !=, hash and repr against the rules
stated over the fields, which the frozen dataclasses that terms and
programs were kept, also on terms too deep to recurse over."""

import itertools
import random

import pytest

from helpers import (
    CRITERION_8_DRAWS, HOLE, all_names, coherence_witness_oracle, coherent,
    compose, criterion_4_programs, criterion_8_draws, draw_value,
    free_vars_oracle, is_structure, is_weak_context, locations, plug,
    plug_term, rebuild, rule_key, rule_repr, small_values, subst_apply_oracle,
    subst_equal, subst_loc, subst_single_oracle, support,
)
from lamu.concrete import parse_program
from lamu.generator import Generator, GeneratorConfig
from lamu.reduction import evaluate
from lamu.syntax import (
    FAIL, OK, Abs, AbsLoc, App, CoherenceError, Cons, Fresh, Guard,
    NotAValueError, Program, Session, Substitution, Unif, Var,
    alpha_eq, check_coherent, coherence_witness,
    free_vars, make_spine,
    singleton, spine, subst_apply, subst_single, subterms,
)

X, Y, Z = Var("x"), Var("y"), Var("z")
C, D = Cons("C"), Cons("D")
ID1 = AbsLoc(1, "x", singleton(X))
ID2 = AbsLoc(2, "x", singleton(X))


def test_values():
    assert X.value
    assert C.value
    assert App(C, D).value
    assert App(App(Cons("P"), X), ID1).value
    assert ID1.value
    assert not Abs("x", singleton(X)).value
    assert not App(X, C).value
    assert not App(C, App(X, C)).value
    assert not Unif(C, C).value
    assert not Fresh("x", X).value


def test_structures():
    assert is_structure(C)
    assert is_structure(App(C, D))
    assert not is_structure(X)
    assert not is_structure(ID1)


def test_spine_roundtrip():
    t = App(App(C, X), App(D, Y))
    head, args = spine(t)
    assert head == C
    assert args == [X, App(D, Y)]
    assert make_spine(head, args) == t


def test_program_basics():
    assert FAIL.is_fail
    assert len(Program((X, Y))) == 2
    assert list(singleton(X)) == [X]


def test_free_vars():
    assert free_vars(App(X, Y)) == {"x", "y"}
    assert free_vars(Abs("x", singleton(App(X, Y)))) == {"y"}
    assert free_vars(Fresh("x", Unif(X, Y))) == {"y"}
    assert free_vars(Program((X, Y))) == {"x", "y"}
    assert free_vars(ID1) == frozenset()
    # a binder binds its variable in its body only, and a shadowing
    # binder ends no outer binding
    assert free_vars(App(Abs("x", singleton(X)), X)) == {"x"}
    assert free_vars(Abs("x", Program((Abs("x", singleton(X)), X, Y)))) == {"y"}


def test_free_vars_of_a_deep_value_returns():
    # S (S (... x)) 10 000 levels deep: a recursive walk raises
    # RecursionError
    t = X
    for _ in range(10_000):
        t = App(Cons("S"), t)
    assert free_vars(t) == {"x"}
    assert free_vars(Abs("y", singleton(App(t, Y)))) == {"x"}


def test_free_vars_matches_the_recursive_walk():
    for p in generated_programs():
        for t in itertools.chain((p,), subterms(p)):
            assert free_vars(t) == free_vars_oracle(t)


def test_locations_and_names():
    t = App(ID1, AbsLoc(5, "y", singleton(Y)))
    assert locations(t) == {1, 5}
    assert all_names(Fresh("w", App(X, C))) == {"w", "x"}


def test_substitution_rejects_non_values():
    with pytest.raises(NotAValueError):
        Substitution({"x": Unif(C, C)})
    with pytest.raises(NotAValueError):
        subst_single(X, "x", Abs("y", singleton(Y)))
    # a constructor applied to a non-value, in a term without x
    with pytest.raises(NotAValueError):
        subst_single(C, "x", App(C, Abs("y", singleton(Y))))


def test_substitution_drops_identity():
    s = Substitution({"x": Var("x"), "y": C})
    assert support(s) == {"y"}
    assert s("x") == X


def test_subst_basic():
    assert subst_single(App(X, Y), "x", C) == App(C, Y)
    assert subst_single(Guard(X, X), "x", C) == Guard(C, C)
    # bound occurrences are untouched
    assert subst_single(Abs("x", singleton(X)), "x", C) == Abs("x", singleton(X))


def test_subst_capture_avoidance():
    # [y := x] must not capture under \x
    t = Abs("x", singleton(App(X, Y)))
    out = subst_single(t, "y", X)
    assert isinstance(out, Abs)
    assert out.var != "x"
    assert free_vars(out) == {"x"}
    assert alpha_eq(out, Abs("w", singleton(App(Var("w"), X))))
    # x' occurs free in the body, so the binder takes the next prime
    x1, x2 = Var("x'"), Var("x''")
    out = subst_single(Abs("x", singleton(App(Y, App(X, x1)))), "y", X)
    assert out == Abs("x''", singleton(App(X, App(x2, x1))))


def test_subst_capture_avoidance_fresh():
    t = Fresh("x", Unif(X, Y))
    out = subst_single(t, "y", X)
    assert out.var != "x"
    assert free_vars(out) == {"x"}
    x1, x2 = Var("x'"), Var("x''")
    out = subst_single(Fresh("x", App(Y, App(X, x1))), "y", X)
    assert out == Fresh("x''", App(X, App(x2, x1)))


def test_subst_simultaneous():
    sigma = Substitution({"x": Y, "y": X})
    assert subst_apply(App(X, Y), sigma) == App(Y, X)


def test_subst_compose():
    rho = Substitution({"x": App(C, Y)})
    sigma = Substitution({"y": D})
    composed = compose(rho, sigma)
    assert composed("x") == App(C, D)
    assert composed("y") == D
    for t in (X, Y, App(X, Y)):
        assert subst_apply(subst_apply(t, rho), sigma) == subst_apply(t, composed)


def test_subst_loc():
    assert subst_loc(ID1, 1, 7) == AbsLoc(7, "x", singleton(X))
    assert subst_loc(ID1, 3, 7) == ID1


def test_alpha_eq():
    assert alpha_eq(Abs("x", singleton(X)), Abs("y", singleton(Y)))
    assert alpha_eq(ID1, AbsLoc(1, "y", singleton(Y)))
    assert not alpha_eq(ID1, ID2)
    assert not alpha_eq(Abs("x", singleton(X)), Abs("x", singleton(C)))
    assert alpha_eq(Fresh("x", X), Fresh("z", Z))
    # free variables are not renamed
    assert not alpha_eq(X, Y)


def test_weak_contexts():
    w = App(HOLE, C)
    assert is_weak_context(w)
    assert not is_weak_context(C)
    assert not is_weak_context(App(HOLE, HOLE))
    # holes never go under binders
    assert not is_weak_context(Abs("x", singleton(HOLE)))
    assert plug_term(w, X) == App(X, C)


def test_plug_program_distributes():
    w = Guard(HOLE, C)
    p = Program((X, Y))
    assert plug(w, p) == Program((Guard(X, C), Guard(Y, C)))
    assert plug(w, FAIL).is_fail


def test_coherence_captured_variable():
    # an allocated body mentioning a context-bound variable
    bad = Abs("y", singleton(AbsLoc(1, "x", singleton(Y))))
    w = coherence_witness([bad])
    assert w is not None and w[0] == "captured-variable"
    assert not coherent(bad)


def test_coherence_location_mismatch():
    bad = App(ID1, AbsLoc(1, "x", singleton(C)))
    w = coherence_witness([bad])
    assert w is not None and w[0] == "location-mismatch"
    with pytest.raises(CoherenceError):
        check_coherent(singleton(bad))


def test_coherence_good_cases():
    assert coherent(App(ID1, ID1))
    assert coherent(App(ID1, ID2))
    # distinct threads may disagree on a location
    check_coherent(Program((ID1, AbsLoc(1, "x", singleton(C)))))


def test_a_program_is_coherent_thread_by_thread_and_terms_jointly():
    # threads never interact, so check_coherent and evaluate accept two
    # threads that give L1 different closures; coherence_witness judges
    # its terms jointly, as criterion 6 judges a unification problem
    p = parse_program(r"(\x@L1. x) | (\y@L1. C)")
    assert coherence_witness(p.threads) == (
        "location-mismatch", 1, ID1, AbsLoc(1, "y", singleton(C)))
    check_coherent(p)
    result = evaluate(p)
    assert result.normal and result.program == p


def _replace_closure(t, k, change):
    """t with its k-th closure in pre-order replaced by change(closure)."""
    seen = itertools.count()

    def walk(t):
        if isinstance(t, AbsLoc) and next(seen) == k:
            return change(t)
        if isinstance(t, (Abs, AbsLoc)):
            body = Program(tuple(map(walk, t.body)))
            return (Abs(t.var, body) if isinstance(t, Abs)
                    else AbsLoc(t.loc, t.var, body))
        if isinstance(t, Fresh):
            return Fresh(t.var, walk(t.body))
        if isinstance(t, App):
            return App(walk(t.fn), walk(t.arg))
        if isinstance(t, (Guard, Unif)):
            return type(t)(walk(t.left), walk(t.right))
        return t
    return walk(t)


def test_coherence_witness_matches_the_recursive_walk():
    # generated programs are coherent; each mutant breaks one closure:
    # it gains the free variable y, which a binder above it may capture,
    # or a second closure at a used location gets another body
    kinds = []
    for seed in range(6):
        gen = Generator(GeneratorConfig(seed=seed, allow_absloc=True))
        for p in itertools.islice(gen.programs(), 300):
            cases = [p.threads, *((t,) for t in p)]
            for t in p:
                closures = sum(isinstance(s, AbsLoc) for s in subterms(t))
                for k in range(closures):
                    free_y = _replace_closure(t, k, lambda c: AbsLoc(
                        c.loc, c.var, Program(c.body.threads + (Y,))))
                    cases += [(free_y,), (Fresh("y", free_y),)]
                for loc in locations(t):
                    other = AbsLoc(loc, "x", singleton(D))
                    cases += [(App(t, other),), (Guard(other, t),)]
            for terms in cases:
                witness = coherence_witness(terms)
                assert witness == coherence_witness_oracle(terms), terms
                kinds.append(witness and witness[0])
    count = {kind: kinds.count(kind) for kind in set(kinds)}
    assert count[None] > 3000
    assert count["captured-variable"] > 500
    assert count["location-mismatch"] > 1000


def test_subst_equal():
    a = Substitution({"x": ID1})
    b = Substitution({"x": AbsLoc(1, "y", singleton(Y))})
    assert subst_equal(a, b)
    assert not subst_equal(a, Substitution({"x": ID2}))


def test_session_avoids_existing_names():
    p = Program((Var("v0"), ID1))
    s = check_coherent(p)
    assert s.fresh_var() == "v1"
    assert s.fresh_loc() == 2
    assert s.fresh_loc() == 3


def _supply(session):
    """The first six names and locations the session issues."""
    return ([session.fresh_var() for _ in range(6)],
            [session.fresh_loc() for _ in range(6)])


def _with_clashing_location(p):
    """p with the closure \\x. D at the least location of its last thread
    that holds one, applied to that thread: a clash unless the closure
    there is \\x. D too.  p itself if no thread holds a location."""
    for i in range(len(p) - 1, -1, -1):
        locs = locations(p[i])
        if locs:
            t = App(p[i], AbsLoc(min(locs), "x", singleton(D)))
            return Program(p.threads[:i] + (t,) + p.threads[i + 1:])
    return p


def test_session_for_program_issues_what_its_names_and_locations_say():
    # one walk collects both; a program whose only location is negative
    # issues locations from just above it.  A copy of each generated
    # program with a clashing location raises what the recursive
    # coherence walk finds in its first incoherent thread.
    only_negative = singleton(App(AbsLoc(-3, "v1", singleton(Var("v1"))),
                                  Var("v0")))
    generated = list(itertools.islice(generated_programs(), 200))
    programs = [FAIL, Program((Var("v0"), ID1)), only_negative, *generated]
    programs += map(_with_clashing_location, generated)
    raised = 0
    for p in programs:
        witnesses = [(i, coherence_witness_oracle((t,)))
                     for i, t in enumerate(p)]
        bad = [(i, w) for i, w in witnesses if w is not None]
        if bad:
            i, witness = bad[0]
            with pytest.raises(CoherenceError) as info:
                check_coherent(p)
            assert str(info.value) == (
                f"thread {i} violates coherence: {witness[0]}"), p
            assert info.value.witness == witness, p
            raised += 1
            continue
        locs = locations(p)
        first = max(locs) + 1 if locs else 1
        assert _supply(check_coherent(p)) == _supply(
            Session(avoid=all_names(p), first_loc=first)), p
    assert _supply(check_coherent(only_negative)) == (
        ["v2", "v3", "v4", "v5", "v6", "v7"], [-2, -1, 0, 1, 2, 3])
    assert raised > 50


# -- property tests

def test_subst_preserves_valueness():
    # every pair of values of up to 2 leaves, and 100 drawn of up to 6
    rng = random.Random(5)
    pairs = list(itertools.product(small_values(2), repeat=2))
    pairs += [(draw_value(rng), draw_value(rng)) for _ in range(100)]
    assert len(pairs) == 3_125
    for v, w in pairs:
        assert subst_single(v, "x", w).value, (v, w)


def test_subst_composition_law():
    # every t and v of up to 2 leaves with every one-leaf w, and 100
    # triples drawn of up to 6
    rng = random.Random(6)
    triples = list(itertools.product(small_values(2), small_values(2),
                                     small_values(1)))
    triples += [(draw_value(rng), draw_value(rng), draw_value(rng))
                for _ in range(100)]
    assert len(triples) == 15_225
    for t, v, w in triples:
        rho = Substitution({"x": v})
        sigma = Substitution({"y": w})
        assert subst_apply(subst_apply(t, rho), sigma) == \
            subst_apply(t, compose(rho, sigma)), (t, v, w)


# -- the sharing substitution against the rebuilding one

def generated_programs():
    """300 depth-4 generator programs for each seed 0..5."""
    for seed in range(6):
        gen = Generator(GeneratorConfig(seed=seed, max_depth=4))
        yield from itertools.islice(gen.programs(), 300)


def test_substitution_matches_the_rebuilding_oracle():
    # generated values hold the generator's binder names free, so some
    # substitutions rename a binder; == compares binder names, so a
    # renamed binder must get the very name the oracle picks
    gen = Generator(GeneratorConfig(seed=99, max_depth=2))
    renamed = 0
    for p in generated_programs():
        v, w = gen.value(), gen.value()
        for name in ("x", "y", "z"):
            out = subst_single(p, name, v)
            assert out == subst_single_oracle(p, name, v)
            if any(n.endswith("'") for n in all_names(out)):
                renamed += 1
        for t in p:
            assert subst_single(t, "x", w) == subst_single_oracle(t, "x", w)
        sigma = Substitution({"x": w, "y": v, "z": Y})
        assert subst_apply(p, sigma) == subst_apply_oracle(p, sigma)
    assert renamed > 500


def test_substitution_shares_what_it_does_not_change():
    t = Program((App(App(Cons("P"), X), App(Cons("S"), C)),
                 Abs("x", singleton(App(X, Y))), Fresh("y", Unif(Y, D))))
    # a name that occurs nowhere free leaves the input as it was
    assert subst_single(t, "w", C) is t
    assert subst_apply(t, Substitution({"w": C, "v": D})) is t
    # only the nodes above an occurrence are new
    out = subst_single(t, "x", D)
    assert out.threads[0].arg is t.threads[0].arg
    assert out.threads[0].fn.fn is t.threads[0].fn.fn
    assert out.threads[1] is t.threads[1] and out.threads[2] is t.threads[2]
    out = subst_single(t, "y", D)
    assert out.threads[0] is t.threads[0] and out.threads[2] is t.threads[2]
    assert out.threads[1].body.threads[0].fn is t.threads[1].body.threads[0].fn


def _assert_equality_matches_the_mirror(nodes, pairs):
    """repr of every node, and ==, != and the hash of an equal pair for
    each (i, j) in pairs, as the rules that the nodes' dataclass mirrors
    kept have them.  Returns how many of the pairs are unequal."""
    keys = [rule_key(x) for x in nodes]
    hashes = [hash(x) for x in nodes]
    for x in nodes:
        assert repr(x) == rule_repr(x)
    unequal = 0
    for i, j in pairs:
        equal = keys[i] == keys[j]
        assert (nodes[i] == nodes[j]) is equal, (nodes[i], nodes[j])
        assert (nodes[i] != nodes[j]) is not equal
        assert not equal or hashes[i] == hashes[j]
        unequal += not equal
    return unequal


def test_equality_matches_the_dataclass_mirror_on_criterion_4():
    # every pair of one program's subterms, and each subterm against
    # its copy built separately
    unequal = 0
    for p in criterion_4_programs(500):
        nodes = [p, *subterms(p)]
        copies = [q := rebuild(p), *subterms(q)]
        n = len(nodes)
        unequal += _assert_equality_matches_the_mirror(
            nodes + copies,
            [*itertools.combinations_with_replacement(range(n), 2),
             *((i, n + i) for i in range(n))])
    assert unequal > 100_000


def test_equality_matches_the_dataclass_mirror_on_criterion_8():
    # every pair among one program's subterms and those of its
    # infer-annotated copy, which equals it but for ann
    annotated = 0
    for p, typing, _ in itertools.islice(criterion_8_draws(),
                                         CRITERION_8_DRAWS):
        q = typing.node
        nodes = [p, *subterms(p), q, *subterms(q)]
        _assert_equality_matches_the_mirror(
            nodes, itertools.combinations_with_replacement(
                range(len(nodes)), 2))
        assert p == q and hash(p) == hash(q)
        annotated += any(getattr(t, "ann", None) is not None
                         for t in subterms(q))
    assert annotated > 50


def _tower(depth, bottom):
    t = Cons(bottom)
    for _ in range(depth):
        t = App(Cons("S"), t)
    return t


def _chain(depth):
    t = Cons(OK)
    for _ in range(depth):
        t = Guard(Cons(OK), t)
    return t


def test_towers_too_deep_to_recurse_over_compare_and_hash():
    for a, b in ((_tower(3000, "C"), _tower(3000, "C")),
                 (singleton(_chain(3000)), singleton(_chain(3000)))):
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)
    assert _tower(3000, "C") != _tower(3000, "D")
    assert not _tower(3000, "C") == _tower(3000, "D")
    assert repr(_tower(3000, "C")) == (
        "App(fn=Cons(name='S'), arg=" * 3000 + "Cons(name='C')" + ")" * 3000)
    assert repr(singleton(_chain(3000))) == (
        "Program(threads=("
        + "Guard(left=Cons(name='Ok'), right=" * 3000 + "Cons(name='Ok')"
        + ")" * 3000 + ",))")
