"""Tests for the core AST: values, substitution, alpha equivalence,
weak contexts, coherence, and name supplies."""

import pytest
from hypothesis import given, strategies as st

from helpers import (
    HOLE, coherent, compose, is_structure, is_weak_context, plug, plug_term,
    subst_equal, subst_loc, support,
)
from lamu.syntax import (
    FAIL, Abs, AbsLoc, App, CoherenceError, Cons, Fresh, Guard,
    NotAValueError, Program, Session, Substitution, Unif, Var, all_names,
    alpha_eq, check_coherent, coherence_witness,
    free_vars, is_value, locations, make_spine, singleton,
    spine, subst_apply, subst_single,
)

X, Y, Z = Var("x"), Var("y"), Var("z")
C, D = Cons("C"), Cons("D")
ID1 = AbsLoc(1, "x", singleton(X))
ID2 = AbsLoc(2, "x", singleton(X))


def test_values():
    assert is_value(X)
    assert is_value(C)
    assert is_value(App(C, D))
    assert is_value(App(App(Cons("P"), X), ID1))
    assert is_value(ID1)
    assert not is_value(Abs("x", singleton(X)))
    assert not is_value(App(X, C))
    assert not is_value(App(C, App(X, C)))
    assert not is_value(Unif(C, C))
    assert not is_value(Fresh("x", X))


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
    assert len(singleton(X) + singleton(Y)) == 2
    assert list(singleton(X)) == [X]


def test_free_vars():
    assert free_vars(App(X, Y)) == {"x", "y"}
    assert free_vars(Abs("x", singleton(App(X, Y)))) == {"y"}
    assert free_vars(Fresh("x", Unif(X, Y))) == {"y"}
    assert free_vars(Program((X, Y))) == {"x", "y"}
    assert free_vars(ID1) == frozenset()


def test_locations_and_names():
    t = App(ID1, AbsLoc(5, "y", singleton(Y)))
    assert locations(t) == {1, 5}
    assert all_names(Fresh("w", App(X, C))) == {"w", "x"}


def test_substitution_rejects_non_values():
    with pytest.raises(NotAValueError):
        Substitution({"x": Unif(C, C)})
    with pytest.raises(NotAValueError):
        subst_single(X, "x", Abs("y", singleton(Y)))


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


def test_subst_capture_avoidance_fresh():
    t = Fresh("x", Unif(X, Y))
    out = subst_single(t, "y", X)
    assert out.var != "x"
    assert free_vars(out) == {"x"}


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


def test_subst_equal():
    a = Substitution({"x": ID1})
    b = Substitution({"x": AbsLoc(1, "y", singleton(Y))})
    assert subst_equal(a, b)
    assert not subst_equal(a, Substitution({"x": ID2}))


def test_session_avoids_existing_names():
    p = Program((Var("v0"), ID1))
    s = Session.for_program(p)
    assert s.fresh_var() == "v1"
    assert s.fresh_loc() == 2
    assert s.fresh_loc() == 3


# -- property tests

values = st.recursive(
    st.sampled_from([X, Y, C, D, ID1]),
    lambda inner: st.tuples(st.sampled_from([C, D]), inner, inner).map(
        lambda triple: App(App(triple[0], triple[1]), triple[2])),
    max_leaves=6)


@given(values, values)
def test_subst_preserves_valueness(v, w):
    assert is_value(subst_single(v, "x", w))


@given(values, values, values)
def test_subst_composition_law(t, v, w):
    rho = Substitution({"x": v})
    sigma = Substitution({"y": w})
    assert subst_apply(subst_apply(t, rho), sigma) == \
        subst_apply(t, compose(rho, sigma))
