"""Tests for the concrete syntax: parsing, pretty-printing, round
trips, declarations, and the type-inference translation."""

import pytest
from hypothesis import given, settings, strategies as st

from lamu.concrete import (
    ParseError, hm_translate, parse_file, parse_program, parse_term,
    pretty_program, pretty_term,
)
from lamu.equiv import struct_equiv
from lamu.generator import Generator, GeneratorConfig
from lamu.reduction import evaluate
from lamu.syntax import (
    Abs, AbsLoc, App, Cons, Fresh, Guard, Program, Unif, Var, alpha_eq,
    singleton,
)
from lamu.typecheck import Arrow, Base

X, Y = Var("x"), Var("y")
C, D = Cons("C"), Cons("D")


def test_parse_atoms():
    assert parse_term("x") == X
    assert parse_term("C") == C
    assert parse_term("(x)") == X


def test_parse_application_left_assoc():
    assert parse_term("C x y") == App(App(C, X), Y)


def test_parse_unif_above_guard():
    assert parse_term("x =:= C ; y") == Guard(Unif(X, C), Y)


def test_parse_guard_right_assoc():
    t = parse_term("x ; y ; C")
    assert t == Guard(X, Guard(Y, C))


def test_parse_unif_non_assoc():
    with pytest.raises(ParseError):
        parse_term("x =:= y =:= C")


def test_parse_lambda_body_is_program():
    t = parse_term(r"(\x. x | C)")
    assert t == Abs("x", Program((X, C)))
    assert parse_term(r"\x. fail") == Abs("x", Program(()))


def test_parse_lambda_extends_right():
    t = parse_term(r"\x. x ; C")
    assert t == Abs("x", singleton(Guard(X, C)))


def test_parse_allocated_lambda():
    t = parse_term(r"\x@L3. x")
    assert t == AbsLoc(3, "x", singleton(X))


def test_parse_fresh():
    assert parse_term("fresh x. x =:= C") == Fresh("x", Unif(X, C))


def test_parse_fail_program():
    assert parse_program("fail").is_fail


def test_parse_alternatives():
    assert parse_program("x | C | D") == Program((X, C, D))


def test_golden_trace_program_shape():
    p = parse_program(r"(\x. x | fresh y. ((x =:= C y); y)) (C D)")
    assert len(p) == 1
    t = p.threads[0]
    assert isinstance(t, App)
    assert t.arg == App(C, D)
    assert isinstance(t.fn, Abs) and len(t.fn.body) == 2


def test_reserved_ok():
    assert parse_term("Ok") == Cons("Ok")


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_term("x =:= ")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_term("x ??")
    with pytest.raises(ParseError):
        parse_program("")


def test_comments_and_whitespace():
    assert parse_term("x  # trailing comment") == X
    assert parse_program("x |\n  # a comment line\n  C") == Program((X, C))


def test_declarations():
    src = parse_file("""
        cons C : i.
        cons P : i -> i -> pair.
        base i = 3.
        def twice = \\f. f (f C).
        twice
    """)
    assert src.signature["C"] == Base("i")
    assert src.signature["P"] == Arrow(Base("i"), Arrow(Base("i"), Base("pair")))
    assert src.base_sizes["i"] == 3
    # definitions inline at parse time
    assert isinstance(src.program.threads[0], Abs)


def test_declarations_alone_are_fail_but_nothing_is_an_error():
    assert parse_file("cons S : i -> i.\nbase i = 2.").program.is_fail
    for text in ("", "# only a comment\n"):
        with pytest.raises(ParseError):
            parse_file(text)


def test_definition_inlining_in_program():
    src = parse_file("def id = \\x. x.\nid C")
    t = src.program.threads[0]
    assert t == App(Abs("x", singleton(X)), C)


def test_a_binder_shadows_a_definition_of_its_name():
    # under \f or fresh f, f is that variable, not the definition
    F = Var("f")
    assert parse_file(r"def f = \y. y. \f. f C").program == singleton(
        Abs("f", singleton(App(F, C))))
    assert parse_file("def f = C. fresh f. f =:= D ; f").program == \
        singleton(Fresh("f", Guard(Unif(F, D), F)))
    assert parse_file(r"def f = C. (\x. f) | f").program == Program(
        (Abs("x", singleton(C)), C))


def test_a_definition_under_a_binder_of_its_free_variable_is_rejected():
    # inlining k under \x would capture k's free x
    with pytest.raises(ParseError, match="captures x in definition k at "
                                         "line 1, column 17"):
        parse_file(r"def k = x. (\x. k) C")
    with pytest.raises(ParseError, match="captures x in definition k"):
        parse_program("fresh x. k", {"k": App(C, X)})
    assert parse_file(r"def k = x. (\y. k) C").program == singleton(
        App(Abs("y", singleton(X)), C))


def test_pretty_formats():
    assert pretty_program(Program(())) == "fail"
    assert pretty_term(AbsLoc(3, "x", singleton(X))) == r"\x@L3. x"
    assert pretty_term(Guard(Unif(X, C), Y)) == "x =:= C ; y"
    assert pretty_term(App(App(C, X), Y)) == "C x y"
    assert pretty_term(App(C, App(D, X))) == "C (D x)"


def test_pretty_parenthesizes_lambda_in_app():
    t = App(Abs("x", singleton(X)), C)
    text = pretty_term(t)
    assert text == r"(\x. x) C"
    assert parse_term(text) == t


def test_round_trip_corpus():
    texts = [
        r"(\x. x | fresh y. ((x =:= C y); y)) (C D)",
        "fail",
        r"\x. fail",
        "fresh x. x =:= C y ; x | D",
        r"(\x. x) (\y. y) | C",
        r"\x@L1. x =:= \y@L2. y",
        "C (D x) =:= P x y",
    ]
    for text in texts:
        p = parse_program(text)
        assert alpha_eq(parse_program(pretty_program(p)), p)


@given(st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_round_trip_generated(seed):
    gen = Generator(GeneratorConfig(seed=seed, max_depth=4))
    p = gen.program()
    assert alpha_eq(parse_program(pretty_program(p)), p)


def test_hm_translate_variable():
    assert hm_translate(X) == Var("a_x")


def test_hm_translate_identity():
    w = hm_translate(Abs("x", singleton(X)))
    assert isinstance(w, Fresh) and w.var == "a_x"
    r = evaluate(singleton(w))
    assert r.normal
    assert struct_equiv(r.program, parse_program("F a a"))


def test_hm_translate_example():
    t = Abs("x", singleton(Abs("y", singleton(App(Y, X)))))
    r = evaluate(singleton(hm_translate(t)))
    assert r.normal
    assert struct_equiv(r.program, parse_program("F a (F (F a c) c)"))


def test_hm_translate_self_application_fails():
    t = Abs("x", singleton(App(X, X)))
    r = evaluate(singleton(hm_translate(t)))
    assert r.normal and r.program.is_fail


def test_hm_translate_rejects_non_lambda():
    with pytest.raises(Exception):
        hm_translate(Unif(C, C))
