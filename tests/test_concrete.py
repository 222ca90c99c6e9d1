"""Tests for the concrete syntax: parsing, pretty-printing, round
trips, declarations, and the type-inference translation, which is
checked against the type checker: the evaluator, running a translated
term, must compute the principal type that ``infer`` gives."""

import itertools
import random

import pytest

from helpers import corpus_sources, pretty_program_oracle, pretty_term_oracle
from lamu.concrete import (
    ParseError, hm_translate, parse_file, parse_program, parse_term,
    pretty_program, pretty_term,
)
from lamu.equiv import canonical_program, struct_equiv
from lamu.generator import Generator, GeneratorConfig
from lamu.parallel import par_normalize
from lamu.reduction import evaluate, reachable_normal_forms
from lamu.syntax import (
    Abs, AbsLoc, App, Cons, Fresh, Guard, Program, Unif, Var, alpha_eq,
    singleton, spine, subterms, term_key,
)
from lamu.typecheck import (
    Arrow, Base, TypeCheckError, ambient_context, default_signature, infer,
)

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


# each expectation the parser can miss, with the message it raises
MISSED = [
    (parse_file, "def k = C )", "expected '.', found ')' at line 1, column 11"),
    (parse_program, r"\x C", "expected '.', found 'C' at line 1, column 4"),
    (parse_program, r"\x -> x", "expected '.', found '->' at line 1, column 4"),
    (parse_program, r"\x@L2 x", "expected '.', found 'x' at line 1, column 7"),
    (parse_program, r"\x@L2 @L3. x",
     "expected '.', found '@L3' at line 1, column 7"),
    (parse_file, "cons K : i =:= k.",
     "expected '.', found '=:=' at line 1, column 12"),
    (parse_program, "(C", "expected ')', found 'eof' at line 1, column 3"),
    (parse_program, r"(\x. x", "expected ')', found 'eof' at line 1, column 7"),
    (parse_file, "cons K : (i -> k.",
     "expected ')', found '.' at line 1, column 17"),
    (parse_file, "cons K i -> k.", "expected ':', found 'i' at line 1, column 8"),
    (parse_file, "base i 3.", "expected '=', found '3' at line 1, column 8"),
    (parse_file, "def k C.", "expected '=', found 'C' at line 1, column 7"),
    (parse_file, "cons k : i.", "expected upper, found 'k' at line 1, column 6"),
    (parse_file, "cons fresh : i.",
     "expected upper, found 'fresh' at line 1, column 6"),
    (parse_program, r"\X. X", "expected lower, found 'X' at line 1, column 2"),
    (parse_program, "fresh X. x",
     "expected lower, found 'X' at line 1, column 7"),
    (parse_file, "base 3 = 2.", "expected lower, found '3' at line 1, column 6"),
    (parse_file, "base i = n.", "expected int, found 'n' at line 1, column 10"),
    (parse_program, "C )", "expected eof, found ')' at line 1, column 3"),
    (parse_program, "C @L3", "expected eof, found '@L3' at line 1, column 3"),
    (parse_file, "def k = C. C C.",
     "expected eof, found '.' at line 1, column 15"),
]


@pytest.mark.parametrize("parse, text, message", MISSED)
def test_a_missed_expectation_names_what_was_expected(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


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


def test_printer_matches_the_oracle():
    # the corpus files and 8 000 generated programs print as the printer
    # that decides parentheses by intrinsic level prints them, and so do
    # the subterms of the corpus and of the first 50 programs at every
    # level and position
    corpus = [p for _, src in corpus_sources() for p in (
        src.program, *map(singleton, src.definitions.values()))]
    generated = [p for seed in range(40) for p in itertools.islice(
        Generator(GeneratorConfig(seed=seed, max_depth=5)).programs(), 200)]
    for p in corpus + generated:
        assert pretty_program(p) == pretty_program_oracle(p)
    terms = [t for p in corpus + generated[:50] for t in subterms(p)]
    assert len(terms) > 2000
    for t in terms:
        for ctx, rightmost in itertools.product((1, 2, 3, 4), (True, False)):
            assert pretty_term(t, ctx, rightmost) == \
                pretty_term_oracle(t, ctx, rightmost)


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


def test_round_trip_generated():
    # the first program of each seed 0..149
    programs = [Generator(GeneratorConfig(seed=seed, max_depth=4)).program()
                for seed in range(150)]
    assert len(programs) == 150
    for p in programs:
        assert alpha_eq(parse_program(pretty_program(p)), p), p


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


# -- the translation against infer: pure lambda terms over x and y, every
# alpha-class up to size 7 and a seeded stream of larger ones

def _lambda_terms(size):
    """Every pure lambda term over x and y with size nodes."""
    if size == 1:
        yield from (X, Y)
        return
    for body in _lambda_terms(size - 1):
        yield from (Abs(v, singleton(body)) for v in ("x", "y"))
    for k in range(1, size - 1):
        for fn in _lambda_terms(k):
            for arg in _lambda_terms(size - 1 - k):
                yield App(fn, arg)


def _draw_lambda_term(rng, size):
    if size == 1:
        return rng.choice((X, Y))
    if size == 2 or rng.random() < 0.4:
        return Abs(rng.choice("xy"), singleton(_draw_lambda_term(rng, size - 1)))
    k = rng.randint(1, size - 2)
    return App(_draw_lambda_term(rng, k), _draw_lambda_term(rng, size - 1 - k))


def _as_type(thread):
    """A value built from F and variables read as a type: F a b as
    a -> b, a variable as a base type of its name."""
    if isinstance(thread, Var):
        return Base(thread.name)
    head, (left, right) = spine(thread)
    assert head == Cons("F"), thread
    return Arrow(_as_type(left), _as_type(right))


def _numbered(ty, names):
    """ty with its base types renamed a0, a1, ... in order of first
    occurrence: two types are equal up to renaming exactly when these
    are equal."""
    if isinstance(ty, Base):
        return Base(names.setdefault(ty.name, f"a{len(names)}"))
    return Arrow(_numbered(ty.left, names), _numbered(ty.right, names))


def _agrees_with_infer(t):
    """Check the translation of t against infer; True when t has no type."""
    try:
        ty = infer(ambient_context(t), default_signature(), t).type
    except TypeCheckError as error:
        # without constructors, the occurs check is the only failure
        assert "occurs check" in str(error), (t, error)
        ty = None
    p = singleton(hm_translate(t))
    result = evaluate(p)
    assert result.normal, t
    if ty is None:
        assert result.program.is_fail, (t, result.program)
    else:
        assert len(result.program) == 1, (t, result.program)
        assert _numbered(_as_type(result.program.threads[0]), {}) == \
            _numbered(ty, {}), (t, result.program, ty)
    # every reduction order reaches that one normal form
    explored = reachable_normal_forms(p)
    nf = canonical_program(result.program)
    assert explored.complete and explored.normal_forms == {nf}, t
    simultaneous = par_normalize(p)
    assert simultaneous.normal, t
    assert canonical_program(simultaneous.program) == nf, t
    return ty is None


def test_hm_translate_computes_the_principal_type_that_infer_gives():
    for source, normal_form in (
            (r"\f. \g. \x. f (g x)", "F (F v4 v3) (F (F v2 v4) (F v2 v3))"),
            (r"\f. \x. f (f x)", "F (F v2 v2) (F v2 v2)"),
            (r"\x. x x", "fail")):
        t = parse_term(source)
        assert pretty_program(evaluate(singleton(hm_translate(t))).program) \
            == normal_form
        _agrees_with_infer(t)
    # per size: how many alpha-classes, each checked once, and how many
    # of them have no type
    counts = []
    for n in range(1, 8):
        terms = {term_key(t): t for t in _lambda_terms(n)}.values()
        counts.append((len(terms), sum(map(_agrees_with_infer, terms))))
    assert counts == [(2, 0), (3, 0), (8, 2), (24, 5), (77, 19), (262, 90),
                      (923, 351)]
    rng = random.Random(18)
    untyped = sum(_agrees_with_infer(_draw_lambda_term(rng, rng.randint(8, 16)))
                  for _ in range(300))
    assert untyped == 162
