"""Tests for simple typing: inference, checking, failure modes, and
subject reduction along evaluation; types compare, hash and print as
the dataclasses they were."""

import itertools

import pytest

from helpers import assert_records_match_the_mirror
from lamu.concrete import parse_program
from lamu.generator import (
    DEFAULT_SIGNATURE, STRATIFIED_SIGNATURE, Generator, GeneratorConfig,
)
from lamu.reduction import FRESH, evaluate
from lamu.syntax import Program, Var, free_vars, singleton, subterms
from lamu.typecheck import (
    UNIT, Arrow, Base, Meta, StepReport, TypeCheckError, ambient_context, check,
    default_signature, infer, subject_reduction_check,
)

I = Base("i")
SIG = default_signature({"C": I, "D": I, "S": Arrow(I, I),
                         "P": Arrow(I, Arrow(I, I))})


def typ(text, gamma=None, sig=SIG):
    x = parse_program(text)
    return infer(gamma if gamma is not None else ambient_context(x), sig, x)


def test_constructors():
    assert typ("C").type == I
    assert typ("S C").type == I
    assert typ("P C D").type == I
    assert typ("S").type == Arrow(I, I)


def test_ok_is_unit():
    assert typ("C =:= C").type == UNIT


def test_abstraction_and_application():
    t = typ(r"(\x. S x) C")
    assert t.type == I
    # annotated copy carries the binder type
    lam = t.node.threads[0].fn
    assert lam.ann == I


def test_allocated_abstraction_types_like_plain():
    t = typ(r"\x@L1. S x")
    assert t.type == Arrow(I, I)


def test_guard_requires_unit_left():
    assert typ("(C =:= C) ; D").type == I
    with pytest.raises(TypeCheckError):
        typ("C ; D")


def test_unif_sides_must_agree():
    with pytest.raises(TypeCheckError):
        typ("C =:= S")
    with pytest.raises(TypeCheckError):
        typ(r"C =:= \x. x")


def test_fresh_binder():
    t = typ("fresh x. ((x =:= C) ; x)")
    assert t.type == I


def test_threads_share_one_type():
    assert typ("C | D").type == I
    with pytest.raises(TypeCheckError):
        typ("C | S")


def test_fail_program_types_at_anything():
    t = infer({}, SIG, Program(()))
    # the type is unconstrained; a defaulted base stands in
    assert isinstance(t.type, Base)
    check({}, SIG, Program(()), I)
    check({}, SIG, Program(()), Arrow(I, I))


def test_unknown_symbols():
    with pytest.raises(TypeCheckError):
        infer({}, SIG, singleton(Var("x")))
    with pytest.raises(TypeCheckError):
        typ("Q")


def test_occurs_check_in_types():
    with pytest.raises(TypeCheckError):
        typ(r"\x. x x")


def test_ambient_context_infers_free_variables():
    t = typ("S x")
    assert t.type == I
    assert t.gamma["x"] == I


def test_check_against_expected():
    check(ambient_context(parse_program("C")), SIG, parse_program("C"), I)
    with pytest.raises(TypeCheckError):
        check({}, SIG, parse_program("C"), Arrow(I, I))


def test_defaulted_metas_become_fresh_bases():
    t = typ(r"\x. x")
    assert isinstance(t.type, Arrow)
    assert t.type.left == t.type.right
    assert isinstance(t.type.left, Base)
    assert t.type.left.name not in ("i", "unit")


def test_subject_reduction_golden():
    p = parse_program(r"(\x. x | fresh y. ((x =:= C y); y)) (C D)")
    sig = default_signature({"C": Arrow(I, I), "D": I})
    verdict = subject_reduction_check(ambient_context(p), sig, p)
    assert verdict.ok
    assert len(verdict.steps) == 5


def test_subject_reduction_reports_the_ill_typed_step(monkeypatch):
    # a check that fails at step #2 (fresh) alone is reported there, with
    # its error: only the term that step made holds the variable it issued
    p = parse_program(r"(\x. x | fresh y. ((x =:= C y); y)) (C D)")
    sig = default_signature({"C": Arrow(I, I), "D": I})
    issued = [ts.fresh_var for ts in evaluate(p).trace if ts.rule == FRESH]

    def fails_at_step_2(gamma, sig, x, expected):
        if issued[0] in free_vars(x):
            raise TypeCheckError("planted at step #2")
        return check(gamma, sig, x, expected)

    monkeypatch.setattr("lamu.typecheck.check", fails_at_step_2)
    verdict = subject_reduction_check(ambient_context(p), sig, p)
    assert not verdict.ok
    assert verdict.steps == [
        StepReport("alloc", True), StepReport("beta", True),
        StepReport("fresh", False, "planted at step #2"),
        StepReport("unif", True), StepReport("guard", True)]


def test_subject_reduction_extends_context_on_fresh():
    p = parse_program("fresh x. ((x =:= S C) ; x)")
    verdict = subject_reduction_check(ambient_context(p), SIG, p)
    assert verdict.ok
    assert any(s.rule == "fresh" for s in verdict.steps)


def test_subject_reduction_on_samples():
    gen = Generator(GeneratorConfig(seed=41, max_depth=3, allow_absloc=False,
                                    well_typed=True))
    stream = gen.programs()
    sig = default_signature(DEFAULT_SIGNATURE)
    for _ in range(100):
        p = next(stream)
        verdict = subject_reduction_check(ambient_context(p), sig, p, fuel=150)
        assert verdict.ok, (p, [s for s in verdict.steps if not s.ok])


def _with_metas(ty, ids):
    """ty with each base type replaced by the metavariable ids gives it."""
    if isinstance(ty, Arrow):
        return Arrow(_with_metas(ty.left, ids), _with_metas(ty.right, ids))
    return Meta(ids.setdefault(ty.name, len(ids)))


def test_types_match_the_dataclass_mirror_on_criteria_7_and_8():
    # the inferred type, context and binder types of each program of
    # both streams, every part of each, and each again with metavariables
    # for its base types; every pair of one program's types compared
    streams = [(GeneratorConfig(seed=19, max_depth=3, allow_absloc=False,
                                well_typed=True), 300),
               (GeneratorConfig(seed=29, max_depth=3, allow_absloc=False,
                                well_typed=True,
                                signature=dict(STRATIFIED_SIGNATURE)), 215)]
    kinds = set()
    unequal = 0
    for config, count in streams:
        sig = default_signature(config.signature)
        for p in itertools.islice(Generator(config).programs(), count):
            typing = infer(ambient_context(p), sig, p)
            stack = [typing.type, *typing.gamma.values(),
                     *(t.ann for t in subterms(typing.node)
                       if getattr(t, "ann", None) is not None)]
            types, ids = [], {}
            while stack:
                ty = stack.pop()
                types += [ty, _with_metas(ty, ids)]
                if isinstance(ty, Arrow):
                    stack += [ty.left, ty.right]
            kinds.update(type(ty) for ty in types)
            unequal += assert_records_match_the_mirror(
                types, itertools.combinations(range(len(types)), 2))
    assert kinds == {Base, Arrow, Meta} and unequal > 50_000
