"""Tests for simple typing: inference, checking, failure modes, and
subject reduction along evaluation; inference and check against the
oracles that built the annotated copy twice, and a guard that check
builds no node; types compare, hash and print as the dataclasses they
were."""

import itertools
import os

import pytest

import lamu.typecheck
from helpers import assert_records_match_the_mirror, check_oracle, infer_oracle
from lamu.concrete import parse_file, parse_program
from lamu.generator import (
    DEFAULT_SIGNATURE, STRATIFIED_SIGNATURE, Generator, GeneratorConfig,
)
from lamu.reduction import FRESH, evaluate
from lamu.syntax import (
    Abs, AbsLoc, Fresh, Program, Term, Var, free_vars, singleton, subterms,
)
from lamu.typecheck import (
    UNIT, Arrow, Base, Meta, StepReport, TypeCheckError, ambient_context, check,
    default_signature, infer, subject_reduction_check, typed_steps,
)

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")

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


# ---------------------------------------------------------------------------
# inference and check against the oracles that built the annotated copy
# twice; check builds no node

def _criterion_7():
    return GeneratorConfig(seed=19, max_depth=3, allow_absloc=False,
                           well_typed=True)


def _criterion_8():
    return GeneratorConfig(seed=29, max_depth=3, allow_absloc=False,
                           well_typed=True,
                           signature=dict(STRATIFIED_SIGNATURE))


def _binder_anns(node):
    """Each binder's variable and type, as text, in subterms' walk order."""
    return [f"{t.var}:{t.ann!r}" for t in subterms(node)
            if isinstance(t, (Abs, AbsLoc, Fresh))]


def _inferred(infer_with, gamma, sig, x):
    """What a typing holds, binder types included (== ignores them), or
    the text of the TypeCheckError."""
    try:
        typing = infer_with(gamma, sig, x)
    except TypeCheckError as exc:
        return str(exc)
    return typing.type, typing.gamma, typing.node, _binder_anns(typing.node)


def _checked(check_with, gamma, sig, x, expected):
    try:
        check_with(gamma, sig, x, expected)
    except TypeCheckError as exc:
        return str(exc)
    return None


# program -> "type | context | binder types in walk order": open
# metavariables across nested binders, a fresh under a \, two threads,
# and one def inlined under two binders; defaulting names the type's
# variables first, then the binders' in post-order, then the context's
PINNED_INFERENCES = [
    (r"\f. fresh a. \x. fresh b. ((a =:= a) ; (b =:= b) ; g (f x))",
     "(t0 -> t1) -> t0 -> t2 | g : t1 -> t2 | f:t0 -> t1 a:t4 x:t0 b:t3"),
    (r"\x. fresh y. fresh z. ((x =:= S y) ; z)",
     "i -> t0 |  | x:i y:i z:t0"),
    (r"(fresh a. \u. u) | (\v. fresh w. v)",
     "t0 -> t0 |  | v:t0 w:t2 a:t1 u:t0"),
    (r"def k = \z. fresh e. z. (\x. k x) | (fresh y. k y)",
     "t0 -> t0 |  | y:t0 -> t0 z:t0 -> t0 e:t2 x:t0 z:t0 e:t1"),
]


@pytest.mark.parametrize("text, shown", PINNED_INFERENCES, ids=[
    "nested-binders", "fresh-under-abs", "two-threads", "def-under-two-binders"])
def test_inference_names_and_places_binder_types_as_pinned(text, shown):
    p = parse_file(text).program
    typing = infer(ambient_context(p), SIG, p)
    gamma = ", ".join(f"{n} : {ty!r}" for n, ty in sorted(typing.gamma.items()))
    assert (f"{typing.type!r} | {gamma} | "
            f"{' '.join(_binder_anns(typing.node))}") == shown


def test_infer_matches_the_node_building_oracle():
    # every candidate criteria 7 and 8's streams draw, the ones type
    # inference rejects included, and the corpus
    rejected = 0
    for config, count in ((_criterion_7(), 300), (_criterion_8(), 215)):
        sig = default_signature(config.signature)
        draws, accepted = Generator(config), []
        while len(accepted) < count:
            p = draws.program()
            gamma = ambient_context(p)
            outcome = _inferred(infer, gamma, sig, p)
            assert outcome == _inferred(infer_oracle, gamma, sig, p), p
            if isinstance(outcome, str):
                rejected += 1
            else:
                accepted.append(p)
        assert accepted == list(itertools.islice(Generator(config).programs(),
                                                 count))
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as handle:
            src = parse_file(handle.read())
        sig, gamma = default_signature(src.signature), ambient_context(src.program)
        assert (_inferred(infer, gamma, sig, src.program)
                == _inferred(infer_oracle, gamma, sig, src.program)), name
    assert rejected > 1000


def _criterion_7_steps():
    """(context, threads, type) for every step of criterion 7's stream:
    the threads the step made and the type of the program it began with."""
    config = _criterion_7()
    sig = default_signature(config.signature)
    for p in itertools.islice(Generator(config).programs(), 300):
        typing = infer(ambient_context(p), sig, p)
        for ts, context in typed_steps(typing, 200):
            yield dict(context), Program(ts.after), typing.type


def test_check_matches_the_oracle_on_criterion_7():
    # every step's threads, at the program's type, where they type, and
    # at a wrong one, where only an empty program (fail) types
    sig = default_signature(_criterion_7().signature)
    steps = list(_criterion_7_steps())
    for context, x, ty in steps:
        right, wrong = [_checked(check, context, sig, x, expected)
                        for expected in (ty, Arrow(ty, ty))]
        assert right == _checked(check_oracle, context, sig, x, ty), x
        assert wrong == _checked(check_oracle, context, sig, x,
                                 Arrow(ty, ty)), x
        assert right is None and (wrong is None) == (not x.threads), x
    assert len(steps) > 700


class _Unbuildable(type):
    """A stand-in for a node class: isinstance answers as for the class,
    and building one fails."""

    def __instancecheck__(cls, obj):
        return isinstance(obj, cls.node)

    def __call__(cls, *args, **kwargs):
        raise AssertionError(f"check built a {cls.node.__name__}")


def test_check_builds_no_node(monkeypatch):
    # every node class typecheck imports raises once built, while check
    # decides every step of criterion 7's stream
    sig = default_signature(_criterion_7().signature)
    steps = list(_criterion_7_steps())
    nodes = {name: cls for name, cls in vars(lamu.typecheck).items()
             if isinstance(cls, type) and issubclass(cls, (Term, Program))}
    assert {"Abs", "AbsLoc", "App", "Fresh", "Guard", "Program",
            "Unif"} <= set(nodes)
    for name, cls in nodes.items():
        monkeypatch.setattr(lamu.typecheck, name,
                            _Unbuildable(name, (), {"node": cls}))
    for context, x, ty in steps:
        assert check(context, sig, x, ty) is None
    assert len(steps) > 700
