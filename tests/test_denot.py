"""Tests for the finite denotational semantics: models, enumeration,
unitary constructors, denotation clauses, and soundness along steps;
semantic values compare, hash and print as the dataclasses they were."""

import collections
import functools
import itertools

import pytest

import helpers
from lamu import denot
from lamu.concrete import parse_file, parse_program
from helpers import (
    CRITERION_8_DRAWS, RoundLoopModel, assert_records_keep_the_rules,
    criterion_8_draws, denote_toplevel_oracle, denote_toplevel_scanning,
    equal_images_source, is_unitary, model_sizes, python,
    soundness_check_oracle, typed_steps_oracle, within, worked_example,
)
from lamu.denot import (
    Atom, DenotError, Model, Table, TooLarge, denote, denote_toplevel, soundness_check,
)
from lamu.generator import STRATIFIED_SIGNATURE, Generator, GeneratorConfig
from lamu.reduction import FRESH, evaluate
from lamu.syntax import (
    Abs, AbsLoc, Cons, Fresh, Guard, LamuError, Program, Unif, Var,
    free_vars, singleton, subterms,
)
from lamu.typecheck import (
    Arrow, Base, ambient_context, default_signature, infer, typed_steps,
)

I = Base("i")
# the signature must be stratified: constructor images in a base type
# never feed back into an argument type, or the closure diverges
SIG = default_signature({"C": I, "D": I})
PAIR = Base("pair")
STRATIFIED = default_signature(
    {"C": I, "D": I, "S": Arrow(I, Base("s1")),
     "P": Arrow(I, Arrow(I, PAIR))})


def model(sizes=None, sig=SIG, cap=4096):
    return Model(sizes if sizes is not None else {}, sig, cap=cap)


def annotate(text, sig=SIG, gamma=None):
    p = parse_program(text)
    typing = infer(gamma if gamma is not None else ambient_context(p), sig, p)
    return typing


def test_base_closure_constructor_images():
    m = Model({}, STRATIFIED)
    names = {repr(a) for a in m.enum_type(I)}
    assert names == {"C", "D"}
    assert {repr(a) for a in m.enum_type(Base("s1"))} == {"S(C)", "S(D)"}
    assert repr(sorted(map(repr, m.enum_type(PAIR)))[0]) is not None
    assert len(m.enum_type(PAIR)) == 4


def test_recursive_signature_hits_cap():
    with pytest.raises(TooLarge):
        Model({}, default_signature({"Z": I, "S": Arrow(I, I)}), cap=32)


def test_declared_atoms_plus_images():
    m = Model({"n": 2}, default_signature({"W": Arrow(Base("n"), Base("m"))}))
    assert len(m.enum_type(Base("n"))) == 2
    assert len(m.enum_type(Base("m"))) == 2  # one image per n atom


def test_an_oversized_base_is_rejected_before_it_is_built():
    # no type needs the base, and its atoms are never enumerated
    with pytest.raises(TooLarge, match="base type i needs 1000000000 "
                                       "elements, cap is 10"):
        within(1, "a model with a base of 10 ** 9 atoms",
               lambda: Model({"i": 10 ** 9}, SIG, cap=10))


# ---------------------------------------------------------------------------
# the closure in dependency order against the round loop

def _closure(make, sizes, sig, cap, types=()):
    """Each base's atoms in order, the enumeration of each type, each
    constructor's interpretation, or the class and text of an error."""
    def outcome(value):
        try:
            return value()
        except LamuError as exc:
            return type(exc), str(exc)
    m = outcome(lambda: make(sizes, sig, cap=cap))
    if isinstance(m, tuple):
        return m
    return ({name: list(atoms) for name, atoms in m._bases.items()},
            [outcome(lambda: m.enum_type(ty)) for ty in types],
            [outcome(lambda: m.cons_interp(c)) for c in sorted(sig)])


def _stream_models(seed, sig, cap, draws):
    """The model and types of each of a well-typed stream's first draws,
    as criterion 8 builds them."""
    config = GeneratorConfig(seed=seed, max_depth=3, allow_absloc=False,
                             well_typed=True, signature=dict(sig))
    gsig = default_signature(config.signature)
    for p in itertools.islice(Generator(config).programs(), draws):
        typing = infer(ambient_context(p), gsig, p)
        yield model_sizes(typing), gsig, cap, [
            typing.type, *typing.gamma.values(),
            *(t.ann for t in subterms(typing.node)
              if getattr(t, "ann", None) is not None)]


def test_closure_matches_the_round_loop_oracle():
    # the models this file and criterion 8 build by hand, then the
    # stratified streams (seed 29 is criterion 8's), and the stream of
    # test_soundness_on_samples; every signature here closes in one round
    # but the last of the list below, where the round loop meets
    # A : j -> i before Z : k -> j has put Z(k#0) into j
    worked = worked_example()[1].sig    # T : nat -> nat -> tuple
    nat, tup = worked["N1"], worked["T"].right.right
    a, b, c, d, x, y = map(Base, "abcdxy")
    cases = [
        ({}, SIG, 4096, [I, Arrow(I, I)]),
        ({}, STRATIFIED, 4096, [I, PAIR, Arrow(I, PAIR)]),
        ({}, default_signature({"Z": I, "S": Arrow(I, I)}), 32, []),
        ({"n": 2}, default_signature({"W": Arrow(Base("n"), Base("m"))}),
         4096, [Base("m")]),
        ({"i": 10 ** 9}, SIG, 10, []),
        ({"n": 0}, default_signature(), 4096, []),
        ({"n": 3}, default_signature(), 64,
         [Arrow(Base("n"), Arrow(Base("n"), Base("n")))]),
        ({"i": 15}, default_signature({"C": I}), 4096, [I]),
        ({"i": 1}, default_signature(), 4096, [I, Arrow(I, I)]),
        ({"nat": 4}, worked, 4096, [nat, tup, Arrow(nat, tup)]),
        ({"j": 1, "k": 1}, default_signature({
            "A": Arrow(Base("j"), I), "Z": Arrow(Base("k"), Base("j"))}),
         4096, [I]),
        ({}, default_signature({"A": Arrow(x, y), "B": Arrow(y, x)}), 4096,
         []),
        ({}, default_signature({"A": Arrow(d, c), "B": Arrow(c, d),
                                "C": Arrow(b, a), "D": Arrow(a, b)}), 4096,
         []),
    ]
    for seed in (7, 11, 29, 53):
        cases += _stream_models(seed, STRATIFIED_SIGNATURE, 4096, 300)
    no_ok = dict(STRATIFIED)
    del no_ok["Ok"]
    cases += _stream_models(53, no_ok, 600, 100)
    models = enumerations = 0   # rejected, and too large to enumerate
    for sizes, sig, cap, types in cases:
        closure = _closure(Model, sizes, sig, cap, types)
        assert closure == _closure(RoundLoopModel, sizes, sig, cap, types), \
            (sizes, sig)
        if isinstance(closure[0], type):
            models += 1
        else:
            enumerations += sum(isinstance(e, tuple) for e in closure[1])
    assert (len(cases), models, enumerations) == (1313, 5, 166)


def test_function_typed_constructor_arguments_keep_no_stale_tables():
    # i gains Z after F's first round over i = {i#0}: the round loop kept
    # F's images of the two tables over that partial domain
    i2, j = Base("i2"), Base("j")
    sig = default_signature({"F": Arrow(Arrow(I, i2), j), "Z": I})
    tables = Model({"i": 1, "i2": 1}, sig).enum_type(Arrow(I, i2))
    assert len(tables) == 4
    atoms = Model({"i": 1, "i2": 1}, sig).enum_type(j)
    assert [a.tag for a in atoms] == [("cons", "F", (t,)) for t in tables]
    stale = RoundLoopModel({"i": 1, "i2": 1}, sig).enum_type(j)
    assert len(stale) == 6 and atoms == stale[2:]


def test_a_product_beyond_the_cap_is_rejected_before_it_is_built():
    sig = default_signature({"P": Arrow(I, Arrow(I, Base("j")))})
    with pytest.raises(TooLarge, match="base type j needs 2250000 "
                                       "elements, cap is 4096"):
        within(1, "a model whose product has 2 250 000 atoms",
               lambda: Model({"i": 1500}, sig))


def test_bases_list_declared_atoms_then_constructors_by_name():
    # Z is added to i after A's product in the round loop's first round,
    # so the round loop listed A(Z) after B's images
    j, k = Base("j"), Base("k")
    sig = default_signature({"A": Arrow(I, j), "B": Arrow(k, j), "W": k,
                             "Z": I})
    order = ["A(i#0)", "A(Z)", "B(k#0)", "B(W)"]
    assert list(map(repr, Model({"i": 1, "k": 1}, sig).enum_type(j))) == order
    assert list(map(repr, RoundLoopModel({"i": 1, "k": 1}, sig).enum_type(j))) \
        == ["A(i#0)", "B(k#0)", "A(Z)", "B(W)"]


def test_closure_builds_only_the_atoms_it_keeps(monkeypatch):
    built = []
    init = Atom.__init__

    def counting(self, base, tag):
        built.append(tag)
        init(self, base, tag)

    monkeypatch.setattr(Atom, "__init__", counting)
    bases = [I, Base("s1"), PAIR, Base("unit")]
    m = Model({}, STRATIFIED)
    assert len(built) == sum(len(m.enum_type(b)) for b in bases) == 9
    built.clear()
    RoundLoopModel({}, STRATIFIED)
    assert len(built) == 18


# Each signature's error, from a Model built in a fresh process under
# several hash seeds, so that a walk or a registration that follows a
# set's order fails under some of them
_FIRST_ERRORS = """
import sys
from lamu.concrete import parse_file
from lamu.denot import Model
from lamu.syntax import LamuError
from lamu.typecheck import default_signature
for text in sys.argv[1:]:
    src = parse_file(text)
    try:
        Model(src.base_sizes, default_signature(src.signature))
    except LamuError as exc:
        print(exc)
"""


def test_errors_name_the_first_base_in_name_order():
    cycle = "enumeration of base type {} needs infinitely many elements, " \
            "cap is 4096"
    cases = {
        # two disjoint cycles, a -> b -> a and c -> d -> c: the closing
        # walk starts at F's result a and meets a again through b
        "cons K : d -> c. cons H : c -> d. cons G : a -> b. "
        "cons F : b -> a.": cycle.format("a"),
        # a chain a <- b into the cycle b -> c -> b
        "cons F : b -> a. cons G : c -> b. cons H : b -> c.":
            cycle.format("b"),
        # the walk starts at A's result y, not at x, the first in name
        # order on the cycle
        "cons A : x -> y. cons B : y -> x.": cycle.format("y"),
        "cons A : d -> c. cons B : c -> d. cons C : b -> a. "
        "cons D : a -> b.": cycle.format("c"),
        # two empty bases: the first declared, and the first in the
        # signature's own order, result before arguments
        "base n = 0. base m = 0.": "base type n is empty",
        "cons F : d -> c. cons G : b -> a.": "base type c is empty",
        # a constructor's argument bases, left to right
        "base c = 1. cons F : a -> b -> c.": "base type a is empty",
    }
    runs = [python("-c", _FIRST_ERRORS, *cases, text=True,
                   env={"PYTHONHASHSEED": str(seed)}) for seed in range(6)]
    outputs = {run.communicate(timeout=60) for run in runs}
    assert outputs == {("".join(f"{m}\n" for m in cases.values()), "")}


def test_empty_base_rejected():
    with pytest.raises(DenotError):
        Model({"n": 0}, default_signature())


def test_a_count_of_a_million_digits_is_refused_at_once():
    # 2 ** (4096 * 1024) tables, whose decimal has 1 262 612 digits
    j = Base("j")
    with pytest.raises(TooLarge, match="^enumeration of i -> j needs "
                                       "2\\^4194304 elements, cap is 4096$"):
        within(1, "a binder type of 2 ** 4194304 tables", lambda: Model(
            {"i": 4096, "j": 1024}, {}).enum_type(Arrow(I, j)))


def test_a_product_past_64_bits_is_named_by_its_binary_order():
    # 4096 ** 7 = 2 ** 84 images of F
    sig = {"F": Arrow(I, Arrow(I, Arrow(I, Arrow(I, Arrow(I, Arrow(
        I, Arrow(I, Base("j"))))))))}
    with pytest.raises(TooLarge, match="^enumeration of base type j needs "
                                       "at least 2\\^84 elements, cap is "
                                       "4096$"):
        Model({"i": 4096}, sig)


def test_arrow_enumeration_count():
    m = Model({"n": 1}, default_signature())
    # (2^1)^1 functions from one atom to subsets of one atom
    assert len(m.enum_type(Arrow(Base("n"), Base("n")))) == 2
    with pytest.raises(TooLarge):
        Model({"n": 3}, default_signature(), cap=64).enum_type(
            Arrow(Base("n"), Arrow(Base("n"), Base("n"))))
    # at the cap's boundary: one domain atom and six codomain atoms give
    # 2 ** 6 tables, which the size check takes in its exponent
    d, c = Base("d"), Base("c")
    assert len(Model({"d": 1, "c": 6}, {}, cap=64).enum_type(Arrow(d, c))) \
        == 64
    with pytest.raises(TooLarge, match="^enumeration of d -> c needs 64 "
                                       "elements, cap is 63$"):
        Model({"d": 1, "c": 6}, {}, cap=63).enum_type(Arrow(d, c))


def test_constructors_are_unitary_and_injective():
    m = Model({}, STRATIFIED, cap=4096)
    p = m.cons_interp("P")
    assert is_unitary(p, Arrow(I, Arrow(I, PAIR)))
    c, d = m.cons_interp("C"), m.cons_interp("D")
    (pc,) = p(c)
    (pd,) = p(d)
    assert pc(c) != pd(c)       # injective in the first argument
    assert pc(c) != pc(d)       # and in the second


def test_denote_variable_and_constructor():
    m = model()
    c = m.cons_interp("C")
    assert denote(Var("x"), {"x": c}, m) == frozenset((c,))
    assert denote(Cons("D"), {}, m) == frozenset((m.cons_interp("D"),))


def test_denote_unif_intersection():
    m = model()
    assert denote(Unif(Cons("C"), Cons("C")), {}, m) == frozenset((m.ok,))
    assert denote(Unif(Cons("C"), Cons("D")), {}, m) == frozenset()


def test_denote_guard():
    m = model()
    t = Guard(Unif(Cons("C"), Cons("C")), Cons("D"))
    assert denote(t, {}, m) == frozenset((m.cons_interp("D"),))
    dead = Guard(Unif(Cons("C"), Cons("D")), Cons("D"))
    assert denote(dead, {}, m) == frozenset()


def test_denote_fresh_unions_over_domain():
    m = model()
    t = Fresh("x", Var("x"), ann=I)
    assert denote(t, {}, m) == frozenset(m.enum_type(I))


def test_denote_program_unions_threads():
    typing = annotate("C | D")
    m = model()
    sem = denote_toplevel(typing.node, m, typing.gamma)
    assert sem == frozenset((m.cons_interp("C"), m.cons_interp("D")))
    assert denote(Program(()), {}, m) == frozenset()


def test_denote_abstraction_application():
    typing = annotate(r"(\x. x) C")
    m = model()
    assert denote_toplevel(typing.node, m, typing.gamma) == \
        frozenset((m.cons_interp("C"),))


def test_denote_toplevel_enumerates_free_variables():
    typing = annotate("x =:= C")
    m = model()
    # for exactly one choice of x the unification holds
    assert denote_toplevel(typing.node, m, typing.gamma) == frozenset((m.ok,))


def test_located_closures_denote_alike():
    # the naive semantics ignores locations
    a = AbsLoc(1, "x", singleton(Var("x")), ann=I)
    b = AbsLoc(2, "x", singleton(Var("x")), ann=I)
    m = model()
    assert denote(a, {}, m) == denote(b, {}, m)


def test_strict_inclusion_witness():
    a = AbsLoc(1, "x", singleton(Var("x")), ann=I)
    b = AbsLoc(2, "x", singleton(Var("x")), ann=I)
    m = model()
    assert denote(Unif(a, b), {}, m) == frozenset((m.ok,))
    assert denote(Program(()), {}, m) == frozenset()


def test_soundness_along_five_rule_trace():
    sig = default_signature({"C": I, "D": I,
                             "P": Arrow(I, Arrow(I, PAIR))})
    p = parse_program(r"(\x. fresh y. ((x =:= P C y); y)) (P C D)")
    m = Model({}, sig, cap=4096)
    verdict = soundness_check(p, m)
    assert verdict.ok
    rules = [s.rule for s in verdict.steps]
    assert rules == ["alloc", "beta", "fresh", "unif", "guard"]
    assert all(s.equal for s in verdict.steps)
    assert verdict.final_denotation == frozenset((m.cons_interp("D"),))


def test_soundness_reports_the_violating_step(monkeypatch):
    # denotations that go empty from step #2 (fresh) on break equality
    # at that step alone, and the report names both sides
    sig = default_signature({"C": I, "D": I,
                             "P": Arrow(I, Arrow(I, PAIR))})
    p = parse_program(r"(\x. fresh y. ((x =:= P C y); y)) (P C D)")
    m = Model({}, sig, cap=4096)
    # the context types the variable that step #2 issues from that step on
    issued = [ts.fresh_var for ts in evaluate(p).trace if ts.rule == FRESH]

    def empty_from_step_2(x, model, gamma):
        if issued[0] in gamma:
            return frozenset()
        return denote_toplevel(x, model, gamma)

    monkeypatch.setattr("lamu.denot.denote_toplevel", empty_from_step_2)
    verdict = soundness_check(p, m)
    assert not verdict.ok
    assert [(s.rule, s.ok, s.equal) for s in verdict.steps] == [
        ("alloc", True, True), ("beta", True, True), ("fresh", False, False),
        ("unif", True, True), ("guard", True, True)]
    d = repr(m.cons_interp("D"))
    assert verdict.steps[2].detail == f"before={[d]} after=[]"
    assert all(s.detail == "" for s in verdict.steps if s.ok)
    assert verdict.final_denotation == frozenset()


def test_soundness_fail_step_may_shrink():
    p = parse_program("C =:= D | C =:= C")
    m = model()
    verdict = soundness_check(p, m)
    assert verdict.ok
    fail_steps = [s for s in verdict.steps if s.rule == "fail"]
    assert fail_steps
    # here the dropped thread was denotationally empty, so no shrinkage
    assert all(s.equal for s in fail_steps)


def test_soundness_on_samples():
    config = GeneratorConfig(seed=53, max_depth=3, allow_absloc=False,
                             well_typed=True,
                             signature=dict(STRATIFIED))
    del config.signature["Ok"]
    gen = Generator(config)
    stream = gen.programs()
    sig = default_signature(config.signature)
    checked = 0
    while checked < 60:
        p = next(stream)
        try:
            typing = infer(ambient_context(p), sig, p)
            m = Model(model_sizes(typing), sig, cap=600)
            verdict = soundness_check(p, m, fuel=60)
        except (TooLarge, DenotError):
            continue
        checked += 1
        assert verdict.ok, (p, [s for s in verdict.steps if not s.ok])


# ---------------------------------------------------------------------------
# the thread-by-thread toplevel denotation against the product form

def _assert_parity(x, model, gamma):
    """Equal denotations, or the same exception, class and message: thread
    by thread, in the product form by denote_oracle and by denote, and
    under the values that hash on every call and apply by a scan."""
    def outcome(denotation):
        try:
            return denotation(x, model, gamma)
        except LamuError as exc:
            return type(exc), str(exc)
    fast = outcome(denote_toplevel)
    assert fast == outcome(denote_toplevel_oracle), x
    assert fast == outcome(functools.partial(denote_toplevel_oracle,
                                             walk=denote)), x
    assert fast == outcome(denote_toplevel_scanning), x


def _assert_parity_along_trace(p, model, fuel):
    # the whole program after each step, rebuilt with replay
    typing = infer(ambient_context(p), model.sig, p)
    _assert_parity(typing.node, model, typing.gamma)
    for _, context, after in typed_steps_oracle(typing, fuel):
        _assert_parity(after, model, context)


def test_toplevel_denotation_matches_the_product_form_on_criterion_8():
    # the worked example, and the draws criterion 8 checks or skips;
    # along the traces of the 15 draws it skips, 61 programs raise
    # TooLarge, and must do so in every form; then a table of 100 tables
    # of 100 entries, each applying a 100-entry table twice
    _assert_parity_along_trace(*worked_example(), 200)
    for p, _, m in itertools.islice(criterion_8_draws(), CRITERION_8_DRAWS):
        _assert_parity_along_trace(p, m, 100)
    src = parse_file(equal_images_source(100))
    sig = default_signature(src.signature)
    typing = infer({}, sig, src.program)
    _assert_parity(typing.node, Model(src.base_sizes, sig), typing.gamma)


def test_a_call_denotes_each_closed_binder_once(monkeypatch):
    # the seed-29 stream's draw 74 is one thread, \x. (\y. x y) |
    # y =:= z ; y | fresh y. \y. y, with y, z : t0 -> t0: the oracle
    # walks its closed fresh y. \y. y under each of the 16 values of x
    # in each of the 256 environments of y and z; each denote_toplevel
    # call of its soundness check denotes every closed binder once
    p, typing, m = next(itertools.islice(criterion_8_draws(), 74, None))
    (node,) = [t for t in subterms(typing.node)
               if type(t) is Fresh and not free_vars(t)]
    visits = collections.Counter()

    def counted(walk):
        def visit(t, *rest):
            visits[id(t)] += 1
            return walk(t, *rest)
        return visit

    monkeypatch.setattr(helpers, "denote_oracle",
                        counted(helpers.denote_oracle))
    denote_toplevel_oracle(typing.node, m, typing.gamma)
    assert visits[id(node)] == 4096
    calls = []

    def recorded(x, model, gamma):
        visits.clear()
        sem = denote_toplevel(x, model, gamma)
        closed = [t for t in subterms(x)
                  if type(t) in (Abs, AbsLoc, Fresh) and not free_vars(t)]
        calls.append((any(t is node for t in closed),
                      [visits[id(t)] for t in closed]))
        return sem

    monkeypatch.setattr(denot, "_binder", counted(denot._binder))
    monkeypatch.setattr(denot, "denote_toplevel", recorded)
    assert soundness_check(p, m, fuel=100, typing=typing).ok
    # node and its body \y. y, in the program and after its alloc step
    assert calls == [(True, [1, 1])] * 2


def test_toplevel_denotation_sums_the_threads_environments():
    # three threads with disjoint free variables of a 16-element type:
    # 3 * 16 environments thread by thread, 16 ** 3 in the product form
    sig = default_signature({"C": I})
    p = parse_program("fresh u. (x =:= u ; u) | fresh v. (y =:= v ; v)"
                      " | fresh w. (z =:= w ; w)")
    typing = infer({"x": I, "y": I, "z": I}, sig, p)
    m = Model({"i": 15}, sig)
    assert len(m.enum_type(I)) == 16
    sem = within(0.25, "a three-thread toplevel denotation",
                 lambda: denote_toplevel(typing.node, m, typing.gamma))
    assert sem == frozenset(m.enum_type(I))
    assert sem == denote_toplevel_oracle(typing.node, m, typing.gamma)


def test_toplevel_denotation_names_every_missing_variable():
    typing = annotate("x =:= C | y =:= C")
    with pytest.raises(DenotError, match=r"\['x', 'y'\]"):
        denote_toplevel(typing.node, model(), {})


def test_semantic_values_match_the_dataclass_mirror_on_criterion_8():
    # criterion 8's stream: the denotation of each program and the
    # first and last values of the enumeration of each type in its
    # typing; every pair of one program's values compared
    kinds = set()
    unequal = 0
    for _, typing, m in itertools.islice(criterion_8_draws(),
                                         CRITERION_8_DRAWS):
        types = [typing.type, *typing.gamma.values(),
                 *(t.ann for t in subterms(typing.node)
                   if getattr(t, "ann", None) is not None)]
        try:
            values = [*denote_toplevel(typing.node, m, typing.gamma)]
            for ty in types:
                values += m.enum_type(ty)[:4] + m.enum_type(ty)[-4:]
        except TooLarge:
            continue
        kinds.update(type(v) for v in values)
        unequal += assert_records_keep_the_rules(
            values, itertools.combinations(range(len(values)), 2))
    assert kinds == {Atom, Table} and unequal > 40_000


# ---------------------------------------------------------------------------
# soundness, each thread denoted once, against the whole-program harness

def _soundness(check, p, model, fuel):
    """Everything a verdict holds, or the class of the exception."""
    try:
        v = check(p, model, fuel)
    except LamuError as exc:
        return type(exc)
    return (v.ok, [(s.rule, s.ok, s.equal, s.detail) for s in v.steps],
            v.final_denotation)


def test_soundness_matches_the_whole_program_harness_on_criterion_8():
    # the worked example and the draws criterion 8 checks or skips; the
    # steps typed_steps yields are the oracle's, each with an equal
    # context, and a typing handed in gives the verdict of the one inferred
    cases = [(*worked_example(), 200)]
    cases += [(p, m, 100) for p, _, m in itertools.islice(
        criterion_8_draws(), CRITERION_8_DRAWS)]
    outcomes = []
    for p, m, fuel in cases:
        typing = infer(ambient_context(p), m.sig, p)
        outcome = _soundness(soundness_check, p, m, fuel)
        assert outcome == _soundness(soundness_check_oracle, p, m, fuel), p
        given = functools.partial(soundness_check, typing=typing)
        assert outcome == _soundness(given, p, m, fuel), p
        outcomes.append(outcome)
        steps = [(ts, dict(context))
                 for ts, context in typed_steps(typing, fuel)]
        assert steps == [(ts, dict(context)) for ts, context, _ in
                         typed_steps_oracle(typing, fuel)]
    assert outcomes.count(TooLarge) == 15
    assert all(o[0] for o in outcomes if o is not TooLarge)
