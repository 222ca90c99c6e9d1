"""Tests for the random program generator: determinism, the draws and
every acceptance criterion's inputs pinned, coherence, depth bounds, and
the shape of the sampled distribution."""

import hashlib
import itertools

from helpers import (
    CRITERION_8_DRAWS, coherent, corpus_sources, criterion_10_config,
    criterion_4_programs, criterion_5_draws, criterion_6_generator,
    criterion_6_problems, criterion_7_config, criterion_8_config,
    criterion_8_draws, critical_pair_instances, goals, worked_example,
)
from lamu.generator import (
    DEFAULT_SIGNATURE, Generator, GeneratorConfig, sample_programs,
)
from lamu.syntax import AbsLoc, Cons, Unif, Var, subterms
from lamu.typecheck import (
    ambient_context, default_signature, infer,
)


def test_fixed_seed_reproduces_stream():
    a = sample_programs(25, GeneratorConfig(seed=9))
    b = sample_programs(25, GeneratorConfig(seed=9))
    assert a == b
    c = sample_programs(25, GeneratorConfig(seed=10))
    assert a != c


# sha256 of the repr of each criterion's inputs, taken while
# test_acceptance still drew them by hand; "6 goals" is 300 bare goals
# of criterion 6's generator, as the typed workload draws them
CRITERION_INPUT_DIGESTS = {
    4: "9ec2258d38be6019e9f6a955195b182242a11492e660ade1ffec981296030228",
    5: "a7537804feb40e997e82cbb7e34c276dfdd30124d7619cd565eb13afc5c2b39e",
    6: "9782df83153baf5e81cbd1f7a5d4900d90f57d4f2b91d64efc4bfcb4a9ba264d",
    7: "1875d65db3d5f681eb4586b515cc71174cb3a8016f0c7da85a8f38f1b915c332",
    8: "deb59205e995c5950558734c793aa1158f35834726fb6e7f998dd2b322e42b92",
    10: "c7c2f72e69ea61029e06555e0ed01d44f2d77986952062b980fe6a5d8dbb1840",
    "6 goals":
        "634b544e10df442a8608751a90c833c09a15bade3d8f08aa860ba5bb03551abe",
}


def test_criterion_inputs_match_the_pinned_digests():
    # 4 and 9: the stream and the critical pairs; 5: each program, its
    # variant and the redex stepped; 8: each program with its typing and
    # the atoms of each base of its model; 10: the corpus, the stream and
    # the 50 draws compared for determinism
    def atoms(model):
        return {name: len(values) for name, values in model._bases.items()}

    worked, model = worked_example()
    goal = criterion_6_generator().goal
    inputs = {
        4: [*criterion_4_programs(500), *critical_pair_instances()],
        5: list(criterion_5_draws(500)),
        6: criterion_6_problems(),
        7: list(itertools.islice(
            Generator(criterion_7_config()).programs(), 300)),
        8: [(worked, sorted(model.sig.items()), atoms(model))] + [
            (p, typing.type, sorted(typing.gamma.items()), atoms(m))
            for p, typing, m in itertools.islice(criterion_8_draws(),
                                                 CRITERION_8_DRAWS)],
        10: [*((name, src.program) for name, src in corpus_sources()),
             *itertools.islice(Generator(criterion_10_config()).programs(),
                               300),
             *sample_programs(50, criterion_10_config())],
        "6 goals": [goal() for _ in range(300)],
    }
    assert {n: hashlib.sha256(repr(x).encode()).hexdigest()
            for n, x in inputs.items()} == CRITERION_INPUT_DIGESTS


def test_depth_zero_is_atomic():
    gen = Generator(GeneratorConfig(seed=1, max_depth=0))
    for _ in range(50):
        p = gen.program()
        for t in p:
            assert isinstance(t, (Var, Cons))


def test_generated_programs_are_coherent():
    gen = Generator(GeneratorConfig(seed=2, max_depth=4))
    for _ in range(200):
        p = gen.program()
        assert all(coherent(t) for t in p)


def test_values_are_values():
    gen = Generator(GeneratorConfig(seed=3))
    for _ in range(200):
        assert gen.value().value


def test_goal_sides_are_values():
    gen = Generator(GeneratorConfig(seed=4))
    for lhs, rhs in goals(gen, 100):
        assert lhs.value and rhs.value


def test_well_typed_stream_typechecks():
    gen = Generator(GeneratorConfig(seed=5, max_depth=3, well_typed=True))
    sig = default_signature(DEFAULT_SIGNATURE)
    stream = gen.programs()
    for _ in range(40):
        p = next(stream)
        infer(ambient_context(p), sig, p)  # must not raise


def test_absloc_toggle():
    gen = Generator(GeneratorConfig(seed=6, allow_absloc=False))
    for _ in range(100):
        p = gen.program()
        assert not any(isinstance(t, AbsLoc) for t in subterms(p))


def test_unification_nodes_are_common():
    # pinned after measurement: 38% of depth-4 well-typed samples
    gen = Generator(GeneratorConfig(seed=0, max_depth=4, well_typed=True))
    stream = gen.programs()
    n = 200
    hits = sum(1 for _ in range(n)
               if any(isinstance(s, Unif) for s in subterms(next(stream))))
    assert hits / n >= 0.30
