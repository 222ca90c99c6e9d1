"""Tests for the random program generator: determinism, the draws
pinned, coherence, depth bounds, and the shape of the sampled
distribution."""

import hashlib

from helpers import coherent, goals
from lamu.generator import (
    DEFAULT_SIGNATURE, STRATIFIED_SIGNATURE, Generator, GeneratorConfig,
    sample_programs,
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


# sha256 of the draws below, taken before the generator kept its
# constructor table and value kinds from one call to the next
DRAWS_DIGEST = ("b042ffc54a564e1d63606b9ecd5e02c2"
                "a45beeec89061c77708afcae26b60478")


def test_draws_match_the_pinned_digest():
    # the typed workload's four streams: its goals, the two well-typed
    # program streams and the round-trip programs
    gen = Generator(GeneratorConfig(seed=13, max_depth=3,
                                    variables=("x", "y")))
    draws = [gen.goal() for _ in range(300)]
    for config in (
            GeneratorConfig(seed=19, max_depth=3, allow_absloc=False,
                            well_typed=True),
            GeneratorConfig(seed=29, max_depth=3, allow_absloc=False,
                            well_typed=True,
                            signature=dict(STRATIFIED_SIGNATURE)),
            GeneratorConfig(seed=43, max_depth=4)):
        stream = Generator(config).programs()
        draws += [next(stream) for _ in range(60)]
    digest = hashlib.sha256(repr(draws).encode()).hexdigest()
    assert digest == DRAWS_DIGEST


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
