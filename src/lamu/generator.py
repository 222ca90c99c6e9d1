"""Deterministic random generation of terms, programs, and unification
goals, used by the statistical test suites.

Generated programs are coherent by construction: allocated abstractions
only come from a fixed table of closed bodies, one body per location, so
equal locations always carry alpha-equal bodies and never capture
context variables.
"""
from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from .syntax import (
    Abs, AbsLoc, App, Cons, Fresh, Guard, Program, Record, Term, Unif, Var,
    make_spine, singleton,
)
from .typecheck import (
    Arrow, Base, Type, arg_types, default_signature, typable,
)

IOTA = Base("i")

#: constructor name -> type, the default vocabulary of generated terms
DEFAULT_SIGNATURE: Dict[str, Type] = {
    "C": IOTA,
    "D": IOTA,
    "S": Arrow(IOTA, IOTA),
    "P": Arrow(IOTA, Arrow(IOTA, IOTA)),
}

#: stratified variant whose constructor images never feed back into an
#: argument base type, so finite models exist (used for denotation work)
STRATIFIED_SIGNATURE: Dict[str, Type] = {
    "C": IOTA,
    "D": IOTA,
    "S": Arrow(IOTA, Base("s1")),
    "P": Arrow(IOTA, Arrow(IOTA, Base("pair"))),
}

#: the most threads in a generated program
MAX_THREADS = 3

#: closed bodies for allocated abstractions, one per pinned location
_CLOSED_BODIES: Tuple[Tuple[int, str, Program], ...] = (
    (901, "x", singleton(Var("x"))),
    (902, "x", singleton(Cons("C"))),
    (903, "x", singleton(Unif(Var("x"), Cons("D")))),
)


class GeneratorConfig(Record):
    """signature defaults to a copy of DEFAULT_SIGNATURE."""
    __slots__ = ("seed", "max_depth", "variables", "signature",
                 "allow_absloc", "well_typed")

    def __init__(self, seed=0, max_depth=4, variables=("x", "y", "z"),
                 signature=None, allow_absloc=True, well_typed=False):
        self.seed = seed
        self.max_depth = max_depth
        self.variables = variables
        self.signature = (dict(DEFAULT_SIGNATURE) if signature is None
                          else signature)
        self.allow_absloc = allow_absloc
        self.well_typed = well_typed


class Generator:
    def __init__(self, config: GeneratorConfig):
        self.config = config
        self.rng = random.Random(self.config.seed)
        self._arities = sorted((c, len(arg_types(ty)))
                               for c, ty in self.config.signature.items())
        self._kinds = (["var", "cons", "absloc"] if self.config.allow_absloc
                       else ["var", "cons"])

    # -- values

    def value(self, depth: Optional[int] = None) -> Term:
        """A random value: variable, constructor structure, or allocated
        abstraction from the closed-body table."""
        cfg = self.config
        if depth is None:
            depth = cfg.max_depth
        kind = self.rng.choice(self._kinds) if depth > 0 else "var"
        if kind == "var":
            return Var(self.rng.choice(cfg.variables))
        if kind == "absloc":
            loc, var, body = self.rng.choice(_CLOSED_BODIES)
            return AbsLoc(loc, var, body)
        name, arity = self.rng.choice(self._arities)
        args = [self.value(depth - 1) for _ in range(arity)]
        return make_spine(Cons(name), args)

    def goal(self) -> Tuple[Term, Term]:
        return self.value(), self.value()

    # -- terms and programs

    def term(self, depth: int) -> Term:
        cfg = self.config
        if depth <= 0:
            return self.value(0)
        kind = self.rng.choice(
            ("value", "abs", "app", "fresh", "guard", "unif"))
        if kind == "value":
            return self.value(depth - 1)
        if kind == "abs":
            var = self.rng.choice(cfg.variables)
            return Abs(var, self.program(depth - 1))
        if kind == "app":
            # head must be reducible toward a closure for the app to fire,
            # but arbitrary shapes are fine for metatheory tests
            return App(self.term(depth - 1), self.term(depth - 1))
        if kind == "fresh":
            var = self.rng.choice(cfg.variables)
            return Fresh(var, self.term(depth - 1))
        if kind == "guard":
            return Guard(self.term(depth - 1), self.term(depth - 1))
        return Unif(self.term(depth - 1), self.term(depth - 1))

    def program(self, depth: Optional[int] = None) -> Program:
        if depth is None:
            depth = self.config.max_depth
        n = self.rng.randint(1, MAX_THREADS)
        return Program(tuple(self.term(depth) for _ in range(n)))

    # -- streams

    def programs(self) -> Iterator[Program]:
        """Endless stream of coherent programs; when well_typed is set,
        only the typable ones."""
        sig = default_signature(self.config.signature)
        while True:
            p = self.program()
            if not self.config.well_typed or typable(sig, p):
                yield p


def sample_programs(n: int, config: GeneratorConfig) -> List[Program]:
    gen = Generator(config)
    stream = gen.programs()
    return [next(stream) for _ in range(n)]
