"""Finite denotational semantics: type enumeration over user-supplied
base interpretations, unitary constructor interpretations, term and
program denotation, toplevel denotation (thread by thread, each thread
over its own free variables), and the soundness checker.

Types denote finite sets; arrow types denote all functions into the
power set of the codomain, so sizes are doubly exponential and every
enumeration is guarded by a cap.  Constructors are interpreted by
injective tagging: each constructor application reserves a distinct
atom in its result base type.  A base type is closed once, in
dependency order: its declared atoms, then its constructors' images
over the closed enumerations of their argument types.  A value is
hashed once, when built, and a table applied by a lookup in its index.
"""
from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, List, Union

from .reduction import FAILRULE
from .syntax import (
    OK, Abs, AbsLoc, App, Cons, Fresh, Guard, LamuError, Program, Record,
    Term, Unif, Var, free_vars,
)
from .typecheck import (
    Arrow, Base, Meta, Type, ambient_context, arg_types, base_names, infer,
    typed_steps,
)


class TooLarge(LamuError):
    def __init__(self, what, count, cap):
        if isinstance(count, int) and count >> 64:  # no decimal past 64 bits
            count = f"at least 2^{count.bit_length() - 1}"
        super().__init__(f"enumeration of {what} needs {count} elements, cap is {cap}")


class DenotError(LamuError):
    pass


class Atom:
    """An element of a base type; tag is ("atom", i) or ("cons", name,
    (child values...)).  A value, immutable by contract: == compares the
    field tuple, and _hash, taken when the atom is built, is its hash."""
    __slots__ = ("base", "tag", "_hash")

    def __init__(self, base, tag):
        self.base = base
        self.tag = tag
        self._hash = hash((base, tag))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.tag) == (other.base, other.tag)
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.tag[0] == "atom":
            return f"{self.base}#{self.tag[1]}"
        name, args = self.tag[1], self.tag[2]
        if args:
            return f"{name}({', '.join(map(repr, args))})"
        return name


class Table:
    """A function ⟦A⟧ -> P(⟦B⟧), materialized over the full enumeration
    of the domain in canonical order: entries holds (argument, image)
    pairs.  A value, immutable by contract, compared and hashed as Atom;
    its _index, from argument to image, makes application one lookup.
    An underscored slot is a fact taken when the value is built, no
    field: ==, hash and repr leave it out."""
    __slots__ = ("entries", "_hash", "_index")

    def __init__(self, entries):
        self.entries = entries
        self._hash = hash((entries,))
        self._index = dict(entries)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.entries,) == (other.entries,)
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __call__(self, arg: "SemValue") -> FrozenSet["SemValue"]:
        image = self._index.get(arg)
        if image is None:
            raise DenotError(f"argument {arg!r} outside table domain")
        return image

    def __repr__(self):
        inner = ", ".join(
            f"{a!r}->{{{','.join(sorted(map(repr, img)))}}}"
            for a, img in self.entries)
        return f"Table[{inner}]"


SemValue = Union[Atom, Table]


def _result_base(ty: Type) -> str:
    while isinstance(ty, Arrow):
        ty = ty.right
    if not isinstance(ty, Base):
        raise DenotError(f"constructor result type {ty!r} is not a base type")
    return ty.name


class Model:
    """A finite interpretation: base-type atom counts, a constructor
    signature, and an enumeration cap."""

    def __init__(self, base_sizes: Dict[str, int], sig: Dict[str, Type],
                 cap: int = 4096):
        for name, n in base_sizes.items():
            if n < 0:
                raise DenotError(f"negative size for base type {name}")
            if n > cap:
                raise TooLarge(f"base type {name}", n, cap)
        self.cap = cap
        self.sig = dict(sig)
        self._bases: Dict[str, List[SemValue]] = {
            name: [Atom(name, ("atom", i)) for i in range(n)]
            for name, n in base_sizes.items()}
        self._enum_cache: Dict[Type, List[SemValue]] = {}
        self._cons_cache: Dict[str, SemValue] = {}
        self._closing: set = set()   # bases begun; a closed one is cached
        for c in self.sig:
            self._bases.setdefault(_result_base(self.sig[c]), [])
            for sub in base_names(*arg_types(self.sig[c])):
                self._bases.setdefault(sub, [])
        # enumerating a base closes it once, or finds it on a cycle
        for c in sorted(self.sig):
            self.enum_type(Base(_result_base(self.sig[c])))
        for name, atoms in self._bases.items():
            if not atoms:
                raise DenotError(f"base type {name} is empty")

    # -- enumeration

    def enum_type(self, ty: Type) -> List[SemValue]:
        """Full enumeration of a type's interpretation, in a canonical
        deterministic order.  Raises TooLarge beyond the cap.  A base
        type holds its declared atoms, then each constructor's images
        over its argument types in itertools.product order, constructors
        in name order; the first enumeration closes it.  A base met again
        while being closed would hold its own images, so it is infinite."""
        if ty in self._enum_cache:
            return self._enum_cache[ty]
        if isinstance(ty, Meta):
            raise DenotError("cannot enumerate an unsolved metavariable")
        if isinstance(ty, Base):
            if ty.name not in self._bases:
                raise DenotError(f"base type {ty.name} has no interpretation")
            if ty.name in self._closing:
                raise TooLarge(f"base type {ty.name}", "infinitely many",
                               self.cap)
            self._closing.add(ty.name)
            result = self._bases[ty.name]
            for c in sorted(self.sig):
                if _result_base(self.sig[c]) == ty.name:
                    domains = [self.enum_type(a) for a in arg_types(self.sig[c])]
                    count = len(result) + math.prod(map(len, domains))
                    if count > self.cap:
                        raise TooLarge(f"base type {ty.name}", count, self.cap)
                    result += [Atom(ty.name, ("cons", c, combo))
                               for combo in itertools.product(*domains)]
        else:
            domain = self.enum_type(ty.left)
            codomain = self.enum_type(ty.right)
            n, m = len(domain), len(codomain)
            k = m * n   # 2 ** k tables: past the cap iff k >= its bit length
            if k >= self.cap.bit_length():
                raise TooLarge(repr(ty), 2 ** k if k < 64 else f"2^{k}",
                               self.cap)
            subsets = [frozenset(s)
                       for r in range(m + 1)
                       for s in itertools.combinations(codomain, r)]
            result = [
                Table(tuple(zip(domain, images)))
                for images in itertools.product(subsets, repeat=n)]
        self._enum_cache[ty] = result
        return result

    # -- constructors

    def _cons_at(self, name: str, args: tuple, ty: Type) -> SemValue:
        if isinstance(ty, Arrow):
            domain = self.enum_type(ty.left)
            entries = tuple(
                (a, frozenset((self._cons_at(name, args + (a,), ty.right),)))
                for a in domain)
            return Table(entries)
        return Atom(ty.name, ("cons", name, args))

    def cons_interp(self, name: str) -> SemValue:
        """The unitary, injective interpretation of a constructor."""
        if name not in self._cons_cache:
            if name not in self.sig:
                raise DenotError(f"constructor {name} has no declared type")
            self._cons_cache[name] = self._cons_at(name, (), self.sig[name])
        return self._cons_cache[name]

    @property
    def ok(self) -> SemValue:
        return self.cons_interp(OK)


# ---------------------------------------------------------------------------
# Denotation

def denote(x: Union[Term, Program], env: Dict[str, SemValue],
           model: Model) -> FrozenSet[SemValue]:
    """Denotation of a type-annotated term or program under an
    environment covering its free variables."""
    if isinstance(x, Program):
        out = frozenset()
        for t in x:
            out |= denote(t, env, model)
        return out
    t = x
    if isinstance(t, Var):
        if t.name not in env:
            raise DenotError(f"variable {t.name} missing from environment")
        return frozenset((env[t.name],))
    if isinstance(t, Cons):
        return frozenset((model.cons_interp(t.name),))
    if isinstance(t, (Abs, AbsLoc)):
        if t.ann is None:
            raise DenotError("abstraction lacks a binder type annotation")
        domain = model.enum_type(t.ann)
        entries = tuple(
            (a, denote(t.body, {**env, t.var: a}, model))
            for a in domain)
        return frozenset((Table(entries),))
    if isinstance(t, App):
        fns = denote(t.fn, env, model)
        args = denote(t.arg, env, model)
        out = set()
        for f in fns:
            if not isinstance(f, Table):
                raise DenotError("application of a non-function denotation")
            for a in args:
                out |= f(a)
        return frozenset(out)
    if isinstance(t, Unif):
        if denote(t.left, env, model) & denote(t.right, env, model):
            return frozenset((model.ok,))
        return frozenset()
    if isinstance(t, Guard):
        if not denote(t.left, env, model):
            return frozenset()
        return denote(t.right, env, model)
    if isinstance(t, Fresh):
        if t.ann is None:
            raise DenotError("fresh binder lacks a type annotation")
        out = frozenset()
        for a in model.enum_type(t.ann):
            out |= denote(t.body, {**env, t.var: a}, model)
        return out
    raise DenotError(f"cannot denote {t!r}")


def denote_toplevel(x: Union[Term, Program], model: Model,
                    gamma: Dict[str, Type]) -> FrozenSet[SemValue]:
    """Union of the threads' denotations, each over every environment on
    its own free variables, whose types gamma gives.  Exact: every type
    denotes a non-empty set (Model rejects empty bases, a function space
    is never empty), so each thread's environments extend to the whole
    program's, and a program denotes the union of its threads."""
    threads = list(x) if isinstance(x, Program) else [x]
    own = [sorted(free_vars(t)) for t in threads]
    names = sorted(set().union(*own))
    missing = [n for n in names if n not in gamma]
    if missing:
        raise DenotError(f"no types for free variables {missing}")
    domains = {n: model.enum_type(gamma[n]) for n in names}
    out = frozenset()
    for t, vs in zip(threads, own):
        for combo in itertools.product(*(domains[n] for n in vs)):
            out |= denote(t, dict(zip(vs, combo)), model)
    return out


# ---------------------------------------------------------------------------
# Soundness harness

class InclusionReport(Record):
    """One step's verdict; soundness_check fills in detail on a failure."""
    __slots__ = ("rule", "ok", "equal", "detail")

    def __init__(self, rule, ok, equal):
        self.rule = rule
        self.ok = ok
        self.equal = equal
        self.detail = ""


class SoundnessVerdict(Record):
    """soundness_check clears ok on a failure and sets the final
    denotation once the trace ends."""
    __slots__ = ("ok", "steps", "final_denotation")

    def __init__(self, ok, steps):
        self.ok = ok
        self.steps = steps
        self.final_denotation = None


def soundness_check(p: Program, model: Model, fuel=200,
                    typing=None) -> SoundnessVerdict:
    """Evaluate the program; at each step of the trace check that the
    denotation shrinks or stays equal, with equality required for every
    rule other than fail.  A program denotes the union of its threads,
    so each thread is denoted once, when it appears, and its denotation
    is spliced into a list as evaluate splices the thread: a thread a
    step leaves unchanged keeps its free variables and their types.
    typing is p's principal typing under model.sig with its free
    variables ambient, if the caller has it; else it is inferred."""
    if typing is None:
        typing = infer(ambient_context(p), model.sig, p)
    sems = [denote_toplevel(t, model, typing.gamma) for t in typing.node]
    before_sem = frozenset().union(*sems)
    verdict = SoundnessVerdict(True, [])
    for ts, context in typed_steps(typing, fuel):
        sems[ts.thread:ts.thread + 1] = [
            denote_toplevel(t, model, context) for t in ts.after]
        after_sem = frozenset().union(*sems)
        equal = after_sem == before_sem
        ok = equal or (ts.rule == FAILRULE and after_sem <= before_sem)
        report = InclusionReport(ts.rule, ok, equal)
        if not ok:
            report.detail = (f"before={sorted(map(repr, before_sem))} "
                             f"after={sorted(map(repr, after_sem))}")
            verdict.ok = False
        verdict.steps.append(report)
        before_sem = after_sem
    verdict.final_denotation = before_sem
    return verdict
