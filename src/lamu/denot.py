"""Finite denotational semantics: type enumeration over user-supplied
base interpretations, unitary constructor interpretations, term and
program denotation, toplevel denotation, and the soundness checker.

Types denote finite sets; arrow types denote all functions into the
power set of the codomain, so sizes are doubly exponential and every
enumeration is guarded by a cap.  Constructors are interpreted by
injective tagging: each constructor application reserves a distinct
atom in its result base type, computed as a least fixpoint.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from .reduction import FAILRULE, FRESH, evaluate, replay
from .syntax import (
    OK, Abs, AbsLoc, App, Cons, Fresh, Guard, LamuError, Program, Term,
    Unif, Var, free_vars,
)
from .typecheck import (
    Arrow, Base, Meta, Type, ambient_context, arg_types, base_names, infer,
)


class TooLarge(LamuError):
    def __init__(self, what, count, cap):
        super().__init__(f"enumeration of {what} needs {count} elements, cap is {cap}")
        self.count = count
        self.cap = cap


class DenotError(LamuError):
    pass


@dataclass(frozen=True)
class Atom:
    base: str
    tag: object  # ("atom", i) or ("cons", name, (child values...))

    def __repr__(self):
        if self.tag[0] == "atom":
            return f"{self.base}#{self.tag[1]}"
        name, args = self.tag[1], self.tag[2]
        if args:
            return f"{name}({', '.join(map(repr, args))})"
        return name


@dataclass(frozen=True)
class Table:
    """A function ⟦A⟧ -> P(⟦B⟧), materialized over the full enumeration
    of the domain in canonical order."""
    entries: Tuple[Tuple["SemValue", FrozenSet["SemValue"]], ...]

    def __call__(self, arg: "SemValue") -> FrozenSet["SemValue"]:
        for a, image in self.entries:
            if a == arg:
                return image
        raise DenotError(f"argument {arg!r} outside table domain")

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
        self.cap = cap
        self.sig = dict(sig)
        self._bases: Dict[str, List[SemValue]] = {
            name: [Atom(name, ("atom", i)) for i in range(n)]
            for name, n in base_sizes.items()}
        self._enum_cache: Dict[Type, List[SemValue]] = {}
        self._cons_cache: Dict[str, SemValue] = {}
        self._close_bases()
        for name, atoms in self._bases.items():
            if not atoms:
                raise DenotError(f"base type {name} is empty")

    # -- base-type closure under constructor images

    def _close_bases(self):
        feeds: Dict[str, set] = {}   # base -> the bases its arguments use
        for c in self.sig:
            base = _result_base(self.sig[c])
            self._bases.setdefault(base, [])
            for sub in base_names(*arg_types(self.sig[c])):
                self._bases.setdefault(sub, [])
                feeds.setdefault(base, set()).add(sub)
        # a base that feeds its own constructors' arguments gains new
        # atoms every round, so no finite model exists
        for base in sorted(feeds):
            seen, stack = set(), list(feeds[base])
            while stack:
                sub = stack.pop()
                if sub == base:
                    raise TooLarge(f"base type {base}", "infinitely many",
                                   self.cap)
                if sub not in seen:
                    seen.add(sub)
                    stack.extend(feeds.get(sub, ()))
        changed = True
        while changed:
            changed = False
            self._enum_cache.clear()
            for c in sorted(self.sig):
                args = arg_types(self.sig[c])
                base = _result_base(self.sig[c])
                known = set(self._bases[base])
                domains = [self.enum_type(a) for a in args]
                for combo in itertools.product(*domains):
                    atom = Atom(base, ("cons", c, tuple(combo)))
                    if atom not in known:
                        known.add(atom)
                        self._bases[base].append(atom)
                        changed = True
                if len(self._bases[base]) > self.cap:
                    raise TooLarge(f"base type {base}",
                                   len(self._bases[base]), self.cap)
        self._enum_cache.clear()

    # -- enumeration

    def enum_type(self, ty: Type) -> List[SemValue]:
        """Full enumeration of a type's interpretation, in a canonical
        deterministic order.  Raises TooLarge beyond the cap."""
        if ty in self._enum_cache:
            return self._enum_cache[ty]
        if isinstance(ty, Meta):
            raise DenotError("cannot enumerate an unsolved metavariable")
        if isinstance(ty, Base):
            if ty.name not in self._bases:
                raise DenotError(f"base type {ty.name} has no interpretation")
            result = list(self._bases[ty.name])
        else:
            domain = self.enum_type(ty.left)
            codomain = self.enum_type(ty.right)
            n, m = len(domain), len(codomain)
            count = (2 ** m) ** n
            if count > self.cap:
                raise TooLarge(repr(ty), count, self.cap)
            subsets = [frozenset(s)
                       for k in range(m + 1)
                       for s in itertools.combinations(codomain, k)]
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
        left = denote(t.left, env, model)
        right = denote(t.right, env, model)
        if left & right:
            return frozenset((model.ok,))
        return frozenset()
    if isinstance(t, Guard):
        left = denote(t.left, env, model)
        if not left:
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
                    gamma: Optional[Dict[str, Type]] = None) -> FrozenSet[SemValue]:
    """Union of denotations over every environment on the free
    variables (sufficient by irrelevance).  gamma gives their types."""
    names = sorted(free_vars(x))
    gamma = gamma or {}
    missing = [n for n in names if n not in gamma]
    if missing:
        raise DenotError(f"no types for free variables {missing}")
    domains = [model.enum_type(gamma[n]) for n in names]
    out = frozenset()
    for combo in itertools.product(*domains):
        out |= denote(x, dict(zip(names, combo)), model)
    return out


# ---------------------------------------------------------------------------
# Soundness harness

@dataclass
class InclusionReport:
    rule: str
    ok: bool
    equal: bool
    detail: str = ""


@dataclass
class SoundnessVerdict:
    ok: bool
    steps: List[InclusionReport]
    final_denotation: Optional[FrozenSet[SemValue]] = None


def soundness_check(p: Program, model: Model, fuel=200) -> SoundnessVerdict:
    """Evaluate the program; at each step of the trace check that the
    denotation shrinks or stays equal, with equality required for every
    rule other than fail."""
    typing = infer(ambient_context(p), model.sig, p)
    context = dict(typing.gamma)
    before_sem = denote_toplevel(typing.node, model, context)
    verdict = SoundnessVerdict(True, [])
    for ts, after in replay(typing.node, evaluate(typing.node, fuel).trace):
        if ts.rule == FRESH:
            context[ts.fresh_var] = ts.focus.ann
        after_sem = denote_toplevel(after, model, context)
        if ts.rule == FAILRULE:
            ok = after_sem <= before_sem
            report = InclusionReport(ts.rule, ok, after_sem == before_sem)
        else:
            ok = after_sem == before_sem
            report = InclusionReport(ts.rule, ok, ok)
        if not ok:
            report.detail = (f"before={sorted(map(repr, before_sem))} "
                             f"after={sorted(map(repr, after_sem))}")
            verdict.ok = False
        verdict.steps.append(report)
        before_sem = after_sem
    verdict.final_denotation = before_sem
    return verdict
