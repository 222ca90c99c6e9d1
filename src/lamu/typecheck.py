"""Simple types: checking and monomorphic inference for terms and
programs, constructor signatures, ``typed_steps`` (the one step loop of
the subject-reduction and soundness harnesses), and the
subject-reduction harness, which re-checks only the threads each step
made: a program has a type exactly when each of its threads has it.

Inference introduces metavariables for unannotated binders and solves
the first-order equality constraints by syntactic unification, in a pass
that returns types only.  ``infer`` then defaults leftover metavariables
to fresh base types, so they never escape a successful result, and
builds the one annotated copy of the input; ``check`` unifies with the
expected type and builds nothing.
"""
from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Union

from .reduction import FRESH, evaluate
from .syntax import (
    OK, Abs, AbsLoc, App, Cons, Fresh, Guard, LamuError, Program, Record,
    Term, Unif, Var, free_vars, subterms,
)


# Types are values, immutable by contract: == and hash compare the
# field tuple.

class Base:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name,) == (other.name,)
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))

    def __repr__(self):
        return self.name


class Arrow:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        l = f"({self.left!r})" if isinstance(self.left, Arrow) else f"{self.left!r}"
        return f"{l} -> {self.right!r}"


class Meta:
    __slots__ = ("id",)

    def __init__(self, id):
        self.id = id

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.id,) == (other.id,)
        return NotImplemented

    def __hash__(self):
        return hash((self.id,))

    def __repr__(self):
        return f"?{self.id}"


Type = Union[Base, Arrow, Meta]

UNIT = Base("unit")


def base_names(*types: Type) -> set:
    """The names of the base types that occur in the given types."""
    out = set()
    stack = list(types)
    while stack:
        ty = stack.pop()
        if isinstance(ty, Base):
            out.add(ty.name)
        elif isinstance(ty, Arrow):
            stack.extend((ty.left, ty.right))
    return out


def arg_types(ty: Type) -> List[Type]:
    """The argument types of A1 -> ... -> An -> B, in order."""
    out = []
    while isinstance(ty, Arrow):
        out.append(ty.left)
        ty = ty.right
    return out


class TypeCheckError(LamuError):
    pass


def default_signature(extra=None) -> Dict[str, Type]:
    sig = {OK: UNIT}
    if extra:
        sig.update(extra)
    return sig


class _Solver:
    def __init__(self):
        self._next = 0
        self._bindings: Dict[int, Type] = {}

    def fresh(self) -> Meta:
        m = Meta(self._next)
        self._next += 1
        return m

    def resolve(self, ty: Type) -> Type:
        while isinstance(ty, Meta) and ty.id in self._bindings:
            ty = self._bindings[ty.id]
        return ty

    def _occurs(self, mid: int, ty: Type) -> bool:
        ty = self.resolve(ty)
        if isinstance(ty, Meta):
            return ty.id == mid
        if isinstance(ty, Arrow):
            return self._occurs(mid, ty.left) or self._occurs(mid, ty.right)
        return False

    def unify(self, a: Type, b: Type, where: str):
        a = self.resolve(a)
        b = self.resolve(b)
        if a == b:
            return
        if isinstance(a, Meta):
            if self._occurs(a.id, b):
                raise TypeCheckError(f"occurs check failed at {where}: "
                                     f"{a!r} in {self.zonk(b)!r}")
            self._bindings[a.id] = b
            return
        if isinstance(b, Meta):
            self.unify(b, a, where)
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.left, b.left, where)
            self.unify(a.right, b.right, where)
            return
        raise TypeCheckError(
            f"type mismatch at {where}: {self.zonk(a)!r} vs {self.zonk(b)!r}")

    def zonk(self, ty: Type) -> Type:
        ty = self.resolve(ty)
        if isinstance(ty, Arrow):
            return Arrow(self.zonk(ty.left), self.zonk(ty.right))
        return ty


class _Inferencer:
    """Inference in two passes.  The first, run when the inferencer is
    built, solves the constraints over x for its type and returns types
    only; it lists each binder's type once its body is done, in
    post-order.  The second, ``typing``, defaults the leftover
    metavariables and builds the one annotated copy of x."""

    def __init__(self, gamma: Dict[str, Optional[Type]],
                 sig: Dict[str, Type], x: Union[Term, Program]):
        self.sig = sig
        self.solver = _Solver()
        self.anns: List[Type] = []
        self.gamma = {name: self.lift(ty) for name, ty in gamma.items()}
        self.type = (self.program(self.gamma, x) if isinstance(x, Program)
                     else self.term(self.gamma, x))

    def lift(self, ty: Optional[Type]) -> Type:
        return self.solver.fresh() if ty is None else ty

    def term(self, gamma: Dict[str, Type], t: Term) -> Type:
        if isinstance(t, Var):
            if t.name not in gamma:
                raise TypeCheckError(f"unbound variable {t.name}")
            return gamma[t.name]
        if isinstance(t, Cons):
            if t.name not in self.sig:
                raise TypeCheckError(f"constructor {t.name} has no declared type")
            return self.sig[t.name]
        if isinstance(t, (Abs, AbsLoc)):
            a = self.lift(t.ann)
            b = self.program({**gamma, t.var: a}, t.body)
            self.anns.append(a)
            return Arrow(a, b)
        if isinstance(t, App):
            fty = self.term(gamma, t.fn)
            aty = self.term(gamma, t.arg)
            result = self.solver.fresh()
            self.solver.unify(fty, Arrow(aty, result), "application")
            return result
        if isinstance(t, Fresh):
            a = self.lift(t.ann)
            b = self.term({**gamma, t.var: a}, t.body)
            self.anns.append(a)
            return b
        if isinstance(t, (Guard, Unif)):
            lty = self.term(gamma, t.left)
            rty = self.term(gamma, t.right)
            if isinstance(t, Guard):
                self.solver.unify(lty, self.sig[OK], "guard condition")
                return rty
            self.solver.unify(lty, rty, "unification goal")
            return self.sig[OK]
        raise TypeCheckError(f"cannot type {t!r}")

    def program(self, gamma: Dict[str, Type], p: Program) -> Type:
        ty = self.solver.fresh()
        for t in p:
            self.solver.unify(self.term(gamma, t), ty, "alternative thread")
        return ty

    def typing(self, x) -> "Typing":
        """Each leftover metavariable becomes a fresh base type, named in
        the order the type, the binders (post-order) and the context
        first mention it; x is copied with its binders' types."""
        taken = base_names(*self.sig.values())
        names = (f"t{n}" for n in itertools.count() if f"t{n}" not in taken)
        bases: Dict[int, Base] = {}

        def default(ty: Type) -> Type:
            ty = self.solver.resolve(ty)
            if isinstance(ty, Meta):
                if ty.id not in bases:
                    bases[ty.id] = Base(next(names))
                return bases[ty.id]
            if isinstance(ty, Arrow):
                return Arrow(default(ty.left), default(ty.right))
            return ty

        ty = default(self.type)
        node = _annotated(x, iter([default(a) for a in self.anns]))
        return Typing(ty, node, {n: default(a) for n, a in self.gamma.items()})


def _annotated(x, anns: Iterator[Type]):
    """x with each binder's type taken from anns, in post-order."""
    if isinstance(x, Program):
        return Program(tuple([_annotated(t, anns) for t in x]))
    if isinstance(x, (Var, Cons)):
        return x
    if isinstance(x, (Abs, AbsLoc, Fresh)):
        body = _annotated(x.body, anns)
        if isinstance(x, AbsLoc):
            return AbsLoc(x.loc, x.var, body, next(anns))
        return type(x)(x.var, body, next(anns))    # Abs and Fresh alike
    if isinstance(x, App):
        return App(_annotated(x.fn, anns), _annotated(x.arg, anns))
    return type(x)(_annotated(x.left, anns), _annotated(x.right, anns))


class Typing(Record):
    """The type, the annotated copy of the input, and the solved ambient
    context."""
    __slots__ = ("type", "node", "gamma")

    def __init__(self, type, node, gamma):
        self.type = type
        self.node = node
        self.gamma = gamma


def infer(gamma: Dict[str, Optional[Type]], sig: Dict[str, Type],
          x: Union[Term, Program]) -> Typing:
    """Principal type plus annotated input.  gamma entries may be None
    for ambient variables whose types should be inferred."""
    return _Inferencer(gamma, sig, x).typing(x)


def check(gamma, sig, x, expected: Type) -> None:
    """Returns if the typing judgment at the expected type is derivable
    and raises TypeCheckError otherwise; builds no node."""
    inf = _Inferencer(gamma, sig, x)
    inf.solver.unify(inf.type, expected, "expected type")


def ambient_context(x) -> Dict[str, Optional[Type]]:
    """Context accepting the free variables of a toplevel program as
    global symbolic variables, in name order: defaulting numbers their
    leftover type variables in that order."""
    return {name: None for name in sorted(free_vars(x))}


def base_names_used(typing: "Typing") -> set:
    """Every base-type name mentioned in a typing result: the result
    type, the context, and the binder annotations."""
    anns = [t.ann for t in subterms(typing.node)
            if getattr(t, "ann", None) is not None]
    return base_names(typing.type, *typing.gamma.values(), *anns)


# ---------------------------------------------------------------------------
# The harnesses' step loop and the subject reduction harness

def typed_steps(typing: Typing, fuel) -> Iterator[tuple]:
    """Evaluate typing.node and yield each step of the trace, a delta,
    with the typing context after it: one dict, extended in place, in
    which the variable a fresh step issues takes its binder's type."""
    context = dict(typing.gamma)
    for ts in evaluate(typing.node, fuel).trace:
        if ts.rule == FRESH:
            context[ts.fresh_var] = ts.focus.ann
        yield ts, context


class StepReport(Record):
    __slots__ = ("rule", "ok", "error")

    def __init__(self, rule, ok, error=None):
        self.rule = rule
        self.ok = ok
        self.error = error


class Verdict(Record):
    """subject_reduction_check appends each step's report and clears ok
    on a failure."""
    __slots__ = ("ok", "steps")

    def __init__(self, ok):
        self.ok = ok
        self.steps = []


def subject_reduction_check(gamma, sig, p: Program, fuel=200) -> Verdict:
    """Evaluate the program and re-check the threads each step of the
    trace made, at the program's inferred type."""
    typing = infer(gamma, sig, p)
    verdict = Verdict(True)
    for ts, context in typed_steps(typing, fuel):
        try:
            check(context, sig, Program(ts.after), typing.type)
            verdict.steps.append(StepReport(ts.rule, True))
        except TypeCheckError as exc:
            verdict.steps.append(StepReport(ts.rule, False, str(exc)))
            verdict.ok = False
    return verdict
