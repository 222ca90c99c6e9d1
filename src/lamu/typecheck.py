"""Simple types: checking and monomorphic inference for terms and
programs, constructor signatures, ``typed_steps`` (the one step loop of
the subject-reduction and soundness harnesses), and the
subject-reduction harness, which re-checks only the threads each step
made: a program has a type exactly when each of its threads has it.

One engine serves all three entry points: a pass that returns types
only and solves by first-order unification over a union-find table of
int metavariables (Huet 1976), in one scoped context.  ``infer`` then
defaults leftover metavariables to fresh base types, so they never
escape a successful result, and builds the one annotated copy of the
input; ``check`` unifies with the expected type; ``typable`` stops after
the pass and formats no message: neither builds.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
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


def base_names(*types: Type) -> dict:
    """The names of the base types that occur in the given types, as
    the keys of a dict, in first-occurrence order, left to right."""
    out = {}
    stack = list(reversed(types))
    while stack:
        ty = stack.pop()
        if isinstance(ty, Base):
            out[ty.name] = None
        elif isinstance(ty, Arrow):
            stack.extend((ty.right, ty.left))
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
    return {OK: UNIT, **(extra or {})}


_OK = Cons(OK)


class _Clash(Exception):
    """A failed unification, raised bare: (where, a, b), a the open
    metavariable that occurs in b, or a and b two types that differ."""


class _Engine:
    """One pass of inference in the context gamma; gamma None types each
    free variable as ambient when first met.  A metavariable is an int,
    its slot in the table: None while open, else what it is bound to."""

    def __init__(self, gamma: Optional[Dict[str, Optional[Type]]],
                 sig: Dict[str, Type]):
        self.sig = sig
        self.table: List[object] = []
        self.anns: List[object] = []    # binders' types, in post-order
        self.ambient = gamma is None
        self.gamma = {name: self.fresh() if ty is None else ty
                      for name, ty in (gamma or {}).items()}
        self.scope = dict(self.gamma)   # name -> type; None: unbound

    def fresh(self) -> int:
        self.table.append(None)
        return len(self.table) - 1

    def resolve(self, ty):
        table = self.table
        while type(ty) is int and table[ty] is not None:
            ty = table[ty]
        return ty

    def occurs(self, m: int, ty) -> bool:
        ty = self.resolve(ty)
        if type(ty) is Arrow:
            return self.occurs(m, ty.left) or self.occurs(m, ty.right)
        return type(ty) is int and ty == m

    def unify(self, a, b, where: str):
        a, b = self.resolve(a), self.resolve(b)
        if type(b) is int and type(a) is not int:
            a, b = b, a
        if type(a) is int:
            if type(b) is Arrow and self.occurs(a, b):
                raise _Clash(where, a, b)
            if type(b) is not int or a != b:
                self.table[a] = b
        elif type(a) is Arrow and type(b) is Arrow:
            self.unify(a.left, b.left, where)
            self.unify(a.right, b.right, where)
        elif a is not b and not (type(a) is Base and type(b) is Base
                                 and a.name == b.name):
            raise _Clash(where, a, b)

    def zonk(self, ty, leaf) -> Type:
        """ty solved, with each open metavariable m replaced by leaf(m)."""
        ty = self.resolve(ty)
        if type(ty) is int:
            return leaf(ty)
        if type(ty) is Arrow:
            return Arrow(self.zonk(ty.left, leaf), self.zonk(ty.right, leaf))
        return ty

    def solve(self, x, expected=None):
        """x's type, at expected if given; only here is a clash worded."""
        try:
            ty = self.term(x)
            if expected is not None:
                self.unify(ty, expected, "expected type")
            return ty
        except _Clash as clash:
            where, a, b = clash.args
            text = (f"occurs check failed at {where}: {Meta(a)!r} in "
                    if type(a) is int else
                    f"type mismatch at {where}: {self.zonk(a, Meta)!r} vs ")
            raise TypeCheckError(text + repr(self.zonk(b, Meta))) from None

    def term(self, t):
        cls = type(t)
        if cls is Var:
            ty = self.scope.get(t.name)
            if ty is None:
                if not self.ambient:
                    raise TypeCheckError(f"unbound variable {t.name}")
                ty = self.scope[t.name] = self.fresh()
            return ty
        if cls is Cons:
            ty = self.sig.get(t.name)
            if ty is None:
                raise TypeCheckError(f"constructor {t.name} has no declared type")
            return ty
        if cls is App:
            fty, aty, result = self.term(t.fn), self.term(t.arg), self.fresh()
            self.unify(fty, Arrow(aty, result), "application")
            return result
        if cls is Guard or cls is Unif:
            lty, rty = self.term(t.left), self.term(t.right)
            if cls is Guard:
                self.unify(lty, self.term(_OK), "guard condition")
                return rty
            self.unify(lty, rty, "unification goal")
            return self.term(_OK)
        if cls is Abs or cls is AbsLoc or cls is Fresh:
            a = self.fresh() if t.ann is None else t.ann
            outer = self.scope.get(t.var)
            self.scope[t.var] = a
            b = self.term(t.body) if cls is Fresh else self.program(t.body)
            self.scope[t.var] = outer
            self.anns.append(a)
            return b if cls is Fresh else Arrow(a, b)
        if cls is Program:
            return self.program(t)
        raise TypeCheckError(f"cannot type {t!r}")

    def program(self, p: Program):
        ty = self.fresh()
        for t in p.threads:
            self.unify(self.term(t), ty, "alternative thread")
        return ty

    def typing(self, ty, x) -> "Typing":
        """Each leftover metavariable becomes a fresh base type, named in
        the order the type, the binders (post-order) and the context
        first mention it; x is copied with its binders' types."""
        taken = base_names(*self.sig.values())
        names = (f"t{n}" for n in itertools.count() if f"t{n}" not in taken)
        default = defaultdict(lambda: Base(next(names))).__getitem__
        ty = self.zonk(ty, default)
        node = _annotated(x, iter([self.zonk(a, default) for a in self.anns]))
        return Typing(ty, node, {n: self.zonk(a, default)
                                 for n, a in self.gamma.items()})


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
    engine = _Engine(gamma, sig)
    return engine.typing(engine.solve(x), x)


def typable(sig, x) -> bool:
    """Whether x has a type when each of its free variables is ambient:
    the pass alone, which builds no node and formats no message."""
    try:
        _Engine(None, sig).term(x)
    except (_Clash, TypeCheckError):
        return False
    return True


def check(gamma, sig, x, expected: Type) -> None:
    """Returns if the typing judgment at the expected type is derivable
    and raises TypeCheckError otherwise; builds no node."""
    _Engine(gamma, sig).solve(x, expected)


def ambient_context(x) -> Dict[str, Optional[Type]]:
    """Context accepting the free variables of a toplevel program as
    global symbolic variables, in name order: defaulting numbers their
    leftover type variables in that order."""
    return {name: None for name in sorted(free_vars(x))}


def base_names_used(typing: "Typing") -> dict:
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
