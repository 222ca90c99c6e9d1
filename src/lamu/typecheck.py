"""Simple types: checking and monomorphic inference for terms and
programs, constructor signatures, ``typed_steps`` (the one step loop of
the subject-reduction and soundness harnesses), and the
subject-reduction harness, which re-checks only the threads each step
made: a program has a type exactly when each of its threads has it.

Inference introduces metavariables for unannotated binders, solves the
first-order equality constraints by syntactic unification, and returns
an annotated copy of the input; leftover metavariables are defaulted to
fresh base types so they never escape a successful result.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from .reduction import FRESH, evaluate, replay
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
    def __init__(self, sig: Dict[str, Type]):
        self.sig = sig
        self.solver = _Solver()

    def lift(self, ty: Optional[Type]) -> Type:
        return self.solver.fresh() if ty is None else ty

    def term(self, gamma: Dict[str, Type], t: Term):
        if isinstance(t, Var):
            if t.name not in gamma:
                raise TypeCheckError(f"unbound variable {t.name}")
            return t, gamma[t.name]
        if isinstance(t, Cons):
            if t.name not in self.sig:
                raise TypeCheckError(f"constructor {t.name} has no declared type")
            return t, self.sig[t.name]
        if isinstance(t, (Abs, AbsLoc)):
            a = self.lift(t.ann)
            body, b = self.program({**gamma, t.var: a}, t.body)
            node = (AbsLoc(t.loc, t.var, body, a) if isinstance(t, AbsLoc)
                    else Abs(t.var, body, a))
            return node, Arrow(a, b)
        if isinstance(t, App):
            fn, fty = self.term(gamma, t.fn)
            arg, aty = self.term(gamma, t.arg)
            result = self.solver.fresh()
            self.solver.unify(fty, Arrow(aty, result), "application")
            return App(fn, arg), result
        if isinstance(t, Fresh):
            a = self.lift(t.ann)
            body, b = self.term({**gamma, t.var: a}, t.body)
            return Fresh(t.var, body, a), b
        if isinstance(t, Guard):
            left, lty = self.term(gamma, t.left)
            right, rty = self.term(gamma, t.right)
            self.solver.unify(lty, self.sig[OK], "guard condition")
            return Guard(left, right), rty
        if isinstance(t, Unif):
            left, lty = self.term(gamma, t.left)
            right, rty = self.term(gamma, t.right)
            self.solver.unify(lty, rty, "unification goal")
            return Unif(left, right), self.sig[OK]
        raise TypeCheckError(f"cannot type {t!r}")

    def program(self, gamma: Dict[str, Type], p: Program):
        ty = self.solver.fresh()
        threads = []
        for t in p:
            t2, tty = self.term(gamma, t)
            self.solver.unify(tty, ty, "alternative thread")
            threads.append(t2)
        return Program(tuple(threads)), ty


class _Defaulter:
    """Replaces leftover metas with fresh base types, deterministically
    in traversal order."""

    def __init__(self, solver: _Solver, taken):
        self.solver = solver
        self.map: Dict[int, Base] = {}
        self._n = 0
        self._taken = set(taken)

    def default(self, ty: Type) -> Type:
        ty = self.solver.resolve(ty)
        if isinstance(ty, Meta):
            if ty.id not in self.map:
                while True:
                    name = f"t{self._n}"
                    self._n += 1
                    if name not in self._taken:
                        break
                self.map[ty.id] = Base(name)
            return self.map[ty.id]
        if isinstance(ty, Arrow):
            return Arrow(self.default(ty.left), self.default(ty.right))
        return ty

    def node(self, x):
        if isinstance(x, Program):
            return Program(tuple(self.node(t) for t in x))
        t = x
        if isinstance(t, (Var, Cons)):
            return t
        if isinstance(t, (Abs, AbsLoc, Fresh)):
            # the body first: that order numbers the defaulted names
            body = self.node(t.body)
            ann = self.default(t.ann)
            if isinstance(t, AbsLoc):
                return AbsLoc(t.loc, t.var, body, ann)
            return type(t)(t.var, body, ann)    # Abs and Fresh alike
        if isinstance(t, App):
            return App(self.node(t.fn), self.node(t.arg))
        if isinstance(t, Guard):
            return Guard(self.node(t.left), self.node(t.right))
        if isinstance(t, Unif):
            return Unif(self.node(t.left), self.node(t.right))
        raise TypeCheckError(f"cannot default {t!r}")


class Typing(Record):
    """The type, the annotated copy of the input, and the solved ambient
    context."""
    __slots__ = ("type", "node", "gamma")

    def __init__(self, type, node, gamma):
        self.type = type
        self.node = node
        self.gamma = gamma


def _run(gamma, sig, x, expected=None) -> Typing:
    inf = _Inferencer(sig)
    solved_gamma = {}
    for name, ty in gamma.items():
        solved_gamma[name] = inf.solver.fresh() if ty is None else ty
    if isinstance(x, Program):
        node, ty = inf.program(solved_gamma, x)
    else:
        node, ty = inf.term(solved_gamma, x)
    if expected is not None:
        inf.solver.unify(ty, expected, "expected type")
    defaulter = _Defaulter(inf.solver, base_names(*sig.values()))
    return Typing(
        defaulter.default(ty),
        defaulter.node(node),
        {name: defaulter.default(t) for name, t in solved_gamma.items()})


def infer(gamma: Dict[str, Optional[Type]], sig: Dict[str, Type],
          x: Union[Term, Program]) -> Typing:
    """Principal type plus annotated input.  gamma entries may be None
    for ambient variables whose types should be inferred."""
    return _run(gamma, sig, x)


def check(gamma, sig, x, expected: Type) -> Typing:
    """Succeeds iff the typing judgment is derivable; raises
    TypeCheckError otherwise."""
    return _run(gamma, sig, x, expected)


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
    """Evaluate typing.node and yield each step of the trace with the
    typing context after it (one dict, extended in place: the variable a
    fresh step issues takes its binder's type) and the program after it."""
    context = dict(typing.gamma)
    for ts, after in replay(typing.node, evaluate(typing.node, fuel).trace):
        if ts.rule == FRESH:
            context[ts.fresh_var] = ts.focus.ann
        yield ts, context, after


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
    for ts, context, _ in typed_steps(typing, fuel):
        try:
            check(context, sig, Program(ts.after), typing.type)
            verdict.steps.append(StepReport(ts.rule, True))
        except TypeCheckError as exc:
            verdict.steps.append(StepReport(ts.rule, False, str(exc)))
            verdict.ok = False
    return verdict
