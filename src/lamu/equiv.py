"""Structural equivalence, canonical thread keys, and the normal/stuck
term classifier.

Structural equivalence quotients programs by thread reordering plus
injective renaming of thread-local free variables and locations.  It is
decided by the shape part of ``syntax.term_key``: a thread's shape is
its canonical key, and a program's key is the sorted tuple of its
threads' shapes.  The classifier reads value-ness from the term's flag,
so it answers a value at once.
"""
from __future__ import annotations

from typing import Optional

from .syntax import (
    AbsLoc, Cons, Guard, Program, Term, Unif, Value, Var, spine,
    term_key,
)

STUCK_VAR = "stuck-var"
STUCK_CONS = "stuck-cons"
STUCK_GUARD = "stuck-guard"
STUCK_UNIF = "stuck-unif"
STUCK_LAM = "stuck-lam"


def canonical_thread(t: Term) -> str:
    """Key of a thread modulo alpha plus injective renaming of its free
    variables and locations."""
    return term_key(t)[0]


def canonical_program(p: Program) -> tuple:
    """Sorted tuple of the threads' canonical keys; two programs are
    structurally equivalent iff their canonical programs are equal."""
    return tuple(sorted(canonical_thread(t) for t in p))


def struct_equiv(p: Program, q: Program) -> bool:
    return canonical_program(p) == canonical_program(q)


# ---------------------------------------------------------------------------
# Normal and stuck terms

class StuckKind(Value):
    """Which stuck rule applies, with the stuck kinds of the subterms it
    rests on; a ``Value``."""
    __slots__ = ("kind", "sub")

    def __init__(self, kind, sub=()):
        self.kind = kind
        self.sub = sub


_VALUE = object()


def _classify(t: Term):
    """One walk deciding each sub-judgment once: the stuck derivation,
    _VALUE for a value, or None for a term that is not normal.  A value
    is known from its flag, so the walk never enters one."""
    if t.value:
        return _VALUE
    head, args = spine(t)
    kinds = []
    for a in args:
        k = _classify(a)
        if k is None:
            return None
        kinds.append(k)
    # t is no value, so a variable or a constructor has arguments, and a
    # constructor has one that is no value
    if isinstance(head, Var):
        return StuckKind(STUCK_VAR)
    if isinstance(head, Cons):
        return StuckKind(STUCK_CONS, tuple(k for k in kinds if k is not _VALUE))
    if isinstance(head, AbsLoc):
        if kinds[0] is _VALUE:
            return None
        return StuckKind(STUCK_LAM, (kinds[0],))
    if isinstance(head, Guard):
        left = _classify(head.left)
        if left is None or left is _VALUE or _classify(head.right) is None:
            return None
        return StuckKind(STUCK_GUARD, (left,))
    if isinstance(head, Unif):
        sides = (_classify(head.left), _classify(head.right))
        if None in sides:
            return None
        stuck_sides = tuple(k for k in sides if k is not _VALUE)
        return StuckKind(STUCK_UNIF, stuck_sides) if stuck_sides else None
    # unallocated abstractions and fresh binders are redexes, not stuck
    return None


def is_stuck(t: Term) -> Optional[StuckKind]:
    """Derivation of the stuck judgment, or None.  A stuck term is a
    normal term that is not a value."""
    kind = _classify(t)
    return None if kind is _VALUE else kind


def is_normal_term(t: Term) -> bool:
    return _classify(t) is not None


def is_normal_program(p: Program) -> bool:
    return all(is_normal_term(t) for t in p)
