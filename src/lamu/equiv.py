"""Structural equivalence, canonical thread keys, and the normal/stuck
term classifier.

Structural equivalence quotients programs by thread reordering plus
injective renaming of thread-local free variables and locations.  It is
decided by the shape part of ``syntax.term_key``: a thread's shape is
its canonical key, and a program's key is the sorted tuple of its
threads' shapes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    AbsLoc, Cons, Guard, Program, Term, Unif, Var, is_value, spine,
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

@dataclass(frozen=True)
class StuckKind:
    kind: str
    sub: tuple = ()


def is_stuck(t: Term) -> Optional[StuckKind]:
    """Derivation of the stuck judgment, or None.  A stuck term is a
    normal term that is not a value."""
    head, args = spine(t)
    arg_kinds = []
    for a in args:
        if not is_normal_term(a):
            return None
        arg_kinds.append(is_stuck(a))
    if isinstance(head, Var):
        if args:
            return StuckKind(STUCK_VAR)
        return None
    if isinstance(head, Cons):
        stuck_args = tuple(k for k in arg_kinds if k is not None)
        if stuck_args:
            return StuckKind(STUCK_CONS, stuck_args)
        return None
    if isinstance(head, Guard):
        left = is_stuck(head.left)
        if left is not None and is_normal_term(head.right):
            return StuckKind(STUCK_GUARD, (left,))
        return None
    if isinstance(head, Unif):
        if not (is_normal_term(head.left) and is_normal_term(head.right)):
            return None
        sides = tuple(k for k in (is_stuck(head.left), is_stuck(head.right))
                      if k is not None)
        if sides:
            return StuckKind(STUCK_UNIF, sides)
        return None
    if isinstance(head, AbsLoc):
        if args and arg_kinds[0] is not None:
            return StuckKind(STUCK_LAM, (arg_kinds[0],))
        return None
    # unallocated abstractions and fresh binders are redexes, not stuck
    return None


def is_normal_term(t: Term) -> bool:
    return is_value(t) or is_stuck(t) is not None


def is_normal_program(p: Program) -> bool:
    return all(is_normal_term(t) for t in p)
