"""Core AST: terms, programs, substitutions, the canonical key,
coherence.

Terms and programs are immutable; all operations are pure functions.
Binder type annotations (``ann``) are metadata filled in by the type
checker and excluded from equality, hashing and ``term_key``.
``term_key`` is the one canonical form: alpha-equivalence compares whole
keys, and structural equivalence (module ``equiv``) compares their
shapes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

OK = "Ok"

class LamuError(Exception):
    """Base class for errors raised by this package."""


class NotAValueError(LamuError):
    pass


class CoherenceError(LamuError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Cons(Term):
    name: str


@dataclass(frozen=True)
class Abs(Term):
    """Unallocated abstraction; not a value until allocated."""
    var: str
    body: "Program"
    ann: Optional[object] = field(default=None, compare=False)


@dataclass(frozen=True)
class AbsLoc(Term):
    """Allocated abstraction (runtime closure at a location)."""
    loc: int
    var: str
    body: "Program"
    ann: Optional[object] = field(default=None, compare=False)


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Fresh(Term):
    var: str
    body: Term
    ann: Optional[object] = field(default=None, compare=False)


@dataclass(frozen=True)
class Guard(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Unif(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Program:
    """Ordered sequence of threads; the empty program is fail."""
    threads: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "threads", tuple(self.threads))

    @property
    def is_fail(self):
        return not self.threads

    def __add__(self, other: "Program") -> "Program":
        return Program(self.threads + other.threads)

    def __iter__(self):
        return iter(self.threads)

    def __len__(self):
        return len(self.threads)

    def __getitem__(self, i):
        return self.threads[i]


FAIL = Program(())


def singleton(t: Term) -> Program:
    return Program((t,))


# ---------------------------------------------------------------------------
# Structural queries

def _children(t: Term):
    if isinstance(t, App):
        return (t.fn, t.arg)
    if isinstance(t, Guard):
        return (t.left, t.right)
    if isinstance(t, Unif):
        return (t.left, t.right)
    return ()


def subterms(x: Union[Term, Program]) -> Iterator[Term]:
    """All subterms, entering binders."""
    stack = list(x.threads) if isinstance(x, Program) else [x]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, (Abs, AbsLoc)):
            stack.extend(t.body.threads)
        elif isinstance(t, Fresh):
            stack.append(t.body)
        else:
            stack.extend(_children(t))


def free_vars(x: Union[Term, Program]) -> frozenset:
    if isinstance(x, Program):
        out = frozenset()
        for t in x:
            out |= free_vars(t)
        return out
    if isinstance(x, Var):
        return frozenset((x.name,))
    if isinstance(x, Cons):
        return frozenset()
    if isinstance(x, (Abs, AbsLoc)):
        return free_vars(x.body) - {x.var}
    if isinstance(x, Fresh):
        return free_vars(x.body) - {x.var}
    out = frozenset()
    for c in _children(x):
        out |= free_vars(c)
    return out


def locations(x: Union[Term, Program]) -> frozenset:
    out = set()
    for t in subterms(x):
        if isinstance(t, AbsLoc):
            out.add(t.loc)
    return frozenset(out)


def all_names(x: Union[Term, Program]) -> frozenset:
    """Every variable name occurring in x, free or bound."""
    out = set()
    for t in subterms(x):
        if isinstance(t, Var):
            out.add(t.name)
        elif isinstance(t, (Abs, AbsLoc, Fresh)):
            out.add(t.var)
    return frozenset(out)


def spine(t: Term):
    """Decompose t = h a1 ... an into (h, [a1, ..., an])."""
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def make_spine(head: Term, args: Iterable[Term]) -> Term:
    for a in args:
        head = App(head, a)
    return head


def is_value(t: Term) -> bool:
    """A variable, a located abstraction, or a constructor applied to
    values; an explicit stack, so any depth is fine."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, (Var, AbsLoc)):
            continue
        head, args = spine(t)
        if not isinstance(head, Cons):
            return False
        stack.extend(args)
    return True


# ---------------------------------------------------------------------------
# Substitution

class Substitution:
    """Finite map from variable names to values, identity elsewhere."""

    __slots__ = ("_map",)

    def __init__(self, mapping=None):
        m = {}
        for name, v in (mapping or {}).items():
            if isinstance(v, Var) and v.name == name:
                continue
            if not is_value(v):
                raise NotAValueError(f"substitution binds {name} to a non-value")
            m[name] = v
        self._map = m

    def __call__(self, name: str) -> Term:
        return self._map.get(name, Var(name))

    def items(self):
        return self._map.items()

    def __bool__(self):
        return bool(self._map)

    def __repr__(self):
        inner = ", ".join(f"{k} -> {v!r}" for k, v in sorted(self._map.items()))
        return f"Substitution({{{inner}}})"


def _pick_fresh(base: str, forbidden) -> str:
    candidate = base + "'"
    while candidate in forbidden:
        candidate += "'"
    return candidate


def _subst_term(t: Term, mapping: dict) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Cons):
        return t
    if isinstance(t, App):
        return App(_subst_term(t.fn, mapping), _subst_term(t.arg, mapping))
    if isinstance(t, Guard):
        return Guard(_subst_term(t.left, mapping), _subst_term(t.right, mapping))
    if isinstance(t, Unif):
        return Unif(_subst_term(t.left, mapping), _subst_term(t.right, mapping))
    if isinstance(t, (Abs, AbsLoc, Fresh)):
        body_fv = free_vars(t.body)
        inner = {k: v for k, v in mapping.items()
                 if k != t.var and k in body_fv}
        if not inner:
            return t
        var = t.var
        body = t.body
        captured = set()
        for v in inner.values():
            captured |= free_vars(v)
        if var in captured:
            forbidden = captured | body_fv | set(inner)
            new = _pick_fresh(var, forbidden)
            rename = {var: Var(new)}
            if isinstance(t, Fresh):
                body = _subst_term(body, rename)
            else:
                body = _subst_program(body, rename)
            var = new
        if isinstance(t, Abs):
            return Abs(var, _subst_program(body, inner), t.ann)
        if isinstance(t, AbsLoc):
            return AbsLoc(t.loc, var, _subst_program(body, inner), t.ann)
        return Fresh(var, _subst_term(body, inner), t.ann)
    raise TypeError(f"unexpected term {t!r}")


def _subst_program(p: Program, mapping: dict) -> Program:
    return Program(tuple(_subst_term(t, mapping) for t in p))


def subst_apply(x, sigma: Substitution):
    """Simultaneous capture-avoiding substitution."""
    mapping = dict(sigma.items())
    if isinstance(x, Program):
        return _subst_program(x, mapping)
    return _subst_term(x, mapping)


def subst_single(x, name: str, value: Term):
    """x with value for name; Substitution rejects a non-value."""
    return subst_apply(x, Substitution({name: value}))


# ---------------------------------------------------------------------------
# Canonical key: alpha equivalence and structural equivalence

def term_key(x):
    """Canonical key of a term or program, built in one traversal.

    Returns ``(shape, free, locs)``.  ``shape`` is a string in prefix
    form: binders become de Bruijn indices, free variables and locations
    become their first-occurrence numbers, constructor names are
    length-prefixed, and ``ann`` is dropped.  ``free`` and ``locs`` list
    the free names and the locations in that numbering.  The whole key
    is equal exactly for alpha-equivalent inputs; the shape alone is
    equal exactly up to an injective renaming of free names and
    locations as well.
    """
    out = []
    bound = {}          # binder name -> depth of its innermost binding
    free = {}
    locs = {}

    def program(p, depth):
        out.append(f"P{len(p.threads)}")
        for t in p.threads:
            term(t, depth)

    def term(t, depth):
        cls = type(t)
        if cls is Var:
            level = bound.get(t.name)
            if level is None:
                out.append(f"v{free.setdefault(t.name, len(free))}")
            else:
                out.append(f"b{depth - level}")
        elif cls is Cons:
            out.append(f"c{len(t.name)}:{t.name}")
        elif cls is App:
            out.append("@")
            term(t.fn, depth)
            term(t.arg, depth)
        elif cls is Guard or cls is Unif:
            out.append(";" if cls is Guard else "=")
            term(t.left, depth)
            term(t.right, depth)
        elif cls is Abs or cls is AbsLoc or cls is Fresh:
            if cls is AbsLoc:
                out.append(f"L{locs.setdefault(t.loc, len(locs))}")
            else:
                out.append("\\" if cls is Abs else "F")
            outer = bound.get(t.var)
            bound[t.var] = depth
            if cls is Fresh:
                term(t.body, depth + 1)
            else:
                program(t.body, depth + 1)
            if outer is None:
                del bound[t.var]
            else:
                bound[t.var] = outer
        else:
            raise TypeError(f"unexpected term {t!r}")

    if isinstance(x, Program):
        program(x, 0)
    else:
        term(x, 0)
    return "".join(out), tuple(free), tuple(locs)


def alpha_eq(a, b) -> bool:
    """Equality up to renaming of bound variables."""
    return term_key(a) == term_key(b)


# ---------------------------------------------------------------------------
# Coherence

def _abslocs_with_bound(t: Term, bound: frozenset, out: list):
    if isinstance(t, (Var, Cons)):
        return
    if isinstance(t, Abs):
        for th in t.body:
            _abslocs_with_bound(th, bound | {t.var}, out)
        return
    if isinstance(t, AbsLoc):
        out.append((t, bound))
        for th in t.body:
            _abslocs_with_bound(th, bound | {t.var}, out)
        return
    if isinstance(t, Fresh):
        _abslocs_with_bound(t.body, bound | {t.var}, out)
        return
    for c in _children(t):
        _abslocs_with_bound(c, bound, out)


def coherence_witness(terms: Iterable[Term]):
    """None if the set of terms is coherent, else a description of the
    violated condition."""
    occurrences = []
    for t in terms:
        _abslocs_with_bound(t, frozenset(), occurrences)
    by_loc = {}
    for node, bound in occurrences:
        captured = free_vars(node) & bound
        if captured:
            return ("captured-variable", node, sorted(captured))
        by_loc.setdefault(node.loc, []).append(node)
    for loc, nodes in by_loc.items():
        first = nodes[0]
        for other in nodes[1:]:
            if not alpha_eq(first, other):
                return ("location-mismatch", loc, first, other)
    return None


def check_coherent(p: Program):
    for i, t in enumerate(p):
        w = coherence_witness([t])
        if w is not None:
            raise CoherenceError(f"thread {i} violates coherence: {w[0]}", w)


# ---------------------------------------------------------------------------
# Fresh-name and location supplies

class Session:
    """Per-evaluation supplies of fresh variable names and locations.

    Names are never re-issued; the avoid set should contain every name
    occurring in the program under evaluation.
    """

    def __init__(self, avoid=(), first_loc=1):
        self._used = set(avoid)
        self._var_n = 0
        self._loc_n = first_loc

    @classmethod
    def for_program(cls, p: Program) -> "Session":
        locs = locations(p)
        first = (max(locs) + 1) if locs else 1
        return cls(avoid=all_names(p), first_loc=first)

    def fresh_var(self) -> str:
        while True:
            name = f"v{self._var_n}"
            self._var_n += 1
            if name not in self._used:
                self._used.add(name)
                return name

    def fresh_loc(self) -> int:
        loc = self._loc_n
        self._loc_n += 1
        return loc
