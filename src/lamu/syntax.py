"""Core AST: terms, programs, substitutions, the canonical key,
coherence and the fresh-name supply.

Terms and programs are immutable by contract, checked by ``test_api``;
all operations are pure functions.  A term decides whether it is a value
once, when it is built.  Binder type annotations (``ann``) are metadata
filled in by the type checker and excluded from equality, hashing and
``term_key``.  Substitution shares: a subterm without a free occurrence
of a mapped name comes back as the same object, so a substitution builds
only the nodes above the occurrences it replaces.  ``term_key`` is the
one canonical form: alpha-equivalence compares whole keys, and
structural equivalence (module ``equiv``) compares their shapes.
``check_coherent`` is the one pass before a run: a coherence walk per
thread, which also collects the names and locations to avoid, and
returns the run's ``Session``.
``==``, ``repr``, ``term_key``, ``free_vars`` and that walk use an
explicit stack, so each takes a term of any depth.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Union

OK = "Ok"

class LamuError(Exception):
    """Base class for errors raised by this package."""


class NotAValueError(LamuError):
    pass


class CoherenceError(LamuError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class Record:
    """A record over the fields in ``__slots__``.  ``==`` compares two
    records of one class field by field, leaving out a term's ``ann``
    and ``value``, and ``repr`` prints ``Class(field=value, ...)``
    without ``value``; a field that is a record or a tuple is taken
    apart on an explicit stack, so terms of any depth compare and
    print.  A record whose class writes its own ``repr`` prints by it.
    Defining ``==`` leaves a record without a hash; an immutable one is
    a ``Value``."""
    __slots__ = ()

    def __init_subclass__(cls):
        cls._compared = tuple(f for f in cls.__slots__
                              if f != "ann" and f != "value")
        cls._shown = tuple(f for f in cls.__slots__ if f != "value")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]     # pairs of fields still to compare
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            cls = type(a)
            if cls is not type(b) or (cls is tuple and len(a) != len(b)):
                return False
            if cls is tuple:
                stack.extend(zip(a, b))
            elif isinstance(a, Record):
                stack.extend([(getattr(a, f), getattr(b, f))
                              for f in cls._compared])
            elif a != b:
                return False
        return True

    def __repr__(self):
        # Explicit stack of (is it text, what to print): records that
        # print by this repr and tuples are taken apart on it, any other
        # field prints its own repr.
        out = []
        stack = [(False, self)]
        while stack:
            text, x = stack.pop()
            if text:
                out.append(x)
            elif type(x).__repr__ is Record.__repr__:
                out.append(f"{type(x).__qualname__}(")
                stack.append((True, ")"))
                shown = x._shown
                for i in range(len(shown) - 1, -1, -1):
                    stack.append((False, getattr(x, shown[i])))
                    stack.append((True, f"{', ' if i else ''}{shown[i]}="))
            elif type(x) is tuple:
                out.append("(")
                stack.append((True, ",)" if len(x) == 1 else ")"))
                for i in range(len(x) - 1, -1, -1):
                    stack.append((False, x[i]))
                    if i:
                        stack.append((True, ", "))
            else:
                out.append(repr(x))
        return "".join(out)


class Value(Record):
    """A record immutable by contract (``test_api``), hashed by its fields."""
    __slots__ = ()

    def __hash__(self):
        return hash(tuple([getattr(self, f) for f in self.__slots__]))


class _Node(Record):
    """Terms and programs: a record hashed as its ``term_key``."""
    __slots__ = ()

    def __hash__(self):
        return hash(term_key(self))


class Term(_Node):
    """``value``: whether the term is a value (a variable, a located
    abstraction, or a constructor applied to values), decided once, when
    the term is built."""
    __slots__ = ()
    value = False


class Var(Term):
    __slots__ = ("name",)
    value = True

    def __init__(self, name):
        self.name = name


class Cons(Term):
    __slots__ = ("name",)
    value = True
    __init__ = Var.__init__


class Abs(Term):
    """Unallocated abstraction; not a value until allocated."""
    __slots__ = ("var", "body", "ann")

    def __init__(self, var, body, ann=None):
        self.var = var
        self.body = body
        self.ann = ann


class AbsLoc(Term):
    """Allocated abstraction (runtime closure at a location)."""
    __slots__ = ("loc", "var", "body", "ann")
    value = True

    def __init__(self, loc, var, body, ann=None):
        self.loc = loc
        self.var = var
        self.body = body
        self.ann = ann


class App(Term):
    __slots__ = ("fn", "arg", "value")

    def __init__(self, fn, arg):
        self.fn = fn
        self.arg = arg
        self.value = arg.value and (
            type(fn) is Cons or (type(fn) is App and fn.value))


class Fresh(Term):
    __slots__ = ("var", "body", "ann")
    __init__ = Abs.__init__


class Guard(Term):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Unif(Term):
    __slots__ = ("left", "right")
    __init__ = Guard.__init__


class Program(_Node):
    """Ordered sequence of threads; the empty program is fail.  Any
    iterable of threads is stored as a tuple."""
    __slots__ = ("threads",)

    def __init__(self, threads):
        self.threads = threads if type(threads) is tuple else tuple(threads)

    @property
    def is_fail(self):
        return not self.threads

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
        elif isinstance(t, App):
            stack.extend((t.fn, t.arg))
        elif isinstance(t, (Guard, Unif)):
            stack.extend((t.left, t.right))


def free_vars(x: Union[Term, Program]) -> frozenset:
    """The free variables of x, found with an explicit stack, so x may
    be nested to any depth.  A binder pushes its variable as a marker
    below its body: popped once the body is done, it ends that
    binding."""
    out = set()
    bound = {}          # name -> how many enclosing binders bind it
    stack = [x]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is Var:
            if t.name not in bound:
                out.add(t.name)
        elif cls is App:
            stack.append(t.arg)
            stack.append(t.fn)
        elif cls is Guard or cls is Unif:
            stack.append(t.right)
            stack.append(t.left)
        elif cls is Program:
            stack.extend(t.threads)
        elif cls is str:
            n = bound[t] - 1
            if n:
                bound[t] = n
            else:
                del bound[t]
        elif cls is Abs or cls is AbsLoc or cls is Fresh:
            bound[t.var] = bound.get(t.var, 0) + 1
            stack.append(t.var)
            stack.append(t.body)
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


# ---------------------------------------------------------------------------
# Substitution

class Substitution(Record):
    """Finite map from variable names to values, identity elsewhere.
    Immutable by contract: == compares the maps, hash their items."""

    __slots__ = ("_map",)

    def __init__(self, mapping=None):
        m = {}
        for name, v in (mapping or {}).items():
            if isinstance(v, Var) and v.name == name:
                continue
            if not v.value:
                raise NotAValueError(f"substitution binds {name} to a non-value")
            m[name] = v
        self._map = m

    def __call__(self, name: str) -> Term:
        return self._map.get(name, Var(name))

    def items(self):
        return self._map.items()

    def __bool__(self):
        return bool(self._map)

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def __repr__(self):
        inner = ", ".join(f"{k} -> {v!r}" for k, v in sorted(self._map.items()))
        return f"Substitution({{{inner}}})"


def _pick_fresh(base: str, forbidden) -> str:
    candidate = base + "'"
    while candidate in forbidden:
        candidate += "'"
    return candidate


def _subst_term(t: Term, mapping: dict) -> Term:
    """t with mapping applied, sharing every subterm that holds no free
    occurrence of a mapped name: such a subterm comes back as the same
    object."""
    cls = type(t)
    if cls is Var:
        return mapping.get(t.name, t)
    if cls is App:
        fn = _subst_term(t.fn, mapping)
        arg = _subst_term(t.arg, mapping)
        if fn is t.fn and arg is t.arg:
            return t
        return App(fn, arg)
    if cls is Cons:
        return t
    if cls is Guard or cls is Unif:
        left = _subst_term(t.left, mapping)
        right = _subst_term(t.right, mapping)
        if left is t.left and right is t.right:
            return t
        return cls(left, right)
    if cls is Abs or cls is AbsLoc or cls is Fresh:
        return _subst_binder(t, mapping)
    raise TypeError(f"unexpected term {t!r}")


def _subst_binder(t: Term, mapping: dict) -> Term:
    """An abstraction or fresh binder with mapping applied to its body.
    The body is substituted first; only when it changed, and a value
    holds the binder's variable free, does the capture check walk the
    body.  Then the values that the body uses decide it, as in the
    textbook rule: the binder is renamed to a name free in none of
    them, in the body, nor among the mapped names."""
    var = t.var
    inner = mapping
    if var in mapping:
        inner = {k: v for k, v in mapping.items() if k != var}
        if not inner:
            return t
    body = _subst(t.body, inner)
    if body is t.body:
        return t
    if any(var in free_vars(v) for v in inner.values()):
        body_fv = free_vars(t.body)
        inner = {k: v for k, v in inner.items() if k in body_fv}
        captured = set()
        for v in inner.values():
            captured |= free_vars(v)
        if var in captured:
            new = _pick_fresh(var, captured | body_fv | set(inner))
            body = _subst(_subst(t.body, {var: Var(new)}), inner)
            var = new
    if type(t) is AbsLoc:
        return AbsLoc(t.loc, var, body, t.ann)
    return type(t)(var, body, t.ann)    # Abs and Fresh alike


def _subst(x, mapping: dict):
    """x with mapping applied: x itself when no thread changed, so a
    program's threads are then the same tuple."""
    if type(x) is not Program:
        return _subst_term(x, mapping)
    out = [_subst_term(t, mapping) for t in x.threads]
    for s, t in zip(out, x.threads):
        if s is not t:
            return Program(tuple(out))
    return x


def subst_apply(x, sigma: Substitution):
    """Simultaneous capture-avoiding substitution."""
    return _subst(x, sigma._map)


def subst_single(x, name: str, value: Term):
    """x with value for name, which must be a value."""
    if not value.value:
        raise NotAValueError(f"substitution binds {name} to a non-value")
    return _subst(x, {name: value})


# ---------------------------------------------------------------------------
# Canonical key: alpha equivalence and structural equivalence

# term_key's tokens for the first de Bruijn indices, free-name and
# location numbers and thread counts; it formats larger ones as it meets
# them.
_TOKENS = 64
_BOUND_TOKENS = tuple(f"b{i}" for i in range(_TOKENS))
_FREE_TOKENS = tuple(f"v{i}" for i in range(_TOKENS))
_LOC_TOKENS = tuple(f"L{i}" for i in range(_TOKENS))
_THREADS_TOKENS = tuple(f"P{i}" for i in range(_TOKENS))


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
    append = out.append
    bound = {}          # binder name -> depth of its innermost binding
    free = {}           # free name -> its token, in first-occurrence order
    locs = {}           # location -> its token, in first-occurrence order
    # Explicit stack, so nesting depth is not bounded by Python's
    # recursion limit.  The walk descends into the left child at once and
    # pushes the right one; a binder pushes (variable, outer binding),
    # popped when its body is done to restore the binding and the depth.
    stack = [x]
    push = stack.append
    depth = 0
    while stack:
        t = stack.pop()
        while True:
            cls = type(t)
            if cls is App:
                append("@")
                push(t.arg)
                t = t.fn
            elif cls is Var:
                level = bound.get(t.name)
                if level is None:
                    token = free.get(t.name)
                    if token is None:
                        n = len(free)
                        token = free[t.name] = (
                            _FREE_TOKENS[n] if n < _TOKENS else f"v{n}")
                    append(token)
                else:
                    n = depth - level
                    append(_BOUND_TOKENS[n] if n < _TOKENS else f"b{n}")
                break
            elif cls is Cons:
                append(f"c{len(t.name)}:{t.name}")
                break
            elif cls is Guard or cls is Unif:
                append(";" if cls is Guard else "=")
                push(t.right)
                t = t.left
            elif cls is Program:
                n = len(t.threads)
                append(_THREADS_TOKENS[n] if n < _TOKENS else f"P{n}")
                stack.extend(reversed(t.threads))
                break
            elif cls is tuple:
                var, outer = t
                depth -= 1
                if outer is None:
                    del bound[var]
                else:
                    bound[var] = outer
                break
            elif cls is Abs or cls is AbsLoc or cls is Fresh:
                if cls is AbsLoc:
                    token = locs.get(t.loc)
                    if token is None:
                        n = len(locs)
                        token = locs[t.loc] = (
                            _LOC_TOKENS[n] if n < _TOKENS else f"L{n}")
                    append(token)
                else:
                    append("\\" if cls is Abs else "F")
                push((t.var, bound.get(t.var)))
                bound[t.var] = depth
                depth += 1
                t = t.body
            else:
                raise TypeError(f"unexpected term {t!r}")
    return "".join(out), tuple(free), tuple(locs)


def alpha_eq(a, b) -> bool:
    """Equality up to renaming of bound variables."""
    return term_key(a) == term_key(b)


# ---------------------------------------------------------------------------
# Coherence

def _coherence_walk(terms: tuple, names: set):
    """The walk behind coherence_witness and check_coherent: the
    closures in pre-order, each with the names bound above it, on an
    explicit stack that also adds every name, free or bound, to names.
    Returns (witness, by_loc): the first closure that captures a name,
    else the first location whose closures differ, else None; and each
    location's closures."""
    by_loc = {}
    stack = [(t, frozenset()) for t in reversed(terms)]
    while stack:
        t, bound = stack.pop()
        cls = type(t)
        if cls is Var:
            names.add(t.name)
        elif cls is App:
            stack.extend(((t.arg, bound), (t.fn, bound)))
        elif cls is Guard or cls is Unif:
            stack.extend(((t.right, bound), (t.left, bound)))
        elif cls is Abs or cls is AbsLoc or cls is Fresh:
            names.add(t.var)
            if cls is AbsLoc:
                captured = bound and free_vars(t) & bound
                if captured:
                    return ("captured-variable", t, sorted(captured)), by_loc
                by_loc.setdefault(t.loc, []).append(t)
            inner = bound | {t.var}
            body = (t.body,) if cls is Fresh else t.body.threads
            stack.extend((th, inner) for th in reversed(body))
    for loc, nodes in by_loc.items():
        first = nodes[0]
        for other in nodes[1:]:
            if not alpha_eq(first, other):
                return ("location-mismatch", loc, first, other), by_loc
    return None, by_loc


def coherence_witness(terms: Iterable[Term]):
    """None if the set of terms is coherent, else a description of the
    violated condition.  The terms are judged jointly, as criterion 6
    judges the sides of a unification problem; check_coherent judges a
    program thread by thread."""
    return _coherence_walk(tuple(terms), set())[0]


def check_coherent(p: Program) -> "Session":
    """The session of a run of p, from one coherence walk per thread,
    since threads never interact: CoherenceError at the first thread
    that is not coherent, else a session that avoids every name in p,
    free or bound, and issues locations from just above p's largest
    one, else from 1."""
    names, locs = set(), set()
    for i, t in enumerate(p.threads):
        witness, by_loc = _coherence_walk((t,), names)
        if witness is not None:
            raise CoherenceError(
                f"thread {i} violates coherence: {witness[0]}", witness)
        locs.update(by_loc)
    return Session(avoid=names, first_loc=max(locs) + 1 if locs else 1)


# ---------------------------------------------------------------------------
# Fresh-name and location supplies

class Session:
    """Per-run supplies of fresh variable names and locations, the run's
    two memos, and, for a leftmost ``evaluate``, its node table.

    Names are never re-issued; the avoid set should contain every name
    occurring in the program under evaluation, as in the session that
    ``check_coherent`` returns for a run.

    ``betas`` maps ``(id(fn), id(arg))`` to ``(fn, arg, threads)``: the
    threads a beta step got by substituting the value ``arg`` into the
    body of the closure ``fn``.  ``unifications`` maps ``(id(left),
    id(right))`` to ``(left, right, outcome)``: the ``unify.mgu_goal``
    outcome with which a step contracted a ``Unif`` of those two value
    sides, by unif or by fail.  ``reduction.step_at`` alone reads and
    writes both tables; the redex search takes neither.  Terms are
    immutable, so the same two objects always give the same result.  The
    memos are keyed by identity, since hashing a term walks all of it;
    an entry holds both objects, so their ids name that one pair while
    the session lives.  The tables are separate because a ``Unif``'s
    sides may be an ``App``'s two halves.

    ``nodes`` is None, or under a leftmost ``reduction.evaluate`` the
    run's node table: it maps ``(class, id(left), id(right))`` to the
    ``App``, ``Guard`` or ``Unif`` that ``step_at`` rebuilt of those two
    children, so each is built once in the run and then shared; these
    carry no ``ann``.  ``evaluate`` keeps beside it a memo from a thread
    to the step it took, which alloc and fresh steps never enter, since
    each issues a new location or variable.
    """

    def __init__(self, avoid=(), first_loc=1):
        self._used = set(avoid)
        self._var_n = 0
        self._loc_n = first_loc
        self.betas = {}
        self.unifications = {}
        self.nodes = None

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
