"""Reference canonical forms that ``syntax.term_key`` is checked against.

``canonicalize`` rebuilds the term with binders renamed in traversal
order and, optionally, free variables and locations renamed by first
occurrence.  ``canonical_program`` sorts the canonical threads by their
``repr``.  Both are slow and obviously correct; they live here only as
test oracles.
"""

from lamu.syntax import Abs, AbsLoc, App, Cons, Fresh, Guard, Program, Unif, Var

# Prefix reserved for machine-generated names.  The concrete syntax and
# the generator never produce identifiers starting with '%', so canonical
# names cannot collide with source names.
_CANON_PREFIX = "%"


def _canon_term(t, bound, free_map, loc_map, counters, rename_free, rename_locs):
    if isinstance(t, Var):
        if t.name in bound:
            return Var(bound[t.name])
        if rename_free:
            if t.name not in free_map:
                free_map[t.name] = f"{_CANON_PREFIX}v{len(free_map)}"
            return Var(free_map[t.name])
        return t
    if isinstance(t, Cons):
        return t
    if isinstance(t, (Abs, AbsLoc, Fresh)):
        new = f"{_CANON_PREFIX}b{counters[0]}"
        counters[0] += 1
        inner = dict(bound)
        inner[t.var] = new
        if isinstance(t, Fresh):
            body = _canon_term(t.body, inner, free_map, loc_map, counters,
                               rename_free, rename_locs)
            return Fresh(new, body)
        body = _canon_program(t.body, inner, free_map, loc_map, counters,
                              rename_free, rename_locs)
        if isinstance(t, Abs):
            return Abs(new, body)
        loc = t.loc
        if rename_locs:
            if loc not in loc_map:
                loc_map[loc] = len(loc_map)
            loc = loc_map[loc]
        return AbsLoc(loc, new, body)
    if isinstance(t, App):
        return App(
            _canon_term(t.fn, bound, free_map, loc_map, counters, rename_free, rename_locs),
            _canon_term(t.arg, bound, free_map, loc_map, counters, rename_free, rename_locs))
    if isinstance(t, Guard):
        return Guard(
            _canon_term(t.left, bound, free_map, loc_map, counters, rename_free, rename_locs),
            _canon_term(t.right, bound, free_map, loc_map, counters, rename_free, rename_locs))
    if isinstance(t, Unif):
        return Unif(
            _canon_term(t.left, bound, free_map, loc_map, counters, rename_free, rename_locs),
            _canon_term(t.right, bound, free_map, loc_map, counters, rename_free, rename_locs))
    raise TypeError(f"unexpected term {t!r}")


def _canon_program(p, bound, free_map, loc_map, counters, rename_free, rename_locs):
    return Program(tuple(
        _canon_term(t, bound, free_map, loc_map, counters, rename_free, rename_locs)
        for t in p))


def canonicalize(x, rename_free=False, rename_locs=False):
    """Rename binders in traversal order; optionally also rename free
    variables and locations by first occurrence."""
    counters = [0]
    if isinstance(x, Program):
        return _canon_program(x, {}, {}, {}, counters, rename_free, rename_locs)
    return _canon_term(x, {}, {}, {}, counters, rename_free, rename_locs)


def canonical_program(p):
    """Canonical threads in repr order; equal exactly for structurally
    equivalent programs."""
    threads = (canonicalize(t, rename_free=True, rename_locs=True) for t in p)
    return Program(tuple(sorted(threads, key=repr)))
