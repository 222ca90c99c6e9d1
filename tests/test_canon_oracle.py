"""The canonical key ``syntax.term_key`` against the reference forms in
``canon_oracle``: alpha-equivalence and structural equivalence, also
on every program that the product-space explorer meets."""

import random

from canon_oracle import canonical_program as oracle_program, canonicalize
from helpers import (
    criterion_4_programs, draw_value, equivalent_variant, product_bfs,
    small_values,
)
from lamu.equiv import canonical_program, canonical_thread, struct_equiv
from lamu.generator import Generator, GeneratorConfig
from lamu.syntax import (
    Abs, AbsLoc, App, Cons, Fresh, Guard, Program, Unif, Var, alpha_eq,
    singleton, subterms, term_key,
)
from lamu.typecheck import Base

X, Y, Z = Var("x"), Var("y"), Var("z")
C, D = Cons("C"), Cons("D")
ID1 = AbsLoc(1, "x", singleton(X))
ID2 = AbsLoc(2, "x", singleton(X))
# a constructor that generated programs never use, so the edits that put
# it in always change the term
HOLE_LEAF = Cons("Hole")


# -- the oracle itself

def test_canonicalize_free_and_locs():
    a = canonicalize(App(X, Y), rename_free=True)
    b = canonicalize(App(Z, X), rename_free=True)
    assert a == b
    assert canonicalize(ID1, rename_locs=True) == canonicalize(ID2, rename_locs=True)


def test_canonicalize_idempotent():
    # every value of up to 3 leaves, and 100 drawn of up to 6
    rng = random.Random(3)
    values = small_values(3) + [draw_value(rng) for _ in range(100)]
    assert len(values) == 1_155
    for v in values:
        c = canonicalize(v, rename_free=True, rename_locs=True)
        assert canonicalize(c, rename_free=True, rename_locs=True) == c, v


# -- the five conditions on the key

def test_key_ignores_annotations():
    assert alpha_eq(Abs("x", singleton(X), Base("i")), Abs("y", singleton(Y)))
    assert alpha_eq(Fresh("x", X, Base("i")), Fresh("x", X))


def test_key_encodes_constructor_names_injectively():
    # without length prefixes both would read "@cA@cBcC"
    assert not alpha_eq(App(Cons("A@cB"), C), App(Cons("A"), App(Cons("B"), C)))
    assert not alpha_eq(Cons("C1"), Cons("C"))
    assert canonical_thread(Cons("CD")) != canonical_thread(App(C, D))


def test_alpha_view_keeps_order_names_and_locations():
    assert not alpha_eq(Program((X, C)), Program((C, X)))
    assert not alpha_eq(X, Y)
    assert not alpha_eq(ID1, ID2)
    assert not alpha_eq(singleton(X), X)
    assert alpha_eq(Abs("x", singleton(App(X, Y))), Abs("z", singleton(App(Z, Y))))
    assert term_key(App(Y, ID2)) == ("@v0L0P1b1", ("y",), (2,))


def test_key_of_a_deep_term_returns():
    # the S (S (... C)) value that a thread growing one level per split
    # builds, and a binder tower over it: a key that recursed once per
    # level raised RecursionError at about 1 000 levels
    tower = C
    for _ in range(10_000):
        tower = App(Cons("S"), tower)
    assert alpha_eq(tower, tower) and not alpha_eq(tower, tower.arg)
    assert canonical_thread(tower) == "@c1:S" * 10_000 + "c1:C"
    binders = App(X, tower)
    for name in ("x", "y") * 5_000:
        binders = Fresh(name, binders)
    assert alpha_eq(binders, Fresh("z", binders.body))
    assert canonical_thread(binders).startswith("F" * 10_000 + "@b1@c1:S")


def test_equiv_view_renames_per_thread():
    assert canonical_thread(App(X, ID1)) == canonical_thread(App(Y, ID2))
    assert canonical_thread(App(X, X)) != canonical_thread(App(X, Y))
    assert struct_equiv(Program((App(X, ID1), App(X, ID2))),
                        Program((App(Y, ID2), App(Z, ID2))))
    assert not struct_equiv(singleton(Unif(ID1, ID1)), singleton(Unif(ID1, ID2)))


# -- generator pairs: equal variants and one-edit mutants

def _rename_bound(x, env, counter):
    """Every binder renamed to a new name: an alpha-variant of x."""
    if isinstance(x, Program):
        return Program(tuple(_rename_bound(t, env, counter) for t in x))
    if isinstance(x, Var):
        return Var(env.get(x.name, x.name))
    if isinstance(x, (Abs, AbsLoc, Fresh)):
        counter[0] += 1
        new = f"r{counter[0]}"
        body = _rename_bound(x.body, {**env, x.var: new}, counter)
        if isinstance(x, AbsLoc):
            return AbsLoc(x.loc, new, body)
        return type(x)(new, body)
    return _map_children(x, lambda c: _rename_bound(c, env, counter))


def _map_children(t, f):
    if isinstance(t, App):
        return App(f(t.fn), f(t.arg))
    if isinstance(t, (Guard, Unif)):
        return type(t)(f(t.left), f(t.right))
    if isinstance(t, Abs):
        return Abs(t.var, f(t.body))
    if isinstance(t, AbsLoc):
        return AbsLoc(t.loc, t.var, f(t.body))
    if isinstance(t, Fresh):
        return Fresh(t.var, f(t.body))
    if isinstance(t, Program):
        return Program(tuple(f(c) for c in t))
    return t


def _edit(t, rng):
    if isinstance(t, Var):
        return rng.choice([Var(rng.choice("xyzw")), HOLE_LEAF])
    if isinstance(t, Cons):
        return Cons(rng.choice("CDSP"))
    if isinstance(t, AbsLoc):
        return AbsLoc(t.loc + rng.choice((0, 1)), rng.choice("xyz"), t.body)
    if isinstance(t, (Abs, Fresh)):
        return type(t)(rng.choice("xyz"), t.body)
    if isinstance(t, App):
        return rng.choice([App(t.arg, t.fn), Unif(t.fn, t.arg), HOLE_LEAF])
    if isinstance(t, (Guard, Unif)):
        return rng.choice([type(t)(t.right, t.left), App(t.left, t.right), HOLE_LEAF])
    return Var("x")


def _mutant(p, rng):
    """p with one node, chosen uniformly, edited; or one thread-level
    edit (drop, duplicate, swap)."""
    if p.is_fail:
        return singleton(X)
    size = sum(1 for _ in subterms(p))
    target = rng.randrange(size + 3)
    threads = list(p)
    if target == size:
        del threads[rng.randrange(len(threads))]
    elif target == size + 1:
        threads.append(rng.choice(threads))
    elif target == size + 2:
        threads.reverse()
    else:
        seen = [-1]

        def walk(t):
            if not isinstance(t, Program):
                seen[0] += 1
                if seen[0] == target:
                    return _edit(t, rng)
            return _map_children(t, walk)

        return walk(p)
    return Program(tuple(threads))


def _pairs(n, seed):
    rng = random.Random(seed)
    gen = Generator(GeneratorConfig(seed=seed, max_depth=3))
    for _ in range(n):
        p = gen.program()
        m = _mutant(p, rng)
        yield p, _rename_bound(p, {}, [0])
        yield p, equivalent_variant(p, rng)
        yield p, m
        yield m, _rename_bound(m, {}, [0])
        yield m, _mutant(m, rng)


def test_alpha_key_agrees_with_oracle():
    outcomes = []
    for a, b in _pairs(300, seed=5):
        for x, y in [(a, b)] + list(zip(a, b)):
            expected = canonicalize(x) == canonicalize(y)
            assert (term_key(x) == term_key(y)) == expected, (x, y)
            assert alpha_eq(x, y) == expected
            outcomes.append(expected)
    assert outcomes.count(True) > 300 and outcomes.count(False) > 300
    assert any(t == HOLE_LEAF for _, b in _pairs(50, seed=5) for t in subterms(b))


def test_equiv_key_agrees_with_oracle():
    outcomes = []
    for a, b in _pairs(300, seed=6):
        for s, t in zip(a, b):
            expected = (canonicalize(s, rename_free=True, rename_locs=True)
                        == canonicalize(t, rename_free=True, rename_locs=True))
            assert (canonical_thread(s) == canonical_thread(t)) == expected, (s, t)
        expected = oracle_program(a) == oracle_program(b)
        assert (canonical_program(a) == canonical_program(b)) == expected, (a, b)
        assert struct_equiv(a, b) == expected
        outcomes.append(expected)
    assert outcomes.count(True) > 300 and outcomes.count(False) > 300


# -- the product-space explorer keyed by canonical_program: its key parts
# every program the explorer meets as the oracle's key does

def test_explorer_matches_oracle_keyed_explorer():
    programs = list(criterion_4_programs(60))
    bounds = dict(fuel=60, max_states=300)
    explorations = []
    for p in programs:
        met = []
        explorations.append(product_bfs(
            p, lambda q: met.append(q) or canonical_program(q), **bounds))
        pairs = {(canonical_program(q), oracle_program(q)) for q in met}
        assert len(pairs) == len({f for f, _ in pairs}) \
            == len({s for _, s in pairs}), p
    assert any(not ex.complete for ex in explorations)
    assert sum(ex.states for ex in explorations) > 50 * len(explorations)
