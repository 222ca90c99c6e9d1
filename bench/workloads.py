"""Seeded inputs and checked runners for the three benchmark workloads.

Each workload is a fixed list of inputs taken from the streams the
acceptance criteria use, so its cost structure (which inputs hit the
exploration bound, how many steps each takes) is the same on every run:

- ``confluence``: the first 40 programs of the criterion 4/9 stream
  (``GeneratorConfig(seed=7, max_depth=4)``), the 10-instance
  critical-pair family, and one program that grows without end.
- ``fork-eval``: the k-fork ladder for k = 2..10, omega under fuel, and
  the five corpus files through ``lamu run``.
- ``typed``: the criterion 6, 7, 8 and 10 streams (seeds 13, 19, 29, 43).

The ``--seed`` changes the concrete inputs, not their cost: every
variable name gets a seeded suffix and every location a seeded offset.
Both renamings are injective and keep the order of names, so they are
isomorphisms of the calculus; verdicts, state counts and step counts are
the same for every seed. That is what lets runs on different seeds be
compared, although single inputs differ in cost by four orders of
magnitude.

Nothing here imports lamu at module level: ``build`` receives the freshly
imported modules, so that set-up can be timed from the import on.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

# copies of the tests/corpus files, so that the workload stays the same
# when the test corpus grows
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

# hand-written expected stdout and exit code of `lamu run FILE`
CORPUS_EXPECTED = {
    "defs.luni": ("C", 0),
    "fresh_solve.luni": ("C", 0),
    "ill_typed.luni": ("fail", 1),
    "trace.luni": ("C D | D", 0),
    "unify_pair.luni": ("Ok", 0),
}

CONFLUENCE_SAMPLES = 40      # holds one bound-limited sample (index 26)
LADDER = range(2, 11)
OMEGA_FUEL = 5000
MGU_PROBLEMS = 1000
SUBJECT_PROGRAMS = 300
SOUNDNESS_PROGRAMS = 215     # criterion 8 needs 215 draws for 200 checked
ROUND_TRIP_PROGRAMS = 300

# A thread that keeps spawning a `C` thread: its states up to ≡ never
# repeat, so every sound explorer must report it as bound-limited.  It
# keeps `undecided_ratio` above 0 once generated samples all complete.
DIVERGENT = r"(\x. x x | C) (\x. x x | C)"


@dataclass
class Outcome:
    ok: bool              # output checked and correct
    decided: bool         # a full verdict, not cut by a bound or a skip
    steps: int = 0        # small-step reductions the results report
    note: str = ""        # why an input failed or was undecided


@dataclass
class Item:
    name: str
    input: object         # the input as lamu receives it; its repr is hashed
    run: Callable[[], Outcome]


class Renamer:
    """Order-preserving injective renaming of variables and locations."""

    def __init__(self, syntax, seed: int):
        rng = random.Random(seed)
        self.suffix = "_" + "".join(rng.choice(string.ascii_lowercase)
                                    for _ in range(3))
        self.loc_offset = rng.randrange(1000, 9000)
        self.s = syntax

    def name(self, n: str) -> str:
        return n + self.suffix

    def term(self, t):
        s = self.s
        if isinstance(t, s.Var):
            return s.Var(self.name(t.name))
        if isinstance(t, s.Cons):
            return t
        if isinstance(t, s.Abs):
            return s.Abs(self.name(t.var), self.program(t.body), t.ann)
        if isinstance(t, s.AbsLoc):
            return s.AbsLoc(t.loc + self.loc_offset, self.name(t.var),
                            self.program(t.body), t.ann)
        if isinstance(t, s.Fresh):
            return s.Fresh(self.name(t.var), self.term(t.body), t.ann)
        if isinstance(t, s.App):
            return s.App(self.term(t.fn), self.term(t.arg))
        if isinstance(t, (s.Guard, s.Unif)):
            return type(t)(self.term(t.left), self.term(t.right))
        raise TypeError(f"unexpected term {t!r}")

    def program(self, p):
        return self.s.Program(tuple(self.term(t) for t in p))


def build(workload: str, lm, seed: int) -> List[Item]:
    """The workload's inputs for this seed, each with its checked runner."""
    return BY_NAME[workload](lm, Renamer(lm.syntax, seed))


# ---------------------------------------------------------------------------
# confluence

def _critical_pairs(s):
    """(v1 =:= v2) (w1 =:= w2) t with both goals solvable (criterion 4)."""
    x, y, z = s.Var("x"), s.Var("y"), s.Var("z")
    C, D = s.Cons("C"), s.Cons("D")
    S = lambda v: s.App(s.Cons("S"), v)
    P = lambda v, w: s.App(s.App(s.Cons("P"), v), w)
    return [
        (x, C, y, D, P(x, y)),
        (x, S(y), y, C, P(x, y)),
        (x, y, y, D, P(x, y)),
        (P(x, y), P(C, D), x, C, P(y, x)),
        (x, C, x, y, P(x, y)),
        (S(x), S(C), y, S(x), P(x, y)),
        (x, s.AbsLoc(1, "v", s.singleton(s.Var("v"))), y, C, P(x, y)),
        (P(x, C), P(D, y), z, S(x), P(z, y)),
        (x, y, z, D, P(x, z)),
        (S(S(x)), S(S(C)), y, x, P(x, y)),
    ]


def _explore_sample(lm, p) -> Outcome:
    """Criteria 4 and 9 on one program: every complete exploration has
    one normal form, and both evaluators agree with it up to ≡."""
    ex = lm.reduction.reachable_normal_forms(p, fuel=200, max_states=10_000)
    ev = lm.reduction.evaluate(p, fuel=5000)
    pv = lm.parallel.par_normalize(p, fuel=300)
    if ev.normal != pv.normal:
        return Outcome(False, False, ev.steps, "evaluators disagree on termination")
    if ev.normal and not lm.equiv.struct_equiv(ev.program, pv.program):
        return Outcome(False, False, ev.steps, "evaluators disagree up to ≡")
    if ex.complete:
        if len(ex.normal_forms) != 1:
            return Outcome(False, False, ev.steps,
                           f"{len(ex.normal_forms)} normal forms")
        if ev.normal and lm.equiv.canonical_program(ev.program) not in ex.normal_forms:
            return Outcome(False, False, ev.steps,
                           "evaluate missed the explored normal form")
    decided = ex.complete and ev.normal
    return Outcome(True, decided, ev.steps,
                   "" if decided else f"bound-limited at {ex.states} states")


def _critical_pair(lm, p) -> Outcome:
    ex = lm.reduction.reachable_normal_forms(p, fuel=200, max_states=10_000)
    ok = ex.complete and len(ex.normal_forms) == 1
    return Outcome(ok, ex.complete, 0,
                   "" if ok else f"complete={ex.complete}, "
                                 f"{len(ex.normal_forms)} normal forms")


def build_confluence(lm, rn: Renamer) -> List[Item]:
    s = lm.syntax
    gen = lm.generator.Generator(
        lm.generator.GeneratorConfig(seed=7, max_depth=4))
    items = []

    def add(name, p, runner):
        items.append(Item(name, p, lambda: runner(lm, p)))

    for i in range(CONFLUENCE_SAMPLES):
        add(f"stream-{i}", rn.program(gen.program()), _explore_sample)
    for j, (v1, v2, w1, w2, t) in enumerate(_critical_pairs(s)):
        p = s.singleton(s.App(s.App(s.Unif(v1, v2), s.Unif(w1, w2)), t))
        add(f"pair-{j}", rn.program(p), _critical_pair)
    add("divergent", rn.program(lm.concrete.parse_program(DIVERGENT)),
        _explore_sample)
    return items


# ---------------------------------------------------------------------------
# fork-eval

def _ladder_source(k: int, rn: Renamer) -> str:
    f, x = rn.name("f"), rn.name("x")
    calls = f"{f} (" * k + "C" + ")" * k
    return rf"(\{f}. {calls}) (\{x}. {x} | S {x})"


def _ladder_expected(k: int):
    """Closed form of the k-fork ladder: every thread picks, at each of
    the k calls, either x or S x, so there are 2**k threads and C(k, j)
    of them print as S^j C.  Leftmost evaluation takes 2 alloc steps and
    one beta per call per thread: 1 + 2 + ... + 2**(k-1) inner betas plus
    the outer one, 2**k + 2 steps in all."""
    forms = {}
    text = "C"
    for j in range(k + 1):
        forms[text] = math.comb(k, j)
        text = "S " + (text if j == 0 else f"({text})")
    return forms, 2 ** k + 2


def _ladder(lm, p, k) -> Outcome:
    r = lm.reduction.evaluate(p, fuel=10 * 2 ** k)
    forms, steps = _ladder_expected(k)
    got = {}
    for t in r.program:
        text = lm.concrete.pretty_term(t)
        got[text] = got.get(text, 0) + 1
    ok = r.normal and r.steps == steps and got == forms
    return Outcome(ok, r.normal, r.steps,
                   "" if ok else f"normal={r.normal}, {r.steps} steps, "
                                 f"{len(r.program)} threads")


def _omega(lm, p) -> Outcome:
    r = lm.reduction.evaluate(p, fuel=OMEGA_FUEL)
    ok = not r.normal and r.steps == OMEGA_FUEL
    # out of fuel is the right answer, but not a normal-form verdict
    return Outcome(ok, False, r.steps,
                   "out of fuel" if ok else f"normal={r.normal}, {r.steps} steps")


def _corpus(lm, path: Path, expected) -> Outcome:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lm.cli.main(["run", str(path)])
    got = (out.getvalue().strip(), code)
    ok = got == expected
    return Outcome(ok, True, 0, "" if ok else f"got {got}, expected {expected}")


def build_fork_eval(lm, rn: Renamer) -> List[Item]:
    items = []
    for k in LADDER:
        src = _ladder_source(k, rn)
        p = lm.concrete.parse_program(src)
        items.append(Item(f"fork-k{k}", src,
                          lambda p=p, k=k: _ladder(lm, p, k)))
    x = rn.name("x")
    src = rf"(\{x}. {x} {x}) (\{x}. {x} {x})"
    omega = lm.concrete.parse_program(src)
    items.append(Item("omega", src, lambda: _omega(lm, omega)))
    for name, expected in sorted(CORPUS_EXPECTED.items()):
        path = CORPUS_DIR / name
        items.append(Item(name, path.read_text(encoding="utf-8"),
                          lambda path=path, e=expected: _corpus(lm, path, e)))
    return items


# ---------------------------------------------------------------------------
# typed

def _mgu(lm, problem) -> Outcome:
    u = lm.unify
    outcome = u.mgu(problem)
    if isinstance(outcome, u.Solved):
        ok = u.is_unifier(outcome.substitution, problem)
        return Outcome(ok, True, 0, "" if ok else "σ does not unify its goals")
    return Outcome(isinstance(outcome, u.Failed), True, 0)


def _subject_reduction(lm, p, sig) -> Outcome:
    tc = lm.typecheck
    v = tc.subject_reduction_check(tc.ambient_context(p), sig, p, fuel=200)
    return Outcome(v.ok, True, len(v.steps), "" if v.ok else "type not preserved")


def _soundness(lm, p, sig) -> Outcome:
    tc, d = lm.typecheck, lm.denot
    try:
        typing = tc.infer(tc.ambient_context(p), sig, p)
        sizes = {n: 2 for n in tc.base_names_used(typing) if n != "unit"}
        model = d.Model(sizes, sig, cap=4096)
        v = d.soundness_check(p, model, fuel=100)
    except (d.TooLarge, d.DenotError) as exc:
        return Outcome(True, False, 0, type(exc).__name__)
    return Outcome(v.ok, True, len(v.steps), "" if v.ok else "denotation grew")


def _round_trip(lm, p) -> Outcome:
    c = lm.concrete
    ok = lm.syntax.alpha_eq(c.parse_program(c.pretty_program(p)), p)
    return Outcome(ok, True, 0, "" if ok else "pretty→parse changed the program")


def build_typed(lm, rn: Renamer) -> List[Item]:
    g, tc, u = lm.generator, lm.typecheck, lm.unify
    items = []

    gen = g.Generator(g.GeneratorConfig(seed=13, max_depth=3,
                                        variables=("x", "y")))
    for i in range(MGU_PROBLEMS):
        goals = [gen.goal() for _ in range(gen.rng.randint(1, 3))]
        problem = u.Problem([u.Goal(rn.term(v), rn.term(w)) for v, w in goals])
        items.append(Item(f"mgu-{i}", problem,
                          lambda q=problem: _mgu(lm, q)))

    def stream(config, n, runner, prefix):
        sig = tc.default_signature(config.signature)
        programs = g.Generator(config).programs()
        for i in range(n):
            p = rn.program(next(programs))
            items.append(Item(f"{prefix}-{i}", p,
                              lambda p=p: runner(lm, p, sig)))

    stream(g.GeneratorConfig(seed=19, max_depth=3, allow_absloc=False,
                             well_typed=True),
           SUBJECT_PROGRAMS, _subject_reduction, "subject")
    stream(g.GeneratorConfig(seed=29, max_depth=3, allow_absloc=False,
                             well_typed=True,
                             signature=dict(g.STRATIFIED_SIGNATURE)),
           SOUNDNESS_PROGRAMS, _soundness, "soundness")

    gen = g.Generator(g.GeneratorConfig(seed=43, max_depth=4))
    for i in range(ROUND_TRIP_PROGRAMS):
        p = rn.program(gen.program())
        items.append(Item(f"round-trip-{i}", p,
                          lambda p=p: _round_trip(lm, p)))
    return items


BY_NAME = {
    "confluence": build_confluence,
    "fork-eval": build_fork_eval,
    "typed": build_typed,
}
