"""Acceptance suite: one test per top-level guarantee, each printing a
single PASS/FAIL line.

The heavyweight exploration (shared by the confluence and the
cross-evaluator criteria) runs once and is cached at module scope.
"""

import os
import subprocess
import sys
import time

from helpers import (
    brute_force_unifiable, compose, critical_pair_instances, ground_universe,
    problem_terms, range_values, splice, subst_equal, subst_loc,
)
from lamu.concrete import parse_program, pretty_program
from lamu.denot import DenotError, Model, TooLarge, denote, soundness_check
from lamu.equiv import is_normal_program, struct_equiv
from lamu.generator import (
    Generator, GeneratorConfig, STRATIFIED_SIGNATURE, sample_programs,
)
from lamu.parallel import par_normalize
from lamu.reduction import (
    enumerate_redexes, evaluate, find_redex, reachable_normal_forms, step_at,
)
from lamu.syntax import (
    Abs, AbsLoc, App, Cons, Fresh, Guard, Program, Session, Substitution,
    Unif, Var, singleton, subst_apply,
)
from lamu.typecheck import (
    Arrow, Base, ambient_context, base_names_used, default_signature, infer,
    subject_reduction_check,
)
from lamu.unify import Goal, Problem, Solved, is_unifier, mgu, mgu_goal


def report(n, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {n}] {name}: {tag}{suffix}")
    assert ok, f"criterion {n} {name} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Golden five-step trace

def test_criterion_1_golden_trace():
    start = time.time()
    p = parse_program(r"(\x. x | fresh y. ((x =:= C y); y)) (C D)")
    r = evaluate(p)
    rules = [ts.rule for ts in r.trace]
    ok = (r.normal
          and rules == ["alloc", "beta", "fresh", "unif", "guard"]
          and struct_equiv(r.program, parse_program("C D | D")))
    elapsed = time.time() - start
    report(1, "golden-trace", ok and elapsed < 1.0,
           f"rules={rules}, result={pretty_program(r.program)}, "
           f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Principal-type computation corpus

def test_criterion_2_type_inference_corpus():
    from lamu.concrete import hm_translate
    start = time.time()
    t = Abs("x", singleton(Abs("y", singleton(App(Var("y"), Var("x"))))))
    r = evaluate(singleton(hm_translate(t)))
    ok = r.normal and struct_equiv(r.program,
                                   parse_program("F a (F (F a c) c)"))
    elapsed = time.time() - start
    report(2, "principal-type-corpus", ok and elapsed < 1.0,
           f"normal form={pretty_program(r.program)}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Normal-form characterization, exhaustively

def _enumerate_terms():
    """Exhaustive single-variable, two-constructor term universe up to
    height 3.  Allocated-abstraction locations are keyed by body so the
    whole universe is coherent."""
    loc_of = {}

    def loc(body):
        key = repr(body)
        if key not in loc_of:
            loc_of[key] = len(loc_of) + 1
        return loc_of[key]

    atoms = [Var("x"), Cons("C"), Cons("D")]
    levels = [atoms]
    for _ in range(2):
        prev = levels[-1]
        bodies = [Program(())] + [singleton(t) for t in prev]
        nxt = list(atoms)
        for a in prev:
            for b in prev:
                nxt.extend((App(a, b), Guard(a, b), Unif(a, b)))
        for body in bodies:
            nxt.append(Abs("x", body))
            nxt.append(AbsLoc(loc(body), "x", body))
        nxt.extend(Fresh("x", t) for t in prev)
        levels.append(nxt)
    return levels


def test_criterion_3_normal_form_characterization():
    start = time.time()
    levels = _enumerate_terms()
    mismatches = 0
    singles = 0
    for t in levels[2]:
        p = singleton(t)
        if is_normal_program(p) != (find_redex(p) is None):
            mismatches += 1
        singles += 1
    depth3 = 0
    for t in levels[-1]:
        p = singleton(t)
        if is_normal_program(p) != (find_redex(p) is None):
            mismatches += 1
        depth3 += 1
    # both predicates are thread-wise conjunctions; verify that on every
    # two-thread program over the height-2 universe
    pairs = 0
    for a in levels[1]:
        for b in levels[1]:
            p = Program((a, b))
            if is_normal_program(p) != (find_redex(p) is None):
                mismatches += 1
            pairs += 1
    if is_normal_program(Program(())) != (find_redex(Program(())) is None):
        mismatches += 1
    elapsed = time.time() - start
    report(3, "normal-form-characterization",
           mismatches == 0 and elapsed < 120,
           f"{depth3} height-3 terms, {pairs} two-thread programs, "
           f"{mismatches} mismatches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4 and 9. Confluence exploration, shared with cross-evaluator agreement

_EXPLORATION_CACHE = {}


def _exploration():
    if "data" in _EXPLORATION_CACHE:
        return _EXPLORATION_CACHE["data"]
    gen = Generator(GeneratorConfig(seed=7, max_depth=4))
    confluence_failures = []
    agreement_failures = []
    incomplete = 0
    samples = 500
    for i in range(samples):
        p = gen.program()
        ex = reachable_normal_forms(p, fuel=200, max_states=10_000)
        if not ex.complete:
            incomplete += 1
        if len(ex.normal_forms) > 1:
            confluence_failures.append((i, p))
        ev = evaluate(p, fuel=5000)
        pv = par_normalize(p, fuel=300)
        if ev.normal != pv.normal or (
                ev.normal and not struct_equiv(ev.program, pv.program)):
            agreement_failures.append((i, p))
    data = {
        "samples": samples,
        "incomplete": incomplete,
        "confluence_failures": confluence_failures,
        "agreement_failures": agreement_failures,
    }
    _EXPLORATION_CACHE["data"] = data
    return data


def test_criterion_4_confluence():
    start = time.time()
    data = _exploration()
    family_failures = []
    for i, (v1, v2, w1, w2, t) in enumerate(critical_pair_instances()):
        p = singleton(App(App(Unif(v1, v2), Unif(w1, w2)), t))
        ex = reachable_normal_forms(p, fuel=200, max_states=10_000)
        if not ex.complete or len(ex.normal_forms) != 1:
            family_failures.append(i)
    elapsed = time.time() - start
    ok = (not data["confluence_failures"] and not family_failures
          and elapsed < 300)
    report(4, "confluence-up-to-equivalence", ok,
           f"{data['samples']} samples ({data['incomplete']} bound-limited), "
           f"{len(data['confluence_failures'])} counterexamples, "
           f"critical-pair family failures={family_failures}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Structural equivalence is a strong bisimulation

def _equivalent_variant(p, rng):
    """A program related to p by thread reordering plus injective
    renaming of per-thread free variables and of locations."""
    from lamu.syntax import free_vars, locations
    threads = []
    for k, t in enumerate(p):
        sigma = Substitution(
            {n: Var(f"w{k}_{j}")
             for j, n in enumerate(sorted(free_vars(t)))})
        renamed = subst_apply(t, sigma)
        for loc in sorted(locations(renamed), reverse=True):
            renamed = subst_loc(renamed, loc, loc + 1000)
        threads.append(renamed)
    rng.shuffle(threads)
    return Program(tuple(threads))


def test_criterion_5_strong_bisimulation():
    import random
    start = time.time()
    rng = random.Random(71)
    gen = Generator(GeneratorConfig(seed=71, max_depth=3))
    checked = failures = 0
    while checked < 500:
        p = gen.program()
        redexes = enumerate_redexes(p)
        if not redexes:
            continue
        q = _equivalent_variant(p, rng)
        if not struct_equiv(p, q):
            failures += 1
            checked += 1
            continue
        redex = redexes[rng.randrange(len(redexes))]
        p2 = splice(p, step_at(p[redex.thread], redex,
                               Session.for_program(p)))
        session_q = Session.for_program(q)
        matched = any(
            struct_equiv(p2, splice(q, step_at(q[r.thread], r, session_q)))
            for r in enumerate_redexes(q))
        if not matched:
            failures += 1
        checked += 1
    elapsed = time.time() - start
    report(5, "strong-bisimulation", failures == 0,
           f"{checked} triples, {failures} failures, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Unification metatheory

_UNIVERSE_CLOSURES = (AbsLoc(901, "x", singleton(Var("x"))),
                      AbsLoc(902, "x", singleton(Cons("C"))))


def test_criterion_6_unification_metatheory():
    from lamu.syntax import coherence_witness
    from lamu.unify import Failed
    start = time.time()
    gen = Generator(GeneratorConfig(seed=13, max_depth=3,
                                    variables=("x", "y")))
    universe = ground_universe(2, _UNIVERSE_CLOSURES)
    solved = failed = bad = 0
    for _ in range(1000):
        problem = Problem([Goal(*gen.goal())
                           for _ in range(gen.rng.randint(1, 3))])
        outcome = mgu(problem)
        if isinstance(outcome, Solved):
            solved += 1
            sigma = outcome.substitution
            idempotent = subst_equal(sigma, compose(sigma, sigma))
            coherent_after = coherence_witness(
                list(problem_terms(problem.subst(sigma)))
                + range_values(sigma)) is None
            if not (is_unifier(sigma, problem) and idempotent
                    and coherent_after):
                bad += 1
        else:
            failed += 1
            if brute_force_unifiable(problem, universe) is not None:
                bad += 1
    # located closures: same location unifies, distinct locations clash
    id1 = AbsLoc(1, "x", singleton(Var("x")))
    id1b = AbsLoc(1, "y", singleton(Var("y")))
    id2 = AbsLoc(2, "x", singleton(Var("x")))
    location_ok = (isinstance(mgu_goal(id1, id1b), Solved)
                   and isinstance(mgu_goal(id1, id2), Failed))
    elapsed = time.time() - start
    report(6, "unification-metatheory", bad == 0 and location_ok,
           f"1000 goal sets ({solved} solved, {failed} failed), "
           f"{bad} violations, location cases ok={location_ok}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Subject reduction

def test_criterion_7_subject_reduction():
    start = time.time()
    gen = Generator(GeneratorConfig(seed=19, max_depth=3,
                                    allow_absloc=False, well_typed=True))
    sig = default_signature(gen.config.signature)
    stream = gen.programs()
    failures = 0
    for _ in range(300):
        p = next(stream)
        verdict = subject_reduction_check(ambient_context(p), sig, p,
                                          fuel=200)
        if not verdict.ok:
            failures += 1
    elapsed = time.time() - start
    report(7, "subject-reduction", failures == 0,
           f"300 programs, {failures} failures, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Soundness of the denotational semantics

def test_criterion_8_soundness():
    start = time.time()
    nat, tup = Base("nat"), Base("tuple")
    sig = default_signature({
        "N1": nat, "N2": nat, "T": Arrow(nat, Arrow(nat, tup))})
    model = Model({"nat": 4}, sig)
    worked = parse_program(
        r"fresh x. ((\z. fresh y. ((z =:= T N1 y); (T y x))) (T x N2))")
    verdict = soundness_check(worked, model)
    final = evaluate(worked).program
    expected = parse_program("T N2 N1")
    typing = infer(ambient_context(expected), sig, expected)
    from lamu.denot import denote_toplevel
    expected_sem = denote_toplevel(typing.node, model, typing.gamma)
    worked_ok = (verdict.ok
                 and all(s.equal for s in verdict.steps)
                 and struct_equiv(final, expected)
                 and verdict.final_denotation == expected_sem
                 and len(expected_sem) == 1)

    # strict inclusion: unifying two alpha-equal closures at distinct
    # locations denotes {ok} although the program steps to fail
    i = Base("i")
    m2 = Model({"i": 1}, default_signature())
    a = AbsLoc(1, "x", singleton(Var("x")), ann=i)
    b = AbsLoc(2, "x", singleton(Var("x")), ann=i)
    witness_sem = denote(Unif(a, b), {}, m2)
    stepped = evaluate(singleton(Unif(a, b))).program
    witness_ok = (witness_sem == frozenset((m2.ok,))
                  and denote(Program(()), {}, m2) == frozenset()
                  and stepped.is_fail)

    config = GeneratorConfig(seed=29, max_depth=3, allow_absloc=False,
                             well_typed=True,
                             signature=dict(STRATIFIED_SIGNATURE))
    gen = Generator(config)
    gsig = default_signature(config.signature)
    stream = gen.programs()
    checked = failures = skipped = 0
    while checked < 200:
        p = next(stream)
        try:
            typing = infer(ambient_context(p), gsig, p)
            sizes = {n: 2 for n in base_names_used(typing) if n != "unit"}
            m = Model(sizes, gsig, cap=4096)
            v = soundness_check(p, m, fuel=100)
        except (TooLarge, DenotError):
            skipped += 1
            continue
        checked += 1
        if not v.ok:
            failures += 1
    elapsed = time.time() - start
    report(8, "denotational-soundness",
           worked_ok and witness_ok and failures == 0 and elapsed < 300,
           f"worked example ok={worked_ok}, strict-inclusion witness "
           f"ok={witness_ok}, {checked} samples ({skipped} skipped), "
           f"{failures} failures, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. Cross-evaluator agreement (samples shared with criterion 4)

def test_criterion_9_cross_evaluator_agreement():
    data = _exploration()
    ok = not data["agreement_failures"]
    report(9, "cross-evaluator-agreement", ok,
           f"{data['samples']} samples, "
           f"{len(data['agreement_failures'])} disagreements")


# ---------------------------------------------------------------------------
# 10. Round-trip and determinism

def test_criterion_10_round_trip_and_determinism():
    from lamu.concrete import parse_file
    from lamu.syntax import alpha_eq
    start = time.time()
    corpus_dir = os.path.join(os.path.dirname(__file__), "corpus")
    round_trip_failures = 0
    count = 0
    for name in sorted(os.listdir(corpus_dir)):
        src = parse_file(open(os.path.join(corpus_dir, name)).read())
        if not alpha_eq(parse_program(pretty_program(src.program)),
                        src.program):
            round_trip_failures += 1
        count += 1
    gen = Generator(GeneratorConfig(seed=43, max_depth=4))
    for _ in range(300):
        p = gen.program()
        if not alpha_eq(parse_program(pretty_program(p)), p):
            round_trip_failures += 1
        count += 1
    streams_equal = (sample_programs(50, GeneratorConfig(seed=43))
                     == sample_programs(50, GeneratorConfig(seed=43)))
    # the subprocess does not see pytest's pythonpath setting
    src_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    pythonpath = os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=pythonpath)
    cmd = [sys.executable, "-m", "lamu.cli", "test-confluence",
           "--samples", "20", "--seed", "3"]
    first = subprocess.run(cmd, capture_output=True, text=True, env=env)
    second = subprocess.run(cmd, capture_output=True, text=True, env=env)
    reports_identical = (first.stdout == second.stdout
                         and first.returncode == second.returncode == 0)
    elapsed = time.time() - start
    report(10, "round-trip-and-determinism",
           round_trip_failures == 0 and streams_equal and reports_identical,
           f"{count} round-trips, stream deterministic={streams_equal}, "
           f"reports byte-identical={reports_identical}, {elapsed:.1f}s")
