"""Acceptance suite: one test per top-level guarantee, each printing a
single PASS/FAIL line.

The heavyweight exploration (shared by the confluence and the
cross-evaluator criteria) runs once and is cached at module scope.
"""

import time

from helpers import (
    brute_force_unifiable, cli, compose, corpus_sources,
    criterion_10_config, criterion_4_programs, criterion_5_draws,
    criterion_6_problems, criterion_7_config, criterion_8_draws,
    critical_pair_instances, ground_universe, problem_subst, problem_terms,
    range_values, splice, subst_equal, worked_example,
)
from lamu.concrete import parse_program, pretty_program
from lamu.denot import DenotError, Model, TooLarge, denote, soundness_check
from lamu.equiv import is_normal_program, struct_equiv
from lamu.generator import Generator, sample_programs
from lamu.parallel import par_normalize
from lamu.reduction import (
    enumerate_redexes, evaluate, find_redex, reachable_normal_forms, step_at,
)
from lamu.syntax import (
    Abs, AbsLoc, App, Cons, Fresh, Guard, LamuError, Program, Unif, Var,
    check_coherent, singleton,
)
from lamu.typecheck import (
    Base, ambient_context, default_signature, infer, subject_reduction_check,
)
from lamu.unify import Solved, is_unifier, mgu, mgu_goal


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
    confluence_failures = []
    agreement_failures = []
    incomplete = 0
    samples = 500
    for i, p in enumerate(criterion_4_programs(samples)):
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
    for i, p in enumerate(critical_pair_instances()):
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

def test_criterion_5_strong_bisimulation():
    start = time.time()
    checked = failures = 0
    for p, q, redex in criterion_5_draws(500):
        if not struct_equiv(p, q):
            failures += 1
            checked += 1
            continue
        p2 = splice(p, step_at(p[redex.thread], redex,
                               check_coherent(p)))
        session_q = check_coherent(q)
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
    universe = ground_universe(2, _UNIVERSE_CLOSURES)
    solved = failed = bad = 0
    for problem in criterion_6_problems():
        outcome = mgu(problem)
        if isinstance(outcome, Solved):
            solved += 1
            sigma = outcome.substitution
            idempotent = subst_equal(sigma, compose(sigma, sigma))
            coherent_after = coherence_witness(
                list(problem_terms(problem_subst(problem, sigma)))
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
    gen = Generator(criterion_7_config())
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
    worked, model = worked_example()
    verdict = soundness_check(worked, model)
    final = evaluate(worked).program
    expected = parse_program("T N2 N1")
    typing = infer(ambient_context(expected), model.sig, expected)
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

    draws = criterion_8_draws()
    checked = failures = skipped = 0
    while checked < 200:
        p, typing, m = next(draws)
        try:
            if isinstance(m, LamuError):
                raise m
            v = soundness_check(p, m, fuel=100, typing=typing)
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
    from lamu.syntax import alpha_eq
    start = time.time()
    round_trip_failures = 0
    count = 0
    for _, src in corpus_sources():
        if not alpha_eq(parse_program(pretty_program(src.program)),
                        src.program):
            round_trip_failures += 1
        count += 1
    gen = Generator(criterion_10_config())
    for _ in range(300):
        p = gen.program()
        if not alpha_eq(parse_program(pretty_program(p)), p):
            round_trip_failures += 1
        count += 1
    streams_equal = (sample_programs(50, criterion_10_config())
                     == sample_programs(50, criterion_10_config()))
    reports = []
    for _ in range(2):
        run = cli("test-confluence", "--samples", "20", "--seed", "3",
                  env={"PYTHONHASHSEED": "0"})
        reports.append((run.communicate()[0], run.returncode))
    first, second = reports
    reports_identical = first == second and first[1] == 0
    elapsed = time.time() - start
    report(10, "round-trip-and-determinism",
           round_trip_failures == 0 and streams_equal and reports_identical,
           f"{count} round-trips, stream deterministic={streams_equal}, "
           f"reports byte-identical={reports_identical}, {elapsed:.1f}s")
