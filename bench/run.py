"""Benchmark for lamu: one seeded workload, measured for a fixed time.

    python3 bench/run.py --workload confluence --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports lamu from ``src/``.  The
workloads (``confluence``, ``fork-eval``, ``typed``) are described in
``workloads.py``.  A run

1. sets up ``SETUP_ROUNDS`` times: it imports lamu afresh and builds the
   inputs; ``setup_s`` is the median round;
2. with ``--trace 0``, runs full passes over every input and short
   passes over the quick ones (see ``timed_passes``), on one thread,
   until the next pass would end after ``--seconds``, and reports the
   end-to-end metrics;
3. with ``--trace 1``, runs one untraced pass and one traced pass,
   reports the per-module metrics of the traced pass, and writes its
   spans to ``.bench_trace/<workload>-seed<seed>.tsv.gz``.

Times are given at a reference machine speed (see ``calibration.py``);
the raw seconds and the speed factor are printed alongside.  Every output
is checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output is correct, 1 when one is wrong or raised, and 2 on a
usage error or when ``src/lamu`` is missing.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from calibration import SpeedProbe  # noqa: E402

SETUP_ROUNDS = 7
SHORT_SHARE = 0.01
MODULES = ("syntax", "unify", "equiv", "reduction", "parallel", "typecheck",
           "denot", "concrete", "generator", "cli")
FORK_ROWS = (4, 6, 8, 10)

# name -> (unit, better); end-to-end metrics come from the untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "item_ms_p50": ("ms", "lower"),
    "item_ms_p90": ("ms", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "undecided_ratio": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _per_layer():
    specs = {}
    for name in tracing.TRACED:
        specs[f"{name}.calls"] = ("count", "lower")
        specs[f"{name}.self_ms"] = ("ms", "lower")
    specs.update({
        "equiv.share": ("ratio", "lower"),
        "reduction.explore.states": ("count", "lower"),
        "reduction.explore.states_per_s": ("1/s", "higher"),
        "reduction.explore.bound_limited": ("count", "lower"),
        "reduction.explore.dedup_hit_ratio": ("ratio", "lower"),
        "reduction.evaluate.steps": ("count", "lower"),
        "reduction.evaluate.peak_threads": ("count", "lower"),
        "unify.mgu_goal.per_state": ("ratio", "lower"),
        "denot.too_large": ("count", "lower"),
        "concrete.parse_program.chars_per_s": ("1/s", "higher"),
    })
    for k in FORK_ROWS:
        specs[f"fork.k{k}.ms_per_step"] = ("ms", "lower")
    specs["workload.undecided"] = ("count", "lower")
    specs["trace.overhead_ratio"] = ("ratio", "lower")
    return specs


PER_LAYER = _per_layer()


@dataclass
class Pass:
    indices: List[int]                 # the inputs run, in order
    wall: float                        # reference seconds
    times: List[float]                 # reference seconds per input run
    outcomes: List[workloads.Outcome]
    factor: float                      # reference seconds per raw second

    @property
    def raw(self) -> float:
        return self.wall / self.factor


def fresh_import() -> SimpleNamespace:
    """Import lamu as a new process would, dropping earlier copies."""
    for name in [n for n in sys.modules if n == "lamu" or n.startswith("lamu.")]:
        del sys.modules[name]
    importlib.import_module("lamu")
    importlib.import_module("lamu.cli")
    return SimpleNamespace(**{m: sys.modules[f"lamu.{m}"] for m in MODULES})


def run_one(item: workloads.Item) -> workloads.Outcome:
    try:
        return item.run()
    except Exception as exc:  # a crash is a failed input; keep measuring
        traceback.print_exc(file=sys.stderr)
        return workloads.Outcome(False, False, 0, f"{type(exc).__name__}: {exc}")


def run_pass(items, probe: SpeedProbe, indices=None, runner=None) -> Pass:
    """Run the given inputs (all by default) once each; the probe's own
    time is left out."""
    clock = time.perf_counter
    indices = list(range(len(items))) if indices is None else indices
    times, outcomes = [], []
    mark = probe.mark()
    probe.sample()
    spent, begin = probe.spent, clock()
    for index in indices:
        item = items[index]
        probe.poll()
        item_spent, t0 = probe.spent, clock()
        if runner is None:
            outcome = run_one(item)
        else:
            outcome = runner(index, lambda: run_one(item))
        times.append(clock() - t0 - (probe.spent - item_spent))
        outcomes.append(outcome)
    wall = clock() - begin - (probe.spent - spent)
    f = probe.factor(mark)
    return Pass(indices, wall * f, [t * f for t in times], outcomes, f)


def timed_passes(items, probe: SpeedProbe, seconds: float) -> List[Pass]:
    """Full passes over every input, alternated with short passes over
    the inputs that took under ``SHORT_SHARE`` of the first full pass,
    with a third of the time for short passes, until the next pass would
    end after ``seconds`` (one full pass at least).  A long input such as a
    bound-limited exploration then no longer caps how often the short
    inputs, which set the item percentiles, are timed."""
    begin = time.perf_counter()
    passes = [run_pass(items, probe)]
    short = [i for i, t in zip(passes[0].indices, passes[0].times)
             if t < SHORT_SHARE * passes[0].wall]
    if len(short) == len(items):
        short = []
    spent = {"full": passes[0].raw, "short": 0.0}      # raw seconds
    last = dict(spent)
    while True:
        left = seconds - (time.perf_counter() - begin)
        if (not short or spent["full"] <= 2 * spent["short"]) \
                and last["full"] <= left:
            kind, indices = "full", None
        elif short and last["short"] <= left:
            kind, indices = "short", short
        else:
            return passes
        passes.append(run_pass(items, probe, indices))
        spent[kind] += passes[-1].raw
        last[kind] = passes[-1].raw


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(passes: List[Pass], setup: List[float]) -> dict:
    # Each input's time is its median over its runs, so a slow spell of
    # the machine during one run drops out input by input.
    runs = defaultdict(list)
    for p in passes:
        for i, t in zip(p.indices, p.times):
            runs[i].append(t)
    times = [statistics.median(ts) for ts in runs.values()]
    wall = sum(times)
    deciles = statistics.quantiles(times, n=10)
    outcomes = passes[0].outcomes          # the first pass is a full one
    steps = sum(o.steps for o in outcomes)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "item_ms_p50": deciles[4] * 1e3,
        "item_ms_p90": deciles[8] * 1e3,
        "steps_per_s": steps / wall,
        "undecided_ratio": sum(not o.decided for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: tracing.Tracer, traced: Pass, untraced: Pass,
              items) -> dict:
    names = tracer.names
    f = traced.factor
    self_time = tracer.self_times()
    calls = {n: 0 for n in tracing.TRACED}
    self_s = {n: 0.0 for n in tracing.TRACED}
    for i, nid in enumerate(tracer.span_name):
        name = names[nid]
        if name in calls:
            calls[name] += 1
            self_s[name] += self_time[i] * f

    def duration(idx):
        return (tracer.end[idx] - tracer.start[idx]) * f

    under_explore = tracer.under(tracing.EXPLORE)
    step_at = tracer.name_id.get("reduction.step_at", -1)
    mgu_goal = tracer.name_id.get("unify.mgu_goal", -1)
    generated = explore_mgu = 0
    for i, nid in enumerate(tracer.span_name):
        if under_explore[i]:
            generated += nid == step_at
            explore_mgu += nid == mgu_goal

    explores = tracer.extracted[tracing.EXPLORE]
    states = sum(s for _, (s, _) in explores)
    explore_s = sum(duration(idx) for idx, _ in explores)
    new_states = sum(s - 1 for _, (s, _) in explores)
    evaluations = tracer.extracted["reduction.evaluate"]
    parses = tracer.extracted["concrete.parse_program"]

    m = {}
    for name in tracing.TRACED:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_ms"] = self_s[name] * 1e3
    m.update({
        "equiv.share": ratio(self_s["equiv.canonical_program"], traced.wall),
        "reduction.explore.states": states,
        "reduction.explore.states_per_s": ratio(states, explore_s),
        "reduction.explore.bound_limited": sum(not c for _, (_, c) in explores),
        "reduction.explore.dedup_hit_ratio": ratio(generated - new_states,
                                                   generated),
        "reduction.evaluate.steps": sum(s for _, (s, _) in evaluations),
        "reduction.evaluate.peak_threads": max(
            [t for _, (_, t) in evaluations], default=0),
        "unify.mgu_goal.per_state": ratio(explore_mgu, states),
        "denot.too_large": sum(o.note == "TooLarge" for o in traced.outcomes),
        "concrete.parse_program.chars_per_s": ratio(
            sum(c for _, c in parses), sum(duration(idx) for idx, _ in parses)),
    })
    ladder = {f"fork-k{k}": f"fork.k{k}.ms_per_step" for k in FORK_ROWS}
    for k in FORK_ROWS:
        m[f"fork.k{k}.ms_per_step"] = 0.0
    for idx, (steps, _) in evaluations:
        key = ladder.get(items[tracer.item[idx]].name)
        if key is not None:
            m[key] = ratio(duration(idx) * 1e3, steps)
    m["workload.undecided"] = sum(not o.decided for o in traced.outcomes)
    m["trace.overhead_ratio"] = ratio(traced.wall, untraced.wall)
    return m


def input_digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(f"{item.name}\t{item.input!r}\n".encode())
    return h.hexdigest()[:16]


def report_failures(passes: List[Pass], items) -> int:
    failed = 0
    for p in passes:
        for index, outcome in zip(p.indices, p.outcomes):
            item = items[index]
            if not outcome.ok:
                failed += 1
                if failed <= 10:
                    print(f"wrong output: {item.name}: {outcome.note}",
                          file=sys.stderr)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "lamu" / "__init__.py").is_file():
        print(f"error: no lamu sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    probe = SpeedProbe()
    with probe:
        return measure(args, probe)


def measure(args, probe: SpeedProbe) -> int:
    setup, raw_setup = [], []
    for _ in range(SETUP_ROUNDS):
        mark = probe.mark()
        probe.sample()
        spent, t0 = probe.spent, time.perf_counter()
        lm = fresh_import()
        items = workloads.build(args.workload, lm, args.seed)
        raw_setup.append(time.perf_counter() - t0 - (probe.spent - spent))
        setup.append(raw_setup[-1] * probe.factor(mark))
    if Path(lm.syntax.__file__).resolve().parent != SRC / "lamu":
        print(f"error: imported lamu from {lm.syntax.__file__}", file=sys.stderr)
        return 2
    print(f"lamu benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}; {len(items)} inputs, "
          f"digest {input_digest(items)}")
    gc.collect()

    if args.trace:
        untraced = run_pass(items, probe)
        # a sample inside a traced call would land in its self time
        probe.stop_timer()
        tracer = tracing.Tracer()
        tracer.install(lm)
        traced = run_pass(items, probe, runner=tracer.run_item)
        passes = [untraced, traced]
        metrics = per_layer(tracer, traced, untraced, items)
        specs = PER_LAYER
        out = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.tsv.gz"
        tracer.dump(out, [item.name for item in items])
        print(f"{len(tracer.start)} spans written to {out.relative_to(ROOT)}")
    else:
        passes = timed_passes(items, probe, args.seconds)
        metrics = end_to_end(passes, setup)
        specs = END_TO_END
        full = sum(len(p.indices) == len(items) for p in passes)
        print(f"{full} full and {len(passes) - full} short passes; each "
              f"input's time is the median of its runs; wall_s sums them and "
              f"the item percentiles take n={len(items)} of them; setup_s is "
              f"the median of {SETUP_ROUNDS} set-ups")

    factors = [p.factor for p in passes]
    print(f"speed factor {min(factors):.3f}..{max(factors):.3f} over "
          f"{len(probe.samples)} probe samples; raw wall per pass "
          f"{', '.join(f'{p.raw:.3f}' for p in passes)} s; raw "
          f"setup median {statistics.median(raw_setup):.4f} s")
    failed = report_failures(passes, items)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {specs[name][0]}")
    result = {
        "correct": failed == 0,
        "attempted": sum(len(p.outcomes) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": specs[name][0]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
