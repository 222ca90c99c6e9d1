"""Self-tests of the benchmark itself, not of lamu.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (all three by default) it checks that

- two traced runs with one seed report identical counts (every metric
  with unit ``count``: states, calls, evaluate steps, undecided inputs);
- a traced run with another seed builds different inputs (another input
  digest) and reports the same metric names and units;
- an untraced run and a traced run report exactly the end-to-end and
  per-layer metrics that BENCHMARK.json lists, with their units.

Run it from the root of a checkout.  It exits 1 on the first mismatch.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED, OTHER_SEED = 1, 2


def run(workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit "
                 f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = re.search(r"digest (\w+)", lines[0]).group(1)
    return digest, json.loads(lines[-1])


def units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def check(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        sys.exit(1)


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {key: {m["name"]: m["unit"] for m in spec[key]}
                for key in ("end_to_end", "per_layer")}
    for workload in argv or [w["name"] for w in spec["workloads"]]:
        _, plain = run(workload, SEED, 0)
        check(units(plain) == declared["end_to_end"],
              f"{workload}: end-to-end metrics match BENCHMARK.json")
        digest, first = run(workload, SEED, 1)
        _, second = run(workload, SEED, 1)
        other_digest, other = run(workload, OTHER_SEED, 1)
        check(units(first) == declared["per_layer"],
              f"{workload}: per-layer metrics match BENCHMARK.json")
        counts = [n for n, u in units(first).items() if u == "count"]
        differ = [n for n in counts if first["metrics"][n]["value"]
                  != second["metrics"][n]["value"]]
        check(not differ, f"{workload}: {len(counts)} counts repeat with "
                          f"seed {SEED}" + (f"; differ: {differ}" if differ else ""))
        check(other_digest != digest,
              f"{workload}: seed {OTHER_SEED} builds other inputs")
        check(units(other) == units(first),
              f"{workload}: seed {OTHER_SEED} reports the same names and units")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
