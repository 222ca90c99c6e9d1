"""The benchmark's calls into lamu: bench/workloads.py builds its three
workloads against src/, and the first input of each kind runs and is
checked correct, so that a changed name, parameter or result that
bench/ relies on fails here rather than as a failed benchmark run."""

import importlib
import importlib.util
import os
import re
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
MODULES = ("syntax", "unify", "equiv", "reduction", "parallel", "typecheck",
           "denot", "concrete", "generator", "cli")
KINDS = {
    "confluence": ["stream", "pair", "divergent"],
    "fork-eval": ["fork", "omega", "defs.luni", "fresh_solve.luni",
                  "ill_typed.luni", "trace.luni", "unify_pair.luni"],
    "typed": ["mgu", "subject", "soundness", "round-trip"],
}


def _bench_workloads(monkeypatch):
    """bench/workloads.py, loaded by its path; its dataclasses look the
    module up in sys.modules while it runs."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(KINDS))
def test_the_first_input_of_each_kind_runs_correct(workload, monkeypatch):
    workloads = _bench_workloads(monkeypatch)
    lm = SimpleNamespace(**{m: importlib.import_module(f"lamu.{m}")
                            for m in MODULES})
    firsts = {}
    for item in workloads.build(workload, lm, 1):
        firsts.setdefault(re.sub(r"-k?\d+$", "", item.name), item)
    assert list(firsts) == KINDS[workload]
    for item in firsts.values():
        outcome = item.run()
        assert outcome.ok, (item.name, outcome.note)
