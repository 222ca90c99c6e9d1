"""Spans around calls into lamu's public functions, recorded from the
benchmark's own files.

``Tracer.install`` replaces each traced function, in every ``lamu``
module that binds it, by a wrapper that records one span: name, start,
end, parent span and the id of the input being run.  Spans stay in
memory, in flat arrays, until ``dump`` writes them out.  Self time is a
span's duration minus the part of it its child spans cover; calls are
synchronous on one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List

ITEM = "item"                       # root span of one input
EXPLORE = "reduction.explore"

# span name -> (module, attribute) of the traced callable
TRACED = {
    "equiv.canonical_program": ("equiv", "canonical_program"),
    EXPLORE: ("reduction", "reachable_normal_forms"),
    "reduction.find_redex": ("reduction", "find_redex"),
    "reduction.enumerate_redexes": ("reduction", "enumerate_redexes"),
    "reduction.step_at": ("reduction", "step_at"),
    "reduction.evaluate": ("reduction", "evaluate"),
    "unify.mgu_goal": ("unify", "mgu_goal"),
    "unify.mgu": ("unify", "mgu"),
    "syntax.subst_single": ("syntax", "subst_single"),
    "syntax.check_coherent": ("syntax", "check_coherent"),
    "typecheck.infer": ("typecheck", "infer"),
    "typecheck.check": ("typecheck", "check"),
    "typecheck.subject_reduction_check": ("typecheck", "subject_reduction_check"),
    "denot.denote_toplevel": ("denot", "denote_toplevel"),
    "denot.Model": ("denot", "Model"),
    "denot.soundness_check": ("denot", "soundness_check"),
    "concrete.parse_program": ("concrete", "parse_program"),
    "concrete.pretty_program": ("concrete", "pretty_program"),
    "parallel.par_normalize": ("parallel", "par_normalize"),
    "cli.run": ("cli", "cmd_run"),
}

# what a span keeps of its call, beyond timing
EXTRACT: Dict[str, Callable] = {
    EXPLORE: lambda args, out: (out.states, out.complete),
    "reduction.evaluate": lambda args, out: (
        out.steps,
        max([len(args[0])] + [len(ts.after) for ts in out.trace])),
    "concrete.parse_program": lambda args, out: len(args[0]),
}


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.name_id: Dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_item = -1
        self.extracted: Dict[str, list] = defaultdict(list)
        self._item = self.wrap(ITEM, lambda fn: fn())

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        span_name, parent, item = self.span_name, self.parent, self.item
        start, end, stack = self.start, self.end, self.stack
        extract = EXTRACT.get(name)
        kept = self.extracted[name]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            item.append(tracer.current_item)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if extract is not None:
                kept.append((idx, extract(args, out)))
            return out

        return traced

    def install(self, lm) -> None:
        """Wrap every traced callable wherever a lamu module binds it
        (``from .x import f`` makes a binding per importing module)."""
        modules = [m for n, m in sys.modules.items()
                   if n == "lamu" or n.startswith("lamu.")]
        for name, (module, attr) in TRACED.items():
            orig = getattr(getattr(lm, module), attr)
            if isinstance(orig, type):          # a class: trace construction
                orig.__init__ = self.wrap(name, orig.__init__)
                continue
            traced = self.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)

    def run_item(self, index: int, fn: Callable):
        """Run one input under a root span carrying its id."""
        self.current_item = index
        return self._item(fn)

    # -- analysis

    def self_times(self) -> array:
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return array("d", (self.end[i] - self.start[i] - covered[i]
                           for i in range(n)))

    def under(self, ancestor: str) -> bytearray:
        """Flags for spans that have a span named ``ancestor`` above them;
        a parent's index is always below its children's."""
        aid = self.name_id.get(ancestor, -1)
        flags = bytearray(len(self.start))
        for i, p in enumerate(self.parent):
            if p >= 0 and (self.span_name[p] == aid or flags[p]):
                flags[i] = 1
        return flags

    def dump(self, path: Path, item_names: List[str]) -> None:
        """Write every span as a gzipped TSV row, times in microseconds
        from the first span's start."""
        origin = self.start[0] if self.start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for i, name in enumerate(item_names):
                out.write(f"# item\t{i}\t{name}\n")
            out.write("span\tparent\titem\tname\tstart_us\tend_us\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.item[i]}\t"
                          f"{names[self.span_name[i]]}\t"
                          f"{(self.start[i] - origin) * 1e6:.1f}\t"
                          f"{(self.end[i] - origin) * 1e6:.1f}\n")
