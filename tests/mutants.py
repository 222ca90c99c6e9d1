"""The mutant table: which tests kill which planted fault in src/.

Each mutant is one exact snippet of a module under src/lamu and its
replacement.  The script copies the checkout's files (tracked, and
untracked but not ignored) to a temporary directory, so that the source
checks of test_api, the subprocesses of test_cli and the benchmark's
SRC all see the mutant.  It then plants one mutant at a time in the
copy, runs Tier-1 there, and prints the tests that fail: the mutant's
killers.  A test that hangs under a mutant is one of them.  A mutant
that no test kills is a survivor.  The last table lists, for each test,
the mutants that it alone kills, which is the evidence on which an
oracle may go.  The checkout itself is never written to.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named mutants only

Every input of Tier-1 is seeded, and each run sets the same
PYTHONHASHSEED, so the table is a function of the tree: two runs on one
tree print the same killers for every mutant.

On a 2-core machine a mutant takes one Tier-1 run, about 22 s, but the
two that break mgu take minutes, for their hanging tests: the whole
table takes about 20 minutes.

Tier-1 runs only test_mutants.py, which checks that every snippet still
occurs exactly once in today's source, so the table cannot rot.
"""

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A test that runs longer under a mutant, or wants more memory, fails:
# a mutant can make a term grow without end, in C code that no signal
# interrupts.  Tier-1's slowest test takes about 2 s.
TEST_SECONDS = 20
MEMORY_BYTES = 2 << 30


class Mutant(NamedTuple):
    name: str
    module: str         # file name under src/lamu
    snippet: str
    replacement: str


MUTANTS = [
    Mutant("collect-visits-arg-before-fn", "reduction.py",
           "            if not fn.value:\n"
           "                if not arg.value:\n"
           "                    stack = (t, 1, path, stack)\n"
           "                t, path = fn, (t, 0, path)\n"
           "                continue\n"
           "            if not arg.value:\n"
           "                t, path = arg, (t, 1, path)\n"
           "                continue\n"
           "            rule = BETA if type(fn) is AbsLoc else None\n"
           "        elif cls is Guard or cls is Unif:\n"
           "            left, right = t.left, t.right\n"
           "            if not left.value:\n"
           "                if not right.value:\n"
           "                    stack = (t, 1, path, stack)\n"
           "                t, path = left, (t, 0, path)\n"
           "                continue\n"
           "            if not right.value:\n"
           "                if cls is Guard:\n"
           "                    stack = (t, 2, path, stack)\n"
           "                t, path = right, (t, 1, path)\n"
           "                continue\n"
           "            rule = GUARD if cls is Guard else UNIF\n"
           "        else:\n"
           "            rule = ALLOC if cls is Abs else FRESH if cls is Fresh else None\n"
           "        while True:\n"
           "            if rule is not None:\n"
           "                out.append(_new(Redex, (thread, path, t, rule)))\n"
           "                if len(out) >= limit:\n"
           "                    return\n"
           "            if stack is None:\n"
           "                return\n"
           "            t, side, path, stack = stack\n"
           "            if side == 1:\n",
           "            if not arg.value:\n"
           "                if not fn.value:\n"
           "                    stack = (t, 0, path, stack)\n"
           "                t, path = arg, (t, 1, path)\n"
           "                continue\n"
           "            if not fn.value:\n"
           "                t, path = fn, (t, 0, path)\n"
           "                continue\n"
           "            rule = BETA if type(fn) is AbsLoc else None\n"
           "        elif cls is Guard or cls is Unif:\n"
           "            left, right = t.left, t.right\n"
           "            if not left.value:\n"
           "                if not right.value:\n"
           "                    stack = (t, 1, path, stack)\n"
           "                t, path = left, (t, 0, path)\n"
           "                continue\n"
           "            if not right.value:\n"
           "                if cls is Guard:\n"
           "                    stack = (t, 2, path, stack)\n"
           "                t, path = right, (t, 1, path)\n"
           "                continue\n"
           "            rule = GUARD if cls is Guard else UNIF\n"
           "        else:\n"
           "            rule = ALLOC if cls is Abs else FRESH if cls is Fresh else None\n"
           "        while True:\n"
           "            if rule is not None:\n"
           "                out.append(_new(Redex, (thread, path, t, rule)))\n"
           "                if len(out) >= limit:\n"
           "                    return\n"
           "            if stack is None:\n"
           "                return\n"
           "            t, side, path, stack = stack\n"
           "            if side == 0:\n"
           "                t, path = t.fn, (t, 0, path)\n"
           "                break\n"
           "            if side == 1:\n"),
    Mutant("collect-drops-the-deferred-guard", "reduction.py",
           "                if cls is Guard:\n"
           "                    stack = (t, 2, path, stack)\n",
           ""),
    Mutant("evaluate-keeps-its-thread-count-after-a-split", "reduction.py",
           "            threads[i:i + 1] = after\n"
           "            n = len(threads)\n",
           "            threads[i:i + 1] = after\n"
           "            if not after:\n"
           "                n = len(threads)\n"),
    Mutant("evaluate-memoises-a-step-that-issues-a-name", "reduction.py",
           "                if ts.rule != ALLOC and ts.rule != FRESH:\n"
           "                    memo[id(t)] = ts\n",
           "                memo[id(t)] = ts\n"),
    Mutant("node-table-key-drops-the-class", "reduction.py",
           "            key = (cls, id(left), id(right))\n",
           "            key = (id(left), id(right))\n"),
    Mutant("memo-hit-keeps-the-recorded-thread-index", "reduction.py",
           "            elif ts.thread != i:\n"
           "                ts = _new(TraceStep, (ts.rule, i) + ts[2:])\n",
           ""),
    Mutant("app-counts-a-var-head-as-a-constructor", "syntax.py",
           "type(fn) is Cons or (type(fn) is App and fn.value))",
           "type(fn) in (Cons, Var) or (type(fn) is App and fn.value))"),
    Mutant("subst-skips-the-rename-on-capture", "syntax.py",
           "        if var in captured:\n"
           "            new = _pick_fresh(",
           "        if False:\n"
           "            new = _pick_fresh("),
    Mutant("pick-fresh-takes-the-first-prime", "syntax.py",
           "    candidate = base + \"'\"\n"
           "    while candidate in forbidden:\n"
           "        candidate += \"'\"\n",
           "    candidate = base + \"'\"\n"),
    Mutant("mgu-drops-the-occurs-check", "unify.py",
           "            if name in goal[3]:\n"
           "                return Failed(OCCURS_CHECK",
           "            if False:\n"
           "                return Failed(OCCURS_CHECK"),
    Mutant("mgu-eliminate-keeps-stale-names", "unify.py",
           "return subst_single(side, name, value), names - {name} | value_names",
           "return subst_single(side, name, value), names"),
    Mutant("head-ignores-a-closures-location", "unify.py",
           'else getattr(t, "loc", None)',
           "else None"),
    Mutant("program-nfs-drops-the-last-thread", "reduction.py",
           "            sub, ok = yield n\n"
           "            nfs = {tuple(sorted(a + b)) for a in nfs for b in sub}\n",
           "            sub, ok = yield n\n"
           "            if n is not nodes[-1]:\n"
           "                nfs = {tuple(sorted(a + b)) for a in nfs for b in sub}\n"),
    Mutant("canonical-program-keeps-thread-order", "equiv.py",
           "return tuple(sorted(canonical_thread(t) for t in p))",
           "return tuple(canonical_thread(t) for t in p)"),
    Mutant("soundness-accepts-inclusion-for-every-rule", "denot.py",
           "ok = equal or (ts.rule == FAILRULE and after_sem <= before_sem)",
           "ok = equal or after_sem <= before_sem"),
    Mutant("session-issues-the-largest-location-again", "syntax.py",
           "first_loc=max(locs) + 1 if locs else 1",
           "first_loc=max(locs) if locs else 1"),
    Mutant("par-normalize-skips-a-pending-thread", "parallel.py",
           "        for t, slot in pending:\n"
           "            _place(_par_thread(t, session), slot, nxt)\n",
           "        for t, slot in pending[:-1]:\n"
           "            _place(_par_thread(t, session), slot, nxt)\n"
           "        nxt += pending[-1:] if len(pending) > 1 else ()\n"),
    Mutant("par-normalize-drops-a-pending-thread", "parallel.py",
           "    for t, slot in pending:\n"
           "        slot.append(t)\n",
           "    for t, slot in pending[1:]:\n"
           "        slot.append(t)\n"),
    Mutant("enum-type-reads-unclosed-bases", "denot.py",
           "domains = [self.enum_type(a) for a in arg_types(self.sig[c])]",
           "domains = [self._bases.get(getattr(a, 'name', None)) "
           "or self.enum_type(a) for a in arg_types(self.sig[c])]"),
    Mutant("explorer-max-states-off-by-one", "reduction.py",
           "                    if states >= max_states:\n"
           "                        return nfs, False\n",
           "                    if states > max_states:\n"
           "                        return nfs, False\n"),
    Mutant("term-key-keeps-location-numbers", "syntax.py",
           "                        token = locs[t.loc] = (\n"
           "                            _LOC_TOKENS[n] if n < _TOKENS else f\"L{n}\")\n",
           "                        token = locs[t.loc] = f\"L{t.loc}\"\n"),
    Mutant("arrow-eq-compares-left-alone", "typecheck.py",
           "return (self.left, self.right) == (other.left, other.right)",
           "return self.left == other.left"),
    Mutant("value-hash-skips-the-first-field", "syntax.py",
           "        return hash(tuple([getattr(self, f) for f in self.__slots__]))\n",
           "        return hash(tuple([getattr(self, f) for f in self.__slots__[1:]]))\n"),
    Mutant("record-repr-takes-apart-a-written-repr", "syntax.py",
           "            elif type(x).__repr__ is Record.__repr__:\n",
           "            elif isinstance(x, Record):\n"),
    Mutant("node-eq-compares-ann", "syntax.py",
           'if f != "ann" and f != "value")',
           'if f != "value")'),
    Mutant("hm-translate-swaps-the-arrow", "concrete.py",
           "goal = Unif(fn, App(App(Cons(HM_ARROW), arg), Var(a)))",
           "goal = Unif(fn, App(App(Cons(HM_ARROW), Var(a)), arg))"),
    Mutant("expect-leaves-an-operator-unquoted", "concrete.py",
           "shown = kind if kind.isalpha() else repr(kind)",
           "shown = kind"),
    Mutant("base-names-iterates-a-set", "typecheck.py",
           "    out = {}\n"
           "    stack = list(reversed(types))\n"
           "    while stack:\n"
           "        ty = stack.pop()\n"
           "        if isinstance(ty, Base):\n"
           "            out[ty.name] = None\n",
           "    out = set()\n"
           "    stack = list(types)\n"
           "    while stack:\n"
           "        ty = stack.pop()\n"
           "        if isinstance(ty, Base):\n"
           "            out.add(ty.name)\n"),
    Mutant("engine-skips-the-occurs-check", "typecheck.py",
           "            if type(b) is Arrow and self.occurs(a, b):\n",
           "            if False:\n"),
    Mutant("scope-keeps-a-binding-after-its-body", "typecheck.py",
           "            self.scope[t.var] = outer\n",
           ""),
    Mutant("typable-passes-a-failed-guard", "typecheck.py",
           "                self.unify(lty, self.term(_OK), \"guard condition\")\n",
           "                try:\n"
           "                    self.unify(lty, self.term(_OK), \"guard condition\")\n"
           "                except _Clash:\n"
           "                    if not self.ambient:\n"
           "                        raise\n"),
    Mutant("unify-links-the-right-root-to-the-left", "typecheck.py",
           "            if type(b) is not int or a != b:\n"
           "                self.table[a] = b\n",
           "            if type(b) is not int:\n"
           "                self.table[a] = b\n"
           "            elif a != b:\n"
           "                self.table[b] = a\n"),
    Mutant("plug-stops-filling-the-table-after-a-miss", "reduction.py",
           "                t = nodes[key] = cls(left, right)\n"
           "                built = True\n",
           "                t = cls(left, right)\n"
           "                if not built:\n"
           "                    nodes[key] = t\n"
           "                built = True\n"),
    Mutant("arrow-cap-check-admits-its-boundary", "denot.py",
           "if k >= self.cap.bit_length():",
           "if k > self.cap.bit_length():"),
    Mutant("closing-set-is-never-filled", "denot.py",
           "            self._closing.add(ty.name)\n",
           ""),
    Mutant("atom-hash-leaves-out-the-base", "denot.py",
           "        self._hash = hash((base, tag))\n",
           "        self._hash = hash(tag)\n"),
    Mutant("table-hash-reads-the-first-entry-alone", "denot.py",
           "        self._hash = hash((entries,))\n",
           "        self._hash = hash((entries[:1],))\n"),
    Mutant("table-index-answers-a-missing-argument-with-nothing", "denot.py",
           "image = self._index.get(arg)\n",
           "image = self._index.get(arg, frozenset())\n"),
    Mutant("closed-memo-takes-an-open-binder", "denot.py",
           "                t, None if free_vars(t) else "
           "_binder(t, env, model, binders))\n",
           "                t, _binder(t, env, model, binders))\n"),
    Mutant("closedness-read-from-the-body", "denot.py",
           "None if free_vars(t) else",
           "None if free_vars(t.body) else"),
    Mutant("atloc-token-keeps-only-its-digits", "concrete.py",
           "            tokens.append(Token(kind, value, line, col))\n",
           "            tokens.append(Token(kind, value[2:] if kind == \"atloc\" "
           "else value, line, col))\n"),
]


def checkout_files():
    """The checkout's files, relative to ROOT: tracked, and untracked
    but not ignored, that exist in the working tree."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout.decode()
    return sorted({f for f in listed.split("\0")
                   if f and os.path.isfile(os.path.join(ROOT, f))})


def mutate(source, mutant):
    """source with the mutant's snippet replaced; ValueError unless the
    snippet occurs exactly once."""
    count = source.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times "
                         f"in src/lamu/{mutant.module}")
    return source.replace(mutant.snippet, mutant.replacement)


# This module is also the pytest plugin (-p mutants) of each run in the
# copy: it appends each test's start, failure and end to the file that
# MUTANT_EVENTS names, so that the runner sees which test is running.

def _event(kind, nodeid):
    with open(os.environ["MUTANT_EVENTS"], "a", encoding="utf-8") as handle:
        handle.write(f"{kind} {nodeid}\n")


def pytest_runtest_logstart(nodeid, location):
    _event("start", nodeid)


def pytest_runtest_logreport(report):
    if report.failed:
        _event("fail", report.nodeid)


def pytest_collectreport(report):
    if report.failed:
        _event("fail", report.nodeid)


def pytest_runtest_logfinish(nodeid, location):
    _event("done", nodeid)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_tier1(copy):
    """The node ids of the tests that fail in the copy, in order.  A test
    that runs over TEST_SECONDS, or takes the process down, fails: the
    process is ended and Tier-1 goes on without the tests that finished
    and that one."""
    events = os.path.join(copy, "mutant-events.txt")
    # a fixed hash seed: a test that iterates a set of strings sees the
    # same order in every run, and every other input is seeded
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               MUTANT_EVENTS=events,
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(copy, "src"), os.path.join(copy, "tests")]))
    # test_mutants checks the source text, which every mutant changes
    command = [sys.executable, "-m", "pytest", "-q", "-o", "addopts=",
               "-p", "no:cacheprovider", "-p", "mutants",
               "--continue-on-collection-errors",
               "--ignore=" + os.path.join("tests", "test_mutants.py")]
    failed, finished = {}, []
    while True:
        open(events, "w").close()
        process = subprocess.Popen(
            command + [f"--deselect={t}" for t in finished], cwd=copy,
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=_limit_memory)
        seen, since = 0, time.monotonic()
        while process.poll() is None:
            time.sleep(0.2)
            with open(events, encoding="utf-8") as handle:
                count = len(handle.readlines())
            if count != seen:
                seen, since = count, time.monotonic()
            elif time.monotonic() - since > TEST_SECONDS:
                process.kill()
                process.wait()
        running = None
        with open(events, encoding="utf-8") as handle:
            for line in handle:
                kind, nodeid = line.rstrip("\n").split(" ", 1)
                if kind == "fail":
                    failed[nodeid] = None
                elif kind == "start":
                    running = nodeid
                else:
                    finished.append(nodeid)
                    running = None
        if running is None:
            if process.returncode not in (0, 1):
                failed[f"(pytest exit {process.returncode})"] = None
            return list(failed)
        failed[running] = None
        finished.append(running)


def main(argv):
    names = set(argv)
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    copy = tempfile.mkdtemp(prefix="lamu-mutants-")
    try:
        for f in checkout_files():
            os.makedirs(os.path.dirname(os.path.join(copy, f)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, f), os.path.join(copy, f))
        start = time.monotonic()
        baseline = run_tier1(copy)
        print(f"unmutated: {len(baseline)} failing "
              f"({time.monotonic() - start:.1f} s)", flush=True)
        if baseline:
            sys.exit("Tier-1 fails without a mutant:\n  " + "\n  ".join(baseline))
        kills = {}
        for m in chosen:
            path = os.path.join(copy, "src", "lamu", m.module)
            with open(path, encoding="utf-8") as handle:
                original = handle.read()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(mutate(original, m))
            start = time.monotonic()
            try:
                kills[m.name] = run_tier1(copy)
            finally:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(original)
            print(f"\n{m.name}: killed by {len(kills[m.name])} "
                  f"({time.monotonic() - start:.1f} s)", flush=True)
            for test in kills[m.name]:
                print(f"    {test}", flush=True)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    sole = {}
    for name, tests in kills.items():
        if len(tests) == 1:
            sole.setdefault(tests[0], []).append(name)
    print("\ntests that alone kill a mutant:")
    for test, mutants in sorted(sole.items()):
        print(f"    {test}: {', '.join(mutants)}")
    survivors = [name for name, tests in kills.items() if not tests]
    print(f"\n{len(kills) - len(survivors)} of {len(kills)} mutants killed"
          + (f"; survivors: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
