"""Command-line interface: run, check, denote, the property-suite
subcommands, and a small REPL.

Exit codes: 0 success, 1 the program normalized to fail, 2 any rejected
input (a LamuError, or nesting too deep to recurse over), 3
property-suite counterexample.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from . import denot, reduction
from .concrete import SourceFile, parse_file, parse_program, pretty_program
from .generator import STRATIFIED_SIGNATURE, Generator, GeneratorConfig
from .reduction import evaluate, reachable_normal_forms, replay
from .syntax import LamuError, Program, free_vars
from .typecheck import (
    ambient_context, base_names_used, default_signature, infer,
    subject_reduction_check,
)

EXIT_OK = 0
EXIT_FAILED_PROGRAM = 1
EXIT_USER_ERROR = 2
EXIT_COUNTEREXAMPLE = 3


class UsageError(LamuError):
    """An unreadable input file or a malformed setting."""


def _default_seed() -> int:
    text = os.environ.get("LUNI_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"LUNI_SEED must be an integer, not {text!r}") from None


def _load(path: str) -> SourceFile:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    return parse_file(text)


def _print_trace(p: Program, trace, out):
    for n, (ts, after) in enumerate(replay(p, trace)):
        print(f"#{n} [{ts.rule}] thread={ts.thread}", file=out)
        print(pretty_program(after), file=out)


def _source_text(src: SourceFile, program: Program) -> str:
    lines = []
    for name, ty in src.signature.items():
        lines.append(f"cons {name} : {ty!r}.")
    for name, size in src.base_sizes.items():
        lines.append(f"base {name} = {size}.")
    lines.append(pretty_program(program))
    return "\n".join(lines) + "\n"


def _write_counterexample(suite: str, index: int, src: SourceFile,
                          program: Program, out) -> None:
    text = _source_text(src, program)
    path = f"counterexample-{suite}-{index}.luni"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"counterexample (sample {index}), written to {path}:", file=out)
    print(text, file=out, end="")


def _generator_source(config: GeneratorConfig) -> SourceFile:
    src = SourceFile()
    src.signature = dict(config.signature)
    return src


# ---------------------------------------------------------------------------
# Subcommands

def cmd_run(args, out) -> int:
    src = _load(args.file)
    result = evaluate(src.program, fuel=args.fuel, strategy=args.strategy,
                      seed=args.seed)
    if args.trace:
        _print_trace(src.program, result.trace, out)
    if not result.normal:
        print(f"out of fuel after {result.steps} steps:", file=out)
    print(pretty_program(result.program), file=out)
    if result.normal and result.program.is_fail:
        return EXIT_FAILED_PROGRAM
    return EXIT_OK


def cmd_check(args, out) -> int:
    src = _load(args.file)
    sig = default_signature(src.signature)
    typing = infer(ambient_context(src.program), sig, src.program)
    print(repr(typing.type), file=out)
    for name in sorted(typing.gamma):
        if name in free_vars(src.program):
            print(f"  {name} : {typing.gamma[name]!r}", file=out)
    return EXIT_OK


def _model_for(src: SourceFile, cap: int, typing) -> denot.Model:
    sizes = dict(src.base_sizes)
    for name in base_names_used(typing):
        sizes.setdefault(name, 2)
    sizes.pop("unit", None)
    sig = default_signature(src.signature)
    return denot.Model(sizes, sig, cap=cap)


def cmd_denote(args, out) -> int:
    src = _load(args.file)
    sig = default_signature(src.signature)
    typing = infer(ambient_context(src.program), sig, src.program)
    model = _model_for(src, args.cap, typing)
    sem = denot.denote_toplevel(typing.node, model, typing.gamma)
    print(f"type: {typing.type!r}", file=out)
    print(f"denotation ({len(sem)} element(s)):", file=out)
    for item in sorted(map(repr, sem)):
        print(f"  {item}", file=out)
    return EXIT_OK


def cmd_test_confluence(args, out) -> int:
    config = GeneratorConfig(seed=args.seed, max_depth=args.depth)
    gen = Generator(config)
    stream = gen.programs()
    src = _generator_source(config)
    bound_limited = states = 0
    most = (0, 0)       # (states, index) of the first sample with the most
    for i in range(args.samples):
        p = next(stream)
        exploration = reachable_normal_forms(p, fuel=args.fuel,
                                             max_states=args.max_states)
        bound_limited += not exploration.complete
        states += exploration.states
        if exploration.states > most[0]:
            most = (exploration.states, i)
        if len(exploration.normal_forms) > 1:
            _write_counterexample("confluence", i, src, p, out)
            return EXIT_COUNTEREXAMPLE
    print(f"confluence: {args.samples} samples, {bound_limited} bound-limited, "
          f"0 counterexamples; {states} states, most in sample {most[1]} "
          f"({most[0]})", file=out)
    return EXIT_OK


def cmd_test_soundness(args, out) -> int:
    config = GeneratorConfig(seed=args.seed, max_depth=args.depth,
                             allow_absloc=False, well_typed=True,
                             signature=dict(STRATIFIED_SIGNATURE))
    gen = Generator(config)
    stream = gen.programs()
    src = _generator_source(config)
    sig = default_signature(config.signature)
    skipped = 0
    for i in range(args.samples):
        p = next(stream)
        try:
            typing = infer(ambient_context(p), sig, p)
            model = _model_for(src, args.cap, typing)
            verdict = denot.soundness_check(p, model, fuel=args.fuel)
        except (denot.TooLarge, denot.DenotError):
            skipped += 1
            continue
        if not verdict.ok:
            _write_counterexample("soundness", i, src, p, out)
            return EXIT_COUNTEREXAMPLE
    print(f"soundness: {args.samples} samples, {skipped} skipped "
          f"(no finite model), 0 counterexamples", file=out)
    return EXIT_OK


def cmd_test_subject_reduction(args, out) -> int:
    config = GeneratorConfig(seed=args.seed, max_depth=args.depth,
                             allow_absloc=False, well_typed=True)
    gen = Generator(config)
    stream = gen.programs()
    src = _generator_source(config)
    sig = default_signature(config.signature)
    for i in range(args.samples):
        p = next(stream)
        verdict = subject_reduction_check(ambient_context(p), sig, p,
                                          fuel=args.fuel)
        if not verdict.ok:
            _write_counterexample("subject-reduction", i, src, p, out)
            return EXIT_COUNTEREXAMPLE
    print(f"subject reduction: {args.samples} samples, 0 counterexamples",
          file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# REPL

def cmd_repl(args, out) -> int:
    state = SourceFile()
    definitions: Dict[str, object] = {}
    print("type a program, a declaration, or :trace/:type/:denote/:quit",
          file=out)
    while True:
        try:
            line = input("luni> ")
        except EOFError:
            print("", file=out)
            return EXIT_OK
        line = line.strip()
        if not line:
            continue
        try:
            if line in (":q", ":quit"):
                return EXIT_OK
            if line.startswith(":"):
                _repl_meta(line, state, definitions, out)
                continue
            if line.split()[0] in ("cons", "base", "def"):
                parsed = parse_file(line, definitions)
                state.signature.update(parsed.signature)
                state.base_sizes.update(parsed.base_sizes)
                definitions.update(parsed.definitions)
                if not parsed.program.is_fail:
                    _repl_run(parsed.program, out)
                continue
            _repl_run(parse_program(line, definitions), out)
        except (LamuError, RecursionError) as exc:
            print(f"error: {exc}", file=out)


def _repl_run(program: Program, out) -> None:
    result = evaluate(program, fuel=1000)
    prefix = "" if result.normal else "out of fuel: "
    print(prefix + pretty_program(result.program), file=out)


def _repl_meta(line: str, state: SourceFile, definitions, out) -> None:
    command, _, rest = line.partition(" ")
    if command not in (":trace", ":type", ":denote"):
        print(f"unknown command {command}", file=out)
        return
    program = parse_program(rest, definitions)
    if command == ":trace":
        result = evaluate(program, fuel=1000)
        _print_trace(program, result.trace, out)
        print(pretty_program(result.program), file=out)
        return
    sig = default_signature(state.signature)
    typing = infer(ambient_context(program), sig, program)
    if command == ":type":
        print(repr(typing.type), file=out)
        return
    model = _model_for(state, 4096, typing)
    sem = denot.denote_toplevel(typing.node, model, typing.gamma)
    for item in sorted(map(repr, sem)) or ["(empty)"]:
        print(f"  {item}", file=out)


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamu",
        description="evaluator, type checker, and semantics test harness")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()

    run = sub.add_parser("run", help="evaluate a program file")
    run.add_argument("file")
    run.add_argument("--fuel", type=int, default=1000)
    run.add_argument("--strategy", choices=reduction.STRATEGIES,
                     default="leftmost")
    run.add_argument("--trace", action="store_true")
    run.add_argument("--seed", type=int, default=seed)
    run.set_defaults(func=cmd_run)

    check = sub.add_parser("check", help="infer the program's type")
    check.add_argument("file")
    check.set_defaults(func=cmd_check)

    den = sub.add_parser("denote", help="compute the finite denotation")
    den.add_argument("file")
    den.add_argument("--cap", type=int, default=4096)
    den.set_defaults(func=cmd_denote)

    for name, func, extra in (
            ("test-confluence", cmd_test_confluence,
             {"samples": 500, "fuel": 200}),
            ("test-soundness", cmd_test_soundness, {"samples": 200, "fuel": 50}),
            ("test-subject-reduction", cmd_test_subject_reduction,
             {"samples": 300, "fuel": 200})):
        suite = sub.add_parser(name, help=f"property suite: {name[5:]}")
        suite.add_argument("--samples", type=int, default=extra["samples"])
        suite.add_argument("--seed", type=int, default=seed)
        suite.add_argument("--fuel", type=int, default=extra["fuel"])
        suite.add_argument("--depth", type=int, default=3)
        if name == "test-confluence":
            suite.add_argument("--max-states", type=int, default=10000)
        if name == "test-soundness":
            suite.add_argument("--cap", type=int, default=4096)
        suite.set_defaults(func=func)

    repl = sub.add_parser("repl", help="interactive loop")
    repl.set_defaults(func=cmd_repl)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, sys.stdout)
    except SystemExit as exc:
        return EXIT_USER_ERROR if exc.code else EXIT_OK
    except (LamuError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR


if __name__ == "__main__":
    sys.exit(main())
