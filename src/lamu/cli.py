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
from typing import List, Optional

from . import denot, reduction
from .concrete import (
    SourceFile, parse_file, parse_program, pretty_program, tokenize,
)
from .generator import STRATIFIED_SIGNATURE, Generator, GeneratorConfig
from .reduction import evaluate, reachable_normal_forms, replay
from .syntax import LamuError, Program
from .typecheck import (
    Typing, ambient_context, base_names_used, default_signature, infer,
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


def _count(text: str) -> int:
    """argparse type of every count option: a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text}")
    return int(text)


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


def _source_text(src: SourceFile) -> str:
    lines = []
    for name, ty in src.signature.items():
        lines.append(f"cons {name} : {ty!r}.")
    lines.append(pretty_program(src.program))
    return "\n".join(lines) + "\n"


def _write_counterexample(suite: str, index: int, src: SourceFile,
                          out) -> None:
    text = _source_text(src)
    path = f"counterexample-{suite}-{index}.luni"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"counterexample (sample {index}), written to {path}:", file=out)
    print(text, file=out, end="")


def _typing(src: SourceFile) -> Typing:
    """The principal typing of the program, its free variables ambient."""
    return infer(ambient_context(src.program),
                 default_signature(src.signature), src.program)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_run(args, out) -> int:
    src = args.file
    result = evaluate(src.program, fuel=args.fuel, strategy=args.strategy,
                      seed=args.seed)
    if args.trace:
        _print_trace(src.program, result.trace, out)
    # the whole text first: a program too deep to print leaves no header
    text = pretty_program(result.program)
    if not result.normal:
        text = f"out of fuel after {result.steps} steps:\n{text}"
    print(text, file=out)
    if result.normal and result.program.is_fail:
        return EXIT_FAILED_PROGRAM
    return EXIT_OK


def cmd_check(args, out) -> int:
    typing = _typing(args.file)
    print(repr(typing.type), file=out)
    for name in sorted(typing.gamma):
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
    src = args.file
    typing = _typing(src)
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
    src = SourceFile(signature=dict(config.signature))
    bound_limited = states = 0
    most = (0, 0)       # (states, index) of the first sample with the most
    for i in range(args.samples):
        src.program = next(stream)
        exploration = reachable_normal_forms(src.program, fuel=args.fuel,
                                             max_states=args.max_states)
        bound_limited += not exploration.complete
        states += exploration.states
        if exploration.states > most[0]:
            most = (exploration.states, i)
        if len(exploration.normal_forms) > 1:
            _write_counterexample("confluence", i, src, out)
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
    src = SourceFile(signature=dict(config.signature))
    skipped = 0
    for i in range(args.samples):
        src.program = next(stream)
        try:
            model = _model_for(src, args.cap, _typing(src))
            verdict = denot.soundness_check(src.program, model, fuel=args.fuel)
        except (denot.TooLarge, denot.DenotError):
            skipped += 1
            continue
        if not verdict.ok:
            _write_counterexample("soundness", i, src, out)
            return EXIT_COUNTEREXAMPLE
    print(f"soundness: {args.samples} samples, {skipped} skipped "
          f"(no finite model), 0 counterexamples", file=out)
    return EXIT_OK


def cmd_test_subject_reduction(args, out) -> int:
    config = GeneratorConfig(seed=args.seed, max_depth=args.depth,
                             allow_absloc=False, well_typed=True)
    gen = Generator(config)
    stream = gen.programs()
    src = SourceFile(signature=dict(config.signature))
    sig = default_signature(src.signature)
    for i in range(args.samples):
        src.program = next(stream)
        verdict = subject_reduction_check(ambient_context(src.program), sig,
                                          src.program, fuel=args.fuel)
        if not verdict.ok:
            _write_counterexample("subject-reduction", i, src, out)
            return EXIT_COUNTEREXAMPLE
    print(f"subject reduction: {args.samples} samples, 0 counterexamples",
          file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# REPL

def cmd_repl(args, out) -> int:
    """Each line is run, checked or denoted by cmd_run, cmd_check or
    cmd_denote, on the session's declarations plus the line."""
    session = SourceFile()
    views = {":trace": cmd_run, ":type": cmd_check, ":denote": cmd_denote}
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
        command, _, rest = line.partition(" ")
        try:
            if line in (":q", ":quit"):
                return EXIT_OK
            if line.startswith(":"):
                if command not in views:
                    print(f"unknown command {command}", file=out)
                    continue
                session.program = parse_program(rest, session.definitions)
                view = views[command]
            else:
                parsed = parse_file(line, session.definitions)
                session.signature.update(parsed.signature)
                session.base_sizes.update(parsed.base_sizes)
                session.definitions.update(parsed.definitions)
                if tokenize(line)[-2].text == ".":  # declarations only
                    continue
                session.program = parsed.program
                view = cmd_run
            view(argparse.Namespace(file=session, fuel=1000,
                                    strategy="leftmost", seed=0,
                                    trace=command == ":trace", cap=4096), out)
        except (LamuError, RecursionError) as exc:
            print(f"error: {exc}", file=out)


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamu",
        description="evaluator, type checker, and semantics test harness")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()

    run = sub.add_parser("run", help="evaluate a program file")
    run.add_argument("file", type=_load)
    run.add_argument("--fuel", type=_count, default=1000)
    run.add_argument("--strategy", choices=reduction.STRATEGIES,
                     default="leftmost")
    run.add_argument("--trace", action="store_true")
    run.add_argument("--seed", type=int, default=seed)
    run.set_defaults(func=cmd_run)

    check = sub.add_parser("check", help="infer the program's type")
    check.add_argument("file", type=_load)
    check.set_defaults(func=cmd_check)

    den = sub.add_parser("denote", help="compute the finite denotation")
    den.add_argument("file", type=_load)
    den.add_argument("--cap", type=_count, default=4096)
    den.set_defaults(func=cmd_denote)

    for name, func, extra in (
            ("test-confluence", cmd_test_confluence,
             {"samples": 500, "fuel": 200}),
            ("test-soundness", cmd_test_soundness, {"samples": 200, "fuel": 50}),
            ("test-subject-reduction", cmd_test_subject_reduction,
             {"samples": 300, "fuel": 200})):
        suite = sub.add_parser(name, help=f"property suite: {name[5:]}")
        suite.add_argument("--samples", type=_count, default=extra["samples"])
        suite.add_argument("--seed", type=int, default=seed)
        suite.add_argument("--fuel", type=_count, default=extra["fuel"])
        suite.add_argument("--depth", type=_count, default=3)
        if name == "test-confluence":
            suite.add_argument("--max-states", type=_count, default=10000)
        if name == "test-soundness":
            suite.add_argument("--cap", type=_count, default=4096)
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
