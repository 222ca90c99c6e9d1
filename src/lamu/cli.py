"""Command-line interface: run, check, denote, the property-suite
subcommands, and a small REPL.

Exit codes: 0 success, 1 the program normalized to fail, 2 any rejected
input (a LamuError, nesting too deep to recurse over, or no memory), 3
property-suite counterexample, 141 (128 + SIGPIPE) the reader closed
standard output.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import List, Optional

from . import denot, reduction
from .concrete import (
    SourceFile, parse_file, parse_program, pretty_program, tokenize,
)
from .generator import STRATIFIED_SIGNATURE, Generator, GeneratorConfig
from .reduction import evaluate, reachable_normal_forms, replay
from .syntax import LamuError
from .typecheck import (
    Typing, ambient_context, base_names_used, default_signature, infer,
    subject_reduction_check,
)

EXIT_OK = 0
EXIT_FAILED_PROGRAM = 1
EXIT_USER_ERROR = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_BROKEN_PIPE = 141


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
        for n, (ts, after) in enumerate(replay(src.program, result.trace)):
            print(f"#{n} [{ts.rule}] thread={ts.thread}", file=out)
            print(pretty_program(after), file=out)
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
    return denot.Model(sizes, default_signature(src.signature), cap=cap)


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


def _suite(name: str, config: GeneratorConfig, args, holds, summary: str,
           out) -> int:
    """Draw args.samples programs from config's stream and write the first
    that fails holds(src, index, tally) to a counterexample file; else
    print summary, filled in from the Counter tally (samples included)."""
    tally = Counter(samples=args.samples)
    stream = Generator(config).programs()
    src = SourceFile(signature=dict(config.signature))
    for i in range(args.samples):
        src.program = next(stream)
        if not holds(src, i, tally):
            text = "".join(f"cons {c} : {ty!r}.\n"
                           for c, ty in src.signature.items())
            text += pretty_program(src.program) + "\n"
            path = f"counterexample-{name}-{i}.luni"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"counterexample (sample {i}), written to {path}:\n{text}",
                  file=out, end="")
            return EXIT_COUNTEREXAMPLE
    print(summary.format_map(tally), file=out)
    return EXIT_OK


def cmd_test_confluence(args, out) -> int:
    def confluent(src, i, tally):
        exploration = reachable_normal_forms(src.program, fuel=args.fuel,
                                             max_states=args.max_states)
        tally["bound_limited"] += not exploration.complete
        tally["states"] += exploration.states
        if exploration.states > tally["most"]:  # the first sample with most
            tally["most"], tally["most_at"] = exploration.states, i
        return len(exploration.normal_forms) <= 1

    return _suite(
        "confluence", GeneratorConfig(seed=args.seed, max_depth=args.depth),
        args, confluent, "confluence: {samples} samples, {bound_limited} "
        "bound-limited, 0 counterexamples; {states} states, most in sample "
        "{most_at} ({most})", out)


def cmd_test_soundness(args, out) -> int:
    def sound(src, i, tally):
        try:
            typing = _typing(src)
            model = _model_for(src, args.cap, typing)
            return denot.soundness_check(src.program, model, fuel=args.fuel,
                                         typing=typing).ok
        except (denot.TooLarge, denot.DenotError):
            tally["skipped"] += 1
            return True

    config = GeneratorConfig(seed=args.seed, max_depth=args.depth,
                             allow_absloc=False, well_typed=True,
                             signature=dict(STRATIFIED_SIGNATURE))
    return _suite("soundness", config, args, sound, "soundness: {samples} "
                  "samples, {skipped} skipped (no finite model), 0 "
                  "counterexamples", out)


def cmd_test_subject_reduction(args, out) -> int:
    config = GeneratorConfig(seed=args.seed, max_depth=args.depth,
                             allow_absloc=False, well_typed=True)
    sig = default_signature(config.signature)
    return _suite(
        "subject-reduction", config, args,
        lambda src, i, tally: subject_reduction_check(
            ambient_context(src.program), sig, src.program,
            fuel=args.fuel).ok,
        "subject reduction: {samples} samples, 0 counterexamples", out)


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
                tokens = tokenize(line)
                if len(tokens) == 1:  # blank, or only a comment
                    continue
                parsed = parse_file(line, session.definitions)
                session.signature.update(parsed.signature)
                session.base_sizes.update(parsed.base_sizes)
                session.definitions.update(parsed.definitions)
                if tokens[-2].text == ".":  # declarations only
                    continue
                session.program = parsed.program
                view = cmd_run
            view(argparse.Namespace(file=session, fuel=1000,
                                    strategy="leftmost", seed=0,
                                    trace=command == ":trace", cap=4096), out)
        except (LamuError, RecursionError) as exc:
            print(f"error: {exc}", file=out)
        except MemoryError:  # it carries no text
            print("error: out of memory", file=out)


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

    for name, func, samples, fuel, more in (
            ("test-confluence", cmd_test_confluence, 500, 200,
             {"--max-states": 10000}),
            ("test-soundness", cmd_test_soundness, 200, 50, {"--cap": 4096}),
            ("test-subject-reduction", cmd_test_subject_reduction, 300, 200,
             {})):
        suite = sub.add_parser(name, help=f"property suite: {name[5:]}")
        suite.add_argument("--samples", type=_count, default=samples)
        suite.add_argument("--seed", type=int, default=seed)
        suite.add_argument("--fuel", type=_count, default=fuel)
        suite.add_argument("--depth", type=_count, default=3)
        for option, default in more.items():
            suite.add_argument(option, type=_count, default=default)
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
    except MemoryError:  # it carries no text
        print("error: out of memory", file=sys.stderr)
        return EXIT_USER_ERROR
    except BrokenPipeError:
        # the rest of the buffer goes to devnull: the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
