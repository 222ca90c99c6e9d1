"""Tests for the command-line interface: exit codes, trace output, and
report determinism."""

import argparse
import os
import re
from collections import Counter

import pytest

from helpers import CORPUS, cli, equal_images_source, within
from lamu.cli import (
    EXIT_BROKEN_PIPE, EXIT_COUNTEREXAMPLE, EXIT_FAILED_PROGRAM, EXIT_OK,
    EXIT_USER_ERROR,
    build_parser, main,
)
from lamu.concrete import parse_file
from lamu.denot import DenotError, SoundnessVerdict
from lamu.generator import DEFAULT_SIGNATURE, STRATIFIED_SIGNATURE
from lamu.reduction import Exploration
from lamu.syntax import Program, alpha_eq
from lamu.typecheck import Verdict, infer

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def corpus(name):
    return os.path.join(CORPUS, name)


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_trace_golden(capsys):
    code, out, _ = run_main(["run", corpus("trace.luni"), "--trace"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    tags = [l for l in lines if l.startswith("#")]
    assert tags == [
        "#0 [alloc] thread=0",
        "#1 [beta] thread=0",
        "#2 [fresh] thread=1",
        "#3 [unif] thread=1",
        "#4 [guard] thread=1",
    ]
    assert lines[-1] == "C D | D"


def test_run_without_trace(capsys):
    code, out, _ = run_main(["run", corpus("trace.luni")], capsys)
    assert code == EXIT_OK
    assert out.strip() == "C D | D"


def test_run_failing_program_exits_one(tmp_path, capsys):
    # declarations alone are the program fail
    for text in ("C =:= D\n", "cons S : i -> i.\nbase i = 2.\n"):
        path = tmp_path / "fails.luni"
        path.write_text(text)
        code, out, _ = run_main(["run", str(path)], capsys)
        assert code == EXIT_FAILED_PROGRAM
        assert out.strip() == "fail"


def test_check_ok(capsys):
    code, out, _ = run_main(["check", corpus("fresh_solve.luni")], capsys)
    assert code == EXIT_OK
    assert out.splitlines()[0] == "i"


def test_check_names_free_variables_independently_of_the_hash_seed(tmp_path):
    path = tmp_path / "open.luni"
    path.write_text("x =:= x ; y =:= y ; Ok\n")
    for seed in range(6):
        done = cli("check", str(path), env={"PYTHONHASHSEED": str(seed)},
                   text=True)
        out, _ = done.communicate(timeout=60)
        assert (done.returncode, out) == (
            EXIT_OK, "unit\n  x : t0\n  y : t1\n"), seed


def test_a_reader_that_closes_stdout_gets_no_traceback(tmp_path):
    # the 10-call fork ladder traces far more than a pipe holds
    path = tmp_path / "ladder.luni"
    path.write_text(rf"(\f. {'f (' * 10}C{')' * 10}) (\x. x | S x)")
    done = cli("run", "--trace", str(path))
    assert done.stdout.readline() == b"#0 [alloc] thread=0\n"
    done.stdout.close()
    _, err = done.communicate(timeout=60)
    assert (done.returncode, err) == (EXIT_BROKEN_PIPE, b"")


def test_check_ill_typed_exits_two(capsys):
    code, _, err = run_main(["check", corpus("ill_typed.luni")], capsys)
    assert code == EXIT_USER_ERROR
    assert "mismatch" in err


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.luni"
    path.write_text("x =:= \n")
    code, _, err = run_main(["run", str(path)], capsys)
    assert code == EXIT_USER_ERROR
    assert "line" in err


def test_captured_definition_exits_two(tmp_path, capsys):
    path = tmp_path / "capture.luni"
    path.write_text("def k = x.\n(\\x. k) C\n")
    code, out, err = run_main(["run", str(path)], capsys)
    assert code == EXIT_USER_ERROR and out == ""
    assert err == ("error: a binder captures x in definition k at line 2, "
                   "column 6\n")


def test_missing_file_exits_two(capsys):
    code, _, _ = run_main(["run", "no_such_file.luni"], capsys)
    assert code == EXIT_USER_ERROR


def test_directory_exits_two(tmp_path, capsys):
    code, out, err = run_main(["run", str(tmp_path)], capsys)
    assert code == EXIT_USER_ERROR
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_non_utf8_file_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.luni"
    path.write_bytes(b"C \xe9\n")
    code, out, err = run_main(["run", str(path)], capsys)
    assert code == EXIT_USER_ERROR
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_bad_seed_env_variable_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("LUNI_SEED", "abc")
    code, out, err = run_main(["run", corpus("trace.luni")], capsys)
    assert code == EXIT_USER_ERROR
    assert out == "" and err == "error: LUNI_SEED must be an integer, not 'abc'\n"


def _deep_inputs(tmp_path):
    parens = tmp_path / "parens.luni"
    parens.write_text("(" * 2000 + "C" + ")" * 2000 + "\n")
    chain = tmp_path / "chain.luni"
    chain.write_text(" ; ".join(["C"] * 3000) + "\n")
    return parens, chain


def test_deep_inputs_exit_two(tmp_path, capsys):
    parens, chain = _deep_inputs(tmp_path)
    for argv in (["run", str(parens)], ["check", str(chain)]):
        code, out, err = run_main(argv, capsys)
        assert code == EXIT_USER_ERROR
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_a_numeral_too_long_to_print_exits_two(tmp_path, monkeypatch,
                                               capsys):
    # a base size of 5 000 digits, and a location of 4 300 digits whose
    # successor, the next location the run issues, no message could print
    base = tmp_path / "base.luni"
    base.write_text(f"base i = {'7' * 5000}.\n")
    loc = tmp_path / "loc.luni"
    loc.write_text(rf"(\x@L{'9' * 4300}. x) (\y. y)" + "\n")
    error = "error: a numeral has at most 100 digits at line 1, column {}"
    for path, column in ((base, 10), (loc, 4)):
        code, out, err = run_main(["run", str(path)], capsys)
        assert (code, out, err) == (EXIT_USER_ERROR, "",
                                    error.format(column) + "\n")
    code, out = run_repl([base.read_text().strip(), "C"], monkeypatch, capsys)
    assert (code, out) == (EXIT_OK, [error.format(10), "C", ""])


def test_unprintable_result_leaves_no_header(tmp_path, capsys):
    # the value grows one S every three steps, too deep to pretty-print
    # at fuel 3 000: stdout gets neither the program nor its header
    growing = tmp_path / "growing.luni"
    growing.write_text("(\\x. \\y. x x (S y)) (\\x. \\y. x x (S y)) C\n")
    code, out, err = run_main(["run", str(growing), "--fuel", "3000"], capsys)
    assert code == EXIT_USER_ERROR
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def run_repl(lines, monkeypatch, capsys):
    """The REPL's exit code and its output lines after the banner, for
    the given input lines."""
    lines = iter(lines)

    def fake_input(prompt):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", fake_input)
    code, out, _ = run_main(["repl"], capsys)
    return code, out.splitlines()[1:]


def test_repl_definitions_respect_binders(monkeypatch, capsys):
    code, out = run_repl([
        "def f = C.",
        r"(\f. f) D",
        "def k = x.",
        r":type \x. k",
        r"(\y. k) D",
    ], monkeypatch, capsys)
    assert code == EXIT_OK
    assert out[:3] == [
        "D",
        "error: a binder captures x in definition k at line 1, column 5",
        "x",
    ]


def test_repl_skips_a_line_that_holds_only_a_comment(monkeypatch, capsys):
    code, out = run_repl(["# just a comment", "", "C # a comment", "  #"],
                         monkeypatch, capsys)
    assert code == EXIT_OK
    assert out == ["C", ""]


def test_repl_reports_deep_input_and_continues(tmp_path, monkeypatch, capsys):
    parens, _ = _deep_inputs(tmp_path)
    code, out = run_repl([parens.read_text().strip(), "C"], monkeypatch, capsys)
    assert code == EXIT_OK
    error, result = out[:2]
    assert error.startswith("error: ") and result == "C"


def test_repl_transcript(monkeypatch, capsys):
    omega = "(\\x. x x) (\\x. x x)"
    code, out = run_repl([
        "cons S : i -> j.",
        "cons C : i.",
        "base i = 1.",
        "def two = \\x. S x.",
        "two C",
        ":type two",
        ":type z",
        ":trace two C",
        ":denote two C",
        "cons E : i. fail",
        omega,
        ":frob C",
        ")",
        "C",
        ":trace " + omega,
    ], monkeypatch, capsys)
    assert code == EXIT_OK
    assert out[:25] == [
        "S C",
        "i -> j",
        "t0",
        "  z : t0",
        "#0 [alloc] thread=0",
        "(\\x@L1. S x) C",
        "#1 [beta] thread=0",
        "S C",
        "S C",
        "type: j",
        "denotation (1 element(s)):",
        "  S(C)",
        "fail",
        "out of fuel after 1000 steps:",
        "(\\x@L2. x x) (\\x@L2. x x)",
        "unknown command :frob",
        "error: expected a term, found ')' at line 1, column 1",
        "C",
        "#0 [alloc] thread=0",
        "(\\x@L1. x x) (\\x. x x)",
        "#1 [alloc] thread=0",
        "(\\x@L1. x x) (\\x@L2. x x)",
        "#2 [beta] thread=0",
        "(\\x@L2. x x) (\\x@L2. x x)",
        "#3 [beta] thread=0",
    ]
    assert len(out) == 18 + 2 * 1000 + 3
    assert out[-4:] == [
        "(\\x@L2. x x) (\\x@L2. x x)",
        "out of fuel after 1000 steps:",
        "(\\x@L2. x x) (\\x@L2. x x)",
        "",
    ]


def test_usage_error_exits_two(capsys):
    code, _, _ = run_main(["frobnicate"], capsys)
    assert code == EXIT_USER_ERROR


@pytest.mark.parametrize("argv", [
    ["run", corpus("trace.luni"), "--fuel", "-1"],
    ["denote", corpus("fresh_solve.luni"), "--cap", "-1"],
    ["test-confluence", "--samples", "-2"],
    ["test-confluence", "--fuel", "-1"],
    ["test-confluence", "--max-states", "-1"],
    ["test-soundness", "--cap", "-1"],
    ["test-subject-reduction", "--depth", "-1"],
])
def test_negative_counts_exit_two(argv, capsys):
    code, out, err = run_main(argv, capsys)
    assert code == EXIT_USER_ERROR and out == ""
    assert f"error: argument {argv[-2]}: not a non-negative integer: -" in err


def test_denote(capsys):
    code, out, _ = run_main(["denote", corpus("fresh_solve.luni")], capsys)
    assert code == EXIT_OK
    assert "C" in out
    assert "1 element(s)" in out


def test_denote_rejects_an_oversized_base_at_once(tmp_path, capsys):
    # no type uses the base, so only its declared size can reject it
    path = tmp_path / "big.luni"
    path.write_text("base i = 1000000000. x\n", encoding="utf-8")
    code, out, err = within(1.0, "denote with a base of 10 ** 9 atoms",
                            lambda: run_main(["denote", str(path), "--cap",
                                              "10"], capsys))
    assert code == EXIT_USER_ERROR and out == ""
    assert err.splitlines() == [
        "error: enumeration of base type i needs 1000000000 elements, "
        "cap is 10"]


def test_denote_rejects_a_recursive_signature_at_once(capsys):
    # cons C : i -> i has no finite model
    code, out, err = within(1.0, "denote on a recursive signature",
                            lambda: run_main(["denote", corpus("unify_pair.luni")],
                                             capsys))
    assert code == EXIT_USER_ERROR
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "base type i" in err


def test_denote_refuses_a_count_too_long_to_print_at_once(
        tmp_path, monkeypatch, capsys):
    # f : k -> j, with 4 002 atoms in k and 8 in j, has 2 ** 32016 tables
    declarations = ("base i = 4000.", "base j = 8.", "cons K : i -> k.",
                    "cons M : j -> m.")
    program = r"\f. M (f (K x))"
    path = tmp_path / "huge.luni"
    path.write_text("\n".join([*declarations, program]) + "\n",
                    encoding="utf-8")
    error = ("error: enumeration of k -> j needs 2^32016 elements, cap is "
             "4096")
    assert within(1.0, "denote on a binder type of 2 ** 32016 tables",
                  lambda: run_main(["denote", str(path)], capsys)) \
        == (EXIT_USER_ERROR, "", error + "\n")
    code, out = run_repl([" ".join(declarations), ":denote " + program],
                         monkeypatch, capsys)
    assert (code, out) == (EXIT_OK, [error, ""])


def test_denote_applies_each_table_by_lookup(tmp_path, capsys):
    # one table of 200 tables of 200 entries, each entry applying K twice:
    # with a linear scan for each argument and a hash that walks a table
    # again whenever a set takes it, this took 2.75 s on a 2-core host
    path = tmp_path / "images.luni"
    path.write_text(equal_images_source(200), encoding="utf-8")
    code, out, err = within(1.0, "denote over 200 atoms",
                            lambda: run_main(["denote", str(path)], capsys))
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert lines[:2] == ["type: i -> i -> unit", "denotation (1 element(s)):"]
    # K is injective, so K x =:= K y holds on the diagonal alone
    assert len(lines) == 3 and lines[2].count("{Ok}") == 200


def test_denote_names_the_same_empty_base_under_every_hash_seed(tmp_path):
    # a and b are both empty; the model registers a constructor's
    # argument bases left to right, so the error names a, whatever order
    # a set of the two names would iterate in
    path = tmp_path / "empty.luni"
    path.write_text("base c = 1.\ncons F : a -> b -> c.\nOk\n",
                    encoding="utf-8")
    runs = [cli("denote", str(path), env={"PYTHONHASHSEED": str(seed)})
            for seed in range(4)]
    outputs = {(*run.communicate(), run.returncode) for run in runs}
    assert outputs == {(b"", b"error: base type a is empty\n", EXIT_USER_ERROR)}


def test_denote_lists_no_table_over_a_partial_domain(tmp_path, capsys):
    # a function over {i#0} alone is no element of i -> i2, since Z is in i
    path = tmp_path / "tables.luni"
    path.write_text("base i = 1. base i2 = 1. cons F : (i -> i2) -> j. "
                    "cons Z : i. x | F f\n", encoding="utf-8")
    code, out, err = run_main(["denote", str(path)], capsys)
    assert code == EXIT_OK and err == ""
    assert out.splitlines() == [
        "type: j",
        "denotation (6 element(s)):",
        "  F(Table[i#0->{i2#0}, Z->{i2#0}])",
        "  F(Table[i#0->{i2#0}, Z->{}])",
        "  F(Table[i#0->{}, Z->{i2#0}])",
        "  F(Table[i#0->{}, Z->{}])",
        "  j#0",
        "  j#1",
    ]


def test_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("lamu.denot.Model", exhausted)
    path = tmp_path / "c.luni"
    path.write_text("cons C : i. C\n", encoding="utf-8")
    assert run_main(["denote", str(path)], capsys) == (
        EXIT_USER_ERROR, "", "error: out of memory\n")
    code, out = run_repl(["cons C : i.", ":denote C", "C"], monkeypatch,
                         capsys)
    assert code == EXIT_OK
    assert out[:2] == ["error: out of memory", "C"]


RESERVED = [
    # each was accepted: the first made every guard's condition i -> i,
    # the second denoted as one element, A, with base unit dropped
    ("cons Ok : i -> i. Ok\n", "error: cons Ok is reserved at line 1, column 6\n"),
    ("base unit = 3. cons A : unit. fresh x. x =:= A ; x\n",
     "error: base unit is reserved at line 1, column 6\n"),
]


@pytest.mark.parametrize("text, error", RESERVED,
                         ids=["cons-Ok", "base-unit"])
def test_a_reserved_declaration_is_one_error_line(text, error, tmp_path,
                                                  capsys):
    path = tmp_path / "reserved.luni"
    path.write_text(text, encoding="utf-8")
    for command in ("run", "check", "denote"):
        assert run_main([command, str(path)], capsys) == (
            EXIT_USER_ERROR, "", error)


def test_the_repl_rejects_a_reserved_declaration_and_keeps_its_own(
        monkeypatch, capsys):
    code, out = run_repl(["cons A : j.", "cons Ok : j. A", ":type A"],
                         monkeypatch, capsys)
    assert code == EXIT_OK
    assert out[:2] == ["error: cons Ok is reserved at line 1, column 6", "j"]


def test_confluence_suite_small(capsys):
    code, out, _ = run_main(
        ["test-confluence", "--samples", "30", "--seed", "7"], capsys)
    assert code == EXIT_OK
    assert "0 counterexamples" in out


def test_confluence_suite_reports_bound_limited(capsys):
    code, out, _ = run_main(
        ["test-confluence", "--samples", "5", "--seed", "7",
         "--max-states", "1"], capsys)
    assert code == EXIT_OK
    assert out.strip() == ("confluence: 5 samples, 4 bound-limited, 0 counterexamples; "
                           "5 states, most in sample 0 (1)")


def test_subject_reduction_suite_small(capsys):
    code, out, _ = run_main(
        ["test-subject-reduction", "--samples", "30", "--seed", "7"], capsys)
    assert code == EXIT_OK


def test_soundness_suite_small(capsys):
    code, out, _ = run_main(
        ["test-soundness", "--samples", "15", "--seed", "7"], capsys)
    assert code == EXIT_OK


def test_soundness_suite_types_each_sample_once(monkeypatch, capsys):
    # the typing built for a sample's model is the one soundness_check
    # reads, so cli and denot infer once per sample (the generator's
    # well-typed filter calls its own infer, not counted here)
    calls = Counter()

    def counted(module):
        def counting_infer(*args):
            calls[module] += 1
            return infer(*args)
        return counting_infer

    for module in ("lamu.cli", "lamu.denot"):
        monkeypatch.setattr(f"{module}.infer", counted(module))
    code, out, _ = run_main(
        ["test-soundness", "--samples", "20", "--seed", "7"], capsys)
    assert code == EXIT_OK
    assert out.strip() == ("soundness: 20 samples, 1 skipped (no finite "
                           "model), 0 counterexamples")
    assert calls == {"lamu.cli": 20}


def test_soundness_suite_skips_the_draws_whose_count_is_too_long_to_print(
        capsys):
    # each seed draws binder types of more than 4 300 decimal digits
    for seed, skipped in (("1", 21), ("5", 25)):
        assert run_main(["test-soundness", "--seed", seed], capsys) == (
            EXIT_OK, f"soundness: 200 samples, {skipped} skipped (no finite "
            "model), 0 counterexamples\n", "")


def test_soundness_suite_skips_only_a_model_that_is_not_built(monkeypatch,
                                                              capsys):
    # an empty base leaves a sample without a model; a DenotError while
    # denoting is a fault, one error line
    def empty(*args, **kwargs):
        raise DenotError("base type i is empty")

    def faulty(*args, **kwargs):
        raise DenotError("application of a non-function denotation")

    argv = ["test-soundness", "--samples", "3"]
    with monkeypatch.context() as patch:
        patch.setattr("lamu.denot.Model", empty)
        assert run_main(argv, capsys) == (
            EXIT_OK, "soundness: 3 samples, 3 skipped (no finite model), 0 "
            "counterexamples\n", "")
    monkeypatch.setattr("lamu.denot.soundness_check", faulty)
    assert run_main(argv, capsys) == (
        EXIT_USER_ERROR, "",
        "error: application of a non-function denotation\n")


def test_soundness_suite_counts_skipped_draws(capsys):
    # at cap 1 no draw has a finite model: every one is skipped, and the
    # suite still ends after --samples draws
    code, out, _ = within(5.0, "test-soundness at cap 1", lambda: run_main(
        ["test-soundness", "--cap", "1", "--samples", "3"], capsys))
    assert code == EXIT_OK
    assert out.strip() == ("soundness: 3 samples, 3 skipped (no finite model), "
                           "0 counterexamples")


@pytest.mark.parametrize("suite, check, violation, signature", [
    ("confluence", "lamu.cli.reachable_normal_forms",
     Exploration({"one", "two"}, 2, True), DEFAULT_SIGNATURE),
    ("soundness", "lamu.denot.soundness_check",
     SoundnessVerdict(False, []), STRATIFIED_SIGNATURE),
    ("subject-reduction", "lamu.cli.subject_reduction_check",
     Verdict(False), DEFAULT_SIGNATURE),
])
def test_suite_writes_a_loadable_counterexample(
        suite, check, violation, signature, tmp_path, monkeypatch, capsys):
    samples = []

    def violated(*args, **kwargs):
        samples.append(next(a for a in args if isinstance(a, Program)))
        return violation

    monkeypatch.setattr(check, violated)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_main([f"test-{suite}", "--samples", "1"], capsys)
    assert code == EXIT_COUNTEREXAMPLE
    path = tmp_path / f"counterexample-{suite}-0.luni"
    assert out.startswith(
        f"counterexample (sample 0), written to {path.name}:")
    src = parse_file(path.read_text())
    [sample] = samples
    assert src.signature == signature
    assert alpha_eq(src.program, sample)


def test_reports_are_deterministic(capsys):
    _, first, _ = run_main(
        ["test-confluence", "--samples", "20", "--seed", "3"], capsys)
    _, second, _ = run_main(
        ["test-confluence", "--samples", "20", "--seed", "3"], capsys)
    assert first == second


def test_seed_env_variable(monkeypatch, capsys):
    monkeypatch.setenv("LUNI_SEED", "3")
    from lamu import cli
    parser = cli.build_parser()
    args = parser.parse_args(["test-confluence"])
    assert args.seed == 3


def test_seed_env_variable_is_read_on_every_call(monkeypatch, capsys):
    # a second main call in one process under another LUNI_SEED runs
    # with that seed
    argv = ["test-confluence", "--samples", "20"]
    expected = [run_main(argv + ["--seed", seed], capsys)[1]
                for seed in ("3", "5")]
    assert expected[0] != expected[1]
    outputs = []
    for seed in ("3", "5"):
        monkeypatch.setenv("LUNI_SEED", seed)
        outputs.append(run_main(argv, capsys)[1])
    assert outputs == expected


def test_readme_lists_every_option_of_every_subcommand():
    # the README's CLI block has one `lamu NAME ...` line per subcommand,
    # and that line shows every --option the subcommand accepts
    with open(README, encoding="utf-8") as handle:
        block = handle.read().split("## CLI", 1)[1].split("```")[1]
    lines = {line.split()[1]: line for line in block.splitlines()
             if line.startswith("lamu ")}
    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)).choices
    assert sorted(lines) == sorted(subcommands)
    missing = [
        (name, option)
        for name, parser in subcommands.items()
        for action in parser._actions for option in action.option_strings
        if option.startswith("--") and option != "--help"
        and not re.search(rf"\[{re.escape(option)}\b", lines[name])]
    assert missing == []
