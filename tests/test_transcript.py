"""The command-line transcript, pinned byte for byte: ``lamu run`` under
every strategy at seeds 0 and 3, with and without ``--trace``, ``check``
and ``denote`` on every corpus file, and the three property-suite
summaries at 20 samples, seed 7.  Each command runs in-process through
``cli.main``.

To rewrite the golden file after an intended change of output::

    PYTHONPATH=src python tests/test_transcript.py
"""

import contextlib
import io
import os

from lamu.cli import main
from lamu.reduction import STRATEGIES

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
GOLDEN = os.path.join(TESTS, "golden", "transcript.txt")
CORPUS = sorted(os.path.join("tests", "corpus", name)
                for name in os.listdir(os.path.join(TESTS, "corpus")))


def commands():
    """Each transcript command as its argument list, file paths relative
    to the repository root."""
    for path in CORPUS:
        for strategy in STRATEGIES:
            for seed in ("0", "3"):
                for trace in ([], ["--trace"]):
                    yield ["run", path, "--strategy", strategy,
                           "--seed", seed, *trace]
        yield ["check", path]
        yield ["denote", path]
    for suite in ("test-confluence", "test-soundness",
                  "test-subject-reduction"):
        yield [suite, "--samples", "20", "--seed", "7"]


def transcript():
    """Each command's line, standard output, standard error (each line
    marked ``! ``) and exit code, run from the repository root."""
    out = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in commands():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(argv)
            out.append(f"$ lamu {' '.join(argv)}\n")
            out.append(stdout.getvalue())
            out.extend(f"! {line}\n" for line in stderr.getvalue().splitlines())
            out.append(f"[exit {code}]\n")
    finally:
        os.chdir(cwd)
    return "".join(out)


def test_cli_transcript_matches_the_golden_file(monkeypatch):
    monkeypatch.delenv("LUNI_SEED", raising=False)
    with open(GOLDEN, encoding="utf-8") as handle:
        assert transcript() == handle.read()


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(transcript())
