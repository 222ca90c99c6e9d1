"""The mutant table's own check: every mutant still plants exactly once
in today's source and leaves a module that parses, so the table, which
is run by hand (``python3 tests/mutants.py``), cannot rot."""

import ast
import os

import pytest

from mutants import MUTANTS, ROOT, mutate


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_plants_once_in_todays_source(mutant):
    path = os.path.join(ROOT, "src", "lamu", mutant.module)
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    mutated = mutate(source, mutant)
    assert mutated != source
    ast.parse(mutated)


def test_a_snippet_that_is_not_there_once_is_refused():
    mutant = MUTANTS[0]
    for source in ("", mutant.snippet * 2):
        with pytest.raises(ValueError, match="occurs"):
            mutate(source, mutant)
