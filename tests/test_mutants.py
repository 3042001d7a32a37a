"""The committed mutant list in `mutants.py` still applies to `src/`, and
its committed kill table names exactly the listed mutants, and the test
that killed each killed one."""

import re

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    path = mutants.SRC / "jsonduel" / mutant.file
    assert mutant.old in path.read_text(encoding="utf-8")
    assert mutants.occurrences(mutant) == 1


def test_kill_table_names_every_mutant_in_order():
    lines = mutants.TABLE.read_text(encoding="utf-8").splitlines()
    names = [re.match(r"(killed|survived)( \(equivalent\))? +(\S+) \(", line)[3] for line in lines]
    assert names == [m.name for m in mutants.MUTANTS]


def test_kill_table_names_the_test_that_killed_each_mutant():
    for line in mutants.TABLE.read_text(encoding="utf-8").splitlines():
        if line.startswith("killed"):
            assert re.match(r"killed +\S+ \(\S+\) by tests/\S+\.py", line), line
