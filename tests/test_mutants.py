"""The committed mutant list in `mutants.py` still applies to `src/`."""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    path = mutants.SRC / "jsonduel" / mutant.file
    assert mutant.old in path.read_text(encoding="utf-8")
    assert mutants.occurrences(mutant) == 1
