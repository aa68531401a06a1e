"""The standing mutation gate (`tests/mutants.py`) still aims at the code.

Runs no mutant: each old text must occur exactly once in its file, as the
gate requires, and each test selection must name existing tests, so a
refactor that strands a mutant fails here on every Python version.
"""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [mutant[0] for mutant in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant[0])
def test_mutant_aims_at_one_place(mutant):
    name, path, old, new, selection = mutant
    assert old != new
    assert (ROOT / "src" / "fmethod" / path).read_text().count(old) == 1
    assert selection
    for item in selection:
        file, _, test = item.partition("::")
        text = (ROOT / file).read_text()
        assert not test or f"def {test}(" in text
