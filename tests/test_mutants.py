from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_still_applies_once_and_names_existing_tests(mutant):
    # Applying the mutants takes a copy of the tree (tools/run_mutants.py); this
    # only keeps the list from rotting as the code and the tests move.
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.kills
    for test_id in mutant.kills:
        path, _, name = test_id.partition("::")
        assert f"def {name.partition('[')[0]}(" in (ROOT / path).read_text(encoding="utf-8")
