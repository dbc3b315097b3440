"""The mutation catalogue in tests/mutants.py still applies to the code:
every anchor matches its file exactly once, and every test it names is
still defined."""

from pathlib import Path

import pytest

from mutants import CATALOGUE, ROOT, anchor_count


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_every_mutant_anchor_matches_exactly_once(mutant):
    assert anchor_count(mutant) == 1
    for test in mutant.tests:
        path, func = test.split("::")
        func = func.split("[")[0]
        assert f"\ndef {func}(" in Path(ROOT, path).read_text(), test
