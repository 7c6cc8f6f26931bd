"""Byte-for-byte pins on solver and evaluator output.

The files in tests/goldens/ come from scripts/capture_goldens.py.  A
refactor must reproduce them exactly; a change that alters behaviour on
purpose regenerates them with that script and says so.
"""

import pytest

from helpers import GOLDEN_DIR, golden_cases, golden_text

CASES = golden_cases()


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_output_unchanged(stem):
    expected = (GOLDEN_DIR / f"{stem}.json").read_text()
    assert golden_text(CASES[stem]()) == expected
