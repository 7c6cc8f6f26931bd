"""Byte-for-byte pins on solver and evaluator output, and on the shipped
hospital64 instance.

The files in tests/goldens/ come from scripts/capture_goldens.py.  A
refactor must reproduce them exactly; a change that alters behaviour on
purpose regenerates them with that script and says so.
"""

import importlib.util
import json

import pytest

from helpers import GOLDEN_DIR, INSTANCE_DIR, golden_cases, golden_text

CASES = golden_cases()


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_output_unchanged(stem):
    expected = (GOLDEN_DIR / f"{stem}.json").read_text()
    assert golden_text(CASES[stem]()) == expected


def test_case_instance_script_writes_the_shipped_hospital64():
    """scripts/build_case_instance.py rebuilds instances/hospital64.json
    byte for byte."""
    path = INSTANCE_DIR.parent / "scripts" / "build_case_instance.py"
    spec = importlib.util.spec_from_file_location("build_case_instance", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    expected = (INSTANCE_DIR / "hospital64.json").read_bytes()
    assert (json.dumps(script.build(), indent=1) + "\n").encode() == expected
