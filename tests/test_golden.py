"""Frozen full-report documents for the reference loops.

Each golden file pins the complete JSON report of one reference word.
A failure here means an observable report field changed; regenerate the
files deliberately (see tests/golden/) only when the change is intended.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from cubeloops import build_report, parse_word

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CASES = {
    "n4_12314243": ("12314243", 4),
    "n4_12314342": ("12314342", 4),
    "n4_12314234": ("12314234", 4),
    "n4_12314324": ("12314324", 4),
    "n4_12341234": ("12341234", 4),
    "n4_12321434": ("12321434", 4),
    "n4_1231413214": ("1231413214", 4),
    "n4_123214123214": ("123214123214", 4),
    "n3_123123": ("123123", 3),
    "n3_121323": ("121323", 3),
    "n3_12321232": ("12321232", 3),
    "n5_145231425232": ("145231425232", 5),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    word, dim = CASES[name]
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert build_report(parse_word(word, dim)) == expected
