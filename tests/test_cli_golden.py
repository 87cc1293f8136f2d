"""Byte-exact `sheetcheck graph` and `metrics` output.

The golden files under tests/golden were written by the CLI.  The
two-sheet workbook holds a reference to a missing sheet, a reference to
an absent cell, a range used as a plain operand, a cycle, quoted text
and an error value, so every kind of node label is pinned.
"""

from pathlib import Path

import pytest

import sheetcheck
from sheetcheck.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
WORKBOOKS = {
    "grades_solution": Path(sheetcheck.__file__).resolve().parent / "data" / "grades" / "solution.json",
    "two_sheets": GOLDEN / "two_sheets.json",
}


@pytest.mark.parametrize("name", sorted(WORKBOOKS))
@pytest.mark.parametrize("command, suffix", [("graph", ".dot"), ("metrics", ".metrics.json")])
def test_output_matches_golden_file(capsys, name, command, suffix):
    assert main([command, str(WORKBOOKS[name])]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{name}{suffix}").read_text(encoding="utf-8")
