import json
import sys
import time

import pytest
from hypothesis import settings

from sheetcheck import CellAddress, Workbook, column_letters, parse_address, read_workbook
from sheetcheck.fixtures import load_fixture

SESSION_START = time.perf_counter()

# `--hypothesis-profile=thorough` runs the oracle properties, which take
# their example counts from `examples`, ten times as long.
settings.register_profile("thorough", max_examples=10 * settings.default.max_examples)


def examples(count: int) -> int:
    """`count` Hypothesis examples under the default profile, scaled with the profile in use."""
    return count * settings.default.max_examples // settings.get_profile("default").max_examples


def make_workbook(cells: dict[str, object], *, sheet: str = "Sheet1", name: str = "test") -> Workbook:
    """Build a single-sheet workbook from a {"A1": content} mapping."""
    doc = {"name": name, "sheets": [{"name": sheet, "cells": cells}]}
    return read_workbook(json.dumps(doc))


def make_multi_workbook(sheets: dict[str, dict[str, object]], *, name: str = "test") -> Workbook:
    doc = {"name": name, "sheets": [{"name": s, "cells": c} for s, c in sheets.items()]}
    return read_workbook(json.dumps(doc))


def addr(text: str, sheet: str = "Sheet1") -> CellAddress:
    return parse_address(text, sheet)


def texts(addresses) -> list[str]:
    return [a.text() for a in addresses]


def python_calls(function, *args):
    """`function(*args)` and the Python-level calls it made, generator resumptions included."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def module_lines(module, function, *args):
    """`function(*args)` and the number of lines run in frames of `module`'s own file, loop iterations included."""
    lines = 0
    source = module.__file__

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count

    sys.settrace(lambda frame, event, arg: count if frame.f_code.co_filename == source else None)
    try:
        result = function(*args)
    finally:
        sys.settrace(None)
    return result, lines


@pytest.fixture
def parses(monkeypatch):
    """Counter of the (source, sheet) pairs parse_formula is called with.

    The counting wrapper replaces every binding of parse_formula in the
    loaded sheetcheck modules, so a module that parses on its own is counted.
    """
    import sys
    from collections import Counter

    from sheetcheck import formulas

    calls: Counter = Counter()
    parse = formulas.parse_formula

    def counting(text, sheet=formulas.DEFAULT_SHEET):
        calls[(text, sheet)] += 1
        return parse(text, sheet)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sheetcheck" and getattr(module, "parse_formula", None) is parse:
            monkeypatch.setattr(module, "parse_formula", counting)
    return calls


@pytest.fixture(scope="session")
def grades():
    return load_fixture("grades")


@pytest.fixture(scope="session")
def grades_pass():
    return load_fixture("grades-solution-only")


def fill_down_cells(n: int, up: bool, first: object = 1) -> dict[str, object]:
    """Cells A1..An, each one more than its neighbour above (`up`) or below.

    The chain starts at A1 when references point up and at An when they
    point down; that cell holds `first`.
    """
    cells: dict[str, object] = {}
    for i in range(1, n + 1):
        neighbour = i - 1 if up else i + 1
        cells[f"A{i}"] = f"=A{neighbour}+1" if 1 <= neighbour <= n else first
    return cells


def range_sum_cells(rows: int, cols: int, short: bool = False) -> dict[str, object]:
    """A rows x cols block of constants from A1 and, below it, a SUM over it.

    With `short` the SUM stops one row short of the block, as a submission
    that misses the last row.
    """
    cells: dict[str, object] = {
        f"{column_letters(c)}{r}": (r * cols + c) % 9 + 1
        for r in range(1, rows + 1)
        for c in range(1, cols + 1)
    }
    cells[f"A{rows + 2}"] = f"=SUM(A1:{column_letters(cols)}{rows - 1 if short else rows})"
    return cells
