"""Reference implementation of value matching, for comparison in tests.

This is the straightforward form of the matcher: every re-evaluation
starts from a fresh memo over the working copy, both the reference walk
and cell evaluation recurse, and the reference graph is the expanded one
of `graph_oracle`.  It is quadratic on long chains and
exhausts the recursion limit on deep ones, so tests run it on small
workbooks only; `sheetcheck.match_values` must return an equal result.
"""

from __future__ import annotations

from sheetcheck import (
    BLANK,
    DEFAULT_TOLERANCE,
    Blank,
    Sheet,
    Workbook,
    WorkbookAnalysis,
    row_major,
    values_equal,
)
from sheetcheck.evaluate import BAD_REF, CYCLE, _eval, checked_formulas, workbook_contents
from sheetcheck.grid import VALUE_TYPES
from sheetcheck.matching import ComparePhase, MatchResult, TraceEntry

from graph_oracle import build_graph, terminals


def cell_value(contents, sheets, address, memo, visiting=None):
    """Recursive on-demand evaluation of one cell."""
    visiting = set() if visiting is None else visiting

    def resolve(target):
        cached = memo.get(target)
        if cached is not None:
            return cached
        if target.sheet not in sheets:
            return BAD_REF
        if target in visiting:
            return CYCLE
        content = contents.get(target, BLANK)
        if isinstance(content, VALUE_TYPES):
            memo[target] = content
            return content
        visiting.add(target)
        value = _eval(content, resolve)
        visiting.discard(target)
        memo[target] = value
        return value

    return resolve(address)


def evaluate(workbook):
    """Every cell's value; evaluation starts at the formula cells, as the engine's does."""
    formulas = checked_formulas(workbook)
    contents = workbook_contents(workbook, formulas)
    sheets = frozenset(workbook.sheet_names())
    memo = {}
    for address in [*formulas, *contents]:
        cell_value(contents, sheets, address, memo)
    return {address: value for address, value in memo.items() if address.sheet in sheets}


def match_values(reference, submission, tolerance=DEFAULT_TOLERANCE, graded=None):
    """Fresh-memo matching of two workbooks; same contract as the engine's."""
    reference_grid = evaluate(reference)
    reference_graph = build_graph(WorkbookAnalysis(reference, checked_formulas(reference), reference_grid))
    submission_grid = evaluate(submission)

    working = workbook_contents(submission, checked_formulas(submission))
    working_sheets = set(submission.sheet_names())
    roots = row_major(graded) if graded is not None else terminals(reference_graph)[0]

    visited = set()
    value_errors, formula_errors, replacements, trace = [], [], {}, []

    def visit(address):
        if address in visited:
            return
        visited.add(address)
        solution = reference_grid.get(address, BLANK)
        first = submission_grid.get(address, BLANK)
        first_ok = values_equal(solution, first, tolerance)
        trace.append(TraceEntry(address, ComparePhase.FIRST_COMPARE, solution, first, first_ok))
        if not first_ok:
            value_errors.append(address)
        for child in reference_graph.out_edges.get(address, ()):
            visit(child)
        current = cell_value(working, working_sheets, address, memo={})
        re_ok = values_equal(solution, current, tolerance)
        trace.append(TraceEntry(address, ComparePhase.RE_EVALUATE, solution, current, re_ok))
        if not re_ok:
            if not first_ok:
                formula_errors.append(address)
            working[address] = solution
            working_sheets.add(address.sheet)
            replacements[address] = solution

    for root in roots:
        visit(root)

    return MatchResult(
        value_errors=row_major(value_errors),
        formula_errors=row_major(formula_errors),
        replacements=replacements,
        trace=tuple(trace),
    )


def apply_replacements(submission, replacements):
    """The corrected submission as a workbook: replaced cells hold reference values as constants.

    A blank replacement empties its cell, and replacements on sheets the
    submission lacks form new sheets after its own, by name.
    """
    sheets = []
    known = set(submission.sheet_names())
    for sheet in submission.sheets:
        cells = dict(sheet.cells)
        for address, value in replacements.items():
            if address.sheet != sheet.name:
                continue
            if isinstance(value, Blank):
                cells.pop(address, None)
            else:
                cells[address] = value
        sheets.append(Sheet(sheet.name, cells))
    extra = {}
    for address, value in replacements.items():
        if address.sheet in known or isinstance(value, Blank):
            continue
        extra.setdefault(address.sheet, {})[address] = value
    for name in sorted(extra):
        sheets.append(Sheet(name, extra[name]))
    return Workbook(submission.name, tuple(sheets))
