"""Value matching between a reference solution and a submission.

The matcher walks the reference dependency graph depth-first from its
output nodes.  Each node is first compared against the submission's own
evaluation; a mismatch is a value error.  After all referenced cells have
been handled, the submission cell is re-evaluated against a working copy
in which already-diagnosed cells hold the reference values.  A cell that
still disagrees at that point is the original error site, a formula error,
and its working-copy entry is overwritten with the reference value so that
errors it propagated do not count against the cells downstream.

Re-evaluation reads one working memo of cell values, seeded from the
submission's grid, so a cell that no correction reaches costs a lookup.
A correction stores the reference value and drops the memo entries of
the cells that depend on the corrected one, transitively, found through
the submission graph's incoming edges; they are evaluated again when
next read.  A correction that adds a sheet the submission lacks drops the
whole memo, because references into that sheet turn from BAD_REF into
cell values.  Cells that can reach a reference cycle of the submission
are re-evaluated from a fresh memo instead: a cycle's values depend on
the cell evaluation starts from.  The depth-first walk and evaluation
keep explicit stacks, so chains of any length are matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .evaluate import DEFAULT_TOLERANCE, Tolerance, cell_value, values_equal
from .graph import terminals
from .grid import BLANK, Blank, Cell, CellAddress, Sheet, Value, Workbook, row_major

# Not called here since matching takes analysed workbooks, which hold their
# evaluated grid, graph and parsed contents; the benchmark's tracer
# (perfbench/tracing.py) still wraps these three names in this module.
from .evaluate import evaluate, workbook_contents  # noqa: F401
from .graph import build_graph  # noqa: F401

if TYPE_CHECKING:
    from .feedback import WorkbookAnalysis


class ComparePhase(Enum):
    FIRST_COMPARE = "first_compare"
    RE_EVALUATE = "re_evaluate"


@dataclass(frozen=True)
class TraceEntry:
    address: CellAddress
    phase: ComparePhase
    solution: Value
    submission: Value
    matched: bool


@dataclass(frozen=True)
class MatchResult:
    value_errors: tuple[CellAddress, ...]
    formula_errors: tuple[CellAddress, ...]
    corrected: Workbook
    trace: tuple[TraceEntry, ...]


def match_values(
    reference: WorkbookAnalysis,
    submission: WorkbookAnalysis,
    tolerance: Tolerance = DEFAULT_TOLERANCE,
    graded: frozenset[CellAddress] | set[CellAddress] | None = None,
) -> MatchResult:
    """Diagnose value and formula errors of a submission.

    When `graded` is given, the walk is rooted at those addresses, which
    restricts the comparison to them and everything they transitively
    reference in the reference graph; otherwise every reference output
    node is a root.  Both workbooks must have passed the syntax check and
    the reference must evaluate without cycles.  A cycle in the submission
    is not fatal: the affected cell re-evaluates to the CYCLE error, stays
    unequal and is reported as a formula error.
    """
    reference_grid = reference.grid
    reference_edges = reference.graph.out_edges
    submission_grid = submission.grid
    dependents = submission.graph.in_edges
    cyclic = set(submission.graph.nodes).difference(submission.graph.acyclic_order)

    working = dict(submission.contents)
    working_sheets = set(submission.workbook.sheet_names())
    memo = dict(submission_grid)

    if graded is not None:
        roots = row_major(graded)
    else:
        roots = terminals(reference.graph)[0]

    visited: set[CellAddress] = set()
    value_errors: list[CellAddress] = []
    formula_errors: list[CellAddress] = []
    replacements: dict[CellAddress, Value] = {}
    trace: list[TraceEntry] = []

    def enter(address: CellAddress) -> list:
        """First comparison; returns the walk frame [address, solution, first_ok, next child]."""
        visited.add(address)
        solution = reference_grid.get(address, BLANK)
        first = submission_grid.get(address, BLANK)
        first_ok = values_equal(solution, first, tolerance)
        trace.append(TraceEntry(address, ComparePhase.FIRST_COMPARE, solution, first, first_ok))
        if not first_ok:
            value_errors.append(address)
        return [address, solution, first_ok, 0]

    def correct(address: CellAddress, solution: Value) -> None:
        working[address] = solution
        replacements[address] = solution
        if address.sheet not in working_sheets:
            working_sheets.add(address.sheet)
            memo.clear()
        else:
            # An unmemoized cell has no memoized dependents, and a corrected
            # cell holds a constant that nothing upstream can change.
            stack = [address]
            while stack:
                for dependent in dependents.get(stack.pop(), ()):
                    if dependent in memo and dependent not in replacements:
                        del memo[dependent]
                        stack.append(dependent)
        memo[address] = solution

    for root in roots:
        if root in visited:
            continue
        stack = [enter(root)]  # post-order walk of the reference graph
        while stack:
            frame = stack[-1]
            address, solution, first_ok, index = frame
            children = reference_edges.get(address, ())
            if index < len(children):
                frame[3] += 1
                if children[index] not in visited:
                    stack.append(enter(children[index]))
                continue
            stack.pop()
            if address in cyclic:
                current = cell_value(working, working_sheets, address, memo={})
            elif address in memo:
                current = memo[address]
            else:
                current = cell_value(working, working_sheets, address, memo)
            re_ok = values_equal(solution, current, tolerance)
            trace.append(TraceEntry(address, ComparePhase.RE_EVALUATE, solution, current, re_ok))
            if not re_ok:
                if not first_ok:
                    formula_errors.append(address)
                correct(address, solution)

    return MatchResult(
        value_errors=row_major(value_errors),
        formula_errors=row_major(formula_errors),
        corrected=_apply_replacements(submission.workbook, replacements),
        trace=tuple(trace),
    )


def _apply_replacements(submission: Workbook, replacements: dict[CellAddress, Value]) -> Workbook:
    """Working copy as a workbook: replaced cells hold reference values as constants."""
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
                cells[address] = Cell(address, value)
        sheets.append(Sheet(sheet.name, cells))
    extra: dict[str, dict[CellAddress, Cell]] = {}
    for address, value in replacements.items():
        if address.sheet in known or isinstance(value, Blank):
            continue
        extra.setdefault(address.sheet, {})[address] = Cell(address, value)
    for name in sorted(extra):
        sheets.append(Sheet(name, extra[name]))
    return Workbook(submission.name, tuple(sheets))
