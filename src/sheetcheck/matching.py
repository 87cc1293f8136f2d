"""Value matching between a reference solution and a submission.

The matcher walks the reference dependency graph depth-first from its
output nodes.  Each node is first compared against the submission's own
evaluation; a mismatch is a value error.  After all referenced cells have
been handled, the submission cell is re-evaluated against a working copy
in which already-diagnosed cells hold the reference values.  A cell that
still disagrees at that point is the original error site, a formula error,
and its working-copy entry is overwritten with the reference value so that
errors it propagated do not count against the cells downstream.

The walk depends on the reference and the graded cells alone:
`reference_walk` lists it, the reference keeps the list for the graded
cells last asked for, and each match replays it.  A map per column from
a reached row to a later row skips the cells already reached without
reading them, so a running total is walked in linear time.

Re-evaluation reads one working memo seeded from the submission's grid,
so a cell that no correction reaches costs a lookup.  A correction
stores the reference value and drops the memo entries of the cells that
depend on the corrected one, transitively, by the submission graph's
`dependents`.  A correction that adds a sheet the submission lacks drops
the whole memo: references into that sheet turn from BAD_REF into
values.  Cells that can reach a cycle of the submission are re-evaluated
from a fresh memo, since a cycle's values depend on where evaluation
starts.  The walk and evaluation keep explicit stacks, so chains of any
length are matched.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Any, NamedTuple

from .evaluate import DEFAULT_TOLERANCE, Tolerance, cell_value, values_equal, workbook_contents
from .grid import BLANK, CellAddress, Value, row_major

# Not called here; the benchmark's tracer (perfbench/tracing.py) still wraps these three names in this module.
from .evaluate import evaluate  # noqa: F401
from .graph import build_graph, terminals  # noqa: F401

if TYPE_CHECKING:
    from .feedback import WorkbookAnalysis


class ComparePhase(Enum):
    FIRST_COMPARE = "first_compare"
    RE_EVALUATE = "re_evaluate"


class TraceEntry(NamedTuple):
    address: CellAddress
    phase: ComparePhase
    solution: Value
    submission: Value
    matched: bool


_FIELDS = len(TraceEntry._fields)


@dataclass(frozen=True)
class MatchResult:
    """The diagnoses; `replacements` maps each corrected cell to the reference value it took.

    `trace_fields` lists the fields of the trace's entries in walk order,
    five per entry, and `trace` builds the tuple of TraceEntry from them
    when first read, so an unread trace costs the collector one list.
    """

    value_errors: tuple[CellAddress, ...]
    formula_errors: tuple[CellAddress, ...]
    replacements: Mapping[CellAddress, Value]
    trace_fields: list[Any] = field(repr=False)

    @cached_property
    def trace(self) -> tuple[TraceEntry, ...]:
        fields = iter(self.trace_fields)
        return tuple(map(TraceEntry._make, zip(*[fields] * _FIELDS)))


def reference_walk(reference: WorkbookAnalysis, graded: frozenset[CellAddress] | None) -> tuple[CellAddress, ...]:
    """The walk `match_values` replays, from `graded` or the outputs; cells the workbook has are its own objects."""
    from heapq import heappop, heapreplace  # here, not at import: loading a bundle walks nothing
    facts, own = reference.facts, {cell: cell for sheet in reference.workbook.sheets for cell in sheet.cells}
    jumps: defaultdict[tuple[str, int], dict[int, int]] = defaultdict(dict)  # a reached row -> a later row
    # A frame holds a formula cell and a heap of (sheet, row, col, bottom), one per column of
    # its boxes; the bottom frame holds None and the roots, each a column of one row.
    roots = row_major(graded) if graded is not None else reference.graph.outputs
    stack: list[tuple] = [(None, [(sheet, row, col, row) for sheet, row, col in roots])]
    walk: list[CellAddress] = []
    while stack:
        cell, heap = stack[-1]
        if not heap:  # the cells of `cell`'s references are walked
            stack.pop()
            walk.append(cell)
            continue
        sheet, row, col, bottom = heap[0]
        column, found = jumps[sheet, col], row
        while found in column:  # path halving: the row passed skips to its successor's target
            after = column[found]
            column[found] = found = column.get(after, after)
        if found > bottom:
            heappop(heap)
        elif found > row:
            heapreplace(heap, (sheet, found, col, bottom))
        else:
            column[row] = column.get(row + 1, row + 1)  # reached: later finds skip it
            if row < bottom:
                heapreplace(heap, (sheet, row + 1, col, bottom))
            else:
                heappop(heap)
            address = own.get((sheet, row, col)) or CellAddress(sheet, col, row)
            walk.append(address)
            if address in facts:
                columns = sorted([
                    (sheet, top, col, bottom)
                    for sheet, top, left, bottom, right in facts[address].boxes
                    for col in range(left, right + 1)
                ])
                stack.append((address, columns))
    return tuple(walk[:-1])  # the last is the bottom frame's None


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
    key = None if graded is None else frozenset(graded)
    if reference.walk is None or reference.walk[0] != key:
        reference.walk = (key, reference_walk(reference, key))
    reference_grid, reference_formulas = reference.grid, reference.formulas
    submission_grid = submission.grid
    dependents = submission.graph.dependents
    formula_cells, acyclic = submission.graph.formula_cells, submission.graph.acyclic_order
    cyclic = set(formula_cells).difference(acyclic) if len(acyclic) < len(formula_cells) else frozenset()

    working = workbook_contents(submission.workbook, submission.formulas)
    working_sheets = set(submission.workbook.sheet_names())
    memo = dict(submission_grid)

    pending: dict[CellAddress, tuple[Value, bool]] = {}  # a formula cell's first compare, until its second visit
    value_errors: list[CellAddress] = []
    formula_errors: list[CellAddress] = []
    replacements: dict[CellAddress, Value] = {}
    trace: list[Any] = []  # TraceEntry fields, flat; see MatchResult
    FIRST, AGAIN = ComparePhase.FIRST_COMPARE, ComparePhase.RE_EVALUATE

    # A leaf is re-evaluated right after its first compare, a formula cell at its second visit.
    for address in reference.walk[1]:
        solution = reference_grid.get(address, BLANK)
        if address in pending:
            first, first_ok = pending.pop(address)
        else:
            first = submission_grid.get(address, BLANK)
            first_ok = values_equal(solution, first, tolerance)
            trace.extend((address, FIRST, solution, first, first_ok))
            if not first_ok:
                value_errors.append(address)
            if address in reference_formulas:
                pending[address] = (first, first_ok)
                continue

        if address in cyclic:
            current = cell_value(working, working_sheets, address, memo={})
        else:
            current = memo.get(address)
            if current is None:
                current = cell_value(working, working_sheets, address, memo)
        # values_equal is deterministic, so the submission's own value object
        # keeps the first compare's verdict.
        re_ok = first_ok if current is first else values_equal(solution, current, tolerance)
        trace.extend((address, AGAIN, solution, current, re_ok))
        if re_ok:
            continue
        if not first_ok:
            formula_errors.append(address)
        working[address] = replacements[address] = solution
        if address.sheet not in working_sheets:
            working_sheets.add(address.sheet)
            memo.clear()
        else:
            # An unmemoized cell has no memoized dependents, and a corrected
            # cell holds a constant that nothing upstream can change.
            stack = [address]
            while stack:
                for dependent in dependents(stack.pop()):
                    if dependent in memo and dependent not in replacements:
                        del memo[dependent]
                        stack.append(dependent)
        memo[address] = solution

    return MatchResult(
        value_errors=row_major(value_errors),
        formula_errors=row_major(formula_errors),
        replacements=replacements,
        trace_fields=trace,
    )
