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
the cells that depend on the corrected one, transitively; they are
evaluated again when next read.  The dependents come from the submission
graph's `dependents` index: a dict over the cells that formulas reference
one by one or through a range of at most 16 cells and, per sheet, the
larger ranges as rectangles cut into bands on first use.  A lookup costs
about the size of its answer, and no larger range is expanded.  A
correction that adds a sheet the submission lacks drops the whole memo,
because references into that sheet turn from BAD_REF into cell values.
Cells that can reach a reference cycle of the submission are re-evaluated
from a fresh memo instead: a cycle's values depend on the cell evaluation
starts from.  The depth-first walk and evaluation
keep explicit stacks, so chains of any length are matched.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, NamedTuple

from .evaluate import DEFAULT_TOLERANCE, Tolerance, cell_value, values_equal, workbook_contents
from .grid import BLANK, CellAddress, Value, row_major

# Not called here since matching takes analysed workbooks, which hold their
# evaluated grid and graph, and the graph lists its outputs; the benchmark's
# tracer (perfbench/tracing.py) still wraps these three names in this module.
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


class MatchTrace(Sequence[TraceEntry]):
    """The match trace: a read-only sequence of TraceEntry in walk order.

    It keeps the entries' fields in one flat list and builds an entry only
    when it is read, so an unread trace costs the collector two objects.
    It equals a tuple of equal entries, from either side, and hashes as one.
    """

    __slots__ = ("_flat",)

    def __init__(self, flat: list[Any]) -> None:
        self._flat = flat  # the fields of entry i are flat[5 * i : 5 * i + 5]

    def __len__(self) -> int:
        return len(self._flat) // _FIELDS

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        start = range(len(self))[index] * _FIELDS  # checks and wraps the index
        return TraceEntry._make(self._flat[start : start + _FIELDS])

    def __iter__(self):
        fields = iter(self._flat)
        return map(TraceEntry._make, zip(*[fields] * _FIELDS))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (MatchTrace, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"MatchTrace({tuple(self)!r})"


@dataclass(frozen=True)
class MatchResult:
    """The diagnoses; `replacements` maps each corrected cell to the reference value it took."""

    value_errors: tuple[CellAddress, ...]
    formula_errors: tuple[CellAddress, ...]
    replacements: Mapping[CellAddress, Value]
    trace: Sequence[TraceEntry]


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
    reference_edges = reference.graph.out_edges  # expanded once per bundle
    submission_grid = submission.grid
    dependents = submission.graph.dependents
    formula_cells, acyclic = submission.graph.formula_cells, submission.graph.acyclic_order
    cyclic = set(formula_cells).difference(acyclic) if len(acyclic) < len(formula_cells) else frozenset()

    working = workbook_contents(submission.workbook, submission.formulas)
    working_sheets = set(submission.workbook.sheet_names())
    memo = dict(submission_grid)

    roots = row_major(graded) if graded is not None else reference.graph.outputs

    visited: set[CellAddress] = set()
    value_errors: list[CellAddress] = []
    formula_errors: list[CellAddress] = []
    replacements: dict[CellAddress, Value] = {}
    trace: list[Any] = []  # TraceEntry fields, flat; see MatchTrace
    FIRST, AGAIN = ComparePhase.FIRST_COMPARE, ComparePhase.RE_EVALUATE

    def re_evaluate(address: CellAddress, solution: Value, first: Value, first_ok: bool) -> None:
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
        if not re_ok:
            if not first_ok:
                formula_errors.append(address)
            correct(address, solution)

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
                for dependent in dependents(stack.pop()):
                    if dependent in memo and dependent not in replacements:
                        del memo[dependent]
                        stack.append(dependent)
        memo[address] = solution

    # Post-order walk of the reference graph.  A frame holds a cell, its
    # first compare and an iterator over its children; the bottom frame
    # holds no cell, and its children are the roots.  A leaf, a cell
    # without out-edges, gets no frame: it is re-evaluated right after its
    # first compare.
    stack: list[tuple] = [(None, None, None, None, iter(roots))]
    while stack:
        for address in stack[-1][4]:
            if address in visited:
                continue
            visited.add(address)
            solution = reference_grid.get(address, BLANK)
            first = submission_grid.get(address, BLANK)
            first_ok = values_equal(solution, first, tolerance)
            trace.extend((address, FIRST, solution, first, first_ok))
            if not first_ok:
                value_errors.append(address)
            children = reference_edges.get(address)
            if children is not None:
                stack.append((address, solution, first, first_ok, iter(children)))
                break
            re_evaluate(address, solution, first, first_ok)
        else:
            address, solution, first, first_ok, _ = stack.pop()
            if stack:
                re_evaluate(address, solution, first, first_ok)

    return MatchResult(
        value_errors=row_major(value_errors),
        formula_errors=row_major(formula_errors),
        replacements=replacements,
        trace=MatchTrace(trace),
    )

