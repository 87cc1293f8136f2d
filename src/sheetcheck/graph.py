"""Data dependency graph over workbook cells.

Every formula cell is a node with a directed edge to each cell its formula
references; referenced cells join the node set even when blank.  Sources
(nothing refers to them) are the output nodes, sinks (they refer to
nothing) are the input nodes.

The graph is stored over formula cells and reference boxes, a range of
more than 16 cells as one box, so the cycles, the longest chain, the
metrics and the dependents of a cell cost what the formulas and their
references number, not what their ranges cover.  Only `terminals` and
`export_dot`, which list every input node and every edge, expand ranges.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, filterfalse, product
from operator import itemgetter
from typing import TYPE_CHECKING, Mapping, Sequence

from .evaluate import BAD_REF
from .formulas import FormulaAst, cover, disjoint_boxes, reference_boxes, references_of
from .grid import BLANK, CellAddress, Number, format_value, row_major

if TYPE_CHECKING:
    from .feedback import WorkbookAnalysis

# A box this small is indexed cell by cell: a few dict entries cost less
# than a box that every `dependents` lookup on its sheet scans.
_LISTED_AREA = 16


@dataclass(frozen=True, eq=False)
class DependencyGraph:
    """The dependency graph of an analysed workbook, over formula cells and boxes.

    `formula_cells` lists the formula cells row-major, and the maps below
    list them in that order: `fan_out` maps each to its out-degree, the
    distinct cells its references cover, and `precedents` to the formula
    cells among those, once each, itself included when in its own range.
    Who references a cell is indexed over each formula's disjoint boxes:
    `listed` maps each cell of a box of at most `_LISTED_AREA` cells, as a
    plain (sheet, row, col) tuple, to the formula cells whose boxes hold
    it, row-major, and `ranges` maps each sheet to its larger boxes as
    (top, left, bottom, right, formula cell).
    """

    formula_cells: tuple[CellAddress, ...]
    fan_out: Mapping[CellAddress, int]
    precedents: Mapping[CellAddress, tuple[CellAddress, ...]]
    listed: Mapping[tuple, list[CellAddress]]
    ranges: Mapping[str, list[tuple[int, int, int, int, CellAddress]]]

    @cached_property
    def _users(self) -> dict[CellAddress, list[CellAddress]]:
        """Each referenced formula cell mapped to the formula cells that reference it, row-major."""
        users: dict[CellAddress, list[CellAddress]] = {}
        for cell, targets in self.precedents.items():
            for target in targets:
                users.setdefault(target, []).append(cell)
        return users

    @cached_property
    def outputs(self) -> tuple[CellAddress, ...]:
        """The output nodes: formula cells that no formula references, row-major."""
        return tuple(filterfalse(self._users.__contains__, self.formula_cells))

    @cached_property
    def acyclic_order(self) -> tuple[CellAddress, ...]:
        """Every formula cell that reaches no cycle, each after the formula cells it references.

        Formula cells left out lie on a cycle or reference one, directly or
        through other cells, so the graph is cyclic exactly when this order
        is shorter than `formula_cells`.  The order is deterministic.
        """
        precedents, users = self.precedents, self._users
        unresolved = dict(zip(precedents, map(len, precedents.values())))
        order = [cell for cell in self.formula_cells if not precedents[cell]]
        for cell in order:  # the list grows while it is walked
            for user in users.get(cell, ()):
                unresolved[user] -= 1
                if not unresolved[user]:
                    order.append(user)
        return tuple(order)

    @property
    def edge_count(self) -> int:
        return sum(self.fan_out.values())

    @property
    def max_fan_out(self) -> tuple[CellAddress, int] | None:
        """The largest out-degree, with the first formula cell row-major that has it."""
        return max(self.fan_out.items(), key=itemgetter(1), default=None)

    def dependents(self, address: CellAddress) -> tuple[CellAddress, ...]:
        """The formula cells that reference `address`, row-major: its in-edges.

        A formula cell's are its users among the formula edges; any other
        cell's come from `listed` and a scan of its sheet's larger boxes.
        """
        if address in self.fan_out:
            return tuple(self._users.get(address, ()))
        direct = self.listed.get(address, ())
        sheet, row, col = address
        boxes = self.ranges.get(sheet, ())
        ranged = [cell for top, left, bottom, right, cell in boxes if top <= row <= bottom and left <= col <= right]
        # A formula references a cell through one box at most, so the two never share a cell.
        return row_major(direct + ranged) if direct and ranged else tuple(direct or ranged)

    @cached_property
    def _fan_in(self) -> tuple[int, tuple[CellAddress, int] | None]:
        """(distinct referenced cells, the largest in-degree with the first cell row-major that has it).

        A cell's in-degree counts its `listed` formula cells and the larger
        boxes that hold it.  A sheet without larger boxes counts its listed
        cells one by one.  On any other sheet one `cover` cuts the larger
        boxes, each of weight 1, and the listed cells, each a one-cell box
        weighted by its formula cells, into pieces of one in-degree.
        """
        boxes = {sheet: [(*box[:4], 1) for box in sheet_boxes] for sheet, sheet_boxes in self.ranges.items()}
        degrees: dict[tuple, int] = {}
        for (sheet, row, col), users in self.listed.items():
            if sheet in boxes:
                boxes[sheet].append((row, col, row, col, len(users)))
            else:
                degrees[sheet, row, col] = len(users)
        distinct = len(degrees)
        for sheet, sheet_boxes in boxes.items():
            for top, bottom, pieces in cover(sheet_boxes):
                for left, right, weight in pieces:
                    distinct += (bottom - top + 1) * (right - left + 1)
                    degrees[sheet, top, left] = weight  # the piece's first cell stands for the piece
        if not degrees:
            return distinct, ((self.formula_cells[0], 0) if self.formula_cells else None)
        most = max(degrees.values())
        sheet, row, col = min(target for target, degree in degrees.items() if degree == most)
        return distinct, (CellAddress(sheet, col, row), most)

    @property
    def input_count(self) -> int:
        """The input nodes: referenced cells that are not formula cells, and formula cells without references."""
        unreferencing = list(self.fan_out.values()).count(0)
        return self._fan_in[0] - len(self._users) + unreferencing

    @property
    def max_fan_in(self) -> tuple[CellAddress, int] | None:
        """The largest in-degree, with the first node row-major that has it."""
        return self._fan_in[1]


def formula_boxes(ast: FormulaAst) -> Sequence[tuple[str, int, int, int, int]]:
    """A formula's distinct references as boxes, cut apart when there are several and one is over `_LISTED_AREA` cells.

    Boxes of at most `_LISTED_AREA` cells may overlap each other; each cell
    of a larger box lies in no other box.
    """
    boxes = reference_boxes(ast)
    if len(boxes) > 1 and any(
        (bottom - top + 1) * (right - left + 1) > _LISTED_AREA for _, top, left, bottom, right in boxes
    ):
        return disjoint_boxes(boxes)  # each cell in one box, so the graph's counts are plain sums
    return boxes


def build_graph(analysis: WorkbookAnalysis) -> DependencyGraph:
    """Build the dependency graph of an analysed workbook.

    The references are each formula's `formula_boxes`, read from the
    analysis's `facts`; references to absent cells and to nonexistent
    sheets count too.  The formula cells inside a larger box are found by
    scanning the formula cells in its rows, or those in its columns, or by
    looking up each of its cells, whichever are fewer, and only a box of
    at most `_LISTED_AREA` cells is listed cell by cell.
    """
    formulas, facts = analysis.formulas, analysis.facts
    cells = row_major(formulas)
    own = dict(zip(cells, cells))
    fan_out: dict[CellAddress, int] = {}
    precedents: dict[CellAddress, tuple[CellAddress, ...]] = {}
    listed: dict[tuple, list[CellAddress]] = {}
    ranges: dict[str, list[tuple[int, int, int, int, CellAddress]]] = {}
    by_column: list[CellAddress] | None = None  # the formula cells column-major
    column_major = itemgetter(0, 2, 1)
    for cell in cells:
        targets: list[tuple] = []
        found: list[CellAddress] = []
        span = 0  # the cells of the larger boxes
        for sheet, top, left, bottom, right in facts[cell].boxes:
            area = (bottom - top + 1) * (right - left + 1)
            if area == 1:  # most references: no list of members to build
                targets.append((sheet, top, left))
                continue
            if area <= _LISTED_AREA:
                targets += [(sheet, row, col) for row in range(top, bottom + 1) for col in range(left, right + 1)]
                continue
            span += area
            ranges.setdefault(sheet, []).append((top, left, bottom, right, cell))
            if by_column is None:  # sorted once, when the first larger box appears
                by_column = sorted(cells, key=column_major)
            first = bisect_left(cells, (sheet, top, left))
            last = bisect_right(cells, (sheet, bottom, right))
            col_first = bisect_left(by_column, (sheet, left, top), key=column_major)
            col_last = bisect_right(by_column, (sheet, right, bottom), key=column_major)
            if min(last - first, col_last - col_first) > area:  # a dense sheet: look up each member
                members = ((sheet, row, col) for row in range(top, bottom + 1) for col in range(left, right + 1))
                found += filter(None, map(own.get, members))
            elif last - first <= col_last - col_first:
                found += [target for target in cells[first:last] if left <= target[2] <= right]
            else:
                found += [target for target in by_column[col_first:col_last] if top <= target[1] <= bottom]
        if not span:
            targets = dict.fromkeys(targets)  # small boxes may overlap
        for target in targets:
            listed.setdefault(target, []).append(cell)
        found += filter(None, map(own.get, targets))
        precedents[cell] = tuple(found)
        fan_out[cell] = len(targets) + span
    return DependencyGraph(cells, fan_out, precedents, listed, ranges)


def terminals(graph: DependencyGraph) -> tuple[tuple[CellAddress, ...], tuple[CellAddress, ...]]:
    """(outputs, inputs): nodes without incoming and without outgoing edges, row-major.

    Only the inputs are expanded: the formula cells without references
    and the other cells of `listed` and of the larger boxes, each once.
    """
    fan_out, referenced = graph.fan_out, list(graph.listed)
    boxes = [(sheet, *box[:4]) for sheet, sheet_boxes in graph.ranges.items() for box in sheet_boxes]
    for sheet, top, left, bottom, right in disjoint_boxes(boxes):
        referenced += product([sheet], range(top, bottom + 1), range(left, right + 1))
    inputs = {cell for cell, degree in fan_out.items() if not degree}
    inputs.update(CellAddress(sheet, col, row) for sheet, row, col in referenced if (sheet, row, col) not in fan_out)
    return graph.outputs, row_major(inputs)


def longest_chain(graph: DependencyGraph) -> int:
    """Length in edges of the longest directed path, or 0 when the graph has a cycle.

    A formula cell without references has depth 0 and any other one more
    than the deepest formula cell it references, or 1 when it references
    none: a cell that is not a formula has depth 0.
    """
    order, precedents = graph.acyclic_order, graph.precedents
    if len(order) < len(graph.formula_cells):
        return 0  # a cyclic graph has no meaningful chain length
    fan_out = graph.fan_out
    depth: dict[CellAddress, int] = {}
    for cell in order:
        depth[cell] = 1 + max(map(depth.__getitem__, precedents[cell]), default=0) if fan_out[cell] else 0
    return max(depth.values(), default=0)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(analysis: WorkbookAnalysis) -> str:
    """Render an analysed workbook's dependency graph as a Graphviz digraph.

    Node labels show "ADDRESS: value" from the grid, with numbers at two
    decimal places; a cell on a nonexistent sheet shows #REF!.  Output
    nodes are filled red, input nodes green.  Output is deterministic:
    nodes and edges appear in row-major order.
    """
    graph, grid, formulas = analysis.graph, analysis.grid, analysis.formulas
    sheets = set(analysis.workbook.sheet_names())
    edges = {cell: references_of(formulas[cell]) for cell in graph.formula_cells}
    nodes = row_major({*edges, *chain.from_iterable(edges.values())})
    multi_sheet = len({node.sheet for node in nodes}) > 1
    names = {node: node.text(qualified=multi_sheet) for node in nodes}
    outputs = set(graph.outputs)
    lines = ["digraph dependencies {"]
    for node, name in names.items():
        value = grid.get(node, BLANK if node.sheet in sheets else BAD_REF)
        shown = f"{value.value:.2f}" if isinstance(value, Number) else format_value(value)
        attrs = [f"label={_dot_quote(f'{name}: {shown}')}"]
        if node in outputs:
            attrs.append("style=filled, fillcolor=red")
        elif not edges.get(node):  # an input node
            attrs.append("style=filled, fillcolor=green")
        lines.append(f"  {_dot_quote(name)} [{', '.join(attrs)}];")
    lines += [
        f"  {_dot_quote(names[source])} -> {_dot_quote(names[target])};"
        for source, targets in edges.items()
        for target in targets
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"
