"""Data dependency graph over workbook cells.

Every formula cell is a node with a directed edge to each cell its formula
references; referenced cells join the node set even when blank.  Constants
that nothing references stay out of the graph.  Sources (nothing refers to
them) are the output nodes, sinks (they refer to nothing) are the input
nodes.

The graph is stored over formula cells and reference rectangles: each
formula cell keeps its out-degree and the formula cells that lie inside
its references, and a range of more than 16 cells is kept as one box.
A formula's boxes are cut apart when they overlap such a box, so a
cell's in-degree is the number of boxes that hold it.  Cycles, the
longest chain, the terminal and fan counts and the dependents of a cell
are computed without expanding such a range, so their cost grows with
the number of formulas and references, not with range area.  Only the
`nodes`, `out_edges` and `edges()` views expand every range, when first
read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, filterfalse
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .evaluate import BAD_REF
from .formulas import FormulaAst, cover, disjoint_boxes, reference_boxes, references_of
from .grid import BLANK, CellAddress, Number, Workbook, format_value, row_major

if TYPE_CHECKING:
    from .feedback import WorkbookAnalysis

# A box this small is indexed cell by cell: a few dict entries cost less
# than a box that every `dependents` lookup on its sheet scans.
_LISTED_AREA = 16


@dataclass(frozen=True, eq=False)
class DependencyGraph:
    """The dependency graph of an analysed workbook, over formula cells and boxes.

    `formula_cells` lists the formula cells row-major, and the maps below
    list them in that order.  `fan_out` maps each to its out-degree, the
    number of distinct cells its references cover, and `precedents` to
    the formula cells among those, once each: the edges between formula
    cells, a formula inside its own range included.

    Who references a cell is indexed in two parts, over each formula's
    boxes, which `build_graph` keeps disjoint.  `listed` maps each cell of
    a box of at most `_LISTED_AREA` cells, as a plain (sheet, row, col)
    tuple, to the formula cells whose boxes hold it, row-major.  `ranges`
    maps each sheet to its larger boxes as (top, left, bottom, right,
    formula cell).  `workbook` and `formulas`, its parsed formula cells,
    back the expanded views.
    """

    workbook: Workbook = field(repr=False)
    formulas: Mapping[CellAddress, FormulaAst] = field(repr=False)
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

    # Expanded views: they list range members one by one.

    @cached_property
    def out_edges(self) -> dict[CellAddress, tuple[CellAddress, ...]]:
        """Each formula cell's referenced cells, row-major, as the workbook's own address objects."""
        own: dict[CellAddress, CellAddress] = {}
        for sheet in self.workbook.sheets:
            own.update(zip(sheet.cells, sheet.cells))
        edges = {}
        for cell in self.formula_cells:
            refs = references_of(self.formulas[cell])
            edges[cell] = tuple(map(own.get, refs, refs))
        return edges

    @cached_property
    def nodes(self) -> tuple[CellAddress, ...]:
        """The formula cells and every cell they reference, row-major."""
        return row_major({*self.formula_cells, *chain.from_iterable(self.out_edges.values())})

    def edges(self) -> Iterator[tuple[CellAddress, CellAddress]]:
        out_edges = self.out_edges
        for source in self.formula_cells:
            for target in out_edges[source]:
                yield (source, target)

    @cached_property
    def _terminals(self) -> tuple[tuple[CellAddress, ...], tuple[CellAddress, ...]]:
        """(outputs, inputs), computed once per graph; see `terminals`."""
        return self.outputs, tuple(filterfalse(self.out_edges.get, self.nodes))


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
    return DependencyGraph(analysis.workbook, formulas, cells, fan_out, precedents, listed, ranges)


def terminals(graph: DependencyGraph) -> tuple[tuple[CellAddress, ...], tuple[CellAddress, ...]]:
    """(outputs, inputs): nodes without incoming and without outgoing edges.

    Computed once per graph, on the first call; the inputs expand ranges.
    """
    return graph._terminals


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
    graph, grid = analysis.graph, analysis.grid
    sheets = set(analysis.workbook.sheet_names())
    multi_sheet = len({node.sheet for node in graph.nodes}) > 1
    outputs, inputs = terminals(graph)
    output_set, input_set = set(outputs), set(inputs)
    lines = ["digraph dependencies {"]
    for node in graph.nodes:
        value = grid.get(node, BLANK if node.sheet in sheets else BAD_REF)
        shown = f"{value.value:.2f}" if isinstance(value, Number) else format_value(value)
        name = node.text(qualified=multi_sheet)
        attrs = [f"label={_dot_quote(f'{name}: {shown}')}"]
        if node in output_set:
            attrs.append("style=filled, fillcolor=red")
        elif node in input_set:
            attrs.append("style=filled, fillcolor=green")
        lines.append(f"  {_dot_quote(name)} [{', '.join(attrs)}];")
    for source, target in graph.edges():
        lines.append(
            f"  {_dot_quote(source.text(qualified=multi_sheet))} -> "
            f"{_dot_quote(target.text(qualified=multi_sheet))};"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
