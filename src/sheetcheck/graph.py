"""Data dependency graph over workbook cells.

Every formula cell is a node with a directed edge to each cell its formula
references; referenced cells join the node set even when blank.  Constants
that nothing references stay out of the graph.  Sources (nothing refers to
them) are the output nodes, sinks (they refer to nothing) are the input
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse, repeat
from typing import TYPE_CHECKING, Iterator, Mapping

from .evaluate import BAD_REF
from .formulas import references_of
from .grid import BLANK, CellAddress, Number, Value, format_value, row_major

if TYPE_CHECKING:
    from .feedback import WorkbookAnalysis


class CycleError(ValueError):
    """The graph contains a reference cycle; `cycle` lists one loop."""

    def __init__(self, cycle: tuple[CellAddress, ...]):
        path = " -> ".join(a.text(qualified=True) for a in cycle)
        super().__init__(f"dependency cycle: {path}")
        self.cycle = cycle


@dataclass(frozen=True)
class DependencyGraph:
    nodes: tuple[CellAddress, ...]
    values: Mapping[CellAddress, Value]
    out_edges: Mapping[CellAddress, tuple[CellAddress, ...]]
    in_edges: Mapping[CellAddress, tuple[CellAddress, ...]]

    def edges(self) -> Iterator[tuple[CellAddress, CellAddress]]:
        for source in self.nodes:
            for target in self.out_edges.get(source, ()):
                yield (source, target)

    @property
    def edge_count(self) -> int:
        return sum(len(self.out_edges.get(node, ())) for node in self.nodes)

    @cached_property
    def acyclic_order(self) -> tuple[CellAddress, ...]:
        """Every node that reaches no cycle, each after all the nodes it references.

        Nodes left out lie on a cycle or reference one, directly or through
        other cells.  Sinks come first; the order is deterministic.
        """
        unresolved = dict(zip(self.out_edges, map(len, self.out_edges.values())))
        order = list(self._terminals[1])  # the sinks
        for node in order:  # the list grows while it is walked
            for source in self.in_edges.get(node, ()):
                unresolved[source] -= 1
                if not unresolved[source]:
                    order.append(source)
        return tuple(order)

    @cached_property
    def _terminals(self) -> tuple[tuple[CellAddress, ...], tuple[CellAddress, ...]]:
        """(outputs, inputs), computed once per graph; see `terminals`."""
        return (
            tuple(filterfalse(self.in_edges.get, self.nodes)),
            tuple(filterfalse(self.out_edges.get, self.nodes)),
        )


def build_graph(analysis: WorkbookAnalysis) -> DependencyGraph:
    """Build the dependency graph of an analysed workbook, annotated with its grid values.

    The edges come from the analysis's parsed formulas.  References to
    absent cells create nodes annotated Blank; references to nonexistent
    sheets create nodes annotated BAD_REF.  A node that is a workbook cell
    is the workbook's own address object, and equal in-edge tuples are
    one shared tuple, so the cells of a large range cost the graph two
    dict entries each.
    """
    formulas, grid = analysis.formulas, analysis.grid
    own = {address: address for address in analysis.contents}
    out_edges: dict[CellAddress, tuple[CellAddress, ...]] = {}
    in_edges: dict[CellAddress, tuple[CellAddress, ...] | list[CellAddress]] = {}
    # Formula cells in row-major order, so every in-edge list comes out
    # sorted.  A first source is stored as the formula's shared one-element
    # tuple; a second turns the entry into a list.
    for address in row_major(formulas):
        refs = references_of(formulas[address])
        refs = tuple(map(own.get, refs, refs))
        out_edges[address] = refs
        single = (address,)
        for ref in refs:
            sources = in_edges.get(ref)
            if sources is None:
                in_edges[ref] = single
            elif type(sources) is tuple:
                in_edges[ref] = [*sources, address]
            else:
                sources.append(address)
    shared: dict[tuple[CellAddress, ...], tuple[CellAddress, ...]] = {}
    for node, sources in in_edges.items():
        if type(sources) is list:
            sources = tuple(sources)
            in_edges[node] = shared.setdefault(sources, sources)
    # The keys come in row-major runs, which the sort merges in about linear time.
    nodes = row_major({**out_edges, **in_edges})
    values: dict[CellAddress, Value] = dict(zip(nodes, map(grid.get, nodes, repeat(BLANK))))
    sheet_names = set(analysis.workbook.sheet_names())
    for node in in_edges.keys() - own.keys():  # referenced cells that hold nothing
        if node.sheet not in sheet_names:
            values[node] = BAD_REF
    return DependencyGraph(nodes, values, out_edges, in_edges)


def terminals(graph: DependencyGraph) -> tuple[tuple[CellAddress, ...], tuple[CellAddress, ...]]:
    """(outputs, inputs): nodes without incoming and without outgoing edges.

    Computed once per graph, on the first call.
    """
    return graph._terminals


def _find_cycle(graph: DependencyGraph) -> tuple[CellAddress, ...] | None:
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph.nodes}
    parent: dict[CellAddress, CellAddress] = {}
    for start in graph.nodes:
        if color[start] != WHITE:
            continue
        stack: list[tuple[CellAddress, int]] = [(start, 0)]
        color[start] = GREY
        while stack:
            node, index = stack[-1]
            neighbors = graph.out_edges.get(node, ())
            if index == len(neighbors):
                stack.pop()
                color[node] = BLACK
                continue
            stack[-1] = (node, index + 1)
            child = neighbors[index]
            if color[child] == GREY:
                loop = [child, node]
                walker = node
                while walker != child:
                    walker = parent[walker]
                    loop.append(walker)
                return tuple(reversed(loop))
            if color[child] == WHITE:
                color[child] = GREY
                parent[child] = node
                stack.append((child, 0))
    return None


def longest_chain(graph: DependencyGraph) -> int:
    """Length in edges of the longest directed path; the graph must be acyclic."""
    if len(graph.acyclic_order) < len(graph.nodes):
        raise CycleError(_find_cycle(graph))
    depth: dict[CellAddress, int] = {}
    out_edges = graph.out_edges
    for node in graph.acyclic_order:
        edges = out_edges.get(node)
        depth[node] = 1 + max(map(depth.__getitem__, edges)) if edges else 0
    return max(depth.values(), default=0)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: DependencyGraph) -> str:
    """Render the graph as a Graphviz digraph.

    Node labels show "ADDRESS: value" with numbers at two decimal places;
    output nodes are filled red, input nodes green.  Output is
    deterministic: nodes and edges appear in row-major order.
    """
    multi_sheet = len({node.sheet for node in graph.nodes}) > 1
    outputs, inputs = terminals(graph)
    output_set, input_set = set(outputs), set(inputs)
    lines = ["digraph dependencies {"]
    for node in graph.nodes:
        value = graph.values.get(node, BLANK)
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
