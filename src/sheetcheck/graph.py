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
        unresolved = {node: len(self.out_edges.get(node, ())) for node in self.nodes}
        order = [node for node in self.nodes if not unresolved[node]]
        for node in order:  # the list grows while it is walked
            for source in self.in_edges.get(node, ()):
                unresolved[source] -= 1
                if not unresolved[source]:
                    order.append(source)
        return tuple(order)


def build_graph(analysis: WorkbookAnalysis) -> DependencyGraph:
    """Build the dependency graph of an analysed workbook, annotated with its grid values.

    The edges come from the analysis's parsed formulas.  References to
    absent cells create nodes annotated Blank; references to nonexistent
    sheets create nodes annotated BAD_REF.
    """
    sheet_names = set(analysis.workbook.sheet_names())
    nodes: set[CellAddress] = set()
    out_edges: dict[CellAddress, tuple[CellAddress, ...]] = {}
    targets: dict[CellAddress, list[CellAddress]] = {}
    for address, ast in analysis.formulas.items():
        refs = references_of(ast)
        nodes.add(address)
        nodes.update(refs)
        out_edges[address] = refs
        for ref in refs:
            targets.setdefault(ref, []).append(address)
    in_edges = {node: row_major(sources) for node, sources in targets.items()}
    values = {
        node: analysis.grid.get(node, BLANK if node.sheet in sheet_names else BAD_REF)
        for node in nodes
    }
    return DependencyGraph(row_major(nodes), values, out_edges, in_edges)


def terminals(graph: DependencyGraph) -> tuple[tuple[CellAddress, ...], tuple[CellAddress, ...]]:
    """(outputs, inputs): nodes without incoming and without outgoing edges."""
    outputs = tuple(n for n in graph.nodes if not graph.in_edges.get(n))
    inputs = tuple(n for n in graph.nodes if not graph.out_edges.get(n))
    return outputs, inputs


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
    for node in graph.acyclic_order:
        depth[node] = 1 + max((depth[n] for n in graph.out_edges.get(node, ())), default=-1)
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
