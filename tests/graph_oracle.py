"""Reference implementation of the dependency graph and its metrics, for comparison in tests.

This is the expanded form: every range member is a node with its own
in-edge and out-edge entries, and each metric walks every node.  Its
work grows with range area, so tests run it on small workbooks only;
`sheetcheck.build_graph` and `compute_metrics` must give the same
results.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse, repeat
from operator import itemgetter
from typing import Iterator, Mapping

from sheetcheck import CellAddress, QualityMetrics, compute_metrics, references_of, row_major


@dataclass(frozen=True)
class OracleGraph:
    nodes: tuple[CellAddress, ...]
    out_edges: Mapping[CellAddress, tuple[CellAddress, ...]]
    in_edges: Mapping[CellAddress, tuple[CellAddress, ...]]

    def edges(self) -> Iterator[tuple[CellAddress, CellAddress]]:
        for source in self.nodes:
            for target in self.out_edges.get(source, ()):
                yield (source, target)

    @cached_property
    def acyclic_order(self) -> tuple[CellAddress, ...]:
        """Every node that reaches no cycle, each after all the nodes it references."""
        unresolved = dict(zip(self.out_edges, map(len, self.out_edges.values())))
        order = list(terminals(self)[1])  # the sinks
        for node in order:  # the list grows while it is walked
            for source in self.in_edges.get(node, ()):
                unresolved[source] -= 1
                if not unresolved[source]:
                    order.append(source)
        return tuple(order)


def build_graph(analysis) -> OracleGraph:
    """One node per formula cell and per referenced cell, range members included."""
    formulas = analysis.formulas
    own: dict[CellAddress, CellAddress] = {}
    for sheet in analysis.workbook.sheets:
        own.update(zip(sheet.cells, sheet.cells))
    out_edges: dict[CellAddress, tuple[CellAddress, ...]] = {}
    in_edges: dict[CellAddress, list[CellAddress]] = {}
    for address in row_major(formulas):
        refs = references_of(formulas[address])
        refs = out_edges[address] = tuple(map(own.get, refs, refs))
        for ref in refs:
            in_edges.setdefault(ref, []).append(address)
    nodes = row_major({**out_edges, **in_edges})
    return OracleGraph(nodes, out_edges, {node: tuple(sources) for node, sources in in_edges.items()})


def terminals(graph: OracleGraph) -> tuple[tuple[CellAddress, ...], tuple[CellAddress, ...]]:
    """(outputs, inputs): nodes without incoming and without outgoing edges."""
    return (
        tuple(filterfalse(graph.in_edges.get, graph.nodes)),
        tuple(filterfalse(graph.out_edges.get, graph.nodes)),
    )


def longest_chain(graph: OracleGraph) -> int:
    """Length in edges of the longest directed path, or 0 when the graph has a cycle."""
    if len(graph.acyclic_order) < len(graph.nodes):
        return 0
    depth: dict[CellAddress, int] = {}
    for node in graph.acyclic_order:
        edges = graph.out_edges.get(node)
        depth[node] = 1 + max(map(depth.__getitem__, edges)) if edges else 0
    return max(depth.values(), default=0)


def _max_fan(nodes, edges) -> tuple[CellAddress, int] | None:
    """The most edges any node has, with the first such node in `nodes`, which is row-major."""
    return max(zip(nodes, map(len, map(edges.get, nodes, repeat(())))), key=itemgetter(1), default=None)


def compute_oracle_metrics(analysis) -> QualityMetrics:
    """The engine's metrics with every graph metric taken from the expanded graph."""
    graph = build_graph(analysis)
    outputs, inputs = terminals(graph)
    return dataclasses.replace(
        compute_metrics(analysis),
        input_count=len(inputs),
        output_count=len(outputs),
        max_fan_in=_max_fan(graph.nodes, graph.in_edges),
        max_fan_out=_max_fan(graph.nodes, graph.out_edges),
        longest_chain=longest_chain(graph),
    )
