import pytest

from sheetcheck import (
    analyze,
    build_graph,
    export_dot,
    longest_chain,
    parse_formula,
    references_of,
    terminals,
)
from conftest import addr, fill_down_cells, make_workbook, range_sum_cells, texts


def graph_of(cells):
    wb = make_workbook(cells)
    return build_graph(analyze(wb))


@pytest.fixture(scope="module")
def solution_analysis(grades):
    return analyze(grades.solution)


@pytest.fixture(scope="module")
def solution_graph(solution_analysis):
    return build_graph(solution_analysis)


def test_solution_graph_node_set(solution_graph):
    expected = {"B3", "B4", "B5", "C3", "C4", "C5", "D3", "D4", "D5", "B6", "C6", "D6"}
    assert {a.text() for a in solution_graph.nodes} == expected
    assert len(solution_graph.nodes) == 12


def test_solution_graph_d6_neighbors(solution_graph):
    neighbors = solution_graph.out_edges[addr("D6")]
    assert texts(neighbors) == ["D3", "D4", "D5"]


def test_edge_count_matches_reference_sum(grades, solution_graph):
    total = 0
    for address, formula in grades.solution.formula_items():
        total += len(references_of(parse_formula(formula.source, address.sheet)))
    assert solution_graph.edge_count == total
    assert solution_graph.edge_count == 15


def test_empty_graph():
    graph = graph_of({"A1": 1, "B1": "label"})
    assert graph.nodes == ()
    assert graph.edge_count == 0


def test_reference_to_absent_cell_creates_blank_node():
    analysis = analyze(make_workbook({"B1": "=A1"}))
    graph = analysis.graph
    assert texts(graph.nodes) == ["A1", "B1"]
    assert '"A1" [label="A1: ", style=filled, fillcolor=green];' in export_dot(analysis)
    assert graph.out_edges[addr("B1")] == (addr("A1"),)


def test_terminals_solution(solution_graph):
    outputs, inputs = terminals(solution_graph)
    assert texts(outputs) == ["B6", "C6", "D6"]
    assert texts(inputs) == ["B3", "C3", "B4", "C4", "B5", "C5"]


def test_terminals_empty():
    graph = graph_of({})
    assert terminals(graph) == ((), ())


def test_terminals_single_edge():
    graph = graph_of({"B1": "=A1"})
    outputs, inputs = terminals(graph)
    assert texts(outputs) == ["B1"]
    assert texts(inputs) == ["A1"]


def test_terminals_agree_with_degree_counts(solution_graph):
    outputs, inputs = terminals(solution_graph)
    for node in solution_graph.nodes:
        in_degree = sum(1 for _, t in solution_graph.edges() if t == node)
        assert (node in outputs) == (in_degree == 0)


def test_longest_chain_solution(solution_graph):
    assert longest_chain(solution_graph) == 2


def test_longest_chain_empty():
    assert longest_chain(graph_of({})) == 0


def test_longest_chain_linear():
    graph = graph_of({"A1": 1, "A2": "=A1", "A3": "=A2", "A4": "=A3"})
    assert longest_chain(graph) == 3


def test_longest_chain_cycle_error():
    # a cyclic graph has no meaningful chain length
    assert longest_chain(graph_of({"A1": "=B1", "B1": "=A1", "C1": "=A1+1"})) == 0


def test_dot_solution_labels_and_colors(solution_analysis):
    dot = export_dot(solution_analysis)
    assert dot.startswith("digraph")
    assert '"D6" [label="D6: 74.33", style=filled, fillcolor=red];' in dot
    assert '"B3" [label="B3: 92.00", style=filled, fillcolor=green];' in dot
    assert '"D3" [label="D3: 75.00"];' in dot
    assert '"D6" -> "D3";' in dot


def test_dot_empty_graph():
    assert export_dot(analyze(make_workbook({}))) == "digraph dependencies {\n}\n"


def test_dot_single_edge():
    dot = export_dot(analyze(make_workbook({"B1": "=A1"})))
    assert dot.count("->") == 1


def test_dot_deterministic(solution_analysis):
    assert export_dot(solution_analysis) == export_dot(solution_analysis)


def test_dot_edge_count_matches(solution_analysis, solution_graph):
    dot = export_dot(solution_analysis)
    assert dot.count("->") == solution_graph.edge_count == 15


def test_cycle_in_graph_iff_cycle_value():
    from sheetcheck import CellError, ErrorKind, evaluate

    cyclic = make_workbook({"A1": "=B1", "B1": "=A1", "C1": 5})
    graph = build_graph(analyze(cyclic))
    assert len(graph.acyclic_order) < len(graph.nodes)
    assert any(v == CellError(ErrorKind.CYCLE) for v in evaluate(cyclic).values())

    acyclic = make_workbook({"A1": 1, "B1": "=A1"})
    graph = build_graph(analyze(acyclic))
    assert len(graph.acyclic_order) == len(graph.nodes)
    assert not any(v == CellError(ErrorKind.CYCLE) for v in evaluate(acyclic).values())


def test_dot_qualifies_nodes_across_sheets():
    from conftest import make_multi_workbook

    wb = make_multi_workbook({"Data": {"A1": 10}, "Main": {"B1": "=Data!A1*2"}})
    dot = export_dot(analyze(wb))
    assert '"Main!B1" -> "Data!A1";' in dot


@pytest.mark.parametrize("up", (True, False), ids=("up", "down"))
def test_longest_chain_of_a_long_fill_down_chain(up):
    n = 10_000
    assert longest_chain(graph_of(fill_down_cells(n, up))) == n - 1
    closed = fill_down_cells(n, up, first=f"=A1+A{n}")
    assert longest_chain(graph_of(closed)) == 0


def test_graph_nodes_are_the_workbooks_own_addresses():
    analysis = analyze(make_workbook(range_sum_cells(100, 100, short=True)))
    graph = build_graph(analysis)
    own = {address: address for address in analysis.workbook.sheets[0].cells}
    assert len(graph.nodes) == 9_901
    assert all(node is own[node] for node in graph.nodes)
    assert all(target is own[target] for targets in graph.out_edges.values() for target in targets)
    assert all(node is own[node] for node in graph.in_edges)
    # every range member has the one SUM cell as its source: one shared tuple
    assert len({id(sources) for sources in graph.in_edges.values()}) == 1


def test_in_edges_are_row_major_and_equal_ones_shared():
    graph = graph_of({"A1": 1, "B2": "=A1+C1", "A3": "=C1*A1", "C3": "=A1", "A2": "=C1-A1"})
    assert texts(graph.in_edges[addr("A1")]) == ["A2", "B2", "A3", "C3"]
    assert texts(graph.in_edges[addr("C1")]) == ["A2", "B2", "A3"]
    edges = graph_of({"A1": 1, "B1": 2, "C1": "=A1+B1", "C2": "=B1*A1"}).in_edges
    assert edges[addr("A1")] is edges[addr("B1")]


class _CountedNodes(tuple):
    passes = 0

    def __iter__(self):
        _CountedNodes.passes += 1
        return super().__iter__()


def test_second_terminals_call_makes_no_pass_over_the_nodes():
    import dataclasses

    plain = build_graph(analyze(make_workbook(range_sum_cells(10, 10, short=True))))
    graph = dataclasses.replace(plain, nodes=_CountedNodes(plain.nodes))
    _CountedNodes.passes = 0
    first = terminals(graph)
    assert _CountedNodes.passes > 0
    _CountedNodes.passes = 0
    assert terminals(graph) is first
    assert _CountedNodes.passes == 0
    assert first == terminals(plain)
