import pytest

from sheetcheck import (
    CycleError,
    analyze,
    build_graph,
    export_dot,
    longest_chain,
    parse_formula,
    references_of,
    terminals,
)
from conftest import addr, fill_down_cells, make_workbook, texts


def graph_of(cells):
    wb = make_workbook(cells)
    return build_graph(analyze(wb))


@pytest.fixture(scope="module")
def solution_graph(grades):
    return build_graph(analyze(grades.solution))


def test_solution_graph_node_set(solution_graph):
    expected = {"B3", "B4", "B5", "C3", "C4", "C5", "D3", "D4", "D5", "B6", "C6", "D6"}
    assert {a.text() for a in solution_graph.nodes} == expected
    assert len(solution_graph.nodes) == 12


def test_solution_graph_d6_neighbors(solution_graph):
    neighbors = solution_graph.out_edges[addr("D6")]
    assert texts(neighbors) == ["D3", "D4", "D5"]


def test_edge_count_matches_reference_sum(grades, solution_graph):
    total = 0
    for cell in grades.solution.formula_cells():
        total += len(references_of(parse_formula(cell.content.source, cell.address.sheet)))
    assert solution_graph.edge_count == total
    assert solution_graph.edge_count == 15


def test_empty_graph():
    graph = graph_of({"A1": 1, "B1": "label"})
    assert graph.nodes == ()
    assert graph.edge_count == 0


def test_reference_to_absent_cell_creates_blank_node():
    graph = graph_of({"B1": "=A1"})
    assert texts(graph.nodes) == ["A1", "B1"]
    from sheetcheck import BLANK

    assert graph.values[addr("A1")] == BLANK
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
    graph = graph_of({"A1": "=B1", "B1": "=A1"})
    with pytest.raises(CycleError) as error:
        longest_chain(graph)
    assert len(error.value.cycle) >= 2


def test_dot_solution_labels_and_colors(grades, solution_graph):
    dot = export_dot(solution_graph)
    assert dot.startswith("digraph")
    assert '"D6" [label="D6: 74.33", style=filled, fillcolor=red];' in dot
    assert '"B3" [label="B3: 92.00", style=filled, fillcolor=green];' in dot
    assert '"D3" [label="D3: 75.00"];' in dot
    assert '"D6" -> "D3";' in dot


def test_dot_empty_graph():
    assert export_dot(graph_of({})) == "digraph dependencies {\n}\n"


def test_dot_single_edge():
    dot = export_dot(graph_of({"B1": "=A1"}))
    assert dot.count("->") == 1


def test_dot_deterministic(solution_graph):
    assert export_dot(solution_graph) == export_dot(solution_graph)


def test_dot_edge_count_matches(solution_graph):
    dot = export_dot(solution_graph)
    assert dot.count("->") == solution_graph.edge_count == 15


def test_cycle_in_graph_iff_cycle_value():
    from sheetcheck import CellError, ErrorKind, evaluate
    from sheetcheck.graph import _find_cycle

    cyclic = make_workbook({"A1": "=B1", "B1": "=A1", "C1": 5})
    graph = build_graph(analyze(cyclic))
    assert _find_cycle(graph) is not None
    assert any(v == CellError(ErrorKind.CYCLE) for v in evaluate(cyclic).values())

    acyclic = make_workbook({"A1": 1, "B1": "=A1"})
    graph = build_graph(analyze(acyclic))
    assert _find_cycle(graph) is None
    assert not any(v == CellError(ErrorKind.CYCLE) for v in evaluate(acyclic).values())


def test_dot_qualifies_nodes_across_sheets():
    from conftest import make_multi_workbook

    wb = make_multi_workbook({"Data": {"A1": 10}, "Main": {"B1": "=Data!A1*2"}})
    dot = export_dot(build_graph(analyze(wb)))
    assert '"Main!B1" -> "Data!A1";' in dot


@pytest.mark.parametrize("up", (True, False), ids=("up", "down"))
def test_longest_chain_of_a_long_fill_down_chain(up):
    n = 10_000
    assert longest_chain(graph_of(fill_down_cells(n, up))) == n - 1
    closed = fill_down_cells(n, up, first=f"=A1+A{n}")
    with pytest.raises(CycleError):
        longest_chain(graph_of(closed))
