import gc
import importlib
import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from sheetcheck import (
    WorkbookAnalysis,
    analyze,
    build_graph,
    column_letters,
    compute_metrics,
    export_dot,
    longest_chain,
    match_values,
    parse_formula,
    parse_workbook,
    references_of,
    terminals,
)
import graph_oracle
from conftest import (
    addr,
    examples,
    fill_down_cells,
    make_multi_workbook,
    make_workbook,
    module_lines,
    range_sum_cells,
    texts,
)


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
    assert len(graph.acyclic_order) < len(graph.formula_cells)
    assert any(v == CellError(ErrorKind.CYCLE) for v in evaluate(cyclic).values())

    acyclic = make_workbook({"A1": 1, "B1": "=A1"})
    graph = build_graph(analyze(acyclic))
    assert len(graph.acyclic_order) == len(graph.formula_cells)
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
    assert all(source is own[source] for node in graph.nodes for source in graph.dependents(node))


def test_dependents_are_row_major_through_cells_and_ranges():
    graph = graph_of({"A1": 1, "B2": "=A1+C1", "A3": "=C1*A1", "C3": "=A1", "A2": "=C1-A1"})
    assert texts(graph.dependents(addr("A1"))) == ["A2", "B2", "A3", "C3"]
    assert texts(graph.dependents(addr("C1"))) == ["A2", "B2", "A3"]
    assert graph.dependents(addr("D9")) == ()
    graph = graph_of({"D1": "=SUM(A1:B3)+A2", "C2": "=A2", "A9": "=SUM(A2:C2,B1:B2)", "B9": "=Other!A2"})
    assert texts(graph.dependents(addr("A2"))) == ["D1", "C2", "A9"]
    assert texts(graph.dependents(addr("B2"))) == ["D1", "A9"]
    assert texts(graph.dependents(addr("C2"))) == ["A9"]
    assert texts(graph.dependents(addr("A2", "Other"))) == ["B9"]
    assert graph.dependents(addr("A4")) == graph.dependents(addr("C1")) == ()


class _CountedNodes(tuple):
    passes = 0

    def __iter__(self):
        _CountedNodes.passes += 1
        return super().__iter__()


def test_second_terminals_call_makes_no_pass_over_the_nodes():
    plain = build_graph(analyze(make_workbook(range_sum_cells(10, 10, short=True))))
    graph = build_graph(analyze(make_workbook(range_sum_cells(10, 10, short=True))))
    graph.__dict__["nodes"] = _CountedNodes(graph.nodes)  # the cached expanded view
    _CountedNodes.passes = 0
    first = terminals(graph)
    assert _CountedNodes.passes > 0
    _CountedNodes.passes = 0
    assert terminals(graph) is first
    assert _CountedNodes.passes == 0
    assert first == terminals(plain)


# ---------------------------------------------------------------------------
# Equality with the expanded reference implementation
# ---------------------------------------------------------------------------

_COLS, _ROWS = 6, 8
_coords = st.tuples(st.integers(1, _COLS), st.integers(1, _ROWS))


def _cell_text(coords):
    col, row = coords
    return f"{column_letters(col)}{row}"


# A cell or a range, in either corner order, on this sheet, the other one
# or a sheet the workbook lacks; a range may hold the formula's own cell.
# Ranges of a few cells, which the graph lists cell by cell, come often,
# so they overlap cells and other ranges of the same formula.
_near = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_references = st.builds(
    lambda sheet, first, second: sheet + _cell_text(first) + (f":{_cell_text(second)}" if second else ""),
    st.sampled_from(["", "", "", "Main!", "Data!", "Gone!"]),
    st.shared(_coords, key="anchor") | _coords,
    st.none()
    | _coords
    | st.tuples(st.shared(_coords, key="anchor"), _near).map(
        lambda pair: (min(max(pair[0][0] + pair[1][0], 1), _COLS), min(max(pair[0][1] + pair[1][1], 1), _ROWS))
    ),
)
# Repeated references come from drawing with replacement; no references is "=1".
_formulas = st.lists(_references, max_size=4).map(lambda refs: f"=SUM({','.join(refs)})" if refs else "=1")
_sheet_cells = st.dictionaries(_coords.map(_cell_text), st.integers(0, 9) | _formulas, max_size=14)


@settings(max_examples=examples(150), deadline=None)
@given(st.lists(_sheet_cells, min_size=1, max_size=2))
# A1 is listed twice through one formula that also has a large range.
@example([{"A1": "=SUM(A1:A2,C7:A2,A1)"}])
# A running total: its boxes share the corner A1, on both sides of the listing threshold.
@example([{**{f"A{i}": i for i in range(1, 31)}, **{f"B{i}": f"=SUM(A$1:A{i})" for i in range(1, 31)}}])
# A staircase: each box grows by a row and a column from A1.
@example([{f"J{k}": f"=SUM($A$1:{column_letters(k)}{k})" for k in range(1, 9)}])
# Two overlapping large ranges of one formula with a listed cell inside both.
@example([{"J1": "=SUM(A1:E5,C3:G8,D4)", "J2": "=D4+C3", "D4": "=J9"}])
# Formulas fill the rows and the columns of an 18-cell range, so the graph looks up each of its cells.
@example([{f"{column_letters(col)}{row}": "=SUM(A1:C6)" for row in range(1, 9) for col in range(1, 7)}])
# The range's columns hold fewer formulas than its rows, two of them below it in its first column.
@example([{**{f"D{row}": "=1" for row in range(1, 18)}, "B18": "=2", "B19": "=3", "J1": "=SUM(B1:C17)"}])
# A1, listed twice, beside B1:B17, held by two boxes: one piece of in-degree 2 starts at A1.
@example([{"J1": "=SUM(B1:B17)", "J2": "=SUM(B1:B17)", "J3": "=A1", "J4": "=A1*2"}])
# Listed cells inside two larger boxes of different formulas, one of them in both.
@example([{"J1": "=SUM(A1:E5)", "J2": "=SUM(C3:G8)", "J3": "=D4+C3", "J4": "=E5*2", "J5": "=A1"}])
# Main has a larger box and Data has none; both reach in-degree 2, so the sheet order breaks the tie.
@example([{"J1": "=SUM(A1:A20)", "J2": "=AVG(A1:A20)", "B2": "=C3"}, {"A1": "=B1+B2", "C1": "=B1"}])
def test_compact_graph_equals_the_expanded_oracle(sheets):
    analysis = analyze(make_multi_workbook(dict(zip(("Main", "Data"), sheets))))
    graph, oracle = analysis.graph, graph_oracle.build_graph(analysis)
    assert compute_metrics(analysis) == graph_oracle.compute_oracle_metrics(analysis)
    cyclic = set(graph.formula_cells) - set(graph.acyclic_order)
    assert cyclic == set(oracle.nodes) - set(oracle.acyclic_order)
    assert graph.outputs == graph_oracle.terminals(oracle)[0]
    for sheet in ("Main", "Data", "Gone"):
        for coords in itertools.product(range(1, _COLS + 1), range(1, _ROWS + 1)):
            address = addr(_cell_text(coords), sheet)
            assert graph.dependents(address) == oracle.in_edges.get(address, ())
    for address in oracle.nodes:  # the fixed examples reach past the drawn grid
        assert graph.dependents(address) == oracle.in_edges.get(address, ())
    assert graph.nodes == oracle.nodes and graph.out_edges == oracle.out_edges
    assert list(graph.edges()) == list(oracle.edges()) and graph.edge_count == len(list(oracle.edges()))
    assert terminals(graph) == graph_oracle.terminals(oracle)


# ---------------------------------------------------------------------------
# Work that does not grow with range area
# ---------------------------------------------------------------------------


def _metrics_peak(cells):
    """Peak bytes allocated while a fresh analysis builds its graph and metrics.

    Garbage that earlier tests left is collected first and no collection
    runs while measuring, so no finalizer of theirs counts here.  The
    workbook is not evaluated: neither the graph nor the metrics allocate
    by its values, and evaluating a running total takes quadratic time.
    """
    workbook = make_workbook(cells)
    analysis = WorkbookAnalysis(workbook, parse_workbook(workbook)[0], {})
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        compute_metrics(analysis)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_graph_and_metrics_memory_does_not_grow_with_range_area():
    small = _metrics_peak(range_sum_cells(10, 10, short=True))
    large = _metrics_peak(range_sum_cells(100, 100, short=True))
    assert large <= 2 * small, (small, large)


def _running_total_cells(n):
    """Constants in A1:An and, beside each, the sum of the column so far: B{i} = SUM(A$1:A{i})."""
    return {**{f"A{i}": i for i in range(1, n + 1)}, **{f"B{i}": f"=SUM(A$1:A{i})" for i in range(1, n + 1)}}


def test_graph_and_metrics_memory_of_a_running_total_grows_linearly():
    # The n boxes overlap in n^2 / 2 cells; no structure may hold a cell or owner per overlap.
    small, large = _metrics_peak(_running_total_cells(500)), _metrics_peak(_running_total_cells(1_000))
    assert large <= 2.5 * small, (small, large)


def test_graph_and_metrics_of_a_running_total_run_linearly_many_lines():
    # Each range finds the formula cells it holds in the shorter of the slices over its rows
    # and over its columns: here its own column, which holds none.  A scan of its rows runs
    # once per formula above it.
    n = 1_000
    workbook = make_workbook(_running_total_cells(n))
    analysis = WorkbookAnalysis(workbook, parse_workbook(workbook)[0], {})
    _, lines = module_lines(importlib.import_module("sheetcheck.graph"), compute_metrics, analysis)
    assert lines <= 60 * n, lines


def test_a_dense_block_of_window_sums_looks_up_each_cell_of_its_ranges():
    # Each 25-cell window has 35 or more formula cells in its rows and in its columns, so
    # looking up its cells costs less than scanning either slice.
    cells = {
        f"{column_letters(col)}{row}": 1
        if row <= 5 or col <= 5
        else f"=SUM({column_letters(col - 5)}{row - 5}:{column_letters(col - 1)}{row - 1})"
        for row in range(1, 41)
        for col in range(1, 41)
    }
    workbook = make_workbook(cells)
    analysis = WorkbookAnalysis(workbook, parse_workbook(workbook)[0], {})
    _, lines = module_lines(importlib.import_module("sheetcheck.graph"), build_graph, analysis)
    assert lines <= 80 * len(analysis.formulas), lines


def test_only_evaluation_expands_a_submission_range(monkeypatch):
    evaluation = importlib.import_module("sheetcheck.evaluate")
    formulas = importlib.import_module("sheetcheck.formulas")
    reference = analyze(make_workbook(range_sum_cells(100, 100)))
    reference.graph.out_edges  # noqa: B018 - the reference walk expands its graph once per bundle
    calls = {"formulas": 0, "evaluate": 0}

    def counted(module, key):
        expand = module.range_addresses

        def counting(ref):
            calls[key] += 1
            return expand(ref)

        monkeypatch.setattr(module, "range_addresses", counting)

    counted(formulas, "formulas")
    counted(evaluation, "evaluate")
    submission = analyze(make_workbook(range_sum_cells(100, 100, short=True)))
    assert calls == {"formulas": 0, "evaluate": 1}
    compute_metrics(submission)
    result = match_values(reference, submission)
    assert texts(result.formula_errors) == ["A102"]
    assert calls["formulas"] == 0  # the graph, the metrics and matching expand no range
