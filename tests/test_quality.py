import pytest

from sheetcheck import (
    DuplicateCalculation,
    IdiomSuggestion,
    MetricExceeded,
    QualityConfig,
    QualityMetrics,
    build_graph,
    compare_metrics,
    compute_metrics,
    duplicate_calculations,
    evaluate,
    idiom_suggestions,
    longest_chain,
)

from conftest import addr, make_workbook


def metrics_of(workbook):
    grid = evaluate(workbook)
    graph = build_graph(workbook, grid)
    return compute_metrics(workbook, graph, grid)


@pytest.fixture(scope="module")
def solution_metrics(grades):
    return metrics_of(grades.solution)


@pytest.fixture(scope="module")
def submission_metrics(grades):
    return metrics_of(grades.submission)


def test_solution_metric_counts(grades, solution_metrics):
    m = solution_metrics
    assert m.sheet_count == 1
    assert m.formula_cell_count == 6
    assert m.value_cell_count == 15
    assert m.input_count == 6
    assert m.output_count == 3
    assert m.longest_chain == 2
    assert m.error_value_count == 0


def test_empty_workbook_metrics():
    from sheetcheck import read_workbook

    m = metrics_of(read_workbook('{"name": "empty", "sheets": []}'))
    assert m == QualityMetrics()
    assert m.max_fan_in is None and m.max_fan_out is None


def test_empty_sheet_metrics():
    m = metrics_of(make_workbook({}))
    assert m.sheet_count == 1
    assert m.formula_cell_count == 0 and m.value_cell_count == 0


def test_error_value_count():
    m = metrics_of(make_workbook({"A1": "=1/0"}))
    assert m.error_value_count == 1


def test_fan_maxima_tie_break_row_major(solution_metrics):
    cell, count = solution_metrics.max_fan_in
    assert (cell.text(), count) == ("B3", 2)
    cell, count = solution_metrics.max_fan_out
    assert (cell.text(), count) == ("B6", 3)


def test_chain_consistency(grades, solution_metrics):
    graph = build_graph(grades.solution, evaluate(grades.solution))
    assert solution_metrics.longest_chain == longest_chain(graph)


def test_operator_and_operand_totals(solution_metrics, submission_metrics):
    # solution: three (a+b)/2 cells and three AVG(range) cells
    assert solution_metrics.operator_total == 12
    assert solution_metrics.operand_total == 18
    # submission: three (a?b)/2 cells and three (a+b+c)/3 cells
    assert submission_metrics.operator_total == 15
    assert submission_metrics.operand_total == 21


def test_nesting_depth(solution_metrics):
    assert solution_metrics.max_nesting_depth == 2
    deep = metrics_of(make_workbook({"A1": "=ROUND(SUM(B1:B2)/2,1)", "B1": 1, "B2": 2}))
    assert deep.max_nesting_depth == 3


def test_metrics_of_long_hand_written_sum():
    n = 5000
    cells = {f"A{i}": 1 for i in range(1, n + 1)}
    metrics = metrics_of(make_workbook({**cells, "B1": "=" + "+".join(cells)}))
    assert metrics.operator_total == n - 1
    assert metrics.operand_total == n
    assert metrics.max_nesting_depth == n - 1


def test_metrics_insertion_order_independent(grades):
    cells = {}
    for cell in grades.submission.sheets[0].sorted_cells():
        if cell.is_formula:
            cells[cell.address.text()] = cell.content.source
        else:
            from sheetcheck import Number, Text

            value = cell.content
            cells[cell.address.text()] = value.value if isinstance(value, (Number, Text)) else value
    shuffled = make_workbook(dict(reversed(list(cells.items()))))
    assert metrics_of(shuffled) == metrics_of(grades.submission)


# ---------------------------------------------------------------- comparison


def test_compare_identical_metrics_is_quiet(solution_metrics):
    assert compare_metrics(solution_metrics, solution_metrics, QualityConfig()) == []


def test_compare_threshold_fires():
    sub = QualityMetrics(operator_total=9)
    ref = QualityMetrics(operator_total=4)
    findings = compare_metrics(sub, ref, QualityConfig())
    assert findings == [MetricExceeded("operator_total", 9, 4)]


def test_compare_threshold_boundary_is_quiet():
    sub = QualityMetrics(operator_total=7)
    ref = QualityMetrics(operator_total=4)
    assert compare_metrics(sub, ref, QualityConfig()) == []


def test_compare_per_metric_override():
    sub = QualityMetrics(operator_total=9)
    ref = QualityMetrics(operator_total=4)
    config = QualityConfig(overrides={"operator_total": (3.0, 0.0)})
    assert compare_metrics(sub, ref, config) == []


def test_fixture_pair_produces_no_metric_findings(solution_metrics, submission_metrics):
    assert compare_metrics(submission_metrics, solution_metrics, QualityConfig()) == []


# ---------------------------------------------------------------- idioms


def test_avg_suggested_for_spelled_out_averages(grades):
    findings = idiom_suggestions(grades.submission, QualityConfig())
    assert findings == [IdiomSuggestion("AVG", tuple(addr(t) for t in ("B6", "C6", "D6")))]


def test_no_suggestion_when_avg_already_used(grades):
    assert idiom_suggestions(grades.solution, QualityConfig()) == []


def test_suggestion_is_value_agnostic(grades):
    # C6 computes a wrong value in the fixture yet still earns the suggestion
    findings = idiom_suggestions(grades.submission, QualityConfig())
    assert addr("C6") in findings[0].cells


def test_sum_suggested_for_long_chains():
    wb = make_workbook({"A1": 1, "A2": 2, "A3": 3, "A4": 4, "A6": "=A1+A2+A3+A4"})
    findings = idiom_suggestions(wb, QualityConfig())
    assert findings == [IdiomSuggestion("SUM", (addr("A6"),))]


def test_sum_not_suggested_for_three_cells():
    wb = make_workbook({"A1": 1, "A2": 2, "A3": 3, "A6": "=A1+A2+A3"})
    assert idiom_suggestions(wb, QualityConfig()) == []


def test_sum_not_suggested_when_sum_used():
    wb = make_workbook({"A1": 1, "A2": 2, "A3": 3, "A4": 4, "A6": "=SUM(A1:A4)"})
    assert idiom_suggestions(wb, QualityConfig()) == []


def test_avg_suggested_for_sum_divided_by_count():
    wb = make_workbook({"A1": 1, "A2": 2, "A3": 3, "A6": "=SUM(A1:A3)/3"})
    findings = idiom_suggestions(wb, QualityConfig())
    assert findings == [IdiomSuggestion("AVG", (addr("A6"),))]


def test_repeated_reference_is_not_a_distinct_chain():
    wb = make_workbook({"A1": 1, "A2": 2, "A6": "=A1+A1+A2+A2+A1"})
    assert idiom_suggestions(wb, QualityConfig()) == []


# ---------------------------------------------------------------- duplicates


def test_duplicate_identical_targets():
    wb = make_workbook({"A1": 1, "A2": 2, "B1": "=A1+A2", "C1": "=A1+A2"})
    findings = duplicate_calculations(wb)
    assert findings == [DuplicateCalculation((addr("B1"), addr("C1")))]


def test_fill_down_offsets_are_not_duplicates():
    wb = make_workbook({"B3": 1, "C3": 2, "B4": 3, "C4": 4, "D3": "=(B3+C3)/2", "D4": "=(B4+C4)/2"})
    assert duplicate_calculations(wb) == []


def test_no_formulas_no_duplicates():
    assert duplicate_calculations(make_workbook({"A1": 1})) == []


def test_duplicates_catch_reordered_operands():
    wb = make_workbook({"A1": 1, "A2": 2, "B1": "=A1+A2", "C1": "=A2+A1"})
    findings = duplicate_calculations(wb)
    assert findings == [DuplicateCalculation((addr("B1"), addr("C1")))]


def test_config_validation():
    with pytest.raises(ValueError):
        QualityConfig(factor=0.5)
    with pytest.raises(ValueError):
        QualityConfig(min_idiom_operands=1)
