import importlib
import random

import pytest

from sheetcheck import (
    BLANK,
    Boolean,
    CellError,
    ErrorKind,
    Number,
    Text,
    Tolerance,
    apply_function,
    evaluate,
    values_equal,
)
from sheetcheck.evaluate import CYCLE, DIV_ZERO, cell_value, checked_formulas, evaluate_ast, workbook_contents
from sheetcheck.feedback import analyze
from sheetcheck.formulas import parse_formula, parse_workbook

from conftest import addr, fill_down_cells, make_workbook, python_calls, range_sum_cells, texts
from genwb import GenConfig, WorkbookGen
from oracle_cases import ORACLE_CASES


def grid_of(cells):
    return evaluate(make_workbook(cells))


# ---------------------------------------------------------------- worked examples


def test_submission_fixture_values(grades):
    grid = evaluate(grades.submission)
    assert grid[addr("D3")] == Number(17.0)
    assert grid[addr("C6")] == Number(71.0)
    assert grid[addr("D6")] == Number(55.0)
    assert grid[addr("B6")] == Number(81.0)


def test_solution_fixture_values(grades):
    grid = evaluate(grades.solution)
    assert values_equal(grid[addr("D3")], Number(75.0))
    assert values_equal(grid[addr("C6")], Number(203.0 / 3.0))
    assert values_equal(grid[addr("D6")], Number(223.0 / 3.0))


def test_grid_covers_referenced_blanks():
    grid = grid_of({"B1": "=A1"})
    assert grid[addr("A1")] == BLANK
    assert addr("B1") in grid


def test_grid_excludes_missing_sheets():
    grid = grid_of({"B1": "=Missing!A1"})
    assert grid[addr("B1")] == CellError(ErrorKind.BAD_REF)
    assert addr("A1", sheet="Missing") not in grid


# ---------------------------------------------------------------- oracle table


@pytest.mark.parametrize("name,cells,target,expected", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_oracle_case(name, cells, target, expected):
    assert grid_of(cells)[addr(target)] == expected


def test_oracle_table_is_big_enough():
    assert len(ORACLE_CASES) >= 50


# ---------------------------------------------------------------- apply_function


def test_apply_function_direct():
    assert apply_function("SUM", [Number(1.0), BLANK, Text("x"), Number(2.0)]) == Number(3.0)
    assert apply_function("AVG", [Number(92.0), Number(56.0), Number(95.0)]) == Number(81.0)
    assert apply_function("SUM", []) == Number(0.0)


def test_apply_function_rejects_unknown():
    with pytest.raises(ValueError):
        apply_function("NOPE", [])


# ---------------------------------------------------------------- values_equal


def test_values_equal_table_values_differ():
    assert not values_equal(Number(17.0), Number(75.0))


def test_values_equal_absorbs_float_noise():
    assert values_equal(Number(0.1 + 0.2), Number(0.3))


def test_values_equal_blank_is_not_zero():
    assert not values_equal(BLANK, Number(0.0))


def test_values_equal_text_trimming_case_sensitive():
    assert values_equal(Text(" total "), Text("total"))
    assert not values_equal(Text("Total"), Text("total"))


def test_values_equal_errors_by_kind():
    assert values_equal(CellError(ErrorKind.CYCLE), CellError(ErrorKind.CYCLE))
    assert not values_equal(CellError(ErrorKind.CYCLE), CellError(ErrorKind.DIV_ZERO))


def test_values_equal_booleans_by_identity():
    assert values_equal(Boolean(True), Boolean(True))
    assert not values_equal(Boolean(True), Boolean(False))


def test_values_equal_relative_tolerance():
    tolerance = Tolerance(abs=0.0, rel=0.01)
    assert values_equal(Number(100.0), Number(100.5), tolerance)
    assert not values_equal(Number(100.0), Number(102.0), tolerance)


def test_values_equal_reflexive_and_symmetric_samples():
    samples = [BLANK, Number(1.5), Text("x"), Boolean(False), CellError(ErrorKind.BAD_REF)]
    for a in samples:
        assert values_equal(a, a)
        for b in samples:
            assert values_equal(a, b) == values_equal(b, a)


# ---------------------------------------------------------------- determinism


def test_evaluation_order_independence():
    cells = {"A1": 1, "B1": "=A1+1", "C1": "=B1+A1", "D1": "=SUM(A1:C1)"}
    shuffled = dict(reversed(list(cells.items())))
    a = evaluate(make_workbook(cells))
    b = evaluate(make_workbook(shuffled))
    assert a == b


def test_evaluate_is_pure(grades):
    assert evaluate(grades.submission) == evaluate(grades.submission)


def test_evaluate_rejects_a_workbook_with_syntax_errors():
    from sheetcheck import FormulaSyntaxError

    with pytest.raises(FormulaSyntaxError, match="Sheet1!A2"):
        evaluate(make_workbook({"A1": 1, "A2": "=A1+"}))


# ---------------------------------------------------------------- fixed-point oracle


def naive_fixpoint(workbook):
    """Reference evaluator: recompute every formula until nothing changes."""
    from sheetcheck.grid import VALUE_TYPES

    contents = workbook_contents(workbook, checked_formulas(workbook))
    values = {}
    asts = {}
    for a, c in contents.items():
        if isinstance(c, VALUE_TYPES):
            values[a] = c
        else:
            asts[a] = c
            values[a] = BLANK
    for _ in range(len(contents) + 1):
        changed = False
        for a, ast in asts.items():
            new = evaluate_ast(ast, values)
            if new != values[a]:
                values[a] = new
                changed = True
        if not changed:
            break
    return values


def test_matches_naive_fixpoint_oracle():
    rng = random.Random(20240817)
    gen = WorkbookGen(rng, GenConfig(max_rows=5, max_cols=5, max_cells=12))
    for _ in range(50):
        workbook = gen.workbook()
        grid = evaluate(workbook)
        oracle = naive_fixpoint(workbook)
        for address, value in oracle.items():
            assert grid[address] == value, f"{address}: {grid[address]} != {value}"


# ---------------------------------------------------------------- long chains


def test_long_mixed_chain_equals_left_fold():
    rng = random.Random(7)
    n = 5000
    terms = [round(rng.uniform(-100.0, 100.0), 3) for _ in range(n)]
    ops = [rng.choice("+-") for _ in range(n - 1)]
    source = "=A1" + "".join(f"{op}A{i}" for i, op in enumerate(ops, start=2))
    expected = terms[0]
    for op, term in zip(ops, terms[1:]):
        expected = expected + term if op == "+" else expected - term
    values = {addr(f"A{i}"): Number(t) for i, t in enumerate(terms, start=1)}
    assert evaluate_ast(parse_formula(source), values) == Number(expected)


def test_long_chain_first_error_wins():
    source = "=" + "+".join(["1"] * 2000 + ["1/0", "A1"] + ["1"] * 2000)
    values = {addr("A1"): CellError(ErrorKind.BAD_REF)}
    assert evaluate_ast(parse_formula(source), values) == DIV_ZERO


@pytest.mark.parametrize("up", (True, False), ids=("up", "down"))
def test_long_fill_down_chain_evaluates(up):
    n = 10_000
    grid = grid_of(fill_down_cells(n, up))
    assert grid[addr(f"A{n}" if up else "A1")] == Number(float(n))


def test_long_cycle_is_cycle_everywhere():
    n = 10_000
    grid = grid_of(fill_down_cells(n, False, first="=A1+1"))
    assert set(grid.values()) == {CellError(ErrorKind.CYCLE)}


def test_evaluate_starts_cell_value_only_at_formula_cells(monkeypatch):
    evaluation = importlib.import_module("sheetcheck.evaluate")
    workbook = make_workbook(range_sum_cells(100, 100, short=True))
    calls = []
    plain = evaluation.cell_value

    def counted(contents, sheets, address, memo):
        calls.append(address)
        return plain(contents, sheets, address, memo)

    monkeypatch.setattr(evaluation, "cell_value", counted)
    grid = evaluation.evaluate(workbook)
    assert texts(calls) == ["A102"]
    expected = sum((r * 100 + c) % 9 + 1 for r in range(1, 100) for c in range(1, 101))
    assert grid[addr("A102")] == Number(expected)
    assert len(grid) == 10_001


def test_a_range_argument_costs_one_python_call_per_member():
    # SUM(A1:CV100): each member is one call of the resolver, with no
    # generator frame resumed per member around it.
    workbook = make_workbook(range_sum_cells(100, 100))
    contents = workbook_contents(workbook, checked_formulas(workbook))
    memo = {address: value for address, value in contents.items() if address != addr("A102")}
    value, calls = python_calls(cell_value, contents, frozenset({"Sheet1"}), addr("A102"), memo)
    assert value == Number(sum((r * 100 + c) % 9 + 1 for r in range(1, 101) for c in range(1, 101)))
    assert calls <= 10_000 + 50


def test_analysing_constants_makes_no_python_call_per_cell():
    # Merging the contents, evaluating and keeping the parsed formulas run
    # in C per constant cell: no Cell, no sort of every cell, no scan with
    # a Python-level test per cell.
    cells = range_sum_cells(100, 100)
    cells["A102"] = "=1+2"
    workbook = make_workbook(cells)

    def analysed():
        formulas, syntax = parse_workbook(workbook)
        return analyze(workbook, formulas)

    analysis, calls = python_calls(analysed)
    assert analysis.grid[addr("A102")] == Number(3.0)
    assert len(analysis.grid) == len(workbook.sheets[0].cells) == 10_001
    assert list(analysis.formulas) == [addr("A102")]
    assert calls <= 200


def test_evaluation_starts_in_row_major_order_whatever_the_file_order():
    # Entered at A1, the cycle reads CYCLE in B1, whose 1/0 comes first;
    # entered at B1, A1 would read CYCLE.
    cells = {"A1": "=B1", "B1": "=1/0+A1"}
    for ordered in (cells, dict(reversed(cells.items()))):
        assert grid_of(ordered) == {addr("A1"): DIV_ZERO, addr("B1"): DIV_ZERO}
    assert grid_of({"B1": "=B2", "B2": "=B1"}) == {addr("B1"): CYCLE, addr("B2"): CYCLE}
