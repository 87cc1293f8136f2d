import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import diff_oracle
from genwb import WorkbookGen
from sheetcheck import (
    DEFAULT_TOLERANCE,
    CellAddress,
    ErrorCategory,
    Tolerance,
    WorkbookAnalysis,
    analyze,
    diff_formula,
    levenshtein,
    parse_formula,
    parse_workbook,
    render_formula,
    spelling_hint,
)
from sheetcheck import diffing
from sheetcheck.diffing import spelling_threshold
from sheetcheck.formulas import Binary, BoolLit, CellRef, FuncCall, NumberLit, RangeRef, TextLit, Unary, walk_ast
from sheetcheck.grid import Formula, Number, Sheet, Text, Workbook

from conftest import addr, examples, make_workbook, module_lines


def cell_content(content):
    if isinstance(content, str) and content.startswith("="):
        return Formula(content)
    if isinstance(content, str):
        return Text(content)
    return Number(float(content))


def single_cell_workbook(name, content, at):
    return Workbook(name, (Sheet("Sheet1", {addr(at): cell_content(content)}),))


def diff(solution_content, submission_content, at="D3"):
    solution = single_cell_workbook("solution", solution_content, at)
    submission = single_cell_workbook("submission", submission_content, at)
    return diff_formula(analyze(solution), analyze(submission), addr(at))


# ---------------------------------------------------------------- levenshtein


def test_levenshtein_basics():
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("abc", "") == 3
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("Totel", "Total") == 1


def test_levenshtein_no_common_letters():
    # all three letters substituted plus four insertions
    assert levenshtein("Sum", "Average") == 7


def test_levenshtein_symmetric():
    assert levenshtein("flaw", "lawn") == levenshtein("lawn", "flaw") == 2


# ---------------------------------------------------------------- spelling


def test_spelling_hint_close_typo():
    assert spelling_hint("Totel", "Total") == ("Totel", "Total")


def test_spelling_hint_identical_is_none():
    assert spelling_hint("Total", "Total") is None


def test_spelling_hint_distance_above_threshold():
    # threshold for "Average" is max(1, ceil(7 / 4)) = 2, distance is 7
    assert spelling_hint("Sum", "Average") is None


def test_spelling_hint_short_words_allow_one_edit():
    assert spelling_hint("Sun", "Sum") == ("Sun", "Sum")
    assert spelling_hint("Ant", "Sum") is None


def test_spelling_hint_skips_distance_for_a_far_longer_text(monkeypatch):
    import sheetcheck.diffing as diffing

    compared = []
    distance = diffing.levenshtein
    monkeypatch.setattr(diffing, "levenshtein", lambda a, b: compared.append(b) or distance(a, b))
    detail = diff("Average grade", "x" * 1_000_000)
    assert detail.category is ErrorCategory.CONSTANT and detail.spelling is None
    assert compared == []


@given(st.text("Avg rade", max_size=16), st.text("Avg rade", max_size=16))
def test_spelling_hint_agrees_with_the_full_distance(found, expected):
    close = found != expected and levenshtein(found, expected) <= spelling_threshold(expected)
    assert spelling_hint(found, expected) == ((found, expected) if close else None)


# ---------------------------------------------------------------- stage 1: operators and functions


def test_operator_diff_d3():
    detail = diff("=(B3+C3)/2", "=(B3-C3)/2")
    assert detail.category is ErrorCategory.OPERATOR
    assert [f.text for f in detail.expected] == ["+"]
    assert [f.text for f in detail.found] == ["-"]
    assert detail.extras == ()


def test_function_diff_wins_over_operator():
    detail = diff("=MIN(A1,A2)*2", "=MAX(A1,A2)+2")
    assert detail.category is ErrorCategory.FUNCTION
    assert {f.text for f in detail.expected} == {"MIN", "*"}
    assert {f.text for f in detail.found} == {"MAX", "+"}


def test_surplus_function_used_too_often():
    detail = diff("=SUM(A1:A4)", "=ROUND(SUM(A1:A4);2)")
    assert detail.category is ErrorCategory.FUNCTION
    extras = [(e.kind, e.name, e.message) for e in detail.extras]
    assert ("function", "ROUND", "used too often") in extras
    # the constant 2 from ROUND's second argument is never reached: stage 1 decides
    assert all(f.kind in ("operator", "function") for f in detail.expected)


def test_idiom_insensitivity_avg_vs_spelled_out():
    detail = diff("=AVG(B3:B5)", "=(B3+B4+B5)/3")
    assert detail.category is ErrorCategory.UNCLASSIFIED
    assert detail.expected == ()
    assert detail.found == ()


# ---------------------------------------------------------------- stage 2: references


def test_reference_diff_c6_uses_solution_range_notation():
    detail = diff("=AVG(C3:C5)", "=(C3+C4+D5)/3", at="C6")
    assert detail.category is ErrorCategory.REFERENCE
    assert [(f.text, f.is_range) for f in detail.expected] == [("C3:C5", True)]
    assert [f.text for f in detail.found] == ["D5"]
    assert detail.extras == ()


def test_reference_diff_single_cell():
    detail = diff("=A1+A2", "=A1+A3")
    assert detail.category is ErrorCategory.REFERENCE
    assert [(f.text, f.is_range) for f in detail.expected] == [("A2", False)]
    assert [f.text for f in detail.found] == ["A3"]


def test_reference_surplus_used_too_often():
    detail = diff("=A1+A2", "=A1+A2+A3")
    assert detail.category is ErrorCategory.OPERATOR or detail.category is ErrorCategory.REFERENCE
    # one extra "+" and one extra reference: stage 1 fires first on the operator
    assert detail.category is ErrorCategory.OPERATOR


def test_reference_multiplicity_matters():
    detail = diff("=A1*A1", "=A1*A2")
    assert detail.category is ErrorCategory.REFERENCE
    assert [f.text for f in detail.expected] == ["A1"]
    assert [f.text for f in detail.found] == ["A2"]


def test_absoluteness_is_a_reference_difference():
    detail = diff("=$B$3+1", "=B3+1")
    assert detail.category is ErrorCategory.REFERENCE
    assert detail.expected[0].flag_hint == "absolute"
    assert detail.expected[0].text == "$B$3"


def test_relative_hint_when_solution_is_relative():
    detail = diff("=B3+1", "=$B$3+1")
    assert detail.expected[0].flag_hint == "relative"
    assert detail.expected[0].text == "B3"


def test_flag_change_pairs_with_the_first_surplus_reference_at_its_address():
    detail = diff("=MIN(A1)", "=MIN($A1,$A$1,B1)")
    assert [(f.text, f.flag_hint) for f in detail.expected] == [("A1", "relative")]
    assert [f.text for f in detail.found] == ["$A1", "$A$1", "B1"]
    assert [(e.name, e.message) for e in detail.extras] == [("$A$1", "used too often"), ("B1", "used too often")]


# ---------------------------------------------------------------- stage 3: constants


def test_constant_diff():
    detail = diff("=A1*2", "=A1*3")
    assert detail.category is ErrorCategory.CONSTANT
    assert [f.text for f in detail.expected] == ["2"]
    assert [f.text for f in detail.found] == ["3"]


def test_constant_text_spelling():
    detail = diff('=IF(A1>1,"Total","x")', '=IF(A1>1,"Totel","x")')
    assert detail.category is ErrorCategory.CONSTANT
    assert detail.spelling == ("Totel", "Total")


def test_surplus_constants_are_used_too_often():
    detail = diff("=MIN(A1,2)", "=MIN(A1,3,4)")
    assert [f.text for f in detail.expected] == ["2"]
    assert [f.text for f in detail.found] == ["3", "4"]
    assert [(e.kind, e.name, e.message) for e in detail.extras] == [("constant", "4", "used too often")]


def test_constants_match_under_tolerance():
    detail = diff("=A1*0.30000000000000004", "=A1*0.3")
    assert detail.category is ErrorCategory.UNCLASSIFIED


# ---------------------------------------------------------------- degenerate shapes


def test_identical_formulas_have_empty_diffs(grades):
    analysis = analyze(grades.solution)
    for address, _ in grades.solution.formula_items():
        detail = diff_formula(analysis, analysis, address)
        assert detail.category is ErrorCategory.UNCLASSIFIED
        assert detail.expected == () and detail.found == () and detail.extras == ()


def test_constant_submission_expects_formula():
    detail = diff("=AVG(C3:C5)", 42, at="C6")
    assert detail.category is ErrorCategory.FUNCTION
    assert detail.formula_expected
    assert [f.text for f in detail.expected] == ["AVG"]


def test_constant_submission_against_operator_solution():
    detail = diff("=(B3+C3)/2", 42)
    assert detail.formula_expected
    assert detail.expected[0].kind == "operator"
    assert detail.expected[0].text == "/"


def test_constant_solution_compares_constants():
    detail = diff(5, 7)
    assert detail.category is ErrorCategory.CONSTANT
    assert [f.text for f in detail.expected] == ["5"]
    assert [f.text for f in detail.found] == ["7"]


def test_constant_solution_text_spelling():
    detail = diff("Total", "Totel")
    assert detail.category is ErrorCategory.CONSTANT
    assert detail.spelling == ("Totel", "Total")


def test_unclassified_for_structural_difference():
    detail = diff("=A1-A2", "=A2-A1")
    assert detail.category is ErrorCategory.UNCLASSIFIED


def test_category_exclusive_reference_before_constant():
    # both the references and the constants differ; the reference stage decides
    detail = diff("=A1*2", "=A2*3")
    assert detail.category is ErrorCategory.REFERENCE


def test_reference_repair_validity(grades):
    # substituting the expected reference for the found one makes the
    # submission formula reproduce the solution value
    from sheetcheck import evaluate, evaluate_ast, parse_formula, values_equal

    solution_grid = evaluate(grades.solution)
    detail = diff("=AVG(C3:C5)", "=(C3+C4+D5)/3", at="C6")
    repaired = "=(C3+C4+C5)/3"  # found D5 swapped for the missing C5
    value = evaluate_ast(parse_formula(repaired), solution_grid)
    assert values_equal(value, solution_grid[addr("C6")])


def test_randomized_reference_repair_identifies_the_swap():
    import random

    from sheetcheck import evaluate, evaluate_ast, parse_address, parse_formula, values_equal
    from sheetcheck.formulas import CellRef
    from genwb import WorkbookGen, mutate_one_formula, _ref_paths, _rebuild

    rng = random.Random(31337)
    gen = WorkbookGen(rng)
    checked = 0
    while checked < 40:
        solution = gen.workbook()
        mutation = mutate_one_formula(rng, solution)
        if mutation is None:
            continue
        submission, mutated_cell, mutated_ast = mutation
        detail = diff_formula(analyze(solution), analyze(submission), mutated_cell)
        if detail.category is not ErrorCategory.REFERENCE:
            continue  # operator and constant mutations classify elsewhere
        if len(detail.expected) == 1 and len(detail.found) == 1 and not detail.expected[0].is_range:
            # swapping one occurrence of the found reference for the expected
            # one must restore the solution value
            grid = evaluate(solution)
            expected_ref = CellRef(parse_address(detail.expected[0].text))
            found_address = parse_address(detail.found[0].text)
            repaired_values = []
            for path in _ref_paths(mutated_ast):
                node = mutated_ast
                for step in path:
                    node = getattr(node, step) if isinstance(step, str) else node.args[step]
                if node.address != found_address:
                    continue
                repaired = _rebuild(mutated_ast, path, lambda _: expected_ref)
                repaired_values.append(evaluate_ast(repaired, grid))
            assert any(
                values_equal(value, grid[mutated_cell]) for value in repaired_values
            ), detail
        checked += 1
    assert checked == 40


# ---------------------------------------------------------------- the oracle


def _edited_reference(rng, ref, refs):
    """`ref` with its `$` flags flipped, shifted, resized, moved to sheet Data, or swapped for another of `refs`."""
    kind = rng.choice(["flags", "shift", "resize", "sheet", "repeat"])
    if kind == "repeat":
        return rng.choice(refs)
    start, end = (ref.start, ref.end) if isinstance(ref, RangeRef) else (ref, ref)
    sheet, top, left = start.address
    _, bottom, right = end.address
    flags, end_flags = (start.col_absolute, start.row_absolute), (end.col_absolute, end.row_absolute)
    if kind == "flags":
        flags = (rng.random() < 0.5, rng.random() < 0.5)
        end_flags = flags if rng.random() < 0.7 else (rng.random() < 0.5, rng.random() < 0.5)
    elif kind == "shift":
        rows, cols = max(rng.randint(-1, 1), 1 - top), max(rng.randint(-1, 1), 1 - left)
        top, bottom, left, right = top + rows, bottom + rows, left + cols, right + cols
    elif kind == "resize":
        bottom, right = max(top, bottom + rng.randint(-1, 2)), max(left, right + rng.randint(-1, 1))
    else:
        sheet = "Data"
    first = CellRef(CellAddress(sheet, left, top), *flags)
    if isinstance(ref, CellRef) and (top, left) == (bottom, right):
        return first
    return RangeRef(first, CellRef(CellAddress(sheet, right, bottom), *end_flags))


def _edited_constant(rng, literal):
    return rng.choice(
        [
            NumberLit(getattr(literal, "value", 0.0) + rng.randint(1, 3)),
            NumberLit(getattr(literal, "value", 1.0) * (1 + 1e-12)),
            NumberLit(getattr(literal, "value", 1.0) * 1.4),
            TextLit(rng.choice(["Total", "Totel", "Tot", "x", ""])),
            BoolLit(rng.random() < 0.5),
        ]
    )


def _edited(rng, ast, refs):
    """`ast` with some of its references and constants edited; operators and functions are kept."""
    if isinstance(ast, (CellRef, RangeRef)):
        return _edited_reference(rng, ast, refs) if rng.random() < 0.5 else ast
    if isinstance(ast, (NumberLit, TextLit, BoolLit)):
        return _edited_constant(rng, ast) if rng.random() < 0.5 else ast
    if isinstance(ast, Unary):
        return Unary(ast.op, _edited(rng, ast.operand, refs))
    if isinstance(ast, Binary):
        return Binary(ast.op, _edited(rng, ast.left, refs), _edited(rng, ast.right, refs))
    if isinstance(ast, FuncCall):
        args = tuple(_edited(rng, arg, refs) for arg in ast.args)
        if ast.name in ("MIN", "MAX") and rng.random() < 0.3:  # one more argument, so one side has surplus items
            args += (rng.choice([*refs, NumberLit(float(rng.randint(0, 9)))]),)
        return FuncCall(ast.name, args)
    return ast


def _edited_workbook(rng, base):
    """`base` with its formulas edited, and a second sheet."""
    cells = {}
    for address, content in base.sheets[0].cells.items():
        if isinstance(content, Formula) and rng.random() < 0.7:
            ast = parse_formula(content.source, "Sheet1")
            refs = [node for node in walk_ast(ast) if isinstance(node, (CellRef, RangeRef))]
            content = Formula("=" + render_formula(_edited(rng, ast, refs), "Sheet1"))
        cells[address] = content
    return Workbook(base.name, (Sheet("Sheet1", cells), Sheet("Data", {addr("A1", "Data"): Number(2.0)})))


def _unevaluated(workbook):
    """An analysis of `workbook` without its grid, its canonical forms built; None on a syntax error."""
    formulas, report = parse_workbook(workbook)
    if not report.ok:
        return None
    analysis = WorkbookAnalysis(workbook, formulas, {})
    for facts in analysis.facts.values():
        facts.canonical  # noqa: B018 - built before a count of the diff's own work
    return analysis


_TOLERANCES = [DEFAULT_TOLERANCE, Tolerance(abs=0.5, rel=0.0), *(Tolerance(rel=rel) for rel in (0.5, 0.9, 1.0, 1.5))]


@settings(max_examples=examples(100), deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(_TOLERANCES))
def test_diff_formula_equals_the_oracle(seed, tolerance):
    # Both sides are edits of one edited ancestor, so texts and flags can differ on both.
    rng = random.Random(seed)
    ancestor = _edited_workbook(rng, WorkbookGen(rng).workbook())
    reference, submission = (_unevaluated(_edited_workbook(rng, ancestor)) for _ in range(2))
    assume(reference is not None and submission is not None)
    for address in reference.formulas:
        expected = diff_oracle.diff_formula(reference, submission, address, tolerance)
        assert diff_formula(reference, submission, address, tolerance) == expected


_NUMBERS = (
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5.0, -0.3, 0.5, 1e-9, math.inf, -math.inf])
    | st.just(math.inf)
    | st.floats(-1e6, 1e6)
    | st.floats(allow_nan=False)
)
_NUMBER_TOLERANCES = st.builds(Tolerance, abs=st.floats(0, 10) | st.just(math.inf), rel=st.just(0.0)) | st.builds(
    Tolerance,
    abs=st.sampled_from([0.0, 1e-9]),
    rel=st.floats(0, 0.5) | st.sampled_from([0.5, 0.9, 1.0, 1.2, 1.5]),
)


@settings(max_examples=examples(100))
@given(st.lists(_NUMBERS, max_size=10), st.lists(_NUMBERS, max_size=10), _NUMBER_TOLERANCES)
# With rel 1.2, -0.3 is not close to 1 but close to 5: the close numbers have a gap.
@example([1.0, 5.0], [-0.3, 0.9], Tolerance(abs=0.0, rel=1.2))
# With rel 0.9 rounding makes 0.0204... close to the float above 0.2040... but not to 0.2040... itself.
@example([0.20404874605326703, 0.20404874605326706], [0.02040487460532668], Tolerance(abs=1e-300, rel=0.9))
def test_number_matching_equals_the_scan(solution, submission, tolerance):
    pairs = diffing._match_numbers(solution, submission, tolerance)
    expected = diff_oracle._match_numbers(solution, submission, tolerance)
    assert [list(map(repr, side)) for side in pairs] == [list(map(repr, side)) for side in expected]


# ---------------------------------------------------------------- work per formula


_N = 1_000
_SHAPES = {
    "a range against its flagged shift": ({"B1": f"=SUM($A$1:$A${_N - 1})"}, {"B1": f"=SUM(A2:A{_N})"}),
    "two-cell ranges on another column": (
        {"B1": "=SUM(" + ",".join(f"C{i}:C{i + 1}" for i in range(1, _N, 2)) + ")"},
        {"B1": "=SUM(" + ",".join(f"A{i}:A{i + 1}" for i in range(1, _N, 2)) + ")"},
    ),
    "cells against their flagged shift": (
        {"B1": "=" + "+".join(f"A{i}" for i in range(1, _N + 1))},
        {"B1": "=" + "+".join(f"$A${i}" for i in range(2, _N + 2))},
    ),
    "constants that all differ": (
        {"B1": "=" + "+".join(str(i) for i in range(1, _N + 1))},
        {"B1": "=" + "+".join(f"{i}.5" for i in range(1, _N + 1))},
    ),
}


def test_an_infinite_constant_keeps_number_matching_linear():
    # An overflowing literal is an infinity, close to every finite number at
    # the default tolerance; a scan per value runs millions of lines here.
    count = 4_000
    reference = _unevaluated(make_workbook({"B1": "=" + "+".join(str(i) for i in range(1, count + 1))}))
    submitted = [f"{i}.5" for i in range(1, count)] + ["1e400"]
    submission = _unevaluated(make_workbook({"B1": "=" + "+".join(submitted)}))
    detail, lines = module_lines(diffing, diff_formula, reference, submission, addr("B1"))
    assert len(detail.expected) == count - 1 and detail.found[-1].text == "3999.5"
    assert lines <= 40 * count, lines


@pytest.mark.parametrize("shape", _SHAPES)
def test_diff_formula_runs_linearly_many_lines(shape):
    # Flag pairs, holding references and constants are each found through an index or a
    # merge; a search per missing item runs hundreds of lines per item here.
    reference, submission = (_unevaluated(make_workbook(cells)) for cells in _SHAPES[shape])
    detail, lines = module_lines(diffing, diff_formula, reference, submission, addr("B1"))
    assert len(detail.expected) >= _N // 2
    assert lines <= 40 * _N, lines
