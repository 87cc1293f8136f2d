from sheetcheck import ErrorCategory, analyze, diff_formula, levenshtein, spelling_hint
from sheetcheck.grid import Cell, Formula, Number, Sheet, Text, Workbook

from conftest import addr


def cell(text, content):
    if isinstance(content, str) and content.startswith("="):
        return Cell(addr(text), Formula(content))
    if isinstance(content, str):
        return Cell(addr(text), Text(content))
    return Cell(addr(text), Number(float(content)))


def diff(solution_content, submission_content, at="D3"):
    submission = cell(at, submission_content)
    workbook = Workbook("submission", (Sheet("Sheet1", {submission.address: submission}),))
    return diff_formula(cell(at, solution_content), analyze(workbook))


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


def test_constants_match_under_tolerance():
    detail = diff("=A1*0.30000000000000004", "=A1*0.3")
    assert detail.category is ErrorCategory.UNCLASSIFIED


# ---------------------------------------------------------------- degenerate shapes


def test_identical_formulas_have_empty_diffs(grades):
    analysis = analyze(grades.solution)
    for cell_obj in grades.solution.formula_cells():
        detail = diff_formula(cell_obj, analysis)
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
    assert values_equal(value, solution_grid[cell("C6", "=AVG(C3:C5)").address])


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
        detail = diff_formula(solution.cell(mutated_cell), analyze(submission))
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
