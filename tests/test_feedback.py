import json

import pytest

from sheetcheck import (
    DiagnosisKind,
    IdiomSuggestion,
    Status,
    TaskBundle,
    TaskConfigError,
    dump_bundle,
    generate_feedback,
    header_context,
    load_bundle,
    lookup_annotations,
    render_json,
    render_text,
)

from conftest import addr, fill_down_cells, make_workbook


# ---------------------------------------------------------------- golden levels


@pytest.mark.parametrize("level", range(1, 8))
def test_fixture_messages_per_level(grades, level):
    report = generate_feedback(grades.bundle, grades.submission, level, force_quality=(level == 7))
    assert list(report.messages) == list(grades.expected_messages[level])
    assert report.status is Status.FAIL


def test_level_7_canonicalizes_each_submission_formula_once(grades, monkeypatch):
    from collections import Counter

    import sheetcheck.quality as quality
    from sheetcheck import parse_formula

    calls = Counter()
    canonicalize = quality.canonicalize

    def counting(ast):
        calls[ast] += 1
        return canonicalize(ast)

    monkeypatch.setattr(quality, "canonicalize", counting)
    generate_feedback(grades.bundle, grades.submission, 7, force_quality=True)
    formulas = Counter(
        parse_formula(cell.content.source, cell.address.sheet)
        for cell in grades.submission.formula_cells()
    )
    assert len(formulas) > 1 and calls == formulas


def test_level_6_canonicalizes_each_formula_error_once(grades, monkeypatch):
    from collections import Counter

    import sheetcheck.diffing as diffing
    import sheetcheck.quality as quality
    from sheetcheck import parse_formula

    calls = Counter()
    for module in (diffing, quality):

        def counting(ast, canonicalize=module.canonicalize):
            calls[ast] += 1
            return canonicalize(ast)

        monkeypatch.setattr(module, "canonicalize", counting)
    report = generate_feedback(grades.bundle, grades.submission, 6)
    errors = [d.cell for d in report.diagnoses if d.kind is DiagnosisKind.FORMULA_ERROR]
    submitted = [parse_formula(grades.submission.cell(a).content.source, a.sheet) for a in errors]
    assert len(submitted) == 2
    assert [calls[ast] for ast in submitted] == [1, 1]


def test_pass_path_level_1(grades):
    report = generate_feedback(grades.bundle, grades.solution, 1)
    assert report.status is Status.PASS
    assert list(report.messages) == ["The spreadsheet is correct."]


def test_pass_path_mid_levels(grades):
    for level in (2, 3, 4, 5, 6):
        report = generate_feedback(grades.bundle, grades.solution, level)
        assert list(report.messages) == ["The spreadsheet is correct."]


def test_level_monotonicity_formula_cells_subset(grades):
    report = generate_feedback(grades.bundle, grades.submission, 3)
    value_cells = {d.cell for d in report.diagnoses if d.kind is DiagnosisKind.VALUE_ERROR}
    formula_cells = {d.cell for d in report.diagnoses if d.kind is DiagnosisKind.FORMULA_ERROR}
    assert formula_cells <= value_cells


def test_diagnoses_complete_at_every_level(grades):
    for level in (1, 4, 7):
        report = generate_feedback(grades.bundle, grades.submission, level)
        kinds = [(d.cell.text(), d.kind.value) for d in report.diagnoses]
        assert ("D3", "value_error") in kinds
        assert ("D3", "formula_error") in kinds
        assert ("D6", "value_error") in kinds
        assert ("D6", "formula_error") not in kinds
        details = [d for d in report.diagnoses if d.kind is DiagnosisKind.FORMULA_ERROR]
        assert all(d.detail is not None for d in details)


def test_quality_gate_closed_on_fail(grades):
    report = generate_feedback(grades.bundle, grades.submission, 7, force_quality=False)
    assert report.status is Status.FAIL
    assert report.messages == ()
    # the machine-readable findings are still present
    assert any(isinstance(f, IdiomSuggestion) for f in report.quality)


def test_quality_messages_on_pass():
    reference = make_workbook({"A1": 1, "A2": 2, "A3": 3, "A4": "=AVG(A1:A3)"})
    submission = make_workbook({"A1": 1, "A2": 2, "A3": 3, "A4": "=SUM(A1:A3)/3"})
    bundle = TaskBundle(task="t", reference=reference).validate()
    report = generate_feedback(bundle, submission, 7)
    assert report.status is Status.PASS
    assert report.messages == ("It is preferable to use an AVG-formula in cell A4.",)


def test_metric_exceeded_message_on_pass():
    reference = make_workbook({"A1": 1, "A2": 2, "A4": "=A1+A2"})
    submission = make_workbook({"A1": 1, "A2": 2, "A4": "=A1+A2+A1-A1+A2-A2"})
    bundle = TaskBundle(task="t", reference=reference).validate()
    report = generate_feedback(bundle, submission, 7)
    assert report.status is Status.PASS
    assert any("number of operators" in m and "exceeds" in m for m in report.messages)


def test_machine_message_consistency(grades):
    for level in (2, 3, 5, 6):
        report = generate_feedback(grades.bundle, grades.submission, level)
        named = {d.cell.text() for d in report.diagnoses}
        for message in report.messages:
            for token in ("D3", "C6", "D6"):
                if token in message:
                    assert token in named


def test_level_out_of_range_is_config_error(grades):
    with pytest.raises(TaskConfigError):
        generate_feedback(grades.bundle, grades.submission, 0)
    with pytest.raises(TaskConfigError):
        generate_feedback(grades.bundle, grades.submission, 8)


# ---------------------------------------------------------------- syntax gate


def test_syntax_error_blocks_feedback(grades):
    submission = make_workbook({"A1": "=SUMM(A2)", "A2": 1})
    report = generate_feedback(grades.bundle, submission, 3)
    assert report.status is Status.SYNTAX_ERROR
    assert report.diagnoses == ()
    assert report.quality == ()
    assert report.metrics is None
    assert len(report.syntax.errors) == 1
    assert report.messages[0].startswith("Syntax error in cell A1")


# ---------------------------------------------------------------- headers


def test_header_context_d3(grades):
    assert header_context(grades.solution, addr("D3")) == ("Final", "Anne")


def test_header_context_c6(grades):
    assert header_context(grades.solution, addr("C6")) == ("Ex. 2", "Avg.")


def test_header_context_empty_sheet():
    wb = make_workbook({})
    assert header_context(wb, addr("A1")) == (None, None)


def test_header_context_skips_numbers(grades):
    # B6's row header is the text in A6, numbers in between are skipped
    assert header_context(grades.solution, addr("B6")) == ("Ex. 1", "Avg.")


# ---------------------------------------------------------------- annotations and materials


def test_annotation_range_lookup(grades):
    messages = lookup_annotations(grades.bundle, [addr("D3"), addr("C6")], [[], []])
    assert messages == ["You should recall the info in the 'Calculating the average' tutorial."]


def test_material_lookup_by_header_token(grades):
    messages = lookup_annotations(grades.bundle, [addr("Z99")], [["Ex. 2", "Avg."]])
    assert messages == ["You should recall the info in the 'Calculating the average' tutorial."]


def test_lookup_no_hits(grades):
    assert lookup_annotations(grades.bundle, [addr("Z99")], [["nothing"]]) == []


def test_annotation_link_is_appended():
    reference = make_workbook({"A1": 1})
    bundle = load_bundle(
        {
            "task": "t",
            "reference": json.loads('{"name": "r", "sheets": [{"name": "Sheet1", "cells": {"A1": 1}}]}'),
            "annotations": [{"range": "A1", "text": "See the notes.", "link": "https://example.org/notes"}],
        }
    )
    messages = lookup_annotations(bundle, [addr("A1")], [[]])
    assert messages == ["See the notes. (https://example.org/notes)"]


# ---------------------------------------------------------------- rendering


def test_render_text_pass(grades):
    report = generate_feedback(grades.bundle, grades.solution, 1)
    assert render_text(report) == "task grades: PASS\nThe spreadsheet is correct.\n"


def test_render_text_level5_order(grades):
    report = generate_feedback(grades.bundle, grades.submission, 5)
    lines = render_text(report).splitlines()
    assert lines[0] == "task grades: FAIL"
    assert lines[1] == "An operator of cell D3 is incorrect."
    assert lines[2] == "A reference of cell C6 is incorrect."


def test_render_text_syntax_error(grades):
    submission = make_workbook({"A1": "=1+"})
    report = generate_feedback(grades.bundle, submission, 1)
    lines = render_text(report).splitlines()
    assert lines[0] == "task grades: SYNTAX ERROR"
    assert len(lines) == 2


def test_render_json_shape(grades):
    report = generate_feedback(grades.bundle, grades.submission, 6)
    doc = json.loads(render_json(report))
    assert doc["status"] == "fail"
    assert doc["task"] == "grades"
    assert doc["level"] == 6
    assert doc["diagnoses"][0]["cell"] == "D3"
    d3_formula = next(
        d for d in doc["diagnoses"] if d["cell"] == "D3" and d["kind"] == "formula_error"
    )
    assert d3_formula["detail"]["category"] == "operator"
    assert d3_formula["detail"]["expected"] == ["+"]
    assert doc["metrics"]["submission"]["formula_cell_count"] == 6


def test_render_json_pass_shape(grades):
    report = generate_feedback(grades.bundle, grades.solution, 1)
    doc = json.loads(render_json(report))
    assert doc["status"] == "pass"
    assert doc["diagnoses"] == []


def test_render_json_syntax_shape(grades):
    report = generate_feedback(grades.bundle, make_workbook({"A1": "=1+"}), 1)
    doc = json.loads(render_json(report))
    assert doc["status"] == "syntax_error"
    assert doc["syntax"][0]["cell"] == "A1"
    assert isinstance(doc["syntax"][0]["position"], int)


def test_render_json_roundtrip_identity(grades):
    report = generate_feedback(grades.bundle, grades.submission, 6)
    text = render_json(report)
    assert json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n" == text


# ---------------------------------------------------------------- bundles


def test_bundle_roundtrip(grades):
    dumped = dump_bundle(grades.bundle)
    reloaded = load_bundle(json.loads(dumped))
    assert reloaded.task == grades.bundle.task
    assert reloaded.reference == grades.bundle.reference
    assert reloaded.tolerance == grades.bundle.tolerance
    assert reloaded.annotations == grades.bundle.annotations
    assert reloaded.materials == grades.bundle.materials
    assert dump_bundle(reloaded) == dumped


def test_bundle_rejects_unknown_field():
    with pytest.raises(TaskConfigError):
        load_bundle({"task": "t", "reference": {"name": "r", "sheets": []}, "surprise": 1})


def test_bundle_rejects_cyclic_reference():
    doc = {
        "task": "t",
        "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"A1": "=A1"}}]},
    }
    with pytest.raises(TaskConfigError, match="cycle"):
        load_bundle(doc)


def test_bundle_rejects_syntax_errors_in_reference():
    doc = {
        "task": "t",
        "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"A1": "=1+"}}]},
    }
    with pytest.raises(TaskConfigError, match="syntax"):
        load_bundle(doc)


def test_bundle_material_keywords_normalized():
    bundle = load_bundle(
        {
            "task": "t",
            "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"A1": 1}}]},
            "materials": [{"title": "m", "keywords": ["Avg.", "  MEAN  "]}],
        }
    )
    assert bundle.materials[0].keywords == ("avg", "mean")


def test_bundle_graded_cells_parsed():
    bundle = load_bundle(
        {
            "task": "t",
            "reference": {"name": "r", "sheets": [{"name": "Main", "cells": {"A1": 1}}]},
            "graded_cells": ["A1", "Main!B2"],
        }
    )
    assert bundle.graded == {addr("A1", "Main"), addr("B2", "Main")}


def test_bundle_bad_annotation_range_is_config_error():
    with pytest.raises(TaskConfigError, match="range"):
        load_bundle(
            {
                "task": "t",
                "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"A1": 1}}]},
                "annotations": [{"range": "NOT-A-RANGE", "text": "x"}],
            }
        )


def test_bundle_annotation_missing_text_is_config_error():
    with pytest.raises(TaskConfigError, match="text"):
        load_bundle(
            {
                "task": "t",
                "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"A1": 1}}]},
                "annotations": [{"range": "A1"}],
            }
        )


def test_bundle_bad_graded_cell_is_config_error():
    with pytest.raises(TaskConfigError, match="graded"):
        load_bundle(
            {
                "task": "t",
                "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"A1": 1}}]},
                "graded_cells": ["??"],
            }
        )


def test_integration_extras_and_spelling_hints():
    reference = make_workbook(
        {
            "B1": 10,
            "C1": 20,
            "D1": "=SUM(B1:C1)/7",
            "G1": '=IF(B1>15,"High","Low")',
        }
    )
    submission = make_workbook(
        {
            "B1": 10,
            "C1": 20,
            "D1": "=ROUND(SUM(B1:C1)/7;2)",
            "G1": '=IF(B1>15,"High","Loe")',
        }
    )
    bundle = TaskBundle(task="mixed", reference=reference).validate()
    report = generate_feedback(bundle, submission, 6)
    assert report.status is Status.FAIL
    assert "The function 'ROUND' is used too often in cell D1." in report.messages
    assert "The constant 'Low' should be used in cell G1." in report.messages
    assert "'Loe' in cell G1 seems to be a misspelling of 'Low'." in report.messages

    level5 = generate_feedback(bundle, submission, 5)
    assert "A function of cell D1 is incorrect." in level5.messages
    assert "A constant of cell G1 is incorrect." in level5.messages


@pytest.mark.parametrize("level", (6, 7))
def test_long_hand_written_sum_gets_a_report(level):
    n = 5000
    cells = {f"A{i}": i for i in range(1, n + 1)}
    reference = make_workbook({**cells, "B1": f"=SUM(A1:A{n})"})
    submission = make_workbook({**cells, "B1": "=" + "+".join(list(cells)[:-1] + ["A1"])})
    bundle = TaskBundle(task="long-sum", reference=reference).validate()
    report = generate_feedback(bundle, submission, level, force_quality=(level == 7))
    assert report.status is Status.FAIL
    assert [d.cell.text() for d in report.diagnoses] == ["B1", "B1"]


@pytest.mark.parametrize("level", (6, 7))
def test_long_difference_inside_a_sum_gets_a_report(level):
    n = 5000
    cells = {f"A{i}": i for i in range(1, n + 1)}
    formula = "=B1+(" + "-".join(cells) + ")"
    reference = make_workbook({**cells, "B1": 1, "B2": 2, "C1": formula.replace("B1", "B2", 1)})
    submission = make_workbook({**cells, "B1": 1, "B2": 2, "C1": formula, "D1": formula})
    bundle = TaskBundle(task="long-difference-sum", reference=reference).validate()
    report = generate_feedback(bundle, submission, level, force_quality=True)
    assert report.status is Status.FAIL
    assert [d.cell.text() for d in report.diagnoses] == ["C1", "C1"]
    if level == 6:
        assert report.messages == ("The reference B2 should be used in cell C1.",)
    else:
        assert "The same calculation is used in cells C1, D1." in report.messages


@pytest.mark.parametrize("level", range(1, 8))
def test_overflowing_literal_gets_a_report(grades, level):
    from sheetcheck import Cell, Formula, Sheet, Workbook

    sheet = grades.submission.sheets[0]
    d3 = addr("D3")
    cells = {**sheet.cells, d3: Cell(d3, Formula("=1e999"))}
    submission = Workbook(grades.submission.name, (Sheet(sheet.name, cells),))
    report = generate_feedback(grades.bundle, submission, level, force_quality=(level == 7))
    assert report.status is Status.FAIL
    assert addr("D3") in [d.cell for d in report.diagnoses]


def test_deeply_nested_submission_gets_a_syntax_error_report(grades):
    submission = make_workbook({"A1": 1, "B1": "=" + "(" * 150 + "A1" + ")" * 150})
    report = generate_feedback(grades.bundle, submission, 3)
    assert report.status is Status.SYNTAX_ERROR
    assert list(report.messages) == ["Syntax error in cell B1: formula is nested too deeply"]


def test_long_subtraction_chain_gets_a_report():
    n = 5000
    cells = {f"A{i}": i for i in range(1, n + 1)}
    reference = make_workbook({**cells, "B1": "=" + "-".join(cells)})
    swapped = make_workbook({**cells, "B1": "=" + "-".join(list(cells)[1:] + ["A1"])})
    bundle = TaskBundle(task="long-difference", reference=reference).validate()
    assert generate_feedback(bundle, reference, 6).status is Status.PASS
    report = generate_feedback(bundle, swapped, 6)
    assert report.status is Status.FAIL
    assert [d.cell.text() for d in report.diagnoses] == ["B1", "B1"]


@pytest.mark.parametrize("up", (True, False), ids=("up", "down"))
def test_long_fill_down_chain_gets_a_report(up):
    n = 10_000
    start = "A1" if up else f"A{n}"
    reference = make_workbook(fill_down_cells(n, up, 1))
    bundle = TaskBundle(task="chain", reference=reference).validate()
    submission = make_workbook(fill_down_cells(n, up, 2))
    level3 = generate_feedback(bundle, submission, 3)
    assert level3.status is Status.FAIL
    assert list(level3.messages) == [f"The formulas of cells {start} are incorrect."]
    assert len(level3.diagnoses) == n + 1
    level6 = generate_feedback(bundle, submission, 6)
    assert list(level6.messages) == [f"The constant '1' should be used in cell {start}."]
