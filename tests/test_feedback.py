import json
import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from sheetcheck import (
    CellAddress,
    DiagnosisKind,
    Fragment,
    IdiomSuggestion,
    Status,
    TaskBundle,
    TaskConfigError,
    column_letters,
    dump_bundle,
    generate_feedback,
    header_context,
    load_bundle,
    lookup_annotations,
    parse_address,
    parse_formula,
    parse_workbook,
    read_workbook,
    render_formula,
    render_json,
    render_text,
    write_workbook,
)
from sheetcheck.feedback import _METRIC_LABELS
from sheetcheck.formulas import Binary, CellRef, FuncCall, RangeRef, Unary
from sheetcheck.quality import COMPARED_METRICS

from conftest import addr, examples, fill_down_cells, make_workbook, python_calls, range_sum_cells
from genwb import WorkbookGen, mutate_one_formula


# ---------------------------------------------------------------- golden levels


@pytest.mark.parametrize("level", range(1, 8))
def test_fixture_messages_per_level(grades, level):
    report = generate_feedback(grades.bundle, grades.submission, level, force_quality=(level == 7))
    assert list(report.messages) == list(grades.expected_messages[level])
    assert report.status is Status.FAIL


def _counting(monkeypatch, name, *modules):
    """The list of the ASTs that `name` is called with, in any of `modules`, from now on."""
    calls = []
    for module in modules:
        function = getattr(module, name)
        monkeypatch.setattr(module, name, lambda ast, function=function: calls.append(ast) or function(ast))
    return calls


def _differing(bundle, submission):
    """The parsed submission formulas that are not the reference's own AST at their cell."""
    formulas, _ = parse_workbook(submission, bundle.parsed_sources)
    reference = bundle.reference_analysis.formulas
    return [ast for address, ast in formulas.items() if reference.get(address) is not ast]


def test_level_7_canonicalizes_each_submission_formula_once(grades, monkeypatch):
    # A formula that is the reference's AST at its cell is canonicalized
    # once per bundle, any other once per report.
    import dataclasses

    import sheetcheck.quality as quality

    bundle = dataclasses.replace(grades.bundle)  # nothing cached yet
    reference = list(bundle.reference_analysis.formulas.values())
    differing = _differing(bundle, grades.submission)
    calls = _counting(monkeypatch, "canonicalize", quality)
    generate_feedback(bundle, grades.submission, 7, force_quality=True)
    assert 0 < len(differing) < len(grades.submission.formula_items())
    assert Counter(calls) == Counter(reference) + Counter(differing)


@pytest.mark.parametrize("level", range(1, 8))
def test_each_submission_formula_is_parsed_once(grades, parses, level):
    # Cells whose text matches a reference formula reuse its AST, and the
    # bundle's reference was parsed when it was loaded.
    reference = {(f.source, a.sheet) for a, f in grades.bundle.reference.formula_items()}
    texts = [(f.source, a.sheet) for a, f in grades.submission.formula_items()]
    generate_feedback(grades.bundle, grades.submission, level, force_quality=(level == 7))
    expected = Counter(text for text in texts if text not in reference)
    assert 0 < len(expected) < len(texts) and parses == expected


@pytest.mark.parametrize("level", range(1, 8))
def test_no_submission_ast_outlives_its_report(grades, monkeypatch, level):
    import gc
    import weakref

    from sheetcheck import formulas

    parsed = []
    parse = formulas.parse_formula

    def recording(text, sheet):
        ast = parse(text, sheet)
        parsed.append(weakref.ref(ast))
        return ast

    monkeypatch.setattr(formulas, "parse_formula", recording)
    report = generate_feedback(grades.bundle, grades.submission, level, force_quality=(level == 7))
    gc.collect()
    assert report.diagnoses and parsed
    assert [ref() for ref in parsed] == [None] * len(parsed)


def test_level_6_canonicalizes_each_formula_error_once(grades, monkeypatch):
    import dataclasses

    import sheetcheck.diffing as diffing
    import sheetcheck.quality as quality

    bundle = dataclasses.replace(grades.bundle)
    generate_feedback(bundle, grades.submission, 6)  # the reference's facts are built
    calls = _counting(monkeypatch, "canonicalize", diffing, quality)
    report = generate_feedback(bundle, grades.submission, 6)
    errors = [d.cell for d in report.diagnoses if d.kind is DiagnosisKind.FORMULA_ERROR]
    submitted = [parse_formula(grades.submission.content(a).source, a.sheet) for a in errors]
    assert len(submitted) == 2
    assert [calls.count(ast) for ast in submitted] == [1, 1]
    assert Counter(calls) == Counter(_differing(bundle, grades.submission))


def _cells_expanded_while_diffing(monkeypatch):
    """A counter of the cells that rectangles expand to inside diff_formula."""
    from sheetcheck import feedback, formulas

    counted = {"active": False, "cells": 0}
    cells, diff = formulas._cells, feedback.diff_formula

    def counting_cells(*box):
        found = cells(*box)
        counted["cells"] += len(found) if counted["active"] else 0
        return found

    def counting_diff(*args):
        counted["active"] = True
        try:
            return diff(*args)
        finally:
            counted["active"] = False

    monkeypatch.setattr(formulas, "_cells", counting_cells)
    monkeypatch.setattr(feedback, "diff_formula", counting_diff)
    return counted


def _range_task(reference_range, submitted_range):
    constants = {f"{col}{row}": 1 for row in range(1, 102) for col in ("A", "B", "CU", "CV")}
    constants.update({"C1": 1, "CV101": 1})
    reference = make_workbook({**constants, "A103": f"=SUM({reference_range})"})
    submission = make_workbook({**constants, "A103": f"=SUM({submitted_range})"})
    return TaskBundle("ranges", reference), submission


def _formula_errors(report):
    return [d for d in report.diagnoses if d.kind is DiagnosisKind.FORMULA_ERROR]


def test_level_6_report_on_a_short_range_expands_no_cell(monkeypatch):
    bundle, submission = _range_task("A1:CV100", "A1:CV99")
    expanded = _cells_expanded_while_diffing(monkeypatch)
    (diagnosis,) = _formula_errors(generate_feedback(bundle, submission, 6))
    # the operator count tells the two apart: one "+" per missing cell
    assert diagnosis.detail.expected == (Fragment("operator", "+"),) * 100
    assert expanded["cells"] == 0


def test_level_6_report_on_a_shifted_range_expands_only_the_differing_cells(monkeypatch):
    bundle, submission = _range_task("A1:CV100", "A2:CV101")
    expanded = _cells_expanded_while_diffing(monkeypatch)
    (diagnosis,) = _formula_errors(generate_feedback(bundle, submission, 6))
    detail = diagnosis.detail
    assert detail.expected == (Fragment("reference", "A1:CV100", is_range=True),)
    assert len(detail.found) == 100 and detail.found[0] == Fragment("reference", "A101")
    assert expanded["cells"] == 200  # row 1 missing, row 101 surplus; not the 9,900 shared


def test_a_second_report_canonicalizes_no_reference_formula(grades, monkeypatch):
    import dataclasses

    import sheetcheck.diffing as diffing
    import sheetcheck.quality as quality

    bundle = dataclasses.replace(grades.bundle)  # nothing cached yet
    reference = list(bundle.reference_analysis.formulas.values())
    differing = _differing(bundle, grades.submission)
    calls = _counting(monkeypatch, "canonicalize", diffing, quality)
    generate_feedback(bundle, grades.submission, 6)
    assert Counter(calls) == Counter(reference) + Counter(differing)
    calls.clear()
    assert _formula_errors(generate_feedback(bundle, grades.submission, 6))
    assert 0 < len(calls) < len(grades.submission.formula_items()) and Counter(calls) == Counter(differing)


def test_a_submission_equal_to_the_reference_shares_every_formula_result(grades, monkeypatch):
    import dataclasses

    import sheetcheck.quality as quality

    bundle = dataclasses.replace(grades.bundle)
    copy = read_workbook(write_workbook(bundle.reference))
    generate_feedback(bundle, copy, 7)
    canonicalized = _counting(monkeypatch, "canonicalize", quality)
    counted = _counting(monkeypatch, "_formula_counts", quality)
    report = generate_feedback(bundle, copy, 7)
    assert report.status is Status.PASS and report.metrics[0] == report.metrics[1]
    assert canonicalized == counted == []


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


def test_metric_labels_name_exactly_the_compared_metrics_in_order():
    assert tuple(_METRIC_LABELS) == COMPARED_METRICS


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


def test_bundle_validate_makes_no_python_call_per_value():
    bundle = TaskBundle(task="range", reference=make_workbook(range_sum_cells(100, 100)))
    assert len(bundle.reference_analysis.grid) == 10_001
    assert python_calls(bundle.validate)[1] < 50


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


@pytest.mark.parametrize("field, value", [("tolerance", {"abs": float("nan")}), ("quality", {"factor": float("nan")})])
def test_bundle_rejects_nan_thresholds(field, value):
    # A NaN tolerance would make every numeric comparison, even of the
    # reference against itself, unequal.
    doc = {"task": "t", "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"A1": 1}}]}, field: value}
    with pytest.raises(ValueError, match="non-negative|out of range"):
        load_bundle(doc)


def test_bundle_reference_with_a_range_over_the_limit_is_config_error():
    with pytest.raises(TaskConfigError, match="syntax errors, first in S!B1: range A1:CW100 covers 10100 cells"):
        load_bundle({"task": "t", "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"B1": "=AVG(A1:CW100)"}}]}})


def test_deeply_nested_bundle_file_is_config_error(tmp_path):
    task = tmp_path / "task.json"
    task.write_text("[" * 100_000)
    with pytest.raises(TaskConfigError, match="invalid task bundle JSON"):
        load_bundle(task)


def test_bundle_annotation_text_must_be_text():
    with pytest.raises(TaskConfigError, match="text"):
        load_bundle(
            {
                "task": "t",
                "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"A1": 1}}]},
                "annotations": [{"range": "A1", "text": 5}],
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


@pytest.mark.parametrize(
    "field, value, name",
    [
        ("tolerance", [1], "tolerance"),
        ("quality", {"overrides": {"operator_total": 2}}, "quality.overrides.operator_total"),
        ("graded_cells", 5, "graded_cells"),
        ("materials", [{"title": "m", "keywords": 5}], "materials.keywords"),
    ],
)
def test_bundle_malformed_section_is_config_error(field, value, name):
    doc = {"task": "t", "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"A1": 1}}]}, field: value}
    with pytest.raises(TaskConfigError, match=f"field '{re.escape(name)}'"):
        load_bundle(doc)


@pytest.mark.parametrize(
    "field, value, name",
    [
        ("tolerance", {"abs": -1}, "tolerance.abs"),
        ("quality", {"factor": 0.5}, "quality.factor"),
        ("quality", {"min_idiom_operands": 1}, "quality.min_idiom_operands"),
        ("quality", {"overrides": {"operator_total": {"factor": 0}}}, "quality.overrides.operator_total.factor"),
        ("quality", {"overrides": {"operator_total": {"offset": -5}}}, "quality.overrides.operator_total.offset"),
    ],
)
def test_bundle_threshold_out_of_range_is_config_error(field, value, name):
    doc = {"task": "t", "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"A1": 1}}]}, field: value}
    with pytest.raises(TaskConfigError, match=f"field '{re.escape(name)}' is out of range"):
        load_bundle(doc)


@pytest.mark.parametrize(
    "field, value, name",
    [
        ("tolerance", {"absolute": 0.01}, "tolerance.absolute"),
        ("quality", {"factors": 2}, "quality.factors"),
        ("quality", {"overrides": {"operand_totl": {"factor": 2}}}, "quality.overrides.operand_totl"),
        ("quality", {"overrides": {"max_fan_in": {"factor": 2}}}, "quality.overrides.max_fan_in"),
        ("quality", {"overrides": {"operand_total": {"offest": 2}}}, "quality.overrides.operand_total.offest"),
        ("annotations", [{"range": "A1", "text": "x", "url": "u"}], "annotations.url"),
        ("materials", [{"title": "m", "keywords": ["k"], "link": "l"}], "materials.link"),
    ],
)
def test_bundle_unknown_nested_field_is_config_error(field, value, name):
    doc = {"task": "t", "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"A1": 1}}]}, field: value}
    with pytest.raises(TaskConfigError, match=f"unknown task bundle field '{re.escape(name)}'"):
        load_bundle(doc)


@pytest.mark.parametrize(
    "field, value, name, message",
    [
        ("annotations", [{"range": "A1", "text": "x", "link": ["a", {"b": 1}]}], "annotations.link", "must be text"),
        ("materials", [{"title": 7, "keywords": ["k"]}], "materials.title", "must be text"),
        ("materials", [{"title": None, "keywords": ["k"]}], "materials.title", "must be text"),
        ("materials", [{"title": "m", "keywords": ["k"], "ref": 3}], "materials.ref", "must be text"),
        ("tolerance", {"abs": "0.5"}, "tolerance.abs", "must be a number"),
        ("quality", {"factor": True}, "quality.factor", "must be a number"),
        ("quality", {"min_idiom_operands": 2.9}, "quality.min_idiom_operands", "must be an integer"),
        ("tolerance", {"rel": float("inf")}, "tolerance.rel", "must be a finite number"),
        (
            "quality",
            {"overrides": {"operator_total": {"factor": float("nan")}}},
            "quality.overrides.operator_total.factor",
            "must be a finite number",
        ),
        (
            "quality",
            {"overrides": {"operator_total": {"offset": float("nan")}}},
            "quality.overrides.operator_total.offset",
            "must be a finite number",
        ),
        ("task", {"a": [1]}, "task", "must be text"),
        ("task", None, "task", "must be text"),
    ],
)
def test_bundle_field_of_the_wrong_type_is_config_error(field, value, name, message):
    doc = {"task": "t", "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"A1": 1}}]}, field: value}
    with pytest.raises(TaskConfigError, match=f"^task bundle field '{re.escape(name)}' {message}$"):
        load_bundle(doc)


def test_dumped_bundle_with_every_nested_field_loads():
    doc = {
        "task": "t",
        "reference": {"name": "r", "sheets": [{"name": "S", "cells": {"A1": 1}}]},
        "tolerance": {"abs": 0.01, "rel": 0.001},
        "graded_cells": ["A1"],
        "annotations": [{"range": "A1", "text": "x", "link": "https://example.org"}],
        "materials": [{"title": "m", "keywords": ["k"], "ref": "ch. 2"}],
        "quality": {"factor": 2, "offset": 0, "min_idiom_operands": 4, "overrides": {"operand_total": {"factor": 3}}},
    }
    dumped = dump_bundle(load_bundle(doc))
    reloaded = load_bundle(json.loads(dumped))
    assert reloaded.quality.overrides == {"operand_total": (3.0, 0.0)}
    assert dump_bundle(reloaded) == dumped


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
    from sheetcheck import Formula, Sheet, Workbook

    sheet = grades.submission.sheets[0]
    cells = {**sheet.cells, addr("D3"): Formula("=1e999")}
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


def _keys_reordered(workbook, reorder):
    """The workbook read back from a file that lists each sheet's cells in the order `reorder` gives."""
    doc = json.loads(write_workbook(workbook))
    for sheet in doc["sheets"]:
        sheet["cells"] = dict(reorder(list(sheet["cells"].items())))
    return read_workbook(json.dumps(doc))


def _keys_reversed(workbook):
    return _keys_reordered(workbook, reversed)


def _cycle_topped_chain():
    reference = make_workbook(fill_down_cells(50, True, 1))
    submission = make_workbook({**fill_down_cells(50, True, "=B1"), "B1": "=A1"})
    return TaskBundle(task="chain", reference=reference).validate(), submission


@pytest.mark.parametrize("case", ("grades", "cycle-topped chain"))
def test_reports_do_not_depend_on_the_order_of_cells_in_the_file(grades, case):
    bundle, submission = (grades.bundle, grades.submission) if case == "grades" else _cycle_topped_chain()
    reversed_submission = _keys_reversed(submission)
    assert list(reversed_submission.sheets[0].cells) != list(submission.sheets[0].cells)
    for level in range(1, 8):
        reports = [
            render_json(generate_feedback(bundle, workbook, level, force_quality=(level == 7)))
            for workbook in (submission, reversed_submission)
        ]
        assert reports[0] == reports[1]


# ---------------------------------------------------------------- metamorphic relations


@st.composite
def _generated_cases(draw):
    """(reference, submission, level) over genwb shapes.

    The reference gains J1 = SUM(A1:H8), a range over the whole block that
    genwb fills, formula cells included; the submission is the reference,
    perhaps with one formula mutated.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    doc = json.loads(write_workbook(WorkbookGen(rng).workbook("reference")))
    doc["sheets"][0]["cells"]["J1"] = "=SUM(A1:H8)"
    reference = read_workbook(json.dumps(doc))
    mutation = mutate_one_formula(rng, reference) if draw(st.booleans()) else None
    return reference, mutation[0] if mutation else reference, draw(st.integers(1, 7))


def _report(reference, submission, level):
    bundle = TaskBundle(task="generated", reference=reference).validate()
    return generate_feedback(bundle, submission, level, force_quality=(level == 7))


@settings(max_examples=40, deadline=None)
@given(_generated_cases(), st.randoms(use_true_random=False))
def test_shuffled_keys_in_both_workbooks_give_the_same_report_bytes(case, rnd):
    reference, submission, level = case
    shuffled = [_keys_reordered(workbook, lambda items: rnd.sample(items, len(items))) for workbook in case[:2]]
    assert render_json(_report(*shuffled, level)) == render_json(_report(reference, submission, level))


@settings(max_examples=40, deadline=None)
@given(
    _generated_cases(),
    st.dictionaries(st.tuples(st.integers(1, 12), st.integers(10, 20)), st.integers(-9, 9), min_size=1, max_size=8),
)
def test_constants_at_unused_addresses_keep_the_diagnoses(case, padding):
    # genwb uses A1:H8 and the reference adds J1, so rows 10-20 are unused
    reference, submission, level = case
    doc = json.loads(write_workbook(submission))
    doc["sheets"][0]["cells"].update({f"{column_letters(col)}{row}": value for (col, row), value in padding.items()})
    padded = _report(reference, read_workbook(json.dumps(doc)), level)
    plain = _report(reference, submission, level)
    assert padded.status is plain.status
    assert [(d.cell, d.kind) for d in padded.diagnoses] == [(d.cell, d.kind) for d in plain.diagnoses]


@settings(max_examples=examples(40), deadline=None)
@given(_generated_cases())
def test_a_report_sharing_the_reference_facts_has_the_bytes_of_one_without(case):
    from unittest import mock

    from sheetcheck import analyze, feedback

    reference, submission, level = case
    shared = render_json(_report(reference, submission, level))
    with mock.patch.object(feedback, "analyze", lambda workbook, formulas, reference=None: analyze(workbook, formulas)):
        unshared = render_json(_report(reference, submission, level))
    assert shared == unshared


def _moved(node, dr, dc):
    """A parsed formula with every reference moved by `dr` rows and `dc` columns, `$` flags kept."""
    if isinstance(node, CellRef):
        return replace(node, address=CellAddress(node.address.sheet, node.address.col + dc, node.address.row + dr))
    if isinstance(node, RangeRef):
        return RangeRef(_moved(node.start, dr, dc), _moved(node.end, dr, dc))
    if isinstance(node, Unary):
        return Unary(node.op, _moved(node.operand, dr, dc))
    if isinstance(node, Binary):
        return Binary(node.op, _moved(node.left, dr, dc), _moved(node.right, dr, dc))
    if isinstance(node, FuncCall):
        return FuncCall(node.name, tuple(_moved(arg, dr, dc) for arg in node.args))
    return node  # a literal


def _translated(workbook, dr, dc):
    """The workbook with every cell moved by `dr` rows and `dc` columns and each reference moved with it."""
    doc = json.loads(write_workbook(workbook))
    for sheet in doc["sheets"]:
        cells = {}
        for text, raw in sheet["cells"].items():
            address = parse_address(text, sheet["name"])
            if isinstance(raw, str) and raw.startswith("="):
                raw = "=" + render_formula(_moved(parse_formula(raw, sheet["name"]), dr, dc), sheet["name"])
            cells[CellAddress(address.sheet, address.col + dc, address.row + dr).text()] = raw
        sheet["cells"] = cells
    return read_workbook(json.dumps(doc))


@settings(max_examples=examples(40), deadline=None)
@given(_generated_cases(), st.integers(0, 40), st.integers(0, 30))
def test_translating_both_workbooks_moves_the_diagnoses(case, dr, dc):
    # genwb fills columns A-H and the reference adds J1, so dc up to 30 moves cells past column Z
    reference, submission, level = case
    moved = _report(_translated(reference, dr, dc), _translated(submission, dr, dc), level)
    plain = _report(reference, submission, level)
    assert moved.status is plain.status
    assert [(d.cell, d.kind, d.detail and d.detail.category) for d in moved.diagnoses] == [
        (CellAddress(d.cell.sheet, d.cell.col + dc, d.cell.row + dr), d.kind, d.detail and d.detail.category)
        for d in plain.diagnoses
    ]
