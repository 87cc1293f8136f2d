"""Acceptance suite: one test per release criterion, each printing a
pass line once its assertions hold.  Criteria cover the worked grading
example end to end, the randomized matching and canonicalization corpora,
the evaluator semantics table and the stability of the external
interfaces.
"""

import json
import random
import re
import time

import jsonschema

from sheetcheck import (
    BLANK,
    ComparePhase,
    Number,
    Status,
    TaskBundle,
    analyze,
    build_graph,
    canonicalize,
    evaluate,
    evaluate_ast,
    export_dot,
    generate_feedback,
    longest_chain,
    match_values,
    parse_formula,
    read_workbook,
    references_of,
    render_json,
    terminals,
    values_equal,
    write_workbook,
)
from sheetcheck.cli import main
from sheetcheck.fixtures import load_fixture

import graph_oracle
import matching_oracle
from conftest import addr, make_workbook, texts
from genwb import GenConfig, WorkbookGen, mutate_one_formula
from oracle_cases import ORACLE_CASES

CORPUS_SIZE = 1000


def _normalize(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


# ---------------------------------------------------------------------------
# Criterion 1: the worked example reproduces the published feedback catalog
# ---------------------------------------------------------------------------


def test_c01_feedback_catalog_golden():
    started = time.perf_counter()
    fixture = load_fixture("grades")

    result = match_values(analyze(fixture.solution), analyze(fixture.submission))
    assert texts(result.value_errors) == ["D3", "C6", "D6"]
    assert texts(result.formula_errors) == ["D3", "C6"]

    for level in range(1, 8):
        report = generate_feedback(
            fixture.bundle, fixture.submission, level, force_quality=(level == 7)
        )
        produced = _normalize(" ".join(report.messages))
        expected = _normalize(" ".join(fixture.expected_messages[level]))
        assert produced == expected, f"level {level}: {produced!r} != {expected!r}"

    level6 = generate_feedback(fixture.bundle, fixture.submission, 6)
    details = {d.cell.text(): d.detail for d in level6.diagnoses if d.detail is not None}
    assert details["D3"].category.value == "operator"
    assert [f.text for f in details["D3"].expected] == ["+"]
    assert details["C6"].category.value == "reference"
    assert [f.text for f in details["C6"].expected] == ["C3:C5"]

    level7 = generate_feedback(fixture.bundle, fixture.submission, 7, force_quality=True)
    suggestion = next(f for f in level7.quality if getattr(f, "function", None) == "AVG")
    assert texts(suggestion.cells) == ["B6", "C6", "D6"]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden check took {elapsed:.3f}s"
    print(f"criterion 1 (feedback catalog golden test, {elapsed * 1000:.0f} ms): PASS")


# ---------------------------------------------------------------------------
# Criterion 2: propagated errors are repaired before re-evaluation
# ---------------------------------------------------------------------------


def test_c02_propagation_repair():
    fixture = load_fixture("grades")
    result = match_values(analyze(fixture.solution), analyze(fixture.submission))
    assert result == matching_oracle.match_values(fixture.solution, fixture.submission)
    d6 = addr("D6")

    first = next(
        t for t in result.trace if t.address == d6 and t.phase is ComparePhase.FIRST_COMPARE
    )
    assert not first.matched
    assert first.submission == Number(55.0)
    assert values_equal(first.solution, Number(223.0 / 3.0))

    second = next(
        t for t in result.trace if t.address == d6 and t.phase is ComparePhase.RE_EVALUATE
    )
    assert second.matched

    assert set(result.value_errors) - set(result.formula_errors) == {d6}
    print("criterion 2 (propagation repair): PASS")


# ---------------------------------------------------------------------------
# Criterion 3: reference dependency graph structure and DOT export
# ---------------------------------------------------------------------------


def test_c03_graph_structure():
    fixture = load_fixture("grades")
    analysis = analyze(fixture.solution)
    graph = build_graph(analysis)

    outputs, inputs = terminals(graph)
    assert texts(outputs) == ["B6", "C6", "D6"]
    assert set(texts(inputs)) == {"B3", "B4", "B5", "C3", "C4", "C5"}
    assert len({*graph.formula_cells, *inputs}) == 12
    assert longest_chain(graph) == 2

    # The edge count equals the sum of reference counts over formula cells:
    # 2+2+2 for the three pairwise averages plus 3+3+3 for the range
    # aggregates, fifteen edges in total.
    reference_sum = sum(
        len(references_of(parse_formula(f.source, a.sheet)))
        for a, f in fixture.solution.formula_items()
    )
    assert reference_sum == 15
    assert graph.edge_count == reference_sum

    dot = export_dot(analysis)
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert dot.count("->") == graph.edge_count
    node_lines = [line for line in dot.splitlines() if "label=" in line]
    assert len(node_lines) == 12
    assert '"D6" [label="D6: 74.33", style=filled, fillcolor=red];' in dot
    assert dot == export_dot(analyze(fixture.solution))
    print("criterion 3 (dependency graph structure and DOT export): PASS")


# ---------------------------------------------------------------------------
# Criterion 4: single-error injection against the brute-force oracle
# ---------------------------------------------------------------------------


def test_c04_error_injection_property():
    rng = random.Random(20240901)
    gen = WorkbookGen(rng, GenConfig(max_rows=8, max_cols=8, max_depth=3))
    checked = 0
    attempts = 0
    while checked < CORPUS_SIZE:
        attempts += 1
        assert attempts < CORPUS_SIZE * 30, "mutation filter rejects too much"
        solution = gen.workbook(f"case-{attempts}")
        mutation = mutate_one_formula(rng, solution)
        if mutation is None:
            continue
        submission, mutated_cell, mutated_ast = mutation

        solution_grid = evaluate(solution)
        submission_grid = evaluate(submission)
        # filter 1: the mutation must change the mutated cell's own value
        if values_equal(
            submission_grid.get(mutated_cell, BLANK), solution_grid.get(mutated_cell, BLANK)
        ):
            continue
        # filter 2: it must still differ when every referenced cell already
        # holds the solution value (otherwise the error cancels out)
        if values_equal(evaluate_ast(mutated_ast, solution_grid), solution_grid[mutated_cell]):
            continue

        result = match_values(analyze(solution), analyze(submission))
        assert result == matching_oracle.match_values(solution, submission)
        graph_nodes = set(graph_oracle.build_graph(analyze(solution)).nodes)
        oracle = {
            node
            for node in graph_nodes
            if not values_equal(
                solution_grid.get(node, BLANK), submission_grid.get(node, BLANK)
            )
        }
        assert set(result.formula_errors) == {mutated_cell}, f"workbook {solution.name}"
        assert set(result.value_errors) == oracle, f"workbook {solution.name}"
        checked += 1
    assert checked >= CORPUS_SIZE
    print(f"criterion 4 (error injection, {checked} workbooks, 0 violations): PASS")


# ---------------------------------------------------------------------------
# Criterion 5: matching a workbook against itself is always clean
# ---------------------------------------------------------------------------


def test_c05_idempotence_property():
    rng = random.Random(20240902)
    gen = WorkbookGen(rng, GenConfig(max_rows=8, max_cols=8, max_depth=3))
    for index in range(CORPUS_SIZE):
        workbook = gen.workbook(f"self-{index}")
        result = match_values(analyze(workbook), analyze(workbook))
        assert result.value_errors == (), f"workbook {index}"
        assert result.formula_errors == (), f"workbook {index}"
        bundle = TaskBundle(task=f"self-{index}", reference=workbook)
        report = generate_feedback(bundle, workbook, level=1)
        assert report.status is Status.PASS, f"workbook {index}"
    print(f"criterion 5 (self-match idempotence, {CORPUS_SIZE} workbooks): PASS")


# ---------------------------------------------------------------------------
# Criterion 6: canonical forms evaluate to the original values
# ---------------------------------------------------------------------------


def test_c06_canonicalization_soundness():
    rng = random.Random(20240903)
    gen = WorkbookGen(rng, GenConfig(max_rows=8, max_cols=8, max_depth=3, positive_only=True))
    formulas_checked = 0
    for index in range(CORPUS_SIZE):
        workbook = gen.workbook(f"canon-{index}")
        grid = evaluate(workbook)
        for address, formula in workbook.formula_items():
            ast = parse_formula(formula.source, address.sheet)
            canonical = canonicalize(ast)
            assert canonicalize(canonical) == canonical, f"workbook {index} {address}"
            value = evaluate_ast(canonical, grid)
            assert values_equal(grid[address], value), (
                f"workbook {index} {address}: {grid[address]} vs {value}"
            )
            formulas_checked += 1
    assert formulas_checked > CORPUS_SIZE  # several formulas per workbook
    print(
        f"criterion 6 (canonicalization soundness, {formulas_checked} formulas, 0 violations): PASS"
    )


# ---------------------------------------------------------------------------
# Criterion 7: evaluator semantics table
# ---------------------------------------------------------------------------


def test_c07_evaluator_oracle_table():
    assert len(ORACLE_CASES) >= 50
    for name, cells, target, expected in ORACLE_CASES:
        grid = evaluate(make_workbook(cells))
        assert grid[addr(target)] == expected, name
    avg = evaluate(make_workbook({"A1": "=AVG(92,56,95)"}))[addr("A1")]
    assert avg == Number(81.0)
    print(f"criterion 7 (evaluator oracle, {len(ORACLE_CASES)} cases): PASS")


# ---------------------------------------------------------------------------
# Criterion 8: syntax errors gate all feedback
# ---------------------------------------------------------------------------


def test_c08_syntax_gate(tmp_path, capsys):
    fixture = load_fixture("grades")
    broken = make_workbook({"A1": "=SUMM(A2)", "A2": 1, "A3": "=1+"})
    report = generate_feedback(fixture.bundle, broken, level=3)
    assert report.status is Status.SYNTAX_ERROR
    assert report.diagnoses == ()
    assert len(report.syntax.errors) == 2

    task = tmp_path / "task.json"
    task.write_text(json.dumps({"task": "t", "reference": json.loads(write_workbook(fixture.solution))}))
    bad = tmp_path / "bad.json"
    bad.write_text(write_workbook(broken))
    code = main(["check", str(task), str(bad)])
    capsys.readouterr()
    assert code == 2
    print("criterion 8 (syntax gate): PASS")


# ---------------------------------------------------------------------------
# Criterion 9: interface stability
# ---------------------------------------------------------------------------

REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["task", "level", "status", "messages", "diagnoses", "quality", "metrics", "syntax"],
    "properties": {
        "task": {"type": "string"},
        "level": {"type": "integer", "minimum": 1, "maximum": 7},
        "status": {"enum": ["pass", "fail", "syntax_error"]},
        "messages": {"type": "array", "items": {"type": "string"}},
        "diagnoses": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["cell", "kind", "detail"],
                "properties": {
                    "cell": {"type": "string"},
                    "kind": {"enum": ["value_error", "formula_error"]},
                    "detail": {
                        "oneOf": [
                            {"type": "null"},
                            {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["category", "expected", "found", "extras", "spelling"],
                                "properties": {
                                    "category": {
                                        "enum": [
                                            "operator",
                                            "function",
                                            "reference",
                                            "constant",
                                            "unclassified",
                                        ]
                                    },
                                    "expected": {"type": "array", "items": {"type": "string"}},
                                    "found": {"type": "array", "items": {"type": "string"}},
                                    "extras": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "additionalProperties": False,
                                            "required": ["kind", "name", "message"],
                                            "properties": {
                                                "kind": {"type": "string"},
                                                "name": {"type": "string"},
                                                "message": {"type": "string"},
                                            },
                                        },
                                    },
                                    "spelling": {
                                        "oneOf": [
                                            {"type": "null"},
                                            {
                                                "type": "object",
                                                "additionalProperties": False,
                                                "required": ["found", "expected"],
                                                "properties": {
                                                    "found": {"type": "string"},
                                                    "expected": {"type": "string"},
                                                },
                                            },
                                        ]
                                    },
                                },
                            },
                        ]
                    },
                },
            },
        },
        "quality": {
            "type": "array",
            "items": {
                "oneOf": [
                    {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["kind", "metric", "submission", "reference"],
                        "properties": {
                            "kind": {"const": "metric_exceeded"},
                            "metric": {"type": "string"},
                            "submission": {"type": "number"},
                            "reference": {"type": "number"},
                        },
                    },
                    {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["kind", "function", "cells"],
                        "properties": {
                            "kind": {"const": "idiom_suggestion"},
                            "function": {"type": "string"},
                            "cells": {"type": "array", "items": {"type": "string"}},
                        },
                    },
                    {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["kind", "cells"],
                        "properties": {
                            "kind": {"const": "duplicate_calculation"},
                            "cells": {"type": "array", "items": {"type": "string"}},
                        },
                    },
                ]
            },
        },
        "metrics": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["submission", "reference"],
                    "properties": {
                        "submission": {"$ref": "#/$defs/metricSet"},
                        "reference": {"$ref": "#/$defs/metricSet"},
                    },
                },
            ]
        },
        "syntax": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["cell", "message", "position"],
                "properties": {
                    "cell": {"type": "string"},
                    "message": {"type": "string"},
                    "position": {"type": "integer"},
                },
            },
        },
    },
    "$defs": {
        "metricSet": {
            "type": "object",
            "additionalProperties": False,
            "required": [
                "sheet_count",
                "error_value_count",
                "value_cell_count",
                "formula_cell_count",
                "input_count",
                "output_count",
                "max_fan_in",
                "max_fan_out",
                "operator_total",
                "operand_total",
                "max_nesting_depth",
                "longest_chain",
            ],
            "properties": {
                "sheet_count": {"type": "integer"},
                "error_value_count": {"type": "integer"},
                "value_cell_count": {"type": "integer"},
                "formula_cell_count": {"type": "integer"},
                "input_count": {"type": "integer"},
                "output_count": {"type": "integer"},
                "max_fan_in": {"$ref": "#/$defs/fan"},
                "max_fan_out": {"$ref": "#/$defs/fan"},
                "operator_total": {"type": "integer"},
                "operand_total": {"type": "integer"},
                "max_nesting_depth": {"type": "integer"},
                "longest_chain": {"type": "integer"},
            },
        },
        "fan": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["cell", "count"],
                    "properties": {"cell": {"type": "string"}, "count": {"type": "integer"}},
                },
            ]
        },
    },
}


def test_c09_interface_stability(tmp_path, capsys):
    fixture = load_fixture("grades")

    # workbook files round-trip
    for workbook in (fixture.solution, fixture.submission):
        assert read_workbook(write_workbook(workbook)) == workbook

    # bundle files round-trip
    from sheetcheck import dump_bundle, load_bundle

    dumped = dump_bundle(fixture.bundle)
    reloaded = load_bundle(json.loads(dumped))
    assert dump_bundle(reloaded) == dumped

    # JSON reports validate against the schema for pass, fail and syntax-error paths
    reports = [
        generate_feedback(fixture.bundle, fixture.submission, 6),
        generate_feedback(fixture.bundle, fixture.submission, 7, force_quality=True),
        generate_feedback(fixture.bundle, fixture.solution, 1),
        generate_feedback(fixture.bundle, make_workbook({"A1": "=1+"}), 2),
    ]
    for report in reports:
        jsonschema.validate(json.loads(render_json(report)), REPORT_SCHEMA)

    # CLI output is byte-identical across runs and validates too
    task = tmp_path / "task.json"
    solution_path = tmp_path / "solution.json"
    submission_path = tmp_path / "submission.json"
    solution_path.write_text(write_workbook(fixture.solution))
    submission_path.write_text(write_workbook(fixture.submission))
    task.write_text(json.dumps({"task": "grades", "reference": "solution.json"}))

    outputs = []
    for _ in range(2):
        code = main(["check", str(task), str(submission_path), "--level", "6", "--format", "json"])
        assert code == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    jsonschema.validate(json.loads(outputs[0]), REPORT_SCHEMA)
    print("criterion 9 (interface stability): PASS")
