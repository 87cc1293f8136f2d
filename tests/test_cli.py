import json

import pytest

from sheetcheck import cli, write_workbook
from sheetcheck.cli import main
from sheetcheck.fixtures import load_fixture


@pytest.fixture()
def workspace(tmp_path):
    fixture = load_fixture("grades")
    task = tmp_path / "task.json"
    solution = tmp_path / "solution.json"
    submission = tmp_path / "submission.json"
    solution.write_text(write_workbook(fixture.solution), encoding="utf-8")
    submission.write_text(write_workbook(fixture.submission), encoding="utf-8")
    task.write_text(
        json.dumps(
            {
                "task": "grades",
                "reference": "solution.json",
                "annotations": [
                    {
                        "range": "B3:D6",
                        "text": "You should recall the info in the 'Calculating the average' tutorial.",
                    }
                ],
                "materials": [
                    {"title": "Calculating the average", "keywords": ["avg", "average", "mean"]}
                ],
            }
        ),
        encoding="utf-8",
    )
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_level3_fails_with_message(workspace, capsys):
    code, out, _ = run(capsys, "check", workspace / "task.json", workspace / "submission.json", "--level", "3")
    assert code == 1
    assert "The formulas of cells D3, C6 are incorrect." in out


def test_check_pass_exit_zero(workspace, capsys):
    code, out, _ = run(capsys, "check", workspace / "task.json", workspace / "solution.json", "--level", "1")
    assert code == 0
    assert "PASS" in out


def test_check_missing_file_exit_three(workspace, capsys):
    code, _, err = run(capsys, "check", workspace / "task.json", workspace / "missing.wb")
    assert code == 3
    assert "error" in err.lower()


def test_check_syntax_error_exit_two(workspace, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "b", "sheets": [{"name": "Sheet1", "cells": {"A1": "=1+"}}]}')
    code, out, _ = run(capsys, "check", workspace / "task.json", bad)
    assert code == 2
    assert "SYNTAX ERROR" in out


_OVER_LIMIT = '{"name": "b", "sheets": [{"name": "Sheet1", "cells": {"B6": "=SUM(A1:A20000)"}}]}'


def test_check_range_over_the_limit_is_a_syntax_error(workspace, capsys, tmp_path):
    wide = tmp_path / "wide.json"
    wide.write_text(_OVER_LIMIT)
    code, out, err = run(capsys, "check", workspace / "task.json", wide, "--format", "json")
    assert (code, err) == (2, "")
    doc = json.loads(out)
    assert doc["status"] == "syntax_error"
    assert doc["syntax"] == [
        {"cell": "B6", "message": "range A1:A20000 covers 20000 cells, limit is 10000", "position": 5}
    ]


def test_batch_range_over_the_limit_is_a_syntax_error_row(workspace, capsys, tmp_path):
    subs = tmp_path / "subs"
    subs.mkdir()
    (subs / "wide.wb").write_text(_OVER_LIMIT)
    (subs / "zsolution.wb").write_text((workspace / "solution.json").read_text())
    code, out, _ = run(capsys, "batch", workspace / "task.json", subs)
    assert code == 0
    assert out.strip().splitlines()[1:] == ["wide.wb,syntax_error,0,0", "zsolution.wb,pass,0,0"]


def test_check_json_output_parses(workspace, capsys):
    code, out, _ = run(
        capsys, "check", workspace / "task.json", workspace / "submission.json",
        "--level", "6", "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["diagnoses"][0]["cell"] == "D3"


def test_check_repeated_runs_identical(workspace, capsys):
    _, first, _ = run(
        capsys, "check", workspace / "task.json", workspace / "submission.json",
        "--level", "7", "--force-quality", "--format", "json",
    )
    _, second, _ = run(
        capsys, "check", workspace / "task.json", workspace / "submission.json",
        "--level", "7", "--force-quality", "--format", "json",
    )
    assert first == second


def test_check_tolerance_override(workspace, capsys):
    # huge tolerances make every numeric comparison succeed
    code, out, _ = run(
        capsys, "check", workspace / "task.json", workspace / "submission.json",
        "--abs-tol", "1000", "--rel-tol", "1000",
    )
    assert code == 0


def test_usage_error_exit_three(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check"])  # missing required arguments
    assert excinfo.value.code == 3


def test_unknown_level_exit_three(workspace, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", str(workspace / "task.json"), str(workspace / "submission.json"), "--level", "9"])
    assert excinfo.value.code == 3


def test_batch_summary_and_reports(workspace, capsys, tmp_path):
    subs = tmp_path / "subs"
    subs.mkdir()
    (subs / "table1.wb").write_text((workspace / "submission.json").read_text())
    (subs / "table2.wb").write_text((workspace / "solution.json").read_text())
    out_path = tmp_path / "reports.jsonl"
    code, out, _ = run(
        capsys, "batch", workspace / "task.json", subs, "--level", "3", "--out", out_path
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "file,status,value_errors,formula_errors"
    assert lines[1] == "table1.wb,fail,3,2"
    assert lines[2] == "table2.wb,pass,0,0"
    reports = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [r["file"] for r in reports] == ["table1.wb", "table2.wb"]
    assert reports[0]["report"]["status"] == "fail"


def test_batch_empty_directory(workspace, capsys, tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code, out, _ = run(capsys, "batch", workspace / "task.json", empty)
    assert code == 0
    assert out.strip() == "file,status,value_errors,formula_errors"


def test_batch_corrupt_file_isolated(workspace, capsys, tmp_path):
    subs = tmp_path / "subs"
    subs.mkdir()
    (subs / "a_corrupt.wb").write_text("{nonsense")
    (subs / "b_good.wb").write_text((workspace / "solution.json").read_text())
    code, out, _ = run(capsys, "batch", workspace / "task.json", subs)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("a_corrupt.wb,error")
    assert lines[2] == "b_good.wb,pass,0,0"


def test_batch_internal_error_becomes_error_row(workspace, capsys, tmp_path, monkeypatch):
    real = cli.generate_feedback

    def fails_on_boom(bundle, submission, *args):
        if submission.name == "boom":
            raise RuntimeError("engine fault")
        return real(bundle, submission, *args)

    monkeypatch.setattr(cli, "generate_feedback", fails_on_boom)
    subs = tmp_path / "subs"
    subs.mkdir()
    boom = json.loads((workspace / "submission.json").read_text())
    boom["name"] = "boom"
    (subs / "a_boom.wb").write_text(json.dumps(boom))
    (subs / "b_good.wb").write_text((workspace / "solution.json").read_text())
    out_file = tmp_path / "out.jsonl"
    code, out, _ = run(capsys, "batch", workspace / "task.json", subs, "--out", out_file)
    assert code == 0
    assert out.strip().splitlines()[1:] == ["a_boom.wb,error,,", "b_good.wb,pass,0,0"]
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert records[0] == {"file": "a_boom.wb", "error": "engine fault"}
    assert records[1]["report"]["status"] == "pass"


def test_internal_error_exits_three_with_one_line(workspace, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(cli, "generate_feedback", broken)
    code, out, err = run(capsys, "check", workspace / "task.json", workspace / "submission.json")
    assert code == 3
    assert out == ""
    assert err == "error: internal error: RuntimeError: engine fault\n"


def test_integer_too_large_for_a_float_is_a_format_error(workspace, capsys):
    submission = workspace / "huge.json"
    submission.write_text('{"name": "s", "sheets": [{"name": "Sheet1", "cells": {"B3": ' + "9" * 400 + "}}]}")
    code, out, err = run(capsys, "check", workspace / "task.json", submission)
    assert code == 3
    assert out == ""
    assert "internal error" not in err and "Sheet1!B3" in err


@pytest.mark.parametrize("command", ["check", "validate"])
def test_deeply_nested_json_is_a_format_error(workspace, capsys, command):
    deep = workspace / "deep.json"
    deep.write_text("[" * 100_000)
    args = ("check", workspace / "task.json", deep) if command == "check" else ("validate", deep)
    code, out, err = run(capsys, *args)
    assert code == 3
    assert out == ""
    assert err.startswith("error: invalid workbook JSON: ") and "internal error" not in err


def test_batch_deeply_nested_file_is_a_format_error_row(workspace, capsys, tmp_path):
    subs = tmp_path / "subs"
    subs.mkdir()
    (subs / "a_deep.wb").write_text("[" * 100_000)
    (subs / "b_good.wb").write_text((workspace / "solution.json").read_text())
    out_file = tmp_path / "out.jsonl"
    code, out, _ = run(capsys, "batch", workspace / "task.json", subs, "--out", out_file)
    assert code == 0
    assert out.strip().splitlines()[1:] == ["a_deep.wb,error,,", "b_good.wb,pass,0,0"]
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert records[0]["error"].startswith("invalid workbook JSON: ")
    assert records[1]["report"]["status"] == "pass"


def test_validate_clean(workspace, capsys):
    code, out, _ = run(capsys, "validate", workspace / "solution.json")
    assert code == 0
    assert "no syntax errors" in out


def test_validate_reports_errors(workspace, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "b", "sheets": [{"name": "Sheet1", "cells": {"A1": "=1+"}}]}')
    code, out, _ = run(capsys, "validate", bad)
    assert code == 2
    assert "A1" in out


def test_metrics_json(workspace, capsys):
    code, out, _ = run(capsys, "metrics", workspace / "solution.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["formula_cell_count"] == 6
    assert doc["longest_chain"] == 2


def test_graph_dot(workspace, capsys):
    code, out, _ = run(capsys, "graph", workspace / "solution.json")
    assert code == 0
    assert out.startswith("digraph")
    assert '"D6" -> "D3";' in out


@pytest.mark.parametrize("command", ["metrics", "graph"])
def test_metrics_and_graph_parse_each_formula_once(workspace, capsys, parses, command):
    code, _, _ = run(capsys, command, workspace / "solution.json")
    assert code == 0
    assert sum(parses.values()) == 6  # one per formula cell


def test_malformed_bundle_section_is_a_config_error(capsys, tmp_path):
    task = tmp_path / "task.json"
    task.write_text('{"task": "t", "reference": {"name": "r", "sheets": []}, "tolerance": [1]}')
    sub = tmp_path / "sub.json"
    sub.write_text('{"name": "s", "sheets": []}')
    code, _, err = run(capsys, "check", task, sub)
    assert code == 3
    assert "internal error" not in err and "'tolerance'" in err


def test_bad_bundle_exits_three(capsys, tmp_path):
    task = tmp_path / "task.json"
    task.write_text('{"task": "t", "reference": {"name": "r", "sheets": []}, "annotations": [{"range": "??", "text": "x"}]}')
    sub = tmp_path / "sub.json"
    sub.write_text('{"name": "s", "sheets": []}')
    code, _, err = run(capsys, "check", task, sub)
    assert code == 3
    assert "error" in err


def test_module_entry_point(workspace):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "sheetcheck", "check", str(workspace / "task.json"),
         str(workspace / "solution.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout
