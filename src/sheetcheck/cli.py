"""Command-line front end.

Subcommands: check (grade one submission), batch (grade a directory),
validate (syntax check only), metrics (quality metrics as JSON) and graph
(dependency graph as DOT).  Exit codes: 0 pass, 1 fail, 2 syntax error in
the submission, 3 usage, configuration, I/O or internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .evaluate import Tolerance
from .feedback import (
    FeedbackReport,
    Status,
    TaskBundle,
    WorkbookAnalysis,
    analyze,
    generate_feedback,
    load_bundle,
    metrics_doc,
    render_json,
    render_text,
    report_to_doc,
)
from .formulas import parse_workbook, syntax_check
from .graph import export_dot
from .grid import Workbook, dump_json, read_workbook

_STATUS_CODES = {Status.PASS: 0, Status.FAIL: 1, Status.SYNTAX_ERROR: 2}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _read_workbook_file(path: str) -> Workbook:
    return read_workbook(Path(path).read_text(encoding="utf-8"))


def _bundle_for(args: argparse.Namespace) -> TaskBundle:
    bundle = load_bundle(args.task)
    abs_tol = getattr(args, "abs_tol", None)
    rel_tol = getattr(args, "rel_tol", None)
    if abs_tol is not None or rel_tol is not None:
        bundle.tolerance = Tolerance(
            abs=bundle.tolerance.abs if abs_tol is None else abs_tol,
            rel=bundle.tolerance.rel if rel_tol is None else rel_tol,
        )
    return bundle


def _print_report(report: FeedbackReport, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(render_text(report))


def cmd_check(args: argparse.Namespace) -> int:
    bundle = _bundle_for(args)
    submission = _read_workbook_file(args.submission)
    report = generate_feedback(bundle, submission, args.level, args.force_quality)
    _print_report(report, args.format)
    return _STATUS_CODES[report.status]


def cmd_batch(args: argparse.Namespace) -> int:
    bundle = _bundle_for(args)
    directory = Path(args.submissions)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 3

    out_lines: list[str] = []
    summary = io.StringIO()
    writer = csv.writer(summary, lineterminator="\n")
    writer.writerow(["file", "status", "value_errors", "formula_errors"])
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        try:
            submission = read_workbook(path.read_text(encoding="utf-8"))
            report = generate_feedback(bundle, submission, args.level, args.force_quality)
        except Exception as exc:  # one bad file must not stop the batch
            writer.writerow([path.name, "error", "", ""])
            out_lines.append(json.dumps({"file": path.name, "error": str(exc)}, ensure_ascii=False))
            continue
        value_errors = sum(1 for d in report.diagnoses if d.kind.value == "value_error")
        formula_errors = sum(1 for d in report.diagnoses if d.kind.value == "formula_error")
        writer.writerow([path.name, report.status.value, value_errors, formula_errors])
        out_lines.append(
            json.dumps({"file": path.name, "report": report_to_doc(report)}, ensure_ascii=False)
        )

    if args.out:
        Path(args.out).write_text("\n".join(out_lines) + ("\n" if out_lines else ""), encoding="utf-8")
    sys.stdout.write(summary.getvalue())
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    workbook = _read_workbook_file(args.workbook)
    report = syntax_check(workbook)
    for issue in report.errors:
        print(f"{issue.cell.text(qualified=True)}: {issue.message} (position {issue.position})")
    if report.ok:
        print("no syntax errors")
        return 0
    return 2


def _checked_analysis(args: argparse.Namespace) -> WorkbookAnalysis | None:
    workbook = _read_workbook_file(args.workbook)
    formulas, report = parse_workbook(workbook)
    if not report.ok:
        for issue in report.errors:
            print(f"{issue.cell.text(qualified=True)}: {issue.message}", file=sys.stderr)
        return None
    return analyze(workbook, formulas)


def cmd_metrics(args: argparse.Namespace) -> int:
    analysis = _checked_analysis(args)
    if analysis is None:
        return 2
    qualify = len(analysis.workbook.sheets) > 1
    sys.stdout.write(dump_json(metrics_doc(analysis.metrics, qualify), ensure_ascii=True) + "\n")
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    analysis = _checked_analysis(args)
    if analysis is None:
        return 2
    sys.stdout.write(export_dot(analysis))
    return 0


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--abs-tol", type=float, default=None, help="absolute comparison tolerance")
    parser.add_argument("--rel-tol", type=float, default=None, help="relative comparison tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="sheetcheck", description="Check spreadsheet submissions against a reference solution.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="grade one submission")
    check.add_argument("task", help="task bundle file")
    check.add_argument("submission", help="submission workbook file")
    check.add_argument("--level", type=int, choices=range(1, 8), default=1, help="feedback level")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--force-quality", action="store_true", help="emit quality feedback even on a failing submission")
    _add_tolerance_flags(check)
    check.set_defaults(func=cmd_check)

    batch = sub.add_parser("batch", help="grade every workbook in a directory")
    batch.add_argument("task", help="task bundle file")
    batch.add_argument("submissions", help="directory of submission workbooks")
    batch.add_argument("--level", type=int, choices=range(1, 8), default=1)
    batch.add_argument("--force-quality", action="store_true")
    batch.add_argument("--out", default=None, help="write one JSON report per line to this file")
    _add_tolerance_flags(batch)
    batch.set_defaults(func=cmd_batch)

    validate = sub.add_parser("validate", help="syntax-check a workbook")
    validate.add_argument("workbook")
    validate.set_defaults(func=cmd_validate)

    metrics = sub.add_parser("metrics", help="print quality metrics as JSON")
    metrics.add_argument("workbook")
    metrics.set_defaults(func=cmd_metrics)

    graph = sub.add_parser("graph", help="print the dependency graph as DOT")
    graph.add_argument("workbook")
    graph.set_defaults(func=cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # I/O, format, configuration and capacity errors
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the engine must not read as "fail"
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
