"""Feedback generation: task bundles, level-specific messages, report model.

A report is generated at exactly one of seven levels.  Level 1 states
correctness, level 2 locates wrong values, level 3 locates the original
error sites, level 4 adds annotation and learning-material pointers,
level 5 names the kind of mistake per cell, level 6 gives concrete repair
hints and level 7 comments on solution quality.  Whatever level is
requested, the report always carries the complete machine-readable
diagnosis; only the message list is level-specific.  A submission that
fails the syntax check yields an error report instead of feedback.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .diffing import ErrorCategory, ErrorDetail, diff_formula
from .evaluate import DEFAULT_TOLERANCE, Tolerance, checked_formulas, evaluate
from .formulas import FormulaAst, SyntaxReport, parse_workbook

# Not called here since reports run the single parse pass; the benchmark's
# tracer (perfbench/tracing.py) still wraps this name in this module.
from .formulas import syntax_check  # noqa: F401
from .graph import DependencyGraph, build_graph
from .grid import (
    AddressError,
    CellAddress,
    CellError,
    ErrorKind,
    Value,
    Workbook,
    WorkbookFormatError,
    dump_json,
    format_number,
    parse_address,
    read_workbook,
    row_major,
    workbook_from_doc,
    write_workbook,
)
from .matching import MatchResult, match_values
from .quality import (
    COMPARED_METRICS,
    DuplicateCalculation,
    FormulaFacts,
    IdiomSuggestion,
    QualityConfig,
    QualityFinding,
    QualityMetrics,
    compare_metrics,
    compute_metrics,
    duplicate_calculations,
    idiom_suggestions,
)


class TaskConfigError(ValueError):
    """The task bundle is unusable; distinct from student-facing statuses."""


# --------------------------------------------------------------------------
# Workbook analysis
# --------------------------------------------------------------------------


class WorkbookAnalysis:
    """A syntax-checked workbook with its parsed formulas, grid, graph and quality metrics.

    `formulas` maps each formula cell to its parsed AST as `parse_workbook`
    returns them: sheets in workbook order, row-major within each sheet.
    `grid` is the workbook's evaluation (see `evaluate.evaluate`).  The
    rest is computed on first use.  `facts` maps each formula cell, in the
    order of `formulas`, to its `FormulaFacts`: its canonical form and
    what the graph, the metrics, the duplicate check and the idiom check
    read off it.  `walk` holds the matcher's walk of the workbook as a
    reference for the graded cells it was last asked for, or None, as a
    `(graded, walk)` pair.

    A submission analysed against the `reference` analysis of its task
    takes the reference's facts for each formula that is the reference's
    own AST at the same cell, as `parse_workbook` hands out for a formula
    whose text the reference has.  The reference of a task bundle is
    analysed once per bundle, a submission once per report.
    """

    def __init__(
        self,
        workbook: Workbook,
        formulas: Mapping[CellAddress, FormulaAst],
        grid: dict[CellAddress, Value],
        reference: WorkbookAnalysis | None = None,
    ):
        self.workbook = workbook
        self.formulas = formulas
        self.grid = grid
        self.reference = reference
        self.walk: tuple[frozenset[CellAddress] | None, tuple[CellAddress, ...]] | None = None

    @cached_property
    def facts(self) -> dict[CellAddress, FormulaFacts]:
        reference = self.reference
        known = reference.formulas if reference is not None else {}
        return {
            address: reference.facts[address] if known.get(address) is ast else FormulaFacts(ast)
            for address, ast in self.formulas.items()
        }

    @cached_property
    def graph(self) -> DependencyGraph:
        return build_graph(self)

    @cached_property
    def metrics(self) -> QualityMetrics:
        return compute_metrics(self)


def analyze(
    workbook: Workbook,
    formulas: Mapping[CellAddress, FormulaAst] | None = None,
    reference: WorkbookAnalysis | None = None,
) -> WorkbookAnalysis:
    """Evaluate a workbook that has passed the syntax check.

    `formulas` are its parsed formula cells as `parse_workbook` returns
    them; without them the workbook is parsed here.  A submission's
    `reference` is its task's reference analysis, whose per-formula facts
    it shares (see `WorkbookAnalysis`); the report is the same without it.
    """
    if formulas is None:
        formulas = checked_formulas(workbook)
    return WorkbookAnalysis(workbook, formulas, evaluate(workbook, formulas), reference)


# --------------------------------------------------------------------------
# Task bundle
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Annotation:
    start: CellAddress
    end: CellAddress
    text: str
    link: str | None = None

    def contains(self, address: CellAddress) -> bool:
        return (
            address.sheet == self.start.sheet
            and self.start.col <= address.col <= self.end.col
            and self.start.row <= address.row <= self.end.row
        )


@dataclass(frozen=True)
class MaterialEntry:
    title: str
    keywords: tuple[str, ...]
    ref: str | None = None


@dataclass
class TaskBundle:
    """Everything needed to grade submissions for one task."""

    task: str
    reference: Workbook
    tolerance: Tolerance = DEFAULT_TOLERANCE
    graded: frozenset[CellAddress] | None = None
    annotations: tuple[Annotation, ...] = ()
    materials: tuple[MaterialEntry, ...] = ()
    quality: QualityConfig = field(default_factory=QualityConfig)

    def validate(self) -> "TaskBundle":
        for value in self.reference_analysis.grid.values():
            if isinstance(value, CellError) and value.kind is ErrorKind.CYCLE:
                raise TaskConfigError("reference workbook contains a reference cycle")
        return self

    @cached_property
    def reference_analysis(self) -> WorkbookAnalysis:
        formulas, report = parse_workbook(self.reference)
        if not report.ok:
            first = report.errors[0]
            raise TaskConfigError(
                f"reference workbook has syntax errors, first in "
                f"{first.cell.text(qualified=True)}: {first.message}"
            )
        return analyze(self.reference, formulas)

    @cached_property
    def parsed_sources(self) -> dict[tuple[str, str], FormulaAst]:
        """Each reference formula's (source, sheet) text mapped to its AST.

        A submission formula with the same text takes this AST instead of
        being parsed.  The map is keyed by text: comparing or hashing ASTs
        recurses once per nesting level.
        """
        formulas = self.reference_analysis.formulas
        return {
            (formula.source, address.sheet): formulas[address] for address, formula in self.reference.formula_items()
        }


def _normalize_keywords(raw: Iterable[str]) -> tuple[str, ...]:
    keywords = []
    for word in raw:
        for token in re.findall(r"[a-z0-9]+", word.lower()):
            if token not in keywords:
                keywords.append(token)
    return tuple(keywords)


def _parse_range(text: str, sheet: str) -> tuple[CellAddress, CellAddress]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            address = parse_address(parts[0], sheet)
            return address, address
        if len(parts) != 2:
            raise TaskConfigError(f"bad annotation range {text!r}")
        first = parse_address(parts[0], sheet)
        second = parse_address(parts[1], first.sheet)
    except AddressError as exc:
        raise TaskConfigError(f"bad annotation range {text!r}: {exc}") from exc
    if first.sheet != second.sheet:
        raise TaskConfigError(f"annotation range {text!r} spans sheets")
    start = CellAddress(first.sheet, min(first.col, second.col), min(first.row, second.row))
    end = CellAddress(first.sheet, max(first.col, second.col), max(first.row, second.row))
    return start, end


def _read(
    value: Any, path: str, kind: Any, optional: bool = False, least: int = 0, keys: Iterable[str] = (),
    items: type | None = None,
) -> Any:
    """`value` checked as the task bundle field named `path`; a TaskConfigError names what is wrong.

    `kind` is str, dict, list, int, float for any JSON number, or (str, dict)
    for either.  A null `optional` field reads as absent: None.  A number is
    not a boolean, is finite and then at least `least`; an object holds only
    `keys`, a list only values of type `items`.
    """
    if value is None and optional:
        return None
    if kind is int or kind is float:
        if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
            raise TaskConfigError(f"task bundle field {path!r} must be {'an integer' if kind is int else 'a number'}")
        if not abs(value) <= sys.float_info.max:  # NaN, the infinities and integers past any float
            raise TaskConfigError(f"task bundle field {path!r} must be a finite number")
        if value < least:
            raise TaskConfigError(f"task bundle field {path!r} is out of range, must be at least {least}")
        return kind(value)
    if not isinstance(value, kind):
        expected = {str: "text", dict: "an object", list: "a list", (str, dict): "text or an object"}[kind]
        raise TaskConfigError(f"task bundle field {path!r} must be {expected}")
    if items is not None and not all(isinstance(item, items) for item in value):
        raise TaskConfigError(f"task bundle field {path!r} must list {'text' if items is str else 'objects'}")
    unknown = sorted(map(str, set(value).difference(keys))) if kind is dict else ()
    if unknown:
        raise TaskConfigError(f"unknown task bundle field {(path and path + '.') + unknown[0]!r}")
    return value


def load_bundle(source: str | Path | Mapping[str, Any], base_dir: str | Path | None = None) -> TaskBundle:
    """Load and validate a task bundle from a file path or a parsed document.

    A string "reference" is a workbook file path, resolved against the
    bundle file's directory (or `base_dir`); an object is an inline
    workbook.  All sections except "task" and "reference" are optional.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        base = path.parent if base_dir is None else Path(base_dir)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, RecursionError) as exc:  # a RecursionError on deep nesting
            raise TaskConfigError(f"invalid task bundle JSON in {path}: {exc}") from exc
    else:
        doc = dict(source)
        base = Path(base_dir) if base_dir is not None else Path(".")

    if not isinstance(doc, dict):
        raise TaskConfigError("task bundle must be an object")
    _read(doc, "", dict, keys=("task", "reference", "tolerance", "graded_cells", "annotations", "materials", "quality"))
    if "task" not in doc or "reference" not in doc:
        raise TaskConfigError("task bundle needs 'task' and 'reference' fields")
    task = _read(doc["task"], "task", str)

    reference_doc = _read(doc["reference"], "reference", (str, dict))
    try:
        if isinstance(reference_doc, str):
            reference = read_workbook((base / reference_doc).read_text(encoding="utf-8"))
        else:
            reference = workbook_from_doc(reference_doc)
    except WorkbookFormatError as exc:  # the bundle's reference is part of its configuration
        raise TaskConfigError(str(exc)) from exc
    default_sheet = reference.sheets[0].name if reference.sheets else "Sheet1"

    tolerance_doc = _read(doc.get("tolerance"), "tolerance", dict, True, keys=("abs", "rel")) or {}
    tolerance = Tolerance(
        abs=_read(tolerance_doc.get("abs", DEFAULT_TOLERANCE.abs), "tolerance.abs", float),
        rel=_read(tolerance_doc.get("rel", DEFAULT_TOLERANCE.rel), "tolerance.rel", float),
    )

    graded_doc = _read(doc.get("graded_cells"), "graded_cells", list, True, items=str)
    try:
        graded = (
            frozenset(parse_address(text, default_sheet) for text in graded_doc)
            if graded_doc is not None
            else None
        )
    except AddressError as exc:
        raise TaskConfigError(f"bad graded cell address: {exc}") from exc

    annotations = []
    for entry in _read(doc.get("annotations"), "annotations", list, True, items=dict) or ():
        _read(entry, "annotations", dict, keys=("range", "text", "link"))
        start, end = _parse_range(_read(entry.get("range"), "annotations.range", str), default_sheet)
        text = _read(entry.get("text"), "annotations.text", str)
        annotations.append(Annotation(start, end, text, _read(entry.get("link"), "annotations.link", str, True)))

    materials = []
    for entry in _read(doc.get("materials"), "materials", list, True, items=dict) or ():
        _read(entry, "materials", dict, keys=("title", "keywords", "ref"))
        title = _read(entry.get("title"), "materials.title", str)
        keywords = _normalize_keywords(_read(entry.get("keywords"), "materials.keywords", list, True, items=str) or ())
        if not keywords:
            raise TaskConfigError(f"material {title!r} has no usable keywords")
        materials.append(MaterialEntry(title, keywords, _read(entry.get("ref"), "materials.ref", str, True)))

    quality_keys = ("factor", "offset", "min_idiom_operands", "overrides")
    quality_doc = _read(doc.get("quality"), "quality", dict, True, keys=quality_keys) or {}

    def thresholds(values: Mapping[str, Any], path: str, factor: float, offset: float) -> tuple[float, float]:
        """`values`' factor and offset, defaulting to the given ones; the bounds are the same at each level."""
        return (
            _read(values.get("factor", factor), path + ".factor", float, least=1),
            _read(values.get("offset", offset), path + ".offset", float),
        )

    factor, offset = thresholds(quality_doc, "quality", QualityConfig.factor, QualityConfig.offset)
    overrides_doc = _read(quality_doc.get("overrides"), "quality.overrides", dict, True, keys=COMPARED_METRICS) or {}
    overrides = {}
    for metric, values in overrides_doc.items():
        path = f"quality.overrides.{metric}"
        values = _read(values, path, dict, True, keys=("factor", "offset")) or {}
        overrides[metric] = thresholds(values, path, factor, offset)
    operands = quality_doc.get("min_idiom_operands", QualityConfig.min_idiom_operands)
    quality = QualityConfig(factor, offset, _read(operands, "quality.min_idiom_operands", int, least=2), overrides)

    bundle = TaskBundle(
        task=task,
        reference=reference,
        tolerance=tolerance,
        graded=graded,
        annotations=tuple(annotations),
        materials=tuple(materials),
        quality=quality,
    )
    return bundle.validate()


def dump_bundle(bundle: TaskBundle) -> str:
    """Serialize a bundle with an inline reference workbook."""
    doc: dict[str, Any] = {
        "task": bundle.task,
        "reference": json.loads(write_workbook(bundle.reference)),
        "tolerance": {"abs": bundle.tolerance.abs, "rel": bundle.tolerance.rel},
        "graded_cells": (
            [a.text(qualified=True) for a in row_major(bundle.graded)] if bundle.graded is not None else None
        ),
        "annotations": [
            {
                "range": f"{a.start.text()}:{a.end.text()}"
                if a.start != a.end
                else a.start.text(),
                "text": a.text,
                "link": a.link,
            }
            for a in bundle.annotations
        ],
        "materials": [
            {"title": m.title, "keywords": list(m.keywords), "ref": m.ref} for m in bundle.materials
        ],
        "quality": {
            "factor": bundle.quality.factor,
            "offset": bundle.quality.offset,
            "min_idiom_operands": bundle.quality.min_idiom_operands,
            "overrides": {
                metric: {"factor": factor, "offset": offset}
                for metric, (factor, offset) in sorted(bundle.quality.overrides.items())
            },
        },
    }
    return dump_json(doc) + "\n"


# --------------------------------------------------------------------------
# Report model
# --------------------------------------------------------------------------


class Status(Enum):
    PASS = "pass"
    FAIL = "fail"
    SYNTAX_ERROR = "syntax_error"


class DiagnosisKind(Enum):
    VALUE_ERROR = "value_error"
    FORMULA_ERROR = "formula_error"


@dataclass(frozen=True)
class Diagnosis:
    cell: CellAddress
    kind: DiagnosisKind
    detail: ErrorDetail | None = None


@dataclass(frozen=True)
class FeedbackReport:
    task: str
    level: int
    status: Status
    messages: tuple[str, ...]
    diagnoses: tuple[Diagnosis, ...]
    quality: tuple[QualityFinding, ...]
    metrics: tuple[QualityMetrics, QualityMetrics] | None
    syntax: SyntaxReport
    qualify_sheets: bool = False


# --------------------------------------------------------------------------
# Message catalog
# --------------------------------------------------------------------------

MSG_CORRECT = "The spreadsheet is correct."
MSG_INCORRECT = "The spreadsheet is incorrect."

_METRIC_LABELS = {
    "sheet_count": "number of sheets",
    "error_value_count": "number of error cells",
    "value_cell_count": "number of value cells",
    "formula_cell_count": "number of formula cells",
    "input_count": "number of input cells",
    "output_count": "number of output cells",
    "operator_total": "number of operators",
    "operand_total": "number of operands",
    "max_nesting_depth": "formula nesting depth",
    "longest_chain": "formula chain length",
}

_CATEGORY_SENTENCES = {
    ErrorCategory.OPERATOR: "An operator of cell {cell} is incorrect.",
    ErrorCategory.FUNCTION: "A function of cell {cell} is incorrect.",
    ErrorCategory.REFERENCE: "A reference of cell {cell} is incorrect.",
    ErrorCategory.CONSTANT: "A constant of cell {cell} is incorrect.",
    ErrorCategory.UNCLASSIFIED: "The formula of cell {cell} is incorrect.",
}


def _cells_text(addresses: Sequence[CellAddress], qualify: bool) -> str:
    return ", ".join(a.text(qualified=qualify) for a in addresses)


def _article(word: str) -> str:
    return "an" if word[:1].upper() in "AEIOU" else "a"


def _hint_messages(detail: ErrorDetail, cell_text: str) -> list[str]:
    messages = []
    if detail.formula_expected:
        messages.append(f"A formula is expected in cell {cell_text}.")
    for fragment in detail.expected:
        if fragment.kind == "reference":
            if fragment.flag_hint == "absolute":
                messages.append(f"The absolute reference {fragment.text} should be used in cell {cell_text}.")
            elif fragment.flag_hint == "relative":
                messages.append(f"The relative reference {fragment.text} should be used in cell {cell_text}.")
            elif fragment.is_range:
                messages.append(f"The references {fragment.text} should be used in cell {cell_text}.")
            else:
                messages.append(f"The reference {fragment.text} should be used in cell {cell_text}.")
        elif fragment.kind == "constant":
            messages.append(f"The constant '{fragment.text}' should be used in cell {cell_text}.")
        else:
            messages.append(f"The {fragment.kind} '{fragment.text}' should be used in cell {cell_text}.")
    for extra in detail.extras:
        messages.append(f"The {extra.kind} '{extra.name}' is {extra.message} in cell {cell_text}.")
    if detail.spelling:
        found, expected = detail.spelling
        messages.append(f"'{found}' in cell {cell_text} seems to be a misspelling of '{expected}'.")
    if detail.category is ErrorCategory.UNCLASSIFIED:
        messages.append(f"The formula of cell {cell_text} differs from the expected solution.")
    return messages


def quality_messages(findings: Sequence[QualityFinding], qualify: bool) -> list[str]:
    messages = []
    for finding in findings:
        if isinstance(finding, IdiomSuggestion):
            cells = _cells_text(finding.cells, qualify)
            word = "cells" if len(finding.cells) > 1 else "cell"
            article = _article(finding.function)
            messages.append(
                f"It is preferable to use {article} {finding.function}-formula in {word} {cells}."
            )
        elif isinstance(finding, DuplicateCalculation):
            messages.append(
                f"The same calculation is used in cells {_cells_text(finding.cells, qualify)}."
            )
        else:
            label = _METRIC_LABELS.get(finding.metric, finding.metric)
            messages.append(
                f"The {label} of your solution ({format_number(finding.submission)}) "
                f"exceeds the reference solution ({format_number(finding.reference)})."
            )
    return messages


# --------------------------------------------------------------------------
# Headers, annotations and learning material
# --------------------------------------------------------------------------


def header_context(reference: Workbook, cell: CellAddress) -> tuple[str | None, str | None]:
    """Nearest text constants strictly above and strictly left of a cell."""
    columns, rows = reference.text_lines
    above = _last_before(columns.get((cell.sheet, cell.col), ()), cell.row)
    return above, _last_before(rows.get((cell.sheet, cell.row), ()), cell.col)


def _last_before(line: Sequence[tuple[int, str]], position: int) -> str | None:
    """The text of the last (position, text) pair of a sorted line that lies before `position`."""
    index = bisect_left(line, (position,))
    return line[index - 1][1] if index else None


def lookup_annotations(
    bundle: TaskBundle,
    cells: Sequence[CellAddress],
    headers: Sequence[Sequence[str]],
) -> list[str]:
    """Annotation texts and material pointers for the given cells, deduplicated.

    `headers` supplies the header strings per cell; a material entry
    matches when one of its keywords equals a normalized header token.
    """
    messages: list[str] = []

    def add(message: str) -> None:
        if message not in messages:
            messages.append(message)

    for index, cell in enumerate(cells):
        for annotation in bundle.annotations:
            if annotation.contains(cell):
                if annotation.link:
                    add(f"{annotation.text} ({annotation.link})")
                else:
                    add(annotation.text)
        tokens = _normalize_keywords(headers[index] if index < len(headers) else ())
        for material in bundle.materials:
            if set(material.keywords) & set(tokens):
                add(f"You should recall the info in the '{material.title}' tutorial.")
    return messages


# --------------------------------------------------------------------------
# Report generation
# --------------------------------------------------------------------------


def generate_feedback(
    bundle: TaskBundle,
    submission: Workbook,
    level: int = 1,
    force_quality: bool = False,
) -> FeedbackReport:
    """Grade one submission and build the report for the requested level."""
    if not 1 <= level <= 7:
        raise TaskConfigError(f"feedback level must be between 1 and 7, got {level}")

    qualify = len(bundle.reference.sheets) > 1

    formulas, syntax = parse_workbook(submission, bundle.parsed_sources)
    if not syntax.ok:
        messages = tuple(
            f"Syntax error in cell {issue.cell.text(qualified=qualify)}: {issue.message}"
            for issue in syntax.errors
        )
        return FeedbackReport(
            task=bundle.task,
            level=level,
            status=Status.SYNTAX_ERROR,
            messages=messages,
            diagnoses=(),
            quality=(),
            metrics=None,
            syntax=syntax,
            qualify_sheets=qualify,
        )

    reference = bundle.reference_analysis
    analysis = analyze(submission, formulas, reference)
    match = match_values(reference, analysis, bundle.tolerance, bundle.graded)
    status = Status.FAIL if match.value_errors else Status.PASS

    details = {
        address: diff_formula(reference, analysis, address, bundle.tolerance)
        for address in match.formula_errors
    }

    diagnoses = tuple(
        Diagnosis(a, DiagnosisKind.VALUE_ERROR) for a in match.value_errors
    ) + tuple(
        Diagnosis(a, DiagnosisKind.FORMULA_ERROR, details[a]) for a in match.formula_errors
    )

    reference_metrics = reference.metrics
    findings: tuple[QualityFinding, ...] = tuple(
        idiom_suggestions(analysis, bundle.quality)
        + duplicate_calculations(analysis)
        + compare_metrics(analysis.metrics, reference_metrics, bundle.quality)
    )

    messages = _level_messages(bundle, match, details, status, level, force_quality, findings, qualify)

    return FeedbackReport(
        task=bundle.task,
        level=level,
        status=status,
        messages=tuple(messages),
        diagnoses=diagnoses,
        quality=findings,
        metrics=(analysis.metrics, reference_metrics),
        syntax=syntax,
        qualify_sheets=qualify,
    )


def _level_messages(
    bundle: TaskBundle,
    match: MatchResult,
    details: dict[CellAddress, ErrorDetail],
    status: Status,
    level: int,
    force_quality: bool,
    findings: Sequence[QualityFinding],
    qualify: bool,
) -> list[str]:
    if level == 7:
        if status is Status.PASS or force_quality:
            return quality_messages(findings, qualify)
        return []

    if status is Status.PASS:
        return [MSG_CORRECT]

    if level == 1:
        return [MSG_INCORRECT]
    if level == 2:
        return [f"The values of cells {_cells_text(match.value_errors, qualify)} are incorrect."]

    formula_message = f"The formulas of cells {_cells_text(match.formula_errors, qualify)} are incorrect."
    if level == 3:
        return [formula_message]
    if level == 4:
        headers = [
            [h for h in header_context(bundle.reference, cell) if h is not None]
            for cell in match.formula_errors
        ]
        return [formula_message] + lookup_annotations(bundle, match.formula_errors, headers)

    messages = []
    for address in match.formula_errors:
        detail = details[address]
        cell_text = address.text(qualified=qualify)
        if level == 5:
            messages.append(_CATEGORY_SENTENCES[detail.category].format(cell=cell_text))
        else:
            messages.extend(_hint_messages(detail, cell_text))
    return messages


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

_STATUS_HEADINGS = {Status.PASS: "PASS", Status.FAIL: "FAIL", Status.SYNTAX_ERROR: "SYNTAX ERROR"}


def render_text(report: FeedbackReport) -> str:
    """Plain-text report: a heading line, then one message per line."""
    lines = [f"task {report.task}: {_STATUS_HEADINGS[report.status]}"]
    lines.extend(report.messages)
    return "\n".join(lines) + "\n"


def metrics_doc(metrics: QualityMetrics, qualify: bool) -> dict[str, Any]:
    """The metrics as an object, one key per field in field order, as a dataclass's `vars` lists them."""

    def fan(value: tuple[CellAddress, int] | None) -> dict[str, Any] | None:
        return {"cell": value[0].text(qualified=qualify), "count": value[1]} if value else None

    return {name: value if isinstance(value, int) else fan(value) for name, value in vars(metrics).items()}


def _finding_doc(finding: QualityFinding, qualify: bool) -> dict[str, Any]:
    if isinstance(finding, IdiomSuggestion):
        return {
            "kind": "idiom_suggestion",
            "function": finding.function,
            "cells": [a.text(qualified=qualify) for a in finding.cells],
        }
    if isinstance(finding, DuplicateCalculation):
        return {
            "kind": "duplicate_calculation",
            "cells": [a.text(qualified=qualify) for a in finding.cells],
        }
    return {
        "kind": "metric_exceeded",
        "metric": finding.metric,
        "submission": finding.submission,
        "reference": finding.reference,
    }


def _detail_doc(detail: ErrorDetail | None) -> dict[str, Any] | None:
    if detail is None:
        return None
    return {
        "category": detail.category.value,
        "expected": [fragment.text for fragment in detail.expected],
        "found": [fragment.text for fragment in detail.found],
        "extras": [
            {"kind": extra.kind, "name": extra.name, "message": extra.message}
            for extra in detail.extras
        ],
        "spelling": (
            {"found": detail.spelling[0], "expected": detail.spelling[1]}
            if detail.spelling
            else None
        ),
    }


def report_to_doc(report: FeedbackReport) -> dict[str, Any]:
    qualify = report.qualify_sheets
    return {
        "task": report.task,
        "level": report.level,
        "status": report.status.value,
        "messages": list(report.messages),
        "diagnoses": [
            {
                "cell": diagnosis.cell.text(qualified=qualify),
                "kind": diagnosis.kind.value,
                "detail": _detail_doc(diagnosis.detail),
            }
            for diagnosis in report.diagnoses
        ],
        "quality": [_finding_doc(finding, qualify) for finding in report.quality],
        "metrics": (
            {
                "submission": metrics_doc(report.metrics[0], qualify),
                "reference": metrics_doc(report.metrics[1], qualify),
            }
            if report.metrics
            else None
        ),
        "syntax": [
            {
                "cell": issue.cell.text(qualified=qualify),
                "message": issue.message,
                "position": issue.position,
            }
            for issue in report.syntax.errors
        ],
    }


def render_json(report: FeedbackReport) -> str:
    """Canonical JSON rendering: fixed key order, deterministic output."""
    return dump_json(report_to_doc(report)) + "\n"
