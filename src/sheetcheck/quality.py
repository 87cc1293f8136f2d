"""Product metrics and solution-quality suggestions.

Metrics are size counts plus structural facts read off the dependency
graph.  Operand totals count literals and cell references, with ranges
counted at their expansion size; operator totals count unary and binary
operators, function applications and range operators.  A submission metric
triggers a finding when it exceeds reference * factor + offset, with
per-metric overrides.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

from .formulas import (
    Binary,
    BinOp,
    BoolLit,
    CellRef,
    Chain,
    FormulaAst,
    FuncCall,
    NumberLit,
    RangeRef,
    TextLit,
    canonicalize,
    child_nodes,
    distinct_cells,
    node_key,
    range_size,
    walk_ast,
)
from .graph import formula_boxes, longest_chain

# Not called here since the graph counts its own terminals; the benchmark's
# tracer (perfbench/tracing.py) still wraps this name in this module.
from .graph import terminals  # noqa: F401
from .grid import CellAddress, CellError, row_major

if TYPE_CHECKING:
    from .feedback import WorkbookAnalysis


@dataclass(frozen=True)
class QualityMetrics:
    sheet_count: int = 0
    error_value_count: int = 0
    value_cell_count: int = 0
    formula_cell_count: int = 0
    input_count: int = 0
    output_count: int = 0
    max_fan_in: tuple[CellAddress, int] | None = None
    max_fan_out: tuple[CellAddress, int] | None = None
    operator_total: int = 0
    operand_total: int = 0
    max_nesting_depth: int = 0
    longest_chain: int = 0


# The count fields, in field order: the metrics a submission is compared on.
COMPARED_METRICS = tuple(item.name for item in fields(QualityMetrics) if item.type == "int")


@dataclass(frozen=True)
class QualityConfig:
    factor: float = 1.5
    offset: float = 1.0
    min_idiom_operands: int = 3
    overrides: Mapping[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.factor >= 1 and self.offset >= 0 and self.min_idiom_operands >= 2):  # NaN fails too
            raise ValueError("quality thresholds out of range")

    def threshold(self, metric: str, reference_value: float) -> float:
        factor, offset = self.overrides.get(metric, (self.factor, self.offset))
        return reference_value * factor + offset


@dataclass(frozen=True)
class MetricExceeded:
    metric: str
    submission: float
    reference: float


@dataclass(frozen=True)
class IdiomSuggestion:
    function: str
    cells: tuple[CellAddress, ...]


@dataclass(frozen=True)
class DuplicateCalculation:
    cells: tuple[CellAddress, ...]


QualityFinding = MetricExceeded | IdiomSuggestion | DuplicateCalculation


# --------------------------------------------------------------------------
# Metric collection
# --------------------------------------------------------------------------


def _formula_counts(ast: FormulaAst) -> tuple[int, int, int]:
    """Operators, operands and nesting depth of one formula, in one walk.

    The depth is the most binary operators and function calls on one path.
    """
    operators = operands = deepest = 0
    stack = [(ast, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, (NumberLit, TextLit, BoolLit, CellRef)):
            operands += 1
        elif isinstance(node, RangeRef):
            operators += 1  # the ":" range operator
            operands += range_size(node)
        else:
            operators += 1  # a unary or binary operator, or a function application
            if isinstance(node, (Binary, FuncCall)):
                depth += 1
                deepest = max(deepest, depth)
            stack.extend((child, depth) for child in child_nodes(node))
    return operators, operands, deepest


def compute_metrics(analysis: WorkbookAnalysis) -> QualityMetrics:
    """Collect the metric set of an analysed workbook."""
    counts = [facts.counts for facts in analysis.facts.values()]
    workbook, graph = analysis.workbook, analysis.graph

    return QualityMetrics(
        sheet_count=len(workbook.sheets),
        error_value_count=sum(1 for value in analysis.grid.values() if isinstance(value, CellError)),
        value_cell_count=sum(len(sheet.cells) for sheet in workbook.sheets) - len(analysis.formulas),
        formula_cell_count=len(analysis.formulas),
        input_count=graph.input_count,
        output_count=len(graph.outputs),
        max_fan_in=graph.max_fan_in,
        max_fan_out=graph.max_fan_out,
        operator_total=sum(operators for operators, _, _ in counts),
        operand_total=sum(operands for _, operands, _ in counts),
        max_nesting_depth=max((depth for _, _, depth in counts), default=0),
        longest_chain=longest_chain(graph),
    )


def compare_metrics(
    submission: QualityMetrics, reference: QualityMetrics, config: QualityConfig
) -> list[QualityFinding]:
    """Findings for every scalar metric exceeding the configured threshold."""
    findings: list[QualityFinding] = []
    for metric in COMPARED_METRICS:
        sub_value = getattr(submission, metric)
        ref_value = getattr(reference, metric)
        if sub_value > config.threshold(metric, ref_value):
            findings.append(MetricExceeded(metric, sub_value, ref_value))
    return findings


# --------------------------------------------------------------------------
# Idiom suggestions and duplicate calculations
# --------------------------------------------------------------------------


def _mentions_function(ast: FormulaAst, name: str) -> bool:
    return any(isinstance(node, FuncCall) and node.name == name for node in walk_ast(ast))


def _avg_pattern_operands(ast: FormulaAst) -> int | None:
    """Operand count when the canonical AST is (sum of n distinct refs) / n, else None."""
    if not (isinstance(ast, Binary) and ast.op is BinOp.DIV and isinstance(ast.right, NumberLit)):
        return None
    total = ast.left
    if isinstance(total, CellRef):
        count = 1
    elif isinstance(total, Chain) and total.op is BinOp.ADD and not total.operands:
        count = total.size
    else:
        return None
    if float(count) != ast.right.value:
        return None
    if isinstance(total, Chain) and distinct_cells(total.refs) != count:
        return None
    return count


def _add_chains(ast: FormulaAst) -> list[Chain]:
    """Canonical "+" chains, skipping numerators that form a written-out average."""
    chains: list[Chain] = []
    stack = [ast]
    while stack:
        node = stack.pop()
        if _avg_pattern_operands(node) is not None:
            continue  # that chain belongs to the AVG idiom
        if isinstance(node, Chain) and node.op is BinOp.ADD:
            chains.append(node)
        stack.extend(reversed(child_nodes(node)))
    return chains


def _idiom(canonical: FormulaAst, ast: FormulaAst) -> tuple[str, int] | None:
    """(function, most): an idiom suggestion names `function` when `min_idiom_operands` is at most `most`.

    A canonical form that is a written-out average of n cells suggests AVG
    from n operands on.  Any other suggests SUM when one of its `+` chains
    covers more distinct cells than the setting, so `most` is one less
    than the most distinct cells of a chain; a chain never covers more
    distinct cells than its size.  None when no setting of at least 2
    suggests anything, or when the parsed formula already uses the function.
    """
    most = _avg_pattern_operands(canonical)
    if most is not None:
        function = "AVG"
    else:
        function = "SUM"
        most = max((distinct_cells(chain.refs) for chain in _add_chains(canonical) if chain.size > 2), default=0) - 1
    if most < 2 or _mentions_function(ast, function):
        return None
    return function, most


class FormulaFacts:
    """What the graph and the quality checks read off one parsed formula, each computed on first read.

    None of it depends on the formula's cell or on a `QualityConfig`, so a
    submission formula that is the reference's own AST at its cell takes
    the reference's facts (see `WorkbookAnalysis.facts`).  A stage reads
    only the facts it needs: the graph and metrics of a workbook build no
    canonical form.
    """

    def __init__(self, ast: FormulaAst):
        self.ast = ast

    @cached_property
    def canonical(self) -> FormulaAst:
        return canonicalize(self.ast)

    @cached_property
    def key(self) -> tuple:
        """The canonical form's `node_key`."""
        return node_key(self.canonical)

    @cached_property
    def counts(self) -> tuple[int, int, int]:
        """Operators, operands and nesting depth."""
        return _formula_counts(self.ast)

    @cached_property
    def boxes(self) -> Sequence[tuple[str, int, int, int, int]]:
        """The formula's references as disjoint boxes, see `graph.formula_boxes`."""
        return formula_boxes(self.ast)

    @cached_property
    def idiom(self) -> tuple[str, int] | None:
        """See `_idiom`."""
        return _idiom(self.canonical, self.ast)


def idiom_suggestions(analysis: WorkbookAnalysis, config: QualityConfig) -> list[QualityFinding]:
    """Suggest AVG for written-out averages and SUM for long addition chains.

    Detection runs on the analysis's canonical forms; a cell whose parsed
    formula already uses the suggested function is never flagged.  The
    check is value-agnostic: a wrong formula can still earn a suggestion.
    """
    by_function: dict[str, list[CellAddress]] = {}
    for address, facts in analysis.facts.items():
        idiom = facts.idiom
        if idiom is not None and config.min_idiom_operands <= idiom[1]:
            by_function.setdefault(idiom[0], []).append(address)
    return [
        IdiomSuggestion(name, row_major(cells)) for name, cells in sorted(by_function.items())
    ]


def duplicate_calculations(analysis: WorkbookAnalysis) -> list[QualityFinding]:
    """Groups of cells whose canonical formulas are identical, targets included.

    Offset copies produced by fill-down reference different cells and do
    not match.
    """
    by_form: dict[tuple, list[CellAddress]] = {}
    for address, facts in analysis.facts.items():
        by_form.setdefault(facts.key, []).append(address)
    groups = [row_major(cells) for cells in by_form.values() if len(cells) >= 2]
    groups.sort()  # by first cell: no cell is in two groups
    return [DuplicateCalculation(cells) for cells in groups]
