"""Classification of formula errors and concrete repair fragments.

Both formulas are canonicalized first, so idiom pairs such as an AVG call
versus a written-out average no longer differ.  The comparison then runs
in three stages and stops at the first stage that finds a difference:
operators and function names, then references (absoluteness included),
then constants.  All comparisons are multiset-based; where the submission
uses something the solution never uses, the surplus is reported as "used
too often".
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .evaluate import DEFAULT_TOLERANCE, Tolerance
from .formulas import (
    Binary,
    BoolLit,
    CellRef,
    FormulaAst,
    FuncCall,
    NumberLit,
    RangeRef,
    TextLit,
    Unary,
    canonicalize,
    parse_formula,
    range_addresses,
    render_formula,
    render_reference,
    walk_ast,
)
from .grid import BLANK, Cell, CellAddress, Formula, Text, format_number, format_value

if TYPE_CHECKING:
    from .feedback import WorkbookAnalysis


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert, delete, substitute)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(current[j - 1] + 1, previous[j] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def spelling_threshold(expected: str) -> int:
    return max(1, math.ceil(len(expected) / 4))


def spelling_hint(found: str, expected: str) -> tuple[str, str] | None:
    """(found, expected) when the texts differ by a plausible typo distance."""
    if found == expected:
        return None
    if levenshtein(found, expected) <= spelling_threshold(expected):
        return (found, expected)
    return None


class ErrorCategory(Enum):
    OPERATOR = "operator"
    FUNCTION = "function"
    REFERENCE = "reference"
    CONSTANT = "constant"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class Fragment:
    """One rendered piece of a repair hint.

    `kind` is one of operator/function/reference/constant; `is_range` marks
    reference fragments shown in the solution's original range notation;
    `flag_hint` is set when only the absolute/relative marker differs.
    """

    kind: str
    text: str
    is_range: bool = False
    flag_hint: str | None = None


@dataclass(frozen=True)
class ExtraItem:
    kind: str
    name: str
    message: str


@dataclass(frozen=True)
class ErrorDetail:
    cell: CellAddress
    category: ErrorCategory
    expected: tuple[Fragment, ...] = ()
    found: tuple[Fragment, ...] = ()
    extras: tuple[ExtraItem, ...] = ()
    spelling: tuple[str, str] | None = None
    formula_expected: bool = False


_USED_TOO_OFTEN = "used too often"


# --------------------------------------------------------------------------
# Multiset extraction
# --------------------------------------------------------------------------


def _operators_and_functions(ast: FormulaAst) -> tuple[Counter, Counter]:
    operators: Counter = Counter()
    functions: Counter = Counter()
    for node in walk_ast(ast):
        if isinstance(node, (Unary, Binary)):
            operators[node.op.symbol] += 1
        elif isinstance(node, FuncCall):
            functions[node.name] += 1
    return operators, functions


_RefItem = tuple[CellAddress, bool, bool]


def _reference_items(ast: FormulaAst) -> Counter:
    items: Counter = Counter()
    for node in walk_ast(ast):
        if isinstance(node, CellRef):
            items[(node.address, node.col_absolute, node.row_absolute)] += 1
        elif isinstance(node, RangeRef):
            for address in range_addresses(node):
                items[(address, node.start.col_absolute, node.start.row_absolute)] += 1
    return items


def _constants(ast: FormulaAst) -> tuple[list[float], Counter, Counter]:
    numbers: list[float] = []
    texts: Counter = Counter()
    booleans: Counter = Counter()
    for node in walk_ast(ast):
        if isinstance(node, NumberLit):
            numbers.append(node.value)
        elif isinstance(node, TextLit):
            texts[node.text] += 1
        elif isinstance(node, BoolLit):
            booleans[node.value] += 1
    return numbers, texts, booleans


def _top_fragment(ast: FormulaAst, sheet: str) -> Fragment:
    if isinstance(ast, FuncCall):
        return Fragment("function", ast.name)
    if isinstance(ast, Binary):
        return Fragment("operator", ast.op.symbol)
    if isinstance(ast, Unary):
        return Fragment("operator", ast.op.symbol)
    if isinstance(ast, (CellRef, RangeRef)):
        return Fragment("reference", render_reference(ast, sheet), is_range=isinstance(ast, RangeRef))
    return Fragment("constant", render_formula(ast, sheet))


# --------------------------------------------------------------------------
# Reference grouping: report missing references in the solution's notation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _RefGroup:
    text: str
    is_range: bool
    anchor: CellAddress
    members: frozenset[CellAddress]


def _solution_groups(ast: FormulaAst, sheet: str) -> list[_RefGroup]:
    groups: list[_RefGroup] = []
    for node in walk_ast(ast):
        if isinstance(node, CellRef):
            groups.append(
                _RefGroup(render_reference(node, sheet), False, node.address, frozenset({node.address}))
            )
        elif isinstance(node, RangeRef):
            members = frozenset(range_addresses(node))
            groups.append(
                _RefGroup(render_reference(node, sheet), True, node.start.address, members)
            )
    return groups


def _group_for(address: CellAddress, groups: list[_RefGroup]) -> _RefGroup | None:
    for group in groups:
        if address in group.members:
            return group
    return None


# --------------------------------------------------------------------------
# Stage comparisons
# --------------------------------------------------------------------------


def _counter_diff(solution: Counter, submission: Counter) -> tuple[list, list]:
    missing = sorted((solution - submission).elements(), key=str)
    surplus = sorted((submission - solution).elements(), key=str)
    return missing, surplus


def _render_ref_item(item: _RefItem, sheet: str) -> str:
    address, col_abs, row_abs = item
    return render_reference(CellRef(address, col_abs, row_abs), sheet)


def _match_numbers(
    solution: list[float], submission: list[float], tolerance: Tolerance
) -> tuple[list[float], list[float]]:
    remaining = sorted(submission)
    missing = []
    for value in sorted(solution):
        for index, candidate in enumerate(remaining):
            if tolerance.close(value, candidate):
                del remaining[index]
                break
        else:
            missing.append(value)
    return missing, remaining


def diff_formula(
    solution: Cell, submission: WorkbookAnalysis, tolerance: Tolerance = DEFAULT_TOLERANCE
) -> ErrorDetail:
    """Classify why a formula-error cell disagrees with the solution.

    The submission's cell at the solution cell's address must already be
    diagnosed as a formula error; its canonical form comes from the
    analysis.  A constant where a formula is expected reports the
    solution's top function or operator; otherwise the canonicalized
    formulas are compared stage by stage and exactly one category is
    assigned.
    """
    address = solution.address
    sheet = address.sheet
    submission_cell = submission.workbook.cell(address) or Cell(address, BLANK)

    sol_is_formula = isinstance(solution.content, Formula)
    sub_is_formula = isinstance(submission_cell.content, Formula)

    if sol_is_formula and not sub_is_formula:
        sol_ast = parse_formula(solution.content.source, sheet)
        found = Fragment("constant", format_value(submission_cell.content))
        return ErrorDetail(
            cell=address,
            category=ErrorCategory.FUNCTION,
            expected=(_top_fragment(sol_ast, sheet),),
            found=(found,),
            formula_expected=True,
        )

    if not sol_is_formula:
        expected_text = format_value(solution.content)
        if sub_is_formula:
            found_text = submission_cell.content.source
        else:
            found_text = format_value(submission_cell.content)
        spelling = None
        if isinstance(solution.content, Text) and isinstance(submission_cell.content, Text):
            spelling = spelling_hint(submission_cell.content.value, solution.content.value)
        return ErrorDetail(
            cell=address,
            category=ErrorCategory.CONSTANT,
            expected=(Fragment("constant", expected_text),),
            found=(Fragment("constant", found_text),),
            spelling=spelling,
        )

    sol_ast = canonicalize(parse_formula(solution.content.source, sheet))
    sub_ast = submission.canonical[address]

    # Stage 1: operators and surviving function names.
    sol_ops, sol_funcs = _operators_and_functions(sol_ast)
    sub_ops, sub_funcs = _operators_and_functions(sub_ast)
    if sol_ops != sub_ops or sol_funcs != sub_funcs:
        category = ErrorCategory.FUNCTION if sol_funcs != sub_funcs else ErrorCategory.OPERATOR
        expected: list[Fragment] = []
        found: list[Fragment] = []
        extras: list[ExtraItem] = []
        for kind, (missing, surplus) in (
            ("operator", _counter_diff(sol_ops, sub_ops)),
            ("function", _counter_diff(sol_funcs, sub_funcs)),
        ):
            expected.extend(Fragment(kind, item) for item in missing)
            found.extend(Fragment(kind, item) for item in surplus)
            extras.extend(
                ExtraItem(kind, item, _USED_TOO_OFTEN) for item in surplus[len(missing):]
            )
        return ErrorDetail(address, category, tuple(expected), tuple(found), tuple(extras))

    # Stage 2: references with their absoluteness flags.
    sol_refs = _reference_items(sol_ast)
    sub_refs = _reference_items(sub_ast)
    if sol_refs != sub_refs:
        missing = sorted((sol_refs - sub_refs).elements())  # addresses sort row-major
        surplus = sorted((sub_refs - sol_refs).elements())
        expected = []
        found = [Fragment("reference", _render_ref_item(item, sheet)) for item in surplus]
        extras = []

        # Same address differing only in $-flags: report the flag change.
        flagged: set[int] = set()
        remaining_missing = []
        for item in missing:
            partner = next(
                (
                    index
                    for index, candidate in enumerate(surplus)
                    if index not in flagged and candidate[0] == item[0]
                ),
                None,
            )
            if partner is None:
                remaining_missing.append(item)
                continue
            flagged.add(partner)
            hint = "absolute" if (item[1] or item[2]) else "relative"
            expected.append(
                Fragment("reference", _render_ref_item(item, sheet), flag_hint=hint)
            )

        groups = _solution_groups(parse_formula(solution.content.source, sheet), sheet)
        seen_groups: set[_RefGroup] = set()
        for item in remaining_missing:
            group = _group_for(item[0], groups)
            if group is None:
                expected.append(Fragment("reference", _render_ref_item(item, sheet)))
            elif group not in seen_groups:
                seen_groups.add(group)
                expected.append(Fragment("reference", group.text, is_range=group.is_range))
        # Surplus refs beyond those paired with a missing ref are "used too often".
        unpaired = [item for index, item in enumerate(surplus) if index not in flagged]
        extras = [
            ExtraItem("reference", _render_ref_item(item, sheet), _USED_TOO_OFTEN)
            for item in unpaired[len(remaining_missing):]
        ]
        return ErrorDetail(address, ErrorCategory.REFERENCE, tuple(expected), tuple(found), tuple(extras))

    # Stage 3: constants (numbers under tolerance, text exactly).
    sol_numbers, sol_texts, sol_bools = _constants(sol_ast)
    sub_numbers, sub_texts, sub_bools = _constants(sub_ast)
    missing_numbers, surplus_numbers = _match_numbers(sol_numbers, sub_numbers, tolerance)
    missing_texts, surplus_texts = _counter_diff(sol_texts, sub_texts)
    missing_bools, surplus_bools = _counter_diff(sol_bools, sub_bools)
    if any((missing_numbers, surplus_numbers, missing_texts, surplus_texts, missing_bools, surplus_bools)):
        expected = (
            [Fragment("constant", format_number(v)) for v in missing_numbers]
            + [Fragment("constant", t) for t in missing_texts]
            + [Fragment("constant", "TRUE" if b else "FALSE") for b in missing_bools]
        )
        found = (
            [Fragment("constant", format_number(v)) for v in surplus_numbers]
            + [Fragment("constant", t) for t in surplus_texts]
            + [Fragment("constant", "TRUE" if b else "FALSE") for b in surplus_bools]
        )
        extras = []
        surplus_total = len(surplus_numbers) + len(surplus_texts) + len(surplus_bools)
        missing_total = len(missing_numbers) + len(missing_texts) + len(missing_bools)
        if surplus_total > missing_total:
            extras = [
                ExtraItem("constant", fragment.text, _USED_TOO_OFTEN)
                for fragment in found[missing_total:]
            ]
        spelling = None
        for found_text, expected_text in zip(surplus_texts, missing_texts):
            spelling = spelling_hint(found_text, expected_text)
            if spelling:
                break
        return ErrorDetail(
            address,
            ErrorCategory.CONSTANT,
            tuple(expected),
            tuple(found),
            tuple(extras),
            spelling,
        )

    return ErrorDetail(address, ErrorCategory.UNCLASSIFIED)
