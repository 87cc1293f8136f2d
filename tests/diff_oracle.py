"""Reference implementation of `diff_formula`, for comparison in tests.

This is the straightforward form of the formula-error analysis: each
canonical form is walked once per stage, a `$`-flag change is paired by a
linear search over the surplus references, and the solution reference
that holds a missing cell is found by scanning every reference of the
solution formula.  Constant numbers pair by a scan of every unpaired
number.  Its work grows with the product of the references or constants
of the two formulas, so tests run it on small workbooks only;
`sheetcheck.diff_formula` must return an equal `ErrorDetail`.  The report
model (`ErrorDetail`, `Fragment`, `ExtraItem`, `spelling_hint`) is the
engine's own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from sheetcheck import DEFAULT_TOLERANCE, CellAddress, Formula, Text, Tolerance, WorkbookAnalysis
from sheetcheck.diffing import ErrorCategory, ErrorDetail, ExtraItem, Fragment, spelling_hint
from sheetcheck.formulas import (
    Binary,
    BoolLit,
    CellRef,
    Chain,
    FormulaAst,
    FuncCall,
    NumberLit,
    RangeRef,
    RefItem,
    TextLit,
    Unary,
    reference_difference,
    render_formula,
    render_reference,
    walk_ast,
)
from sheetcheck.grid import format_number, format_value

_USED_TOO_OFTEN = "used too often"


def _operators_and_functions(ast: FormulaAst) -> tuple[Counter, Counter]:
    operators: Counter = Counter()
    functions: Counter = Counter()
    for node in walk_ast(ast):
        if isinstance(node, Chain):
            operators[node.op.symbol] += node.size - 1  # as many as its expanded form has
        elif isinstance(node, (Unary, Binary)):
            operators[node.op.symbol] += 1
        elif isinstance(node, FuncCall):
            functions[node.name] += 1
    return operators, functions


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
    start: CellAddress
    end: CellAddress

    def contains(self, address: CellAddress) -> bool:
        sheet, top, left = self.start
        _, bottom, right = self.end
        return address.sheet == sheet and top <= address.row <= bottom and left <= address.col <= right


def _solution_groups(ast: FormulaAst, sheet: str) -> list[_RefGroup]:
    groups: list[_RefGroup] = []
    for node in walk_ast(ast):
        if isinstance(node, CellRef):
            groups.append(_RefGroup(render_reference(node, sheet), False, node.address, node.address))
        elif isinstance(node, RangeRef):
            groups.append(
                _RefGroup(render_reference(node, sheet), True, node.start.address, node.end.address)
            )
    return groups


def _group_for(address: CellAddress, groups: list[_RefGroup]) -> _RefGroup | None:
    for group in groups:
        if group.contains(address):
            return group
    return None


# --------------------------------------------------------------------------
# Stage comparisons
# --------------------------------------------------------------------------


def _counter_diff(solution: Counter, submission: Counter) -> tuple[list, list]:
    missing = sorted((solution - submission).elements(), key=str)
    surplus = sorted((submission - solution).elements(), key=str)
    return missing, surplus


def _render_ref_item(item: RefItem, sheet: str) -> str:
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
    reference: WorkbookAnalysis,
    submission: WorkbookAnalysis,
    address: CellAddress,
    tolerance: Tolerance = DEFAULT_TOLERANCE,
) -> ErrorDetail:
    """Classify why a formula-error cell disagrees with the reference.

    The submission's cell at `address` must already be diagnosed as a
    formula error.  Both formulas and their canonical forms come from the
    analyses, so the reference's are built once per bundle.  A constant
    where a formula is expected reports the reference's top function or
    operator; otherwise the canonical forms are compared stage by stage
    and exactly one category is assigned.
    """
    sheet = address.sheet
    solution = reference.workbook.content(address)
    submitted = submission.workbook.content(address)

    sol_is_formula = isinstance(solution, Formula)
    sub_is_formula = isinstance(submitted, Formula)

    if sol_is_formula and not sub_is_formula:
        found = Fragment("constant", format_value(submitted))
        return ErrorDetail(
            cell=address,
            category=ErrorCategory.FUNCTION,
            expected=(_top_fragment(reference.formulas[address], sheet),),
            found=(found,),
            formula_expected=True,
        )

    if not sol_is_formula:
        expected_text = format_value(solution)
        if sub_is_formula:
            found_text = submitted.source
        else:
            found_text = format_value(submitted)
        spelling = None
        if isinstance(solution, Text) and isinstance(submitted, Text):
            spelling = spelling_hint(submitted.value, solution.value)
        return ErrorDetail(
            cell=address,
            category=ErrorCategory.CONSTANT,
            expected=(Fragment("constant", expected_text),),
            found=(Fragment("constant", found_text),),
            spelling=spelling,
        )

    sol_ast = reference.facts[address].canonical
    sub_ast = submission.facts[address].canonical

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

    # Stage 2: references with their absoluteness flags, compared as
    # rectangles; only the cells that differ are expanded.
    missing, surplus = reference_difference(sol_ast, sub_ast)
    if missing or surplus:
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

        groups = _solution_groups(reference.formulas[address], sheet)
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
