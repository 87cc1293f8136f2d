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
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .evaluate import DEFAULT_TOLERANCE, Tolerance
from .formulas import (
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

# Not called here since both canonical forms come from the analyses; the
# benchmark's tracer (perfbench/tracing.py) still wraps this name in this module.
from .formulas import canonicalize  # noqa: F401
from .grid import CellAddress, Formula, Text, format_number, format_value

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
    threshold = spelling_threshold(expected)
    # The edit distance is at least the length difference, so a text much
    # longer than the expected one is rejected without computing it.
    if found == expected or abs(len(found) - len(expected)) > threshold:
        return None
    if levenshtein(found, expected) <= threshold:
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


def _items(ast: FormulaAst) -> tuple[Counter, Counter, list[float], Counter, Counter]:
    """The operators, function names, numbers, texts and booleans of a canonical form, in one walk."""
    operators: Counter = Counter()
    functions: Counter = Counter()
    numbers: list[float] = []
    texts: Counter = Counter()
    booleans: Counter = Counter()
    for node in walk_ast(ast):
        if isinstance(node, Chain):
            operators[node.op.symbol] += node.size - 1  # as many as its expanded form has
        elif isinstance(node, (Unary, Binary)):
            operators[node.op.symbol] += 1
        elif isinstance(node, FuncCall):
            functions[node.name] += 1
        elif isinstance(node, NumberLit):
            numbers.append(node.value)
        elif isinstance(node, TextLit):
            texts[node.text] += 1
        elif isinstance(node, BoolLit):
            booleans[node.value] += 1
    return operators, functions, numbers, texts, booleans


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
# Missing references in the solution's notation
# --------------------------------------------------------------------------


def _holders(ast: FormulaAst, sheet: str, addresses: list[CellAddress]) -> dict[CellAddress, Fragment]:
    """Each of the sorted `addresses` mapped to the first reference of `ast` that holds it.

    One walk over the parsed formula: a cell reference is looked up, and a
    range finds its cells by bisecting `addresses` row by row, unexpanded.
    """
    wanted = set(addresses)
    holders: dict[CellAddress, Fragment] = {}
    for node in walk_ast(ast):
        if len(holders) == len(wanted):
            break
        if isinstance(node, CellRef):
            if node.address in wanted and node.address not in holders:
                holders[node.address] = Fragment("reference", render_reference(node, sheet))
        elif isinstance(node, RangeRef):
            fragment = Fragment("reference", render_reference(node, sheet), is_range=True)
            ref_sheet, top, left = node.start.address
            _, bottom, right = node.end.address
            for row in range(top, bottom + 1):
                first = bisect_left(addresses, (ref_sheet, row, left))
                for held in addresses[first : bisect_right(addresses, (ref_sheet, row, right), first)]:
                    holders.setdefault(held, fragment)
    return holders


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
    """Pair each solution number, ascending, with the least unpaired submission number close to it.

    Up to a relative bound of 1/2, a finite number below a value and not
    close to it is close to no larger value, and the numbers close to a
    value form a run of the sorted submission, so one merge pairs the
    finite numbers.  An infinity, the only non-finite literal, is close to
    no infinity, and to every finite number when it is close to 0, else
    to none.  Then the finite solution numbers the merge leaves unpaired,
    ascending, take the submission's infinities, and each solution
    infinity takes the least finite submission number left.  Above 1/2
    rounding breaks the first rule and from 1 on a close set can have
    gaps, so each value scans every unpaired number, as it does when a
    negative infinity takes part.
    """
    remaining = sorted(submission)
    missing = []
    if tolerance.rel > 0.5 or -math.inf in remaining or -math.inf in solution:
        for value in sorted(solution):
            for index, candidate in enumerate(remaining):
                if tolerance.close(value, candidate):
                    del remaining[index]
                    break
            else:
                missing.append(value)
        return missing, remaining
    solution = sorted(solution)
    sol_finite, sub_finite = bisect_left(solution, math.inf), bisect_left(remaining, math.inf)
    surplus = []
    index = 0
    for value in solution[:sol_finite]:
        while index < sub_finite and remaining[index] < value and not tolerance.close(value, remaining[index]):
            surplus.append(remaining[index])
            index += 1
        if index < sub_finite and tolerance.close(value, remaining[index]):
            index += 1
        else:
            missing.append(value)
    surplus += remaining[index:sub_finite]
    sol_infinite, sub_infinite = solution[sol_finite:], remaining[sub_finite:]
    if tolerance.close(math.inf, 0.0):
        paired = min(len(missing), len(sub_infinite))
        missing, sub_infinite = missing[paired:], sub_infinite[paired:]
        paired = min(len(sol_infinite), len(surplus))
        sol_infinite, surplus = sol_infinite[paired:], surplus[paired:]
    return missing + sol_infinite, surplus + sub_infinite


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
    sol_ops, sol_funcs, sol_numbers, sol_texts, sol_bools = _items(sol_ast)
    sub_ops, sub_funcs, sub_numbers, sub_texts, sub_bools = _items(sub_ast)

    # Stage 1: operators and surviving function names.
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
            extras.extend(ExtraItem(kind, item, _USED_TOO_OFTEN) for item in surplus[len(missing):])
        return ErrorDetail(address, category, tuple(expected), tuple(found), tuple(extras))

    # Stage 2: references with their absoluteness flags, compared as
    # rectangles; only the cells that differ are expanded.
    missing, surplus = reference_difference(sol_ast, sub_ast)
    if missing or surplus:
        expected = []
        found = [Fragment("reference", _render_ref_item(item, sheet)) for item in surplus]

        # Same address differing only in $-flags: report the flag change.
        # Both lists are sorted, so each missing item takes the first
        # unpaired surplus item at its address.
        partners: dict[CellAddress, list[int]] = {}
        for index in reversed(range(len(surplus))):
            partners.setdefault(surplus[index][0], []).append(index)
        flagged: set[int] = set()
        remaining_missing = []
        for item in missing:
            indices = partners.get(item[0])
            if not indices:
                remaining_missing.append(item)
                continue
            flagged.add(indices.pop())
            hint = "absolute" if (item[1] or item[2]) else "relative"
            expected.append(Fragment("reference", _render_ref_item(item, sheet), flag_hint=hint))

        # Other missing cells show the solution reference that holds them, once each.
        holders = _holders(reference.formulas[address], sheet, [item[0] for item in remaining_missing])
        shown: set[Fragment] = set()
        for item in remaining_missing:
            fragment = holders.get(item[0])
            if fragment is None:
                expected.append(Fragment("reference", _render_ref_item(item, sheet)))
            elif fragment not in shown:
                shown.add(fragment)
                expected.append(fragment)
        # Surplus refs beyond those paired with a missing ref are "used too often".
        unpaired = [item for index, item in enumerate(surplus) if index not in flagged][len(remaining_missing):]
        extras = [ExtraItem("reference", _render_ref_item(item, sheet), _USED_TOO_OFTEN) for item in unpaired]
        return ErrorDetail(address, ErrorCategory.REFERENCE, tuple(expected), tuple(found), tuple(extras))

    # Stage 3: constants (numbers under tolerance, text exactly), one
    # (missing, surplus, render) row per kind.
    missing_texts, surplus_texts = _counter_diff(sol_texts, sub_texts)
    table = (
        (*_match_numbers(sol_numbers, sub_numbers, tolerance), format_number),
        (missing_texts, surplus_texts, str),
        (*_counter_diff(sol_bools, sub_bools), lambda value: "TRUE" if value else "FALSE"),
    )
    expected = [Fragment("constant", render(item)) for missing, _, render in table for item in missing]
    found = [Fragment("constant", render(item)) for _, surplus, render in table for item in surplus]
    if expected or found:
        extras = [ExtraItem("constant", fragment.text, _USED_TOO_OFTEN) for fragment in found[len(expected):]]
        spelling = next(filter(None, map(spelling_hint, surplus_texts, missing_texts)), None)
        return ErrorDetail(address, ErrorCategory.CONSTANT, tuple(expected), tuple(found), tuple(extras), spelling)

    return ErrorDetail(address, ErrorCategory.UNCLASSIFIED)
