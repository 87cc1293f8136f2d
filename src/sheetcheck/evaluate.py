"""Workbook evaluation and tolerant value comparison.

Cells evaluate in dependency order; reference cycles produce the CYCLE
error value and error values propagate through every operator and function
that consumes them.  Blank coerces to 0 inside scalar arithmetic but is
skipped by aggregate functions; text never coerces to a number, booleans
count as 1 and 0.  Numbers are finite 64-bit floats: any operation that
would produce NaN or infinity yields the BAD_VALUE error instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping

from .formulas import (
    Binary,
    BinOp,
    BoolLit,
    CellRef,
    Chain,
    FormulaAst,
    FormulaSyntaxError,
    NumberLit,
    RangeRef,
    TextLit,
    Unary,
    UnaryOp,
    parse_workbook,
    range_addresses,
)
from .grid import (
    BLANK,
    VALUE_TYPES,
    Blank,
    Boolean,
    CellAddress,
    CellError,
    ErrorKind,
    Number,
    Text,
    Value,
    Workbook,
    format_value,
)

DIV_ZERO = CellError(ErrorKind.DIV_ZERO)
BAD_REF = CellError(ErrorKind.BAD_REF)
CYCLE = CellError(ErrorKind.CYCLE)
BAD_VALUE = CellError(ErrorKind.BAD_VALUE)


@dataclass(frozen=True)
class Tolerance:
    """Absolute and relative slack for numeric comparison."""

    abs: float = 1e-9
    rel: float = 1e-9

    def __post_init__(self) -> None:
        if not (self.abs >= 0 and self.rel >= 0):  # NaN fails too
            raise ValueError("tolerances must be non-negative numbers")

    def close(self, a: float, b: float) -> bool:
        """True when a and b differ by at most the larger of the two bounds."""
        return abs(a - b) <= max(self.abs, self.rel * max(abs(a), abs(b)))


DEFAULT_TOLERANCE = Tolerance()


def values_equal(a: Value, b: Value, tolerance: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Compare two cell values under a tolerance.

    Numbers are equal when their difference is within the larger of the
    absolute and relative bounds; text compares case-sensitively after
    trimming surrounding whitespace; error values compare by kind; values
    of different variants are never equal (Blank is not 0).  The relation
    is reflexive and symmetric but, by the nature of tolerances, not
    transitive.
    """
    if isinstance(a, Number) and isinstance(b, Number):
        return a.value == b.value or tolerance.close(a.value, b.value)
    if isinstance(a, Text) and isinstance(b, Text):
        return a.value.strip() == b.value.strip()
    return a == b


# --------------------------------------------------------------------------
# Coercions
# --------------------------------------------------------------------------


def _as_number(value: Value) -> float | CellError:
    if isinstance(value, Number):
        return value.value
    if isinstance(value, Blank):
        return 0.0
    if isinstance(value, Boolean):
        return 1.0 if value.value else 0.0
    if isinstance(value, CellError):
        return value
    return BAD_VALUE


def _number_value(x: float) -> Value:
    if isinstance(x, complex) or not math.isfinite(x):
        return BAD_VALUE
    return Number(x)


def _first_error(values: list[Value]) -> CellError | None:
    for value in values:
        if isinstance(value, CellError):
            return value
    return None


# --------------------------------------------------------------------------
# Function semantics
# --------------------------------------------------------------------------


def _numeric_operands(args: list[Value]) -> list[float] | CellError:
    """Aggregate view of arguments: blanks and text are skipped."""
    numbers = []
    for value in args:
        if isinstance(value, Number):
            numbers.append(value.value)
        elif isinstance(value, CellError):
            return value
        elif isinstance(value, Boolean):
            numbers.append(1.0)
    return numbers


def _round_half_away(x: float, digits: int) -> float:
    if digits >= 0:
        scale = 10 ** digits
        return math.copysign(math.floor(abs(x) * scale + 0.5) / scale, x)
    scale = 10 ** (-digits)
    return math.copysign(math.floor(abs(x) / scale + 0.5) * scale, x)


def apply_function(name: str, args: list[Value]) -> Value:
    """Apply a supported function to already-evaluated argument values.

    Range arguments must be expanded to individual cell values beforehand.
    Arity violations yield BAD_VALUE; AVG of zero numeric operands yields
    DIV_ZERO, MIN and MAX of zero numeric operands yield BAD_VALUE.
    """
    if name in ("SUM", "AVG", "COUNT", "MIN", "MAX"):
        numbers = _numeric_operands(args)
        if isinstance(numbers, CellError):
            return numbers
        if name == "SUM":
            return _number_value(math.fsum(numbers))
        if name == "COUNT":
            return Number(float(len(numbers)))
        if name == "AVG":
            if not numbers:
                return DIV_ZERO
            return _number_value(math.fsum(numbers) / len(numbers))
        if not numbers:
            return BAD_VALUE
        return _number_value(min(numbers) if name == "MIN" else max(numbers))

    # IF included: all arguments are consumed, so an error in either branch
    # propagates and a structural cycle always surfaces as CYCLE.
    error = _first_error(args)
    if error is not None:
        return error

    if name == "IF":
        if len(args) not in (2, 3):
            return BAD_VALUE
        cond = args[0]
        if isinstance(cond, Boolean):
            taken = cond.value
        elif isinstance(cond, Number):
            taken = cond.value != 0.0
        else:
            return BAD_VALUE
        if taken:
            return args[1]
        return args[2] if len(args) == 3 else Boolean(False)

    if name == "ROUND":
        if len(args) != 2:
            return BAD_VALUE
        x = _as_number(args[0])
        digits = _as_number(args[1])
        if isinstance(x, CellError):
            return x
        if isinstance(digits, CellError):
            return digits
        return _number_value(_round_half_away(x, int(digits)))

    if name == "ABS":
        if len(args) != 1:
            return BAD_VALUE
        x = _as_number(args[0])
        if isinstance(x, CellError):
            return x
        return _number_value(abs(x))

    raise ValueError(f"unsupported function {name!r}")


# --------------------------------------------------------------------------
# Operator semantics
# --------------------------------------------------------------------------


_ARITHMETIC = {
    BinOp.ADD: operator.add,
    BinOp.SUB: operator.sub,
    BinOp.MUL: operator.mul,
    BinOp.DIV: operator.truediv,
    BinOp.POW: operator.pow,
}
_ORDER = {BinOp.LT: operator.lt, BinOp.LE: operator.le, BinOp.GT: operator.gt, BinOp.GE: operator.ge}
_BLANK_AS = {Number: Number(0.0), Text: Text("")}  # Blank against a number or a text in a comparison


def _binary(op: BinOp, left: Value, right: Value) -> Value:
    arithmetic = _ARITHMETIC.get(op)
    if arithmetic is not None:
        a = _as_number(left)
        if isinstance(a, CellError):
            return a
        b = _as_number(right)
        if isinstance(b, CellError):
            return b
        try:
            return _number_value(arithmetic(a, b))
        except ZeroDivisionError:
            return DIV_ZERO
        except (OverflowError, ValueError):
            return BAD_VALUE
    if isinstance(left, CellError):
        return left
    if isinstance(right, CellError):
        return right
    if op is BinOp.CONCAT:
        return Text(format_value(left) + format_value(right))
    if type(left) is Blank:
        left = _BLANK_AS.get(type(right), left)
    elif type(right) is Blank:
        right = _BLANK_AS.get(type(left), right)
    if op is BinOp.EQ:
        return Boolean(left == right)  # the values' own equality: other variants are unequal
    if op is BinOp.NE:
        return Boolean(left != right)
    if type(left) is not type(right) or type(left) not in _BLANK_AS:
        return BAD_VALUE  # ordering is within numbers or within texts only
    return Boolean(_ORDER[op](left.value, right.value))  # type: ignore[union-attr]


_Resolver = Callable[[CellAddress], Value]


def _balanced(op: BinOp, values: list[Value]) -> Value:
    """Combine operand values as the balanced tree whose left half holds (n + 1) // 2."""
    if len(values) == 1:
        return values[0]
    mid = (len(values) + 1) // 2
    return _binary(op, _balanced(op, values[:mid]), _balanced(op, values[mid:]))


def _eval(node: FormulaAst, resolve: _Resolver) -> Value:
    if isinstance(node, NumberLit):
        return _number_value(node.value)  # a literal such as 1e999 overflows
    if isinstance(node, TextLit):
        return Text(node.text)
    if isinstance(node, BoolLit):
        return Boolean(node.value)
    if isinstance(node, CellRef):
        return resolve(node.address)
    if isinstance(node, RangeRef):
        return BAD_VALUE  # a bare range is not a scalar
    if isinstance(node, Unary):
        operand = _as_number(_eval(node.operand, resolve))
        if isinstance(operand, CellError):
            return operand
        return _number_value(-operand if node.op is UnaryOp.NEG else operand)
    if isinstance(node, Binary):
        # Left-associative chains such as A1+A2+...+An are left-deep: fold
        # the left spine in a loop instead of recursing down it.  Operands
        # still evaluate left to right, so the first error still wins.
        spine = []
        while isinstance(node, Binary):
            spine.append(node)
            node = node.left
        value = _eval(node, resolve)
        for parent in reversed(spine):
            value = _binary(parent.op, value, _eval(parent.right, resolve))
        return value
    if isinstance(node, Chain):
        # Operator semantics ("+" on blanks and text, not SUM's), over the
        # expanded operands in order: the first error still wins.
        values = [resolve(address) for address, _, _ in node.cells()]
        values += [_eval(operand, resolve) for operand in node.operands]
        return _balanced(node.op, values)
    values: list[Value] = []
    for arg in node.args:
        if isinstance(arg, RangeRef):
            values.extend(map(resolve, range_addresses(arg)))
        else:
            values.append(_eval(arg, resolve))
    return apply_function(node.name, values)


def evaluate_ast(ast: FormulaAst, values: Mapping[CellAddress, Value]) -> Value:
    """Evaluate a formula AST over a fixed grid of cell values.

    Addresses missing from `values` read as Blank; no sheet-existence
    checks apply.
    """
    return _eval(ast, lambda address: values.get(address, BLANK))


# --------------------------------------------------------------------------
# Whole-workbook evaluation
# --------------------------------------------------------------------------

Contents = dict[CellAddress, "Value | FormulaAst"]


def checked_formulas(workbook: Workbook) -> dict[CellAddress, FormulaAst]:
    """The parsed formula cells of a workbook that must pass the syntax check.

    They are `parse_workbook`'s ASTs, sheets in workbook order and row-major
    within each sheet; a syntax error raises FormulaSyntaxError.
    """
    formulas, syntax = parse_workbook(workbook)
    if not syntax.ok:
        issue = syntax.errors[0]
        raise FormulaSyntaxError(f"{issue.cell.text(qualified=True)}: {issue.message}", issue.position)
    return formulas


def workbook_contents(workbook: Workbook, formulas: Mapping[CellAddress, FormulaAst]) -> Contents:
    """Merge a workbook's sheets into one new address map of values and parsed formulas.

    The map is in file order: sheets in workbook order, each sheet's cells
    in the order the sheet lists them.  `formulas` are the workbook's
    parsed formula cells as `parse_workbook` returns them for a workbook
    without syntax errors (see `checked_formulas`).
    """
    contents: Contents = {}
    for sheet in workbook.sheets:
        contents.update(sheet.cells)
    contents.update(formulas)
    return contents


def cell_value(
    contents: Contents,
    sheets: frozenset[str] | set[str],
    address: CellAddress,
    memo: dict[CellAddress, Value],
) -> Value:
    """Evaluate one cell on demand, memoizing into `memo`.

    References to sheets outside `sheets` read as BAD_REF; a reference back
    into a cell currently being evaluated reads as CYCLE, which then
    propagates to every cell on the cycle.

    Formula cells wait on an explicit stack instead of recursing, so a
    chain of any length evaluates.  A formula whose references are not all
    known yet is evaluated once with placeholders to list them, and again
    after they are; the cells it waits on run in the order recursive
    evaluation would reach them, so CYCLE lands on the same cells.
    """
    visiting: set[CellAddress] = set()
    waiting: list[CellAddress] = []

    def resolve(target: CellAddress) -> Value:
        cached = memo.get(target)
        if cached is not None:
            return cached
        if target.sheet not in sheets:
            return BAD_REF
        if target in visiting:
            return CYCLE
        content = contents.get(target, BLANK)
        if isinstance(content, VALUE_TYPES):
            memo[target] = content
            return content
        waiting.append(target)
        return BLANK  # placeholder: the reading formula runs again later

    value = resolve(address)
    if not waiting:
        return value
    stack = waiting[:]
    while stack:
        target = stack[-1]
        if target in memo:  # reached meanwhile through another reference
            stack.pop()
            continue
        visiting.add(target)
        waiting.clear()
        value = _eval(contents[target], resolve)
        if waiting:
            stack.extend(reversed(waiting))
            continue
        visiting.discard(target)
        memo[target] = value
        stack.pop()
    return memo[address]


def evaluate(workbook: Workbook, formulas: Mapping[CellAddress, FormulaAst] | None = None) -> dict[CellAddress, Value]:
    """Evaluate every cell of a workbook.

    The result covers every constant cell, every formula cell and every
    cell referenced by a formula (blank when absent); referenced addresses
    on nonexistent sheets are not part of the grid, the referring formula
    simply evaluates to BAD_REF.  `formulas` are the workbook's parsed
    formula cells (see `checked_formulas`), parsed here when not given;
    the workbook must have passed the syntax check.  Evaluation starts at
    the formula cells in the order of `formulas`, which decides where
    CYCLE lands, so it does not depend on the order a file lists its
    cells in.
    """
    if formulas is None:
        formulas = checked_formulas(workbook)
    contents = workbook_contents(workbook, formulas)
    sheets = frozenset(workbook.sheet_names())
    memo = dict(contents)
    for address in formulas:
        del memo[address]
    for address in formulas:
        if address not in memo:  # a formula cell not yet reached through a reference
            cell_value(contents, sheets, address, memo)
    return memo  # cell_value memoizes no cell on a sheet outside `sheets`
