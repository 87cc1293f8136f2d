"""Formula language: lexing, parsing, reference extraction, canonical forms.

Operator precedence, loosest first: comparisons, text concatenation "&",
additive "+ -", multiplicative "* /", unary sign, exponentiation "^".
All binary operators are left-associative except "^", which is
right-associative and binds tighter than unary sign.  Function names are
case-insensitive, AVERAGE is an alias for AVG, and both "," and ";" are
accepted as argument separators.  The full grammar ships in the README.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .grid import (
    DEFAULT_SHEET,
    CellAddress,
    Workbook,
    column_index,
    column_letters,
    format_number,
    row_major,
)

SUPPORTED_FUNCTIONS = frozenset({"SUM", "AVG", "COUNT", "MIN", "MAX", "IF", "ROUND", "ABS"})
FUNCTION_ALIASES = {"AVERAGE": "AVG"}

DEFAULT_RANGE_LIMIT = 10_000

# Deepest nesting of parentheses, function calls, signs and exponents a
# formula may use, as in Excel.  It bounds the recursion of the parser and
# of every later stage that descends into nested subexpressions.
MAX_NESTING = 64


class FormulaError(ValueError):
    """Base for formula-stage failures; carries the source position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.position = position


class FormulaSyntaxError(FormulaError):
    pass


class UnknownFunctionError(FormulaError):
    pass


class RangeCapacityError(ValueError):
    """A range expands to more cells than the configured bound."""


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


class UnaryOp(Enum):
    NEG = "-"
    POS = "+"

    @property
    def symbol(self) -> str:
        return self.value


class BinOp(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    POW = "^"
    CONCAT = "&"
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    __hash__ = object.__hash__  # members are singletons: operator tables look them up without a Python call

    @property
    def symbol(self) -> str:
        return self.value


@dataclass(frozen=True)
class NumberLit:
    value: float


@dataclass(frozen=True)
class TextLit:
    text: str


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class CellRef:
    address: CellAddress
    col_absolute: bool = False
    row_absolute: bool = False


@dataclass(frozen=True)
class RangeRef:
    """A rectangular cell range; `start` is always the top-left corner."""

    start: CellRef
    end: CellRef


@dataclass(frozen=True)
class Unary:
    op: UnaryOp
    operand: "FormulaAst"


@dataclass(frozen=True)
class Binary:
    op: BinOp
    left: "FormulaAst"
    right: "FormulaAst"


@dataclass(frozen=True)
class FuncCall:
    name: str
    args: tuple["FormulaAst", ...]


@dataclass(frozen=True)
class Chain:
    """A canonical "+" or "*" chain: one operator over two or more operands.

    `refs` holds the chain's cell references as rectangles, RangeRefs
    whose corners carry the same `$` flags.  They are the canonical
    decomposition of the referenced cells as a multiset, so `A1+A2+A3`,
    `SUM(A1:A3)` and `SUM(A1:A2)+A3` hold the one rectangle A1:A3, and
    `SUM(A1:A3,A2)` holds A1:A3 and A2.  `operands` holds every other
    operand, sorted by `node_key`.  Only `canonicalize` builds chains.
    """

    op: BinOp
    refs: tuple[RangeRef, ...]
    operands: tuple["FormulaAst", ...]

    @property
    def size(self) -> int:
        """The expanded operand count: a rectangle counts by its area."""
        return sum(map(range_size, self.refs)) + len(self.operands)

    def cells(self) -> list[tuple[CellAddress, bool, bool]]:
        """Every referenced cell with its flags, once per reference, sorted.

        Cells sort row-major, then by flags: the order of the cell operands
        in the expanded chain, where they precede all other operands.  A
        rectangle over the range limit raises RangeCapacityError, as in
        `range_addresses`.
        """
        return sorted(
            (address, ref.start.col_absolute, ref.start.row_absolute)
            for ref in self.refs
            for address in range_addresses(ref)
        )


FormulaAst = NumberLit | TextLit | BoolLit | CellRef | RangeRef | Unary | Binary | FuncCall | Chain


def range_size(ref: RangeRef) -> int:
    _, top, left = ref.start.address
    _, bottom, right = ref.end.address
    return (right - left + 1) * (bottom - top + 1)


def range_addresses(ref: RangeRef) -> list[CellAddress]:
    """Expand a range to its member addresses, row-major."""
    if range_size(ref) > DEFAULT_RANGE_LIMIT:
        raise RangeCapacityError(_over_limit(ref))
    return _cells(*_box(ref))


def _over_limit(ref: RangeRef) -> str:
    return f"range {render_reference(ref)} covers {range_size(ref)} cells, limit is {DEFAULT_RANGE_LIMIT}"


# A rectangle of cells on one sheet: (sheet, top, left, bottom, right).
_Box = tuple[str, int, int, int, int]


def _box(ref: CellRef | RangeRef) -> _Box:
    start, end = (ref.start, ref.end) if isinstance(ref, RangeRef) else (ref, ref)
    sheet, top, left = start.address
    _, bottom, right = end.address
    return sheet, top, left, bottom, right


def _cells(sheet: str, top: int, left: int, bottom: int, right: int) -> list[CellAddress]:
    # Every member lies between two valid corners, so the members are built
    # as (sheet, row, col) tuples directly, without the constructor's check.
    new = tuple.__new__
    return [
        new(CellAddress, (sheet, row, col))
        for row in range(top, bottom + 1)
        for col in range(left, right + 1)
    ]


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<NUMBER>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<STRING>"(?:[^"]|"")*")
    | (?P<CELLREF>(?P<CABS>\$?)(?P<CCOL>[A-Za-z]+)(?P<RABS>\$?)(?P<CROW>[1-9][0-9]*))
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<OP><=|>=|<>|[=<>+\-*/^&])
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<COLON>:)
    | (?P<SEP>[,;])
    | (?P<BANG>!)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int
    parts: tuple[str, ...] = ()


def _tokenize(source: str, offset: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if not match:
            raise FormulaSyntaxError(f"unexpected character {source[pos]!r}", offset + pos)
        kind = match.lastgroup or ""
        if kind != "WS":
            parts: tuple[str, ...] = ()
            if kind == "CELLREF":
                parts = (match["CABS"], match["CCOL"], match["RABS"], match["CROW"])
            tokens.append(_Token(kind, match.group(), offset + pos, parts))
        pos = match.end()
    tokens.append(_Token("END", "", offset + pos))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

# Operator precedence, the one table the parser and the renderer read.
_PREC_COMPARE = 1
_PREC_CONCAT = 2
_PREC_ADD = 3
_PREC_MUL = 4
_PREC_UNARY = 5
_PREC_POW = 6
_PREC_ATOM = 7

_BIN_PREC = {
    BinOp.EQ: _PREC_COMPARE,
    BinOp.NE: _PREC_COMPARE,
    BinOp.LT: _PREC_COMPARE,
    BinOp.LE: _PREC_COMPARE,
    BinOp.GT: _PREC_COMPARE,
    BinOp.GE: _PREC_COMPARE,
    BinOp.CONCAT: _PREC_CONCAT,
    BinOp.ADD: _PREC_ADD,
    BinOp.SUB: _PREC_ADD,
    BinOp.MUL: _PREC_MUL,
    BinOp.DIV: _PREC_MUL,
    BinOp.POW: _PREC_POW,
}

# The operators `expression` climbs over, by token text.  "^" is left to
# `power`: it binds tighter than a sign and is right-associative.
_CLIMBED = {op.symbol: (op, prec) for op, prec in _BIN_PREC.items() if op is not BinOp.POW}


class _Parser:
    def __init__(self, tokens: list[_Token], sheet: str):
        self.tokens = tokens
        self.sheet = sheet
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise FormulaSyntaxError(f"expected {what}", token.pos)
        return self.take()

    def at_op(self, *symbols: str) -> bool:
        token = self.tokens[self.index]
        return token.kind == "OP" and token.text in symbols

    def nest(self, token: _Token) -> None:
        """Enter one nesting level at `token`; the caller leaves it with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormulaSyntaxError("formula is nested too deeply", token.pos)

    def expression(self, floor: int = _PREC_COMPARE) -> FormulaAst:
        """An expression whose binary operators bind at least as tightly as `floor`.

        Operators of one level loop, so they associate to the left; only a
        tighter operator's right operand descends a level.
        """
        node = self.unary()
        while True:
            token = self.tokens[self.index]
            climbed = _CLIMBED.get(token.text) if token.kind == "OP" else None
            if climbed is None or climbed[1] < floor:
                return node
            self.index += 1
            op, prec = climbed
            node = Binary(op, node, self.expression(prec + 1))

    def unary(self) -> FormulaAst:
        if self.at_op("-", "+"):
            sign = self.take()
            self.nest(sign)
            node = Unary(UnaryOp.NEG if sign.text == "-" else UnaryOp.POS, self.unary())
            self.depth -= 1
            return node
        return self.power()

    def power(self) -> FormulaAst:
        node = self.atom()
        if self.at_op("^"):
            caret = self.take()
            self.nest(caret)
            node = Binary(BinOp.POW, node, self.unary())
            self.depth -= 1
        return node

    def atom(self) -> FormulaAst:
        token = self.peek()
        if token.kind == "NUMBER":
            self.take()
            return NumberLit(float(token.text))
        if token.kind == "STRING":
            self.take()
            return TextLit(token.text[1:-1].replace('""', '"'))
        if token.kind == "CELLREF":
            return self.reference(self.sheet)
        if token.kind == "IDENT":
            return self.ident()
        if token.kind == "LPAREN":
            self.nest(self.take())
            node = self.expression()
            self.expect("RPAREN", "')'")
            self.depth -= 1
            return node
        raise FormulaSyntaxError(f"unexpected {token.text!r}" if token.text else "unexpected end of formula", token.pos)

    def ident(self) -> FormulaAst:
        token = self.take()
        following = self.peek()
        if following.kind == "BANG":
            self.take()
            if self.peek().kind != "CELLREF":
                raise FormulaSyntaxError("expected a cell address after '!'", self.peek().pos)
            return self.reference(token.text)
        if following.kind == "LPAREN":
            name = token.text.upper()
            name = FUNCTION_ALIASES.get(name, name)
            if name not in SUPPORTED_FUNCTIONS:
                raise UnknownFunctionError(f"unknown function {token.text!r}", token.pos)
            self.nest(self.take())
            args: list[FormulaAst] = []
            if self.peek().kind != "RPAREN":
                args.append(self.expression())
                while self.peek().kind == "SEP":
                    self.take()
                    args.append(self.expression())
            self.expect("RPAREN", "')' to close the argument list")
            self.depth -= 1
            return FuncCall(name, tuple(args))
        upper = token.text.upper()
        if upper == "TRUE":
            return BoolLit(True)
        if upper == "FALSE":
            return BoolLit(False)
        raise UnknownFunctionError(f"unknown name {token.text!r}", token.pos)

    def reference(self, sheet: str) -> FormulaAst:
        position = self.tokens[self.index].pos
        first = self.cell_ref(sheet)
        if self.peek().kind != "COLON":
            return first
        colon = self.take()
        if self.peek().kind == "IDENT":  # qualified second corner: must be the same sheet
            qualifier = self.take()
            self.expect("BANG", "'!'")
            if qualifier.text != sheet:
                raise FormulaSyntaxError("range corners must be on the same sheet", qualifier.pos)
        if self.peek().kind != "CELLREF":
            raise FormulaSyntaxError("expected a cell address after ':'", colon.pos)
        second = self.cell_ref(sheet)
        return _normalized_range(first, second, position)

    def cell_ref(self, sheet: str) -> CellRef:
        token = self.expect("CELLREF", "a cell address")
        col_abs, letters, row_abs, row = token.parts
        return CellRef(
            CellAddress(sheet, column_index(letters), int(row)),
            col_absolute=bool(col_abs),
            row_absolute=bool(row_abs),
        )


def _normalized_range(a: CellRef, b: CellRef, position: int) -> RangeRef:
    """Order corners so `start` is top-left; flags travel with the coordinate.

    A range over the range limit is a syntax error at `position`, so every
    parsed range can be expanded.
    """
    if a.address.col <= b.address.col:
        left_col, left_abs, right_col, right_abs = a.address.col, a.col_absolute, b.address.col, b.col_absolute
    else:
        left_col, left_abs, right_col, right_abs = b.address.col, b.col_absolute, a.address.col, a.col_absolute
    if a.address.row <= b.address.row:
        top_row, top_abs, bottom_row, bottom_abs = a.address.row, a.row_absolute, b.address.row, b.row_absolute
    else:
        top_row, top_abs, bottom_row, bottom_abs = b.address.row, b.row_absolute, a.address.row, a.row_absolute
    sheet = a.address.sheet
    ref = RangeRef(
        CellRef(CellAddress(sheet, left_col, top_row), left_abs, top_abs),
        CellRef(CellAddress(sheet, right_col, bottom_row), right_abs, bottom_abs),
    )
    if range_size(ref) > DEFAULT_RANGE_LIMIT:
        raise FormulaSyntaxError(_over_limit(ref), position)
    return ref


def parse_formula(text: str, sheet: str = DEFAULT_SHEET) -> FormulaAst:
    """Parse formula source text (must start with "=") into an AST.

    Unqualified cell references resolve against `sheet`.  Raises
    FormulaSyntaxError or UnknownFunctionError with the offending position.
    """
    if not text.startswith("="):
        raise FormulaSyntaxError("formula source must start with '='", 0)
    parser = _Parser(_tokenize(text[1:], offset=1), sheet)
    node = parser.expression()
    trailing = parser.peek()
    if trailing.kind != "END":
        raise FormulaSyntaxError(f"unexpected {trailing.text!r} after expression", trailing.pos)
    return node


# --------------------------------------------------------------------------
# Whole-workbook syntax check
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntaxIssue:
    cell: CellAddress
    message: str
    position: int


@dataclass(frozen=True)
class SyntaxReport:
    errors: tuple[SyntaxIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def parse_workbook(
    workbook: Workbook, known: Mapping[tuple[str, str], FormulaAst] = {}
) -> tuple[dict[CellAddress, FormulaAst], SyntaxReport]:
    """Parse every formula cell once: the ASTs and the syntax report.

    The ASTs map each formula cell that parses, row-major, to its AST; the
    report lists every failure, row-major.  A cell whose (source, sheet)
    is a key of `known` takes that AST unparsed: a parse depends on that
    pair alone and ASTs are immutable, so the result is the same.  The
    engine parses formulas only here, and keeps no parse between calls.
    """
    formulas: dict[CellAddress, FormulaAst] = {}
    issues = []
    for address, formula in workbook.formula_items():
        text = (formula.source, address.sheet)
        ast = known.get(text)
        if ast is None:
            try:
                ast = parse_formula(*text)
            except FormulaError as exc:
                issues.append(SyntaxIssue(address, str(exc), exc.position))
                continue
        formulas[address] = ast
    return formulas, SyntaxReport(tuple(issues))


def syntax_check(workbook: Workbook) -> SyntaxReport:
    """Parse every formula cell; the report lists all failures row-major.

    A non-empty report means the workbook cannot be analyzed further and
    callers return an error instead of feedback.
    """
    return parse_workbook(workbook)[1]


# --------------------------------------------------------------------------
# Reference extraction
# --------------------------------------------------------------------------


def child_nodes(node: FormulaAst) -> tuple[FormulaAst, ...]:
    """Direct subexpressions, left to right; range corners are not children."""
    if isinstance(node, Unary):
        return (node.operand,)
    if isinstance(node, Binary):
        return (node.left, node.right)
    if isinstance(node, FuncCall):
        return node.args
    if isinstance(node, Chain):
        return node.refs + node.operands
    return ()


def walk_ast(ast: FormulaAst) -> Iterator[FormulaAst]:
    """Every node in pre-order, children left to right.

    The walk keeps an explicit stack, so a formula as deep as a long
    hand-written sum never exhausts the recursion limit.
    """
    stack = [ast]
    while stack:
        node = stack.pop()
        yield node
        # child_nodes inlined: reference extraction walks every formula
        if isinstance(node, Binary):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, FuncCall):
            stack.extend(reversed(node.args))
        elif isinstance(node, Chain):
            stack.extend(reversed(node.operands))
            stack.extend(reversed(node.refs))


def references_of(ast: FormulaAst) -> tuple[CellAddress, ...]:
    """All cell addresses a formula references, deduplicated, row-major.

    Ranges expand to individual addresses; absoluteness flags are dropped.
    """
    found: list[CellAddress] = []
    for node in walk_ast(ast):
        if isinstance(node, CellRef):
            found.append(node.address)
        elif isinstance(node, RangeRef):
            found += range_addresses(node)
    # A range expands row-major, so the sort only merges a few sorted runs.
    return row_major(dict.fromkeys(found))


def reference_boxes(ast: FormulaAst) -> tuple[_Box, ...]:
    """The distinct references of a formula as boxes, in the order the formula lists them.

    A box is (sheet, top, left, bottom, right): a range is one box and a
    cell reference a 1x1 box; absoluteness flags are dropped.  No range is
    expanded.
    """
    boxes: dict[_Box, None] = {}
    for node in walk_ast(ast):
        if isinstance(node, CellRef):
            sheet, row, col = node.address
            boxes[sheet, row, col, row, col] = None
        elif isinstance(node, RangeRef):
            boxes[_box(node)] = None
    return tuple(boxes)


# --------------------------------------------------------------------------
# Rectangle arithmetic
# --------------------------------------------------------------------------


# A box of cells on one sheet with a weight: (top, left, bottom, right, weight).
WeightedBox = tuple[int, int, int, int, int]

# Bands of rows, each cut into pieces of columns: (top, bottom, [(left, right, weight), ...]).
Bands = list[tuple[int, int, list[tuple[int, int, int]]]]


def cover(boxes: Sequence[WeightedBox]) -> Bands:
    """Cut weighted boxes on one sheet into pieces of constant total weight.

    The rows between two consecutive box edges form a band, and a band is
    cut where the summed weight of the boxes over it changes.  Returns the
    bands from the top as (top, bottom, pieces), each piece (left, right,
    weight) with the summed weight of the boxes that cover it, left to
    right; pieces of weight zero and bands without pieces are left out.
    No cell is visited: the net change of weight at each column edge of
    the live boxes is kept, and updated only on the rows where a box
    starts or ends.
    """
    if len(boxes) == 1:
        top, left, bottom, right, weight = boxes[0]
        return [(top, bottom, [(left, right, weight)])] if weight else []
    events: dict[int, list[tuple[int, int, int]]] = {}  # row -> (left, right, change) of boxes that start or end
    for top, left, bottom, right, weight in boxes:
        events.setdefault(top, []).append((left, right, weight))
        events.setdefault(bottom + 1, []).append((left, right, -weight))
    deltas: dict[int, int] = {}  # column -> net change of weight there, never 0
    bands: Bands = []
    rows = sorted(events)
    for top, next_edge in zip(rows, rows[1:]):
        for left, right, weight in events[top]:
            for col, change in ((left, weight), (right + 1, -weight)):
                change += deltas.get(col, 0)
                if change:
                    deltas[col] = change
                else:
                    deltas.pop(col, None)  # a box of weight 0 adds no key
        pieces = []
        weight = start = 0
        for col, change in sorted(deltas.items()):
            if weight:
                pieces.append((start, col - 1, weight))
            weight += change
            start = col
        if pieces:
            bands.append((top, next_edge - 1, pieces))
    return bands


def _rectangles(boxes: list[tuple[int, int, int, int]]) -> list[tuple[int, int, int, int]]:
    """The canonical decomposition of a multiset of cells given as boxes.

    Layer k holds the cells covered k or more times.  Each layer splits
    into maximal runs per row, and a run with the same columns in
    consecutive rows grows one rectangle, so equal multisets give equal
    rectangle lists whatever boxes they came as.
    """
    tops, lefts, bottoms, rights = zip(*boxes)
    top, left, bottom, right = min(tops), min(lefts), max(bottoms), max(rights)
    if tops == bottoms and lefts == rights and len(set(boxes)) == len(boxes) == (bottom - top + 1) * (right - left + 1):
        return [(top, left, bottom, right)]  # distinct cells that fill their bounding box, as in A1+A2+A3
    done: list[tuple[int, int, int, int]] = []
    growing: dict[tuple[int, int, int], tuple[int, int]] = {}  # (layer, left, right) -> (top, bottom)
    for top, bottom, pieces in cover([(*box, 1) for box in boxes]):
        runs: list[tuple[int, int, int]] = []
        starts: list[int] = []  # starts[k]: first column of the open run of layer k + 1
        end = 0
        for left, right, level in pieces:
            if starts and left != end + 1:  # a gap closes every layer
                runs += [(k + 1, start, end) for k, start in enumerate(starts)]
                starts = []
            while len(starts) > level:
                runs.append((len(starts), starts.pop(), left - 1))
            while len(starts) < level:
                starts.append(left)
            end = right
        runs += [(k + 1, start, end) for k, start in enumerate(starts)]
        grown = {}
        for run in runs:
            above = growing.pop(run, None)
            if above is not None and above[1] == top - 1:
                grown[run] = (above[0], bottom)
            else:
                if above is not None:
                    done.append((above[0], run[1], above[1], run[2]))
                grown[run] = (top, bottom)
        done += [(rows[0], left, rows[1], right) for (_, left, right), rows in growing.items()]
        growing = grown
    done += [(rows[0], left, rows[1], right) for (_, left, right), rows in growing.items()]
    return done


def disjoint_boxes(boxes: Iterable[_Box]) -> list[_Box]:
    """Boxes that cover the same cells as `boxes`, each cell once.

    The boxes of each sheet are cut into the pieces of their `cover`; the
    sheets come in the order they first appear.
    """
    by_sheet: dict[str, list[WeightedBox]] = {}
    for sheet, top, left, bottom, right in boxes:
        by_sheet.setdefault(sheet, []).append((top, left, bottom, right, 1))
    return [
        (sheet, top, left, bottom, right)
        for sheet, sheet_boxes in by_sheet.items()
        for top, bottom, pieces in cover(sheet_boxes)
        for left, right, _ in pieces
    ]


def distinct_cells(refs: Iterable[CellRef | RangeRef]) -> int:
    """How many distinct cells the references cover, flags aside."""
    boxes = disjoint_boxes([_box(ref) for ref in refs])
    return sum((bottom - top + 1) * (right - left + 1) for _, top, left, bottom, right in boxes)


RefItem = tuple[CellAddress, bool, bool]


def reference_difference(a: FormulaAst, b: FormulaAst) -> tuple[list[RefItem], list[RefItem]]:
    """The cell references `a` has beyond `b`, and those `b` has beyond `a`.

    Each formula references a multiset of (address, col_absolute,
    row_absolute) items: one per CellRef and one per cell of a range,
    which takes the flags of its start corner.  Both differences list
    their items with multiplicity, sorted row-major.  Cells the two
    formulas share are never expanded.
    """
    groups: dict[tuple[str, bool, bool], tuple[list, list]] = {}
    for side, ast in enumerate((a, b)):
        for node in walk_ast(ast):
            if isinstance(node, (CellRef, RangeRef)):
                start = node.start if isinstance(node, RangeRef) else node
                sheet, *box = _box(node)
                key = (sheet, start.col_absolute, start.row_absolute)
                groups.setdefault(key, ([], []))[side].append(box)
    missing: list[RefItem] = []
    surplus: list[RefItem] = []
    for (sheet, col_abs, row_abs), (mine, theirs) in groups.items():
        if sorted(mine) == sorted(theirs):
            continue
        weighted = [(*box, 1) for box in mine] + [(*box, -1) for box in theirs]
        for top, bottom, pieces in cover(weighted):
            for left, right, weight in pieces:
                items = [(address, col_abs, row_abs) for address in _cells(sheet, top, left, bottom, right)]
                (missing if weight > 0 else surplus).extend(items * abs(weight))
    missing.sort()
    surplus.sort()
    return missing, surplus


# --------------------------------------------------------------------------
# Canonical forms
# --------------------------------------------------------------------------

_CHAIN_OPS = (BinOp.ADD, BinOp.MUL)


def _rect_key(ref: RangeRef) -> tuple:
    return (ref.start.address, ref.end.address, ref.start.col_absolute, ref.start.row_absolute)


def node_key(node: FormulaAst) -> tuple:
    """Deterministic total order: references row-major, then literals by value.

    The key lists node labels in pre-order; a marker that sorts first closes
    each function's arguments and each chain's operands, so keys order ASTs
    node by node and equal keys mean equal ASTs.  A chain's rectangles are
    one label.  It is built, compared and hashed without recursion.
    """
    key: list[object] = []
    stack: list[FormulaAst | None] = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, CellRef):
            key += (0, node.address, node.col_absolute, node.row_absolute)  # an address sorts row-major
        elif isinstance(node, NumberLit):
            key += (1, node.value)
        elif isinstance(node, TextLit):
            key += (2, node.text)
        elif isinstance(node, BoolLit):
            key += (3, node.value)
        elif isinstance(node, RangeRef):
            key.append(4)
            stack += (node.end, node.start)
        elif isinstance(node, Unary):
            key += (5, node.op.name)
            stack.append(node.operand)
        elif isinstance(node, Binary):
            key += (6, node.op.name)
            stack += (node.right, node.left)
        elif isinstance(node, Chain):
            # sorts among the Binary nodes by operator; -1 comes before any child's label
            key += (6, node.op.name, -1, tuple(map(_rect_key, node.refs)))
            stack += (None, *reversed(node.operands))  # None closes the operands
        elif isinstance(node, FuncCall):
            key += (7, node.name)
            stack += (None, *reversed(node.args))  # None closes the argument list
        else:
            key.append(-1)
    return tuple(key)


def chain_operands(node: FormulaAst, op: BinOp) -> list[FormulaAst]:
    """Operands of the maximal `op` chain of Binary nodes rooted at `node`, left to right.

    A node that is not an `op` Binary is its own single operand.
    """
    operands: list[FormulaAst] = []
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Binary) and node.op is op:
            stack.append(node.right)
            stack.append(node.left)
        else:
            operands.append(node)
    return operands


def _canonical_chain(operands: list[FormulaAst], refs: list[CellRef | RangeRef], op: BinOp) -> FormulaAst:
    """The canonical `op` chain over canonical operands and cell references.

    Operands that are `op` chains are spliced in, references coalesce
    into rectangles per sheet and `$` flags, and the rest sort once.  No
    range is expanded.
    """
    others: list[FormulaAst] = []
    for operand in operands:
        if isinstance(operand, Chain) and operand.op is op:
            refs += operand.refs
            others += operand.operands
        elif isinstance(operand, CellRef):
            refs.append(operand)
        else:
            others.append(operand)
    groups: dict[tuple[str, bool, bool], list[CellRef | RangeRef]] = {}
    for ref in refs:
        start = ref.start if isinstance(ref, RangeRef) else ref
        groups.setdefault((start.address.sheet, start.col_absolute, start.row_absolute), []).append(ref)
    rects: list[RangeRef] = []
    new = tuple.__new__
    for (sheet, col_abs, row_abs), members in groups.items():
        if len(members) == 1:  # one reference is its own decomposition
            ref = members[0]
            if isinstance(ref, CellRef):
                rects.append(RangeRef(ref, ref))
                continue
            if ref.end.col_absolute is col_abs and ref.end.row_absolute is row_abs:
                rects.append(ref)
                continue
        # a corner that is one of the chain's cells is reused, not rebuilt
        corners = {ref.address: ref for ref in members if isinstance(ref, CellRef)}
        for top, left, bottom, right in _rectangles([_box(ref)[1:] for ref in members]):
            start, end = new(CellAddress, (sheet, top, left)), new(CellAddress, (sheet, bottom, right))
            rects.append(
                RangeRef(
                    corners.get(start) or CellRef(start, col_abs, row_abs),
                    corners.get(end) or CellRef(end, col_abs, row_abs),
                )
            )
    size = sum(map(range_size, rects)) + len(others)
    if size == 0:
        return NumberLit(0.0)
    if size == 1:
        return rects[0].start if rects else others[0]
    rects.sort(key=_rect_key)
    others.sort(key=node_key)
    return Chain(op, tuple(rects), tuple(others))


def canonicalize(ast: FormulaAst) -> FormulaAst:
    """Rewrite an AST to its canonical comparison form.

    Maximal "+" and "*" chains become one `Chain` each, with nested chains
    of the same operator spliced in.  SUM becomes a "+" chain of its
    arguments and AVG that chain divided by the static operand count, a
    range counting by its area.  A chain's cell references, from ranges
    and single cells alike, coalesce into rectangles; its other operands
    are sorted.  Double negation is dropped, except over a range, where it
    makes the formula #VALUE!, and no constant folding happens.  The
    rewrite is one bottom-up pass whose result is its own canonical form,
    and it expands no range: a chain over a 10,000-cell range is one node
    holding one rectangle.
    """
    if isinstance(ast, Unary):
        operand = canonicalize(ast.operand)
        if ast.op is UnaryOp.NEG and isinstance(operand, Unary) and operand.op is UnaryOp.NEG:
            if not isinstance(operand.operand, RangeRef):  # a signed range is #VALUE!, not its cells
                return operand.operand
        return Unary(ast.op, operand)
    if isinstance(ast, Binary):
        if ast.op in _CHAIN_OPS:
            # The chain's operands come off the input tree without recursing
            # along it, so a left-deep n-term chain costs one sort, not n.
            operands = [canonicalize(operand) for operand in chain_operands(ast, ast.op)]
            return _canonical_chain(operands, [], ast.op)
        # Other chains such as A1-A2-...-An stay left-deep: fold the left
        # spine in a loop instead of recursing down it.
        spine = []
        while isinstance(ast, Binary) and ast.op not in _CHAIN_OPS:
            spine.append(ast)
            ast = ast.left
        node = canonicalize(ast)
        for parent in reversed(spine):
            node = Binary(parent.op, node, canonicalize(parent.right))
        return node
    if isinstance(ast, FuncCall):
        args = [canonicalize(arg) for arg in ast.args]
        if ast.name in ("SUM", "AVG"):
            ranges = [arg for arg in args if isinstance(arg, RangeRef)]
            operands = [arg for arg in args if not isinstance(arg, RangeRef)]
            count = sum(map(range_size, ranges)) + len(operands)
            total = _canonical_chain(operands, ranges, BinOp.ADD)
            if ast.name == "SUM":
                return total
            return Binary(BinOp.DIV, total, NumberLit(float(count)))
        return FuncCall(ast.name, tuple(args))
    if isinstance(ast, Chain):
        return _canonical_chain([canonicalize(operand) for operand in ast.operands], list(ast.refs), ast.op)
    return ast


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def _prec(node: FormulaAst) -> int:
    if isinstance(node, (Binary, Chain)):
        return _BIN_PREC[node.op]
    if isinstance(node, Unary):
        return _PREC_UNARY
    return _PREC_ATOM


def render_reference(node: CellRef | RangeRef, sheet: str | None = None) -> str:
    """Render a reference, qualifying the sheet only when it differs."""
    if isinstance(node, RangeRef):
        return f"{render_reference(node.start, sheet)}:{render_reference(node.end, None)}"
    a = node.address
    prefix = "" if sheet is None or a.sheet == sheet else f"{a.sheet}!"
    col_mark = "$" if node.col_absolute else ""
    row_mark = "$" if node.row_absolute else ""
    return f"{prefix}{col_mark}{column_letters(a.col)}{row_mark}{a.row}"


def render_formula(ast: FormulaAst, sheet: str = DEFAULT_SHEET) -> str:
    """Pretty-print an AST with minimal parentheses; no leading "=".

    Parsing "=" + the result reproduces the AST, whitespace aside.  A
    `Chain` renders as the left-deep chain of its expanded operands, whose
    canonical form is that chain again.
    """
    if isinstance(ast, NumberLit):
        return format_number(ast.value)
    if isinstance(ast, TextLit):
        return '"' + ast.text.replace('"', '""') + '"'
    if isinstance(ast, BoolLit):
        return "TRUE" if ast.value else "FALSE"
    if isinstance(ast, (CellRef, RangeRef)):
        return render_reference(ast, sheet)
    if isinstance(ast, Unary):
        operand = render_formula(ast.operand, sheet)
        if _prec(ast.operand) < _PREC_UNARY:
            operand = f"({operand})"
        return f"{ast.op.symbol}{operand}"
    if isinstance(ast, Binary):
        # Left-associative chains such as A1-A2-...-An are left-deep: fold
        # the left spine in a loop instead of recursing down it.  Every
        # parenthesis around the text rendered so far opens at its start.
        spine = []
        while isinstance(ast, Binary):
            spine.append(ast)
            ast = ast.left
        opened = 0
        pieces = [render_formula(ast, sheet)]
        for parent in reversed(spine):
            right = render_formula(parent.right, sheet)
            if parent.op is BinOp.POW:
                # grammar: power := atom "^" unary (right-associative)
                wrap_left = _prec(parent.left) < _PREC_ATOM
                wrap_right = _prec(parent.right) < _PREC_UNARY
            else:
                wrap_left = _prec(parent.left) < _BIN_PREC[parent.op]
                wrap_right = _prec(parent.right) <= _BIN_PREC[parent.op]
            if wrap_left:
                opened += 1
                pieces.append(")")
            pieces.append(parent.op.symbol)
            pieces.append(f"({right})" if wrap_right else right)
        return "(" * opened + "".join(pieces)
    if isinstance(ast, Chain):
        # As the left-deep chain of its expanded operands, cells first
        pieces = [render_reference(CellRef(*cell), sheet) for cell in ast.cells()]
        for operand in ast.operands:
            text = render_formula(operand, sheet)
            wrap = _prec(operand) <= _BIN_PREC[ast.op] if pieces else _prec(operand) < _BIN_PREC[ast.op]
            pieces.append(f"({text})" if wrap else text)
        return ast.op.symbol.join(pieces)
    args = ",".join(render_formula(arg, sheet) for arg in ast.args)
    return f"{ast.name}({args})"
