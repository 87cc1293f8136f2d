"""Workbook, cell and value model plus the workbook file format.

A workbook is an ordered collection of named sheets; each sheet maps cell
addresses to their contents, either a constant value or a formula source
string.  All types in this module are immutable after construction and can
be shared freely between threads.

Workbook file format (UTF-8 JSON)::

    {"name": "<workbook>",
     "sheets": [{"name": "<sheet>", "cells": {"B3": 92, "D3": "=(B3-C3)/2"}}]}

Cell entries are classified by their JSON type: numbers and booleans are
constants, a string starting with "=" is a formula source, a string
starting with "'" is a text constant with the apostrophe stripped, and any
other string is a plain text constant.  Addresses are uppercase A1-style
keys; addresses that are not listed denote blank cells.  Unknown fields,
duplicate keys and malformed addresses are rejected.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Mapping


class AddressError(ValueError):
    """Raised for malformed cell address text."""


class WorkbookFormatError(ValueError):
    """Raised when workbook file content violates the file format."""


# --------------------------------------------------------------------------
# Addresses
# --------------------------------------------------------------------------

_ADDRESS_RE = re.compile(r"(?:([A-Za-z_][A-Za-z0-9_]*)!)?([A-Za-z]+)([1-9][0-9]*)")
_STRICT_KEY_RE = re.compile(r"([A-Z]+)([1-9][0-9]*)")

DEFAULT_SHEET = "Sheet1"


def column_letters(index: int) -> str:
    """Render a 1-based column index as letters (1 -> A, 26 -> Z, 27 -> AA)."""
    if index < 1:
        raise AddressError(f"column index must be positive, got {index}")
    letters = ""
    while index:
        index, rem = divmod(index - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


def column_index(letters: str) -> int:
    """Parse column letters into a 1-based index."""
    if not letters or not letters.isalpha() or not letters.isascii():
        raise AddressError(f"bad column letters: {letters!r}")
    index = 0
    for ch in letters.upper():
        index = index * 26 + (ord(ch) - ord("A") + 1)
    return index


# The field getters of a namedtuple are C-level descriptors that read one
# slot of any tuple, as fast as indexing; CellAddress borrows them.
_AddressLayout = namedtuple("_AddressLayout", ("sheet", "row", "col"))


class CellAddress(tuple):
    """A cell position: sheet name plus 1-based column and row indices.

    The constructor takes (sheet, col, row), but the address is stored as
    the tuple (sheet, row, col), so hashing, equality and the natural
    order run in C and the natural order is row-major.  An address
    compares equal to the plain tuple (sheet, row, col).
    """

    __slots__ = ()

    sheet = _AddressLayout.sheet
    row = _AddressLayout.row
    col = _AddressLayout.col

    def __new__(cls, sheet: str, col: int, row: int) -> CellAddress:
        if col < 1 or row < 1:
            raise AddressError(f"column and row must be positive, got {col}, {row}")
        return tuple.__new__(cls, (sheet, row, col))

    @classmethod
    def _trusted(cls, sheet: str, col: int, row: int) -> CellAddress:
        """An address whose column and row are known to be at least 1; no check."""
        return tuple.__new__(cls, (sheet, row, col))

    def __getnewargs__(self) -> tuple[str, int, int]:  # pickle and copy call __new__
        sheet, row, col = self
        return (sheet, col, row)

    def text(self, qualified: bool = False) -> str:
        plain = f"{column_letters(self.col)}{self.row}"
        return f"{self.sheet}!{plain}" if qualified else plain

    @property
    def key(self) -> tuple[str, int, int]:
        """Row-major sort key (sheet, row, column): the address as a plain tuple."""
        return tuple(self)

    def __repr__(self) -> str:  # compact: CellAddress('Sheet1'!D3)
        return f"CellAddress({self.sheet!r}!{self.text()})"


def parse_address(text: str, sheet: str = DEFAULT_SHEET) -> CellAddress:
    """Parse an A1-style address, optionally qualified as "Sheet!A1".

    Letters are case-insensitive; `sheet` supplies the sheet name when the
    text carries no qualifier.
    """
    match = _ADDRESS_RE.fullmatch(text.strip())
    if not match:
        raise AddressError(f"malformed cell address: {text!r}")
    qualifier, letters, row = match.groups()
    return CellAddress(qualifier or sheet, column_index(letters), int(row))


def row_major(addresses: Iterable[CellAddress]) -> tuple[CellAddress, ...]:
    """Addresses sorted row-major (by sheet, then row, then column)."""
    return tuple(sorted(addresses))


# --------------------------------------------------------------------------
# Values
# --------------------------------------------------------------------------


class ErrorKind(Enum):
    DIV_ZERO = "#DIV/0!"
    BAD_REF = "#REF!"
    CYCLE = "#CYCLE!"
    BAD_VALUE = "#VALUE!"


@dataclass(frozen=True)
class Blank:
    """The value of a cell that holds nothing."""


@dataclass(frozen=True)
class Number:
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"cell numbers must be finite, got {self.value!r}")


@dataclass(frozen=True)
class Text:
    value: str


@dataclass(frozen=True)
class Boolean:
    value: bool


@dataclass(frozen=True)
class CellError:
    kind: ErrorKind


Value = Blank | Number | Text | Boolean | CellError
VALUE_TYPES = (Blank, Number, Text, Boolean, CellError)

BLANK = Blank()


def format_number(value: float) -> str:
    """Render a number the way formulas and messages display it."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def format_value(value: Value) -> str:
    """Plain-text rendering of a value (blank renders as empty text)."""
    if isinstance(value, Number):
        return format_number(value.value)
    if isinstance(value, Text):
        return value.value
    if isinstance(value, Boolean):
        return "TRUE" if value.value else "FALSE"
    if isinstance(value, CellError):
        return value.kind.value
    return ""


# --------------------------------------------------------------------------
# Cells, sheets, workbooks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    """Unparsed formula content; the source keeps its leading "="."""

    source: str


CellContent = Value | Formula


@dataclass(frozen=True)
class Sheet:
    """A named sheet: `cells` maps each listed address to its content; the rest are blank."""

    name: str
    cells: Mapping[CellAddress, CellContent]


@dataclass(frozen=True)
class Workbook:
    name: str
    sheets: tuple[Sheet, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.sheets]
        if len(set(names)) != len(names):
            raise WorkbookFormatError(f"duplicate sheet names in workbook {self.name!r}")

    def sheet_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.sheets)

    def sheet(self, name: str) -> Sheet | None:
        for s in self.sheets:
            if s.name == name:
                return s
        return None

    def content(self, address: CellAddress) -> CellContent:
        """Cell content at `address`; absent addresses read as Blank."""
        s = self.sheet(address.sheet)
        return s.cells.get(address, BLANK) if s else BLANK

    def formula_items(self) -> list[tuple[CellAddress, Formula]]:
        """(address, formula) per formula cell, sheets in workbook order, row-major within each.

        Only the formula cells are sorted.
        """
        items: list[tuple[CellAddress, Formula]] = []
        for s in self.sheets:
            items += sorted([(a, c) for a, c in s.cells.items() if isinstance(c, Formula)])
        return items


# --------------------------------------------------------------------------
# File format
# --------------------------------------------------------------------------


def _reject_duplicates(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise WorkbookFormatError(f"duplicate key {key!r}")
            seen.add(key)
    return doc


def _reject_nonfinite(token: str) -> float:
    raise WorkbookFormatError(f"non-finite number {token!r} is not allowed")


def _classify(raw: Any, address: CellAddress) -> CellContent:
    if isinstance(raw, bool):
        return Boolean(raw)
    if isinstance(raw, (int, float)):
        try:
            return Number(float(raw))
        except (ValueError, OverflowError) as exc:  # 1e999 is infinite, 10**400 too large
            raise WorkbookFormatError(f"cell {address.text(qualified=True)}: {exc}") from exc
    if isinstance(raw, str):
        if raw.startswith("="):
            return Formula(raw)
        if raw.startswith("'"):
            return Text(raw[1:])
        return Text(raw)
    raise WorkbookFormatError(f"cell {address.text(qualified=True)}: unsupported value {raw!r}")


def _sheet_from_doc(doc: Any, position: str, numbers: dict[int | float, CellContent]) -> Sheet:
    """Read one sheet; `numbers` holds the workbook's Number per JSON number so far."""
    if not isinstance(doc, dict):
        raise WorkbookFormatError(f"{position}: sheet must be an object")
    unknown = set(doc) - {"name", "cells"}
    if unknown:
        raise WorkbookFormatError(f"{position}: unknown field {sorted(unknown)[0]!r}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise WorkbookFormatError(f"{position}: sheet name must be non-empty text")
    cells_doc = doc.get("cells", {})
    if not isinstance(cells_doc, dict):
        raise WorkbookFormatError(f"sheet {name!r}: cells must be an object")
    cells: dict[CellAddress, CellContent] = {}
    columns: dict[str, int] = {}  # column index by letters
    address_of = CellAddress._trusted  # the key pattern admits no row or column below 1
    for key, raw in cells_doc.items():
        match = _STRICT_KEY_RE.fullmatch(key)
        if not match:
            raise WorkbookFormatError(f"sheet {name!r}: bad cell address key {key!r}")
        letters, row = match.groups()
        col = columns.get(letters)
        if col is None:
            col = columns[letters] = column_index(letters)
        address = address_of(name, col, int(row))
        # Equal numbers share one Number.  The exact type test leaves out
        # bool (True == 1), and float zeros are not shared because -0.0 and
        # 0.0 are equal keys of different sign.
        kind = type(raw)
        if kind is int or (kind is float and raw):
            content = numbers.get(raw)
            if content is None:
                content = numbers[raw] = _classify(raw, address)
        else:
            content = _classify(raw, address)
        cells[address] = content
    return Sheet(name, cells)


def workbook_from_doc(doc: Any) -> Workbook:
    """Build a workbook from its parsed JSON document; see `read_workbook`."""
    if not isinstance(doc, dict):
        raise WorkbookFormatError("workbook document must be an object")
    unknown = set(doc) - {"name", "sheets"}
    if unknown:
        raise WorkbookFormatError(f"unknown top-level field {sorted(unknown)[0]!r}")
    name = doc.get("name")
    if not isinstance(name, str):
        raise WorkbookFormatError("workbook needs a text 'name' field")
    sheets_doc = doc.get("sheets")
    if not isinstance(sheets_doc, list):
        raise WorkbookFormatError("workbook needs a 'sheets' list")
    numbers: dict[int | float, CellContent] = {}
    sheets = tuple(
        _sheet_from_doc(sheet_doc, f"sheets[{index}]", numbers) for index, sheet_doc in enumerate(sheets_doc)
    )
    return Workbook(name, sheets)


def read_workbook(text: str) -> Workbook:
    """Parse workbook file text.

    Formulas are kept as unparsed source here; the formula language module
    parses them.  Structural violations raise WorkbookFormatError.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicates, parse_constant=_reject_nonfinite)
    except WorkbookFormatError:
        raise
    except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
        raise WorkbookFormatError(f"invalid workbook JSON: {exc}") from exc
    return workbook_from_doc(doc)


def _encode(content: CellContent) -> Any:
    if isinstance(content, Number):
        return int(content.value) if content.value == int(content.value) else content.value
    if isinstance(content, Boolean):
        return content.value
    if isinstance(content, Text):
        if content.value.startswith(("=", "'")):
            return "'" + content.value
        return content.value
    if isinstance(content, Formula):
        return content.source
    raise ValueError(f"cannot encode cell content {content!r}")


def write_workbook(workbook: Workbook) -> str:
    """Serialize a workbook so that reading it back yields an equal workbook.

    Cells are emitted in row-major order per sheet.  Explicit Blank
    constants are omitted: an absent address already reads as blank.
    """
    doc = {
        "name": workbook.name,
        "sheets": [
            {
                "name": sheet.name,
                "cells": {
                    address.text(): _encode(content)
                    for address, content in sorted(sheet.cells.items())
                    if not isinstance(content, Blank)
                },
            }
            for sheet in workbook.sheets
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
