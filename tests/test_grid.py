import copy
import gc
import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sheetcheck import (
    BLANK,
    AddressError,
    Boolean,
    CellAddress,
    Formula,
    Number,
    Text,
    WorkbookFormatError,
    column_index,
    column_letters,
    parse_address,
    read_workbook,
    row_major,
    write_workbook,
)

from conftest import addr, make_workbook, range_sum_cells


def test_parse_address_smallest():
    a = parse_address("A1")
    assert (a.col, a.row) == (1, 1)


def test_parse_address_d3():
    a = parse_address("D3")
    assert (a.col, a.row) == (4, 3)


def test_parse_address_case_insensitive():
    assert parse_address("d3") == parse_address("D3")


def test_parse_address_qualified():
    a = parse_address("Data!B2")
    assert a.sheet == "Data" and (a.col, a.row) == (2, 2)


@pytest.mark.parametrize("bad", ["3D", "", "A0", "A", "7", "A-1", "A1B"])
def test_parse_address_malformed(bad):
    with pytest.raises(AddressError):
        parse_address(bad)


def test_column_letters_known_points():
    assert column_letters(1) == "A"
    assert column_letters(26) == "Z"
    assert column_letters(27) == "AA"
    assert column_letters(52) == "AZ"
    assert column_letters(703) == "AAA"


def test_address_codec_roundtrip_1_to_10000():
    for col in range(1, 10001):
        assert column_index(column_letters(col)) == col


def test_render_parse_identity():
    a = addr("AB12")
    assert parse_address(a.text()) == a


# ---------------------------------------------------------------- the address type


@pytest.mark.parametrize("col, row", [(0, 1), (1, 0), (-3, 2), (0, 0)])
def test_address_rejects_non_positive_indices(col, row):
    with pytest.raises(AddressError):
        CellAddress("Sheet1", col, row)
    with pytest.raises(AddressError):
        CellAddress(sheet="Sheet1", col=col, row=row)


def test_address_fields_and_constructor_order():
    a = CellAddress("Data", 4, 3)
    assert (a.sheet, a.col, a.row) == ("Data", 4, 3)
    assert CellAddress(row=3, sheet="Data", col=4) == a
    assert a.text() == "D3" and a.text(qualified=True) == "Data!D3"
    assert a.key == ("Data", 3, 4)
    assert a == ("Data", 3, 4) and hash(a) == hash(("Data", 3, 4))


def test_address_repr_is_compact():
    assert repr(CellAddress("Sheet1", 4, 3)) == "CellAddress('Sheet1'!D3)"
    assert repr(CellAddress("Data", 28, 100)) == "CellAddress('Data'!AB100)"


@pytest.mark.parametrize("field", ["sheet", "col", "row", "other"])
def test_address_is_immutable(field):
    a = CellAddress("Sheet1", 1, 1)
    with pytest.raises(AttributeError):
        setattr(a, field, 2)
    assert a == CellAddress("Sheet1", 1, 1)


@pytest.mark.parametrize(
    "roundtrip",
    [lambda a: pickle.loads(pickle.dumps(a)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_address_copies_round_trip(roundtrip):
    a = CellAddress("Data", 28, 100)
    b = roundtrip(a)
    assert type(b) is CellAddress and b == a
    assert (b.sheet, b.col, b.row) == ("Data", 28, 100)


def test_address_hashes_and_compares_as_a_tuple():
    # Python-level __hash__ or __eq__ on addresses would slow every address-keyed map
    assert CellAddress.__hash__ is tuple.__hash__
    assert CellAddress.__eq__ is tuple.__eq__
    assert CellAddress.__lt__ is tuple.__lt__


@given(
    st.lists(
        st.builds(
            CellAddress,
            sheet=st.sampled_from(["Sheet1", "Data", "A", "b"]),
            col=st.integers(1, 40),
            row=st.integers(1, 40),
        ),
        max_size=40,
    )
)
def test_row_major_sorts_by_sheet_row_column(addresses):
    assert row_major(addresses) == tuple(sorted(addresses, key=lambda a: (a.sheet, a.row, a.col)))


def test_read_constant_number():
    wb = make_workbook({"B3": 92})
    assert wb.content(addr("B3")) == Number(92.0)


def test_read_formula_source_kept():
    wb = make_workbook({"D3": "=(B3-C3)/2"})
    content = wb.content(addr("D3"))
    assert content == Formula("=(B3-C3)/2")


def test_read_apostrophe_escapes_formula_text():
    wb = make_workbook({"A1": "'=x"})
    assert wb.content(addr("A1")) == Text("=x")


def test_read_boolean_and_text():
    wb = make_workbook({"A1": True, "A2": "hello"})
    assert wb.content(addr("A1")) == Boolean(True)
    assert wb.content(addr("A2")) == Text("hello")


@pytest.mark.parametrize(
    "cells, expected",
    [
        ({"A1": 1, "A2": True, "A3": 1.0}, ["Number(value=1.0)", "Boolean(value=True)", "Number(value=1.0)"]),
        ({"A1": False, "A2": 0}, ["Boolean(value=False)", "Number(value=0.0)"]),
        (
            {"A1": 0, "A2": -0.0, "A3": 0.0, "A4": -0.0},
            ["Number(value=0.0)", "Number(value=-0.0)", "Number(value=0.0)", "Number(value=-0.0)"],
        ),
    ],
)
def test_read_equal_numbers_keep_their_type_and_sign(cells, expected):
    wb = make_workbook(cells)
    assert [repr(wb.content(addr(key))) for key in cells] == expected


def test_reading_keeps_one_tracked_object_per_constant_cell():
    # The address: a sheet maps it to the content, and equal numbers of a
    # workbook share one Number.
    cells = range_sum_cells(100, 10)
    text = json.dumps({"name": "x", "sheets": [{"name": "S", "cells": cells}]})
    read_workbook(text)
    gc.collect()
    before = len(gc.get_objects())
    workbook = read_workbook(text)
    gc.collect()
    kept = len(gc.get_objects()) - before
    assert len(workbook.sheets[0].cells) == 1001
    assert kept <= 1001 + 50


def test_blank_closure():
    wb = make_workbook({"A1": 1})
    assert wb.content(addr("Z99")) == BLANK


def test_roundtrip_simple():
    wb = make_workbook({"A1": 1.5, "B2": "label", "C3": "=A1+1", "D4": True, "E5": "'=weird", "F6": "'quoted"})
    assert read_workbook(write_workbook(wb)) == wb


def test_roundtrip_empty():
    wb = make_workbook({})
    text = write_workbook(wb)
    assert read_workbook(text) == wb
    assert json.loads(text)["sheets"][0]["cells"] == {}


def test_roundtrip_solution_fixture(grades):
    assert read_workbook(write_workbook(grades.solution)) == grades.solution
    assert read_workbook(write_workbook(grades.submission)) == grades.submission


def test_write_emits_row_major():
    wb = make_workbook({"B2": 1, "A1": 2, "A2": 3, "B1": 4})
    keys = list(json.loads(write_workbook(wb))["sheets"][0]["cells"])
    assert keys == ["A1", "B1", "A2", "B2"]


def test_duplicate_cell_key_rejected():
    for cells, key in [('"A1": 1, "A1": 2', "A1"), ('"A1": 1, "B1": 2, "C1": 3, "B1": 4, "A1": 5', "B1")]:
        text = '{"name": "x", "sheets": [{"name": "S", "cells": {' + cells + "}}]}"
        with pytest.raises(WorkbookFormatError, match=f"duplicate key '{key}'"):
            read_workbook(text)


def test_unknown_top_level_field_rejected():
    with pytest.raises(WorkbookFormatError, match="unknown"):
        read_workbook('{"name": "x", "sheets": [], "extra": 1}')


def test_unknown_sheet_field_rejected():
    with pytest.raises(WorkbookFormatError, match="unknown"):
        read_workbook('{"name": "x", "sheets": [{"name": "S", "cells": {}, "hidden": true}]}')


def test_bad_address_key_rejected():
    with pytest.raises(WorkbookFormatError, match="address"):
        read_workbook('{"name": "x", "sheets": [{"name": "S", "cells": {"1A": 1}}]}')


def test_lowercase_address_key_rejected():
    with pytest.raises(WorkbookFormatError, match="address"):
        read_workbook('{"name": "x", "sheets": [{"name": "S", "cells": {"a1": 1}}]}')


def test_duplicate_sheet_names_rejected():
    text = '{"name": "x", "sheets": [{"name": "S", "cells": {}}, {"name": "S", "cells": {}}]}'
    with pytest.raises(WorkbookFormatError, match="duplicate"):
        read_workbook(text)


def test_nonfinite_number_rejected():
    with pytest.raises(WorkbookFormatError):
        read_workbook('{"name": "x", "sheets": [{"name": "S", "cells": {"A1": Infinity}}]}')


def test_number_value_must_be_finite():
    with pytest.raises(ValueError):
        Number(float("nan"))


def test_workbook_equality_ignores_insertion_order():
    a = make_workbook({"A1": 1, "B1": 2})
    b = make_workbook({"B1": 2, "A1": 1})
    assert a == b


def test_overflowing_number_literal_rejected():
    for cells, cell in [('"A1": 1e999', "S!A1"), ('"A1": 2, "B1": 2, "C1": 1e999, "D1": 1e999', "S!C1")]:
        with pytest.raises(WorkbookFormatError, match=cell):
            read_workbook('{"name": "x", "sheets": [{"name": "S", "cells": {' + cells + "}}]}")


@pytest.mark.parametrize("digits", [400, 5000])
def test_integer_too_large_for_a_float_rejected(digits):
    # 400 digits overflow float(); 5000 also exceed the digit limit that
    # recent Pythons put on parsing an int, which the JSON reader raises
    text = '{"name": "x", "sheets": [{"name": "S", "cells": {"A1": ' + "9" * digits + "}}]}"
    with pytest.raises(WorkbookFormatError, match="S!A1" if digits == 400 else "S!A1|invalid workbook JSON"):
        read_workbook(text)
