"""Structural invariants checked over generated inputs."""

import itertools
import random
import string

from hypothesis import given, settings, strategies as st

from sheetcheck import (
    BLANK,
    Boolean,
    CellError,
    ErrorKind,
    Number,
    Text,
    canonicalize,
    column_index,
    column_letters,
    evaluate_ast,
    levenshtein,
    parse_address,
    parse_formula,
    references_of,
    render_formula,
    values_equal,
)
from sheetcheck.formulas import (
    Binary,
    BinOp,
    BoolLit,
    CellRef,
    Chain,
    FuncCall,
    NumberLit,
    RangeRef,
    TextLit,
    Unary,
    UnaryOp,
    node_key,
    range_size,
    walk_ast,
)
from sheetcheck.grid import CellAddress

from canonical_oracle import balanced_chain, oracle_canonicalize, oracle_key
from genwb import GenConfig, WorkbookGen

# ---------------------------------------------------------------- strategies

addresses = st.builds(
    CellAddress,
    sheet=st.just("Sheet1"),
    col=st.integers(1, 30),
    row=st.integers(1, 30),
)

cell_refs = st.builds(
    CellRef,
    address=addresses,
    col_absolute=st.booleans(),
    row_absolute=st.booleans(),
)


@st.composite
def range_refs(draw):
    sheet = "Sheet1"
    col_a, col_b = sorted((draw(st.integers(1, 30)), draw(st.integers(1, 30))))
    row_a, row_b = sorted((draw(st.integers(1, 30)), draw(st.integers(1, 30))))
    return RangeRef(
        CellRef(CellAddress(sheet, col_a, row_a)),
        CellRef(CellAddress(sheet, col_b, row_b)),
    )


number_lits = st.one_of(
    st.integers(0, 5000).map(lambda v: NumberLit(float(v))),
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False).map(NumberLit),
)
text_lits = st.text(alphabet=string.ascii_letters + string.digits + ' "', max_size=8).map(TextLit)
bool_lits = st.booleans().map(BoolLit)

leaves = st.one_of(number_lits, text_lits, bool_lits, cell_refs, range_refs())

_FUNC_ARITY = {"SUM": (0, 3), "AVG": (0, 3), "COUNT": (0, 3), "MIN": (1, 3), "MAX": (1, 3), "IF": (2, 3), "ROUND": (2, 2), "ABS": (1, 1)}


def _expressions(children):
    binary = st.builds(Binary, op=st.sampled_from(list(BinOp)), left=children, right=children)
    unary = st.builds(Unary, op=st.sampled_from(list(UnaryOp)), operand=children)

    @st.composite
    def func_call(draw):
        name = draw(st.sampled_from(sorted(_FUNC_ARITY)))
        low, high = _FUNC_ARITY[name]
        count = draw(st.integers(low, high))
        return FuncCall(name, tuple(draw(children) for _ in range(count)))

    return st.one_of(binary, unary, func_call())


formulas = st.recursive(leaves, _expressions, max_leaves=12)


# ---------------------------------------------------------------- address codec


@given(st.integers(1, 10000))
def test_column_codec_roundtrip(col):
    assert column_index(column_letters(col)) == col


@given(addresses)
def test_address_text_roundtrip(address):
    assert parse_address(address.text(qualified=True)) == address


# ---------------------------------------------------------------- parse and print


@settings(max_examples=150)
@given(formulas)
def test_render_parse_roundtrip(ast):
    assert parse_formula("=" + render_formula(ast)) == ast


@settings(max_examples=150)
@given(formulas)
def test_canonicalize_idempotent(ast):
    once = canonicalize(ast)
    assert canonicalize(once) == once


@settings(max_examples=150)
@given(formulas)
def test_canonicalize_preserves_reference_set(ast):
    assert set(references_of(canonicalize(ast))) == set(references_of(ast))


# ---------------------------------------------------------------- values


cell_values = st.one_of(
    st.just(BLANK),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda v: Number(float(v))),
    st.text(max_size=6).map(Text),
    st.booleans().map(Boolean),
    st.sampled_from(list(ErrorKind)).map(CellError),
)


@given(cell_values)
def test_values_equal_reflexive(value):
    assert values_equal(value, value)


@given(cell_values, cell_values)
def test_values_equal_symmetric(a, b):
    assert values_equal(a, b) == values_equal(b, a)


# ---------------------------------------------------------------- levenshtein


@given(st.text(max_size=12), st.text(max_size=12))
def test_levenshtein_symmetric(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(st.text(max_size=12), st.text(max_size=12))
def test_levenshtein_bounds(a, b):
    distance = levenshtein(a, b)
    assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))
    assert (distance == 0) == (a == b)


@given(st.text(max_size=10), st.text(max_size=10), st.text(max_size=10))
def test_levenshtein_triangle(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# ---------------------------------------------------------------- canonical forms against the oracle

small_addresses = st.builds(CellAddress, sheet=st.just("Sheet1"), col=st.integers(1, 2), row=st.integers(1, 3))
small_flags = st.sampled_from([False, False, True])
small_cell_refs = st.builds(CellRef, address=small_addresses, col_absolute=small_flags, row_absolute=small_flags)


@st.composite
def small_range_refs(draw):
    col_a, col_b = sorted((draw(st.integers(1, 2)), draw(st.integers(1, 2))))
    row_a, row_b = sorted((draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    col_absolute, row_absolute = draw(small_flags), draw(small_flags)
    return RangeRef(
        CellRef(CellAddress("Sheet1", col_a, row_a), col_absolute, row_absolute),
        CellRef(CellAddress("Sheet1", col_b, row_b), draw(st.sampled_from([col_absolute, False])), row_absolute),
    )


small_leaves = st.one_of(
    small_cell_refs,
    small_cell_refs,
    small_range_refs(),
    st.sampled_from([NumberLit(0.0), NumberLit(1.0), NumberLit(2.0), TextLit("x"), BoolLit(True)]),
)


def _small_expressions(children):
    binary = st.builds(
        Binary,
        op=st.sampled_from([BinOp.ADD, BinOp.ADD, BinOp.MUL, BinOp.SUB, BinOp.DIV, BinOp.CONCAT, BinOp.EQ]),
        left=children,
        right=children,
    )
    unary = st.builds(Unary, op=st.sampled_from(list(UnaryOp)), operand=children)
    aggregate = st.builds(
        lambda name, args: FuncCall(name, tuple(args)),
        st.sampled_from(["SUM", "SUM", "AVG", "MIN"]),
        st.lists(st.one_of(small_range_refs(), children), min_size=1, max_size=3),
    )
    return st.one_of(binary, unary, aggregate)


# Few distinct leaves, so that independent draws are often equivalent.
small_formulas = st.recursive(small_leaves, _small_expressions, max_leaves=8)


def _regroup(operands, op, data):
    """A random binary `op` tree over the operands, in their order."""
    if len(operands) == 1:
        return operands[0]
    cut = data.draw(st.integers(1, len(operands) - 1))
    return Binary(op, _regroup(operands[:cut], op, data), _regroup(operands[cut:], op, data))


def _split(ref, data):
    """A SUM/AVG range argument as smaller ranges or cells covering the same cells."""
    (sheet, top, left), (_, bottom, right) = ref.start.address, ref.end.address
    flags = (ref.start.col_absolute, ref.start.row_absolute)  # the flags its cells take

    def part(top, left, bottom, right):
        return RangeRef(
            CellRef(CellAddress(sheet, left, top), *flags), CellRef(CellAddress(sheet, right, bottom), *flags)
        )

    how = data.draw(st.sampled_from(["keep", "rows", "cells"]))
    if how == "rows" and bottom > top:
        cut = data.draw(st.integers(top, bottom - 1))
        return [part(top, left, cut, right), part(cut + 1, left, bottom, right)]
    if how == "cells":
        return [
            CellRef(CellAddress(sheet, col, row), *flags)
            for row in range(top, bottom + 1)
            for col in range(left, right + 1)
        ]
    return [ref]


def _variant(ast, data):
    """A rewrite of `ast` with the same expanded canonical form.

    Chains are reordered and regrouped, SUM and AVG range arguments split
    or written out, SUM calls written as "+" chains and double negations
    added.
    """
    if isinstance(ast, Binary) and ast.op in (BinOp.ADD, BinOp.MUL):
        operands = [_variant(operand, data) for operand in _flatten(ast, ast.op)]
        node = _regroup(data.draw(st.permutations(operands)), ast.op, data)
    elif isinstance(ast, Binary):
        node = Binary(ast.op, _variant(ast.left, data), _variant(ast.right, data))
    elif isinstance(ast, Unary):
        node = Unary(ast.op, _variant(ast.operand, data))
    elif isinstance(ast, FuncCall) and ast.name in ("SUM", "AVG"):
        args = []
        for arg in ast.args:
            args += _split(arg, data) if isinstance(arg, RangeRef) else [_variant(arg, data)]
        node = FuncCall(ast.name, tuple(args))
        if ast.name == "SUM" and args and data.draw(st.booleans()):
            cells = []
            for arg in args:
                cells += _split(arg, data) if isinstance(arg, RangeRef) and range_size(arg) == 1 else [arg]
            if not any(isinstance(oracle_canonicalize(cell), RangeRef) for cell in cells):  # SUM expands those
                node = _regroup(cells, BinOp.ADD, data)
    elif isinstance(ast, FuncCall):
        node = FuncCall(ast.name, tuple(_variant(arg, data) for arg in ast.args))
    else:
        node = ast
    if data.draw(st.integers(0, 9)) == 0:
        node = Unary(UnaryOp.NEG, Unary(UnaryOp.NEG, node))
    return node


def _flatten(node, op):
    if isinstance(node, Binary) and node.op is op:
        return _flatten(node.left, op) + _flatten(node.right, op)
    return [node]


def _check_against_oracle(asts):
    """canonicalize agrees with the oracle on every pair, and node_key orders its forms."""
    forms = [canonicalize(ast) for ast in asts]
    oracle = [oracle_key(oracle_canonicalize(ast)) for ast in asts]
    keys = [node_key(form) for form in forms]
    for i, j in itertools.combinations(range(len(asts)), 2):
        equal = forms[i] == forms[j]
        assert equal == (oracle[i] == oracle[j]), (asts[i], asts[j])
        assert (keys[i] == keys[j]) == equal
        assert (keys[i] < keys[j]) == (keys[j] > keys[i])
        assert (keys[i] < keys[j]) + (keys[i] == keys[j]) + (keys[i] > keys[j]) == 1
        if equal:
            assert hash(forms[i]) == hash(forms[j])


@settings(max_examples=300)
@given(small_formulas, small_formulas, st.data())
def test_canonical_equality_matches_the_oracle(x, y, data):
    variant = _variant(x, data)
    assert oracle_key(oracle_canonicalize(variant)) == oracle_key(oracle_canonicalize(x))
    _check_against_oracle([x, y, variant])


@settings(max_examples=100)
@given(formulas, formulas, st.data())
def test_canonical_equality_matches_the_oracle_on_wide_formulas(x, y, data):
    _check_against_oracle([x, y, _variant(x, data)])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_canonical_equality_matches_the_oracle_on_generated_workbooks(seed, data):
    workbook = WorkbookGen(random.Random(seed), GenConfig(max_depth=4)).workbook()
    asts = [parse_formula(formula.source, address.sheet) for address, formula in workbook.formula_items()]
    _check_against_oracle(asts + [_variant(ast, data) for ast in asts])


# Sums of these depend on how they are grouped, and 1e308 overflows.
grid_values = st.one_of(
    st.just(BLANK),
    st.sampled_from([0.1, 0.2, 0.3, 3.0, -1e16, 1e16, 1e308]).map(Number),
    st.sampled_from([Text("x"), Boolean(True), CellError(ErrorKind.DIV_ZERO), CellError(ErrorKind.BAD_REF)]),
)
small_grids = st.fixed_dictionaries(
    {CellAddress("Sheet1", col, row): grid_values for col in (1, 2) for row in (1, 2, 3)}
)


@settings(max_examples=200)
@given(small_formulas, small_grids)
def test_chain_evaluates_as_its_expanded_balanced_tree(ast, grid):
    for node in walk_ast(canonicalize(ast)):
        if isinstance(node, Chain):
            expanded = [CellRef(*cell) for cell in node.cells()] + list(node.operands)
            assert evaluate_ast(node, grid) == evaluate_ast(balanced_chain(expanded, node.op), grid)


flat_chains = st.one_of(
    st.builds(
        lambda name, args: FuncCall(name, tuple(args)),
        st.sampled_from(["SUM", "AVG"]),
        st.lists(small_leaves, max_size=5),
    ),
    st.builds(
        lambda op, operands: balanced_chain(operands, op),
        st.sampled_from([BinOp.ADD, BinOp.MUL]),
        st.lists(small_leaves, min_size=2, max_size=5),
    ),
)


@settings(max_examples=200)
@given(flat_chains, small_grids)
def test_flat_chain_evaluates_as_the_oracle_form(ast, grid):
    # blanks and text under "+", not SUM's rules, and the first error wins
    assert evaluate_ast(canonicalize(ast), grid) == evaluate_ast(oracle_canonicalize(ast), grid)
