import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sheetcheck import (
    FormulaSyntaxError,
    RangeCapacityError,
    UnknownFunctionError,
    canonicalize,
    parse_formula,
    references_of,
    render_formula,
    syntax_check,
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
    cover,
    disjoint_boxes,
    node_key,
    range_size,
)

from conftest import addr, examples, make_workbook, texts


def ref(text):
    return CellRef(addr(text))


def rect(start, end):
    return RangeRef(ref(start), ref(end))


def test_parse_subtraction_over_division():
    ast = parse_formula("=(B3-C3)/2")
    assert ast == Binary(BinOp.DIV, Binary(BinOp.SUB, ref("B3"), ref("C3")), NumberLit(2.0))


def test_parse_avg_range():
    ast = parse_formula("=AVG(B3:B5)")
    assert ast == FuncCall("AVG", (RangeRef(ref("B3"), ref("B5")),))


def test_parse_dangling_operator():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=1+")


def test_parse_unbalanced_parens_position():
    with pytest.raises(FormulaSyntaxError) as error:
        parse_formula("=(1+2")
    assert error.value.position == 5


def test_parse_unknown_function_is_name_error():
    with pytest.raises(UnknownFunctionError):
        parse_formula("=SUMM(A1)")


def test_parse_unknown_bare_name():
    with pytest.raises(UnknownFunctionError):
        parse_formula("=banana")


def test_parse_average_alias():
    assert parse_formula("=AVERAGE(1,2)") == parse_formula("=AVG(1,2)")


def test_parse_function_names_case_insensitive():
    assert parse_formula("=sum(A1)") == parse_formula("=SUM(A1)")


def test_parse_semicolon_and_comma_separators():
    assert parse_formula("=ROUND(SUM(A1:A4);2)") == parse_formula("=ROUND(SUM(A1:A4),2)")


def test_parse_precedence_pow_over_unary():
    assert parse_formula("=-2^2") == Unary(UnaryOp.NEG, Binary(BinOp.POW, NumberLit(2.0), NumberLit(2.0)))


def test_parse_pow_right_associative():
    ast = parse_formula("=2^3^2")
    assert ast == Binary(BinOp.POW, NumberLit(2.0), Binary(BinOp.POW, NumberLit(3.0), NumberLit(2.0)))


def test_parse_left_associative_subtraction():
    ast = parse_formula("=1-2-3")
    assert ast == Binary(BinOp.SUB, Binary(BinOp.SUB, NumberLit(1.0), NumberLit(2.0)), NumberLit(3.0))


def test_parse_concat_binds_looser_than_add():
    ast = parse_formula('="a"&1+2')
    assert ast.op is BinOp.CONCAT
    assert ast.right == Binary(BinOp.ADD, NumberLit(1.0), NumberLit(2.0))


def test_parse_comparison_binds_loosest():
    ast = parse_formula("=1+2>2&\"x\"")
    assert ast.op is BinOp.GT


def test_parse_absolute_flags():
    node = parse_formula("=$B$3+B$4+$C5")
    left = node.left
    assert left.left == CellRef(addr("B3"), col_absolute=True, row_absolute=True)
    assert left.right == CellRef(addr("B4"), col_absolute=False, row_absolute=True)
    assert node.right == CellRef(addr("C5"), col_absolute=True, row_absolute=False)


def test_parse_range_normalized():
    assert parse_formula("=SUM(B5:A1)") == parse_formula("=SUM(A1:B5)")


def test_parse_cross_sheet_reference():
    node = parse_formula("=Data!B2", sheet="Main")
    assert node == CellRef(addr("B2", sheet="Data"))


def test_parse_sheet_defaults_to_container():
    node = parse_formula("=B2", sheet="Main")
    assert node.address.sheet == "Main"


def test_parse_text_literal_with_escaped_quote():
    assert parse_formula('="say ""hi"""') == TextLit('say "hi"')


def test_parse_booleans():
    assert parse_formula("=TRUE") == BoolLit(True)
    assert parse_formula("=false") == BoolLit(False)


def test_parse_requires_equals_prefix():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("1+1")


# ---------------------------------------------------------------- syntax check


def test_syntax_check_clean_fixture(grades):
    assert syntax_check(grades.submission).ok
    assert syntax_check(grades.solution).ok


def test_syntax_check_unknown_function():
    wb = make_workbook({"A1": "=SUMM(A2)"})
    report = syntax_check(wb)
    assert len(report.errors) == 1
    assert report.errors[0].cell == addr("A1")


def test_syntax_check_two_errors_row_major():
    wb = make_workbook({"B2": "=1+", "A1": "=SUMM(A2)", "C1": 5})
    report = syntax_check(wb)
    assert [issue.cell.text() for issue in report.errors] == ["A1", "B2"]


# ---------------------------------------------------------------- references


def test_references_of_range_expansion():
    refs = references_of(parse_formula("=AVG(B3:B5)"))
    assert texts(refs) == ["B3", "B4", "B5"]


def test_references_of_mixed():
    refs = references_of(parse_formula("=(C3+C4+D5)/3"))
    assert texts(refs) == ["C3", "C4", "D5"]


def test_references_of_literal_only():
    assert references_of(parse_formula("=1+2")) == ()


def test_references_of_deduplicates_row_major():
    refs = references_of(parse_formula("=B2+A1+B2+A2"))
    assert texts(refs) == ["A1", "A2", "B2"]


def test_references_of_drops_absoluteness():
    refs = references_of(parse_formula("=$B$3"))
    assert refs[0] == addr("B3")


def test_references_capacity_error():
    # the parser rejects such a range, so the AST is built directly
    too_large = RangeRef(CellRef(addr("A1")), CellRef(addr("Z10000")))
    with pytest.raises(RangeCapacityError):
        references_of(FuncCall("SUM", (too_large,)))


def test_a_range_over_the_limit_is_a_syntax_error_at_its_position():
    with pytest.raises(FormulaSyntaxError) as error:
        parse_formula("=1+SUM(Data!A20000:A1)")
    assert str(error.value) == "range A1:A20000 covers 20000 cells, limit is 10000"
    assert error.value.position == 12
    assert range_size(parse_formula("=A1:CV100")) == 10_000


# ---------------------------------------------------------------- canonical forms


def test_canonical_avg_equals_spelled_out_average():
    assert canonicalize(parse_formula("=AVG(C3:C5)")) == canonicalize(parse_formula("=(C3+C4+C5)/3"))


def test_canonical_fixpoint_on_plain_average():
    ast = parse_formula("=(B3+B4+B5)/3")
    canonical = canonicalize(ast)
    assert canonical == Binary(BinOp.DIV, Chain(BinOp.ADD, (rect("B3", "B5"),), ()), NumberLit(3.0))
    assert canonicalize(canonical) == canonical
    assert parse_formula("=" + render_formula(canonical)) == ast


def test_canonical_sum_plus_zero_no_folding():
    canonical = canonicalize(parse_formula("=SUM(A1:A2)+0"))
    assert canonical == Chain(BinOp.ADD, (rect("A1", "A2"),), (NumberLit(0.0),))
    assert canonical == canonicalize(parse_formula("=(A1+A2)+0"))
    assert render_formula(canonical) == "A1+A2+0"


def test_canonical_orders_commutative_operands():
    assert canonicalize(parse_formula("=2+B1+A1")) == canonicalize(parse_formula("=A1+B1+2"))
    assert canonicalize(parse_formula("=B1*A1")) == canonicalize(parse_formula("=A1*B1"))


def test_canonical_does_not_touch_subtraction():
    ast = parse_formula("=B1-A1")
    assert canonicalize(ast) == ast


def test_canonical_double_negation():
    assert canonicalize(parse_formula("=--A1")) == CellRef(addr("A1"))
    assert canonicalize(parse_formula("=---A1")) == Unary(UnaryOp.NEG, CellRef(addr("A1")))


def test_canonical_idempotent_examples():
    for source in ["=AVG(B3:B5)", "=SUM(A1,B2)+3*C1", "=ROUND(AVG(A1:A3),2)", "=-(A1+A2)"]:
        once = canonicalize(parse_formula(source))
        assert canonicalize(once) == once


def test_canonical_preserves_reference_set():
    for source in ["=AVG(B3:B5)", "=SUM(A1:A3)+B1", "=MIN(A1:A2)+AVG(C1,C2)"]:
        ast = parse_formula(source)
        assert set(references_of(canonicalize(ast))) == set(references_of(ast))


def test_canonical_nested_avg_inside_round():
    canonical = canonicalize(parse_formula("=ROUND(AVG(A1:A2),2)"))
    assert canonical == FuncCall(
        "ROUND",
        (
            Binary(BinOp.DIV, Chain(BinOp.ADD, (rect("A1", "A2"),), ()), NumberLit(2.0)),
            NumberLit(2.0),
        ),
    )


def canon(source):
    return canonicalize(parse_formula(source))


def test_canonical_splices_sum_argument_chains():
    assert canon("=SUM(A1+B1,C1)") == canon("=A1+B1+C1")


def test_canonical_avg_divides_by_argument_count_before_splicing():
    assert canon("=AVG(A1+B1,C1)") == Binary(BinOp.DIV, canon("=A1+B1+C1"), NumberLit(2.0))


def test_canonical_splices_nested_same_operator_chains():
    assert canon("=A1+--(B1+C1)") == canon("=A1+B1+C1")
    assert canon("=A1*--(B1*C1)") == canon("=A1*B1*C1")
    assert canon("=SUM(SUM(A1:A2),A3)") == canon("=A1+A2+A3")


def _depth(ast):
    deepest = 0
    stack = [(ast, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Binary):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return deepest


def test_canonical_long_hand_written_sum_is_a_balanced_range_sum():
    n = 5000
    canonical = canon("=" + "+".join(f"A{i}" for i in range(n, 0, -1)))
    assert canonical == canon(f"=SUM(A1:A{n})")
    assert _depth(canonical) <= math.ceil(math.log2(n)) + 2


# ---------------------------------------------------------------- rendering


@pytest.mark.parametrize(
    "source",
    [
        "=(B3-C3)/2",
        "=AVG(B3:B5)",
        "=1-2-3",
        "=1-(2-3)",
        "=2^3^2",
        "=(2^3)^2",
        "=-2^2",
        "=(-2)^2",
        '="a"&"b"&1',
        "=IF(A1>2,B1,C1*3)",
        "=$B$3+B$4",
        "=Data!A1+B2",
        '="say ""hi"""',
        "=SUM(A1;B2;3)",
        "=-(A1+A2)",
    ],
)
def test_render_roundtrips_through_parser(source):
    ast = parse_formula(source)
    assert parse_formula("=" + render_formula(ast)) == ast


def test_render_uses_comma_and_uppercase():
    assert render_formula(parse_formula("=sum(A1;2)")) == "SUM(A1,2)"


def test_render_minimal_parens():
    assert render_formula(parse_formula("=(A1+A2)+A3")) == "A1+A2+A3"
    assert render_formula(parse_formula("=(A1*A2)+A3")) == "A1*A2+A3"
    assert render_formula(parse_formula("=(A1+A2)*A3")) == "(A1+A2)*A3"


def test_canonical_empty_aggregates_preserve_semantics():
    from sheetcheck import evaluate_ast
    from sheetcheck.grid import Number
    from sheetcheck.evaluate import DIV_ZERO

    sum_canonical = canonicalize(parse_formula("=SUM()"))
    assert sum_canonical == NumberLit(0.0)
    avg_canonical = canonicalize(parse_formula("=AVG()"))
    assert evaluate_ast(avg_canonical, {}) == DIV_ZERO


def test_canonical_large_range_stays_within_limits():
    # a 900-cell range: equality, rendering and evaluation must not blow up
    from sheetcheck import evaluate_ast

    ast = parse_formula("=SUM(A1:AD30)")
    canonical = canonicalize(ast)
    assert canonical == Chain(BinOp.ADD, (rect("A1", "AD30"),), ()) and canonical.size == 900
    assert canonicalize(canonical) == canonical
    assert len(references_of(canonical)) == 900
    assert evaluate_ast(canonical, {}).value == 0.0
    rendered = render_formula(canonical)
    assert rendered.count("+") == 899
    assert canonicalize(parse_formula("=" + rendered)) == canonical


def test_canonicalizing_a_large_range_expands_no_range(monkeypatch):
    from sheetcheck import formulas

    expanded = []
    for name in ("range_addresses", "_cells"):
        expand = getattr(formulas, name)
        monkeypatch.setattr(formulas, name, lambda *args, expand=expand: expanded.append(args) or expand(*args))
    canonical = canonicalize(parse_formula("=SUM(A1:CV100)"))
    assert canonical == Chain(BinOp.ADD, (rect("A1", "CV100"),), ()) and canonical.size == 10_000
    assert canonicalize(parse_formula("=AVG(A1:CV100)+SUM(A1:CV100,A2)")).operands[0].right == NumberLit(10_000.0)
    assert expanded == []


def test_canonical_rectangles_keep_duplicates_and_flags():
    assert canon("=SUM(A1:A3,A2)") == Chain(BinOp.ADD, (rect("A1", "A3"), rect("A2", "A2")), ())
    assert canon("=SUM(A1:A3,A2)") == canon("=A2+SUM(A2:A3)+A1") == canon("=SUM(A1:A2,A2:A3)")
    assert canon("=SUM(A1:B2)+A3+B3") == canon("=SUM(A1:B3)") == canon("=SUM(A1:A3,B1:B3)")
    assert canon("=A1+$A$2+A3") != canon("=A1+A2+A3")
    assert canon("=SUM($A$1:A2)") == canon("=$A$1+$A$2") != canon("=SUM(A1:$A$2)")
    # a range used as a "+" operand is not its cells
    assert canon("=A1:A2+1") != canon("=A1+A2+1")


def test_chain_evaluates_as_the_expanded_balanced_tree():
    from canonical_oracle import oracle_canonicalize
    from sheetcheck import evaluate_ast
    from sheetcheck.evaluate import BAD_REF, DIV_ZERO
    from sheetcheck.grid import Number

    # (A1+A2)+(A3+A4) stays finite where ((A1+A2)+A3)+A4 overflows
    grid = {addr("A1"): Number(0.0), addr("A2"): Number(1e308), addr("A3"): Number(1e308), addr("A4"): Number(-1e308)}
    for source in ("=A1+A2+A3+A4", "=SUM(A1:A4)"):
        ast = parse_formula(source)
        assert evaluate_ast(canonicalize(ast), grid) == evaluate_ast(oracle_canonicalize(ast), grid) == Number(1e308)
    # cells run row-major across flag groups, so B1's error comes before A2's
    grid = {addr("A1"): Number(1.0), addr("A2"): DIV_ZERO, addr("B1"): BAD_REF, addr("B2"): Number(1.0)}
    ast = parse_formula("=A1+A2+$B$1+$B$2")
    assert evaluate_ast(canonicalize(ast), grid) == evaluate_ast(oracle_canonicalize(ast), grid) == BAD_REF


# ---------------------------------------------------------------- depth limits


def test_nesting_budget_allows_64_levels():
    assert parse_formula("=" + "(" * 64 + "A1" + ")" * 64) == ref("A1")
    calls = parse_formula("=" + "ABS(" * 64 + "A1" + ")" * 64)
    signs = parse_formula("=" + "-" * 64 + "A1")
    for _ in range(64):
        calls, signs = calls.args[0], signs.operand
    assert calls == signs == ref("A1")


@pytest.mark.parametrize(
    "source, position",
    [
        ("=" + "(" * 150 + "A1" + ")" * 150, 65),
        ("=" + "(" * 65 + "A1" + ")" * 65, 65),
        ("=" + "SUM(" * 150 + "A1" + ")" * 150, 260),
        ("=" + "-" * 1000 + "A1", 65),
        ("=" + "^".join(["2"] * 1000), 130),
    ],
)
def test_nesting_past_the_budget_is_a_syntax_error(source, position):
    with pytest.raises(FormulaSyntaxError, match="nested too deeply") as caught:
        parse_formula(source)
    assert caught.value.position == position
    report = syntax_check(make_workbook({"A1": 1, "B1": source}))
    assert [(issue.message, issue.position) for issue in report.errors] == [
        ("formula is nested too deeply", position)
    ]


def _recursive_canonical(ast):
    # the plain recursive definition of the non-chain Binary case
    if isinstance(ast, Binary) and ast.op not in (BinOp.ADD, BinOp.MUL):
        return Binary(ast.op, _recursive_canonical(ast.left), _recursive_canonical(ast.right))
    return canonicalize(ast)


@pytest.mark.parametrize("op", ["-", "/", "&", "<"])
def test_canonical_long_left_deep_chain_keeps_its_shape(op):
    terms = [f"A{i}" if i % 3 else f"(B{i}*2+SUM(C1:C3))" for i in range(1, 5001)]
    prefix = parse_formula("=" + op.join(terms[:60]))
    assert canonicalize(prefix) == _recursive_canonical(prefix)
    canonical = canonicalize(parse_formula("=" + op.join(terms)))
    depth = 0
    while isinstance(canonical, Binary) and canonical.op.symbol == op:
        canonical, depth = canonical.left, depth + 1
    assert depth == 4999 and canonical == ref("A1")


def test_canonical_sorts_a_long_difference_inside_a_sum():
    difference = "-".join(f"A{i}" for i in range(1, 5001))
    canonical = canonicalize(parse_formula(f"=({difference})+B1"))
    assert canonical.op is BinOp.ADD and canonical.refs == (rect("B1", "B1"),)
    (sorted_difference,) = canonical.operands
    # ASTs this deep compare by node_key: dataclass equality would recurse
    assert node_key(sorted_difference) == node_key(parse_formula(f"={difference}"))
    assert node_key(canonical) == node_key(canonicalize(parse_formula(f"=B1+({difference})")))


@pytest.mark.parametrize("op", ["-", "&"])
def test_render_long_left_deep_chain(op):
    terms = ["(D1=1)"] + [f"A{i}" if i % 3 else f"(B{i}&C{i})" for i in range(2, 5001)]
    # the text the recursive renderer produced for the first 60 terms
    prefix = op.join(terms[:60])
    assert render_formula(parse_formula("=" + prefix)) == prefix
    ast = parse_formula("=" + op.join(terms))
    assert node_key(parse_formula("=" + render_formula(ast))) == node_key(ast)



# ---------------------------------------------------------------- rectangle arithmetic

_GRID = 6
_span = st.tuples(st.integers(1, _GRID), st.integers(1, _GRID)).map(sorted)
_weighted_boxes = st.lists(
    st.builds(lambda rows, cols, weight: (rows[0], cols[0], rows[1], cols[1], weight), _span, _span, st.integers(-2, 2)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=examples(150), deadline=None)
@given(_weighted_boxes)
# Equal weights: one box ends on the column, or the row, before another starts.
@example([(1, 1, 2, 2, 1), (1, 3, 2, 4, 1)])
@example([(1, 1, 2, 2, 1), (3, 1, 4, 2, 1)])
# Opposite weights that cancel, and a box of weight zero.
@example([(1, 1, 3, 3, 2), (2, 2, 2, 2, -2), (1, 1, 1, 6, 0)])
def test_cover_weighs_each_cell_as_the_sum_of_its_boxes(boxes):
    bands = cover(boxes)
    pieces = {}
    below = 0
    for top, bottom, band in bands:
        assert below < top <= bottom and band  # bands ascend and are never empty
        below = bottom
        end = 0
        for left, right, weight in band:
            assert end < left <= right and weight  # pieces are disjoint, left to right, and weigh something
            end = right
            pieces.update(((row, col), weight) for row in range(top, bottom + 1) for col in range(left, right + 1))
    for row in range(1, _GRID + 1):
        for col in range(1, _GRID + 1):
            total = sum(w for top, left, bottom, right, w in boxes if top <= row <= bottom and left <= col <= right)
            assert pieces.get((row, col), 0) == total, (row, col)


@settings(max_examples=examples(100), deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["A", "B"]), _weighted_boxes), min_size=1, max_size=3))
def test_disjoint_boxes_cover_each_cell_once(groups):
    boxes = [(sheet, top, left, bottom, right) for sheet, group in groups for top, left, bottom, right, _ in group]
    covered = {}
    for sheet, top, left, bottom, right in disjoint_boxes(boxes):
        for row in range(top, bottom + 1):
            for col in range(left, right + 1):
                covered[sheet, row, col] = covered.get((sheet, row, col), 0) + 1
    expected = {
        (sheet, row, col)
        for sheet, top, left, bottom, right in boxes
        for row in range(top, bottom + 1)
        for col in range(left, right + 1)
    }
    assert covered == dict.fromkeys(expected, 1)


# ---------------------------------------------------------------- pinned parser corpus

_CORPUS_FUNCTIONS = ["SUM", "sum", "AVG", "Average", "COUNT", "MIN", "MAX", "IF", "ROUND", "ABS", "FOO"]
_CORPUS_OPERATORS = ["+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">="]
_CORPUS_NOISE = list("()+-*/^&=<>,;:!$\"'. 1A#")


def _corpus_reference(rng):
    def cell():
        return f"{rng.choice(['', '$'])}{rng.choice(['A', 'b', 'C', 'AA', 'xfd'])}{rng.choice(['', '$'])}{rng.randint(1, 30)}"

    text = cell()
    if rng.random() < 0.3:
        text += ":" + (rng.choice(["", "Data!", "Other!"]) if rng.random() < 0.2 else "") + cell()
    if rng.random() < 0.2:
        text = rng.choice(["Data!", "Other!"]) + text
    return text


def _corpus_formula(rng, depth=0):
    """Formula text built from the grammar, with random spacing."""
    roll = rng.random() if depth < 5 else rng.random() * 0.5
    if roll < 0.15:
        return rng.choice(["1", "2.5", ".5", "3.", "1e3", "2E-2", "0", "007"])
    if roll < 0.2:
        return rng.choice(['"x"', '""', '"a""b"', "TRUE", "false"])
    if roll < 0.5:
        return _corpus_reference(rng)
    if roll < 0.6:
        return rng.choice(["-", "+", "--"]) + _corpus_formula(rng, depth + 1)
    if roll < 0.7:
        return "(" + _corpus_formula(rng, depth + 1) + ")"
    if roll < 0.8:
        args = [_corpus_formula(rng, depth + 1) for _ in range(rng.randint(0, 3))]
        return rng.choice(_CORPUS_FUNCTIONS) + "(" + rng.choice([",", ";", ", "]).join(args) + ")"
    terms = [_corpus_formula(rng, depth + 1) for _ in range(rng.randint(2, 4))]
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice(["", " "]) + rng.choice(_CORPUS_OPERATORS) + rng.choice(["", " "]) + term
    return text


def _corrupted(rng, text):
    at = rng.randrange(len(text) + 1)
    how = rng.randrange(4)
    if how == 0:
        return text[:at] + text[at + 1 :]
    if how == 1:
        return text[:at] + rng.choice(_CORPUS_NOISE) + text[at:]
    if how == 2:
        return text[:at]
    return text[:at] + text[at:][::-1]


def _parser_corpus():
    rng = random.Random(20231012)
    sources = []
    for _ in range(10_000):
        text = "=" + _corpus_formula(rng)
        sources.append(_corrupted(rng, text) if rng.random() < 0.2 else text)
    for n in range(10, 201, 10):
        sources += [
            "=" + "(" * n + "A1" + ")" * n,
            "=" + "-+" * (n // 2) + "A1",
            "=" + "^".join(["2"] * n),
            "=" + "(-" * n + "A1" + ")" * n,
            "=" + "ABS(" * n + "1" + ")" * n,
            "=" + "2^-(" * n + "3" + ")" * n,
            "=" + "(1+" * n + "1" + ")" * n,
        ]
    return sources


def _parse_outcome(source):
    try:
        return repr(parse_formula(source))
    except (FormulaSyntaxError, UnknownFunctionError) as exc:  # class, message and position are pinned
        return f"{type(exc).__name__}|{exc}|{getattr(exc, 'position', None)}"


def test_parser_corpus_is_pinned():
    # ASTs, error messages and error positions of a seeded corpus: any
    # change to what the parser accepts, builds or reports moves the digest
    digest = hashlib.sha256()
    for source in _parser_corpus():
        digest.update(f"{source}\n{_parse_outcome(source)}\n".encode())
    # operator chains this long compare by node_key: repr recurses once per level
    for op in [op for op in _CORPUS_OPERATORS if op != "^"]:
        source = "=" + op.join(f"A{i}" if i % 3 else f"-B{i}" for i in range(1, 5001))
        digest.update(repr(node_key(parse_formula(source))).encode())
    assert digest.hexdigest() == "17bacdc0a311d787b3d72ecfdd741543b2611ca3d5e8c689b53fed5bdecc1f8e"
