"""Hand-computed function and operator semantics table.

Each case is (cells, target, expected): `cells` builds a small workbook,
`target` names the cell under test and `expected` is its exact value.
Expected values were worked out by hand from the documented semantics;
float results use the exact arithmetic the binary doubles produce.
"""

from sheetcheck import BLANK, Boolean, CellError, ErrorKind, Number, Text

DIV_ZERO = CellError(ErrorKind.DIV_ZERO)
BAD_REF = CellError(ErrorKind.BAD_REF)
CYCLE = CellError(ErrorKind.CYCLE)
BAD_VALUE = CellError(ErrorKind.BAD_VALUE)


def n(x):
    return Number(float(x))


ORACLE_CASES = [
    # ---- SUM
    ("sum_scalars", {"A1": "=SUM(1,2,3)"}, "A1", n(6)),
    ("sum_empty", {"A1": "=SUM()"}, "A1", n(0)),
    ("sum_range", {"A1": "=SUM(B1:B3)", "B1": 1, "B2": 2, "B3": 3}, "A1", n(6)),
    ("sum_skips_blanks", {"A1": "=SUM(B1:B3)", "B1": 1}, "A1", n(1)),
    ("sum_skips_text", {"A1": "=SUM(B1:B2)", "B1": "x", "B2": 2}, "A1", n(2)),
    ("sum_blank_scalar", {"A1": "=SUM(B9,5)"}, "A1", n(5)),
    ("sum_error_propagates", {"A1": "=SUM(B1:B2)", "B1": "=1/0", "B2": 2}, "A1", DIV_ZERO),
    ("sum_bool_coerces", {"A1": "=SUM(TRUE,2)"}, "A1", n(3)),
    # ---- AVG
    ("avg_table2_b6", {"A1": "=AVG(92,56,95)"}, "A1", n(81)),
    ("avg_alias", {"A1": "=AVERAGE(2,4)"}, "A1", n(3)),
    ("avg_range", {"A1": "=AVG(B1:B3)", "B1": 1, "B2": 2, "B3": 3}, "A1", n(2)),
    ("avg_all_blank_is_div_zero", {"A1": "=AVG(B1:B3)"}, "A1", DIV_ZERO),
    ("avg_skips_text", {"A1": "=AVG(B1:B2)", "B1": "x", "B2": 4}, "A1", n(4)),
    ("avg_blank_skipped_in_args", {"A1": "=AVG(1,B9)"}, "A1", n(1)),
    ("avg_thirds", {"A1": "=AVG(58,70,75)"}, "A1", n(203.0 / 3.0)),
    # ---- COUNT
    ("count_numbers_only", {"A1": '=COUNT(1,2,"x")'}, "A1", n(2)),
    ("count_range_mixed", {"A1": "=COUNT(B1:B5)", "B1": 1, "B2": "t", "B4": True, "B5": 2}, "A1", n(3)),
    ("count_empty", {"A1": "=COUNT()"}, "A1", n(0)),
    # ---- MIN / MAX
    ("min_scalars", {"A1": "=MIN(3,1,2)"}, "A1", n(1)),
    ("max_range", {"A1": "=MAX(B1:B3)", "B1": 5, "B2": 7, "B3": 6}, "A1", n(7)),
    ("min_of_blanks_is_bad_value", {"A1": "=MIN(B1:B2)"}, "A1", BAD_VALUE),
    ("max_of_texts_is_bad_value", {"A1": '=MAX("a","b")'}, "A1", BAD_VALUE),
    ("min_blank_skipped", {"A1": "=MIN(2,B9)"}, "A1", n(2)),
    ("max_bool", {"A1": "=MAX(-5,TRUE)"}, "A1", n(1)),
    ("min_negative", {"A1": "=MIN(-3,-1)"}, "A1", n(-3)),
    # ---- IF
    ("if_true", {"A1": "=IF(TRUE,1,2)"}, "A1", n(1)),
    ("if_false", {"A1": "=IF(FALSE,1,2)"}, "A1", n(2)),
    ("if_zero_number_is_false", {"A1": "=IF(0,1,2)"}, "A1", n(2)),
    ("if_nonzero_number_is_true", {"A1": "=IF(3.5,1,2)"}, "A1", n(1)),
    ("if_text_condition_is_bad_value", {"A1": '=IF("yes",1,2)'}, "A1", BAD_VALUE),
    ("if_blank_condition_is_bad_value", {"A1": "=IF(B9,1,2)"}, "A1", BAD_VALUE),
    ("if_comparison_picks_branch", {"A1": '=IF(1>2,"a","b")'}, "A1", Text("b")),
    ("if_two_args_true", {"A1": "=IF(TRUE,5)"}, "A1", n(5)),
    ("if_two_args_false_defaults", {"A1": "=IF(FALSE,5)"}, "A1", Boolean(False)),
    ("if_error_condition_propagates", {"A1": "=IF(1/0,1,2)"}, "A1", DIV_ZERO),
    ("if_error_in_branch_propagates", {"A1": "=IF(TRUE,1,1/0)"}, "A1", DIV_ZERO),
    ("if_arity_violation", {"A1": "=IF(TRUE)"}, "A1", BAD_VALUE),
    # ---- ROUND
    ("round_half_away_up", {"A1": "=ROUND(2.5,0)"}, "A1", n(3)),
    ("round_half_away_down", {"A1": "=ROUND(-2.5,0)"}, "A1", n(-3)),
    ("round_quarter_to_one_place", {"A1": "=ROUND(1.25,1)"}, "A1", n(1.3)),
    ("round_eighth_to_two_places", {"A1": "=ROUND(0.125,2)"}, "A1", n(0.13)),
    ("round_negative_digits", {"A1": "=ROUND(1234,-2)"}, "A1", n(1200)),
    ("round_negative_digits_half", {"A1": "=ROUND(1250,-2)"}, "A1", n(1300)),
    ("round_integer_unchanged", {"A1": "=ROUND(2,0)"}, "A1", n(2)),
    ("round_error_propagates", {"A1": "=ROUND(1/0,2)"}, "A1", DIV_ZERO),
    ("round_arity_violation", {"A1": "=ROUND(1)"}, "A1", BAD_VALUE),
    ("round_tenths_half_away", {"A1": "=ROUND(0.15,1)"}, "A1", n(0.2)),
    ("round_text_is_bad_value", {"A1": '=ROUND("a",1)'}, "A1", BAD_VALUE),
    ("round_text_digits_is_bad_value", {"A1": '=ROUND(1,"a")'}, "A1", BAD_VALUE),
    # ---- ABS
    ("abs_negative", {"A1": "=ABS(-3)"}, "A1", n(3)),
    ("abs_positive", {"A1": "=ABS(2.5)"}, "A1", n(2.5)),
    ("abs_blank_is_zero", {"A1": "=ABS(B9)"}, "A1", n(0)),
    ("abs_text_is_bad_value", {"A1": '=ABS("a")'}, "A1", BAD_VALUE),
    ("abs_arity_violation", {"A1": "=ABS(1,2)"}, "A1", BAD_VALUE),
    # ---- operators
    ("divide_by_zero", {"A1": "=1/0"}, "A1", DIV_ZERO),
    ("blank_coerces_in_addition", {"A1": "=B9+1"}, "A1", n(1)),
    ("text_in_arithmetic_is_bad_value", {"A1": '="a"+1'}, "A1", BAD_VALUE),
    ("power", {"A1": "=2^10"}, "A1", n(1024)),
    ("unary_before_power", {"A1": "=-2^2"}, "A1", n(-4)),
    ("fractional_power", {"A1": "=2^0.5"}, "A1", n(2.0 ** 0.5)),
    ("overflow_is_bad_value", {"A1": "=1e308*10"}, "A1", BAD_VALUE),
    ("negative_fractional_power_is_bad_value", {"A1": "=(-8)^0.5"}, "A1", BAD_VALUE),
    ("zero_to_negative_power_is_div_zero", {"A1": "=0^-1"}, "A1", DIV_ZERO),
    ("concat_texts", {"A1": '="ab"&"cd"'}, "A1", Text("abcd")),
    ("concat_number", {"A1": '=1&"x"'}, "A1", Text("1x")),
    ("concat_boolean", {"A1": '=TRUE&"!"'}, "A1", Text("TRUE!")),
    ("concat_blank_is_empty", {"A1": '=B9&"x"'}, "A1", Text("x")),
    ("equal_numbers", {"A1": "=1=1"}, "A1", Boolean(True)),
    ("not_equal", {"A1": "=1<>2"}, "A1", Boolean(True)),
    ("text_order", {"A1": '="a"<"b"'}, "A1", Boolean(True)),
    ("cross_variant_order_is_bad_value", {"A1": '=1<"a"'}, "A1", BAD_VALUE),
    ("blank_equals_zero_in_comparison", {"A1": "=B9=0"}, "A1", Boolean(True)),
    ("error_propagates_through_operator", {"A1": "=1/0+1"}, "A1", DIV_ZERO),
    ("bool_coerces_in_arithmetic", {"A1": "=TRUE+1"}, "A1", n(2)),
    ("unary_minus_on_blank", {"A1": "=-B9"}, "A1", n(0)),
    ("bare_range_is_bad_value", {"A1": "=B1:B2+1", "B1": 1, "B2": 2}, "A1", BAD_VALUE),
    ("power_overflow_is_bad_value", {"A1": "=10^400"}, "A1", BAD_VALUE),
    # ---- comparisons: ordering on equal values
    ("less_than_equal_numbers", {"A1": "=2<2"}, "A1", Boolean(False)),
    ("less_or_equal_equal_numbers", {"A1": "=2<=2"}, "A1", Boolean(True)),
    ("greater_than_equal_numbers", {"A1": "=2>2"}, "A1", Boolean(False)),
    ("greater_or_equal_equal_numbers", {"A1": "=2>=2"}, "A1", Boolean(True)),
    ("greater_or_equal_equal_texts", {"A1": '="b">="b"'}, "A1", Boolean(True)),
    # ---- comparisons: "=" is exact and case-sensitive, unlike values_equal
    ("text_equality_is_case_sensitive", {"A1": '="a"="A"'}, "A1", Boolean(False)),
    ("text_equality_does_not_trim", {"A1": '="a "="a"'}, "A1", Boolean(False)),
    # ---- comparisons: booleans
    ("boolean_equality", {"A1": "=TRUE=TRUE"}, "A1", Boolean(True)),
    ("boolean_inequality", {"A1": "=TRUE<>FALSE"}, "A1", Boolean(True)),
    ("boolean_order_is_bad_value", {"A1": "=TRUE<FALSE"}, "A1", BAD_VALUE),
    # ---- comparisons: Blank reads as 0 or "" against a number or a text
    ("blank_equals_blank", {"A1": "=B8=B9"}, "A1", Boolean(True)),
    ("blank_is_not_a_boolean", {"A1": "=B9=TRUE"}, "A1", Boolean(False)),
    ("blank_equals_empty_text", {"A1": '=B9=""'}, "A1", Boolean(True)),
    ("blank_orders_as_empty_text", {"A1": '=B9<"a"'}, "A1", Boolean(True)),
    ("blank_on_the_right_reads_as_zero", {"A1": "=5=B9"}, "A1", Boolean(False)),
    ("blank_order_against_blank_is_bad_value", {"A1": "=B9<B8"}, "A1", BAD_VALUE),
    # ---- comparisons: values of different variants are unequal
    ("number_is_not_its_text", {"A1": '=1="1"'}, "A1", Boolean(False)),
    ("boolean_is_not_a_number", {"A1": "=TRUE=1"}, "A1", Boolean(False)),
    # ---- the left operand's error wins
    ("comparison_left_error_wins", {"A1": "=1/0<Missing!A1"}, "A1", DIV_ZERO),
    ("comparison_right_side_left_error_wins", {"A1": "=Missing!A1<1/0"}, "A1", BAD_REF),
    ("concat_left_error_wins", {"A1": "=1/0&Missing!A1"}, "A1", DIV_ZERO),
    ("comparison_right_error_propagates", {"A1": "=1=1/0"}, "A1", DIV_ZERO),
    ("concat_right_error_propagates", {"A1": '="a"&1/0'}, "A1", DIV_ZERO),
    ("unary_minus_error_propagates", {"A1": "=-(1/0)"}, "A1", DIV_ZERO),
    # ---- nesting and ranges over formulas
    ("range_over_formula_cells", {"A1": "=SUM(A2:A3)", "A2": "=1+1", "A3": 4}, "A1", n(6)),
    ("nested_functions", {"A1": "=ROUND(SUM(1,2,0.125),2)"}, "A1", n(3.13)),
    # ---- references and cycles
    ("bare_reference_to_blank_is_blank", {"A1": "=Z99"}, "A1", BLANK),
    ("reference_to_missing_sheet_is_bad_ref", {"A1": "=Missing!B2"}, "A1", BAD_REF),
    ("self_reference_cycle", {"A1": "=A1"}, "A1", CYCLE),
    ("two_cell_cycle", {"A1": "=B1", "B1": "=A1"}, "A1", CYCLE),
    ("cycle_consumer", {"A1": "=B1+1", "B1": "=B1"}, "A1", CYCLE),
]
