import gc
import importlib
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from sheetcheck import (
    BLANK,
    CellError,
    ComparePhase,
    ErrorKind,
    Formula,
    Number,
    WorkbookAnalysis,
    analyze,
    column_letters,
    evaluate,
    generate_feedback,
    load_fixture,
    match_values,
    parse_workbook,
    read_workbook,
    values_equal,
    write_workbook,
)

import graph_oracle
import matching_oracle
from conftest import addr, examples, fill_down_cells, make_workbook, module_lines, range_sum_cells, texts
from genwb import WorkbookGen, mutate_one_formula


def test_fixture_error_sets(grades):
    result = match_values(analyze(grades.solution), analyze(grades.submission))
    assert texts(result.value_errors) == ["D3", "C6", "D6"]
    assert texts(result.formula_errors) == ["D3", "C6"]


def test_self_match_is_clean(grades):
    result = match_values(analyze(grades.solution), analyze(grades.solution))
    assert result.value_errors == ()
    assert result.formula_errors == ()


def test_single_mutation_d4(grades):
    mutated = {"D4": "=(B4-C4)/2"}
    cells = {}
    for address, content in sorted(grades.solution.sheets[0].cells.items()):
        cells[address.text()] = content.source if isinstance(content, Formula) else _raw(content)
    cells.update(mutated)
    submission = make_workbook(cells)
    result = match_values(analyze(grades.solution), analyze(submission))
    assert texts(result.value_errors) == ["D4", "D6"]
    assert texts(result.formula_errors) == ["D4"]


def _raw(content):
    from sheetcheck import Boolean, Number, Text

    if isinstance(content, Number):
        return content.value
    if isinstance(content, Text):
        return content.value
    if isinstance(content, Boolean):
        return content.value
    raise AssertionError(content)


def test_formula_errors_subset_of_value_errors(grades):
    result = match_values(analyze(grades.solution), analyze(grades.submission))
    assert set(result.formula_errors) <= set(result.value_errors)


def test_propagation_repair_trace(grades):
    result = match_values(analyze(grades.solution), analyze(grades.submission))
    d6 = [t for t in result.trace if t.address == addr("D6")]
    first = next(t for t in d6 if t.phase is ComparePhase.FIRST_COMPARE)
    second = next(t for t in d6 if t.phase is ComparePhase.RE_EVALUATE)
    assert not first.matched
    assert first.submission == Number(55.0)
    assert second.matched
    assert values_equal(second.submission, Number(223.0 / 3.0))
    assert addr("D6") in result.value_errors
    assert addr("D6") not in result.formula_errors


def test_each_node_first_compared_once(grades):
    result = match_values(analyze(grades.solution), analyze(grades.submission))
    first_compares = [t.address for t in result.trace if t.phase is ComparePhase.FIRST_COMPARE]
    assert len(first_compares) == len(set(first_compares)) == 12


def test_corrected_copy_holds_solution_values(grades):
    result = match_values(analyze(grades.solution), analyze(grades.submission))
    corrected = matching_oracle.apply_replacements(grades.submission, result.replacements)
    corrected_grid = evaluate(corrected)
    solution_grid = evaluate(grades.solution)
    for address in ("D3", "C6", "D6"):
        assert values_equal(corrected_grid[addr(address)], solution_grid[addr(address)])
    # untouched cells keep the submission content
    assert corrected.content(addr("D4")) == grades.submission.content(addr("D4"))


def test_missing_cell_is_value_and_formula_error():
    reference = make_workbook({"A1": 1, "B1": "=A1+1"})
    submission = make_workbook({"A1": 1})
    result = match_values(analyze(reference), analyze(submission))
    assert texts(result.value_errors) == ["B1"]
    assert texts(result.formula_errors) == ["B1"]


def test_constant_where_formula_expected():
    reference = make_workbook({"A1": 1, "B1": "=A1+1"})
    submission = make_workbook({"A1": 1, "B1": 7})
    result = match_values(analyze(reference), analyze(submission))
    assert texts(result.formula_errors) == ["B1"]


def test_submission_cycle_is_formula_error_not_fatal():
    reference = make_workbook({"A1": 1, "B1": "=A1+1"})
    submission = make_workbook({"A1": 1, "B1": "=B1"})
    result = match_values(analyze(reference), analyze(submission))
    assert texts(result.value_errors) == ["B1"]
    assert texts(result.formula_errors) == ["B1"]
    re_eval = next(
        t
        for t in result.trace
        if t.address == addr("B1") and t.phase is ComparePhase.RE_EVALUATE
    )
    assert re_eval.submission == CellError(ErrorKind.CYCLE)


def test_wrong_constant_input_is_caught():
    reference = make_workbook({"A1": 2, "B1": "=A1*10"})
    submission = make_workbook({"A1": 3, "B1": "=A1*10"})
    result = match_values(analyze(reference), analyze(submission))
    assert texts(result.value_errors) == ["A1", "B1"]
    assert texts(result.formula_errors) == ["A1"]


def test_correct_value_from_cancellation_is_not_flagged():
    # submission: wrong input, wrong formula, accidentally right output
    reference = make_workbook({"A1": 1, "B1": "=A1+1"})
    submission = make_workbook({"A1": 2, "B1": "=A1"})
    result = match_values(analyze(reference), analyze(submission))
    assert texts(result.value_errors) == ["A1"]
    assert texts(result.formula_errors) == ["A1"]
    assert addr("B1") not in result.value_errors


def test_helper_cells_feed_reevaluation():
    reference = make_workbook({"A1": 2, "B1": "=A1*2"})
    # submission computes the same value through an extra helper cell
    submission = make_workbook({"A1": 2, "B1": "=C1+A1", "C1": "=A1"})
    result = match_values(analyze(reference), analyze(submission))
    assert result.value_errors == ()
    assert result.formula_errors == ()


def test_graded_subset_restricts_reports():
    reference = make_workbook({"A1": 1, "B1": "=A1+1", "A2": 5, "B2": "=A2*2"})
    submission = make_workbook({"A1": 1, "B1": "=A1+1", "A2": 6, "B2": "=A2*3"})
    full = match_values(analyze(reference), analyze(submission))
    assert texts(full.value_errors) == ["A2", "B2"]
    restricted = match_values(analyze(reference), analyze(submission), graded={addr("B1")})
    assert restricted.value_errors == ()
    restricted_b2 = match_values(analyze(reference), analyze(submission), graded={addr("B2")})
    assert texts(restricted_b2.value_errors) == ["A2", "B2"]


def test_determinism_under_insertion_order(grades):
    cells = {}
    for address, content in sorted(grades.submission.sheets[0].cells.items()):
        cells[address.text()] = content.source if isinstance(content, Formula) else _raw(content)
    shuffled = make_workbook(dict(reversed(list(cells.items()))))
    a = match_values(analyze(grades.solution), analyze(grades.submission))
    b = match_values(analyze(grades.solution), analyze(shuffled))
    assert a.value_errors == b.value_errors
    assert a.formula_errors == b.formula_errors
    assert a.trace == b.trace


def test_randomized_self_match_is_clean():
    rng = random.Random(99)
    gen = WorkbookGen(rng)
    for _ in range(40):
        workbook = gen.workbook()
        result = match_values(analyze(workbook), analyze(workbook))
        assert result.value_errors == ()
        assert result.formula_errors == ()


def test_randomized_single_mutation_localized():
    rng = random.Random(4242)
    gen = WorkbookGen(rng)
    checked = 0
    while checked < 60:
        solution = gen.workbook()
        mutation = mutate_one_formula(rng, solution)
        if mutation is None:
            continue
        submission, mutated_cell, mutated_ast = mutation
        solution_grid = evaluate(solution)
        submission_grid = evaluate(submission)
        if values_equal(
            submission_grid.get(mutated_cell, BLANK), solution_grid.get(mutated_cell, BLANK)
        ):
            continue
        from sheetcheck import evaluate_ast

        if values_equal(evaluate_ast(mutated_ast, solution_grid), solution_grid[mutated_cell]):
            continue
        result = match_values(analyze(solution), analyze(submission))
        oracle = {
            node
            for node in solution_grid
            if not values_equal(
                solution_grid[node], submission_grid.get(node, BLANK)
            )
        }
        # the oracle diff ranges over reference graph nodes only
        nodes = set(graph_oracle.build_graph(analyze(solution)).nodes)
        assert set(result.formula_errors) == {mutated_cell}
        assert set(result.value_errors) == (oracle & nodes)
        checked += 1


def test_formula_error_soundness(grades):
    # a diagnosed formula, evaluated over a grid where everything it
    # references already holds the solution value, still disagrees
    from sheetcheck import evaluate_ast, parse_formula

    solution_grid = evaluate(grades.solution)
    result = match_values(analyze(grades.solution), analyze(grades.submission))
    for address in result.formula_errors:
        source = grades.submission.content(address).source
        value = evaluate_ast(parse_formula(source, address.sheet), solution_grid)
        assert not values_equal(value, solution_grid[address])


def test_cross_sheet_matching():
    from conftest import make_multi_workbook

    reference = make_multi_workbook({"Data": {"A1": 10}, "Main": {"B1": "=Data!A1*2"}})
    submission = make_multi_workbook({"Data": {"A1": 10}, "Main": {"B1": "=Data!A1*3"}})
    result = match_values(analyze(reference), analyze(submission))
    assert [a.text(qualified=True) for a in result.value_errors] == ["Main!B1"]
    assert [a.text(qualified=True) for a in result.formula_errors] == ["Main!B1"]


def test_missing_sheet_in_submission():
    from conftest import make_multi_workbook

    reference = make_multi_workbook({"Data": {"A1": 10}, "Main": {"B1": "=Data!A1*2"}})
    submission = make_multi_workbook({"Main": {"B1": "=Data!A1*2"}})
    result = match_values(analyze(reference), analyze(submission))
    # Data!A1 is blank-vs-10 and B1 reads a missing sheet; after the input
    # is corrected the same formula yields the solution value
    assert [a.text(qualified=True) for a in result.value_errors] == ["Data!A1", "Main!B1"]
    assert [a.text(qualified=True) for a in result.formula_errors] == ["Data!A1"]


def test_randomized_visited_set_economy():
    rng = random.Random(777)
    gen = WorkbookGen(rng)
    for _ in range(30):
        workbook = gen.workbook()
        result = match_values(analyze(workbook), analyze(workbook))
        first_compares = [
            t.address for t in result.trace if t.phase is ComparePhase.FIRST_COMPARE
        ]
        assert len(first_compares) == len(set(first_compares))


def test_randomized_corrected_copy_matches_solution():
    # after matching, the working copy evaluates to the solution value at
    # every reference-graph node, whether or not cells were replaced
    rng = random.Random(2718)
    gen = WorkbookGen(rng)
    checked = 0
    while checked < 60:
        solution = gen.workbook()
        mutation = mutate_one_formula(rng, solution)
        if mutation is None:
            continue
        submission, _, _ = mutation
        result = match_values(analyze(solution), analyze(submission))
        solution_grid = evaluate(solution)
        corrected_grid = evaluate(matching_oracle.apply_replacements(submission, result.replacements))
        for node in graph_oracle.build_graph(analyze(solution)).nodes:
            assert values_equal(
                corrected_grid.get(node, BLANK), solution_grid.get(node, BLANK)
            ), node
        checked += 1


# ---------------------------------------------------------------------------
# Equality with the fresh-memo reference implementation
# ---------------------------------------------------------------------------


def _plus(content, term):
    """Formula text that adds `term` to a cell's formula or constant."""
    body = content[1:] if isinstance(content, str) else repr(content)
    return f"=({body})+{term}"


def _is_formula(content):
    return isinstance(content, str) and content.startswith("=")


def _number_at(sheets, name):
    """Formula text of the number that Sheet1 cell `name` evaluates to in these sheets, or None."""
    workbook = read_workbook(json.dumps({"name": "w", "sheets": sheets}))
    value = matching_oracle.evaluate(workbook).get(addr(name))
    return repr(value.value) if isinstance(value, Number) else None


_EDITS = (
    "cycle",
    "range",
    "self_reference",
    "missing_sheet",
    "bad_ref_cycle",
    "constant",
    "formula_over_constant",
    "drop_sheet",
)

# Reference shapes beside the drawn grid, which fills at most A1:H8, whose
# boxes overlap: the walk must skip the cells it has reached in them.
_SHAPES = {
    # J{i} = SUM(A$1:A{i}) filled down, over a grid column and the blank rows below it.
    "running_total": lambda rng, col: {f"J{i}": f"=SUM({col}$1:{col}{i})" for i in range(1, rng.randint(2, 18) + 1)},
    # K{k} = SUM($A$1:{column k}{k}): each box grows by a row and a column from A1.
    "staircase": lambda rng, col: {
        f"K{k}": f"=SUM($A$1:{column_letters(k)}{k})" for k in range(1, rng.randint(2, 6) + 1)
    },
    # Two ranges and a cell of one formula overlap, the formulas overlap each other, and
    # L9's ranges hold the formula cells of the other shapes.
    "overlapping": lambda rng, col: {
        **{f"L{k}": f"=SUM({col}{k}:C{k + 5},B{k + 1}:D{k + 7})+B{k + 2}" for k in range(1, rng.randint(1, 4) + 1)},
        "L9": "=SUM(J1:K8,J3:L5)+J2",
    },
}


@st.composite
def matching_cases(draw):
    """(reference, submission, graded) over genwb shapes.

    The reference may gain running totals, staircases and overlapping
    ranges beside the drawn grid, and a second sheet that its formulas
    reference.  The
    submission starts from the reference, perhaps with one formula mutated,
    and takes up to three edits that add cycles, ranges, references to a missing
    sheet, changed constants, formulas where the reference holds a constant
    or drop the second sheet.  Such a formula reads an earlier formula cell
    and holds the reference constant while that cell holds its reference or
    its submission value, so a correction there can turn the verdict on a
    reference-graph leaf either way.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sheets = json.loads(write_workbook(WorkbookGen(rng).workbook("reference")))["sheets"]
    for shape in draw(st.lists(st.sampled_from(sorted(_SHAPES)), max_size=3, unique=True)):
        sheets[0]["cells"].update(_SHAPES[shape](rng, rng.choice("ABC")))
    names = list(sheets[0]["cells"])
    if draw(st.booleans()):
        sheets.append({"name": "Data", "cells": {"A1": 3, "A2": -4.5, "B1": "=A1*A2"}})
        cells = sheets[0]["cells"]
        for name in names:
            if isinstance(cells[name], str) and rng.random() < 0.5:
                cells[name] = _plus(cells[name], rng.choice(["Data!A1", "Data!A2", "Data!B1"]))
    reference = read_workbook(json.dumps({"name": "reference", "sheets": sheets}))

    mutation = mutate_one_formula(rng, reference) if draw(st.booleans()) else None
    first = write_workbook(mutation[0]) if mutation else write_workbook(reference)
    submission = json.loads(first)["sheets"][:1] + json.loads(json.dumps(sheets[1:]))
    cells = submission[0]["cells"]
    for edit in draw(st.lists(st.sampled_from(_EDITS), max_size=3)):
        target = rng.choice(names)
        if edit == "cycle":
            later = names[names.index(target):]
            cells[target] = f"={rng.choice(later)}+{rng.choice(names)}"
        elif edit == "range":  # a range from A1, which may hold the cell itself
            cells[target] = f"=SUM(A1:{rng.choice(names)})+{rng.choice(names)}"
        elif edit == "self_reference":
            cells[target] = f"={target}*2"
        elif edit == "missing_sheet":
            cells[target] = _plus(cells.get(target, 0), "Nowhere!A1")
        elif edit == "bad_ref_cycle":
            other = rng.choice(names)
            cells[target] = f"=Nowhere!X1+{other}"
            if other != target:
                cells[other] = f"={target}"
        elif edit == "constant":
            cells[target] = round(rng.uniform(-10, 10), 2)
        elif edit == "formula_over_constant":
            leaves = [name for name in names if not _is_formula(sheets[0]["cells"][name])]
            leaf = rng.choice(leaves) if leaves else target
            earlier = [name for name in names[: names.index(leaf)] if _is_formula(cells.get(name))]
            source = rng.choice(earlier) if earlier else None
            base = source and _number_at(rng.choice([sheets, submission]), source)
            if base is not None:
                # The leaf holds its reference value while `source` holds `base`.
                cells[leaf] = f"={source}-({base})+({sheets[0]['cells'][leaf]!r})"
        elif len(submission) > 1:
            submission.pop()

    for sheet in submission:  # the file's key order must not change the diagnosis
        items = list(sheet["cells"].items())
        rng.shuffle(items)
        sheet["cells"] = dict(items)

    graded = None
    if draw(st.booleans()):
        graded = {addr(name) for name in rng.sample(names, rng.randint(1, len(names)))}
    return reference, read_workbook(json.dumps({"name": "submission", "sheets": submission})), graded


@settings(max_examples=examples(200), deadline=None)
@given(matching_cases())
def test_match_values_equals_fresh_memo_oracle(case):
    reference, submission, graded = case
    analysis = analyze(submission)
    assert analysis.grid == matching_oracle.evaluate(submission)
    expected = matching_oracle.match_values(reference, submission, graded=graded)
    result = match_values(analyze(reference), analysis, graded=graded)
    assert result == expected and result.trace == expected.trace


def test_oracle_evaluation_starts_where_the_engine_does():
    # Started at B1 in file order, the cycle would give A1 CYCLE; started
    # at A1, B1's 1/0 comes first and both cells read DIV/0.
    workbook = make_workbook({"B1": "=1/0+A1", "A1": "=B1"})
    assert matching_oracle.evaluate(workbook) == analyze(workbook).grid
    assert set(analyze(workbook).grid.values()) == {CellError(ErrorKind.DIV_ZERO)}


def test_cycle_cells_are_re_evaluated_from_a_fresh_memo():
    # In grid order B1 reads CYCLE; evaluated from B1 itself, A1 meets the
    # missing sheet first and B1 reads BAD_REF.
    reference = make_workbook({"A1": 1, "B1": 7})
    submission = make_workbook({"A1": "=Nowhere!X1+B1", "B1": "=A1"})
    result = match_values(analyze(reference), analyze(submission), graded={addr("B1")})
    assert [t.submission for t in result.trace] == [
        CellError(ErrorKind.CYCLE),
        CellError(ErrorKind.BAD_REF),
    ]
    assert result == matching_oracle.match_values(reference, submission, graded={addr("B1")})


def test_a_matching_leaf_that_a_correction_reaches_is_re_evaluated():
    # C1 is a reference constant that the submission computes from B1.  It
    # matches at first, but once B1 is corrected it reads 8, not 10, and is
    # corrected itself, so D1 reads the right sum.
    reference = make_workbook({"A1": 2, "B1": "=A1*3", "C1": 10, "D1": "=B1+C1"})
    submission = make_workbook({"A1": 2, "B1": "=A1*4", "C1": "=B1-8+10", "D1": "=B1+C1"})
    result = match_values(analyze(reference), analyze(submission))
    c1 = [(t.phase, t.submission, t.matched) for t in result.trace if t.address == addr("C1")]
    assert c1 == [
        (ComparePhase.FIRST_COMPARE, Number(10.0), True),
        (ComparePhase.RE_EVALUATE, Number(8.0), False),
    ]
    assert texts(result.value_errors) == ["B1", "D1"]
    assert texts(result.formula_errors) == ["B1"]
    assert result == matching_oracle.match_values(reference, submission)


def _formula_evaluations(monkeypatch, reference, submission):
    """AST nodes evaluated by match_values alone, analyses excluded."""
    evaluation = importlib.import_module("sheetcheck.evaluate")
    reference, submission = analyze(reference), analyze(submission)
    submission.graph, reference.graph  # noqa: B018 - built before counting
    calls = 0
    plain = evaluation._eval

    def counted(node, resolve):
        nonlocal calls
        calls += 1
        return plain(node, resolve)

    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "_eval", counted)
        match_values(reference, submission)
    return calls


@pytest.mark.parametrize("n", (1000, 2000))
def test_matching_a_chain_evaluates_each_formula_at_most_once(monkeypatch, n):
    reference = make_workbook(fill_down_cells(n, True, 1))
    assert _formula_evaluations(monkeypatch, reference, reference) == 0
    # a wrong first cell invalidates the whole chain once: n - 1 formulas
    # of three nodes each are evaluated again
    wrong_start = make_workbook(fill_down_cells(n, True, 2))
    assert _formula_evaluations(monkeypatch, reference, wrong_start) == 3 * (n - 1)


def test_matching_compares_a_constant_cell_once(monkeypatch):
    # The re-evaluation of a cell that no correction reached finds the
    # submission's own value object and keeps the first compare's verdict.
    matching = importlib.import_module("sheetcheck.matching")
    reference = analyze(make_workbook(range_sum_cells(100, 100)))
    submission = analyze(make_workbook(range_sum_cells(100, 100, short=True)))
    calls = 0
    plain = matching.values_equal

    def counted(a, b, tolerance):
        nonlocal calls
        calls += 1
        return plain(a, b, tolerance)

    monkeypatch.setattr(matching, "values_equal", counted)
    result = match_values(reference, submission)
    assert texts(result.formula_errors) == ["A102"]
    assert len(result.trace) == 2 * 10_001  # the 10,000 cells of the range and A102
    assert calls <= 10_001 + len(reference.formulas)


def _block_match():
    reference = analyze(make_workbook(range_sum_cells(100, 10)))
    submission = analyze(make_workbook(range_sum_cells(100, 10, short=True)))
    return reference, submission


def test_an_unread_trace_keeps_no_object_per_entry():
    reference, submission = _block_match()
    match_values(reference, submission)
    gc.collect()
    before = len(gc.get_objects())
    result = match_values(reference, submission)
    gc.collect()
    kept = len(gc.get_objects()) - before
    assert len(result.trace) == 2 * 1001
    assert kept <= 50


def test_trace_reads_as_a_tuple_of_entries():
    reference, submission = _block_match()
    trace = match_values(reference, submission).trace
    expected = matching_oracle.match_values(reference.workbook, submission.workbook).trace
    assert type(expected) is tuple
    assert trace == expected and expected == trace
    assert not (trace != expected or expected != trace)
    assert trace != expected[:-1] and expected[1:] != trace
    assert hash(trace) == hash(expected)
    assert len(trace) == len(expected) == 2 * 1_001
    assert trace[0] == expected[0] and trace[-1] == expected[-1] == trace[len(trace) - 1]
    assert trace[-1].address == addr("A102") and trace[-1].phase is ComparePhase.RE_EVALUATE
    assert trace[5:11] == expected[5:11] and trace[::-700] == expected[::-700]
    assert list(trace) == list(expected)
    for index in (len(trace), -len(trace) - 1):
        with pytest.raises(IndexError):
            trace[index]
    with pytest.raises(TypeError):
        trace[0] = expected[1]


# ---------------------------------------------------------------------------
# The reference walk: built once per reference and graded cells, linear on running totals
# ---------------------------------------------------------------------------


def test_the_walk_is_built_at_the_first_report_and_kept_with_the_bundle(monkeypatch):
    matching = importlib.import_module("sheetcheck.matching")
    built = []
    walk = matching.reference_walk

    def recording(reference, graded):
        built.append(graded)
        return walk(reference, graded)

    monkeypatch.setattr(matching, "reference_walk", recording)
    fixture = load_fixture("grades")
    reference = fixture.bundle.reference_analysis
    assert built == [] and reference.walks == {}  # loading the bundle builds no walk
    first = generate_feedback(fixture.bundle, fixture.submission, 6)
    assert generate_feedback(fixture.bundle, fixture.submission, 6) == first
    assert built == [fixture.bundle.graded]
    # A plain set of graded cells shares the walk of the equal frozenset.
    submission = analyze(fixture.submission)
    match_values(reference, submission, graded={addr("D6")})
    match_values(reference, submission, graded=frozenset({addr("D6")}))
    assert built == [fixture.bundle.graded, frozenset({addr("D6")})]


def _running_total(n):
    """B{i} = SUM(A$1:A{i}) beside A{i} = i, analysed with its grid written out: no cell is evaluated."""
    cells = {**{f"A{i}": i for i in range(1, n + 1)}, **{f"B{i}": f"=SUM(A$1:A{i})" for i in range(1, n + 1)}}
    workbook = make_workbook(cells)
    grid = {addr(f"A{i}"): Number(float(i)) for i in range(1, n + 1)}
    grid.update({addr(f"B{i}"): Number(i * (i + 1) / 2) for i in range(1, n + 1)})
    return WorkbookAnalysis(workbook, parse_workbook(workbook)[0], grid)


def test_the_walk_of_a_running_total_runs_linearly_many_lines():
    # Each SUM's box starts at A1, but the rows that earlier formulas reached are
    # skipped through the column's jump map without being looked at one by one.
    matching = importlib.import_module("sheetcheck.matching")
    n = 4_000
    reference = _running_total(n)
    reference.graph  # noqa: B018 - built before counting
    walk, lines = module_lines(matching, matching.reference_walk, reference, None)
    assert len(walk) == 3 * n
    assert lines <= 100 * n, lines  # about 60 per row; reading each member would take n^2 / 2 times that


def _held_after_first_match(n):
    """Bytes still allocated after a first self-match of a running total, garbage collected first."""
    reference, submission = _running_total(n), _running_total(n)
    reference.graph.outputs, submission.graph.acyclic_order  # noqa: B018 - built before measuring
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        match_values(reference, submission)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_the_walk_a_reference_keeps_grows_linearly_with_a_running_total():
    # The n boxes overlap in n^2 / 2 cells; the walk lists each cell once and each formula twice.
    small, large = _held_after_first_match(1_000), _held_after_first_match(2_000)
    assert large <= 2.5 * small, (small, large)

