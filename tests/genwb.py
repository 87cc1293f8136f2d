"""Seeded random workbook generation for the randomized test corpora.

Workbooks are acyclic by construction: cells are laid out in row-major
order and a formula only ever references cells that come strictly earlier.
Ranges are chosen so that every covered cell is populated, which keeps
aggregate rewrites value-preserving.  The "positive" profile additionally
restricts formulas to positive values and cancellation-free shapes so that
reordering sums cannot lose precision beyond the comparison tolerance.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from sheetcheck import (
    CellAddress,
    Formula,
    Workbook,
    parse_formula,
    read_workbook,
    render_formula,
)
from sheetcheck.formulas import (
    Binary,
    BinOp,
    CellRef,
    FormulaAst,
    FuncCall,
    NumberLit,
    RangeRef,
    Unary,
    UnaryOp,
)

SHEET = "Sheet1"


@dataclass
class GenConfig:
    max_rows: int = 8
    max_cols: int = 8
    max_cells: int = 20
    max_depth: int = 3
    positive_only: bool = False


def _column_runs(cells: list[CellAddress]) -> list[list[CellAddress]]:
    """Maximal vertical runs of consecutively filled cells, per column."""
    runs: list[list[CellAddress]] = []
    by_col: dict[int, list[int]] = {}
    for a in cells:
        by_col.setdefault(a.col, []).append(a.row)
    for col, rows in by_col.items():
        rows.sort()
        run = [rows[0]]
        for row in rows[1:]:
            if row == run[-1] + 1:
                run.append(row)
            else:
                if len(run) >= 2:
                    runs.append([CellAddress(SHEET, col, r) for r in run])
                run = [row]
        if len(run) >= 2:
            runs.append([CellAddress(SHEET, col, r) for r in run])
    return runs


class WorkbookGen:
    def __init__(self, rng: random.Random, config: GenConfig | None = None):
        self.rng = rng
        self.config = config or GenConfig()

    # ---------------- leaf and expression construction ----------------

    def _constant(self) -> float:
        if self.config.positive_only:
            return round(self.rng.uniform(0.5, 20.0), 3)
        return round(self.rng.uniform(-50.0, 50.0), 3)

    def _leaf(self, earlier: list[CellAddress]) -> FormulaAst:
        if earlier and self.rng.random() < 0.7:
            return CellRef(self.rng.choice(earlier))
        return NumberLit(self._constant())

    def _range(self, earlier: list[CellAddress], max_row: int) -> RangeRef | None:
        runs = [
            run for run in _column_runs(earlier) if all(a.row < max_row for a in run)
        ]
        if not runs:
            return None
        run = self.rng.choice(runs)
        length = self.rng.randint(2, min(4, len(run)))
        start = self.rng.randint(0, len(run) - length)
        cells = run[start : start + length]
        return RangeRef(CellRef(cells[0]), CellRef(cells[-1]))

    def _aggregate(self, earlier: list[CellAddress], max_row: int, depth: int) -> FormulaAst:
        name = self.rng.choice(["SUM", "AVG", "MIN", "MAX"] if not self.config.positive_only else ["SUM", "AVG"])
        args: list[FormulaAst] = []
        rng_arg = self._range(earlier, max_row)
        if rng_arg is not None and self.rng.random() < 0.7:
            args.append(rng_arg)
        count = self.rng.randint(0 if args else 1, 2)
        for _ in range(count):
            args.append(self._expr(earlier, max_row, depth - 1))
        return FuncCall(name, tuple(args))

    def _expr(self, earlier: list[CellAddress], max_row: int, depth: int) -> FormulaAst:
        if depth <= 0 or self.rng.random() < 0.3:
            return self._leaf(earlier)
        roll = self.rng.random()
        if self.config.positive_only:
            if roll < 0.55:
                return Binary(
                    BinOp.ADD,
                    self._expr(earlier, max_row, depth - 1),
                    self._expr(earlier, max_row, depth - 1),
                )
            if roll < 0.7:
                return Binary(
                    BinOp.MUL,
                    self._expr(earlier, max_row, depth - 1),
                    NumberLit(round(self.rng.uniform(0.5, 5.0), 2)),
                )
            if roll < 0.8:
                return Binary(
                    BinOp.DIV,
                    self._expr(earlier, max_row, depth - 1),
                    NumberLit(float(self.rng.randint(1, 9))),
                )
            if roll < 0.9:
                return self._aggregate(earlier, max_row, depth)
            return FuncCall("ROUND", (self._expr(earlier, max_row, depth - 1), NumberLit(2.0)))
        if roll < 0.45:
            op = self.rng.choice([BinOp.ADD, BinOp.SUB, BinOp.MUL])
            return Binary(op, self._expr(earlier, max_row, depth - 1), self._expr(earlier, max_row, depth - 1))
        if roll < 0.55:
            return Binary(
                BinOp.DIV,
                self._expr(earlier, max_row, depth - 1),
                NumberLit(float(self.rng.randint(1, 9))),
            )
        if roll < 0.75:
            return self._aggregate(earlier, max_row, depth)
        if roll < 0.85:
            return FuncCall("ROUND", (self._expr(earlier, max_row, depth - 1), NumberLit(float(self.rng.randint(0, 3)))))
        if roll < 0.92:
            return FuncCall("ABS", (self._expr(earlier, max_row, depth - 1),))
        return Unary(UnaryOp.NEG, self._expr(earlier, max_row, depth - 1))

    # ---------------- whole workbooks ----------------

    def workbook(self, name: str = "generated") -> Workbook:
        cfg = self.config
        rows = self.rng.randint(2, cfg.max_rows)
        cols = self.rng.randint(2, cfg.max_cols)
        slots = [
            CellAddress(SHEET, col, row)
            for row in range(1, rows + 1)
            for col in range(1, cols + 1)
        ]
        count = self.rng.randint(4, min(cfg.max_cells, len(slots)))
        chosen = sorted(self.rng.sample(slots, count), key=lambda a: a.key)

        cells: dict[str, object] = {}
        for index, address in enumerate(chosen):
            earlier = chosen[:index]
            if index >= 2 and self.rng.random() < 0.55:
                ast = self._expr(earlier, address.row, self.rng.randint(1, cfg.max_depth))
                cells[address.text()] = "=" + render_formula(ast, SHEET)
            else:
                cells[address.text()] = self._constant()
        doc = {"name": name, "sheets": [{"name": SHEET, "cells": cells}]}
        return read_workbook(json.dumps(doc))


# ---------------- single-formula mutations ----------------


def _binary_paths(ast: FormulaAst, path=()) -> list[tuple]:
    paths = []
    if isinstance(ast, Binary):
        if ast.op in (BinOp.ADD, BinOp.SUB, BinOp.MUL, BinOp.DIV):
            paths.append(path)
        paths += _binary_paths(ast.left, path + ("left",))
        paths += _binary_paths(ast.right, path + ("right",))
    elif isinstance(ast, Unary):
        paths += _binary_paths(ast.operand, path + ("operand",))
    elif isinstance(ast, FuncCall):
        for i, arg in enumerate(ast.args):
            paths += _binary_paths(arg, path + (i,))
    return paths


def _ref_paths(ast: FormulaAst, path=()) -> list[tuple]:
    paths = []
    if isinstance(ast, CellRef):
        paths.append(path)
    elif isinstance(ast, Binary):
        paths += _ref_paths(ast.left, path + ("left",))
        paths += _ref_paths(ast.right, path + ("right",))
    elif isinstance(ast, Unary):
        paths += _ref_paths(ast.operand, path + ("operand",))
    elif isinstance(ast, FuncCall):
        for i, arg in enumerate(ast.args):
            paths += _ref_paths(arg, path + (i,))
    return paths


def _number_paths(ast: FormulaAst, path=()) -> list[tuple]:
    paths = []
    if isinstance(ast, NumberLit):
        paths.append(path)
    elif isinstance(ast, Binary):
        paths += _number_paths(ast.left, path + ("left",))
        paths += _number_paths(ast.right, path + ("right",))
    elif isinstance(ast, Unary):
        paths += _number_paths(ast.operand, path + ("operand",))
    elif isinstance(ast, FuncCall):
        for i, arg in enumerate(ast.args):
            paths += _number_paths(arg, path + (i,))
    return paths


def _rebuild(ast: FormulaAst, path: tuple, replace) -> FormulaAst:
    if not path:
        return replace(ast)
    step, rest = path[0], path[1:]
    if isinstance(ast, Binary):
        if step == "left":
            return Binary(ast.op, _rebuild(ast.left, rest, replace), ast.right)
        return Binary(ast.op, ast.left, _rebuild(ast.right, rest, replace))
    if isinstance(ast, Unary):
        return Unary(ast.op, _rebuild(ast.operand, rest, replace))
    args = list(ast.args)
    args[step] = _rebuild(args[step], rest, replace)
    return FuncCall(ast.name, tuple(args))


_OP_SWAP = {BinOp.ADD: BinOp.SUB, BinOp.SUB: BinOp.ADD, BinOp.MUL: BinOp.DIV, BinOp.DIV: BinOp.MUL}


def mutate_one_formula(
    rng: random.Random, workbook: Workbook
) -> tuple[Workbook, CellAddress, FormulaAst] | None:
    """Change exactly one formula cell; returns (workbook, cell, new ast).

    The mutation keeps the workbook acyclic: a retargeted reference only
    ever points at a cell that precedes the mutated cell row-major.
    """
    sheet = workbook.sheets[0]
    formula_cells = [(a, c) for a, c in sorted(sheet.cells.items()) if isinstance(c, Formula)]
    if not formula_cells:
        return None
    ordered = sorted(sheet.cells)
    target, formula = rng.choice(formula_cells)
    ast = parse_formula(formula.source, SHEET)
    earlier = [a for a in ordered if a.key < target.key]

    options = []
    if _binary_paths(ast):
        options.append("op")
    if _ref_paths(ast) and len(earlier) > 1:
        options.append("ref")
    if _number_paths(ast):
        options.append("num")
    if not options:
        return None
    kind = rng.choice(options)

    if kind == "op":
        path = rng.choice(_binary_paths(ast))
        mutated = _rebuild(ast, path, lambda n: Binary(_OP_SWAP[n.op], n.left, n.right))
    elif kind == "ref":
        path = rng.choice(_ref_paths(ast))

        def retarget(node):
            choices = [a for a in earlier if a != node.address]
            return CellRef(rng.choice(choices))

        mutated = _rebuild(ast, path, retarget)
    else:
        path = rng.choice(_number_paths(ast))
        delta = float(rng.randint(1, 5))
        mutated = _rebuild(ast, path, lambda n: NumberLit(n.value + delta))

    if mutated == ast:
        return None
    new_cells = dict(sheet.cells)
    new_cells[target] = Formula("=" + render_formula(mutated, SHEET))
    from sheetcheck.grid import Sheet as GridSheet

    mutated_workbook = Workbook(workbook.name, (GridSheet(sheet.name, new_cells),))
    return mutated_workbook, target, mutated
