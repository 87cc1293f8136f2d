"""Reference implementation of canonical forms, for comparison in tests.

This is the expanded form: SUM and AVG ranges expand to one CellRef per
cell, and every "+"/"*" chain is a balanced tree of Binary nodes over its
operands sorted by `oracle_key`.  It builds, sorts and compares one node
per cell, so tests run it on small formulas only.  Two formulas must have
equal `sheetcheck.canonicalize` forms exactly when their oracle forms
have equal `oracle_key`s.
"""

from __future__ import annotations

from sheetcheck.formulas import (
    Binary,
    BinOp,
    BoolLit,
    CellRef,
    FuncCall,
    NumberLit,
    RangeRef,
    TextLit,
    Unary,
    UnaryOp,
    range_addresses,
)

_CHAIN_OPS = (BinOp.ADD, BinOp.MUL)


def oracle_key(node):
    """Pre-order node labels; a -1 closes each function's argument list."""
    key = []
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, CellRef):
            key += (0, node.address, node.col_absolute, node.row_absolute)
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
        elif isinstance(node, FuncCall):
            key += (7, node.name)
            stack += (None, *reversed(node.args))
        else:
            key.append(-1)
    return tuple(key)


def _chain_operands(node, op):
    operands = []
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Binary) and node.op is op:
            stack.append(node.right)
            stack.append(node.left)
        else:
            operands.append(node)
    return operands


def balanced_chain(operands, op):
    """The balanced `op` tree over the operands; its left half holds (n + 1) // 2."""
    if not operands:
        return NumberLit(0.0)
    if len(operands) == 1:
        return operands[0]
    mid = (len(operands) + 1) // 2
    return Binary(op, balanced_chain(operands[:mid], op), balanced_chain(operands[mid:], op))


def _sorted_chain(operands, op):
    flat = []
    for operand in operands:
        flat.extend(_chain_operands(operand, op))
    flat.sort(key=oracle_key)
    return balanced_chain(flat, op)


def oracle_canonicalize(ast):
    """The expanded canonical form of a parsed AST."""
    if isinstance(ast, Unary):
        operand = oracle_canonicalize(ast.operand)
        if ast.op is UnaryOp.NEG and isinstance(operand, Unary) and operand.op is UnaryOp.NEG:
            return operand.operand
        return Unary(ast.op, operand)
    if isinstance(ast, Binary):
        if ast.op in _CHAIN_OPS:
            operands = [oracle_canonicalize(operand) for operand in _chain_operands(ast, ast.op)]
            return _sorted_chain(operands, ast.op)
        return Binary(ast.op, oracle_canonicalize(ast.left), oracle_canonicalize(ast.right))
    if isinstance(ast, FuncCall):
        args = tuple(oracle_canonicalize(arg) for arg in ast.args)
        if ast.name in ("SUM", "AVG"):
            operands = []
            for arg in args:
                if isinstance(arg, RangeRef):
                    operands.extend(
                        CellRef(a, arg.start.col_absolute, arg.start.row_absolute)
                        for a in range_addresses(arg)
                    )
                else:
                    operands.append(arg)
            total = _sorted_chain(operands, BinOp.ADD)
            if ast.name == "SUM":
                return total
            return Binary(BinOp.DIV, total, NumberLit(float(len(operands))))
        return FuncCall(ast.name, args)
    return ast
