"""Every module-level import in the engine is used by its module.

No linter runs in CI, so this check lists, per module, each name a
module-level import binds that the module never reads.  `__init__.py`
re-exports names and is skipped, and so is an import line marked
`# noqa: F401`, such as a binding kept only for the benchmark's tracer.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sheetcheck"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _imported_names(tree, lines):
    """(name, line) for each name a module-level import binds, `if` blocks included."""
    statements = list(tree.body)
    while statements:
        node = statements.pop()
        if isinstance(node, ast.If):
            statements += node.body + node.orelse
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.end_lineno - 1] or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _read_names(tree):
    """Every name the module reads, quoted annotations and type arguments included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    types = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            types.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            types.append(node.returns)
        elif isinstance(node, ast.Subscript):
            types.append(node.slice)
    for node in (node for root in types for node in ast.walk(root)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted type such as "FormulaAst"
                names |= _read_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = _read_names(tree)
    imported = _imported_names(tree, source.splitlines())
    assert sorted(f"{name} (line {line})" for name, line in imported if name not in used) == []
