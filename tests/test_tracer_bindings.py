"""The benchmark tracer wraps engine functions by module and name.

A refactor that moves or renames a traced function leaves its binding
absent, and the traced metrics read 0.  This check fails in the ordinary
test run as soon as a binding in perfbench/tracing.py stops resolving.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_resolves_to_a_callable():
    bindings = runpy.run_path(str(TRACING))["BINDINGS"]
    absent = [
        f"{module}.{name}"
        for module, name in bindings
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert bindings and absent == []
