"""Span recording around the calls one sheetcheck module makes into another.

Nothing in the engine changes on disk.  At run time `Tracer.install`
replaces each listed module-level binding (for example the name
`evaluate` inside `sheetcheck.matching`) with a wrapper that records a
span: name, start, end, parent span and submission id.  A span is named
after the function it calls (`evaluate.evaluate`), so one function bound
in several modules is counted together.  A binding that does not exist is
reported as absent rather than stopping the run.

Self time is a span's duration minus the time its child spans cover.  An
exception is attributed once, to the innermost traced call it escaped.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from pathlib import Path

# (module that holds the name, name).  parse_formula is an lru_cache and is
# measured through cache_info() instead of being wrapped.
BINDINGS = (
    ("sheetcheck.cli", "load_bundle"),
    ("sheetcheck.cli", "read_workbook"),
    ("sheetcheck.cli", "generate_feedback"),
    ("sheetcheck.cli", "report_to_doc"),
    ("sheetcheck.feedback", "read_workbook"),
    ("sheetcheck.feedback", "syntax_check"),
    ("sheetcheck.feedback", "match_values"),
    ("sheetcheck.feedback", "diff_formula"),
    ("sheetcheck.feedback", "evaluate"),
    ("sheetcheck.feedback", "build_graph"),
    ("sheetcheck.feedback", "compute_metrics"),
    ("sheetcheck.feedback", "idiom_suggestions"),
    ("sheetcheck.feedback", "duplicate_calculations"),
    ("sheetcheck.feedback", "compare_metrics"),
    ("sheetcheck.matching", "evaluate"),
    ("sheetcheck.matching", "build_graph"),
    ("sheetcheck.matching", "cell_value"),
    ("sheetcheck.matching", "workbook_contents"),
    ("sheetcheck.matching", "terminals"),
    ("sheetcheck.diffing", "canonicalize"),
    ("sheetcheck.quality", "canonicalize"),
    ("sheetcheck.quality", "longest_chain"),
    ("sheetcheck.quality", "terminals"),
)


def span_name(fn) -> str:
    """`<module>.<function>` of the called function, without the package."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (submission, name, start, end, parent)
        self.phase = "setup"
        self.submission = ""
        self.calls: dict[tuple[str, str], int] = {}
        self.self_s: dict[tuple[str, str], float] = {}
        self.errors: dict[tuple[str, str, str], int] = {}
        self._open: list[int] = []  # indices of the spans being timed
        self._child_s: list[float] = []  # time covered by each open span's children
        self._seen: dict[int, BaseException] = {}  # exceptions already attributed

    def begin(self, phase: str, submission: str) -> None:
        """Start attributing spans to one submission (or task, or batch)."""
        self.phase, self.submission = phase, submission
        self._open.clear()
        self._child_s.clear()
        self._seen.clear()

    def wrap(self, name: str, fn):
        # The wrapper calls no Python function of its own besides `fn`, so
        # that it still works at the recursion limit, where RecursionError
        # is raised and unwinds through it.
        spans, open_, child_s = self.spans, self._open, self._child_s
        calls, self_s, errors, seen = self.calls, self.self_s, self.errors, self._seen
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            child_s.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if id(exc) not in seen:
                    seen[id(exc)] = exc  # keeps the id from being reused
                    key = (self.phase, name, type(exc).__name__)
                    errors[key] = errors.get(key, 0) + 1
                raise
            finally:
                end = clock()
                open_.pop()
                covered = child_s.pop()
                if child_s:
                    child_s[-1] += end - start
                key = (self.phase, name)
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + (end - start - covered)
                spans[index] = (self.submission, name, start, end, parent)

        return traced

    def install(self, bindings=BINDINGS) -> tuple[list[str], list[str]]:
        """Wrap each binding in place; returns (installed, absent) names."""
        installed, absent = [], []
        for module_name, attr in bindings:
            label = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                absent.append(label)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                absent.append(label)
                continue
            setattr(module, attr, self.wrap(span_name(fn), fn))
            installed.append(label)
        return installed, absent

    def write_spans(self, path: Path) -> None:
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "submission", "name", "start", "end", "parent"])
            for index, span in enumerate(self.spans):
                if span is not None:
                    writer.writerow([index, span[0], span[1], f"{span[2]:.9f}", f"{span[3]:.9f}", span[4]])
