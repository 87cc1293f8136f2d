"""Seeded benchmark inputs and the oracle that checks the grader's verdicts.

Every generator writes task bundles and submission workbooks as files and
records, for each submission, the verdict the grader must reach: the
status, the cells that hold wrong values and the cells that are original
formula errors (or the syntax-error cells, or "unreadable").  The verdicts
come from the small evaluator in this module, which only understands the
restricted formula shapes the generators emit.  Nothing here imports the
engine, so a verdict can never be a copy of the engine's own output.

Rules the generators keep so that the plain evaluation is a sound oracle:

- Input cells are constants and are identical in reference and submission.
- A submission formula only references constants or cells its reference
  formula references, so re-evaluating it over corrected inputs is the
  same as evaluating it over the reference values of what it references.
- A mutation is kept only when it moves its cell's value far beyond the
  task tolerance; a rewrite is kept only when it leaves every value
  unchanged.  Any value difference in the grey zone between those two
  makes the generator draw again.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import asdict, dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

SHEET = "Sheet1"
TOLERANCE = 1e-9  # abs and rel tolerance of every generated task
NOISE = 1e-12  # relative differences below this are float noise
CLEAR = 1e-6  # a mutation must move its cell by more than this, relatively

WORKLOADS = ("grades-batch", "wide-table", "deep-shapes")

# --------------------------------------------------------------------------
# Restricted formula shapes
# --------------------------------------------------------------------------
# ("num", x) | ("ref", "B3", absolute) | ("rng", "B3", "E3")
# | ("bin", op, left, right) | ("add", terms) | ("call", NAME, args)


def num(x: float) -> tuple:
    return ("num", x)


def ref(address: str, absolute: bool = False) -> tuple:
    return ("ref", address, absolute)


def rng(start: str, end: str) -> tuple:
    return ("rng", start, end)


def bin_(op: str, left: tuple, right: tuple) -> tuple:
    return ("bin", op, left, right)


def add(*terms: tuple) -> tuple:
    return ("add", terms)


def call(name: str, *args: tuple) -> tuple:
    return ("call", name, args)


def letters(col: int) -> str:
    text = ""
    while col:
        col, rem = divmod(col - 1, 26)
        text = chr(65 + rem) + text
    return text


def cell(col: int, row: int) -> str:
    return f"{letters(col)}{row}"


_ADDRESS = re.compile(r"([A-Z]+)([0-9]+)")


def split(address: str) -> tuple[int, int]:
    match = _ADDRESS.fullmatch(address)
    col = 0
    for ch in match.group(1):
        col = col * 26 + ord(ch) - 64
    return col, int(match.group(2))


def range_cells(start: str, end: str) -> list[str]:
    (c1, r1), (c2, r2) = split(start), split(end)
    return [cell(c, r) for r in range(r1, r2 + 1) for c in range(c1, c2 + 1)]


def _num_text(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def render(node: tuple, nested: bool = False) -> str:
    kind = node[0]
    if kind == "num":
        return _num_text(node[1])
    if kind == "ref":
        if not node[2]:
            return node[1]
        col, row = split(node[1])
        return f"${letters(col)}${row}"
    if kind == "rng":
        return f"{node[1]}:{node[2]}"
    if kind == "call":
        return node[1] + "(" + ",".join(render(arg) for arg in node[2]) + ")"
    if kind == "bin":
        text = render(node[2], True) + node[1] + render(node[3], True)
    else:
        text = "+".join(render(term, True) for term in node[1])
    return f"({text})" if nested else text


def _round_half_away(x: float, digits: int) -> float:
    step = Decimal(1).scaleb(-digits)
    return float(Decimal(x).quantize(step, rounding=ROUND_HALF_UP))


def near_tie(x: float, digits: int) -> bool:
    """True when rounding x could depend on how a tie is broken."""
    scaled = abs(x) * 10**digits
    return abs(scaled - math.floor(scaled) - 0.5) < 1e-6


def value(node: tuple, get) -> float:
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "ref":
        return get(node[1])
    if kind == "add":
        total = value(node[1][0], get)
        for term in node[1][1:]:
            total += value(term, get)
        return total
    if kind == "bin":
        a, b = value(node[2], get), value(node[3], get)
        op = node[1]
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        if op == ">=":
            return a >= b
        if op == "<":
            return a < b
        raise ValueError(f"operator {op!r} is outside the generated shapes")
    name, args = node[1], node[2]
    if name == "ROUND":
        x, digits = value(args[0], get), int(value(args[1], get))
        if near_tie(x, digits):
            raise Ambiguous(f"ROUND({x!r}, {digits}) is close to a tie")
        return _round_half_away(x, digits)
    if name == "IF":
        return value(args[1], get) if value(args[0], get) else value(args[2], get)
    operands: list[float] = []
    for arg in args:
        if arg[0] == "rng":
            operands.extend(get(a) for a in range_cells(arg[1], arg[2]))
        else:
            operands.append(value(arg, get))
    if name == "SUM":
        return math.fsum(operands)
    if name == "AVG":
        return math.fsum(operands) / len(operands)
    if name == "MAX":
        return max(operands)
    if name == "MIN":
        return min(operands)
    if name == "ABS":
        return abs(operands[0])
    raise ValueError(f"function {name!r} is outside the generated shapes")


# --------------------------------------------------------------------------
# Workbooks and verdicts
# --------------------------------------------------------------------------


class Ambiguous(Exception):
    """A value difference falls between float noise and a clear change."""


@dataclass
class Book:
    """Cells of one generated workbook; formulas listed in evaluation order."""

    constants: dict[str, object]
    formulas: dict[str, tuple] = field(default_factory=dict)

    def copy(self) -> "Book":
        return Book(dict(self.constants), dict(self.formulas))

    def values(self) -> dict[str, float]:
        vals = {a: v for a, v in self.constants.items() if isinstance(v, (int, float))}
        get = lambda a: vals.get(a, 0.0)  # noqa: E731 - blank reads as 0
        for address, node in self.formulas.items():
            vals[address] = value(node, get)
        return vals

    def to_json(self, name: str) -> str:
        cells = dict(self.constants)
        cells.update({a: "=" + render(node) for a, node in self.formulas.items()})
        doc = {"name": name, "sheets": [{"name": SHEET, "cells": cells}]}
        return json.dumps(doc, separators=(",", ":"))


def differs(a: float, b: float) -> bool:
    """Clear difference (True), noise-level agreement (False) or Ambiguous."""
    gap = abs(a - b)
    scale = max(1.0, abs(a), abs(b))
    if gap <= NOISE * scale:
        return False
    if gap > CLEAR * scale:
        return True
    raise Ambiguous(f"{a!r} vs {b!r}")


def verdict(reference: Book, submission: Book, ref_vals: dict[str, float] | None = None) -> dict:
    """Expected status, value-error and formula-error cells of a submission.

    Every reference formula cell is graded: the generated references have
    no unreferenced formula cells except their outputs.  `ref_vals` may pass
    the reference's values when they are already known.
    """
    ref_vals = reference.values() if ref_vals is None else ref_vals
    sub_vals = submission.values()
    value_errors, formula_errors = [], []
    for address in reference.formulas:
        expected = ref_vals[address]
        if not differs(expected, sub_vals.get(address, 0.0)):
            continue
        value_errors.append(address)
        node = submission.formulas[address]
        again = value(node, lambda a: ref_vals.get(a, 0.0))
        if differs(expected, again):
            formula_errors.append(address)
    return {
        "status": "fail" if value_errors else "pass",
        "value_errors": sorted(value_errors),
        "formula_errors": sorted(formula_errors),
    }


def check_report(expect: dict, doc: dict | None, error: str | None = None) -> str | None:
    """Compare a rendered report (or a read error) with a verdict.

    Returns None when they agree, else a one-line description.
    """
    if expect["status"] == "unreadable":
        return None if error == "unreadable" else f"expected unreadable, got {error or doc['status']}"
    if doc is None:
        return f"expected {expect['status']}, got {error}"
    if doc["status"] != expect["status"]:
        return f"status {doc['status']}, expected {expect['status']}"
    if expect["status"] == "syntax_error":
        cells = sorted(issue["cell"] for issue in doc["syntax"])
        if cells != expect["syntax_cells"]:
            return f"syntax cells {cells}, expected {expect['syntax_cells']}"
    else:
        for kind in ("value_error", "formula_error"):
            cells = sorted(d["cell"] for d in doc["diagnoses"] if d["kind"] == kind)
            if cells != expect[kind + "s"]:
                return f"{kind} cells {cells}, expected {expect[kind + 's']}"
    messages = expect.get("messages")
    if messages is not None and doc["messages"] != messages:
        return f"messages {doc['messages']}, expected {messages}"
    return None


def check_batch_row(expect: dict, row: list[str], line: dict) -> str | None:
    """Compare one `sheetcheck batch` CSV row and JSONL line with a verdict."""
    if expect["status"] == "unreadable":
        if row[1] != "error" or "error" not in line:
            return f"expected an error row, got {row[1]}"
        return None
    if "report" not in line:
        return f"batch error {line.get('error')!r}"
    problem = check_report(dict(expect, messages=None), line["report"])
    if problem is None:
        want = [expect["status"], "0", "0"]
        if expect["status"] != "syntax_error":
            want[1:] = [str(len(expect["value_errors"])), str(len(expect["formula_errors"]))]
        if row[1:] != want:
            problem = f"CSV row {row}, expected {want}"
    return problem


# --------------------------------------------------------------------------
# Output
# --------------------------------------------------------------------------


@dataclass
class Plan:
    workload: str
    seed: int
    deadline_s: float
    tasks: list[dict] = field(default_factory=list)
    submissions: list[dict] = field(default_factory=list)
    batches: list[dict] = field(default_factory=list)
    trace: list[int] = field(default_factory=list)  # graded by traced runs, and digested


class Writer:
    """Writes the generated files below one work directory."""

    def __init__(self, root: Path, plan: Plan):
        self.root = root
        self.plan = plan
        for sub in ("tasks", "subs", "batches"):
            (root / sub).mkdir(parents=True, exist_ok=True)

    def task(self, name: str, reference_json: str, extra: dict | None = None) -> str:
        folder = self.root / "tasks" / name
        folder.mkdir(parents=True, exist_ok=True)
        (folder / "solution.json").write_text(reference_json, encoding="utf-8")
        doc = {"task": name, "reference": "solution.json", "tolerance": {"abs": TOLERANCE, "rel": TOLERANCE}}
        doc.update(extra or {})
        (folder / "task.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
        path = f"tasks/{name}/task.json"
        self.plan.tasks.append({"name": name, "path": path})
        return path

    def submission(self, task: str, text: str, level: int, expect: dict, kind: str,
                   size: int = 0, force_quality: bool = False) -> None:
        index = len(self.plan.submissions)
        path = f"subs/{index:05d}.json"
        (self.root / path).write_text(text, encoding="utf-8")
        self.plan.submissions.append({
            "id": index, "task": task, "path": path, "level": level, "force_quality": force_quality,
            "kind": kind, "size": size, "expect": expect,
        })

    def batch(self, task: str, level: int, members: list[int]) -> None:
        name = f"b{len(self.plan.batches):03d}"
        folder = self.root / "batches" / name
        folder.mkdir(parents=True, exist_ok=True)
        files = []
        for member in members:
            sub = self.plan.submissions[member]
            file = f"{member:05d}.json"
            (folder / file).write_bytes((self.root / sub["path"]).read_bytes())
            files.append({"file": file, "id": member})
        self.plan.batches.append({"task": task, "level": level, "dir": f"batches/{name}", "files": files})

    def finish(self) -> None:
        (self.root / "manifest.json").write_text(json.dumps(asdict(self.plan)), encoding="utf-8")


def _draw(rng_: random.Random, attempts, make):
    """First candidate from `attempts` shuffled that `make` accepts."""
    options = list(attempts)
    rng_.shuffle(options)
    for option in options:
        try:
            made = make(option)
        except Ambiguous:
            continue
        if made is not None:
            return made
    return None


# --------------------------------------------------------------------------
# grades-batch: variants of the bundled grades fixture
# --------------------------------------------------------------------------

GRADES_MUTABLE = ("D3", "D4", "D5", "B6", "C6", "D6")


def _same_as_fixture(book: Book, doc: dict) -> Book:
    """The book, after checking that its formulas are the fixture file's."""
    raw = doc["sheets"][0]["cells"]
    for address, node in book.formulas.items():
        if "=" + render(node) != raw[address]:
            raise RuntimeError(f"grades fixture {doc['name']!r} changed: {address} is {raw[address]!r}")
    return book


def _grades_reference(solution_doc: dict) -> Book:
    raw = solution_doc["sheets"][0]["cells"]
    book = Book({a: v for a, v in raw.items() if not (isinstance(v, str) and v.startswith("="))})
    for r in (3, 4, 5):
        book.formulas[f"D{r}"] = bin_("/", add(ref(f"B{r}"), ref(f"C{r}")), num(2))
    for c in "BCD":
        book.formulas[f"{c}6"] = call("AVG", rng(f"{c}3", f"{c}5"))
    return _same_as_fixture(book, solution_doc)


def _grades_fixture_submission(reference: Book, submission_doc: dict) -> Book:
    book = reference.copy()
    book.formulas["D3"] = bin_("/", bin_("-", ref("B3"), ref("C3")), num(2))
    book.formulas["B6"] = bin_("/", add(ref("B3"), ref("B4"), ref("B5")), num(3))
    book.formulas["C6"] = bin_("/", add(ref("C3"), ref("C4"), ref("D5")), num(3))
    book.formulas["D6"] = bin_("/", add(ref("D3"), ref("D4"), ref("D5")), num(3))
    return _same_as_fixture(book, submission_doc)


def _grades_variants(address: str) -> tuple[list[tuple], list[tuple]]:
    """(value-changing mutations, value-preserving rewrites) of one cell."""
    col, row = address[0], int(address[1:])
    if row < 6:
        b, c = ref(f"B{row}"), ref(f"C{row}")
        others = [r for r in (3, 4, 5) if r != row]
        changing = [
            bin_("/", bin_("-", b, c), num(2)),  # operator
            bin_("/", bin_("*", b, c), num(2)),
            bin_("*", add(b, c), num(2)),
            bin_("/", add(b, ref(f"C{others[0]}")), num(2)),  # reference
            bin_("/", add(b, ref(f"C{others[1]}")), num(2)),
            bin_("/", add(b, b), num(2)),
            bin_("/", add(b, c), num(3)),  # constant
            bin_("/", add(b, c), num(4)),
            call("MAX", rng(f"B{row}", f"C{row}")),  # function
            call("SUM", rng(f"B{row}", f"C{row}")),
        ]
        keeping = [
            call("AVG", rng(f"B{row}", f"C{row}")),
            bin_("/", add(c, b), num(2)),
            bin_("/", call("SUM", rng(f"B{row}", f"C{row}")), num(2)),
        ]
        return changing, keeping
    cells = [ref(f"{col}{r}") for r in (3, 4, 5)]
    other = [x for x in "BC" if x != col][0]
    changing = [
        bin_("/", bin_("-", add(cells[0], cells[1]), cells[2]), num(3)),  # operator
        bin_("/", add(*cells), num(4)),  # constant
        call("AVG", rng(f"{col}3", f"{col}4")),  # reference: range one row short
        call("AVG", rng(f"{other}3", f"{other}5")),  # reference: wrong column
        call("SUM", rng(f"{col}3", f"{col}5")),  # function
        call("MAX", rng(f"{col}3", f"{col}5")),
        call("MIN", rng(f"{col}3", f"{col}5")),
    ]
    keeping = [bin_("/", add(*cells), num(3))]  # the written-out average
    return changing, keeping


GRADES_SYNTAX = ("=(B{r}+C{r}/2", "=B{r}+*C{r}", "=AVGG(B{r}:C{r})", "=(B{r}+C{r})/", "=SUM(B{r}:C{r}")

GRADES_UNREADABLE = (
    '{"name": "broken", "sheets": [',
    '{"name": "a", "name": "b", "sheets": []}',
    '{"name": "lower", "sheets": [{"name": "Sheet1", "cells": {"d3": 1}}]}',
    '{"name": "extra", "sheets": [], "owner": "x"}',
    '{"name": "nan", "sheets": [{"name": "Sheet1", "cells": {"A1": NaN}}]}',
)

# One block of the grades-batch pool; levels cycle 1..7 independently.
GRADES_BLOCK = (
    "fixture", "single", "double", "rewrite", "single", "double", "syntax",
    "solution", "single", "double", "rewrite", "single", "double", "syntax",
    "single", "double", "rewrite", "single", "double", "unreadable",
)


def _grades_submission(rng_: random.Random, reference: Book, kind: str) -> tuple[Book, dict]:
    while True:
        book = reference.copy()
        cells = rng_.sample(GRADES_MUTABLE, 2 if kind == "double" else 1)
        try:
            for address in cells:
                changing, keeping = _grades_variants(address)
                pool = keeping if kind == "rewrite" else changing
                before = book.values()[address]
                book.formulas[address] = pool[rng_.randrange(len(pool))]
                moved = differs(before, book.values()[address])
                if moved != (kind != "rewrite"):
                    break
            else:
                return book, verdict(reference, book)
        except Ambiguous:
            continue


def generate_grades_batch(root: Path, seed: int, src: Path, count: int = 2800) -> Plan:
    rng_ = random.Random(f"grades-batch:{seed}")
    plan = Plan("grades-batch", seed, deadline_s=2.0)
    out = Writer(root, plan)
    data = src / "sheetcheck" / "data" / "grades"
    solution_text = (data / "solution.json").read_text(encoding="utf-8")
    submission_text = (data / "submission.json").read_text(encoding="utf-8")
    task_doc = json.loads((data / "task.json").read_text(encoding="utf-8"))
    expected_messages = json.loads((data / "expected_messages.json").read_text(encoding="utf-8"))
    reference = _grades_reference(json.loads(solution_text))
    fixture = _grades_fixture_submission(reference, json.loads(submission_text))
    extra = {k: v for k, v in task_doc.items() if k not in ("task", "reference", "tolerance")}
    task = out.task("grades", solution_text, extra)

    for index in range(count):
        level = index % 7 + 1
        kind = GRADES_BLOCK[index % len(GRADES_BLOCK)]
        if kind == "fixture":
            # The golden level-7 messages are the quality feedback that
            # `--force-quality` adds to a failing submission.
            expect = dict(verdict(reference, fixture), messages=expected_messages[str(level)])
            out.submission(task, submission_text, level, expect, kind, force_quality=level == 7)
        elif kind == "solution":
            out.submission(task, solution_text, level, verdict(reference, reference), kind)
        elif kind == "syntax":
            broken = sorted(rng_.sample(("D3", "D4", "D5"), rng_.choice((1, 2))))
            text = json.loads(reference.to_json(f"variant-{index}"))
            for address in broken:
                text["sheets"][0]["cells"][address] = rng_.choice(GRADES_SYNTAX).format(r=address[1:])
            expect = {"status": "syntax_error", "syntax_cells": broken}
            out.submission(task, json.dumps(text), level, expect, kind)
        elif kind == "unreadable":
            out.submission(task, rng_.choice(GRADES_UNREADABLE), level, {"status": "unreadable"}, kind)
        else:
            book, expect = _grades_submission(rng_, reference, kind)
            out.submission(task, book.to_json(f"variant-{index}"), level, expect, kind)

    for level in range(1, 8):
        members = [i for i in range(len(plan.submissions)) if i % 7 + 1 == level][:60]
        out.batch(task, level, members)
    plan.trace = list(range(min(700, count)))  # five blocks: every kind at every level
    out.finish()
    return plan


# --------------------------------------------------------------------------
# wide-table: a gradebook of 120 rows
# --------------------------------------------------------------------------

WIDE_ROWS = 120
WIDE_FIRST = 3
WIDE_FOOTERS = (("Avg.", "AVG", "G"), ("Sum", "SUM", "F"), ("Max", "MAX", "H"))
WIDE_LABELS = ("Name", "Ex. 1", "Ex. 2", "Ex. 3", "Ex. 4", "Total", "Average", "Weighted", "Passed")


def _wide_row(r: int, style: dict) -> dict[str, tuple]:
    """Total, average, weighted and rounded average, pass flag of one row."""
    b, c, d, e = (ref(f"{x}{r}") for x in "BCDE")
    g, weight = ref(f"G{r}"), ref("H1", absolute=True)
    f = {"sum": call("SUM", rng(f"B{r}", f"E{r}")), "written": add(b, c, d, e)}[style["F"]]
    average = {
        "written": bin_("/", add(b, c, d, e), num(4)),
        "avg": call("AVG", rng(f"B{r}", f"E{r}")),
        "reversed": bin_("/", add(e, d, c, b), num(4)),
    }[style["G"]]
    weighted = {
        "absolute": bin_("*", g, weight),
        "commuted": bin_("*", weight, g),
        "relative": bin_("*", g, ref("H1")),
    }[style["H"]]
    passed = {
        "ge": call("IF", bin_(">=", ref(f"H{r}"), num(50)), num(1), num(0)),
        "lt": call("IF", bin_("<", ref(f"H{r}"), num(50)), num(0), num(1)),
    }[style["I"]]
    return {f"F{r}": f, f"G{r}": average, f"H{r}": call("ROUND", weighted, num(1)), f"I{r}": passed}


def _wide_mutations(address: str, other_row: int) -> list[tuple]:
    col, r = address[0], int(address[1:])
    b, c, d, e = (ref(f"{x}{r}") for x in "BCDE")
    g, h, weight = ref(f"G{r}"), ref(f"H{r}"), ref("H1", absolute=True)
    return {
        "F": [
            call("SUM", rng(f"B{r}", f"D{r}")),
            call("MAX", rng(f"B{r}", f"E{r}")),
            bin_("-", add(b, c, d), e),
        ],
        "G": [
            bin_("/", add(b, c, d, e), num(5)),
            bin_("/", bin_("-", add(b, c, d), e), num(4)),
            bin_("/", add(b, c, d, ref(f"E{other_row}")), num(4)),
        ],
        "H": [
            call("ROUND", bin_("*", g, ref("I1", absolute=True)), num(1)),
            call("ROUND", bin_("+", g, weight), num(1)),
            call("ROUND", bin_("*", g, weight), num(0)),
            call("ABS", bin_("*", g, weight)),
        ],
        "I": [
            call("IF", bin_(">=", h, num(60)), num(1), num(0)),
            call("IF", bin_(">=", h, num(50)), num(1), num(2)),
        ],
    }[col]


def _wide_book(scores: list[list[int]], weight: float, style: dict) -> Book:
    last = WIDE_FIRST + len(scores) - 1
    constants: dict[str, object] = {"A1": "Gradebook", "G1": "Weight", "H1": weight, "I1": 0.5}
    for col, label in zip("ABCDEFGHI", WIDE_LABELS):
        constants[f"{col}2"] = label
    book = Book(constants)
    for offset, row_scores in enumerate(scores):
        r = WIDE_FIRST + offset
        constants[f"A{r}"] = f"Student {offset + 1}"
        for col, score in zip("BCDE", row_scores):
            constants[f"{col}{r}"] = score
        book.formulas.update(_wide_row(r, style))
    for offset, (label, name, columns) in enumerate(WIDE_FOOTERS):
        r = last + 1 + offset
        constants[f"A{r}"] = label
        for col in columns:
            whole = rng(f"{col}{WIDE_FIRST}", f"{col}{last}")
            if name == "AVG" and style["footer"] == "written":
                book.formulas[f"{col}{r}"] = bin_("/", call("SUM", whole), num(len(scores)))
            else:
                book.formulas[f"{col}{r}"] = call(name, whole)
    return book


WIDE_REFERENCE_STYLE = {"F": "sum", "G": "written", "H": "absolute", "I": "ge", "footer": "avg"}


def generate_wide_table(root: Path, seed: int, count: int = 120, rows: int = WIDE_ROWS) -> Plan:
    rng_ = random.Random(f"wide-table:{seed}")
    plan = Plan("wide-table", seed, deadline_s=10.0)
    out = Writer(root, plan)
    weight = rng_.choice((0.83, 0.87, 0.91, 0.93))
    scores = []
    while len(scores) < rows:
        row = [rng_.randint(10, 100) for _ in range(4)]
        if not near_tie(sum(row) / 4 * weight, 1):
            scores.append(row)
    reference = _wide_book(scores, weight, WIDE_REFERENCE_STYLE)
    ref_vals = reference.values()
    task = out.task("gradebook", reference.to_json("gradebook-solution"))

    for index in range(count):
        style = {
            "F": rng_.choice(("sum", "written")),
            "G": rng_.choice(("written", "avg", "reversed")),
            "H": rng_.choice(("absolute", "commuted", "relative")),
            "I": rng_.choice(("ge", "lt")),
            "footer": rng_.choice(("avg", "written")),
        }
        book = _wide_book(scores, weight, style)
        get = lambda a: ref_vals.get(a, 0.0)  # noqa: E731 - rows are independent
        while True:
            mutated = 0 if rng_.random() < 0.2 else rng_.randint(1, 4)
            rows_hit = rng_.sample(range(WIDE_FIRST, WIDE_FIRST + rows), mutated)
            trial = book.copy()
            try:
                for r in rows_hit:
                    address = f"{rng_.choice('FGHI')}{r}"
                    other = WIDE_FIRST + (r - WIDE_FIRST + 1) % rows
                    keep = lambda node, a=address: node if differs(ref_vals[a], value(node, get)) else None  # noqa: E731
                    node = _draw(rng_, _wide_mutations(address, other), keep)
                    if node is None:
                        raise Ambiguous(address)
                    trial.formulas[address] = node
                expect = verdict(reference, trial, ref_vals)
            except Ambiguous:
                continue
            book = trial
            break
        out.submission(task, book.to_json(f"gradebook-{index}"), 6, expect, f"mutations-{mutated}", rows)
    for start in range(0, min(16, count), 8):
        out.batch(task, 6, list(range(start, min(start + 8, count))))
    plan.trace = list(range(min(20, count)))
    out.finish()
    return plan


# --------------------------------------------------------------------------
# deep-shapes: long chains, long hand-written sums, large ranges
# --------------------------------------------------------------------------

# Chains of 340 cells or more and sums of about 1,000 terms or more fail on
# the seed commit; this mix keeps failures near 6 %, below the 10 % that
# would pin the 90th percentile to the deadline.  One pass over the 35
# shapes takes about 14 s, so that a run makes several passes and the
# latency of every size is sampled at several moments of the run.
DEEP_MIX = (("chain", 3, 30, 3000), ("sum", 12, 20, 1500), ("range", 20, 100, 10000))


def log_quantiles(count: int, lo: int, hi: int) -> list[int]:
    """The midpoints of `count` equal log strata of [lo, hi].

    Fixed rather than drawn from the seed: with seeded offsets the median
    latency of deep-shapes moved by up to 30 % from seed to seed, because
    its neighbouring ranks lie far apart in time.
    """
    span = math.log(hi / lo)
    return [int(lo * math.exp(span * (j + 0.5) / count)) for j in range(count)]


def _chain(rng_: random.Random, n: int, wrong: bool) -> tuple[Book, Book]:
    step = rng_.randint(1, 9)
    reference = Book({"A1": rng_.randint(1, 9)})
    for r in range(2, n + 1):
        reference.formulas[f"A{r}"] = bin_("+", ref(f"A{r - 1}"), num(step))
    submission = reference.copy()
    if wrong:
        r = rng_.randint(2, min(5, n))
        submission.formulas[f"A{r}"] = bin_("+", ref(f"A{r - 1}"), num(step + rng_.randint(1, 5)))
    return reference, submission


def _sum(rng_: random.Random, n: int, wrong: bool) -> tuple[Book, Book]:
    constants = {f"A{r}": rng_.randint(1, 9) for r in range(1, n + 1)}
    constants[f"A{n + 1}"] = rng_.randint(20, 90)  # never part of the sum
    reference = Book(dict(constants), {"B1": call("SUM", rng("A1", f"A{n}"))})
    terms = [ref(f"A{r}") for r in range(1, n + 1)]
    if wrong:
        terms[rng_.randrange(n)] = ref(f"A{n + 1}")
    return reference, Book(dict(constants), {"B1": add(*terms)})


def _range(rng_: random.Random, n: int, wrong: bool, name: str) -> tuple[Book, Book]:
    cols = max(1, min(100, round(math.sqrt(n))))
    rows = max(2, n // cols)
    constants = {cell(c, r): rng_.randint(1, 9) for r in range(1, rows + 1) for c in range(1, cols + 1)}
    last = letters(cols)
    target = f"A{rows + 2}"
    reference = Book(dict(constants), {target: call(name, rng("A1", f"{last}{rows}"))})
    submission = Book(dict(constants), {target: call(name, rng("A1", f"{last}{rows - 1 if wrong else rows}"))})
    return reference, submission


def generate_deep_shapes(root: Path, seed: int, scale: float = 1.0) -> Plan:
    rng_ = random.Random(f"deep-shapes:{seed}")
    plan = Plan("deep-shapes", seed, deadline_s=30.0)
    out = Writer(root, plan)
    shapes = []
    for kind, count, lo, hi in DEEP_MIX:
        count = max(2, round(count * scale))
        # Neighbouring sizes alternate correct/wrong and SUM/AVG, so that
        # every part of the size span holds all four variants.
        for k, size in enumerate(log_quantiles(count, lo, hi)):
            shapes.append((kind, size, k % 2 == 1, ("SUM", "AVG")[k // 2 % 2]))
    rng_.shuffle(shapes)
    for index, (kind, size, wrong, name) in enumerate(shapes):
        while True:
            if kind == "chain":
                reference, submission = _chain(rng_, size, wrong)
            elif kind == "sum":
                reference, submission = _sum(rng_, size, wrong)
            else:
                reference, submission = _range(rng_, size, wrong, name)
            try:
                expect = verdict(reference, submission)
            except Ambiguous:
                continue
            if (expect["status"] == "fail") == wrong:
                break
        task = out.task(f"{kind}-{index:03d}", reference.to_json(f"{kind}-{size}"))
        out.submission(task, submission.to_json(f"{kind}-{size}-submission"), 6, expect, kind, size)
    # The batch phase runs every fifth shape, ordered by kind and size.
    by_kind = sorted(range(len(plan.submissions)), key=lambda i: (plan.submissions[i]["kind"], plan.submissions[i]["size"]))
    for member in by_kind[1::5]:
        out.batch(plan.submissions[member]["task"], 6, [member])
    plan.trace = list(range(len(plan.submissions)))  # every shape, so every failure is traced
    out.finish()
    return plan


def generate(workload: str, root: Path, seed: int, src: Path, small: bool = False) -> Plan:
    """Write one workload's inputs below `root`; `small` is for the self-test."""
    if workload == "grades-batch":
        return generate_grades_batch(root, seed, src, count=140 if small else 2800)
    if workload == "wide-table":
        return generate_wide_table(root, seed, count=10 if small else 120, rows=20 if small else WIDE_ROWS)
    if workload == "deep-shapes":
        return generate_deep_shapes(root, seed, scale=0.1 if small else 1.0)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
