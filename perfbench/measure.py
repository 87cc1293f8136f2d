"""The measured process: grades one generated workload and writes its results.

Run by `run.py`, one fresh interpreter per measurement, with the engine on
`PYTHONPATH`.  The engine receives only the files the generator wrote.

    python3 perfbench/measure.py WORK OUT --mode setup
    python3 perfbench/measure.py WORK OUT --mode grade [--trace] [--fixed]
        [--seconds S]

`setup` loads every task bundle once and reports the time.  `grade` loads
the bundles, then runs the timed path (read_workbook, generate_feedback,
render_json) submission by submission, with in-process `sheetcheck batch`
calls in between.  `--fixed` grades the workload's fixed trace set once and
then runs every batch once, so that two runs do identical work; `--trace`
records spans while doing so.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

from workloads import check_batch_row, check_report


MIN_TIMED = 100  # so that at least ten latencies lie beyond the 90th percentile
BATCH_SHARE = 0.25  # of the measured time, interleaved with the timed path


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM when a submission runs past the workload deadline."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


class Api:
    """The public calls `sheetcheck check --format json` and `batch` make."""

    def __init__(self, tracer=None):
        import sheetcheck
        import sheetcheck.cli

        calls = {
            "grid.read_workbook": sheetcheck.read_workbook,
            "feedback.generate_feedback": sheetcheck.generate_feedback,
            "feedback.render_json": sheetcheck.render_json,
            "feedback.load_bundle": sheetcheck.load_bundle,
            "cli.main": sheetcheck.cli.main,
        }
        if tracer is not None:
            calls = {name: tracer.wrap(name, fn) for name, fn in calls.items()}
        self.read_workbook = calls["grid.read_workbook"]
        self.generate_feedback = calls["feedback.generate_feedback"]
        self.render_json = calls["feedback.render_json"]
        self.load_bundle = calls["feedback.load_bundle"]
        self.cli_main = calls["cli.main"]


def _armed(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)


def _disarm():
    signal.setitimer(signal.ITIMER_REAL, 0)


def grade_one(api: Api, bundle, text: str, level: int, force_quality: bool,
              deadline_s: float) -> tuple[float, str | None, str | None]:
    """Timed path for one submission: (seconds, rendered report, error name).

    A workbook that read_workbook rejects yields the error "unreadable";
    any other exception, the deadline included, yields its class name.
    """
    rendered = error = None
    start = time.perf_counter()
    try:
        _armed(deadline_s)
        try:
            workbook = api.read_workbook(text)
        except ValueError:
            error = "unreadable"
        else:
            rendered = api.render_json(api.generate_feedback(bundle, workbook, level, force_quality))
        _disarm()
    except DeadlineExceeded:
        error = "DeadlineExceeded"
    except Exception as exc:  # a crash fails this submission, not the run
        _disarm()
        error = type(exc).__name__
    return time.perf_counter() - start, rendered, error


def load_bundles(api: Api, work: Path, plan: dict, tracer=None) -> tuple[dict, float]:
    bundles = {}
    start = time.perf_counter()
    for task in plan["tasks"]:
        if tracer is not None:
            tracer.begin("setup", task["name"])
        bundles[task["path"]] = api.load_bundle(str(work / task["path"]))
    return bundles, time.perf_counter() - start


def formula_count(text: str) -> int:
    doc = json.loads(text)
    return sum(
        1
        for sheet in doc["sheets"]
        for raw in sheet["cells"].values()
        if isinstance(raw, str) and raw.startswith("=")
    )


class Batches:
    """Runs the workload's batch directories one at a time, in a cycle."""

    def __init__(self, api, work: Path, plan: dict, tracer=None):
        self.api, self.work, self.plan, self.tracer = api, work, plan, tracer
        self.runs = self.files = self.correct = 0
        self.seconds = 0.0
        self.verdicts: dict[tuple[str, str], str | None] = {}  # first failure of each distinct file
        self.mismatches: list[str] = []

    def step(self) -> None:
        batches = self.plan["batches"]
        batch = batches[self.runs % len(batches)]
        if self.tracer is not None:
            self.tracer.begin("batch", f"b{self.runs}")
        took, bad, error = run_batch(self.api, self.work, self.plan, batch)
        self.runs += 1
        self.files += len(batch["files"])
        self.seconds += took
        for entry in batch["files"]:
            label = error or ("OracleMismatch" if entry["file"] in bad else None)
            if label is None:
                self.correct += 1
            key = (batch["dir"], entry["file"])
            if self.verdicts.get(key) is None:
                self.verdicts[key] = label
        for file, problem in bad.items():
            self.mismatches.append(f"batch {batch['dir']} file {file}: {problem}")

    def finish_pass(self) -> None:
        """Run batches until every batch directory ran equally often, at least once."""
        while self.runs == 0 or self.runs % len(self.plan["batches"]):
            self.step()

    def result(self) -> dict:
        return {"files": self.files, "correct": self.correct, "elapsed_s": self.seconds,
                "distinct": len(self.verdicts), "failures": _tally(self.verdicts),
                "mismatches": self.mismatches}


def grade(api, work, plan, bundles, args, tracer=None) -> tuple[dict, dict]:
    """Timed path and batch loop; returns their tallies.

    Batches run between timed submissions whenever their share of the
    measured time falls below BATCH_SHARE, so that both see the same
    stretch of host speed.  The loop makes whole passes over the pool, at
    least MIN_TIMED gradings, and stops at the pass end nearest to
    `--seconds` of wall time.  Whole passes give every submission the same
    weight in the percentiles, whatever the number of passes.  With
    `--fixed` the trace set is graded once and then every batch runs once.
    Latencies and the grading rate count every grading; verdicts count each
    distinct submission once, failed if any of its gradings failed, so that
    they do not depend on how many passes fit in the time.
    The parse cache is read around the timed part.
    """
    subs = plan["submissions"]
    order = plan["trace"] if args.fixed else [s["id"] for s in subs]
    trace_set = set(plan["trace"])
    deadline = plan["deadline_s"]
    ratio = 0.0 if args.fixed else BATCH_SHARE / (1 - BATCH_SHARE)
    batches = Batches(api, work, plan, tracer)
    cache = _parse_cache()
    before = cache() if cache else None
    latencies, mismatches, outputs = [], [], {}
    verdicts: dict[int, str | None] = {}  # first failure of each distinct submission
    elapsed_sum = 0.0
    correct = formulas = graded = 0
    phase_start = pass_start = time.perf_counter()
    while True:
        for sub_id in order:
            sub = subs[sub_id]
            text = (work / sub["path"]).read_text(encoding="utf-8")
            if tracer is not None:
                tracer.begin("timed", f"t{graded}")
            seconds, rendered, error = grade_one(
                api, bundles[sub["task"]], text, sub["level"], sub["force_quality"], deadline)
            if tracer is not None and rendered is not None:
                formulas += formula_count(text)
            graded += 1
            elapsed_sum += seconds
            problem = None
            if error in (None, "unreadable"):
                doc = json.loads(rendered) if rendered is not None else None
                problem = check_report(sub["expect"], doc, error)
                if problem is not None and sub_id not in verdicts:
                    mismatches.append(f"submission {sub_id} ({sub['kind']}, level {sub['level']}): {problem}")
            label = None
            if error not in (None, "unreadable") or problem is not None:
                label = error if error not in (None, "unreadable") else "OracleMismatch"
                latencies.append(deadline)
            else:
                correct += 1
                latencies.append(seconds)
            if verdicts.get(sub_id) is None:
                verdicts[sub_id] = label
            if sub_id in trace_set and sub_id not in outputs:
                outputs[sub_id] = rendered if rendered is not None else f"{error}\n"
            while batches.seconds < ratio * elapsed_sum:
                batches.step()
        now = time.perf_counter()
        if args.fixed or (graded >= MIN_TIMED and now + (now - pass_start) / 2 >= phase_start + args.seconds):
            break
        pass_start = now
    after = cache() if cache else None
    batches.finish_pass()
    digest = None
    if len(outputs) == len(trace_set):
        sha = hashlib.sha256()
        for sub_id in plan["trace"]:
            sha.update(outputs[sub_id].encode("utf-8"))
        digest = sha.hexdigest()
    timed = {
        "attempted": graded,
        "correct": correct,
        "distinct": len(verdicts),
        "failures": _tally(verdicts),
        "mismatches": mismatches,
        "latencies_s": latencies,
        "elapsed_s": elapsed_sum,
        "formulas": formulas,
        "digest": digest,
        "parse_cache": None if cache is None else {
            "hits": after.hits - before.hits, "misses": after.misses - before.misses},
    }
    return timed, batches.result()


def _tally(verdicts: dict) -> dict[str, int]:
    """Distinct items that failed, by the label of their first failure."""
    counts: dict[str, int] = {}
    for label in verdicts.values():
        if label is not None:
            counts[label] = counts.get(label, 0) + 1
    return counts


def run_batch(api, work, plan, batch) -> tuple[float, dict[str, str], str | None]:
    """One in-process `sheetcheck batch`: (seconds, problem by file, error).

    An error means the batch call itself failed, so none of its files count.
    """
    out = work / "batch-out" / (Path(batch["dir"]).name + ".jsonl")
    out.parent.mkdir(exist_ok=True)
    out.unlink(missing_ok=True)
    argv = ["batch", str(work / batch["task"]), str(work / batch["dir"]),
            "--level", str(batch["level"]), "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        _armed(plan["deadline_s"] * len(batch["files"]))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = api.cli_main(argv)
        _disarm()
        if code != 0:
            error = f"exit {code}: {stderr.getvalue().strip()}"
    except DeadlineExceeded:
        error = "DeadlineExceeded"
    except Exception as exc:  # the batch loop crashed
        _disarm()
        error = type(exc).__name__
    seconds = time.perf_counter() - start
    if error is not None:
        return seconds, {}, error
    rows = {row[0]: row for row in list(csv.reader(io.StringIO(stdout.getvalue())))[1:]}
    lines = {}
    if out.exists():
        for raw in out.read_text(encoding="utf-8").splitlines():
            line = json.loads(raw)
            lines[line["file"]] = line
    bad = {}
    for entry in batch["files"]:
        sub = plan["submissions"][entry["id"]]
        if entry["file"] not in rows or entry["file"] not in lines:
            bad[entry["file"]] = "no row"
            continue
        problem = check_batch_row(sub["expect"], rows[entry["file"]], lines[entry["file"]])
        if problem is not None:
            bad[entry["file"]] = f"submission {entry['id']}: {problem}"
    return seconds, bad, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("work", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--mode", choices=("setup", "grade"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--fixed", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    plan = json.loads((args.work / "manifest.json").read_text(encoding="utf-8"))
    tracer = None
    result: dict = {"mode": args.mode, "traced": args.trace}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        result["installed"], result["absent"] = tracer.install()
    api = Api(tracer)
    bundles, result["setup_s"] = load_bundles(api, args.work, plan, tracer)
    result["tasks"] = len(bundles)
    if args.mode == "grade":
        signal.signal(signal.SIGALRM, _alarm)
        result["timed"], result["batch"] = grade(api, args.work, plan, bundles, args, tracer)
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = {
            "calls": [[phase, name, n] for (phase, name), n in sorted(tracer.calls.items())],
            "self_s": [[phase, name, s] for (phase, name), s in sorted(tracer.self_s.items())],
            "errors": [[phase, name, cls, n] for (phase, name, cls), n in sorted(tracer.errors.items())],
            "spans": len(tracer.spans),
        }
        tracer.write_spans(args.out.with_suffix(".spans.csv"))
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


def _parse_cache():
    """cache_info of the parser's lru_cache, or None if it has none."""
    from sheetcheck import formulas

    info = getattr(getattr(formulas, "parse_formula", None), "cache_info", None)
    return info if callable(info) else None


if __name__ == "__main__":
    sys.exit(main())
