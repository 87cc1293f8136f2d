"""Grading benchmark for sheetcheck.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run generates the workload's inputs from
the seed into `perfbench/.work/`, then measures in fresh interpreters that
import the engine from `src/`: first a few processes that only load the task
bundles (set-up time), then the measured process.  With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it grades a fixed subset
twice, untraced and traced, and reports the per-layer metrics.  Every report
is checked against the generator's oracle.  Information lines start with
`#`; the last line of standard output is the JSON result, and the same
result with provenance is written to `perfbench/.work/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HASH_SEED = "0"
SETUP_SAMPLES = (3, 9)  # fresh processes that time set-up, at least and at most
SETUP_TOTAL_S = 2.0  # stop adding set-up samples once they add up to this

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, generate  # noqa: E402

# Per-layer metrics: (name, span, statistic).  Self times are ms and calls
# are counts per timed submission; see README.md for the definitions.
LAYER_SPANS = (
    ("matching.match_values.self_ms", "matching.match_values", "self"),
    ("evaluate.cell_value.calls", "evaluate.cell_value", "calls"),
    ("evaluate.cell_value.self_ms", "evaluate.cell_value", "self"),
    ("evaluate.evaluate.calls", "evaluate.evaluate", "calls"),
    ("evaluate.evaluate.self_ms", "evaluate.evaluate", "self"),
    ("graph.build_graph.calls", "graph.build_graph", "calls"),
    ("graph.build_graph.self_ms", "graph.build_graph", "self"),
    ("formulas.canonicalize.self_ms", "formulas.canonicalize", "self"),
    ("diffing.diff_formula.self_ms", "diffing.diff_formula", "self"),
    ("quality.idiom_suggestions.self_ms", "quality.idiom_suggestions", "self"),
    ("quality.duplicate_calculations.self_ms", "quality.duplicate_calculations", "self"),
    ("quality.compute_metrics.self_ms", "quality.compute_metrics", "self"),
    ("graph.longest_chain.self_ms", "graph.longest_chain", "self"),
    ("grid.read_workbook.self_ms", "grid.read_workbook", "self"),
    ("formulas.syntax_check.self_ms", "formulas.syntax_check", "self"),
    ("feedback.generate_feedback.self_ms", "feedback.generate_feedback", "self"),
    ("feedback.render_json.self_ms", "feedback.render_json", "self"),
)
# Exceptions escaping a traced call, by the innermost call they escaped.
LAYER_ERRORS = (
    "matching.match_values.errors.RecursionError",
    "evaluate.cell_value.errors.RecursionError",
    "evaluate.evaluate.errors.RecursionError",
    "formulas.canonicalize.errors.RecursionError",
    "graph.longest_chain.errors.RecursionError",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure(work: Path, out: Path, *options: str) -> dict:
    """Run measure.py in a fresh interpreter and return its results."""
    command = [sys.executable, str(BENCH / "measure.py"), str(work), str(out), *options]
    done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"measured process failed with exit code {done.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "pythonhashseed": HASH_SEED,
        "seed": seed,
    }


def _commit() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _failures(*phases: dict) -> dict[str, int]:
    total: dict[str, int] = {}
    for phase in phases:
        for label, count in phase["failures"].items():
            total[label] = total.get(label, 0) + count
    return total


def end_to_end(result: dict, setups: list[float]) -> dict:
    timed, batch = result["timed"], result["batch"]
    latencies_ms = [s * 1000 for s in timed["latencies_s"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies_ms, n=10)[8], "ms"),
        "goodput_sps": (timed["correct"] / timed["elapsed_s"], "1/s"),
        "ok_share": (1 - sum(timed["failures"].values()) / timed["distinct"], "ratio"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
        "batch_sps": (batch["correct"] / batch["elapsed_s"], "1/s"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    timed = traced["timed"]
    n = timed["attempted"]
    calls = {(phase, name): count for phase, name, count in traced["trace"]["calls"]}
    self_s = {(phase, name): s for phase, name, s in traced["trace"]["self_s"]}
    metrics = {}
    for metric, span, stat in LAYER_SPANS:
        if stat == "calls":
            metrics[metric] = (calls.get(("timed", span), 0) / n, "count")
        else:
            metrics[metric] = (self_s.get(("timed", span), 0.0) * 1000 / n, "ms")
    canonical = calls.get(("timed", "formulas.canonicalize"), 0)
    metrics["formulas.canonicalize.calls_per_formula"] = (canonical / max(1, timed["formulas"]), "count")
    cache = timed["parse_cache"] or {"hits": 0, "misses": 0}
    lookups = cache["hits"] + cache["misses"]
    metrics["formulas.parse_formula.misses"] = (cache["misses"] / n, "count")
    metrics["formulas.parse_formula.hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0, "ratio")
    files = traced["batch"]["files"]
    metrics["cli.main.self_ms"] = (self_s.get(("batch", "cli.main"), 0.0) * 1000 / max(1, files), "ms")
    loads = calls.get(("setup", "feedback.load_bundle"), 0)
    metrics["feedback.load_bundle.self_ms"] = (
        self_s.get(("setup", "feedback.load_bundle"), 0.0) * 1000 / max(1, loads), "ms")
    errors = {f"{name}.errors.{cls}": count for phase, name, cls, count in traced["trace"]["errors"] if phase == "timed"}
    for metric in LAYER_ERRORS:
        metrics[metric] = (errors.get(metric, 0), "count")
    metrics["trace.overhead_ratio"] = (timed["elapsed_s"] / untraced["timed"]["elapsed_s"], "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sheetcheck grading benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sheetcheck" / "__init__.py").is_file():
        print(f"error: no sheetcheck sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    results_dir = BENCH / ".work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        generate(args.workload, work, args.seed, SRC)
        if args.trace == 0:
            setups = []  # the measured process adds the last sample
            while len(setups) < SETUP_SAMPLES[0] - 1 or (
                    len(setups) < SETUP_SAMPLES[1] - 1 and sum(setups) < SETUP_TOTAL_S):
                setups.append(measure(work, work / "setup.json", "--mode", "setup")["setup_s"])
            result = measure(work, results_dir / f"{stem}.measure.json", "--mode", "grade",
                             "--seconds", str(args.seconds))
            setups.append(result["setup_s"])
            metrics = end_to_end(result, setups)
        else:
            untraced = measure(work, results_dir / f"{stem}.untraced.json", "--mode", "grade", "--fixed")
            result = measure(work, results_dir / f"{stem}.measure.json", "--mode", "grade", "--fixed", "--trace")
            metrics = per_layer(result, untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    phases = [result["timed"], result["batch"]]

    failures = _failures(*phases)
    mismatches = phases[0]["mismatches"] + phases[1]["mismatches"]
    # Distinct submissions and batch files, each failed if any of its gradings
    # failed: the same for every run of one seed, however many passes fit.
    attempted = phases[0]["distinct"] + phases[1]["distinct"]
    failed = sum(failures.values())
    summary = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(summary, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  failures=failures, mismatches=mismatches, digest=phases[0]["digest"],
                  timed_submissions=phases[0]["attempted"], batch_files=phases[1]["files"],
                  provenance=provenance(args.seed))
    if args.trace:
        record["absent_bindings"] = result["absent"]
        record["errors"] = result["trace"]["errors"]
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"# {args.workload} seed {args.seed}: {phases[0]['distinct']} submissions graded "
          f"{phases[0]['attempted']} times on the timed path, {phases[1]['distinct']} batch files run "
          f"{phases[1]['files']} times, {failed} of {attempted} failed {failures or ''}")
    for line in mismatches[:20]:
        print(f"# oracle disagrees: {line}")
    if args.trace:
        for phase, name, cls, count in result["trace"]["errors"]:
            print(f"# {phase}: {count} x {cls} escaped {name}")
        if result["absent"]:
            print(f"# absent bindings: {', '.join(result['absent'])}")
    print(f"# report digest sha256: {phases[0]['digest']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    prov = record["provenance"]
    print(f"# python {prov['python']}, nproc {prov['nproc']}, commit {prov['commit']}, "
          f"PYTHONHASHSEED={prov['pythonhashseed']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
