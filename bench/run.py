"""qtangle benchmark: one workload, measured in fresh single-threaded processes.

Usage, from the repository root::

    python3 bench/run.py --workload cli_scenarios --seed 1 --seconds 20 --trace 0

The workloads are declared in ``BENCHMARK.json`` and built in
``workloads.py``: ``cli_scenarios``, ``verify_trials`` and ``wide_registers``.
Each runs closed-loop, one call at a time, in child processes with BLAS
threads pinned to 1.

With ``--trace 0`` three processes share the measurement and the last stdout
line carries the gated end-to-end metrics:

- ``setup_s``: median over seven fresh processes of importing qtangle and
  building the workload's inputs;
- ``pass_rel``: median over passes of the wall time of one pass over every
  operation of the workload (six scenario CSVs, one ``verify`` call, or three
  wide profiles), divided by the wall time of a fixed reference kernel run
  between those operations, each operation counted against the mean of the
  runs before and after it: ``small_ops`` on the first two workloads,
  ``dense`` on ``wide_registers`` (see ``reference.py``).  Raw wall times
  drift by 10-20% on a shared host, this ratio by a few percent;
- ``peak_rss_mb``: peak resident memory of the measuring processes.

With ``--trace 1`` an untraced and a traced process each run for half the
time.  The last line carries the per-layer metrics that ``BENCHMARK.json``
declares: call counts, the two per-row ratios, and the self times of the
layers that all three workloads call, so that no timed metric is zero by
construction.  ``trace.overhead_s`` is the traced minus the untraced median
``pass_rel``, in seconds of the untraced reference kernel.

The line before the last is the full report: provenance, every named
end-to-end metric with its sample count and tail (null on workloads that do
not run it), every per-layer metric, the correctness gate, CSV digests and
the known-degenerate inputs with their exception classes.  It is also
written to ``bench/out/``, next to the span file of a traced run.  A failed
correctness check exits 1; a missing qtangle source tree exits 2 without a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MEASURE_PROCESSES = 3
BUDGET_S = 170
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Every end-to-end metric the report names, with the operation it times on
# the workload that runs it.
OPERATION_METRICS = {
    "two_qubit_demo_s": "two_qubit_demo",
    "product_trace_s": "product_trace",
    "register_trace_s": "register_trace",
    "pseudo_pure_s": "pseudo_pure",
    "separable_mixed_s": "separable_mixed",
    "chsh_scan_s": "chsh_scan",
    "verify_s": "verify",
    "wide_register_s": "register_10",
    "wide_product_s": "product_12",
}
UNITS = {"rows_per_s": "1/s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "count" if name.endswith(".calls") else "ratio"


def timing(values: list[float]) -> dict:
    """Median, and the highest of p50..p99 with at least ten samples beyond it."""
    tail = None
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            tail = {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
            break
    return {"value": statistics.median(values), "unit": "s", "n": len(values), "tail": tail}


def pass_rel(run: dict) -> float:
    return statistics.median(p / r for p, r in zip(run["pass_s"], run["ref_s"]))


class Workers:
    """Starts ``worker.py`` processes one at a time within the run's budget."""

    def __init__(self, workload: str, seed: int) -> None:
        self.args = ["--workload", workload, "--seed", str(seed)]
        self.deadline = monotonic() + BUDGET_S
        self.env = dict(os.environ, PYTHONHASHSEED="0", **{k: "1" for k in THREAD_ENV})

    def run(self, *extra: str) -> dict:
        """Run one worker to completion and return its last-line JSON."""
        cmd = [sys.executable, str(BENCH / "worker.py"), *self.args, *extra]
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise SystemExit(f"worker ran past the {BUDGET_S} s budget: {' '.join(cmd[1:])}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker exited with {proc.returncode}: {' '.join(cmd[1:])}")
        return json.loads(proc.stdout.splitlines()[-1])


def pooled(runs: list[dict]) -> dict:
    """Samples of several measuring processes as if one process took them."""
    main = dict(runs[0])
    for key in ("pass_s", "ref_s"):
        main[key] = [v for r in runs for v in r[key]]
    main["samples"] = {op: [v for r in runs for v in r["samples"][op]] for op in main["samples"]}
    main["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    return main


def end_to_end(main: dict, runs: list[dict], setup: list[float]) -> dict:
    """Every named end-to-end metric, null where the workload does not run it,
    with the raw pass and reference-kernel times behind ``pass_rel``."""
    metrics = {
        "setup_s": timing(setup),
        "pass_s": timing(main["pass_s"]),
        "reference_s": timing(main["ref_s"]),
        "pass_rel": {"value": pass_rel(main), "unit": "ratio"},
    }
    for metric, op in OPERATION_METRICS.items():
        samples = main["samples"].get(op)
        metrics[metric] = timing(samples) if samples else None
    rows = sum(main["rows"].values()) * len(main["pass_s"])
    metrics["rows_per_s"] = {"value": rows / sum(main["pass_s"]), "unit": "1/s"} if rows else None
    metrics["peak_rss_mb"] = {"value": main["peak_rss_mb"], "unit": "MB"}
    # the known-degenerate inputs count here, though not in the gate
    failed = sum(r["failed"] + sum(v != "ok" for v in r["known_degenerate"].values()) for r in runs)
    attempted = sum(r["attempted"] + len(r["known_degenerate"]) for r in runs)
    metrics["fail_ratio"] = {"value": failed / attempted, "unit": "ratio", "failed": failed, "attempted": attempted}
    return metrics


def git_state() -> dict:
    def git(*cmd):
        proc = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    try:
        top = git("rev-parse", "--show-toplevel")
    except OSError:  # no git on this machine
        top = None
    if top is None or Path(top).resolve() != ROOT:
        return {"sha": None, "dirty": None}
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qtangle" / "__init__.py").is_file():
        print(f"error: no qtangle source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workers = Workers(args.workload, args.seed)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        untraced = workers.run("--seconds", str(args.seconds / 2))
        spans_file = OUT / f"{stem}-spans.json.gz"
        main_run = workers.run(
            "--seconds", str(args.seconds / 2), "--trace", "1", "--spans-out", str(spans_file)
        )
        runs = [untraced, main_run]
        values = dict(main_run["layers"]["metrics"])
        values["trace.overhead_s"] = (pass_rel(main_run) - pass_rel(untraced)) * statistics.median(
            untraced["ref_s"]
        )
        report["per_layer"] = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
        report["per_layer_by_op"] = main_run["layers"]["per_op"]
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        # The machine's speed drifts over tens of seconds and differs from
        # one process to the next, so the measurement is split over several
        # processes and set-up is sampled between them.
        setup = [workers.run("--setup-only")["setup_s"]]
        runs = []
        for _ in range(MEASURE_PROCESSES):
            runs.append(workers.run("--seconds", str(args.seconds / MEASURE_PROCESSES)))
            setup += [runs[-1]["setup_s"], workers.run("--setup-only")["setup_s"]]
        main_run = pooled(runs)
        report["end_to_end"] = end_to_end(main_run, runs, setup)
        values = {
            "setup_s": statistics.median(setup),
            "pass_rel": pass_rel(main_run),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    digests = [r["csv_sha256"] for r in runs]
    if any(d != digests[0] for d in digests):
        failed += 1
        errors.append("CSV digests differ between the processes of this run")
    report["gate"] = {"correct": failed == 0, "attempted": attempted, "failed": failed, "errors": errors}
    report["csv_sha256"] = digests[0]
    report["known_degenerate"] = main_run["known_degenerate"]
    report["provenance"] = {
        "git": git_state(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **main_run["versions"],
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": [len(r["pass_s"]) for r in runs],
        "samples": {op: sum(len(r["samples"][op]) for r in runs) for op in main_run["samples"]},
        "wrappers_installed": [r["wrappers"] for r in runs],
    }
    text = json.dumps(report)
    (OUT / f"{stem}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
