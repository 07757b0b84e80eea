"""One benchmark process: set up a workload, run it in a closed loop, check it.

Started by ``run.py`` with BLAS threads pinned; prints one JSON object as its
last line.  Tracing wrappers are installed only with ``--trace 1``.
"""

from time import perf_counter

T0 = perf_counter()  # set-up time counts from here, before numpy is imported

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIN_PASSES = 3


def import_qtangle() -> None:
    """Import qtangle from this checkout's ``src``; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import qtangle

    origin = Path(qtangle.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"qtangle imported from {origin}, not from {SRC}")


def run_operation(op, stats: dict) -> tuple[bool, float]:
    """Call one operation and check its output.

    A raised exception or a failed check counts as a failed operation and is
    recorded in ``stats``; it never stops the run.  Returns whether the
    operation succeeded and its wall time, the check excluded.
    """
    stats["attempted"] += 1
    start = perf_counter()
    try:
        output = op.call()
    except Exception as exc:  # any library error is a failed operation
        elapsed = perf_counter() - start
        stats["failed"] += 1
        stats["errors"].append(f"{op.name}: {type(exc).__name__}: {exc}")
        return False, elapsed
    elapsed = perf_counter() - start
    problems, rows = op.check(output)
    if problems:
        stats["failed"] += 1
        stats["errors"].extend(f"{op.name}: {p}" for p in problems)
        return False, elapsed
    stats["rows"][op.name] = rows
    return True, elapsed


def timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def _blas_threads():
    """Threads OpenBLAS reports using, or None where it cannot be asked."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/worker.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    import_qtangle()
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.begin_run("setup", "setup")
    inputs = workloads.make_inputs(args.workload, args.seed)
    workload = workloads.build(args.workload, inputs)
    setup_s = perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    stats = {"attempted": 0, "failed": 0, "errors": [], "rows": {}}
    known = {}
    for name, call in workload.probes.items():
        if tracer:
            tracer.begin_run("probe", name)
        try:
            call()
            known[name] = "ok"
        except Exception as exc:  # recorded by class; these inputs are known to fail
            known[name] = type(exc).__name__

    samples = {op.name: [] for op in workload.operations}
    pass_times, ref_times = [], []
    deadline = None
    pass_id = "warmup"
    while True:
        # each operation is bracketed by reference-kernel runs and compared
        # with the mean of the two
        elapsed_pass = 0.0
        refs = [timed(workload.reference)]
        for op in workload.operations:
            if tracer:
                tracer.begin_run(pass_id, op.name)
            ok, elapsed = run_operation(op, stats)
            elapsed_pass += elapsed
            refs.append(timed(workload.reference))
            if deadline is not None and ok:
                samples[op.name].append(elapsed)
        if deadline is None:
            deadline = perf_counter() + args.seconds
            pass_id = 0
            continue
        pass_times.append(elapsed_pass)
        ref_times.append(sum(refs) - (refs[0] + refs[-1]) / 2)
        pass_id += 1
        if perf_counter() >= deadline and len(pass_times) >= MIN_PASSES:
            break

    result = {
        "setup_s": setup_s,
        "pass_s": pass_times,
        "ref_s": ref_times,
        "samples": samples,
        "rows": stats["rows"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "errors": stats["errors"][:20],
        "csv_sha256": workload.digests,
        "known_degenerate": known,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wrappers": len(spans.installed_wrappers()),
        "versions": versions(),
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer, stats["rows"])
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
