"""Tests of the benchmark itself: seeded inputs, self time, tracing, failures.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import worker
import workloads
from qtangle import ValidationError

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert json.dumps(workloads.make_inputs(name, 7)) == json.dumps(workloads.make_inputs(name, 7))


def test_other_seed_other_inputs():
    a, b = (workloads.make_inputs("cli_scenarios", s) for s in (7, 8))
    assert a["configs"]["product_trace"] != b["configs"]["product_trace"]
    assert a["known_degenerate"] == b["known_degenerate"]
    a, b = (workloads.make_inputs("wide_registers", s) for s in (7, 8))
    assert a["registers"] != b["registers"]
    assert a["product"] != b["product"]


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a [2, 3]) and b [5, 9]
    trace = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["other_run", 20.0, 21.0, -1, 1],
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    trace = [["p", 0.0, 10.0, -1, 0], ["c1", 1.0, 5.0, 0, 0], ["c2", 3.0, 12.0, 0, 0]]
    assert spans.self_times(trace)[0] == pytest.approx(1.0)


def _worker(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_untraced_process_has_no_wrappers():
    result = _worker("--workload", "cli_scenarios", "--seed", "1", "--seconds", "0")
    assert result["wrappers"] == 0
    assert "layers" not in result
    assert result["failed"] == 0


def test_install_reaches_names_imported_by_other_modules():
    code = (
        "import spans, qtangle.geometry as g, qtangle.cli as c, qtangle.statespace as s\n"
        "assert spans.installed_wrappers() == []\n"
        "spans.install(spans.Tracer())\n"
        "assert g.product_tangent.__bench_traced__ and c.product_tangent.__bench_traced__\n"
        "assert s.Ket.__post_init__.__bench_traced__\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(BENCH.parent / "src")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def _op(name, call, problems=()):
    return workloads.Operation(name, call, lambda output: (list(problems), 1))


def test_library_exception_is_a_failure_not_a_crash():
    def raises():
        raise ValidationError("matrix is not Hermitian")

    stats = {"attempted": 0, "failed": 0, "errors": [], "rows": {}}
    results = [worker.run_operation(op, stats) for op in (_op("bad", raises), _op("good", lambda: 1))]
    assert [ok for ok, _ in results] == [False, True]
    assert stats["attempted"] == 2 and stats["failed"] == 1
    assert stats["errors"] == ["bad: ValidationError: matrix is not Hermitian"]


def test_failed_check_is_a_failure():
    stats = {"attempted": 0, "failed": 0, "errors": [], "rows": {}}
    ok, _ = worker.run_operation(_op("wrong", lambda: 1, ["CSV differs"]), stats)
    assert not ok and stats["failed"] == 1 and stats["errors"] == ["wrong: CSV differs"]
