"""Seeded inputs, operations and correctness checks of the benchmark workloads.

``make_inputs`` draws every input from the workload seed as plain JSON data,
so the same seed gives byte-identical inputs and a different seed different
ones.  ``build`` turns that data into qtangle objects; it is the set-up that
``setup_s`` times.  Each built workload is a list of operations, one library
call each, with a check of every output.

Workloads:

- ``cli_scenarios``: the six CLI scenarios at their default grids through
  ``run`` + ``render_csv``.  Per-point Python overhead dominates here.
- ``verify_trials``: ``verify(trials=200, seed=<seed>)``.  Thousands of fresh
  small random objects, each used once, so cost moved into constructors or
  set-up shows here rather than being amortised.
- ``wide_registers``: profiles of 8- and 10-qubit register programs at all
  contiguous cuts and of a 12-qubit product trajectory.  Dense 2^n arithmetic
  dominates and per-point overhead barely matters.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import qtangle
import qtangle.cli
import reference

WORKLOADS = ("cli_scenarios", "verify_trials", "wide_registers")

CANONICAL_SCENARIOS = (
    "two_qubit_demo",
    "register_trace",
    "pseudo_pure",
    "separable_mixed",
    "chsh_scan",
)
VERIFY_TRIALS = 200
REGISTER_QUBITS = (8, 10)
PRODUCT_QUBITS = 12
WIDE_GRID_POINTS = 9

# Inputs that qtangle fails on when this benchmark was written (ROADMAP
# item 4).  Each measuring process attempts them once and reports their
# exception class; they are not workload operations, so they neither gate
# correctness nor enter the latency medians.
KNOWN_DEGENERATE = {
    # zero motion at t = 0 aborts the Bell/CHSH columns
    "demo_theta_t_squared": {
        "scenario": "two_qubit_demo",
        "subsystems": [
            {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 0.0, 1.0]}},
            {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 0.0, 1.0]}},
        ],
    },
    # rounding in a 1e12-scale outer product trips an absolute Hermiticity check
    "stiff_product_central_fd": {
        "scenario": "product_trace",
        "method": "central_fd",
        "subsystems": [
            {
                "dim": 2,
                "curve": {
                    "kind": "hamiltonian",
                    "generator": [[1e6, 0.0], [0.0, -1e6]],
                    "initial": [1.0, 1.0],
                },
            },
            {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}},
        ],
    },
}

ENTROPY_TOL = 1e-12


def _pairs(values: np.ndarray) -> list:
    """Complex array as nested [re, im] pairs, the form the config accepts."""
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / (2 * math.sqrt(dim))


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _qubit_curve(rng: np.random.Generator) -> dict:
    if rng.integers(2):
        return {
            "kind": "bloch",
            "theta": rng.normal(size=3).tolist(),
            "phi": rng.normal(size=2).tolist(),
        }
    return {
        "kind": "hamiltonian",
        "generator": _pairs(_hermitian(rng, 2)),
        "initial": _pairs(_unit(rng, 2)),
    }


def make_inputs(workload: str, seed: int) -> dict:
    """All inputs of one workload, drawn from the seed, as plain JSON data."""
    rng = np.random.default_rng(seed)
    if workload == "cli_scenarios":
        configs = {name: {"scenario": name} for name in CANONICAL_SCENARIOS}
        configs["product_trace"] = {
            "scenario": "product_trace",
            "subsystems": [
                {
                    "dim": 2,
                    "curve": {
                        "kind": "bloch",
                        "theta": rng.normal(size=3).tolist(),
                        "phi": rng.normal(size=2).tolist(),
                    },
                },
                {
                    "dim": 3,
                    "curve": {
                        "kind": "hamiltonian",
                        "generator": _pairs(_hermitian(rng, 3)),
                        "initial": _pairs(_unit(rng, 3)),
                    },
                },
            ],
        }
        return {"configs": configs, "known_degenerate": KNOWN_DEGENERATE}
    if workload == "verify_trials":
        return {"trials": VERIFY_TRIALS, "seed": seed}
    if workload == "wide_registers":
        registers = [
            {
                "n": n,
                "steps": [[_pairs(_hermitian(rng, 2)) for _ in range(n)] for _ in range(2)],
            }
            for n in REGISTER_QUBITS
        ]
        product = {"n": PRODUCT_QUBITS, "curves": [_qubit_curve(rng) for _ in range(PRODUCT_QUBITS)]}
        return {"registers": registers, "product": product}
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Operation:
    """One library call of a workload and the check of its output.

    ``call`` returns the output; ``check`` returns a list of problems (empty
    when the output is correct) and the number of rows the output emitted.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], int]]


@dataclass
class Workload:
    """Operations of one pass, the reference kernel timed before each of them,
    the known-degenerate probes and the CSV digests the checks record."""

    operations: list[Operation]
    reference: Callable[[], float] = reference.small_ops
    probes: dict[str, Callable[[], object]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)


def _finite_rows(report) -> list[str]:
    for row in report.rows:
        for value in row:
            if not isinstance(value, str) and not math.isfinite(value):
                return [f"non-finite cell in row t={row[0]!r}"]
    return []


def _scenario_check(name: str, cfg, digests: dict[str, str]):
    first_csv: list[str] = []

    def check(output) -> tuple[list[str], int]:
        report, csv = output
        problems = _finite_rows(report)
        if len(report.rows) != cfg.grid[2]:
            problems.append(f"{len(report.rows)} rows for a {cfg.grid[2]}-point grid")
        if not first_csv:
            first_csv.append(csv)
            digests[name] = hashlib.sha256(csv.encode()).hexdigest()
        elif csv != first_csv[0]:
            problems.append("CSV differs from the first run of this scenario")
        cols = {c: i for i, c in enumerate(report.columns)}
        if name == "two_qubit_demo":
            entropy = cols["tangent_entropy_1|2"]
            chsh = cols["chsh"]
            for row in report.rows:
                if abs(row[entropy] - 1.0) > ENTROPY_TOL or abs(row[chsh] - 2 * math.sqrt(2)) > ENTROPY_TOL:
                    problems.append(f"tangent is not one ebit at CHSH 2*sqrt(2) at t={row[0]!r}")
                    break
            arc = report.metadata["resolved"]["arc_length"]
            if abs(arc - math.sqrt(2) * math.pi) > ENTROPY_TOL:
                problems.append(f"arc length {arc!r} is not sqrt(2)*pi")
        if name == "product_trace":
            gaps = [cols[c] for c in ("channel_gap_1", "channel_gap_2", "bilocal_gap")]
            worst = max(row[i] for row in report.rows for i in gaps)
            if worst > cfg.tol:
                problems.append(f"channel gap {worst:.3e} exceeds tol {cfg.tol:g}")
        return problems, len(report.rows)

    return check


def _scenario_call(cfg):
    def call():
        report = qtangle.run(cfg)
        return report, qtangle.cli.render_csv(report)

    return call


def _profile_check(n: int, cuts, product: bool):
    def check(prof) -> tuple[list[str], int]:
        problems = []
        for sample in prof.samples:
            for cut in cuts:
                k = len(cut.left)
                value = sample.tangent_entropy[cut]
                if not (math.isfinite(value) and -ENTROPY_TOL <= value <= min(k, n - k) + ENTROPY_TOL):
                    problems.append(f"tangent entropy {value!r} outside [0, {min(k, n - k)}] at {cut.label()}")
                if product and abs(sample.base_entropy[cut]) > ENTROPY_TOL:
                    problems.append(f"product base entropy {sample.base_entropy[cut]!r} at {cut.label()}")
        return problems[:1], len(prof.samples)

    return check


def _profile_call(traj, grid, cuts):
    return lambda: qtangle.profile(traj, grid, cuts)


def _build_cli(inputs: dict) -> Workload:
    workload = Workload([])
    for name, doc in inputs["configs"].items():
        cfg = qtangle.parse_config(json.dumps(doc))
        workload.operations.append(
            Operation(name, _scenario_call(cfg), _scenario_check(name, cfg, workload.digests))
        )
    for name, doc in inputs["known_degenerate"].items():
        workload.probes[name] = _scenario_call(qtangle.parse_config(json.dumps(doc)))
    return workload


def _build_verify(inputs: dict) -> Workload:
    def call() -> int:
        return qtangle.verify(trials=inputs["trials"], seed=inputs["seed"], stream=io.StringIO())

    def check(status: int) -> tuple[list[str], int]:
        return ([] if status == 0 else [f"verify returned {status}"]), 0

    return Workload([Operation("verify", call, check)])


def _factor_curve(spec: dict):
    if spec["kind"] == "bloch":
        return qtangle.BlochCurve(spec["theta"], spec["phi"])
    initial = qtangle.Ket(_complex(spec["initial"]), (2,)).normalized()
    return qtangle.LocalHamiltonianCurve(_complex(spec["generator"]), initial)


def _build_wide(inputs: dict) -> Workload:
    workload = Workload([], reference=reference.dense)
    for spec in inputs["registers"]:
        n = spec["n"]
        steps = [[qtangle.UnitaryCurve.rotation(_complex(g)) for g in step] for step in spec["steps"]]
        prog = qtangle.RegisterProgram.uniform_superposition(steps, n)
        cuts = tuple(qtangle.Cut.splitting(range(k), n) for k in range(1, n))
        grid = np.linspace(0.0, float(len(steps)), WIDE_GRID_POINTS)
        workload.operations.append(
            Operation(f"register_{n}", _profile_call(prog, grid, cuts), _profile_check(n, cuts, False))
        )
    spec = inputs["product"]
    n = spec["n"]
    traj = qtangle.ProductTrajectory(tuple(_factor_curve(c) for c in spec["curves"]))
    cuts = (qtangle.Cut.splitting((0,), n), qtangle.Cut.splitting(range(n // 2), n))
    grid = np.linspace(0.0, 1.0, WIDE_GRID_POINTS)
    workload.operations.append(
        Operation(f"product_{n}", _profile_call(traj, grid, cuts), _profile_check(n, cuts, True))
    )
    return workload


def build(workload: str, inputs: dict) -> Workload:
    """Library objects for one workload: parsed configs, trajectories, programs."""
    builders = {
        "cli_scenarios": _build_cli,
        "verify_trials": _build_verify,
        "wide_registers": _build_wide,
    }
    return builders[workload](inputs)
