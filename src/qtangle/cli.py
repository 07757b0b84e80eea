"""Command-line front end: scenario sweeps, report emission, verification.

Each scenario sweeps a parameter grid and writes one row per grid point.
Every column is computed over the whole grid at once.  Columns are fixed
per scenario; values are plain floats (12 significant digits in CSV) or
verdict strings.  Exit codes: 0 success, 2 invalid
input, 3 numerical-tolerance breach, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .config import SCENARIOS, RunConfig, parse_config
from .channels import _bipartite_rows, _channel_rows, _reality_gaps
from .entanglement import MeasurementSetting, _bell_rows, _chsh_rows, _correlation_expansions
from .errors import ConfigError, DegenerateInputError, ToleranceBreachError, ValidationError
from .geometry import _entropies_or_zero, _fs_distances, _fs_speeds, _tangent_rows, profile
from .mixed_witness import (
    VERDICT_INCONCLUSIVE,
    _ensemble_witness_rows,
    _product_form,
    _separability,
    _trace_witness,
)
from .statespace import TRACE_TOL  # noqa: F401  (re-exported: pseudo_pure's trace bound)
from .statespace import Cut, Ket, _check_hermitian, _normalized, _outer, _raise_first
from .trajectories import (
    DEFAULT_STEP,
    BlochCurve,
    Ensemble,
    PhaseCurve,
    ProductTrajectory,
    RegisterProgram,
    UnitaryCurve,
    _admissible_rows,
    _check_tangents,
    _directions,
    _factor_differentials,
    _horizontal,
    _kron_rows,
    _product_rule,
    _projector_differentials,
    _random_curves,
    _random_hermitians,
    _random_trajectories,
    _random_unit_rows,
    infinitesimal_composition,
    product_tangent,  # noqa: F401  (bench/tests/test_bench.py expects the tracer to reach it here)
    propagator,
    with_global_phase,
)


@dataclass(frozen=True)
class TraceReport:
    """One finished sweep: metadata echo plus fixed-width rows."""

    metadata: dict
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


# ---------------------------------------------------------------------------
# canonical built-in objects


def demo_trajectory() -> ProductTrajectory:
    """Two identical real qubit arcs, polar angle theta(t) = t."""
    return ProductTrajectory((BlochCurve([0.0, 1.0]), BlochCurve([0.0, 1.0])))


def canonical_register_program() -> RegisterProgram:
    """Three-qubit two-step program with the third site held constant."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    step1 = (
        UnitaryCurve.rotation(sy / 2),
        UnitaryCurve.rotation(sy / 2),
        UnitaryCurve.constant(np.eye(2)),
    )
    step2 = (
        UnitaryCurve.rotation(sx / 2),
        UnitaryCurve.rotation(sy / 2),
        UnitaryCurve.constant(np.diag([1.0, 1j])),
    )
    return RegisterProgram.uniform_superposition((step1, step2), 3)


def rotating_ensemble() -> Ensemble:
    """Equal mixture of |0>|+> and |1>|-> with factor 1 rotating.

    The two first-factor arcs run at opposite rates so their projector
    derivatives add instead of cancelling; factor 2 is frozen.
    """
    plus = Ket(np.array([1.0, 1.0]) / math.sqrt(2), (2,))
    minus = Ket(np.array([1.0, -1.0]) / math.sqrt(2), (2,))
    comp1 = ProductTrajectory(
        (BlochCurve([0.0, 1.0]), PhaseCurve(0.0, plus)), frozen=(False, True)
    )
    comp2 = ProductTrajectory(
        (BlochCurve([math.pi, -1.0]), PhaseCurve(0.0, minus)), frozen=(False, True)
    )
    return Ensemble((0.5, 0.5), (comp1, comp2))


# ---------------------------------------------------------------------------
# scenario runners


def _metadata(cfg: RunConfig, **extra) -> dict:
    t0, t1, steps = cfg.grid
    resolved = {
        "scenario": cfg.scenario,
        "grid": {"t0": t0, "t1": t1, "steps": steps},
        "method": cfg.method,
        "h": cfg.h,
        "seed": cfg.seed,
        "tol": cfg.tol,
    }
    resolved.update(extra)
    return {"tool": "qtangle", "version": __version__, "config": cfg.echo, "resolved": resolved}


def _sweep(
    cfg: RunConfig,
    traj: ProductTrajectory | RegisterProgram,
    cuts: Sequence[Cut],
    columns: Sequence[str] = (),
    cells: Callable[[np.ndarray, np.ndarray, np.ndarray], list] = lambda *rows: [],
    base_entropy: bool = True,
    **extra,
) -> TraceReport:
    """Profile a trajectory over the grid once and write one row per point.

    Every row starts with t (and the step for a register program), the
    speed and the per-cut entropies; ``cells(ts, states, directions)``
    appends the scenario's own columns, each over the whole grid, from the
    profile's raw tangents.  An input the numerics reject at one grid point
    is a tolerance breach there, not invalid input.
    """
    prof = profile(traj, cfg.grid_points(), cuts, method=cfg.method, h=cfg.h)
    register = isinstance(traj, RegisterProgram)
    head = ["t", "step", "fs_speed"] if register else ["t", "fs_speed"]
    cols = [prof.grid, traj.resolve_time(prof.grid)[0].astype(float)] if register else [prof.grid]
    cols.append(prof.fs_speed)
    for cut in cuts:
        head.append(f"tangent_entropy_{cut.label()}")
        cols.append(prof.tangent_entropy[cut])
        if base_entropy:
            head.append(f"base_entropy_{cut.label()}")
            cols.append(prof.base_entropy[cut])
    try:
        cols += _first_rejection(cells, prof.grid, prof.states, prof.directions)
    except (ValidationError, DegenerateInputError, ToleranceBreachError) as exc:
        raise ToleranceBreachError(f"{exc} at t={prof.grid[exc.row]:.6g}") from exc
    meta = _metadata(cfg, cuts=[c.label() for c in cuts], **extra, arc_length=prof.arc_length)
    return TraceReport(meta, (*head, *columns), _rows(cols))


def _first_rejection(cells: Callable, *rows: np.ndarray) -> list:
    """``cells(*rows)``, or the rejection a point-by-point sweep would meet first.

    Each check rejects its own first offending row, so a rejection at row r
    stands only once the rows before r pass every check; no row depends on
    another, so those rows alone decide that.
    """
    try:
        return cells(*rows)
    except (ValidationError, DegenerateInputError, ToleranceBreachError) as exc:
        if exc.row:
            _first_rejection(cells, *(r[: exc.row] for r in rows))
        raise


def _rows(columns: Sequence[np.ndarray]) -> tuple[tuple, ...]:
    """Grid-long columns as rows of plain floats and strings."""
    return tuple(zip(*(np.asarray(col).tolist() for col in columns)))


def _pair(cfg: RunConfig) -> tuple[ProductTrajectory, Cut]:
    """The configured two-factor trajectory and cut, or the demo defaults."""
    return cfg.trajectory() or demo_trajectory(), (cfg.cuts or (Cut.splitting((0,), 2),))[0]


def _run_two_qubit_demo(cfg: RunConfig) -> TraceReport:
    traj, cut = _pair(cfg)

    def cells(ts: np.ndarray, states: np.ndarray, directions: np.ndarray) -> list:
        direction = _normalized(_horizontal(states, directions))
        bell = _bell_rows(direction)
        return [bell[:, 2].real, bell[:, 1].real, _chsh_rows(direction)]

    return _sweep(cfg, traj, (cut,), ("bell_psi_plus", "bell_phi_minus", "chsh"), cells)


def _run_product_trace(cfg: RunConfig) -> TraceReport:
    traj = cfg.trajectory()
    cuts = cfg.cuts or (Cut.splitting((0,), traj.n_factors),)
    if traj.n_factors != 2:
        return _sweep(cfg, traj, cuts)

    def cells(ts: np.ndarray, states: np.ndarray, directions: np.ndarray) -> list:
        parts, overlaps = _bipartite_rows(traj, ts, cfg.method, cfg.h)
        sides = _channel_rows(parts, directions, (1, 2))
        for side in sides:
            for mat in side[:-1]:
                _check_hermitian(mat)
        gaps = [sides[0][-1], sides[1][-1], _reality_gaps(*overlaps)]
        worst = np.max(gaps, axis=0)
        _raise_first(
            worst > cfg.tol,
            lambda i: f"channel-decomposition gap {worst[i]:.3e} exceeds tolerance {cfg.tol:g}",
            ToleranceBreachError,
        )
        return gaps

    return _sweep(cfg, traj, cuts, ("channel_gap_1", "channel_gap_2", "bilocal_gap"), cells)


def _run_register_trace(cfg: RunConfig) -> TraceReport:
    cuts = cfg.cuts or (Cut.splitting((0,), 3), Cut.splitting((0, 1), 3))
    return _sweep(cfg, canonical_register_program(), cuts)


def _run_pseudo_pure(cfg: RunConfig) -> TraceReport:
    traj, cut = _pair(cfg)
    eps, dims = cfg.epsilon, traj.dims
    total_dim = math.prod(dims)

    def cells(ts: np.ndarray, states: np.ndarray, directions: np.ndarray) -> list:
        drho = _projector_differentials(states, directions)
        _check_hermitian(drho)
        drho = eps * drho
        _check_hermitian(drho)
        trace = np.trace(drho, axis1=1, axis2=2).real
        tr1, tr2, verdict = _trace_witness(drho, dims, cfg.tol)
        projector = _outer(states, states)
        _check_hermitian(projector)
        mixed = (1.0 - eps) * np.eye(total_dim) / total_dim + eps * projector
        _check_hermitian(mixed)
        return [trace, tr1, tr2, verdict, _separability(mixed, dims, cut)]

    columns = ("drho_trace", "tr1_norm", "tr2_norm", "verdict", "base_separability")
    return _sweep(cfg, traj, (cut,), columns, cells, epsilon=cfg.epsilon)


def _run_separable_mixed(cfg: RunConfig) -> TraceReport:
    grid = cfg.grid_points()
    witness = _ensemble_witness_rows(rotating_ensemble(), grid, cfg.tol, cfg.method, cfg.h)
    columns = ("t", "tr1_norm", "tr2_norm", "operator_gap", "verdict")
    return TraceReport(_metadata(cfg), columns, _rows([grid, *witness]))


def _run_chsh_scan(cfg: RunConfig) -> TraceReport:
    traj, cut = _pair(cfg)
    setting = MeasurementSetting(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))

    def cells(ts: np.ndarray, states: np.ndarray, directions: np.ndarray) -> list:
        coefficients = _correlation_expansions(traj, ts, setting)
        return [_chsh_rows(_normalized(_horizontal(states, directions))), *coefficients.T]

    columns = ("chsh", "corr_c0", "corr_c1", "corr_c2")
    return _sweep(cfg, traj, (cut,), columns, cells, base_entropy=False)


_RUNNERS: dict[str, Callable[[RunConfig], TraceReport]] = {
    "two_qubit_demo": _run_two_qubit_demo,
    "product_trace": _run_product_trace,
    "register_trace": _run_register_trace,
    "pseudo_pure": _run_pseudo_pure,
    "separable_mixed": _run_separable_mixed,
    "chsh_scan": _run_chsh_scan,
}


def run(config: RunConfig) -> TraceReport:
    """Execute one scenario sweep over the configured grid."""
    return _RUNNERS[config.scenario](config)


# ---------------------------------------------------------------------------
# emission


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    return format(float(value), ".12g")


def render_csv(report: TraceReport) -> str:
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(report: TraceReport) -> str:
    rows = [
        {col: (v if isinstance(v, str) else float(v)) for col, v in zip(report.columns, row)}
        for row in report.rows
    ]
    doc = {"metadata": report.metadata, "rows": rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit(report: TraceReport, out_format: str = "csv", path: str | None = None) -> None:
    """Write the report as CSV or JSON to a file, or to stdout when path is None."""
    text = render_csv(report) if out_format == "csv" else render_json(report)
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# verification sweeps
#
# Each check draws its trials as stacks.  Trials are grouped by their factor
# dims, and each group passes once through the kernels the scenarios use,
# with its trials on the leading axis.


@dataclass(frozen=True)
class CheckResult:
    """One self-check: its measured ``margin``, which holds below ``bound``,
    the text of its ``ok`` line, and the failure message when it does not hold."""

    margin: float
    bound: float
    detail: str
    failure: str | None


def _per_trial(
    dims: np.ndarray, measure: Callable[[tuple[int, ...], int], np.ndarray]
) -> np.ndarray:
    """``measure(group dims, trial count)`` for each group of trials with equal
    factor dims, in trial order.  ``dims`` holds one row per trial; a zero
    entry pads a trial with fewer factors."""
    groups, inverse = np.unique(dims, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    out = None
    for g, row in enumerate(groups):
        members = np.flatnonzero(inverse == g)
        values = measure(tuple(int(d) for d in row if d), members.size)
        if out is None:
            out = np.empty((len(dims),) + values.shape[1:], dtype=values.dtype)
        out[members] = values
    return out


def _random_dims(rng: np.random.Generator, trials: int) -> np.ndarray:
    """Factor dims of each trial: 2 or 3 factors of dim 2 or 3, zero-padded."""
    dims = rng.integers(2, 4, size=(trials, 3))
    dims[rng.integers(2, 4, size=trials) == 2, 2] = 0
    return dims


def _check_channel_identity(rng: np.random.Generator, trials: int) -> CheckResult:
    def measure(dims: tuple[int, ...], m: int) -> np.ndarray:
        traj = _random_trajectories(rng, dims, m)
        parts = _bipartite_rows(traj, rng.uniform(0.0, 1.0, m), "auto", DEFAULT_STEP)[0]
        full = _product_rule(*parts[0], parts[1:], _kron_rows)[1]
        sides = _channel_rows(parts, full, (1, 2))
        for side in sides:
            for mat in side[:-1]:
                _check_hermitian(mat)
        return np.maximum(sides[0][-1], sides[1][-1])

    worst = float(_per_trial(rng.integers(2, 5, size=(trials, 2)), measure).max())
    failure = f"channel decomposition gap {worst:.3e} >= 1e-10" if worst >= 1e-10 else None
    return CheckResult(worst, 1e-10, f"max gap {worst:.2e} over {trials} trials", failure)


def _check_bilocal_reality(rng: np.random.Generator, trials: int) -> CheckResult:
    def measure(dims: tuple[int, ...], m: int) -> np.ndarray:
        traj = _random_trajectories(rng, dims, m)
        overlaps = _bipartite_rows(traj, rng.uniform(0.0, 1.0, m), "auto", DEFAULT_STEP)[1]
        return _reality_gaps(*overlaps)

    worst = float(_per_trial(rng.integers(2, 5, size=(trials, 2)), measure).max())
    failure = f"bilocal overlap product imaginary part {worst:.3e} >= 1e-10"
    detail = f"max imaginary part {worst:.2e} over {trials} trials"
    return CheckResult(worst, 1e-10, detail, failure if worst >= 1e-10 else None)


def _check_genericity(rng: np.random.Generator, trials: int) -> CheckResult:
    """The margin is the negated lowest entropy, so that it too holds below its bound."""

    def measure(dims: tuple[int, ...], m: int) -> np.ndarray:
        sites = []
        for d in dims:
            psi = _random_unit_rows(rng, m, d)
            sites.append((psi, _admissible_rows(rng, psi)))
        state, direction = _product_rule(*sites[0], sites[1:], _kron_rows)
        cut = Cut.splitting((0,), len(dims))
        return _entropies_or_zero(_horizontal(state, direction), dims, (cut,))[0]

    entropy = _per_trial(_random_dims(rng, trials), measure)
    lowest, hits = float(entropy.min()), int(np.count_nonzero(entropy < 1e-8))
    failure = f"{hits}/{trials} random tangents fell below entropy 1e-8 (min {lowest:.3g})"
    detail = f"min entropy {lowest:.3g} over {trials} trials"
    return CheckResult(-lowest, -1e-8, detail, failure if hits else None)


def _check_gauge_invariance(rng: np.random.Generator, trials: int) -> CheckResult:
    def measure(dims: tuple[int, ...], m: int) -> np.ndarray:
        traj = _random_trajectories(rng, dims, m)
        ts = rng.uniform(0.0, 1.0, m)
        picked = rng.integers(len(dims), size=m)[:, None]
        phi = rng.normal(size=(m, 2))
        # a factor's rows where it was not picked carry phase e^(i*0): unchanged to the bit
        modulated = ProductTrajectory(
            tuple(
                with_global_phase(curve, np.where(picked == k, phi, 0.0))
                for k, curve in enumerate(traj.factors)
            )
        )
        rows = [
            _horizontal(*_tangent_rows(tr, ts, "auto", DEFAULT_STEP)) for tr in (modulated, traj)
        ]
        cut = Cut.splitting((0,), len(dims))
        after, before = np.split(_entropies_or_zero(np.concatenate(rows), dims, (cut,))[0], 2)
        return abs(after - before)

    worst = float(_per_trial(_random_dims(rng, trials), measure).max())
    failure = f"entropy moved by {worst:.3e} under phase modulation"
    detail = f"max entropy shift {worst:.2e} over {trials} trials"
    return CheckResult(worst, 1e-10, detail, failure if worst >= 1e-10 else None)


def _median_ratio(ratios: np.ndarray, name: str) -> CheckResult:
    """The median of the halving ratios must be 4 +/- 20%."""
    median = float(np.sort(ratios)[len(ratios) // 2])
    failure = f"median {name} ratio {median:.3f} outside 4 +/- 20%"
    detail = f"median halving ratio {median:.3f} over {len(ratios)} trials"
    return CheckResult(abs(median - 4.0), 0.8, detail, None if 3.2 <= median <= 4.8 else failure)


def _check_fs_consistency(rng: np.random.Generator, trials: int, h: float = 1e-3) -> CheckResult:
    """err(h)/err(h/2) for |fs_distance/h - fs_speed| on constant-speed
    trajectories of speed above 0.2, drawn in batches until ``trials`` pass."""

    def measure(dims: tuple[int, ...], m: int) -> np.ndarray:
        traj = _random_trajectories(rng, dims, m, constant_speed=True)
        ts = rng.uniform(0.0, 1.0, m)
        states, directions = _tangent_rows(traj, ts, "auto", DEFAULT_STEP)
        speed = _fs_speeds(states, directions)
        errors = []
        for step in (h, h / 2):
            errors.append(abs(_fs_distances(states, traj.states(ts + step)) / step - speed))
        return np.column_stack([speed, *errors])

    ratios = np.empty(0)
    while ratios.size < trials:
        rows = _per_trial(_random_dims(rng, 2 * (trials - ratios.size)), measure)
        kept = rows[rows[:, 0] > 0.2]
        ratios = np.concatenate([ratios, kept[:, 1] / kept[:, 2]])
    return _median_ratio(ratios[:trials], "halving")


def _check_fd_order(rng: np.random.Generator, trials: int, h: float = 1e-3) -> CheckResult:
    """err(h)/err(h/2) of the central difference against the analytic tangent."""

    def measure(dims: tuple[int, ...], m: int) -> np.ndarray:
        curve = _random_curves(rng, dims[0], m)
        ts = rng.uniform(0.0, 1.0, m)
        base = curve.states(ts)
        exact = _directions(curve, ts, "analytic", h)
        _check_tangents(base, exact)
        errors = []
        for step in (h, h / 2):
            approx = _directions(curve, ts, "central_fd", step)
            _check_tangents(base, approx)
            errors.append(np.linalg.norm(approx - exact, axis=-1))
        return errors[0] / errors[1]

    ratios = _per_trial(rng.integers(2, 4, size=(trials, 1)), measure)
    return _median_ratio(ratios, "central-difference")


def _check_composition(rng: np.random.Generator, trials: int) -> CheckResult:
    def measure(dims: tuple[int, ...], m: int) -> np.ndarray:
        gens = _random_hermitians(rng, (m,), dims[0])
        exact = propagator(gens, 1.0)
        dists = [
            np.linalg.norm(infinitesimal_composition(gens, 1.0, n) - exact, ord=2, axis=(-2, -1))
            for n in (64, 128)
        ]
        return dists[0] / dists[1]

    ratios = _per_trial(rng.integers(2, 5, size=(trials, 1)), measure)
    bad = ratios[~((1.7 <= ratios) & (ratios <= 2.3))]
    failure = None
    if bad.size:
        failure = f"{bad.size}/{trials} doubling ratios outside 2 +/- 15% (e.g. {bad[0]:.3f})"
    detail = f"doubling ratios within 2 +/- 15% over {trials} trials"
    return CheckResult(float(np.max(abs(ratios - 2.0))), 0.3, detail, failure)


def _check_witness_false_positives(rng: np.random.Generator, trials: int) -> CheckResult:
    def measure(dims: tuple[int, ...], m: int) -> np.ndarray:
        weight = rng.uniform(0.2, 0.8, m)[:, None, None]
        comps = (_random_trajectories(rng, dims, m), _random_trajectories(rng, dims, m))
        ts = rng.uniform(0.0, 1.0, m)
        components = [
            (w, *_factor_differentials(comp, ts, "auto", DEFAULT_STEP))
            for w, comp in zip((weight, 1.0 - weight), comps)
        ]
        drho = _product_form(components)
        _check_hermitian(drho)
        tr1, tr2, verdict = _trace_witness(drho, dims, 1e-6)
        return np.column_stack([np.maximum(tr1, tr2), verdict != VERDICT_INCONCLUSIVE])

    rows = _per_trial(rng.integers(2, 4, size=(trials, 2)), measure)
    worst = float(rows[:, 0].max())
    failure = None
    if rows[:, 1].any():
        failure = "witness flagged an honest product-differential form"
    elif worst >= 1e-10:
        failure = f"partial-trace norm {worst:.3e} >= 1e-10 on product form"
    detail = f"max partial-trace norm {worst:.2e} over {trials} trials"
    return CheckResult(worst, 1e-10, detail, failure)


# (name, check, most trials it runs; None: all requested)
_CHECKS: tuple[tuple[str, Callable[[np.random.Generator, int], CheckResult], int | None], ...] = (
    ("channel-identity", _check_channel_identity, None),
    ("bilocal-reality", _check_bilocal_reality, None),
    ("tangent-genericity", _check_genericity, None),
    ("gauge-invariance", _check_gauge_invariance, None),
    ("fs-consistency", _check_fs_consistency, 60),
    ("fd-order", _check_fd_order, 60),
    ("composition-convergence", _check_composition, 60),
    ("witness-no-false-positive", _check_witness_false_positives, None),
)
VERIFY_FORMATS = ("text", "json")


def verify(trials: int = 1000, seed: int = 0, stream=None, out_format: str = "text") -> int:
    """Run every randomized property check; 0 when all hold, 3 otherwise.

    ``trials`` must be at least 1: over no trials every check would hold
    vacuously.  With ``out_format`` "text" each check that holds prints one
    ``ok`` line; with "json" one JSON object gives each check's status,
    trials, margin, bound and seconds.  Each failing check prints ``FAIL`` to
    stderr in both.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    if out_format not in VERIFY_FORMATS:
        raise ValueError(f"out_format must be one of {VERIFY_FORMATS}, got {out_format!r}")
    stream = stream if stream is not None else sys.stdout
    rng = np.random.default_rng(seed)
    status, report = 0, {}
    for name, check, cap in _CHECKS:
        n = trials if cap is None else min(trials, cap)
        start = time.perf_counter()
        try:
            result = check(rng, n)
            failure = result.failure
        except ValueError as exc:
            result, failure = None, str(exc)
        entry = {
            "status": "fail" if failure else "ok",
            "trials": n,
            "margin": None if result is None else result.margin,
            "bound": None if result is None else result.bound,
            "seconds": time.perf_counter() - start,
        }
        if failure:
            entry["message"] = failure
            print(f"FAIL {name}: {failure}", file=sys.stderr)
            status = 3
        elif out_format == "text":
            print(f"ok {name}: {result.detail}", file=stream)
        report[name] = entry
    if out_format == "json":
        doc = {"tool": "qtangle", "version": __version__, "seed": seed, "trials": trials}
        doc.update(status="fail" if status else "ok", checks=report)
        print(json.dumps(doc, indent=2), file=stream)
    return status


# ---------------------------------------------------------------------------
# entry point


def _verify_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="qtangle verify")
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=VERIFY_FORMATS, default="text", dest="out_format")
    args = parser.parse_args(argv)
    if args.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    return verify(trials=args.trials, seed=args.seed, out_format=args.out_format)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "verify":
        return _verify_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="qtangle",
        description="Entanglement of tangent vectors along product-state trajectories.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument("--scenario", choices=SCENARIOS, help="scenario shorthand with defaults")
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), dest="out_format")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tol", type=float)
    args = parser.parse_args(argv)

    if args.config is None and args.scenario is None:
        print("error: provide --config PATH or --scenario NAME", file=sys.stderr)
        return 2

    text = "{}"
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    overrides = {
        "scenario": args.scenario,
        "out": args.out,
        "format": args.out_format,
        "seed": args.seed,
        "tol": args.tol,
    }
    try:
        config = parse_config(text, overrides)
        report = run(config)
    except ToleranceBreachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        emit(report, config.out_format, config.out_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
