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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .config import SCENARIOS, RunConfig, parse_config
from .channels import (
    _bipartite_rows,
    _channel_rows,
    _reality_gaps,
    bilocal_inner_check,
    reduced_tangent_channel,
)
from .entanglement import MeasurementSetting, _bell_rows, _chsh_rows, _correlation_expansions
from .errors import ConfigError, DegenerateInputError, ToleranceBreachError, ValidationError
from .geometry import _entropies_or_zero, fs_distance, fs_speed, profile
from .mixed_witness import (
    VERDICT_INCONCLUSIVE,
    _ensemble_witness_rows,
    _separability,
    _trace_witness,
    differential_trace_witness,
    product_differential,
)
from .statespace import TRACE_TOL  # noqa: F401  (re-exported: pseudo_pure's trace bound)
from .statespace import Cut, Ket, _check_hermitian, _normalized, _outer, _raise_first
from .trajectories import (
    BlochCurve,
    Ensemble,
    PhaseCurve,
    ProductTrajectory,
    RegisterProgram,
    UnitaryCurve,
    _horizontal,
    _kron_rows,
    _product_rule,
    _projector_differentials,
    differentiate,
    horizontal_tangent,
    infinitesimal_composition,
    product_tangent,
    propagator,
    random_admissible_direction,
    random_factor_curve,
    random_hermitian,
    random_product_trajectory,
    random_unit_ket,
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


def _random_dims(rng: np.random.Generator) -> tuple[int, ...]:
    n = int(rng.integers(2, 4))
    return tuple(int(rng.integers(2, 4)) for _ in range(n))


def _check_channel_identity(rng: np.random.Generator, trials: int) -> str:
    worst = 0.0
    for _ in range(trials):
        traj = random_product_trajectory(rng, (int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        t = float(rng.uniform(0.0, 1.0))
        for side in (1, 2):
            worst = max(worst, reduced_tangent_channel(traj, t, side).gap)
    if worst >= 1e-10:
        raise ToleranceBreachError(f"channel decomposition gap {worst:.3e} >= 1e-10")
    return f"max gap {worst:.2e} over {trials} trials"


def _check_bilocal_reality(rng: np.random.Generator, trials: int) -> str:
    worst = 0.0
    for _ in range(trials):
        traj = random_product_trajectory(rng, (int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        worst = max(worst, bilocal_inner_check(traj, float(rng.uniform(0.0, 1.0))).reality_gap)
    if worst >= 1e-10:
        raise ToleranceBreachError(f"bilocal overlap product imaginary part {worst:.3e} >= 1e-10")
    return f"max imaginary part {worst:.2e} over {trials} trials"


def _check_genericity(rng: np.random.Generator, trials: int) -> str:
    lowest = math.inf
    hits = 0
    for _ in range(trials):
        dims = _random_dims(rng)
        states = [random_unit_ket(rng, (d,)) for d in dims]
        sites = [(s.amplitudes[None], random_admissible_direction(rng, s)[None]) for s in states]
        state, direction = _product_rule(*sites[0], sites[1:], _kron_rows)
        cut = Cut.splitting((0,), len(dims))
        entropy = float(_entropies_or_zero(_horizontal(state, direction), dims, (cut,))[0][0])
        lowest = min(lowest, entropy)
        if entropy < 1e-8:
            hits += 1
    if hits:
        raise ToleranceBreachError(
            f"{hits}/{trials} random tangents fell below entropy 1e-8 (min {lowest:.3g})"
        )
    return f"min entropy {lowest:.3g} over {trials} trials"


def _check_gauge_invariance(rng: np.random.Generator, trials: int) -> str:
    worst = 0.0
    for _ in range(trials):
        dims = _random_dims(rng)
        traj = random_product_trajectory(rng, dims)
        t = float(rng.uniform(0.0, 1.0))
        cut = Cut.splitting((0,), len(dims))
        before = horizontal_tangent(product_tangent(traj, t)).direction
        k = int(rng.integers(len(dims)))
        factors = list(traj.factors)
        factors[k] = with_global_phase(factors[k], [rng.normal(), rng.normal()])
        modulated = ProductTrajectory(tuple(factors))
        after = horizontal_tangent(product_tangent(modulated, t)).direction
        entropies = _entropies_or_zero(np.array([after, before]), traj.dims, (cut,))[0]
        worst = max(worst, abs(float(entropies[0] - entropies[1])))
    if worst >= 1e-10:
        raise ToleranceBreachError(f"entropy moved by {worst:.3e} under phase modulation")
    return f"max entropy shift {worst:.2e} over {trials} trials"


def _consistency_ratio(rng: np.random.Generator, h: float = 1e-3) -> float:
    """err(h)/err(h/2) for |fs_distance/h - fs_speed| on a constant-speed curve."""
    while True:
        traj = random_product_trajectory(rng, _random_dims(rng), constant_speed=True)
        t = float(rng.uniform(0.0, 1.0))
        speed = fs_speed(product_tangent(traj, t))
        if speed > 0.2:
            break
    base = traj.state(t)
    errors = []
    for step in (h, h / 2):
        dist = fs_distance(base, traj.state(t + step))
        errors.append(abs(dist / step - speed))
    return errors[0] / errors[1]


def _fd_ratio(rng: np.random.Generator, h: float = 1e-3) -> float:
    """err(h)/err(h/2) of the central difference against the analytic tangent."""
    curve = random_factor_curve(rng, int(rng.integers(2, 4)))
    t = float(rng.uniform(0.0, 1.0))
    exact = differentiate(curve, t, method="analytic").direction
    errs = [
        float(np.linalg.norm(differentiate(curve, t, method="central_fd", h=step).direction - exact))
        for step in (h, h / 2)
    ]
    return errs[0] / errs[1]


def _check_median_ratio(
    ratio: Callable[[np.random.Generator], float], name: str, rng: np.random.Generator, trials: int
) -> str:
    """The median of ``ratio`` over at most 60 trials must be 4 +/- 20%."""
    trials = min(trials, 60)
    ratios = sorted(ratio(rng) for _ in range(trials))
    median = ratios[len(ratios) // 2]
    if not 3.2 <= median <= 4.8:
        raise ToleranceBreachError(f"median {name} ratio {median:.3f} outside 4 +/- 20%")
    return f"median halving ratio {median:.3f} over {trials} trials"


def _check_composition(rng: np.random.Generator, trials: int) -> str:
    trials = min(trials, 60)
    ratios = []
    for _ in range(trials):
        dim = int(rng.integers(2, 5))
        gen = random_hermitian(rng, dim)
        exact = propagator(gen, 1.0)
        dists = [
            float(np.linalg.norm(infinitesimal_composition(gen, 1.0, n) - exact, ord=2))
            for n in (64, 128)
        ]
        ratios.append(dists[0] / dists[1])
    bad = [r for r in ratios if not 1.7 <= r <= 2.3]
    if bad:
        raise ToleranceBreachError(
            f"{len(bad)}/{trials} doubling ratios outside 2 +/- 15% (e.g. {bad[0]:.3f})"
        )
    return f"doubling ratios within 2 +/- 15% over {trials} trials"


def _check_witness_false_positives(rng: np.random.Generator, trials: int) -> str:
    worst = 0.0
    for _ in range(trials):
        dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        weight = float(rng.uniform(0.2, 0.8))
        ens = Ensemble(
            (weight, 1.0 - weight),
            (random_product_trajectory(rng, dims), random_product_trajectory(rng, dims)),
        )
        drho = product_differential(ens, float(rng.uniform(0.0, 1.0)))
        report = differential_trace_witness(drho, tol=1e-6)
        if report.verdict != VERDICT_INCONCLUSIVE:
            raise ToleranceBreachError("witness flagged an honest product-differential form")
        worst = max(worst, report.tr1_norm, report.tr2_norm)
    if worst >= 1e-10:
        raise ToleranceBreachError(f"partial-trace norm {worst:.3e} >= 1e-10 on product form")
    return f"max partial-trace norm {worst:.2e} over {trials} trials"


_CHECKS: tuple[tuple[str, Callable[[np.random.Generator, int], str]], ...] = (
    ("channel-identity", _check_channel_identity),
    ("bilocal-reality", _check_bilocal_reality),
    ("tangent-genericity", _check_genericity),
    ("gauge-invariance", _check_gauge_invariance),
    ("fs-consistency", partial(_check_median_ratio, _consistency_ratio, "halving")),
    ("fd-order", partial(_check_median_ratio, _fd_ratio, "central-difference")),
    ("composition-convergence", _check_composition),
    ("witness-no-false-positive", _check_witness_false_positives),
)


def verify(trials: int = 1000, seed: int = 0, stream=None) -> int:
    """Run every randomized property sweep; 0 when all hold, 3 otherwise.

    ``trials`` must be at least 1: over no trials every check would hold
    vacuously.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    stream = stream if stream is not None else sys.stdout
    rng = np.random.default_rng(seed)
    status = 0
    for name, check in _CHECKS:
        try:
            detail = check(rng, trials)
        except (ToleranceBreachError, ValueError) as exc:
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            status = 3
            continue
        print(f"ok {name}: {detail}", file=stream)
    return status


# ---------------------------------------------------------------------------
# entry point


def _verify_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="qtangle verify")
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    return verify(trials=args.trials, seed=args.seed)


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
