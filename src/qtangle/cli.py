"""Command-line front end: scenario sweeps, report emission, verification.

Each scenario walks a parameter grid and writes one row per grid point.
Columns are fixed per scenario; values are plain floats (12 significant
digits in CSV) or verdict strings.  Exit codes: 0 success, 2 invalid
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
    _bilocal_from_parts,
    _bipartite_parts,
    _channel_from_parts,
    bilocal_inner_check,
    reduced_tangent_channel,
)
from .entanglement import MeasurementSetting, bell_decompose, chsh_value, correlation_expansion
from .errors import ConfigError, DegenerateInputError, ToleranceBreachError, ValidationError
from .geometry import GeodesicSample, _entropy_or_zero, fs_distance, fs_speed, profile
from .mixed_witness import (
    VERDICT_INCONCLUSIVE,
    base_state_separability,
    differential_trace_witness,
    ensemble_witness,
    product_differential,
)
from .statespace import Cut, HermitianOp, Ket
from .trajectories import (
    BlochCurve,
    Ensemble,
    PhaseCurve,
    ProductTrajectory,
    RegisterProgram,
    TangentVector,
    UnitaryCurve,
    _sum_rule,
    differentiate,
    horizontal_tangent,
    infinitesimal_composition,
    product_tangent,
    propagator,
    pseudo_pure_differential,
    random_admissible_direction,
    random_factor_curve,
    random_hermitian,
    random_product_trajectory,
    random_unit_ket,
    with_global_phase,
)

# trace of a differential of a norm-preserving curve must vanish; beyond
# this the differentiation step size is unfit for the requested run
TRACE_TOL = 1e-8


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
    cells: Callable[[GeodesicSample], Sequence] = lambda sample: (),
    base_entropy: bool = True,
    **extra,
) -> TraceReport:
    """Profile a trajectory over the grid once and write one row per point.

    Every row starts with t (and the step for a register program), the
    speed and the per-cut entropies; ``cells`` appends the scenario's own
    columns computed from the same sample.  An input the numerics reject
    at one grid point is a tolerance breach there, not invalid input.
    """
    prof = profile(traj, cfg.grid_points(), cuts, method=cfg.method, h=cfg.h)
    register = isinstance(traj, RegisterProgram)
    head = ["t", "step", "fs_speed"] if register else ["t", "fs_speed"]
    for cut in cuts:
        head.append(f"tangent_entropy_{cut.label()}")
        if base_entropy:
            head.append(f"base_entropy_{cut.label()}")
    rows = []
    for sample in prof.samples:
        row = [sample.t, float(traj.resolve_time(sample.t)[0])] if register else [sample.t]
        row.append(sample.fs_speed)
        for cut in cuts:
            row.append(sample.tangent_entropy[cut])
            if base_entropy:
                row.append(sample.base_entropy[cut])
        try:
            row += cells(sample)
        except (ValidationError, DegenerateInputError) as exc:
            raise ToleranceBreachError(f"{exc} at t={sample.t:.6g}") from exc
        rows.append(tuple(row))
    meta = _metadata(cfg, cuts=[c.label() for c in cuts], **extra, arc_length=prof.arc_length)
    return TraceReport(meta, (*head, *columns), tuple(rows))


def _pair(cfg: RunConfig) -> tuple[ProductTrajectory, Cut]:
    """The configured two-factor trajectory and cut, or the demo defaults."""
    return cfg.trajectory() or demo_trajectory(), (cfg.cuts or (Cut.splitting((0,), 2),))[0]


def _run_two_qubit_demo(cfg: RunConfig) -> TraceReport:
    traj, cut = _pair(cfg)

    def cells(sample: GeodesicSample) -> list:
        direction = horizontal_tangent(sample.tangent).normalized_direction()
        bell = bell_decompose(direction)
        return [float(bell[2].real), float(bell[1].real), chsh_value(direction)]

    return _sweep(cfg, traj, (cut,), ("bell_psi_plus", "bell_phi_minus", "chsh"), cells)


def _run_product_trace(cfg: RunConfig) -> TraceReport:
    traj = cfg.trajectory()
    cuts = cfg.cuts or (Cut.splitting((0,), traj.n_factors),)
    if traj.n_factors != 2:
        return _sweep(cfg, traj, cuts)

    def cells(sample: GeodesicSample) -> list:
        parts = _bipartite_parts(traj, sample.t, cfg.method, cfg.h)
        gaps = [
            _channel_from_parts(parts, 1).gap,
            _channel_from_parts(parts, 2).gap,
            _bilocal_from_parts(parts).reality_gap,
        ]
        worst = max(gaps)
        if worst > cfg.tol:
            raise ToleranceBreachError(
                f"channel-decomposition gap {worst:.3e} exceeds tolerance "
                f"{cfg.tol:g} at t={sample.t:.6g}"
            )
        return gaps

    return _sweep(cfg, traj, cuts, ("channel_gap_1", "channel_gap_2", "bilocal_gap"), cells)


def _run_register_trace(cfg: RunConfig) -> TraceReport:
    cuts = cfg.cuts or (Cut.splitting((0,), 3), Cut.splitting((0, 1), 3))
    return _sweep(cfg, canonical_register_program(), cuts)


def _run_pseudo_pure(cfg: RunConfig) -> TraceReport:
    traj, cut = _pair(cfg)
    total_dim = math.prod(traj.dims)

    def cells(sample: GeodesicSample) -> list:
        tv = sample.tangent
        drho = pseudo_pure_differential(tv.base, tv, cfg.epsilon)
        trace = drho.trace()
        if abs(trace) > TRACE_TOL:
            raise ToleranceBreachError(
                f"pseudo-pure differential has trace {trace:.3e} at t={sample.t:.6g}; "
                f"the curve is not norm-preserving at the requested step size"
            )
        witness = differential_trace_witness(drho, tol=cfg.tol)
        mixed = HermitianOp(
            (1.0 - cfg.epsilon) * np.eye(total_dim) / total_dim
            + cfg.epsilon * tv.base.projector().matrix,
            traj.dims,
        )
        return [
            float(trace),
            witness.tr1_norm,
            witness.tr2_norm,
            witness.verdict,
            base_state_separability(mixed, cut),
        ]

    columns = ("drho_trace", "tr1_norm", "tr2_norm", "verdict", "base_separability")
    return _sweep(cfg, traj, (cut,), columns, cells, epsilon=cfg.epsilon)


def _run_separable_mixed(cfg: RunConfig) -> TraceReport:
    ens = rotating_ensemble()
    grid = cfg.grid_points()
    columns = ("t", "tr1_norm", "tr2_norm", "operator_gap", "verdict")
    rows = []
    for t in grid:
        wit = ensemble_witness(ens, float(t), tol=cfg.tol, method=cfg.method, h=cfg.h)
        rows.append((float(t), wit.tr1_norm, wit.tr2_norm, wit.operator_gap, wit.verdict))
    return TraceReport(_metadata(cfg), columns, tuple(rows))


def _run_chsh_scan(cfg: RunConfig) -> TraceReport:
    traj, cut = _pair(cfg)
    setting = MeasurementSetting(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))

    def cells(sample: GeodesicSample) -> list:
        coefficients = correlation_expansion(traj, sample.t, setting)
        direction = horizontal_tangent(sample.tangent).normalized_direction()
        return [chsh_value(direction), *coefficients]

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
        parts = [TangentVector(s, random_admissible_direction(rng, s)) for s in states]
        tv = horizontal_tangent(_sum_rule(parts, [False] * len(parts)))
        entropy = _entropy_or_zero(tv.direction, tv.dims, Cut.splitting((0,), len(dims)))
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
        shift = _entropy_or_zero(after, traj.dims, cut) - _entropy_or_zero(before, traj.dims, cut)
        worst = max(worst, abs(shift))
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
    """Run every randomized property sweep; 0 when all hold, 3 otherwise."""
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
