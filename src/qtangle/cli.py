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
import os
import sys
import time
from dataclasses import dataclass
from functools import cache, reduce
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .config import _FORMATS, SCENARIOS, RunConfig, parse_config
from .channels import _channel_rows, _factor_overlaps, _reality_gaps
from .entanglement import MeasurementSetting, _bell_rows, _correlation_expansions, _product_chsh_rows
from .errors import DegenerateInputError, ToleranceBreachError, ValidationError
from .geometry import TrajectoryProfile, _entropies_or_zero, _fs_distances, _fs_speeds, profile
from .mixed_witness import (
    VERDICT_INCONCLUSIVE,
    _ensemble_witness_rows,
    _product_form,
    _pseudo_pure_rows,
    _trace_witness,
)
from .statespace import Cut, Ket, _bounded, _check_hermitian, _first_rejection, _integer, _normalized
from .trajectories import (
    DEFAULT_STEP,
    BlochCurve,
    Ensemble,
    PhaseCurve,
    ProductTrajectory,
    RegisterProgram,
    UnitaryCurve,
    _admissible_rows,
    _curve_rows,
    _factor_differentials,
    _horizontal,
    _kron_rows,
    _product_tangents,
    _random_curves,
    _random_hermitians,
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


@cache
def _canonical(build: Callable[[], object]):
    """``build()``, built on first use and shared by every run after it: the
    canonical inputs are immutable, and the runs reuse the stacks and rows
    they cache.  The public functions still return a fresh object each call."""
    return build()


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
    cells: Callable[..., list] | None = None,
    base_entropy: bool = True,
    **extra,
) -> TraceReport:
    """Profile a trajectory over the grid once and write one row per point.

    Every row starts with t (and the step for a register program), the
    speed and the per-cut entropies; ``cells(prof)`` appends the scenario's
    own columns, each over the whole grid, from the profile's rows, so no
    cell differentiates a curve again.  The cells reject the first grid
    point a point-by-point sweep would reject.  The profile's dense rows
    are built only for cells that read them.
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
    if cells is not None:
        with _first_rejection():
            cols += cells(prof)
    paths = {cut.label(): path for cut, path in prof.entropy_path.items()}
    meta = _metadata(
        cfg, cuts=[c.label() for c in cuts], **extra, arc_length=prof.arc_length, entropy_path=paths
    )
    return TraceReport(meta, (*head, *columns), _rows(cols))


def _rows(columns: Sequence[np.ndarray]) -> tuple[tuple, ...]:
    """Grid-long columns as rows of plain floats and strings."""
    return tuple(zip(*(np.asarray(col).tolist() for col in columns)))


def _pair(cfg: RunConfig) -> tuple[ProductTrajectory, Cut]:
    """The configured two-factor trajectory and cut, or the demo defaults."""
    return cfg.trajectory() or _canonical(demo_trajectory), (cfg.cuts or (Cut.splitting((0,), 2),))[0]


def _run_two_qubit_demo(cfg: RunConfig) -> TraceReport:
    traj, cut = _pair(cfg)

    def cells(prof: TrajectoryProfile) -> list:
        bell = _bell_rows(_normalized(_horizontal(prof.states, prof.directions)))
        return [bell[:, 2].real, bell[:, 1].real, _product_chsh_rows(prof.factors)]

    return _sweep(cfg, traj, (cut,), ("bell_psi_plus", "bell_phi_minus", "chsh"), cells)


def _run_product_trace(cfg: RunConfig) -> TraceReport:
    traj = cfg.trajectory()
    cuts = cfg.cuts or (Cut.splitting((0,), traj.n_factors),)
    if traj.n_factors != 2:
        return _sweep(cfg, traj, cuts)

    def cells(prof: TrajectoryProfile) -> list:
        overlaps = _factor_overlaps(prof.factors, cfg.method)
        sides = _channel_rows(prof.factors, prof.directions, (1, 2))
        gaps = [sides[0][-1], sides[1][-1], _reality_gaps(*overlaps)]
        worst = np.max(gaps, axis=0)
        message = lambda i: f"channel-decomposition gap {worst[i]:.3e} exceeds tolerance {cfg.tol:g}"
        _bounded(worst, cfg.tol, message)
        return gaps

    return _sweep(cfg, traj, cuts, ("channel_gap_1", "channel_gap_2", "bilocal_gap"), cells)


def _run_register_trace(cfg: RunConfig) -> TraceReport:
    cuts = cfg.cuts or (Cut.splitting((0,), 3), Cut.splitting((0, 1), 3))
    return _sweep(cfg, _canonical(canonical_register_program), cuts)


def _run_pseudo_pure(cfg: RunConfig) -> TraceReport:
    traj, cut = _pair(cfg)

    def cells(prof: TrajectoryProfile) -> list:
        return list(_pseudo_pure_rows(prof.factors, cfg.epsilon, cfg.tol, cfg.method))

    columns = ("drho_trace", "tr1_norm", "tr2_norm", "verdict", "base_separability")
    return _sweep(cfg, traj, (cut,), columns, cells, epsilon=cfg.epsilon)


def _run_separable_mixed(cfg: RunConfig) -> TraceReport:
    grid = cfg.grid_points()
    witness = _ensemble_witness_rows(_canonical(rotating_ensemble), grid, cfg.tol, cfg.method, cfg.h)
    columns = ("t", "tr1_norm", "tr2_norm", "operator_gap", "verdict")
    return TraceReport(_metadata(cfg), columns, _rows([grid, *witness]))


def _run_chsh_scan(cfg: RunConfig) -> TraceReport:
    traj, cut = _pair(cfg)
    setting = MeasurementSetting(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))

    def cells(prof: TrajectoryProfile) -> list:
        coefficients = _correlation_expansions(traj, prof.grid, setting)
        return [_product_chsh_rows(prof.factors), *coefficients.T]

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
    """Execute one scenario sweep over the configured grid.  A check that
    rejects a grid point, in any layer, is a tolerance breach naming it."""
    try:
        with np.errstate(all="ignore"):
            return _RUNNERS[config.scenario](config)
    except (ValidationError, DegenerateInputError) as exc:
        if not hasattr(exc, "row"):
            raise
        raise ToleranceBreachError(f"{exc} at t={config.grid_points()[exc.row]:.6g}") from exc


# ---------------------------------------------------------------------------
# emission


def render_csv(report: TraceReport) -> str:
    """A header line, then one line per row from one template per report:
    each number column to 12 significant digits, each string column as is."""
    first = report.rows[0] if report.rows else ()
    template = ",".join("%s" if isinstance(v, str) else "%.12g" for v in first)
    return "\n".join([",".join(report.columns), *(template % row for row in report.rows)]) + "\n"


def render_json(report: TraceReport) -> str:
    rows = [
        {col: (v if isinstance(v, str) else float(v)) for col, v in zip(report.columns, row)}
        for row in report.rows
    ]
    doc = {"metadata": report.metadata, "rows": rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit(report: TraceReport, out_format: str = "csv", path: str | os.PathLike | None = None) -> None:
    """Write the report as CSV or JSON to a file, or to stdout when path is None."""
    if out_format not in _FORMATS:
        raise ValueError(f"out_format must be one of {_FORMATS}, got {out_format!r}")
    if path is not None and not isinstance(path, (str, os.PathLike)):
        # open() would take an int as a file descriptor, write to it and close it
        raise TypeError(f"path must be a str or an os.PathLike, got {type(path).__name__}")
    text = render_csv(report) if out_format == "csv" else render_json(report)
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# verification sweeps
#
# Each check draws its trials as stacks.  A check that combines factors draws
# one stack of random curves per factor dim, covering every factor slot of
# that dim over all trials, and evaluates it once, each row at its own
# trial's t.  The rows are held zero-padded to (trials, slots, largest dim),
# and the empty third slot of a two-factor trial holds a still |0>, so every
# trial's product lives in one space of (largest dim)^slots: each check then
# passes once through the kernels the scenarios use, with all its trials on
# the leading axis.  Zero padding adds nothing to a norm, an overlap or a
# Schmidt spectrum, and the still |0> adds no motion.


@dataclass(frozen=True)
class CheckResult:
    """One self-check: its measured ``margin``, which holds while below ``bound``, the text
    of its ``ok`` line, the ``message`` it fails with otherwise, and a ``verdict`` failing it at any margin."""

    margin: float
    bound: float
    detail: str
    message: Callable[[], str]
    verdict: str | None = None

    @property
    def failure(self) -> str | None:
        """Why the check fails, or None; a margin at its bound fails, and so does a NaN one."""
        return self.verdict or (None if self.margin < self.bound else self.message())


# the larger of the two steps whose errors the halving-ratio checks compare
_HALVING_STEP = 1e-3
_GAP_BOUND = 1e-10  # of the largest gap or norm in each identity check


def _random_dims(rng: np.random.Generator, trials: int) -> np.ndarray:
    """Factor dims of each trial: 2 or 3 factors of dim 2 or 3, zero-padded."""
    dims = rng.integers(2, 4, size=(trials, 3))
    dims[rng.integers(2, 4, size=trials) == 2, 2] = 0
    return dims


def _slot_rows(dims: np.ndarray, rows_of: Callable[..., tuple]) -> list[np.ndarray]:
    """Rows of every factor slot of every trial, zero-padded to (trials,
    slots, largest dim), one array per array ``rows_of`` returns; a stack of
    d x d matrices is padded to (trials, slots, largest dim, largest dim).

    ``dims`` holds one row of slot dims per trial, zero for an empty slot.
    ``rows_of(d, trial, slot)`` is called once per dim d and gives one row
    per slot of that dim, for the (trial, slot) pairs in row-major order.
    """
    out = []
    for d in np.flatnonzero(np.bincount(dims[dims > 0])):
        trial, slot = np.nonzero(dims == d)
        arrays = rows_of(int(d), trial, slot)
        if not out:
            width = (dims.max(),)
            out = [np.zeros(dims.shape + width * (a.ndim - 1), dtype=complex) for a in arrays]
        for arr, rows in zip(out, arrays):
            arr[(trial, slot) + (slice(d),) * (rows.ndim - 1)] = rows
    return out


def _slot_parts(
    dims: np.ndarray, rows: list[np.ndarray], states: tuple[int, ...] = (0,)
) -> list[tuple[np.ndarray, ...]]:
    """Each slot's rows over all trials, one entry per array of ``rows``
    (``_slot_rows``), after giving each empty slot the still |0> in place:
    state e0 in each array ``states`` names, zero in the others."""
    for i in states:
        rows[i][dims == 0, 0] = 1.0
    return [tuple(arr[:, k] for arr in rows) for k in range(dims.shape[1])]


def _curve_slot_rows(
    rng: np.random.Generator, dims: np.ndarray, ts: np.ndarray
) -> list[np.ndarray]:
    """(states, directions) of one random curve per factor slot, each
    evaluated at its trial's t: one stack of curves per dim."""

    def rows_of(d: int, trial: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        curve = _random_curves(rng, d, trial.size)
        return _curve_rows(curve, ts[trial], "analytic", DEFAULT_STEP)

    return _slot_rows(dims, rows_of)


def _first_slot_entropies(rows: np.ndarray, parts: list[tuple[np.ndarray, ...]]) -> np.ndarray:
    """Entropy of each normalized row of a product over the padded slots
    (``_slot_parts``) across 1|rest."""
    dims = (parts[0][0].shape[-1],) * len(parts)
    return _entropies_or_zero(rows, dims, (Cut.splitting((0,), len(parts)),))[0]


def _check_channel_and_bilocal(rng: np.random.Generator, trials: int) -> tuple[CheckResult, CheckResult]:
    """The channel decomposition and the bilocal reality over one draw of
    two-factor trials, as ``product_trace``'s gap columns read one profile."""
    dims = rng.integers(2, 5, size=(trials, 2))
    parts = _slot_parts(dims, _curve_slot_rows(rng, dims, rng.uniform(0.0, 1.0, trials)))
    overlaps = _factor_overlaps(parts, "analytic")  # norm preservation, as the scenarios check it
    full = _product_tangents(parts)[1]
    channel = float(np.max([side[-1] for side in _channel_rows(parts, full, (1, 2))]))  # a NaN of either side too
    message = lambda: f"channel decomposition gap {channel:.3e} >= {_GAP_BOUND:g}"
    channel_result = CheckResult(channel, _GAP_BOUND, f"max gap {channel:.2e} over {trials} trials", message)
    bilocal = float(_reality_gaps(*overlaps).max())
    message = lambda: f"bilocal overlap product imaginary part {bilocal:.3e} >= {_GAP_BOUND:g}"
    detail = f"max imaginary part {bilocal:.2e} over {trials} trials"
    return channel_result, CheckResult(bilocal, _GAP_BOUND, detail, message)


def _check_genericity(rng: np.random.Generator, trials: int) -> CheckResult:
    """The margin is the negated lowest entropy, so that it too holds below its bound."""

    def rows_of(d: int, trial: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        psi = _random_unit_rows(rng, trial.size, d)
        return psi, _admissible_rows(rng, psi)

    dims = _random_dims(rng, trials)
    parts = _slot_parts(dims, _slot_rows(dims, rows_of))
    entropy = _first_slot_entropies(_horizontal(*_product_tangents(parts)), parts)
    lowest, floor = float(entropy.min()), 1e-8
    hits = np.count_nonzero(~(entropy > floor))  # the trials that fail, a NaN entropy too
    message = lambda: f"{hits}/{trials} random tangents fell below entropy 1e-8 (min {lowest:.3g})"
    return CheckResult(-lowest, -floor, f"min entropy {lowest:.3g} over {trials} trials", message)


def _check_gauge_invariance(rng: np.random.Generator, trials: int) -> CheckResult:
    dims = _random_dims(rng, trials)
    ts = rng.uniform(0.0, 1.0, trials)
    picked = rng.integers(np.count_nonzero(dims, axis=1))
    phi = rng.normal(size=(trials, 2))

    def rows_of(d: int, trial: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, ...]:
        curve = _random_curves(rng, d, trial.size)
        # a slot not picked carries phase e^(i*0): unchanged to the bit
        phase = np.where((picked[trial] == slot)[:, None], phi[trial], 0.0)
        modulated = with_global_phase(curve, phase)
        return (
            *_curve_rows(modulated, ts[trial], "analytic", DEFAULT_STEP),
            *_curve_rows(curve, ts[trial], "analytic", DEFAULT_STEP),
        )

    # each slot holds the modulated curve's rows, then the unmodulated one's
    parts = _slot_parts(dims, _slot_rows(dims, rows_of), states=(0, 2))
    horizontal = [
        _horizontal(*_product_tangents([part[pair] for part in parts]))
        for pair in (slice(0, 2), slice(2, 4))
    ]
    after, before = np.split(_first_slot_entropies(np.concatenate(horizontal), parts), 2)
    worst = float(abs(after - before).max())
    detail = f"max entropy shift {worst:.2e} over {trials} trials"
    return CheckResult(worst, _GAP_BOUND, detail, lambda: f"entropy moved by {worst:.3e} under phase modulation")


def _median_ratio(ratios: np.ndarray, name: str) -> CheckResult:
    """The median of the halving ratios (the upper middle one; NaN if any is) must be 4 +/- 20%."""
    median = float(np.quantile(ratios, 0.5, method="higher"))
    detail = f"median halving ratio {median:.3f} over {len(ratios)} trials"
    return CheckResult(abs(median - 4.0), 0.8, detail, lambda: f"median {name} ratio {median:.3f} outside 4 +/- 20%")


def _check_fs_consistency(rng: np.random.Generator, trials: int) -> CheckResult:
    """err(h)/err(h/2) for |fs_distance/h - fs_speed| on constant-speed
    trajectories of speed above 0.2, drawn in batches until ``trials`` pass."""
    steps = (_HALVING_STEP, _HALVING_STEP / 2)

    def batch(dims: np.ndarray, ts: np.ndarray) -> np.ndarray:
        def rows_of(d: int, trial: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, ...]:
            curve = _random_curves(rng, d, trial.size, constant_speed=True)
            now = _curve_rows(curve, ts[trial], "analytic", DEFAULT_STEP)
            return (*now, *(curve.states(ts[trial] + step) for step in steps))

        # each slot holds its states and directions at t, then its states at t + step
        parts = _slot_parts(dims, _slot_rows(dims, rows_of), states=(0, 2, 3))
        base, tangent = _product_tangents([part[:2] for part in parts])
        speed = _fs_speeds(base, tangent)
        errors = []
        for step, later in zip(steps, zip(*(part[2:] for part in parts))):
            errors.append(abs(_fs_distances(base, reduce(_kron_rows, later)) / step - speed))
        return np.column_stack([speed, *errors])

    ratios = np.empty(0)
    while ratios.size < trials:
        m = 2 * (trials - ratios.size)
        rows = batch(_random_dims(rng, m), rng.uniform(0.0, 1.0, m))
        kept = rows[~(rows[:, 0] <= 0.2)]  # a NaN speed stays, so that its NaN ratio fails
        ratios = np.concatenate([ratios, kept[:, 1] / kept[:, 2]])
    return _median_ratio(ratios[:trials], "halving")


def _check_fd_order(rng: np.random.Generator, trials: int) -> CheckResult:
    """err(h)/err(h/2) of the central difference against the analytic tangent."""
    # the exact tangent, then the central difference at h and at h/2
    steps = (
        ("analytic", _HALVING_STEP),
        ("central_fd", _HALVING_STEP),
        ("central_fd", _HALVING_STEP / 2),
    )

    def rows_of(d: int, trial: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, ...]:
        curve = _random_curves(rng, d, trial.size)
        ts = rng.uniform(0.0, 1.0, trial.size)
        return tuple(_curve_rows(curve, ts, method, step)[1] for method, step in steps)

    exact, *approx = _slot_rows(rng.integers(2, 4, size=(trials, 1)), rows_of)
    errors = [np.linalg.norm(rows - exact, axis=-1)[:, 0] for rows in approx]
    return _median_ratio(errors[0] / errors[1], "central-difference")


def _check_composition(rng: np.random.Generator, trials: int) -> CheckResult:
    def rows_of(d: int, trial: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray]:
        return (_random_hermitians(rng, (trial.size,), d),)

    # a zero-padded generator propagates as a block identity on the padding
    gens = _slot_rows(rng.integers(2, 5, size=(trials, 1)), rows_of)[0][:, 0]
    exact = propagator(gens, 1.0)
    dists = [
        np.linalg.norm(infinitesimal_composition(gens, 1.0, n) - exact, ord=2, axis=(-2, -1))
        for n in (64, 128)
    ]
    ratios = dists[0] / dists[1]
    off, bound = abs(ratios - 2.0), 0.3
    bad = ratios[~(off < bound)]  # the trials that fail, a NaN ratio too
    message = lambda: f"{bad.size}/{trials} doubling ratios outside 2 +/- 15% (e.g. {bad[0]:.3f})"
    detail = f"doubling ratios within 2 +/- 15% over {trials} trials"
    return CheckResult(float(np.max(off)), bound, detail, message)


def _check_witness_false_positives(rng: np.random.Generator, trials: int) -> CheckResult:
    pair = rng.integers(2, 4, size=(trials, 2))
    w = rng.uniform(0.2, 0.8, trials)[:, None, None]
    # slots 0 and 1 are the first component's factors, 2 and 3 the second's
    dims = np.hstack([pair, pair])
    parts = _slot_parts(dims, _curve_slot_rows(rng, dims, rng.uniform(0.0, 1.0, trials)))
    components = [
        (w, *_factor_differentials(parts[:2])),
        (1.0 - w, *_factor_differentials(parts[2:])),
    ]
    drho = _product_form(components)
    _check_hermitian(drho)
    tr1, tr2, verdict = _trace_witness(drho, (int(dims.max()),) * 2, 1e-6, "analytic")
    worst = float(np.maximum(tr1, tr2).max())
    message = lambda: f"partial-trace norm {worst:.3e} >= {_GAP_BOUND:g} on product form"
    detail = f"max partial-trace norm {worst:.2e} over {trials} trials"
    flagged = "witness flagged an honest product-differential form" if (verdict != VERDICT_INCONCLUSIVE).any() else None
    return CheckResult(worst, _GAP_BOUND, detail, message, flagged)


# (name, check, most trials it runs; None: all requested).  A row that names
# several checks runs them over one draw and returns one result per name.
_CHECKS: tuple[tuple[str | tuple[str, ...], Callable[..., CheckResult | tuple[CheckResult, ...]], int | None], ...] = (
    (("channel-identity", "bilocal-reality"), _check_channel_and_bilocal, None),
    ("tangent-genericity", _check_genericity, None),
    ("gauge-invariance", _check_gauge_invariance, None),
    ("fs-consistency", _check_fs_consistency, 60),
    ("fd-order", _check_fd_order, 60),
    ("composition-convergence", _check_composition, 60),
    ("witness-no-false-positive", _check_witness_false_positives, None),
)
VERIFY_FORMATS = ("text", "json")
MAX_TRIALS = 10**5  # a run at the cap peaks at about 0.55 GB


def verify(trials: int = 1000, seed: int = 0, stream=None, out_format: str = "text") -> int:
    """Run every randomized property check; 0 when all hold, 3 otherwise.

    ``trials`` must lie in 1..``MAX_TRIALS``: over no trials every check
    would hold vacuously.  With ``out_format`` "text" each check that holds
    prints one ``ok`` line; with "json" one JSON object gives each check's
    status, trials, margin, bound and seconds; checks that share a draw
    each report the seconds of the one call that ran them all.  Each
    failing check prints ``FAIL`` to stderr in both.
    """
    for prefix, value in (("trials", trials), ("seed:", seed)):
        try:
            _integer(value)
        except TypeError:
            raise ValueError(f"{prefix} must be an integer, got {value!r}") from None
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials!r}")
    if seed < 0:
        raise ValueError(f"seed: must be non-negative, got {seed!r}")
    if out_format not in VERIFY_FORMATS:
        raise ValueError(f"out_format must be one of {VERIFY_FORMATS}, got {out_format!r}")
    stream = stream if stream is not None else sys.stdout
    rng = np.random.default_rng(seed)
    status, report = 0, {}
    for names, check, cap in _CHECKS:
        names = (names,) if isinstance(names, str) else names
        n = trials if cap is None else min(trials, cap)
        start = time.perf_counter()
        try:
            results = check(rng, n)
            results = (results,) if isinstance(results, CheckResult) else results
            failures = [result.failure for result in results]
        except ValueError as exc:
            results, failures = (None,) * len(names), [str(exc)] * len(names)
        seconds = time.perf_counter() - start
        for name, result, failure in zip(names, results, failures, strict=True):
            entry = {
                "status": "fail" if failure else "ok",
                "trials": n,
                "margin": result.margin if result is not None and math.isfinite(result.margin) else None,
                "bound": None if result is None else result.bound,
                "seconds": seconds,
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


def _output_failed(exc: OSError) -> int:
    """Report an output failure on stderr; exit code 4.

    After a broken pipe, stdout still holds text it could not write, and the
    interpreter's flush at exit would fail on it again with a traceback, so
    stdout is pointed at the null device first.
    """
    print(f"error: {exc}", file=sys.stderr)
    if isinstance(exc, BrokenPipeError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 4


def _exit_code(command: Callable[[], int]) -> int:
    """The exit code of ``command()``: its own, or 3 for a tolerance breach, 2
    for other invalid input and 4 for an output failure, each reported in
    one line on stderr."""
    try:
        status = command()
        sys.stdout.flush()
    except ToleranceBreachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        return _output_failed(exc)
    return status


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "verify":
        parser = argparse.ArgumentParser(prog="qtangle verify")
        parser.add_argument("--trials", type=int, default=1000)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--format", choices=VERIFY_FORMATS, default="text", dest="out_format")
        args = parser.parse_args(argv[1:])
        return _exit_code(lambda: verify(trials=args.trials, seed=args.seed, out_format=args.out_format))

    parser = argparse.ArgumentParser(
        prog="qtangle",
        description="Entanglement of tangent vectors along product-state trajectories.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    note = "scenario shorthand with defaults (product_trace has none: run it by --config)"
    parser.add_argument("--scenario", choices=[s for s in SCENARIOS if s != "product_trace"], help=note)
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument("--format", choices=_FORMATS, dest="out_format")
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

    def scenario() -> int:
        config = parse_config(text, overrides)
        emit(run(config), config.out_format, config.out_path)
        return 0

    return _exit_code(scenario)


if __name__ == "__main__":
    sys.exit(main())
