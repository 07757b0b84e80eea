"""Projective-space geometry of state curves.

Distance between rays is the chordal form 2*sqrt(1 - |<a|b>|^2); the matching
speed of a moving state is twice the norm of its horizontal tangent
d - <psi|d> psi, which drops the gauge component so that pure phase motion
has speed zero.  Short-step consistency between the two is an invariant the
test suite checks.

A product base a_1 x ... x a_n moving with factor velocities d_i has a
horizontal tangent that is a sum of mutually orthogonal one-factor
excitations.  Across a cut L|R its Schmidt weights are therefore S_L/S and
S_R/S, where S_i = ||d_i - <a_i|d_i> a_i||^2 is factor i's squared
perpendicular speed and S_L, S_R, S sum it over the left side, the right side
and all factors: the tangent entropy is the binary entropy of S_L/S, the
base entropy is 0, and the speed is 2*sqrt(S).  ``profile`` takes all three
from the per-factor rows, or for a product-initial register program under
"analytic" from each step's site variances, and assembles the dense (G, D)
tangent rows only when a caller reads them.  It keeps the Schmidt
decomposition of the dense rows, built at once, for a register program
whose initial state is entangled and for a cut that splits a multi-site
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .statespace import (
    BASE_NORM_TOL,
    _ZERO_TOL,
    Cut,
    Ket,
    _check_amplitudes,
    _check_product_amplitudes,
    _normalized,
    _overlaps,
    _raise_first,
    _row_norms,
    _split,
)
from .trajectories import (
    DEFAULT_STEP,
    ProductTrajectory,
    RegisterProgram,
    TangentVector,
    _check_tangents,
    _factor_rows,
    _horizontal,
    _product_tangents,
    _register_rows,
    _register_site_rows,
    _register_step_speeds,
    _squared_perp_speeds,
    _unstacked,
    product_tangent,  # noqa: F401  (bench/tests/test_bench.py expects the tracer to reach it here)
)
from .entanglement import _entropy_bits

# cut sets (with their factor sizes) whose masks ``_cut_masks`` keeps
_CUT_MASKS_KEPT = 64


def fs_distance(a: Ket, b: Ket) -> float:
    """Chordal projective distance between two unit rays; 2 when orthogonal.

    Evaluated as twice the norm of b's component orthogonal to a, which
    equals 2*sqrt(1 - |<a|b>|^2) for unit vectors but keeps full precision
    when the rays are close, where the subtraction under the square root
    would cancel catastrophically.
    """
    if a.total_dim != b.total_dim:
        raise ValueError(f"total dimensions differ: {a.total_dim} vs {b.total_dim}")
    return float(_fs_distances(a.amplitudes, b.amplitudes))


def _fs_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``fs_distance`` between each pair of rows of two stacks of unit amplitudes."""
    for name, amps in (("a", a), ("b", b)):
        _check_amplitudes(amps, BASE_NORM_TOL, name)
    return 2 * np.linalg.norm(b - _overlaps(a, b)[..., None] * a, axis=-1)


def fs_speed(tv: TangentVector) -> float:
    """Projective speed of a tangent: gauge-invariant norm of the motion."""
    return float(_fs_speeds(tv.base.amplitudes, tv.direction))


def _fs_speeds(base: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """``fs_speed`` of each row."""
    return 2 * np.linalg.norm(_horizontal(base, directions), axis=-1)


@dataclass(frozen=True, eq=False)
class GeodesicSample:
    """Profile row: speed plus per-cut entropies of tangent and base state.

    ``tangent`` is the raw tangent at ``t`` that the speed and entropies
    were computed from, built on access from the profile's rows; the tangent
    entropies use its horizontal part.
    """

    t: float
    fs_speed: float
    tangent_entropy: dict[Cut, float]
    base_entropy: dict[Cut, float]
    _profile: "TrajectoryProfile" = field(repr=False)
    _row: int = field(repr=False)

    @property
    def tangent(self) -> TangentVector:
        prof, i = self._profile, self._row
        return TangentVector(Ket(prof.states[i], prof.dims), prof.directions[i])


@dataclass(frozen=True, eq=False)
class TrajectoryProfile:
    """A sweep over a grid, one entry per grid point in each array.

    ``states`` and ``directions`` are the raw tangents, (G, D), assembled on
    first access unless the profile needed them itself; the tangent
    entropies use their horizontal parts.  ``factors`` holds the (states,
    directions) rows of each factor (register site) they are the product of,
    built on first access; None for a program whose initial state is
    entangled.  ``entropy_path`` names how each cut's entropies were
    computed: "speed_share" or "svd".
    """

    grid: np.ndarray
    fs_speed: np.ndarray
    tangent_entropy: dict[Cut, np.ndarray]
    base_entropy: dict[Cut, np.ndarray]
    dims: tuple[int, ...]
    arc_length: float
    cuts: tuple[Cut, ...]
    entropy_path: dict[Cut, str]
    _assemble: Callable[[], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    _factors: Callable[[], tuple[tuple[np.ndarray, np.ndarray], ...] | None] = field(repr=False)

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        rows = self._assemble()
        for arr in rows:
            arr.setflags(write=False)
        return rows

    @cached_property
    def factors(self) -> tuple[tuple[np.ndarray, np.ndarray], ...] | None:
        factors = self._factors()
        for arr in (arr for rows in factors or () for arr in rows):
            arr.setflags(write=False)
        return factors

    @cached_property
    def states(self) -> np.ndarray:
        return self._rows[0]

    @cached_property
    def directions(self) -> np.ndarray:
        return self._rows[1]

    @cached_property
    def samples(self) -> tuple[GeodesicSample, ...]:
        """The profile as one row object per grid point."""
        return tuple(
            GeodesicSample(
                float(t),
                float(self.fs_speed[i]),
                {c: float(self.tangent_entropy[c][i]) for c in self.cuts},
                {c: float(self.base_entropy[c][i]) for c in self.cuts},
                self,
                i,
            )
            for i, t in enumerate(self.grid)
        )


def _factor_tangents(traj, grid: np.ndarray, method: str, h: float) -> list[tuple] | None:
    """Stacks (factors, states, directions) of the factor rows over the grid,
    (S, G, d) each, checked as tangents: one per group of a product
    trajectory's factors (``_factor_rows``), or per site dim of a program's
    register sites (``_register_site_rows``); None for a program whose
    initial state is entangled."""
    if isinstance(traj, RegisterProgram):
        return None if traj._site_orbits is None else _register_site_rows(traj, grid, method, h)
    return _factor_rows(traj, grid, method, h)


def _dense_rows(traj, grid: np.ndarray, method: str, h: float, stacks) -> tuple[np.ndarray, np.ndarray]:
    """Raw tangents over the grid, (G, D), checked: the product rule over a
    product trajectory's factor rows (``_factor_rows`` stacks), or over each
    grid point's program step's sites, every point in one pass."""
    if not isinstance(traj, RegisterProgram):
        return _product_tangents(_unstacked(stacks))
    states, directions = _register_rows(traj, *traj.resolve_time(grid), method, h)
    _check_tangents(states, directions)
    return states, directions


def _squared_speeds(stacks: list[tuple], n: int) -> np.ndarray:
    """||d - <a|d> a||^2 of each of the n factors (states a, directions d),
    one norm per stack, as a C-contiguous (G, n) array."""
    speeds = np.empty((n, stacks[0][1].shape[1]))
    for sites, a, d in stacks:
        speeds[sites] = _squared_perp_speeds(a, d)
    return np.ascontiguousarray(speeds.T)


@lru_cache(maxsize=_CUT_MASKS_KEPT)
def _cut_masks(cuts: tuple[Cut, ...], sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Whether each cut splits no factor, a run of ``sizes[i]`` consecutive
    positions, its positions all left or none; and the side mask
    (``_share_sides``) of the cuts that split no factor.  Each cut is first
    checked to partition the ``sum(sizes)`` positions (``Cut.validate_for``),
    so a cut set is validated once per sizes, and one that fails is not
    kept.  Both masks are read-only, built once per cut set and sizes."""
    positions = range(sum(sizes))
    for cut in cuts:
        cut.validate_for(positions)
    rows = np.array([cut._left_row for cut in cuts])
    starts = list(accumulate(sizes, initial=0))[:-1]
    left = np.logical_and.reduceat(rows, starts, axis=1)
    aligned = np.all(left == np.logical_or.reduceat(rows, starts, axis=1), axis=1)
    masks = (aligned, _share_sides(left[aligned]))
    for arr in masks:
        arr.setflags(write=False)
    return masks


def _share_sides(left: np.ndarray) -> np.ndarray:
    """Whether each factor lies on each side of each cut (row of ``left``),
    right then left, (factors, cuts * 2)."""
    return (left.T[:, :, None] != np.array([False, True])).reshape(len(left.T), -1)


def _speed_share_bits(speeds: np.ndarray, sides: np.ndarray, moving: np.ndarray) -> np.ndarray:
    """Binary entropy of the left side's share of the squared speed in each
    row, for each cut of the side mask ``sides`` (``_share_sides``), (G, cuts);
    zero where nothing moves.  It is taken from the smaller share p, as
    -(p log2 p + (1-p) log1p(-p) / ln 2): the larger share, 1 - p in float,
    would lose the digits p carries."""
    # one weighted sum adds each side's speeds one factor after another, in order,
    # as speeds[:, side].sum(axis=-1) adds its gathered columns; 0/1 weights are exact
    sums = np.einsum("gf,fs->gs", speeds, sides).reshape(len(speeds), -1, 2)  # (G, cuts, 2)
    total = np.add.reduce(sums, axis=-1)
    p = np.divide(np.minimum.reduce(sums, axis=-1), total, out=np.zeros(total.shape), where=moving[:, None])
    shared = p > 0
    logs = np.log2(p, out=np.zeros(p.shape), where=shared)
    bits = -(p * logs + (1 - p) * np.log1p(-p) / math.log(2))
    return np.where(shared, bits, 0.0)  # +0.0, not -0.0, where a side is still


def _increments(grid: np.ndarray) -> np.ndarray:
    """``np.diff(grid)``: each point less the one before, by the subtraction
    ``np.diff`` runs, without its wrapper."""
    return np.subtract(grid[1:], grid[:-1])


def _trapezoid(values: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    """``np.trapezoid(values, grid)`` from the grid's ``_increments``, by the
    float steps it runs, without its wrapper."""
    return np.add.reduce(spacing * (values[1:] + values[:-1]) / 2.0, axis=-1)


def _entropies_or_zero(
    rows: np.ndarray, dims: tuple[int, ...], cuts: Sequence[Cut], norms=None
) -> list[np.ndarray]:
    """Entropy of each normalized row across each cut; zero motion carries zero entropy."""
    unit = _normalized(rows, None, norms=norms)
    return [_entropy_bits(_split(unit, dims, cut, 1)) for cut in cuts]


def profile(
    traj: ProductTrajectory | RegisterProgram,
    grid: Sequence[float],
    cuts: Sequence[Cut],
    method: str = "auto",
    h: float = DEFAULT_STEP,
) -> TrajectoryProfile:
    """Sweep a trajectory over a parameter grid.

    Per grid point: projective speed, entanglement entropy of the horizontal
    normalized tangent across each cut, entropy of the base state itself,
    and the raw tangent, assembled when first read.  The whole grid is
    computed at once.

    Under "analytic" a register program whose initial state is a product is
    evaluated once per step: within a step its speed and every cut's
    entropy are constant (``_register_step_speeds``), so they are taken once
    per step and spread over the step's grid points, and no per-point row is
    built.  Its speed is then a step function, and the arc length is exact,
    the sum over the steps of each step's speed times its length within the
    grid.  Otherwise the arc length is the trapezoidal integral of the speed
    over the grid.

    What does not depend on the grid is built once and kept read-only: a
    program's squared site speeds and verdicts per step
    (``RegisterProgram._step_table``), and each cut set's
    masks (``_cut_masks``) with its validation, run before the trajectory is
    evaluated.  The other checks, and every entropy, are computed on every call.
    """
    grid = np.array(grid, dtype=float).reshape(-1)
    if grid.size < 2:
        raise ValueError("grid needs at least 2 points")
    spacing = _increments(grid)
    if not np.logical_and.reduce(spacing > 0, axis=None):
        raise ValueError("grid must be strictly increasing")
    if not (math.isfinite(grid[0]) and math.isfinite(grid[-1])):  # increasing: its ends bound it
        raise ValueError(f"grid must be finite, got points from {float(grid[0])!r} to {float(grid[-1])!r}")
    cuts = tuple(cuts)
    if not cuts:
        raise ValueError("need at least one cut")
    if isinstance(traj, RegisterProgram):
        dims, sizes = traj.initial.dims, (1,) * traj.n_sites
    else:
        dims, sizes = traj.dims, traj._sizes
    aligned, sides = _cut_masks(cuts, sizes)

    steps = _register_step_speeds(traj, grid, method) if isinstance(traj, RegisterProgram) else None
    if steps is not None:
        # one row of squared site speeds per step; `at` is each grid point's row
        stacks, (factor_speeds, at, lengths) = None, steps
        factors = lambda: _unstacked(_factor_tangents(traj, grid, method, h))
    else:
        stacks, at = _factor_tangents(traj, grid, method, h), slice(None)
        factor_speeds = None if stacks is None else _squared_speeds(stacks, len(sizes))
        factors = lambda: None if stacks is None else _unstacked(stacks)
    aligned = aligned & (factor_speeds is not None)  # a new array: the kept masks are read-only
    dense = [cut for cut, whole in zip(cuts, aligned) if not whole]
    assemble = lambda: _dense_rows(traj, grid, method, h, stacks)
    dense_tangent, dense_base = {}, {}
    if dense:
        states, directions = assemble()
        assemble = lambda: (states, directions)
        horizontal = _horizontal(states, directions)
        norms = _row_norms(horizontal)
        dense_tangent = dict(zip(dense, _entropies_or_zero(horizontal, dims, dense, norms)))
        dense_base = dict(zip(dense, _entropies_or_zero(states, dims, dense)))
    else:
        if stacks is not None:
            # the dense rows' base check, on their norm: the product of the factors'
            # norms in factor order, from one zero-padded array (zeros add nothing to a norm)
            bases = np.zeros((len(sizes), grid.size, max(a.shape[-1] for _, a, _ in stacks)), dtype=complex)
            for sites, a, _ in stacks:
                bases[sites, :, : a.shape[-1]] = a
            _check_product_amplitudes(bases, BASE_NORM_TOL, "base")
        # the one-factor excitations are mutually orthogonal, so their squared speeds add
        norms = np.sqrt(np.add.reduce(factor_speeds, axis=-1))
    speeds = 2 * norms[at]
    _raise_first(~np.isfinite(speeds), lambda i: "fs_speed overflows double precision")
    # the zero-motion rule of _entropies_or_zero: below the zero floor nothing moves
    moving = ~np.less(norms, _ZERO_TOL)
    # every whole cut's tangent entropies, one row each of one (cuts, G) array
    shared = np.empty((0, grid.size))
    if factor_speeds is not None:
        shared = _speed_share_bits(factor_speeds, sides, moving).T[:, at]
    zero = np.zeros(grid.size)  # every whole cut's base entropy, one row
    for arr in (grid, speeds, shared, zero, *dense_tangent.values(), *dense_base.values()):
        arr.setflags(write=False)  # the rows of a read-only array are read-only
    rows = iter(shared)
    tangent = {cut: next(rows) if whole else dense_tangent[cut] for cut, whole in zip(cuts, aligned)}
    base = {cut: zero if whole else dense_base[cut] for cut, whole in zip(cuts, aligned)}
    return TrajectoryProfile(
        grid,
        speeds,
        tangent,
        base,
        dims,
        float(_trapezoid(speeds, spacing) if steps is None else 2 * norms @ lengths),
        cuts,
        {cut: "speed_share" if whole else "svd" for cut, whole in zip(cuts, aligned)},
        assemble,
        factors,
    )
