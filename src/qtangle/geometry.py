"""Projective-space geometry of state curves.

Distance between rays is the chordal form 2*sqrt(1 - |<a|b>|^2); the matching
speed of a moving state is twice the norm of its horizontal tangent
d - <psi|d> psi, which drops the gauge component so that pure phase motion
has speed zero.  Short-step consistency between the two is an invariant the
test suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .statespace import BASE_NORM_TOL, Cut, Ket, _check_amplitudes, _normalized, _overlaps
from .trajectories import (
    DEFAULT_STEP,
    ProductTrajectory,
    RegisterProgram,
    TangentVector,
    _check_tangents,
    _horizontal,
    _product_rows,
    _register_rows,
    product_tangent,  # noqa: F401  (bench/tests/test_bench.py expects the tracer to reach it here)
)
from .entanglement import _entropy_bits, _split


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
    were computed from, built on access; the tangent entropies use its
    horizontal part.
    """

    t: float
    fs_speed: float
    tangent_entropy: dict[Cut, float]
    base_entropy: dict[Cut, float]
    _rows: tuple[np.ndarray, np.ndarray, tuple[int, ...]] = field(repr=False)

    @property
    def tangent(self) -> TangentVector:
        base, direction, dims = self._rows
        return TangentVector(Ket(base, dims), direction)


@dataclass(frozen=True, eq=False)
class TrajectoryProfile:
    """A sweep over a grid, one entry per grid point in each array.

    ``states`` and ``directions`` are the raw tangents, (G, D); the tangent
    entropies use their horizontal parts.
    """

    grid: np.ndarray
    fs_speed: np.ndarray
    tangent_entropy: dict[Cut, np.ndarray]
    base_entropy: dict[Cut, np.ndarray]
    states: np.ndarray
    directions: np.ndarray
    dims: tuple[int, ...]
    arc_length: float
    cuts: tuple[Cut, ...]

    @cached_property
    def samples(self) -> tuple[GeodesicSample, ...]:
        """The profile as one row object per grid point."""
        return tuple(
            GeodesicSample(
                float(t),
                float(self.fs_speed[i]),
                {c: float(self.tangent_entropy[c][i]) for c in self.cuts},
                {c: float(self.base_entropy[c][i]) for c in self.cuts},
                (self.states[i], self.directions[i], self.dims),
            )
            for i, t in enumerate(self.grid)
        )


def _tangent_rows(traj, grid: np.ndarray, method: str, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Raw tangents over the grid, checked; a register program's points go by step."""
    if isinstance(traj, RegisterProgram):
        ks, local = traj.resolve_time(grid)
        states = np.empty((grid.size, traj.initial.total_dim), dtype=complex)
        directions = np.empty_like(states)
        for k in np.unique(ks):
            rows = ks == k
            states[rows], directions[rows] = _register_rows(traj, int(k), local[rows], method, h)
    else:
        states, directions = _product_rows(traj, grid, method, h)
    _check_tangents(states, directions)
    return states, directions


def _entropies_or_zero(
    rows: np.ndarray, dims: tuple[int, ...], cuts: Sequence[Cut], norms=None
) -> list[np.ndarray]:
    """Entropy of each normalized row across each cut; zero motion carries zero entropy."""
    unit = _normalized(rows, None, norms=norms)
    return [_entropy_bits(_split(unit, dims, cut)) for cut in cuts]


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
    and the raw tangent.  The arc length is the trapezoidal integral of the
    speed over the grid.  The whole grid is computed at once.
    """
    grid = np.array(grid, dtype=float).reshape(-1)
    if grid.size < 2:
        raise ValueError("grid needs at least 2 points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    cuts = tuple(cuts)
    if not cuts:
        raise ValueError("need at least one cut")
    dims = traj.initial.dims if isinstance(traj, RegisterProgram) else traj.dims
    for cut in cuts:
        cut.validate_for(dims)

    states, directions = _tangent_rows(traj, grid, method, h)
    horizontal = _horizontal(states, directions)
    norms = np.linalg.norm(horizontal, axis=-1)
    speeds = 2 * norms
    tangent = _entropies_or_zero(horizontal, dims, cuts, norms)
    unit_states = states / np.linalg.norm(states, axis=-1)[:, None]
    base = [_entropy_bits(_split(unit_states, dims, cut)) for cut in cuts]
    for arr in (grid, states, directions, speeds, *tangent, *base):
        arr.setflags(write=False)
    return TrajectoryProfile(
        grid,
        speeds,
        dict(zip(cuts, tangent)),
        dict(zip(cuts, base)),
        states,
        directions,
        dims,
        float(np.trapezoid(speeds, grid)),
        cuts,
    )
