"""Projective-space geometry of state curves.

Distance between rays is the chordal form 2*sqrt(1 - |<a|b>|^2); the matching
speed of a moving state is 2*sqrt(<d|d> - |<psi|d>|^2), which subtracts the
gauge component so that pure phase motion has speed zero.  Short-step
consistency between the two is an invariant the test suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .statespace import Cut, Ket, inner
from .trajectories import (
    DEFAULT_STEP,
    ProductTrajectory,
    RegisterProgram,
    TangentVector,
    horizontal_tangent,
    product_tangent,
    register_tangent,
)
from .entanglement import entanglement_entropy

_ZERO_DIRECTION = 1e-12


def fs_distance(a: Ket, b: Ket) -> float:
    """Chordal projective distance between two unit rays; 2 when orthogonal.

    Evaluated as twice the norm of b's component orthogonal to a, which
    equals 2*sqrt(1 - |<a|b>|^2) for unit vectors but keeps full precision
    when the rays are close, where the subtraction under the square root
    would cancel catastrophically.
    """
    for name, ket in (("a", a), ("b", b)):
        if abs(ket.norm() - 1) >= 1e-10:
            raise ValidationError(f"{name} must be unit norm, got {ket.norm()!r}")
    residual = b.amplitudes - inner(a, b) * a.amplitudes
    return 2 * float(np.linalg.norm(residual))


def fs_speed(tv: TangentVector) -> float:
    """Projective speed of a tangent: gauge-invariant norm of the motion."""
    sq = np.vdot(tv.direction, tv.direction).real - abs(tv.base_overlap()) ** 2
    return 2 * math.sqrt(max(0.0, sq))


@dataclass(frozen=True, eq=False)
class GeodesicSample:
    """Profile row: speed plus per-cut entropies of tangent and base state.

    ``tangent`` is the raw tangent at ``t`` that the speed and entropies
    were computed from; the tangent entropies use its horizontal part.
    """

    t: float
    fs_speed: float
    tangent_entropy: dict[Cut, float]
    base_entropy: dict[Cut, float]
    tangent: TangentVector


@dataclass(frozen=True, eq=False)
class TrajectoryProfile:
    samples: tuple[GeodesicSample, ...]
    arc_length: float
    cuts: tuple[Cut, ...]


def _tangent_at(traj, t: float, method: str, h: float) -> TangentVector:
    if isinstance(traj, RegisterProgram):
        k, local = traj.resolve_time(t)
        return register_tangent(traj, k, local, method, h)
    return product_tangent(traj, t, method, h)


def _entropy_or_zero(direction: np.ndarray, dims: tuple[int, ...], cut: Cut) -> float:
    """Entropy of the normalized direction; zero motion carries zero entropy."""
    norm = np.linalg.norm(direction)
    if norm < _ZERO_DIRECTION:
        return 0.0
    return entanglement_entropy(Ket(direction / norm, dims, unit=True), cut)


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
    speed over the grid.
    """
    grid = [float(t) for t in grid]
    if len(grid) < 2:
        raise ValueError("grid needs at least 2 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    cuts = tuple(cuts)
    if not cuts:
        raise ValueError("need at least one cut")
    dims = traj.initial.dims if isinstance(traj, RegisterProgram) else traj.dims
    for cut in cuts:
        cut.validate_for(dims)

    samples = []
    speeds = []
    for t in grid:
        tv = _tangent_at(traj, t, method, h)
        horizontal = horizontal_tangent(tv).direction
        speed = fs_speed(tv)
        tangent_entropy = {c: _entropy_or_zero(horizontal, dims, c) for c in cuts}
        base_entropy = {c: entanglement_entropy(tv.base, c) for c in cuts}
        samples.append(GeodesicSample(t, speed, tangent_entropy, base_entropy, tv))
        speeds.append(speed)
    arc = float(np.trapezoid(speeds, grid))
    return TrajectoryProfile(tuple(samples), arc, cuts)
