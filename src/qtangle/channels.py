"""Reduced dynamics seen by one side of a moving two-particle product state.

Tracing the other side out of the tangent's rank-one operator leaves three
pieces: the moving side's own differential, an interference piece scaled by
the other side's (purely imaginary) base overlap, and a noise piece scaled by
the other side's squared speed.  The report carries all three along with the
Frobenius gap between the literal partial trace and their sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statespace import (
    Cut,
    HermitianOp,
    _check_hermitian,
    _check_norm_preserving,
    _outer,
    _overlaps,
    _partial_trace,
)
from .trajectories import (
    DEFAULT_STEP,
    ProductTrajectory,
    _factor_rows,
    _kron_rows,
    _product_rule,
    resolve_method,
)


@dataclass(frozen=True, eq=False)
class ChannelReport:
    """Decomposition of the reduced tangent operator on one subsystem."""

    lhs: HermitianOp
    differential_term: HermitianOp
    interference_term: HermitianOp
    noise_term: HermitianOp
    gap: float


@dataclass(frozen=True, eq=False)
class BilocalCheck:
    """Base overlaps of both factors and the reality defect of their product.

    Norm preservation forces each overlap onto the imaginary axis, so the
    product of the two is real: a doubly-differential term would need it to
    play the role of a first-order change on each side separately, which the
    recorded overlaps rule out.
    """

    factor_overlaps: tuple[complex, complex]
    product: complex
    reality_gap: float


def _bipartite_rows(
    traj: ProductTrajectory, ts: np.ndarray, method: str, h: float
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[np.ndarray]]:
    """Both factors' (states, directions) over the grid and their overlaps
    <psi|dpsi>, norm preservation checked."""
    if traj.n_factors != 2:
        raise ValueError(f"need a two-factor trajectory, got {traj.n_factors} factors")
    method = resolve_method(traj.factors, method)
    parts, overlaps = _factor_rows(traj, ts, method, h), []
    for pos, (base, deriv) in enumerate(parts):
        overlaps.append(_check_norm_preserving(base, deriv, method, f"factor {pos + 1}"))
    return parts, overlaps


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    return (mat + np.swapaxes(mat, -2, -1).conj()) / 2


def reduced_tangent_channel(
    traj: ProductTrajectory,
    t: float,
    subsystem: int = 1,
    method: str = "auto",
    h: float = DEFAULT_STEP,
) -> ChannelReport:
    """Trace the other factor out of the tangent operator and decompose it.

    ``subsystem`` is 1-based.  The gap compares the literal partial trace
    with the three-term closed form; for analytically differentiated input
    the two agree to rounding.
    """
    if subsystem not in (1, 2):
        raise ValueError(f"subsystem must be 1 or 2, got {subsystem}")
    parts = _bipartite_rows(traj, np.array([float(t)]), method, h)[0]
    full = _product_rule(*parts[0], parts[1:], _kron_rows)[1]
    *terms, gap = _channel_rows(parts, full, (subsystem,))[0]
    dims = traj.factors[subsystem - 1].dims
    return ChannelReport(*(HermitianOp(term[0], dims) for term in terms), float(gap[0]))


def _channel_rows(
    parts: list[tuple[np.ndarray, np.ndarray]], full: np.ndarray, subsystems: tuple[int, ...]
) -> list[tuple[np.ndarray, ...]]:
    """Reduced channel of each requested subsystem over the stack.

    ``full`` holds the tangents of the product, (G, D).  Every subsystem's
    partial trace comes from the same full tangent operator, checked
    Hermitian.  Per subsystem: (lhs, differential, interference, noise, gap),
    each with one row per grid point; lhs and the terms are left unchecked.
    """
    big = _outer(full, full)
    _check_hermitian(big)
    dims = tuple(base.shape[-1] for base, _ in parts)
    out = []
    for subsystem in subsystems:
        (psi, dpsi), (other, dother) = parts[subsystem - 1], parts[2 - subsystem]
        other_overlap = _overlaps(other, dother)[:, None, None]
        other_speed_sq = _overlaps(dother, dother).real[:, None, None]

        differential = _outer(dpsi, dpsi)
        interference = (_outer(psi, dpsi) - _outer(dpsi, psi)) * other_overlap
        noise = _outer(psi, psi) * other_speed_sq

        lhs = _partial_trace(big, dims, Cut.splitting([subsystem - 1], 2), "left")
        gap = np.linalg.norm(lhs - (differential + interference + noise), axis=(-2, -1))
        terms = [_hermitian_part(m) for m in (differential, interference, noise)]
        out.append((lhs, *terms, gap))
    return out


def bilocal_inner_check(
    traj: ProductTrajectory, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> BilocalCheck:
    """Record both base overlaps and how real their product is.

    A putative tangent that differentiated both factors at once would carry
    the product of the two overlaps where a single purely imaginary overlap
    belongs; the product of two imaginary numbers is real, which is the
    obstruction this check quantifies.
    """
    overlaps = _bipartite_rows(traj, np.array([float(t)]), method, h)[1]
    c1, c2 = (complex(overlap[0]) for overlap in overlaps)
    return BilocalCheck((c1, c2), c1 * c2, float(_reality_gaps(c1, c2)))


def _reality_gaps(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """|Im(c1 c2)| of each pair of factor overlaps."""
    return np.abs((c1 * c2).imag)
