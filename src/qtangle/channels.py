"""Reduced dynamics seen by one side of a moving two-particle product state.

Tracing the other side out of the tangent's rank-one operator leaves three
pieces: the moving side's own differential, an interference piece scaled by
the other side's (purely imaginary) base overlap, and a noise piece scaled by
the other side's squared speed.  The report carries all three along with the
Frobenius gap between the literal partial trace and their sum.  That partial
trace is taken from the tangent's coefficient matrix M (T = sum M_ab |a>|b>):
M M^H on the first side and M^T M^* on the second, without forming the
rank-one operator itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statespace import HermitianOp, _check_hermitian, _check_norm_preserving, _outer, _overlaps
from .trajectories import (
    DEFAULT_STEP,
    ProductTrajectory,
    _factor_rows,
    _one_point,
    _product_tangents,
    _unstacked,
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
) -> tuple[tuple[tuple[np.ndarray, ...], ...], list[np.ndarray]]:
    """Both factors' (states, directions) over the grid and their overlaps
    <psi|dpsi>, norm preservation checked."""
    if traj.n_factors != 2:
        raise ValueError(f"need a two-factor trajectory, got {traj.n_factors} factors")
    method = resolve_method(traj.factors, method)
    parts = _unstacked(_factor_rows(traj, ts, method, h))
    return parts, _factor_overlaps(parts, method)


def _factor_overlaps(parts: list[tuple[np.ndarray, np.ndarray]], method: str) -> list[np.ndarray]:
    """<psi|dpsi> of each factor's rows, norm preservation checked to the resolved ``method``."""
    return [_check_norm_preserving(*part, method, f"factor {i}") for i, part in enumerate(parts, 1)]


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
    parts = _bipartite_rows(traj, _one_point(t), method, h)[0]
    full = _product_tangents(parts)[1]
    lhs, *terms, gap = _channel_rows(parts, full, (subsystem,))[0]
    dims = traj.factors[subsystem - 1].dims
    ops = [HermitianOp(m[0], dims) for m in (lhs, *map(_hermitian_part, terms))]
    return ChannelReport(*ops, float(gap[0]))


def _channel_rows(
    parts: list[tuple[np.ndarray, np.ndarray]], full: np.ndarray, subsystems: tuple[int, ...]
) -> list[tuple[np.ndarray, ...]]:
    """Reduced channel of each requested subsystem over the stack.

    ``full`` holds the tangents T of the product, (G, D).  Each lhs is the
    literal partial trace of |T><T|, taken from T's coefficient matrix
    M = T.reshape(G, d1, d2): M M^H keeps factor 1 and M^T M^* keeps factor
    2, so the (G, D, D) operator is never formed.  Per subsystem: (lhs,
    differential, interference, noise, gap), each with one row per grid
    point; each lhs is checked Hermitian, and the terms are as the gap reads them.
    """
    coefficients = full.reshape(len(full), *(base.shape[-1] for base, _ in parts))
    out = []
    for subsystem in subsystems:
        (psi, dpsi), (other, dother) = parts[subsystem - 1], parts[2 - subsystem]
        other_overlap = _overlaps(other, dother)[:, None, None]
        other_speed_sq = _overlaps(dother, dother).real[:, None, None]

        differential = _outer(dpsi, dpsi)
        interference = (_outer(psi, dpsi) - _outer(dpsi, psi)) * other_overlap
        noise = _outer(psi, psi) * other_speed_sq

        kept = coefficients if subsystem == 1 else np.swapaxes(coefficients, -2, -1)
        lhs = kept @ np.swapaxes(kept, -2, -1).conj()
        _check_hermitian(lhs)
        gap = np.linalg.norm(lhs - (differential + interference + noise), axis=(-2, -1))
        out.append((lhs, differential, interference, noise, gap))
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
    overlaps = _bipartite_rows(traj, _one_point(t), method, h)[1]
    c1, c2 = (complex(overlap[0]) for overlap in overlaps)
    return BilocalCheck((c1, c2), c1 * c2, float(_reality_gaps(c1, c2)))


def _reality_gaps(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """|Im(c1 c2)| of each pair of factor overlaps."""
    return np.abs((c1 * c2).imag)
