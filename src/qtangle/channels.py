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

from .errors import ValidationError
from .statespace import Cut, HermitianOp, Ket, partial_trace
from .trajectories import (
    DEFAULT_STEP,
    ProductTrajectory,
    TangentVector,
    _product_rule,
    factor_tangents,
    resolve_method,
)

_RE_OVERLAP_TOL = {"analytic": 1e-12, "central_fd": 1e-8, "richardson": 1e-8}


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


def _bipartite_parts(
    traj: ProductTrajectory, t: float, method: str, h: float
) -> list[TangentVector]:
    if traj.n_factors != 2:
        raise ValueError(f"need a two-factor trajectory, got {traj.n_factors} factors")
    parts = factor_tangents(traj, t, method, h)
    tol = _RE_OVERLAP_TOL[resolve_method(traj.factors, method)]
    for pos, part in enumerate(parts):
        re = abs(part.base_overlap().real)
        if re >= tol:
            raise ValidationError(
                f"factor {pos + 1} does not preserve norm at t={t!r}: "
                f"|Re<psi|dpsi>| = {re:.3e}"
            )
    return parts


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2


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
    return _channel_from_parts(_bipartite_parts(traj, t, method, h), subsystem)


def _channel_from_parts(parts: list[TangentVector], subsystem: int) -> ChannelReport:
    mine, other = (parts[0], parts[1]) if subsystem == 1 else (parts[1], parts[0])

    psi, dpsi = mine.base.amplitudes, mine.direction
    other_overlap = other.base_overlap()
    other_speed_sq = np.vdot(other.direction, other.direction).real

    differential = np.outer(dpsi, dpsi.conj())
    interference = (np.outer(psi, dpsi.conj()) - np.outer(dpsi, psi.conj())) * other_overlap
    noise = np.outer(psi, psi.conj()) * other_speed_sq

    first, second = ((p.base.amplitudes, p.direction) for p in parts)
    _, full = _product_rule(*first, [second], np.kron)
    big = HermitianOp(np.outer(full, full.conj()), parts[0].dims + parts[1].dims)
    cut = Cut.splitting([subsystem - 1], 2)
    lhs = partial_trace(big, cut, keep="left")

    gap = float(np.linalg.norm(lhs.matrix - (differential + interference + noise)))
    dims = mine.base.dims
    return ChannelReport(
        lhs=lhs,
        differential_term=HermitianOp(_hermitian_part(differential), dims),
        interference_term=HermitianOp(_hermitian_part(interference), dims),
        noise_term=HermitianOp(_hermitian_part(noise), dims),
        gap=gap,
    )


def bilocal_inner_check(
    traj: ProductTrajectory, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> BilocalCheck:
    """Record both base overlaps and how real their product is.

    A putative tangent that differentiated both factors at once would carry
    the product of the two overlaps where a single purely imaginary overlap
    belongs; the product of two imaginary numbers is real, which is the
    obstruction this check quantifies.
    """
    return _bilocal_from_parts(_bipartite_parts(traj, t, method, h))


def _bilocal_from_parts(parts: list[TangentVector]) -> BilocalCheck:
    c1, c2 = (p.base_overlap() for p in parts)
    product = c1 * c2
    return BilocalCheck((c1, c2), product, abs(product.imag))
