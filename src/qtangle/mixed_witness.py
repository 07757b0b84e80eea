"""Witnesses separating honest mixed-state differentials from product forms.

A differential built by moving the parts of a separable mixture keeps a
non-zero partial trace on the side that moves, while any operator assembled
purely from per-side differentials is traceless on both sides.  That norm
asymmetry is the working witness here, backed by an operator-level gap and a
positivity check on the base state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ValidationError
from .statespace import Cut, HermitianOp, partial_trace
from .trajectories import DEFAULT_STEP, Ensemble, _component_differentials, _mixed_differential
from .entanglement import ppt_negativity

VERDICT_EXCLUDED = "product-differential-excluded"
VERDICT_INCONCLUSIVE = "inconclusive"

SeparabilityVerdict = Literal["separable", "entangled", "undecided"]

_BIPARTITE = Cut.splitting([0], 2)


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """Partial-trace norms of a differential and the verdict they support.

    ``operator_gap`` is filled only when the ensemble itself is available to
    compare operator forms; ``tol`` echoes the threshold the verdict used.
    """

    tr1_norm: float
    tr2_norm: float
    operator_gap: float | None
    verdict: str
    tol: float


def _trace_norms(drho: HermitianOp) -> tuple[float, float]:
    if drho.n_factors != 2:
        raise ValueError(f"need a bipartite operator, got {drho.n_factors} factors")
    tr1 = partial_trace(drho, _BIPARTITE, keep="right").fro_norm()
    tr2 = partial_trace(drho, _BIPARTITE, keep="left").fro_norm()
    return tr1, tr2


def differential_trace_witness(drho: HermitianOp, tol: float = 1e-6) -> WitnessReport:
    """Test a traceless Hermitian differential against the product form.

    Either partial-trace norm above ``tol`` excludes the doubly-differential
    product form, which is traceless on both sides.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if abs(drho.matrix.trace()) >= 1e-8:
        raise ValidationError(
            f"differential must be traceless, got trace {drho.matrix.trace():.3e}"
        )
    tr1, tr2 = _trace_norms(drho)
    verdict = VERDICT_EXCLUDED if max(tr1, tr2) > tol else VERDICT_INCONCLUSIVE
    return WitnessReport(tr1, tr2, None, verdict, tol)


def product_differential(
    ens: Ensemble, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> HermitianOp:
    """The doubly-differential product form: sum_i w_i d(rho_i^1) x d(rho_i^2)."""
    return _product_form(ens, _component_differentials(ens, t, method, h))


def _product_form(ens: Ensemble, components: list[tuple]) -> HermitianOp:
    return HermitianOp(sum(w * np.kron(drho[0], drho[1]) for w, _, drho in components), ens.dims)


def operator_form_gap(
    ens: Ensemble, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> float:
    """Frobenius distance between the honest differential of the mixture and
    the doubly-differential product form built from the same components."""
    components = _component_differentials(ens, t, method, h)
    honest, product = _mixed_differential(ens, components), _product_form(ens, components)
    return float(np.linalg.norm(honest.matrix - product.matrix))


def ensemble_witness(
    ens: Ensemble, t: float, tol: float = 1e-6, method: str = "auto", h: float = DEFAULT_STEP
) -> WitnessReport:
    """Full witness for an ensemble: trace norms plus the operator-form gap."""
    components = _component_differentials(ens, t, method, h)
    honest = _mixed_differential(ens, components)
    partial = differential_trace_witness(honest, tol)
    gap = float(np.linalg.norm(honest.matrix - _product_form(ens, components).matrix))
    return WitnessReport(partial.tr1_norm, partial.tr2_norm, gap, partial.verdict, tol)


def base_state_separability(rho: HermitianOp, cut: Cut) -> SeparabilityVerdict:
    """Positivity-after-transpose verdict on a bipartite state.

    A negative partial transpose certifies entanglement in any dimensions;
    a positive one certifies separability only for 2x2 and 2x3 sides and is
    otherwise undecided.
    """
    cut.validate_for(rho.dims)
    eigs = rho.eigenvalues()
    if eigs[0] < -1e-10:
        raise ValidationError(f"operator is not positive (min eigenvalue {eigs[0]:.3e})")
    if abs(rho.trace() - 1.0) >= 1e-10:
        raise ValidationError(f"state must have unit trace, got {rho.trace()!r}")
    if ppt_negativity(rho, cut) > 1e-10:
        return "entangled"
    d_left = math.prod(rho.dims[i] for i in cut.left)
    d_right = math.prod(rho.dims[i] for i in cut.right)
    if sorted((d_left, d_right)) in ([2, 2], [2, 3]):
        return "separable"
    return "undecided"
