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

from .statespace import (
    _DENSITY_TOL,
    Cut,
    HermitianOp,
    _bounded,
    _check_hermitian,
    _check_traceless,
    _partial_trace,
)
from .trajectories import (
    DEFAULT_STEP,
    Ensemble,
    _component_differentials,
    _kron_rows,
    _mixed_differential,
    resolve_method,
)
from .entanglement import _negativities, _partial_transposes

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


def _trace_norms(mats: np.ndarray, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Frobenius norms of both partial traces of each matrix of a stack."""
    if len(dims) != 2:
        raise ValueError(f"need a bipartite operator, got {len(dims)} factors")
    norms = []
    for keep in ("right", "left"):
        reduced = _partial_trace(mats, dims, _BIPARTITE, keep)
        _check_hermitian(reduced)
        norms.append(np.linalg.norm(reduced, axis=(-2, -1)))
    return norms[0], norms[1]


def differential_trace_witness(drho: HermitianOp, tol: float = 1e-6) -> WitnessReport:
    """Test a traceless Hermitian differential against the product form.

    Either partial-trace norm above ``tol`` excludes the doubly-differential
    product form, which is traceless on both sides.
    """
    tr1, tr2, verdict = _trace_witness(drho.matrix, drho.dims, tol, "given")
    return WitnessReport(float(tr1), float(tr2), None, str(verdict), tol)


def _trace_witness(
    mats: np.ndarray, dims: tuple[int, ...], tol: float, source: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial-trace norms and verdict of each differential of a stack; its
    trace bound is that of ``source``, "given" or the method that built it."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _check_traceless(mats, source)
    tr1, tr2 = _trace_norms(mats, dims)
    verdict = np.where(np.maximum(tr1, tr2) > tol, VERDICT_EXCLUDED, VERDICT_INCONCLUSIVE)
    return tr1, tr2, verdict


def product_differential(
    ens: Ensemble, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> HermitianOp:
    """The doubly-differential product form: sum_i w_i d(rho_i^1) x d(rho_i^2)."""
    return HermitianOp(_product_form(_component_differentials(ens, t, method, h))[0], ens.dims)


def _product_form(components: list[tuple]) -> np.ndarray:
    """The doubly-differential product form over the stack."""
    return sum(w * _kron_rows(drho[0], drho[1]) for w, _, drho in components)


def _ensemble_forms(components: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The honest differential at each grid point and its Frobenius distance
    from the product form of the same components, both checked Hermitian."""
    forms = _mixed_differential(components), _product_form(components)
    for form in forms:
        _check_hermitian(form)
    return forms[0], np.linalg.norm(forms[0] - forms[1], axis=(-2, -1))


def operator_form_gap(
    ens: Ensemble, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> float:
    """Frobenius distance between the honest differential of the mixture and
    the doubly-differential product form built from the same components."""
    return float(_ensemble_forms(_component_differentials(ens, t, method, h))[1][0])


def ensemble_witness(
    ens: Ensemble, t: float, tol: float = 1e-6, method: str = "auto", h: float = DEFAULT_STEP
) -> WitnessReport:
    """Full witness for an ensemble: trace norms plus the operator-form gap."""
    tr1, tr2, gap, verdict = _ensemble_witness_rows(ens, np.array([float(t)]), tol, method, h)
    return WitnessReport(float(tr1[0]), float(tr2[0]), float(gap[0]), str(verdict[0]), tol)


def _ensemble_witness_rows(
    ens: Ensemble, ts: np.ndarray, tol: float, method: str, h: float
) -> tuple[np.ndarray, ...]:
    """``ensemble_witness`` at each grid point: (tr1, tr2, operator gap, verdict)."""
    honest, gap = _ensemble_forms(_component_differentials(ens, ts, method, h))
    # "auto" takes a stencil's wider trace bound if any component's factor needs
    # a stencil, as it then differentiates every component by that stencil
    source = resolve_method([curve for _, curve, _ in ens._factors._stacks], method)
    tr1, tr2, verdict = _trace_witness(honest, ens.dims, tol, source)
    return tr1, tr2, gap, verdict


def base_state_separability(rho: HermitianOp, cut: Cut) -> SeparabilityVerdict:
    """Positivity-after-transpose verdict on a bipartite state.

    A negative partial transpose certifies entanglement in any dimensions;
    a positive one certifies separability only for 2x2 and 2x3 sides and is
    otherwise undecided.
    """
    return str(_separability(rho.matrix, rho.dims, cut))


def _separability(mats: np.ndarray, dims: tuple[int, ...], cut: Cut) -> np.ndarray:
    """``base_state_separability`` of each state of a stack.

    One Cholesky factorization of the states and their partial transposes
    certifies every one of them positive definite (up to rounding far inside
    the ``_DENSITY_TOL`` bounds below), and so every state positive and PPT, without a
    spectrum.  When it fails (a rank-deficient state such as a pure one, an
    NPT state or non-positive input) the eigenvalues decide, as they would
    alone: either way a row gets the verdict or rejection the spectra give.
    """
    transposes = _partial_transposes(mats, dims, cut)
    certified = _positive_definite(np.stack([mats, transposes]))
    if not certified:
        lowest = np.linalg.eigvalsh(mats)[..., 0]
        message = lambda i: f"operator is not positive (min eigenvalue {lowest.flat[i]:.3e})"
        _bounded(-lowest, _DENSITY_TOL, message)
    traces = np.trace(mats, axis1=-2, axis2=-1).real
    message = lambda i: f"state must have unit trace, got {float(traces.flat[i])!r}"
    _bounded(np.abs(traces - 1.0), _DENSITY_TOL, message)
    d_left = math.prod(dims[i] for i in cut.left)
    d_right = math.prod(dims[i] for i in cut.right)
    positive = "separable" if sorted((d_left, d_right)) in ([2, 2], [2, 3]) else "undecided"
    if certified:
        return np.full(mats.shape[:-2], positive)
    return np.where(_negativities(transposes) > 1e-10, "entangled", positive)


def _positive_definite(mats: np.ndarray) -> bool:
    """Whether every matrix of a stack is positive definite, by one Cholesky
    factorization of them all.  A non-finite entry, which the factorization
    carries through instead of failing on, makes the answer no."""
    try:
        factors = np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factors).all())
