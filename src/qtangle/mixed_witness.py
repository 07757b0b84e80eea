"""Witnesses separating honest mixed-state differentials from product forms.

A differential built by moving the parts of a separable mixture keeps a
non-zero partial trace on the side that moves, while any operator assembled
purely from per-side differentials is traceless on both sides.  That norm
asymmetry is the working witness here, backed by an operator-level gap and a
positivity check on the base state.  A pseudo-pure base moving as a product
of two factors takes its trace, norms and verdict from the factors' rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .statespace import (
    _DENSITY_TOL,
    Cut,
    HermitianOp,
    _bounded,
    _check_hermitian,
    _check_traceless,
    _overlaps,
    _partial_trace,
    _raise_first,
    _row_norms,
)
from .trajectories import (
    DEFAULT_STEP,
    Ensemble,
    _component_differentials,
    _kron_rows,
    _mixed_differential,
    _one_point,
    resolve_method,
)
from .entanglement import _ppt_negativities

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
    _check_tol(tol)
    _check_traceless(mats.trace(axis1=-2, axis2=-1), source)
    tr1, tr2 = _trace_norms(mats, dims)
    return tr1, tr2, _verdicts(tr1, tr2, tol)


def _check_tol(tol: float) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _verdicts(tr1: np.ndarray, tr2: np.ndarray, tol: float) -> np.ndarray:
    """Either partial-trace norm above ``tol`` excludes the product form."""
    return np.where(np.maximum(tr1, tr2) > tol, VERDICT_EXCLUDED, VERDICT_INCONCLUSIVE)


def _pseudo_pure_rows(
    factors: Sequence[tuple[np.ndarray, np.ndarray]], epsilon: float, tol: float, source: str
) -> tuple[np.ndarray, ...]:
    """The ``pseudo_pure`` cells over the grid (trace, tr1 and tr2 norms,
    verdict and base separability) of the base (1 - eps) I/D + eps
    |psi><psi|, psi = a x b, from the (states, directions) rows of its two
    factors alone, with no operator on the product space formed.

    The base moves by drho = eps (dP_a x P_b + P_a x dP_b), where P_k =
    |k><k| and dP_k = |d_k><k| + |k><d_k|.  With N_k = ||k||^2, x_k =
    Re<k|d_k> and q_k = N_k ||d_k - (<k|d_k>/N_k) k||^2, its trace is
    2 eps (N_b x_a + N_a x_b), and tracing out factor o leaves
    eps (N_o dP_k + 2 x_o P_k) on factor k, of squared Frobenius norm
    eps^2 (2 N_o^2 q_k + 4 (N_o x_k + N_k x_o)^2): a sum of non-negative
    terms, which rounding cannot take below zero.  The trace is bounded as
    ``_trace_witness`` bounds it, a norm that overflows rejects its row, and
    the verdict is ``_trace_witness``'s.  The base mixes two product states,
    I/D and P_a x P_b, so it is separable for every eps and any dims.
    """
    _check_tol(tol)
    (na, nb), (xa, xb), (qa, qb) = zip(*(_factor_terms(*rows) for rows in factors))
    shared = na * xb + nb * xa
    trace = 2 * epsilon * shared
    _check_traceless(trace, source)
    # tr1 keeps factor 2, as _trace_norms takes them
    tr1, tr2 = (epsilon * np.sqrt(2 * n**2 * q + 4 * shared**2) for n, q in ((na, qb), (nb, qa)))
    message = lambda i: "partial-trace norm overflows double precision"
    _raise_first(~(np.isfinite(tr1) & np.isfinite(tr2)), message)
    return trace, tr1, tr2, _verdicts(tr1, tr2, tol), np.full(trace.shape, "separable")


def _factor_terms(states: np.ndarray, directions: np.ndarray) -> tuple[np.ndarray, ...]:
    """(N, x, q) of each row of a factor (``_pseudo_pure_rows``)."""
    norms = _row_norms(states) ** 2
    overlaps = _overlaps(states, directions)
    perp = directions - (overlaps / norms)[:, None] * states
    return norms, overlaps.real, norms * _row_norms(perp) ** 2


def product_differential(
    ens: Ensemble, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> HermitianOp:
    """The doubly-differential product form: sum_i w_i d(rho_i^1) x d(rho_i^2)."""
    return HermitianOp(_product_form(_component_differentials(ens, _one_point(t), method, h))[0], ens.dims)


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
    return float(_ensemble_forms(_component_differentials(ens, _one_point(t), method, h))[1][0])


def ensemble_witness(
    ens: Ensemble, t: float, tol: float = 1e-6, method: str = "auto", h: float = DEFAULT_STEP
) -> WitnessReport:
    """Full witness for an ensemble: trace norms plus the operator-form gap."""
    tr1, tr2, gap, verdict = _ensemble_witness_rows(ens, _one_point(t), tol, method, h)
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
    a positive one certifies separability for 2x2 and 2x3 sides.  In any
    dims a state of purity tr(rho^2) <= 1/(D - 1) is separable, the ball
    about I/D of Gurvits and Barnum, PRA 66, 062311 (2002); any other
    positive one is undecided.
    """
    return str(_separability(rho.matrix, rho.dims, cut))


def _separability(mats: np.ndarray, dims: tuple[int, ...], cut: Cut) -> np.ndarray:
    """``base_state_separability`` of each state of a stack, from the
    spectra of the states and of their partial transposes."""
    lowest = np.linalg.eigvalsh(mats)[..., 0]
    message = lambda i: f"operator is not positive (min eigenvalue {lowest.flat[i]:.3e})"
    _bounded(-lowest, _DENSITY_TOL, message)
    traces = np.trace(mats, axis1=-2, axis2=-1).real
    message = lambda i: f"state must have unit trace, got {float(traces.flat[i])!r}"
    _bounded(np.abs(traces - 1.0), _DENSITY_TOL, message)
    d_left = math.prod(dims[i] for i in cut.left)
    d_right = math.prod(dims[i] for i in cut.right)
    if sorted((d_left, d_right)) in ([2, 2], [2, 3]):
        positive = np.full(mats.shape[:-2], "separable")
    else:
        # the purity of a Hermitian matrix is the sum of its entries' squared moduli
        purity = np.add.reduce((mats.conj() * mats).real, axis=(-2, -1))
        positive = np.where(purity <= 1 / (mats.shape[-1] - 1), "separable", "undecided")
    return np.where(_ppt_negativities(mats, dims, cut) > 1e-10, "entangled", positive)
