"""Bipartite entanglement analysis of pure states and small mixed operators.

Entropy is reported in bits (base-2 logarithm).  The Schmidt decomposition
fixes phases by making the first non-zero amplitude of each left vector real
and positive, which pins the bases uniquely whenever the coefficients are
non-degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.polyutils import trimcoef

from .errors import DegenerateInputError
from .statespace import (
    BASE_NORM_TOL,
    DEFAULT_TOL,
    _ZERO_DIRECTION,
    _ZERO_TOL,
    Cut,
    HermitianOp,
    Ket,
    _check_amplitudes,
    _normalized,
    _raise_first,
    _split,
)
from .trajectories import BlochCurve, ProductTrajectory, _one_point, _squared_perp_speeds

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_SQ2 = math.sqrt(2)
BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
BELL_STATES = {
    "phi_plus": Ket(np.array([1, 0, 0, 1]) / _SQ2, (2, 2), unit=True),
    "phi_minus": Ket(np.array([1, 0, 0, -1]) / _SQ2, (2, 2), unit=True),
    "psi_plus": Ket(np.array([0, 1, 1, 0]) / _SQ2, (2, 2), unit=True),
    "psi_minus": Ket(np.array([0, 1, -1, 0]) / _SQ2, (2, 2), unit=True),
}
_BELL_ROWS = np.array([BELL_STATES[label].amplitudes for label in BELL_LABELS])
# _PAULI_PAIRS[i, j] = sigma_i x sigma_j over the axes x, y, z
_PAULI_PAIRS = np.array([[np.kron(PAULI[p], PAULI[q]) for q in "xyz"] for p in "xyz"])


@dataclass(frozen=True, eq=False)
class SchmidtData:
    """Schmidt decomposition across a cut.

    ``coefficients`` are non-negative and descending; ``input_norm`` records
    the norm of the vector before the normalization applied internally.
    """

    coefficients: np.ndarray
    left_basis: tuple[Ket, ...]
    right_basis: tuple[Ket, ...]
    input_norm: float


def _split_matrix(state: Ket, cut: Cut) -> tuple[np.ndarray, float, list[int], list[int]]:
    """Normalized amplitudes as a (left block, right block) matrix, the input
    norm, and each side's positions in ascending order.

    A (near-)zero vector is rejected.
    """
    norm = state.norm()
    unit = _normalized(state.amplitudes, "cannot decompose a (near-)zero vector", norms=norm)
    return _split(unit, state.dims, cut, 1), norm, sorted(cut.left), sorted(cut.right)


def _entropy_bits(matrices: np.ndarray) -> np.ndarray:
    """Entropy in bits of the squared singular values of each unit-norm matrix."""
    return _weights_bits(np.linalg.svd(matrices, compute_uv=False) ** 2)


def _weights_bits(p: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of descending weights (last axis) that sum
    to 1; p*log2(p) is 0 at p = 0.  The largest weight's term is taken from
    the sum q of the others, as -(1-q) log1p(-q) / ln 2: the largest weight,
    1 - q in float, would lose the digits the small ones carry."""
    rest = p[..., 1:]
    q = rest.sum(axis=-1)
    logs = np.log2(rest, out=np.zeros_like(rest), where=rest > 0)
    entropy = -((rest * logs).sum(axis=-1) + (1 - q) * np.log1p(-q) / math.log(2))
    # a product row sums to -0.0: report +0.0
    return np.where(entropy > 0, entropy, 0.0)


def schmidt(state: Ket, cut: Cut) -> SchmidtData:
    """Schmidt decomposition of a pure state across the cut.

    Non-unit input is normalized first; a (near-)zero vector is rejected.
    """
    matrix, norm, left, right = _split_matrix(state, cut)
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    left_dims = tuple(state.dims[i] for i in left)
    right_dims = tuple(state.dims[i] for i in right)
    left_basis, right_basis = [], []
    for k in range(s.size):
        lvec, rvec = u[:, k].copy(), vh[k, :].copy()
        nz = np.flatnonzero(np.abs(lvec) > _ZERO_TOL)
        if nz.size:
            phase = lvec[nz[0]] / abs(lvec[nz[0]])
            lvec, rvec = lvec / phase, rvec * phase
        left_basis.append(Ket(lvec, left_dims, unit=True, tol=BASE_NORM_TOL))
        right_basis.append(Ket(rvec, right_dims, unit=True, tol=BASE_NORM_TOL))
    return SchmidtData(s, tuple(left_basis), tuple(right_basis), float(norm))


def entanglement_entropy(state: Ket, cut: Cut) -> float:
    """Entropy in bits of the squared Schmidt coefficients across the cut.

    Only the singular values are computed; a (near-)zero vector is rejected.
    """
    return float(_entropy_bits(_split_matrix(state, cut)[0]))


def bell_decompose(state: Ket) -> np.ndarray:
    """Coefficients of a two-qubit state on (phi+, phi-, psi+, psi-)."""
    _require_two_qubit(state)
    return _bell_rows(state.amplitudes)


def _bell_rows(amps: np.ndarray) -> np.ndarray:
    """Bell coefficients (phi+, phi-, psi+, psi-) of each two-qubit row."""
    return amps @ _BELL_ROWS.conj().T


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """A pair of unit Bloch vectors, one spin axis per side."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector, got shape {vec.shape}")
            _check_amplitudes(vec, DEFAULT_TOL, name)
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)


def _require_two_qubit(state: Ket) -> None:
    if state.dims != (2, 2):
        raise ValueError(f"need a two-qubit state, got dims {state.dims}")


def correlation(state: Ket, setting: MeasurementSetting) -> float:
    """Joint spin expectation <(sigma.a) x (sigma.b)> in the given state."""
    return float(setting.a @ correlation_matrix(state) @ setting.b)


def correlation_matrix(state: Ket) -> np.ndarray:
    """3x3 matrix of joint Pauli expectations T[i, j] = <sigma_i x sigma_j>."""
    _require_two_qubit(state)
    return _correlation_rows(state.amplitudes)


def _correlation_rows(amps: np.ndarray) -> np.ndarray:
    """Correlation matrix of each unit two-qubit row, (..., 3, 3)."""
    _check_amplitudes(amps, BASE_NORM_TOL, "state")
    return np.einsum("...a,ijab,...b->...ij", amps.conj(), _PAULI_PAIRS, amps).real


def chsh_value(state: Ket) -> float:
    """Largest CHSH combination the state allows over all measurement choices.

    Closed form: twice the root-sum-square of the two largest singular
    values of the correlation matrix (Horodecki).  For a pure state a of
    squared norm n^2 those are n^2 and 2|det|, det = a00*a11 - a01*a10, so
    the value is 2*sqrt(n^4 + 4|det|^2), with no matrix formed.
    """
    _require_two_qubit(state)
    amps = state.amplitudes
    norms = _check_amplitudes(amps, BASE_NORM_TOL, "state")
    det = amps[0] * amps[3] - amps[1] * amps[2]
    return float(2 * np.sqrt(norms**4 + 4 * abs(det) ** 2))


def _product_chsh_rows(factors: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """``chsh_value`` of the normalized horizontal tangent of each row of a
    two-qubit product trajectory, from its two factors' (states, directions)
    rows alone, with no two-qubit row formed.

    The tangent's Schmidt weights are S_1/S and S_2/S (``geometry``), S_i
    a factor's squared perpendicular speed and S their sum, so its
    concurrence is C = 2 sqrt(S_1 S_2)/S and its CHSH value is
    2 sqrt(1 + C^2) (Gisin, Phys. Lett. A 154, 201 (1991)).  A row that does
    not move, sqrt(S) below the zero floor as ``profile`` reads it, has no
    direction and is rejected as normalizing it would be.
    """
    s1, s2 = (_squared_perp_speeds(a, d) for a, d in factors)
    total = s1 + s2
    _raise_first(np.less(np.sqrt(total), _ZERO_TOL), lambda i: _ZERO_DIRECTION, DegenerateInputError)
    return 2 * np.sqrt(1 + 4 * (s1 / total) * (s2 / total))


def correlation_expansion(traj, t: float, setting: MeasurementSetting) -> tuple[float, float, float]:
    """Taylor coefficients (value, slope, half-curvature) of the joint spin
    expectation along a two-qubit trajectory, in the parameter increment.

    Supported for a pair of identical real single-angle qubit curves, where
    the per-side expectations have closed derivatives; the curves are compared
    as functions of the parameter, whatever their polynomials' domains.
    """
    return tuple(float(c) for c in _correlation_expansions(traj, _one_point(t), setting)[0])


def _correlation_expansions(traj, ts: np.ndarray, setting: MeasurementSetting) -> np.ndarray:
    """``correlation_expansion`` at each grid point, (G, 3)."""
    if not isinstance(traj, ProductTrajectory) or traj.n_factors != 2:
        raise ValueError("need a two-factor trajectory")
    first, second = traj.factors
    for pos, curve in enumerate((first, second)):
        if not isinstance(curve, BlochCurve):
            raise ValueError(f"factor {pos + 1}: only single-angle qubit curves are supported")
        if curve.theta.ndim > 1:
            raise ValueError(f"factor {pos + 1}: a stack of curves is not supported here")
        if not np.all(np.abs(curve.phi) < 1e-12):
            raise ValueError(f"factor {pos + 1}: curve must stay in the real plane")
    ca, cb = (trimcoef(curve.theta, 1e-14) for curve in (first, second))
    if len(ca) != len(cb) or not np.all(np.abs(ca - cb) < 1e-12):
        raise ValueError("the two factor curves must be identical")
    if any(traj.frozen):
        raise ValueError("frozen factors are not supported here")

    th = first._theta(ts)
    dth = first._dtheta(ts)
    ddth = first._ddtheta(ts)
    ax, _, az = setting.a
    bx, _, bz = setting.b
    sin, cos = np.sin(th), np.cos(th)
    f = ax * sin + az * cos
    g = bx * sin + bz * cos
    df = ax * cos - az * sin
    dg = bx * cos - bz * sin
    value = f * g
    slope = (df * g + f * dg) * dth
    curvature = (-2 * f * g + 2 * df * dg) * dth**2 + (df * g + f * dg) * ddth
    return np.stack([value, slope, curvature / 2], axis=-1)


def ppt_negativity(op: HermitianOp, cut: Cut) -> float:
    """Total weight of negative eigenvalues after transposing one side.

    Zero is necessary for separability in any dimensions and conclusive only
    when the cut sides have dimensions 2x2 or 2x3.
    """
    return float(_ppt_negativities(op.matrix, op.dims, cut))


def _ppt_negativities(mats: np.ndarray, dims: tuple[int, ...], cut: Cut) -> np.ndarray:
    """``ppt_negativity`` of each matrix of a stack (last two axes): the cut's
    right side is transposed in the cut's (left, right) order."""
    transposes = np.swapaxes(_split(mats, dims, cut, 2), -3, -1).reshape(mats.shape)
    eigs = np.linalg.eigvalsh(transposes)
    return -np.where(eigs < 0, eigs, 0.0).sum(axis=-1)
