"""Bipartite entanglement analysis of pure states and small mixed operators.

Entropy is reported in bits (base-2 logarithm).  The Schmidt decomposition
fixes phases by making the first non-zero amplitude of each left vector real
and positive, which pins the bases uniquely whenever the coefficients are
non-degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .statespace import Cut, HermitianOp, Ket

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
    if norm < 1e-12:
        raise DegenerateInputError("cannot decompose a (near-)zero vector")
    cut.validate_for(state.dims)
    left = sorted(cut.left)
    right = sorted(cut.right)
    tensor = state.amplitudes.reshape(state.dims)
    tensor = tensor.transpose(left + right)
    d_left = math.prod(state.dims[i] for i in left)
    return tensor.reshape(d_left, -1) / norm, norm, left, right


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
        nz = np.flatnonzero(np.abs(lvec) > 1e-12)
        if nz.size:
            phase = lvec[nz[0]] / abs(lvec[nz[0]])
            lvec, rvec = lvec / phase, rvec * phase
        left_basis.append(Ket(lvec, left_dims, unit=True, tol=1e-10))
        right_basis.append(Ket(rvec, right_dims, unit=True, tol=1e-10))
    return SchmidtData(s, tuple(left_basis), tuple(right_basis), float(norm))


def entanglement_entropy(state: Ket, cut: Cut) -> float:
    """Entropy in bits of the squared Schmidt coefficients across the cut.

    Only the singular values are computed; a (near-)zero vector is rejected.
    """
    p = np.linalg.svd(_split_matrix(state, cut)[0], compute_uv=False) ** 2
    p = p[p > 0]
    # rounding can push a probability a hair past 1; a negative total is noise
    return max(0.0, float(-(p @ np.log2(p))))


def bell_decompose(state: Ket) -> np.ndarray:
    """Coefficients of a two-qubit state on (phi+, phi-, psi+, psi-)."""
    if state.dims != (2, 2):
        raise ValueError(f"need a two-qubit state, got dims {state.dims}")
    return np.array(
        [np.vdot(BELL_STATES[l].amplitudes, state.amplitudes) for l in BELL_LABELS]
    )


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
            if abs(np.linalg.norm(vec) - 1) >= 1e-12:
                raise ValidationError(
                    f"{name} must be a unit vector, got norm {np.linalg.norm(vec)!r}"
                )
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)


def _spin_axis(vec: np.ndarray) -> np.ndarray:
    return vec[0] * PAULI["x"] + vec[1] * PAULI["y"] + vec[2] * PAULI["z"]


def _require_two_qubit_unit(state: Ket) -> None:
    if state.dims != (2, 2):
        raise ValueError(f"need a two-qubit state, got dims {state.dims}")
    if abs(state.norm() - 1) >= 1e-10:
        raise ValidationError(f"state must be unit norm, got {state.norm()!r}")


def correlation(state: Ket, setting: MeasurementSetting) -> float:
    """Joint spin expectation <(sigma.a) x (sigma.b)> in the given state."""
    _require_two_qubit_unit(state)
    op = np.kron(_spin_axis(setting.a), _spin_axis(setting.b))
    value = complex(np.vdot(state.amplitudes, op @ state.amplitudes))
    return float(value.real)


def correlation_matrix(state: Ket) -> np.ndarray:
    """3x3 matrix of joint Pauli expectations T[i, j] = <sigma_i x sigma_j>."""
    _require_two_qubit_unit(state)
    axes = "xyz"
    out = np.empty((3, 3))
    for i, p in enumerate(axes):
        for j, q in enumerate(axes):
            op = np.kron(PAULI[p], PAULI[q])
            out[i, j] = np.vdot(state.amplitudes, op @ state.amplitudes).real
    return out


def chsh_value(state: Ket) -> float:
    """Largest CHSH combination the state allows over all measurement choices.

    Closed form: twice the root-sum-square of the two largest singular
    values of the correlation matrix.
    """
    s = np.linalg.svd(correlation_matrix(state), compute_uv=False)
    return float(2 * math.sqrt(s[0] ** 2 + s[1] ** 2))


def correlation_expansion(traj, t: float, setting: MeasurementSetting) -> tuple[float, float, float]:
    """Taylor coefficients (value, slope, half-curvature) of the joint spin
    expectation along a two-qubit trajectory, in the parameter increment.

    Supported for a pair of identical real single-angle qubit curves, where
    the per-side expectations have closed derivatives.
    """
    from .trajectories import BlochCurve, ProductTrajectory

    if not isinstance(traj, ProductTrajectory) or traj.n_factors != 2:
        raise ValueError("need a two-factor trajectory")
    first, second = traj.factors
    for pos, curve in enumerate((first, second)):
        if not isinstance(curve, BlochCurve):
            raise ValueError(f"factor {pos + 1}: only single-angle qubit curves are supported")
        if np.any(np.abs(curve.phi.coef) > 1e-12):
            raise ValueError(f"factor {pos + 1}: curve must stay in the real plane")
    ca, cb = first.theta.trim(1e-14).coef, second.theta.trim(1e-14).coef
    if len(ca) != len(cb) or np.any(np.abs(ca - cb) > 1e-12):
        raise ValueError("the two factor curves must be identical")
    if any(traj.frozen):
        raise ValueError("frozen factors are not supported here")

    th = first.theta(t)
    dth = first.theta.deriv()(t)
    ddth = first.theta.deriv(2)(t)
    ax, _, az = setting.a
    bx, _, bz = setting.b
    f = ax * math.sin(th) + az * math.cos(th)
    g = bx * math.sin(th) + bz * math.cos(th)
    df = ax * math.cos(th) - az * math.sin(th)
    dg = bx * math.cos(th) - bz * math.sin(th)
    value = f * g
    slope = (df * g + f * dg) * dth
    curvature = (-2 * f * g + 2 * df * dg) * dth**2 + (df * g + f * dg) * ddth
    return float(value), float(slope), float(curvature / 2)


def _permuted_blocks(op: HermitianOp, cut: Cut) -> tuple[np.ndarray, int, int]:
    cut.validate_for(op.dims)
    left = sorted(cut.left)
    right = sorted(cut.right)
    n = op.n_factors
    order = left + right
    perm = order + [n + i for i in order]
    tensor = op.matrix.reshape(op.dims + op.dims).transpose(perm)
    d_left = math.prod(op.dims[i] for i in left)
    d_right = math.prod(op.dims[i] for i in right)
    return tensor.reshape(d_left, d_right, d_left, d_right), d_left, d_right


def ppt_negativity(op: HermitianOp, cut: Cut) -> float:
    """Total weight of negative eigenvalues after transposing one side.

    Zero is necessary for separability in any dimensions and conclusive only
    when the cut sides have dimensions 2x2 or 2x3.
    """
    blocks, d_left, d_right = _permuted_blocks(op, cut)
    transposed = blocks.transpose(0, 3, 2, 1).reshape(d_left * d_right, d_left * d_right)
    eigs = np.linalg.eigvalsh(transposed)
    return float(-eigs[eigs < 0].sum())
