"""Parameterized state curves and the tangent vectors they sweep out.

A factor curve maps a real parameter to a unit ket for one particle; a
product trajectory moves several particles independently.  Differentiation
is analytic where the curve has a closed form and falls back to central
differences with Richardson extrapolation otherwise.  The derivative of a
product of curves distributes over the factors, so the assembled tangent of
a product trajectory is a sum of terms each moving exactly one factor;
factors marked frozen contribute exactly zero.

Every kernel works over a whole parameter grid at once: curves return
``(G, d)`` arrays from ``states(ts)`` and ``velocities(ts)``, and tangents
are assembled row by row.  The scalar functions (``state``, ``differentiate``,
``product_tangent``, ``register_tangent``, ...) are the one-row case.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial import Polynomial
from scipy.interpolate import CubicSpline

from .errors import (
    DegenerateInputError,
    ParameterRangeError,
    UnsupportedMethodError,
    ValidationError,
)
from .statespace import (
    DEFAULT_TOL,
    HermitianOp,
    Ket,
    _apply_axis,
    _apply_local,
    _check_amplitudes,
    _check_finite,
    _check_hermitian,
    _outer,
    _raise_first,
    tensor_product,
)

DEFAULT_STEP = 1e-4
BASE_NORM_TOL = 1e-10
METHODS = ("auto", "analytic", "central_fd", "richardson")


def _as_poly(value, name: str) -> Polynomial:
    if isinstance(value, Polynomial):
        poly = value
    elif np.isscalar(value):
        poly = Polynomial([float(value)])
    else:
        poly = Polynomial([float(c) for c in value])
    if not np.all(np.isfinite(poly.coef)):
        raise ValueError(f"{name}: coefficients must be finite")
    return poly


def _evaluators(poly: Polynomial, count: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    """``poly`` and its first ``count - 1`` derivatives as functions of a grid array.

    They repeat the arithmetic of ``poly.deriv(order)`` and of
    ``Polynomial.__call__`` (domain map, then Horner) without building
    polynomial objects, which costs more than evaluating a short grid.
    """
    off, scl = poly.mapparms()

    def evaluator(coef: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        def values(ts: np.ndarray) -> np.ndarray:
            x = off + scl * ts
            out = coef[-1] + x * 0
            for c in coef[-2::-1]:
                out = c + out * x
            return out

        return values

    out, coef = [evaluator(poly.coef)], poly.coef
    for _ in range(count - 1):
        coef = np.arange(1, len(coef)) * (coef[1:] * scl) if len(coef) > 1 else coef[:1] * 0
        out.append(evaluator(coef))
    return out


def _hermitian_matrix(value, name: str, tol: float = DEFAULT_TOL) -> np.ndarray:
    mat = value.matrix if isinstance(value, HermitianOp) else np.asarray(value, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {mat.shape}")
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev >= tol:
        raise ValidationError(f"{name}: matrix is not Hermitian (deviation {dev:.3e})")
    return mat


def propagator(generator, t: float) -> np.ndarray:
    """exp(-i * generator * t) for a Hermitian generator, via eigendecomposition."""
    mat = _hermitian_matrix(generator, "generator")
    w, v = np.linalg.eigh(mat)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


class FactorCurve(ABC):
    """One particle's state as a function of a real parameter."""

    dims: tuple[int, ...]
    has_analytic: bool = True

    @abstractmethod
    def states(self, ts: np.ndarray) -> np.ndarray:
        """Unit amplitudes at each parameter value of a 1-d grid, shape (G, d)."""

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        """Closed-form derivative of the amplitudes at each grid point, (G, d)."""
        raise UnsupportedMethodError(
            f"{type(self).__name__} has no closed-form derivative; "
            "use central_fd or richardson"
        )

    def state(self, t: float) -> Ket:
        """Unit ket at parameter value t."""
        return Ket(self.states(np.array([float(t)]))[0], self.dims)

    def velocity(self, t: float) -> np.ndarray:
        """Closed-form derivative of the amplitudes at t."""
        return self.velocities(np.array([float(t)]))[0]


class BlochCurve(FactorCurve):
    """Qubit curve cos(theta/2)|0> + e^(i*phi) sin(theta/2)|1>.

    ``theta`` and ``phi`` are polynomials in the parameter, given as a scalar,
    a coefficient sequence (constant first), or a numpy Polynomial.
    """

    def __init__(self, theta, phi=0.0) -> None:
        self.theta = _as_poly(theta, "theta")
        self.phi = _as_poly(phi, "phi")
        self._theta, self._dtheta = _evaluators(self.theta, 2)
        self._phi, self._dphi = _evaluators(self.phi, 2)
        self.dims = (2,)

    def states(self, ts: np.ndarray) -> np.ndarray:
        half = self._theta(ts) / 2
        amps = np.empty((len(ts), 2), dtype=complex)
        amps[:, 0] = np.cos(half)
        amps[:, 1] = np.exp(1j * self._phi(ts)) * np.sin(half)
        _check_amplitudes(amps, DEFAULT_TOL)
        return amps

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        th, ph = self._theta(ts), self._phi(ts)
        half, dph = self._dtheta(ts) / 2, self._dphi(ts)
        c, s = np.cos(th / 2), np.sin(th / 2)
        out = np.empty((len(ts), 2), dtype=complex)
        out[:, 0] = -half * s
        out[:, 1] = np.exp(1j * ph) * (half * c + 1j * dph * s)
        return out


class PhaseCurve(FactorCurve):
    """A fixed ket acquiring the global phase e^(i*phi(t))."""

    def __init__(self, phi, base: Ket) -> None:
        self.phi = _as_poly(phi, "phi")
        self._phi, self._dphi = _evaluators(self.phi, 2)
        if abs(base.norm() - 1) >= BASE_NORM_TOL:
            raise ValidationError(f"base ket must be unit norm, got {base.norm()!r}")
        self.base = base
        self.dims = base.dims

    def states(self, ts: np.ndarray) -> np.ndarray:
        amps = np.exp(1j * self._phi(ts))[:, None] * self.base.amplitudes
        _check_amplitudes(amps, DEFAULT_TOL)
        return amps

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        return 1j * self._dphi(ts)[:, None] * self.states(ts)


class LocalHamiltonianCurve(FactorCurve):
    """Schroedinger orbit exp(-i*H*t)|initial> of a constant Hermitian generator."""

    def __init__(self, generator, initial: Ket) -> None:
        mat = _hermitian_matrix(generator, "generator")
        if mat.shape[0] != initial.total_dim:
            raise ValueError(
                f"generator side {mat.shape[0]} does not match state dimension "
                f"{initial.total_dim}"
            )
        if abs(initial.norm() - 1) >= BASE_NORM_TOL:
            raise ValidationError(f"initial ket must be unit norm, got {initial.norm()!r}")
        self.generator = mat
        self.initial = initial
        self.dims = initial.dims
        self._evals, self._evecs = np.linalg.eigh(mat)
        self._coeffs = self._evecs.conj().T @ initial.amplitudes

    def _amplitudes(self, ts: np.ndarray) -> np.ndarray:
        return _matvec(self._evecs, np.exp(-1j * self._evals * ts[:, None]) * self._coeffs)

    def states(self, ts: np.ndarray) -> np.ndarray:
        amps = self._amplitudes(ts)
        _check_amplitudes(amps, 1e-10)
        return amps

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        return -1j * _matvec(self.generator, self._amplitudes(ts))


class SampledCurve(FactorCurve):
    """Curve tabulated on a parameter grid, evaluated by cubic interpolation.

    Norm validation happens pointwise at the samples; fidelity between nodes
    is set by the grid density.  No closed-form derivative exists.
    """

    has_analytic = False

    def __init__(self, times: Sequence[float], states: Sequence[Ket]) -> None:
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 4:
            raise ValueError("need a 1-d grid of at least 4 sample times")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if len(states) != times.size:
            raise ValueError(f"{times.size} times but {len(states)} states")
        dims = states[0].dims
        for i, ket in enumerate(states):
            if ket.dims != dims:
                raise ValueError(f"sample {i} has dims {ket.dims}, expected {dims}")
            if abs(ket.norm() - 1) >= BASE_NORM_TOL:
                raise ValidationError(
                    f"sample {i} (t={times[i]!r}) has norm {ket.norm()!r}, not unit"
                )
        self.times = times
        self.dims = dims
        self._spline = CubicSpline(times, np.array([k.amplitudes for k in states]), axis=0)

    def states(self, ts: np.ndarray) -> np.ndarray:
        lo, hi = self.times[0], self.times[-1]
        _raise_first(
            (ts < lo) | (ts > hi),
            lambda i: f"t={float(ts[i])!r} outside the sampled range [{lo!r}, {hi!r}]",
            ParameterRangeError,
        )
        amps = self._spline(ts)
        norms = np.linalg.norm(amps, axis=-1)
        _raise_first(
            np.abs(norms - 1) >= 1e-6,
            lambda i: f"interpolated state at t={float(ts[i])!r} has norm {norms[i]!r}",
        )
        amps = amps / norms[:, None]
        _check_amplitudes(amps, DEFAULT_TOL)
        return amps


class _PhaseModulated(FactorCurve):
    """A curve multiplied by the global phase e^(i*phi(t))."""

    def __init__(self, inner: FactorCurve, phi) -> None:
        self.inner = inner
        self.phi = _as_poly(phi, "phi")
        self._phi, self._dphi = _evaluators(self.phi, 2)
        self.dims = inner.dims
        self.has_analytic = inner.has_analytic

    def states(self, ts: np.ndarray) -> np.ndarray:
        amps = np.exp(1j * self._phi(ts))[:, None] * self.inner.states(ts)
        _check_amplitudes(amps)
        return amps

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        phase = np.exp(1j * self._phi(ts))[:, None]
        inner_states = self.inner.states(ts)
        dphi = self._dphi(ts)[:, None]
        return phase * (1j * dphi * inner_states + self.inner.velocities(ts))


def with_global_phase(curve: FactorCurve, phi) -> FactorCurve:
    """Multiply a curve by the time-dependent global phase e^(i*phi(t))."""
    return _PhaseModulated(curve, phi)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """An infinitesimal change attached to a unit base state.

    ``direction`` is the derivative of the amplitudes per unit parameter; it
    is generally neither normalized nor orthogonal to the base.
    """

    base: Ket
    direction: np.ndarray

    def __post_init__(self) -> None:
        direction = np.array(self.direction, dtype=complex)
        _check_tangents(self.base.amplitudes, direction)
        direction.setflags(write=False)
        object.__setattr__(self, "direction", direction)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.base.dims

    def norm(self) -> float:
        return float(np.linalg.norm(self.direction))

    def base_overlap(self) -> complex:
        """<base|direction>."""
        return complex(_overlaps(self.base.amplitudes, self.direction))

    def normalized_direction(self) -> Ket:
        return Ket(_normalized(self.direction), self.dims)


def _check_tangents(base: np.ndarray, direction: np.ndarray) -> None:
    """The TangentVector checks on rows of base amplitudes and directions."""
    if direction.shape != base.shape:
        raise ValueError(
            f"direction shape {direction.shape[-1:]} does not match base {base.shape[-1:]}"
        )
    _check_finite(direction, (-1,), "direction entries must all be finite")
    norms = np.linalg.norm(base, axis=-1)
    _raise_first(
        abs(norms - 1) >= BASE_NORM_TOL, lambda i: f"base must be unit norm, got {norms.flat[i]!r}"
    )


def _normalized(directions: np.ndarray) -> np.ndarray:
    """Each direction row scaled to unit norm; a (near-)zero row is rejected."""
    norms = np.linalg.norm(directions, axis=-1)
    _raise_first(
        norms < 1e-12,
        lambda i: "direction is (near-)zero; nothing to normalize",
        DegenerateInputError,
    )
    unit = directions / norms[..., None]
    _check_amplitudes(unit, DEFAULT_TOL)
    return unit


def _overlaps(base: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """<base|direction> of each row, by the same BLAS dot as ``np.vdot``."""
    return np.matmul(base.conj()[..., None, :], directions[..., :, None])[..., 0, 0]


def _matvec(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``mat @ row`` for each row, by the same BLAS matrix-vector product."""
    return np.matmul(mat, rows[..., :, None])[..., 0]


def resolve_method(curves: Iterable[FactorCurve], method: str) -> str:
    """Validate a method name and resolve "auto" for the given curves.

    "auto" means analytic when every curve has a closed-form derivative and
    richardson otherwise; an empty sequence (register steps) is analytic.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if method != "auto":
        return method
    return "analytic" if all(c.has_analytic for c in curves) else "richardson"


def _stencil(fn: Callable[[np.ndarray], np.ndarray], t, method: str, h: float) -> np.ndarray:
    """central_fd (error O(h^2)) or richardson (two central stencils, O(h^4)) of fn
    at t, a number or a grid array."""
    if not h > 0:
        raise ValueError(f"step h must be positive, got {h!r}")

    def central(step: float) -> np.ndarray:
        return (fn(t + step) - fn(t - step)) / (2 * step)

    if method == "central_fd":
        return central(h)
    return (4 * central(h / 2) - central(h)) / 3


def differentiate(
    curve: FactorCurve, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> TangentVector:
    """Tangent vector of a curve at parameter t.

    ``method`` is one of auto, analytic, central_fd or richardson.
    """
    return TangentVector(curve.state(t), _directions(curve, np.array([float(t)]), method, h)[0])


def _directions(curve: FactorCurve, ts: np.ndarray, method: str, h: float) -> np.ndarray:
    """Derivative of the curve's amplitudes at each grid point, (G, d)."""
    method = resolve_method((curve,), method)
    if method == "analytic":
        return curve.velocities(ts)
    return _stencil(curve.states, ts, method, h)


@dataclass(frozen=True, eq=False)
class ProductTrajectory:
    """Independent factor curves moving a multi-particle product state.

    Frozen factors are held fixed: their term in the assembled tangent is
    exactly zero, not merely small.
    """

    factors: tuple[FactorCurve, ...]
    frozen: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if len(factors) < 2:
            raise ValueError("a product trajectory needs at least 2 factors")
        frozen = tuple(bool(f) for f in self.frozen) or (False,) * len(factors)
        if len(frozen) != len(factors):
            raise ValueError("frozen flags must match the number of factors")
        if all(frozen):
            raise ValueError("at least one factor must be unfrozen")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "frozen", frozen)

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for f in self.factors for d in f.dims)

    def state(self, t: float) -> Ket:
        return tensor_product([f.state(t) for f in self.factors])


def factor_tangents(
    traj: ProductTrajectory, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> list[TangentVector]:
    """Per-factor tangents at t; frozen factors get an exactly-zero direction."""
    parts = _factor_parts(traj, np.array([float(t)]), method, h)
    return [
        TangentVector(Ket(base[0], curve.dims), deriv[0])
        for curve, (base, deriv) in zip(traj.factors, parts)
    ]


def _factor_parts(
    traj: ProductTrajectory, ts: np.ndarray, method: str, h: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``_factor_rows`` with an exactly-zero direction for a frozen factor."""
    return [
        (base, np.zeros_like(base) if deriv is None else deriv)
        for base, deriv in _factor_rows(traj, ts, method, h)
    ]


def _factor_rows(
    traj: ProductTrajectory, ts: np.ndarray, method: str, h: float
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Each factor's (states, directions) over the grid; None for a frozen factor."""
    rows = []
    for curve, frozen in zip(traj.factors, traj.frozen):
        base = curve.states(ts)
        deriv = None
        if not frozen:
            deriv = _directions(curve, ts, method, h)
            _check_tangents(base, deriv)
        rows.append((base, deriv))
    return rows


def product_tangent(
    traj: ProductTrajectory, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> TangentVector:
    """Tangent of the product state: one term per unfrozen factor."""
    state, direction = _product_rows(traj, np.array([float(t)]), method, h)
    return TangentVector(Ket(state[0], traj.dims), direction[0])


def _product_rows(
    traj: ProductTrajectory, ts: np.ndarray, method: str, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Product states and their tangents over the grid, each (G, D), unchecked."""
    rows = _factor_rows(traj, ts, method, h)
    return _product_rule(*rows[0], rows[1:], _kron_rows)


def _sum_rule(parts: Sequence[TangentVector], frozen: Sequence[bool]) -> TangentVector:
    """Assemble per-factor tangents into the tangent of their product.

    Each term tensors the direction of a single unfrozen factor with the
    base states of all the others; frozen factors add no term.
    """
    sites = [
        (p.base.amplitudes[None], None if f else p.direction[None]) for p, f in zip(parts, frozen)
    ]
    state, direction = _product_rule(*sites[0], sites[1:], _kron_rows)
    return TangentVector(Ket(state[0], tuple(d for p in parts for d in p.dims)), direction[0])


def _kron_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of two stacks of vectors (G, a) and (G, b),
    or of two stacks of matrices (G, a, a') and (G, b, b')."""
    if x.ndim == 2:
        return (x[:, :, None] * y[:, None, :]).reshape(len(x), -1)
    prod = x[:, :, None, :, None] * y[:, None, :, None, :]
    return prod.reshape(len(x), x.shape[1] * y.shape[1], -1)


def _product_rule(
    base: np.ndarray, tangent: np.ndarray | None, sites: Sequence[tuple], extend: Callable
) -> tuple[np.ndarray, np.ndarray]:
    """Leibniz sum of a product over a running prefix, returned as (P, T).

    From the first factor ``base`` and its ``tangent`` (None: not moving),
    each site (value, deriv) sets P <- extend(P, value) and
    T <- extend(T, value) + extend(P, deriv), the last term skipped when
    deriv is None.  T is exactly zero if nothing moved.  Every argument is a
    stack with one row per grid point, and ``extend`` works row by row.
    """
    for value, deriv in sites:
        carried = None if tangent is None else extend(tangent, value)
        if deriv is not None:
            moved = extend(base, deriv)
            carried = moved if carried is None else carried + moved
        tangent, base = carried, extend(base, value)
    return base, np.zeros_like(base) if tangent is None else tangent


def horizontal_tangent(tv: TangentVector) -> TangentVector:
    """Remove the component along the base: direction - <base|direction> base.

    The result is gauge-fixed: it is unchanged (up to a global phase) when
    the underlying curve is multiplied by any time-dependent phase.
    """
    return TangentVector(tv.base, _horizontal(tv.base.amplitudes, tv.direction))


def _horizontal(base: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """``horizontal_tangent`` of each row."""
    return directions - _overlaps(base, directions)[..., None] * base


# ---------------------------------------------------------------------------
# stepwise register programs


@dataclass(frozen=True, eq=False)
class UnitaryCurve:
    """One-parameter unitary family exp(-i*G*t) @ base.

    The generator is diagonalised once, on construction.
    """

    generator: np.ndarray
    base: np.ndarray

    def __post_init__(self) -> None:
        gen = _hermitian_matrix(self.generator, "generator")
        base = np.asarray(self.base, dtype=complex)
        if base.shape != gen.shape:
            raise ValueError(f"base shape {base.shape} does not match generator {gen.shape}")
        dev = float(np.max(np.abs(base.conj().T @ base - np.eye(base.shape[0]))))
        if dev >= BASE_NORM_TOL:
            raise ValidationError(f"base matrix is not unitary (deviation {dev:.3e})")
        gen = gen.copy()
        gen.setflags(write=False)
        base = base.copy()
        base.setflags(write=False)
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "base", base)
        evals, evecs = np.linalg.eigh(gen)
        object.__setattr__(self, "_evals", evals)
        object.__setattr__(self, "_evecs", evecs)

    @classmethod
    def constant(cls, unitary) -> "UnitaryCurve":
        u = np.asarray(unitary, dtype=complex)
        return cls(np.zeros(u.shape, dtype=complex), u)

    @classmethod
    def rotation(cls, generator) -> "UnitaryCurve":
        gen = _hermitian_matrix(generator, "generator")
        return cls(gen, np.eye(gen.shape[0], dtype=complex))

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    def value(self, t) -> np.ndarray:
        """The unitary at t, (d, d); at each point of a grid array, (G, d, d)."""
        # the same arithmetic as propagator(self.generator, t) @ self.base
        phases = np.exp(-1j * self._evals * np.asarray(t)[..., None])
        u = (self._evecs * phases[..., None, :]) @ self._evecs.conj().T
        return u @ self.base

    def derivative(self, t) -> np.ndarray:
        return -1j * (self.generator @ self.value(t))


@dataclass(frozen=True, eq=False)
class RegisterProgram:
    """A register driven by successive steps of strictly local unitaries.

    Each step holds one unitary curve per register site, parameterized on
    [0, 1]; a step already completed is evaluated at parameter 1.
    """

    steps: tuple[tuple[UnitaryCurve, ...], ...]
    initial: Ket

    def __post_init__(self) -> None:
        steps = tuple(tuple(step) for step in self.steps)
        if not steps:
            raise ValueError("a register program needs at least one step")
        n = self.initial.n_factors
        for j, step in enumerate(steps):
            if len(step) != n:
                raise ValueError(f"step {j + 1} has {len(step)} curves, expected {n}")
            for i, curve in enumerate(step):
                if curve.dim != self.initial.dims[i]:
                    raise ValueError(
                        f"step {j + 1}, site {i + 1}: curve dimension {curve.dim} "
                        f"does not match factor dimension {self.initial.dims[i]}"
                    )
        if abs(self.initial.norm() - 1) >= BASE_NORM_TOL:
            raise ValidationError("initial register state must be unit norm")
        object.__setattr__(self, "steps", steps)

    @classmethod
    def uniform_superposition(cls, steps: Sequence[Sequence[UnitaryCurve]], n: int) -> "RegisterProgram":
        """Program on n qubits starting from the equal superposition of all bitstrings."""
        amps = np.full(2**n, 2 ** (-n / 2), dtype=complex)
        return cls(tuple(tuple(s) for s in steps), Ket(amps, (2,) * n, unit=True))

    @property
    def n_sites(self) -> int:
        return self.initial.n_factors

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @cached_property
    def _step_starts(self) -> tuple[np.ndarray, ...]:
        """Register amplitudes at the start of each step, filled on first use."""
        starts = [self.initial.amplitudes]
        for step in self.steps[:-1]:
            psi = _apply_local(starts[-1], self.initial.dims, [c.value(1.0) for c in step])
            psi.setflags(write=False)
            starts.append(psi)
        return tuple(starts)

    def resolve_time(self, s):
        """Map global program time in [0, n_steps] to (step index, local parameter).

        On a grid array both come back as arrays, one entry per point.
        """
        times = np.asarray(s, dtype=float)
        _raise_first(
            (times < 0) | (times > self.n_steps),
            lambda i: f"program time {float(times.flat[i])!r} outside [0, {self.n_steps}]",
            ParameterRangeError,
        )
        k = np.minimum(np.floor(times).astype(int) + 1, self.n_steps)
        local = times - (k - 1)
        return (int(k), float(local)) if times.ndim == 0 else (k, local)


def register_state(prog: RegisterProgram, k: int, t: float) -> Ket:
    """State after steps 1..k-1 completed and step k advanced to parameter t."""
    if not 1 <= k <= prog.n_steps:
        raise ValueError(f"step index {k} outside 1..{prog.n_steps}")
    values = [c.value(t) for c in prog.steps[k - 1]]
    dims = prog.initial.dims
    return Ket(_apply_local(prog._step_starts[k - 1], dims, values), dims)


def register_tangent(
    prog: RegisterProgram, k: int, t: float, method: str = "analytic", h: float = DEFAULT_STEP
) -> TangentVector:
    """Tangent of step k at local parameter t: one term per moving site."""
    state, direction = _register_rows(prog, k, np.array([float(t)]), method, h)
    return TangentVector(Ket(state[0], prog.initial.dims), direction[0])


def _register_rows(
    prog: RegisterProgram, k: int, ts: np.ndarray, method: str, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Register states and tangents of step k at each local parameter, (G, D), unchecked."""
    if not 1 <= k <= prog.n_steps:
        raise ValueError(f"step index {k} outside 1..{prog.n_steps}")
    method = resolve_method((), method)
    dims = prog.initial.dims
    sites = []
    for curve in prog.steps[k - 1]:
        value = curve.value(ts)
        if not np.any(curve.generator):
            sites.append((value, None))  # constant site: every stencil is exactly zero
        elif method == "analytic":
            sites.append((value, -1j * (curve.generator @ value)))
        else:
            sites.append((value, _stencil(curve.value, ts, method, h)))
    chi = np.broadcast_to(prog._step_starts[k - 1].reshape(dims), (len(ts),) + dims)
    state, direction = _product_rule(chi, None, sites, _apply_axis)
    return state.reshape(len(ts), -1), direction.reshape(len(ts), -1)


# ---------------------------------------------------------------------------
# differentials of density operators


def projector_differential(tv: TangentVector) -> HermitianOp:
    """d(|psi><psi|) = |dpsi><psi| + |psi><dpsi| for the given tangent."""
    return HermitianOp(_projector_differentials(tv.base.amplitudes, tv.direction), tv.dims)


def _projector_differentials(base: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """``projector_differential`` of each row, unchecked."""
    return _outer(directions, base) + _outer(base, directions)


def pseudo_pure_differential(psi: Ket, tangent: TangentVector, epsilon: float) -> HermitianOp:
    """Differential of (1-eps) * maximally-mixed + eps |psi><psi|.

    Only the projector part moves, so d(rho) = eps * d(|psi><psi|).
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    if psi.dims != tangent.dims or np.max(
        np.abs(psi.amplitudes - tangent.base.amplitudes)
    ) >= 1e-10:
        raise ValueError("tangent is not attached to the given state")
    mat = epsilon * projector_differential(tangent).matrix
    return HermitianOp(mat, psi.dims)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Convex mixture of bipartite pure-product trajectories."""

    weights: tuple[float, ...]
    components: tuple[ProductTrajectory, ...]

    def __post_init__(self) -> None:
        weights = tuple(float(w) for w in self.weights)
        components = tuple(self.components)
        if not components:
            raise ValueError("an ensemble needs at least one component")
        if len(weights) != len(components):
            raise ValueError(
                f"{len(weights)} weights for {len(components)} components"
            )
        if any(w <= 0 for w in weights):
            raise ValueError("weights must all be positive")
        if abs(sum(weights) - 1.0) >= 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(weights)!r}")
        dims = components[0].dims
        for i, comp in enumerate(components):
            if comp.n_factors != 2:
                raise ValueError(f"component {i + 1} is not bipartite")
            if comp.dims != dims:
                raise ValueError(
                    f"component {i + 1} has dims {comp.dims}, expected {dims}"
                )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.components[0].dims

    def base_operator(self, t: float) -> HermitianOp:
        """The mixed state itself: sum_i w_i |a_i b_i><a_i b_i| at parameter t."""
        mat = sum(
            w * comp.state(t).projector().matrix
            for w, comp in zip(self.weights, self.components)
        )
        return HermitianOp(mat, self.dims)


def separable_mixed_differential(
    ens: Ensemble, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> HermitianOp:
    """Differential of a separable mixture with fixed weights.

    Per component the product rule gives d(rho1) x rho2 + rho1 x d(rho2);
    no second-order d x d term appears.
    """
    honest = _mixed_differential(_component_differentials(ens, t, method, h))
    return HermitianOp(honest[0], ens.dims)


def _component_differentials(ens: Ensemble, t: float, method: str, h: float) -> list[tuple]:
    """``_component_projectors`` at one parameter value, from ``factor_tangents``."""
    tangents = [factor_tangents(comp, t, method, h) for comp in ens.components]
    parts = [[(p.base.amplitudes[None], p.direction[None]) for p in tv] for tv in tangents]
    return _component_projectors(ens, parts)


def _component_projectors(ens: Ensemble, parts: list[list[tuple]]) -> list[tuple]:
    """(weight, factor states, factor projector differentials) of each
    component, from its factors' (states, directions) stacks."""
    out = []
    for w, factors in zip(ens.weights, parts):
        drho = [_projector_differentials(base, deriv) for base, deriv in factors]
        for mat in drho:
            _check_hermitian(mat)
        out.append((w, [base for base, _ in factors], drho))
    return out


def _mixed_differential(components: list[tuple]) -> np.ndarray:
    """The honest differential of the mixture over the stack."""
    total = 0
    for w, states, drho in components:
        rho = [_outer(base, base) for base in states]
        for mat in rho:
            _check_hermitian(mat)
        total = total + w * _product_rule(rho[0], drho[0], [(rho[1], drho[1])], _kron_rows)[1]
    return total


def infinitesimal_composition(generator, total: float, n_steps: int) -> np.ndarray:
    """Compose n identical first-order steps: (I - i*G*total/n)^n.

    Converges to the exact propagator at rate O(1/n) in operator norm.
    """
    mat = _hermitian_matrix(generator, "generator")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    step = np.eye(mat.shape[0], dtype=complex) - 1j * mat * (float(total) / n_steps)
    return np.linalg.matrix_power(step, n_steps)


# ---------------------------------------------------------------------------
# constructions used by randomized sweeps


def curve_through(state: Ket, direction) -> LocalHamiltonianCurve:
    """The constant-generator curve passing through ``state`` with the given
    velocity at t = 0.

    Requires Re<state|direction> ~ 0 (norm preservation); any such pair is
    realized exactly by a Hermitian generator.
    """
    d = np.asarray(direction, dtype=complex)
    if d.shape != state.amplitudes.shape:
        raise ValueError("direction shape does not match the state")
    overlap = complex(np.vdot(state.amplitudes, d))
    if abs(overlap.real) >= 1e-10:
        raise ValidationError(
            f"direction does not preserve norm: Re<psi|dpsi> = {overlap.real:.3e}"
        )
    psi = state.amplitudes
    gen = 1j * (np.outer(d, psi.conj()) - np.outer(psi, d.conj()))
    gen += overlap.imag * np.outer(psi, psi.conj())
    return LocalHamiltonianCurve(gen, state)


def random_unit_ket(rng: np.random.Generator, dims: Iterable[int]) -> Ket:
    dims = tuple(int(d) for d in dims)
    size = math.prod(dims)
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return Ket(amps / np.linalg.norm(amps), dims, unit=True)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2


def random_admissible_direction(rng: np.random.Generator, state: Ket) -> np.ndarray:
    """Random direction with Re<psi|d> = 0 and a non-trivial part off the state ray."""
    psi = state.amplitudes
    while True:
        d = rng.standard_normal(psi.size) + 1j * rng.standard_normal(psi.size)
        d -= np.vdot(psi, d).real * psi
        perp = d - np.vdot(psi, d) * psi
        if np.linalg.norm(perp) > 1e-6:
            return d


def random_factor_curve(
    rng: np.random.Generator, dim: int, constant_speed: bool = False
) -> FactorCurve:
    """A random analytic factor curve.

    With ``constant_speed`` the curve is restricted to constant-generator
    families (Schroedinger orbits and affine single-angle qubit arcs), whose
    projective speed is constant in the parameter.
    """
    kinds = ["hamiltonian", "phase"]
    if dim == 2:
        kinds.append("bloch")
    kind = kinds[rng.integers(len(kinds))]
    if kind == "phase":
        return PhaseCurve([rng.normal(), rng.normal()], random_unit_ket(rng, (dim,)))
    if kind == "bloch":
        if constant_speed:
            if rng.integers(2):
                return BlochCurve([rng.normal(), rng.normal(scale=0.8)], rng.normal())
            return BlochCurve(rng.uniform(0.4, 2.7), [rng.normal(), rng.normal(scale=0.8)])
        return BlochCurve(
            [rng.normal(), rng.normal(), rng.normal(scale=0.5)],
            [rng.normal(), rng.normal(), rng.normal(scale=0.5)],
        )
    return LocalHamiltonianCurve(
        random_hermitian(rng, dim, scale=1.0 / math.sqrt(dim)),
        random_unit_ket(rng, (dim,)),
    )


def random_product_trajectory(
    rng: np.random.Generator,
    dims: Sequence[int],
    constant_speed: bool = False,
    frozen: Sequence[bool] | None = None,
) -> ProductTrajectory:
    curves = tuple(random_factor_curve(rng, d, constant_speed) for d in dims)
    return ProductTrajectory(curves, tuple(frozen) if frozen else ())
