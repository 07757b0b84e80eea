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

The analytic curves also take their parameters stacked, one per trial along
a leading axis; evaluated at one parameter value per trial, such a curve
gives one row per trial, so randomized checks run all their trials at once.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial import Polynomial
from scipy.interpolate import CubicSpline

from .errors import ParameterRangeError, UnsupportedMethodError
from .statespace import (
    BASE_NORM_TOL,
    DEFAULT_TOL,
    _SPLINE_NORM_TOL,
    HermitianOp,
    Ket,
    _apply_axis,
    _apply_local,
    _check_amplitudes,
    _check_finite,
    _check_hermitian,
    _check_norm_preserving,
    _check_unitary,
    _normalized,
    _outer,
    _overlaps,
    _raise_first,
)

DEFAULT_STEP = 1e-4
METHODS = ("auto", "analytic", "central_fd", "richardson")


def _as_poly(value, name: str) -> Polynomial | np.ndarray:
    """A polynomial given as a scalar, a coefficient sequence (constant first)
    or a numpy Polynomial; a 2-d array is a stack of coefficient rows (M, k),
    one polynomial per trial, kept as that array."""
    if isinstance(value, Polynomial):
        poly = value
    elif np.ndim(value) == 2:
        poly = np.array(value, dtype=float)
    elif np.isscalar(value):
        poly = Polynomial([float(value)])
    else:
        poly = Polynomial([float(c) for c in value])
    if not np.all(np.isfinite(getattr(poly, "coef", poly))):
        raise ValueError(f"{name}: coefficients must be finite")
    return poly


def _evaluators(
    poly: Polynomial | np.ndarray, count: int
) -> list[Callable[[np.ndarray], np.ndarray]]:
    """``poly`` and its first ``count - 1`` derivatives as functions of a grid array.

    They repeat the arithmetic of ``poly.deriv(order)`` and of
    ``Polynomial.__call__`` (domain map, then Horner) without building
    polynomial objects, which costs more than evaluating a short grid.  A
    stack of coefficient rows (M, k) gives functions of one parameter value
    per trial, (M,).
    """
    if isinstance(poly, Polynomial):
        (off, scl), coef = poly.mapparms(), poly.coef
    else:
        off, scl, coef = 0.0, 1.0, poly.T

    def evaluator(coef: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        def values(ts: np.ndarray) -> np.ndarray:
            x = off + scl * ts
            out = coef[-1] + x * 0
            for c in coef[-2::-1]:
                out = c + out * x
            return out

        return values

    out = [evaluator(coef)]
    for _ in range(count - 1):
        if len(coef) > 1:
            order = np.arange(1, len(coef)).reshape((-1,) + (1,) * (coef.ndim - 1))
            coef = order * (coef[1:] * scl)
        else:
            coef = coef[:1] * 0
        out.append(evaluator(coef))
    return out


def _generator(value) -> np.ndarray:
    """A generator as a square matrix, or a stack of them (M, d, d), checked Hermitian."""
    mat = value.matrix if isinstance(value, HermitianOp) else np.asarray(value, dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"generator: expected a square matrix, got shape {mat.shape}")
    _check_hermitian(mat, where="generator")
    return mat


def _amplitude_rows(state) -> tuple[np.ndarray, tuple[int, ...]]:
    """A Ket's amplitudes and dims, or a stack of one factor's amplitude rows
    (M, d) and (d,)."""
    if isinstance(state, Ket):
        return state.amplitudes, state.dims
    amps = np.asarray(state, dtype=complex)
    return amps, amps.shape[-1:]


def propagator(generator, t: float) -> np.ndarray:
    """exp(-i * generator * t) for a Hermitian generator, or for each of a
    stack of them, via eigendecomposition."""
    mat = _generator(generator)
    w, v = np.linalg.eigh(mat)
    return (v * np.exp(-1j * w * t)[..., None, :]) @ np.swapaxes(v.conj(), -2, -1)


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
    a coefficient sequence (constant first), or a numpy Polynomial; or both
    as stacks of coefficient rows (M, k), one curve per trial.
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
    """A fixed ket acquiring the global phase e^(i*phi(t)).

    ``base`` is a Ket, or a stack of amplitude rows (M, d) with ``phi`` a
    stack of coefficient rows (M, k), one curve per trial.
    """

    def __init__(self, phi, base: Ket | np.ndarray) -> None:
        self.phi = _as_poly(phi, "phi")
        self._phi, self._dphi = _evaluators(self.phi, 2)
        amps, self.dims = _amplitude_rows(base)
        norms = _check_amplitudes(amps, BASE_NORM_TOL, "base ket")
        # states() checks to DEFAULT_TOL; a base already within it is kept to the bit
        off = abs(norms - 1.0) >= DEFAULT_TOL
        if np.any(off):
            amps = np.where(off[..., None], _normalized(amps, norms=norms), amps)
            base = Ket(amps, self.dims) if isinstance(base, Ket) else amps
        self.base, self._amps = base, amps

    def states(self, ts: np.ndarray) -> np.ndarray:
        amps = np.exp(1j * self._phi(ts))[:, None] * self._amps
        _check_amplitudes(amps, DEFAULT_TOL)
        return amps

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        return 1j * self._dphi(ts)[:, None] * self.states(ts)


class LocalHamiltonianCurve(FactorCurve):
    """Schroedinger orbit exp(-i*H*t)|initial> of a constant Hermitian generator.

    ``generator`` and ``initial`` may be stacks, (M, d, d) and (M, d), one
    orbit per trial.
    """

    def __init__(self, generator, initial: Ket | np.ndarray) -> None:
        mat = _generator(generator)
        amps, self.dims = _amplitude_rows(initial)
        if mat.shape[-1] != amps.shape[-1]:
            raise ValueError(
                f"generator side {mat.shape[-1]} does not match state dimension "
                f"{amps.shape[-1]}"
            )
        _check_amplitudes(amps, BASE_NORM_TOL, "initial ket")
        self.generator = mat
        self.initial = initial
        self._evals, self._evecs = np.linalg.eigh(mat)
        self._coeffs = _matvec(np.swapaxes(self._evecs.conj(), -2, -1), amps)

    def _amplitudes(self, ts: np.ndarray) -> np.ndarray:
        return _matvec(self._evecs, np.exp(-1j * self._evals * ts[:, None]) * self._coeffs)

    def states(self, ts: np.ndarray) -> np.ndarray:
        amps = self._amplitudes(ts)
        _check_amplitudes(amps, BASE_NORM_TOL)
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
        amps = np.array([k.amplitudes for k in states])
        _check_amplitudes(amps, BASE_NORM_TOL, lambda i: f"sample {i} (t={float(times[i])!r})")
        self.times = times
        self.dims = dims
        self._spline = CubicSpline(times, amps, axis=0)

    def states(self, ts: np.ndarray) -> np.ndarray:
        lo, hi = self.times[0], self.times[-1]
        _raise_first(
            (ts < lo) | (ts > hi),
            lambda i: f"t={float(ts[i])!r} outside the sampled range [{lo!r}, {hi!r}]",
            ParameterRangeError,
        )
        amps = self._spline(ts)
        where = lambda i: f"interpolated state at t={float(ts[i])!r}"
        return _normalized(amps, norms=_check_amplitudes(amps, _SPLINE_NORM_TOL, where))


class _PhaseModulated(FactorCurve):
    """A curve multiplied by the global phase e^(i*phi(t)); a stacked curve
    takes a stack of coefficient rows."""

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


class _Interleaved(FactorCurve):
    """Stacked curves of one dimension sharing one trial axis: each part
    supplies its own rows of it, so curves of several kinds form one stack."""

    def __init__(self, parts: Sequence[tuple[FactorCurve, np.ndarray]]) -> None:
        self.parts = tuple(parts)
        self.dims = self.parts[0][0].dims
        self.has_analytic = all(curve.has_analytic for curve, _ in self.parts)

    def _merged(self, ts: np.ndarray, evaluate: Callable) -> np.ndarray:
        out = np.empty((len(ts),) + self.dims, dtype=complex)
        for curve, rows in self.parts:
            out[rows] = evaluate(curve, ts[rows])
        return out

    def states(self, ts: np.ndarray) -> np.ndarray:
        return self._merged(ts, lambda curve, t: curve.states(t))

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        return self._merged(ts, lambda curve, t: curve.velocities(t))


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
    _check_amplitudes(base, BASE_NORM_TOL, "base")


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
    method = resolve_method((curve,), method)
    return TangentVector(curve.state(t), _directions(curve, np.array([float(t)]), method, h)[0])


def _directions(curve: FactorCurve, ts: np.ndarray, method: str, h: float) -> np.ndarray:
    """Derivative of the curve's amplitudes at each grid point, (G, d), by a
    resolved method (not "auto")."""
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

    def states(self, ts: np.ndarray) -> np.ndarray:
        """Product amplitudes at each grid point, (G, D)."""
        return reduce(_kron_rows, [curve.states(ts) for curve in self.factors])

    def state(self, t: float) -> Ket:
        return Ket(self.states(np.array([float(t)]))[0], self.dims)


def factor_tangents(
    traj: ProductTrajectory, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> list[TangentVector]:
    """Per-factor tangents at t; frozen factors get an exactly-zero direction."""
    parts = _factor_rows(traj, np.array([float(t)]), method, h)
    return [
        TangentVector(Ket(base[0], curve.dims), deriv[0])
        for curve, (base, deriv) in zip(traj.factors, parts)
    ]


def _factor_rows(
    traj: ProductTrajectory, ts: np.ndarray, method: str, h: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each factor's (states, directions) over the grid; a frozen factor's
    directions are exactly zero.  "auto" is resolved once for the whole
    trajectory, so every factor is differentiated by the same method."""
    method = resolve_method(traj.factors, method)
    rows = []
    for curve, frozen in zip(traj.factors, traj.frozen):
        base = curve.states(ts)
        if frozen:
            deriv = np.zeros_like(base)
        else:
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
    rows = [
        (base, None if frozen else deriv)
        for (base, deriv), frozen in zip(_factor_rows(traj, ts, method, h), traj.frozen)
    ]
    return _product_rule(*rows[0], rows[1:], _kron_rows)


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
        gen = _generator(self.generator)
        if gen.ndim != 2:
            raise ValueError(f"generator: expected a square matrix, got shape {gen.shape}")
        base = np.asarray(self.base, dtype=complex)
        if base.shape != gen.shape:
            raise ValueError(f"base shape {base.shape} does not match generator {gen.shape}")
        _check_unitary(base, "base")
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
        gen = _generator(generator)
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
        _check_amplitudes(self.initial.amplitudes, BASE_NORM_TOL, "initial register state")
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


def separable_mixed_differential(
    ens: Ensemble, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> HermitianOp:
    """Differential of a separable mixture with fixed weights.

    Per component the product rule gives d(rho1) x rho2 + rho1 x d(rho2);
    no second-order d x d term appears.
    """
    honest = _mixed_differential(_component_differentials(ens, t, method, h))
    return HermitianOp(honest[0], ens.dims)


def _component_differentials(
    ens: Ensemble, t: float | np.ndarray, method: str, h: float
) -> list[tuple]:
    """(weight, factor states, factor projector differentials) of each
    component at t, a number or a grid array; each a stack with one row per
    parameter value."""
    ts = np.array(t, dtype=float).reshape(-1)
    return [
        (w, *_factor_differentials(comp, ts, method, h))
        for w, comp in zip(ens.weights, ens.components)
    ]


def _factor_differentials(
    traj: ProductTrajectory, ts: np.ndarray, method: str, h: float
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each factor's states and projector differentials over the grid, the
    differentials checked Hermitian."""
    factors = _factor_rows(traj, ts, method, h)
    drho = [_projector_differentials(base, deriv) for base, deriv in factors]
    for mat in drho:
        _check_hermitian(mat)
    return [base for base, _ in factors], drho


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
    """Compose n identical first-order steps: (I - i*G*total/n)^n, for one
    generator or each of a stack.

    Converges to the exact propagator at rate O(1/n) in operator norm.
    """
    mat = _generator(generator)
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    step = np.eye(mat.shape[-1], dtype=complex) - 1j * mat * (float(total) / n_steps)
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
    psi = state.amplitudes
    overlap = complex(_check_norm_preserving(psi, d, "given", "direction"))
    gen = 1j * (np.outer(d, psi.conj()) - np.outer(psi, d.conj()))
    gen += overlap.imag * np.outer(psi, psi.conj())
    return LocalHamiltonianCurve(gen, state)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian entries: all real parts drawn, then all imaginary."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unit_ket(rng: np.random.Generator, dims: Iterable[int]) -> Ket:
    dims = tuple(int(d) for d in dims)
    amps = _complex_normal(rng, math.prod(dims))
    return Ket(amps / np.linalg.norm(amps), dims, unit=True)


def _random_unit_rows(rng: np.random.Generator, m: int, dim: int) -> np.ndarray:
    """m random unit amplitude rows (m, dim), checked unit to DEFAULT_TOL."""
    amps = _complex_normal(rng, (m, dim))
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    _check_amplitudes(amps, DEFAULT_TOL)
    return amps


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    return _random_hermitians(rng, (), dim, scale)


def _random_hermitians(
    rng: np.random.Generator, lead: tuple[int, ...], dim: int, scale: float = 1.0
) -> np.ndarray:
    """Random Hermitian matrices of shape ``lead + (dim, dim)``."""
    a = _complex_normal(rng, lead + (dim, dim))
    return scale * (a + np.swapaxes(a.conj(), -2, -1)) / 2


def random_admissible_direction(rng: np.random.Generator, state: Ket) -> np.ndarray:
    """Random direction with Re<psi|d> = 0 and a non-trivial part off the state ray."""
    return _admissible_rows(rng, state.amplitudes[None])[0]


def _admissible_rows(rng: np.random.Generator, psi: np.ndarray) -> np.ndarray:
    """``random_admissible_direction`` for each unit row of ``psi`` (M, d); the
    rows whose part off the ray is 1e-6 or shorter are drawn again, in batches."""
    out = np.empty_like(psi)
    todo = np.arange(len(psi))
    while todo.size:
        rows = psi[todo]
        d = _complex_normal(rng, rows.shape)
        d -= _overlaps(rows, d).real[:, None] * rows
        perp = d - _overlaps(rows, d)[:, None] * rows
        kept = np.linalg.norm(perp, axis=-1) > 1e-6
        out[todo[kept]] = d[kept]
        todo = todo[~kept]
    return out


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


def _random_curves(
    rng: np.random.Generator, dim: int, m: int, constant_speed: bool = False
) -> FactorCurve:
    """m random analytic factor curves, of the kinds and laws of
    ``random_factor_curve``, as one stacked curve: at m parameter values, row
    i is curve i at the i-th value.  The draw order is not that of m calls."""
    kinds = rng.integers(3 if dim == 2 else 2, size=m)  # hamiltonian, phase, bloch
    parts = []
    for kind in np.unique(kinds):
        rows = np.flatnonzero(kinds == kind)
        n = rows.size
        if kind == 0:
            gens = _random_hermitians(rng, (n,), dim, scale=1.0 / math.sqrt(dim))
            curve = LocalHamiltonianCurve(gens, _random_unit_rows(rng, n, dim))
        elif kind == 1:
            curve = PhaseCurve(rng.normal(size=(n, 2)), _random_unit_rows(rng, n, dim))
        elif constant_speed:
            # one angle affine, the other constant (a zero slope)
            theta_moves = rng.integers(2, size=n).astype(bool)[:, None]
            affine = rng.normal(scale=(1.0, 0.8), size=(n, 2))
            still = np.where(theta_moves[:, 0], rng.normal(size=n), rng.uniform(0.4, 2.7, size=n))
            still = np.column_stack([still, np.zeros(n)])
            curve = BlochCurve(
                np.where(theta_moves, affine, still), np.where(theta_moves, still, affine)
            )
        else:
            scale = (1.0, 1.0, 0.5)
            theta, phi = rng.normal(scale=scale, size=(2, n, 3))
            curve = BlochCurve(theta, phi)
        parts.append((curve, rows))
    return _Interleaved(parts)


def _random_trajectories(
    rng: np.random.Generator, dims: Sequence[int], m: int, constant_speed: bool = False
) -> ProductTrajectory:
    """m random product trajectories of the given factor dims, stacked."""
    return ProductTrajectory(tuple(_random_curves(rng, d, m, constant_speed) for d in dims))
