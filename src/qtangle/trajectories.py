"""Parameterized state curves and the tangent vectors they sweep out.

A factor curve maps a real parameter to a unit ket for one particle; a
product trajectory moves several particles independently.  Every built-in
curve has an exact derivative; stencils run when named, or under "auto" for
a user curve without velocities.  The derivative of a
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
A product trajectory stacks its factor curves the same way, once per curve
kind, dims and frozen flag, with a grid axis of 1 after the factor axis:
one evaluation at a grid (G,) gives the rows of every factor of the group,
(S, G, d), and a sweep evaluates each group once.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial import Polynomial

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
    _first_rejection,
    _integer,
    _normalized,
    _outer,
    _overlaps,
    _raise_first,
    _row_norms,
)

DEFAULT_STEP = 1e-4
METHODS = ("auto", "analytic", "central_fd", "richardson")


def _as_poly(value, name: str) -> Polynomial | np.ndarray:
    """A polynomial given as a scalar, a coefficient sequence (constant first)
    or a numpy Polynomial; an array of 2 or more axes is a stack of
    coefficient rows (..., k), one polynomial per trial or factor, kept as
    that array."""
    if isinstance(value, Polynomial):
        poly = value
    elif np.ndim(value) >= 2:
        poly = np.array(value, dtype=float)
    elif np.isscalar(value):
        poly = Polynomial([float(value)])
    else:
        poly = Polynomial([float(c) for c in value])
    if not np.all(np.isfinite(getattr(poly, "coef", poly))):
        raise ValueError(f"{name}: coefficients must be finite")
    return poly


def _trials(value: Polynomial | np.ndarray, axes: int = 1) -> tuple[int, ...] | None:
    """The leading shape of a parameter given as a stack of trials, the shape
    of an array before its last ``axes`` axes; None for a single value (a
    Polynomial, or an array of those axes alone)."""
    return value.shape[:-axes] or None if isinstance(value, np.ndarray) else None


def _same_stacking(**trials: tuple[int, ...] | None) -> None:
    """Refuse a curve whose two parameters, named with their ``_trials``, do
    not stack the same trials: evaluated on a grid, a stack's rows beside a
    single value would pair with the grid points, and two stacks of
    different trial counts would not broadcast."""
    (first, one), (second, other) = trials.items()
    if (one is None) != (other is None):
        stack, single = (first, second) if one is not None else (second, first)
        raise ValueError(
            f"{first} and {second} must both be stacks of trials or neither; {stack} is a stack, {single} is not"
        )
    if one != other:
        raise ValueError(
            f"{first} and {second} must stack the same trials; {first} stacks {one}, {second} stacks {other}"
        )


def _evaluators(
    poly: Polynomial | np.ndarray, count: int
) -> list[Callable[[np.ndarray], np.ndarray]]:
    """``poly`` and its first ``count - 1`` derivatives as functions of a grid array.

    They repeat the arithmetic of ``poly.deriv(order)`` and of
    ``Polynomial.__call__`` (domain map, then ``polyval``'s Horner scheme,
    step for step) without building polynomial objects or calling the
    ``polyval`` wrapper, which cost more than evaluating a short grid.  A
    stack of coefficient rows (M, k) gives functions of one parameter value
    per trial, (M,); a stack (S, 1, k) gives functions of a grid (G,), (S, G).
    """
    if isinstance(poly, Polynomial):
        (off, scl), coef = poly.mapparms(), poly.coef
    else:
        off, scl, coef = 0.0, 1.0, poly.transpose(-1, *range(poly.ndim - 1))

    coefs = [coef]
    for _ in range(count - 1):
        if len(coef) > 1:
            order = np.arange(1, len(coef)).reshape((-1,) + (1,) * (coef.ndim - 1))
            coef = order * (coef[1:] * scl)
        else:  # +0.0 whatever the sign of the constant, as a zero-padded stack's rows give
            coef = np.zeros_like(coef[:1])
        coefs.append(coef)
    return [lambda ts, rows=tuple(coef[::-1]): _horner(rows, off + scl * ts) for coef in coefs]


def _horner(rows: tuple, x: np.ndarray) -> np.ndarray:
    """``polyval(x, coef, tensor=False)``, given ``rows = coef[::-1]`` (highest
    degree first), by polyval's own float steps: c[-1] + x*0, then c[-i] + y*x."""
    y = rows[0] + x * 0
    for c in rows[1:]:
        y = c + y * x
    return y


def _plain_coefs(*polys) -> tuple[np.ndarray, ...] | None:
    """The coefficients of polynomials that evaluate as a stack of coefficient
    rows does (Polynomials of the default domain and window), else None."""
    if all(isinstance(p, Polynomial) and p.mapparms() == (0, 1) for p in polys):
        return tuple(p.coef for p in polys)
    return None


def _padded(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Coefficient rows as one stack (S, 1, k), zero-padded to the longest:
    leading zeros are exact in Horner's scheme."""
    out = np.zeros((len(rows), 1, max(map(len, rows))))
    for i, row in enumerate(rows):
        out[i, 0, : len(row)] = row
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
    return _unitaries(*np.linalg.eigh(mat), np.eye(mat.shape[-1], dtype=complex), t)


class FactorCurve(ABC):
    """One particle's state as a function of a real parameter."""

    dims: tuple[int, ...]

    @property
    def has_analytic(self) -> bool:
        """Whether the curve has a closed-form derivative: its class defines
        ``velocities`` or ``_states_and_velocities``."""
        own = lambda name: getattr(type(self), name) is not getattr(FactorCurve, name)
        return own("velocities") or own("_states_and_velocities")

    @abstractmethod
    def states(self, ts: np.ndarray) -> np.ndarray:
        """Unit amplitudes at each parameter value of a 1-d grid, shape (G, d)."""

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        """Closed-form derivative of the amplitudes at each grid point, (G, d)."""
        if not self.has_analytic:
            raise UnsupportedMethodError(
                f"{type(self).__name__} has no closed-form derivative; "
                "use central_fd or richardson"
            )
        return self._states_and_velocities(ts)[1]

    def state(self, t: float) -> Ket:
        """Unit ket at parameter value t."""
        return Ket(self.states(np.array([float(t)]))[0], self.dims)

    def velocity(self, t: float) -> np.ndarray:
        """Closed-form derivative of the amplitudes at t."""
        return self.velocities(np.array([float(t)]))[0]

    def _states_and_velocities(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``states(ts)`` and ``velocities(ts)``; a curve whose velocities
        re-evaluate its states overrides this to evaluate them once."""
        return self.states(ts), self.velocities(ts)

    def _stack_row(self) -> tuple | None:
        """This curve's parameters as one row of a stack of curves of its
        kind, or None for a curve that cannot stack.  A class whose curves
        stack builds one curve of several such rows with ``_stacked(rows)``:
        the rows stacked along a factor axis with a grid axis of 1 after it,
        so that at a grid (G,) it gives each curve's rows, (S, G, d)."""
        return None


class BlochCurve(FactorCurve):
    """Qubit curve cos(theta/2)|0> + e^(i*phi) sin(theta/2)|1>.

    ``theta`` and ``phi`` are polynomials in the parameter, given as a scalar,
    a coefficient sequence (constant first), or a numpy Polynomial; or both
    as stacks of coefficient rows (M, k), one curve per trial.
    """

    def __init__(self, theta, phi=0.0) -> None:
        self.theta = _as_poly(theta, "theta")
        self.phi = _as_poly(phi, "phi")
        _same_stacking(theta=_trials(self.theta), phi=_trials(self.phi))
        self._theta, self._dtheta = _evaluators(self.theta, 2)
        self._phi, self._dphi = _evaluators(self.phi, 2)
        self.dims = (2,)

    @cached_property
    def _ddtheta(self) -> Callable[[np.ndarray], np.ndarray]:
        """theta's second derivative as a function of a grid array, built on first use."""
        return _evaluators(self.theta, 3)[2]

    def states(self, ts: np.ndarray) -> np.ndarray:
        return self._amplitudes(*self._angles(ts))

    def _angles(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """cos and sin of half the polar angle, and e^(i*phi), at each point."""
        half = self._theta(ts) / 2
        return np.cos(half), np.sin(half), np.exp(1j * self._phi(ts))

    @staticmethod
    def _amplitudes(c: np.ndarray, s: np.ndarray, phase: np.ndarray) -> np.ndarray:
        amps = np.empty(c.shape + (2,), dtype=complex)
        amps[..., 0] = c
        amps[..., 1] = phase * s
        _check_amplitudes(amps, DEFAULT_TOL)
        return amps

    def _states_and_velocities(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c, s, phase = self._angles(ts)
        half, dph = self._dtheta(ts) / 2, self._dphi(ts)
        out = np.empty(c.shape + (2,), dtype=complex)
        out[..., 0] = -half * s
        out[..., 1] = phase * (half * c + 1j * dph * s)
        return self._amplitudes(c, s, phase), out

    def _stack_row(self) -> tuple | None:
        return _plain_coefs(self.theta, self.phi)

    @classmethod
    def _stacked(cls, rows: Sequence[tuple]) -> "BlochCurve":
        return cls(*map(_padded, zip(*rows)))


class PhaseCurve(FactorCurve):
    """A fixed ket acquiring the global phase e^(i*phi(t)).

    ``base`` is a Ket, or a stack of amplitude rows (M, d) with ``phi`` a
    stack of coefficient rows (M, k), one curve per trial.
    """

    def __init__(self, phi, base: Ket | np.ndarray) -> None:
        self.phi = _as_poly(phi, "phi")
        self._phi, self._dphi = _evaluators(self.phi, 2)
        amps, self.dims = _amplitude_rows(base)
        _same_stacking(phi=_trials(self.phi), base=_trials(amps))
        norms = _check_amplitudes(amps, BASE_NORM_TOL, "base ket")
        # states() checks to DEFAULT_TOL; a base already within it is kept to the bit
        off = abs(norms - 1.0) >= DEFAULT_TOL
        if np.any(off):
            amps = np.where(off[..., None], _normalized(amps, norms=norms), amps)
            base = Ket(amps, self.dims) if isinstance(base, Ket) else amps
        self.base, self._amps = base, amps

    def states(self, ts: np.ndarray) -> np.ndarray:
        amps = np.exp(1j * self._phi(ts))[..., None] * self._amps
        _check_amplitudes(amps, DEFAULT_TOL)
        return amps

    def _states_and_velocities(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        amps = self.states(ts)
        return amps, 1j * self._dphi(ts)[..., None] * amps

    def _stack_row(self) -> tuple | None:
        phi = _plain_coefs(self.phi)
        return None if phi is None or self._amps.ndim > 1 else (*phi, self._amps)

    @classmethod
    def _stacked(cls, rows: Sequence[tuple]) -> "PhaseCurve":
        phis, amps = zip(*rows)
        return cls(_padded(phis), np.array(amps)[:, None])


class LocalHamiltonianCurve(FactorCurve):
    """Schroedinger orbit exp(-i*H*t)|initial> of a constant Hermitian generator.

    ``generator`` and ``initial`` may both be stacks of the same trials,
    (M, d, d) and (M, d), one orbit per trial.
    """

    def __init__(self, generator, initial: Ket | np.ndarray) -> None:
        mat = _generator(generator)
        amps, self.dims = _amplitude_rows(initial)
        if mat.shape[-1] != amps.shape[-1]:
            raise ValueError(
                f"generator side {mat.shape[-1]} does not match state dimension "
                f"{amps.shape[-1]}"
            )
        _same_stacking(generator=_trials(mat, 2), initial=_trials(amps))
        _check_amplitudes(amps, BASE_NORM_TOL, "initial ket")
        self.generator = mat
        self.initial = initial
        self._evals, self._evecs = np.linalg.eigh(mat)
        self._coeffs = _orbit_coefficients(self._evecs, amps)

    def _amplitudes(self, ts: np.ndarray) -> np.ndarray:
        return _orbit(self._evals, self._evecs, self._coeffs, ts[:, None])

    def states(self, ts: np.ndarray) -> np.ndarray:
        amps = self._amplitudes(ts)
        _check_amplitudes(amps, BASE_NORM_TOL)
        return amps

    def _states_and_velocities(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        amps = self.states(ts)
        return amps, -1j * _matvec(self.generator, amps)

    def _stack_row(self) -> tuple | None:
        if self.generator.ndim > 2:
            return None
        return self.generator, self._evals, self._evecs, self._coeffs

    @classmethod
    def _stacked(cls, rows: Sequence[tuple]) -> "LocalHamiltonianCurve":
        """The members' eigenpairs are stacked as they are, not computed again."""
        stack = cls.__new__(cls)
        fields = (np.array(field)[:, None] for field in zip(*rows))
        stack.generator, stack._evals, stack._evecs, stack._coeffs = fields
        return stack


class SampledCurve(FactorCurve):
    """Curve tabulated on a parameter grid, evaluated by cubic interpolation.

    Norm validation happens pointwise at the samples; fidelity between nodes
    is set by the grid density.  The state u = s/|s| normalizes the spline s,
    and u' = s'/|s| - u*Re<u|s'/|s|> is exact on the whole sampled range.
    """

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
        # Imported here, not at module level: scipy.interpolate costs about
        # 0.6 s and 48 MB at import, and only sampled curves need it.
        from scipy.interpolate import CubicSpline

        self._spline = CubicSpline(times, amps, axis=0)

    def states(self, ts: np.ndarray) -> np.ndarray:
        return self._interpolated(ts)[0]

    def _states_and_velocities(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        unit, norms = self._interpolated(ts)
        slopes = self._spline(ts, 1) / norms[:, None]
        return unit, slopes - _overlaps(unit, slopes).real[:, None] * unit

    def _interpolated(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The normalized spline at each point of the sampled range, and the spline's norms."""
        lo, hi = float(self.times[0]), float(self.times[-1])
        _raise_first(
            ~((ts >= lo) & (ts <= hi)),
            lambda i: f"t={float(ts[i])!r} outside the sampled range [{lo!r}, {hi!r}]",
            ParameterRangeError,
        )
        amps = self._spline(ts)
        where = lambda i: f"interpolated state at t={float(ts[i])!r}"
        norms = _check_amplitudes(amps, _SPLINE_NORM_TOL, where)
        return _normalized(amps, norms=norms), norms


class _PhaseModulated(FactorCurve):
    """A curve multiplied by the global phase e^(i*phi(t)); a stacked curve
    takes a stack of coefficient rows."""

    def __init__(self, inner: FactorCurve, phi) -> None:
        self.inner = inner
        self.phi = _as_poly(phi, "phi")
        self._phi, self._dphi = _evaluators(self.phi, 2)
        self.dims = inner.dims

    has_analytic = property(lambda self: self.inner.has_analytic)

    def states(self, ts: np.ndarray) -> np.ndarray:
        amps = np.exp(1j * self._phi(ts))[:, None] * self.inner.states(ts)
        _check_amplitudes(amps)
        return amps

    def _states_and_velocities(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phase = np.exp(1j * self._phi(ts))[:, None]
        inner_states, inner_velocities = self.inner._states_and_velocities(ts)
        amps = phase * inner_states
        _check_amplitudes(amps)
        dphi = self._dphi(ts)[:, None]
        return amps, phase * (1j * dphi * inner_states + inner_velocities)


def with_global_phase(curve: FactorCurve, phi) -> FactorCurve:
    """Multiply a curve by the time-dependent global phase e^(i*phi(t))."""
    return _PhaseModulated(curve, phi)


class _Interleaved(FactorCurve):
    """Stacked curves of one dimension sharing one trial axis: each part
    supplies its own rows of it, so curves of several kinds form one stack."""

    def __init__(self, parts: Sequence[tuple[FactorCurve, np.ndarray]]) -> None:
        self.parts = tuple(parts)
        self.dims = self.parts[0][0].dims

    def states(self, ts: np.ndarray) -> np.ndarray:
        out = np.empty((len(ts),) + self.dims, dtype=complex)
        for curve, rows in self.parts:
            out[rows] = curve.states(ts[rows])
        return out

    def _states_and_velocities(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        states = np.empty((len(ts),) + self.dims, dtype=complex)
        velocities = np.empty_like(states)
        for curve, rows in self.parts:
            states[rows], velocities[rows] = curve._states_and_velocities(ts[rows])
        return states, velocities


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


def _orbit(evals: np.ndarray, evecs: np.ndarray, coeffs: np.ndarray, t) -> np.ndarray:
    """V (exp(-i*lambda*t) * c): the orbit of a generator of eigenpairs (lambda, V) through c."""
    return _matvec(evecs, np.exp(-1j * evals * t) * coeffs)


def _orbit_coefficients(evecs: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """c = V^H a, the eigenbasis coefficients of a: the ``_orbit`` through c starts at a."""
    return _matvec(np.swapaxes(evecs.conj(), -2, -1), amps)


def resolve_method(curves: Iterable[FactorCurve], method: str) -> str:
    """Validate a method name and resolve "auto" for the given curves.

    "auto" means analytic when every curve has a closed-form derivative, as every
    built-in one has, else richardson; an empty sequence (register steps) is analytic.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if method != "auto":
        return method
    return "analytic" if all(c.has_analytic for c in curves) else "richardson"


def _stencil(fn: Callable[[np.ndarray], np.ndarray], t, method: str, h: float) -> np.ndarray:
    """central_fd (error O(h^2)) or richardson (two central stencils, O(h^4)) of fn
    at t, a number or a grid array."""
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"step h must be positive and finite, got {h!r}")

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
    base, deriv = _curve_rows(curve, np.array([float(t)]), resolve_method((curve,), method), h)
    return TangentVector(Ket(base[0], curve.dims), deriv[0])


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

    @cached_property
    def dims(self) -> tuple[int, ...]:
        """The factors' dims in order, built once: the trajectory is frozen."""
        return tuple(d for f in self.factors for d in f.dims)

    @cached_property
    def _sizes(self) -> tuple[int, ...]:
        """The number of positions of each factor, built once."""
        return tuple(len(f.dims) for f in self.factors)

    def states(self, ts: np.ndarray) -> np.ndarray:
        """Product amplitudes at each grid point, (G, D)."""
        stacks = _grouped(self, ts, lambda curve, frozen: (curve.states(ts),))
        return reduce(_kron_rows, [rows[0] for rows in _unstacked(stacks)])

    def state(self, t: float) -> Ket:
        return Ket(self.states(np.array([float(t)]))[0], self.dims)

    @cached_property
    def _stacks(self) -> tuple[tuple[np.ndarray, FactorCurve, bool], ...]:
        """The factors in groups, filled on first use: (factors, curve, frozen)
        per group, in order of each group's first factor.  Factors of one
        curve class, dims and frozen flag that can stack share one curve of
        their stacked parameters (their class's ``_stacked``); a factor whose
        curve cannot stack is a group of its own, its curve as given."""
        groups: dict = {}
        for i, (curve, frozen) in enumerate(zip(self.factors, self.frozen)):
            row = curve._stack_row()
            key = i if row is None else (type(curve), curve.dims, frozen)
            groups.setdefault(key, []).append((i, row))
        out = []
        for key, members in groups.items():
            factors = np.array([i for i, _ in members])
            if isinstance(key, int):
                curve = self.factors[key]
            else:
                curve = key[0]._stacked([row for _, row in members])
                curve.dims = key[1]
            out.append((factors, curve, self.frozen[factors[0]]))
        return tuple(out)


def factor_tangents(
    traj: ProductTrajectory, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> list[TangentVector]:
    """Per-factor tangents at t; frozen factors get an exactly-zero direction."""
    parts = _unstacked(_factor_rows(traj, np.array([float(t)]), method, h))
    return [TangentVector(Ket(a[0], c.dims), d[0]) for c, (a, d) in zip(traj.factors, parts)]


def _factor_rows(
    traj: ProductTrajectory, ts: np.ndarray, method: str, h: float
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(factors, states, directions) of each group of the trajectory's factors
    (``ProductTrajectory._stacks``) over the grid, (S, G, d) each: one
    evaluation, one curve check and one tangent check per group.  A frozen
    group is only evaluated, and its directions are exactly zero.  "auto" is
    resolved once for the whole trajectory, over the groups' curves (a group
    shares one curve class), so every factor is differentiated by the same
    method; ``_unstacked`` gives each factor's rows."""
    method = resolve_method([curve for _, curve, _ in traj._stacks], method)

    def evaluate(curve: FactorCurve, frozen: bool) -> tuple[np.ndarray, np.ndarray]:
        if frozen:
            base = curve.states(ts)
            return base, np.zeros_like(base)
        return _curve_rows(curve, ts, method, h)

    return _grouped(traj, ts, evaluate)


def _grouped(traj: ProductTrajectory, ts: np.ndarray, evaluate: Callable) -> list[tuple[np.ndarray, ...]]:
    """(factors, *arrays) of each group of the trajectory's factors, in order:
    the arrays ``evaluate(curve, frozen)`` gives for the group's curve, each
    shaped (S, G, d); a rejection is ``_in_factor_order``'s."""
    stacks = traj._stacks

    def group(k: int) -> tuple[np.ndarray, ...]:
        factors, curve, frozen = stacks[k]
        return (factors, *(a.reshape((len(factors),) + a.shape[-2:]) for a in evaluate(curve, frozen)))

    return _in_factor_order([factors for factors, _, _ in stacks], group, ts.size)


def _in_factor_order(groups: Sequence[np.ndarray], group: Callable, size: int) -> list:
    """``group(k)`` for each group k of (ascending) factor indices in turn,
    rejecting as a loop over the factors in order would: the lowest failing
    factor, at its first failing check, with ``row`` a grid point of ``size``.

    ``group(k)`` checks the group's (S, G) rows at once; each rejection it
    records is tagged with its ``factor``.  A group whose factors all follow
    a factor already rejected is not evaluated.
    """
    out = []
    with _first_rejection(lambda exc: exc.factor) as rejected:
        for k, factors in enumerate(groups):
            if rejected and factors[0] > min(exc.factor for exc in rejected):
                continue
            seen = len(rejected)
            out.append(group(k))
            for exc in rejected[seen:]:  # a row of the group's (S, G) stack
                exc.factor, exc.row = factors[exc.row // size], exc.row % size
    return out


def _unstacked(stacks: Iterable[tuple]) -> tuple[tuple[np.ndarray, ...], ...]:
    """Each factor's arrays from stacks (factors, *arrays), views of them, in factor order."""
    rows = [(i, arrays) for factors, *stack in stacks for i, *arrays in zip(factors, *stack)]
    return tuple(tuple(arrays) for _, arrays in sorted(rows, key=lambda row: row[0]))


def _curve_rows(
    curve: FactorCurve, ts: np.ndarray, method: str, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """A curve's (states, directions) over the grid by a resolved method (not
    "auto"), checked as tangents: the only place a method differentiates a
    factor curve."""
    if method == "analytic":
        base, deriv = curve._states_and_velocities(ts)
    else:
        base = curve.states(ts)
        with _first_rejection() as rejected:
            deriv = _stencil(curve.states, ts, method, h)
            for exc in rejected:  # name the grid point the stencil was taken at
                if isinstance(exc, ParameterRangeError):
                    point = f"the {method} stencil (h={h!r}) of grid point t={float(ts[exc.row])!r}"
                    exc.args = (f"{exc}, a point of {point}",)
    _check_tangents(base, deriv)
    return base, deriv


def product_tangent(
    traj: ProductTrajectory, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> TangentVector:
    """Tangent of the product state: one term per factor, a frozen factor's exactly zero."""
    rows = _unstacked(_factor_rows(traj, np.array([float(t)]), method, h))
    state, direction = _product_rule(*rows[0], rows[1:], _kron_rows)
    return TangentVector(Ket(state[0], traj.dims), direction[0])


def _product_tangents(factors: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Product states and their tangents over the grid, each (G, D), checked as
    tangents: the product rule over each factor's (states, directions) rows in
    factor order (``_unstacked``), where a still factor's zero directions add
    an exactly-zero term.  ``product_tangent`` takes the same product rule and
    leaves its one check to ``TangentVector``."""
    states, directions = _product_rule(*factors[0], factors[1:], _kron_rows)
    _check_tangents(states, directions)
    return states, directions


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

    From the first factor ``base`` and its ``tangent``, each site (value,
    deriv) sets P <- extend(P, value) and T <- extend(T, value) + extend(P, deriv);
    with ``tangent`` None (a register's state at the start of a step, which
    does not move) the first site's term starts T.  A still site's deriv is
    exactly zero, so its term is too.  Every argument is a stack with one row
    per grid point, and ``extend`` works row by row.
    """
    for value, deriv in sites:
        moved = extend(base, deriv)
        tangent = moved if tangent is None else extend(tangent, value) + moved
        base = extend(base, value)
    return base, tangent


def horizontal_tangent(tv: TangentVector) -> TangentVector:
    """Remove the component along the base: direction - <base|direction> base.

    The result is gauge-fixed: it is unchanged (up to a global phase) when
    the underlying curve is multiplied by any time-dependent phase.
    """
    return TangentVector(tv.base, _horizontal(tv.base.amplitudes, tv.direction))


def _horizontal(base: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """``horizontal_tangent`` of each row."""
    return directions - _overlaps(base, directions)[..., None] * base


def _squared_perp_speeds(base: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """||d - <a|d> a||^2 of each row (states a, directions d): a factor's
    squared perpendicular speed."""
    return _row_norms(_horizontal(base, directions)) ** 2


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
        return _unitaries(self._evals, self._evecs, self.base, t)

    def derivative(self, t) -> np.ndarray:
        return -1j * (self.generator @ self.value(t))


def _unitaries(evals: np.ndarray, evecs: np.ndarray, base: np.ndarray, t) -> np.ndarray:
    """exp(-i*G*t) @ base from the eigenpairs of G, at t or each point of a
    grid array; curves stacked as (S, 1, d), (S, 1, d, d) give (S, G, d, d)."""
    phases = np.exp(-1j * evals * np.asarray(t)[..., None])
    return (evecs * phases[..., None, :]) @ np.swapaxes(evecs.conj(), -2, -1) @ base


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
    def _step_stacks(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """The program's curves stacked once per site dim, filled on first use: (sites,
        eigenvalues, eigenvectors, base, generator), a step axis after the site axis."""
        dims, fields = self.initial.dims, ("_evals", "_evecs", "base", "generator")
        groups = [np.flatnonzero(np.equal(dims, d)) for d in dict.fromkeys(dims)]
        stack = lambda g, name: np.array([[getattr(step[i], name) for step in self.steps] for i in g])
        return tuple((g, *(stack(g, f) for f in fields)) for g in groups)

    @cached_property
    def _site_orbits(self) -> tuple[tuple[np.ndarray, np.ndarray], ...] | None:
        """Per site dim (``_step_stacks``): each site's factor a at the start of
        each step and the coefficients of B a, (S, K, d), filled on first use.
        The initial factors are the rank-1 slices of the initial amplitude tensor
        through its largest entry, normalized, the global phase on the first; if
        their Kronecker product is off the initial state by DEFAULT_TOL, this is
        None.  Each later step starts at the previous step's orbit at parameter 1."""
        dims = self.initial.dims
        tensor = self.initial.amplitudes.reshape(dims)
        peak = np.unravel_index(np.argmax(abs(tensor)), dims)
        factors = [tensor[peak[:i] + (slice(None),) + peak[i + 1 :]] for i in range(len(dims))]
        factors = [line / np.linalg.norm(line) for line in factors]
        factors[0] = factors[0] * (tensor[peak] / math.prod(f[p] for f, p in zip(factors, peak)))
        if np.linalg.norm(reduce(np.kron, factors) - self.initial.amplitudes) >= DEFAULT_TOL:
            return None
        out = []
        for sites, evals, evecs, base, _ in self._step_stacks:
            starts, coeffs = [np.array([factors[i] for i in sites])], []
            for k in range(self.n_steps):
                coeffs.append(_orbit_coefficients(evecs[:, k], _matvec(base[:, k], starts[-1])))
                starts.append(_orbit(evals[:, k], evecs[:, k], coeffs[-1], 1.0))
            out.append((np.stack(starts[:-1], axis=1), np.stack(coeffs, axis=1)))
        return tuple(out)

    @cached_property
    def _step_table(self) -> tuple[np.ndarray, np.ndarray]:
        """A product-initial program's step table, read-only, filled on first use:
        each site's squared speed through each step, (K, n), and per step, (2, K),
        whether each site's coefficient norm, and their product, is within
        BASE_NORM_TOL of 1 (the site's orbit keeps it, its eigenvectors being
        unitary), and whether the step's squared speeds sum to a finite value.
        Through a step a site follows the orbit of its generator, so its squared
        speed is the variance of the generator's eigenvalues lambda under the
        orbit's populations |c|^2, sum |c|^2 (lambda - <lambda>)^2 with
        <lambda> = sum |c|^2 lambda, which the orbit keeps (Anandan and
        Aharonov, PRL 65, 1697 (1990))."""
        speeds, norms = np.empty((self.n_steps, self.n_sites)), np.empty((self.n_sites, self.n_steps))
        with np.errstate(all="ignore"):  # a norm or a speed that overflows fails its check
            for (sites, evals, *_), (_, coeffs) in zip(self._step_stacks, self._site_orbits):
                pops = abs(coeffs) ** 2
                mean = np.sum(pops * evals, axis=-1, keepdims=True)
                speeds[:, sites] = np.sum(pops * (evals - mean) ** 2, axis=-1).T
                norms[sites] = _row_norms(coeffs)
            defects = abs(np.concatenate([norms, norms.prod(axis=0, keepdims=True)]) - 1.0)
            checks = np.array([(defects < BASE_NORM_TOL).all(axis=0), np.isfinite(speeds.sum(axis=-1))])
        speeds.setflags(write=False)
        checks.setflags(write=False)
        return speeds, checks

    @cached_property
    def _step_starts(self) -> np.ndarray:
        """Register amplitudes at the start of each step, (K, D), filled on first use."""
        starts = [self.initial.amplitudes]
        for step in self.steps[:-1]:
            starts.append(_apply_local(starts[-1], self.initial.dims, [c.value(1.0) for c in step]))
        starts = np.array(starts)
        starts.setflags(write=False)
        return starts

    def resolve_time(self, s):
        """Map global program time in [0, n_steps] to (step index, local parameter).

        On a grid array both come back as arrays, one entry per point.
        """
        times = np.asarray(s, dtype=float)
        _raise_first(
            ~((times >= 0) & (times <= self.n_steps)),
            lambda i: f"program time {float(times.flat[i])!r} outside [0, {self.n_steps}]",
            ParameterRangeError,
        )
        k = np.minimum(np.floor(times).astype(int) + 1, self.n_steps)
        local = times - (k - 1)
        return (int(k), float(local)) if times.ndim == 0 else (k, local)


def register_state(prog: RegisterProgram, k: int, t: float) -> Ket:
    """State after steps 1..k-1 completed and step k advanced to parameter t."""
    state, _ = _register_rows(prog, k, np.array([float(t)]), "analytic", DEFAULT_STEP)
    return Ket(state[0], prog.initial.dims)


def register_tangent(
    prog: RegisterProgram, k: int, t: float, method: str = "analytic", h: float = DEFAULT_STEP
) -> TangentVector:
    """Tangent of step k at local parameter t: one term per moving site."""
    state, direction = _register_rows(prog, k, np.array([float(t)]), method, h)
    return TangentVector(Ket(state[0], prog.initial.dims), direction[0])


def _register_rows(
    prog: RegisterProgram, k, ts: np.ndarray, method: str, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Register states and tangents at each local parameter in [0, 1] of step k (one
    index, or one per point), (G, D), unchecked, every point in one pass: the product
    rule over its step's site unitaries and their derivatives, applied to the register
    at the start of that step; a constant site's derivatives are 0."""
    sweep = isinstance(k, np.ndarray) and k.dtype.kind in "iu" and k.shape == ts.shape
    if not (sweep or isinstance(k, (int, np.integer)) and not isinstance(k, bool)):
        raise ValueError(f"step index must be an integer, got {k}")
    if not np.all((1 <= k) & (k <= prog.n_steps)):
        raise ValueError(f"step index {k} outside 1..{prog.n_steps}")
    message = lambda i: f"step parameter {float(ts[i])!r} outside [0, 1]"
    _raise_first(~((ts >= 0) & (ts <= 1)), message, ParameterRangeError)
    method = resolve_method((), method)
    at = np.broadcast_to(k, ts.shape) - 1
    sites = []
    for g, *stack in prog._step_stacks:
        evals, evecs, base, gen = (arr[:, at] for arr in stack)
        unitaries = lambda t: _unitaries(evals, evecs, base, t)
        values = unitaries(ts)
        derivs = -1j * (gen @ values) if method == "analytic" else _stencil(unitaries, ts, method, h)
        derivs[~np.any(gen, axis=(-2, -1))] = 0.0
        sites += zip(g, values, derivs)
    chi = prog._step_starts[at].reshape(ts.shape + prog.initial.dims)
    state, direction = _product_rule(chi, None, [site[1:] for site in sorted(sites)], _apply_axis)
    return state.reshape(len(ts), -1), direction.reshape(len(ts), -1)


def _register_site_rows(
    prog: RegisterProgram, grid: np.ndarray, method: str, h: float
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """A product-initial program's site rows over a grid of program times, every
    step in one pass: per site dim, (sites, states, directions), (S, G, d), checked
    as tangents where made, a rejection ``_in_factor_order``'s across the site dims.
    A site's states are its step's ``_orbit`` from its start a (``_site_orbits``),
    its analytic directions the orbit through -i*lambda*c; a stencil differentiates
    the step's unitaries and applies them to a.  A constant site's directions are 0."""
    method = resolve_method((), method)
    ks, local = prog.resolve_time(grid)
    at, ts = ks - 1, local[:, None]

    def group(j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        (sites, evals, evecs, base, gen), (starts, coeffs) = prog._step_stacks[j], prog._site_orbits[j]
        evals, evecs, coeffs = evals[:, at], evecs[:, at], coeffs[:, at]
        states = _orbit(evals, evecs, coeffs, ts)
        if method == "analytic":
            directions = _orbit(evals, evecs, -1j * evals * coeffs, ts)
        else:
            unitaries = lambda t: _unitaries(evals, evecs, base[:, at], t)
            directions = _matvec(_stencil(unitaries, local, method, h), starts[:, at])
        directions[~np.any(gen, axis=(-2, -1))[:, at]] = 0.0
        _check_tangents(states, directions)
        return sites, states, directions

    return _in_factor_order([stack[0] for stack in prog._step_stacks], group, grid.size)


def _register_step_speeds(
    prog: RegisterProgram, grid: np.ndarray, method: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """A product-initial program's squared site speeds under "analytic", one
    row per step from the grid's first step to its last, (K, n), read-only
    rows of the program's step table (``RegisterProgram._step_table``); the
    row of each grid point, (G,); and each step's length within
    [grid[0], grid[-1]], (K,).  None where the per-point rows decide: under a
    stencil, for an entangled initial state, where a step the grid meets
    fails the site rows' checks, or where a step in the grid's span has a
    speed that is not finite (the table's checks), so that the
    site rows (``_register_site_rows``) name the rejection."""
    if prog._site_orbits is None or resolve_method((), method) != "analytic":
        return None
    ks, _ = prog.resolve_time(grid)
    k0, k1 = int(ks[0]), int(ks[-1])
    speeds, (unit, finite) = prog._step_table
    every = np.logical_and.reduce
    if not (every(unit[ks - 1], axis=None) and every(finite[k0 - 1 : k1], axis=None)):
        return None
    steps = np.arange(k0, k1 + 1)
    return speeds[k0 - 1 : k1], ks - k0, np.minimum(grid[-1], steps) - np.maximum(grid[0], steps - 1)


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
    if psi.dims != tangent.dims or not np.max(np.abs(psi.amplitudes - tangent.base.amplitudes)) < 1e-10:
        raise ValueError("tangent is not attached to the given state")
    drho = _projector_differentials(tangent.base.amplitudes, tangent.direction)
    return HermitianOp(epsilon * drho, psi.dims)


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
        if not all(w > 0 for w in weights):
            raise ValueError("weights must all be positive")
        if not abs(sum(weights) - 1.0) < 1e-12:
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

    @cached_property
    def _factors(self) -> ProductTrajectory:
        """Every component's factors and frozen flags in order, as one
        trajectory, filled on first use: component i holds its factors
        2i and 2i+1, and one ``_factor_rows`` call differentiates them all."""
        comps = self.components
        return ProductTrajectory(
            tuple(f for comp in comps for f in comp.factors),
            tuple(f for comp in comps for f in comp.frozen),
        )


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
    parameter value.  One ``_factor_rows`` call over ``Ensemble._factors``
    differentiates every component, so "auto" resolves once for the whole
    mixture, and a rejection is the one a loop over the components in turn
    would raise first."""
    ts = np.array(t, dtype=float).reshape(-1)
    rows = _unstacked(_factor_rows(ens._factors, ts, method, h))
    return [(w, *_factor_differentials(rows[2 * i : 2 * i + 2])) for i, w in enumerate(ens.weights)]


def _factor_differentials(
    factors: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each factor's states and projector differentials from its (states,
    directions) rows, the differentials checked Hermitian."""
    drho = [_projector_differentials(base, deriv) for base, deriv in factors]
    for mat in drho:
        _check_hermitian(mat)
    return [base for base, _ in factors], drho


def _mixed_differential(components: list[tuple]) -> np.ndarray:
    """The honest differential of the mixture over the stack."""
    total = 0
    for w, states, drho in components:
        rho = [_outer(base, base) for base in states]
        total = total + w * _product_rule(rho[0], drho[0], [(rho[1], drho[1])], _kron_rows)[1]
    return total


def infinitesimal_composition(generator, total: float, n_steps: int) -> np.ndarray:
    """Compose n identical first-order steps: (I - i*G*total/n)^n, for one
    generator or each of a stack.

    Converges to the exact propagator at rate O(1/n) in operator norm.
    """
    mat = _generator(generator)
    n_steps = _integer(n_steps)
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
    dims = tuple(_integer(d) for d in dims)
    amps = _complex_normal(rng, math.prod(dims))
    return Ket(amps / np.linalg.norm(amps), dims, unit=True)


def _random_unit_rows(rng: np.random.Generator, m: int, dim: int) -> np.ndarray:
    """m random unit amplitude rows (m, dim), unchecked: a curve built on them,
    or a tangent assembled from them, checks them."""
    amps = _complex_normal(rng, (m, dim))
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
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
    """A random analytic factor curve: the one curve ``_random_curves`` draws
    for m=1, as a plain curve.

    With ``constant_speed`` the curve is restricted to constant-generator
    families (Schroedinger orbits and affine single-angle qubit arcs), whose
    projective speed is constant in the parameter.
    """
    ((curve, _),) = _random_curves(rng, dim, 1, constant_speed).parts
    if isinstance(curve, BlochCurve):
        return BlochCurve(curve.theta[0], curve.phi[0])
    if isinstance(curve, PhaseCurve):
        return PhaseCurve(curve.phi[0], Ket(curve.base[0], curve.dims))
    return LocalHamiltonianCurve(curve.generator[0], Ket(curve.initial[0], curve.dims))


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
    """m random analytic factor curves as one stacked curve: at m parameter
    values, row i is curve i at the i-th value.  The draw order is not that
    of m calls of ``random_factor_curve``."""
    kinds = rng.integers(3 if dim == 2 else 2, size=m)  # hamiltonian, phase, bloch
    parts = []
    for kind in np.flatnonzero(np.bincount(kinds)):
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
