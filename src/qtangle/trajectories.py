"""Parameterized state curves and the tangent vectors they sweep out.

A factor curve maps a real parameter to a unit ket for one particle; a
product trajectory moves several particles independently.  Differentiation
is analytic where the curve has a closed form and falls back to central
differences with Richardson extrapolation otherwise.  The derivative of a
product of curves distributes over the factors, so the assembled tangent of
a product trajectory is a sum of terms each moving exactly one factor;
factors marked frozen contribute exactly zero.
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

from .errors import (
    DegenerateInputError,
    ParameterRangeError,
    UnsupportedMethodError,
    ValidationError,
)
from .statespace import DEFAULT_TOL, HermitianOp, Ket, _apply_local, tensor_product

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
    def state(self, t: float) -> Ket:
        """Unit ket at parameter value t."""

    def velocity(self, t: float) -> np.ndarray:
        """Closed-form derivative of the amplitudes at t."""
        raise UnsupportedMethodError(
            f"{type(self).__name__} has no closed-form derivative; "
            "use central_fd or richardson"
        )


class BlochCurve(FactorCurve):
    """Qubit curve cos(theta/2)|0> + e^(i*phi) sin(theta/2)|1>.

    ``theta`` and ``phi`` are polynomials in the parameter, given as a scalar,
    a coefficient sequence (constant first), or a numpy Polynomial.
    """

    def __init__(self, theta, phi=0.0) -> None:
        self.theta = _as_poly(theta, "theta")
        self.phi = _as_poly(phi, "phi")
        self.dims = (2,)

    def state(self, t: float) -> Ket:
        th = self.theta(t)
        amps = [math.cos(th / 2), np.exp(1j * self.phi(t)) * math.sin(th / 2)]
        return Ket(amps, (2,), unit=True)

    def velocity(self, t: float) -> np.ndarray:
        th, dth = self.theta(t), self.theta.deriv()(t)
        ph, dph = self.phi(t), self.phi.deriv()(t)
        half, c, s = dth / 2, math.cos(th / 2), math.sin(th / 2)
        return np.array([-half * s, np.exp(1j * ph) * (half * c + 1j * dph * s)])


class PhaseCurve(FactorCurve):
    """A fixed ket acquiring the global phase e^(i*phi(t))."""

    def __init__(self, phi, base: Ket) -> None:
        self.phi = _as_poly(phi, "phi")
        if abs(base.norm() - 1) >= BASE_NORM_TOL:
            raise ValidationError(f"base ket must be unit norm, got {base.norm()!r}")
        self.base = base
        self.dims = base.dims

    def state(self, t: float) -> Ket:
        return Ket(np.exp(1j * self.phi(t)) * self.base.amplitudes, self.dims, unit=True)

    def velocity(self, t: float) -> np.ndarray:
        return 1j * self.phi.deriv()(t) * self.state(t).amplitudes


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

    def _amplitudes(self, t: float) -> np.ndarray:
        return self._evecs @ (np.exp(-1j * self._evals * t) * self._coeffs)

    def state(self, t: float) -> Ket:
        return Ket(self._amplitudes(t), self.dims, unit=True, tol=1e-10)

    def velocity(self, t: float) -> np.ndarray:
        return -1j * (self.generator @ self._amplitudes(t))


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

    def _check_range(self, t: float) -> None:
        if t < self.times[0] or t > self.times[-1]:
            raise ParameterRangeError(
                f"t={t!r} outside the sampled range "
                f"[{self.times[0]!r}, {self.times[-1]!r}]"
            )

    def state(self, t: float) -> Ket:
        self._check_range(t)
        amps = self._spline(t)
        norm = np.linalg.norm(amps)
        if abs(norm - 1) >= 1e-6:
            raise ValidationError(f"interpolated state at t={t!r} has norm {norm!r}")
        return Ket(amps / norm, self.dims, unit=True)


class _PhaseModulated(FactorCurve):
    """A curve multiplied by the global phase e^(i*phi(t))."""

    def __init__(self, inner: FactorCurve, phi) -> None:
        self.inner = inner
        self.phi = _as_poly(phi, "phi")
        self.dims = inner.dims
        self.has_analytic = inner.has_analytic

    def state(self, t: float) -> Ket:
        base = self.inner.state(t)
        return Ket(np.exp(1j * self.phi(t)) * base.amplitudes, self.dims)

    def velocity(self, t: float) -> np.ndarray:
        phase = np.exp(1j * self.phi(t))
        inner_state = self.inner.state(t).amplitudes
        return phase * (1j * self.phi.deriv()(t) * inner_state + self.inner.velocity(t))


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
    parameter_label: str = "t"

    def __post_init__(self) -> None:
        direction = np.array(self.direction, dtype=complex)
        if direction.shape != self.base.amplitudes.shape:
            raise ValueError(
                f"direction shape {direction.shape} does not match base "
                f"{self.base.amplitudes.shape}"
            )
        if not np.all(np.isfinite(direction)):
            raise ValueError("direction entries must all be finite")
        if abs(self.base.norm() - 1) >= BASE_NORM_TOL:
            raise ValidationError(f"base must be unit norm, got {self.base.norm()!r}")
        direction.setflags(write=False)
        object.__setattr__(self, "direction", direction)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.base.dims

    def norm(self) -> float:
        return float(np.linalg.norm(self.direction))

    def base_overlap(self) -> complex:
        """<base|direction>."""
        return complex(np.vdot(self.base.amplitudes, self.direction))

    def normalized_direction(self) -> Ket:
        n = self.norm()
        if n < 1e-12:
            raise DegenerateInputError("direction is (near-)zero; nothing to normalize")
        return Ket(self.direction / n, self.dims, unit=True)


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


def _stencil(fn: Callable[[float], np.ndarray], t: float, method: str, h: float) -> np.ndarray:
    """central_fd (error O(h^2)) or richardson (two central stencils, O(h^4)) of fn at t."""
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
    t = float(t)
    method = resolve_method((curve,), method)
    if method == "analytic":
        direction = curve.velocity(t)
    else:
        direction = _stencil(lambda s: curve.state(s).amplitudes, t, method, h)
    return TangentVector(curve.state(t), direction)


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
    out = []
    for curve, frozen in zip(traj.factors, traj.frozen):
        if frozen:
            base = curve.state(t)
            out.append(TangentVector(base, np.zeros_like(base.amplitudes)))
        else:
            out.append(differentiate(curve, t, method, h))
    return out


def product_tangent(
    traj: ProductTrajectory, t: float, method: str = "auto", h: float = DEFAULT_STEP
) -> TangentVector:
    """Tangent of the product state: one term per unfrozen factor."""
    return _sum_rule(factor_tangents(traj, t, method, h), traj.frozen)


def _sum_rule(parts: Sequence[TangentVector], frozen: Sequence[bool]) -> TangentVector:
    """Assemble per-factor tangents into the tangent of their product.

    Each term tensors the direction of a single unfrozen factor with the
    base states of all the others.
    """
    states = [p.base.amplitudes for p in parts]
    total = np.zeros(math.prod(s.size for s in states), dtype=complex)
    for i, (part, is_frozen) in enumerate(zip(parts, frozen)):
        if is_frozen:
            continue
        slots = states.copy()
        slots[i] = part.direction
        total += reduce(np.kron, slots)
    return TangentVector(tensor_product([p.base for p in parts]), total)


def horizontal_tangent(tv: TangentVector) -> TangentVector:
    """Remove the component along the base: direction - <base|direction> base.

    The result is gauge-fixed: it is unchanged (up to a global phase) when
    the underlying curve is multiplied by any time-dependent phase.
    """
    overlap = tv.base_overlap()
    return TangentVector(
        tv.base, tv.direction - overlap * tv.base.amplitudes, tv.parameter_label
    )


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

    def value(self, t: float) -> np.ndarray:
        # the same arithmetic as propagator(self.generator, t) @ self.base
        u = (self._evecs * np.exp(-1j * self._evals * t)) @ self._evecs.conj().T
        return u @ self.base

    def derivative(self, t: float) -> np.ndarray:
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

    def resolve_time(self, s: float) -> tuple[int, float]:
        """Map global program time in [0, n_steps] to (step index, local parameter)."""
        if s < 0 or s > self.n_steps:
            raise ParameterRangeError(
                f"program time {s!r} outside [0, {self.n_steps}]"
            )
        k = min(int(math.floor(s)) + 1, self.n_steps)
        return k, s - (k - 1)


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
    if not 1 <= k <= prog.n_steps:
        raise ValueError(f"step index {k} outside 1..{prog.n_steps}")
    method = resolve_method((), method)
    chi = prog._step_starts[k - 1]
    dims = prog.initial.dims
    step = prog.steps[k - 1]
    values = [c.value(t) for c in step]

    def deriv(curve: UnitaryCurve) -> np.ndarray:
        if method == "analytic":
            return curve.derivative(t)
        return _stencil(curve.value, t, method, h)

    total = np.zeros_like(chi)
    for i, curve in enumerate(step):
        if np.max(np.abs(curve.generator)) == 0 and method == "analytic":
            continue  # constant site contributes exactly zero
        slots = values.copy()
        slots[i] = deriv(curve)
        total += _apply_local(chi, dims, slots)
    base = Ket(_apply_local(chi, dims, values), dims)
    return TangentVector(base, total)


# ---------------------------------------------------------------------------
# differentials of density operators


def projector_differential(tv: TangentVector) -> HermitianOp:
    """d(|psi><psi|) = |dpsi><psi| + |psi><dpsi| for the given tangent."""
    psi, dpsi = tv.base.amplitudes, tv.direction
    mat = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
    return HermitianOp(mat, tv.dims)


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

    Per component the product rule gives rho1 x d(rho2) + d(rho1) x rho2;
    no second-order d x d term appears.
    """
    total = np.zeros((math.prod(ens.dims),) * 2, dtype=complex)
    for w, comp in zip(ens.weights, ens.components):
        parts = factor_tangents(comp, t, method, h)
        rho = [p.base.projector().matrix for p in parts]
        drho = [projector_differential(p).matrix for p in parts]
        total += w * (np.kron(rho[0], drho[1]) + np.kron(drho[0], rho[1]))
    return HermitianOp(total, ens.dims)


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
