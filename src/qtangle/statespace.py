"""Dense complex linear algebra for states of several distinguishable particles.

Amplitude vectors are flat and row-major over the factor dimensions: the
leftmost factor is the slowest-varying index, so tensor products follow plain
``np.kron`` ordering.  Every container is immutable after construction and
every operation is a pure function, which keeps concurrent use trivially safe.

The private helpers work on stacks: a leading axis holds one row per grid
point, and a single vector or matrix is the one-row case.  Their checks run
over the whole stack and reject the first offending row, or inside a
``_first_rejection`` block record it for the block to raise.
"""

from __future__ import annotations

import math
import operator
from contextvars import ContextVar
from dataclasses import InitVar, dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from .errors import DegenerateInputError, ValidationError

# The bounds of the invariants, each checked by one function below.
DEFAULT_TOL = 1e-12  # unit norm of computed amplitudes; Hermiticity
BASE_NORM_TOL = 1e-10  # unit norm of a state handed in
_SPLINE_NORM_TOL = 1e-6  # unit norm of a spline-interpolated state
UNITARY_TOL = 1e-10
_DENSITY_TOL = 1e-10  # positivity (lowest eigenvalue) and unit trace of a density matrix
_ZERO_TOL = 1e-12  # a shorter vector is (near-)zero: it has no direction
# trace of a differential of a norm-preserving curve must vanish; beyond
# this the differentiation step size is unfit for the requested run
TRACE_TOL = 1e-8
# |Re<psi|dpsi>| of a norm-preserving motion: a direction handed in, or by method
_RE_OVERLAP_TOL = {"given": 1e-10, "analytic": 1e-12, "central_fd": 1e-8, "richardson": 1e-8}
# |trace| of a mixture sum_k p_k d(|psi_k><psi_k|), which is 2 sum_k p_k Re<psi_k|dpsi_k>:
# twice the bound on each Re<psi_k|dpsi_k>, and never below TRACE_TOL
_TRACE_TOL = {source: max(TRACE_TOL, 2 * tol) for source, tol in _RE_OVERLAP_TOL.items()}

Side = Literal["left", "right"]
_Where = str | Callable[[int], str]


def _raise_first(
    bad: np.ndarray, message: Callable[[int], str], error=ValidationError, where: _Where = ""
) -> None:
    """Raise ``error(message(i))`` for the first row i of a stack where ``bad`` holds,
    led by the field ``where`` names: a string, or a function of the row.

    The exception records that row as ``row``, so a caller holding the grid
    can name the offending point.  Inside a ``_first_rejection`` block it is
    recorded there instead of raised.
    """
    # the checks reduce through the ufuncs themselves (``np.logical_or.reduce``,
    # not ``np.count_nonzero`` or ``ndarray.all/sum/min/max``): the same loops,
    # so the same bits, without the Python wrappers those reach them through,
    # which cost more than the arithmetic on a short grid
    if np.logical_or.reduce(bad, axis=None):
        row = int(np.flatnonzero(bad)[0])
        name = where(row) if callable(where) else where
        exc = error(f"{name}: {message(row)}" if name else message(row))
        exc.row = row
        if (deferred := _DEFERRED.get()) is None:
            raise exc
        deferred.append(exc)


def _bounded(measured: np.ndarray, bound: float, message: Callable[[int], str], where: _Where = "") -> None:
    """The one rule of every bound: ``_raise_first`` the first row whose ``measured``
    value is not below ``bound``, so a value at its bound fails, and so does a NaN."""
    _raise_first(~np.less(measured, bound), message, where=where)


# the rejections of the innermost open ``_first_rejection`` block; None outside one
_DEFERRED: ContextVar[list | None] = ContextVar("_DEFERRED", default=None)


class _first_rejection:
    """A block whose checks record their rejections in the list it gives
    (``with _first_rejection(order) as rejected``); leaving it raises the
    least by ``order`` (the row), at a tie the earlier check's: the one a
    loop over the rows (or factors) in order meets first.

    A block nested in another hands its rejections on to that block.
    Arithmetic goes on over rejected rows, so floating-point warnings are off
    inside, and an error it raises there gives way to the rejection; a
    ``BaseException`` that is not an ``Exception`` passes through.
    """

    def __init__(self, order: Callable[[Exception], object] = lambda exc: exc.row) -> None:
        self._order = order

    def __enter__(self) -> list:
        self._outer, self._rejected = _DEFERRED.get(), []
        self._token = _DEFERRED.set(self._rejected)
        self._errstate = np.errstate(all="ignore")
        self._errstate.__enter__()
        return self._rejected

    def __exit__(self, kind, exc, tb) -> bool:
        self._errstate.__exit__(kind, exc, tb)
        _DEFERRED.reset(self._token)
        outer, rejected = self._outer, self._rejected
        if outer is not None:
            outer += rejected
        elif rejected and (kind is None or issubclass(kind, Exception)):
            raise min(rejected, key=self._order)
        return False


_NOT_FINITE = "amplitudes must all be finite"
_NOT_FINITE_MATRIX = "matrix entries must all be finite"


def _check_finite(values: np.ndarray, axes: tuple[int, ...], text: str, where: _Where = "") -> None:
    """Reject the first row whose entries over ``axes`` are not all finite."""
    finite = np.isfinite(values)
    if not np.logical_and.reduce(finite, axis=None):
        _raise_first(~np.logical_and.reduce(finite, axis=axes), lambda i: text, where=where)


def _check_amplitudes(
    amps: np.ndarray, tol: float | None = None, where: _Where = ""
) -> np.ndarray | None:
    """Each row (last axis) finite and, when ``tol`` is given, of unit norm to
    ``tol``; returns the norms then.  ``where`` names the field in a rejection."""
    if tol is None:
        _check_finite(amps, (-1,), _NOT_FINITE, where)
        return None
    return _check_product_amplitudes(amps[None], tol, where)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)``, to the bit: the sum of squared moduli
    and its square root that it reaches for a vector norm, without its
    argument handling, which costs more than the arithmetic on small rows."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1))


def _check_product_amplitudes(factors: np.ndarray, tol: float, where: _Where = "") -> np.ndarray:
    """``_check_amplitudes`` of the row-wise tensor product of the factor
    stacks along the first axis (zero-padded to one dim, if need be), from
    the factors alone: its norm is the product of theirs, and it has a
    non-finite entry where one of them does.  Returns the norms."""
    norms = reduce(np.multiply, _row_norms(factors))
    defect = abs(norms - 1.0)
    # a non-finite entry makes its norm non-finite, so clean rows pass this one test
    if not np.logical_and.reduce(defect < tol, axis=None):
        finite = np.logical_and.reduce(np.isfinite(factors), axis=(0, -1))
        _raise_first(~finite, lambda i: _NOT_FINITE, where=where)
        message = lambda i: f"expected a unit vector, got norm {float(norms.flat[i])!r}"
        _bounded(defect, tol, message, where)
    return norms


def _check_hermitian(mats: np.ndarray, where: _Where = "") -> None:
    """Each matrix (last two axes) finite, Hermitian and of real trace, to DEFAULT_TOL."""
    dev = np.maximum.reduce(abs(mats - mats.swapaxes(-2, -1).conj()), axis=(-2, -1))
    # a non-finite entry makes its deviation non-finite, so clean rows pass this one test
    if not np.logical_and.reduce(dev < DEFAULT_TOL, axis=None):
        _check_finite(mats, (-2, -1), _NOT_FINITE_MATRIX, where)
        message = lambda i: f"matrix is not Hermitian (max deviation {dev.flat[i]:.3e})"
        _bounded(dev, DEFAULT_TOL, message, where)
    imag = mats.trace(axis1=-2, axis2=-1).imag
    message = lambda i: f"trace has imaginary part {imag.flat[i]:.3e}"
    _bounded(abs(imag), DEFAULT_TOL, message, where)


def _check_unitary(mats: np.ndarray, where: _Where = "") -> None:
    """Each matrix (last two axes) unitary: max |U^H U - I| below UNITARY_TOL."""
    dev = abs(mats.swapaxes(-2, -1).conj() @ mats - np.eye(mats.shape[-1])).max(axis=(-2, -1))
    message = lambda i: f"matrix is not unitary (deviation {dev.flat[i]:.3e})"
    _bounded(dev, UNITARY_TOL, message, where)


def _check_traceless(traces: np.ndarray, source: str) -> None:
    """Each trace of a stack of differentials below the bound for its
    ``source`` in modulus: "given" or the method that differentiated it."""
    message = lambda i: f"differential must be traceless, got trace {traces.flat[i]:.3e}"
    _bounded(abs(traces), _TRACE_TOL[source], message)


def _check_norm_preserving(
    base: np.ndarray, directions: np.ndarray, source: str, where: _Where = ""
) -> np.ndarray:
    """<base|direction> of each row, whose real part a norm-preserving motion
    keeps below the bound for its ``source``: "given" or a method name."""
    overlaps = _overlaps(base, directions)
    re = abs(overlaps.real)
    message = lambda i: f"norm not preserved, |Re<psi|dpsi>| = {re.flat[i]:.3e}"
    _bounded(re, _RE_OVERLAP_TOL[source], message, where)
    return overlaps


_ZERO_DIRECTION = "direction is (near-)zero; nothing to normalize"


def _normalized(
    vecs: np.ndarray,
    zero: str | None = _ZERO_DIRECTION,
    error: type[Exception] = DegenerateInputError,
    norms=None,
) -> np.ndarray:
    """Each row (last axis) divided by its norm (``norms``, if already known).

    A row whose norm is below the zero floor raises ``error(zero)``, or with
    ``zero`` None becomes exactly zero, so it carries no entropy.
    """
    norms = _row_norms(vecs) if norms is None else norms
    small = np.less(norms, _ZERO_TOL)
    if zero is not None:
        _raise_first(small, lambda i: zero, error)
    unit = vecs / np.where(small, 1.0, norms)[..., None]
    unit[small] = 0.0
    _check_amplitudes(unit[~small], DEFAULT_TOL)
    return unit


def _overlaps(base: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """<base|direction> of each row, by the same BLAS dot as ``np.vdot``."""
    return np.matmul(base.conj()[..., None, :], directions[..., :, None])[..., 0, 0]


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x><y| of each row of two stacks of vectors."""
    return x[..., :, None] * y.conj()[..., None, :]


def _integer(value) -> int:
    """A public integer argument, read by ``operator.index``: a float or a str
    is refused, not truncated or parsed, and so is a bool, which is no count."""
    if isinstance(value, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(value)


def _dims_tuple(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(_integer(d) for d in dims)
    if not out:
        raise ValueError("dims must contain at least one factor")
    if any(d < 2 for d in out):
        raise ValueError(f"every factor dimension must be >= 2, got {out}")
    return out


@dataclass(frozen=True, eq=False)
class Ket:
    """A complex amplitude vector tagged with its tensor-factor dimensions.

    Args:
        amplitudes: flat complex vector of length ``prod(dims)``.
        dims: dimension of each tensor factor, all >= 2.
        unit: when set, reject vectors whose norm differs from 1 by ``tol``.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]
    unit: InitVar[bool] = False
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, unit: bool, tol: float) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be one-dimensional, got shape {amps.shape}")
        dims = _dims_tuple(self.dims)
        if amps.size != math.prod(dims):
            raise ValueError(
                f"amplitude length {amps.size} does not match dims {dims} "
                f"(product {math.prod(dims)})"
            )
        _check_amplitudes(amps, tol if unit else None)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def basis(cls, dims: Iterable[int], occupation: Sequence[int]) -> "Ket":
        """Computational basis vector |occupation[0], occupation[1], ...>."""
        dims = _dims_tuple(dims)
        occupation = tuple(_integer(k) for k in occupation)
        if len(occupation) != len(dims):
            raise ValueError("occupation must give one index per factor")
        for k, d in zip(occupation, dims):
            if not 0 <= k < d:
                raise ValueError(f"basis index {k} out of range for dimension {d}")
        amps = np.zeros(math.prod(dims), dtype=complex)
        amps[int(np.ravel_multi_index(occupation, dims))] = 1.0
        return cls(amps, dims, unit=True)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "Ket":
        message = "cannot normalize a (near-)zero vector"
        return Ket(_normalized(self.amplitudes, message, ValidationError, self.norm()), self.dims)

    def projector(self) -> "HermitianOp":
        """Rank-one operator |psi><psi|."""
        return HermitianOp(_outer(self.amplitudes, self.amplitudes), self.dims)


@dataclass(frozen=True, eq=False)
class HermitianOp:
    """A Hermitian matrix tagged with its tensor-factor dimensions."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        dims = _dims_tuple(self.dims)
        side = math.prod(dims)
        if mat.shape != (side, side):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        _check_finite(mat, (-2, -1), _NOT_FINITE_MATRIX)  # before any arithmetic, as Ket checks
        _check_hermitian(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def fro_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in ascending order."""
        return np.linalg.eigvalsh(self.matrix)


@dataclass(frozen=True)
class Cut:
    """A bipartition of factor positions into a left and a right group."""

    left: frozenset[int]
    right: frozenset[int]

    def __init__(self, left: Iterable[int], right: Iterable[int]) -> None:
        lset = frozenset(_integer(i) for i in left)
        rset = frozenset(_integer(i) for i in right)
        if not lset or not rset:
            raise ValueError("both sides of a cut must be non-empty")
        if lset & rset:
            raise ValueError(f"cut sides overlap: {sorted(lset & rset)}")
        if any(i < 0 for i in lset | rset):
            raise ValueError("factor positions must be non-negative")
        object.__setattr__(self, "left", lset)
        object.__setattr__(self, "right", rset)
        # profiles key every per-cut dict by a cut: hash it once, not per lookup
        object.__setattr__(self, "_hash", hash((lset, rset)))
        # the sides are disjoint and non-negative: n positions below n are range(n)
        object.__setattr__(self, "_span", max(lset | rset) + 1)

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def splitting(cls, left: Iterable[int], n_factors: int) -> "Cut":
        """Cut separating ``left`` from every other position in ``range(n_factors)``."""
        lset = frozenset(_integer(i) for i in left)
        rset = frozenset(range(_integer(n_factors))) - lset
        return cls(lset, rset)

    def validate_for(self, dims: Sequence[int]) -> None:
        if not self._span == len(self.left) + len(self.right) == len(dims):
            raise ValueError(
                f"cut {self.label()} does not partition the {len(dims)} factor positions"
            )

    @cached_property
    def _left_row(self) -> np.ndarray:
        """Whether each position lies left; built on first use, after ``validate_for``."""
        return np.bincount(list(self.left), minlength=self._span) > 0

    def swapped(self) -> "Cut":
        return Cut(self.right, self.left)

    def label(self) -> str:
        """Human-readable 1-based label, e.g. '12|3'."""
        fmt = lambda side: "".join(str(i + 1) for i in sorted(side))
        return f"{fmt(self.left)}|{fmt(self.right)}"


def tensor_product(factors: Sequence[Ket]) -> Ket:
    """Kronecker product of the factors, leftmost slowest-varying."""
    if not factors:
        raise ValueError("tensor_product needs at least one factor")
    amps = reduce(np.kron, (f.amplitudes for f in factors))
    dims = tuple(d for f in factors for d in f.dims)
    return Ket(amps, dims)


def inner(a: Ket, b: Ket) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    if a.total_dim != b.total_dim:
        raise ValueError(f"total dimensions differ: {a.total_dim} vs {b.total_dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def partial_trace(op: HermitianOp, cut: Cut, keep: Side = "left") -> HermitianOp:
    """Trace out one side of the cut, keeping the other.

    The kept factors appear in the result in their original ascending order.
    """
    reduced = _partial_trace(op.matrix, op.dims, cut, keep)
    kept = sorted(cut.left if keep == "left" else cut.right)
    return HermitianOp(reduced, tuple(op.dims[i] for i in kept))


# the einsum that traces one side out of (..., L, R, L, R) blocks, by the side kept
_TRACE_OUT = {"left": "...abcb->...ac", "right": "...abad->...bd"}


def _partial_trace(mats: np.ndarray, dims: tuple[int, ...], cut: Cut, keep: Side) -> np.ndarray:
    """``partial_trace`` of each matrix of a stack (last two axes), unchecked."""
    blocks = _split(mats, dims, cut, 2)
    if keep not in _TRACE_OUT:
        raise ValueError(f"keep must be 'left' or 'right', got {keep!r}")
    return np.einsum(_TRACE_OUT[keep], blocks)


def _split(stack: np.ndarray, dims: tuple[int, ...], cut: Cut, axes: int) -> np.ndarray:
    """The last ``axes`` axes of a stack regrouped by the cut: amplitude rows
    (axes 1) as (..., L, R), operators (axes 2) as (..., L, R, L, R), where L
    and R are the products of the left and right factor dimensions, each side
    in ascending factor order."""
    cut.validate_for(dims)
    lead = stack.shape[: stack.ndim - axes]
    g, n = len(lead), len(dims)
    order = sorted(cut.left) + sorted(cut.right)
    perm = [g + k * n + i for k in range(axes) for i in order]
    sides = (math.prod(dims[i] for i in cut.left), math.prod(dims[i] for i in cut.right))
    tensor = stack.reshape(lead + tuple(dims) * axes).transpose(list(range(g)) + perm)
    return tensor.reshape(lead + sides * axes)


def apply_local_unitaries(state: Ket, unitaries: Sequence[np.ndarray]) -> Ket:
    """Apply one unitary per factor; rejects non-unitary input naming the factor."""
    if len(unitaries) != state.n_factors:
        raise ValueError(
            f"need one unitary per factor ({state.n_factors}), got {len(unitaries)}"
        )
    mats = []
    for pos, (u, d) in enumerate(zip(unitaries, state.dims)):
        mat = np.asarray(u, dtype=complex)
        if mat.shape != (d, d):
            raise ValidationError(
                f"factor {pos + 1}: expected a {d}x{d} matrix, got shape {mat.shape}"
            )
        _check_unitary(mat, f"factor {pos + 1}")
        mats.append(mat)
    return Ket(_apply_local(state.amplitudes, state.dims, mats), state.dims)


def _apply_local(
    amplitudes: np.ndarray, dims: tuple[int, ...], mats: Sequence[np.ndarray]
) -> np.ndarray:
    """(mats[0] x mats[1] x ...) @ amplitudes, contracting one factor axis at a time.

    No 2^n x 2^n operator is formed, and the matrices are not checked.
    """
    psi = amplitudes.reshape((1,) + dims)
    return reduce(_apply_axis, (m[None] for m in mats), psi).reshape(-1)


def _apply_axis(psi: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Row by row, apply ``mat`` (G, d, d) to the first factor axis of ``psi``
    (G, d, ...) and move that axis last, so that one matrix per axis, applied
    in order, restores the axis order."""
    g, d = psi.shape[:2]
    out = np.matmul(mat, psi.reshape(g, d, -1)).reshape(psi.shape)
    return np.moveaxis(out, 1, -1)
