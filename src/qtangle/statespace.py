"""Dense complex linear algebra for states of several distinguishable particles.

Amplitude vectors are flat and row-major over the factor dimensions: the
leftmost factor is the slowest-varying index, so tensor products follow plain
``np.kron`` ordering.  Every container is immutable after construction and
every operation is a pure function, which keeps concurrent use trivially safe.

The private helpers work on stacks: a leading axis holds one row per grid
point, and a single vector or matrix is the one-row case.  Their checks run
over the whole stack and reject the first offending row.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import reduce
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from .errors import ValidationError

DEFAULT_TOL = 1e-12
UNITARY_TOL = 1e-10

Side = Literal["left", "right"]


def _raise_first(
    bad: np.ndarray, message: Callable[[int], str], error: type[Exception] = ValidationError
) -> None:
    """Raise ``error(message(i))`` for the first row i of a stack where ``bad`` holds.

    The exception records that row as ``row``, so a caller holding the grid
    can name the offending point.
    """
    if np.count_nonzero(bad):
        row = int(np.flatnonzero(bad)[0])
        exc = error(message(row))
        exc.row = row
        raise exc


def _check_finite(values: np.ndarray, axes: tuple[int, ...], message: str) -> None:
    """Reject the first row whose entries over ``axes`` are not all finite."""
    finite = np.isfinite(values)
    if not finite.all():
        _raise_first(~finite.all(axis=axes), lambda i: message, ValueError)


def _check_amplitudes(amps: np.ndarray, tol: float | None = None) -> None:
    """Each row (last axis) finite and, when ``tol`` is given, of unit norm."""
    _check_finite(amps, (-1,), "amplitudes must all be finite")
    if tol is not None:
        norms = np.linalg.norm(amps, axis=-1)
        _raise_first(
            abs(norms - 1.0) >= tol, lambda i: f"expected a unit vector, got norm {norms.flat[i]!r}"
        )


def _check_hermitian(mats: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    """Each matrix (last two axes) finite, Hermitian and of real trace, to ``tol``."""
    _check_finite(mats, (-2, -1), "matrix entries must all be finite")
    dev = abs(mats - mats.swapaxes(-2, -1).conj()).max(axis=(-2, -1))
    _raise_first(dev >= tol, lambda i: f"matrix is not Hermitian (max deviation {dev.flat[i]:.3e})")
    imag = mats.trace(axis1=-2, axis2=-1).imag
    _raise_first(abs(imag) >= tol, lambda i: f"trace has imaginary part {imag.flat[i]:.3e}")


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x><y| of each row of two stacks of vectors."""
    return x[..., :, None] * y.conj()[..., None, :]


def _dims_tuple(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
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
        occupation = tuple(int(k) for k in occupation)
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
        n = self.norm()
        if n < DEFAULT_TOL:
            raise ValidationError("cannot normalize a (near-)zero vector")
        return Ket(self.amplitudes / n, self.dims, unit=True)

    def projector(self) -> "HermitianOp":
        """Rank-one operator |psi><psi|."""
        return HermitianOp(_outer(self.amplitudes, self.amplitudes), self.dims)


@dataclass(frozen=True, eq=False)
class HermitianOp:
    """A Hermitian matrix tagged with its tensor-factor dimensions."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float) -> None:
        mat = np.array(self.matrix, dtype=complex)
        dims = _dims_tuple(self.dims)
        side = math.prod(dims)
        if mat.shape != (side, side):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        _check_hermitian(mat, tol)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    @property
    def side(self) -> int:
        return self.matrix.shape[0]

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
        lset = frozenset(int(i) for i in left)
        rset = frozenset(int(i) for i in right)
        if not lset or not rset:
            raise ValueError("both sides of a cut must be non-empty")
        if lset & rset:
            raise ValueError(f"cut sides overlap: {sorted(lset & rset)}")
        if any(i < 0 for i in lset | rset):
            raise ValueError("factor positions must be non-negative")
        object.__setattr__(self, "left", lset)
        object.__setattr__(self, "right", rset)

    @classmethod
    def splitting(cls, left: Iterable[int], n_factors: int) -> "Cut":
        """Cut separating ``left`` from every other position in ``range(n_factors)``."""
        lset = frozenset(int(i) for i in left)
        rset = frozenset(range(n_factors)) - lset
        return cls(lset, rset)

    def validate_for(self, dims: Sequence[int]) -> None:
        if self.left | self.right != frozenset(range(len(dims))):
            raise ValueError(
                f"cut {self.label()} does not partition the {len(dims)} factor positions"
            )

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


def _partial_trace(mats: np.ndarray, dims: tuple[int, ...], cut: Cut, keep: Side) -> np.ndarray:
    """``partial_trace`` of each matrix of a stack (last two axes), unchecked."""
    cut.validate_for(dims)
    if keep not in ("left", "right"):
        raise ValueError(f"keep must be 'left' or 'right', got {keep!r}")
    kept = sorted(cut.left if keep == "left" else cut.right)
    traced = sorted(cut.right if keep == "left" else cut.left)
    lead = mats.shape[:-2]
    n, g = len(dims), len(lead)
    tensor = mats.reshape(lead + dims + dims)
    perm = kept + traced + [n + i for i in kept] + [n + i for i in traced]
    tensor = tensor.transpose(list(range(g)) + [g + i for i in perm])
    d_keep = math.prod(dims[i] for i in kept)
    d_out = math.prod(dims[i] for i in traced)
    return np.einsum("...abcb->...ac", tensor.reshape(lead + (d_keep, d_out, d_keep, d_out)))


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
        dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(d))))
        if dev >= UNITARY_TOL:
            raise ValidationError(
                f"factor {pos + 1}: matrix is not unitary (deviation {dev:.3e})"
            )
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
