"""Fixed reference kernels that measure the speed of the machine right now.

On a shared host the same pass can take 10-20% longer for tens of seconds at
a time, and one process can run a few percent slower than the next: drift
that no median over one run removes.  The worker runs its workload's kernel
on the same core before and after every operation and reports each pass's
time as a multiple of those kernel times (``pass_rel``), which cancels most
of it.  A kernel only cancels drift that slows it as much as the workload,
so each workload uses the kernel shaped like its dominant cost: ``small_ops``
for work on many small validated matrices, ``dense`` for the 2^n x 2^n
Kronecker operators of wide registers.  Neither calls qtangle, so no change
to the library can move them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

_SITES = [
    np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]], dtype=complex)
    for a in np.linspace(0.1, 1.0, 10)
]
_REGISTER = np.full(2 ** len(_SITES), 2 ** (-len(_SITES) / 2), dtype=complex)


@dataclass(frozen=True)
class _Hermitian:
    """A validated read-only matrix, as the library's value types are."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if not np.all(np.isfinite(mat)) or float(np.max(np.abs(mat - mat.conj().T))) > 1e-9:
            raise ValueError("reference matrix is not Hermitian")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def small_ops(steps: int = 40) -> float:
    """Random 2-4 dimensional operators diagonalised, exponentiated, composed,
    partially traced and decomposed (about 14 ms on a 2-core sandbox)."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    for i in range(steps):
        d = 2 + i % 3
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gen = _Hermitian((a + a.conj().T) / 2)
        w, v = np.linalg.eigh(gen.matrix)
        exact = (v * np.exp(-1j * w * 0.3)) @ v.conj().T
        composed = np.linalg.matrix_power(np.eye(d) - 1j * gen.matrix / 64, 64)
        acc += float(np.linalg.norm(composed - exact, ord=2))
        psi = rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d)
        psi /= np.linalg.norm(psi)
        rho = _Hermitian(np.outer(psi, psi.conj()))
        reduced = np.einsum("abcb->ac", rho.matrix.reshape(d, 2, d, 2))
        acc += float(np.linalg.svd(psi.reshape(d, 2), compute_uv=False)[0]) + float(reduced.trace().real)
        acc += float(np.kron(psi[:2], psi[-2:]).real.sum())
    return acc


def dense() -> float:
    """A 10-site Kronecker operator applied to a register vector (about 35 ms)."""
    return float(np.linalg.norm(reduce(np.kron, _SITES) @ _REGISTER))
