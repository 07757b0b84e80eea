"""Helpers shared by several test modules."""

import math

import numpy as np

from qtangle import Ket


def same_bits(a, b):
    """Whether two arrays have the same dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_ket(rng, dims):
    """A random unit ket of the given dims: complex Gaussian amplitudes, normalized."""
    amps = rng.standard_normal(math.prod(dims)) + 1j * rng.standard_normal(math.prod(dims))
    return Ket(amps / np.linalg.norm(amps), tuple(dims))
