import sys
from collections import Counter

import numpy as np
import pytest

from qtangle import FactorCurve

# the invariant checks: each statespace check, and the tangent check built on them
CHECKS = (
    "_check_finite",
    "_check_amplitudes",
    "_check_product_amplitudes",
    "_check_hermitian",
    "_check_unitary",
    "_check_traceless",
    "_check_norm_preserving",
    "_check_tangents",
)


class StatesOnly(FactorCurve):
    """A curve's states alone: a user curve with no closed-form derivative."""

    def __init__(self, curve: FactorCurve) -> None:
        self.curve, self.dims = curve, curve.dims

    def states(self, ts: np.ndarray) -> np.ndarray:
        return self.curve.states(ts)


@pytest.fixture
def states_only():
    """``states_only(curve)``: the curve's states as a ``FactorCurve`` with no velocities."""
    return StatesOnly


@pytest.fixture
def count_evaluations(monkeypatch):
    """``count(curve)`` starts counting the curve's evaluations from outside
    it, by hook: ``states``, ``velocities`` and the joint
    ``_states_and_velocities``.  A call made while another of them runs is
    part of that evaluation and is not counted."""

    def count(curve) -> dict[str, int]:
        calls = {"states": 0, "velocities": 0, "_states_and_velocities": 0}
        running = []
        for name in calls:
            original = getattr(curve, name)

            def counting(ts, name=name, original=original):
                calls[name] += not running
                running.append(name)
                try:
                    return original(ts)
                finally:
                    running.pop()

            monkeypatch.setattr(curve, name, counting)
        return calls

    return count


@pytest.fixture
def count_checks(monkeypatch):
    """``count_checks()`` starts counting calls of the invariant checks
    (``CHECKS``) by name, in every qtangle module that holds one, and returns
    the counter.  A check called while another runs is part of that one and
    is not counted."""

    def count() -> Counter:
        calls, running = Counter(), []

        def counted(name, original):
            def counting(*args, **kwargs):
                if not running:
                    calls[name] += 1
                running.append(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    running.pop()

            return counting

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("qtangle"):
                for name in CHECKS:
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        return calls

    return count
