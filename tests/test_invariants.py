"""The bound of every invariant check, pinned from both sides.

Each check reached from a public constructor or function gets an input off
by half its tolerance, which must pass, and one off by twice its tolerance,
which must fail with the check's exception class.  The tolerances are
written out here as numbers, so moving any of them fails a case.
"""

import json
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from qtangle import (
    BlochCurve,
    Cut,
    DegenerateInputError,
    FactorCurve,
    HermitianOp,
    Ket,
    LocalHamiltonianCurve,
    MeasurementSetting,
    PhaseCurve,
    ProductTrajectory,
    RegisterProgram,
    SampledCurve,
    TangentVector,
    ToleranceBreachError,
    UnitaryCurve,
    ValidationError,
    apply_local_unitaries,
    bilocal_inner_check,
    correlation_matrix,
    curve_through,
    differential_trace_witness,
    entanglement_entropy,
    fs_distance,
    parse_config,
    profile,
    propagator,
    run,
)

SY = np.array([[0.0, -1j], [1j, 0.0]])
E0 = np.array([1.0, 0.0])
CUT = Cut.splitting((0,), 2)


def stretched(off: float, dims=(2,)) -> Ket:
    """|0...0> scaled to norm 1 + off, unchecked."""
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[0] = 1 + off
    return Ket(amps, dims)


def off_hermitian(off: float) -> np.ndarray:
    """A matrix whose largest |M - M^H| entry is ``off``."""
    return np.array([[0.0, 1.0 + off], [1.0, 0.0]])


def off_unitary(off: float) -> np.ndarray:
    """A matrix whose largest |U^H U - I| entry is ``off``."""
    return np.diag([math.sqrt(1 + off), 1.0])


def interpolated(off: float) -> np.ndarray:
    """A sampled qubit arc evaluated between nodes where the spline's norm is off by ``off``."""
    times = np.linspace(0.0, 1.0, 5)
    kets = [Ket(np.array([math.cos(t), math.sin(t)]), (2,)) for t in times]
    curve = SampledCurve(times, kets)
    spline = CubicSpline(times, np.array([k.amplitudes for k in kets]), axis=0)
    defect = lambda t: abs(np.linalg.norm(spline(t)) - 1) - off
    peak = times[0] + (times[1] - times[0]) / 2
    assert defect(peak) > 0, "the arc must leave the unit sphere by more than off"
    t = brentq(defect, times[0], peak, xtol=1e-15)
    return curve.states(np.array([t]))


class Stretching(FactorCurve):
    """(1 + off*t)|0>: unit at t = 0, where Re<psi|dpsi> = off."""

    dims = (2,)

    def __init__(self, off: float) -> None:
        self.off = off

    def states(self, ts: np.ndarray) -> np.ndarray:
        return np.outer(1 + self.off * ts, E0).astype(complex)

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        return np.outer(np.full(len(ts), self.off), E0).astype(complex)


def leaky_pair(method: str):
    def call(off: float):
        traj = ProductTrajectory((Stretching(off), BlochCurve([0.3, 1.0])))
        return bilocal_inner_check(traj, 0.0, method=method)

    return call


def case(tol: float, call, name: str, error=ValidationError):
    return pytest.param(tol, error, call, id=name)


BOUNDS = [
    # unit norm
    case(1e-12, lambda off: Ket(stretched(off).amplitudes, (2,), unit=True), "Ket"),
    case(
        1e-10,
        lambda off: PhaseCurve(0.3, stretched(off)).states(np.array([0.0, 1.0])),
        "PhaseCurve-base",
    ),
    case(1e-10, lambda off: LocalHamiltonianCurve(SY, stretched(off)), "Hamiltonian-initial"),
    case(
        1e-10,
        lambda off: SampledCurve([0.0, 1.0, 2.0, 3.0], [Ket(E0, (2,))] * 3 + [stretched(off)]),
        "SampledCurve-sample",
    ),
    case(1e-6, interpolated, "SampledCurve-interpolated"),
    case(1e-10, lambda off: TangentVector(stretched(off), np.array([0.0, 1j])), "TangentVector"),
    case(
        1e-10,
        lambda off: RegisterProgram(
            ((UnitaryCurve.rotation(SY), UnitaryCurve.rotation(SY)),), stretched(off, (2, 2))
        ),
        "RegisterProgram-initial",
    ),
    case(1e-10, lambda off: fs_distance(stretched(off), Ket.basis((2,), (1,))), "fs_distance"),
    case(1e-10, lambda off: correlation_matrix(stretched(off, (2, 2))), "correlation_matrix"),
    case(
        1e-12,
        lambda off: MeasurementSetting(np.array([0.0, 0.0, 1.0 + off]), np.array([0.0, 0.0, 1.0])),
        "MeasurementSetting",
    ),
    # Hermiticity
    case(1e-12, lambda off: HermitianOp(off_hermitian(off), (2,)), "HermitianOp"),
    case(1e-12, lambda off: propagator(off_hermitian(off), 0.3), "generator"),
    # unitarity
    case(1e-10, lambda off: UnitaryCurve.constant(off_unitary(off)), "UnitaryCurve-base"),
    case(
        1e-10,
        lambda off: apply_local_unitaries(Ket.basis((2, 2), (0, 0)), [np.eye(2), off_unitary(off)]),
        "apply_local_unitaries",
    ),
    # traceless differential
    case(
        1e-8,
        lambda off: differential_trace_witness(HermitianOp(np.diag([off, 0.0, 0.0, 0.0]), (2, 2))),
        "differential_trace_witness",
    ),
    # norm preservation, Re<psi|dpsi>
    case(1e-10, lambda off: curve_through(Ket(E0, (2,)), np.array([off, 1j])), "curve_through"),
    case(1e-12, leaky_pair("analytic"), "bipartite-analytic"),
    case(1e-8, leaky_pair("central_fd"), "bipartite-central_fd"),
    case(1e-8, leaky_pair("richardson"), "bipartite-richardson"),
]


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("tol, error, call", BOUNDS)
def test_bound(tol, error, call, factor):
    if factor < 1:
        call(factor * tol)
        return
    with pytest.raises(error) as info:
        call(factor * tol)
    assert info.type is error


def unit_direction(norm: float) -> Ket:
    return TangentVector(Ket(E0, (2,)), np.array([0.0, 1j * norm])).normalized_direction()


ZERO_FLOORS = [
    pytest.param(ValidationError, lambda norm: Ket(norm * E0, (2,)).normalized(), id="Ket"),
    pytest.param(DegenerateInputError, unit_direction, id="normalized_direction"),
    pytest.param(
        DegenerateInputError,
        lambda norm: entanglement_entropy(Ket(np.array([norm, 0.0, 0.0, 0.0]), (2, 2)), CUT),
        id="entanglement_entropy",
    ),
]


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("error, call", ZERO_FLOORS)
def test_zero_floor(error, call, factor):
    """A vector twice the 1e-12 floor long has a direction; one half as long is rejected."""
    if factor > 1:
        call(factor * 1e-12)
        return
    with pytest.raises(error) as info:
        call(factor * 1e-12)
    assert info.type is error


@pytest.mark.parametrize("factor, entropy", [(0.5, 0.0), (2.0, 1.0)])
def test_zero_motion_floor_in_profile(factor, entropy):
    """Below the 1e-12 floor a horizontal tangent counts as zero motion and
    carries no entropy; above it, two equally moving qubits carry one ebit."""
    rate = factor * 1e-12 * math.sqrt(2)  # each qubit's velocity has norm rate/2
    traj = ProductTrajectory((BlochCurve([0.3, rate]), BlochCurve([1.1, rate])))
    prof = profile(traj, [0.0, 1.0], [CUT])
    assert prof.tangent_entropy[CUT] == pytest.approx([entropy, entropy], abs=1e-9)


def test_untraceless_pseudo_pure_run_is_a_breach_at_its_point():
    """A central difference too coarse for an accelerating arc leaves the
    differential with a trace; the run stops at the first such point."""
    arc = lambda theta: {"dim": 2, "curve": {"kind": "bloch", "theta": theta}}
    doc = {
        "scenario": "pseudo_pure",
        "subsystems": [arc([0.0, 0.0, 1.0]), arc([0.0, 1.0])],
        "method": {"name": "central_fd", "h": 0.1},
        "grid": {"t0": 0.5, "t1": 1.5, "steps": 11},
    }
    with pytest.raises(ToleranceBreachError, match=r"trace -4\.998e-04.* at t=0\.5"):
        run(parse_config(json.dumps(doc)))
