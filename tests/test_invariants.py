"""The bound of every invariant check, pinned from both sides.

Each check reached from a public constructor or function gets an input off
by half its tolerance, which must pass, and one off by twice its tolerance,
which must fail with the check's exception class.  The tolerances are
written out here as numbers, so moving any of them fails a case.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

import qtangle
from qtangle import (
    BlochCurve,
    Cut,
    DegenerateInputError,
    Ensemble,
    FactorCurve,
    HermitianOp,
    Ket,
    LocalHamiltonianCurve,
    MeasurementSetting,
    ParameterRangeError,
    PhaseCurve,
    ProductTrajectory,
    RegisterProgram,
    SampledCurve,
    TangentVector,
    ToleranceBreachError,
    UnitaryCurve,
    ValidationError,
    apply_local_unitaries,
    base_state_separability,
    bilocal_inner_check,
    correlation_matrix,
    curve_through,
    differential_trace_witness,
    entanglement_entropy,
    fs_distance,
    parse_config,
    profile,
    propagator,
    register_state,
    run,
)
from qtangle.cli import main
from qtangle.mixed_witness import _separability, _trace_witness

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
    *(
        case(
            bound,
            lambda off, method=method: _trace_witness(
                np.diag([off, 0.0, 0.0, 0.0]).astype(complex), (2, 2), 1e-6, method
            ),
            f"trace-{method}",
        )
        for method, bound in (("analytic", 1e-8), ("central_fd", 2e-8), ("richardson", 2e-8))
    ),
    # norm preservation, Re<psi|dpsi>
    case(1e-10, lambda off: curve_through(Ket(E0, (2,)), np.array([off, 1j])), "curve_through"),
    case(1e-12, leaky_pair("analytic"), "bipartite-analytic"),
    case(1e-8, leaky_pair("central_fd"), "bipartite-central_fd"),
    case(1e-8, leaky_pair("richardson"), "bipartite-richardson"),
    # a density matrix: positivity, its lowest eigenvalue -off, and unit trace
    case(
        1e-10,
        lambda off: base_state_separability(HermitianOp(np.diag([1 + off, -off, 0.0, 0.0]), (2, 2)), CUT),
        "separability-positive",
    ),
    case(
        1e-10,
        lambda off: base_state_separability(HermitianOp(np.eye(4) * (1 + off) / 4, (2, 2)), CUT),
        "separability-unit-trace",
    ),
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


NAN = float("nan")
# checks whose defect is NaN on a non-finite input, each with the message it rejects it by
NAN_DEFECTS = [
    pytest.param(
        lambda: UnitaryCurve(np.zeros((2, 2)), [[NAN, 0.0], [0.0, 1.0]]),
        ValidationError,
        "base: matrix is not unitary (deviation nan)",
        id="UnitaryCurve-base",
    ),
    pytest.param(
        lambda: apply_local_unitaries(Ket.basis((2, 2), (0, 0)), [np.diag([NAN, 1.0]), np.eye(2)]),
        ValidationError,
        "factor 1: matrix is not unitary (deviation nan)",
        id="apply_local_unitaries",
    ),
    pytest.param(
        lambda: _trace_witness(np.diag([NAN, 0.0, 0.0, 0.0]).astype(complex), (2, 2), 1e-6, "given"),
        ValidationError,
        "differential must be traceless, got trace nan+0.000e+00j",
        id="traceless",
    ),
    pytest.param(
        lambda: curve_through(Ket(E0, (2,)), np.array([NAN, 0.0])),
        ValidationError,
        "direction: norm not preserved, |Re<psi|dpsi>| = nan",
        id="curve_through",
    ),
    pytest.param(
        lambda: RegisterProgram(((UnitaryCurve.rotation(SY),) * 2,) * 2, Ket.basis((2, 2), (0, 0)))
        .resolve_time([0.2, NAN]),
        ParameterRangeError,
        "program time nan outside [0, 2]",
        id="resolve_time",
    ),
    pytest.param(
        lambda: register_state(RegisterProgram(((UnitaryCurve.rotation(SY),) * 2,), Ket.basis((2, 2), (0, 0))), 1, NAN),
        ParameterRangeError,
        "step parameter nan outside [0, 1]",
        id="register_state",
    ),
    pytest.param(
        lambda: profile(ProductTrajectory((BlochCurve([0.0, 1.0]),) * 2), [0.0, NAN, 1.0], [CUT]),
        ValueError,
        "grid must be strictly increasing",
        id="profile-grid",
    ),
    pytest.param(
        lambda: SampledCurve([0.0, 1.0, 2.0, 3.0], [Ket(E0, (2,))] * 4).states(np.array([0.5, NAN])),
        ParameterRangeError,
        "t=nan outside the sampled range [0.0, 3.0]",
        id="SampledCurve-range",
    ),
    pytest.param(
        lambda: Ensemble((NAN, 0.5), (ProductTrajectory((BlochCurve([0.0, 1.0]),) * 2),) * 2),
        ValueError,
        "weights must all be positive",
        id="Ensemble-weight",
    ),
]


@pytest.mark.parametrize("call, error, message", NAN_DEFECTS)
def test_nan_defect_is_not_below_the_bound(call, error, message):
    """A NaN defect compares false with every bound, so each check rejects
    unless its defect is below the bound, and it rejects with its own message."""
    with pytest.raises(error) as info:
        call()
    assert info.type is error and str(info.value) == message


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


def test_eigenvalue_at_the_positivity_bound_is_rejected():
    """A lowest eigenvalue of exactly -1e-10 is not below the bound in size."""
    state = np.diag([1 + 1e-10, -1e-10, 0.0, 0.0]).astype(complex)
    assert np.linalg.eigvalsh(state)[0] == -1e-10
    with pytest.raises(ValidationError, match=r"^operator is not positive \(min eigenvalue -1\.000e-10\)$"):
        _separability(state, (2, 2), CUT)


def test_channel_gap_at_its_tolerance_is_a_breach(tmp_path, capsys):
    """A product_trace run whose tol equals its own worst channel gap exits 3."""
    doc = {
        "scenario": "product_trace",
        "subsystems": [
            {"dim": 2, "curve": {"kind": "bloch", "theta": [0.3, 1.0], "phi": [0.0, 0.7]}},
            {"dim": 2, "curve": {"kind": "hamiltonian", "generator": [[0, 1], [1, 0]], "initial": [1, 0]}},
        ],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    worst = max(max(row["channel_gap_1"], row["channel_gap_2"], row["bilocal_gap"]) for row in rows)
    assert worst > 0
    assert main(["--config", str(path), "--tol", repr(worst)]) == 3
    assert "exceeds tolerance" in capsys.readouterr().err


def package_nodes():
    """(module, node) of each syntax node in the package."""
    for path in sorted(Path(qtangle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield path.name, node


def raise_first_calls():
    """(module, line, condition, error) of each ``_raise_first`` call in the package."""
    for module, node in package_nodes():
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and getattr(func, "id", getattr(func, "attr", None)) == "_raise_first":
            error = [*node.args[2:3], *(k.value for k in node.keywords if k.arg == "error")]
            yield module, node.lineno, node.args[0], error[0] if error else None


def test_every_bound_goes_through_bounded():
    """No ``_raise_first`` condition compares a value with a bound, save the
    parameter-range checks (ParameterRangeError): a bound is ``_bounded``'s,
    the one rule under which a value at its bound, or NaN, is rejected."""
    calls = list(raise_first_calls())
    assert len(calls) > 5
    for module, line, condition, error in calls:
        ranged = isinstance(error, ast.Name) and error.id == "ParameterRangeError"
        compares = any(isinstance(node, ast.Compare) for node in ast.walk(condition))
        assert ranged or not compares, f"{module}:{line}: a bound checked outside _bounded"


def private_definitions(tree):
    """Each single-underscore function or class at a module's top level, and
    each such method of a top-level class."""
    for node in tree.body:
        for sub in [node, *(node.body if isinstance(node, ast.ClassDef) else ())]:
            if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and sub.name[:1] == "_" != sub.name[1:2]:
                yield sub


def referenced_names(node):
    """The names an ``ast.Name``, an ``ast.Attribute`` or a ``from`` import refers to."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_no_private_definition_is_dead():
    """Every private function, class and method is reached, by name, attribute
    or import, from somewhere in the package outside its own definition: one
    that only the tests reach is dead code."""
    nodes = list(package_nodes())
    uses = [(module, node.lineno, name) for module, node in nodes for name in referenced_names(node)]
    definitions = [
        (module, d) for module, node in nodes if isinstance(node, ast.Module) for d in private_definitions(node)
    ]
    assert len(definitions) > 50
    for module, node in definitions:
        outside = [
            line for m, line, name in uses
            if name == node.name and not (m == module and node.lineno <= line <= node.end_lineno)
        ]
        assert outside, f"{module}:{node.lineno}: {node.name} is reached from nowhere else in the package"


def test_no_raise_passes_a_value_at_a_float_bound():
    """No ``if`` that raises compares a value with a float bound by ``>`` or
    ``>=``: written ``not x < bound``, it rejects a value at its bound, and
    NaN, as ``_bounded`` does."""
    for module, node in package_nodes():
        if isinstance(node, ast.If) and any(isinstance(stmt, ast.Raise) for stmt in node.body):
            for cmp in (sub for sub in ast.walk(node.test) if isinstance(sub, ast.Compare)):
                above = any(isinstance(op, (ast.Gt, ast.GtE)) for op in cmp.ops)
                floats = any(isinstance(c, ast.Constant) and isinstance(c.value, float) for c in cmp.comparators)
                assert not (above and floats), f"{module}:{node.lineno}: a float bound that passes NaN"
