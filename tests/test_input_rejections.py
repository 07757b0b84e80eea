"""The input rejections of the public constructors and functions, one row each.

Each row is a call on malformed input, the exception class it must raise
(exactly that class, not a subclass) and its whole message.
"""

import json

import numpy as np
import pytest

from qtangle import (
    BlochCurve,
    ConfigError,
    Cut,
    Ensemble,
    HermitianOp,
    Ket,
    LocalHamiltonianCurve,
    MeasurementSetting,
    PhaseCurve,
    ProductTrajectory,
    RegisterProgram,
    SampledCurve,
    TangentVector,
    UnitaryCurve,
    ValidationError,
    apply_local_unitaries,
    correlation_expansion,
    curve_through,
    differential_trace_witness,
    differentiate,
    fs_distance,
    infinitesimal_composition,
    inner,
    parse_config,
    profile,
    register_state,
    register_tangent,
    tensor_product,
)
from qtangle.cli import main
from qtangle.trajectories import random_unit_ket

QUBIT = Ket(np.array([1.0, 0.0]), (2,))
QUTRIT = Ket(np.array([1.0, 0.0, 0.0]), (3,))
PAIR = Ket.basis((2, 2), (0, 0))
ARC = BlochCurve([0.0, 1.0])
Z_X = MeasurementSetting(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
STILL_QUBIT = UnitaryCurve.constant(np.eye(2))
STILL_QUTRIT = UnitaryCurve.constant(np.eye(3))
ORBIT3 = LocalHamiltonianCurve(np.eye(3), QUTRIT)
FLOAT_INDEX = "'float' object cannot be interpreted as an integer"
BOOL_INDEX = "'bool' object cannot be interpreted as an integer"
STILL_PAIR = RegisterProgram(((STILL_QUBIT, STILL_QUBIT),), PAIR)
ARC_PAIR = ProductTrajectory((ARC, ARC))

# grids whose np.linspace points are not finite and strictly increasing,
# though t0 < t1: each with the message of its diagnostic
BAD_GRIDS = {
    # points [nan, inf, 1e308]
    "grid-span-overflows": (
        {"t0": -1e308, "t1": 1e308, "steps": 3},
        "grid: the 3 points from t0=-1e+308 to t1=1e+308 are not finite and strictly increasing",
    ),
    # points [0, 0, 5e-324]
    "grid-below-subnormal-spacing": (
        {"t0": 0, "t1": 5e-324, "steps": 3},
        "grid: the 3 points from t0=0.0 to t1=5e-324 are not finite and strictly increasing",
    ),
    # points [1, 1, 1, 1.0000000000000002]
    "grid-below-one-ulp-spacing": (
        {"t0": 1, "t1": 1.0000000000000002, "steps": 4},
        "grid: the 4 points from t0=1.0 to t1=1.0000000000000002 are not finite and strictly increasing",
    ),
}


def grid_document(grid: dict) -> str:
    return json.dumps({"scenario": "two_qubit_demo", "grid": grid})

REJECTIONS = [
    *(
        pytest.param(lambda grid=grid: parse_config(grid_document(grid)), ConfigError, message, id=name)
        for name, (grid, message) in BAD_GRIDS.items()
    ),
    pytest.param(
        lambda: Ket(np.eye(2), (2,)),
        ValueError,
        "amplitudes must be one-dimensional, got shape (2, 2)",
        id="Ket-2d",
    ),
    pytest.param(
        lambda: Ket([], ()),
        ValueError,
        "dims must contain at least one factor",
        id="Ket-no-dims",
    ),
    pytest.param(
        lambda: Ket([1.0], (1,)),
        ValueError,
        "every factor dimension must be >= 2, got (1,)",
        id="Ket-dim-1",
    ),
    pytest.param(
        lambda: Ket.basis((2, 2), (0,)),
        ValueError,
        "occupation must give one index per factor",
        id="basis-occupation-length",
    ),
    pytest.param(
        lambda: Ket.basis((2, 3), (1, 3)),
        ValueError,
        "basis index 3 out of range for dimension 3",
        id="basis-index",
    ),
    pytest.param(
        lambda: HermitianOp(np.eye(3), (2,)),
        ValueError,
        "matrix shape (3, 3) does not match dims (2,)",
        id="HermitianOp-shape",
    ),
    pytest.param(
        lambda: Cut((-1,), (0,)),
        ValueError,
        "factor positions must be non-negative",
        id="Cut-negative",
    ),
    pytest.param(
        lambda: tensor_product([]),
        ValueError,
        "tensor_product needs at least one factor",
        id="tensor_product-empty",
    ),
    pytest.param(
        lambda: inner(QUBIT, QUTRIT),
        ValueError,
        "total dimensions differ: 2 vs 3",
        id="inner-dims",
    ),
    pytest.param(
        lambda: fs_distance(QUBIT, QUTRIT),
        ValueError,
        "total dimensions differ: 2 vs 3",
        id="fs_distance-dims",
    ),
    pytest.param(
        lambda: apply_local_unitaries(PAIR, [np.eye(2)]),
        ValueError,
        "need one unitary per factor (2), got 1",
        id="apply_local_unitaries-count",
    ),
    pytest.param(
        lambda: apply_local_unitaries(PAIR, [np.eye(2), np.eye(3)]),
        ValidationError,
        "factor 2: expected a 2x2 matrix, got shape (3, 3)",
        id="apply_local_unitaries-shape",
    ),
    pytest.param(
        lambda: BlochCurve([0.0, np.inf]),
        ValueError,
        "theta: coefficients must be finite",
        id="polynomial-finite",
    ),
    pytest.param(
        lambda: LocalHamiltonianCurve(np.zeros((2, 3)), QUBIT),
        ValueError,
        "generator: expected a square matrix, got shape (2, 3)",
        id="generator-square",
    ),
    pytest.param(
        lambda: SampledCurve([0.0, 1.0, 2.0, 3.0], [QUBIT] * 3),
        ValueError,
        "4 times but 3 states",
        id="SampledCurve-count",
    ),
    pytest.param(
        lambda: SampledCurve([0.0, 1.0, 2.0, 3.0], [QUBIT] * 3 + [QUTRIT]),
        ValueError,
        "sample 3 has dims (3,), expected (2,)",
        id="SampledCurve-dims",
    ),
    pytest.param(
        lambda: TangentVector(QUBIT, np.zeros(3)),
        ValueError,
        "direction shape (3,) does not match base (2,)",
        id="TangentVector-shape",
    ),
    pytest.param(
        lambda: UnitaryCurve(np.zeros((2, 2)), np.eye(3)),
        ValueError,
        "base shape (3, 3) does not match generator (2, 2)",
        id="UnitaryCurve-base-shape",
    ),
    pytest.param(
        lambda: ProductTrajectory((ARC,)),
        ValueError,
        "a product trajectory needs at least 2 factors",
        id="ProductTrajectory-one-factor",
    ),
    pytest.param(
        lambda: ProductTrajectory((ARC, ARC), (True,)),
        ValueError,
        "frozen flags must match the number of factors",
        id="ProductTrajectory-frozen-length",
    ),
    pytest.param(
        lambda: ProductTrajectory((ARC, ARC), (True, True)),
        ValueError,
        "at least one factor must be unfrozen",
        id="ProductTrajectory-all-frozen",
    ),
    pytest.param(
        lambda: RegisterProgram((), PAIR),
        ValueError,
        "a register program needs at least one step",
        id="RegisterProgram-no-steps",
    ),
    pytest.param(
        lambda: RegisterProgram(((STILL_QUBIT,),), PAIR),
        ValueError,
        "step 1 has 1 curves, expected 2",
        id="RegisterProgram-step-length",
    ),
    pytest.param(
        lambda: RegisterProgram(((STILL_QUBIT, STILL_QUTRIT),), PAIR),
        ValueError,
        "step 1, site 2: curve dimension 3 does not match factor dimension 2",
        id="RegisterProgram-site-dim",
    ),
    pytest.param(
        lambda: Ensemble((), ()),
        ValueError,
        "an ensemble needs at least one component",
        id="Ensemble-empty",
    ),
    pytest.param(
        lambda: Ensemble((1.0,), (ProductTrajectory((ARC, ARC)),) * 2),
        ValueError,
        "1 weights for 2 components",
        id="Ensemble-weight-count",
    ),
    pytest.param(
        lambda: Ensemble((0.5, 0.5), (ProductTrajectory((ARC, ARC)), ProductTrajectory((ARC, ORBIT3)))),
        ValueError,
        "component 2 has dims (2, 3), expected (2, 2)",
        id="Ensemble-dims",
    ),
    pytest.param(
        lambda: infinitesimal_composition(np.eye(2), 1.0, 0),
        ValueError,
        "n_steps must be >= 1, got 0",
        id="infinitesimal_composition-steps",
    ),
    pytest.param(
        lambda: curve_through(QUBIT, np.zeros(3)),
        ValueError,
        "direction shape does not match the state",
        id="curve_through-shape",
    ),
    pytest.param(
        lambda: correlation_expansion(ProductTrajectory((ARC,) * 3), 0.3, Z_X),
        ValueError,
        "need a two-factor trajectory",
        id="correlation_expansion-three-factors",
    ),
    pytest.param(
        lambda: correlation_expansion(ProductTrajectory((PhaseCurve(0.0, QUBIT), ARC)), 0.3, Z_X),
        ValueError,
        "factor 1: only single-angle qubit curves are supported",
        id="correlation_expansion-not-bloch",
    ),
    pytest.param(
        lambda: correlation_expansion(ProductTrajectory((ARC, ARC), (False, True)), 0.3, Z_X),
        ValueError,
        "frozen factors are not supported here",
        id="correlation_expansion-frozen",
    ),
    # integer arguments are read by operator.index: a float or a str is refused, not truncated or parsed
    pytest.param(
        lambda: Cut((0.5,), (1,)),
        TypeError,
        FLOAT_INDEX,
        id="Cut-float-position",
    ),
    pytest.param(
        lambda: Cut(("0",), (1,)),
        TypeError,
        "'str' object cannot be interpreted as an integer",
        id="Cut-str-position",
    ),
    pytest.param(
        lambda: Cut.splitting((0.5,), 2),
        TypeError,
        FLOAT_INDEX,
        id="Cut.splitting-float-position",
    ),
    pytest.param(
        lambda: Ket(np.ones(4) / 2, (2.5, 2)),
        TypeError,
        FLOAT_INDEX,
        id="Ket-float-dims",
    ),
    pytest.param(
        lambda: HermitianOp(np.eye(4) / 4, (2, 2.0)),
        TypeError,
        FLOAT_INDEX,
        id="HermitianOp-float-dims",
    ),
    pytest.param(
        lambda: Ket.basis((2, 2), (0, 1.7)),
        TypeError,
        FLOAT_INDEX,
        id="Ket.basis-float-occupation",
    ),
    pytest.param(
        lambda: infinitesimal_composition(np.eye(2), 1.0, 2.7),
        TypeError,
        FLOAT_INDEX,
        id="infinitesimal_composition-float-steps",
    ),
    pytest.param(
        lambda: random_unit_ket(np.random.default_rng(0), (2.0, 2)),
        TypeError,
        FLOAT_INDEX,
        id="random_unit_ket-float-dims",
    ),
    # a bool is no count: True is refused where the integer 1 is taken
    pytest.param(
        lambda: Cut((True,), (False,)),
        TypeError,
        BOOL_INDEX,
        id="Cut-bool-position",
    ),
    pytest.param(
        lambda: Cut.splitting((True,), 2),
        TypeError,
        BOOL_INDEX,
        id="Cut.splitting-bool-position",
    ),
    pytest.param(
        lambda: Ket(np.ones(4) / 2, (2, True)),
        TypeError,
        BOOL_INDEX,
        id="Ket-bool-dims",
    ),
    pytest.param(
        lambda: HermitianOp(np.eye(4) / 4, (True, 2)),
        TypeError,
        BOOL_INDEX,
        id="HermitianOp-bool-dims",
    ),
    pytest.param(
        lambda: Ket.basis((2, 2), (True, False)),
        TypeError,
        BOOL_INDEX,
        id="Ket.basis-bool-occupation",
    ),
    pytest.param(
        lambda: infinitesimal_composition(np.eye(2), 1.0, True),
        TypeError,
        BOOL_INDEX,
        id="infinitesimal_composition-bool-steps",
    ),
    pytest.param(
        lambda: random_unit_ket(np.random.default_rng(0), (2, True)),
        TypeError,
        BOOL_INDEX,
        id="random_unit_ket-bool-dims",
    ),
    pytest.param(
        lambda: register_state(STILL_PAIR, True, 0.5),
        ValueError,
        "step index must be an integer, got True",
        id="register_state-bool-step",
    ),
    pytest.param(
        lambda: register_tangent(STILL_PAIR, True, 0.5),
        ValueError,
        "step index must be an integer, got True",
        id="register_tangent-bool-step",
    ),
    # a non-finite number is refused by the argument it came in, not by a check it later breaks
    pytest.param(
        lambda: profile(ARC_PAIR, [0.0, 1.0, np.inf], [Cut((0,), (1,))]),
        ValueError,
        "grid must be finite, got points from 0.0 to inf",
        id="profile-infinite-grid-end",
    ),
    pytest.param(
        lambda: profile(ARC_PAIR, [-np.inf, 0.0, 1.0], [Cut((0,), (1,))]),
        ValueError,
        "grid must be finite, got points from -inf to 1.0",
        id="profile-infinite-grid-start",
    ),
    pytest.param(
        lambda: differentiate(ARC, 0.5, "central_fd", np.inf),
        ValueError,
        "step h must be positive and finite, got inf",
        id="differentiate-infinite-step",
    ),
    pytest.param(
        lambda: profile(ARC_PAIR, [0.0, 0.5], [Cut((0,), (1,))], method="central_fd", h=np.inf),
        ValueError,
        "step h must be positive and finite, got inf",
        id="profile-infinite-step",
    ),
    pytest.param(
        lambda: differential_trace_witness(HermitianOp(np.zeros((4, 4)), (2, 2)), tol=np.inf),
        ValueError,
        "tol must be positive and finite, got inf",
        id="differential_trace_witness-infinite-tol",
    ),
]


@pytest.mark.parametrize("call, error, message", REJECTIONS)
def test_input_is_rejected_with_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.type is error and str(info.value) == message


def test_numpy_integers_pass_as_integer_arguments():
    two, one = np.int64(2), np.int32(1)
    cut = Cut((np.int64(0),), (one,))
    assert cut == Cut.splitting(np.array([0]), two) == Cut((0,), (1,))
    assert Ket(np.ones(4) / 2, np.array([2, 2])).dims == HermitianOp(np.eye(4) / 4, (two, two)).dims == (2, 2)
    assert np.array_equal(Ket.basis((two, two), np.array([0, 1])).amplitudes, [0, 1, 0, 0])
    assert np.array_equal(infinitesimal_composition(np.zeros((2, 2)), 1.0, two), np.eye(2))
    assert random_unit_ket(np.random.default_rng(0), np.array([2, 3])).dims == (2, 3)
    for k in (np.int64(1), np.uint8(1)):  # only a bool is refused as a step index
        assert np.array_equal(register_state(STILL_PAIR, k, 0.5).amplitudes, PAIR.amplitudes)
        assert np.array_equal(register_tangent(STILL_PAIR, k, 0.5).direction, np.zeros(4))


@pytest.mark.parametrize("grid, message", BAD_GRIDS.values(), ids=BAD_GRIDS)
def test_grid_without_increasing_points_exits_2_naming_the_grid(grid, message, tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(grid_document(grid))
    assert main(["--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
