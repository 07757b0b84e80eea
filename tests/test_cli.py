"""Config parsing, scenario runners, report rendering, and exit codes."""

import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from functools import cache, reduce
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import qtangle
import qtangle.config
import qtangle.trajectories
from qtangle import (
    ConfigError,
    Cut,
    HermitianOp,
    Ket,
    MeasurementSetting,
    ProductTrajectory,
    RunConfig,
    ToleranceBreachError,
    base_state_separability,
    bell_decompose,
    bilocal_inner_check,
    chsh_value,
    correlation_expansion,
    differential_trace_witness,
    ensemble_witness,
    entanglement_entropy,
    fs_speed,
    horizontal_tangent,
    parse_config,
    product_tangent,
    profile,
    pseudo_pure_differential,
    reduced_tangent_channel,
    register_tangent,
)
from qtangle.cli import (
    TraceReport,
    _HALVING_STEP,
    canonical_register_program,
    demo_trajectory,
    emit,
    main,
    render_csv,
    render_json,
    rotating_ensemble,
    run,
    verify,
)
from qtangle.config import MAX_GRID_STEPS, SCENARIOS
from qtangle.mixed_witness import VERDICT_EXCLUDED
from qtangle.statespace import TRACE_TOL

from helpers import same_bits

SQ2 = math.sqrt(2)

# inputs the numerics reject partway through a sweep: zero motion at t = 0,
# and a 1e12-scale outer product that fails an absolute Hermiticity check
ZERO_MOTION_DEMO = {
    "scenario": "two_qubit_demo",
    "subsystems": [
        {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 0.0, 1.0]}},
        {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 0.0, 1.0]}},
    ],
}
STIFF_PRODUCT = {
    "scenario": "product_trace",
    "method": "central_fd",
    "subsystems": [
        {
            "dim": 2,
            "curve": {
                "kind": "hamiltonian",
                "generator": [[1e6, 0.0], [0.0, -1e6]],
                "initial": [1.0, 1.0],
            },
        },
        {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}},
    ],
}
# a coarse central difference of a fast qubit arc leaves Re<psi|dpsi> = 2.2e-5
LEAKY_PRODUCT = {
    "scenario": "product_trace",
    "method": {"name": "central_fd", "h": 1e-3},
    "subsystems": [
        {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 0.0, 50.0], "phi": [0.0, 0.0, 30.0]}},
        {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}},
    ],
}

# rejections a run names the grid point of, from below the cells: a stencil
# differential of the mixture off traceless by 4e-8 at the second grid point,
# and a sampled qubit that flips between nodes, so its spline halves its norm
STENCIL_MIXED = {"scenario": "separable_mixed", "method": {"name": "central_fd", "h": 1e-9}}
COARSE_SAMPLED = {
    "scenario": "product_trace",
    "grid": {"t0": 0.0, "t1": 3.0, "steps": 7},
    "subsystems": [
        {
            "dim": 2,
            "curve": {"kind": "sampled", "times": [0, 1, 2, 3], "states": [[1, 0], [0, 1], [1, 0], [0, 1]]},
        },
        {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}},
    ],
}
# a qubit whose squared speed overflows double precision, beside one or two Bloch arcs
OVERFLOWING_SPEED = {
    n: {
        "scenario": "product_trace",
        "grid": {"steps": 5},
        "subsystems": [
            {
                "dim": 2,
                "curve": {"kind": "hamiltonian", "generator": [[1e160, 0], [0, -1e160]], "initial": [1, 1]},
            },
            *[{"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}}] * (n - 1),
        ],
    }
    for n in (2, 3)
}
# the demo pair at speed sqrt(2) over [0, t1]: its arc length overflows
# double precision from t1 = 1.5e308, not at 1e308
WIDE_ARC = {
    t1: {
        "scenario": "product_trace",
        "grid": {"t0": 0, "t1": t1, "steps": 2},
        "subsystems": [{"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}}] * 2,
    }
    for t1 in (1e308, 1.5e308)
}

# ROADMAP Baseline row 10: two equal qubit arcs slowed to theta = 1e-13 t,
# whose tangent entropy the absolute zero-motion floor (ROADMAP item 4) reads as 0
SLOW_PAIR = {
    "scenario": "product_trace",
    "grid": {"t0": 0.1, "t1": 1.0, "steps": 9},
    "subsystems": [{"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1e-13]}}] * 2,
}


def parse(doc, **overrides):
    return parse_config(json.dumps(doc), overrides or None)


class TestParseConfig:
    def test_minimal_demo_defaults(self):
        cfg = parse({"scenario": "two_qubit_demo"})
        assert cfg.grid == (0.0, math.pi, 181)
        assert cfg.method == "analytic"
        assert cfg.h == 1e-4
        assert cfg.out_format == "csv" and cfg.out_path is None
        assert cfg.seed == 0 and cfg.tol == 1e-6
        assert cfg.subsystems is None and cfg.cuts is None
        assert cfg.echo["v"] == 1

    def test_scenario_grid_defaults(self):
        assert parse({"scenario": "register_trace"}).grid == (0.0, 2.0, 81)
        cfg = parse({"scenario": "separable_mixed"})
        assert cfg.grid == (0.0, math.pi / 4, 46)

    def test_json_error_reports_position(self):
        with pytest.raises(ConfigError, match=r"parse error at line 1, column"):
            parse_config('{"scenario": }')

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="bogus: unknown field"):
            parse({"scenario": "two_qubit_demo", "bogus": 1})
        with pytest.raises(ConfigError, match="grid.pts: unknown field"):
            parse({"scenario": "two_qubit_demo", "grid": {"pts": 3}})

    def test_scenario_required_and_validated(self):
        with pytest.raises(ConfigError, match="scenario: required"):
            parse({})
        with pytest.raises(ConfigError, match="unknown scenario 'nope'"):
            parse({"scenario": "nope"})

    def test_product_trace_needs_subsystems(self):
        with pytest.raises(ConfigError, match="subsystems: required"):
            parse({"scenario": "product_trace"})

    def test_built_in_scenarios_refuse_subsystems(self):
        sub = [{"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}}] * 2
        for scenario in ("register_trace", "separable_mixed"):
            with pytest.raises(ConfigError, match="not supported for scenario"):
                parse({"scenario": scenario, "subsystems": sub})

    def test_curve_kinds_parse(self):
        doc = {
            "scenario": "product_trace",
            "subsystems": [
                {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0], "phi": 0.3}},
                {"dim": 3, "curve": {"kind": "phase", "base": [1, 0, [0, 1]], "phi": [0, 2]}},
                {
                    "dim": 2,
                    "curve": {
                        "kind": "hamiltonian",
                        "generator": [[0, [0, -0.5]], [[0, 0.5], 0]],
                        "initial": [1, 0],
                    },
                },
            ],
        }
        cfg = parse(doc)
        assert len(cfg.subsystems) == 3
        assert cfg.method == "analytic"
        traj = cfg.trajectory()
        assert traj.dims == (2, 3, 2)

    def test_sampled_curve_resolves_to_analytic(self):
        """A sampled curve has its spline's exact derivative, like every built-in kind."""
        times = list(np.linspace(0, 1, 9))
        states = [[math.cos(t / 2), math.sin(t / 2)] for t in times]
        doc = {
            "scenario": "product_trace",
            "subsystems": [
                {"dim": 2, "curve": {"kind": "sampled", "times": times, "states": states}},
                {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}},
            ],
        }
        assert parse(doc).method == "analytic"

    def test_explicit_method_object(self):
        doc = {"scenario": "two_qubit_demo", "method": {"name": "central_fd", "h": 1e-3}}
        cfg = parse(doc)
        assert (cfg.method, cfg.h) == ("central_fd", 1e-3)
        with pytest.raises(ConfigError, match="method.h: step must be positive"):
            parse({"scenario": "two_qubit_demo", "method": {"name": "central_fd", "h": 0}})
        with pytest.raises(ConfigError, match="unknown method 'fd'"):
            parse({"scenario": "two_qubit_demo", "method": "fd"})

    def test_bloch_dim_guard_names_the_entry(self):
        doc = {
            "scenario": "product_trace",
            "subsystems": [
                {"dim": 3, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}},
                {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}},
            ],
        }
        with pytest.raises(ConfigError, match=r"subsystems\[0\].curve: BlochCurve requires dim 2"):
            parse(doc)

    def test_demo_needs_two_qubit_factors(self):
        sub3 = [{"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}}] * 3
        with pytest.raises(ConfigError, match="exactly 2 subsystems"):
            parse({"scenario": "two_qubit_demo", "subsystems": sub3})

    def test_all_frozen_rejected(self):
        sub = [
            {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}, "frozen": True},
            {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}, "frozen": True},
        ]
        with pytest.raises(ConfigError, match="at least one subsystem must be unfrozen"):
            parse({"scenario": "product_trace", "subsystems": sub})

    def test_cuts_are_one_based_and_checked(self):
        doc = {"scenario": "two_qubit_demo", "cuts": [[[1], [2]]]}
        cfg = parse(doc)
        assert cfg.cuts[0].label() == "1|2"
        with pytest.raises(ConfigError, match="1-based"):
            parse({"scenario": "two_qubit_demo", "cuts": [[[0], [1]]]})
        with pytest.raises(ConfigError, match=r"cuts\[0\]"):
            parse({"scenario": "two_qubit_demo", "cuts": [[[1], [3]]]})

    def test_grid_validation(self):
        with pytest.raises(ConfigError, match="grid.steps: must be at least 2"):
            parse({"scenario": "two_qubit_demo", "grid": {"steps": 1}})
        with pytest.raises(ConfigError, match="t0 must be less than t1"):
            parse({"scenario": "two_qubit_demo", "grid": {"t0": 2.0, "t1": 1.0}})

    def test_epsilon_scoped_to_pseudo_pure(self):
        cfg = parse({"scenario": "pseudo_pure", "epsilon": 0.25})
        assert cfg.epsilon == 0.25
        with pytest.raises(ConfigError, match="epsilon: only supported"):
            parse({"scenario": "two_qubit_demo", "epsilon": 0.25})
        with pytest.raises(ConfigError, match=r"must lie in \(0, 1\]"):
            parse({"scenario": "pseudo_pure", "epsilon": 1.5})

    def test_seed_and_tol_validation(self):
        with pytest.raises(ConfigError, match="seed: must be non-negative"):
            parse({"scenario": "two_qubit_demo", "seed": -1})
        with pytest.raises(ConfigError, match="tol: must be positive"):
            parse({"scenario": "two_qubit_demo", "tol": 0})

    def test_version_gate(self):
        with pytest.raises(ConfigError, match="unsupported config version"):
            parse({"v": 2, "scenario": "two_qubit_demo"})

    def test_overrides_win_over_document(self):
        doc = {"scenario": "two_qubit_demo", "seed": 5, "outputs": {"format": "csv"}}
        cfg = parse(doc, scenario="chsh_scan", seed=9, format="json", out="x.json")
        assert cfg.scenario == "chsh_scan"
        assert cfg.seed == 9
        assert cfg.out_format == "json"
        assert cfg.out_path == "x.json"


# One document per diagnostic of `parse_config`, each with a single error,
# and the full message it must produce.
QUBIT = {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}}
GENERATOR = {"kind": "hamiltonian", "generator": [[0, 1], [1, 0]], "initial": [1, 0]}
SAMPLES = {
    "kind": "sampled",
    "times": [0.0, 0.5, 1.0, 1.5],
    "states": [[1, 0], [0.6, 0.8], [0, 1], [0.8, -0.6]],
}
QUTRIT = {"dim": 3, "curve": {"kind": "phase", "base": [1, 0, 0], "phi": [0, 1]}}


def entry(dim=2, **curve):
    return {"dim": dim, "curve": curve}


def first_of(*entries, scenario="product_trace", **extra):
    """``entries`` ahead of one valid qubit in a ``subsystems`` array."""
    return {"scenario": scenario, "subsystems": [*entries, QUBIT], **extra}


def demo(**extra):
    return {"scenario": "two_qubit_demo", **extra}


def diag(case, doc, message, **overrides):
    return pytest.param(doc, overrides or None, message, id=case)


S0 = "subsystems[0]"
C0 = "subsystems[0].curve"
SCENARIO_LIST = (
    "two_qubit_demo, product_trace, register_trace, pseudo_pure, separable_mixed, chsh_scan"
)
CONFIG_DIAGNOSTICS = [
    diag("bad-json", '{"scenario": }', "parse error at line 1, column 14: Expecting value"),
    diag("top-list", "[]", "top level: expected an object, got list"),
    diag("top-unknown", demo(bogus=1), "bogus: unknown field"),
    diag("version", {"v": 2, "scenario": "two_qubit_demo"}, "v: unsupported config version 2"),
    diag("scenario-missing", {}, "scenario: required"),
    diag("scenario-type", {"scenario": 3}, "scenario: expected a string"),
    diag(
        "scenario-unknown",
        {"scenario": "nope"},
        f"scenario: unknown scenario 'nope' (use one of {SCENARIO_LIST})",
    ),
    diag(
        "subsystems-register",
        {"scenario": "register_trace", "subsystems": [QUBIT, QUBIT]},
        "subsystems: not supported for scenario 'register_trace'",
    ),
    diag(
        "subsystems-separable",
        {"scenario": "separable_mixed", "subsystems": [QUBIT, QUBIT]},
        "subsystems: not supported for scenario 'separable_mixed'",
    ),
    diag(
        "subsystems-object",
        {"scenario": "product_trace", "subsystems": {}},
        "subsystems: expected an array of at least 2 subsystem entries",
    ),
    diag(
        "subsystems-one",
        {"scenario": "product_trace", "subsystems": [QUBIT]},
        "subsystems: expected an array of at least 2 subsystem entries",
    ),
    diag("subsystems-required", {"scenario": "product_trace"}, "subsystems: required"),
    diag(
        "all-frozen",
        {"scenario": "product_trace", "subsystems": [{**QUBIT, "frozen": True}] * 2},
        "subsystems: at least one subsystem must be unfrozen",
    ),
    diag(
        "demo-count",
        first_of(QUBIT, QUBIT, scenario="two_qubit_demo"),
        "subsystems: scenario 'two_qubit_demo' needs exactly 2 subsystems",
    ),
    diag(
        "chsh-count",
        first_of(QUBIT, QUBIT, scenario="chsh_scan"),
        "subsystems: scenario 'chsh_scan' needs exactly 2 subsystems",
    ),
    diag(
        "pseudo-count",
        first_of(QUBIT, QUBIT, scenario="pseudo_pure"),
        "subsystems: scenario 'pseudo_pure' needs exactly 2 subsystems",
    ),
    diag(
        "demo-dims",
        first_of(QUTRIT, scenario="two_qubit_demo"),
        "subsystems: scenario 'two_qubit_demo' needs two dim-2 subsystems",
    ),
    diag(
        "chsh-dims",
        first_of(QUTRIT, scenario="chsh_scan"),
        "subsystems: scenario 'chsh_scan' needs two dim-2 subsystems",
    ),
    diag("entry-type", first_of(5), f"{S0}: expected an object, got int"),
    diag("entry-unknown", first_of({**QUBIT, "extra": 1}), f"{S0}.extra: unknown field"),
    diag("dim-missing", first_of({"curve": QUBIT["curve"]}), f"{S0}.dim: required"),
    diag("dim-str", first_of({**QUBIT, "dim": "2"}), f"{S0}.dim: expected an integer, got str"),
    diag(
        "dim-float", first_of({**QUBIT, "dim": 2.0}), f"{S0}.dim: expected an integer, got float"
    ),
    diag("dim-small", first_of({**QUBIT, "dim": 1}), f"{S0}.dim: must be at least 2, got 1"),
    diag("curve-missing", first_of({"dim": 2}), f"{C0}: required"),
    diag("curve-type", first_of({"dim": 2, "curve": []}), f"{C0}: expected an object, got list"),
    diag(
        "frozen-type", first_of({**QUBIT, "frozen": "yes"}), f"{S0}.frozen: expected true or false"
    ),
    diag("kind-missing", first_of(entry(theta=[0, 1])), f"{C0}.kind: required"),
    diag("kind-missing-empty", first_of(entry()), f"{C0}.kind: required"),
    diag("kind-unknown", first_of(entry(kind="spline")), f"{C0}.kind: unknown curve kind 'spline'"),
    diag(
        "kind-unknown-fields",
        first_of(entry(kind="spline", knots=[0, 1])),
        f"{C0}.kind: unknown curve kind 'spline'",
    ),
    diag("kind-type", first_of(entry(kind=[1])), f"{C0}.kind: unknown curve kind [1]"),
    diag(
        "bloch-dim",
        first_of(entry(3, kind="bloch", theta=[0, 1])),
        f"{C0}: BlochCurve requires dim 2",
    ),
    diag("theta-missing", first_of(entry(kind="bloch", phi=0.3)), f"{C0}.theta: required"),
    diag(
        "theta-str",
        first_of(entry(kind="bloch", theta="x")),
        f"{C0}.theta: expected a number or a non-empty coefficient array",
    ),
    diag(
        "theta-empty",
        first_of(entry(kind="bloch", theta=[])),
        f"{C0}.theta: expected a number or a non-empty coefficient array",
    ),
    diag(
        "theta-entry",
        first_of(entry(kind="bloch", theta=[0, "a"])),
        f"{C0}.theta[1]: expected a number, got str",
    ),
    diag(
        "phi-bool",
        first_of(entry(kind="bloch", theta=[0, 1], phi=True)),
        f"{C0}.phi: expected a number or a non-empty coefficient array",
    ),
    diag("base-missing", first_of(entry(kind="phase", phi=[0, 1])), f"{C0}.base: required"),
    diag(
        "base-empty",
        first_of(entry(kind="phase", base=[])),
        f"{C0}.base: expected a non-empty array of amplitudes",
    ),
    diag(
        "base-str",
        first_of(entry(kind="phase", base="1")),
        f"{C0}.base: expected a non-empty array of amplitudes",
    ),
    diag(
        "base-entry",
        first_of(entry(kind="phase", base=[1, "x"])),
        f"{C0}.base[1]: expected a number or a [re, im] pair",
    ),
    diag(
        "base-triple",
        first_of(entry(kind="phase", base=[1, [0, 1, 2]])),
        f"{C0}.base[1]: expected a number or a [re, im] pair",
    ),
    diag(
        "base-pair-str",
        first_of(entry(kind="phase", base=[1, ["a", 1]])),
        f"{C0}.base[1]: expected a number, got str",
    ),
    diag(
        "base-zero",
        first_of(entry(kind="phase", base=[0, 0], phi=[0, 1])),
        f"{C0}: cannot normalize a (near-)zero vector",
    ),
    diag(
        "phase-phi",
        first_of(entry(kind="phase", base=[1, 0], phi="x")),
        f"{C0}.phi: expected a number or a non-empty coefficient array",
    ),
    diag(
        "phase-dim",
        first_of(entry(kind="phase", base=[1, 0, 0], phi=[0, 1])),
        f"{C0}: curve has dim 3, subsystem declares 2",
    ),
    diag(
        "generator-missing",
        first_of(entry(kind="hamiltonian", initial=[1, 0])),
        f"{C0}.generator: required",
    ),
    diag(
        "initial-missing",
        first_of(entry(kind="hamiltonian", generator=[[0, 1], [1, 0]])),
        f"{C0}.initial: required",
    ),
    diag(
        "generator-str",
        first_of(entry(**{**GENERATOR, "generator": "x"})),
        f"{C0}.generator: expected a non-empty array of rows",
    ),
    diag(
        "generator-empty",
        first_of(entry(**{**GENERATOR, "generator": []})),
        f"{C0}.generator: expected a non-empty array of rows",
    ),
    diag(
        "generator-short-row",
        first_of(entry(**{**GENERATOR, "generator": [[0, 1], [1]]})),
        f"{C0}.generator[1]: expected a row of length 2",
    ),
    diag(
        "generator-row-type",
        first_of(entry(**{**GENERATOR, "generator": [[0, 1], 5]})),
        f"{C0}.generator[1]: expected a row of length 2",
    ),
    diag(
        "generator-entry",
        first_of(entry(**{**GENERATOR, "generator": [[0, "a"], [1, 0]]})),
        f"{C0}.generator[0][1]: expected a number or a [re, im] pair",
    ),
    diag(
        "generator-hermitian",
        first_of(entry(**{**GENERATOR, "generator": [[0, 1], [0, 0]]})),
        f"{C0}: generator: matrix is not Hermitian (max deviation 1.000e+00)",
    ),
    diag(
        "initial-empty",
        first_of(entry(**{**GENERATOR, "initial": []})),
        f"{C0}.initial: expected a non-empty array of amplitudes",
    ),
    diag(
        "initial-entry",
        first_of(entry(**{**GENERATOR, "initial": [1, None]})),
        f"{C0}.initial[1]: expected a number or a [re, im] pair",
    ),
    diag(
        "initial-length",
        first_of(entry(**{**GENERATOR, "initial": [1, 0, 0]})),
        f"{C0}: generator side 2 does not match state dimension 3",
    ),
    diag(
        "initial-zero",
        first_of(entry(**{**GENERATOR, "initial": [0, 0]})),
        f"{C0}: cannot normalize a (near-)zero vector",
    ),
    diag(
        "hamiltonian-dim",
        first_of(
            entry(**{**GENERATOR, "generator": np.diag([1, 0, -1]).tolist(), "initial": [1, 0, 0]})
        ),
        f"{C0}: curve has dim 3, subsystem declares 2",
    ),
    diag(
        "times-missing",
        first_of(entry(kind="sampled", states=SAMPLES["states"])),
        f"{C0}.times: required",
    ),
    diag(
        "states-missing",
        first_of(entry(kind="sampled", times=SAMPLES["times"])),
        f"{C0}.states: required",
    ),
    diag(
        "times-type",
        first_of(entry(**{**SAMPLES, "times": "x"})),
        f"{C0}: times and states must be arrays",
    ),
    diag(
        "states-type",
        first_of(entry(**{**SAMPLES, "states": 3})),
        f"{C0}: times and states must be arrays",
    ),
    diag(
        "times-count",
        first_of(entry(**{**SAMPLES, "times": [0.0, 1.0]})),
        f"{C0}: 2 times for 4 states",
    ),
    diag(
        "times-entry",
        first_of(entry(**{**SAMPLES, "times": [0.0, "a", 1.0, 1.5]})),
        f"{C0}.times[1]: expected a number, got str",
    ),
    diag(
        "states-entry",
        first_of(entry(**{**SAMPLES, "states": [[1, 0], "x", [0, 1], [1, 0]]})),
        f"{C0}.states[1]: expected a non-empty array of amplitudes",
    ),
    diag(
        "states-length",
        first_of(entry(**{**SAMPLES, "states": [[1, 0], [0.6, 0.8, 0], [0, 1], [1, 0]]})),
        f"{C0}: amplitude length 3 does not match dims (2,) (product 2)",
    ),
    diag(
        "states-norm",
        first_of(entry(**{**SAMPLES, "states": [[1, 0], [1, 1], [0, 1], [1, 0]]})),
        f"{C0}: sample 1 (t=0.5): expected a unit vector, got norm {math.sqrt(2)!r}",
    ),
    diag(
        "times-order",
        first_of(entry(**{**SAMPLES, "times": [0.0, 1.0, 0.5, 1.5]})),
        f"{C0}: sample times must be strictly increasing",
    ),
    diag(
        "times-few",
        first_of(entry(**{**SAMPLES, "times": [0.0], "states": [[1, 0]]})),
        f"{C0}: need a 1-d grid of at least 4 sample times",
    ),
    diag(
        "sampled-dim",
        first_of(entry(3, **SAMPLES)),
        f"{C0}: amplitude length 2 does not match dims (3,) (product 3)",
    ),
    diag("grid-type", demo(grid=[]), "grid: expected an object, got list"),
    diag("grid-unknown", demo(grid={"pts": 3}), "grid.pts: unknown field"),
    diag("grid-t0", demo(grid={"t0": "a"}), "grid.t0: expected a number, got str"),
    diag("grid-t1", demo(grid={"t1": None}), "grid.t1: expected a number, got NoneType"),
    diag(
        "grid-steps-float", demo(grid={"steps": 2.5}), "grid.steps: expected an integer, got float"
    ),
    diag(
        "grid-steps-bool", demo(grid={"steps": True}), "grid.steps: expected an integer, got bool"
    ),
    diag("grid-steps-small", demo(grid={"steps": 1}), "grid.steps: must be at least 2, got 1"),
    diag(
        "grid-steps-huge",
        demo(grid={"steps": 10**12}),
        "grid.steps: must be at most 1000000, got 1000000000000",
    ),
    diag(
        "grid-steps-4300-digits",
        demo(grid={"steps": 10**4299}),
        f"grid.steps: must be at most 1000000, got {10**4299}",
    ),
    diag(
        "grid-order",
        demo(grid={"t0": 2.0, "t1": 1.0}),
        "grid: t0 must be less than t1, got t0=2.0, t1=1.0",
    ),
    diag(
        "grid-order-default",
        {"scenario": "register_trace", "grid": {"t0": 2.0}},
        "grid: t0 must be less than t1, got t0=2.0, t1=2.0",
    ),
    diag(
        "cuts-separable",
        {"scenario": "separable_mixed", "cuts": [[[1], [2]]]},
        "cuts: not supported for scenario 'separable_mixed'",
    ),
    diag(
        "cuts-empty",
        demo(cuts=[]),
        "cuts: expected a non-empty array of [[left], [right]] partitions",
    ),
    diag(
        "cuts-object",
        demo(cuts={"a": 1}),
        "cuts: expected a non-empty array of [[left], [right]] partitions",
    ),
    diag("cut-single", demo(cuts=[[[1]]]), "cuts[0]: expected [[left indices], [right indices]]"),
    diag("cut-number", demo(cuts=[5]), "cuts[0]: expected [[left indices], [right indices]]"),
    diag(
        "cut-side-empty",
        demo(cuts=[[[1], []]]),
        "cuts[0][1]: expected a non-empty array of 1-based indices",
    ),
    diag("cut-index-str", demo(cuts=[[[1], ["2"]]]), "cuts[0][1][0]: expected an integer, got str"),
    diag("cut-zero-based", demo(cuts=[[[0], [1]]]), "cuts[0][0]: factor indices are 1-based"),
    diag("cut-overlap", demo(cuts=[[[1], [1, 2]]]), "cuts[0]: cut sides overlap: [0]"),
    diag(
        "cut-demo-range",
        demo(cuts=[[[1], [3]]]),
        "cuts[0]: cut 1|3 does not partition the 2 factor positions",
    ),
    diag(
        "cut-register-range",
        {"scenario": "register_trace", "cuts": [[[1], [2, 3]], [[1], [4]]]},
        "cuts[1]: cut 1|4 does not partition the 3 factor positions",
    ),
    diag(
        "cut-repeated",
        first_of(QUBIT, QUBIT, cuts=[[[1], [2, 3]], [[1], [2, 3]]]),
        "cuts[1]: cut 1|23 repeats cuts[0]",
    ),
    diag(
        "cut-register-cover",
        {"scenario": "register_trace", "cuts": [[[1], [2]]]},
        "cuts[0]: cut 1|2 does not partition the 3 factor positions",
    ),
    diag(
        "cut-subsystems-cover",
        first_of(QUBIT, QUBIT, cuts=[[[1], [2]]]),
        "cuts[0]: cut 1|2 does not partition the 3 factor positions",
    ),
    diag(
        "cuts-demo-two",
        {"scenario": "two_qubit_demo", "cuts": [[[1], [2]], [[2], [1]]]},
        "cuts: scenario 'two_qubit_demo' takes one cut, got 2",
    ),
    diag(
        "cuts-pseudo-two",
        {"scenario": "pseudo_pure", "cuts": [[[1], [2]], [[2], [1]]]},
        "cuts: scenario 'pseudo_pure' takes one cut, got 2",
    ),
    diag(
        "cuts-chsh-two",
        {"scenario": "chsh_scan", "cuts": [[[1], [2]], [[2], [1]]]},
        "cuts: scenario 'chsh_scan' takes one cut, got 2",
    ),
    diag("method-type", demo(method=5), "method: expected an object, got int"),
    diag(
        "method-unknown-field",
        demo(method={"name": "central_fd", "step": 1}),
        "method.step: unknown field",
    ),
    diag("method-name-missing", demo(method={"h": 0.01}), "method.name: required"),
    diag("method-name-type", demo(method={"name": 3}), "method.name: expected a string"),
    diag(
        "method-unknown",
        demo(method="fd"),
        "method: unknown method 'fd', expected one of "
        "('auto', 'analytic', 'central_fd', 'richardson')",
    ),
    diag(
        "method-h-type",
        demo(method={"name": "central_fd", "h": "x"}),
        "method.h: expected a number, got str",
    ),
    diag(
        "method-h-zero",
        demo(method={"name": "central_fd", "h": 0}),
        "method.h: step must be positive, got 0.0",
    ),
    diag(
        "method-h-negative",
        demo(method={"name": "richardson", "h": -1}),
        "method.h: step must be positive, got -1.0",
    ),
    diag(
        "long-integer",
        '{"scenario": "two_qubit_demo",\n "tol": 1' + "0" * 5000 + "}",
        "parse error at line 2, column 9: integer of 5001 digits is too long",
    ),
    diag("outputs-type", demo(outputs=[]), "outputs: expected an object, got list"),
    diag("outputs-unknown", demo(outputs={"fmt": "csv"}), "outputs.fmt: unknown field"),
    diag(
        "outputs-format",
        demo(outputs={"format": "xml"}),
        "outputs.format: expected one of csv, json, got 'xml'",
    ),
    diag("outputs-path", demo(outputs={"path": 3}), "outputs.path: expected a string or null"),
    diag("seed-str", demo(seed="1"), "seed: expected an integer, got str"),
    diag("seed-float", demo(seed=1.5), "seed: expected an integer, got float"),
    diag("seed-negative", demo(seed=-1), "seed: must be non-negative, got -1"),
    diag("tol-str", demo(tol="x"), "tol: expected a number, got str"),
    diag("tol-zero", demo(tol=0), "tol: must be positive, got 0.0"),
    diag("tol-negative", demo(tol=-1e-3), "tol: must be positive, got -0.001"),
    diag("epsilon-demo", demo(epsilon=0.2), "epsilon: only supported for scenario 'pseudo_pure'"),
    diag(
        "epsilon-separable",
        {"scenario": "separable_mixed", "epsilon": 0.2},
        "epsilon: only supported for scenario 'pseudo_pure'",
    ),
    diag(
        "epsilon-type",
        {"scenario": "pseudo_pure", "epsilon": "x"},
        "epsilon: expected a number, got str",
    ),
    diag(
        "epsilon-zero",
        {"scenario": "pseudo_pure", "epsilon": 0},
        "epsilon: must lie in (0, 1], got 0.0",
    ),
    diag(
        "epsilon-large",
        {"scenario": "pseudo_pure", "epsilon": 1.5},
        "epsilon: must lie in (0, 1], got 1.5",
    ),
    diag(
        "flag-outputs-type",
        demo(outputs=3),
        "outputs: expected an object, got int",
        format="json",
    ),
    diag(
        "flag-scenario",
        {},
        f"scenario: unknown scenario 'nope' (use one of {SCENARIO_LIST})",
        scenario="nope",
    ),
    diag("flag-tol", demo(), "tol: must be positive, got -1.0", tol=-1.0),
    diag("flag-seed", demo(), "seed: must be non-negative, got -2", seed=-2),
    diag(
        "flag-format",
        demo(),
        "outputs.format: expected one of csv, json, got 'xml'",
        format="xml",
    ),
    diag(
        "flag-path-kept",
        demo(outputs={"path": 3}),
        "outputs.path: expected a string or null",
        seed=1,
    ),
]


@pytest.mark.parametrize("doc, overrides, message", CONFIG_DIAGNOSTICS)
def test_config_diagnostic(doc, overrides, message):
    """Each single-error document fails with its full, path-first message."""
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(ConfigError) as exc:
        parse_config(text, overrides)
    assert str(exc.value) == message


def test_swapped_cut_is_not_a_repeat():
    """1|23 and 23|1 are different labels: each gets its own columns."""
    report = run(parse(first_of(QUBIT, QUBIT, cuts=[[[1], [2, 3]], [[2, 3], [1]]])))
    assert report.columns[:6] == (
        "t",
        "fs_speed",
        "tangent_entropy_1|23",
        "base_entropy_1|23",
        "tangent_entropy_23|1",
        "base_entropy_23|1",
    )
    assert len(set(report.columns)) == len(report.columns)


@pytest.mark.parametrize(
    "curve, field",
    [
        ({"kind": "bloch", "theta": [0, 1], "phii": [0, 3]}, "phii"),
        ({"kind": "bloch", "theta": [0, 1], "base": [1, 0]}, "base"),
        ({"kind": "phase", "base": [1, 0], "theta": [0, 1]}, "theta"),
        ({**GENERATOR, "phi": [0, 1]}, "phi"),
        ({**SAMPLES, "generator": [[0, 1], [1, 0]]}, "generator"),
    ],
    ids=["typo", "bloch-base", "phase-theta", "hamiltonian-phi", "sampled-generator"],
)
def test_curve_rejects_fields_of_other_kinds(curve, field):
    with pytest.raises(ConfigError) as exc:
        parse(first_of({"dim": 2, "curve": curve}))
    assert str(exc.value) == f"{C0}.{field}: unknown field"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "doc, path, shown",
    [
        (demo(tol=NAN), "tol", "nan"),
        (demo(tol=INF), "tol", "inf"),
        (demo(tol=10**400), "tol", str(10**400)),
        (demo(grid={"t1": INF}), "grid.t1", "inf"),
        (demo(grid={"t0": -INF}), "grid.t0", "-inf"),
        (demo(method={"name": "central_fd", "h": NAN}), "method.h", "nan"),
        ({"scenario": "pseudo_pure", "epsilon": NAN}, "epsilon", "nan"),
        (first_of(entry(kind="bloch", theta=NAN)), f"{C0}.theta", "nan"),
        (first_of(entry(kind="bloch", theta=[0, INF])), f"{C0}.theta[1]", "inf"),
        (first_of(entry(kind="phase", base=[1, NAN])), f"{C0}.base[1]", "nan"),
        (first_of(entry(kind="phase", base=[1, [0, INF]])), f"{C0}.base[1]", "inf"),
        (first_of(entry(**{**SAMPLES, "times": [0, 1, 2, NAN]})), f"{C0}.times[3]", "nan"),
    ],
    ids=[
        "tol-nan",
        "tol-inf",
        "tol-huge-int",
        "grid-t1",
        "grid-t0",
        "method-h",
        "epsilon",
        "theta-constant",
        "theta-entry",
        "amplitude",
        "amplitude-pair",
        "sample-time",
    ],
)
def test_non_finite_numbers_rejected(doc, path, shown):
    with pytest.raises(ConfigError) as exc:
        parse(doc)
    assert str(exc.value) == f"{path}: expected a finite number, got {shown}"


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "moving"])
def test_analytic_beside_a_sampled_subsystem_runs(frozen):
    """A sampled subsystem is differentiated by its spline's exact derivative;
    a frozen one is never differentiated."""
    doc = first_of({**SAMPLED_QUBIT, "frozen": frozen}, method="analytic", grid=INSIDE_SAMPLES)
    cfg = parse(doc)
    assert cfg.method == "analytic"
    assert len(run(cfg).rows) == INSIDE_SAMPLES["steps"]


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"scenario": "two_qubit_demo", "seed": -1' + "0" * 4400 + "}", "line 1, column 40"),
        (
            '{"scenario": "two_qubit_demo",\n "grid": {"steps": 2' + "0" * 4400 + "}}",
            "line 2, column 20",
        ),
        ('[\n\n 5' + "5" * 4400 + "]", "line 3, column 2"),
    ],
    ids=["negative-seed", "grid-steps", "top-level-array"],
)
def test_long_integer_exits_2_naming_its_position(text, where, tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(["--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: parse error at {where}: integer of 4401 digits is too long\n"


@pytest.mark.parametrize("steps", [10**12, 10**4299], ids=["1e12", "4300-digits"])
def test_grid_steps_above_the_bound_exit_2(steps, tmp_path, capsys):
    path = tmp_path / "steps.json"
    path.write_text(json.dumps({"scenario": "two_qubit_demo", "grid": {"steps": steps}}))
    assert main(["--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: grid.steps: must be at most {MAX_GRID_STEPS}, got {steps}\n"


def test_grid_steps_bound_is_inclusive():
    assert parse(demo(grid={"steps": MAX_GRID_STEPS})).grid[2] == MAX_GRID_STEPS


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_grid_points_are_built_once_by_the_parser(scenario, monkeypatch):
    """``grid_points()`` is the parser's read-only np.linspace of the grid,
    the same array on every call, and a run builds no other."""
    doc = {"scenario": scenario}
    if scenario == "product_trace":  # the one scenario without default subsystems
        doc["subsystems"] = [QUBIT, QUBIT]
    cfg = parse(doc)
    points = cfg.grid_points()
    assert points is cfg.grid_points() and not points.flags.writeable
    assert same_bits(points, np.linspace(*cfg.grid))
    monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: pytest.fail("np.linspace called in a run"))
    assert len(run(cfg).rows) == cfg.grid[2]


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_tol_flag_exits_2(value, capsys):
    assert main(["--scenario", "separable_mixed", f"--tol={value}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: tol: expected a finite number, got {float(value)!r}\n"


def test_readme_config_example_runs():
    """The documented example parses and runs as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    schema = readme.split("## Configuration schema", 1)[1]
    cfg = parse_config(re.search(r"```json\n(.*?)```", schema, re.S).group(1))
    report = run(cfg)
    assert (cfg.scenario, cfg.method, cfg.h, cfg.tol) == ("product_trace", "richardson", 1e-3, 1e-8)
    assert cfg.frozen == (False, False, True)
    assert [cut.label() for cut in cfg.cuts] == ["1|23", "13|2"]
    assert report.columns == (
        "t",
        "fs_speed",
        "tangent_entropy_1|23",
        "base_entropy_1|23",
        "tangent_entropy_13|2",
        "base_entropy_13|2",
    )
    assert len(report.rows) == 31


class TestRunners:
    def small(self, scenario, **extra):
        doc = {"scenario": scenario, "grid": {"steps": 5}, **extra}
        return run(parse(doc))

    def test_demo_report_values(self):
        rep = self.small("two_qubit_demo")
        assert rep.columns == (
            "t",
            "fs_speed",
            "tangent_entropy_1|2",
            "base_entropy_1|2",
            "bell_psi_plus",
            "bell_phi_minus",
            "chsh",
        )
        t0 = rep.rows[0]
        assert t0[0] == 0.0
        assert t0[1] == pytest.approx(SQ2, abs=1e-12)
        assert t0[2] == pytest.approx(1.0, abs=1e-10)
        assert t0[3] < 1e-12
        assert (t0[4], t0[5]) == pytest.approx((1.0, 0.0), abs=1e-12)
        assert t0[6] == pytest.approx(2 * SQ2, abs=1e-9)
        # quarter sweep: coefficients follow (cos, -sin)
        quarter = rep.rows[1]
        theta = quarter[0]
        assert quarter[4] == pytest.approx(math.cos(theta), abs=1e-9)
        assert quarter[5] == pytest.approx(-math.sin(theta), abs=1e-9)
        assert rep.metadata["resolved"]["arc_length"] == pytest.approx(SQ2 * math.pi, abs=1e-2)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: absolute zero-motion floor")
    def test_slow_pair_keeps_its_tangent_entropy(self):
        """Two equal arcs share the speed equally, so their tangent carries 1
        ebit across 1|2 at any time scale: at theta = 1e-13 t as at theta = t."""
        rep = run(parse(SLOW_PAIR))
        entropy = [row[rep.columns.index("tangent_entropy_1|2")] for row in rep.rows]
        assert entropy == pytest.approx([1.0] * len(rep.rows), abs=1e-12)

    def test_product_trace_report(self):
        sub = [
            {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}},
            {"dim": 3, "curve": {"kind": "phase", "base": [1, 1, 1], "phi": [0.0, 1.0]}},
        ]
        rep = self.small("product_trace", subsystems=sub)
        assert rep.columns[-3:] == ("channel_gap_1", "channel_gap_2", "bilocal_gap")
        for row in rep.rows:
            assert max(row[-3:]) < 1e-10

    def test_register_trace_constant_third_site_column(self):
        rep = self.small("register_trace")
        idx = rep.columns.index("tangent_entropy_12|3")
        for row in rep.rows:
            assert row[idx] < 1e-10
        steps = {row[rep.columns.index("step")] for row in rep.rows}
        assert steps == {1.0, 2.0}

    def test_pseudo_pure_report(self):
        rep = self.small("pseudo_pure", epsilon=0.2)
        cols = rep.columns
        for row in rep.rows:
            assert abs(row[cols.index("drho_trace")]) < TRACE_TOL
            assert row[cols.index("tr1_norm")] == pytest.approx(0.2 / SQ2, abs=1e-10)
            assert row[cols.index("verdict")] == "product-differential-excluded"
            assert row[cols.index("base_separability")] == "separable"

    def test_pseudo_pure_product_base_stays_separable(self):
        # the scenario mixes identity with a product projector, so no epsilon
        # entangles the base state; entangling mixtures need a Bell projector
        rep = self.small("pseudo_pure", epsilon=0.9)
        for row in rep.rows:
            assert row[rep.columns.index("base_separability")] == "separable"

    def test_pseudo_pure_qutrit_base_is_separable(self):
        """PPT cannot decide two qutrits, and eps = 0.5 is outside the ball
        of purity 1/8; the base mixes two product states, so it is separable."""
        generator = [[0.4, 0.2, 0], [0.2, -0.1, 0.3], [0, 0.3, 0.5]]
        qutrit = {"dim": 3, "curve": {"kind": "hamiltonian", "generator": generator, "initial": [1, 1, [0, 1]]}}
        rep = self.small("pseudo_pure", epsilon=0.5, subsystems=[QUTRIT_PAIR[1], qutrit])
        assert {row[rep.columns.index("base_separability")] for row in rep.rows} == {"separable"}

    def test_separable_mixed_report(self):
        rep = self.small("separable_mixed")
        cols = rep.columns
        for row in rep.rows:
            t = row[0]
            assert row[cols.index("tr2_norm")] == pytest.approx(abs(math.cos(t)) / SQ2, abs=1e-10)
            assert row[cols.index("tr1_norm")] < 1e-12
            assert row[cols.index("operator_gap")] == pytest.approx(0.5, abs=1e-10)
            assert row[cols.index("verdict")] == "product-differential-excluded"

    def test_chsh_scan_report(self):
        rep = self.small("chsh_scan")
        cols = rep.columns
        first = rep.rows[0]
        assert first[cols.index("chsh")] == pytest.approx(2 * SQ2, abs=1e-9)
        assert first[cols.index("corr_c0")] == pytest.approx(1.0, abs=1e-12)
        assert first[cols.index("corr_c1")] == pytest.approx(0.0, abs=1e-12)
        assert first[cols.index("corr_c2")] == pytest.approx(-1.0, abs=1e-12)
        for row in rep.rows:
            assert row[cols.index("chsh")] == pytest.approx(2 * SQ2, abs=1e-9)


    def test_runs_of_one_config_share_one_trajectory(self, monkeypatch):
        built = []

        def building(*args, **kwargs):
            built.append(ProductTrajectory(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(qtangle.config, "ProductTrajectory", building)
        cfg = parse({"scenario": "product_trace", "grid": {"steps": 5}, "subsystems": QUTRIT_PAIR})
        first, second = run(cfg), run(cfg)
        assert len(built) == 1 and cfg.trajectory() is built[0]
        assert first.rows == second.rows


# top-level calls of each invariant check in one run (conftest ``count_checks``),
# after a first run has built the canonical inputs, whose constructors check them
RUN_CHECK_CALLS = {
    # the cells read the factor rows alone: no dense tangent, and no operator to check
    "pseudo_pure": {
        "_check_amplitudes": 1,
        "_check_product_amplitudes": 1,
        "_check_tangents": 1,
        "_check_traceless": 1,
    },
    "separable_mixed": {
        "_check_amplitudes": 2,
        "_check_tangents": 1,
        "_check_hermitian": 8,
        "_check_traceless": 1,
    },
}
# channel-identity and bilocal-reality read one draw, checked once: its two
# factors' norm checks and its curves' checks are made once for both; each
# curve's generator and raw amplitude rows are checked finite as it takes them
VERIFY_CHECK_CALLS = {
    "_check_finite": 34,
    "_check_amplitudes": 92,
    "_check_tangents": 22,
    "_check_hermitian": 23,
    "_check_norm_preserving": 2,
    "_check_traceless": 1,
}


class TestCheckCounts:
    """Each array is checked once, where it is made: a check of an array
    built exactly from one already checked cannot fail, so none is made."""

    @pytest.mark.parametrize("scenario", sorted(RUN_CHECK_CALLS))
    def test_scenario_run(self, scenario, count_checks):
        cfg = parse({"scenario": scenario})
        run(cfg)
        calls = count_checks()
        run(cfg)
        assert dict(calls) == RUN_CHECK_CALLS[scenario]

    def test_verify(self, count_checks):
        calls = count_checks()
        assert verify(trials=5, seed=0, stream=io.StringIO()) == 0
        assert dict(calls) == VERIFY_CHECK_CALLS

    def test_product_tangent(self, count_checks):
        """One tangent check for the factor group and one, by ``TangentVector``, for the product row."""
        traj = ProductTrajectory((qtangle.BlochCurve([0.3, 1.0]), qtangle.BlochCurve([0.1, -0.7], [0.2, 0.5])))
        calls = count_checks()
        product_tangent(traj, 0.4)
        assert calls["_check_tangents"] == 2


class TestRendering:
    def report(self):
        return run(parse({"scenario": "two_qubit_demo", "grid": {"steps": 3}}))

    def test_csv_layout_and_precision(self):
        text = render_csv(self.report())
        lines = text.splitlines()
        assert lines[0] == "t,fs_speed,tangent_entropy_1|2,base_entropy_1|2,bell_psi_plus,bell_phi_minus,chsh"
        assert len(lines) == 4 and text.endswith("\n")
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert cells[1] == "1.41421356237"  # 12 significant digits

    def test_json_roundtrip(self):
        doc = json.loads(render_json(self.report()))
        assert doc["metadata"]["resolved"]["scenario"] == "two_qubit_demo"
        assert doc["metadata"]["tool"] == "qtangle"
        assert len(doc["rows"]) == 3
        assert doc["rows"][0]["fs_speed"] == pytest.approx(SQ2)

    def test_verdict_strings_survive_csv(self):
        rep = run(parse({"scenario": "separable_mixed", "grid": {"steps": 2}}))
        body = render_csv(rep).splitlines()[1]
        assert body.endswith(",product-differential-excluded")

    def test_special_floats_render_like_format(self):
        values = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1 / 3, -2.5e-300, 1e17, 7]
        rep = TraceReport({}, ("x", "minus_x", "verdict"), tuple((v, -v, "ok") for v in values))
        lines = render_csv(rep).splitlines()
        assert lines[0] == "x,minus_x,verdict"
        assert lines[1:] == [f"{format(v, '.12g')},{format(-v, '.12g')},ok" for v in values]
        assert render_csv(TraceReport({}, ("t",), ())) == "t\n"


TRAJECTORY_SCENARIOS = ["two_qubit_demo", "product_trace", "register_trace", "pseudo_pure", "chsh_scan"]
QUTRIT_PAIR = [
    {"dim": 2, "curve": {"kind": "bloch", "theta": [0.2, 1.1, -0.3], "phi": [0.1, 0.5]}},
    {"dim": 3, "curve": {"kind": "phase", "base": [1, 1, [0, 1]], "phi": [0.0, 0.7, 0.2]}},
]


def scenario_doc(scenario, steps):
    doc = {"scenario": scenario, "grid": {"steps": steps}}
    if scenario == "product_trace":
        doc["subsystems"] = QUTRIT_PAIR
    return doc


def count_calls(monkeypatch, owner, name):
    """Count calls of ``owner.name``, also where a qtangle module imported it."""
    original = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("qtangle") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


class TestSweepDriver:
    @pytest.mark.parametrize("scenario", TRAJECTORY_SCENARIOS)
    def test_one_tangent_assembly_per_sweep(self, scenario, monkeypatch):
        """Each grid point's tangent is assembled at most once: one Leibniz
        assembly per sweep whatever the grid size, and none for
        register_trace, pseudo_pure and chsh_scan, whose columns all come
        from the site or factor rows."""
        calls = count_calls(monkeypatch, qtangle.trajectories, "_product_rule")
        for steps in (13, 26):
            calls.clear()
            rep = run(parse(scenario_doc(scenario, steps)))
            assert len(rep.rows) == steps
            assert len(calls) == (0 if scenario in ("register_trace", "pseudo_pure", "chsh_scan") else 1)

    @pytest.mark.parametrize(
        "scenario, dense", [("pseudo_pure", False), ("chsh_scan", False), ("two_qubit_demo", True)]
    )
    def test_cells_of_the_factor_rows_build_no_dense_row(self, scenario, dense, monkeypatch):
        """pseudo_pure and chsh_scan take every cell from the factor rows:
        they read no dense tangent and build no operator on the product
        space.  two_qubit_demo's Bell cells read the dense tangent, and show
        that the spies see it."""
        owners = [
            (qtangle.trajectories, "_projector_differentials"),
            (qtangle.mixed_witness, "_separability"),
            (qtangle.mixed_witness, "_trace_witness"),
        ]
        calls = {name: count_calls(monkeypatch, owner, name) for owner, name in owners}
        reads = []
        for name in ("states", "directions"):
            rows = getattr(qtangle.geometry.TrajectoryProfile, name)
            spy = property(lambda prof, rows=rows, name=name: reads.append(name) or rows.__get__(prof))
            monkeypatch.setattr(qtangle.geometry.TrajectoryProfile, name, spy)
        assert len(run(parse({"scenario": scenario, "grid": {"steps": 9}})).rows) == 9
        assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(calls, 0)
        assert reads == (["states", "directions"] if dense else [])

    @pytest.mark.parametrize("frozen", [False, True], ids=["moving", "frozen"])
    @pytest.mark.parametrize(
        "method, states, joint",
        [("analytic", 0, 1), ("central_fd", 3, 0), ("richardson", 5, 0)],
    )
    def test_each_curve_differentiated_once_per_run(
        self, method, states, joint, frozen, count_evaluations, monkeypatch
    ):
        """A product_trace run evaluates each factor's curve, the stack of its
        group, as often as one differentiation by its method needs (the base
        rows and each stencil point, or one joint evaluation of the base and
        closed-form rows): its channel and bilocal columns reuse the
        profile's factor rows.  A frozen factor is only evaluated."""
        arc = {"dim": 2, "curve": {"kind": "bloch", "theta": [0.2, 1.1, -0.3], "phi": [0.1, 0.5]}}
        doc = {
            "scenario": "product_trace",
            "method": method,
            "grid": {"steps": 13},
            "subsystems": [arc, {**HAMILTONIAN_QUBIT, "frozen": frozen}],
        }
        cfg = parse(doc)
        traj = cfg.trajectory()
        monkeypatch.setattr(type(cfg), "trajectory", lambda self: traj)
        counts = [count_evaluations(curve) for _, curve, _ in traj._stacks]
        assert len(run(cfg).rows) == 13
        moved = {"states": states, "velocities": 0, "_states_and_velocities": joint}
        assert counts[0] == moved
        still = {"states": 1, "velocities": 0, "_states_and_velocities": 0}
        assert counts[1] == (still if frozen else moved)

    @pytest.mark.parametrize("scenario", TRAJECTORY_SCENARIOS + ["separable_mixed"])
    def test_no_per_point_objects(self, scenario, monkeypatch):
        counts = {}
        for cls in (Ket, HermitianOp):
            counts[cls] = count_calls(monkeypatch, cls, "__post_init__")
        made = []
        for steps in (13, 26):
            for calls in counts.values():
                calls.clear()
            run(parse(scenario_doc(scenario, steps)))
            made.append([len(calls) for calls in counts.values()])
        assert made[0] == made[1]

    def test_register_trace_runs_build_no_program(self, monkeypatch):
        """Every register_trace run reuses the canonical program the first one built."""
        run(parse({"scenario": "register_trace"}))
        made = count_calls(monkeypatch, qtangle.trajectories.UnitaryCurve, "__post_init__")
        for method in ("analytic", "central_fd"):
            run(parse({"scenario": "register_trace", "method": method}))
        assert made == []
        assert canonical_register_program() is not canonical_register_program()
        assert made

    def test_canonical_runs_reuse_their_curves(self, monkeypatch):
        """After a first run, the canonical scenarios build no curve: they
        reuse one demo trajectory and one ensemble, and the factor stacks
        those cache.  The public functions still give fresh objects."""
        scenarios = ("two_qubit_demo", "chsh_scan", "pseudo_pure", "separable_mixed")
        for scenario in scenarios:
            run(parse({"scenario": scenario}))
        made = count_calls(monkeypatch, qtangle.trajectories.BlochCurve, "__init__")
        for scenario in scenarios:
            run(parse({"scenario": scenario}))
        assert made == []
        assert demo_trajectory() is not demo_trajectory()
        assert rotating_ensemble() is not rotating_ensemble()
        assert made

    def test_importing_the_cli_builds_no_program(self):
        """The canonical register program is built by the first register_trace
        run, not when qtangle.cli is imported."""
        script = """if True:
            import gc
            import qtangle.cli
            from qtangle.trajectories import UnitaryCurve

            def curves():
                return sum(isinstance(obj, UnitaryCurve) for obj in gc.get_objects())

            assert curves() == 0, curves()
            qtangle.cli.run(qtangle.cli.parse_config('{"scenario": "register_trace"}'))
            assert curves() == 6, curves()
        """
        src = str(Path(qtangle.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        cmd = [sys.executable, "-c", script]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("scenario", ["two_qubit_demo", "chsh_scan"])
    def test_derivative_polynomials_built_with_the_curves(self, scenario, monkeypatch):
        arc = {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}}
        doc = {"scenario": scenario, "subsystems": [arc, arc]}
        cfg = parse(doc)
        calls = count_calls(monkeypatch, Polynomial, "deriv")
        run(cfg)
        assert calls == []

    def test_grid_configs_construct_no_polynomial(self, monkeypatch):
        """A curve holds its polynomials as power-basis coefficient arrays:
        parsing and running every ``grid_configs()`` document, the canonical
        inputs built afresh, constructs no numpy Polynomial."""
        monkeypatch.setattr(qtangle.cli, "_canonical", cache(qtangle.cli._canonical.__wrapped__))
        calls = count_calls(monkeypatch, Polynomial, "__init__")
        for doc in grid_configs():
            run(parse(doc))
        assert calls == []

    @pytest.mark.parametrize(
        "doc, where",
        [
            (ZERO_MOTION_DEMO, "0"),
            (STIFF_PRODUCT, f"{math.pi / 180:.6g}"),
            (LEAKY_PRODUCT, f"{math.pi / 180:.6g}"),
        ],
        ids=["zero", "stiff", "leaky"],
    )
    def test_numerical_rejection_names_the_grid_point(self, doc, where):
        with pytest.raises(ToleranceBreachError) as info:
            run(parse(doc))
        assert str(info.value).endswith(f" at t={where}")
        assert str(info.value).count(" at t=") == 1
        assert isinstance(info.value.__cause__, ValueError)


SAMPLE_TIMES = [round(x, 3) for x in np.linspace(-0.5, 1.5, 21)]
SAMPLED_QUBIT = {
    "dim": 2,
    "curve": {
        "kind": "sampled",
        "times": SAMPLE_TIMES,
        "states": [[math.cos(t / 2), math.sin(t / 2)] for t in SAMPLE_TIMES],
    },
}
HAMILTONIAN_QUBIT = {
    "dim": 2,
    "curve": {
        "kind": "hamiltonian",
        "generator": [[0.3, [0.1, -0.4]], [[0.1, 0.4], -0.2]],
        "initial": [1, [0, 1]],
    },
}
INSIDE_SAMPLES = {"t0": 0.1, "t1": 0.9, "steps": 9}


def grid_configs():
    """Configs of every scenario: each method, sampled, frozen and 3-factor
    inputs, and pure base states."""
    docs = []
    for method in ("analytic", "central_fd", "richardson"):
        docs += [
            {"scenario": "two_qubit_demo", "method": method, "grid": {"steps": 19}},
            {"scenario": "chsh_scan", "method": method, "grid": {"steps": 19}},
            {"scenario": "register_trace", "method": method, "grid": {"steps": 17}},
            {"scenario": "separable_mixed", "method": method, "grid": {"steps": 11}},
            {
                "scenario": "pseudo_pure",
                "method": method,
                "epsilon": 0.35,
                "subsystems": [QUTRIT_PAIR[0], HAMILTONIAN_QUBIT],
            },
            {"scenario": "product_trace", "method": method, "subsystems": QUTRIT_PAIR},
            {
                "scenario": "product_trace",
                "method": method,
                "subsystems": [QUTRIT_PAIR[0], {**QUTRIT_PAIR[1], "frozen": True}, HAMILTONIAN_QUBIT],
                "cuts": [[[1], [2, 3]], [[1, 3], [2]]],
            },
        ]
    docs += [
        {"scenario": "product_trace", "grid": INSIDE_SAMPLES, "subsystems": [SAMPLED_QUBIT, QUTRIT_PAIR[1]]},
        {
            "scenario": "product_trace",
            "grid": INSIDE_SAMPLES,
            "method": "central_fd",
            "subsystems": [SAMPLED_QUBIT, {**HAMILTONIAN_QUBIT, "frozen": True}, QUTRIT_PAIR[1]],
        },
        {"scenario": "pseudo_pure", "grid": INSIDE_SAMPLES, "subsystems": [SAMPLED_QUBIT, QUTRIT_PAIR[0]]},
        {"scenario": "two_qubit_demo", "subsystems": [QUTRIT_PAIR[0], {**HAMILTONIAN_QUBIT, "frozen": True}]},
        # pure base states: no Cholesky certificate, so the spectra decide
        {"scenario": "pseudo_pure", "epsilon": 1.0},
    ]
    return docs


def grid_params(label, keep=lambda doc: True):
    """The ``grid_configs()`` documents ``keep`` selects as pytest params, each
    id the document's position in ``grid_configs()`` and then ``label(doc)``:
    no id repeats, and appending a document renames none."""
    docs = enumerate(grid_configs())
    return [pytest.param(doc, id=f"{i}-{label(doc)}") for i, doc in docs if keep(doc)]


def pointwise_rows(cfg):
    """The rows of ``run(cfg)``, one grid point at a time from the scalar functions."""
    method, h = cfg.method, cfg.h
    if cfg.scenario == "separable_mixed":
        rows = []
        for t in cfg.grid_points():
            wit = ensemble_witness(rotating_ensemble(), t, cfg.tol, method, h)
            rows.append((t, wit.tr1_norm, wit.tr2_norm, wit.operator_gap, wit.verdict))
        return rows
    if cfg.scenario == "register_trace":
        traj = canonical_register_program()
        cuts = cfg.cuts or (Cut.splitting((0,), 3), Cut.splitting((0, 1), 3))
    else:
        traj = cfg.trajectory() or demo_trajectory()
        cuts = cfg.cuts or (Cut.splitting((0,), traj.n_factors),)
    rows = []
    for t in cfg.grid_points():
        if cfg.scenario == "register_trace":
            k, local = traj.resolve_time(t)
            tv = register_tangent(traj, k, local, method, h)
            row = [t, k, fs_speed(tv)]
        else:
            tv = product_tangent(traj, t, method, h)
            row = [t, fs_speed(tv)]
        horizontal = horizontal_tangent(tv)
        moving = horizontal.norm() >= 1e-12
        for cut in cuts:
            row.append(entanglement_entropy(horizontal.normalized_direction(), cut) if moving else 0.0)
            if cfg.scenario != "chsh_scan":
                row.append(entanglement_entropy(tv.base, cut))
        if cfg.scenario == "two_qubit_demo":
            bell = bell_decompose(horizontal.normalized_direction())
            row += [bell[2].real, bell[1].real, chsh_value(horizontal.normalized_direction())]
        elif cfg.scenario == "chsh_scan":
            setting = MeasurementSetting([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
            row += [chsh_value(horizontal.normalized_direction())]
            row += correlation_expansion(traj, t, setting)
        elif cfg.scenario == "product_trace" and traj.n_factors == 2:
            row += [reduced_tangent_channel(traj, t, side, method, h).gap for side in (1, 2)]
            row.append(bilocal_inner_check(traj, t, method, h).reality_gap)
        elif cfg.scenario == "pseudo_pure":
            drho = pseudo_pure_differential(tv.base, tv, cfg.epsilon)
            wit = differential_trace_witness(drho, cfg.tol)
            dim = tv.base.total_dim
            eps = cfg.epsilon
            mixed = HermitianOp((1 - eps) * np.eye(dim) / dim + eps * tv.base.projector().matrix, tv.dims)
            row += [drho.trace(), wit.tr1_norm, wit.tr2_norm, wit.verdict]
            row.append(base_state_separability(mixed, cuts[0]))
        rows.append(row)
    return rows


def assert_rows_equal(got, want):
    assert len(got) == len(want)
    for row_got, row_want in zip(got, want):
        assert len(row_got) == len(row_want)
        for a, b in zip(row_got, row_want):
            if isinstance(b, str):
                assert a == b
            else:
                assert a == pytest.approx(b, rel=0, abs=1e-12)


class TestGridEqualsPointwise:
    @pytest.mark.parametrize("doc", grid_params(lambda d: f"{d['scenario']}-{d.get('method', 'auto')}"))
    def test_columns_match_scalar_functions(self, doc):
        cfg = parse(doc)
        assert_rows_equal(run(cfg).rows, pointwise_rows(cfg))

    @pytest.mark.parametrize(
        "doc", grid_params(lambda d: d["scenario"], keep=lambda d: d.get("method") == "central_fd")
    )
    def test_rows_do_not_depend_on_neighbours(self, doc):
        cfg = parse(doc)
        rows = run(cfg).rows
        grid = cfg.grid_points()
        for i, j in ((0, len(grid) - 1), (1, 2), (3, len(grid) // 2)):
            sub = run(parse({**doc, "grid": {"t0": grid[i], "t1": grid[j], "steps": 2}}))
            assert_rows_equal(sub.rows, [rows[i], rows[j]])

    def test_library_auto_resolves_once_per_trajectory(self, states_only):
        """Beside a curve with no closed-form derivative a Bloch arc is
        differentiated by richardson too, not by its closed form.  A sampled
        curve has one, so beside it auto is analytic, in the library as in
        the CLI."""
        arc = {"dim": 2, "curve": {"kind": "bloch", "theta": [0.4, 1.3, 0.7], "phi": [0.0, 2.0]}}
        cfg = parse({"scenario": "product_trace", "grid": INSIDE_SAMPLES, "subsystems": [arc, SAMPLED_QUBIT]})
        traj, grid, cuts = cfg.trajectory(), cfg.grid_points(), (Cut.splitting((0,), 2),)
        auto = profile(traj, grid, cuts)
        assert cfg.method == "analytic"
        assert np.array_equal(auto.directions, profile(traj, grid, cuts, method="analytic").directions)
        assert auto.fs_speed.tolist() == [row[1] for row in run(cfg).rows]
        mixed = ProductTrajectory((traj.factors[0], states_only(traj.factors[1])))
        richardson = profile(mixed, grid, cuts, method="richardson")
        assert np.array_equal(profile(mixed, grid, cuts).directions, richardson.directions)


@pytest.mark.parametrize("doc", grid_params(lambda d: f"{d['scenario']}-{d.get('method', 'auto')}"))
def test_parse_config_never_hands_run_auto(doc, monkeypatch):
    """Runners use ``cfg.method`` as a resolved name: bounds are looked up by it."""
    seen = []
    runner = qtangle.cli._RUNNERS[doc["scenario"]]
    monkeypatch.setitem(qtangle.cli._RUNNERS, doc["scenario"], lambda cfg: seen.append(cfg) or runner(cfg))
    cfg = parse({**doc, "method": "auto"})
    assert cfg.method in ("analytic", "central_fd", "richardson")
    assert len(run(cfg).rows) == cfg.grid[2]
    assert [c.method for c in seen] == [cfg.method]


class TestMainExitCodes:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_scenario_flag_to_file(self, tmp_path):
        out = tmp_path / "demo.csv"
        code = main(["--scenario", "two_qubit_demo", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("t,fs_speed,")

    def test_runs_are_deterministic(self, tmp_path):
        doc = {"scenario": "chsh_scan", "grid": {"steps": 11}, "seed": 7}
        cfg = self.write_config(tmp_path, doc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--config", cfg, "--out", str(a)]) == 0
        assert main(["--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_inputs_exit_2(self, tmp_path, capsys):
        assert main([]) == 2
        assert main(["--config", str(tmp_path / "absent.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_tolerance_breach_exits_3(self, tmp_path, capsys):
        doc = {
            "scenario": "pseudo_pure",
            "method": {"name": "central_fd", "h": 0.05},
            "grid": {"t0": 0.5, "t1": 1.5, "steps": 5},
            "subsystems": [
                {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 0.0, 1.0]}},
                {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 0.0, 1.0]}},
            ],
        }
        assert main(["--config", self.write_config(tmp_path, doc)]) == 3
        assert "trace" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [ZERO_MOTION_DEMO, STIFF_PRODUCT], ids=["zero", "stiff"])
    def test_numerical_rejection_mid_sweep_exits_3(self, tmp_path, capsys, doc):
        assert main(["--config", self.write_config(tmp_path, doc)]) == 3
        assert re.search(r"^error: .* at t=[0-9.]+$", capsys.readouterr().err, re.M)

    def test_sampled_curve_between_nodes_exits_0(self, tmp_path):
        # every grid point but the ends falls between sample nodes, where
        # the interpolated state is off unit norm by ~1e-8 before normalizing
        times = [round(x, 3) for x in np.linspace(-0.5, 1.5, 21)]
        doc = {
            "scenario": "product_trace",
            "grid": {"t0": 0.1, "t1": 0.9, "steps": 7},
            "seed": 3,
            "subsystems": [
                {
                    "dim": 2,
                    "curve": {
                        "kind": "sampled",
                        "times": times,
                        "states": [[math.cos(t / 2), math.sin(t / 2)] for t in times],
                    },
                },
                {"dim": 3, "curve": {"kind": "phase", "base": [1, 1, 1], "phi": [0.0, 0.7]}},
            ],
        }
        out = tmp_path / "o.json"
        cfg = self.write_config(tmp_path, doc)
        assert main(["--config", cfg, "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 7
        gaps = [row[c] for row in rows for c in ("channel_gap_1", "channel_gap_2", "bilocal_gap")]
        assert max(gaps) <= parse(doc).tol

    def test_python_m_qtangle_runs_without_warnings(self):
        src = str(Path(qtangle.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "qtangle"]
        cmd += ["--scenario", "two_qubit_demo"]
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("t,fs_speed,")

    def test_scipy_is_imported_only_for_a_sampled_curve(self, tmp_path):
        """Importing qtangle, every scenario shorthand and verify load no scipy
        module (importing scipy.interpolate costs about 0.6 s), and verify
        loads no numpy.ma (which np.unique imports); the first sampled curve
        loads scipy.interpolate."""
        script = """if True:
            import io, sys
            import numpy as np
            import qtangle
            from qtangle.cli import main
            from qtangle.config import SCENARIOS

            def scipy_modules():
                return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

            out, product_config = sys.argv[1:]
            assert len(SCENARIOS) == 6
            # product_trace has no default subsystems, so it is no shorthand
            shorthands = [name for name in SCENARIOS if name != "product_trace"]
            codes = {name: main(["--scenario", name, "--out", out]) for name in shorthands}
            assert codes == dict.fromkeys(shorthands, 0), codes
            assert main(["--config", product_config, "--out", out]) == 0
            assert qtangle.verify(trials=5, seed=0, stream=io.StringIO()) == 0
            assert "numpy.ma" not in sys.modules
            assert not scipy_modules(), scipy_modules()[:5]
            times = np.linspace(0.0, 1.0, 21)
            kets = [qtangle.Ket([np.cos(t / 2), np.sin(t / 2)], (2,)) for t in times]
            rows = qtangle.SampledCurve(times, kets).states(np.array([0.3, 0.6]))
            assert rows.shape == (2, 2)
            assert "scipy.interpolate" in sys.modules
        """
        product = {
            "scenario": "product_trace",
            "subsystems": [HAMILTONIAN_QUBIT, {"dim": 2, "curve": {"kind": "bloch", "theta": [0, 1]}}],
        }
        product_config = self.write_config(tmp_path, product)
        src = str(Path(qtangle.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        cmd = [sys.executable, "-c", script, str(tmp_path / "out.csv"), product_config]
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @staticmethod
    def whole_sampled_range(**extra):
        """A sampled qubit swept over its whole sampled range [0, 1]."""
        times = [round(x, 3) for x in np.linspace(0.0, 1.0, 21)]
        return {
            "scenario": "product_trace",
            "grid": {"t0": 0.0, "t1": 1.0},
            "subsystems": [
                {
                    "dim": 2,
                    "curve": {
                        "kind": "sampled",
                        "times": times,
                        "states": [[math.cos(t / 2), math.sin(t / 2)] for t in times],
                    },
                },
                {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0], "phi": 0.0}},
            ],
            **extra,
        }

    def test_sampled_curve_runs_over_its_whole_range(self, tmp_path, capsys):
        """auto differentiates the spline exactly, so no point leaves the range."""
        doc = self.whole_sampled_range()
        assert main(["--config", self.write_config(tmp_path, doc)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert len(out.splitlines()) == 1 + parse(doc).grid[2]

    def test_sampled_range_message_prints_plain_floats(self, tmp_path, capsys):
        # richardson's first stencil point past the last grid point is t1 + h/2
        doc = self.whole_sampled_range(method="richardson")
        assert main(["--config", self.write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: t=1.00005 outside the sampled range [0.0, 1.0], a point of the richardson"
            " stencil (h=0.0001) of grid point t=1.0\n"
        )

    @pytest.mark.parametrize("method", ["richardson", "central_fd"])
    def test_stencil_rejection_keeps_its_grid_point(self, method):
        """A stencil point past the sampled range is rejected with ``row`` the
        grid point the stencil was taken at: the last one of a sweep, the
        only one of ``differentiate``."""
        cfg = parse(self.whole_sampled_range(method=method))
        traj, grid = cfg.trajectory(), cfg.grid_points()
        with pytest.raises(qtangle.ParameterRangeError, match="of grid point t=1.0$") as info:
            profile(traj, grid, [Cut.splitting((0,), 2)], method)
        assert info.value.row == grid.size - 1 == 180
        with pytest.raises(qtangle.ParameterRangeError, match="of grid point t=1.0$") as info:
            qtangle.differentiate(traj.factors[0], 1.0, method)
        assert info.value.row == 0

    @pytest.mark.parametrize(
        "doc, message",
        [
            (STENCIL_MIXED, "differential must be traceless, got trace -4.013e-08+0.000e+00j at t=0.0174533"),
            (
                COARSE_SAMPLED,
                "interpolated state at t=1.5: expected a unit vector, got norm 0.7071067811865475 at t=1.5",
            ),
            (OVERFLOWING_SPEED[2], "fs_speed overflows double precision at t=0"),
            (OVERFLOWING_SPEED[3], "fs_speed overflows double precision at t=0"),
            (WIDE_ARC[1.5e308], "arc_length overflows double precision at t=1.5e+308"),
        ],
        ids=["stencil-mixed", "coarse-sampled", "overflow-2", "overflow-3", "arc-overflow"],
    )
    def test_rejection_below_the_cells_exits_3_at_its_grid_point(self, tmp_path, capsys, doc, message):
        """A grid point rejected in ``profile`` or in the ensemble witness is a
        tolerance breach there, as one rejected in a scenario's cells is; no
        floating-point warning is printed on the way."""
        assert main(["--config", self.write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_rejection_without_a_grid_point_exits_2(self, capsys, monkeypatch):
        """A rejection that names no grid point passes ``run`` unchanged: bad
        input, one stderr line."""

        def rejecting(cfg):
            raise qtangle.ValidationError("subsystems: no grid point to name")

        monkeypatch.setitem(qtangle.cli._RUNNERS, "two_qubit_demo", rejecting)
        assert main(["--scenario", "two_qubit_demo"]) == 2
        assert capsys.readouterr() == ("", "error: subsystems: no grid point to name\n")

    def test_arc_length_within_double_precision_is_written(self, tmp_path, capsys):
        assert main(["--config", self.write_config(tmp_path, WIDE_ARC[1e308]), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["resolved"]["arc_length"] == 1.4142135623730951e308

    def test_overflowing_speed_is_rejected_by_profile(self):
        traj = parse(OVERFLOWING_SPEED[3]).trajectory()
        with np.errstate(over="ignore"), pytest.raises(qtangle.ValidationError) as info:
            profile(traj, np.linspace(0.0, 1.0, 5), [Cut.splitting((0,), 3)])
        assert (str(info.value), info.value.row) == ("fs_speed overflows double precision", 0)

    def test_product_trace_is_no_scenario_shorthand(self, capsys, monkeypatch):
        """It has no default subsystems: argparse refuses it, and --help says why."""
        monkeypatch.setenv("COLUMNS", "200")  # no help line wraps
        with pytest.raises(SystemExit) as exc:
            main(["--scenario", "product_trace"])
        assert exc.value.code == 2
        assert "invalid choice: 'product_trace'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "(product_trace has none: run it by --config)" in capsys.readouterr().out

    def test_unwritable_output_exits_4(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["--scenario", "two_qubit_demo", "--out", str(target)]) == 4

    def test_flag_overrides_reach_the_run(self, tmp_path):
        cfg = self.write_config(tmp_path, {"scenario": "two_qubit_demo", "grid": {"steps": 3}})
        out = tmp_path / "o.json"
        assert main(["--config", cfg, "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["config"]["outputs"]["format"] == "json"

    def test_verify_subcommand_smoke(self, capsys):
        assert main(["verify", "--trials", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 8

    def test_verify_rejects_zero_trials(self, capsys):
        assert main(["verify", "--trials", "0"]) == 2

    @pytest.mark.parametrize(
        "args, unbuffered",
        [
            (["--config", "SMALL"], False),
            (["--config", "SMALL", "--format", "json"], True),
            (["verify", "--trials", "5"], False),
            (["verify", "--trials", "5", "--format", "json"], True),
        ],
        ids=["scenario", "scenario-json-unbuffered", "verify", "verify-json-unbuffered"],
    )
    def test_closed_stdout_exits_4(self, tmp_path, args, unbuffered):
        """A reader that closed stdout gets exit 4 and one error line, whether
        the write fails at once or only when stdout is flushed."""
        small = self.write_config(tmp_path, {"scenario": "chsh_scan", "grid": {"steps": 2}})
        args = [small if a == "SMALL" else a for a in args]
        src = str(Path(qtangle.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qtangle", *args],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (4, "error: [Errno 32] Broken pipe\n")

    def test_verify_library_call_rejects_zero_trials(self):
        stream = io.StringIO()
        with pytest.raises(ValueError, match="trials must be at least 1"):
            verify(trials=0, stream=stream)
        assert stream.getvalue() == ""

    def test_verify_refuses_more_than_max_trials(self, capsys):
        stream = io.StringIO()
        with pytest.raises(ValueError, match="^trials must be at most 100000, got 100001$"):
            verify(trials=100001, stream=stream)
        assert stream.getvalue() == ""
        assert main(["verify", "--trials", "1000000000000000"]) == 2
        assert capsys.readouterr() == ("", "error: trials must be at most 100000, got 1000000000000000\n")

    def test_verify_names_the_seed_it_refuses(self, capsys):
        stream = io.StringIO()
        with pytest.raises(ValueError, match="^seed: must be non-negative, got -3$"):
            verify(trials=1, seed=-3, stream=stream)
        assert stream.getvalue() == ""
        assert main(["verify", "--seed", "-3"]) == 2
        assert capsys.readouterr() == ("", "error: seed: must be non-negative, got -3\n")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"trials": 2.5}, "trials must be an integer, got 2.5"),
            ({"trials": 1, "seed": 0.5}, "seed: must be an integer, got 0.5"),
            ({"trials": True}, "trials must be an integer, got True"),
            ({"trials": 1, "seed": False}, "seed: must be an integer, got False"),
        ],
    )
    def test_verify_refuses_a_non_integer_before_drawing(self, kwargs, message, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("verify drew"))
        stream = io.StringIO()
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify(stream=stream, **kwargs)
        assert stream.getvalue() == ""


VERIFY_CHECKS = (
    "channel-identity",
    "bilocal-reality",
    "tangent-genericity",
    "gauge-invariance",
    "fs-consistency",
    "fd-order",
    "composition-convergence",
    "witness-no-false-positive",
)


def _shift_first_half(entropies_or_zero):
    """Add 1e-9 to the entropies of the first half of the rows: the modulated
    half in the gauge check; harmless to the genericity floor of 1e-8."""

    def shifted(rows, *args, **kwargs):
        out = entropies_or_zero(rows, *args, **kwargs)
        return [e + 1e-9 * (np.arange(len(e)) < len(e) // 2) for e in out]

    return shifted


# check -> (kernel its stacked trials pass through, a breach of its bound, message):
# 10x the bound of a margin check; a halving or doubling ratio of exactly 1 otherwise
VERIFY_BREACHES = {
    "channel-identity": (
        "_channel_rows",
        lambda kernel: lambda *a: [(*side[:-1], side[-1] + 1e-9) for side in kernel(*a)],
        "channel decomposition gap 1.000e-09 >= 1e-10",
    ),
    "bilocal-reality": (
        "_reality_gaps",
        lambda kernel: lambda *a: kernel(*a) + 1e-9,
        "bilocal overlap product imaginary part 1.000e-09 >= 1e-10",
    ),
    "tangent-genericity": (
        "_entropies_or_zero",
        lambda kernel: lambda *a: [np.full_like(e, 1e-9) for e in kernel(*a)],
        "50/50 random tangents fell below entropy 1e-8 (min 1e-09)",
    ),
    "gauge-invariance": (
        "_entropies_or_zero",
        _shift_first_half,
        "entropy moved by 1.000e-09 under phase modulation",
    ),
    "fs-consistency": (
        "_fs_distances",
        # no distance covered, so each step's error is the speed itself
        lambda kernel: lambda *a: 0.0 * kernel(*a),
        "median halving ratio 1.000 outside 4 +/- 20%",
    ),
    "fd-order": (
        "_curve_rows",
        # one step for every stencil, so the h and h/2 rows are the same rows
        lambda kernel: lambda curve, ts, method, h: kernel(curve, ts, method, _HALVING_STEP),
        "median central-difference ratio 1.000 outside 4 +/- 20%",
    ),
    "composition-convergence": (
        "infinitesimal_composition",
        # 64 steps for n = 64 and for n = 128, so the two distances are the same
        lambda kernel: lambda gens, total, n: kernel(gens, total, 64),
        "50/50 doubling ratios outside 2 +/- 15% (e.g. 1.000)",
    ),
    "witness-no-false-positive": (
        "_trace_witness",
        lambda kernel: lambda *a: (kernel(*a)[0] + 1e-9, *kernel(*a)[1:]),
        "partial-trace norm 1.000e-09 >= 1e-10 on product form",
    ),
}


def _nan_side_2(kernel):
    """``_channel_rows`` with every gap of subsystem 2 NaN."""

    def nan_side_2(*args):
        first, second = kernel(*args)
        return [first, (*second[:-1], np.full_like(second[-1], np.nan))]

    return nan_side_2


def _nan_first_row(kernel):
    """The kernel with its first row NaN."""

    def first_nan(*args):
        out = kernel(*args).copy()
        out[0] = np.nan
        return out

    return first_nan


# a kernel made to return NaN -> the checks that must then fail, each with its message;
# each NaN once slipped past its check's reduction, which passed it with exit 0
VERIFY_NANS = {
    "_reality_gaps": (
        lambda kernel: lambda *a: np.full_like(kernel(*a), np.nan),
        {"bilocal-reality": "bilocal overlap product imaginary part nan >= 1e-10"},
    ),
    "_first_slot_entropies": (
        lambda kernel: lambda *a: np.full_like(kernel(*a), np.nan),
        {
            "tangent-genericity": "50/50 random tangents fell below entropy 1e-8 (min nan)",
            "gauge-invariance": "entropy moved by nan under phase modulation",
        },
    ),
    # the builtin max over the two sides dropped a NaN of the second
    "_channel_rows": (_nan_side_2, {"channel-identity": "channel decomposition gap nan >= 1e-10"}),
    # the speed filter dropped a NaN speed and drew the trial again
    "_fs_speeds": (_nan_first_row, {"fs-consistency": "median halving ratio nan outside 4 +/- 20%"}),
}


class TestVerify:
    def test_every_check_holds_over_seeds(self):
        for seed in range(10):
            stream = io.StringIO()
            assert verify(200, seed=seed, stream=stream) == 0
            lines = stream.getvalue().splitlines()
            assert [line.split(":")[0] for line in lines] == [f"ok {n}" for n in VERIFY_CHECKS]

    @pytest.mark.parametrize("name", sorted(VERIFY_BREACHES))
    def test_stacked_check_still_fails(self, name, monkeypatch, capsys):
        """A kernel pushed 10x past the bound fails its check, and only it."""
        kernel, breach, message = VERIFY_BREACHES[name]
        monkeypatch.setattr(qtangle.cli, kernel, breach(getattr(qtangle.cli, kernel)))
        assert verify(50, seed=2) == 3
        out, err = capsys.readouterr()
        assert err == f"FAIL {name}: {message}\n"
        assert [line.split(":")[0] for line in out.splitlines()] == [
            f"ok {other}" for other in VERIFY_CHECKS if other != name
        ]

    def test_flagged_verdict_fails_the_witness_check(self, monkeypatch, capsys):
        """The witness check's verdict branch: an honest product form flagged
        as excluded fails it, and only it, whatever its partial-trace norms."""
        witness = qtangle.cli._trace_witness

        def flagged(*args):
            tr1, tr2, verdict = witness(*args)
            return tr1, tr2, np.full(verdict.shape, VERDICT_EXCLUDED)

        monkeypatch.setattr(qtangle.cli, "_trace_witness", flagged)
        assert verify(50, seed=2) == 3
        out, err = capsys.readouterr()
        assert err == "FAIL witness-no-false-positive: witness flagged an honest product-differential form\n"
        assert [line.split(":")[0] for line in out.splitlines()] == [
            f"ok {other}" for other in VERIFY_CHECKS if other != "witness-no-false-positive"
        ]

    @pytest.mark.parametrize("kernel", sorted(VERIFY_NANS))
    def test_nan_margin_fails_its_check(self, kernel, monkeypatch, capsys):
        """A NaN that reaches a check's margin fails that check, and only it."""
        nan, failing = VERIFY_NANS[kernel]
        monkeypatch.setattr(qtangle.cli, kernel, nan(getattr(qtangle.cli, kernel)))
        assert verify(50, seed=2) == 3
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"FAIL {name}: {message}" for name, message in failing.items()]
        assert [line.split(":")[0] for line in out.splitlines()] == [
            f"ok {other}" for other in VERIFY_CHECKS if other not in failing
        ]

    def test_median_keeps_a_nan_ratio(self):
        ratios = np.concatenate([np.full(11, 4.0), np.full(9, np.nan)])
        result = qtangle.cli._median_ratio(ratios, "halving")
        assert math.isnan(result.margin)
        assert result.failure == "median halving ratio nan outside 4 +/- 20%"

    def test_a_margin_at_its_bound_fails(self):
        result = qtangle.cli.CheckResult(1e-10, 1e-10, "", lambda: "at the bound")
        assert result.failure == "at the bound"
        assert qtangle.cli.CheckResult(0.5e-10, 1e-10, "", lambda: "below").failure is None

    def test_json_report_of_a_nan_margin_is_strict_json(self, monkeypatch, capsys):
        """A NaN margin is written as null, beside its bound and message; a
        check that raised has a null bound too."""
        kernel = qtangle.cli._reality_gaps
        monkeypatch.setattr(qtangle.cli, "_reality_gaps", lambda *a: np.full_like(kernel(*a), np.nan))
        assert main(["verify", "--trials", "20", "--seed", "1", "--format", "json"]) == 3
        out, err = capsys.readouterr()

        def no_constant(token):
            raise ValueError(f"not strict JSON: {token}")

        doc = json.loads(out, parse_constant=no_constant)
        assert doc["status"] == "fail"
        entry = doc["checks"]["bilocal-reality"]
        message = "bilocal overlap product imaginary part nan >= 1e-10"
        assert (entry["status"], entry["margin"], entry["bound"]) == ("fail", None, 1e-10)
        assert entry["message"] == message
        assert err == f"FAIL bilocal-reality: {message}\n"
        for name, other in doc["checks"].items():
            holds = other["margin"] is not None and other["margin"] < other["bound"]
            assert (other["status"] == "ok") == holds, name

    def test_json_report(self, capsys):
        assert main(["verify", "--trials", "30", "--seed", "4", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["status"], doc["seed"], doc["trials"]) == ("ok", 4, 30)
        assert list(doc["checks"]) == list(VERIFY_CHECKS)
        for entry in doc["checks"].values():
            assert entry["status"] == "ok"
            assert entry["trials"] == 30
            assert entry["margin"] < entry["bound"]
            assert entry["seconds"] >= 0

    def test_json_report_of_a_failure(self, monkeypatch, capsys):
        kernel, breach, message = VERIFY_BREACHES["channel-identity"]
        monkeypatch.setattr(qtangle.cli, kernel, breach(getattr(qtangle.cli, kernel)))
        assert main(["verify", "--trials", "100", "--format", "json"]) == 3
        out, err = capsys.readouterr()
        entry = json.loads(out)["checks"]["channel-identity"]
        assert (entry["status"], entry["message"]) == ("fail", message)
        assert entry["margin"] >= entry["bound"] == 1e-10
        assert json.loads(out)["checks"]["fd-order"]["trials"] == 60
        assert err == f"FAIL channel-identity: {message}\n"

    def test_a_check_that_raises_fails_with_its_message(self, monkeypatch, capsys):
        """A check that raises ValueError fails as a breach does: FAIL and its
        message on stderr, exit 3, and the message in JSON, with no margin."""

        def raising(rng, trials):
            raise ValueError("no closed form here")

        checks = tuple((n, raising if n == "fd-order" else c, cap) for n, c, cap in qtangle.cli._CHECKS)
        monkeypatch.setattr(qtangle.cli, "_CHECKS", checks)
        stream = io.StringIO()
        assert verify(20, seed=1, stream=stream) == 3
        assert capsys.readouterr().err == "FAIL fd-order: no closed form here\n"
        assert "fd-order" not in stream.getvalue()
        assert main(["verify", "--trials", "20", "--format", "json"]) == 3
        out, err = capsys.readouterr()
        entry = json.loads(out)["checks"]["fd-order"]
        assert (entry["status"], entry["message"]) == ("fail", "no closed form here")
        assert entry["margin"] is None and entry["bound"] is None
        assert err == "FAIL fd-order: no closed form here\n"

    def test_bad_format_is_invalid_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--format", "xml"])
        assert exc.value.code == 2
        with pytest.raises(ValueError, match="out_format"):
            verify(3, out_format="xml", stream=io.StringIO())

def run_check(name, rng, trials):
    """The result of check ``name`` from one call of the ``_CHECKS`` row that
    runs it, as ``verify`` makes it: a row naming several checks runs them all."""
    for names, check, _ in qtangle.cli._CHECKS:
        if names == name:
            return check(rng, trials)
        if isinstance(names, tuple) and name in names:
            return check(rng, trials)[names.index(name)]
    raise KeyError(name)


# check that combines factors -> (the draw its row makes per factor dim, that draw's dim argument)
VERIFY_DRAWS = {
    "channel-identity": ("_random_curves", 1),
    "bilocal-reality": ("_random_curves", 1),
    "tangent-genericity": ("_random_unit_rows", 2),
    "gauge-invariance": ("_random_curves", 1),
    "fs-consistency": ("_random_curves", 1),
    "witness-no-false-positive": ("_random_curves", 1),
}


class TestVerifyDraw:
    """Each check that combines factors draws one stack per factor dim and
    evaluates it once, each row at its own trial's t."""

    @pytest.mark.parametrize("name", sorted(VERIFY_DRAWS))
    def test_one_draw_per_factor_dim_in_each_round(self, name, monkeypatch):
        cli = qtangle.cli
        draw, dim_arg = VERIFY_DRAWS[name]
        original_draw, original_dims = getattr(cli, draw), cli._random_dims
        events = []

        def drawing(*args, **kwargs):
            events.append(args[dim_arg])
            return original_draw(*args, **kwargs)

        def drawing_dims(*args):
            events.append("round")  # a check that redraws its trials starts a round here
            return original_dims(*args)

        monkeypatch.setattr(cli, draw, drawing)
        monkeypatch.setattr(cli, "_random_dims", drawing_dims)
        assert run_check(name, np.random.default_rng(3), 200).failure is None
        rounds = []
        for event in events:
            if event == "round" or not rounds:
                rounds.append([])
            if event != "round":
                rounds[-1].append(int(event))
        assert rounds
        for drawn in rounds:
            assert drawn and len(drawn) == len(set(drawn)) <= 3

    def test_each_slot_row_is_its_trials_curve_at_its_trials_t(self, monkeypatch):
        cli = qtangle.cli
        stacks = {}
        original = cli._random_curves

        def recording(rng, dim, m, *args):
            stacks[dim] = original(rng, dim, m, *args)
            return stacks[dim]

        monkeypatch.setattr(cli, "_random_curves", recording)
        rng = np.random.default_rng(8)
        dims = cli._random_dims(rng, 40)
        ts = rng.uniform(0.0, 1.0, 40)
        states, directions = cli._curve_slot_rows(rng, dims, ts)
        assert states.shape == directions.shape == (40, 3, 3)
        for i in (0, 7, 19, 39):
            for k, d in enumerate(dims[i]):
                if not d:
                    assert not states[i, k].any() and not directions[i, k].any()
                    continue
                trial, slot = np.nonzero(dims == d)
                j = int(np.flatnonzero((trial == i) & (slot == k))[0])
                at = np.full(trial.size, ts[i])
                want = stacks[d].states(at)[j], stacks[d].velocities(at)[j]
                assert np.max(np.abs(states[i, k, :d] - want[0])) <= 1e-15
                assert np.max(np.abs(directions[i, k, :d] - want[1])) <= 1e-15
                assert not states[i, k, d:].any() and not directions[i, k, d:].any()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_a_seed_prints_the_same_bytes_every_run(self, seed):
        outputs = []
        for _ in range(2):
            stream = io.StringIO()
            assert verify(200, seed=seed, stream=stream) == 0
            outputs.append(stream.getvalue())
        assert outputs[0] == outputs[1]


# the row of channel-identity and bilocal-reality reads one draw for both
BIPARTITE_KERNEL_CALLS = {"_factor_overlaps": 1, "_product_tangents": 1, "_channel_rows": 1, "_reality_gaps": 1}
# check that combines factors -> its row's kernel calls in each draw round
VERIFY_KERNEL_CALLS = {
    "channel-identity": BIPARTITE_KERNEL_CALLS,
    "bilocal-reality": BIPARTITE_KERNEL_CALLS,
    "tangent-genericity": {"_product_tangents": 1, "_entropies_or_zero": 1},
    "gauge-invariance": {"_product_tangents": 2, "_entropies_or_zero": 1},
    "fs-consistency": {"_product_tangents": 1, "_fs_distances": 2},
    "witness-no-false-positive": {"_trace_witness": 1},
}
VERIFY_KERNELS = sorted({kernel for calls in VERIFY_KERNEL_CALLS.values() for kernel in calls})


class TestBipartiteDraw:
    """channel-identity and bilocal-reality read one draw of two-factor
    trials, as ``product_trace``'s gap columns read one profile's rows."""

    def bipartite_row(self):
        (names, check, cap), *_ = qtangle.cli._CHECKS
        assert (names, cap) == (("channel-identity", "bilocal-reality"), None)
        return check

    def test_one_draw_per_factor_dim_and_one_norm_check(self, monkeypatch):
        cli = qtangle.cli
        original, drawn = cli._random_curves, []

        def drawing(rng, dim, *args, **kwargs):
            drawn.append(dim)
            return original(rng, dim, *args, **kwargs)

        monkeypatch.setattr(cli, "_random_curves", drawing)
        overlaps = count_calls(monkeypatch, cli, "_factor_overlaps")
        channel, bilocal = self.bipartite_row()(np.random.default_rng(3), 200)
        assert channel.failure is None and bilocal.failure is None
        assert sorted(drawn) == [2, 3, 4]
        assert len(overlaps) == 1

    @pytest.mark.parametrize("seed", [0, 5])
    def test_bilocal_margin_is_the_gap_of_the_checked_overlaps(self, seed, monkeypatch):
        """The bilocal margin is ``_reality_gaps`` over the overlaps of the
        very factor rows whose channel gaps channel-identity measured."""
        cli = qtangle.cli
        factor_overlaps, channel_rows, seen = cli._factor_overlaps, cli._channel_rows, {}

        def overlaps(parts, method):
            seen["norm-checked"], seen["overlaps"] = parts, factor_overlaps(parts, method)
            return seen["overlaps"]

        def channel(parts, *args):
            seen["channel"] = parts
            return channel_rows(parts, *args)

        monkeypatch.setattr(cli, "_factor_overlaps", overlaps)
        monkeypatch.setattr(cli, "_channel_rows", channel)
        channel_result, bilocal = self.bipartite_row()(np.random.default_rng(seed), 200)
        assert seen["channel"] is seen["norm-checked"]
        assert bilocal.margin == float(qtangle.channels._reality_gaps(*seen["overlaps"]).max())
        assert channel_result.failure is None and bilocal.failure is None

    def test_a_shared_row_that_raises_fails_both_names(self, monkeypatch, capsys):
        """Both checks fail with the message, as a single check that raises
        does, and both JSON entries report the one call's seconds."""
        message = "factor 1 not norm-preserving"

        def raising(parts, method):
            raise qtangle.ValidationError(message)

        monkeypatch.setattr(qtangle.cli, "_factor_overlaps", raising)
        shared = VERIFY_CHECKS[:2]
        fails = "".join(f"FAIL {name}: {message}\n" for name in shared)
        stream = io.StringIO()
        assert verify(20, seed=1, stream=stream) == 3
        assert capsys.readouterr().err == fails
        assert [line.split(":")[0] for line in stream.getvalue().splitlines()] == [
            f"ok {other}" for other in VERIFY_CHECKS[2:]
        ]
        assert main(["verify", "--trials", "20", "--format", "json"]) == 3
        out, err = capsys.readouterr()
        assert err == fails
        doc = json.loads(out)
        assert doc["status"] == "fail" and list(doc["checks"]) == list(VERIFY_CHECKS)
        entries = [doc["checks"][name] for name in shared]
        for entry in entries:
            assert (entry["status"], entry["message"], entry["trials"]) == ("fail", message, 20)
            assert entry["margin"] is None and entry["bound"] is None
        assert entries[0]["seconds"] == entries[1]["seconds"] >= 0


def tensor_tangent(factors):
    """The state and tangent of a product, from its (state, direction) factors by np.kron."""
    state = reduce(np.kron, [a for a, _ in factors])
    moved = lambda k: reduce(np.kron, [d if j == k else a for j, (a, d) in enumerate(factors)])
    return state, sum(moved(k) for k in range(len(factors)))


class TestVerifyPass:
    """Each check pads its trials' factor rows to one stack and passes it once
    through its kernels."""

    @pytest.mark.parametrize("name", sorted(VERIFY_KERNEL_CALLS))
    def test_each_kernel_runs_once_per_draw_round(self, name, monkeypatch):
        cli = qtangle.cli
        calls = {kernel: count_calls(monkeypatch, cli, kernel) for kernel in VERIFY_KERNELS}
        rounds = count_calls(monkeypatch, cli, "_random_dims")
        assert run_check(name, np.random.default_rng(3), 200).failure is None
        per_round = {kernel: len(made) / max(len(rounds), 1) for kernel, made in calls.items()}
        assert per_round == {kernel: VERIFY_KERNEL_CALLS[name].get(kernel, 0) for kernel in VERIFY_KERNELS}

    def test_padded_entropy_is_the_unpadded_tangents(self):
        """A still |0> in the empty slot keeps a two-factor tangent's Schmidt
        spectrum across 1|23, and zero padding keeps every trial's."""
        cli = qtangle.cli
        rng = np.random.default_rng(11)
        dims = cli._random_dims(rng, 60)
        assert {np.count_nonzero(row) for row in dims} == {2, 3}

        def rows_of(d, trial, slot):
            psi = qtangle.trajectories._random_unit_rows(rng, trial.size, d)
            return psi, qtangle.trajectories._admissible_rows(rng, psi)

        states, directions = cli._slot_rows(dims, rows_of)
        trials = [
            [(states[i, k, :d].copy(), directions[i, k, :d].copy()) for k, d in enumerate(row) if d]
            for i, row in enumerate(dims)
        ]
        parts = cli._slot_parts(dims, [states, directions])
        tangents = cli._product_tangents(parts)
        entropy = cli._first_slot_entropies(qtangle.trajectories._horizontal(*tangents), parts)
        for i, factors in enumerate(trials):
            state, direction = tensor_tangent(factors)
            tangent = qtangle.TangentVector(Ket(state, tuple(a.size for a, _ in factors)), direction)
            unit = horizontal_tangent(tangent).normalized_direction()
            assert abs(entropy[i] - entanglement_entropy(unit, Cut.splitting((0,), len(factors)))) <= 1e-12

    def test_peak_memory_of_a_thousand_trials(self):
        tracemalloc.start()
        try:
            assert verify(1000, seed=0, stream=io.StringIO()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestEmit:
    def test_stdout_default(self, capsys):
        rep = run(parse({"scenario": "two_qubit_demo", "grid": {"steps": 2}}))
        emit(rep)
        out = capsys.readouterr().out
        assert out.startswith("t,fs_speed,")

    def test_file_has_unix_newlines(self, tmp_path):
        rep = run(parse({"scenario": "two_qubit_demo", "grid": {"steps": 2}}))
        path = tmp_path / "r.csv"
        emit(rep, "csv", str(path))
        assert b"\r" not in path.read_bytes()

    def test_a_file_descriptor_is_refused_and_left_open(self, tmp_path):
        """open() would take an int as a descriptor, write to it and close it."""
        rep = run(parse({"scenario": "two_qubit_demo", "grid": {"steps": 2}}))
        fd = os.open(tmp_path / "r.csv", os.O_RDWR | os.O_CREAT)
        try:
            with pytest.raises(TypeError, match="^path must be a str or an os.PathLike, got int$"):
                emit(rep, "csv", fd)
            assert os.fstat(fd).st_size == 0
        finally:
            os.close(fd)

    def test_a_path_like_is_written(self, tmp_path):
        rep = run(parse({"scenario": "two_qubit_demo", "grid": {"steps": 2}}))
        emit(rep, "csv", tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text().startswith("t,fs_speed,")

    @pytest.mark.parametrize("out_format", ["xml", "CSV", ""])
    def test_unknown_format_rejected_before_anything_is_written(self, tmp_path, capsys, out_format):
        rep = run(parse({"scenario": "two_qubit_demo", "grid": {"steps": 2}}))
        path = tmp_path / "r.out"
        with pytest.raises(ValueError, match=r"^out_format must be one of \('csv', 'json'\), got "):
            emit(rep, out_format, str(path))
        with pytest.raises(ValueError, match="^out_format must be one of"):
            emit(rep, out_format)
        assert not path.exists()
        assert capsys.readouterr().out == ""
