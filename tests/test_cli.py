"""Config parsing, scenario runners, report rendering, and exit codes."""

import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import qtangle
import qtangle.trajectories
from qtangle import (
    ConfigError,
    Cut,
    HermitianOp,
    Ket,
    MeasurementSetting,
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
    TRACE_TOL,
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

    def test_sampled_curve_switches_method_to_richardson(self):
        times = list(np.linspace(0, 1, 9))
        states = [[math.cos(t / 2), math.sin(t / 2)] for t in times]
        doc = {
            "scenario": "product_trace",
            "subsystems": [
                {"dim": 2, "curve": {"kind": "sampled", "times": times, "states": states}},
                {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}},
            ],
        }
        assert parse(doc).method == "richardson"

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
        """Each grid point's tangent is assembled once: one Leibniz assembly
        per sweep, or per program step, whatever the grid size."""
        calls = count_calls(monkeypatch, qtangle.trajectories, "_product_rule")
        for steps in (13, 26):
            calls.clear()
            rep = run(parse(scenario_doc(scenario, steps)))
            assert len(rep.rows) == steps
            assert len(calls) == (2 if scenario == "register_trace" else 1)

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

    @pytest.mark.parametrize("scenario", ["two_qubit_demo", "chsh_scan"])
    def test_derivative_polynomials_built_with_the_curves(self, scenario, monkeypatch):
        arc = {"dim": 2, "curve": {"kind": "bloch", "theta": [0.0, 1.0]}}
        doc = {"scenario": scenario, "subsystems": [arc, arc]}
        cfg = parse(doc)
        calls = count_calls(monkeypatch, Polynomial, "deriv")
        run(cfg)
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
    """Configs of every scenario: each method, sampled, frozen and 3-factor inputs."""
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
    ]
    return docs


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
    @pytest.mark.parametrize("doc", grid_configs(), ids=lambda d: f"{d['scenario']}-{d.get('method', 'auto')}")
    def test_columns_match_scalar_functions(self, doc):
        cfg = parse(doc)
        assert_rows_equal(run(cfg).rows, pointwise_rows(cfg))

    @pytest.mark.parametrize(
        "doc", [d for d in grid_configs() if d.get("method") == "central_fd"], ids=lambda d: d["scenario"]
    )
    def test_rows_do_not_depend_on_neighbours(self, doc):
        cfg = parse(doc)
        rows = run(cfg).rows
        grid = cfg.grid_points()
        for i, j in ((0, len(grid) - 1), (1, 2), (3, len(grid) // 2)):
            sub = run(parse({**doc, "grid": {"t0": grid[i], "t1": grid[j], "steps": 2}}))
            assert_rows_equal(sub.rows, [rows[i], rows[j]])

    def test_library_auto_resolves_once_per_trajectory(self):
        """Beside a sampled curve a Bloch arc is differentiated by richardson
        too, in the library as in the CLI, not by its closed form."""
        arc = {"dim": 2, "curve": {"kind": "bloch", "theta": [0.4, 1.3, 0.7], "phi": [0.0, 2.0]}}
        cfg = parse({"scenario": "product_trace", "grid": INSIDE_SAMPLES, "subsystems": [arc, SAMPLED_QUBIT]})
        traj, grid, cuts = cfg.trajectory(), cfg.grid_points(), (Cut.splitting((0,), 2),)
        auto = profile(traj, grid, cuts)
        richardson = profile(traj, grid, cuts, method="richardson")
        assert np.array_equal(auto.directions, richardson.directions)
        assert auto.fs_speed.tolist() == [row[1] for row in run(cfg).rows]


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

    def test_verify_library_call_rejects_zero_trials(self):
        stream = io.StringIO()
        with pytest.raises(ValueError, match="trials must be at least 1"):
            verify(trials=0, stream=stream)
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


# check -> (kernel its stacked trials pass through, breach of 10x its bound, message)
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
    "gauge-invariance": (
        "_entropies_or_zero",
        _shift_first_half,
        "entropy moved by 1.000e-09 under phase modulation",
    ),
    "witness-no-false-positive": (
        "_trace_witness",
        lambda kernel: lambda *a: (kernel(*a)[0] + 1e-9, *kernel(*a)[1:]),
        "partial-trace norm 1.000e-09 >= 1e-10 on product form",
    ),
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

    def test_bad_format_is_invalid_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--format", "xml"])
        assert exc.value.code == 2
        with pytest.raises(ValueError, match="out_format"):
            verify(3, out_format="xml", stream=io.StringIO())

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
