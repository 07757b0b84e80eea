"""Config parsing, scenario runners, report rendering, and exit codes."""

import json
import math
import re
import sys

import numpy as np
import pytest

import qtangle.trajectories
from qtangle import ConfigError, RunConfig, ToleranceBreachError, parse_config
from qtangle.cli import (
    TRACE_TOL,
    demo_trajectory,
    emit,
    main,
    render_csv,
    render_json,
    run,
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


class TestSweepDriver:
    @pytest.mark.parametrize("scenario", ["two_qubit_demo", "pseudo_pure", "chsh_scan"])
    def test_one_product_tangent_per_grid_point(self, scenario, monkeypatch):
        original = qtangle.trajectories.product_tangent
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        patched = set()
        for name, module in list(sys.modules.items()):
            if name.startswith("qtangle") and getattr(module, "product_tangent", None) is original:
                monkeypatch.setattr(module, "product_tangent", counting)
                patched.add(name)
        assert {"qtangle.trajectories", "qtangle.geometry", "qtangle.cli"} <= patched
        rep = run(parse({"scenario": scenario, "grid": {"steps": 13}}))
        assert len(rep.rows) == 13
        assert calls == [row[0] for row in rep.rows]

    @pytest.mark.parametrize(
        "doc, where",
        [(ZERO_MOTION_DEMO, "0"), (STIFF_PRODUCT, f"{math.pi / 180:.6g}")],
        ids=["zero", "stiff"],
    )
    def test_numerical_rejection_names_the_grid_point(self, doc, where):
        with pytest.raises(ToleranceBreachError) as info:
            run(parse(doc))
        assert str(info.value).endswith(f" at t={where}")
        assert isinstance(info.value.__cause__, ValueError)


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
