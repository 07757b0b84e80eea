"""Witness logic for differentials of mixed separable trajectories."""

import math

import numpy as np
import pytest

import qtangle.mixed_witness as mixed_witness
import qtangle.trajectories as trajectories
from qtangle import (
    VERDICT_EXCLUDED,
    VERDICT_INCONCLUSIVE,
    BlochCurve,
    Cut,
    Ensemble,
    HermitianOp,
    Ket,
    PhaseCurve,
    ProductTrajectory,
    ValidationError,
    base_state_separability,
    differential_trace_witness,
    ensemble_witness,
    operator_form_gap,
    product_differential,
    separable_mixed_differential,
)
from qtangle.cli import rotating_ensemble

SQ2 = math.sqrt(2)
CUT = Cut.splitting((0,), 2)


def plus_minus():
    plus = Ket(np.array([1.0, 1.0]) / SQ2, (2,))
    minus = Ket(np.array([1.0, -1.0]) / SQ2, (2,))
    return plus, minus


def moving_pair():
    """Both components move both factors: the product form is nonzero too."""
    comp1 = ProductTrajectory((BlochCurve([0.0, 1.0]), BlochCurve([0.3, 0.8])))
    comp2 = ProductTrajectory((BlochCurve([1.0, -0.5]), BlochCurve([0.9, 0.6])))
    return Ensemble((0.4, 0.6), (comp1, comp2))


class TestDifferentialTraceWitness:
    def test_rotating_pair_excluded(self):
        drho = separable_mixed_differential(rotating_ensemble(), 0.0)
        rep = differential_trace_witness(drho)
        assert rep.verdict == VERDICT_EXCLUDED
        assert rep.tr1_norm < 1e-12
        assert rep.tr2_norm == pytest.approx(1 / SQ2, abs=1e-12)
        assert rep.operator_gap is None

    def test_zero_operator_is_inconclusive(self):
        rep = differential_trace_witness(HermitianOp(np.zeros((4, 4)), (2, 2)))
        assert rep.verdict == VERDICT_INCONCLUSIVE
        assert rep.tr1_norm == rep.tr2_norm == 0.0

    def test_traceful_input_rejected(self):
        with pytest.raises(ValidationError):
            differential_trace_witness(HermitianOp(np.eye(4), (2, 2)))

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            differential_trace_witness(HermitianOp(np.zeros((4, 4)), (2, 2)), tol=0.0)

    def test_single_factor_operator_rejected(self):
        with pytest.raises(ValueError):
            differential_trace_witness(HermitianOp(np.zeros((4, 4)), (4,)))

    def test_verdict_follows_tol(self):
        drho = separable_mixed_differential(rotating_ensemble(), 0.0)
        assert differential_trace_witness(drho, tol=0.5).verdict == VERDICT_EXCLUDED
        assert differential_trace_witness(drho, tol=0.9).verdict == VERDICT_INCONCLUSIVE


class TestProductDifferential:
    def test_partial_traces_vanish_identically(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            angles = rng.uniform(-1, 1, size=8)
            comp1 = ProductTrajectory(
                (BlochCurve(angles[0:2]), BlochCurve(angles[2:4]))
            )
            comp2 = ProductTrajectory(
                (BlochCurve(angles[4:6]), BlochCurve(angles[6:8]))
            )
            ens = Ensemble((0.5, 0.5), (comp1, comp2))
            op = product_differential(ens, rng.uniform(0, 1))
            for keep in ("left", "right"):
                from qtangle import partial_trace

                assert partial_trace(op, CUT, keep=keep).fro_norm() < 1e-10

    def test_frozen_factor_kills_product_form(self):
        op = product_differential(rotating_ensemble(), 0.4)
        assert np.linalg.norm(op.matrix) < 1e-14


class TestOperatorFormGap:
    def test_rotating_pair_gap_is_half_everywhere(self):
        ens = rotating_ensemble()
        for t in (0.0, 0.3, 1.1, math.pi / 2):
            assert operator_form_gap(ens, t) == pytest.approx(0.5, abs=1e-12)

    def test_single_component_pure_product(self):
        comp = ProductTrajectory((BlochCurve([0.0, 1.0]), BlochCurve([0.0, 1.0])))
        ens = Ensemble((1.0,), (comp,))
        gap = operator_form_gap(ens, 0.2)
        honest = separable_mixed_differential(ens, 0.2)
        product = product_differential(ens, 0.2)
        assert gap == pytest.approx(np.linalg.norm(honest.matrix - product.matrix), abs=1e-14)
        assert gap > 0.5  # first-order and second-order objects never coincide here

    def test_motionless_ensemble_gap_zero(self):
        plus, minus = plus_minus()
        comp = ProductTrajectory((PhaseCurve(0.0, plus), PhaseCurve(0.0, minus)))
        ens = Ensemble((1.0,), (comp,))
        assert operator_form_gap(ens, 0.7) == 0.0


class TestEnsembleWitness:
    def test_rotating_pair_full_report(self):
        rep = ensemble_witness(rotating_ensemble(), 0.0)
        assert rep.verdict == VERDICT_EXCLUDED
        assert rep.tr2_norm == pytest.approx(1 / SQ2, abs=1e-12)
        assert rep.operator_gap == pytest.approx(0.5, abs=1e-12)
        assert rep.tol == 1e-6

    def test_moving_pair_is_also_excluded(self):
        rep = ensemble_witness(moving_pair(), 0.5)
        assert rep.verdict == VERDICT_EXCLUDED
        assert max(rep.tr1_norm, rep.tr2_norm) > 0.01

    def test_quarter_turn_norm_drops_but_stays_excluded(self):
        rep = ensemble_witness(rotating_ensemble(), math.pi / 4)
        assert rep.tr2_norm == pytest.approx(math.cos(math.pi / 4) / SQ2, abs=1e-12)
        assert rep.verdict == VERDICT_EXCLUDED

    def test_each_component_differentiated_once(self, monkeypatch):
        calls = []
        original = trajectories._factor_rows

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for module in (trajectories, mixed_witness):
            monkeypatch.setattr(module, "_factor_rows", counting, raising=False)
        ens = moving_pair()
        rep = ensemble_witness(ens, 0.4)
        assert calls == list(ens.components)
        honest = separable_mixed_differential(ens, 0.4).matrix
        product = product_differential(ens, 0.4).matrix
        assert rep.operator_gap == np.linalg.norm(honest - product, axis=(-2, -1))

    @pytest.mark.parametrize("method", ["analytic", "central_fd", "richardson"])
    def test_scalar_gaps_are_the_rows_gap_to_the_bit(self, method):
        """ensemble_witness and operator_form_gap are the one-row case of the
        grid kernel: each gives the gap its row gives, not a recomputation."""
        ens = rotating_ensemble()
        grid = np.linspace(0.0, 0.7, 15)
        rows = mixed_witness._ensemble_witness_rows(ens, grid, 1e-6, method, trajectories.DEFAULT_STEP)
        for t, gap in zip(grid, rows[2]):
            assert ensemble_witness(ens, t, method=method).operator_gap == gap
            assert operator_form_gap(ens, t, method) == gap


class TestBaseStateSeparability:
    def bell_projector(self):
        amps = np.array([1, 0, 0, -1]) / SQ2
        return np.outer(amps, amps)

    def mixture(self, eps):
        return HermitianOp((1 - eps) * np.eye(4) / 4 + eps * self.bell_projector(), (2, 2))

    def test_two_qubit_thresholds(self):
        assert base_state_separability(self.mixture(0.2), CUT) == "separable"
        assert base_state_separability(self.mixture(0.5), CUT) == "entangled"
        assert base_state_separability(self.mixture(0.9), CUT) == "entangled"

    def test_boundary_is_one_third(self):
        assert base_state_separability(self.mixture(1 / 3 - 1e-4), CUT) == "separable"
        assert base_state_separability(self.mixture(1 / 3 + 1e-4), CUT) == "entangled"

    def test_ppt_in_large_dims_is_undecided(self):
        rho = HermitianOp(np.eye(9) / 9, (3, 3))
        assert base_state_separability(rho, CUT) == "undecided"

    def test_non_positive_rejected(self):
        bad = HermitianOp(np.diag([1.5, -0.5, 0, 0]), (2, 2))
        with pytest.raises(ValidationError):
            base_state_separability(bad, CUT)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            base_state_separability(HermitianOp(np.eye(4), (2, 2)), CUT)


class TestTraceBoundByMethod:
    """The trace of an honest differential, 2 sum_k p_k Re<psi_k|dpsi_k>, is
    bounded by twice the norm-preservation bound of the method."""

    def test_analytic_and_given_keep_the_fixed_bound(self):
        from qtangle.statespace import _TRACE_TOL, TRACE_TOL

        assert TRACE_TOL == 1e-8
        assert _TRACE_TOL["analytic"] == _TRACE_TOL["given"] == 1e-8
        assert _TRACE_TOL["central_fd"] == _TRACE_TOL["richardson"] == 2e-8

    def test_central_fd_ensembles_rejected_only_past_twice_the_overlap_bound(self):
        rng = np.random.default_rng(7)
        rescued = 0
        for _ in range(100):
            comps = tuple(trajectories.random_product_trajectory(rng, (2, 2)) for _ in range(2))
            w = float(rng.uniform(0.2, 0.8))
            ens, t = Ensemble((w, 1.0 - w), comps), float(rng.uniform(0.0, 1.0))
            honest = separable_mixed_differential(ens, t, method="central_fd").matrix
            trace = abs(np.trace(honest))
            assert operator_form_gap(ens, t, method="central_fd") > 0
            if trace < 2e-8:
                ensemble_witness(ens, t, method="central_fd")
                rescued += trace >= 1e-8
            else:
                with pytest.raises(ValidationError, match="differential must be traceless"):
                    ensemble_witness(ens, t, method="central_fd")
                # then some component itself moves off the unit sphere past its bound
                overlaps = [
                    trajectories.product_tangent(comp, t, "central_fd").base_overlap().real
                    for comp in comps
                ]
                assert max(abs(x) for x in overlaps) >= 1e-8
        # a single bound of 1e-8 rejected these
        assert rescued == 4

    def test_given_differential_keeps_the_fixed_bound(self):
        drho = np.diag([1.5e-8, 0.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError, match="differential must be traceless"):
            differential_trace_witness(HermitianOp(drho, (2, 2)))
