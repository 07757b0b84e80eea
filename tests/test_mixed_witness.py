"""Witness logic for differentials of mixed separable trajectories."""

import json
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
    parse_config,
    ensemble_witness,
    operator_form_gap,
    product_differential,
    separable_mixed_differential,
)
from qtangle.cli import rotating_ensemble, run

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
        """One ``_factor_rows`` call over every component's factors, in order."""
        calls = []
        original = trajectories._factor_rows

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for module in (trajectories, mixed_witness):
            monkeypatch.setattr(module, "_factor_rows", counting, raising=False)
        ens = moving_pair()
        rep = ensemble_witness(ens, 0.4)
        assert len(calls) == 1
        assert calls[0].factors == tuple(f for comp in ens.components for f in comp.factors)
        assert calls[0].frozen == tuple(f for comp in ens.components for f in comp.frozen)
        honest = separable_mixed_differential(ens, 0.4).matrix
        product = product_differential(ens, 0.4).matrix
        assert rep.operator_gap == np.linalg.norm(honest - product, axis=(-2, -1))

    def test_auto_resolves_once_for_the_whole_mixture(self, states_only):
        """Beside a component whose curve has no velocities, a Bloch-only
        component is differentiated by richardson too, the method whose
        trace bound the witness takes."""
        comps = moving_pair().components
        plain = comps[1].factors
        ens = Ensemble((0.4, 0.6), (comps[0], ProductTrajectory((states_only(plain[0]), plain[1]))))
        grid, h = np.linspace(0.1, 0.9, 7), trajectories.DEFAULT_STEP
        rows = {m: trajectories._component_differentials(ens, grid, m, h) for m in ("auto", "richardson")}
        for auto, richardson in zip(rows["auto"], rows["richardson"]):
            for a, b in zip(auto[1] + auto[2], richardson[1] + richardson[2]):
                assert np.array_equal(a, b)
        analytic = trajectories._component_differentials(Ensemble((1.0,), comps[:1]), grid, "analytic", h)
        assert not np.array_equal(rows["auto"][0][2][0], analytic[0][2][0])
        witness = mixed_witness._ensemble_witness_rows(ens, grid, 1e-6, "auto", h)
        stencil = mixed_witness._ensemble_witness_rows(ens, grid, 1e-6, "richardson", h)
        for a, b in zip(witness, stencil):
            assert np.array_equal(a, b)

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


def spectral_verdicts(mats, sides):
    """Test-local reference: each state's verdict from eigenvalues alone (the
    smallest of the state, then the negative ones of its partial transpose
    over sides (d_left, d_right)), or the (message, row) of the first
    rejection."""
    lowest = np.linalg.eigvalsh(mats)[:, 0]
    bad = np.flatnonzero(lowest < -1e-10)
    if bad.size:
        return f"operator is not positive (min eigenvalue {lowest[bad[0]]:.3e})", int(bad[0])
    traces = np.trace(mats, axis1=-2, axis2=-1).real
    bad = np.flatnonzero(np.abs(traces - 1.0) >= 1e-10)
    if bad.size:
        return f"state must have unit trace, got {float(traces[bad[0]])!r}", int(bad[0])
    d_left, d_right = sides
    blocks = mats.reshape(-1, d_left, d_right, d_left, d_right)
    transposed = blocks.transpose(0, 1, 4, 3, 2).reshape(mats.shape)
    negativity = -np.minimum(np.linalg.eigvalsh(transposed), 0.0).sum(axis=-1)
    positive = "separable" if sorted(sides) in ([2, 2], [2, 3]) else "undecided"
    return ["entangled" if n > 1e-10 else positive for n in negativity]


def random_states(rng, dim, size, mix):
    """Random states (1 - mix) I/dim + mix sigma, sigma of full rank."""
    g = rng.standard_normal((size, dim, dim)) + 1j * rng.standard_normal((size, dim, dim))
    sigma = g @ np.swapaxes(g.conj(), -2, -1)
    sigma /= np.trace(sigma, axis1=-2, axis2=-1)[:, None, None]
    return (1 - mix) * np.eye(dim) / dim + mix * sigma


def werner(p):
    """p |phi-><phi-| + (1 - p) I/4: entangled exactly above p = 1/3."""
    amps = np.array([1, 0, 0, -1]) / SQ2
    return p * np.outer(amps, amps) + (1 - p) * np.eye(4) / 4


class TestSeparabilityCertificate:
    """``_separability`` certifies a positive definite, PPT stack by one
    Cholesky factorization and otherwise asks the spectra; row for row it
    gives what the spectra alone give, verdict or rejection."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls, original = [], np.linalg.eigvalsh

        def counting(mats, *args, **kwargs):
            calls.append(np.shape(mats))
            return original(mats, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return calls

    def verdicts(self, mats, dims):
        try:
            return mixed_witness._separability(mats, dims, Cut.splitting((0,), len(dims))).tolist()
        except ValidationError as exc:
            return str(exc), exc.row

    def check(self, mats, dims, sides=None):
        want = spectral_verdicts(mats, sides or dims)
        assert self.verdicts(mats, dims) == want
        return want

    def test_positive_definite_stack_is_certified(self, eigvalsh_calls):
        mats = random_states(np.random.default_rng(3), 4, 40, 0.3)
        assert self.verdicts(mats, (2, 2)) == ["separable"] * 40
        assert eigvalsh_calls == []
        assert self.check(mats, (2, 2)) == ["separable"] * 40

    def test_rank_one_row_takes_the_spectra(self, eigvalsh_calls):
        mats = random_states(np.random.default_rng(4), 4, 12, 0.3)
        mats[5] = np.diag([1.0, 0.0, 0.0, 0.0])
        assert self.verdicts(mats, (2, 2)) == ["separable"] * 12
        assert eigvalsh_calls == [(12, 4, 4), (12, 4, 4)]
        self.check(mats, (2, 2))

    def test_non_positive_row_is_rejected_as_by_the_spectra(self):
        mats = random_states(np.random.default_rng(5), 4, 12, 0.3)
        mats[7] = np.diag([1.5, -0.5, 0.0, 0.0])
        want = self.check(mats, (2, 2))
        assert want == ("operator is not positive (min eigenvalue -5.000e-01)", 7)

    def test_certified_stack_still_checks_the_trace(self, eigvalsh_calls):
        mats = random_states(np.random.default_rng(6), 4, 12, 0.3)
        mats[4] *= 2
        assert self.check(mats, (2, 2)) == ("state must have unit trace, got 2.0", 4)
        assert len(eigvalsh_calls) == 1  # the reference's alone

    def test_werner_states_either_side_of_one_third(self, eigvalsh_calls):
        below, above = werner(1 / 3 - 1e-4), werner(1 / 3 + 1e-4)
        assert self.verdicts(np.array([below, below]), (2, 2)) == ["separable"] * 2
        assert eigvalsh_calls == []
        assert self.check(np.array([below, above, below]), (2, 2)) == ["separable", "entangled", "separable"]

    @pytest.mark.parametrize("dims", [(3, 3), (2, 3), (2, 2, 2)])
    def test_ppt_sides_beyond_two_by_three_are_undecided(self, dims, eigvalsh_calls):
        dim = math.prod(dims)
        mats = random_states(np.random.default_rng(7), dim, 10, 0.2)
        positive = "separable" if dims == (2, 3) else "undecided"
        assert self.verdicts(mats, dims) == [positive] * 10
        assert eigvalsh_calls == []
        self.check(mats, dims, sides=(dims[0], dim // dims[0]))

    def test_non_finite_entries_are_not_certified(self, eigvalsh_calls):
        """A Cholesky factorization carries a NaN through; the spectra fail on it."""
        mats = random_states(np.random.default_rng(8), 4, 3, 0.3)
        mats[1, 2, 1] = np.nan
        assert not mixed_witness._positive_definite(mats)
        with pytest.raises(np.linalg.LinAlgError):
            self.verdicts(mats, (2, 2))
        assert eigvalsh_calls == [(3, 4, 4)]

    def test_default_pseudo_pure_run_calls_no_eigvalsh(self, eigvalsh_calls):
        report = run(parse_config(json.dumps({"scenario": "pseudo_pure"})))
        assert eigvalsh_calls == []
        assert {row[-1] for row in report.rows} == {"separable"}

    def test_pure_base_states_take_the_spectra_in_a_run(self, eigvalsh_calls, monkeypatch):
        """A pure state has no Cholesky factor: inside ``run``'s
        ``np.errstate(all="ignore")`` the failure still raises, and the
        spectra give each row its verdict."""
        cholesky_calls, original = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: cholesky_calls.append(m.shape) or original(m))
        cfg = parse_config(json.dumps({"scenario": "pseudo_pure", "epsilon": 1.0}))
        report = run(cfg)
        grid = len(cfg.grid_points())
        assert cholesky_calls == [(2, grid, 4, 4)]
        assert eigvalsh_calls == [(grid, 4, 4), (grid, 4, 4)]
        assert {row[-1] for row in report.rows} == {"separable"}


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
