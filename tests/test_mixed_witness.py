"""Witness logic for differentials of mixed separable trajectories."""

import json
import math
from functools import reduce

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
    TangentVector,
    ValidationError,
    base_state_separability,
    differential_trace_witness,
    parse_config,
    ensemble_witness,
    operator_form_gap,
    product_differential,
    pseudo_pure_differential,
    separable_mixed_differential,
)
from qtangle.cli import rotating_ensemble, run

from helpers import random_ket

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
        # the 3x3 isotropic state at eps = 0.2: PPT up to eps = 1/4, purity above 1/8
        assert base_state_separability(pseudo_pure_qutrits(0.2, max_entangled_qutrits()), CUT) == "undecided"

    @pytest.mark.parametrize("psi", ["entangled", "product"])
    def test_ball_of_purity_one_over_d_minus_one_is_separable(self, psi):
        """tr(rho^2) <= 1/(D - 1) certifies separability in any dims: at D = 9
        the pseudo-pure state is in the ball up to eps = 1/8."""
        amps = max_entangled_qutrits() if psi == "entangled" else np.kron([0.6, 0.8, 0], [0, 1j, 0])
        assert base_state_separability(pseudo_pure_qutrits(1 / 8 - 1e-6, amps), CUT) == "separable"
        assert base_state_separability(pseudo_pure_qutrits(1 / 8 + 1e-6, amps), CUT) == "undecided"
        assert base_state_separability(HermitianOp(np.eye(9) / 9, (3, 3)), CUT) == "separable"

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
    # PPT certifies 2x2 and 2x3 sides, and purity at most 1/(D - 1) any sides (Gurvits-Barnum)
    purity = np.einsum("nij,nji->n", mats, mats).real
    ppt_decides = sorted(sides) in ([2, 2], [2, 3])
    positive = ["separable" if ppt_decides or p <= 1 / (d_left * d_right - 1) else "undecided" for p in purity]
    return ["entangled" if n > 1e-10 else verdict for n, verdict in zip(negativity, positive)]


def max_entangled_qutrits():
    return np.eye(3).reshape(-1) / math.sqrt(3)


def pseudo_pure_qutrits(eps, amps):
    """(1 - eps) I/9 + eps |amps><amps| on 3x3."""
    return HermitianOp((1 - eps) * np.eye(9) / 9 + eps * np.outer(amps, amps.conj()), (3, 3))


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


class TestSeparabilitySpectra:
    """``_separability`` takes each state's verdict or rejection from the
    spectra of the state and of its partial transpose, row for row what the
    test-local ``spectral_verdicts`` gives."""

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

    def test_full_rank_stack_is_separable(self):
        mats = random_states(np.random.default_rng(3), 4, 40, 0.3)
        assert self.check(mats, (2, 2)) == ["separable"] * 40

    def test_rank_one_row_is_separable(self):
        mats = random_states(np.random.default_rng(4), 4, 12, 0.3)
        mats[5] = np.diag([1.0, 0.0, 0.0, 0.0])
        assert self.check(mats, (2, 2)) == ["separable"] * 12

    def test_non_positive_row_is_rejected_as_by_the_spectra(self):
        mats = random_states(np.random.default_rng(5), 4, 12, 0.3)
        mats[7] = np.diag([1.5, -0.5, 0.0, 0.0])
        want = self.check(mats, (2, 2))
        assert want == ("operator is not positive (min eigenvalue -5.000e-01)", 7)

    def test_positive_stack_still_checks_the_trace(self):
        mats = random_states(np.random.default_rng(6), 4, 12, 0.3)
        mats[4] *= 2
        assert self.check(mats, (2, 2)) == ("state must have unit trace, got 2.0", 4)

    def test_werner_states_either_side_of_one_third(self):
        below, above = werner(1 / 3 - 1e-4), werner(1 / 3 + 1e-4)
        assert self.check(np.array([below, below]), (2, 2)) == ["separable"] * 2
        assert self.check(np.array([below, above, below]), (2, 2)) == ["separable", "entangled", "separable"]

    @pytest.mark.parametrize("dims", [(3, 3), (2, 3), (2, 2, 2)])
    def test_ppt_sides_beyond_two_by_three_are_undecided(self, dims):
        """Products of random full-rank states of each factor: positive
        definite and PPT, and of purity above 1/(D - 1)."""
        rng = np.random.default_rng(7)
        mats = reduce(trajectories._kron_rows, (random_states(rng, d, 10, 0.9) for d in dims))
        dim = math.prod(dims)
        assert (np.einsum("nij,nji->n", mats, mats).real > 1 / (dim - 1)).all()
        positive = "separable" if dims == (2, 3) else "undecided"
        assert self.check(mats, dims, sides=(dims[0], dim // dims[0])) == [positive] * 10

    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2), (2, 4)])
    def test_ball_about_the_maximally_mixed_state_is_separable(self, dims):
        """States a fifth of the way from I/D to a random full-rank state lie
        in the ball of purity 1/(D - 1), which makes them separable in any dims."""
        dim = math.prod(dims)
        mats = random_states(np.random.default_rng(7), dim, 10, 0.2)
        assert (np.einsum("nij,nji->n", mats, mats).real <= 1 / (dim - 1)).all()
        assert self.check(mats, dims, sides=(dims[0], dim // dims[0])) == ["separable"] * 10

    def test_non_finite_entries_fail_in_the_spectra(self):
        mats = random_states(np.random.default_rng(8), 4, 3, 0.3)
        mats[1, 2, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            self.verdicts(mats, (2, 2))

    def test_default_pseudo_pure_run_calls_no_eigvalsh(self, eigvalsh_calls):
        report = run(parse_config(json.dumps({"scenario": "pseudo_pure"})))
        assert eigvalsh_calls == []
        assert {row[-1] for row in report.rows} == {"separable"}

    def test_pure_base_state_is_separable_in_a_run(self):
        """Inside ``run``'s ``np.errstate(all="ignore")`` a rank-deficient
        state still gets the spectra's verdict."""
        amps = np.kron([0.6, 0.8], np.array([1.0, 1j]) / SQ2)
        state = np.outer(amps, amps.conj())
        with np.errstate(all="ignore"):
            verdict = base_state_separability(HermitianOp(state, (2, 2)), CUT)
        assert [verdict] == spectral_verdicts(state[None], (2, 2)) == ["separable"]


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


METHODS = ("analytic", "central_fd", "richardson")


def pair_rows(rng, dims, method, h=1e-5, phase=False):
    """The factor rows of a random pair of curves of the given dims on a
    short grid, with norms moved off unit within BASE_NORM_TOL; the first
    factor is a pure phase motion with ``phase``."""
    curves = [trajectories.random_factor_curve(rng, d) for d in dims]
    if phase:
        curves[0] = PhaseCurve([0.2, -1.3, 0.4], random_ket(rng, (dims[0],)))
    ts = rng.uniform(-1.0, 1.0, 7)
    rows = trajectories._unstacked(trajectories._factor_rows(ProductTrajectory(tuple(curves)), ts, method, h))
    scales = 1 + rng.uniform(-4e-11, 4e-11, (2, ts.size, 1))
    return [(a * k, d * k) for (a, d), k in zip(rows, scales)]


def dense_pseudo_pure(rows, eps, tol):
    """Each grid point's cells from the dense public functions."""
    dims = tuple(a.shape[-1] for a, _ in rows)
    out = []
    for (a, da), (b, db) in zip(zip(*rows[0]), zip(*rows[1])):
        psi = Ket(np.kron(a, b), dims)
        tv = TangentVector(psi, np.kron(da, b) + np.kron(a, db))
        drho = pseudo_pure_differential(psi, tv, eps)
        wit = differential_trace_witness(drho, tol)
        # off unit norm, the dense base itself may fail its unit-trace check: take it of unit psi
        dim = psi.total_dim
        base = HermitianOp((1 - eps) * np.eye(dim) / dim + eps * psi.normalized().projector().matrix, dims)
        out.append((drho.trace(), wit.tr1_norm, wit.tr2_norm, wit.verdict, base_state_separability(base, CUT)))
    return out


class TestPseudoPureRows:
    """``_pseudo_pure_rows`` takes each cell from the two factors' rows; the
    dense public functions are its oracle."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 4), (4, 4)])
    @pytest.mark.parametrize("phase", [False, True], ids=["moving", "phase"])
    def test_cells_match_the_dense_functions(self, dims, method, phase):
        rng = np.random.default_rng([*dims, METHODS.index(method), phase])
        rows = pair_rows(rng, dims, method, phase=phase)
        for eps in (0.1, 0.35, 1.0):
            cells = mixed_witness._pseudo_pure_rows(rows, eps, 1e-6, method)
            want = dense_pseudo_pure(rows, eps, 1e-6)
            for got, row in zip(zip(*cells), want):
                assert got[:3] == pytest.approx(row[:3], rel=0, abs=1e-12)
                assert got[3] == row[3]
                # the base mixes two product states: no dense verdict contradicts it
                assert got[4] == "separable" and row[4] in ("separable", "undecided")
                assert row[4] == "separable" or sorted(dims) not in ([2, 2], [2, 3])

    def test_a_still_phase_factor_keeps_its_norm_zero_not_nan(self):
        """A pure phase motion has no perpendicular speed: the norm of the
        reduced differential it keeps is 0, and no cell is NaN."""
        rng = np.random.default_rng(12)
        a = random_ket(rng, (3,)).amplitudes
        rows = [(np.tile(a, (4, 1)), 0.7j * np.tile(a, (4, 1))), (np.tile(a, (4, 1)), np.zeros((4, 3)))]
        trace, tr1, tr2, verdict, base = mixed_witness._pseudo_pure_rows(rows, 0.5, 1e-6, "analytic")
        assert np.all(abs(trace) < 1e-16) and np.all(tr1 < 1e-16) and np.all(tr2 < 1e-16)
        assert verdict.tolist() == [VERDICT_INCONCLUSIVE] * 4 and base.tolist() == ["separable"] * 4

    def test_trace_bound_and_text_are_the_witness_ones(self):
        rng = np.random.default_rng(13)
        a, b = (random_ket(rng, (2,)).amplitudes[None] for _ in range(2))
        rows = [(a, 1e-8 * a), (b, np.zeros_like(b))]  # trace 2 eps 1e-8
        mixed_witness._pseudo_pure_rows(rows, 0.9, 1e-6, "central_fd")
        with pytest.raises(ValidationError, match=r"^differential must be traceless, got trace 1\.800e-08$"):
            mixed_witness._pseudo_pure_rows(rows, 0.9, 1e-6, "analytic")

    def test_a_norm_that_overflows_rejects_its_row(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        d = np.array([[0.0, 1.0], [0.0, 1e160]], dtype=complex)
        with pytest.raises(ValidationError, match="^partial-trace norm overflows double precision$") as info:
            with np.errstate(all="ignore"):
                mixed_witness._pseudo_pure_rows([(a, d), (a, np.zeros_like(d))], 0.5, 1e-6, "analytic")
        assert info.value.row == 1
