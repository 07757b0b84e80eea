"""Reduced tangent operator: three-term decomposition and bilocal reality.

Oracle strategy: assemble the rank-one tangent operator by hand from the
full product tangent, trace one side out with an index-sum loop, and demand
the closed-form decomposition reproduce it term by term.
"""

import math

import numpy as np
import pytest

from qtangle import (
    BlochCurve,
    Cut,
    FactorCurve,
    HermitianOp,
    Ket,
    LocalHamiltonianCurve,
    PhaseCurve,
    ProductTrajectory,
    ValidationError,
    bilocal_inner_check,
    differentiate,
    partial_trace,
    product_tangent,
    reduced_tangent_channel,
)
from qtangle.channels import _channel_rows
from qtangle.trajectories import _admissible_rows, _kron_rows, _product_rule, _random_unit_rows

SY = np.array([[0.0, -1j], [1j, 0.0]])


def random_unit(rng, dim):
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Ket(amps / np.linalg.norm(amps), (dim,))


def random_pair(rng, d1, d2):
    """A bipartite product trajectory with independent Hamiltonian factors."""
    curves = []
    for d in (d1, d2):
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        curves.append(LocalHamiltonianCurve((h + h.conj().T) / 2, random_unit(rng, d)))
    return ProductTrajectory(tuple(curves))


class StatesOnly(FactorCurve):
    """A curve's states with no closed-form derivative."""

    def __init__(self, curve: FactorCurve) -> None:
        self.curve, self.dims = curve, curve.dims

    def states(self, ts: np.ndarray) -> np.ndarray:
        return self.curve.states(ts)


def traced_oracle(tv, dims, keep_first):
    """Partial trace of |d><d| by explicit index summation."""
    d1, d2 = dims
    mat = np.outer(tv.direction, tv.direction.conj()).reshape(d1, d2, d1, d2)
    if keep_first:
        return np.einsum("ikjk->ij", mat)
    return np.einsum("kikj->ij", mat)


class TestReducedTangentChannel:
    def test_gap_and_trace_identity_random(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            d1, d2 = rng.integers(2, 5, size=2)
            traj = random_pair(rng, d1, d2)
            t = rng.uniform(0, 2)
            rep = reduced_tangent_channel(traj, t, 1)
            assert rep.gap < 1e-10
            tv = product_tangent(traj, t)
            speed_sq = np.vdot(tv.direction, tv.direction).real
            assert rep.lhs.trace().real == pytest.approx(speed_sq, abs=1e-10)
            assert abs(rep.lhs.trace().imag) < 1e-12

    def test_lhs_matches_index_sum_oracle_both_sides(self):
        rng = np.random.default_rng(41)
        traj = random_pair(rng, 2, 3)
        t = 0.7
        tv = product_tangent(traj, t)
        for side, keep_first in ((1, True), (2, False)):
            rep = reduced_tangent_channel(traj, t, side)
            assert np.allclose(rep.lhs.matrix, traced_oracle(tv, traj.dims, keep_first), atol=1e-12)

    @pytest.mark.parametrize("d1", [2, 3, 4])
    @pytest.mark.parametrize("d2", [2, 3, 4])
    def test_stacked_lhs_is_the_partial_trace_of_the_tangent_operator(self, d1, d2):
        """The lhs taken from the tangent's coefficient matrix is the partial
        trace of the dense operator |T><T|, on each side."""
        rng = np.random.default_rng(10 * d1 + d2)
        parts = []
        for d in (d1, d2):
            psi = _random_unit_rows(rng, 16, d)
            parts.append((psi, _admissible_rows(rng, psi)))
        full = _product_rule(*parts[0], parts[1:], _kron_rows)[1]
        sides = _channel_rows(parts, full, (1, 2))
        for subsystem, (lhs, *_) in zip((1, 2), sides):
            cut = Cut.splitting([subsystem - 1], 2)
            for row, tangent in zip(lhs, full):
                op = HermitianOp(np.outer(tangent, tangent.conj()), (d1, d2))
                want = partial_trace(op, cut, "left").matrix
                assert np.max(np.abs(row - want)) <= 1e-14

    def test_terms_against_closed_form_at_known_angle(self):
        theta = math.pi / 3
        traj = ProductTrajectory((BlochCurve([0.0, 1.0]), BlochCurve([0.0, 1.0])))
        rep = reduced_tangent_channel(traj, theta, 1)
        psi = np.array([math.cos(theta / 2), math.sin(theta / 2)])
        dpsi = np.array([-math.sin(theta / 2), math.cos(theta / 2)]) / 2
        # second factor is the same curve: overlap 0, squared speed 1/4
        assert np.allclose(rep.differential_term.matrix, np.outer(dpsi, dpsi), atol=1e-12)
        assert np.allclose(rep.interference_term.matrix, np.zeros((2, 2)), atol=1e-12)
        assert np.allclose(rep.noise_term.matrix, np.outer(psi, psi) / 4, atol=1e-12)
        total = rep.differential_term.matrix + rep.interference_term.matrix + rep.noise_term.matrix
        assert np.allclose(rep.lhs.matrix, total, atol=1e-12)

    def test_interference_term_appears_with_phase_motion(self):
        base2 = Ket(np.array([0.6, 0.8]), (2,))
        traj = ProductTrajectory((BlochCurve([0.3, 1.0]), PhaseCurve([0.0, 0.9], base2)))
        rep = reduced_tangent_channel(traj, 0.5, 1)
        # the phase factor has overlap 0.9j, so the cross term survives
        assert np.linalg.norm(rep.interference_term.matrix) > 0.1
        assert rep.gap < 1e-10

    def test_terms_are_hermitian(self):
        rng = np.random.default_rng(42)
        traj = random_pair(rng, 3, 2)
        rep = reduced_tangent_channel(traj, 0.3, 2)
        for term in (rep.differential_term, rep.interference_term, rep.noise_term):
            assert np.max(np.abs(term.matrix - term.matrix.conj().T)) < 1e-14

    def test_coarse_fd_trips_norm_guard(self):
        # curves with no closed form, which a stencil is not checked against:
        # the coarse stencil reaches the norm guard
        traj = ProductTrajectory(
            (StatesOnly(BlochCurve([0.0, 0.0, 2.0])), StatesOnly(BlochCurve([0.0, 1.0])))
        )
        with pytest.raises(ValidationError, match="factor 1"):
            reduced_tangent_channel(traj, 0.8, 1, method="central_fd", h=0.2)

    def test_subsystem_and_arity_validation(self):
        traj = ProductTrajectory((BlochCurve([0.0, 1.0]), BlochCurve([0.0, 1.0])))
        with pytest.raises(ValueError):
            reduced_tangent_channel(traj, 0.0, 3)
        triple = ProductTrajectory((BlochCurve([0.0, 1.0]),) * 3)
        with pytest.raises(ValueError):
            reduced_tangent_channel(triple, 0.0, 1)


class TestBilocalInnerCheck:
    def test_overlaps_imaginary_product_real(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            d1, d2 = rng.integers(2, 5, size=2)
            traj = random_pair(rng, d1, d2)
            chk = bilocal_inner_check(traj, rng.uniform(0, 2))
            for c in chk.factor_overlaps:
                assert abs(c.real) < 1e-10
            assert chk.reality_gap < 1e-12
            assert chk.product == pytest.approx(
                chk.factor_overlaps[0] * chk.factor_overlaps[1], abs=1e-15
            )

    def test_phase_rates_multiply(self):
        b1 = Ket(np.array([1.0, 0.0]), (2,))
        b2 = Ket(np.array([0.6, 0.8]), (2,))
        traj = ProductTrajectory((PhaseCurve([0.0, 0.4], b1), PhaseCurve([0.0, 1.1], b2)))
        chk = bilocal_inner_check(traj, 0.3)
        assert chk.factor_overlaps[0] == pytest.approx(0.4j, abs=1e-12)
        assert chk.factor_overlaps[1] == pytest.approx(1.1j, abs=1e-12)
        assert chk.product == pytest.approx(-0.44, abs=1e-12)
        assert chk.reality_gap < 1e-15
