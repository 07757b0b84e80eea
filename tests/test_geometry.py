"""Projective distance, speed, and trajectory profiling."""

import math

import numpy as np
import pytest

from qtangle import (
    BlochCurve,
    Cut,
    Ket,
    PhaseCurve,
    ProductTrajectory,
    RegisterProgram,
    TangentVector,
    UnitaryCurve,
    ValidationError,
    differentiate,
    entanglement_entropy,
    fs_distance,
    fs_speed,
    horizontal_tangent,
    product_tangent,
    profile,
    with_global_phase,
)

SQ2 = math.sqrt(2)
SY = np.array([[0.0, -1j], [1j, 0.0]])


def random_ket(rng, dim):
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Ket(amps / np.linalg.norm(amps), (dim,))


def pair():
    return ProductTrajectory((BlochCurve([0.0, 1.0]), BlochCurve([0.0, 1.0])))


class TestFsDistance:
    def test_orthogonal_rays_at_two(self):
        assert fs_distance(Ket.basis((3,), (0,)), Ket.basis((3,), (1,))) == pytest.approx(2.0)

    def test_same_ray_at_zero(self):
        rng = np.random.default_rng(30)
        state = random_ket(rng, 4)
        rotated = Ket(np.exp(0.9j) * state.amplitudes, (4,))
        assert fs_distance(state, rotated) < 1e-12

    def test_projector_norm_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            a, b = random_ket(rng, 3), random_ket(rng, 3)
            pa = np.outer(a.amplitudes, a.amplitudes.conj())
            pb = np.outer(b.amplitudes, b.amplitudes.conj())
            want = SQ2 * np.linalg.norm(pa - pb)
            assert fs_distance(a, b) == pytest.approx(want, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            a, b, c = (random_ket(rng, 3) for _ in range(3))
            assert fs_distance(a, c) <= fs_distance(a, b) + fs_distance(b, c) + 1e-12

    def test_requires_unit_norm(self):
        good = Ket.basis((2,), (0,))
        with pytest.raises(ValidationError):
            fs_distance(good, Ket(np.array([2.0, 0.0]), (2,)))


class TestFsSpeed:
    def test_two_moving_qubits(self):
        for t in np.linspace(0, math.pi, 9):
            assert fs_speed(product_tangent(pair(), t)) == pytest.approx(SQ2, abs=1e-12)

    def test_pure_phase_motion_has_zero_speed(self):
        base = Ket(np.array([0.6, 0.8]), (2,))
        tv = differentiate(PhaseCurve([0.0, 2.3], base), 0.7)
        assert fs_speed(tv) < 1e-12

    def test_single_qubit_angular_rate(self):
        curve = BlochCurve([0.1, 0.8])
        tv = differentiate(curve, 0.5)
        # theta rate 0.8 moves the ray at 0.8 in the chordal convention
        assert fs_speed(tv) == pytest.approx(0.8, abs=1e-12)

    def test_consistency_with_distance_quotient(self):
        rng = np.random.default_rng(33)
        traj = ProductTrajectory(
            (BlochCurve([0.3, 0.9], [0.2, 0.4]), BlochCurve([1.1, -0.5], [0.0, 0.8]))
        )
        for _ in range(10):
            t = rng.uniform(0, 1.5)
            speed = fs_speed(product_tangent(traj, t))
            h = 1e-5
            quotient = fs_distance(traj.state(t), traj.state(t + h)) / h
            assert quotient == pytest.approx(speed, abs=1e-4)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(34)
        state = random_ket(rng, 4)
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        tv = TangentVector(state, d)
        shifted = TangentVector(state, d + 1.7j * state.amplitudes)
        assert fs_speed(shifted) == pytest.approx(fs_speed(tv), abs=1e-12)

    def test_zero_speed_reads_zero(self):
        # a still qubit and a phase-only qutrit never move; 2*sqrt(|d|^2 - |<psi|d>|^2)
        # cancels here and magnifies rounding to ~1e-7
        qutrit = Ket(np.array([1.0, 1j, 1.0]) / math.sqrt(3), (3,))
        traj = ProductTrajectory((BlochCurve(0.7, 0.3), PhaseCurve([0.2, 1.3, 0.4], qutrit)))
        prof = profile(traj, np.linspace(0.0, math.pi, 181), [Cut.splitting((0,), 2)])
        assert prof.fs_speed.max() <= 1e-14
        assert prof.arc_length <= 1e-13
        assert max(fs_speed(s.tangent) for s in prof.samples) <= 1e-14


class TestProfile:
    def test_demo_arc_length(self):
        grid = np.linspace(0, math.pi, 181)
        out = profile(pair(), grid, [Cut.splitting((0,), 2)])
        assert out.arc_length == pytest.approx(SQ2 * math.pi, abs=1e-6)
        for s in out.samples:
            assert s.fs_speed == pytest.approx(SQ2, abs=1e-12)

    def test_tangent_and_base_entropy_columns(self):
        cut = Cut.splitting((0,), 2)
        out = profile(pair(), np.linspace(0, 1, 11), [cut])
        for s in out.samples:
            assert s.tangent_entropy[cut] == pytest.approx(1.0, abs=1e-10)
            assert s.base_entropy[cut] < 1e-10

    def test_raw_tangent_entropy_differs_on_phase_modulated_runs(self):
        cut = Cut.splitting((0,), 2)
        traj = ProductTrajectory(
            (with_global_phase(BlochCurve([0.0, 1.0]), [0.0, 2.0]), BlochCurve([0.0, 1.0]))
        )
        for s in profile(traj, [0.4, 0.8], [cut]).samples:
            assert s.tangent_entropy[cut] == pytest.approx(1.0, abs=1e-10)
            raw = entanglement_entropy(s.tangent.normalized_direction(), cut)
            assert raw < 1.0 - 1e-3
            # speed is gauge-invariant either way
            assert fs_speed(horizontal_tangent(s.tangent)) == pytest.approx(s.fs_speed, abs=1e-12)

    def test_sample_tangent_is_the_product_tangent(self):
        traj = ProductTrajectory(
            (BlochCurve([0.2, 1.1, -0.3], [0.0, 0.7]), with_global_phase(BlochCurve([0.5, -0.4]), [0.0, 1.5]))
        )
        grid = np.linspace(0.0, 2.0, 7)
        for t, s in zip(grid, profile(traj, grid, [Cut.splitting((0,), 2)]).samples):
            assert s.t == t
            assert np.array_equal(s.tangent.direction, product_tangent(traj, t).direction)
            assert np.array_equal(s.tangent.base.amplitudes, traj.state(t).amplitudes)

    def test_register_program_profiles_over_global_time(self):
        step1 = (UnitaryCurve.rotation(SY / 2), UnitaryCurve.rotation(SY / 2))
        step2 = (UnitaryCurve.rotation(SY / 2), UnitaryCurve.constant(np.eye(2)))
        prog = RegisterProgram.uniform_superposition((step1, step2), 2)
        cut = Cut.splitting((0,), 2)
        out = profile(prog, [0.25, 0.75, 1.25, 1.75], [cut])
        assert len(out.samples) == 4
        assert out.samples[0].tangent_entropy[cut] > 0.5
        assert all(s.fs_speed > 0 for s in out.samples)

    def test_motion_below_threshold_carries_exactly_zero_entropy(self):
        # theta = t^2 moves at speed 2t: below the 1e-12 direction threshold at t = 1e-14
        traj = ProductTrajectory((BlochCurve([0.0, 0.0, 1.0]), BlochCurve([0.0, 0.0, 1.0])))
        cut = Cut.splitting((0,), 2)
        out = profile(traj, [0.0, 1e-14, 0.5], [cut])
        assert list(out.tangent_entropy[cut][:2]) == [0.0, 0.0]
        assert out.tangent_entropy[cut][2] == pytest.approx(1.0, abs=1e-10)

    def test_grid_validation(self):
        cut = Cut.splitting((0,), 2)
        with pytest.raises(ValueError):
            profile(pair(), [0.0], [cut])
        with pytest.raises(ValueError):
            profile(pair(), [0.0, 0.0, 1.0], [cut])
        with pytest.raises(ValueError):
            profile(pair(), [0.0, 1.0], [])

    def test_cut_validation(self):
        with pytest.raises(ValueError):
            profile(pair(), [0.0, 1.0], [Cut((0,), (1, 2))])
