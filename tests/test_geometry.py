"""Projective distance, speed, and trajectory profiling."""

import math
import os
import sys

import numpy as np
import pytest

import qtangle
from qtangle import (
    BlochCurve,
    Cut,
    Ket,
    LocalHamiltonianCurve,
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
from qtangle.geometry import _increments, _trapezoid
from qtangle.trajectories import (
    DEFAULT_STEP,
    _curve_rows,
    _register_site_rows,
    random_product_trajectory,
    resolve_method,
)

from helpers import random_ket, same_bits

SQ2 = math.sqrt(2)
SY = np.array([[0.0, -1j], [1j, 0.0]])


def pair():
    return ProductTrajectory((BlochCurve([0.0, 1.0]), BlochCurve([0.0, 1.0])))


class TestFsDistance:
    def test_orthogonal_rays_at_two(self):
        assert fs_distance(Ket.basis((3,), (0,)), Ket.basis((3,), (1,))) == pytest.approx(2.0)

    def test_same_ray_at_zero(self):
        rng = np.random.default_rng(30)
        state = random_ket(rng, (4,))
        rotated = Ket(np.exp(0.9j) * state.amplitudes, (4,))
        assert fs_distance(state, rotated) < 1e-12

    def test_projector_norm_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            a, b = random_ket(rng, (3,)), random_ket(rng, (3,))
            pa = np.outer(a.amplitudes, a.amplitudes.conj())
            pb = np.outer(b.amplitudes, b.amplitudes.conj())
            want = SQ2 * np.linalg.norm(pa - pb)
            assert fs_distance(a, b) == pytest.approx(want, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            a, b, c = (random_ket(rng, (3,)) for _ in range(3))
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
        state = random_ket(rng, (4,))
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

    def test_a_bad_cut_is_rejected_before_the_trajectory_is_evaluated(self):
        """A trajectory that fails its amplitude check at t=1e10, profiled with
        a cut set holding an invalid cut: the cut's rejection, on every call."""
        traj = ProductTrajectory((BlochCurve([0.0, 1e300]), BlochCurve([0.0, 1.0])))
        grid, good = [0.0, 1.0, 1e10], Cut.splitting((0,), 2)
        with pytest.raises(ValidationError, match="^amplitudes must all be finite$"):
            profile(traj, grid, [good])
        for _ in range(2):  # a cut set that raised is not kept as checked
            with pytest.raises(ValueError) as info:
                profile(traj, grid, [good, Cut((0,), (2,))])
            assert info.type is ValueError
            assert str(info.value) == "cut 1|3 does not partition the 2 factor positions"

    def test_a_cut_set_is_checked_for_each_factor_count(self):
        """Cuts valid on two factors are still rejected on three, a product
        trajectory or a register program."""
        cuts = [Cut.splitting((0,), 2)]
        profile(pair(), [0.0, 1.0], cuts)
        three = ProductTrajectory((BlochCurve([0.0, 1.0]),) * 3)
        program = RegisterProgram.uniform_superposition(((UnitaryCurve.rotation(SY),) * 3,), 3)
        for traj in (three, program):
            with pytest.raises(ValueError, match=r"^cut 1\|2 does not partition the 3 factor positions$"):
                profile(traj, [0.0, 1.0], cuts)


class TestGridArithmetic:
    """``profile``'s grid check and trapezoidal arc length take the float
    steps of ``np.diff`` and ``np.trapezoid``, bit for bit wherever nothing
    overflows; an arc length that does overflow is refused."""

    GRIDS = [
        np.linspace(0.0, 1.0, 7),
        np.array([0.0, np.inf, np.inf]),
        np.array([-np.inf, 0.0, np.inf]),
        np.array([np.nan, 1.0, 2.0]),
        np.array([0.0, np.nan, 1.0]),
        np.array([-1e308, 1e308, -1e308]),  # spans that overflow to +-inf
        np.array([1.0, 1.0, 5e-324, 0.0, -0.0]),
    ]

    @pytest.mark.parametrize("grid", GRIDS)
    def test_increase_check_is_np_diff(self, grid):
        with np.errstate(all="ignore"):
            got, want = _increments(grid), np.diff(grid)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(got > 0, want > 0)

    def test_arc_length_is_np_trapezoid(self):
        rng = np.random.default_rng(34)
        for size in (2, 3, 9, 181):
            grid = np.sort(rng.uniform(-2.0, 5.0, size))
            speeds = rng.uniform(0.0, 3.0, size)
            speeds[rng.integers(size)] = 0.0
            got, want = _trapezoid(speeds, _increments(grid)), np.trapezoid(speeds, grid)
            np.testing.assert_array_equal(np.float64(got).view(np.uint64), np.float64(want).view(np.uint64))
        for grid, speeds in [(self.GRIDS[1], [1.0, 2.0, 0.0]), (self.GRIDS[5], [1e300, 1e300, 0.0])]:
            with np.errstate(all="ignore"):
                got, want = _trapezoid(np.array(speeds), _increments(grid)), np.trapezoid(speeds, grid)
            np.testing.assert_array_equal(np.float64(got).view(np.uint64), np.float64(want).view(np.uint64))

    def test_arc_length_keeps_an_interval_whose_area_is_finite(self):
        """The demo pair moves at speed sqrt(2): over [0, 1e308] the interval's
        speed sum times its spacing overflows, its half does not."""
        prof = profile(pair(), [0.0, 1e308], [Cut.splitting((0,), 2)])
        assert prof.arc_length == math.sqrt(2) * 1e308 == 1.4142135623730951e308
        with np.errstate(over="ignore"):
            assert np.trapezoid(prof.fs_speed, prof.grid) == np.inf

    def test_arc_length_past_double_precision_rejects_where_it_overflows(self):
        """The running integral passes double precision at the third point of four."""
        with np.errstate(over="ignore"), pytest.raises(ValidationError) as info:
            profile(pair(), [0.0, 1e308, 1.7e308, 1.75e308], [Cut.splitting((0,), 2)])
        assert (str(info.value), info.value.row) == ("arc_length overflows double precision", 2)


def wide_profiles(seed=35):
    """The profiles of the benchmark's ``wide_registers`` shapes, as (trajectory,
    grid, cuts): a product-initial 8-qubit program of 2 steps of random local
    rotations at its 7 contiguous cuts, and a 12-qubit product of Bloch and
    Hamiltonian curves at cuts 1|rest and half|half, each over 9 points."""
    rng = np.random.default_rng(seed)

    def hermitian():
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return (a + a.conj().T) / 2

    n, m = 8, 12
    steps = [[UnitaryCurve.rotation(hermitian()) for _ in range(n)] for _ in range(2)]
    curves = [
        BlochCurve(rng.normal(size=3), rng.normal(size=2))
        if i % 2
        else LocalHamiltonianCurve(hermitian(), random_ket(rng, (2,)))
        for i in range(m)
    ]
    return [
        (
            RegisterProgram.uniform_superposition(steps, n),
            np.linspace(0.0, 2.0, 9),
            [Cut.splitting(range(k), n) for k in range(1, n)],
        ),
        (
            ProductTrajectory(tuple(curves)),
            np.linspace(0.0, 1.0, 9),
            [Cut.splitting((0,), m), Cut.splitting(range(m // 2), m)],
        ),
    ]


def entered_files(action):
    """The source file of each Python frame outside qtangle that ``action()``
    enters, as ``sys.setprofile`` sees them."""
    package = os.path.dirname(qtangle.__file__) + os.sep
    entered = set()

    def record(frame, event, arg):
        if event == "call" and not frame.f_code.co_filename.startswith(package):
            entered.add(frame.f_code.co_filename)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return entered


def test_profile_reaches_numpy_through_its_c_entry_points():
    """Once its masks and step tables are built, a profile of a product or a
    product-initial program enters no Python frame of numpy but
    ``np.errstate``'s, the dispatch stubs of ``multiarray`` (``np.where``) and
    ``np.einsum``'s, and none of ``contextlib``: its reductions call the ufuncs,
    not ``ndarray.all/sum/min`` or ``np.count_nonzero``, and its hot kernels
    avoid the wrappers ``np.linalg.norm``, ``np.diff``, ``np.trapezoid`` and
    ``polyval``, whose argument handling costs more than a short grid's arithmetic."""
    calls = wide_profiles()
    for call in calls:
        profile(*call)
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    mask, values, vector = np.array([True, False]), np.ones(2), np.arange(3.0)

    def allowed_calls():
        with np.errstate(all="ignore"):
            np.where(mask, values, values)
            np.einsum("i,i->", vector, vector)

    allowed = {name for name in entered_files(allowed_calls) if name.startswith(numpy_dir)}
    entered = entered_files(lambda: [profile(*call) for call in calls])
    banned = {name for name in entered if name.startswith(numpy_dir) and name not in allowed}
    banned |= {name for name in entered if os.path.basename(name) == "contextlib.py"}
    assert sorted(banned) == []


def kron_rows(parts):
    """Row-wise Kronecker product of the states of each (states, directions) part."""
    out = parts[0][0]
    for states, _ in parts[1:]:
        out = (out[:, :, None] * states[:, None, :]).reshape(len(out), -1)
    return out


class TestProfileFactors:
    """``TrajectoryProfile.factors``: the factor rows its tangents are built from."""

    @staticmethod
    def assert_read_only(factors):
        assert isinstance(factors, tuple)
        for rows in factors:
            assert isinstance(rows, tuple) and len(rows) == 2
            assert not any(arr.flags.writeable for arr in rows)

    @pytest.mark.parametrize("method", ["auto", "analytic", "central_fd", "richardson"])
    def test_product_factors_are_the_factor_rows(self, method):
        rng = np.random.default_rng(51)
        traj = random_product_trajectory(rng, (2, 3, 2, 4), frozen=(False, True, False, False))
        grid = np.linspace(0.0, 1.5, 9)
        prof = profile(traj, grid, [Cut.splitting((0,), 4)], method=method)
        resolved = resolve_method(traj.factors, method)
        expected = [
            (curve.states(grid), np.zeros((grid.size, curve.dims[0]), dtype=complex))
            if still
            else _curve_rows(curve, grid, resolved, DEFAULT_STEP)
            for curve, still in zip(traj.factors, traj.frozen)
        ]
        assert len(prof.factors) == len(expected) == 4
        for rows, want in zip(prof.factors, expected):
            assert same_bits(rows[0], want[0]) and same_bits(rows[1], want[1])
        assert np.all(prof.factors[1][1] == 0.0)  # the frozen factor does not move
        self.assert_read_only(prof.factors)

    @pytest.mark.parametrize("method", ["analytic", "richardson"])
    def test_product_initial_register_factors_are_the_site_rows(self, method):
        gen = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.5]])
        step1 = (UnitaryCurve.rotation(SY / 2), UnitaryCurve.constant(np.eye(2)), UnitaryCurve.rotation(gen))
        step2 = (UnitaryCurve.rotation(gen), UnitaryCurve.rotation(SY / 2), UnitaryCurve.constant(np.eye(2)))
        prog = RegisterProgram.uniform_superposition((step1, step2), 3)
        grid = np.linspace(0.0, 2.0, 9)
        prof = profile(prog, grid, [Cut.splitting((0,), 3)], method=method)
        assert len(prof.factors) == 3
        (sites, states, directions), = _register_site_rows(prog, grid, method, DEFAULT_STEP)
        assert list(sites) == [0, 1, 2]
        for got, state, direction in zip(prof.factors, states, directions, strict=True):
            assert same_bits(got[0], state) and same_bits(got[1], direction)
        assert np.max(abs(kron_rows(prof.factors) - prof.states)) < 1e-14
        self.assert_read_only(prof.factors)

    def test_entangled_initial_register_has_no_factors(self):
        bell = Ket(np.array([1.0, 0.0, 0.0, 1.0]) / SQ2, (2, 2))
        prog = RegisterProgram(((UnitaryCurve.rotation(SY / 2), UnitaryCurve.rotation(SY / 2)),), bell)
        prof = profile(prog, [0.0, 0.5, 1.0], [Cut.splitting((0,), 2)])
        assert prog._step_table is None and prof.factors is None
