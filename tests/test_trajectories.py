"""Curves, tangents, and operator differentials against independent oracles.

The main oracle is finite differencing of the state map itself: any assembled
tangent or operator differential must match a Richardson-extrapolated central
difference of the thing it claims to differentiate.
"""

import json
import math
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyval

import qtangle.trajectories as trajectories
from qtangle import (
    BlochCurve,
    Cut,
    DegenerateInputError,
    Ensemble,
    FactorCurve,
    Ket,
    LocalHamiltonianCurve,
    ParameterRangeError,
    PhaseCurve,
    ProductTrajectory,
    RegisterProgram,
    SampledCurve,
    TangentVector,
    UnitaryCurve,
    UnsupportedMethodError,
    ValidationError,
    curve_through,
    differentiate,
    entanglement_entropy,
    factor_tangents,
    horizontal_tangent,
    infinitesimal_composition,
    partial_trace,
    product_tangent,
    profile,
    projector_differential,
    propagator,
    pseudo_pure_differential,
    register_state,
    register_tangent,
    separable_mixed_differential,
    with_global_phase,
)
from qtangle.cli import rotating_ensemble

from helpers import same_bits

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])


def richardson_fd(fn, t, h=1e-4):
    """Fourth-order derivative oracle built only from evaluations of fn."""
    fine = (fn(t + h / 2) - fn(t - h / 2)) / h
    coarse = (fn(t + h) - fn(t - h)) / (2 * h)
    return (4 * fine - coarse) / 3


def qubit_arc():
    """theta(t) = t, phi = 0: the workhorse real qubit curve."""
    return BlochCurve([0.0, 1.0])


def phased_samples():
    """A qubit arc with a global phase, sampled at 21 points of [0, 1]."""
    arc = with_global_phase(BlochCurve([0.3, 1.1, -0.4], [0.2, 1.7]), [0.5, 2.0])
    times = np.linspace(0.0, 1.0, 21)
    return SampledCurve(times, [arc.state(t) for t in times])


class TestEvalCurve:
    def test_bloch_at_zero_is_ground_state(self):
        assert np.allclose(qubit_arc().state(0.0).amplitudes, [1.0, 0.0])

    def test_hamiltonian_orbit_closed_form(self):
        curve = LocalHamiltonianCurve(SY / 2, Ket.basis((2,), (0,)))
        for theta in (0.3, 1.1, 2.5):
            expected = [math.cos(theta / 2), math.sin(theta / 2)]
            assert np.allclose(curve.state(theta).amplitudes, expected, atol=1e-12)

    def test_phase_curve_at_pi_flips_sign(self):
        plus = Ket(np.array([1.0, 1.0]) / math.sqrt(2), (2,))
        state = PhaseCurve([0.0, 1.0], plus).state(math.pi)
        assert np.allclose(state.amplitudes, -plus.amplitudes, atol=1e-12)

    def test_states_stay_normalized(self):
        rng = np.random.default_rng(0)
        curve = BlochCurve([0.4, 1.3, -0.2], [0.1, 0.7])
        for t in rng.uniform(-2, 2, size=20):
            assert curve.state(t).norm() == pytest.approx(1.0, abs=1e-10)


class TestHornerEvaluators:
    """``_evaluators`` runs ``polyval``'s own float steps: bit for bit, signed
    zeros included, the functions it returns equal those it returns with
    ``polyval`` itself doing each evaluation."""

    PARAMS = np.array([-2.5, -1.0, -1e-300, -0.0, 0.0, 0.4, 3.0])

    @staticmethod
    def by_polyval(rows, x):
        return polyval(x, np.array(rows[::-1]), tensor=False)

    def assert_polyval_bits(self, poly, ts, monkeypatch):
        got = [f(ts) for f in trajectories._evaluators(poly, 4)]
        monkeypatch.setattr(trajectories, "_horner", self.by_polyval)
        want = [f(ts) for f in trajectories._evaluators(poly, 4)]
        monkeypatch.undo()
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))

    @pytest.mark.parametrize(
        "poly",
        [
            Polynomial([0.3, -1.2, 0.7, 0.05]),
            Polynomial([0.3, -1.2, 0.7, 0.05], domain=[0.0, 2.5]),
            Polynomial([-0.0]),
            Polynomial([-0.4, 0.0, -0.0]),
        ],
        ids=["default-domain", "mapped-domain", "negative-zero", "zero-tail"],
    )
    def test_polynomial(self, poly, monkeypatch):
        self.assert_polyval_bits(poly, self.PARAMS, monkeypatch)

    def test_zero_padded_factor_stack(self, monkeypatch):
        """(S, 1, k): one curve per factor over a grid (G,), short rows zero-padded."""
        rows = [np.array([0.3, -1.2, 0.7, 0.05]), np.array([-0.0]), np.array([-0.5, 2.0])]
        self.assert_polyval_bits(trajectories._padded(rows), self.PARAMS, monkeypatch)

    def test_trial_stack(self, monkeypatch):
        """(M, k): one curve per trial, each at its own parameter."""
        coefs = np.random.default_rng(12).standard_normal((len(self.PARAMS), 3))
        coefs[1:3, 1:] = 0.0
        coefs[3, 0] = -0.0
        self.assert_polyval_bits(coefs, self.PARAMS, monkeypatch)


class TestDifferentiate:
    def test_grid_evaluation_repeats_polynomial_arithmetic(self):
        """Curves evaluate their angle polynomials, and the derivatives, on a
        grid exactly as Polynomial.__call__ and Polynomial.deriv do, also on a
        non-default domain."""
        theta = Polynomial([0.3, -1.2, 0.7, 0.05], domain=[0.0, 2.5])
        phi = Polynomial([0.4, 0.9])
        curve = BlochCurve(theta, phi)
        ts = np.linspace(-1.0, 3.0, 41)
        th, ph, dth, dph = theta(ts), phi(ts), theta.deriv()(ts), phi.deriv()(ts)
        c, s = np.cos(th / 2), np.sin(th / 2)
        assert np.array_equal(curve.states(ts)[:, 0], c)
        assert np.array_equal(curve.states(ts)[:, 1], np.exp(1j * ph) * s)
        want = np.exp(1j * ph) * (dth / 2 * c + 1j * dph * s)
        assert np.array_equal(curve.velocities(ts)[:, 1], want)
        for row, t in zip(curve.states(ts), ts):
            assert np.array_equal(curve.state(t).amplitudes, row)

    def test_bloch_velocity_at_origin(self):
        tv = differentiate(qubit_arc(), 0.0)
        assert np.allclose(tv.direction, [0.0, 0.5], atol=1e-14)

    def test_phase_velocity_is_rate_times_state(self):
        base = Ket(np.array([1.0, 1j]) / math.sqrt(2), (2,))
        tv = differentiate(PhaseCurve([0.0, 0.7], base), 1.3)
        expected = 0.7j * np.exp(0.7j * 1.3) * base.amplitudes
        assert np.allclose(tv.direction, expected, atol=1e-13)

    def test_all_methods_agree_on_smooth_curve(self):
        curve = BlochCurve([0.3, 0.9, 0.4], [0.0, 0.5])
        exact = differentiate(curve, 0.8, method="analytic").direction
        fd = differentiate(curve, 0.8, method="central_fd", h=1e-5).direction
        rich = differentiate(curve, 0.8, method="richardson", h=1e-4).direction
        assert np.allclose(fd, exact, atol=1e-9)
        assert np.allclose(rich, exact, atol=1e-12)

    def test_central_fd_is_second_order(self):
        curve = BlochCurve([0.2, 1.1, 0.3])
        exact = differentiate(curve, 0.5, method="analytic").direction
        errs = [
            np.linalg.norm(differentiate(curve, 0.5, method="central_fd", h=h).direction - exact)
            for h in (1e-3, 5e-4)
        ]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_richardson_is_fourth_order(self):
        curve = BlochCurve([0.2, 1.1, 0.3, 0.0, 0.2])
        exact = differentiate(curve, 0.5, method="analytic").direction
        errs = [
            np.linalg.norm(differentiate(curve, 0.5, method="richardson", h=h).direction - exact)
            for h in (2e-2, 1e-2)
        ]
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.35)

    def test_norm_preservation_overlap_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            curve = BlochCurve(rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2))
            t = rng.uniform(0, 2)
            exact = differentiate(curve, t, method="analytic")
            fd = differentiate(curve, t, method="central_fd")
            assert abs(exact.base_overlap().real) < 1e-12
            assert abs(fd.base_overlap().real) < 1e-8

    def test_analytic_on_a_curve_without_velocities_is_unsupported(self, states_only):
        """A user curve that gives only its states is differenced under auto."""
        curve = states_only(qubit_arc())
        assert trajectories.resolve_method((curve, qubit_arc()), "auto") == "richardson"
        with pytest.raises(UnsupportedMethodError):
            differentiate(curve, 0.5, method="analytic")

    def test_auto_on_a_curve_without_velocities_is_richardson(self, states_only):
        """A user curve that defines only ``states`` has no closed form, with no
        flag set: alone, under a global phase and beside a built-in curve in a
        profile, ``auto`` gives the richardson rows."""
        curve = states_only(qubit_arc())
        for c in (curve, with_global_phase(curve, [0.0, 1.0])):
            assert not c.has_analytic
            got, want = differentiate(c, 0.3), differentiate(c, 0.3, method="richardson")
            assert same_bits(got.direction, want.direction)
        traj = ProductTrajectory((curve, BlochCurve([0.0, 1.0])))
        grid, cuts = np.linspace(0.0, 1.0, 5), [Cut.splitting((0,), 2)]
        got, want = profile(traj, grid, cuts), profile(traj, grid, cuts, method="richardson")
        assert same_bits(got.fs_speed, want.fs_speed)

    def test_has_analytic_is_read_from_the_class(self, states_only):
        """A class that defines ``velocities`` or ``_states_and_velocities`` has
        a closed form; the flag cannot be set on a curve."""

        class VelocitiesOnly(FactorCurve):
            dims = (2,)

            def states(self, ts):
                return qubit_arc().states(ts)

            def velocities(self, ts):
                return qubit_arc().velocities(ts)

        assert VelocitiesOnly().has_analytic and qubit_arc().has_analytic
        assert not states_only(qubit_arc()).has_analytic
        assert trajectories.resolve_method((VelocitiesOnly(),), "auto") == "analytic"
        with pytest.raises(AttributeError):
            qubit_arc().has_analytic = False

    def test_auto_reads_the_flag_once_per_factor_group(self, monkeypatch):
        """Twelve factors in two stack groups: ``auto`` reads ``has_analytic``
        of each group's curve, in the order of the groups' first factors."""
        reads, flag = [], FactorCurve.has_analytic
        monkeypatch.setattr(FactorCurve, "has_analytic", property(lambda c: reads.append(type(c)) or flag.fget(c)))
        qubit = Ket([1.0, 1.0j], (2,)).normalized()
        kinds = [lambda: BlochCurve([0.2, 1.0]), lambda: LocalHamiltonianCurve(np.diag([0.5, -0.5]), qubit)]
        traj = ProductTrajectory(tuple(kinds[i % 2]() for i in range(12)))
        profile(traj, np.linspace(0.0, 1.0, 5), [Cut.splitting((0,), 12)])
        assert reads == [BlochCurve, LocalHamiltonianCurve]

    def test_sampled_derivative_is_the_splines(self):
        """At interior points the exact rows match a Richardson oracle built
        from the curve's own states."""
        curve = phased_samples()
        ts = np.linspace(0.05, 0.95, 19)
        states, velocities = trajectories._curve_rows(curve, ts, "analytic", 1e-4)
        assert np.array_equal(states, curve.states(ts))
        assert np.max(abs(velocities - richardson_fd(curve.states, ts))) <= 1e-10
        assert np.array_equal(differentiate(curve, 0.4).direction, curve.velocity(0.4))

    def test_sampled_derivative_holds_at_the_range_ends(self):
        curve = phased_samples()
        for t in (0.0, 1.0):
            tv = differentiate(curve, t, method="analytic")
            assert np.all(np.isfinite(tv.direction)) and tv.norm() > 0
            assert abs(tv.base_overlap().real) < 1e-12

    def test_phase_modulated_sampled_curve_is_analytic(self):
        curve = with_global_phase(phased_samples(), [0.3, -1.2, 0.8])
        assert curve.has_analytic
        assert trajectories.resolve_method((curve,), "auto") == "analytic"
        ts = np.array([0.2, 0.5, 0.85])
        got = np.array([differentiate(curve, t).direction for t in ts])
        assert np.max(abs(got - richardson_fd(curve.states, ts))) <= 1e-10

    def test_sampled_range_error(self):
        grid = np.linspace(0, 1, 9)
        curve = SampledCurve(grid, [qubit_arc().state(t) for t in grid])
        with pytest.raises(ParameterRangeError):
            curve.state(1.5)

    def test_grid_checks_name_the_first_offending_point(self):
        grid = np.linspace(0, 1, 9)
        curve = SampledCurve(grid, [qubit_arc().state(t) for t in grid])
        with pytest.raises(ParameterRangeError, match=r"t=1\.25 outside") as info:
            curve.states(np.array([0.5, 1.25, -0.5, 2.0]))
        assert info.value.row == 1
        prog = RegisterProgram.uniform_superposition([[UnitaryCurve.rotation(SY / 2)] * 2], 2)
        with pytest.raises(ParameterRangeError, match=r"program time -0\.5 outside") as info:
            prog.resolve_time(np.array([0.5, -0.5, 3.0]))
        assert info.value.row == 1

    def test_sampled_derivative_tracks_source_curve(self):
        grid = np.linspace(0, 2, 41)
        src = BlochCurve([0.1, 1.2])
        curve = SampledCurve(grid, [src.state(t) for t in grid])
        got = differentiate(curve, 1.0, method="richardson", h=1e-3).direction
        want = differentiate(src, 1.0, method="analytic").direction
        assert np.allclose(got, want, atol=1e-5)

    def test_bad_method_and_step_rejected(self):
        with pytest.raises(ValueError):
            differentiate(qubit_arc(), 0.0, method="nope")
        with pytest.raises(ValueError):
            differentiate(qubit_arc(), 0.0, method="central_fd", h=0.0)


class TestProductTangent:
    def test_two_real_qubits_give_bell_combination(self):
        traj = ProductTrajectory((qubit_arc(), qubit_arc()))
        for theta in np.linspace(0, math.pi, 13):
            tv = product_tangent(traj, theta)
            got = tv.direction / np.linalg.norm(tv.direction)
            c, s = math.cos(theta), math.sin(theta)
            psi_plus = np.array([0, 1, 1, 0]) / math.sqrt(2)
            phi_minus = np.array([1, 0, 0, -1]) / math.sqrt(2)
            assert np.allclose(got, c * psi_plus - s * phi_minus, atol=1e-10)

    def test_direction_matches_state_map_fd_oracle(self):
        rng = np.random.default_rng(2)
        curves = (
            BlochCurve([0.3, 0.8], [0.1, -0.4]),
            LocalHamiltonianCurve(SY / 2 + 0.2 * SX, Ket(np.array([0.6, 0.8j]), (2,))),
            PhaseCurve([0.0, 1.1], Ket(rng.standard_normal(3) + 0j, (3,), unit=False).normalized()),
        )
        traj = ProductTrajectory(curves)
        t = 0.9
        oracle = richardson_fd(lambda s: traj.state(s).amplitudes, t)
        assert np.allclose(product_tangent(traj, t).direction, oracle, atol=1e-10)

    def test_frozen_factor_contributes_nothing(self):
        traj = ProductTrajectory(
            (qubit_arc(), qubit_arc(), qubit_arc()), frozen=(False, False, True)
        )
        t = 0.7
        tv = product_tangent(traj, t)
        two = ProductTrajectory((qubit_arc(), qubit_arc()))
        inner_part = product_tangent(two, t).direction
        third = qubit_arc().state(t).amplitudes
        assert np.allclose(tv.direction, np.kron(inner_part, third), atol=1e-12)
        ket = tv.normalized_direction()
        assert entanglement_entropy(ket, Cut((0, 1), (2,))) == pytest.approx(0.0, abs=1e-10)

    def test_phase_only_motion_is_stationary(self):
        b1 = Ket(np.array([1.0, 0.0]), (2,))
        b2 = Ket(np.array([0.6, 0.8]), (2,))
        traj = ProductTrajectory((PhaseCurve([0.0, 0.4], b1), PhaseCurve([0.0, 1.1], b2)))
        tv = product_tangent(traj, 0.0)
        assert np.allclose(tv.direction, 1.5j * tv.base.amplitudes, atol=1e-13)

    @pytest.mark.parametrize("method", ["analytic", "central_fd", "richardson"])
    @pytest.mark.parametrize("frozen", [(True, False, False, True), (False,) * 4])
    def test_matches_dense_kron_oracle(self, method, frozen):
        """The running-prefix assembly against one full Kronecker term per moving factor."""
        rng = np.random.default_rng(24)
        for _ in range(3):
            traj = trajectories.random_product_trajectory(rng, (2, 3, 2, 4), frozen=frozen)
            t = float(rng.uniform(0.0, 1.0))
            states = [c.state(t).amplitudes for c in traj.factors]
            terms = []
            for i, curve in enumerate(traj.factors):
                if not frozen[i]:
                    slots = states.copy()
                    slots[i] = differentiate(curve, t, method).direction
                    terms.append(reduce(np.kron, slots))
            tv = product_tangent(traj, t, method)
            assert np.allclose(tv.base.amplitudes, reduce(np.kron, states), rtol=0, atol=1e-12)
            assert np.allclose(tv.direction, sum(terms), rtol=0, atol=1e-12)

    def test_kron_calls_linear_in_factors(self, monkeypatch):
        n = 6
        traj = ProductTrajectory(tuple(BlochCurve([0.1 * i, 1.0]) for i in range(n)))
        calls = []
        kron = np.kron
        monkeypatch.setattr(np, "kron", lambda a, b: calls.append(1) or kron(a, b))
        product_tangent(traj, 0.3)
        # a term per factor, each a full Kronecker chain, would take (n + 1)(n - 1)
        assert len(calls) <= 3 * (n - 1)


class TestHorizontalTangent:
    def test_projects_out_base_component(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            base = Ket(amps / np.linalg.norm(amps), (2, 3))
            direction = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            out = horizontal_tangent(TangentVector(base, direction))
            assert abs(out.base_overlap()) < 1e-13

    def test_pure_gauge_becomes_zero(self):
        base = Ket(np.array([0.6, 0.8]), (2,))
        tv = TangentVector(base, 0.9j * base.amplitudes)
        assert np.linalg.norm(horizontal_tangent(tv).direction) < 1e-13

    def test_already_horizontal_unchanged(self):
        traj = ProductTrajectory((qubit_arc(), qubit_arc()))
        tv = product_tangent(traj, 0.4)
        out = horizontal_tangent(tv)
        assert np.allclose(out.direction, tv.direction, atol=1e-13)

    def test_gauge_covariance_of_entropy(self):
        traj = ProductTrajectory((qubit_arc(), qubit_arc()))
        modulated = ProductTrajectory(
            (with_global_phase(qubit_arc(), [0.3, 1.7]), qubit_arc())
        )
        cut = Cut.splitting((0,), 2)
        for t in (0.2, 0.9, 1.7):
            a = horizontal_tangent(product_tangent(traj, t))
            b = horizontal_tangent(product_tangent(modulated, t))
            ea = entanglement_entropy(a.normalized_direction(), cut)
            eb = entanglement_entropy(b.normalized_direction(), cut)
            assert ea == pytest.approx(eb, abs=1e-10)
            # directions agree up to the global phase exp(i phi(t))
            phase = np.exp(1j * (0.3 + 1.7 * t))
            assert np.allclose(b.direction, phase * a.direction, atol=1e-10)

    def test_zero_direction_cannot_normalize(self):
        base = Ket(np.array([1.0, 0.0]), (2,))
        with pytest.raises(DegenerateInputError):
            TangentVector(base, np.zeros(2, dtype=complex)).normalized_direction()


class TestRegister:
    def make_program(self):
        step1 = (
            UnitaryCurve.rotation(SY / 2),
            UnitaryCurve.rotation(SY / 2),
            UnitaryCurve.constant(np.eye(2)),
        )
        step2 = (
            UnitaryCurve.rotation(SX / 2),
            UnitaryCurve.rotation(SY / 2),
            UnitaryCurve.constant(np.diag([1.0, 1j])),
        )
        return RegisterProgram.uniform_superposition((step1, step2), 3)

    def test_initial_state_is_uniform(self):
        prog = self.make_program()
        assert np.allclose(prog.initial.amplitudes, np.full(8, 1 / math.sqrt(8)))

    def test_identity_steps_give_zero_tangent(self):
        steps = ((UnitaryCurve.constant(np.eye(2)),) * 2,)
        prog = RegisterProgram.uniform_superposition(steps, 2)
        tv = register_tangent(prog, 1, 0.5)
        assert np.linalg.norm(tv.direction) == 0.0

    def test_tangent_matches_fd_of_step_state(self):
        prog = self.make_program()
        for k in (1, 2):
            t = 0.6
            oracle = richardson_fd(lambda s: register_state(prog, k, s).amplitudes, t)
            got = register_tangent(prog, k, t)
            assert np.allclose(got.direction, oracle, atol=1e-9)
            assert np.allclose(got.base.amplitudes, register_state(prog, k, t).amplitudes)

    def test_constant_third_site_keeps_cut_unentangled(self):
        prog = self.make_program()
        cut = Cut((0, 1), (2,))
        for k, t in ((1, 0.3), (1, 0.9), (2, 0.2), (2, 0.8)):
            ket = register_tangent(prog, k, t).normalized_direction()
            assert entanglement_entropy(ket, cut) < 1e-10

    def test_two_site_rotation_entangles_tangent(self):
        steps = ((UnitaryCurve.rotation(SY / 2), UnitaryCurve.rotation(SY / 2)),)
        prog = RegisterProgram.uniform_superposition(steps, 2)
        ket = register_tangent(prog, 1, 0.7).normalized_direction()
        assert entanglement_entropy(ket, Cut.splitting((0,), 2)) > 0.5

    def test_richardson_matches_central_fd_to_second_order(self):
        prog = self.make_program()
        for k, t in ((1, 0.4), (2, 0.7)):
            exact = register_tangent(prog, k, t, "analytic").direction
            gaps = []
            for h in (2e-2, 1e-2):
                rich = register_tangent(prog, k, t, "richardson", h).direction
                fd = register_tangent(prog, k, t, "central_fd", h).direction
                assert np.allclose(rich, exact, atol=1e-7)
                gaps.append(np.linalg.norm(rich - fd))
            # the two stencils differ by the O(h^2) error that Richardson removes
            assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.05)

    def test_step_index_validated(self):
        prog = self.make_program()
        with pytest.raises(ValueError):
            register_tangent(prog, 3, 0.0)

    def test_step_parameter_validated(self):
        """A local parameter outside the step's [0, 1] is rejected, not extrapolated."""
        prog = self.make_program()
        with pytest.raises(ParameterRangeError, match=r"^step parameter 2\.5 outside \[0, 1\]$"):
            register_state(prog, 1, 2.5)
        with pytest.raises(ParameterRangeError, match=r"^step parameter -0\.5 outside \[0, 1\]$"):
            register_tangent(prog, 2, -0.5, "central_fd")
        # the stencil points t +- h leave [0, 1] at its ends, and are not checked
        for method in ("analytic", "central_fd", "richardson"):
            for t in (0.0, 1.0):
                assert register_tangent(prog, 2, t, method).norm() > 0

    @pytest.mark.parametrize("call, rows", [(register_state, "amplitudes"), (register_tangent, "direction")])
    def test_step_index_must_be_an_integer(self, call, rows):
        """A fractional step index is refused by name; a numpy integer is an index."""
        prog = self.make_program()
        with pytest.raises(ValueError, match=r"^step index must be an integer, got 1\.5$"):
            call(prog, 1.5, 0.5)
        got, want = (getattr(call(prog, k, 0.5), rows) for k in (np.int64(2), 2))
        assert np.array_equal(got, want)

    def test_method_resolved_like_factor_curves(self):
        prog = self.make_program()
        auto = register_tangent(prog, 1, 0.4, "auto").direction
        assert np.array_equal(auto, register_tangent(prog, 1, 0.4, "analytic").direction)
        with pytest.raises(ValueError, match="unknown method 'fd'"):
            register_tangent(prog, 1, 0.4, "fd")

    @pytest.mark.parametrize("method", ["analytic", "central_fd", "richardson"])
    def test_matches_dense_kron_oracle(self, method):
        """Local contraction against the full 2^n x 2^n operator, built here."""
        rng = np.random.default_rng(21)
        dims = (2, 3, 2)

        def unitary(d):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return np.linalg.qr(a)[0]

        def hermitian(d):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return (a + a.conj().T) / 2

        def value(curve, s):
            return propagator(curve.generator, s) @ curve.base

        def deriv(curve, s, h=1e-4):
            if method == "analytic":
                return -1j * curve.generator @ value(curve, s)
            central = lambda step: (value(curve, s + step) - value(curve, s - step)) / (2 * step)
            if method == "central_fd":
                return central(h)
            return (4 * central(h / 2) - central(h)) / 3

        for _ in range(3):
            steps = [[UnitaryCurve(hermitian(d), unitary(d)) for d in dims] for _ in range(3)]
            steps[1][1] = UnitaryCurve.constant(unitary(3))
            amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            prog = RegisterProgram(steps, Ket(amps / np.linalg.norm(amps), dims, unit=True))
            chi = prog.initial.amplitudes
            for k, step in enumerate(steps, start=1):
                t = rng.uniform(0.05, 0.95)
                values = [value(c, t) for c in step]
                terms = []
                for i, curve in enumerate(step):
                    slots = values.copy()
                    slots[i] = deriv(curve, t)
                    terms.append(reduce(np.kron, slots) @ chi)
                state = register_state(prog, k, t).amplitudes
                tv = register_tangent(prog, k, t, method)
                assert np.allclose(state, reduce(np.kron, values) @ chi, rtol=0, atol=1e-12)
                assert np.allclose(tv.base.amplitudes, state, rtol=0, atol=1e-12)
                assert np.allclose(tv.direction, sum(terms), rtol=0, atol=1e-12)
                chi = reduce(np.kron, [value(c, 1.0) for c in step]) @ chi

    def test_twelve_qubits_without_a_dense_operator(self):
        n, k, t = 12, 2, 0.35
        rng = np.random.default_rng(22)
        steps = [
            [UnitaryCurve.rotation(rng.normal() * SX + rng.normal() * SY) for _ in range(n)]
            for _ in range(2)
        ]
        prog = RegisterProgram.uniform_superposition(steps, n)
        tracemalloc.start()
        try:
            tv = register_tangent(prog, k, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 2^12 x 2^12 complex operator alone is 268 MB
        assert peak < 8e6
        # the register stays a product state, so its tangent obeys the sum rule:
        # one Kronecker term per site, that site's velocity among the others' states
        plus = np.full(2, 1 / math.sqrt(2), dtype=complex)
        bases, velocities = [], []
        for first, second in zip(*prog.steps):
            start = first.value(1.0) @ plus
            bases.append(second.value(t) @ start)
            velocities.append(second.derivative(t) @ start)
        terms = [reduce(np.kron, bases[:i] + [v] + bases[i + 1 :]) for i, v in enumerate(velocities)]
        assert np.allclose(tv.base.amplitudes, reduce(np.kron, bases), rtol=0, atol=1e-12)
        assert np.allclose(tv.direction, sum(terms), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method", ["central_fd", "richardson"])
    def test_constant_sites_move_nothing_under_every_method(self, method):
        """Skipping a constant site is exact: its stencil is exactly zero too."""
        rng = np.random.default_rng(25)
        curves = [
            UnitaryCurve.constant(np.linalg.qr(rng.standard_normal((2, 2)) + 1j * SY)[0])
            for _ in range(3)
        ]
        for curve in curves:
            assert not np.any(trajectories._stencil(curve.value, 0.4, method, 1e-4))
        prog = RegisterProgram.uniform_superposition([curves], 3)
        assert not np.any(register_tangent(prog, 1, 0.4, method).direction)

    def test_tensordot_calls_linear_in_sites(self, monkeypatch):
        n = 6
        steps = [[UnitaryCurve.rotation(SY / 2 + 0.1 * i * SX) for i in range(n)]]
        prog = RegisterProgram.uniform_superposition(steps, n)
        calls = []
        tensordot = np.tensordot
        monkeypatch.setattr(np, "tensordot", lambda *a, **kw: calls.append(1) or tensordot(*a, **kw))
        register_tangent(prog, 1, 0.4)
        # a term per site, each contracting every site, would take n(n + 1)
        assert len(calls) <= 3 * n

    def test_one_value_call_per_site(self, monkeypatch):
        """A step's sites are evaluated once each, all in one stacked call."""
        prog = self.make_program()
        register_state(prog, 2, 0.5)  # fills the cached step starts
        calls = []
        unitaries = trajectories._unitaries

        def counting(evals, evecs, base, t):
            out = unitaries(evals, evecs, base, t)
            calls.append((np.asarray(t).tolist(), out.shape[:-3]))
            return out

        monkeypatch.setattr(trajectories, "_unitaries", counting)
        register_tangent(prog, 2, 0.3)
        assert calls == [([0.3], (prog.n_sites,))]

    def test_completed_steps_evaluated_once(self, monkeypatch):
        prog = self.make_program()
        calls = []
        value = UnitaryCurve.value

        def counting(curve, t):
            calls.append((id(curve), t))
            return value(curve, t)

        monkeypatch.setattr(UnitaryCurve, "value", counting)
        for t in (0.1, 0.5, 0.9):
            register_state(prog, 2, t)
            register_tangent(prog, 2, t)
        first = {id(c) for c in prog.steps[0]}
        assert sorted(t for key, t in calls if key in first) == [1.0] * 3

    def test_unitary_curve_value_is_the_propagator(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        base = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        curve = UnitaryCurve((a + a.conj().T) / 2, base)
        for t in (0.0, 0.3, 1.0, -2.5):
            assert np.array_equal(curve.value(t), propagator(curve.generator, t) @ curve.base)

    def test_resolve_time_walks_steps(self):
        prog = self.make_program()
        assert prog.resolve_time(0.25) == (1, 0.25)
        assert prog.resolve_time(1.5) == (2, 0.5)
        assert prog.resolve_time(2.0) == (2, 1.0)

    def test_nonunitary_base_rejected(self):
        with pytest.raises(ValidationError):
            UnitaryCurve.constant(np.diag([1.0, 2.0]))


class TestPseudoPureDifferential:
    def arc_tangent(self, t):
        traj = ProductTrajectory((qubit_arc(), qubit_arc()))
        return product_tangent(traj, t)

    def test_trace_vanishes_for_norm_preserving_curve(self):
        tv = self.arc_tangent(0.0)
        drho = pseudo_pure_differential(tv.base, tv, 0.1)
        assert abs(drho.trace()) < 1e-12

    def test_partial_trace_is_scaled_factor_differential(self):
        t = 0.6
        tv = self.arc_tangent(t)
        eps = 0.1
        drho = pseudo_pure_differential(tv.base, tv, eps)
        reduced = partial_trace(drho, Cut.splitting((0,), 2), keep="left")
        factor = differentiate(qubit_arc(), t)
        expected = eps * projector_differential(factor).matrix
        assert np.allclose(reduced.matrix, expected, atol=1e-12)
        assert np.linalg.norm(reduced.matrix) == pytest.approx(eps / math.sqrt(2), abs=1e-12)

    def test_epsilon_one_matches_projector_fd_oracle(self):
        traj = ProductTrajectory((qubit_arc(), qubit_arc()))
        t = 0.8
        tv = product_tangent(traj, t)
        drho = pseudo_pure_differential(tv.base, tv, 1.0)
        oracle = richardson_fd(
            lambda s: np.outer(traj.state(s).amplitudes, traj.state(s).amplitudes.conj()), t
        )
        assert np.allclose(drho.matrix, oracle, atol=1e-12)

    def test_epsilon_range_enforced(self):
        tv = self.arc_tangent(0.0)
        for eps in (0.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                pseudo_pure_differential(tv.base, tv, eps)

    def test_detached_tangent_rejected(self):
        tv = self.arc_tangent(0.0)
        other = Ket.basis((2, 2), (1, 1))
        with pytest.raises(ValueError):
            pseudo_pure_differential(other, tv, 0.5)


class TestSeparableMixedDifferential:
    def test_single_component_matches_projector_fd_oracle(self):
        comp = ProductTrajectory((qubit_arc(), BlochCurve([0.2, 0.7], [0.0, 0.3])))
        ens = Ensemble((1.0,), (comp,))
        t = 0.5
        drho = separable_mixed_differential(ens, t)
        oracle = richardson_fd(
            lambda s: np.outer(comp.state(s).amplitudes, comp.state(s).amplitudes.conj()), t
        )
        assert np.allclose(drho.matrix, oracle, atol=1e-12)

    def test_motionless_ensemble_gives_zero(self):
        a = PhaseCurve(0.0, Ket.basis((2,), (0,)))
        b = PhaseCurve(0.0, Ket(np.array([0.6, 0.8]), (2,)))
        ens = Ensemble((0.5, 0.5), (ProductTrajectory((a, b)), ProductTrajectory((b, a))))
        drho = separable_mixed_differential(ens, 0.3)
        assert np.linalg.norm(drho.matrix) < 1e-14

    def test_rotating_pair_reduced_norm(self):
        ens = rotating_ensemble()
        for t in (0.0, 0.4, 0.7):
            drho = separable_mixed_differential(ens, t)
            reduced = partial_trace(drho, Cut.splitting((0,), 2), keep="left")
            want = abs(math.cos(t)) / math.sqrt(2)
            assert np.linalg.norm(reduced.matrix) == pytest.approx(want, abs=1e-12)

    def test_trace_and_hermiticity(self):
        ens = rotating_ensemble()
        drho = separable_mixed_differential(ens, 0.3)
        assert abs(drho.trace()) < 1e-10
        assert np.max(np.abs(drho.matrix - drho.matrix.conj().T)) < 1e-12

    def test_weight_validation(self):
        comp = ProductTrajectory((qubit_arc(), qubit_arc()))
        with pytest.raises(ValueError):
            Ensemble((0.4, 0.4), (comp, comp))
        with pytest.raises(ValueError):
            Ensemble((1.2, -0.2), (comp, comp))

    def test_components_must_be_bipartite(self):
        comp = ProductTrajectory((qubit_arc(), qubit_arc(), qubit_arc()))
        with pytest.raises(ValueError):
            Ensemble((1.0,), (comp,))


class TestInfinitesimalComposition:
    def test_zero_generator_and_zero_time(self):
        assert np.allclose(infinitesimal_composition(np.zeros((2, 2)), 1.0, 7), np.eye(2))
        assert np.allclose(infinitesimal_composition(SY, 0.0, 7), np.eye(2))

    def test_converges_to_exponential_at_first_order(self):
        exact = propagator(SY, 1.0)
        dists = [
            np.linalg.norm(infinitesimal_composition(SY, 1.0, n) - exact, ord=2)
            for n in (64, 128, 256)
        ]
        assert dists[0] / dists[1] == pytest.approx(2.0, rel=0.15)
        assert dists[1] / dists[2] == pytest.approx(2.0, rel=0.15)

    def test_propagator_is_unitary_exponential(self):
        u = propagator(SY / 2, 1.2)
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
        expected = math.cos(0.6) * np.eye(2) - 1j * math.sin(0.6) * SY
        assert np.allclose(u, expected, atol=1e-12)


class TestCurveThrough:
    def test_reproduces_state_and_velocity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            state = Ket(amps / np.linalg.norm(amps), (3,))
            d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            d -= np.vdot(state.amplitudes, d).real * state.amplitudes
            curve = curve_through(state, d)
            assert np.allclose(curve.state(0.0).amplitudes, state.amplitudes, atol=1e-12)
            assert np.allclose(differentiate(curve, 0.0).direction, d, atol=1e-10)

    def test_rejects_norm_breaking_direction(self):
        state = Ket.basis((2,), (0,))
        with pytest.raises(ValueError):
            curve_through(state, state.amplitudes * 0.3)


def unit_rows(rng, m, d):
    amps = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def hermitian_stack(rng, m, d):
    a = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    return (a + np.swapaxes(a.conj(), -2, -1)) / 4


STACKED_KINDS = ["bloch", "phase", "hamiltonian", "modulated", "interleaved"]


def stacked_and_singles(kind, m=7, seed=60):
    """A stacked curve of m trials and the m scalar curves of its rows."""
    rng = np.random.default_rng(seed)
    theta, phi = rng.normal(size=(m, 3)), rng.normal(size=(m, 2))
    bases, gens = unit_rows(rng, m, 3), hermitian_stack(rng, m, 3)
    hamiltonian = [LocalHamiltonianCurve(gens[i], Ket(bases[i], (3,))) for i in range(m)]
    if kind == "bloch":
        return BlochCurve(theta, phi), [BlochCurve(theta[i], phi[i]) for i in range(m)]
    if kind == "phase":
        return PhaseCurve(phi, bases), [PhaseCurve(phi[i], Ket(bases[i], (3,))) for i in range(m)]
    if kind == "hamiltonian":
        return LocalHamiltonianCurve(gens, bases), hamiltonian
    if kind == "modulated":
        stacked = with_global_phase(LocalHamiltonianCurve(gens, bases), theta)
        return stacked, [with_global_phase(c, theta[i]) for i, c in enumerate(hamiltonian)]
    # qubit arcs on the even trials, phase curves on the odd ones
    even, odd = np.arange(0, m, 2), np.arange(1, m, 2)
    qubits = unit_rows(rng, m, 2)
    parts = [(BlochCurve(theta[even], phi[even]), even), (PhaseCurve(phi[odd], qubits[odd]), odd)]
    singles = [
        BlochCurve(theta[i], phi[i]) if i % 2 == 0 else PhaseCurve(phi[i], Ket(qubits[i], (2,)))
        for i in range(m)
    ]
    return trajectories._Interleaved(parts), singles


class TestStackedCurves:
    """A curve whose parameters carry a leading trial axis is, row by row,
    the scalar curve of that trial at that trial's parameter value."""

    EVALUATIONS = {
        "states": lambda curve, ts: curve.states(ts),
        "velocities": lambda curve, ts: curve.velocities(ts),
        "central_fd": lambda curve, ts: trajectories._curve_rows(curve, ts, "central_fd", 1e-4)[1],
        "richardson": lambda curve, ts: trajectories._curve_rows(curve, ts, "richardson", 1e-4)[1],
    }

    @pytest.mark.parametrize("evaluation", sorted(EVALUATIONS))
    @pytest.mark.parametrize("kind", STACKED_KINDS)
    def test_row_i_is_trial_i_at_its_own_time(self, kind, evaluation):
        stacked, singles = stacked_and_singles(kind)
        ts = np.random.default_rng(61).uniform(-1.0, 2.0, len(singles))
        evaluate = self.EVALUATIONS[evaluation]
        got = evaluate(stacked, ts)
        want = np.array([evaluate(curve, ts[i : i + 1])[0] for i, curve in enumerate(singles)])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("kind", STACKED_KINDS)
    def test_states_and_velocities_are_those_of_the_separate_calls(self, kind):
        """One joint evaluation gives the rows of ``states`` and ``velocities``
        to the bit, for the stacked curve and each of its scalar rows."""
        stacked, singles = stacked_and_singles(kind)
        ts = np.random.default_rng(67).uniform(-1.0, 2.0, len(singles))
        for curve, at in [(stacked, ts), *((c, ts[i : i + 1]) for i, c in enumerate(singles))]:
            states, velocities = curve._states_and_velocities(at)
            assert np.array_equal(states, curve.states(at))
            assert np.array_equal(velocities, curve.velocities(at))

    def test_one_dimensional_parameters_keep_their_grid_arithmetic(self):
        """Scalar phase, Hamiltonian and phase-modulated curves evaluate a grid
        by exactly the parent formulas."""
        rng = np.random.default_rng(62)
        ts = np.linspace(-1.0, 2.0, 23)
        base = Ket(unit_rows(rng, 1, 3)[0], (3,))
        gen = hermitian_stack(rng, 1, 3)[0]
        phi = Polynomial([0.3, -0.8, 0.25])
        phase = np.exp(1j * phi(ts))[:, None]
        assert np.array_equal(PhaseCurve(phi, base).states(ts), phase * base.amplitudes)

        curve = LocalHamiltonianCurve(gen, base)
        w, v = np.linalg.eigh(gen)
        coeffs = v.conj().T @ base.amplitudes
        orbit = np.array([v @ (np.exp(-1j * w * t) * coeffs) for t in ts])
        assert np.array_equal(curve.states(ts), orbit)
        assert np.array_equal(curve.velocities(ts), np.array([-1j * (gen @ row) for row in orbit]))

        modulated = with_global_phase(curve, phi)
        assert np.array_equal(modulated.states(ts), phase * orbit)
        dphi = phi.deriv()(ts)[:, None]
        want = phase * (1j * dphi * orbit + curve.velocities(ts))
        assert np.array_equal(modulated.velocities(ts), want)

    def test_phase_modulated_factor_evaluates_its_inner_curve_once(
        self, count_evaluations, monkeypatch
    ):
        """One analytic differentiation of a phase-modulated factor evaluates
        its inner curve once, jointly, computing the inner orbit once, and
        gives the rows of ``states`` and ``velocities`` to the bit."""
        rng = np.random.default_rng(66)
        inner = LocalHamiltonianCurve(hermitian_stack(rng, 1, 3)[0], Ket(unit_rows(rng, 1, 3)[0], (3,)))
        modulated = with_global_phase(inner, [0.3, -0.8, 0.25])
        traj = ProductTrajectory((modulated, BlochCurve([0.2, 1.1])))
        ts = np.linspace(-1.0, 2.0, 11)
        want = modulated.states(ts), modulated.velocities(ts)
        calls = count_evaluations(inner)
        orbits, orbit = [], inner._amplitudes
        monkeypatch.setattr(inner, "_amplitudes", lambda ts: orbits.append(ts) or orbit(ts))
        (base, deriv), _ = trajectories._unstacked(trajectories._factor_rows(traj, ts, "analytic", 1e-4))
        assert calls == {"states": 0, "velocities": 0, "_states_and_velocities": 1}
        assert len(orbits) == 1
        assert np.array_equal(base, want[0]) and np.array_equal(deriv, want[1])

    def test_stacked_generators_propagate_and_compose_per_trial(self):
        gens = hermitian_stack(np.random.default_rng(63), 5, 3)
        stacked = propagator(gens, 0.7), infinitesimal_composition(gens, 0.7, 16)
        for i, gen in enumerate(gens):
            assert np.array_equal(stacked[0][i], propagator(gen, 0.7))
            assert np.array_equal(stacked[1][i], infinitesimal_composition(gen, 0.7, 16))

    @pytest.mark.parametrize(
        "curve, args, stack, single",
        [
            (BlochCurve, ([[0.0, 1.0], [0.5, 1.0]], 0.3), "theta", "phi"),
            (BlochCurve, (0.3, [[0.0, 1.0], [0.5, 1.0]]), "phi", "theta"),
            (PhaseCurve, (0.3, np.eye(2, dtype=complex)), "base", "phi"),
            (PhaseCurve, ([[0.3, 1.0], [0.1, 0.5]], Ket([1.0, 0.0], (2,))), "phi", "base"),
        ],
        ids=["bloch-theta", "bloch-phi", "phase-base", "phase-phi"],
    )
    def test_a_stack_beside_a_single_parameter_is_refused(self, curve, args, stack, single):
        """A stack of trials pairs its rows with the grid points; beside a
        single polynomial or ket it would pair trial i with point i."""
        names = "theta and phi" if curve is BlochCurve else "phi and base"
        message = f"^{names} must both be stacks of trials or neither; {stack} is a stack, {single} is not$"
        with pytest.raises(ValueError, match=message):
            curve(*args)

    @pytest.mark.parametrize("stack, single", [("generator", "initial"), ("initial", "generator")])
    def test_a_hamiltonian_stack_beside_a_single_parameter_is_refused(self, stack, single):
        rng = np.random.default_rng(69)
        gens, amps = hermitian_stack(rng, 3, 2), unit_rows(rng, 3, 2)
        args = (gens, amps[0]) if stack == "generator" else (gens[0], amps)
        message = "^generator and initial must both be stacks of trials or neither; "
        message += f"{stack} is a stack, {single} is not$"
        with pytest.raises(ValueError, match=message):
            LocalHamiltonianCurve(*args)

    @pytest.mark.parametrize(
        "curve, args, names, stacks",
        [
            (BlochCurve, (np.zeros((2, 3)), np.zeros((3, 2))), ("theta", "phi"), ((2,), (3,))),
            (PhaseCurve, (np.zeros((2, 3)), np.eye(3, dtype=complex)), ("phi", "base"), ((2,), (3,))),
            (
                LocalHamiltonianCurve,
                (np.zeros((2, 3, 3)), np.eye(3, dtype=complex)),
                ("generator", "initial"),
                ((2,), (3,)),
            ),
            (BlochCurve, (np.zeros((2, 3)), np.zeros((2, 1, 2))), ("theta", "phi"), ((2,), (2, 1))),
        ],
        ids=["bloch", "phase", "hamiltonian", "bloch-extra-axis"],
    )
    def test_stacks_of_different_trials_are_refused(self, curve, args, names, stacks):
        """Two stacks of different trials would fail on a grid with numpy's
        bare broadcast error, or pair the wrong rows; the constructor names
        both parameters instead."""
        (first, second), (one, other) = names, stacks
        message = f"{first} and {second} must stack the same trials; {first} stacks {one}, {second} stacks {other}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            curve(*args)

    def test_the_stacks_of_the_draws_and_of_a_trajectory_still_construct(self):
        rng = np.random.default_rng(68)
        for dim, constant_speed in [(2, False), (2, True), (3, False)]:
            draw = trajectories._random_curves(rng, dim, 30, constant_speed)
            assert {type(curve) for curve, _ in draw.parts} >= {PhaseCurve, LocalHamiltonianCurve}
            assert draw.states(rng.uniform(-1.0, 2.0, 30)).shape == (30, dim)
        traj = interleaved_trajectory(24)
        stacked = {type(curve) for factors, curve, _ in traj._stacks if len(factors) > 1}
        assert stacked >= {BlochCurve, PhaseCurve}
        rows = trajectories._factor_rows(traj, np.linspace(0.0, 1.0, 5), "analytic", 1e-4)
        assert len(rows) == len(traj._stacks)

    def test_unitary_curve_still_takes_one_generator(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            UnitaryCurve.rotation(hermitian_stack(np.random.default_rng(64), 2, 2))


SAMPLE_TIMES = np.linspace(-1.5, 1.5, 25)


def factor_curve(kind, rng):
    """One factor curve of the given kind, drawn from ``rng``."""
    if kind == "bloch":  # theta of degree 0 to 3, phi of degree 0 to 2
        return BlochCurve(rng.normal(size=rng.integers(1, 5)), rng.normal(size=rng.integers(1, 4)))
    if kind.startswith("phase"):
        d = int(kind[-1])
        return PhaseCurve(rng.normal(size=rng.integers(1, 4)), Ket(unit_rows(rng, 1, d)[0], (d,)))
    if kind.startswith("hamiltonian"):
        d = int(kind[-1])
        return LocalHamiltonianCurve(hermitian_stack(rng, 1, d)[0], Ket(unit_rows(rng, 1, d)[0], (d,)))
    if kind == "modulated":
        return with_global_phase(factor_curve("hamiltonian2", rng), rng.normal(size=3))
    arc = BlochCurve([rng.normal(), 1.0], [rng.normal(), 0.5])
    return SampledCurve(SAMPLE_TIMES, [arc.state(t) for t in SAMPLE_TIMES])


FACTOR_KINDS = (
    "bloch", "hamiltonian2", "phase3", "bloch", "hamiltonian3", "modulated", "phase2", "sampled"
)


def interleaved_trajectory(n, seed=70):
    """n factors of every kind in turn, every third one frozen."""
    rng = np.random.default_rng(seed)
    curves = tuple(factor_curve(FACTOR_KINDS[i % len(FACTOR_KINDS)], rng) for i in range(n))
    return ProductTrajectory(curves, tuple(i % 3 == 2 for i in range(n)))


def loop_rows(traj, ts, method, h=1e-4):
    """Each factor's rows by the loop over its curves the stacks replace."""
    rows = []
    for curve, frozen in zip(traj.factors, traj.frozen):
        if frozen:
            base = curve.states(ts)
            rows.append((base, np.zeros_like(base)))
        else:
            rows.append(trajectories._curve_rows(curve, ts, method, h))
    return rows


def loop_rejection(traj, ts, method, h=1e-4):
    """(type, message, grid point) of the rejection that loop meets first."""
    try:
        loop_rows(traj, ts, method, h)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    raise AssertionError("no factor was rejected")


# (kind, grid value past which it fails; None: it never does) of each factor
REJECTION_LAYOUTS = {
    "first": [("hamiltonian", 2.5), ("bloch", 1.5)],
    "first-stacks-later": [("bloch", 2.5), ("hamiltonian", 1.5)],
    "later-group": [("bloch", None), ("hamiltonian", 1.5), ("bloch", 2.5)],
    "later-group-later-point": [("bloch", None), ("hamiltonian", 2.5), ("bloch", 1.5)],
    "mixed": [("phase", None), ("bloch", 3.5), ("sampled", 2.5), ("phase", 1.5), ("hamiltonian", None)],
    "sampled": [("hamiltonian", None), ("phase", 3.5), ("hamiltonian", 2.5), ("sampled", 1.5)],
    "in-stack": [("bloch", None), ("bloch", 2.5), ("hamiltonian", None), ("bloch", 1.5)],
}
REJECTION_GRID = np.arange(0.0, 5.0)


def rejecting_trajectory(factors):
    """The qubit trajectory of a ``REJECTION_LAYOUTS`` layout: a failing factor
    is ``TestFactorStacks.breaking``, the others are drawn from a fixed seed."""
    rng = np.random.default_rng(73)
    still = lambda kind: factor_curve(kind if kind == "bloch" else f"{kind}2", rng)
    breaking = TestFactorStacks.breaking
    return ProductTrajectory(tuple(breaking(kind, at) if at else still(kind) for kind, at in factors))


class TestFactorStacks:
    """A product trajectory evaluates its factors once per group of one curve
    kind, dims and frozen flag; each factor's rows are those of its own curve."""

    GRID = np.linspace(-1.0, 1.0, 7)

    @pytest.mark.parametrize("method", ["analytic", "central_fd", "richardson"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 11, 16])
    def test_stacked_rows_are_each_curves_own_rows(self, n, method):
        traj = interleaved_trajectory(n)
        got = trajectories._unstacked(trajectories._factor_rows(traj, self.GRID, method, 1e-4))
        want = loop_rows(traj, self.GRID, method)
        assert len(got) == n
        for (base, deriv), (want_base, want_deriv) in zip(got, want):
            assert same_bits(base, want_base) and same_bits(deriv, want_deriv)
        product = reduce(trajectories._kron_rows, [base for base, _ in want])
        assert same_bits(traj.states(self.GRID), product)

    def test_groups_by_kind_dims_and_frozen_flag_in_order_of_first_factor(self):
        traj = interleaved_trajectory(16)
        assert "_stacks" not in vars(traj)  # stacked on first use, not on construction
        groups = [list(factors) for factors, _, _ in traj._stacks]
        assert groups == [
            [0, 3],  # moving qubit arcs
            [1, 9],  # qubit orbits
            [2],  # a frozen qutrit phase curve
            [4, 12],  # qutrit orbits
            [5],  # phase-modulated curves do not stack
            [6],  # a moving qubit phase curve
            [7],  # sampled curves do not stack
            [8, 11],  # frozen qubit arcs
            [10],  # a moving qutrit phase curve
            [13],
            [14],  # a frozen qubit phase curve
            [15],
        ]
        stacked = [curve for _, curve, _ in traj._stacks]
        assert stacked[5] is not traj.factors[6] and stacked[4] is traj.factors[5]
        assert stacked[6] is traj.factors[7]
        assert [curve.dims for curve in stacked] == [traj.factors[g[0]].dims for g in groups]
        assert [frozen for _, _, frozen in traj._stacks] == [traj.frozen[g[0]] for g in groups]

    @pytest.mark.parametrize("method", ["analytic", "central_fd"])
    def test_one_evaluation_per_group(self, method, monkeypatch, count_evaluations):
        """Each moving group is differentiated by one ``_curve_rows`` call and
        each frozen group evaluated by one ``states`` call, whatever its size."""
        traj = interleaved_trajectory(12)
        calls, original = [], trajectories._curve_rows
        counting = lambda curve, *args: calls.append(curve) or original(curve, *args)
        monkeypatch.setattr(trajectories, "_curve_rows", counting)
        frozen = [count_evaluations(curve) for _, curve, still in traj._stacks if still]
        trajectories._factor_rows(traj, self.GRID, method, 1e-4)
        moving = [curve for _, curve, still in traj._stacks if not still]
        assert calls == moving
        assert frozen == [{"states": 1, "velocities": 0, "_states_and_velocities": 0}] * len(frozen) != []
        assert len(moving) < sum(not f for f in traj.frozen)

    @pytest.mark.parametrize("method", ["analytic", "central_fd", "richardson"])
    def test_a_curve_off_the_default_domain_is_a_group_of_its_own(self, method):
        """A Bloch curve on another polynomial domain cannot stack: it keeps
        its own curve object, and the default-domain curves on either side of
        it share one group; every factor's rows are its own curve's."""
        odd = BlochCurve(Polynomial([0.3, 1.1, -0.4], domain=[0.0, 2.5]), [0.2, 1.7])
        traj = ProductTrajectory((BlochCurve([0.1, 0.9], 0.4), odd, BlochCurve([-0.2, 0.5, 0.3], [1.0, -0.6])))
        assert [list(factors) for factors, _, _ in traj._stacks] == [[0, 2], [1]]
        assert traj._stacks[1][1] is odd and traj._stacks[0][1] not in traj.factors
        got = trajectories._unstacked(trajectories._factor_rows(traj, self.GRID, method, 1e-4))
        for (base, deriv), (want_base, want_deriv) in zip(got, loop_rows(traj, self.GRID, method)):
            assert same_bits(base, want_base) and same_bits(deriv, want_deriv)

    @staticmethod
    def breaking(kind, at):
        """A curve of the kind whose amplitudes are first non-finite at grid
        point t > ``at``: its angle or phase overflows there."""
        if kind == "sampled":
            ts = np.linspace(-2.0, at, 9)
            return SampledCurve(ts, [qubit_arc().state(t) for t in ts])
        rate = np.finfo(float).max / at
        if kind == "bloch":
            return BlochCurve([0.0, rate])
        if kind == "phase":
            return PhaseCurve([0.0, rate], Ket(np.array([0.6, 0.8]), (2,)))
        return LocalHamiltonianCurve(np.diag([rate, -rate]), Ket(np.array([0.6, 0.8]), (2,)))

    @pytest.mark.parametrize("method", ["richardson", "central_fd"])
    @pytest.mark.parametrize("factors", REJECTION_LAYOUTS.values(), ids=REJECTION_LAYOUTS)
    def test_rejection_is_the_factor_loops_first(self, factors, method, monkeypatch):
        """Message, class and grid point are those of the lowest failing
        factor, as a loop over the factors rejects them; a rejection at the
        first factor evaluates no group after it."""
        traj, grid = rejecting_trajectory(factors), REJECTION_GRID
        calls, original = [], trajectories._curve_rows
        monkeypatch.setattr(trajectories, "_curve_rows", lambda *args: calls.append(1) or original(*args))
        with np.errstate(over="ignore", invalid="ignore"):
            want = loop_rejection(traj, grid, method)
            calls.clear()
            with pytest.raises(ValueError) as info:
                trajectories._factor_rows(traj, grid, method, 1e-4)
        assert (type(info.value), str(info.value), getattr(info.value, "row", None)) == want
        if factors[0][1]:
            assert len(calls) == 1

    def test_a_lower_factor_failing_a_later_check_is_rejected_first(self):
        """In one group, factor 1 fails the amplitude check and factor 0 only
        the later direction check: the loop rejects factor 0."""
        grid = np.array([0.0, 0.5, 1.0, 1.2])
        big = np.finfo(float).max
        # theta = big/2 * t^2 stays finite on the grid; its derivative, big * t, not at t = 1.2
        traj = ProductTrajectory((BlochCurve([0.0, 0.0, big / 2]), self.breaking("bloch", 1.1)))
        with np.errstate(over="ignore", invalid="ignore"):
            want = loop_rejection(traj, grid, "analytic")
            with pytest.raises(ValueError) as info:
                trajectories._factor_rows(traj, grid, "analytic", 1e-4)
        assert len(traj._stacks) == 1
        assert want == (ValidationError, "direction entries must all be finite", 3)
        assert (type(info.value), str(info.value), info.value.row) == want

    def test_profile_rejects_as_the_factor_loop(self):
        curves = (qubit_arc(), self.breaking("hamiltonian", 2.5), self.breaking("bloch", 1.5))
        traj = ProductTrajectory(curves)
        grid = np.arange(0.0, 5.0)
        with np.errstate(over="ignore", invalid="ignore"):
            want = loop_rejection(traj, grid, "analytic")
            with pytest.raises(ValueError) as info:
                profile(traj, grid, [Cut.splitting((0,), 3)])
        assert (type(info.value), str(info.value), info.value.row) == want == (ValidationError, want[1], 3)

    def test_the_layout_is_built_once(self):
        """A frozen trajectory keeps its dims and factor sizes from the first read."""
        bell = Ket(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2), (2, 2))
        traj = ProductTrajectory((BlochCurve([0.2, 1.1]), PhaseCurve([0.1, 0.4], bell), qubit_arc()))
        assert "dims" not in vars(traj) and "_sizes" not in vars(traj)
        dims, sizes = traj.dims, traj._sizes
        assert traj.dims is dims and traj._sizes is sizes
        assert dims == tuple(d for curve in traj.factors for d in curve.dims) == (2, 2, 2, 2)
        assert sizes == (1, 2, 1)


class TestFactorTangents:
    """The public per-factor tangents: a moving factor's is its own curve's
    ``differentiate`` by the method named, a frozen factor's is exactly zero."""

    @pytest.mark.parametrize("method, h", [("auto", 1e-4), ("central_fd", 1e-3), ("richardson", 1e-3)])
    def test_each_factor_is_its_curves_tangent(self, method, h):
        traj = interleaved_trajectory(8)
        tangents = factor_tangents(traj, 0.3, method, h)
        assert len(tangents) == traj.n_factors and any(traj.frozen)
        for tv, curve, frozen in zip(tangents, traj.factors, traj.frozen, strict=True):
            want = differentiate(curve, 0.3, method, h)
            assert tv.dims == curve.dims
            assert same_bits(tv.base.amplitudes, want.base.amplitudes)
            assert same_bits(tv.direction, np.zeros_like(want.direction) if frozen else want.direction)


class TestFactorRowsOfTheCallers:
    """Channels, ensembles and product_trace cells read each factor's rows
    from the group stacks, as the factor's own curve gives them."""

    @pytest.mark.parametrize("method", ["analytic", "central_fd", "richardson"])
    def test_channel_rows(self, method):
        from qtangle.channels import _bipartite_rows

        rng = np.random.default_rng(71)
        traj = ProductTrajectory((factor_curve("hamiltonian3", rng), factor_curve("bloch", rng)))
        ts = np.linspace(0.0, 1.0, 5)
        for got, want in zip(_bipartite_rows(traj, ts, method, 1e-4)[0], loop_rows(traj, ts, method)):
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @pytest.mark.parametrize("method", ["analytic", "richardson"])
    def test_ensemble_rows(self, method):
        rng = np.random.default_rng(72)
        components = tuple(
            ProductTrajectory((factor_curve("bloch", rng), factor_curve("phase3", rng)), (False, True))
            for _ in range(2)
        )
        ens = Ensemble((0.3, 0.7), components)
        ts = np.linspace(0.0, 1.0, 5)
        got = trajectories._component_differentials(ens, ts, method, 1e-4)
        for (w, states, drho), comp in zip(got, components):
            rows = loop_rows(comp, ts, method)
            for state, mat, (base, deriv) in zip(states, drho, rows):
                assert same_bits(state, base)
                assert same_bits(mat, trajectories._projector_differentials(base, deriv))

    @pytest.mark.parametrize("method", ["analytic", "central_fd"])
    def test_product_trace_cells(self, method, monkeypatch):
        import qtangle.cli as cli
        from qtangle.cli import parse_config

        arc = {"dim": 2, "curve": {"kind": "bloch", "theta": [0.2, 1.1, -0.3], "phi": [0.1, 0.5]}}
        generator = [[1, 0, 0], [0, -1, 0.5], [0, 0.5, 0]]
        orbit = {"dim": 3, "curve": {"kind": "hamiltonian", "generator": generator, "initial": [1, 0, 1]}}
        doc = {"scenario": "product_trace", "method": method, "subsystems": [arc, orbit]}
        cfg = parse_config(json.dumps(doc))
        seen, original = [], cli._channel_rows
        recording = lambda parts, *args: seen.append(parts) or original(parts, *args)
        monkeypatch.setattr(cli, "_channel_rows", recording)
        cli.run(cfg)
        want = loop_rows(cfg.trajectory(), cfg.grid_points(), method)
        assert len(seen) == 1
        for got, rows in zip(seen[0], want):
            assert same_bits(got[0], rows[0]) and same_bits(got[1], rows[1])


def test_scalar_random_draws_keep_their_seeded_sequences():
    """random_hermitian and random_admissible_direction draw and compute as
    their loop forms do, value for value."""
    ours, ref = np.random.default_rng(65), np.random.default_rng(65)
    for dim in (2, 3, 4):
        a = ref.standard_normal((dim, dim)) + 1j * ref.standard_normal((dim, dim))
        want = 0.5 * (a + a.conj().T) / 2
        assert np.array_equal(trajectories.random_hermitian(ours, dim, 0.5), want)
        state = trajectories.random_unit_ket(ours, (dim,))
        amps = ref.standard_normal(dim) + 1j * ref.standard_normal(dim)
        assert np.array_equal(state.amplitudes, amps / np.linalg.norm(amps))
        psi = state.amplitudes
        d = ref.standard_normal(dim) + 1j * ref.standard_normal(dim)
        d -= np.vdot(psi, d).real * psi
        assert np.array_equal(trajectories.random_admissible_direction(ours, state), d)


def test_random_factor_curve_is_the_one_row_stacked_draw():
    """random_factor_curve draws by the law of _random_curves: a plain curve
    with the rows of the stacked draw of one curve, bit for bit, after which
    both generators are in the same state."""
    kinds = set()
    for dim in (2, 3, 4):
        for constant_speed in (False, True):
            for seed in range(40):
                ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                curve = trajectories.random_factor_curve(ours, dim, constant_speed)
                stack = trajectories._random_curves(ref, dim, 1, constant_speed)
                assert ours.bit_generator.state == ref.bit_generator.state
                kinds.add((type(curve), dim == 2))
                for t in (0.0, 0.37, 1.3):
                    ts = np.array([t])
                    for got, want in zip(curve._states_and_velocities(ts), stack._states_and_velocities(ts)):
                        assert same_bits(got, want)
    assert kinds == {
        (kind, two) for kind in (LocalHamiltonianCurve, PhaseCurve) for two in (False, True)
    } | {(BlochCurve, True)}
