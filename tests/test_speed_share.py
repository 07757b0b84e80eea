"""The speed-share law of ``profile`` against the dense Schmidt decomposition.

For a product base the tangent entropy across a cut is the binary entropy
of the left side's share of the squared perpendicular factor speeds, and
the base entropy is 0.  Every case here compares ``profile`` with the SVD
entropy (``_entropy_bits``) of the profile's own dense rows.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtangle
import qtangle.geometry as geometry
import qtangle.trajectories as trajectories
from qtangle import (
    BlochCurve,
    Cut,
    FactorCurve,
    Ket,
    LocalHamiltonianCurve,
    PhaseCurve,
    ProductTrajectory,
    RegisterProgram,
    UnitaryCurve,
    ValidationError,
    fs_speed,
    profile,
    run,
)
from qtangle.cli import demo_trajectory, parse_config
from qtangle.entanglement import _entropy_bits
from qtangle.geometry import _cut_masks, _entropies_or_zero, _share_sides, _speed_share_bits
from qtangle.statespace import BASE_NORM_TOL, _ZERO_TOL, _check_product_amplitudes, _row_norms, _split
from qtangle.trajectories import (
    DEFAULT_STEP,
    _horizontal,
    _matvec,
    _kron_rows,
    _product_rule,
    _register_site_rows,
    _register_step_speeds,
    _stencil,
    random_product_trajectory,
    register_state,
    register_tangent,
)

from helpers import random_ket, same_bits

ORACLE_TOL = 1e-12


def dense_entropies(prof, cut):
    """Tangent and base entropy of each row by the SVD of its dense amplitudes."""
    horizontal = _horizontal(prof.states, prof.directions)
    tangent = _entropies_or_zero(horizontal, prof.dims, (cut,))[0]
    unit = prof.states / np.linalg.norm(prof.states, axis=-1)[:, None]
    return tangent, _entropy_bits(_split(unit, prof.dims, cut, 1))


def assert_speed_share(prof):
    """Every cut: the closed form within ORACLE_TOL of the SVD, at most one
    bit, and a base entropy of exactly 0."""
    for cut in prof.cuts:
        tangent, base = dense_entropies(prof, cut)
        assert np.max(abs(prof.tangent_entropy[cut] - tangent)) <= ORACLE_TOL
        assert np.all(prof.tangent_entropy[cut] <= 1.0)
        assert np.all(prof.base_entropy[cut] == 0.0)
        assert np.max(base) <= ORACLE_TOL


def random_generator(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / (2 * math.sqrt(d))


def random_program(rng, dims, initial, n_steps=2):
    """Steps of random rotations, some sites held constant."""
    steps = []
    for _ in range(n_steps):
        steps.append(
            tuple(
                UnitaryCurve.constant(np.eye(d)) if rng.uniform() < 0.2
                else UnitaryCurve.rotation(random_generator(rng, d))
                for d in dims
            )
        )
    return RegisterProgram(tuple(steps), initial)


def product_ket(rng, dims):
    """A random product of site factors times a random global phase."""
    amps = np.exp(1j * rng.uniform(0, 2 * math.pi))
    for d in dims:
        amps = np.kron(amps, random_ket(rng, (d,)).amplitudes)
    return Ket(amps, dims, unit=True)


def site_starts(prog):
    """Each site's factor at the start of each step, (K, d), read from the
    orbits of the program's step table, in site order."""
    starts = {}
    for (sites, *_), (stack, _) in zip(prog._step_stacks, prog._step_table[0]):
        starts.update(zip(sites.tolist(), stack))
    return [starts[i] for i in range(prog.n_sites)]


def scaled_table(prog, scales):
    """``prog`` with its step table filled from coefficients scaled as the
    table is built: ``scales`` holds (step from 0, sites, factor) triples, for
    a program of one site dim.  The table's speeds and checks see the scaled
    coefficients, and each step still starts where the unscaled orbit of the
    step before ends, as an edit of the finished table's coefficients would
    leave it."""
    real_coefficients, real_orbit = trajectories._orbit_coefficients, trajectories._orbit
    steps, unscaled = iter(range(prog.n_steps)), {}

    def coefficients(evecs, amps):
        coeffs = real_coefficients(evecs, amps)
        k, scaled = next(steps), coeffs.copy()
        for step, sites, scale in scales:
            if step == k:
                scaled[sites] *= scale
        unscaled[id(scaled)] = coeffs
        return scaled

    def orbit(evals, evecs, coeffs, t):
        return real_orbit(evals, evecs, unscaled.get(id(coeffs), coeffs), t)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(trajectories, "_orbit_coefficients", coefficients)
        monkeypatch.setattr(trajectories, "_orbit", orbit)
        assert prog._step_table is not None
    return prog


def off_norm_sites():
    """(program, grid, cuts) of a program of site dims (2, 3, 2) whose sites 1
    and 2 are off norm in step 1, site 2 the further, on a grid in step 1."""
    rng = np.random.default_rng(67)
    dims = (2, 3, 2)
    prog = random_program(rng, dims, product_ket(rng, dims))
    for site, scale in ((1, 1 + 5e-10), (2, 1 + 1e-9)):
        curve = prog.steps[0][site]
        # eigenvectors scaled by s scale the site's orbit by s^2
        object.__setattr__(curve, "_evecs", curve._evecs * scale)
    return prog, np.array([0.25, 0.5]), all_cuts(3)


def all_cuts(n):
    """Every contiguous cut, and one that is not contiguous when n > 2."""
    cuts = [Cut.splitting(range(k), n) for k in range(1, n)]
    if n > 2:
        cuts.append(Cut.splitting((0, n - 1), n))
    return cuts


class TestProductTrajectories:
    def test_random_trajectories_match_the_svd(self):
        rng = np.random.default_rng(31)
        for n in range(2, 6):
            for _ in range(6):
                dims = tuple(int(d) for d in rng.integers(2, 5, size=n))
                frozen = tuple(bool(f) for f in rng.uniform(size=n) < 0.25)
                if all(frozen):
                    frozen = ()
                traj = random_product_trajectory(rng, dims, frozen=frozen)
                assert_speed_share(profile(traj, np.linspace(0.0, 1.5, 7), all_cuts(n)))

    @pytest.mark.parametrize("method", ["central_fd", "richardson"])
    def test_stencil_tangents_match_the_svd(self, method):
        rng = np.random.default_rng(32)
        traj = random_product_trajectory(rng, (2, 3, 4))
        assert_speed_share(profile(traj, np.linspace(0.0, 1.0, 5), all_cuts(3), method=method))

    def test_profile_calls_no_svd(self, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("the speed-share law needs no SVD")

        traj = random_product_trajectory(np.random.default_rng(33), (2, 2, 3))
        monkeypatch.setattr(np.linalg, "svd", svd)
        prof = profile(traj, np.linspace(0.0, 1.0, 5), all_cuts(3))
        assert all(np.all(prof.base_entropy[cut] == 0.0) for cut in prof.cuts)

    def test_cut_splitting_a_multi_site_factor_takes_the_svd(self):
        rng = np.random.default_rng(34)
        traj = ProductTrajectory(
            (
                LocalHamiltonianCurve(random_generator(rng, 4), random_ket(rng, (2, 2))),
                BlochCurve([0.3, 1.0, -0.4], [0.1, 0.8]),
                PhaseCurve([0.0, 1.3], random_ket(rng, (2, 2))),
            )
        )
        splits = (Cut.splitting((0,), 5), Cut.splitting((0, 1, 3), 5))
        aligned = (Cut.splitting((0, 1), 5), Cut.splitting((2,), 5), Cut.splitting((0, 1, 2), 5))
        prof = profile(traj, np.linspace(0.0, 1.0, 6), splits + aligned)
        for cut in splits:
            tangent, base = dense_entropies(prof, cut)
            assert np.array_equal(prof.tangent_entropy[cut], tangent)
            assert np.array_equal(prof.base_entropy[cut], base)
            assert np.min(base) > 1e-3
        for cut in aligned:
            tangent, base = dense_entropies(prof, cut)
            assert np.max(abs(prof.tangent_entropy[cut] - tangent)) <= ORACLE_TOL
            assert np.all(prof.base_entropy[cut] == 0.0)

    def test_zero_motion_rows_read_zero(self):
        # theta = t^2 moves at speed 2t: below the zero floor at t = 0 and t = 1e-14
        still = BlochCurve([0.0, 0.0, 1.0])
        traj = ProductTrajectory((still, still, BlochCurve([0.4, 1.0])), (False, False, True))
        cuts = all_cuts(3)
        prof = profile(traj, [0.0, 1e-14, 0.5], cuts)
        for cut in cuts:
            assert list(prof.tangent_entropy[cut][:2]) == [0.0, 0.0]
        assert prof.tangent_entropy[cuts[0]][2] == pytest.approx(1.0, abs=1e-12)
        assert_speed_share(prof)

    def test_demo_is_exactly_one_ebit(self):
        cut = Cut.splitting((0,), 2)
        prof = profile(demo_trajectory(), np.linspace(0.0, math.pi, 181), [cut])
        assert np.all(prof.tangent_entropy[cut] == 1.0)
        report = run(parse_config('{"scenario": "two_qubit_demo"}'))
        column = report.columns.index("tangent_entropy_1|2")
        assert {row[column] for row in report.rows} == {1.0}


class TestRegisterPrograms:
    @pytest.mark.parametrize("method", ["analytic", "central_fd", "richardson"])
    def test_product_initial_registers_match_the_svd(self, method):
        rng = np.random.default_rng(41)
        for dims in ((2, 2), (2, 3, 2), (3, 2, 2, 2)):
            uniform = np.full(math.prod(dims), math.prod(dims) ** -0.5, dtype=complex)
            for initial in (product_ket(rng, dims), Ket(uniform, dims, unit=True)):
                prog = random_program(rng, dims, initial, n_steps=3)
                assert prog._step_table is not None
                grid = np.linspace(0.0, 3.0, 13)
                assert_speed_share(profile(prog, grid, all_cuts(len(dims)), method=method))

    def test_initial_factors_reproduce_the_initial_state(self):
        rng = np.random.default_rng(42)
        dims = (2, 3, 2)
        initial = product_ket(rng, dims)
        prog = random_program(rng, dims, initial)
        factors = [starts[0] for starts in site_starts(prog)]
        assert [f.shape for f in factors] == [(2,), (3,), (2,)]
        kron = np.kron(np.kron(factors[0], factors[1]), factors[2])
        assert np.linalg.norm(kron - initial.amplitudes) < 1e-14

    def test_nearly_product_initial_state_is_not_factored(self):
        rng = np.random.default_rng(43)
        dims = (2, 2)
        amps = product_ket(rng, dims).amplitudes + 1e-9 * random_ket(rng, dims).amplitudes
        prog = random_program(rng, dims, Ket(amps / np.linalg.norm(amps), dims))
        assert prog._step_table is None

    def test_entangled_initial_register_takes_the_svd(self):
        rng = np.random.default_rng(44)
        dims = (2, 2, 3)
        prog = random_program(rng, dims, random_ket(rng, dims))
        assert prog._step_table is None
        assert _register_site_rows(prog, np.array([0.5]), "analytic", DEFAULT_STEP) is None
        prof = profile(prog, np.linspace(0.0, 2.0, 9), all_cuts(3))
        for cut in prof.cuts:
            tangent, base = dense_entropies(prof, cut)
            assert np.array_equal(prof.tangent_entropy[cut], tangent)
            assert np.array_equal(prof.base_entropy[cut], base)
            assert np.min(base) > 1e-3

    def test_still_register_reads_zero(self):
        dims = (2, 2, 2)
        prog = RegisterProgram.uniform_superposition(
            [[UnitaryCurve.constant(np.eye(2))] * 3], 3
        )
        prof = profile(prog, [0.0, 0.5, 1.0], all_cuts(3))
        assert np.all(prof.fs_speed == 0.0)
        for cut in prof.cuts:
            assert np.all(prof.tangent_entropy[cut] == 0.0)
        assert prof.dims == dims

    def test_sixteen_qubit_register_runs_without_an_svd(self, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("the speed-share law needs no SVD")

        rng = np.random.default_rng(45)
        n = 16
        steps = [
            [UnitaryCurve.rotation(random_generator(rng, 2)) for _ in range(n)] for _ in range(2)
        ]
        prog = RegisterProgram.uniform_superposition(steps, n)
        cuts = [Cut.splitting(range(k), n) for k in range(1, n)]
        monkeypatch.setattr(np.linalg, "svd", svd)
        prof = profile(prog, [0.25, 1.0, 1.75], cuts)
        assert np.all(prof.fs_speed > 0)
        for cut in cuts:
            assert np.all((prof.tangent_entropy[cut] >= 0.0) & (prof.tangent_entropy[cut] <= 1.0))
            assert np.all(prof.base_entropy[cut] == 0.0)


DENSE_KERNELS = ("_kron_rows", "_apply_axis", "_product_rule")


def forbid_dense_rows(monkeypatch):
    """Make every dense 2^n kernel and the SVD raise."""

    def dense(*args, **kwargs):
        raise AssertionError("a factor-aligned profile builds no dense row")

    for name in DENSE_KERNELS:
        monkeypatch.setattr(trajectories, name, dense)
    monkeypatch.setattr(np.linalg, "svd", dense)


def wide_product(rng, n):
    return ProductTrajectory(
        tuple(BlochCurve(rng.normal(size=3), rng.normal(size=2)) for _ in range(n))
    )


def wide_register(rng, n):
    steps = [[UnitaryCurve.rotation(random_generator(rng, 2)) for _ in range(n)] for _ in range(2)]
    return RegisterProgram.uniform_superposition(steps, n)


def contiguous_cuts(n):
    return [Cut.splitting(range(k), n) for k in range(1, n)]


class OffNormCurve(FactorCurve):
    """A qubit curve whose states are 1 + 1e-9 long."""

    dims = (2,)

    def states(self, ts):
        return np.tile([1.0 + 1e-9, 0.0j], (len(ts), 1))

    def velocities(self, ts):
        return np.zeros((len(ts), 2), dtype=complex)


class NonFiniteVelocityCurve(FactorCurve):
    dims = (2,)

    def states(self, ts):
        return np.tile([1.0, 0.0j], (len(ts), 1))

    def velocities(self, ts):
        out = np.zeros((len(ts), 2), dtype=complex)
        out[1:, 1] = np.inf
        return out


class TestNoDenseRows:
    """A profile whose every cut is factor-aligned takes its speeds and
    entropies from the factor rows and builds its dense rows only when read."""

    WIDE = {
        "product_12": lambda rng: (wide_product(rng, 12), np.linspace(0.0, 1.0, 9), contiguous_cuts(12)),
        **{
            f"register_{n}": lambda rng, n=n: (wide_register(rng, n), np.linspace(0.0, 2.0, 9), contiguous_cuts(n))
            for n in (8, 10, 16)
        },
    }

    @pytest.mark.parametrize("name", sorted(WIDE))
    def test_wide_profiles_read_only_the_factor_rows(self, name, monkeypatch):
        traj, grid, cuts = self.WIDE[name](np.random.default_rng(46))
        forbid_dense_rows(monkeypatch)
        prof = profile(traj, grid, cuts)
        assert set(prof.entropy_path.values()) == {"speed_share"}
        assert np.all(prof.fs_speed > 0) and prof.arc_length > 0
        for sample in prof.samples:
            assert all(0.0 <= sample.tangent_entropy[cut] <= 1.0 for cut in cuts)
            assert all(sample.base_entropy[cut] == 0.0 for cut in cuts)
        monkeypatch.undo()
        unpatched = profile(traj, grid, cuts)
        states, directions = unpatched.states, unpatched.directions
        assert same_bits(prof.states, states) and same_bits(prof.directions, directions)
        for i in (0, len(grid) // 2, len(grid) - 1):
            tangent = prof.samples[i].tangent
            assert same_bits(tangent.base.amplitudes, states[i])
            assert same_bits(tangent.direction, directions[i])
        assert not (prof.states.flags.writeable or prof.directions.flags.writeable)
        speeds = 2 * np.linalg.norm(_horizontal(states, directions), axis=-1)
        assert np.max(abs(prof.fs_speed - speeds) / speeds) <= 1e-14

    @pytest.mark.parametrize(
        "doc",
        [
            {"scenario": "register_trace"},
            {
                "scenario": "product_trace",
                "subsystems": [
                    {"dim": 2, "curve": {"kind": "bloch", "theta": [0.2, 1.1, -0.3], "phi": [0.1, 0.5]}},
                    {"dim": 3, "curve": {"kind": "phase", "base": [1, 1, [0, 1]], "phi": [0.0, 0.7]}},
                    {"dim": 2, "curve": {"kind": "bloch", "theta": [0.9, -0.6]}},
                ],
                "cuts": [[[1], [2, 3]], [[1, 3], [2]]],
            },
        ],
        ids=["register_trace", "product_trace_3"],
    )
    def test_scenarios_without_cells_build_no_dense_row(self, doc, monkeypatch):
        cfg = parse_config(json.dumps(doc))
        want = run(cfg)
        forbid_dense_rows(monkeypatch)
        got = run(cfg)
        assert got.rows == want.rows
        paths = got.metadata["resolved"]["entropy_path"]
        assert list(paths) == got.metadata["resolved"]["cuts"]
        assert set(paths.values()) == {"speed_share"}

    def test_entangled_register_and_split_factor_build_their_rows_eagerly(self, monkeypatch):
        rng = np.random.default_rng(47)
        prog = random_program(rng, (2, 2), random_ket(rng, (2, 2)))
        split = ProductTrajectory(
            (PhaseCurve([0.0, 1.3], random_ket(rng, (2, 2))), BlochCurve([0.3, 1.0]))
        )
        cases = [(prog, Cut.splitting((0,), 2)), (split, Cut.splitting((0,), 3))]
        for traj, cut in cases:
            assert profile(traj, [0.0, 0.5], [cut]).entropy_path == {cut: "svd"}
        forbid_dense_rows(monkeypatch)
        for traj, cut in cases:
            with pytest.raises(AssertionError, match="no dense row"):
                profile(traj, [0.0, 0.5], [cut])

    @pytest.mark.parametrize(
        "factors, frozen, error, message",
        [
            ((NonFiniteVelocityCurve(), BlochCurve([0.3, 1.0])), (), ValueError, "direction entries must all be finite"),
            ((OffNormCurve(), BlochCurve([0.3, 1.0])), (True, False), ValidationError, "base: expected a unit vector"),
        ],
        ids=["non_finite_velocity", "off_norm_frozen_factor"],
    )
    def test_factor_checks_keep_their_messages(self, factors, frozen, error, message, monkeypatch):
        traj = ProductTrajectory(factors, frozen)
        forbid_dense_rows(monkeypatch)
        with pytest.raises(error, match=message):
            profile(traj, [0.0, 0.5, 1.0], [Cut.splitting((0,), 2)], method="analytic")


class TestSiteOrbits:
    """A product-initial program's site rows come from one pass over every
    step: Hamiltonian orbits under ``analytic``, the unitaries' stencils
    otherwise, and no dense row or site unitary in an analytic profile."""

    @pytest.mark.parametrize("method", ["analytic", "central_fd", "richardson"])
    def test_site_rows_give_the_register_rows(self, method):
        rng = np.random.default_rng(67)
        for dims in ((2, 3, 2), (3, 2, 2, 2)):
            for n_steps in (1, 2, 3):
                prog = random_program(rng, dims, product_ket(rng, dims), n_steps)
                # every step boundary and both ends, and points between them
                grid = np.union1d(np.arange(n_steps + 1.0), rng.uniform(0, n_steps, 7))
                stacks = _register_site_rows(prog, grid, method, DEFAULT_STEP)
                sites = sorted((i, a, d) for g, states, dirs in stacks for i, a, d in zip(g, states, dirs))
                states, directions = _product_rule(*sites[0][1:], [s[1:] for s in sites[1:]], _kron_rows)
                ks, local = prog.resolve_time(grid)
                for state, direction, k, t in zip(states, directions, ks, local):
                    tv = register_tangent(prog, k, t, method)
                    assert np.max(abs(state - register_state(prog, k, t).amplitudes)) <= 1e-14
                    assert np.max(abs(state - tv.base.amplitudes)) <= 1e-14
                    tol = 1e-14 if method == "analytic" else ORACLE_TOL
                    assert np.max(abs(direction - tv.direction)) <= tol

    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_analytic_profile_builds_no_site_unitary(self, n, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an analytic product-initial profile builds no unitary")

        prog = wide_register(np.random.default_rng(68), n)
        for name in ("_unitaries", "_apply_axis"):
            monkeypatch.setattr(trajectories, name, forbidden)
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        prof = profile(prog, np.linspace(0.0, 2.0, 9), contiguous_cuts(n), method="analytic")
        assert set(prof.entropy_path.values()) == {"speed_share"}
        assert np.all(prof.fs_speed > 0)
        with pytest.raises(AssertionError, match="builds no unitary"):
            profile(prog, np.linspace(0.0, 2.0, 9), contiguous_cuts(n), method="central_fd")


def per_cut_bits(speeds, left, moving):
    """The speed-share law of one cut, one side sum at a time: the binary
    entropy of the smaller side's share p, -(p log2 p + (1-p) log1p(-p) / ln 2)."""
    sides = np.column_stack([speeds[:, left].sum(axis=-1), speeds[:, ~left].sum(axis=-1)])
    p = np.divide(sides.min(axis=-1), sides.sum(axis=-1), out=np.zeros(len(sides)), where=moving)
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0)
    return np.where(p > 0, -(p * logs + (1 - p) * np.log1p(-p) / math.log(2)), 0.0)


class TestOneRegisterPass:
    """A register profile's dense rows are one ``_register_rows`` call over
    the whole grid, one step index per point, and its site rows are checked
    where ``_register_site_rows`` makes them."""

    @pytest.mark.parametrize("method", ["analytic", "central_fd", "richardson"])
    @pytest.mark.parametrize("entangled", [False, True], ids=["product", "entangled"])
    def test_dense_rows_over_three_steps_are_one_call(self, entangled, method, monkeypatch):
        """An entangled-initial profile makes the call itself, a product-initial
        one when its states are read; each row is ``register_tangent``'s, bit for bit."""
        rng = np.random.default_rng(75)
        dims = (2, 3, 2)
        prog = random_program(rng, dims, (random_ket if entangled else product_ket)(rng, dims), n_steps=3)
        grid = np.union1d(np.arange(4.0), rng.uniform(0, 3, 5))
        calls, original = [], geometry._register_rows
        monkeypatch.setattr(geometry, "_register_rows", lambda *args: calls.append(args) or original(*args))
        prof = profile(prog, grid, all_cuts(3), method)
        assert len(calls) == int(entangled)
        states, directions = prof.states, prof.directions
        assert len(calls) == 1
        for state, direction, k, t in zip(states, directions, *prog.resolve_time(grid)):
            tv = register_tangent(prog, k, t, method)
            assert same_bits(state, tv.base.amplitudes) and same_bits(direction, tv.direction)

    def test_site_rows_reject_as_the_profile_does(self):
        """Called directly, the site rows raise the profile's rejection: the
        lowest off-norm site, at its grid point."""
        prog, grid, cuts = off_norm_sites()
        got = []
        for call in (
            lambda: profile(prog, grid, cuts, "central_fd"),
            lambda: _register_site_rows(prog, grid, "central_fd", DEFAULT_STEP),
        ):
            with pytest.raises(ValidationError) as info:
                call()
            got.append((type(info.value), str(info.value), info.value.row))
        assert got[0] == got[1] == (ValidationError, "base: expected a unit vector, got norm 1.000000001", 0)


class TestStackedSites:
    """A step's sites are evaluated as one stack per site dim, and the
    speed share of every cut comes from one pass over the factor speeds."""

    @pytest.mark.parametrize("method", ["analytic", "central_fd", "richardson"])
    @pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2, 2)])
    def test_site_rows_are_each_curve_applied_to_its_start(self, dims, method):
        """Every step in one pass: each site's rows are its step's curve applied
        to the site's factor at the start of the step, the states by the
        orbit to rounding and a stencil's directions as the stencil of the
        curve's unitaries, bit for bit."""
        rng = np.random.default_rng(61)
        prog = random_program(rng, dims, product_ket(rng, dims), n_steps=2)
        grid = np.linspace(0.0, 2.0, 13)  # both ends and the step boundary at 1
        ks, local = prog.resolve_time(grid)
        seen = []
        for sites, states, directions in _register_site_rows(prog, grid, method, DEFAULT_STEP):
            assert states.shape == directions.shape == (len(sites), len(grid), dims[sites[0]])
            for i, state, direction in zip(sites, states, directions):
                for k in (1, 2):
                    rows, ts = ks == k, local[ks == k]
                    curve, start = prog.steps[k - 1][i], site_starts(prog)[i][k - 1]
                    assert np.max(abs(state[rows] - _matvec(curve.value(ts), start))) <= 1e-14
                    if not np.any(curve.generator):
                        assert same_bits(direction[rows], np.zeros_like(direction[rows]))
                    elif method == "analytic":
                        assert np.max(abs(direction[rows] - _matvec(curve.derivative(ts), start))) <= 1e-14
                    else:
                        want = _matvec(_stencil(curve.value, ts, method, DEFAULT_STEP), start)
                        assert same_bits(direction[rows], want)
                seen.append(int(i))
        assert sorted(seen) == list(range(len(dims)))

    @pytest.mark.parametrize("method", ["analytic", "central_fd", "richardson"])
    def test_constant_sites_have_exactly_zero_directions(self, method):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        step = (
            UnitaryCurve.constant(hadamard),
            UnitaryCurve(np.zeros((3, 3)), np.eye(3)[[2, 0, 1]]),
            UnitaryCurve.rotation(np.diag([0.4, -0.4])),
            UnitaryCurve.constant(np.eye(2)),
        )
        rng = np.random.default_rng(62)
        prog = RegisterProgram((step,), product_ket(rng, (2, 3, 2, 2)))
        assert "_step_stacks" not in vars(prog)  # stacked on first use, not on construction
        stacks = _register_site_rows(prog, np.array([0.0, 0.3, 1.0]), method, DEFAULT_STEP)
        assert "_step_stacks" in vars(prog)
        directions = {int(i): d for sites, _, dirs in stacks for i, d in zip(sites, dirs)}
        for i in (0, 1, 3):
            assert same_bits(directions[i], np.zeros_like(directions[i]))
        assert np.all(abs(directions[2]) > 0.0)

    def test_all_cuts_share_equals_the_per_cut_law(self):
        rng = np.random.default_rng(63)
        for n in (2, 3, 4, 7, 9, 10, 12, 17, 140):
            speeds = rng.uniform(size=(6, n)) ** 3 * 10.0 ** rng.integers(-4, 3, size=(6, n))
            speeds[1] = 0.0
            moving = np.array([True, False, True, True, True, True])
            cuts = [Cut.splitting(range(k), n) for k in range(1, n)][:20]
            for _ in range(20):
                left = rng.uniform(size=n) < rng.uniform()
                if 0 < left.sum() < n:
                    cuts.append(Cut.splitting(np.flatnonzero(left), n))
            aligned, sides = _cut_masks(tuple(cuts), (1,) * n)
            left = np.array([cut._left_row for cut in cuts])  # one position per factor
            assert aligned.all()
            assert np.array_equal(sides, _share_sides(left))
            bits = _speed_share_bits(speeds, sides, moving)
            assert bits.shape == (6, len(cuts))
            for j, side in enumerate(left):
                assert same_bits(bits[:, j], per_cut_bits(speeds, side, moving))
            assert np.all(bits[1] == 0.0)

    def test_left_factors_mark_cuts_that_split_a_factor(self):
        cuts = [Cut.splitting(left, 5) for left in ((0, 1), (0,), (2, 0, 1), (1, 2), (2, 3, 4))]
        aligned, sides = _cut_masks(tuple(cuts), (2, 1, 2))
        assert aligned.tolist() == [True, False, True, False, True]
        left = np.array([[True, False, False], [True, True, False], [False, True, True]])
        assert np.array_equal(sides, _share_sides(left))

    def test_profile_mixes_shared_and_split_cuts(self):
        rng = np.random.default_rng(64)
        traj = ProductTrajectory(
            (
                BlochCurve([0.3, 1.0, -0.4], [0.1, 0.8]),
                LocalHamiltonianCurve(random_generator(rng, 4), random_ket(rng, (2, 2))),
                BlochCurve([0.9, -0.6]),
            )
        )
        cuts = (Cut.splitting((0,), 4), Cut.splitting((0, 1), 4), Cut.splitting((1, 2), 4), Cut.splitting((3,), 4))
        prof = profile(traj, np.linspace(0.0, 1.0, 5), cuts)
        assert [prof.entropy_path[cut] for cut in cuts] == ["speed_share", "svd", "speed_share", "speed_share"]
        for cut in cuts:
            assert np.max(abs(prof.tangent_entropy[cut] - dense_entropies(prof, cut)[0])) <= ORACLE_TOL

    def test_non_finite_site_velocity_keeps_its_message(self):
        prog = wide_register(np.random.default_rng(65), 4)
        # an eigenvalue, which the site's orbit reads, that is not finite: the
        # velocity is checked before the state, so its message is the one seen
        object.__setattr__(prog.steps[1][2], "_evals", np.array([np.inf, 0.0]))
        with pytest.MonkeyPatch.context() as monkeypatch, np.errstate(invalid="ignore"):
            forbid_dense_rows(monkeypatch)
            with pytest.raises(ValueError, match="^direction entries must all be finite$"):
                profile(prog, [0.5, 1.5], contiguous_cuts(4), method="analytic")

    def test_off_norm_sites_reject_the_lowest_site_at_its_grid_point(self):
        """Across site dims the rejection is the one a loop over the sites meets
        first: site 1, not site 2 that its site dim's stack reaches first, with
        ``row`` a point of the grid, not a (site, point) index."""
        prog, grid, cuts = off_norm_sites()
        with pytest.raises(ValidationError) as info:
            profile(prog, grid, cuts)
        assert str(info.value) == "base: expected a unit vector, got norm 1.000000001"
        assert info.value.row == 0

    def test_off_norm_coefficients_keep_their_message_and_the_first_site(self):
        # site 2 is off norm in step 1; site 1, the first site to fail, only in step 2
        prog = scaled_table(wide_register(np.random.default_rng(66), 4), [(0, 2, 1 + 2e-9), (1, 1, 1 + 1e-9)])
        with pytest.raises(ValidationError, match=r"^base: expected a unit vector, got norm 1\.0000000009"):
            profile(prog, [0.5, 1.5], contiguous_cuts(4))


def program_with_a_constant_site(rng, dims, n_steps):
    """``random_program`` from a random product, its site 1 constant in every step."""
    prog = random_program(rng, dims, product_ket(rng, dims), n_steps)
    steps = [(step[0], UnitaryCurve.constant(np.eye(dims[1])), *step[2:]) for step in prog.steps]
    return RegisterProgram(tuple(steps), prog.initial)


def assert_dense_speeds(prof):
    """The speeds within ORACLE_TOL, relative, of those of the profile's dense rows."""
    dense = 2 * np.linalg.norm(_horizontal(prof.states, prof.directions), axis=-1)
    assert np.all(abs(prof.fs_speed - dense) <= ORACLE_TOL * dense)


class TestRegisterSteps:
    """Under "analytic" a product-initial program is evaluated once per step:
    each site's squared speed is the variance of its step generator in the
    orbit, spread over the step's grid points, and the arc length is exact."""

    GRIDS = {
        "boundaries": lambda rng, k: np.union1d(np.arange(k + 1.0), rng.uniform(0, k, 5)),
        "one_step": lambda rng, k: np.sort(rng.uniform(k - 1, k, 4)),
        "whole_numbers": lambda rng, k: np.arange(k + 1.0),
    }

    @pytest.mark.parametrize("grid_kind", sorted(GRIDS))
    def test_random_programs_match_the_dense_rows(self, grid_kind):
        rng = np.random.default_rng(71)
        for dims in ((2, 3, 2), (3, 2, 3, 2)):
            for n_steps in (1, 2, 3):
                prog = program_with_a_constant_site(rng, dims, n_steps)
                grid = self.GRIDS[grid_kind](rng, n_steps)
                assert _register_step_speeds(prog, grid, "analytic") is not None
                prof = profile(prog, grid, all_cuts(len(dims)))
                assert set(prof.entropy_path.values()) == {"speed_share"}
                assert_dense_speeds(prof)
                assert_speed_share(prof)

    def test_site_rows_are_built_only_when_the_factors_are_read(self, monkeypatch):
        prog = wide_register(np.random.default_rng(72), 6)
        grid = np.linspace(0.0, 2.0, 9)
        want = _register_site_rows(prog, grid, "analytic", DEFAULT_STEP)
        calls = []
        monkeypatch.setattr(geometry, "_register_site_rows", lambda *args: calls.append(args) or want)
        prof = profile(prog, grid, contiguous_cuts(6))
        assert prof.states.shape == (9, 64)  # the dense rows need no site row
        assert not calls
        prof.factors
        assert len(calls) == 1
        ((sites, states, directions),) = want
        for i, (state, direction) in zip(sites, prof.factors):
            assert same_bits(state, states[i]) and same_bits(direction, directions[i])

    def overflowing_program(self):
        """Three qubits from the uniform superposition; in step 2 of 3, site 2
        turns under diag(1e160, -1e160), whose variance overflows."""
        rng = np.random.default_rng(73)
        steps = [[UnitaryCurve.rotation(random_generator(rng, 2)) for _ in range(3)] for _ in range(3)]
        steps[1][1] = UnitaryCurve.rotation(np.diag([1e160, -1e160]))
        return RegisterProgram.uniform_superposition(steps, 3)

    def test_overflowing_speed_rejects_at_the_first_point_of_its_step(self):
        prog = self.overflowing_program()
        with np.errstate(over="ignore"), pytest.raises(ValidationError) as info:
            profile(prog, [0.25, 0.75, 1.25, 1.75], all_cuts(3))
        assert (str(info.value), info.value.row) == ("fs_speed overflows double precision", 2)

    def test_grid_off_the_overflowing_step_profiles_as_before(self):
        """A grid within step 1 takes the per-step path; a grid that spans
        step 2 without meeting it takes the per-point rows and the trapezoid."""
        prog = self.overflowing_program()
        inside = profile(prog, [0.1, 0.5, 0.9], all_cuts(3))
        assert np.ptp(inside.fs_speed) == 0.0
        assert inside.arc_length == pytest.approx(0.8 * inside.fs_speed[0], rel=1e-15)
        across = profile(prog, [0.5, 2.5], all_cuts(3))
        assert np.all(np.isfinite(across.fs_speed))
        assert across.arc_length == np.trapezoid(across.fs_speed, across.grid)
        for prof in (inside, across):
            assert_dense_speeds(prof)
            assert_speed_share(prof)

    def test_site_norms_within_the_bound_whose_product_is_not_reject_at_their_step(self):
        # sites 1-3 in step 2, each off norm by less than 1e-10
        prog = scaled_table(wide_register(np.random.default_rng(75), 4), [(1, slice(3), 1 + 6e-11)])
        with pytest.raises(ValidationError) as info:
            profile(prog, [0.5, 1.25, 1.75], contiguous_cuts(4))
        assert str(info.value) == "base: expected a unit vector, got norm 1.0000000001799993"
        assert info.value.row == 1

    def test_grid_spanning_an_off_norm_step_without_meeting_it_keeps_the_step_path(self):
        """Step 2 of 3 is off norm and no grid point meets it: only the steps
        the grid meets are checked for norm, so the arc length stays the exact
        sum over the steps, which weighs step 2 by its whole length."""
        rng = np.random.default_rng(66)
        steps = [[UnitaryCurve.rotation(random_generator(rng, 2)) for _ in range(4)] for _ in range(3)]
        prog = scaled_table(RegisterProgram.uniform_superposition(steps, 4), [(1, slice(None), 1 + 1e-9)])
        assert prog._step_table[2][0].tolist() == [True, False, True]
        grid = np.array([0.5, 2.5])
        assert _register_step_speeds(prog, grid, "analytic") is not None
        prof = profile(prog, grid, contiguous_cuts(4))
        speeds = 2 * np.sqrt(prog._step_table[1].sum(axis=-1))
        assert prof.arc_length == speeds @ np.array([0.5, 1.0, 0.5]) == 7.367227639736134
        assert prof.arc_length != np.trapezoid(prof.fs_speed, grid)

    def test_register_trace_arc_length_is_the_sum_of_its_step_speeds(self):
        report = run(parse_config('{"scenario": "register_trace"}'))
        speeds = {row[1]: row[2] for row in report.rows}  # step -> fs_speed
        assert sorted(speeds) == [1.0, 2.0]
        arc = report.metadata["resolved"]["arc_length"]
        assert arc == pytest.approx(sum(speeds.values()), rel=ORACLE_TOL)
        assert arc == pytest.approx(2.7211463909, abs=1e-10)

    def test_arc_length_weighs_each_step_by_its_length_in_the_grid(self):
        """Partial first and last steps, and a middle step no grid point meets."""
        rng = np.random.default_rng(74)
        prog = program_with_a_constant_site(rng, (2, 3, 2), 3)
        speed = lambda k: fs_speed(register_tangent(prog, k, 0.5))
        for grid, lengths in (([0.3, 0.8, 1.4, 2.6], (0.7, 1.0, 0.6)), ([0.5, 2.5], (0.5, 1.0, 0.5))):
            want = sum(length * speed(k) for k, length in enumerate(lengths, start=1))
            assert profile(prog, grid, all_cuts(3)).arc_length == pytest.approx(want, rel=ORACLE_TOL)


def profile_digest(prof):
    """sha256 over a profile's speeds, entropies, entropy paths and arc length."""
    digest = hashlib.sha256()
    for arr in (prof.fs_speed, *prof.tangent_entropy.values(), *prof.base_entropy.values()):
        digest.update(arr.tobytes())
    digest.update(repr((prof.arc_length, list(prof.entropy_path.values()))).encode())
    return digest.hexdigest()


SHARED_MASK_GRID = (0.25, 0.75, 1.0, 1.5)


class TestGridIndependentTables:
    """A profile keeps what does not depend on its grid: each product-initial
    program's step speeds, and each cut set's masks.  Both are read-only, so
    no profile writes into what the next one reads."""

    def test_an_svd_profile_leaves_the_shared_masks_as_they_were(self):
        """With the same cuts and sizes, an entangled-initial profile (every
        cut by SVD) and then a product-initial one (every cut by its share):
        the second is the one a fresh process makes, bit for bit."""
        rng = np.random.default_rng(81)
        dims = (2, 2, 2, 2)
        entangled = random_program(rng, dims, random_ket(rng, dims))
        cuts = tuple(all_cuts(4))
        prof = profile(entangled, SHARED_MASK_GRID, cuts)
        assert set(prof.entropy_path.values()) == {"svd"}
        prof = profile(wide_register(np.random.default_rng(82), 4), SHARED_MASK_GRID, cuts)
        assert set(prof.entropy_path.values()) == {"speed_share"}
        script = """if True:
            import numpy as np
            from qtangle import profile
            from test_speed_share import SHARED_MASK_GRID, all_cuts, profile_digest, wide_register

            prog = wide_register(np.random.default_rng(82), 4)
            print(profile_digest(profile(prog, SHARED_MASK_GRID, all_cuts(4))))
        """
        src = str(Path(qtangle.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == profile_digest(prof)
        (zero,) = {id(arr): arr for arr in prof.base_entropy.values()}.values()  # one row for every cut
        masks = (*_cut_masks(cuts, (1,) * 4), zero)
        assert not any(arr.flags.writeable for arr in masks)

    def test_step_table_rows_are_the_site_rows_squared_speeds(self):
        """Every row, a step that no grid point meets among them, within
        ORACLE_TOL relative of its site rows' squared horizontal speeds."""
        rng = np.random.default_rng(83)
        for dims in ((2, 3, 2), (3, 2, 3, 2)):
            for n_steps in (1, 2, 3):
                prog = program_with_a_constant_site(rng, dims, n_steps)
                profile(prog, [0.25, n_steps - 0.25], all_cuts(len(dims)))  # meets the first and last step
                want = np.empty((n_steps, len(dims)))
                mids = np.arange(n_steps) + 0.5
                for sites, states, directions in _register_site_rows(prog, mids, "analytic", DEFAULT_STEP):
                    want[:, sites] = (np.linalg.norm(_horizontal(states, directions), axis=-1) ** 2).T
                _, table, _ = prog._step_table
                assert not table.flags.writeable
                assert table.shape == want.shape
                assert np.all(abs(table - want) <= ORACLE_TOL * want)
                assert np.all(table[:, 1] == 0.0)  # the constant site

    def test_a_grid_leaves_nothing_for_the_next(self):
        """Grids A, B, then A again give the bytes that a freshly built
        program gives on each."""
        build = lambda: program_with_a_constant_site(np.random.default_rng(84), (2, 3, 2), 3)
        grids = {"A": np.linspace(0.0, 3.0, 7), "B": [1.2, 1.5, 1.9]}
        prog, cuts = build(), all_cuts(3)
        seen = [profile_digest(profile(prog, grids[name], cuts)) for name in "ABA"]
        fresh = {name: profile_digest(profile(build(), grid, cuts)) for name, grid in grids.items()}
        assert seen == [fresh["A"], fresh["B"], fresh["A"]]


def site_rows_pass(prog, t):
    """Whether the site rows at program time t pass their checks: each
    site's tangent (``_register_site_rows``) and the norm of their product."""
    try:
        stacks = _register_site_rows(prog, np.array([t]), "analytic", DEFAULT_STEP)
        bases = np.zeros((prog.n_sites, 1, max(prog.initial.dims)), dtype=complex)
        for sites, states, _ in stacks:
            bases[sites, :, : states.shape[-1]] = states
        _check_product_amplitudes(bases, BASE_NORM_TOL)
    except ValidationError:
        return False
    return True


class TestStepChecks:
    """A product-initial program checks each step once, beside its step
    table: whether the site rows' norm checks hold through it, and whether its
    squared speeds are finite.  A profile reads these, not the orbits."""

    def programs(self):
        rng = np.random.default_rng(85)
        for dims in ((2, 3, 2), (3, 2, 3, 2)):
            for n_steps in (1, 2, 3):
                yield program_with_a_constant_site(rng, dims, n_steps)
        yield off_norm_sites()[0]
        yield TestRegisterSteps().overflowing_program()
        # each site within the bound, their product not
        yield scaled_table(wide_register(np.random.default_rng(75), 4), [(1, slice(3), 1 + 6e-11)])

    def test_checks_are_the_site_rows_checks_and_the_finite_table_rows(self):
        seen = set()
        for prog in self.programs():
            orbits, speeds, checks = prog._step_table
            unit, finite = checks
            assert not any(arr.flags.writeable for orbit in orbits for arr in orbit)
            assert checks.shape == (2, prog.n_steps) and not checks.flags.writeable
            assert speeds.shape == (prog.n_steps, prog.n_sites) and not speeds.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                checks[0, 0] = True
            with pytest.raises(ValueError, match="read-only"):
                speeds[0, 0] = 0.0
            for k in range(prog.n_steps):
                assert unit[k] == site_rows_pass(prog, k + 0.5)
                assert finite[k] == np.isfinite(speeds[k]).all()
                seen.add((bool(unit[k]), bool(finite[k])))
        assert seen == {(True, True), (False, True), (True, False)}

    @pytest.mark.parametrize("method", ["analytic", "central_fd"])
    def test_an_entangled_initial_program_fills_no_step_table(self, method):
        """An entangled initial state has no step table: the program keeps
        None, and every cut takes the SVD."""
        rng = np.random.default_rng(87)
        dims = (2, 3, 2)
        prog = random_program(rng, dims, random_ket(rng, dims))
        prof = profile(prog, [0.25, 0.5, 1.5], all_cuts(3), method=method)
        assert prog._step_table is None and set(prof.entropy_path.values()) == {"svd"}

    def test_a_profile_evaluates_no_orbit_once_the_checks_are_kept(self, monkeypatch):
        """After one profile, a second of the same program on another grid,
        inside sound steps, evaluates no orbit and gives the bytes a fresh
        program gives."""
        build = lambda: program_with_a_constant_site(np.random.default_rng(86), (2, 3, 2), 3)
        cuts, grid = all_cuts(3), [1.2, 1.5, 2.9]
        fresh = profile_digest(profile(build(), grid, cuts))
        prog = build()
        profile(prog, [0.25, 0.5], cuts)

        def orbit(*args):
            raise AssertionError("orbit evaluated")

        monkeypatch.setattr(trajectories, "_orbit", orbit)
        assert profile_digest(profile(prog, grid, cuts)) == fresh


class TestSmallShares:
    """A small share keeps its digits: the speed-share entropy is the binary
    entropy of the smaller share, held to a 50-digit value."""

    @pytest.mark.parametrize("slope", [1e-3, 1e-6, 1e-8, 1e-10])
    def test_entropy_of_a_slow_qubit_beside_a_fast_one(self, slope):
        """Bloch qubits with theta slopes a and 1 share the squared speed as
        a^2 : 1, so across 1|2 the tangent entropy is h2(a^2 / (a^2 + 1)) at
        every grid point."""
        mpmath = pytest.importorskip("mpmath")
        traj = ProductTrajectory((BlochCurve([0.0, slope]), BlochCurve([0.0, 1.0])))
        cut = Cut.splitting((0,), 2)
        prof = profile(traj, np.linspace(0.1, 1.0, 10), (cut,), method="analytic")
        assert prof.entropy_path[cut] == "speed_share"
        with mpmath.workdps(50):
            a = mpmath.mpf(slope)
            p = a**2 / (a**2 + 1)
            exact = float(-(p * mpmath.log(p, 2) + (1 - p) * mpmath.log(1 - p, 2)))
        assert np.max(abs(prof.tangent_entropy[cut] / exact - 1.0)) <= 1e-14


def perp_speeds(factors):
    """Each factor's squared perpendicular speed, (G, n), by the kernel's own
    arithmetic: ``_horizontal``, then ``_row_norms`` squared."""
    return np.stack([_row_norms(_horizontal(a, d)) ** 2 for a, d in factors], axis=-1)


class TestShareTable:
    """A profile keeps the squared factor speeds its speed-share entropies
    are taken from, and the zero-motion mask they use."""

    @pytest.mark.parametrize("method", ["analytic", "central_fd", "richardson"])
    def test_product_table_is_the_factor_rows_speeds(self, method):
        rng = np.random.default_rng(91)
        for n in (2, 3, 5):
            dims = tuple(int(d) for d in rng.integers(2, 5, size=n))
            traj = random_product_trajectory(rng, dims, frozen=(True,) + (False,) * (n - 1))
            prof = profile(traj, np.linspace(0.0, 1.5, 7), all_cuts(n), method)
            assert prof.factor_speeds.shape == (7, n)
            assert same_bits(prof.factor_speeds, perp_speeds(prof.factors))
            assert np.all(prof.factor_speeds[:, 0] == 0.0)  # the frozen factor

    @pytest.mark.parametrize("method", ["central_fd", "richardson"])
    def test_register_stencil_table_is_the_site_rows_speeds(self, method):
        rng = np.random.default_rng(92)
        for dims in ((2, 3, 2), (3, 2, 3, 2)):
            prog = program_with_a_constant_site(rng, dims, 3)
            prof = profile(prog, np.linspace(0.0, 3.0, 13), all_cuts(len(dims)), method)
            assert same_bits(prof.factor_speeds, perp_speeds(prof.factors))

    def test_register_step_table_is_spread_over_each_step(self):
        rng = np.random.default_rng(93)
        for dims in ((2, 3, 2), (3, 2, 3, 2)):
            prog = program_with_a_constant_site(rng, dims, 3)
            grid = np.union1d(np.arange(4.0), rng.uniform(0, 3, 6))
            prof = profile(prog, grid, all_cuts(len(dims)), "analytic")
            ks, _ = prog.resolve_time(grid)
            assert same_bits(prof.factor_speeds, prog._step_table[1][ks - 1])
            want = perp_speeds(prof.factors)
            assert np.all(abs(prof.factor_speeds - want) <= ORACLE_TOL * want)
            assert np.all(prof.factor_speeds[:, 1] == 0.0)  # the constant site

    def test_entangled_initial_program_has_no_table(self):
        rng = np.random.default_rng(94)
        dims = (2, 2, 3)
        prof = profile(random_program(rng, dims, random_ket(rng, dims)), np.linspace(0.0, 2.0, 9), all_cuts(3))
        assert prof.factors is None and prof.factor_speeds is None
        assert prof.moving.shape == (9,)

    def moving_cases(self):
        """Profiles over every path, each with points that do not move."""
        rng = np.random.default_rng(95)
        # theta = t^2 moves at speed 2t: below the zero floor at t = 0 and t = 1e-14
        still = BlochCurve([0.0, 0.0, 1.0])
        grid = [-0.5, 0.0, 1e-14, 0.5]
        for method in ("analytic", "central_fd"):
            yield profile(ProductTrajectory((still, still)), grid, [Cut.splitting((0,), 2)], method)
        # a two-site factor whose motion is a phase, cut through: the SVD path
        phase = PhaseCurve([0.0, 1.3], random_ket(rng, (2, 2)))
        yield profile(ProductTrajectory((phase, still)), grid, [Cut.splitting((0,), 3)])
        prog = RegisterProgram.uniform_superposition([[UnitaryCurve.constant(np.eye(2))] * 3], 3)
        for method in ("analytic", "central_fd"):
            yield profile(prog, [0.0, 0.5, 1.0], all_cuts(3), method)
        still_steps = ((UnitaryCurve.constant(np.eye(2)),) * 2,)
        yield profile(RegisterProgram(still_steps, random_ket(rng, (2, 2))), [0.0, 0.5, 1.0], all_cuts(2))

    def test_moving_is_the_speed_above_the_zero_floor(self):
        seen = set()
        for prof in self.moving_cases():
            assert prof.moving.dtype == bool and prof.moving.shape == prof.grid.shape
            assert np.array_equal(prof.moving, ~(prof.fs_speed / 2 < _ZERO_TOL))
            seen.update(prof.moving.tolist())
        assert seen == {False, True}

    def test_table_and_mask_are_read_only(self):
        rng = np.random.default_rng(96)
        product = random_product_trajectory(rng, (2, 3, 2))
        grid = np.linspace(0.0, 2.0, 9)
        profiles = [
            profile(product, grid, all_cuts(3)),
            profile(product, grid, all_cuts(3), "central_fd"),
            profile(program_with_a_constant_site(rng, (2, 3, 2), 2), grid, all_cuts(3)),
            profile(program_with_a_constant_site(rng, (2, 3, 2), 2), grid, all_cuts(3), "richardson"),
        ]
        for prof in profiles:
            for arr in (prof.factor_speeds, prof.moving):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[1]
