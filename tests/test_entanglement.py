"""Schmidt structure, entropies, Bell-frame tools, CHSH, and PPT checks.

Oracles: explicit reconstruction of the decomposed vector, eigenvalues of
reduced density matrices, Bloch-vector products for factorized states, and a
finite-difference expansion of the joint spin expectation.
"""

import math

import numpy as np
from numpy.polynomial import Polynomial
import pytest

from qtangle import (
    BELL_LABELS,
    BlochCurve,
    Cut,
    DegenerateInputError,
    HermitianOp,
    Ket,
    MeasurementSetting,
    PhaseCurve,
    ProductTrajectory,
    ValidationError,
    bell_decompose,
    chsh_value,
    correlation,
    correlation_expansion,
    correlation_matrix,
    entanglement_entropy,
    horizontal_tangent,
    partial_trace,
    ppt_negativity,
    product_tangent,
    profile,
    schmidt,
    tensor_product,
)
import qtangle.trajectories as trajectories
from qtangle.entanglement import _product_chsh_rows

from helpers import random_ket

SQ2 = math.sqrt(2)
CUT2 = Cut.splitting((0,), 2)


def random_unitary(rng, dim):
    """A Haar-random unitary: QR of a complex Gaussian matrix, phases fixed."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / abs(np.diag(r)))


def bell(label):
    table = {
        "phi_plus": [1, 0, 0, 1],
        "phi_minus": [1, 0, 0, -1],
        "psi_plus": [0, 1, 1, 0],
        "psi_minus": [0, 1, -1, 0],
    }
    return Ket(np.array(table[label]) / SQ2, (2, 2))


class TestSchmidt:
    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(10)
        for dims in ((2, 2), (2, 3), (3, 4), (2, 2, 3)):
            cut = Cut((0,), tuple(range(1, len(dims))))
            state = random_ket(rng, dims)
            data = schmidt(state, cut)
            rebuilt = sum(
                c * np.kron(l.amplitudes, r.amplitudes)
                for c, l, r in zip(data.coefficients, data.left_basis, data.right_basis)
            )
            assert np.allclose(rebuilt, state.amplitudes, atol=1e-12)

    def test_coefficients_descend_and_square_to_one(self):
        rng = np.random.default_rng(11)
        state = random_ket(rng, (3, 3))
        c = schmidt(state, CUT2).coefficients
        assert np.all(np.diff(c) <= 1e-15)
        assert np.sum(c**2) == pytest.approx(1.0, abs=1e-12)

    def test_squared_coefficients_match_reduced_spectrum(self):
        rng = np.random.default_rng(12)
        state = random_ket(rng, (2, 4))
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        reduced = HermitianOp(rho, (2, 4))
        spectrum = np.linalg.eigvalsh(partial_trace(reduced, CUT2, keep="left").matrix)[::-1]
        assert np.allclose(schmidt(state, CUT2).coefficients ** 2, spectrum, atol=1e-12)

    def test_phase_convention_first_left_amplitude_real(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            data = schmidt(random_ket(rng, (3, 3)), CUT2)
            for vec in data.left_basis:
                lead = vec.amplitudes[np.flatnonzero(np.abs(vec.amplitudes) > 1e-12)[0]]
                assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_unnormalized_input_records_norm(self):
        state = Ket(np.array([3.0, 0, 0, 3.0]), (2, 2))
        data = schmidt(state, CUT2)
        assert data.input_norm == pytest.approx(3 * SQ2)
        assert np.sum(data.coefficients**2) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            schmidt(Ket(np.zeros(4, dtype=complex), (2, 2)), CUT2)


class TestEntropy:
    def test_bell_state_is_one_bit(self):
        assert entanglement_entropy(bell("psi_plus"), CUT2) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_zero(self):
        rng = np.random.default_rng(14)
        a, b = random_ket(rng, (3,)), random_ket(rng, (4,))
        assert entanglement_entropy(tensor_product((a, b)), Cut((0,), (1,))) < 1e-12

    def test_biased_superposition_binary_entropy(self):
        p = 0.3
        amps = np.zeros(4)
        amps[0], amps[3] = math.sqrt(p), math.sqrt(1 - p)
        want = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert entanglement_entropy(Ket(amps, (2, 2)), CUT2) == pytest.approx(want, abs=1e-12)

    def test_never_negative(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            a, b = random_ket(rng, (2,)), random_ket(rng, (2,))
            assert entanglement_entropy(tensor_product((a, b)), CUT2) >= 0.0

    @pytest.mark.parametrize("delta, bound", [(1e-13, 1e-8), (1e-20, 1e-5)])
    def test_small_weight_keeps_its_digits(self, delta, bound):
        """Schmidt weights (1 - delta, delta) in random 4x4 local bases: the
        entropy is h2(delta) at 50 digits, to what the float state carries.
        Its small singular value sqrt(delta) is off by about eps, so delta by
        about 2 eps / sqrt(delta) relative: 7e-10 and 2e-6 here.  Summing
        -p log2(p) over both weights loses the small one's digits in
        1 - delta, and at delta = 1e-20 is hundreds of times too large."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            d = mpmath.mpf(delta)
            exact = float(-(d * mpmath.log(d, 2) + (1 - d) * mpmath.log1p(-d) / mpmath.log(2)))
        rng = np.random.default_rng(11)
        weights = np.sqrt([1 - delta, delta, 0.0, 0.0])
        for _ in range(10):
            u, v = (random_unitary(rng, 4) for _ in range(2))
            state = Ket(((u * weights) @ v.T).reshape(-1), (4, 4))
            assert abs(entanglement_entropy(state, CUT2) / exact - 1.0) <= bound

    def test_matches_entropy_of_schmidt_coefficients(self):
        rng = np.random.default_rng(16)
        dims = (2, 3, 2, 2)
        cuts = (Cut((0,), (1, 2, 3)), Cut((1,), (0, 2, 3)), Cut((0, 2), (1, 3)), Cut((1, 2, 3), (0,)))
        for cut in cuts:
            unit = random_ket(rng, dims)
            for scale in (1.0, 0.01, 3.7):
                state = Ket(scale * unit.amplitudes, dims)
                p = schmidt(state, cut).coefficients ** 2
                p = p[p > 0]
                want = max(0.0, float(-(p @ np.log2(p))))
                got = entanglement_entropy(state, cut)
                assert got == pytest.approx(want, rel=0, abs=1e-14)
                assert got == pytest.approx(entanglement_entropy(unit, cut), rel=0, abs=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            entanglement_entropy(Ket(np.zeros(6, dtype=complex), (2, 3)), CUT2)


class TestBellDecompose:
    def test_each_bell_state_is_a_unit_axis(self):
        for k, label in enumerate(BELL_LABELS):
            coeffs = bell_decompose(bell(label))
            expected = np.zeros(4)
            expected[k] = 1.0
            assert np.allclose(coeffs, expected, atol=1e-14)

    def test_roundtrip(self):
        rng = np.random.default_rng(16)
        state = random_ket(rng, (2, 2))
        coeffs = bell_decompose(state)
        rebuilt = sum(c * bell(l).amplitudes for c, l in zip(coeffs, BELL_LABELS))
        assert np.allclose(rebuilt, state.amplitudes, atol=1e-13)

    def test_dims_checked(self):
        with pytest.raises(ValueError):
            bell_decompose(Ket.basis((2, 3), (0, 0)))


def bloch_vector(ket):
    a = ket.amplitudes
    return np.array(
        [
            2 * (a[0].conjugate() * a[1]).real,
            2 * (a[0].conjugate() * a[1]).imag,
            abs(a[0]) ** 2 - abs(a[1]) ** 2,
        ]
    )


class TestCorrelation:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a, b = random_ket(rng, (2,)), random_ket(rng, (2,))
            axes = rng.standard_normal((2, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            setting = MeasurementSetting(axes[0], axes[1])
            got = correlation(tensor_product((a, b)), setting)
            want = (axes[0] @ bloch_vector(a)) * (axes[1] @ bloch_vector(b))
            assert got == pytest.approx(want, abs=1e-12)

    def test_psi_plus_matrix_is_diag_1_1_minus1(self):
        m = correlation_matrix(bell("psi_plus"))
        assert np.allclose(m, np.diag([1.0, 1.0, -1.0]), atol=1e-12)

    def test_matches_kron_operator_oracle(self):
        """The Pauli-pair tensor against one np.kron operator per expectation."""
        pauli = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
        rng = np.random.default_rng(21)
        for _ in range(25):
            state = random_ket(rng, (2, 2))
            psi = state.amplitudes
            want = np.array([[np.vdot(psi, np.kron(p, q) @ psi).real for q in pauli] for p in pauli])
            assert np.allclose(correlation_matrix(state), want, rtol=0, atol=1e-14)
            axes = rng.standard_normal((2, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            spin_a, spin_b = (sum(c * p for c, p in zip(axis, pauli)) for axis in axes)
            expected = np.vdot(psi, np.kron(spin_a, spin_b) @ psi).real
            got = correlation(state, MeasurementSetting(axes[0], axes[1]))
            assert got == pytest.approx(expected, rel=0, abs=1e-14)

    def test_axis_validation(self):
        with pytest.raises(ValidationError):
            MeasurementSetting([1.0, 0.0, 0.1], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            MeasurementSetting([1.0, 0.0], [0.0, 0.0, 1.0])


class TestChsh:
    def test_bell_states_hit_tsirelson(self):
        for label in BELL_LABELS:
            assert chsh_value(bell(label)) == pytest.approx(2 * SQ2, abs=1e-12)

    def test_product_states_classical(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            state = tensor_product((random_ket(rng, (2,)), random_ket(rng, (2,))))
            assert chsh_value(state) <= 2 + 1e-9

    def test_never_above_tsirelson(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            assert chsh_value(random_ket(rng, (2, 2))) <= 2 * SQ2 + 1e-9

    def test_norm_checked(self):
        with pytest.raises(ValidationError):
            chsh_value(Ket(np.array([1.0, 0, 0, 1.0]), (2, 2)))


class TestProductChshRows:
    """CHSH of a two-qubit product tangent from its profile's squared factor
    speeds, 2 sqrt(1 + 4 S_1 S_2 / S^2), against ``chsh_value`` of the
    normalized dense horizontal tangent."""

    @pytest.mark.parametrize("seed, method", enumerate(["analytic", "central_fd", "richardson"]))
    @pytest.mark.parametrize("phase", [False, True], ids=["moving", "phase"])
    def test_matches_the_dense_tangent(self, seed, method, phase):
        rng = np.random.default_rng([40, seed, phase])
        for _ in range(10):
            curves = [trajectories.random_factor_curve(rng, 2) for _ in range(2)]
            while isinstance(curves[0], PhaseCurve):  # one factor moves projectively
                curves[0] = trajectories.random_factor_curve(rng, 2)
            if phase:
                curves[1] = PhaseCurve([0.3, 1.7, -0.6], random_ket(rng, (2,)))
            traj = ProductTrajectory(tuple(curves))
            ts = np.sort(rng.uniform(-1.0, 1.0, 9))
            prof = profile(traj, ts, [CUT2], method, 1e-5)
            got = _product_chsh_rows(prof.factor_speeds, prof.moving)
            for i, t in enumerate(ts):
                tv = horizontal_tangent(product_tangent(traj, t, method, 1e-5))
                assert got[i] == pytest.approx(chsh_value(tv.normalized_direction()), rel=0, abs=1e-12)
            if phase:
                assert got == pytest.approx(2.0, rel=0, abs=1e-12)

    def test_zero_motion_is_rejected_as_normalizing_would_be(self):
        # theta = t^2 on both factors: the pair does not move at t = 0, grid point 1
        still = BlochCurve([0.0, 0.0, 1.0])
        prof = profile(ProductTrajectory((still, still)), [-0.5, 0.0, 0.5], [CUT2])
        assert list(prof.moving) == [True, False, True]
        with pytest.raises(DegenerateInputError, match=r"^direction is \(near-\)zero; nothing to normalize$") as info:
            _product_chsh_rows(prof.factor_speeds, prof.moving)
        assert info.value.row == 1


class TestCorrelationExpansion:
    def pair(self):
        return ProductTrajectory((BlochCurve([0.0, 1.0]), BlochCurve([0.0, 1.0])))

    def test_z_axes_at_origin(self):
        setting = MeasurementSetting([0, 0, 1.0], [0, 0, 1.0])
        c0, c1, c2 = correlation_expansion(self.pair(), 0.0, setting)
        assert (c0, c1) == pytest.approx((1.0, 0.0), abs=1e-14)
        assert c2 == pytest.approx(-1.0, abs=1e-14)

    def test_curvature_is_minus_axis_overlap_at_origin(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            axes = rng.standard_normal((2, 3))
            axes[:, 1] = 0.0  # curve stays real, only the xz plane matters
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            setting = MeasurementSetting(axes[0], axes[1])
            c0, c1, c2 = correlation_expansion(self.pair(), 0.0, setting)
            assert c0 == pytest.approx(axes[0][2] * axes[1][2], abs=1e-12)
            # at the origin: value is az*bz, half-curvature is ax*bx - az*bz
            assert c2 + c0 == pytest.approx(axes[0][0] * axes[1][0], abs=1e-12)

    def test_matches_fd_oracle_along_curve(self):
        rng = np.random.default_rng(21)
        traj = ProductTrajectory((BlochCurve([0.2, 0.9, -0.3]), BlochCurve([0.2, 0.9, -0.3])))
        h = 1e-2
        for _ in range(20):
            axes = rng.standard_normal((2, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            setting = MeasurementSetting(axes[0], axes[1])
            t = rng.uniform(0, 1.5)

            def e(s):
                return correlation(traj.state(s), setting)

            c0, c1, c2 = correlation_expansion(traj, t, setting)
            d1 = (-e(t + 2 * h) + 8 * e(t + h) - 8 * e(t - h) + e(t - 2 * h)) / (12 * h)
            d2 = (
                -e(t + 2 * h) + 16 * e(t + h) - 30 * e(t) + 16 * e(t - h) - e(t - 2 * h)
            ) / (12 * h**2)
            assert c0 == pytest.approx(e(t), abs=1e-12)
            assert c1 == pytest.approx(d1, abs=1e-7)
            assert c2 == pytest.approx(d2 / 2, abs=1e-7)

    def test_mismatched_factors_rejected(self):
        traj = ProductTrajectory((BlochCurve([0.0, 1.0]), BlochCurve([0.0, 2.0])))
        setting = MeasurementSetting([0, 0, 1.0], [0, 0, 1.0])
        with pytest.raises(ValueError):
            correlation_expansion(traj, 0.0, setting)

    def test_curves_in_different_domains_rejected(self):
        """theta = t and theta = t - 1 have the same coefficients in their own
        domains, [-1, 1] and [0, 2]; as functions of t they differ."""
        traj = ProductTrajectory(
            (BlochCurve(Polynomial([0.0, 1.0])), BlochCurve(Polynomial([0.0, 1.0], domain=[0, 2])))
        )
        setting = MeasurementSetting([0, 0, 1.0], [0, 0, 1.0])
        with pytest.raises(ValueError, match="^the two factor curves must be identical$"):
            correlation_expansion(traj, 0.7, setting)

    def test_same_function_in_two_domains_accepted(self):
        """theta = t, once in the default domain and once as 1 + x with x = t - 1."""
        traj = ProductTrajectory(
            (BlochCurve(Polynomial([0.0, 1.0])), BlochCurve(Polynomial([1.0, 1.0], domain=[0, 2])))
        )
        setting = MeasurementSetting([0, 0, 1.0], [0, 0, 1.0])
        c0, c1, _ = correlation_expansion(traj, 0.7, setting)
        assert c0 == pytest.approx(math.cos(0.7) ** 2, abs=1e-14)
        assert c1 == pytest.approx(-math.sin(1.4), abs=1e-14)

    def test_coefficients_are_those_of_the_converted_polynomial(self):
        """A curve holds a Polynomial as the read-only coefficients of the
        converted one, in the parameter itself, whatever its domain and window."""
        for poly in (
            Polynomial([0.2, 0.9, -0.3]),
            Polynomial([0.2, 0.9, -0.3], domain=[0, 2]),
            Polynomial([1.0, -2.0], window=[0, 1]),
        ):
            theta = BlochCurve(poly).theta
            assert np.array_equal(theta, poly.convert().coef) and not theta.flags.writeable

    @pytest.mark.parametrize(
        "theta, phi", [([[0.0, 1.0]], [[0.0]]), ([[0.0, 1.0], [0.5, 1.0]], [[0.0, 0.0], [0.0, 0.0]])]
    )
    def test_stacked_curves_rejected(self, theta, phi):
        traj = ProductTrajectory((BlochCurve(theta, phi), BlochCurve(theta, phi)))
        setting = MeasurementSetting([0, 0, 1.0], [0, 0, 1.0])
        with pytest.raises(ValueError, match="^factor 1: a stack of curves is not supported here$"):
            correlation_expansion(traj, 0.0, setting)

    def test_out_of_plane_curve_rejected(self):
        traj = ProductTrajectory(
            (BlochCurve([0.0, 1.0], [0.0, 0.5]), BlochCurve([0.0, 1.0], [0.0, 0.5]))
        )
        setting = MeasurementSetting([0, 0, 1.0], [0, 0, 1.0])
        with pytest.raises(ValueError):
            correlation_expansion(traj, 0.0, setting)


class TestPptNegativity:
    def density(self, matrix, dims):
        return HermitianOp(np.asarray(matrix, dtype=complex), dims)

    def test_phi_minus_negativity_half(self):
        state = bell("phi_minus")
        rho = self.density(np.outer(state.amplitudes, state.amplitudes.conj()), (2, 2))
        assert ppt_negativity(rho, CUT2) == pytest.approx(0.5, abs=1e-12)

    def test_product_density_zero(self):
        rng = np.random.default_rng(22)
        a, b = random_ket(rng, (2,)), random_ket(rng, (2,))
        rho = np.kron(
            np.outer(a.amplitudes, a.amplitudes.conj()),
            np.outer(b.amplitudes, b.amplitudes.conj()),
        )
        assert ppt_negativity(self.density(rho, (2, 2)), CUT2) < 1e-12

    def test_isotropic_mixture_threshold(self):
        state = bell("phi_minus")
        proj = np.outer(state.amplitudes, state.amplitudes.conj())
        for eps, entangled in ((0.2, False), (1 / 3 + 1e-6, True), (0.9, True)):
            rho = (1 - eps) * np.eye(4) / 4 + eps * proj
            neg = ppt_negativity(self.density(rho, (2, 2)), CUT2)
            assert (neg > 1e-9) == entangled

    def test_middle_cut_of_three_sites(self):
        state = bell("psi_plus")
        rho = np.kron(np.outer(state.amplitudes, state.amplitudes.conj()), np.eye(2) / 2)
        op = self.density(rho, (2, 2, 2))
        assert ppt_negativity(op, Cut((0,), (1, 2))) == pytest.approx(0.5, abs=1e-12)
        assert ppt_negativity(op, Cut((2,), (0, 1))) < 1e-12
