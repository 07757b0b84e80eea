"""State-space primitives checked against explicit index-loop oracles."""

import contextlib
import itertools
import math
import threading

import numpy as np
import pytest

from qtangle import (
    Cut,
    HermitianOp,
    Ket,
    ValidationError,
    apply_local_unitaries,
    inner,
    partial_trace,
    ppt_negativity,
    tensor_product,
)
from qtangle.entanglement import _ppt_negativities
from qtangle.errors import DegenerateInputError
from qtangle.statespace import _first_rejection, _outer, _partial_trace, _raise_first, _row_norms, _split

from helpers import random_ket


def kron_oracle(a, b):
    """Tensor product written as the defining double loop."""
    out = np.zeros(a.size * b.size, dtype=complex)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i * b.size + j] = x * y
    return out


def partial_trace_oracle(mat, dims, keep_first):
    """Reduced operator via the defining index sums, bipartite case."""
    d1, d2 = dims
    if keep_first:
        out = np.zeros((d1, d1), dtype=complex)
        for i in range(d1):
            for j in range(d1):
                out[i, j] = sum(mat[i * d2 + k, j * d2 + k] for k in range(d2))
    else:
        out = np.zeros((d2, d2), dtype=complex)
        for i in range(d2):
            for j in range(d2):
                out[i, j] = sum(mat[k * d2 + i, k * d2 + j] for k in range(d1))
    return out


def random_hermitian_op(rng, dims):
    n = int(np.prod(dims))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianOp((a + a.conj().T) / 2, dims)


class TestRowNorms:
    """``_row_norms`` is ``np.linalg.norm`` along one axis, to the bit, on
    stacks whose entries include 0, inf, nan and values whose squares overflow."""

    @staticmethod
    def stack(rng):
        x = rng.standard_normal((6, 4, 5)) + 1j * rng.standard_normal((6, 4, 5))
        x[0] = 0.0
        x[1, 0, 0], x[1, 1, 2] = np.inf, complex(0.0, -np.inf)
        x[2, 0, 1], x[2, 2, 2] = np.nan, complex(1.0, np.nan)
        x[3, 0, 0], x[3, 1, :] = 1e200, complex(-1e200, 1e200)
        x[4, 2, :] = complex(-0.0, 0.0)
        x[5, 3] *= 1e-160
        return x

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_bits_are_np_linalg_norm(self, kind):
        x = self.stack(np.random.default_rng(29))
        x = x if kind == "complex" else x.real.copy()
        with np.errstate(all="ignore"):
            want, got = np.linalg.norm(x, axis=-1), _row_norms(x)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestKet:
    def test_basis_state(self):
        k = Ket.basis((2, 3), (1, 2))
        expected = np.zeros(6)
        expected[1 * 3 + 2] = 1.0
        assert np.allclose(k.amplitudes, expected)
        assert k.dims == (2, 3)

    def test_unit_flag_enforces_norm(self):
        with pytest.raises(ValidationError):
            Ket([1.0, 1.0], (2,), unit=True)

    def test_unnormalized_allowed_by_default(self):
        k = Ket([3.0, 4.0], (2,))
        assert k.norm() == pytest.approx(5.0)
        assert k.normalized().norm() == pytest.approx(1.0)

    def test_dim_product_must_match(self):
        with pytest.raises(ValueError):
            Ket([1.0, 0.0, 0.0], (2,))

    def test_amplitudes_read_only(self):
        k = Ket.basis((2,), (0,))
        with pytest.raises(ValueError):
            k.amplitudes[0] = 0.5

    def test_projector(self):
        k = Ket(np.array([1.0, 1.0]) / np.sqrt(2), (2,))
        assert np.allclose(k.projector().matrix, np.full((2, 2), 0.5))


class TestTensorProduct:
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_ket(rng, (int(rng.integers(2, 5)),))
            b = random_ket(rng, (int(rng.integers(2, 5)),))
            got = tensor_product([a, b])
            assert np.allclose(got.amplitudes, kron_oracle(a.amplitudes, b.amplitudes), atol=1e-14)
            assert got.dims == a.dims + b.dims

    def test_three_factor_associativity(self):
        rng = np.random.default_rng(8)
        parts = [random_ket(rng, (d,)) for d in (2, 3, 2)]
        left = tensor_product([tensor_product(parts[:2]), parts[2]])
        flat = tensor_product(parts)
        assert np.allclose(left.amplitudes, flat.amplitudes)

    def test_leftmost_factor_varies_slowest(self):
        a = Ket.basis((2,), (1,))
        b = Ket.basis((3,), (0,))
        assert np.argmax(np.abs(tensor_product([a, b]).amplitudes)) == 3


class TestInner:
    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(9)
        a, b = random_ket(rng, (2, 2)), random_ket(rng, (2, 2))
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))

    def test_orthonormal_basis(self):
        a = Ket.basis((2, 2), (0, 1))
        b = Ket.basis((2, 2), (1, 0))
        assert inner(a, a) == pytest.approx(1.0)
        assert inner(a, b) == pytest.approx(0.0)


class TestPartialTrace:
    def test_matches_index_sum_oracle(self):
        rng = np.random.default_rng(10)
        for dims in ((2, 2), (2, 3), (3, 4)):
            op = random_hermitian_op(rng, dims)
            cut = Cut.splitting((0,), 2)
            left = partial_trace(op, cut, keep="left")
            right = partial_trace(op, cut, keep="right")
            assert np.allclose(left.matrix, partial_trace_oracle(op.matrix, dims, True), atol=1e-13)
            assert np.allclose(right.matrix, partial_trace_oracle(op.matrix, dims, False), atol=1e-13)

    def test_preserves_trace(self):
        rng = np.random.default_rng(11)
        op = random_hermitian_op(rng, (2, 3))
        reduced = partial_trace(op, Cut.splitting((0,), 2))
        assert reduced.trace() == pytest.approx(op.trace())

    def test_product_state_reduces_to_factor(self):
        rng = np.random.default_rng(12)
        a, b = random_ket(rng, (2,)), random_ket(rng, (3,))
        op = tensor_product([a, b]).projector()
        reduced = partial_trace(op, Cut.splitting((0,), 2), keep="left")
        assert np.allclose(reduced.matrix, a.projector().matrix, atol=1e-13)

    def test_three_factor_middle_cut(self):
        rng = np.random.default_rng(13)
        parts = [random_ket(rng, (2,)) for _ in range(3)]
        op = tensor_product(parts).projector()
        reduced = partial_trace(op, Cut((1,), (0, 2)), keep="left")
        assert np.allclose(reduced.matrix, parts[1].projector().matrix, atol=1e-13)


class TestHermitianOp:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianOp(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))

    def test_eigenvalues_sorted(self):
        op = HermitianOp(np.diag([3.0, -1.0, 2.0]), (3,))
        assert np.allclose(op.eigenvalues(), [-1.0, 2.0, 3.0])

    def test_frobenius_norm(self):
        op = HermitianOp(np.diag([3.0, 4.0]), (2,))
        assert op.fro_norm() == pytest.approx(5.0)


class TestCut:
    def test_label_is_one_based(self):
        assert Cut.splitting((0,), 3).label() == "1|23"
        assert Cut((0, 1), (2,)).label() == "12|3"

    def test_swapped(self):
        assert Cut.splitting((0,), 2).swapped().label() == "2|1"

    def test_rejects_overlap_and_empty(self):
        with pytest.raises(ValueError):
            Cut((0,), (0, 1))
        with pytest.raises(ValueError):
            Cut((), (0,))

    def test_validate_for_requires_full_cover(self):
        with pytest.raises(ValueError):
            Cut((0,), (1,)).validate_for((2, 2, 2))

    def test_equal_cuts_hash_equal_and_share_a_dict_entry(self):
        ways = [
            Cut((0,), (1, 2)),
            Cut([0], (2, 1)),
            Cut.splitting((0,), 3),
            Cut(np.array([0]), range(1, 3)),
            Cut((1, 2), (0,)).swapped(),
        ]
        assert len({hash(cut) for cut in ways}) == 1
        table = {}
        for i, cut in enumerate(ways):
            table[cut] = i
        assert table == {ways[0]: len(ways) - 1}
        assert Cut((0, 1), (2,)) not in table


class TestModuleInvariants:
    def test_partial_trace_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            op = random_hermitian_op(rng, dims)
            reduced = partial_trace(op, Cut.splitting((0,), 2), keep="left")
            assert abs(reduced.trace() - op.trace()) < 1e-12
            assert np.max(np.abs(reduced.matrix - reduced.matrix.conj().T)) < 1e-12

    def test_tensor_norm_multiplicativity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = Ket(rng.standard_normal(3) + 1j * rng.standard_normal(3), (3,))
            b = Ket(rng.standard_normal(2) + 1j * rng.standard_normal(2), (2,))
            assert tensor_product([a, b]).norm() == pytest.approx(a.norm() * b.norm(), abs=1e-13)

    def test_partial_trace_of_operator_product(self):
        rng = np.random.default_rng(18)
        r1 = random_hermitian_op(rng, (3,))
        r2 = random_hermitian_op(rng, (2,))
        op = HermitianOp(np.kron(r1.matrix, r2.matrix), (3, 2))
        reduced = partial_trace(op, Cut.splitting((0,), 2), keep="left")
        assert np.allclose(reduced.matrix, r1.matrix * r2.trace(), atol=1e-12)


def check(bad_rows, text, size=5, error=ValidationError):
    """A check over ``size`` rows rejecting each of ``bad_rows`` as ``text``."""
    _raise_first(np.isin(np.arange(size), bad_rows), lambda i: f"{text} at {i}", error)


def rejection(block):
    """Message and ``row`` of what ``block()`` raises."""
    with pytest.raises(ValueError) as info:
        block()
    return str(info.value), info.value.row


class TestFirstRejection:
    """Inside a block checks record their rejections, and the block raises
    the one a loop over the rows in order meets first."""

    def test_the_least_row_wins_and_at_a_tie_the_earlier_check(self):
        def sweep():
            with _first_rejection() as rejected:
                check([3, 4], "norm")
                check([1, 3], "hermiticity", error=DegenerateInputError)
                check([1], "trace")
                assert [exc.row for exc in rejected] == [3, 1, 1]

        assert rejection(sweep) == ("hermiticity at 1", 1)

    def test_order_is_the_blocks_own(self):
        def sweep():
            with _first_rejection(lambda exc: -exc.row):
                check([2], "norm")
                check([4], "trace")
                check([4], "hermiticity")

        assert rejection(sweep) == ("trace at 4", 4)

    def test_an_inner_block_hands_its_rejections_to_the_outer_one(self):
        def sweep():
            with _first_rejection() as outer:
                check([3], "norm")
                with _first_rejection() as inner:
                    check([2], "trace")
                    check([0], "hermiticity")
                assert [str(exc) for exc in inner] == ["trace at 2", "hermiticity at 0"]
                assert outer[1:] == inner
                check([1], "unitarity")

        assert rejection(sweep) == ("hermiticity at 0", 0)

    def test_a_block_left_by_another_error_raises_at_once_after(self):
        with pytest.raises(KeyError):
            with _first_rejection():
                raise KeyError("not a rejection")
        assert rejection(lambda: check([2], "norm")) == ("norm at 2", 2)

    def test_an_error_after_a_rejection_gives_way_to_it(self):
        """Arithmetic goes on over rejected rows; an error it raises there is
        not the first defect, the rejection is."""

        def sweep():
            with _first_rejection():
                check([2], "norm")
                np.linalg.inv(np.zeros((2, 2)))  # LinAlgError: singular matrix

        assert rejection(sweep) == ("norm at 2", 2)
        assert rejection(lambda: check([1], "trace")) == ("trace at 1", 1)

    def test_a_check_in_another_thread_raises_at_once(self):
        seen = []

        def other():
            try:
                check([1], "trace")
            except ValidationError as exc:
                seen.append(str(exc))

        with _first_rejection() as rejected:
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
        assert seen == ["trace at 1"]
        assert rejected == []

    def test_arithmetic_warnings_are_off_inside_a_block_only(self):
        with _first_rejection():
            assert np.geterr() == dict.fromkeys(["divide", "over", "under", "invalid"], "ignore")
        assert np.geterr()["invalid"] != "ignore"

    @pytest.mark.parametrize("leave", ["normally", "by a rejection", "by another error"])
    def test_the_error_state_is_restored_however_a_block_is_left(self, leave):
        raised = {"normally": None, "by a rejection": ValidationError, "by another error": KeyError}[leave]
        with np.errstate(all="raise", under="warn"):
            before = np.geterr()
            with pytest.raises(raised) if raised else contextlib.nullcontext():
                with _first_rejection():
                    if raised is ValidationError:
                        check([2], "norm")
                    elif raised is KeyError:
                        raise KeyError("not a rejection")
            assert np.geterr() == before

    def test_an_interrupt_after_a_rejection_passes_through(self):
        with pytest.raises(KeyboardInterrupt):
            with _first_rejection():
                check([2], "norm")
                raise KeyboardInterrupt
        assert rejection(lambda: check([1], "trace")) == ("trace at 1", 1)

    def test_an_error_leaving_an_inner_block_reaches_the_outer_one(self):
        """The inner block hands on its rejections and the error; the outer
        block lets the error give way to the least rejection, or raises it."""

        def sweep(outer_rows, inner_rows):
            with _first_rejection():
                check(outer_rows, "norm")
                with _first_rejection():
                    check(inner_rows, "trace")
                    raise KeyError("not a rejection")

        assert rejection(lambda: sweep([3], [2])) == ("trace at 2", 2)
        assert rejection(lambda: sweep([1], [])) == ("norm at 1", 1)
        with pytest.raises(KeyError):
            sweep([], [])


class TestApplyLocalUnitaries:
    def test_matches_kron_matrix_oracle(self):
        rng = np.random.default_rng(14)
        state = random_ket(rng, (2, 3))
        u1 = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        u2 = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        got = apply_local_unitaries(state, [u1, u2])
        assert np.allclose(got.amplitudes, np.kron(u1, u2) @ state.amplitudes, atol=1e-13)

    def test_rejects_non_unitary_naming_factor(self):
        state = Ket.basis((2, 2), (0, 0))
        bad = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValidationError, match="factor 2"):
            apply_local_unitaries(state, [np.eye(2), bad])

    def test_identity_is_noop(self):
        rng = np.random.default_rng(15)
        state = random_ket(rng, (2, 2, 2))
        got = apply_local_unitaries(state, [np.eye(2)] * 3)
        assert np.allclose(got.amplitudes, state.amplitudes)


def bipartitions(n):
    """Every cut of n factor positions, each once up to swapping the sides:
    contiguous and non-contiguous left groups alike."""
    return [
        Cut.splitting([i for i in range(n) if mask >> i & 1], n) for mask in range(1, 2 ** (n - 1))
    ]


def cut_index(dims, cut, left, right):
    """Flat amplitude index of the left and right multi-indices of a cut,
    each over its side's positions in ascending order."""
    digits = dict(zip(sorted(cut.left), left)) | dict(zip(sorted(cut.right), right))
    return int(np.ravel_multi_index([digits[i] for i in range(len(dims))], dims))


def side_indices(dims, side):
    return list(itertools.product(*(range(dims[i]) for i in sorted(side))))


class TestCutLayout:
    """The cut-layout kernels on stacks of unequal dims, over every
    bipartition, against the defining index sums."""

    DIMS = [(2, 3, 2), (3, 2, 2, 2)]

    @staticmethod
    def stacks(rng, dims):
        side = math.prod(dims)
        amps = rng.standard_normal((3, side)) + 1j * rng.standard_normal((3, side))
        a = rng.standard_normal((3, side, side)) + 1j * rng.standard_normal((3, side, side))
        return amps, a @ a.conj().swapaxes(-2, -1) / side

    @pytest.mark.parametrize("dims", DIMS)
    def test_split_rows(self, dims):
        amps, _ = self.stacks(np.random.default_rng(71), dims)
        for cut in bipartitions(len(dims)):
            lefts, rights = side_indices(dims, cut.left), side_indices(dims, cut.right)
            want = np.array(
                [
                    [[row[cut_index(dims, cut, l, r)] for r in rights] for l in lefts]
                    for row in amps
                ]
            )
            assert np.array_equal(_split(amps, dims, cut, 1), want)

    @pytest.mark.parametrize("dims", DIMS)
    def test_partial_trace_keeps_either_side(self, dims):
        _, mats = self.stacks(np.random.default_rng(72), dims)
        for cut in bipartitions(len(dims)):
            for keep, kept, traced in (("left", cut.left, cut.right), ("right", cut.right, cut.left)):
                at = lambda k, t: (
                    cut_index(dims, cut, k, t) if keep == "left" else cut_index(dims, cut, t, k)
                )
                rows, sums = side_indices(dims, kept), side_indices(dims, traced)
                want = np.array(
                    [
                        [[sum(m[at(a, s), at(b, s)] for s in sums) for b in rows] for a in rows]
                        for m in mats
                    ]
                )
                got = _partial_trace(mats, dims, cut, keep)
                assert np.max(np.abs(got - want)) < 1e-12
                single = partial_trace(HermitianOp(mats[1], dims), cut, keep)
                assert single.dims == tuple(dims[i] for i in sorted(kept))
                assert np.array_equal(single.matrix, got[1])

    @pytest.mark.parametrize("dims", DIMS)
    def test_ppt_negativity_of_the_partial_transpose(self, dims):
        _, mats = self.stacks(np.random.default_rng(73), dims)
        # a rank-one state is entangled across every cut, so each negativity is positive
        psi = np.random.default_rng(74).standard_normal(mats.shape[-1]) + 0j
        mats = np.concatenate([mats, _outer(psi, psi)[None] / (psi @ psi)])
        for cut in bipartitions(len(dims)):
            lefts, rights = side_indices(dims, cut.left), side_indices(dims, cut.right)
            pairs = [(l, r) for l in lefts for r in rights]
            transposed = np.array(
                [
                    [
                        [m[cut_index(dims, cut, l1, r2), cut_index(dims, cut, l2, r1)] for l2, r2 in pairs]
                        for l1, r1 in pairs
                    ]
                    for m in mats
                ]
            )
            eigs = np.linalg.eigvalsh(transposed)
            want = -np.where(eigs < 0, eigs, 0.0).sum(axis=-1)
            assert want[-1] > 0.1
            got = _ppt_negativities(mats, dims, cut)
            assert np.max(np.abs(got - want)) < 1e-12
            assert ppt_negativity(HermitianOp(mats[0], dims), cut) == got[0]

    def test_cut_is_checked_before_keep(self):
        mats = np.eye(12, dtype=complex)[None]
        with pytest.raises(ValueError, match="does not partition"):
            _partial_trace(mats, (2, 3, 2), Cut((0,), (1,)), "middle")
        with pytest.raises(ValueError, match="keep must be 'left' or 'right', got 'middle'"):
            _partial_trace(mats, (2, 3, 2), Cut((0,), (1, 2)), "middle")
