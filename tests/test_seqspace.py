import math
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orbitlab import (
    BackwardShift,
    Diagonal,
    DimensionMismatch,
    DirectSum,
    FiniteMatrix,
    ForwardShift,
    Identity,
    ScalarMultiple,
    SeqVec,
    apply_power,
    inner,
    norm,
    to_matrix,
)
from conftest import CountingOp, rand_vec

finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e6
)
sparse_vecs = st.dictionaries(st.integers(0, 40), finite_complex, max_size=8).map(SeqVec)


ALL_KINDS = [
    BackwardShift(2),
    ForwardShift(1),
    Identity(),
    ScalarMultiple(1 + 1j, BackwardShift()),
    Diagonal((2.0, 0.5j)),
    DirectSum(ForwardShift(1), BackwardShift(1), 2),
    FiniteMatrix.from_array([[1, 1], [0, 1]]),
]


class TestSeqVec:
    def test_canonical_form_drops_zeros(self):
        v = SeqVec({0: 1.0, 3: 0.0, 7: 0j})
        assert v.support() == (0,)
        assert v[3] == 0j

    def test_duplicate_indices_accumulate(self):
        v = SeqVec([(2, 1.0), (2, 2.5)])
        assert v[2] == 3.5

    def test_any_mapping_or_pairs_build_the_same_vector(self):
        entries = {0: 1.5, 4: -2j, 9: 0.0}
        v = SeqVec(entries)
        assert SeqVec(MappingProxyType(entries)) == v
        assert SeqVec(entries.items()) == v
        assert SeqVec(iter(list(entries.items()))) == v
        assert v.items() == ((0, 1.5 + 0j), (4, -2j))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SeqVec({0: float("nan")})
        with pytest.raises(ValueError):
            SeqVec({0: complex(0, float("inf"))})

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            SeqVec({-1: 1.0})

    def test_cancellation_restores_canonical_form(self):
        v = SeqVec({4: 1.5})
        assert not (v - v)
        assert (v - v) == SeqVec.zero()

    def test_dense_round_trip(self):
        v = SeqVec({0: 1 + 2j, 3: -0.5j})
        assert SeqVec.from_dense(v.to_dense(5)) == v
        with pytest.raises(DimensionMismatch):
            v.to_dense(3)

    def test_scalar_and_addition(self):
        v = SeqVec({1: 2.0})
        assert (2j * v)[1] == 4j
        assert (v + v)[1] == 4.0
        assert (-v)[1] == -2.0


class TestShifts:
    def test_backward_shift_kills_head(self):
        assert BackwardShift().apply(SeqVec.basis(0)) == SeqVec.zero()
        assert BackwardShift().apply(SeqVec.basis(1)) == SeqVec.basis(0)

    def test_scaled_shift(self):
        out = ScalarMultiple(2, BackwardShift()).apply(SeqVec.basis(1))
        assert out == SeqVec.basis(0, 2.0)

    def test_forward_then_backward_is_identity_bitwise(self, rng):
        for _ in range(100):
            v = rand_vec(rng)
            assert BackwardShift().apply(ForwardShift().apply(v)) == v

    @seed(42)
    @settings(max_examples=60, deadline=None)
    @given(sparse_vecs)
    def test_forward_shift_is_isometry(self, v):
        assert norm(ForwardShift(3).apply(v)) == norm(v)

    def test_power_shortcut_matches_loop(self, rng):
        for _ in range(50):
            v = rand_vec(rng)
            p = int(rng.integers(1, 4))
            n = int(rng.integers(0, 6))
            op = BackwardShift(p)
            stepped = v
            for _ in range(n):
                stepped = op.apply(stepped)
            assert apply_power(op, n, v) == stepped


class TestOtherKinds:
    def test_identity(self, rng):
        v = rand_vec(rng)
        assert Identity().apply(v) == v

    def test_diagonal_truncates_past_weights(self):
        d = Diagonal((2.0, 3.0))
        v = SeqVec({0: 1.0, 1: 1.0, 5: 1.0})
        out = d.apply(v)
        assert out == SeqVec({0: 2.0, 1: 3.0})

    def test_direct_sum_routes_blocks(self):
        op = DirectSum(ScalarMultiple(2, BackwardShift()), Identity(), 3)
        v = SeqVec({1: 1.0, 4: 5.0})
        out = op.apply(v)
        assert out == SeqVec({0: 2.0, 4: 5.0})

    def test_direct_sum_left_block_compression(self):
        # a forward shift inside the left block drops what crosses the split
        op = DirectSum(ForwardShift(1), Identity(), 2)
        out = op.apply(SeqVec({0: 1.0, 1: 1.0}))
        assert out == SeqVec({1: 1.0})

    def test_finite_matrix_matches_numpy(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = FiniteMatrix.from_array(a)
        v = rand_vec(rng, max_index=4, max_terms=4)
        expected = a @ v.to_dense(4)
        assert np.allclose(op.apply(v).to_dense(4), expected)

    def test_finite_matrix_rejects_outside_support(self):
        op = FiniteMatrix.from_array(np.eye(2))
        with pytest.raises(DimensionMismatch):
            op.apply(SeqVec.basis(5))

    def test_finite_matrix_must_be_square(self):
        with pytest.raises(ValueError):
            FiniteMatrix(((1.0, 2.0),))


class TestApplyPower:
    def test_zero_power_is_identity(self, rng):
        v = rand_vec(rng)
        op = ScalarMultiple(2, BackwardShift())
        assert apply_power(op, 0, v) == v

    def test_jordan_block_cube(self):
        # [[2,1],[0,2]]^3 applied to (0,1) is (12,8)
        op = FiniteMatrix.from_array([[2, 1], [0, 2]])
        out = apply_power(op, 3, SeqVec.basis(1))
        assert out == SeqVec({0: 12.0, 1: 8.0})

    def test_semigroup_exact_for_shifts(self, rng):
        op = ScalarMultiple(1.5 + 0.5j, BackwardShift(2))
        for _ in range(30):
            v = rand_vec(rng)
            m, n = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            lhs = apply_power(op, m + n, v)
            rhs = apply_power(op, m, apply_power(op, n, v))
            assert lhs.support() == rhs.support()
            assert norm(lhs - rhs) <= 1e-10 * max(1.0, norm(lhs))

    def test_semigroup_for_matrices(self, rng):
        a = 0.5 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        op = FiniteMatrix.from_array(a)
        v = rand_vec(rng, max_index=3, max_terms=3)
        lhs = apply_power(op, 5, v)
        rhs = apply_power(op, 2, apply_power(op, 3, v))
        assert norm(lhs - rhs) <= 1e-10 * max(1.0, norm(lhs))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            apply_power(Identity(), -1, SeqVec.zero())

    @pytest.mark.parametrize("op", ALL_KINDS, ids=lambda op: type(op).__name__)
    def test_every_kind_maps_zero_to_zero(self, op):
        assert not op.apply(SeqVec())

    @pytest.mark.parametrize(
        "op, vec, dies_after",
        [
            (ScalarMultiple(2, BackwardShift()), SeqVec({0: 1.0, 4: 1j}), 5),
            (Diagonal((0.5, 0.0, 3.0)), SeqVec({1: 1.0, 5: 2.0}), 1),
            (
                DirectSum(ScalarMultiple(2, BackwardShift()), Diagonal((1.0,)), 3),
                SeqVec({2: 1.0, 4: 1.0}),
                3,
            ),
            (FiniteMatrix.from_array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), SeqVec({2: 1j}), 3),
            (ScalarMultiple(-1j, DirectSum(Identity(), BackwardShift(2), 1)), SeqVec({5: 1.0}), 3),
        ],
    )
    def test_stops_at_zero_like_the_plain_loop(self, op, vec, dies_after):
        counted = CountingOp(op)
        for n in range(dies_after + 4):
            expected = vec
            for _ in range(n):
                expected = op.apply(expected)
            counted.calls = 0
            assert apply_power(counted, n, vec) == expected
            assert bool(expected) == (n < dies_after)
            assert counted.calls == min(n, dies_after)


class TestAdjoint:
    def test_shift_adjoints_swap(self):
        assert BackwardShift(2).adjoint() == ForwardShift(2)
        assert ForwardShift(2).adjoint() == BackwardShift(2)

    def test_scalar_adjoint_conjugates(self):
        op = ScalarMultiple(2j, Identity())
        v = SeqVec.basis(0)
        assert op.adjoint().apply(v) == SeqVec.basis(0, -2j)

    def test_direct_sum_adjoint_blockwise(self):
        op = DirectSum(BackwardShift(), ForwardShift(), 3)
        assert op.adjoint() == DirectSum(ForwardShift(), BackwardShift(), 3)

    def test_finite_matrix_adjoint_is_conjugate_transpose(self):
        op = FiniteMatrix.from_array([[1, 2j], [0, 1]])
        assert np.allclose(op.adjoint().array, np.array([[1, 0], [-2j, 1]]))

    def test_finite_matrix_adjoint_applies_as_conjugate_transpose(self, rng):
        for dim in (1, 3, 6):
            entries = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            op = FiniteMatrix.from_array(entries)
            adj = op.adjoint()
            assert np.array_equal(adj.array, entries.conj().T)
            fresh = FiniteMatrix.from_array(entries.conj().T)
            for _ in range(3):
                x = SeqVec.from_dense(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                assert adj.apply(x) == fresh.apply(x)
            assert op == FiniteMatrix.from_array(entries)

    @pytest.mark.parametrize(
        "op",
        [
            BackwardShift(1),
            ForwardShift(2),
            ScalarMultiple(1 - 2j, BackwardShift(1)),
            Diagonal((1j, 2.0, -0.5, 3 + 1j)),
            DirectSum(ScalarMultiple(2, BackwardShift()), Identity(), 4),
        ],
        ids=["B", "S2", "scaledB", "diag", "dsum"],
    )
    def test_pairing_identity(self, op, rng):
        for _ in range(40):
            u = rand_vec(rng, max_index=12)
            v = rand_vec(rng, max_index=12)
            lhs = inner(op.apply(u), v)
            rhs = inner(u, op.adjoint().apply(v))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_pairing_identity_matrix(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        op = FiniteMatrix.from_array(a)
        for _ in range(20):
            u = rand_vec(rng, max_index=5, max_terms=5)
            v = rand_vec(rng, max_index=5, max_terms=5)
            lhs = inner(op.apply(u), v)
            rhs = inner(u, op.adjoint().apply(v))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestInnerNorm:
    def test_inner_conjugate_symmetry(self, rng):
        u, v = rand_vec(rng), rand_vec(rng)
        assert inner(u, v) == inner(v, u).conjugate()

    def test_norm_of_scaled_basis(self):
        assert norm(SeqVec.basis(7, 3 - 4j)) == 5.0

    def test_inner_orthogonal_supports(self):
        assert inner(SeqVec.basis(0), SeqVec.basis(1)) == 0j

    def test_norm_squared_is_self_inner(self, rng):
        v = rand_vec(rng)
        assert math.isclose(norm(v) ** 2, inner(v, v).real, rel_tol=1e-12, abs_tol=1e-300)


def test_to_matrix_materializes_columns():
    op = DirectSum(ScalarMultiple(2, BackwardShift()), Identity(), 2)
    m = to_matrix(op, 4)
    expected = np.array(
        [[0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(m, expected)
