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
from orbitlab.errors import OrbitlabError
from orbitlab.seqspace import PRUNE_MODULUS, max_or_nan
from conftest import CountingOp, _plain_power, rand_vec, reference_apply, reference_from_dense

finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e6
)
sparse_vecs = st.dictionaries(st.integers(0, 40), finite_complex, max_size=8).map(SeqVec)
# Values whose sums at one index overflow, cancel, or fall below the
# pruning modulus.
summands = st.one_of(
    finite_complex,
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.7e308, -1.7e308, 1e308j, 1.2e308 + 1.2e308j, 5e-301, -5e-301j, 0.0]),
)

# Dense entries: infinite and NaN parts, subnormals, moduli at the pruning
# modulus, and finite values near 1e308 whose modulus overflows.
dense_entries = st.one_of(
    st.builds(complex, st.floats(), st.floats()),
    st.sampled_from(
        [
            PRUNE_MODULUS,
            math.nextafter(PRUNE_MODULUS, 0.0),
            -PRUNE_MODULUS * 1j,
            complex(PRUNE_MODULUS * 0.6, PRUNE_MODULUS * 0.8),
            5e-324,
            -5e-324j,
            2.2e-308 + 1e-310j,
            1e308 + 1e308j,
            1.2e308 - 1.2e308j,
            1.5e308 + 1.5e308j,
            1.7e308,
            -1.7e308j,
            0.0,
            -0.0,
            complex(-0.0, -0.0),
        ]
    ),
)


# Operators for ``DirectSum``: left blocks that push past the split (forward
# shifts, matrices wider than it), matrices too narrow for their input,
# factors whose products overflow or fall below the pruning modulus, and
# nested sums.
_factors = st.sampled_from([2.0, -0.5, 1j, 0.75 - 0.25j, 0.0, 1e300, 1e-300, 1.5e308])
_matrices = st.integers(1, 5).flatmap(
    lambda d: st.lists(st.lists(_factors, min_size=d, max_size=d), min_size=d, max_size=d)
).map(FiniteMatrix)
_operators = st.recursive(
    st.one_of(
        st.builds(ForwardShift, st.integers(1, 4)),
        st.builds(BackwardShift, st.integers(1, 3)),
        st.just(Identity()),
        st.builds(Diagonal, st.lists(_factors, max_size=6).map(tuple)),
        _matrices,
    ),
    lambda kids: st.one_of(
        st.builds(ScalarMultiple, _factors, kids),
        st.builds(DirectSum, kids, kids, st.integers(1, 6)),
    ),
    max_leaves=5,
)
_sum_inputs = st.dictionaries(
    st.integers(0, 12), st.one_of(finite_complex, st.sampled_from([1e308, -1e-299j])), max_size=8
).map(SeqVec)


def _stored(fn):
    """The entries ``fn()`` stores, in their order and with their bits, or the
    type and message of the error it raises."""
    try:
        vec = fn()
    except (OrbitlabError, ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [(i, z.real.hex(), z.imag.hex()) for i, z in vec._entries.items()]


def _built(entries, build=SeqVec):
    """``build(entries)``'s items with their sign bits, or the error it raises."""
    try:
        return repr(build(entries).items())
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


ALL_KINDS = [
    BackwardShift(2),
    ForwardShift(1),
    Identity(),
    ScalarMultiple(1 + 1j, BackwardShift()),
    Diagonal((2.0, 0.5j)),
    DirectSum(ForwardShift(1), BackwardShift(1), 2),
    FiniteMatrix([[1, 1], [0, 1]]),
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

    def test_repeated_indices_that_overflow_raise(self):
        with pytest.raises(ValueError, match=r"non-finite coefficient \(inf\+0j\)"):
            SeqVec([(0, 1.7e308), (0, 1.7e308)])

    @seed(23)
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), summands), max_size=8))
    def test_pairs_build_what_their_sums_build(self, pairs):
        sums = {}
        for i, z in pairs:
            sums[i] = sums[i] + z if i in sums else complex(z)
        assert _built(pairs) == _built(sums)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            SeqVec({-1: 1.0})

    @pytest.mark.parametrize(
        "entries",
        [{2.7: 1.0}, [(2.9, 1.0), (2, 1.0)], {"3": 1.0}, {True: 2.0}, {2.0: 1.0}, {None: 1.0}],
        ids=repr,
    )
    def test_rejects_an_index_that_is_not_an_integer(self, entries):
        # No float is truncated, no string parsed, and True is no 1.
        with pytest.raises(TypeError, match="is not an integer"):
            SeqVec(entries)

    def test_takes_any_integer_type(self):
        assert SeqVec({np.int64(3): 1.0, np.uint8(1): 2.0}) == SeqVec({3: 1.0, 1: 2.0})
        assert type(SeqVec({np.int64(3): 1.0}).support()[0]) is int

    def test_cancellation_restores_canonical_form(self):
        v = SeqVec({4: 1.5})
        assert not (v - v)
        assert (v - v) == SeqVec.zero()

    def test_dense_round_trip(self):
        v = SeqVec({0: 1 + 2j, 3: -0.5j})
        assert SeqVec.from_dense(v.to_dense(5)) == v
        with pytest.raises(DimensionMismatch):
            v.to_dense(3)

    @seed(32)
    @settings(max_examples=300, deadline=None)
    @given(st.lists(dense_entries, max_size=8), st.booleans())
    def test_from_dense_builds_what_one_entry_at_a_time_builds(self, values, real):
        arr = np.array(values, dtype=np.complex128)
        if real:
            arr = arr.real.copy()
        assert _built(arr, SeqVec.from_dense) == _built(arr, reference_from_dense)

    def test_from_dense_names_the_first_non_finite_entry(self):
        arr = np.array([1.5e308 + 1.5e308j, math.inf, math.nan], dtype=np.complex128)
        with pytest.raises(ValueError, match=r"^non-finite coefficient \(inf\+0j\)$"):
            SeqVec.from_dense(arr)
        with pytest.raises(OverflowError):
            SeqVec.from_dense(arr[:1])

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
            assert apply_power(op, n, v) == _plain_power(op, n, v)


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

    @seed(37)
    @settings(max_examples=300, deadline=None)
    @given(st.builds(DirectSum, _operators, _operators, st.integers(1, 8)), _sum_inputs)
    def test_direct_sum_stores_what_the_checking_constructor_stores(self, op, vec):
        with np.errstate(over="ignore", invalid="ignore"):  # in FiniteMatrix products
            assert _stored(lambda: op.apply(vec)) == _stored(lambda: reference_apply(op, vec))

    def test_finite_matrix_matches_numpy(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = FiniteMatrix(a)
        v = rand_vec(rng, max_index=4, max_terms=4)
        expected = a @ v.to_dense(4)
        assert np.allclose(op.apply(v).to_dense(4), expected)

    def test_finite_matrix_rejects_outside_support(self):
        op = FiniteMatrix(np.eye(2))
        with pytest.raises(DimensionMismatch):
            op.apply(SeqVec.basis(5))

    def test_finite_matrix_must_be_square(self):
        for bad in (((1.0, 2.0),), [[1, 2], [3]], [1, 2], []):
            with pytest.raises(ValueError):
                FiniteMatrix(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_finite_matrix_rejects_non_finite(self, bad):
        a = np.eye(3, dtype=np.complex128)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite coefficient"):
            FiniteMatrix(a)

    def test_finite_matrix_holds_a_read_only_copy(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        op = FiniteMatrix(a)
        a[0, 0] = 7.0
        assert op.array[0, 0] != 7.0
        assert op.array.dtype == np.complex128
        with pytest.raises(ValueError):
            op.array[0, 0] = 1.0

    def test_f_ordered_input_applies_like_its_c_ordered_copy(self, rng):
        # A transposed view is F-ordered; numpy's product rounds differently
        # on that layout, so the matrix must keep a C-ordered copy.
        for dim in range(2, 9):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            view = a.T
            assert view.flags.f_contiguous
            op, copy = FiniteMatrix(view), FiniteMatrix(np.ascontiguousarray(view))
            for _ in range(5):
                x = SeqVec.from_dense(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                assert op.apply(x) == copy.apply(x)


class TestApplyPower:
    def test_zero_power_is_identity(self, rng):
        v = rand_vec(rng)
        op = ScalarMultiple(2, BackwardShift())
        assert apply_power(op, 0, v) == v

    def test_jordan_block_cube(self):
        # [[2,1],[0,2]]^3 applied to (0,1) is (12,8)
        op = FiniteMatrix([[2, 1], [0, 2]])
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
        op = FiniteMatrix(a)
        v = rand_vec(rng, max_index=3, max_terms=3)
        lhs = apply_power(op, 5, v)
        rhs = apply_power(op, 2, apply_power(op, 3, v))
        assert norm(lhs - rhs) <= 1e-10 * max(1.0, norm(lhs))

    def test_subclasses_take_the_honest_loop(self):
        # Only the scaled-shift path is chosen by type; these take the honest loop.
        class Twice(Identity):
            def apply(self, vec):
                return vec * 2

        class ForwardTwice(ForwardShift):
            def apply(self, vec):
                return super().apply(vec) * 2

        assert apply_power(Twice(), 3, SeqVec.basis(0)) == SeqVec.basis(0, 8.0)
        assert apply_power(ForwardTwice(), 3, SeqVec.basis(0)) == SeqVec.basis(3, 8.0)

    @pytest.mark.parametrize("p", [1, 3])
    def test_a_forward_shift_steps_once_per_power(self, monkeypatch, p):
        apply = ForwardShift.apply
        calls = _count_applies(monkeypatch, ForwardShift)
        v = SeqVec({0: 1.5, 2: -1j, 7: 3.0})
        out = apply_power(ForwardShift(p), 4, v)
        assert len(calls) == 4
        assert out.items() == apply(ForwardShift(4 * p), v).items()

    def test_the_identity_steps_once_per_power(self, monkeypatch):
        calls = _count_applies(monkeypatch, Identity)
        v = SeqVec({1: 2.0, 4: 0.5j})
        assert apply_power(Identity(), 5, v) is v
        assert len(calls) == 5

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
            (FiniteMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), SeqVec({2: 1j}), 3),
            (ScalarMultiple(-1j, DirectSum(Identity(), BackwardShift(2), 1)), SeqVec({5: 1.0}), 3),
        ],
    )
    def test_stops_at_zero_like_the_plain_loop(self, op, vec, dies_after):
        counted = CountingOp(op)
        for n in range(dies_after + 4):
            expected = _plain_power(op, n, vec)
            counted.calls = 0
            assert apply_power(counted, n, vec) == expected
            assert bool(expected) == (n < dies_after)
            assert counted.calls == min(n, dies_after)


def _count_applies(monkeypatch, kind):
    """Record each ``kind.apply`` call in the returned list."""
    calls = []
    apply = kind.apply

    def counted(op, vec):
        calls.append(op)
        return apply(op, vec)

    monkeypatch.setattr(kind, "apply", counted)
    return calls


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


class TestNormPastOverflow:
    def test_squares_past_the_float_range(self):
        assert norm(SeqVec.basis(0, 2.0**600)) == 2.0**600
        assert norm(SeqVec.basis(5, -(2.0**600) * 1j)) == 2.0**600

    def test_partial_sums_past_the_float_range(self):
        # Each square is finite; their sum overflows inside fsum.
        v = SeqVec({0: 1e154, 1: 1e154j})
        assert norm(v) == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)

    def test_unscaled_below_the_range(self):
        v = SeqVec({0: 1e150, 3: -2e150})
        assert norm(v) == math.sqrt(math.fsum([1e300, 4e300]))


class TestNormPastUnderflow:
    def test_squares_that_vanish(self):
        assert norm(SeqVec.basis(0, 1e-200)) == 1e-200
        assert norm(SeqVec.basis(3, -1e-200j)) == 1e-200
        assert norm(SeqVec.basis(0, 1e-300)) == 1e-300  # the smallest stored modulus

    def test_squares_that_lose_digits(self):
        assert norm(SeqVec.basis(0, 3e-160)) == 3e-160

    def test_sums_of_tiny_squares(self):
        v = SeqVec({0: 3e-200, 1: 4e-200j})
        assert norm(v) == pytest.approx(5e-200, rel=1e-15)

    def test_zero_vector(self):
        assert norm(SeqVec()) == 0.0


class TestMaxOrNan:
    @pytest.mark.parametrize(
        "worst, value",
        [(0.0, math.nan), (math.nan, 1.0), (math.nan, math.inf), (math.inf, math.nan)],
    )
    def test_nan_on_either_side_wins(self, worst, value):
        assert math.isnan(max_or_nan(worst, value))

    @seed(21)
    @settings(max_examples=200)
    @given(
        st.floats(allow_nan=False) | st.floats(allow_nan=False).map(np.float64),
        st.floats(allow_nan=False) | st.floats(allow_nan=False).map(np.float64),
    )
    def test_is_max_without_nan(self, worst, value):
        assert max_or_nan(worst, value) is max(worst, value)

    def test_running_worst_keeps_a_nan(self):
        worst = 0.0
        for x in [1e-3, math.nan, 2.0, 0.5]:
            worst = max_or_nan(worst, x)
        assert math.isnan(worst)


def test_to_matrix_materializes_columns():
    op = DirectSum(ScalarMultiple(2, BackwardShift()), Identity(), 2)
    m = to_matrix(op, 4)
    expected = np.array(
        [[0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(m, expected)
