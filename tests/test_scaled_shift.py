"""The fast paths of the sparse layer against honest iteration.

``apply_power`` answers nested scalar multiples of one backward shift by
index arithmetic plus one value trajectory per entry, and a direct sum
whose left block moves no index up block by block; ``invariance_scan``
runs one trajectory that all basis vectors share, and ``transitivity_probe``
filters its grid once and carries the survivors' images.  These tests
compare them with plain loops of ``op.apply`` (``conftest._plain_power``),
because ``apply_power`` itself dispatches: results must agree bit for bit,
and where the loop raises, the same exception type with the same message.
"""

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
    OrbitlabError,
    PrefixZero,
    ResidueZero,
    RightBlockZero,
    ScalarMultiple,
    SeqVec,
    SupportIn,
    apply_power,
    dyadic_net,
    invariance_check,
    invariance_scan,
    membership_defect,
    norm,
    project,
    transitivity_probe,
)
from orbitlab.criterion import backsolve
from orbitlab.subspace import allowed_indices
from conftest import _outcome, _plain_power

# Complex and zero factors, |lam| < 1 down to pruning, and factors that
# overflow a few steps in, as non-finite or as finite products too large
# for the prune test.
factors = st.sampled_from(
    [2.0, -0.5, 1j, 1 + 1j, 0.75 - 0.25j, 0.0, 1.3, 1e-170, 1e150, 1.3e154 + 4.1e153j]
)
scaled_shifts = st.builds(
    lambda p, fs: _nest(BackwardShift(p), fs),
    st.integers(1, 3),
    st.lists(factors, max_size=3),
)
values = st.one_of(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308 + 1e308j, 1.7e308, -1.7e308j, 1e-299, 3e-300j]),
)
vectors = st.dictionaries(st.integers(0, 15), values, max_size=6).map(SeqVec)
patterns = st.one_of(
    st.builds(PrefixZero, st.integers(0, 4)),
    st.integers(2, 4).flatmap(lambda b: st.builds(ResidueZero, st.integers(0, b - 1), st.just(b))),
    st.builds(SupportIn, st.integers(1, 3)),
    st.builds(RightBlockZero, st.integers(1, 8)),
)
powers = st.lists(st.integers(0, 12), max_size=6, unique=True).map(sorted)


def _nest(op, fs):
    for f in fs:
        op = ScalarMultiple(f, op)
    return op


def _outcomes(results):
    out = []
    try:
        for r in results:
            out.append(r)
    except (OrbitlabError, ValueError, ArithmeticError) as exc:
        out.append((type(exc), str(exc)))
    return out


def _plain_invariance(op, pattern, n, dim):
    for i in allowed_indices(pattern, dim):
        if membership_defect(_plain_power(op, n, SeqVec.basis(i)), pattern) != 0.0:
            return False
    return True


@seed(11)
@settings(max_examples=500, deadline=None)
@given(scaled_shifts, st.integers(0, 12), vectors)
def test_apply_power_matches_plain_loop(op, n, vec):
    assert _outcome(lambda: apply_power(op, n, vec)) == _outcome(lambda: _plain_power(op, n, vec))


@pytest.mark.parametrize(
    "op, n, vec, expected",
    [
        # Entry 0 leaves through the first shift, before any product.
        (ScalarMultiple(1e300, BackwardShift(1)), 5, {0: 1e300}, ()),
        # Under B^2, entry 1 leaves at once and entry 3 overflows in its one step.
        (ScalarMultiple(1e10, BackwardShift(2)), 3, {1: 1e300}, ()),
        (
            ScalarMultiple(1e10, BackwardShift(2)),
            3,
            {3: 1e300},
            (ValueError, "non-finite coefficient (inf+0j)"),
        ),
        # |lam| < 1: entry 4 is pruned on its second step, entry 9 survives.
        (ScalarMultiple(1e-160, BackwardShift(1)), 2, {4: 1.0, 9: 1e160}, (7,)),
        # A finite product whose modulus overflows the prune test.
        (
            ScalarMultiple(1.3, BackwardShift(1)),
            1,
            {1: 1e308 + 1e308j},
            (OverflowError, "absolute value too large"),
        ),
        # Within one round every product is checked for finiteness before any
        # prune test, so index 3's inf wins over index 1's overflow.
        (
            ScalarMultiple(1.3, BackwardShift(1)),
            2,
            {2: 1e308 + 1e308j, 4: 1.7e308},
            (ValueError, "non-finite coefficient (inf+0j)"),
        ),
        # Rounds come first: index 1's overflow under the inner factor wins
        # over index 4's inf under the outer factor of the same step.
        (
            ScalarMultiple(1e10, ScalarMultiple(1.3, BackwardShift(1))),
            1,
            {1: 1e308 + 1e308j, 4: 1e300},
            (OverflowError, "absolute value too large"),
        ),
    ],
)
def test_entries_die_and_fail_like_the_plain_loop(op, n, vec, expected):
    vec = SeqVec(vec)
    plain = _outcome(lambda: _plain_power(op, n, vec))
    assert _outcome(lambda: apply_power(op, n, vec)) == plain
    if isinstance(plain, list):
        assert tuple(i for i, _, _ in plain) == expected
    else:
        assert plain == expected


# Every operator kind, with the factors above as scalars, weights and matrix
# entries, so blocks prune, overflow, leave a matrix's block or die.  Small
# splits let a matrix or a forward shift on the left reach past the split.
matrix_entries = st.one_of(st.sampled_from([1.0, -0.5j, 0.75 - 0.25j]), factors)
matrices = st.integers(1, 4).flatmap(
    lambda d: st.lists(matrix_entries, min_size=d * d, max_size=d * d).map(
        lambda fs: FiniteMatrix(np.reshape(fs, (d, d)))
    )
)
leaves = st.one_of(
    st.builds(BackwardShift, st.integers(1, 3)),
    st.builds(ForwardShift, st.integers(1, 3)),
    st.just(Identity()),
    st.builds(Diagonal, st.lists(st.one_of(factors, values), max_size=6).map(tuple)),
    matrices,
    scaled_shifts,
)
splits = st.integers(1, 5)


def _trees(depth):
    if depth == 0:
        return leaves
    sub = _trees(depth - 1)
    return st.one_of(
        leaves, st.builds(DirectSum, sub, sub, splits), st.builds(ScalarMultiple, factors, sub)
    )


# Direct sums up to three deep, each with a vector that has entries on both
# sides of its split.
sums_and_vectors = st.builds(DirectSum, _trees(2), _trees(2), splits).flatmap(
    lambda op: st.tuples(
        st.just(op),
        st.dictionaries(
            st.integers(0, op.split_index + 6), values, min_size=1, max_size=8
        ).map(SeqVec),
    )
)


@seed(14)
@settings(max_examples=400, deadline=None)
@given(sums_and_vectors, st.integers(0, 12))
def test_direct_sum_powers_match_plain_loop(case, n):
    op, vec = case
    with np.errstate(all="ignore"):
        fast = _outcome(lambda: apply_power(op, n, vec))
        assert fast == _outcome(lambda: _plain_power(op, n, vec))


# One operator of each kind, and direct sums whose right block moves an
# index up, so that some cross a split of 3 and some stay inside it.
KINDS = [
    BackwardShift(2),
    ForwardShift(1),
    Identity(),
    ScalarMultiple(-0.5j, BackwardShift(1)),
    ScalarMultiple(1 + 1j, Identity()),
    Diagonal((2.0, 0.5j, -1.0, 3.0)),
    FiniteMatrix(np.arange(16.0).reshape(4, 4) / 8),
    DirectSum(BackwardShift(1), ForwardShift(1), 1),
    DirectSum(Identity(), Diagonal((1j, 2.0)), 2),
]
KIND_IDS = ["B2", "S", "I", "scaledB", "scaledI", "diag", "matrix", "sumBS", "sumID"]


@pytest.mark.parametrize("left", KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("right", KINDS, ids=KIND_IDS)
def test_every_kind_on_either_side_matches_plain_loop(left, right):
    op = DirectSum(left, right, 3)
    vec = SeqVec({0: 1 + 1j, 1: -0.5, 2: 2j, 3: 1.0, 4: 0.25, 6: 1j})
    for n in range(6):
        assert _outcome(lambda: apply_power(op, n, vec)) == _outcome(
            lambda: _plain_power(op, n, vec)
        )


# 1e200 B takes index 3 to 1e200 and then to inf, failing on the second
# step.  The honest loop steps both blocks together, so a right block that
# fails on the first step must be the error raised, although the block rule
# powers the left block first.
OVERFLOWING_LEFT = ScalarMultiple(1e200, BackwardShift(1))


@pytest.mark.parametrize(
    "op, vec, expected",
    [
        (
            DirectSum(OVERFLOWING_LEFT, FiniteMatrix([[1.0]]), 4),
            {3: 1.0, 6: 1.0},
            (DimensionMismatch, "support index 2 outside matrix block of dimension 1"),
        ),
        (
            DirectSum(OVERFLOWING_LEFT, ScalarMultiple(1e300, Identity()), 4),
            {3: 1.0, 4: 1e10j},
            (ValueError, "non-finite coefficient infj"),
        ),
        # The left block fails first: its error stands.
        (
            DirectSum(OVERFLOWING_LEFT, ScalarMultiple(1e300, Identity()), 4),
            {3: 1.0, 4: 1e-10j},
            (ValueError, "non-finite coefficient (inf+0j)"),
        ),
    ],
)
def test_direct_sum_raises_what_the_plain_loop_raises(op, vec, expected):
    vec = SeqVec(vec)
    assert _outcome(lambda: _plain_power(op, 3, vec)) == expected
    assert _outcome(lambda: apply_power(op, 3, vec)) == expected


@seed(12)
@settings(max_examples=400, deadline=None)
@given(scaled_shifts, patterns, powers, st.integers(0, 16))
def test_invariance_scan_matches_plain_checks(op, pattern, ns, dim):
    expected = _outcomes(_plain_invariance(op, pattern, n, dim) for n in ns)
    assert _outcomes(invariance_scan(op, pattern, ns, dim)) == expected
    assert _outcomes(invariance_check(op, pattern, n, dim) for n in ns) == expected


def test_invariance_scan_raises_only_where_a_basis_vector_overflows():
    # 1e200 B overflows on a vector's second step: basis vector i takes
    # min(n, i) steps, so dimension 2 never raises and dimension 3 raises
    # from power 2 on.
    op = ScalarMultiple(1e200, BackwardShift(1))
    pattern = PrefixZero(0)
    assert list(invariance_scan(op, pattern, range(6), 2)) == [True] * 6
    scan = invariance_scan(op, pattern, range(6), 3)
    assert [next(scan), next(scan)] == [True, True]
    with pytest.raises(ValueError, match=r"non-finite coefficient \(inf\+0j\)"):
        next(scan)


def test_invariance_scan_sees_a_defect_whose_square_underflows():
    # 1e-170 B moves basis vector 1 onto forbidden index 0 with value 1e-170,
    # whose squared modulus underflows; its defect must still be nonzero.
    op, pattern = ScalarMultiple(1e-170, BackwardShift(1)), PrefixZero(1)
    assert membership_defect(SeqVec.basis(0, 1e-170), pattern) == 1e-170
    assert not _plain_invariance(op, pattern, 1, 2)
    assert not invariance_check(op, pattern, 1, 2)
    assert list(invariance_scan(op, pattern, [1], 2)) == [False]


def _scratch_probe(op, pattern, u_center, u_radius, v_center, v_radius, horizon, dim, grid):
    """``transitivity_probe`` with every power checked from scratch."""
    level, support = grid
    grid = [t * v_radius for t in dyadic_net(pattern, support, level)]
    backsolvable = isinstance(op, BackwardShift) or isinstance(op.operand, BackwardShift)
    for n in range(horizon + 1):
        if not _plain_invariance(op, pattern, n, dim):
            continue
        candidates = [v_center + g for g in grid]
        if backsolvable and n >= 1:
            residual = u_center - _plain_power(op, n, v_center)
            candidates.append(v_center + backsolve(op, n, residual))
        for w in candidates:
            if membership_defect(w, pattern) != 0.0:
                continue
            if norm(w - v_center) >= v_radius:
                continue
            image = _plain_power(op, n, w)
            if membership_defect(image, pattern) != 0.0:
                continue
            if norm(image - u_center) < u_radius:
                return n
    return None


@seed(13)
@settings(max_examples=120, deadline=None)
@given(
    scaled_shifts,
    patterns,
    vectors,
    vectors,
    st.sampled_from([0.25, 1.0, 3.0]),
    st.sampled_from([0.5, 1.0, 2.5]),
    st.integers(0, 8),
    st.integers(0, 16),
    st.sampled_from([(0, 1), (0, 3), (1, 2)]),
)
def test_transitivity_probe_matches_scratch(op, pattern, u, v, u_rad, v_rad, horizon, dim, grid):
    u_center, v_center = project(u, pattern), project(v, pattern)
    args = (op, pattern, u_center, u_rad, v_center, v_rad, horizon, dim)
    carried = _outcome(lambda: transitivity_probe(*args, *grid))
    assert carried == _outcome(lambda: _scratch_probe(*args, grid))

