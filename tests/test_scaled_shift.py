"""The fast paths of the sparse layer against honest iteration.

``apply_power`` answers nested scalar multiples of one backward shift by
index arithmetic plus one value trajectory per entry, and steps a direct
sum honestly, whatever its blocks; ``invariance_scan``
runs one trajectory that all basis vectors share; ``transitivity_probe``
screens its grid once from per-entry terms, carries the survivors' images,
applies one survivor per kept part and drops the copies;
and condition II of ``check_criterion`` reads its norms off each entry's
value trajectory.  These tests
compare them with plain loops of ``op.apply`` (``conftest._plain_power``),
because ``apply_power`` itself dispatches: results must agree bit for bit,
and where the loop raises, the same exception type with the same message.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from orbitlab import (
    BackwardShift,
    DenseFamilySpec,
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
    check_criterion,
    dense_family,
    distance,
    dyadic_net,
    invariance_check,
    invariance_scan,
    membership_defect,
    norm,
    project,
    transitivity_probe,
)
from orbitlab import criterion
from orbitlab.criterion import RecoveryRecord, backsolve
from orbitlab.seqspace import max_or_nan
from orbitlab.subspace import allowed_indices
from conftest import CountingOp, _outcome, _plain_power

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
# fails on the first step must be the error raised, though the left block,
# on its own, would fail too.
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
    """``transitivity_probe`` with every power checked from scratch, every
    candidate tried and no survivor dropped."""
    level, support = grid
    grid = [t * v_radius for t in dyadic_net(pattern, support, level)]
    # Exactly lam B^b and B^b have a preimage; a subclass or a wrapper does not.
    backsolvable = type(op) is BackwardShift or (
        type(op) is ScalarMultiple and type(op.operand) is BackwardShift
    )
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


class OwnScaledShift(ScalarMultiple):
    """A subclass may override ``apply``, so no fast path reads it as a
    scaled shift: every power is the honest loop."""


# Every kind the probe can meet: scaled shifts, which it backsolves, and
# direct sums, diagonals, matrices, a subclass and a CountingOp wrapper,
# which it carries through the honest loop.
probe_ops = st.one_of(
    scaled_shifts,
    st.builds(DirectSum, _trees(1), _trees(1), splits),
    st.builds(Diagonal, st.lists(st.one_of(factors, values), max_size=6).map(tuple)),
    matrices,
    st.builds(OwnScaledShift, factors, st.builds(BackwardShift, st.integers(1, 3))),
    scaled_shifts.map(CountingOp),
)


@seed(13)
@settings(max_examples=120, deadline=None)
@given(
    probe_ops,
    patterns,
    vectors,
    vectors,
    st.sampled_from([0.25, 1.0, 3.0, 1e-310, 2.0**-499, 1e-160, 1e154, 1e300, 1.7e308]),
    st.sampled_from([0.5, 1.0, 2.5, 1e-310, 2.0**-499, 2.0**-497, 1e-160, 1e300, 1.7e308]),
    st.integers(0, 8),
    st.integers(0, 16),
    st.sampled_from([(0, 1), (0, 3), (1, 2)]),
)
def test_transitivity_probe_matches_scratch(op, pattern, u, v, u_rad, v_rad, horizon, dim, grid):
    u_center, v_center = project(u, pattern), project(v, pattern)
    args = (op, pattern, u_center, u_rad, v_center, v_rad, horizon, dim)
    with np.errstate(all="ignore"):
        carried = _outcome(lambda: transitivity_probe(*args, *grid))
        assert carried == _outcome(lambda: _scratch_probe(*args, grid))


_RESIDUE = ResidueZero(0, 2)
_SPEC = DenseFamilySpec(_RESIDUE, 8, 1)


@pytest.mark.parametrize(
    "op, expected",
    [
        (ScalarMultiple(2.0, BackwardShift(1)), 2),
        (ScalarMultiple(2 * cmath.exp(0.7j), BackwardShift(1)), 2),
        (ScalarMultiple(0.5, BackwardShift(2)), None),
        (CountingOp(ScalarMultiple(2.0, BackwardShift(1))), 2),
        (OwnScaledShift(2.0, BackwardShift(1)), 2),
        (DirectSum(ScalarMultiple(2.0, BackwardShift(1)), Identity(), 64), 2),
        (Diagonal((1.0, 2.0, 0.5, -1j, 1.0, 3.0)), None),
    ],
    ids=["2B", "rotatedB", "halfB2", "counting", "subclass", "sum", "diagonal"],
)
def test_probe_on_a_collapsing_grid_matches_scratch(op, expected):
    # At level 2 and support 4 the grid keeps 1281 points, 1257 of them in
    # the V-ball around {1: -1-0.5j}.  lam B drops index 1 on its way to
    # power 2, so they collapse onto 45 images, all at index 1; the one
    # from w_3 = 0.125 lands on the U-center {1: 0.5}, well after the first
    # image with that support.
    u_center, v_center = dense_family(_SPEC, 17), dense_family(_SPEC, 2)
    args = (op, _RESIDUE, u_center, 0.25, v_center, 0.25, 4, 16)
    found = _outcome(lambda: transitivity_probe(*args, 2, 4))
    assert found == _outcome(lambda: _scratch_probe(*args, (2, 4))) == expected


def test_the_collapsing_grid_collapses():
    op = ScalarMultiple(2.0, BackwardShift(1))
    v_center = dense_family(_SPEC, 2)
    survivors = [
        w
        for w in (v_center + 0.25 * g for g in dyadic_net(_RESIDUE, 4, 2))
        if membership_defect(w, _RESIDUE) == 0.0 and norm(w - v_center) < 0.25
    ]
    images = {frozenset(_plain_power(op, 2, w).items()) for w in survivors}
    assert len(survivors) > 20 * len(images)
    # With a U-ball that nothing hits, carrying every survivor through
    # powers 2, 4 and 6 takes 2 applications per survivor and power.  The
    # copies are dropped before power 4, so powers 4 and 6 cost almost nothing.
    counted = CountingOp(op)
    u_center = dense_family(_SPEC, 1)
    args = (counted, _RESIDUE, u_center, 1e-3, v_center, 0.25, 6, 16, 2, 4)
    assert transitivity_probe(*args) is None
    assert counted.calls < 2 * len(survivors) * 3 / 2


def test_the_collapsing_grid_is_applied_once_per_kept_part(monkeypatch):
    # At power 2 the 1257 survivors share 45 kept parts (entries at index
    # >= 2), so the probe applies 45 of them, plus v_center and the
    # preimage's forward shift: 47 calls where applying every survivor
    # takes 1259.
    calls = []

    def counting(op, n, vec):
        calls.append(n)
        return apply_power(op, n, vec)

    monkeypatch.setattr(criterion, "apply_power", counting)
    op = ScalarMultiple(2.0, BackwardShift(1))
    u_center, v_center = dense_family(_SPEC, 1), dense_family(_SPEC, 2)
    args = (op, _RESIDUE, u_center, 1e-3, v_center, 0.25, 2, 16, 2, 4)
    assert transitivity_probe(*args) is None
    assert calls == [2] * len(calls) and len(calls) <= 50


def test_survivors_of_any_operator_are_applied_once_per_distinct_entries(monkeypatch):
    # Diagonal is no scaled shift, so survivors are grouped by all their
    # entries.  Weight 0 on the allowed index 1 collapses the 1257 survivors
    # of the V-ball onto their index-3 parts after one step, and each later
    # step applies each distinct image of the step before once, in order.
    op = Diagonal((1.0, 0.0, 1.0, 0.5))
    u_center, v_center = SeqVec({3: 100.0}), dense_family(_SPEC, 2)
    args = (op, _RESIDUE, u_center, 1e-3, v_center, 0.25, 3, 16)
    assert _outcome(lambda: _scratch_probe(*args, (2, 4))) is None
    applied = []

    def counting(op, n, vec):
        assert n == 1
        applied.append(frozenset(vec.items()))
        return apply_power(op, n, vec)

    monkeypatch.setattr(criterion, "apply_power", counting)
    assert transitivity_probe(*args, 2, 4) is None

    step = [
        w
        for w in (v_center + 0.25 * g for g in dyadic_net(_RESIDUE, 4, 2))
        if membership_defect(w, _RESIDUE) == 0.0 and norm(w - v_center) < 0.25
    ]
    expected, sizes = [], []
    for _ in range(3):
        firsts = {}
        for w in step:
            firsts.setdefault(frozenset(w.items()), w)
        step = list(firsts.values())
        expected += [frozenset(w.items()) for w in step]
        sizes.append(len(step))
        step = [op.apply(w) for w in step]
    assert applied == expected
    assert sizes[0] > 10 * sizes[1] > 0


@pytest.mark.parametrize(
    "op, pattern, u_center, v_center, v_radius, dim, grid, expected",
    [
        # Only index 1 of the grid is allowed, so at power 2 (power 1 is not
        # invariant) every survivor has the kept part {3: 1e-100}.  Index 1
        # takes one step and overflows for the survivors past 1.8e108; the
        # first survivor's does not.  Not backsolvable, so no preimage
        # raises first.
        (
            _nest(BackwardShift(1), [1e100, 1e100]),
            _RESIDUE,
            SeqVec({1: 1.0}),
            SeqVec({1: 1e108, 3: 1e-100}),
            2e108,
            2,
            (1, 2),
            (ValueError, "non-finite coefficient (inf-1.0000000000000002e+308j)"),
        ),
        # The same shape with 1e-20 B: index 1, below 1e-280, prunes to zero
        # in its one step, and the kept part {3: 1.0} lands on the U-center.
        (
            ScalarMultiple(1e-20, BackwardShift(1)),
            _RESIDUE,
            SeqVec({1: 1e-40}),
            SeqVec({1: 1e-282, 3: 1.0}),
            1e-282,
            2,
            (1, 2),
            2,
        ),
        # A complex lam on residue 0 mod 3: power 3 is the first invariant
        # one; indices 1 and 2 take one and two steps, 4 and 5 are kept, and
        # the 577 survivors share 65 kept parts.
        (
            ScalarMultiple(1.5 * cmath.exp(0.7j), BackwardShift(1)),
            ResidueZero(0, 3),
            SeqVec({1: 0.5 - 0.25j, 2: 1.0}),
            SeqVec({1: 0.5, 4: 0.1 + 0.2j, 5: -0.3j}),
            1.0,
            16,
            (1, 6),
            3,
        ),
    ],
    ids=["low-entry-overflows", "low-entry-prunes", "complex-lam"],
)
def test_probe_grouping_boundaries_match_scratch(
    op, pattern, u_center, v_center, v_radius, dim, grid, expected
):
    args = (op, pattern, u_center, 0.25, v_center, v_radius, 6, dim)
    found = _outcome(lambda: transitivity_probe(*args, *grid))
    assert found == _outcome(lambda: _scratch_probe(*args, grid)) == expected


def _stored(vec):
    """Stored entries in insertion order, with their exact bits."""
    return [(i, z.real.hex(), z.imag.hex()) for i, z in vec._entries.items()]


def _screened(screen):
    return [(_stored(w), to_u.hex()) for w, to_u in screen]


def _built(net, u_center, v_center, v_radius):
    """What ``criterion._grid_screen`` yields, from the candidates
    v_center + t v_radius themselves."""
    return [
        (_stored(w), distance(w, u_center).hex())
        for w in [v_center + t * v_radius for t in net]
        if distance(w, v_center) < v_radius
    ]


_DOUBLING = ScalarMultiple(2.0, BackwardShift(1))


@pytest.mark.parametrize(
    "op, u_center, u_radius, v_center, v_radius, grid, fallback, expected",
    [
        # Adding the grid to v_center overflows before the zero point, which
        # lies on the U-center, is tested.
        (
            _DOUBLING,
            SeqVec({1: 1e308}),
            0.25,
            SeqVec({1: 1e308}),
            1.7e308,
            (1, 4),
            True,
            (OverflowError, "absolute value too large"),
        ),
        # The grid value 0.5 cancels v_center's entry to 0, and the candidate
        # {3: 0.5} is the U-center.
        (_DOUBLING, SeqVec({3: 0.5}), 0.1, SeqVec({1: -0.5}), 1.0, (1, 4), False, 0),
        # {1: 1.0} is at distance exactly 1.0 from v_center: outside the open
        # V-ball, though it is the U-center.
        (Identity(), SeqVec({1: 1.0}), 0.25, SeqVec(), 1.0, (1, 4), False, None),
        # Every scaled grid value prunes, so every candidate is v_center.
        (
            _DOUBLING,
            SeqVec({1: 0.5}),
            0.25,
            SeqVec({1: -1 - 0.5j}),
            1e-310,
            (2, 4),
            False,
            None,
        ),
        # Differences of modulus 2**-500 against v_center, next to the
        # rescaled sum, and 2**-498, clear of it.
        (_DOUBLING, SeqVec({1: 2.0**-499}), 2.0**-500, SeqVec(), 2.0**-499, (1, 4), True, 2),
        (_DOUBLING, SeqVec({1: 2.0**-497}), 2.0**-498, SeqVec(), 2.0**-497, (1, 4), False, 2),
        # Distances to the U-center whose squares all underflow: summed
        # unscaled, they would read 0 and hit at n = 0.
        (Identity(), SeqVec({1: 3e-170}), 1e-171, SeqVec({1: 1e-170}), 1e-170, (1, 4), True, None),
        # Squares of 1.44e308 each: their sum overflows, and the distance,
        # 1.697e154 once rescaled, puts v_center in the U-ball.
        (
            _DOUBLING,
            SeqVec({1: 1.2e154, 3: 1.2e154}),
            1.7e154,
            SeqVec(),
            0.25,
            (1, 4),
            True,
            0,
        ),
        # The difference to the U-center overflows in the first hit test.
        (
            _DOUBLING,
            SeqVec({1: -1e308}),
            0.25,
            SeqVec({1: 1e308}),
            0.25,
            (1, 4),
            True,
            (ValueError, "non-finite coefficient (inf+0j)"),
        ),
    ],
    ids=[
        "add-overflows-before-a-hit",
        "cancels-to-zero",
        "on-the-sphere",
        "every-product-prunes",
        "radius-2**-499",
        "radius-2**-497",
        "u-terms-underflow",
        "squares-overflow",
        "hit-test-overflows",
    ],
)
def test_probe_range_edges_match_scratch(
    op, u_center, u_radius, v_center, v_radius, grid, fallback, expected
):
    args = (op, _RESIDUE, u_center, u_radius, v_center, v_radius, 4, 16)
    found = _outcome(lambda: transitivity_probe(*args, *grid))
    assert found == _outcome(lambda: _scratch_probe(*args, grid)) == expected
    net = dyadic_net(_RESIDUE, grid[1], grid[0])
    screen = criterion._grid_screen(net, [1, 3], u_center, v_center, v_radius)
    assert (screen is None) == fallback
    if screen is not None:
        assert _screened(screen) == _built(net, u_center, v_center, v_radius)


@seed(18)
@settings(max_examples=120, deadline=None)
@given(
    patterns,
    vectors,
    vectors,
    st.sampled_from([0.25, 1.0, 2.5, 1e-310, 1e-300, 2.0**-497, 1e-160, 1e154, 1e300]),
    st.sampled_from([(0, 1), (0, 3), (1, 2), (1, 3), (2, 2)]),
)
def test_the_grid_screen_builds_and_measures_what_the_sums_do(pattern, u, v, v_radius, grid):
    # Where the gate lets it run, the screen yields each candidate in the
    # V-ball with the stored entries, in order, that v_center + t v_radius
    # holds, and with its distance to u_center; the sums raise nothing.
    u_center, v_center = project(u, pattern), project(v, pattern)
    level, support = grid
    allowed = allowed_indices(pattern, support)
    assume(allowed)
    net = dyadic_net(pattern, support, level)
    screen = criterion._grid_screen(net, allowed, u_center, v_center, v_radius)
    assume(screen is not None)
    assert _screened(screen) == _built(net, u_center, v_center, v_radius)


@pytest.fixture
def arithmetic(monkeypatch):
    """Counts of ``distance`` calls in ``criterion`` and of ``SeqVec``'s
    ``+`` and ``*``."""
    counts = {"distance": 0, "+": 0, "*": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(criterion, "distance", counted("distance", criterion.distance))
    monkeypatch.setattr(SeqVec, "__add__", counted("+", SeqVec.__add__))
    monkeypatch.setattr(SeqVec, "__mul__", counted("*", SeqVec.__mul__))
    return counts


def test_the_grid_screen_does_no_per_point_arithmetic(arithmetic):
    # The collapsing grid's 1281 points are screened from their distinct
    # entries; what is left is the 45 images at power 2 and the preimage.
    u_center, v_center = dense_family(_SPEC, 1), dense_family(_SPEC, 2)
    args = (_DOUBLING, _RESIDUE, u_center, 1e-3, v_center, 0.25, 2, 16, 2, 4)
    assert len(dyadic_net(_RESIDUE, 4, 2)) == 1281
    assert transitivity_probe(*args) is None
    assert sum(arithmetic.values()) < 100


def test_the_grid_screen_falls_back_past_the_float_range(arithmetic):
    # Every grid point is scaled, and the sums raise before any is tested.
    center = SeqVec({1: 1e308})
    args = (_DOUBLING, _RESIDUE, center, 0.25, center, 1.7e308, 4, 16, 1, 4)
    with pytest.raises(OverflowError, match="absolute value too large"):
        transitivity_probe(*args)
    assert arithmetic["*"] == len(dyadic_net(_RESIDUE, 4, 1)) and arithmetic["+"] > 0
    assert arithmetic["distance"] == 0


# Condition II of check_criterion against backsolve and the plain loop.  The
# moduli 0.5, 1, 2 and 3 at several phases, and the bare shift; powers up to
# where lam^-n leaves the float range; values up to the largest float, so
# that a scaled preimage overflows, or a product overflows on its way back.
lam_moduli = st.sampled_from([0.5, 1.0, 2.0, 3.0])
lam_phases = st.sampled_from([0.0, 0.7, math.pi / 2, math.pi])
shift_ops = st.one_of(
    st.builds(
        lambda r, t, b: ScalarMultiple(r * cmath.exp(1j * t), BackwardShift(b)),
        lam_moduli,
        lam_phases,
        st.integers(1, 3),
    ),
    st.builds(BackwardShift, st.integers(1, 3)),
)
recovery_values = st.one_of(
    values, st.sampled_from([1.7976931348623157e308, -1.797e308j, 1.27e308 - 1.27e308j, 1e10])
)
samples = st.lists(
    st.dictionaries(st.integers(0, 8), recovery_values, max_size=4).map(SeqVec),
    min_size=1,
    max_size=3,
)
recovery_powers = st.lists(
    st.one_of(st.integers(1, 40), st.sampled_from([100, 101, 700, 1023, 1024, 1100])),
    min_size=1,
    max_size=4,
    unique=True,
).map(sorted)


def _honest_recovery(op, ys, nks, tol):
    """Condition II's records, by ``backsolve`` and ``op.apply`` n times."""
    lam_abs = abs(op.factor) if isinstance(op, ScalarMultiple) else 1.0
    records = []
    for i, y in enumerate(ys):
        y_norm = norm(y)
        norms, worst, law = [], 0.0, 0.0
        for n in nks:
            x = backsolve(op, n, y)
            norms.append(norm(x))
            worst = max_or_nan(worst, norm(_plain_power(op, n, x) - y))
            if y_norm > 0.0:
                law = max_or_nan(law, abs(norms[-1] - y_norm * lam_abs ** (-n)) / y_norm)
        monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(norms, norms[1:]))
        passed = worst <= tol and norms[-1] <= tol and monotone
        records.append(RecoveryRecord(i, norms[-1], monotone, worst, law, passed))
    return tuple(records)


def _recovery_outcome(fn):
    # repr shows every float exactly, and a NaN law deviation as itself.
    return repr(_outcome(fn))


@seed(15)
@settings(max_examples=120, deadline=None)
@given(shift_ops, samples, recovery_powers)
def test_condition_two_matches_backsolve_and_the_plain_loop(op, ys, nks):
    fast = _recovery_outcome(
        lambda: check_criterion(op, PrefixZero(0), [], ys, nks, 0, 1e-9).recovery
    )
    assert fast == _recovery_outcome(lambda: _honest_recovery(op, ys, nks, 1e-9))


@pytest.mark.parametrize(
    "op, y, nks, expected",
    [
        # 0.5^-1024 is past the float range.
        (
            ScalarMultiple(0.5, BackwardShift(1)),
            {0: 1.0},
            [3, 1024],
            (ArithmeticError, "backsolve: lambda^-n is past the float range"),
        ),
        # The scaled preimage 1e10 * 2^1000 is infinite.
        (
            ScalarMultiple(0.5, BackwardShift(2)),
            {1: 1e10},
            [1000],
            (ValueError, "non-finite coefficient (inf+0j)"),
        ),
        # At n = 5, lam = 3 brings the largest float back as inf on the last round.
        (
            ScalarMultiple(3.0, BackwardShift(1)),
            {0: 1.7976931348623157e308},
            [1, 2, 5],
            (ValueError, "non-finite coefficient (inf+0j)"),
        ),
        # Rotations drift the largest float's modulus past the float range.
        (
            ScalarMultiple(cmath.exp(0.7j), BackwardShift(1)),
            {0: 1.7976931348623157e308},
            list(range(1, 30)),
            (OverflowError, "absolute value too large"),
        ),
        # The scaled preimage is made in index order, so index 1's product
        # raises, although y stores index 5 first.
        (
            ScalarMultiple(0.5, BackwardShift(1)),
            {5: 1e10, 1: -1e10j},
            [1000],
            (ValueError, "non-finite coefficient (-0-infj)"),
        ),
        # Nothing fails: the recovery records themselves are compared.
        (ScalarMultiple(2 * cmath.exp(0.7j), BackwardShift(2)), {1: 0.5, 4: -1j}, [3, 9], None),
        # 1e200^-2 is past the float range, though complex power gives nan+nanj.
        (
            ScalarMultiple(1e200, BackwardShift(1)),
            {0: 1.0},
            [1, 2],
            (ArithmeticError, "backsolve: lambda^-n is past the float range"),
        ),
    ],
)
def test_condition_two_fails_where_the_plain_loop_fails(op, y, nks, expected):
    ys = [SeqVec(y)]
    fast = _outcome(lambda: check_criterion(op, PrefixZero(0), [], ys, nks, 0, 1e-9).recovery)
    assert repr(fast) == repr(_outcome(lambda: _honest_recovery(op, ys, nks, 1e-9)))
    if expected is not None:
        assert fast[0] is expected[0] and fast[1].startswith(expected[1])
