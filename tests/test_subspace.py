import math
from itertools import product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orbitlab import (
    BackwardShift,
    DenseFamilySpec,
    PrefixZero,
    ResidueZero,
    RightBlockZero,
    ScalarMultiple,
    SeqVec,
    SupportIn,
    dense_family,
    dyadic_net,
    invariance_check,
    invariance_scan,
    membership_defect,
    norm,
    project,
)
from orbitlab import subspace
from orbitlab.subspace import (
    NET_POINT_CAP,
    _digit_value,
    _grid_side,
    allowed_indices,
    family_level_size,
)
from conftest import rand_vec

finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e6
)
sparse_vecs = st.dictionaries(st.integers(0, 40), finite_complex, max_size=8).map(SeqVec)


class TestPatterns:
    def test_prefix_forbids_head(self):
        p = PrefixZero(3)
        assert [p.forbids(i) for i in range(5)] == [True, True, True, False, False]

    def test_residue_forbids_arithmetic_progression(self):
        p = ResidueZero(1, 3)
        assert [i for i in range(10) if p.forbids(i)] == [1, 4, 7]

    def test_support_in_keeps_multiples(self):
        p = SupportIn(2)
        assert [i for i in range(6) if not p.forbids(i)] == [0, 2, 4]

    def test_right_block_forbids_tail(self):
        p = RightBlockZero(4)
        assert not p.forbids(3)
        assert p.forbids(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrefixZero(-1)
        with pytest.raises(ValueError):
            ResidueZero(2, 2)
        with pytest.raises(ValueError):
            ResidueZero(0, 1)
        with pytest.raises(ValueError):
            SupportIn(0)
        with pytest.raises(ValueError):
            RightBlockZero(0)

    def test_allowed_indices(self):
        assert allowed_indices(PrefixZero(3), 6) == [3, 4, 5]
        assert allowed_indices(ResidueZero(0, 2), 8) == [1, 3, 5, 7]


class TestMembership:
    def test_defect_values(self):
        p = PrefixZero(3)
        assert membership_defect(SeqVec.basis(0), p) == 1.0
        assert membership_defect(SeqVec.basis(5), p) == 0.0
        v = SeqVec({0: 1.0, 2: 1.0})
        assert membership_defect(v, ResidueZero(0, 2)) == math.sqrt(2.0)

    def test_member_iff_defect_exactly_zero(self):
        p = ResidueZero(0, 2)
        tiny = 2.0**-300  # square still representable
        v = SeqVec({1: 1e-200, 2: tiny})
        assert membership_defect(v, p) == tiny

    def test_project_idempotent(self, rng):
        p = ResidueZero(0, 3)
        for _ in range(30):
            v = rand_vec(rng)
            pv = project(v, p)
            assert project(pv, p) == pv
            assert membership_defect(pv, p) == 0.0

    @seed(7)
    @settings(max_examples=60, deadline=None)
    @given(sparse_vecs)
    def test_projection_pythagoras(self, v):
        p = PrefixZero(4)
        lhs = norm(v) ** 2
        rhs = norm(project(v, p)) ** 2 + membership_defect(v, p) ** 2
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)


class TestInvariance:
    def test_backward_shift_on_even_zero_pattern(self):
        p = ResidueZero(0, 2)
        assert invariance_check(BackwardShift(), p, 2, 16)
        assert not invariance_check(BackwardShift(), p, 1, 16)

    def test_scaled_shift_never_preserves_prefix(self):
        op = ScalarMultiple(2, BackwardShift())
        p = PrefixZero(3)
        assert all(not invariance_check(op, p, n, 64) for n in range(1, 33))

    def test_power_zero_always_invariant(self):
        assert invariance_check(BackwardShift(), PrefixZero(3), 0, 32)

    def test_shift_square_on_stride_two_support(self):
        op = ScalarMultiple(2, BackwardShift(2))
        assert all(invariance_check(op, SupportIn(2), n, 32) for n in range(1, 8))

    def test_scan_answers_each_power(self):
        scan = invariance_scan(BackwardShift(), ResidueZero(0, 2), range(9), 16)
        assert list(scan) == [n % 2 == 0 for n in range(9)]

    def test_scan_rejects_decreasing_powers(self):
        with pytest.raises(ValueError):
            list(invariance_scan(BackwardShift(), PrefixZero(1), [3, 2], 8))
        with pytest.raises(ValueError):
            invariance_check(BackwardShift(), PrefixZero(1), -1, 8)


class TestDenseFamily:
    SPEC = DenseFamilySpec(PrefixZero(3), 6, 1)

    def test_index_zero_is_zero_vector(self):
        assert dense_family(self.SPEC, 0) == SeqVec.zero()

    def test_members_stay_in_subspace(self):
        for j in range(10_000):
            v = dense_family(self.SPEC, j)
            assert membership_defect(v, self.SPEC.pattern) == 0.0
            sup = v.support()
            assert not sup or sup[-1] < self.SPEC.support_bound

    def test_contains_half_basis_vector(self):
        target = SeqVec.basis(3, 0.5)
        hits = [j for j in range(1, 2000) if dense_family(self.SPEC, j) == target]
        assert hits
        assert hits[0] == 17  # pins the enumeration order

    def test_deterministic(self):
        assert all(
            dense_family(self.SPEC, j) == dense_family(self.SPEC, j) for j in range(50)
        )

    def test_injective_within_level(self):
        spec = DenseFamilySpec(PrefixZero(3), 6, 0)
        block = family_level_size(spec, 0)
        seen = [dense_family(spec, j).items() for j in range(1, block + 1)]
        assert len(set(seen)) == block

    def test_level_blocks_grow(self):
        spec = DenseFamilySpec(SupportIn(5), 5, 1)
        assert family_level_size(spec, 1) == 24
        assert family_level_size(spec, 2) == 80

    def test_eps_completeness_one_coordinate(self, rng):
        # allowed support {0}: every unit-ball member should be approximated
        # once the enumeration reaches a fine enough level
        spec = DenseFamilySpec(SupportIn(5), 5, 1)
        scan = 1 + 24 + 80 + 288  # levels 1..3
        members = [dense_family(spec, j) for j in range(scan + 1)]
        for _ in range(25):
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            v = SeqVec.basis(0, z)
            best = min(norm(v - m) for m in members)
            assert best <= 0.25

    def test_eps_completeness_two_coordinates(self, rng):
        spec = DenseFamilySpec(PrefixZero(4), 6, 1)
        scan = family_level_size(spec, 1) + family_level_size(spec, 2)
        members = [dense_family(spec, j) for j in range(scan + 1)]
        for _ in range(10):
            v = SeqVec(
                {
                    4: complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                    5: complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                }
            )
            best = min(norm(v - m) for m in members)
            assert best <= 0.3

    def test_the_largest_level_is_1023(self):
        spec = DenseFamilySpec(PrefixZero(0), 1, 1023)
        # Digit 0 is the corner -1 - i, whose parts are -2^1023 * 2^-1023.
        assert _digit_value(0, 1023) == complex(-1, -1)
        assert dense_family(spec, 1) == SeqVec.basis(0, complex(-1, -1))
        with pytest.raises(OverflowError):
            _digit_value(0, 1024)

    @pytest.mark.parametrize("level", [1024, 10**8])
    def test_a_level_past_1023_is_rejected_first(self, level, monkeypatch):
        monkeypatch.setattr(subspace, "_grid_side", _no_side)
        with pytest.raises(ValueError, match=f"must be <= 1023, .* got {level}$"):
            DenseFamilySpec(PrefixZero(0), 1, level)

    def test_rejects_empty_support(self):
        spec = DenseFamilySpec(PrefixZero(6), 6, 1)
        with pytest.raises(ValueError):
            dense_family(spec, 1)
        assert dense_family(spec, 0) == SeqVec.zero()


class TestDyadicNet:
    def test_net_members_and_ball(self):
        net = dyadic_net(PrefixZero(3), 5, 1)
        assert SeqVec.zero() in net
        for v in net:
            assert membership_defect(v, PrefixZero(3)) == 0.0
            assert norm(v) <= 1.0

    def test_net_is_deterministic(self):
        a = dyadic_net(ResidueZero(0, 2), 4, 1)
        b = dyadic_net(ResidueZero(0, 2), 4, 1)
        assert a == b

    def test_net_includes_boundary(self):
        net = dyadic_net(SupportIn(5), 5, 0)
        assert SeqVec.basis(0, 1.0) in net

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            dyadic_net(PrefixZero(0), 16, 3)

    # r = 4 coordinates; 2r(level + 1) = 8(level + 1) bits.
    @pytest.mark.parametrize("level", [15, 5000, 8000, 10**9])
    def test_a_net_past_128_bits_is_refused_by_its_bit_count(self, level, monkeypatch):
        monkeypatch.setattr(subspace, "_grid_side", _no_side)
        bits = 8 * (level + 1)
        with pytest.raises(ValueError) as got:
            dyadic_net(PrefixZero(0), 4, level)
        assert str(got.value) == (
            f"net of more than 2**{bits} raw points exceeds the cap {NET_POINT_CAP}"
        )

    def test_a_net_below_128_bits_names_its_size(self):
        # 8 * 15 = 120 bits: the exact size, (2^15 + 1)^8, as ever.
        with pytest.raises(ValueError) as got:
            dyadic_net(PrefixZero(0), 4, 14)
        assert str(got.value) == (
            f"net of {(2**15 + 1) ** 8} raw points exceeds the cap {NET_POINT_CAP}"
        )


def _no_side(level):
    raise AssertionError(f"built the grid side of level {level}")


def _reference_net(pattern, support_bound, level):
    """``dyadic_net`` as one ``fsum`` ball test per raw grid point."""
    allowed = allowed_indices(pattern, support_bound)
    if not allowed:
        raise ValueError("no allowed indices below the support bound")
    g = _grid_side(level) ** 2
    if g ** len(allowed) > NET_POINT_CAP:
        raise ValueError(
            f"net of {g ** len(allowed)} raw points exceeds the cap {NET_POINT_CAP}"
        )
    values = [_digit_value(d, level) for d in range(g)]
    net = []
    for combo in product(values, repeat=len(allowed)):
        if math.fsum(z.real * z.real + z.imag * z.imag for z in combo) <= 1.0:
            net.append(SeqVec(zip(allowed, combo)))
    return net


def _net_or_error(build, *args):
    try:
        return [v.items() for v in build(*args)]
    except ValueError as exc:
        return str(exc)


class TestDyadicNetAgainstReference:
    """The integer ball test keeps the same points, in the same order, as one
    exactly rounded sum per raw grid point."""

    @pytest.mark.parametrize(
        "pattern",
        [PrefixZero(4), ResidueZero(0, 2), SupportIn(3), RightBlockZero(2)],
        ids=["prefix", "residue", "supportIn", "rightBlock"],
    )
    @pytest.mark.parametrize("level", [1, 2])
    def test_same_points_in_the_same_order(self, pattern, level):
        for support_bound in range(2, 7):
            args = (pattern, support_bound, level)
            assert _net_or_error(dyadic_net, *args) == _net_or_error(_reference_net, *args)

    @pytest.mark.parametrize(
        "args",
        [
            (PrefixZero(0), 6, 1),
            (PrefixZero(0), 5, 2),
            (ResidueZero(1, 3), 8, 1),
            # Level 2 over 4 coordinates: 81^4 raw points, the size after the largest below.
            (PrefixZero(0), 4, 2),
        ],
    )
    def test_same_cap_error(self, args):
        with pytest.raises(ValueError, match="exceeds the cap") as got:
            dyadic_net(*args)
        with pytest.raises(ValueError) as want:
            _reference_net(*args)
        assert str(got.value) == str(want.value)

    def test_the_largest_level_2_net_under_the_cap(self):
        # Level 2 over 3 coordinates: 81^3 = 531,441 raw points, 23,793 kept.
        args = (PrefixZero(0), 3, 2)
        assert 81**3 <= NET_POINT_CAP < 81**4
        net = _net_or_error(dyadic_net, *args)
        assert len(net) == 23_793
        assert net == _net_or_error(_reference_net, *args)

    def test_boundary_points_are_kept(self):
        # Squared norm exactly 1: (1/2 + i/2, 1/2 + i/2) and (1/2 + i/2, 1/2 - i/2).
        net = dyadic_net(PrefixZero(0), 2, 1)
        assert net == _reference_net(PrefixZero(0), 2, 1)
        for z in (0.5 + 0.5j, 0.5 - 0.5j):
            assert SeqVec({0: 0.5 + 0.5j, 1: z}) in net
        assert sum(1 for v in net if norm(v) == 1.0) > 4
