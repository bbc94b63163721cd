import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orbitlab import (
    BackwardShift,
    Diagonal,
    DirectSum,
    ForwardShift,
    HittingSchedule,
    Identity,
    InvalidModulus,
    PrefixZero,
    ScalarMultiple,
    SeqVec,
    UnsupportedOperator,
    apply_power,
    assemble,
    build_schedule,
    certify,
    membership_defect,
    norm,
)
from orbitlab import constructor
from orbitlab.constructor import ScheduleEntry, length, tail_bounds
from orbitlab.subspace import DenseFamilySpec, dense_family
from conftest import fraction_tail_bounds, rand_vec, replay_certify, replay_vector


class TestLength:
    def test_values(self):
        assert length(SeqVec.zero()) == 0
        assert length(SeqVec.basis(3)) == 4
        assert length(SeqVec({0: 1.0, 7: 2.0})) == 8


# Dyadic moduli, odd parts 3 and 5**k, one ulp either side of 2, and next
# to 1; counts up to 150 reach exact terms at 1e10, 1e200 and above about 10.6.
_TAIL_MODULI = [2.0, 4.0, 1.5, 3.0, math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0)]
_TAIL_MODULI += [10.0, 1e10] + [1.0 + 2.0**-k for k in range(1, 53)]


class TestTailBounds:
    @seed(28)
    @settings(max_examples=200, deadline=None)
    @given(
        case=st.one_of(
            st.tuples(
                st.one_of(
                    st.sampled_from(_TAIL_MODULI),
                    st.floats(1.0, 50.0, exclude_min=True, exclude_max=True),
                ),
                st.integers(1, 150),
            ),
            # At 1e200 the reference's gcds take 0.1 s at 40 terms and 5.6 s at 150.
            st.tuples(st.just(1e200), st.integers(1, 40)),
        )
    )
    def test_the_integer_sum_matches_the_fraction_sum(self, case):
        lam_abs, count = case
        assert tail_bounds(lam_abs, count) == fraction_tail_bounds(lam_abs, count)

    # Counts past the last normal term: 27 to 90 exact terms each.
    @pytest.mark.parametrize(
        "lam_abs, count",
        [
            (math.nextafter(2.0, 3.0), 600),
            (math.nextafter(2.0, 0.0), 600),
            (4.0, 300),
            (3.0, 400),
            (1.5, 900),
            (10.0, 200),
        ],
    )
    def test_exact_terms_match_the_fraction_sum(self, lam_abs, count):
        assert tail_bounds(lam_abs, count) == fraction_tail_bounds(lam_abs, count)

    def test_eight_hundred_exact_terms_stay_cheap(self):
        # The Fraction sum took 3.7 s here; its denominators grow with each term.
        start = time.perf_counter()
        tail_bounds(math.nextafter(2.0, 3.0), 800)
        assert time.perf_counter() - start < 0.5

    def test_finite_tail(self):
        assert tail_bounds(2.0, 1) == [0.5, 0.0]
        two_terms = math.sqrt(2.0**-2 + 2.0**-4)
        assert tail_bounds(2.0, 2)[0] == pytest.approx(two_terms, rel=1e-15)

    def test_geometric_majorant(self):
        # The infinite tail's closed form bounds every finite one.
        def closed_form(j):
            return 2.0 ** (-(j + 1)) / math.sqrt(1.0 - 2.0**-2)

        assert closed_form(0) == pytest.approx(0.5773502691896258, rel=1e-15)
        for j, bound in enumerate(tail_bounds(2.0, 40)):
            assert bound <= closed_form(j)

    def test_bounds_past_the_normal_range(self):
        # 4**-i is subnormal from i = 512 and a float 0.0 from i = 538; the
        # correctly rounded bound, about 1.15 * 2**-(j+1), is positive up to
        # row 1074.
        bounds = tail_bounds(2.0, 1100)
        total = Fraction(0)  # sum_{i=j+1..1100} 4**-i
        for j in range(1099, -1, -1):
            total += Fraction(1, 4 ** (j + 1))
            bound = bounds[j]
            # correctly rounded: sqrt(total) is within half a spacing of it
            below = (Fraction(bound) + Fraction(math.nextafter(bound, 0.0))) / 2
            above = (Fraction(bound) + Fraction(math.nextafter(bound, math.inf))) / 2
            assert below * below <= total <= above * above
            assert (bound > 0.0) == (j <= 1074)
        # A count whose terms are all normal floats keeps the float sum.
        assert tail_bounds(2.0, 500) == [
            math.sqrt(sum(Fraction(2.0 ** (-2 * i)) for i in range(j + 1, 501))) for j in range(501)
        ]


class TestBuildSchedule:
    def test_two_basis_targets(self):
        sched = build_schedule(2.0, [SeqVec.basis(3), SeqVec.basis(4)])
        assert sched.times == (0, 5)
        assert sched.bounds == (0.5, 0.0)

    def test_zero_target_occupies_no_room(self):
        sched = build_schedule(2.0, [SeqVec.zero(), SeqVec.basis(4)])
        assert sched.times == (0, 1)
        assert replay_vector(sched) == SeqVec({5: 0.5})
        assert assemble(sched).length == 6

    def test_invariants_on_random_targets(self, rng):
        targets = [rand_vec(rng, max_index=10, scale=3.0) for _ in range(8)]
        sched = build_schedule(2.0, targets)
        ks = sched.times
        assert ks[0] == 0
        for j in range(1, len(ks)):
            assert ks[j] > ks[j - 1] + length(targets[j - 1])
            gap = ks[j] - ks[j - 1]
            assert norm(targets[j]) <= 2.0**gap * 2.0**-j

    def test_times_are_minimal(self, rng):
        targets = [rand_vec(rng, max_index=10, scale=3.0) for _ in range(8)]
        sched = build_schedule(2.0, targets)
        ks = sched.times
        for j in range(1, len(ks)):
            k = ks[j] - 1
            room = k > ks[j - 1] + length(targets[j - 1])
            decay = norm(targets[j]) <= 2.0 ** (k - ks[j - 1]) * 2.0**-j
            assert not (room and decay)

    @pytest.mark.parametrize("lam", [1.0, 0.5, complex(math.cos(1.0), math.sin(1.0))])
    def test_needs_expanding_modulus(self, lam):
        with pytest.raises(InvalidModulus):
            build_schedule(lam, [SeqVec.basis(3)])

    @pytest.mark.parametrize("lam", [complex("nan"), complex("inf"), math.nan, -math.inf])
    def test_needs_a_finite_modulus(self, lam):
        # NaN fails the test |lam| <= 1 and inf passes it, so each needs its own.
        with pytest.raises(InvalidModulus):
            build_schedule(lam, [SeqVec.basis(0), SeqVec.basis(0, 0.5)])

    # At 1 + 2**-21 the plain search takes about 230,000 steps for the
    # target of norm 1.118; 1 + 2**-20 and below once had a search of their own.
    @pytest.mark.parametrize(
        "lam", [1 + 2**-21, 1 + 2**-20, -(1 + 2**-19), 1.1, 3j, 1e3], ids=repr
    )
    def test_times_match_the_step_by_one_search(self, lam):
        spec = DenseFamilySpec(PrefixZero(3), 6, 1)
        targets = [
            dense_family(spec, 0),  # the zero vector
            SeqVec({0: 0.75}),  # norm below 1
            dense_family(spec, 2),  # norm 1.118
            dense_family(spec, 3),  # norm exactly 1
        ]
        assert norm(targets[3]) == 1.0
        assert build_schedule(lam, targets).times == _plain_times(lam, targets)

    @pytest.mark.parametrize(
        "lam", [1 + 2**-40, 1 + 2**-52, -(1 + 2**-52), (1 + 2**-52) * 1j], ids=repr
    )
    def test_a_modulus_next_to_one_takes_a_few_steps(self, lam, monkeypatch):
        spec = DenseFamilySpec(PrefixZero(3), 6, 1)
        targets = [dense_family(spec, j) for j in range(21)]
        within_decay = _budget_norm_tests(monkeypatch, 50 * len(targets))
        sched = build_schedule(lam, targets)
        report = certify(assemble(sched), PrefixZero(3), op=ScalarMultiple(lam, BackwardShift()))
        monkeypatch.undo()
        assert report.passes
        _assert_minimal(within_decay, lam, targets, sched.times)
        # The tail bounds tend to sqrt(20 - n) as |lam| tends to 1.
        assert sched.bounds[0] == pytest.approx(math.sqrt(20))

    # Here q = log(norm) / log(lam_abs) is off by up to dozens of steps, more
    # than the two the search starts below it; the margin |q| 2**-48 covers them.
    @pytest.mark.parametrize("lam", [1 + 2**-52, 1 + 3 * 2**-52, 1 + 2**-46], ids=repr)
    def test_far_norms_next_to_one_get_the_smallest_times(self, lam, monkeypatch):
        targets = [SeqVec.basis(0)] + [SeqVec({0: 10.0**e}) for e in (-250, -20, 20, 100, 300)]
        within_decay = _budget_norm_tests(monkeypatch, 40_000)
        times = build_schedule(lam, targets).times
        monkeypatch.undo()
        _assert_minimal(within_decay, lam, targets, times)


    # A target near the float maximum after 60 empty ones: lam**gap
    # overflows at every gap the search tries, so the float test saturates.
    @pytest.mark.parametrize("k, time", [(6, 45896), (8, 182164)])
    def test_a_saturated_norm_test_keeps_its_times(self, k, time):
        assert _saturated_schedule(k).times[-1] == time

    @pytest.mark.parametrize("k", [10, 20])
    def test_a_saturated_norm_test_next_to_one_returns(self, k):
        import mpmath

        times = _saturated_schedule(k).times
        with mpmath.workprec(400):
            q = mpmath.log(mpmath.mpf(1.7e308)) / mpmath.log(mpmath.mpf(1 + 2**-k))
            assert q != mpmath.floor(q)
            first = int(mpmath.ceil(q))
        # Entry 60 sits at time 59 + gap, with gap the least g >= 1 that has
        # 1.7e308 <= lam**(g - 60).
        assert times[-1] == 59 + 60 + first

    def test_a_gap_past_two_to_the_53_gets_the_least_time(self, monkeypatch):
        import mpmath

        # q is about 3.2e18: the search starts from its decimal logarithms,
        # not from a margin that grows with it.
        _budget_norm_tests(monkeypatch, 200)
        start = time.perf_counter()
        times = _saturated_schedule(52).times
        assert time.perf_counter() - start < 1.0
        with mpmath.workprec(400):
            q = mpmath.log(mpmath.mpf(1.7e308)) / mpmath.log(mpmath.mpf(1 + 2**-52))
            first = int(mpmath.ceil(q))
        # A float gap rounds to a multiple of 512 here and ends at …184,187.
        assert times[-1] == 59 + 60 + first == 3_196_325_518_167_183_974

    @pytest.mark.parametrize(
        "lam_abs, n", [(1 + 2**-52, 2**61), (1 + 2**-50, 2**55), (1.5, 1749), (3.0, 600)]
    )
    def test_a_gap_past_two_to_the_53_is_decided_beside_its_bound(self, lam_abs, n):
        # lam_abs**n is no float, so the floats either side of it are told
        # apart; the gap is at least 2**53 and n = gap - j.
        import mpmath

        with mpmath.workprec(400):
            exact = mpmath.mpf(lam_abs) ** n
            below = float(exact)
            if below > exact:
                below = math.nextafter(below, 0.0)
        above = math.nextafter(below, math.inf)
        gap = max(n, 2**53)
        assert constructor._within_decay(below, lam_abs, gap, gap - n)
        assert not constructor._within_decay(above, lam_abs, gap, gap - n)

    @pytest.mark.parametrize(
        "size, want", [(2.0**1000, True), (math.nextafter(2.0**1000, math.inf), False)]
    )
    def test_a_saturated_tie_is_decided_on_rationals(self, size, want):
        # 2**1030 overflows; 2**1000 is exactly lam**(gap - j).
        assert constructor._within_decay(size, 2.0, 1030, 30) is want

    @seed(11)
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1.5, 16.0),
        st.integers(1, 40),
        st.integers(0, 3),
        st.sampled_from([0, 0, 0, -1, 1, -2**-40, 2**-40, -30, 30]),
        st.integers(-3, 3),
    )
    def test_a_saturated_norm_test_matches_rationals(self, lam_abs, j, extra, shift, ulps):
        # The least gap whose lam_abs**gap overflows, or one past it, and a
        # size a few units in the last place from lam_abs**(gap - j) * 2**shift.
        gap = math.floor(1024 / math.log2(lam_abs)) + extra
        while Fraction(lam_abs) ** gap <= Fraction(sys.float_info.max):
            gap += 1
        exact = Fraction(lam_abs) ** (gap - j)
        size = float(min(exact * Fraction(2.0**shift), Fraction(sys.float_info.max)))
        for _ in range(abs(ulps)):
            size = math.nextafter(size, math.copysign(math.inf, ulps))
        got = constructor._within_decay(size, lam_abs, gap, j)
        assert got is (size < math.inf and Fraction(size) <= exact)

    @pytest.mark.parametrize("lam_abs", [3.0, 1.5, 6.0, 3.0 * 2**10], ids=repr)
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 33])
    def test_an_exact_tie_passes_and_the_next_float_fails(self, lam_abs, n):
        # 3**33 has 53 bits, so lam_abs**n is a float.
        size = float(Fraction(lam_abs) ** n)
        assert Fraction(size) == Fraction(lam_abs) ** n
        assert constructor._at_most_power(size, lam_abs, n)
        assert constructor._at_most_power(math.nextafter(size, 0.0), lam_abs, n)
        assert not constructor._at_most_power(math.nextafter(size, math.inf), lam_abs, n)
        # The same odd part at -n and exponent -e(size) is no tie: it is at
        # least 1, and lam_abs**-n below 1.
        odd, e = constructor._odd_part(size)
        assert constructor._at_most_power(math.ldexp(odd, -e), lam_abs, -n) is (n == 0)

    # Powers of two tie wherever lam_abs**n is a float, subnormal ones too.
    @pytest.mark.parametrize("lam_abs, n", [(2.0, -1074), (4.0, -537), (2.0, 1023), (4.0, 511), (2.0, -1)])
    def test_a_dyadic_tie_passes_and_the_next_float_fails(self, lam_abs, n):
        size = float(Fraction(lam_abs) ** n)
        assert constructor._at_most_power(size, lam_abs, n)
        assert not constructor._at_most_power(math.nextafter(size, math.inf), lam_abs, n)

    @seed(27)
    @settings(max_examples=600, deadline=None)
    @given(
        st.sampled_from([2.0, 4.0, 1.5, 3.0, 2 + 2**-51] + [1 + 2.0**-k for k in range(1, 53)]),
        st.integers(-1100, 1100),
        st.integers(-3, 3),
        st.none() | st.floats(2.0**-1074, sys.float_info.max),
    )
    def test_the_exact_decider_matches_rationals(self, lam_abs, n, ulps, size):
        # size is random, or lam_abs**n rounded into the float range and
        # moved a few units in the last place.
        exact = Fraction(lam_abs) ** n
        if size is None:
            size = float(min(exact, Fraction(sys.float_info.max)))
            for _ in range(abs(ulps)):
                size = max(math.nextafter(size, math.copysign(math.inf, ulps)), 0.0)
        got = constructor._at_most_power(size, lam_abs, n)
        assert got is (size < math.inf and Fraction(size) <= exact)


def _saturated_schedule(k):
    return build_schedule(1 + 2.0**-k, [SeqVec()] * 60 + [SeqVec({0: 1.7e308})])


def _budget_norm_tests(monkeypatch, budget):
    """Make ``constructor._within_decay`` fail past ``budget`` calls; return the original."""
    within_decay = constructor._within_decay

    def counted(*args):
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise AssertionError("the search made too many norm tests")
        return within_decay(*args)

    monkeypatch.setattr(constructor, "_within_decay", counted)
    return within_decay


def _assert_minimal(within_decay, lam, targets, times):
    """Each time passes the norm test, and the one before it fails or has no room."""
    for j in range(1, len(times)):
        gap = times[j] - times[j - 1]
        assert within_decay(norm(targets[j]), abs(lam), gap, j)
        room = gap - 1 > length(targets[j - 1])
        assert not (room and within_decay(norm(targets[j]), abs(lam), gap - 1, j))


def _plain_times(lam, targets):
    """``build_schedule``'s times, searched one gap at a time from each window."""
    times = [0]
    for j in range(1, len(targets)):
        k = times[-1] + length(targets[j - 1]) + 1
        while not constructor._within_decay(norm(targets[j]), abs(lam), k - times[-1], j):
            k += 1
        times.append(k)
    return tuple(times)


class TestAssemble:
    def test_single_target_copied_verbatim(self):
        sched = build_schedule(2.0, [SeqVec.basis(3)])
        assert replay_vector(sched) == SeqVec.basis(3)
        assert assemble(sched).norm() == 1.0

    def test_windows_are_disjoint(self, rng):
        targets = [rand_vec(rng, max_index=8, scale=2.0) for _ in range(6)]
        sched = build_schedule(2.0, targets)
        f = replay_vector(sched)
        assert assemble(sched).length == length(f)
        ks = sched.times
        for j, t in enumerate(targets):
            lo = ks[j]
            hi = ks[j + 1] if j + 1 < len(ks) else lo + length(t) + 1
            window = SeqVec({i - lo: z for i, z in f.items() if lo <= i < hi})
            assert window == t * (2.0**-ks[j])

    def test_windows_hold_a_scale_past_the_float_range(self):
        # Window 1 has scale 16**-500 = 2**-2000, far below the float range.
        entries = (ScheduleEntry(0, SeqVec.basis(0)), ScheduleEntry(500, SeqVec.basis(0)))
        sched = HittingSchedule(16.0, entries)
        f = assemble(sched)
        assert f.length == 501
        assert f.norm() == 1.0
        # Row 0's distance 2**-2000 is rounded up to the least subnormal
        # rather than lost, and row 1 is exact.
        report = certify(f, PrefixZero(0))
        assert report.passes
        assert [row.distance for row in report.entries] == [math.ulp(0.0), 0.0]
        # The same windows under 16 B + I, split past window 1's entry and
        # below it: there the identity block keeps 2**-2000 e_500, and
        # misses window 1's target at row 1.
        lam_b = ScalarMultiple(16.0, BackwardShift(1))
        split_past = certify(f, PrefixZero(0), op=DirectSum(lam_b, Identity(), 501))
        assert split_past.entries == report.entries
        split_below = certify(f, PrefixZero(0), op=DirectSum(lam_b, Identity(), 500))
        assert [row.distance for row in split_below.entries] == [math.ulp(0.0), 1.0]
        # The float vector of a replay cannot hold it.
        with pytest.raises(ValueError, match="below the float range"):
            replay_vector(sched)


    # Past about 1.27e308 near a 45-degree phase, ``lam_abs / lam``
    # overflows its denominator and reads 0, which zeroed every window value.
    @pytest.mark.parametrize(
        "lam", [complex(1e308, 1e308), complex(1.2e308, -1.2e308), complex(-1.25e308, -1.25e308)],
        ids=repr,
    )
    def test_a_modulus_near_the_float_maximum_keeps_its_unit(self, lam):
        f = assemble(build_schedule(lam, [SeqVec.basis(0), SeqVec.basis(1, 0.5j)]))
        assert abs(f.unit_inv) == pytest.approx(1.0, rel=1e-15)
        assert abs(f.unit_inv * lam - abs(lam)) <= 1e-15 * abs(lam)
        assert certify(f, PrefixZero(0)).passes

    # Elsewhere the unit keeps the quotient's bits, a subnormal part included,
    # which halving both sides would round away.
    @pytest.mark.parametrize(
        "lam", [complex(1.5, 5e-324), complex(5e-324, -1.5), complex(3.0, 1e-310), 2j, -4.0],
        ids=repr,
    )
    def test_the_unit_is_the_plain_quotient(self, lam):
        unit = assemble(build_schedule(lam, [SeqVec.basis(0)])).unit_inv
        want = abs(lam) / complex(lam)
        assert (unit.real, unit.imag) == (want.real, want.imag)
        assert repr(unit) == repr(want)


class TestCertify:
    def test_identity_start_is_exact(self):
        sched = build_schedule(2.0, [SeqVec.basis(3)])
        f = assemble(sched)
        report = certify(f, PrefixZero(3))
        assert report.passes
        row = report.entries[0]
        assert row.defect == 0.0
        assert row.distance == 0.0

    @pytest.mark.parametrize("m", [0, 3])
    def test_family_targets_certify(self, m):
        spec = DenseFamilySpec(PrefixZero(m), 6, 1)
        targets = [dense_family(spec, j) for j in range(7)]
        sched = build_schedule(2.0, targets)
        f = assemble(sched)
        report = certify(f, PrefixZero(m))
        assert report.passes
        for row in report.entries:
            assert row.defect == 0.0
            assert row.distance <= row.bound + 1e-9

    def test_corruption_is_detected(self):
        # The replay that the windowed rows are checked against must see a
        # corruption: a bump at a window entry fails the rows that a brute
        # force replay of each power fails, and the clean vector fails none.
        spec = DenseFamilySpec(PrefixZero(3), 6, 1)
        targets = [dense_family(spec, j) for j in range(7)]
        sched = build_schedule(2.0, targets)
        clean = replay_certify(sched, PrefixZero(3))
        assert clean == certify(assemble(sched), PrefixZero(3)).entries
        ks = sched.times
        f = replay_vector(sched) + SeqVec.basis(ks[4] + 3, 1e-3)

        op = ScalarMultiple(2.0, BackwardShift())
        expected_fail = set()
        for j, k in enumerate(ks):
            shifted = apply_power(op, k, f)
            dist = norm(shifted - targets[j])
            bound = tail_bounds(2.0, len(ks) - 1)[j]
            defect = membership_defect(shifted, PrefixZero(3))
            if defect != 0.0 or dist > bound + 1e-9:
                expected_fail.add(j)

        rows = replay_certify(sched, PrefixZero(3), vec=f)
        assert {row.index for row in rows if not row.passed} == expected_fail
        assert expected_fail  # the injected bump must actually break something
        assert all(row.passed for row in clean)

    def test_wrong_pattern_fails_membership(self):
        spec = DenseFamilySpec(PrefixZero(3), 6, 1)
        targets = [dense_family(spec, j) for j in range(4)]
        sched = build_schedule(2.0, targets)
        f = assemble(sched)
        report = certify(f, PrefixZero(4))
        assert not report.passes

    def test_bounds_come_from_the_schedule(self):
        # The bounds are the tail of |lam| = 2 over two entries, whatever
        # was built by hand; f = 100 e_0 is far from both targets.
        entries = (ScheduleEntry(0, SeqVec.basis(3)), ScheduleEntry(5, SeqVec.basis(4)))
        sched = HittingSchedule(2.0, entries)
        assert sched.bounds == (0.5, 0.0)
        report = certify(assemble(sched), PrefixZero(0))
        assert [row.bound for row in report.entries] == [0.5, 0.0]
        assert report.passes
        rows = replay_certify(sched, PrefixZero(0), vec=SeqVec({0: 100.0}))
        assert [row.bound for row in rows] == [0.5, 0.0]
        assert [row.passed for row in rows] == [False, False]

    def test_custom_operator_must_match_schedule(self):
        sched = build_schedule(2.0, [SeqVec.basis(3), SeqVec.basis(5)])
        f = assemble(sched)
        lam_b = ScalarMultiple(2.0, BackwardShift(1))
        assert certify(f, PrefixZero(3), op=lam_b).passes
        assert certify(f, PrefixZero(3), op=DirectSum(lam_b, Identity(), 11)).passes
        assert not certify(f, PrefixZero(3), op=DirectSum(lam_b, Identity(), 10)).passes
        for op in (
            Identity(),
            BackwardShift(1),
            ScalarMultiple(4.0, BackwardShift(1)),
            ScalarMultiple(2.0, BackwardShift(2)),
            ScalarMultiple(1.0, lam_b),
            DirectSum(lam_b, Diagonal((1.0,)), 7),
            DirectSum(ScalarMultiple(4.0, BackwardShift(1)), Identity(), 7),
            DirectSum(ForwardShift(1), Identity(), 7),
        ):
            with pytest.raises(UnsupportedOperator):
                certify(f, PrefixZero(3), op=op)
        with pytest.raises(UnsupportedOperator):
            certify(replay_vector(sched), PrefixZero(3))


class TestScheduleValidation:
    @pytest.mark.parametrize("lam", [complex("nan"), complex("inf"), math.nan, math.inf])
    def test_needs_a_finite_modulus(self, lam):
        with pytest.raises(InvalidModulus):
            HittingSchedule(lam, (ScheduleEntry(0, SeqVec.basis(0)),))

    def test_literal_inequality_checked(self):
        entries = (
            ScheduleEntry(0, SeqVec.basis(0)),
            ScheduleEntry(2, SeqVec.basis(0, 100.0)),
        )
        with pytest.raises(ValueError):
            HittingSchedule(2.0, entries)

    def test_first_time_must_be_zero(self):
        entries = (ScheduleEntry(1, SeqVec.basis(0)),)
        with pytest.raises(ValueError):
            HittingSchedule(2.0, entries)

    def test_spacing_enforced(self):
        entries = (
            ScheduleEntry(0, SeqVec.basis(3)),
            ScheduleEntry(4, SeqVec.basis(0)),  # needs > 0 + 4
        )
        with pytest.raises(ValueError):
            HittingSchedule(2.0, entries)
