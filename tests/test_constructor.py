import math

import pytest

from orbitlab import (
    BackwardShift,
    HittingSchedule,
    Identity,
    InvalidModulus,
    PrefixZero,
    ScalarMultiple,
    ScheduleUnderflow,
    SeqVec,
    apply_power,
    assemble,
    build_schedule,
    certify,
    membership_defect,
    norm,
)
from orbitlab.constructor import (
    ScheduleEntry,
    geometric_tail_bound,
    length,
    tail_bounds,
)
from orbitlab.subspace import DenseFamilySpec, dense_family
from conftest import rand_vec


class TestLength:
    def test_values(self):
        assert length(SeqVec.zero()) == 0
        assert length(SeqVec.basis(3)) == 4
        assert length(SeqVec({0: 1.0, 7: 2.0})) == 8


class TestTailBounds:
    def test_finite_tail(self):
        assert tail_bounds(2.0, 1) == [0.5, 0.0]
        two_terms = math.sqrt(2.0**-2 + 2.0**-4)
        assert tail_bounds(2.0, 2)[0] == pytest.approx(two_terms, rel=1e-15)

    def test_geometric_majorant(self):
        assert geometric_tail_bound(2.0, 0) == pytest.approx(
            0.5773502691896258, rel=1e-15
        )
        for j, bound in enumerate(tail_bounds(2.0, 40)):
            assert bound <= geometric_tail_bound(2.0, j)


class TestBuildSchedule:
    def test_two_basis_targets(self):
        sched = build_schedule(2.0, [SeqVec.basis(3), SeqVec.basis(4)])
        assert sched.times == (0, 5)
        assert sched.bounds == (0.5, 0.0)

    def test_zero_target_occupies_no_room(self):
        sched = build_schedule(2.0, [SeqVec.zero(), SeqVec.basis(4)])
        assert sched.times == (0, 1)
        assert assemble(sched).vector() == SeqVec({5: 0.5})

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


class TestAssemble:
    def test_single_target_copied_verbatim(self):
        sched = build_schedule(2.0, [SeqVec.basis(3)])
        assert assemble(sched).vector() == SeqVec.basis(3)

    def test_windows_are_disjoint(self, rng):
        targets = [rand_vec(rng, max_index=8, scale=2.0) for _ in range(6)]
        sched = build_schedule(2.0, targets)
        f = assemble(sched).vector()
        ks = sched.times
        for j, t in enumerate(targets):
            lo = ks[j]
            hi = ks[j + 1] if j + 1 < len(ks) else lo + length(t) + 1
            window = SeqVec({i - lo: z for i, z in f.items() if lo <= i < hi})
            assert window == t * (2.0**-ks[j])

    def test_underflow_guard(self):
        # Window 1 has scale 16**-500 = 2**-2000, far below the float range.
        entries = (ScheduleEntry(0, SeqVec.basis(0)), ScheduleEntry(500, SeqVec.basis(0)))
        sched = HittingSchedule(16.0, entries)
        f = assemble(sched)
        assert f.length == 501
        assert f.norm() == 1.0
        # The windows hold it: row 0's distance 2**-2000 is rounded up to the
        # least subnormal rather than lost, and row 1 is exact.
        report = certify(f, sched, PrefixZero(0))
        assert report.passes
        assert [row.distance for row in report.entries] == [math.ulp(0.0), 0.0]
        # Only a float vector, needed to replay another operator, cannot.
        with pytest.raises(ScheduleUnderflow):
            f.vector()
        with pytest.raises(ScheduleUnderflow):
            certify(f, sched, PrefixZero(0), op=ScalarMultiple(16.0, Identity()))


class TestCertify:
    def test_identity_start_is_exact(self):
        sched = build_schedule(2.0, [SeqVec.basis(3)])
        f = assemble(sched)
        report = certify(f, sched, PrefixZero(3))
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
        report = certify(f, sched, PrefixZero(m))
        assert report.passes
        for row in report.entries:
            assert row.defect == 0.0
            assert row.distance <= row.bound + 1e-9

    def test_corruption_is_detected(self):
        spec = DenseFamilySpec(PrefixZero(3), 6, 1)
        targets = [dense_family(spec, j) for j in range(7)]
        sched = build_schedule(2.0, targets)
        f = assemble(sched).vector()
        ks = sched.times
        bad_index = ks[4] + 3
        f = f + SeqVec.basis(bad_index, 1e-3)

        # recompute each certificate row by brute force on the corrupted vector
        op = ScalarMultiple(2.0, BackwardShift())
        expected_fail = set()
        for j, k in enumerate(ks):
            shifted = apply_power(op, k, f)
            dist = norm(shifted - targets[j])
            bound = tail_bounds(2.0, len(ks) - 1)[j]
            defect = membership_defect(shifted, PrefixZero(3))
            if defect > 1e-9 or dist > bound + 1e-9:
                expected_fail.add(j)

        report = certify(f, sched, PrefixZero(3))
        got_fail = {row.index for row in report.entries if not row.passed}
        assert got_fail == expected_fail
        assert expected_fail  # the injected bump must actually break something
        assert not report.passes

    def test_wrong_pattern_fails_membership(self):
        spec = DenseFamilySpec(PrefixZero(3), 6, 1)
        targets = [dense_family(spec, j) for j in range(4)]
        sched = build_schedule(2.0, targets)
        f = assemble(sched)
        report = certify(f, sched, PrefixZero(4))
        assert not report.passes

    def test_bounds_come_from_the_schedule(self):
        # The bounds are the tail of |lam| = 2 over two entries, whatever
        # was built by hand; f = 100 e_0 is far from both targets.
        entries = (ScheduleEntry(0, SeqVec.basis(3)), ScheduleEntry(5, SeqVec.basis(4)))
        sched = HittingSchedule(2.0, entries)
        assert sched.bounds == (0.5, 0.0)
        report = certify(SeqVec({0: 100.0}), sched, PrefixZero(0))
        assert [row.bound for row in report.entries] == [0.5, 0.0]
        assert [row.passed for row in report.entries] == [False, False]
        assert not report.passes

    def test_custom_operator_must_match_schedule(self):
        sched = build_schedule(2.0, [SeqVec.basis(3), SeqVec.basis(5)])
        f = assemble(sched)
        report = certify(f, sched, PrefixZero(3), op=Identity())
        assert not report.passes


class TestScheduleValidation:
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
