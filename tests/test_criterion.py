import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orbitlab import (
    BackwardShift,
    Diagonal,
    DirectSum,
    Identity,
    PrefixZero,
    ResidueZero,
    ScalarMultiple,
    SeqVec,
    UnsupportedOperator,
    apply_power,
    backsolve,
    check_criterion,
    distance,
    norm,
    transitivity_probe,
)
from orbitlab import criterion, seqspace
from orbitlab.seqspace import PRUNE_MODULUS
from orbitlab.subspace import DenseFamilySpec, dense_family
from conftest import rand_vec

DOUBLING = ScalarMultiple(2.0, BackwardShift())


class OwnShift(BackwardShift):
    """A subclass may override ``apply``, so it is not read as a shift."""


class TestBacksolve:
    def test_frozen_value(self):
        assert backsolve(DOUBLING, 3, SeqVec.basis(0)) == SeqVec({3: 0.125})

    def test_plain_shift(self):
        assert backsolve(BackwardShift(), 2, SeqVec.basis(1)) == SeqVec.basis(3)
        assert backsolve(BackwardShift(2), 2, SeqVec.basis(1)) == SeqVec.basis(5)

    def test_round_trip(self, rng):
        for _ in range(20):
            y = rand_vec(rng, max_index=12)
            x = backsolve(DOUBLING, 5, y)
            back = apply_power(DOUBLING, 5, x)
            assert back.support() == y.support()
            assert norm(back - y) <= 1e-12 * max(norm(y), 1.0)

    def test_zero_steps_is_identity(self):
        y = SeqVec({2: 1.5})
        assert backsolve(DOUBLING, 0, y) == y

    @pytest.mark.parametrize(
        "op",
        [
            Diagonal((1.0, 2.0)),
            DirectSum(BackwardShift(), Identity(), 4),
            ScalarMultiple(0.0, BackwardShift()),
            Identity(),
            ScalarMultiple(2.0, ScalarMultiple(1.5, BackwardShift())),
            OwnShift(),
            ScalarMultiple(2.0, OwnShift()),
        ],
    )
    def test_unsupported_operators(self, op):
        with pytest.raises(UnsupportedOperator):
            backsolve(op, 1, SeqVec.basis(0))

    # Past the float range, complex power raises for 1e-170 and returns
    # nan+nanj for 1e200, 1e155 (whose true lam^-2 is 1e-310) and 1e200j.
    @pytest.mark.parametrize(
        "lam, n",
        [(1e-170, 2), (0.5j, 1100), (1e-200 + 1e-200j, 3), (1e200, 2), (1e155, 2), (1e200j, 2)],
    )
    def test_scaling_past_the_float_range(self, lam, n):
        op = ScalarMultiple(lam, BackwardShift())
        with pytest.raises(ArithmeticError) as exc:
            backsolve(op, n, SeqVec.basis(0))
        assert str(exc.value) == (
            f"backsolve: lambda^-n is past the float range for lambda = {complex(lam)}, n = {n}"
        )

    def test_norm_law(self, rng):
        # preimages shrink by exactly |lam|^(-n)
        for n in (1, 4, 9):
            y = rand_vec(rng, max_index=10)
            x = backsolve(DOUBLING, n, y)
            assert norm(x) == pytest.approx(norm(y) * 2.0**-n, rel=1e-12)


def _family_samples(count, pattern=ResidueZero(0, 2), bound=8, level=1):
    spec = DenseFamilySpec(pattern, bound, level)
    return [dense_family(spec, j) for j in range(count)]


class TestCheckCriterion:
    def test_doubling_shift_on_odd_support(self):
        samples = _family_samples(20)
        nks = [2 * k for k in range(1, 26)]
        report = check_criterion(
            DOUBLING, ResidueZero(0, 2), samples, samples, nks, dim=64, tol=1e-12
        )
        assert report.passes
        assert report.decay_ok and report.recovery_ok and report.invariance_ok
        for rec in report.decay:
            assert rec.final_norm == 0.0  # finite support leaves the truncation
        for rec in report.recovery:
            assert rec.preimage_monotone
            assert rec.recovery_error <= 1e-12
            assert rec.norm_law_dev <= 1e-12

    def test_first_zero_time_matches_support(self):
        samples = _family_samples(6)
        nks = [2 * k for k in range(1, 26)]
        report = check_criterion(
            DOUBLING, ResidueZero(0, 2), samples, samples, nks, dim=64, tol=1e-12
        )
        for sample, rec in zip(samples, report.decay):
            sup = sample.support()
            if not sup:
                assert rec.first_zero_nk == nks[0]
            else:
                expected = min(n for n in nks if n > sup[-1])
                assert rec.first_zero_nk == expected

    def test_unimodular_scaling_breaks_recovery(self):
        op = BackwardShift()
        samples = _family_samples(8)
        nks = [2 * k for k in range(1, 21)]
        report = check_criterion(
            op, ResidueZero(0, 2), samples, samples, nks, dim=64, tol=1e-12
        )
        assert report.decay_ok
        assert report.invariance_ok
        assert not report.recovery_ok
        assert not report.passes
        # |lam| = 1: the preimages keep the samples' norms exactly.
        assert all(r.norm_law_dev == 0.0 for r in report.recovery)
        for sample, rec in zip(samples, report.recovery):
            assert rec.final_preimage_norm == pytest.approx(norm(sample), rel=1e-12)

    def test_prefix_pattern_breaks_invariance(self):
        spec = DenseFamilySpec(PrefixZero(3), 6, 1)
        samples = [dense_family(spec, j) for j in range(5)]
        nks = list(range(1, 11))
        report = check_criterion(
            DOUBLING, PrefixZero(3), samples, samples, nks, dim=64, tol=1e-9
        )
        assert not report.invariance_ok
        assert all(not rec.invariant for rec in report.invariance)

    def test_tolerance_monotone(self):
        samples = _family_samples(10)
        nks = [2 * k for k in range(1, 16)]
        args = (DOUBLING, ResidueZero(0, 2), samples, samples, nks)
        tight = check_criterion(*args, dim=64, tol=1e-12)
        loose = check_criterion(*args, dim=64, tol=1e-11)
        assert tight.passes <= loose.passes

    def test_rejects_non_member_samples(self):
        bad = [SeqVec.basis(0)]  # index 0 is forbidden
        with pytest.raises(ValueError):
            check_criterion(
                DOUBLING, ResidueZero(0, 2), bad, bad, [2, 4], dim=32, tol=1e-9
            )

    def test_rejects_bad_times(self):
        samples = _family_samples(2)
        for nks in ([], [0, 2], [4, 2], [2, 2]):
            with pytest.raises(ValueError):
                check_criterion(
                    DOUBLING,
                    ResidueZero(0, 2),
                    samples,
                    samples,
                    nks,
                    dim=32,
                    tol=1e-9,
                )


def test_a_nan_recovery_error_fails_condition_two(monkeypatch):
    # Condition II reads each recovery error as ``distance(T^n x_k, y)``,
    # which is 0.0 here (the recovery is exact); read every zero distance
    # as NaN.
    y = SeqVec.basis(1)
    args = (DOUBLING, ResidueZero(0, 2), [], [y], [2 * k for k in range(1, 26)], 64, 1e-12)
    assert check_criterion(*args).recovery_ok
    monkeypatch.setattr(seqspace, "distance", lambda u, v: distance(u, v) or math.nan)
    report = check_criterion(*args)
    assert math.isnan(report.recovery[0].recovery_error)
    assert not report.recovery_ok and not report.passes


def test_a_tail_whose_square_underflows_fails_condition_one():
    report = check_criterion(
        Diagonal((1e-100,)), PrefixZero(0), [SeqVec.basis(0)], [], [2], 4, 1e-300
    )
    assert report.decay[0].final_norm == 1e-200
    assert not report.decay[0].passed
    assert not report.decay_ok and not report.passes


@st.composite
def _tail_and_tol(draw):
    """A weight w and an entry a with 1e-299 <= |w a| < 1e308, and a tol.

    Magnitudes are drawn as m * 10**e, 1 <= m < 10, so every decade is as
    likely as another.  Half the tols come from 1e-320 to 1e308; the rest
    sit on the gate: just under the tail, at it, or just over it.
    """

    def magnitude(e_lo: int, e_hi: int) -> tuple[int, float]:
        e = draw(st.integers(e_lo, e_hi))
        return e, draw(st.floats(1.0, 10.0, exclude_max=True)) * 10.0**e

    sign = st.sampled_from((1.0, -1.0))
    e_a, a = magnitude(-150, 150)
    _, w = magnitude(max(-299 - e_a, -307), min(306 - e_a, 307))
    a, w = draw(sign) * a, draw(sign) * w
    tail = abs(w * a)
    on_gate = (math.nextafter(tail, 0.0), tail, math.nextafter(tail, math.inf))
    tol = draw(st.sampled_from(on_gate)) if draw(st.booleans()) else magnitude(-320, 307)[1]
    return w, a, tol


@seed(12)
@settings(max_examples=300, deadline=None)
@given(_tail_and_tol())
def test_condition_one_gate_is_the_tail_against_tol(case):
    w, a, tol = case
    args = Diagonal((w,)), PrefixZero(0), [SeqVec.basis(0, a)], [], [1], 1, tol
    if tol < PRUNE_MODULUS:
        # Tails below the pruning modulus read as 0.0, so such a tol is refused.
        with pytest.raises(ValueError, match="tol must be at least"):
            check_criterion(*args)
        return
    report = check_criterion(*args)
    assert report.decay[0].passed == (abs(w * a) <= tol)
    assert report.decay_ok == report.decay[0].passed


def test_a_tol_below_the_pruning_modulus_is_refused():
    # The true tail is 1e-305; pruned to 0.0 it would pass a tol of 1e-310.
    with pytest.raises(ValueError, match="tol must be at least"):
        check_criterion(
            Diagonal((1e-10,)), PrefixZero(0), [SeqVec.basis(0, 1e-295)], [], [1], 1, 1e-310
        )
    # At the modulus itself the pruned tail passes, as the true one does.
    report = check_criterion(
        Diagonal((1e-10,)), PrefixZero(0), [SeqVec.basis(0, 1e-295)], [], [1], 1, PRUNE_MODULUS
    )
    assert report.decay[0].final_norm == 0.0 and report.decay[0].passed


class TestTransitivityProbe:
    def test_zero_centers_hit_immediately(self):
        found = transitivity_probe(
            DOUBLING,
            ResidueZero(0, 2),
            SeqVec.zero(),
            0.25,
            SeqVec.zero(),
            0.25,
            horizon=10,
            dim=64,
        )
        assert found == 0

    def test_invariant_pattern_admits_transit(self):
        spec = DenseFamilySpec(ResidueZero(0, 2), 8, 1)
        u = dense_family(spec, 1)
        v = dense_family(spec, 2)
        found = transitivity_probe(
            DOUBLING, ResidueZero(0, 2), u, 0.25, v, 0.25, horizon=30, dim=128
        )
        assert found is not None
        assert found % 2 == 0  # only even powers preserve the pattern
        assert found <= 30

    def test_obstructed_pattern_never_transits(self):
        spec = DenseFamilySpec(PrefixZero(3), 6, 1)
        u = dense_family(spec, 1)
        v = dense_family(spec, 2)
        assert norm(u - v) == pytest.approx(0.5)
        found = transitivity_probe(
            DOUBLING, PrefixZero(3), u, 0.25, v, 0.25, horizon=40, dim=256
        )
        assert found is None

    def test_rejects_off_subspace_centers(self):
        with pytest.raises(ValueError):
            transitivity_probe(
                DOUBLING,
                PrefixZero(3),
                SeqVec.basis(0),
                0.25,
                SeqVec.zero(),
                0.25,
                horizon=5,
                dim=32,
            )

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            transitivity_probe(
                DOUBLING,
                PrefixZero(3),
                SeqVec.zero(),
                0.0,
                SeqVec.zero(),
                0.25,
                horizon=5,
                dim=32,
            )

    @pytest.mark.parametrize("side", ["u", "v"])
    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -0.25, 0.0])
    def test_rejects_radii_that_are_not_finite_and_positive(self, side, radius):
        # With both radii 0.25 the probe hits at n = 2.  A NaN U-radius
        # used to miss every candidate and return None, and an infinite
        # V-radius to fail in the grid's scaling.
        spec = DenseFamilySpec(ResidueZero(0, 2), 8, 1)
        u, v = dense_family(spec, 17), dense_family(spec, 2)

        def probe(u_radius, v_radius):
            args = (u, u_radius, v, v_radius, 4, 16, 2, 4)
            return transitivity_probe(DOUBLING, ResidueZero(0, 2), *args)

        assert probe(0.25, 0.25) == 2
        with pytest.raises(ValueError, match="^ball radii must be finite and positive$"):
            probe(*((radius, 0.25) if side == "u" else (0.25, radius)))


class TestRecognisedOnce:
    """The operator is recognised as lam B^b once per call, not once per
    preimage, nor once more for its factors."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        recognise = criterion._scaled_shift_parts

        def counted(op):
            seen.append(op)
            return recognise(op)

        monkeypatch.setattr(criterion, "_scaled_shift_parts", counted)
        return seen

    @pytest.mark.parametrize("op", [DOUBLING, BackwardShift(2)])
    def test_check_criterion(self, calls, op):
        samples = _family_samples(6)
        check_criterion(op, ResidueZero(0, 2), samples, samples, [2, 4, 6], 32, 1e-9)
        assert calls == [op]

    def test_check_criterion_on_an_unsupported_operator(self, calls):
        samples = _family_samples(6)
        op = Diagonal((2.0, 3.0))
        with pytest.raises(UnsupportedOperator, match="got Diagonal"):
            check_criterion(op, ResidueZero(0, 2), samples, samples, [2, 4, 6], 32, 1e-9)
        assert calls == [op]

    def test_transitivity_probe(self, calls):
        spec = DenseFamilySpec(ResidueZero(0, 2), 8, 1)
        u, v = dense_family(spec, 1), dense_family(spec, 2)
        transitivity_probe(DOUBLING, ResidueZero(0, 2), u, 0.25, v, 0.25, horizon=30, dim=128)
        assert calls == [DOUBLING]
