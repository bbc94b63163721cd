"""Certificates read off the windows, against replay and exact rationals.

``assemble`` keeps f = sum_j lam^(-k_j) S^(k_j) f_j as its windows, and
``certify`` reads every row of the certificates of lam B and of lam B + I
off them.  Inside the float range these tests pin that path against
replaying the float vector through ``apply_power`` (``conftest``); past it,
against exact rationals.  They also check the schedules' norm test against
exact arithmetic where a float would saturate, and sweep the certify and
``jordan`` gates over the float range.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orbitlab import (
    BackwardShift,
    DirectSum,
    HittingSchedule,
    Identity,
    PrefixZero,
    ResidueZero,
    RightBlockZero,
    ScalarMultiple,
    SeqVec,
    SupportIn,
    assemble,
    build_schedule,
    certify,
    norm,
)
from orbitlab import cli, constructor
from orbitlab.cli import ExperimentConfig, run
from orbitlab.constructor import ScheduleEntry, _within_decay, length
from orbitlab.subspace import DenseFamilySpec, dense_family
from conftest import exact_verdicts, replay_certify, replay_vector

# Every product of these, their inverses and their powers is exact.
DYADIC = [2.0, -2.0, 2j, -2j, 4.0]
NON_DYADIC = [1.5, 3.0, cmath.rect(2.0, 1.0), complex(1.1, 0.3)]

_coefficient = st.builds(
    lambda m, e, sign: sign * math.ldexp(m, e),
    st.floats(1.0, 2.0, exclude_max=True),
    st.integers(-8, 8),
    st.sampled_from([1.0, -1.0]),
)
_entry = st.one_of(_coefficient.map(complex), st.builds(complex, _coefficient, _coefficient))
_target = st.dictionaries(st.integers(0, 8), _entry, max_size=4).map(SeqVec)
_case = st.tuples(
    st.lists(_target, min_size=1, max_size=8),
    st.lists(st.integers(0, 6), min_size=8, max_size=8),
)
_patterns = st.one_of(
    st.builds(PrefixZero, st.integers(0, 4)),
    st.integers(2, 4).flatmap(lambda b: st.builds(ResidueZero, st.integers(0, b - 1), st.just(b))),
    st.builds(SupportIn, st.integers(1, 3)),
    st.builds(RightBlockZero, st.integers(1, 60)),
)


def _schedule(lam, targets, extra):
    """The minimal schedule with gap j lengthened by extra[j]; still admissible."""
    base = build_schedule(lam, targets)
    times, shift = [], 0
    for j, e in enumerate(base.entries):
        shift += extra[j] if j else 0
        times.append(e.time + shift)
    return HittingSchedule(
        lam, tuple(ScheduleEntry(k, e.target) for k, e in zip(times, base.entries))
    )


def _rows(rows):
    return [
        (r.index, r.time, repr(r.defect), repr(r.distance), repr(r.bound), r.passed) for r in rows
    ]


def _both(sched, pattern, op=None):
    """(windowed, replayed) certificate rows of the same schedule."""
    return certify(assemble(sched), pattern, op=op).entries, replay_certify(sched, pattern, op=op)


def _plus_identity(lam, split):
    """The paper's lam B + I, its identity block from index ``split`` on."""
    return DirectSum(ScalarMultiple(lam, BackwardShift(1)), Identity(), split)


@seed(14)
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DYADIC), _case, _patterns, st.one_of(st.none(), st.integers(1, 80)))
def test_dyadic_rows_equal_replay_bit_for_bit(lam, case, pattern, split):
    """For lam B, and for lam B + I split anywhere in or past the windows;
    a split at 1 leaves only index 0 to lam B, and targets that meet the
    entries that the identity block keeps."""
    sched = _schedule(lam, *case)
    op = None if split is None else _plus_identity(lam, split)
    windowed, honest = _both(sched, pattern, op)
    assert _rows(windowed) == _rows(honest)
    f = assemble(sched)
    assert repr(f.norm()) == repr(norm(replay_vector(sched)))
    assert f.length == length(replay_vector(sched))


@pytest.mark.parametrize("lam", DYADIC)
@pytest.mark.parametrize(
    "pattern",
    [PrefixZero(4), ResidueZero(0, 2), SupportIn(3), RightBlockZero(40)],
    ids=["prefix", "residue", "supportIn", "rightBlock"],
)
def test_dyadic_forbidden_landings_equal_replay(lam, pattern):
    # Prefix-3 family members land on index 3 (prefix 4), on even indices,
    # off the multiples of 3, and past index 40 as the orbit moves.
    spec = DenseFamilySpec(PrefixZero(3), 6, 1)
    sched = build_schedule(lam, [dense_family(spec, j) for j in range(13)])
    windowed, honest = _both(sched, pattern)
    assert _rows(windowed) == _rows(honest)
    assert any(row.defect > 0.0 for row in windowed)


# (lam, split, target count, whether a window crosses the split).  Prefix-3
# family members start at index 3, so at split 1 every window crosses.  At
# lam = 4 a window past 512 is below the float range of a replay
# (4**-487 < 1e-280), so there both counts stay below the split.
_SIDES = {
    2.0: ((1, 2, True), (1, 12, True), (40, 6, False), (40, 12, True), (512, 20, False), (512, 41, True)),
    4.0: ((1, 2, True), (1, 12, True), (40, 6, False), (40, 12, True), (512, 20, False), (512, 29, False)),
}
_SPLIT_CASES = [
    (lam, *case) for lam in (2.0, -2.0, 2j, 4.0) for case in _SIDES[4.0 if lam == 4.0 else 2.0]
]


@pytest.mark.parametrize("lam, split, count, crosses", _SPLIT_CASES)
@pytest.mark.parametrize(
    "pattern",
    [PrefixZero(4), ResidueZero(0, 2), SupportIn(3), RightBlockZero(40)],
    ids=["prefix", "residue", "supportIn", "rightBlock"],
)
def test_lam_b_plus_identity_rows_equal_replay(lam, split, count, crosses, pattern):
    spec = DenseFamilySpec(PrefixZero(3), 6, 1)
    sched = build_schedule(lam, [dense_family(spec, j) for j in range(count + 1)])
    windowed, honest = _both(sched, pattern, _plus_identity(lam, split))
    assert _rows(windowed) == _rows(honest)
    f = assemble(sched)
    assert (f.length > split) == crosses
    if not crosses:  # nothing reaches the identity block: lam B's rows
        assert windowed == certify(f, pattern).entries


def test_tiny_distances_take_the_norm_rescaling():
    """Below 2**-500 ``norm`` sums the squares again, divided by the largest
    modulus; row 0 of a gap of 600 at lam = 2 must give that bit too."""
    rng = random.Random(3)
    for _ in range(40):
        values = [complex(rng.randint(1, 7) / 4, rng.randint(-7, 7) / 4) for _ in range(3)]
        far = ScheduleEntry(600, SeqVec(dict(enumerate(values))))
        sched = HittingSchedule(2.0, (ScheduleEntry(0, SeqVec.basis(0)), far))
        windowed, honest = _both(sched, PrefixZero(0))
        assert _rows(windowed) == _rows(honest)
        assert 0.0 < windowed[0].distance < 2.0**-500


@pytest.mark.parametrize("preset", ["certify-direct-sum-prefix3", "certify-left-block"])
def test_lam_b_plus_identity_verdicts_match_exact_replay(preset):
    """At 200 targets most windows sit far below the float range; each row's
    pass bit is the one that exact rationals give."""
    cfg = ExperimentConfig.from_dict({"command": "preset", "preset": preset, "targets": 200})
    rows = run(cfg).report["report"]["entries"]
    sched = build_schedule(cfg.lam, [dense_family(cfg.family(), j) for j in range(201)])
    exact = exact_verdicts(sched, cfg.pattern, cfg.tol, cfg.default_operator())
    assert [r["pass"] for r in rows] == exact
    assert any(exact) or preset == "certify-left-block"


@seed(15)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(NON_DYADIC), _case, _patterns)
def test_other_rows_match_replay_within_rounding(lam, case, pattern):
    """Replay rounds at every step; the windows round a bounded number of times.

    Both stay within 16 (k_J + 2) units of roundoff of the exact values,
    relative to the distance plus the target's norm (replay leaves window
    n's accumulated rounding in the distance) or to the defect.
    """
    sched = _schedule(lam, *case)
    windowed, honest = _both(sched, pattern)
    slack = 16 * (sched.times[-1] + 2) * 2.0**-53
    for w, h, e in zip(windowed, honest, sched.entries):
        assert (w.index, w.time, w.bound) == (h.index, h.time, h.bound)
        assert (w.defect == 0.0) == (h.defect == 0.0)
        assert abs(w.defect - h.defect) <= slack * h.defect
        scale = h.distance + norm(e.target)
        assert abs(w.distance - h.distance) <= slack * scale
        if not abs(h.distance - h.bound - 1e-9) <= slack * scale:
            assert w.passed == h.passed


def test_distances_against_exact_rationals():
    """Every row's distance squared, recomputed exactly, for lam = 2 past the old ceiling."""
    count = 120
    spec = DenseFamilySpec(PrefixZero(3), 6, 1)
    targets = [dense_family(spec, j) for j in range(count + 1)]
    sched = build_schedule(2.0, targets)
    report = certify(assemble(sched), PrefixZero(3))
    assert report.passes
    ks = sched.times
    squares = [
        sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for _, z in f.items()) for f in targets
    ]
    tail = Fraction(0)  # sum_{j > n} ||f_j||^2 4^(-k_j)
    bound2 = Fraction(0)  # sum_{i > n} 4^(-i)
    for n in range(count, -1, -1):
        row = report.entries[n]
        exact2 = tail * 4 ** ks[n]
        if exact2 == 0:
            assert row.distance == 0.0
        else:
            assert abs(Fraction(row.distance) ** 2 / exact2 - 1) <= Fraction(1, 2**50)
        assert exact2 <= bound2
        assert row.distance <= row.bound + 1e-9
        tail += squares[n] / Fraction(4) ** ks[n]
        bound2 += Fraction(1, 4**n) if n else 0


def _exact_times(lam_abs, targets):
    """Smallest admissible hitting times, the norm test made on rationals."""
    base = Fraction(lam_abs)
    times = [0]
    for j in range(1, len(targets)):
        start = times[-1] + length(targets[j - 1]) + 1
        size = norm(targets[j])
        if not size:
            times.append(start)
            continue
        e = math.floor(math.log(size) / math.log(lam_abs)) - 2
        while Fraction(size) > base**e:
            e += 1
        times.append(max(start, times[-1] + j + e))
    return tuple(times)


@pytest.mark.parametrize("lam, count", [(4.0, 600), (2.0, 1100)])
def test_schedules_match_the_exact_norm_test(lam, count):
    # lam**gap overflows from gap 512 (lam = 4) and 1024 (lam = 2), and
    # lam**-j underflows from j = 537 and 1075: the float test would pass
    # every gap there.
    spec = DenseFamilySpec(PrefixZero(3), 6, 1)
    targets = [dense_family(spec, j) for j in range(count + 1)]
    assert build_schedule(lam, targets).times == _exact_times(lam, targets)


def test_a_saturated_norm_test_rejects():
    # 2 * 4**-512 > 4**-600; in floats 2 / inf reads 0.0, and 4**-600 is 0.0.
    assert not _within_decay(2.0, 4.0, 512, 600)
    assert _within_decay(2.0, 4.0, 601, 600)
    assert not _within_decay(1.0, 2.0, 1100, 1101)
    assert _within_decay(1.0, 2.0, 1101, 1101)
    entries = [ScheduleEntry(j, SeqVec.zero()) for j in range(600)]
    entries.append(ScheduleEntry(599 + 512, SeqVec.basis(0, 2.0)))
    with pytest.raises(ValueError, match="norm constraint"):
        HittingSchedule(4.0, tuple(entries))


def test_a_norm_past_the_float_range_is_refused():
    huge = SeqVec({0: 1.7e308, 1: 1.7e308})
    assert norm(huge) == math.inf
    with pytest.raises(ValueError, match="norm past the float range"):
        build_schedule(2.0, [SeqVec.basis(0), huge])
    for gap in (3, 2000):  # 2**2000 overflows: the exact test decides
        entries = (ScheduleEntry(0, SeqVec.basis(0)), ScheduleEntry(gap, huge))
        with pytest.raises(ValueError, match="norm constraint"):
            HittingSchedule(2.0, entries)


@pytest.mark.parametrize(
    "lam, targets",
    [((2.0, 0.0), 42), ((2.0, 0.0), 1000), ((4.0, 0.0), 400), ((1.1, 0.0), 400), ((1.01, 0.0), 400)],
)
def test_certify_runs_past_the_float_range(lam, targets):
    cfg = ExperimentConfig.from_dict(
        {"command": "preset", "preset": "certify-prefix3", "targets": targets, "lambda": list(lam)}
    )
    result = run(cfg)
    assert result.passed
    rows = result.report["report"]["entries"]
    assert len(rows) == targets + 1
    assert all(r["membershipDefect"] == 0.0 and r["pass"] for r in rows)
    if targets == 1000:
        # The family reaches its support-3 members at index 625.
        spec = DenseFamilySpec(PrefixZero(3), 6, 1)
        assert len(dense_family(spec, 625).support()) == 3
        assert len(dense_family(spec, 624).support()) == 2


# -- gates ------------------------------------------------------------------


def _magnitude(lo, hi):
    """m * 10**e, 1 <= m < 10, every decade as likely as another; or a value at hi."""
    decade = st.builds(
        lambda m, e: m * 10.0**e, st.floats(1.0, 10.0, exclude_max=True), st.integers(lo, hi - 1)
    )
    return st.one_of(decade, st.just(10.0**hi))


_value = st.one_of(_magnitude(-320, 308), st.sampled_from([0.0, math.nan, math.inf]))
_tol = _magnitude(-300, 308)


def _exactly_within(value, limit):
    """value <= limit over the rationals; NaN and inf are within no finite limit."""
    return math.isfinite(value) and Fraction(value) <= limit


@st.composite
def _gate_case(draw):
    """A (defect, distance, tol), half the time with the distance on the gate."""
    defect, tol = draw(st.one_of(st.just(0.0), _value)), draw(_tol)
    bound = 0.5  # row 0 of a two-entry schedule at lam = 2
    distance = draw(_value)
    if draw(st.booleans()):
        edge = bound + tol
        distance = draw(st.sampled_from([math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]))
    return defect, distance, tol


_GATE_SCHED = HittingSchedule(
    2.0,
    (ScheduleEntry(0, SeqVec.basis(0)), ScheduleEntry(2, SeqVec.basis(0))),
)


@seed(16)
@settings(max_examples=400, deadline=None)
@given(_gate_case())
def test_certify_gate_passes_nothing_it_should_reject(case):
    defect, distance, tol = case
    want = defect == 0.0 and _exactly_within(distance, Fraction(0.5) + Fraction(tol))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructor.WindowedVector, "defect", lambda self, n, pattern, split: defect)
        mp.setattr(constructor.WindowedVector, "distance", lambda self, n, split: distance)
        report = certify(assemble(_GATE_SCHED), PrefixZero(0), float_tol=tol)
    assert report.entries[0].passed == want


@pytest.mark.parametrize("defect", [1e-300, 5e-324, math.ulp(0.0), -0.0])
def test_membership_takes_no_tolerance(defect, monkeypatch):
    # A defect of 1e-300 fails however large floatTol is; -0.0 is 0.0.
    monkeypatch.setattr(constructor.WindowedVector, "defect", lambda self, n, pattern, split: defect)
    report = certify(assemble(_GATE_SCHED), PrefixZero(0), float_tol=1e-3)
    assert [row.passed for row in report.entries] == [defect == 0.0] * 2


def test_rows_off_the_subspace_fail():
    # lam B against rightBlock 40: past row 0, every orbit point has entries
    # past index 40, with defects of 5e-15 to 1.8e-12, all below floatTol.
    cfg = ExperimentConfig.from_dict(
        {
            "command": "certify",
            "lambda": [2.0, 0.0],
            "pattern": {"kind": "rightBlock", "split": 40},
            "targets": 60,
        }
    )
    result = run(cfg)
    rows = result.report["report"]["entries"]
    assert not result.passed
    assert sum(r["membershipDefect"] != 0.0 for r in rows) == 60
    assert all(r["pass"] == (r["membershipDefect"] == 0.0) for r in rows)
    assert max(r["membershipDefect"] for r in rows) < 1e-9


@seed(17)
@settings(max_examples=200, deadline=None)
@given(_value, _tol)
def test_jordan_gate_passes_nothing_it_should_reject(err, tol):
    """Every third step's relative error reads ``err``, the others 0.0."""
    cfg = ExperimentConfig.from_dict({"command": "jordan", "horizon": 8, "tol": tol})
    calls = []

    def patched(v):
        # norm(closed - power), then norm(power): the error is the first.
        calls.append(v)
        if len(calls) % 2 == 0:
            return 1.0
        return err if len(calls) // 2 % 3 == 1 else 0.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "norm", patched)
        result = cli._run_jordan(cfg)
    want = _exactly_within(err, Fraction(tol))
    for case in result.report["cases"]:
        assert repr(case["maxRelError"]) == repr(err)
        assert case["pass"] == want
    assert result.passed == want
