"""Carried orbits against replay from scratch.

The certificate's replay reference (``conftest.replay_certify``), criterion
condition I, condition III, the transitivity probe and the ``jordan`` command
advance one stored image from each power to the next instead of recomputing
T^n from the start vector.  These property tests compare them with the
from-scratch replay on random operator trees over all seven kinds, random
start vectors and increasing powers: results must be equal exactly, and an
operator that raises must raise the same exception type.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orbitlab import (
    BackwardShift,
    Diagonal,
    DirectSum,
    FiniteMatrix,
    ForwardShift,
    HittingSchedule,
    Identity,
    OrbitlabError,
    PrefixZero,
    ResidueZero,
    RightBlockZero,
    ScalarMultiple,
    ScheduleEntry,
    SeqVec,
    SupportIn,
    apply_power,
    check_criterion,
    invariance_check,
    invariance_scan,
    jordan_orbit,
    length,
    membership_defect,
    norm,
    project,
)
from orbitlab.cli import _JORDAN_LAMBDAS, ExperimentConfig, run
from orbitlab.constructor import CertEntry
from orbitlab.criterion import DecayRecord, InvarianceRecord
from orbitlab.subspace import allowed_indices
from conftest import CountingOp, replay_certify

factors = st.sampled_from([2.0, -0.5, 1j, 1 + 1j, 0.75 - 0.25j, 0.0])
matrices = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(factors, min_size=d, max_size=d), min_size=d, max_size=d)
).map(FiniteMatrix)
leaves = st.one_of(
    st.builds(BackwardShift, st.integers(1, 3)),
    st.builds(ForwardShift, st.integers(1, 3)),
    st.just(Identity()),
    st.builds(Diagonal, st.lists(factors, max_size=8).map(tuple)),
    matrices,
)
operators = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.builds(ScalarMultiple, factors, kids),
        st.builds(DirectSum, kids, kids, st.integers(1, 6)),
    ),
    max_leaves=4,
)


def _vectors(magnitude):
    values = st.complex_numbers(
        max_magnitude=magnitude, allow_nan=False, allow_infinity=False
    )
    return st.dictionaries(st.integers(0, 10), values, max_size=5).map(SeqVec)


vectors = _vectors(2.0)
patterns = st.one_of(
    st.builds(PrefixZero, st.integers(0, 4)),
    st.integers(2, 4).flatmap(lambda b: st.builds(ResidueZero, st.integers(0, b - 1), st.just(b))),
    st.builds(SupportIn, st.integers(1, 3)),
    st.builds(RightBlockZero, st.integers(1, 8)),
)
powers = st.lists(st.integers(0, 12), max_size=6, unique=True).map(sorted)
dims = st.integers(0, 12)


def _outcomes(results):
    """What an iterator yields, then the type of the error that stops it, if any."""
    out = []
    try:
        for r in results:
            out.append(r)
    except (OrbitlabError, ValueError) as exc:
        out.append(type(exc))
    return out


def _result(fn):
    try:
        return fn()
    except (OrbitlabError, ValueError) as exc:
        return type(exc)


def _scratch_invariance(op, pattern, n, dim):
    for i in allowed_indices(pattern, dim):
        if membership_defect(apply_power(op, n, SeqVec.basis(i)), pattern) != 0.0:
            return False
    return True


@seed(5)
@settings(max_examples=300, deadline=None)
@given(operators, patterns, powers, dims)
def test_invariance_scan_matches_checks_from_scratch(op, pattern, ns, dim):
    carried = _outcomes(invariance_scan(op, pattern, ns, dim))
    assert carried == _outcomes(_scratch_invariance(op, pattern, n, dim) for n in ns)
    assert carried == _outcomes(invariance_check(op, pattern, n, dim) for n in ns)


@seed(6)
@settings(max_examples=100, deadline=None)
@given(operators, patterns, powers, dims)
def test_invariance_scan_never_applies_more_than_from_scratch(op, pattern, ns, dim):
    carried, scratch = CountingOp(op), CountingOp(op)
    _outcomes(invariance_scan(carried, pattern, ns, dim))
    _outcomes(_scratch_invariance(scratch, pattern, n, dim) for n in ns)
    assert carried.calls <= scratch.calls


@seed(7)
@settings(max_examples=200, deadline=None)
@given(
    operators,
    vectors,
    st.lists(_vectors(0.4), min_size=1, max_size=5),
    st.lists(st.integers(0, 5), min_size=1),
    patterns,
)
def test_certify_rows_match_replay_from_scratch(op, vec, targets, gaps, pattern):
    # Targets of norm < 1 and gaps of at least j past the window keep every
    # time admissible for |lambda| = 2.
    times = [0]
    for j in range(1, len(targets)):
        times.append(times[-1] + length(targets[j - 1]) + 1 + j + gaps[j % len(gaps)])
    schedule = HittingSchedule(2.0, tuple(map(ScheduleEntry, times, targets)))

    def replay():
        rows = []
        for j, (entry, bound) in enumerate(zip(schedule.entries, schedule.bounds)):
            image = apply_power(op, entry.time, vec)
            defect = membership_defect(image, pattern)
            distance = norm(image - entry.target)
            passed = defect == 0.0 and distance <= bound + 1e-9
            rows.append(CertEntry(j, entry.time, defect, distance, bound, passed))
        return tuple(rows)

    carried = _result(lambda: replay_certify(schedule, pattern, op=op, vec=vec))
    assert carried == _result(replay)


@seed(8)
@settings(max_examples=200, deadline=None)
@given(operators, patterns, st.lists(vectors, max_size=3), powers, dims)
def test_criterion_decay_and_invariance_match_scratch(op, pattern, vecs, ns, dim):
    xs = [project(v, pattern) for v in vecs]
    nks = [n + 1 for n in ns] or [1]

    def scratch():
        decay = []
        for i, x in enumerate(xs):
            images = [apply_power(op, n, x) for n in nks]
            first_zero = next((n for n, image in zip(nks, images) if not image), None)
            tail = norm(images[-1])
            decay.append(DecayRecord(i, tail, first_zero, tail <= 1e-9))
        invariance = [
            InvarianceRecord(k, n, _scratch_invariance(op, pattern, n, dim))
            for k, n in enumerate(nks)
        ]
        return tuple(decay), tuple(invariance)

    def carried():
        report = check_criterion(op, pattern, xs, [], nks, dim, 1e-9)
        return report.decay, report.invariance

    assert _result(carried) == _result(scratch)


@pytest.mark.parametrize("horizon", [12, 40])
def test_jordan_report_matches_replay_from_scratch(horizon):
    cases = run(ExperimentConfig.from_dict({"command": "jordan", "horizon": horizon}))
    cases = cases.report["report"]["cases"]
    want = []
    for p in range(1, 5):
        for lam in _JORDAN_LAMBDAS:
            op = FiniteMatrix(np.diag(np.full(p, lam)) + np.diag(np.ones(p - 1), 1))
            y = SeqVec.basis(p - 1)
            worst = 0.0
            closed = jordan_orbit(op, lam, p, y, horizon)
            for n in range(p, horizon + 1):
                power = apply_power(op, n, y)
                err = norm(closed[n - p] - power) / max(norm(power), 1e-30)
                worst = max(worst, err)
            want.append((p, [lam.real, lam.imag], worst))
    assert [(c["p"], c["lambda"], c["maxRelError"]) for c in cases] == want
    assert len(cases) == 12

