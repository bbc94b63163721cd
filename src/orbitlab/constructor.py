"""Hitting schedules for scaled backward-shift orbits.

Given a modulus-greater-than-one scaling ``lam`` and a list of sparse
targets, pick powers ``k_0 = 0 < k_1 < k_2 < ...`` far enough apart that
the single vector

    f = sum_j  S^{k_j} f_j / lam^{k_j}

carries every target in its own coordinate window.  Applying the scaled
backward shift ``k_n`` times re-surfaces window n exactly, while the later
windows contribute at most a certified geometric tail.  Because shifts are
pure index arithmetic, the certificate's membership column is exact and the
distance column is a float evaluation of an inequality that holds term by
term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidModulus, ScheduleUnderflow
from .seqspace import (
    BackwardShift,
    ForwardShift,
    Operator,
    ScalarMultiple,
    SeqVec,
    apply_power,
    norm,
)
from .subspace import ZeroPattern, membership_defect

__all__ = [
    "length",
    "ScheduleEntry",
    "HittingSchedule",
    "build_schedule",
    "assemble",
    "tail_bound",
    "geometric_tail_bound",
    "CertEntry",
    "CertReport",
    "certify",
]

# A nonzero window term below this modulus is one rounding step away from
# being pruned as a structural zero, which would silently corrupt the
# certificate; refuse instead.
UNDERFLOW_GUARD = 1e-280


def length(vec: SeqVec) -> int:
    """Smallest s with vec_k = 0 for all k >= s; 0 for the zero vector."""
    sup = vec.support()
    return sup[-1] + 1 if sup else 0


def _pow_abs(base: float, exp: int) -> float:
    # float ** raises OverflowError instead of returning inf; for a base > 1
    # the saturated value keeps every comparison below correct.
    try:
        return base**exp
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ScheduleEntry:
    time: int
    target: SeqVec
    bound: float


@dataclass(frozen=True)
class HittingSchedule:
    """Validated hitting times: spacing and norm constraints hold on construction."""

    lam: complex
    entries: tuple[ScheduleEntry, ...]

    def __post_init__(self):
        if abs(self.lam) <= 1.0:
            raise InvalidModulus(f"|lam| = {abs(self.lam)} must exceed 1")
        if not self.entries:
            raise ValueError("schedule needs at least one entry")
        if self.entries[0].time != 0:
            raise ValueError("first hitting time must be 0")
        lam_abs = abs(self.lam)
        for j in range(1, len(self.entries)):
            prev, cur = self.entries[j - 1], self.entries[j]
            if cur.time <= prev.time + length(prev.target):
                raise ValueError(
                    f"entry {j}: time {cur.time} not past window of entry {j - 1}"
                )
            if norm(cur.target) / _pow_abs(lam_abs, cur.time - prev.time) > lam_abs ** (
                -j
            ):
                raise ValueError(f"entry {j}: norm constraint violated")

    @property
    def lam_abs(self) -> float:
        return abs(self.lam)

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(e.time for e in self.entries)

    @property
    def targets(self) -> tuple[SeqVec, ...]:
        return tuple(e.target for e in self.entries)


def tail_bound(lam_abs: float, j: int, count: int) -> float:
    """sqrt of sum_{i=j+1..count} lam_abs^(-2i); the certified residual after entry j."""
    return math.sqrt(math.fsum(lam_abs ** (-2 * i) for i in range(j + 1, count + 1)))


def geometric_tail_bound(lam_abs: float, j: int) -> float:
    """Closed form of the infinite tail, an upper bound for every finite one."""
    return lam_abs ** (-(j + 1)) / math.sqrt(1.0 - lam_abs**-2)


def build_schedule(lam: complex, targets: Sequence[SeqVec]) -> HittingSchedule:
    """Choose hitting times for the targets in order.

    Each time is the smallest admissible one past the previous window,
    which makes schedules reproducible.
    """
    lam_abs = abs(lam)
    if lam_abs <= 1.0:
        raise InvalidModulus(f"|lam| = {lam_abs} must exceed 1")
    if not targets:
        raise ValueError("need at least one target")

    count = len(targets) - 1
    times = [0]
    for j in range(1, len(targets)):
        k = times[-1] + length(targets[j - 1]) + 1
        while norm(targets[j]) / _pow_abs(lam_abs, k - times[-1]) > lam_abs ** (-j):
            k += 1
        times.append(k)

    entries = tuple(
        ScheduleEntry(times[j], targets[j], tail_bound(lam_abs, j, count))
        for j in range(len(targets))
    )
    return HittingSchedule(lam, entries)


def assemble(schedule: HittingSchedule) -> SeqVec:
    """Superpose the shifted, scaled targets into one vector.

    Windows are disjoint by the spacing constraint, so the sum never mixes
    coordinates from different targets.
    """
    lam = schedule.lam
    total = SeqVec.zero()
    for j, entry in enumerate(schedule.entries):
        if not entry.target:
            continue
        scale = lam ** (-entry.time)
        if norm(entry.target) * abs(scale) < UNDERFLOW_GUARD:
            raise ScheduleUnderflow(
                f"entry {j}: window term at modulus scale {norm(entry.target) * abs(scale):.3e} "
                "would be lost to pruning"
            )
        term = apply_power(ForwardShift(1), entry.time, entry.target) * scale
        total = total + term
    return total


@dataclass(frozen=True)
class CertEntry:
    index: int
    time: int
    defect: float
    distance: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class CertReport:
    entries: tuple[CertEntry, ...]

    @property
    def passes(self) -> bool:
        return all(e.passed for e in self.entries)


def certify(
    lam: complex,
    vec: SeqVec,
    schedule: HittingSchedule,
    pattern: ZeroPattern,
    float_tol: float = 1e-9,
    op: Operator | None = None,
) -> CertReport:
    """Replay the orbit at every hitting time and compare against the targets.

    The orbit is iterated honestly, once: each row advances the previous
    row's image by the gap between their hitting times.  Every operator step
    is a pure function of its input, so a row is bit-identical to replaying
    its power from ``vec``, and a corruption still reaches every later
    window.  ``op`` defaults to the scaled backward shift the schedule was
    built for.
    """
    if op is None:
        op = ScalarMultiple(lam, BackwardShift(1))
    rows = []
    image, reached = vec, 0
    for j, entry in enumerate(schedule.entries):
        image = apply_power(op, entry.time - reached, image)
        reached = entry.time
        defect = membership_defect(image, pattern)
        distance = norm(image - entry.target)
        passed = defect <= float_tol and distance <= entry.bound + float_tol
        rows.append(CertEntry(j, entry.time, defect, distance, entry.bound, passed))
    return CertReport(tuple(rows))
