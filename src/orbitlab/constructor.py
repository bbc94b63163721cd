"""Hitting schedules for scaled backward-shift orbits.

Given a modulus-greater-than-one scaling ``lam`` and a list of sparse
targets, pick powers ``k_0 = 0 < k_1 < k_2 < ...`` far enough apart that
the single vector

    f = sum_j  S^{k_j} f_j / lam^{k_j}

carries every target in its own coordinate window.  ``assemble`` keeps f as
its windows ``(k_j, f_j)``: the scale of window j is the integer exponent
``-k_j`` of lam, never a float, so no window is too small to hold.  Applying
the scaled backward shift ``k_n`` times re-surfaces window n exactly, while
the later windows contribute at most a certified geometric tail.  For
``lam B`` itself, ``certify`` reads every row off the windows by exponent
arithmetic; for any other operator it replays the orbit of the float
vector.  Row n is held to the tail sqrt(sum_{i>n} |lam|^(-2i)), which
depends only on |lam| and the number of targets, so a schedule derives its
``bounds`` with ``tail_bounds`` instead of storing them.  Because shifts
are pure index arithmetic, the certificate's membership column is exact
and the distance column is a float evaluation of an inequality that holds
term by term.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidModulus, ScheduleUnderflow
from .seqspace import (
    BackwardShift,
    ForwardShift,
    Operator,
    ScalarMultiple,
    SeqVec,
    _scaled_shift_parts,
    apply_power,
    norm,
)
from .subspace import PrefixZero, RightBlockZero, ZeroPattern, membership_defect

__all__ = [
    "length",
    "ScheduleEntry",
    "HittingSchedule",
    "build_schedule",
    "WindowedVector",
    "assemble",
    "tail_bounds",
    "geometric_tail_bound",
    "CertEntry",
    "CertReport",
    "certify",
]

# A nonzero window term below this modulus is one rounding step away from
# being pruned as a structural zero.  Only a float vector can lose one, so
# only ``WindowedVector.vector`` refuses such a term.
UNDERFLOW_GUARD = 1e-280

_MIN_NORMAL = sys.float_info.min
# A tail at most 2**-1100 times the leading term of a sum of squares cannot
# move the sum's rounding, except by breaking an exact tie; it is folded in
# as one rounded-up remainder term instead of term by term.
_NEGLIGIBLE_LOG2 = -1100


def length(vec: SeqVec) -> int:
    """Smallest s with vec_k = 0 for all k >= s; 0 for the zero vector."""
    sup = vec.support()
    return sup[-1] + 1 if sup else 0


def _within_decay(size: float, lam_abs: float, gap: int, j: int) -> bool:
    """Entry j's norm constraint: size * lam_abs**-gap <= lam_abs**-j.

    Where lam_abs**gap is finite and lam_abs**-j a normal float, the float
    test decides, with the bits it has always had.  Past that range a float
    saturates (``size / inf`` reads 0.0 and would pass anything), so the
    constraint is decided exactly on rationals: size <= lam_abs**(gap - j).
    """
    try:
        grow = lam_abs**gap
    except OverflowError:
        grow = math.inf
    limit = lam_abs ** (-j)
    if grow < math.inf and limit >= _MIN_NORMAL:
        return not size / grow > limit
    return size < math.inf and Fraction(size) <= Fraction(lam_abs) ** (gap - j)


@dataclass(frozen=True)
class ScheduleEntry:
    time: int
    target: SeqVec


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
            if not _within_decay(norm(cur.target), lam_abs, cur.time - prev.time, j):
                raise ValueError(f"entry {j}: norm constraint violated")

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(e.time for e in self.entries)

    @cached_property
    def bounds(self) -> tuple[float, ...]:
        """The certified residual after each entry; it depends on |lam| and the count only."""
        return tuple(tail_bounds(abs(self.lam), len(self.entries) - 1))


def tail_bounds(lam_abs: float, count: int) -> list[float]:
    """sqrt of sum_{i=j+1..count} lam_abs^(-2i) for j = 0..count, in one pass:
    the certified residual after entry j of a schedule with count + 1 entries.

    The float terms lam_abs**(-2i) are summed from the end as exact
    rationals; ``float`` of a Fraction rounds correctly, as ``math.fsum``
    does, so every bound has the bits of the fsum over its own terms.
    """
    out = [0.0] * (count + 1)
    total = Fraction(0)
    for i in range(count, 0, -1):
        total += Fraction(lam_abs ** (-2 * i))
        out[i - 1] = math.sqrt(total)
    return out


def geometric_tail_bound(lam_abs: float, j: int) -> float:
    """Closed form of the infinite tail, an upper bound for every finite one."""
    return lam_abs ** (-(j + 1)) / math.sqrt(1.0 - lam_abs**-2)


def build_schedule(lam: complex, targets: Sequence[SeqVec]) -> HittingSchedule:
    """Choose hitting times for the targets in order.

    Each time is the smallest admissible one past the previous window,
    which makes schedules reproducible.  The search starts two steps below
    the gap that the logarithms give, where the norm constraint still fails
    by more than a factor lam_abs, rounding included.
    """
    lam_abs = abs(lam)
    if lam_abs <= 1.0:
        raise InvalidModulus(f"|lam| = {lam_abs} must exceed 1")
    if not targets:
        raise ValueError("need at least one target")

    log_lam = math.log(lam_abs) if lam_abs > 1.0 + 2.0**-20 else None
    times = [0]
    for j in range(1, len(targets)):
        k = times[-1] + length(targets[j - 1]) + 1
        target_norm = norm(targets[j])
        if target_norm == math.inf:
            raise ValueError(f"target {j}: norm past the float range")
        if target_norm and log_lam is not None:
            skip = j + math.floor(math.log(target_norm) / log_lam) - 2
            k = max(k, times[-1] + skip)
        while not _within_decay(target_norm, lam_abs, k - times[-1], j):
            k += 1
        times.append(k)

    return HittingSchedule(lam, tuple(map(ScheduleEntry, times, targets)))


def _power(z, n: int):
    """``z**n`` for n >= 0 by repeated squaring.

    Exact whenever every product is, as for lam = 2, -2, 2i, -2i or 4 and
    their inverses while the result is a normal float; Python's complex
    power switches to polar form past n = 100 and is not.
    """
    out = 1.0
    while n:
        if n & 1:
            out = out * z
        n >>= 1
        if n:
            z = z * z
    return out


def _frexp_power(base: float, n: int) -> tuple[float, int]:
    """``base**n`` as ``(m, e)`` with ``m * 2**e`` its value and 0.5 <= m < 1.

    Neither overflows nor underflows.  In the normal float range it is the
    float power; past it, repeated squaring on (mantissa, exponent) pairs.
    Both are exact when base is a power of two.
    """
    value = base**n
    if value >= _MIN_NORMAL:
        return math.frexp(value)
    m, e = 0.5, 1
    bm, be = math.frexp(base)
    while n:
        if n & 1:
            m, f = math.frexp(m * bm)
            e += be + f
        n >>= 1
        if n:
            bm, f = math.frexp(bm * bm)
            be = 2 * be + f
    return m, e


_ONE = (0.5, 1)  # 1.0 as a (mantissa, exponent) pair


class WindowedVector:
    """f = sum_j lam^(-k_j) S^(k_j) f_j, kept as a schedule's windows (k_j, f_j).

    Window j holds the entries z of f_j at positions k_j + i, each times
    lam^(-k_j): the modulus |lam|^(-k_j) is kept as a (mantissa, exponent)
    pair, never a float, so the windows hold any schedule, however far its
    hitting times run.  The unit part is raised to its power only where a
    value is needed.  Each window's squared moduli are kept scaled by
    4^(-s_j), a power of two that keeps the square of its largest entry
    near 1.  ``vector`` multiplies the scales in, for replay through
    operators other than lam B; that float vector is what has a range.
    """

    def __init__(self, schedule: HittingSchedule):
        self.schedule = schedule
        lam = complex(schedule.lam)
        lam_abs = abs(lam)
        self.unit_inv = lam_abs / lam
        self.log2_lam = math.log2(lam_abs)
        self.log2_geometric = math.log2(1.0 - lam_abs**-2)
        entries = schedule.entries
        self.times = [e.time for e in entries]
        self.scale = [_frexp_power(1.0 / lam_abs, k) for k in self.times]
        self.shift: list[int] = []
        self.squares: list[list[float]] = []
        self.pos: list[int] = []
        self.owner: list[int] = []
        self.values: list[complex] = []
        for j, e in enumerate(entries):
            items = e.target.items()
            s = max((math.frexp(max(abs(z.real), abs(z.imag)))[1] for _, z in items), default=0)
            self.shift.append(s)
            scaled = [(math.ldexp(z.real, -s), math.ldexp(z.imag, -s)) for _, z in items]
            self.squares.append([x * x + y * y for x, y in scaled])
            for i, z in items:
                self.pos.append(e.time + i)
                self.owner.append(j)
                self.values.append(z)
        # nonempty[j]: the first window at or after j that holds an entry.
        count = len(entries)
        self.nonempty = [count] * (count + 1)
        for j in range(count - 1, -1, -1):
            self.nonempty[j] = j if self.squares[j] else self.nonempty[j + 1]

    @property
    def length(self) -> int:
        """``length`` of f: past its last entry."""
        return self.pos[-1] + 1 if self.pos else 0

    def _log2_envelope(self, j: int, ref: int) -> float:
        """log2 of a bound on sum_{i >= j} ||f_i||^2 |lam|^(-2(k_i - ref)), j >= 1.

        The norm constraint gives ||f_i|| |lam|^(-(k_i - ref)) <=
        |lam|^(-i) |lam|^(-(k_(j-1) - ref)) for every i >= j when
        ref <= k_(j-1); the geometric series over i does the rest.
        """
        return -2.0 * (self.times[j - 1] - ref + j) * self.log2_lam - self.log2_geometric

    def tail(self, ref: tuple[float, int], start: int) -> float:
        """The norm of the windows from ``start`` on, seen at a time t <= k_start.

        That is sqrt(sum_{j >= start} ||f_j||^2 |lam|^(-2(k_j - t))), where
        ``ref`` is |lam|^(-t) as a (mantissa, exponent) pair.  Terms are
        summed in units of the leading window's scale; once the envelope of
        what is left falls 2**-1100 below the leading term, the rest is one
        rounded-up remainder.  A result below the normal range is rounded
        up too, so the tail is never under-reported.
        """
        m = self.nonempty[start]
        if m == len(self.times):
            return 0.0
        times, squares, scale, shift = self.times, self.squares, self.scale, self.shift
        mm, me = scale[m]
        # Terms are in units of 4^unit |lam|^(-2(k_m - t)).  The leading
        # window's squares sum to at least 4^(s_m - 1) in them; a unit no
        # lower than 4^-400 keeps every later term finite.
        unit = max(shift[m], -400)
        terms: list[float] = []
        for j in range(m, len(times)):
            if j > m:
                log2_env = self._log2_envelope(j, times[m])
                if log2_env - 2 * shift[m] < _NEGLIGIBLE_LOG2:
                    rest = math.ldexp(1.0, math.ceil(log2_env - 2 * unit) + 1)
                    terms.append(max(rest, math.ulp(0.0)))
                    break
            sq = squares[j]
            if not sq:
                continue
            mj, ej = scale[j]
            ratio = mj / mm
            ratio2 = ratio * ratio
            exp = 2 * (ej - me + shift[j] - unit)
            factor = math.ldexp(ratio2, exp)
            if factor >= _MIN_NORMAL:
                terms.extend([t * factor for t in sq])
            else:  # the factor alone would round; each term rounds once instead
                terms.extend([math.ldexp(t * ratio2, exp) for t in sq])
        root = math.sqrt(math.fsum(terms)) * (mm / ref[0])
        out = math.ldexp(root, me - ref[1] + unit)
        return out if out >= _MIN_NORMAL else math.nextafter(out, math.inf)

    def landings(self, pattern: ZeroPattern, k: int) -> Iterable[int]:
        """Entries that the image at hitting time k holds on forbidden indices.

        The image at time k holds each entry at position p >= k on index
        p - k.  Yields indices into the position list, ascending: a range
        of positions for a prefix or right-block pattern, otherwise the
        positions the pattern forbids, asked one by one.
        """
        pos = self.pos
        if type(pattern) is PrefixZero:
            return range(bisect_left(pos, k), bisect_left(pos, k + pattern.m))
        if type(pattern) is RightBlockZero:
            return range(bisect_left(pos, k + pattern.split), len(pos))
        start = bisect_left(pos, k)
        return (x for x in range(start, len(pos)) if pattern.forbids(pos[x] - k))

    def defect(self, n: int, pattern: ZeroPattern) -> float:
        """Row n's membership defect: the norm of its image's forbidden part.

        Each forbidden entry z of window j takes the value z lam^(-(k_j - k_n))
        that the orbit gives it, and the moduli meet in ``math.hypot`` in
        index order, as ``membership_defect`` would see them.  Windows past
        the envelope cutoff become one rounded-up remainder, and a nonzero
        defect below the normal range is rounded up, so the defect is 0.0
        exactly when no entry lands on a forbidden index.
        """
        times, scale, owner, values = self.times, self.scale, self.owner, self.values
        k_n = times[n]
        mn, en = scale[n]
        parts: list[float] = []
        window, w, exp = -1, 1.0, 0
        landed = False
        for x in self.landings(pattern, k_n):
            landed = True
            j = owner[x]
            if j != window:
                if j > n:
                    log2_env = self._log2_envelope(j, k_n)
                    if log2_env < 2 * _NEGLIGIBLE_LOG2:
                        parts.append(
                            max(math.ldexp(1.0, math.ceil(log2_env / 2) + 1), math.ulp(0.0))
                        )
                        break
                window = j
                mj, ej = scale[j]
                w = _power(self.unit_inv, times[j] - k_n) * (mj / mn)
                exp = ej - en
            z = values[x] * w
            parts.append(math.ldexp(z.real, exp))
            parts.append(math.ldexp(z.imag, exp))
        if not landed:
            return 0.0
        out = math.hypot(*parts)
        return out if out >= _MIN_NORMAL else math.nextafter(out, math.inf)

    def norm(self) -> float:
        """The Euclidean norm of f, from the windows."""
        return self.tail(_ONE, 0)

    def vector(self) -> SeqVec:
        """f as one float vector.

        Windows are disjoint by the spacing constraint, so the sum never
        mixes coordinates from different targets.  Each window term is
        built, and so checked, once; its entries go into one dict as
        ``0j + z``, the value ``SeqVec.__add__`` stores (it turns a -0.0
        part into +0.0).  Raises ``ScheduleUnderflow`` when a window's
        scale has left the float range, since its entries would be pruned.
        """
        lam_inv = 1 / self.schedule.lam
        total: dict[int, complex] = {}
        for j, entry in enumerate(self.schedule.entries):
            if not entry.target:
                continue
            scale = _power(lam_inv, entry.time)
            size = norm(entry.target) * abs(scale)
            if size < UNDERFLOW_GUARD:
                raise ScheduleUnderflow(
                    f"entry {j}: window term at modulus scale {size:.3e} would be lost to pruning"
                )
            term = apply_power(ForwardShift(1), entry.time, entry.target) * scale
            for i, z in term.items():
                total[i] = total.get(i, 0j) + z
        # The windows are disjoint and come in index order, so the dict is
        # canonical and sorted as it stands.
        return SeqVec._from_canonical(total)


def assemble(schedule: HittingSchedule) -> WindowedVector:
    """Superpose the shifted, scaled targets into one vector, kept as its windows."""
    return WindowedVector(schedule)


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


def _passes(defect: float, distance: float, bound: float, tol: float) -> bool:
    """The row gate: defect <= tol and distance <= bound + tol, both exact.

    ``bound + tol`` rounded to a float can land above the true sum and pass
    a distance just past it, so the sign of distance - bound - tol is taken
    from ``math.fsum``, which rounds the exact difference correctly.  NaN
    fails both tests.
    """
    if not defect <= tol:
        return False
    try:
        return math.fsum((distance, -bound, -tol)) <= 0.0
    except OverflowError:  # bound + tol is past the float range
        return math.isfinite(distance)


def certify(
    vec: SeqVec | WindowedVector,
    schedule: HittingSchedule,
    pattern: ZeroPattern,
    float_tol: float = 1e-9,
    op: Operator | None = None,
) -> CertReport:
    """The image at every hitting time, compared against the targets.

    ``op`` defaults to the scaled backward shift ``schedule.lam`` B.  When
    ``vec`` is the ``WindowedVector`` of this schedule and ``op`` is, by
    exact type, ``schedule.lam`` times ``BackwardShift(1)``, row n is read
    off the windows: windows j < n have left the image, window n is f_n
    itself, and window j > n sits at offset k_j - k_n scaled by
    lam^(-(k_j - k_n)).  The defect is decided by index arithmetic, and the
    distance is the norm of the later windows (see ``WindowedVector.tail``).

    Otherwise the orbit of the float vector is iterated honestly, once:
    each row advances the previous row's image by the gap between their
    hitting times.  Every operator step is a pure function of its input, so
    a row is bit-identical to replaying its power from ``vec``, and a
    corruption still reaches every later window.  Either way, row n is held
    to ``schedule.bounds[n]``.
    """
    if op is None:
        op = ScalarMultiple(schedule.lam, BackwardShift(1))
    rows = []
    windowed = (
        isinstance(vec, WindowedVector)
        and vec.schedule == schedule
        and _scaled_shift_parts(op) == ((schedule.lam,), 1)
    )
    if isinstance(vec, WindowedVector) and not windowed:
        vec = vec.vector()
    image, reached = vec, 0
    for j, (entry, bound) in enumerate(zip(schedule.entries, schedule.bounds)):
        if windowed:
            defect = vec.defect(j, pattern)
            distance = vec.tail(vec.scale[j], j + 1)
        else:
            image = apply_power(op, entry.time - reached, image)
            reached = entry.time
            defect = membership_defect(image, pattern)
            distance = norm(image - entry.target)
        passed = _passes(defect, distance, bound, float_tol)
        rows.append(CertEntry(j, entry.time, defect, distance, bound, passed))
    return CertReport(tuple(rows))
