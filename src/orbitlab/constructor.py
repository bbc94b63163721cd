"""Hitting schedules for scaled backward-shift orbits.

Given a modulus-greater-than-one scaling ``lam`` and a list of sparse
targets, pick powers ``k_0 = 0 < k_1 < k_2 < ...`` far enough apart that
the single vector

    f = sum_j  S^{k_j} f_j / lam^{k_j}

carries every target in its own coordinate window.  ``assemble`` keeps f as
its windows ``(k_j, f_j)``: the scale of window j is the integer exponent
``-k_j`` of lam, never a float, so no window is too small to hold.  Applying
the scaled backward shift ``k_n`` times re-surfaces window n exactly, while
the later windows contribute at most a certified geometric tail.
``certify`` reads every row off the windows by exponent arithmetic, for
``lam B`` and for the paper's ``lam B + I``, whose identity block holds every
entry past the split where it is.  Row n is held to the tail
sqrt(sum_{i>n} |lam|^(-2i)), which depends only on |lam| and the number of
targets, so a schedule derives its ``bounds`` with ``tail_bounds`` instead
of storing them.  Because shifts are pure index arithmetic, the
certificate's membership column is exact and the distance column is a float
evaluation of an inequality that holds term by term.
"""

from __future__ import annotations

import decimal
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import InvalidModulus, UnsupportedOperator
from .seqspace import (
    _RESCALE_BELOW,
    DirectSum,
    Identity,
    Operator,
    SeqVec,
    _root_sum_squares,
    _scaled_shift_parts,
    apply_power,  # noqa: F401 - perfbench/tracer.py patches this binding
    norm,
)
from .subspace import PrefixZero, RightBlockZero, ZeroPattern

__all__ = [
    "length",
    "ScheduleEntry",
    "HittingSchedule",
    "build_schedule",
    "WindowedVector",
    "assemble",
    "tail_bounds",
    "CertEntry",
    "CertReport",
    "certify",
]

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
    saturates (``size / inf`` reads 0.0 and would pass anything), and from
    gap 2**53 on a float gap rounds, so the test would hold over runs of
    gaps at once: there size <= lam_abs**(gap - j) is decided exactly.
    """
    try:
        grow = lam_abs**gap if gap < 2**53 else math.inf
    except OverflowError:
        grow = math.inf
    limit = lam_abs ** (-j)
    if grow < math.inf and limit >= _MIN_NORMAL:
        return not size / grow > limit
    return _at_most_power(size, lam_abs, gap - j)


def _at_most_power(size: float, lam_abs: float, n: int) -> bool:
    """size <= lam_abs**n exactly, for a float lam_abs > 1 and any integer n.

    With each float written odd * 2**e, the sides tie only where
    e(size) = n e(lam_abs) and odd(size) = odd(lam_abs)**n: a power past
    2**53 from n = 54 on, and no integer below n = 0, unless odd(lam_abs)
    is 1.  Otherwise decimal logarithms, given more digits until they tell
    the two sides apart, decide.
    """
    if not 0.0 < size < math.inf:
        return size == 0.0
    odd_s, e_s = _odd_part(size)
    odd_l, e_l = _odd_part(lam_abs)
    if e_s == n * e_l and odd_s == odd_l ** min(n, 54):
        return True
    digits = 40
    while True:
        with decimal.localcontext(prec=digits):
            left = _ln(size, digits)
            right = n * _ln(lam_abs, digits)
            # The logarithms are correctly rounded and the product and the
            # difference round once each: ten units in the last digit of
            # the larger side cover all.
            if abs(left - right) > (abs(left) + abs(right)).scaleb(2 - digits):
                return left < right
        digits *= 2


@lru_cache(maxsize=16)
def _ln(x: float, digits: int) -> decimal.Decimal:
    """ln x correctly rounded to ``digits`` digits; a schedule search asks
    for the same two many times."""
    return decimal.Context(prec=digits).ln(decimal.Decimal(x))


@lru_cache(maxsize=16)
def _odd_part(x: float) -> tuple[int, int]:
    """``(odd, e)`` with odd * 2**e the positive float x and odd an odd integer."""
    num, den = x.as_integer_ratio()
    zeros = (num & -num).bit_length() - 1
    return num >> zeros, zeros - den.bit_length() + 1


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
        if not 1.0 < abs(self.lam) < math.inf:
            raise InvalidModulus(f"|lam| = {abs(self.lam)} must be finite and exceed 1")
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

    The terms are summed from the end, exactly, as one integer multiple of
    1/q: the float lam_abs**(-2i) while it is a normal float, a multiple of
    2**-1074, and the exact power past that.  With lam_abs = num / 2**s the
    exact power is 2**(2 i s) / num**(2 i), so q = 2**1074 num**(2 count)
    once any term is exact.  A sum in the normal range takes ``math.sqrt``
    of its correctly rounded float; a smaller one its correctly rounded root
    (``_root``), so a bound is 0.0 only where that root is.
    """
    num, den = lam_abs.as_integer_ratio()
    s = den.bit_length() - 1
    # The terms fall with i, so the last is exact if any is.
    big = num ** (2 * count) if lam_abs ** (-2 * count) < _MIN_NORMAL else 1
    q = big << 1074
    out = [0.0] * (count + 1)
    total = 0
    power = 1  # num**(2 (count - i)) over the exact terms
    for i in range(count, 0, -1):
        term = lam_abs ** (-2 * i)
        if term >= _MIN_NORMAL:
            m, d = term.as_integer_ratio()  # d = 2**k, k <= 1074
            total += (m * big) << (1075 - d.bit_length())
        else:
            total += power << (1074 + 2 * i * s)
            power *= num * num
        out[i - 1] = math.sqrt(total / q) if total << 1022 >= q else _root(total, q)
    return out


def _root(n: int, d: int) -> float:
    """sqrt(n / d) correctly rounded to a float, for integers 0 <= n < d."""
    if not n:
        return 0.0
    log2 = n.bit_length() - d.bit_length()  # floor(log2 (n / d)) is log2 or log2 - 1
    if n << -log2 < d:
        log2 -= 1
    # 2**-e is the float spacing at sqrt(n / d), or the subnormal one below
    # it, so the root scaled by 2**e is below 2**53 and rounds to an integer.
    e = min(52 - log2 // 2, 1074)
    n <<= 2 * e
    q = math.isqrt(n // d)
    # sqrt(n / d) lies in [q, q + 1); round to nearest, ties to even.
    over = 4 * n - (2 * q + 1) ** 2 * d
    if over > 0 or (over == 0 and q & 1):
        q += 1
    return math.ldexp(q, -e)


def build_schedule(lam: complex, targets: Sequence[SeqVec]) -> HittingSchedule:
    """Choose hitting times for the targets in order.

    Each time is the smallest admissible one past the previous window,
    which makes schedules reproducible.  The norm test is monotone in the
    gap and first holds near j + q, q = log(norm) / log(lam_abs), so the
    search starts two steps below j + q: the steps cover the test's
    rounding, and q's too.  ``log1p`` keeps a float q within three units in
    the last place however close lam_abs is to 1, under 2**-10 of a step
    below |q| = 2**40; from there on, q is taken from decimal logarithms.
    """
    lam_abs = abs(lam)
    if not 1.0 < lam_abs < math.inf:
        raise InvalidModulus(f"|lam| = {lam_abs} must be finite and exceed 1")
    if not targets:
        raise ValueError("need at least one target")

    log_lam = math.log1p(lam_abs - 1.0)
    times = [0]
    for j in range(1, len(targets)):
        k = times[-1] + length(targets[j - 1]) + 1
        target_norm = norm(targets[j])
        if target_norm == math.inf:
            raise ValueError(f"target {j}: norm past the float range")
        if target_norm:
            q = math.log(target_norm) / log_lam
            if abs(q) >= 2**40:
                with decimal.localcontext(prec=40):
                    q = _ln(target_norm, 40) / _ln(lam_abs, 40)
            k = max(k, times[-1] + j + math.floor(q) - 2)
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
    near 1.

    A certificate's rows are read off the windows for T = lam B, and for
    the paper's lam B + I, the direct sum whose identity block starts at
    index ``split``.  T^k moves an entry at position p < split to p - k,
    times lam^k, and drops it if p < k; an entry at p >= split stays where
    it is, times 1.  lam B alone is the split at infinity.
    """

    def __init__(self, schedule: HittingSchedule):
        self.schedule = schedule
        lam = complex(schedule.lam)
        lam_abs = abs(lam)
        # Complex division overflows its denominator for |lam| past about
        # 1.27e308 near a 45-degree phase and reads 0; halving both sides is
        # exact there.
        self.unit_inv = lam_abs / lam or (0.5 * lam_abs) / (0.5 * lam)
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

    def landings(self, pattern: ZeroPattern, k: int, lo: int, hi: int) -> Iterable[int]:
        """Entries x in [lo, hi), ascending, whose position moved down by k
        the pattern forbids: a range for a prefix or right-block pattern,
        otherwise asked one by one."""
        pos = self.pos
        if type(pattern) is PrefixZero:
            return range(lo, min(hi, bisect_left(pos, k + pattern.m)))
        if type(pattern) is RightBlockZero:
            return range(max(lo, bisect_left(pos, k + pattern.split)), hi)
        return (x for x in range(lo, hi) if pattern.forbids(pos[x] - k))

    def _seen(self, xs: Iterable[int], t: int, ref: tuple[float, int], first: int) -> Iterator:
        """``(x, c, e)`` for each entry x of xs: its value z lam^(t - k_j) = c 2**e.

        ``ref`` is |lam|^(-t) as a (mantissa, exponent) pair.  From window
        ``first`` on (first >= 1, and k_(first-1) >= t), once the envelope
        of the windows left falls below 2**-1100, they end the walk as one
        rounded-up remainder ``(None, 1, e)``.
        """
        times, scale, owner, values = self.times, self.scale, self.owner, self.values
        window, w, exp = -1, 1.0, 0
        for x in xs:
            j = owner[x]
            if j != window:
                if j >= first:
                    log2_env = self._log2_envelope(j, t)
                    if log2_env < 2 * _NEGLIGIBLE_LOG2:
                        yield None, 1 + 0j, math.ceil(log2_env / 2) + 1
                        return
                window = j
                mj, ej = scale[j]
                w = _power(self.unit_inv, times[j] - t) * (mj / ref[0])
                exp = ej - ref[1]
            yield x, values[x] * w, exp

    def defect(self, n: int, pattern: ZeroPattern, split: float = math.inf) -> float:
        """Row n's membership defect: the norm of its image's forbidden part.

        The forbidden entries, first those moved down below the split, then
        those kept past it, meet in ``math.hypot`` in index order, as
        ``membership_defect`` sees them.  A remainder past the envelope
        cutoff and a nonzero defect below the normal range are rounded up,
        so the defect is 0.0 exactly when no entry lands on a forbidden index.
        """
        k_n, pos = self.times[n], self.pos
        cut = bisect_left(pos, split)  # the entries in the lam B block
        moved = self.landings(pattern, k_n, bisect_left(pos, k_n), cut)
        seen = self._seen(moved, k_n, self.scale[n], n + 1)
        if cut < len(pos):
            kept = self.landings(pattern, 0, cut, len(pos))
            seen = chain(seen, self._seen(kept, 0, _ONE, 1))
        parts: list[float] = []
        for x, c, e in seen:
            if x is None:
                parts.append(max(math.ldexp(1.0, e), math.ulp(0.0)))
            else:
                parts.append(math.ldexp(c.real, e))
                parts.append(math.ldexp(c.imag, e))
        if not parts:
            return 0.0
        out = math.hypot(*parts)
        return out if out >= _MIN_NORMAL else math.nextafter(out, math.inf)

    def distance(self, n: int, split: float = math.inf) -> float:
        """Row n's distance ``norm(T^(k_n) f - f_n)``, with the bits ``norm`` gives it.

        Below the split, window n comes back as f_n exactly and the later
        windows move down by k_n; past it, every entry stays, so f_n misses
        window n's entries there.  For lam B, ``tail`` sums the later
        windows' squares.  Otherwise, or below 2**-500 where ``norm``
        rescales, the image minus f_n goes through ``norm``'s rule, as
        values in units of its largest power of two.  A nonzero result below
        the normal range is rounded up.
        """
        k_n, pos, owner, values = self.times[n], self.pos, self.owner, self.values
        cut = bisect_left(pos, split)
        if cut == len(pos):
            out = self.tail(self.scale[n], n + 1)
            if not 0.0 < out < _RESCALE_BELOW:
                return out
        later = bisect_left(owner, n + 1)  # window n + 1's first entry
        missed = range(max(cut, bisect_left(owner, n)), later)
        # (index, c, e) for the value c 2**e at an index of the image minus
        # f_n, or for a remainder at index None; first f_n's missed entries.
        terms = [(pos[x] - k_n, -values[x], 0) for x in missed]
        for t, seen in (
            (k_n, self._seen(range(later, cut), k_n, self.scale[n], n + 1)),
            (0, self._seen(range(cut, len(pos)), 0, _ONE, 1)),
        ):
            terms.extend((None if x is None else pos[x] - t, c, e) for x, c, e in seen)
        if not terms:
            return 0.0
        top = max(e + math.frexp(max(abs(c.real), abs(c.imag)))[1] for _, c, e in terms)
        diff: dict[int, complex] = {}
        rest = []
        for i, c, e in terms:
            v = complex(math.ldexp(c.real, e - top), math.ldexp(c.imag, e - top))
            if i is None:
                rest.append(v)
            else:  # a missed entry of f_n meets what the identity block kept there
                diff[i] = diff.get(i, 0j) + v
        kept = [v for v in diff.values() if v] + rest
        if not kept:
            return 0.0
        tiny = math.ldexp(_RESCALE_BELOW, min(-top, 1500))
        out = math.ldexp(_root_sum_squares(kept, tiny), top)
        return out if out >= _MIN_NORMAL else math.nextafter(out, math.inf)

    def norm(self) -> float:
        """The Euclidean norm of f, from the windows."""
        return self.tail(_ONE, 0)


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
    """The row gate: defect == 0.0, and distance <= bound + tol exactly.

    Membership takes no tolerance: the defect is 0.0 exactly when nothing
    lands on a forbidden index.  ``bound + tol`` rounded could pass a
    distance just past the true sum, so the sign of distance - bound - tol
    is taken from ``math.fsum``, which rounds it correctly.  NaN fails.
    """
    if defect != 0.0:
        return False
    try:
        return math.fsum((distance, -bound, -tol)) <= 0.0
    except OverflowError:  # bound + tol is past the float range
        return math.isfinite(distance)


def _identity_split(op: Operator | None, lam: complex) -> float:
    """Where lam B + I hands over to its identity block; infinity for lam B.

    Both are decided by exact type; any other operator, a subclass or
    another factor included, raises ``UnsupportedOperator``.
    """
    lam_b = ((lam,), 1)
    if op is None or _scaled_shift_parts(op) == lam_b:
        return math.inf
    if type(op) is DirectSum and type(op.right) is Identity:
        if _scaled_shift_parts(op.left) == lam_b:
            return op.split_index
    raise UnsupportedOperator(
        "certify reads only lam B and lam B + I off the windows"
        f" (lam = {lam!r}), not {_clipped_repr(op)}"
    )


# The most characters of an operator's repr that a rejection quotes.
_REPR_CAP = 200


def _clipped_repr(obj) -> str:
    """``repr(obj)``, cut after ``_REPR_CAP`` characters with its full length noted."""
    text = repr(obj)
    if len(text) <= _REPR_CAP:
        return text
    return f"{text[:_REPR_CAP]}... ({len(text)} characters)"


def certify(
    vec: WindowedVector,
    pattern: ZeroPattern,
    float_tol: float = 1e-9,
    op: Operator | None = None,
) -> CertReport:
    """The image at every hitting time, compared against the targets.

    ``vec`` is what ``assemble`` made of a schedule; ``op`` is its lam B
    (the default) or the paper's lam B + I, ``DirectSum(lam B, Identity(),
    s)``, by exact type.  Every row is read off the windows: windows j < n
    have left the image, window n is f_n itself, and window j > n sits at
    offset k_j - k_n scaled by lam^(-(k_j - k_n)), except that every entry
    at a position p >= s stays at p, times lam^(-k_j).  Row n is held to
    ``schedule.bounds[n]``.  A plain ``SeqVec`` or any other operator
    raises ``UnsupportedOperator``.
    """
    if not isinstance(vec, WindowedVector):
        raise UnsupportedOperator(
            f"certify reads the windows that assemble makes, not a {type(vec).__name__}"
        )
    schedule = vec.schedule
    split = _identity_split(op, schedule.lam)
    rows = []
    for j, (entry, bound) in enumerate(zip(schedule.entries, schedule.bounds)):
        defect = vec.defect(j, pattern, split)
        distance = vec.distance(j, split)
        passed = _passes(defect, distance, bound, float_tol)
        rows.append(CertEntry(j, entry.time, defect, distance, bound, passed))
    return CertReport(tuple(rows))
