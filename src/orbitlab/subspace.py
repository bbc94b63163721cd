"""Coordinate-zero subspaces and a deterministic dense family inside them.

A pattern names the coordinates that must vanish; the subspace is everything
supported on the remaining indices.  Membership, projection and invariance
questions then reduce to index bookkeeping on sparse vectors, which keeps
the answers exact: a vector is in the subspace iff it *stores* nothing on a
forbidden index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .seqspace import Operator, SeqVec, _scaled_shift_parts, apply_power

__all__ = [
    "PrefixZero",
    "ResidueZero",
    "SupportIn",
    "RightBlockZero",
    "ZeroPattern",
    "allowed_indices",
    "membership_defect",
    "is_member",
    "project",
    "invariance_check",
    "invariance_scan",
    "DenseFamilySpec",
    "dense_family",
    "family_level_size",
    "dyadic_net",
]


@dataclass(frozen=True)
class PrefixZero:
    """First ``m`` coordinates forced to zero."""

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("prefix length must be >= 0")

    def forbids(self, index: int) -> bool:
        return index < self.m


@dataclass(frozen=True)
class ResidueZero:
    """Coordinates ``a, a+b, a+2b, ...`` forced to zero."""

    a: int
    b: int

    def __post_init__(self):
        if self.b < 2 or not 0 <= self.a < self.b:
            raise ValueError("need 0 <= a < b and b >= 2")

    def forbids(self, index: int) -> bool:
        return index >= self.a and (index - self.a) % self.b == 0


@dataclass(frozen=True)
class SupportIn:
    """Support restricted to multiples of ``b``: everything else is zero."""

    b: int

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("stride must be >= 1")

    def forbids(self, index: int) -> bool:
        return index % self.b != 0


@dataclass(frozen=True)
class RightBlockZero:
    """Coordinates at or past ``split`` forced to zero."""

    split: int

    def __post_init__(self):
        if self.split < 1:
            raise ValueError("split must be >= 1")

    def forbids(self, index: int) -> bool:
        return index >= self.split


ZeroPattern = Union[PrefixZero, ResidueZero, SupportIn, RightBlockZero]


def allowed_indices(pattern: ZeroPattern, bound: int) -> list[int]:
    """Indices below ``bound`` on which the subspace may be supported."""
    return [i for i in range(bound) if not pattern.forbids(i)]


def membership_defect(vec: SeqVec, pattern: ZeroPattern) -> float:
    """Norm of the forbidden part; exactly 0.0 iff the vector is a member.

    ``math.hypot`` scales before it squares, so no stored entry, however
    small, underflows to a zero defect.
    """
    return math.hypot(
        *(c for i, z in vec.items() if pattern.forbids(i) for c in (z.real, z.imag))
    )


def is_member(vec: SeqVec, pattern: ZeroPattern) -> bool:
    """``membership_defect(vec, pattern) == 0.0``, decided by index alone.

    A stored entry is nonzero, so the defect is zero exactly when no stored
    index is forbidden.
    """
    forbids = pattern.forbids
    for i in vec._entries:
        if forbids(i):
            return False
    return True


def project(vec: SeqVec, pattern: ZeroPattern) -> SeqVec:
    """Orthogonal projection: drop the forbidden coordinates."""
    return SeqVec((i, z) for i, z in vec.items() if not pattern.forbids(i))


def invariance_check(op: Operator, pattern: ZeroPattern, n: int, dim: int) -> bool:
    """Does the n-th power map the truncated subspace into the subspace?

    Checks every allowed basis vector below ``dim``, stopping at the first
    one whose image leaves the subspace; exactness of sparse membership
    makes this a yes/no answer, not a tolerance call.
    """
    return next(invariance_scan(op, pattern, (n,), dim))


def invariance_scan(
    op: Operator, pattern: ZeroPattern, powers: Iterable[int], dim: int
) -> Iterator[bool]:
    """``invariance_check`` at each of the increasing ``powers``, lazily.

    At power n the allowed basis is walked in ``invariance_check``'s order
    and the walk stops at the first non-member, so an operator that raises
    on some basis vector raises exactly where the check from scratch would.

    A scaled backward shift (nested scalar multiples of one
    ``BackwardShift(p)``) moves basis vector i to i - n p, or out of the
    sequence if i < n p.  Every basis vector starts at 1.0, so all of them
    share one value, of which vector i has gone through the first
    min(n, i // p) steps.  Such an operator is answered by index arithmetic
    and that one value, carried by ``apply_power`` only as far as the last
    allowed vector goes, so it raises at the powers where a basis vector's
    own steps go bad.

    Any other operator keeps, per allowed basis vector, its latest image and
    the power it has reached; an image is advanced to n only when the walk
    reaches it.  So no power costs more operator applications than checking
    it from scratch, and an image is never computed past the largest power
    that needs it.
    """
    allowed = allowed_indices(pattern, dim)
    parts = _scaled_shift_parts(op)
    if parts is None:
        decide = _carried_decider(op, pattern, allowed)
    else:
        decide = _trajectory_decider(op, parts[1], pattern, allowed)
    last = 0
    for n in powers:
        if n < last:
            raise ValueError(f"powers must be increasing and >= 0, got {n} after {last}")
        last = n
        yield decide(n)


def _carried_decider(op: Operator, pattern: ZeroPattern, allowed: list[int]):
    orbits: list[tuple[int, SeqVec]] = []  # (power, image) of allowed[k], as reached

    def decide(n: int) -> bool:
        for k, i in enumerate(allowed):
            if k == len(orbits):
                orbits.append((0, SeqVec.basis(i)))
            power, image = orbits[k]
            image = apply_power(op, n - power, image)
            orbits[k] = (n, image)
            if not is_member(image, pattern):
                return False
        return True

    return decide


def _trajectory_decider(op: Operator, p: int, pattern: ZeroPattern, allowed: list[int]):
    most = allowed[-1] // p if allowed else 0  # steps the last allowed vector can take
    value = SeqVec.basis(0)  # every basis vector's value after ``reached`` steps, at index 0
    reached = 0

    def decide(n: int) -> bool:
        nonlocal value, reached
        # Vector i takes min(n, i // p) steps, so the last one takes the most.
        # The value at index ``steps * p`` lands at 0 after exactly that many
        # steps, and raises as the first vector that needs them does.
        need = min(n, most)
        if need > reached:
            steps = need - reached
            value = apply_power(op, steps, SeqVec.basis(steps * p, value[0]))
            reached = need
        # Every vector landing on a forbidden index lands with the same
        # value, so the first one decides them all; a pruned value is the
        # zero vector, a member.
        cut = n * p
        lands = next((i - cut for i in allowed if i >= cut and pattern.forbids(i - cut)), None)
        return lands is None or not value

    return decide


# --------------------------------------------------------------------------
# Dense family: a deterministic enumeration of dyadic-grid vectors inside
# the subspace.  Index 0 is the zero vector.  After that the family walks
# resolution levels L, L+1, ... (grid step 2^-level, coordinate box growing
# with the level); within a level, support prefixes of size s = 1..r over
# the first allowed indices, with the s-th coordinate strictly nonzero so
# every (level, support, digits) triple names a distinct vector; within a
# prefix, lexicographic over grid digits.  Refining levels are enumerated
# too, so for every member of the subspace and every eps > 0 the family
# eventually passes within eps.


# A level-L grid value is (x + iy) 2^-L with |x|, |y| <= 2^L, and 2^1024 is no float.
_MAX_RESOLUTION_LEVEL = 1023


@dataclass(frozen=True)
class DenseFamilySpec:
    pattern: ZeroPattern
    support_bound: int
    resolution_level: int

    def __post_init__(self):
        if self.support_bound < 1:
            raise ValueError("support bound must be >= 1")
        if self.resolution_level < 0:
            raise ValueError("resolution level must be >= 0")
        if self.resolution_level > _MAX_RESOLUTION_LEVEL:
            raise ValueError(
                f"resolution level must be <= {_MAX_RESOLUTION_LEVEL}, the largest whose"
                f" grid values are floats, got {self.resolution_level}"
            )


def _grid_side(level: int) -> int:
    # values k * 2^-level with |k| <= 2^level, per real/imaginary axis
    return 2 ** (level + 1) + 1


def _digit_value(digit: int, level: int) -> complex:
    side = _grid_side(level)
    half = 2**level
    x = digit // side - half
    y = digit % side - half
    return complex(x, y) * 2.0 ** (-level)


def family_level_size(spec: DenseFamilySpec, level: int) -> int:
    """Number of family members contributed by one resolution level."""
    r = len(allowed_indices(spec.pattern, spec.support_bound))
    g = _grid_side(level) ** 2
    return g**r - 1


def dense_family(spec: DenseFamilySpec, j: int) -> SeqVec:
    """The j-th member of the family; j = 0 is the zero vector."""
    if j < 0:
        raise ValueError("family index must be >= 0")
    if j == 0:
        return SeqVec.zero()
    allowed = allowed_indices(spec.pattern, spec.support_bound)
    if not allowed:
        raise ValueError("no allowed indices below the support bound")
    r = len(allowed)

    t = j - 1
    level = spec.resolution_level
    while t >= family_level_size(spec, level):
        t -= family_level_size(spec, level)
        level += 1

    g = _grid_side(level) ** 2
    s = 1
    while t >= g ** (s - 1) * (g - 1):
        t -= g ** (s - 1) * (g - 1)
        s += 1

    last = t % (g - 1)
    quotient = t // (g - 1)
    prefix = []
    for _ in range(s - 1):
        prefix.append(quotient % g)
        quotient //= g
    prefix.reverse()

    zero_digit = 2**level * _grid_side(level) + 2**level
    digits = prefix + [last if last < zero_digit else last + 1]
    return SeqVec(
        (allowed[k], _digit_value(d, level)) for k, d in enumerate(digits) if d != zero_digit
    )


# The most raw grid points ``dyadic_net`` will enumerate.
NET_POINT_CAP = 2_000_000

# A net of (2^(level+1) + 1)^(2r) raw points has more than 2^bits of them,
# bits = 2r(level + 1).  From this many bits on its exact size is not built.
_EXACT_COUNT_BITS = 128


def dyadic_net(pattern: ZeroPattern, support_bound: int, level: int) -> list[SeqVec]:
    """All grid vectors of the given level inside the closed unit ball.

    Deterministic order (index-major, digits ascending).  Includes the zero
    vector.  Guards against combinatorial blowup instead of thrashing.

    The ball test runs in integers.  A grid value z = (x + iy) 2^-level has
    |z|^2 4^level = x^2 + y^2, so a point is in the ball exactly when its
    coordinates' integer squares sum to at most 4^level.  Prefixes are
    extended one coordinate at a time by the digits that fit what is left
    of that budget, so a prefix past it is never extended, and only the
    kept points become ``SeqVec``s.
    """
    allowed = allowed_indices(pattern, support_bound)
    if not allowed:
        raise ValueError("no allowed indices below the support bound")
    bits = 2 * len(allowed) * (level + 1)
    if bits >= _EXACT_COUNT_BITS:
        raise ValueError(f"net of more than 2**{bits} raw points exceeds the cap {NET_POINT_CAP}")
    side = _grid_side(level)
    g = side**2
    if g ** len(allowed) > NET_POINT_CAP:
        raise ValueError(
            f"net of {g ** len(allowed)} raw points exceeds the cap {NET_POINT_CAP}"
        )
    half = 2**level
    squares = [(d // side - half) ** 2 + (d % side - half) ** 2 for d in range(g)]
    values = [_digit_value(d, level) for d in range(g)]
    # fits[r]: (digit, budget left) for each digit whose square fits in r, ascending
    fits: dict[int, list[tuple[int, int]]] = {}
    prefixes = [((), 4**level)]  # kept prefixes' nonzero entries, in order, and budgets left
    for i in allowed:
        for r in {r for _, r in prefixes}.difference(fits):
            fits[r] = [(d, r - s) for d, s in enumerate(squares) if s <= r]
        # The cap keeps 2^-level, the least nonzero modulus, far above the
        # prune threshold, so a point is canonical once its zeros are dropped.
        entry = [((i, z),) if z else () for z in values]
        prefixes = [(kept + entry[d], left) for kept, r in prefixes for d, left in fits[r]]
    return [SeqVec._from_canonical(dict(kept)) for kept, _ in prefixes]
