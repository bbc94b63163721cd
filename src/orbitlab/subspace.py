"""Coordinate-zero subspaces and a deterministic dense family inside them.

A pattern names the coordinates that must vanish; the subspace is everything
supported on the remaining indices.  Membership, projection and invariance
questions then reduce to index bookkeeping on sparse vectors, which keeps
the answers exact: a vector is in the subspace iff it *stores* nothing on a
forbidden index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import product
from typing import Iterable, Iterator, Union

from .errors import ConfigError
from .seqspace import Operator, SeqVec, apply_power

__all__ = [
    "PrefixZero",
    "ResidueZero",
    "SupportIn",
    "RightBlockZero",
    "ZeroPattern",
    "allowed_indices",
    "membership_defect",
    "project",
    "invariance_check",
    "invariance_scan",
    "DenseFamilySpec",
    "dense_family",
    "family_level_size",
    "dyadic_net",
    "pattern_to_config",
    "pattern_from_config",
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
    """Norm of the forbidden part; exactly 0.0 iff the vector is a member."""
    return math.sqrt(
        math.fsum(
            z.real * z.real + z.imag * z.imag
            for i, z in vec.items()
            if pattern.forbids(i)
        )
    )


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

    Each allowed basis vector keeps its latest image and the power it has
    reached.  At power n the basis is walked in ``invariance_check``'s order,
    an image is advanced from its stored power to n only when the walk
    reaches it, and the walk stops at the first non-member.  So no power
    costs more operator applications than checking it from scratch, an
    image is never computed past the largest power that needs it, and an
    operator that raises on some basis vector raises exactly where the
    check from scratch would.
    """
    allowed = allowed_indices(pattern, dim)
    orbits: list[tuple[int, SeqVec]] = []  # (power, image) of allowed[k], as reached
    last = 0
    for n in powers:
        if n < last:
            raise ValueError(f"powers must be increasing and >= 0, got {n} after {last}")
        last = n
        invariant = True
        for k, i in enumerate(allowed):
            if k == len(orbits):
                orbits.append((0, SeqVec.basis(i)))
            power, image = orbits[k]
            image = apply_power(op, n - power, image)
            orbits[k] = (n, image)
            if membership_defect(image, pattern) != 0.0:
                invariant = False
                break
        yield invariant


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


def dyadic_net(
    pattern: ZeroPattern,
    support_bound: int,
    level: int,
    max_count: int = 2_000_000,
) -> list[SeqVec]:
    """All grid vectors of the given level inside the closed unit ball.

    Deterministic order (index-major, digits ascending).  Includes the zero
    vector.  Guards against combinatorial blowup instead of thrashing.
    """
    allowed = allowed_indices(pattern, support_bound)
    if not allowed:
        raise ValueError("no allowed indices below the support bound")
    g = _grid_side(level) ** 2
    if g ** len(allowed) > max_count:
        raise ValueError(
            f"net of {g ** len(allowed)} raw points exceeds the cap {max_count}"
        )
    values = [_digit_value(d, level) for d in range(g)]
    net = []
    for combo in product(values, repeat=len(allowed)):
        if math.fsum(z.real * z.real + z.imag * z.imag for z in combo) <= 1.0:
            net.append(SeqVec(zip(allowed, combo)))
    return net


_PATTERN_KINDS = {
    "prefix": PrefixZero,
    "residue": ResidueZero,
    "supportIn": SupportIn,
    "rightBlock": RightBlockZero,
}


def pattern_to_config(pattern: ZeroPattern) -> dict:
    (kind,) = [k for k, cls in _PATTERN_KINDS.items() if type(pattern) is cls]
    return {"kind": kind, **{f.name: getattr(pattern, f.name) for f in fields(pattern)}}


def pattern_from_config(cfg: dict) -> ZeroPattern:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"pattern config must be an object with a kind: {cfg!r}")
    kind = cfg["kind"]
    if kind not in _PATTERN_KINDS:
        raise ConfigError(f"unknown pattern kind {kind!r}")
    cls = _PATTERN_KINDS[kind]
    names = [f.name for f in fields(cls)]
    missing = [f for f in names if f not in cfg]
    extra = [k for k in cfg if k not in (*names, "kind")]
    if missing or extra:
        raise ConfigError(f"pattern {kind!r}: missing {missing}, unexpected {extra}")
    not_int = [f for f in names if isinstance(cfg[f], bool) or not isinstance(cfg[f], int)]
    if not_int:
        raise ConfigError(f"pattern {kind!r}: {not_int} must be integers")
    try:
        return cls(**{f: cfg[f] for f in names})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"pattern {kind!r}: {exc}") from exc
