"""Sparse complex sequence vectors and a small symbolic operator algebra.

Vectors are finitely supported maps ``index -> complex`` kept in canonical
form (no stored zeros, every value finite).  Shift operators act purely on
indices, never on values, so identities such as ``B(S v) == v`` hold
bit-for-bit and membership defects against coordinate patterns are exact,
not approximate.  Only the scalar, diagonal and matrix kinds touch values.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "SeqVec",
    "BackwardShift",
    "ForwardShift",
    "Identity",
    "ScalarMultiple",
    "Diagonal",
    "DirectSum",
    "FiniteMatrix",
    "Operator",
    "apply_power",
    "inner",
    "norm",
    "to_matrix",
]

# Stored moduli below this are treated as structural zeros and dropped.
PRUNE_MODULUS = 1e-300


def _checked(value) -> complex:
    z = complex(value)
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite coefficient {value!r}")
    return z


class SeqVec:
    """A finitely supported complex sequence in canonical sparse form.

    Entries with modulus below ``PRUNE_MODULUS`` are never stored, so two
    vectors are equal exactly when their stored dictionaries are equal.
    Instances are immutable; all arithmetic returns new vectors.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, complex] | Iterable[tuple[int, complex]] = ()):
        # A plain dict is the common internal case; test it before the
        # costlier ABC check.
        if type(entries) is dict or isinstance(entries, Mapping):
            items = entries.items()
        else:
            items = entries
        acc: dict[int, complex] = {}
        for index, raw in items:
            i = int(index)
            if i < 0:
                raise ValueError(f"negative index {i}")
            z = _checked(raw)
            if i in acc:
                acc[i] += z
            else:
                acc[i] = z
        self._entries = {i: z for i, z in acc.items() if abs(z) >= PRUNE_MODULUS}

    @classmethod
    def _from_canonical(cls, entries: dict[int, complex]) -> "SeqVec":
        """Wrap a dict that is already canonical, without re-validating it.

        Every key must be an int >= 0 and every value a finite complex of
        modulus at least ``PRUNE_MODULUS``: a re-indexing of another vector's
        entries, or values that passed the same checks one at a time.
        """
        vec = object.__new__(cls)
        vec._entries = entries
        return vec

    @classmethod
    def zero(cls) -> "SeqVec":
        return cls()

    @classmethod
    def basis(cls, index: int, coeff: complex = 1.0) -> "SeqVec":
        return cls({index: coeff})

    @classmethod
    def from_dense(cls, values) -> "SeqVec":
        arr = np.asarray(values)
        return cls((i, complex(z)) for i, z in enumerate(arr))

    def items(self) -> tuple[tuple[int, complex], ...]:
        """Entries sorted by index; the canonical external view."""
        return tuple(sorted(self._entries.items()))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._entries))

    def to_dense(self, dim: int) -> np.ndarray:
        out = np.zeros(dim, dtype=np.complex128)
        for i, z in self._entries.items():
            if i >= dim:
                raise DimensionMismatch(f"index {i} outside dimension {dim}")
            out[i] = z
        return out

    def norm(self) -> float:
        return norm(self)

    def __getitem__(self, index: int) -> complex:
        return self._entries.get(index, 0j)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __add__(self, other: "SeqVec") -> "SeqVec":
        if not isinstance(other, SeqVec):
            return NotImplemented
        out = dict(self._entries)
        for i, z in other._entries.items():
            out[i] = out.get(i, 0j) + z
        return SeqVec(out)

    def __sub__(self, other: "SeqVec") -> "SeqVec":
        if not isinstance(other, SeqVec):
            return NotImplemented
        out = dict(self._entries)
        for i, z in other._entries.items():
            out[i] = out.get(i, 0j) - z
        return SeqVec(out)

    def __neg__(self) -> "SeqVec":
        return SeqVec({i: -z for i, z in self._entries.items()})

    def __mul__(self, scalar) -> "SeqVec":
        z = _checked(scalar)
        return SeqVec({i: v * z for i, v in self._entries.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeqVec):
            return NotImplemented
        return self._entries == other._entries

    __hash__ = None  # logically immutable, but hashing is never needed

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {z}" for i, z in self.items())
        return f"SeqVec({{{body}}})"


def inner(u: SeqVec, v: SeqVec) -> complex:
    """Hermitian inner product, conjugate-linear in the second argument.

    Summation runs in increasing index order so the result is independent
    of dictionary history.
    """
    small, big = (u, v) if len(u) < len(v) else (v, u)
    indices = sorted(i for i in small.support() if big[i] != 0)
    return sum((u[i] * v[i].conjugate() for i in indices), 0j)


def norm(v: SeqVec) -> float:
    """Euclidean norm via an exactly-rounded sum of squared moduli."""
    return math.sqrt(math.fsum(z.real * z.real + z.imag * z.imag for _, z in v.items()))


# --------------------------------------------------------------------------
# Operator kinds.  Each knows how to apply itself to a vector and how to
# produce its structural adjoint; everything else is derived from those two.


@dataclass(frozen=True)
class BackwardShift:
    """Drop the first ``power`` coordinates and re-base: (B^p v)_i = v_{i+p}."""

    power: int = 1

    def __post_init__(self):
        if self.power < 1:
            raise ValueError("shift power must be >= 1")

    def apply(self, vec: SeqVec) -> SeqVec:
        p = self.power
        return SeqVec._from_canonical({i - p: z for i, z in vec.items() if i >= p})

    def adjoint(self) -> "ForwardShift":
        return ForwardShift(self.power)


@dataclass(frozen=True)
class ForwardShift:
    """Prepend ``power`` zero coordinates: (S^p v)_{i+p} = v_i."""

    power: int = 1

    def __post_init__(self):
        if self.power < 1:
            raise ValueError("shift power must be >= 1")

    def apply(self, vec: SeqVec) -> SeqVec:
        p = self.power
        return SeqVec._from_canonical({i + p: z for i, z in vec.items()})

    def adjoint(self) -> "BackwardShift":
        return BackwardShift(self.power)


@dataclass(frozen=True)
class Identity:
    def apply(self, vec: SeqVec) -> SeqVec:
        return vec

    def adjoint(self) -> "Identity":
        return self


@dataclass(frozen=True)
class ScalarMultiple:
    """``factor * operand``; the workhorse is ScalarMultiple(lam, BackwardShift())."""

    factor: complex
    operand: "Operator"

    def __post_init__(self):
        object.__setattr__(self, "factor", _checked(self.factor))

    def apply(self, vec: SeqVec) -> SeqVec:
        return self.operand.apply(vec) * self.factor

    def adjoint(self) -> "ScalarMultiple":
        return ScalarMultiple(self.factor.conjugate(), self.operand.adjoint())


@dataclass(frozen=True)
class Diagonal:
    """Coordinate-wise weights; indices past the list get weight zero."""

    weights: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(_checked(w) for w in self.weights))

    def apply(self, vec: SeqVec) -> SeqVec:
        w = self.weights
        return SeqVec((i, w[i] * z) for i, z in vec.items() if i < len(w))

    def adjoint(self) -> "Diagonal":
        return Diagonal(tuple(w.conjugate() for w in self.weights))


@dataclass(frozen=True)
class DirectSum:
    """Block operator: ``left`` on indices < split, ``right`` on the rest.

    The right summand sees its coordinates re-based at zero.  The left block
    is the compression of ``left`` to the first ``split`` coordinates: an
    output index pushed past the boundary (only a forward shift can do that)
    is dropped rather than leaked into the right block.
    """

    left: "Operator"
    right: "Operator"
    split_index: int

    def __post_init__(self):
        if self.split_index < 1:
            raise ValueError("split index must be >= 1")

    def apply(self, vec: SeqVec) -> SeqVec:
        s = self.split_index
        left_in = SeqVec((i, z) for i, z in vec.items() if i < s)
        right_in = SeqVec((i - s, z) for i, z in vec.items() if i >= s)
        out = [(i, z) for i, z in self.left.apply(left_in).items() if i < s]
        out.extend((i + s, z) for i, z in self.right.apply(right_in).items())
        return SeqVec(out)

    def adjoint(self) -> "DirectSum":
        return DirectSum(self.left.adjoint(), self.right.adjoint(), self.split_index)


@dataclass(frozen=True, eq=False)
class FiniteMatrix:
    """A dense square block acting on the first ``dim`` coordinates.

    Holds one read-only, C-ordered complex128 copy of its input.  The copy
    is C-ordered even for a transposed view, since numpy's matrix-vector
    product rounds differently on another layout.  Vectors supported
    outside the block are rejected rather than truncated.
    """

    array: np.ndarray

    def __post_init__(self):
        a = np.array(self.array, dtype=np.complex128, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        bad = a[~np.isfinite(a)]
        if bad.size:
            raise ValueError(f"non-finite coefficient {complex(bad[0])!r}")
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMatrix):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    __hash__ = None  # operators are never hashed

    def apply(self, vec: SeqVec) -> SeqVec:
        sup = vec.support()
        if sup and sup[-1] >= self.dim:
            raise DimensionMismatch(
                f"support index {sup[-1]} outside matrix block of dimension {self.dim}"
            )
        return SeqVec.from_dense(self.array @ vec.to_dense(self.dim))

    def adjoint(self) -> "FiniteMatrix":
        return FiniteMatrix(self.array.conj().T)


Operator = Union[
    BackwardShift,
    ForwardShift,
    Identity,
    ScalarMultiple,
    Diagonal,
    DirectSum,
    FiniteMatrix,
]


def _scaled_shift_parts(op: Operator) -> tuple[tuple[complex, ...], int] | None:
    """``(factors, p)`` when ``op`` is nested ``ScalarMultiple``s over one ``BackwardShift(p)``.

    The factors are listed innermost first, the order in which one
    application multiplies them in.  Any other operator, including a
    subclass or a wrapper, gives ``None``.
    """
    factors = []
    while type(op) is ScalarMultiple:
        factors.append(op.factor)
        op = op.operand
    if type(op) is not BackwardShift:
        return None
    return tuple(reversed(factors)), op.power


def _rounds(z: complex, seq, start: int, stop: int) -> tuple[complex | None, int]:
    """Multiply ``z`` by ``seq[start:stop]`` one round at a time, with SeqVec's checks.

    Returns ``(z, stop)`` when every product is kept.  Otherwise returns
    ``(None, r)`` if round r's product is pruned, or ``(product, r)`` if it
    fails a check, which ``_scaled_shift_power`` raises.  A product is bad
    iff its modulus is not finite, or too large to compute for a finite
    product.
    """
    for r in range(start, stop):
        z = z * seq[r]
        try:
            a = abs(z)
        except OverflowError:
            return z, r
        if a < PRUNE_MODULUS:
            return None, r
        if not a < math.inf:
            return z, r
    return z, stop


def _scaled_shift_power(factors: tuple[complex, ...], p: int, n: int, vec: SeqVec) -> SeqVec:
    """``apply_power`` of the scaled shift ``(factors, p)``, bit for bit.

    Entry i takes part in min(n, i // p) steps of the honest loop and lands
    at i - n p if it survives all n.  Its value goes through the same
    products in the same order, so only the bookkeeping is saved.  The
    loop raises at the first bad round; within a round it checks every
    product for finiteness in ascending index before any prune test, so
    the first error is the least (round, finite, index).
    """
    seq = factors * n
    m = len(factors)
    cut = n * p
    out: dict[int, complex] = {}
    bad = []
    for i, z in vec.items():
        stop = min(n, i // p) * m
        z, r = _rounds(z, seq, 0, stop)
        if r == stop:
            if i >= cut:
                out[i - cut] = z
        elif z is not None:
            bad.append((r, cmath.isfinite(z), i, z))
    if bad:
        # Raise what building a SeqVec raises for the first bad product.
        z = min(bad)[3]
        _checked(z)  # ValueError for a non-finite product
        abs(z)  # OverflowError from the prune test for a finite one
    return SeqVec._from_canonical(out)


def apply_power(op: Operator, n: int, vec: SeqVec) -> SeqVec:
    """Apply ``op`` n times.

    Nested scalar multiples of one backward shift (the paper's lam B and
    lam B^2, and a bare shift) run as index arithmetic plus one value
    trajectory per entry: the same products in the same order as n honest
    applications, so the result is bit-identical and raises the same
    error at the same point, but only one vector is built.  Forward shifts
    collapse to a single shift by ``n * power``.  Every other kind is
    iterated honestly, stopping early once the image is the zero vector:
    every kind maps zero to zero, so the stop is exact.
    """
    if n < 0:
        raise ValueError("power must be >= 0")
    if n == 0:
        return vec
    parts = _scaled_shift_parts(op)
    if parts is not None:
        return _scaled_shift_power(*parts, n, vec)
    if isinstance(op, ForwardShift):
        return ForwardShift(op.power * n).apply(vec)
    if isinstance(op, Identity):
        return vec
    out = vec
    for _ in range(n):
        if not out:
            break
        out = op.apply(out)
    return out


def to_matrix(op: Operator, dim: int) -> np.ndarray:
    """Materialize the action on the first ``dim`` coordinates, column by column."""
    cols = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        image = op.apply(SeqVec.basis(j))
        for i, z in image.items():
            if i < dim:
                cols[i, j] = z
    return cols
