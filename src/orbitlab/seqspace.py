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
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .errors import DimensionMismatch

if TYPE_CHECKING:  # the dense methods import numpy when they run
    import numpy as np

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
    "distance",
    "inner",
    "norm",
    "to_matrix",
]

# Stored moduli below this are treated as structural zeros and dropped.
PRUNE_MODULUS = 1e-300

# ``norm`` sums the squares again, rescaled, below this.
_RESCALE_BELOW = 2.0**-500


def _index(index) -> int:
    """``index`` as an int, for any integer type but bool."""
    if not isinstance(index, bool):
        try:
            return operator.index(index)
        except TypeError:
            pass
    raise TypeError(f"index {index!r} is not an integer")


def _checked(value) -> complex:
    z = complex(value)
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite coefficient {value!r}")
    return z


class SeqVec:
    """A finitely supported complex sequence in canonical sparse form.

    Entries with modulus below ``PRUNE_MODULUS`` are never stored, so two
    vectors are equal exactly when their stored dictionaries are equal.
    Values given at the same index are summed; each sum is then checked and
    pruned by the rule arithmetic follows (``_pruned``), so a sum past the
    float range raises ``ValueError``.  An index is an int >= 0 of any
    integer type but bool; another type raises ``TypeError``.  Instances
    are immutable; all arithmetic returns new vectors.
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
            i = index if type(index) is int else _index(index)
            if i < 0:
                raise ValueError(f"negative index {i}")
            z = _checked(raw)
            if i in acc:
                acc[i] += z
            else:
                acc[i] = z
        self._entries = _pruned(acc)

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
        """The vector of a 1-D array's entries, cast to complex128, stored
        and checked as ``_pruned`` stores and checks them."""
        import numpy as np

        arr = np.asarray(values, dtype=np.complex128)
        return cls._from_canonical(_pruned(dict(enumerate(arr.tolist()))))

    def items(self) -> tuple[tuple[int, complex], ...]:
        """Entries sorted by index; the canonical external view."""
        return tuple(sorted(self._entries.items()))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._entries))

    def to_dense(self, dim: int) -> np.ndarray:
        import numpy as np

        out = np.zeros(dim, dtype=np.complex128)
        for i, z in self._entries.items():
            if i >= dim:
                raise DimensionMismatch(f"index {i} outside dimension {dim}")
            out[i] = z
        return out

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
        return SeqVec._from_canonical(_pruned(out))

    def __sub__(self, other: "SeqVec") -> "SeqVec":
        if not isinstance(other, SeqVec):
            return NotImplemented
        return SeqVec._from_canonical(_pruned(_difference(self, other)))

    def __neg__(self) -> "SeqVec":
        return SeqVec._from_canonical(_pruned({i: -z for i, z in self._entries.items()}))

    def __mul__(self, scalar) -> "SeqVec":
        z = _checked(scalar)
        return SeqVec._from_canonical(_pruned({i: v * z for i, v in self._entries.items()}))

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
    """Euclidean norm via an exactly-rounded sum of squared moduli.

    When the squares overflow (any norm past about 1.3e154), or may have
    lost digits to underflow (a nonzero norm below 2**-500, about 3e-151),
    the sum is taken again over the entries divided by the largest
    modulus, the rule ``_kernels._norm`` follows; every other norm is the
    unscaled one.  ``math.fsum`` rounds the exact sum, so the order of the
    entries cannot change a bit.
    """
    return _root_sum_squares(v._entries.values())


def distance(u: SeqVec, v: SeqVec) -> float:
    """``norm(u - v)``, bit for bit and error for error, without building ``u - v``."""
    return _root_sum_squares(_pruned(_difference(u, v)).values())


def _root_sum_squares(values, tiny: float = _RESCALE_BELOW) -> float:
    """``norm`` of the stored values ``values``, a collection that can be walked twice.

    ``tiny`` is where the rescaled sum takes over, for values given in
    units of 2**e: 2**(-500 - e).
    """
    try:
        r = math.sqrt(math.fsum([z.real * z.real + z.imag * z.imag for z in values]))
    except OverflowError:  # fsum's partial sums overflow on finite squares
        r = math.inf
    if r == math.inf or (r < tiny and values):
        # Entries are finite, and so are their moduli: the prune test took each.
        scale = max(abs(z) for z in values)
        r = scale * math.sqrt(
            math.fsum([(z.real / scale) ** 2 + (z.imag / scale) ** 2 for z in values])
        )
    return r


def _difference(u: SeqVec, v: SeqVec) -> dict[int, complex]:
    """The raw entries of ``u - v``: ``u``'s keys in order, then ``v``'s new ones."""
    a, b = u._entries, v._entries
    out = {i: z - b[i] if i in b else z for i, z in a.items()}
    for i, z in b.items():
        if i not in a:
            out[i] = 0j - z
    return out


def _pruned(raw: dict[int, complex]) -> dict[int, complex]:
    """The entries ``SeqVec(raw)`` stores, and the errors it raises, in one pass.

    ``raw`` maps ints >= 0 to complex values, as arithmetic on stored
    entries or the constructor's sums make them.  Entries below
    ``PRUNE_MODULUS`` are dropped.  The first non-finite value raises its
    ``ValueError`` at once, while a finite value whose modulus overflows
    (``abs`` raises ``OverflowError``) is raised only once no value is
    non-finite.
    """
    out = {}
    too_large = None
    for i, z in raw.items():
        try:
            a = abs(z)
        except OverflowError:
            if too_large is None:
                too_large = z
            continue
        if a < PRUNE_MODULUS:
            continue
        if not a < math.inf:  # an infinite or NaN part
            raise ValueError(f"non-finite coefficient {z!r}")
        out[i] = z
    if too_large is not None:
        abs(too_large)
    return out


def max_or_nan(worst: float, value: float) -> float:
    """``max(worst, value)``, except that a NaN on either side wins.

    ``max`` keeps its first argument when the comparison is false, so a NaN
    ``value`` would drop out of a running worst case and the gate reading
    it could pass.  Otherwise the result is ``max``'s, object for object.
    """
    return value if value > worst or value != value else worst


# --------------------------------------------------------------------------
# Operator kinds.  Each knows how to apply itself to a vector once;
# ``apply_power`` derives its powers from that.


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


@dataclass(frozen=True)
class Identity:
    def apply(self, vec: SeqVec) -> SeqVec:
        return vec


@dataclass(frozen=True)
class ScalarMultiple:
    """``factor * operand``; the workhorse is ScalarMultiple(lam, BackwardShift())."""

    factor: complex
    operand: "Operator"

    def __post_init__(self):
        object.__setattr__(self, "factor", _checked(self.factor))

    def apply(self, vec: SeqVec) -> SeqVec:
        return self.operand.apply(vec) * self.factor


@dataclass(frozen=True)
class Diagonal:
    """Coordinate-wise weights; indices past the list get weight zero."""

    weights: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(_checked(w) for w in self.weights))

    def apply(self, vec: SeqVec) -> SeqVec:
        w = self.weights
        return SeqVec((i, w[i] * z) for i, z in vec.items() if i < len(w))


@dataclass(frozen=True)
class DirectSum:
    """Block operator: ``left`` on indices < split, ``right`` on the rest.

    The right summand sees its coordinates re-based at zero.  The left block
    is the compression of ``left`` to the first ``split`` coordinates: an
    output index pushed past the boundary (a forward shift or a matrix can
    do that) is dropped rather than leaked into the right block.
    """

    left: "Operator"
    right: "Operator"
    split_index: int

    def __post_init__(self):
        if self.split_index < 1:
            raise ValueError("split index must be >= 1")

    def apply(self, vec: SeqVec) -> SeqVec:
        s = self.split_index
        left_in = SeqVec._from_canonical({i: z for i, z in vec.items() if i < s})
        right_in = SeqVec._from_canonical({i - s: z for i, z in vec.items() if i >= s})
        out = {i: z for i, z in self.left.apply(left_in).items() if i < s}
        out.update((i + s, z) for i, z in self.right.apply(right_in).items())
        return SeqVec._from_canonical(out)


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
        import numpy as np

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
        import numpy as np

        return np.array_equal(self.array, other.array)

    __hash__ = None  # operators are never hashed

    def apply(self, vec: SeqVec) -> SeqVec:
        sup = vec.support()
        if sup and sup[-1] >= self.dim:
            raise DimensionMismatch(
                f"support index {sup[-1]} outside matrix block of dimension {self.dim}"
            )
        return SeqVec.from_dense(self.array @ vec.to_dense(self.dim))


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


def _scaled_shift_power(seq: tuple[complex, ...], p: int, n: int, items) -> SeqVec:
    """``apply_power`` of a scaled shift over ``B^p``, bit for bit.

    ``seq`` holds its factors, innermost first, n times over, and ``items``
    the vector's entries in index order.  Entry i takes part in
    min(n, i // p) steps of the honest loop and lands at i - n p if it
    survives all n.  Its value goes through the same products in the same
    order, so only the bookkeeping is saved.  The honest loop raises at the
    first bad round, and within a round checks every product for finiteness
    in ascending index before any prune test; so once every entry is
    stepped, this one raises what building a SeqVec raises for the least
    (round, finite, index).
    """
    m = len(seq) // n
    cut = n * p
    out: dict[int, complex] = {}
    bad = []
    for i, z in items:
        for r in range(min(n, i // p) * m):
            z = z * seq[r]
            try:
                a = abs(z)
            except OverflowError:  # a finite product too large for its modulus
                a = math.inf
            if a < PRUNE_MODULUS:
                break
            if not a < math.inf:
                bad.append((r, cmath.isfinite(z), i, z))
                break
        else:
            if i >= cut:
                out[i - cut] = z
    if bad:
        _pruned({0: min(bad)[3]})  # what building a SeqVec raises for it
    return SeqVec._from_canonical(out)


def _recovery(
    factor: complex, seq: tuple[complex, ...], p: int, n: int, y: SeqVec
) -> tuple[float, float]:
    """``(norm(x), distance(apply_power(op, n, x), y))`` for the preimage
    ``x = criterion._preimage(op, scale, n, y)``.

    ``op`` is lam B^p or B^p and n >= 1; ``factor`` is lam^-n, the finite
    complex that ``criterion._preimage_factor`` gives, and ``seq`` is
    ``op``'s factors n times.  x is built as ``backsolve`` builds it, the
    same products in the same index order, and stepped by ``apply_power``'s
    scaled-shift loop: each entry sits at n p or above, so it takes all n
    rounds and lands back at its index in y.  So the bits and the first
    error are the honest path's, with no vector built through the checking
    constructor.
    """
    x = _pruned({i + n * p: z * factor for i, z in y.items()})
    image = _scaled_shift_power(seq, p, n, x.items())
    return _root_sum_squares(x.values()), distance(image, y)


def apply_power(op: Operator, n: int, vec: SeqVec) -> SeqVec:
    """Apply ``op`` n times, with the bits and errors of n ``op.apply`` calls.

    Two paths, each bit-identical to the honest loop, raised errors
    included.  The fast one is chosen by exact type, so a subclass, whose
    ``apply`` may differ, takes the honest loop:

    - *scaled shift*: nested scalar multiples of one backward shift (the
      paper's lam B and lam B^2, and a bare shift) run as index arithmetic
      plus one value trajectory per entry, the same products in the same
      order, and build one vector;
    - *honest loop*: every other operator is applied n times, stopping
      early once the image is the zero vector: every kind maps zero to
      zero, so the stop is exact.
    """
    if n < 0:
        raise ValueError("power must be >= 0")
    if n == 0:
        return vec
    parts = _scaled_shift_parts(op)
    if parts is not None:
        factors, p = parts
        return _scaled_shift_power(factors * n, p, n, vec.items())
    out = vec
    for _ in range(n):
        if not out:
            break
        out = op.apply(out)
    return out


def to_matrix(op: Operator, dim: int) -> np.ndarray:
    """Materialize the action on the first ``dim`` coordinates, column by column."""
    import numpy as np

    cols = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        image = op.apply(SeqVec.basis(j))
        for i, z in image.items():
            if i < dim:
                cols[i, j] = z
    return cols
