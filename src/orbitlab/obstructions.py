"""Finite-dimensional obstructions to orbit density.

Closed-form generalized-eigenvector orbits, adjoint pairing laws that pin
orbit inner products to polynomial-times-power profiles, the grow-or-die
norm dichotomy for matrices with spectrum off the unit circle, orbit span
rank, the coverage defect of an orbit against a dyadic net, and the
compressed-orbit identity on invariant-complement splits.  The seeded
draws of ``findim`` and ``kernel`` are made here and stepped in stacks.
Orbits are iterated by the numpy kernels in ``_kernels``.

The pairing laws read a ``PairingChunk`` of instances in one pass, and
give each instance the bits of Python's scalar arithmetic on it alone.
These numpy forms reproduce those scalar operations bit for bit:

- a Python complex product a * b, and numpy's scalar one: the real form
  ``ar*br - ai*bi`` and ``ar*bi + ai*br`` on float64 arrays.  numpy's array
  complex product rounds differently.
- Python's ``abs`` of a complex, and numpy's scalar ``abs``: ``np.hypot``
  of the parts.  ``np.abs`` of a complex array rounds differently.
- numpy's scalar complex power and division: ``np.power`` and division on
  complex arrays.
- ``np.linalg.solve`` of one system: the same solve over a stack.

Python's complex pow has no numpy form, so conj(lam)^n is taken by it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _LAZY, _kernels
from .errors import (
    ComplementNotInvariant,
    NotEigenvector,
    NotInGeneralizedKernel,
)
from .seqspace import PRUNE_MODULUS, FiniteMatrix, SeqVec, max_or_nan, norm
from .subspace import ZeroPattern, allowed_indices, dyadic_net

# The package names these without importing numpy, from this one list.
__all__ = sorted(_LAZY)

KERNEL_TOL = 1e-10

_EPS = float(np.finfo(np.float64).eps)

EXIT_LOW_FACTOR = 1e-6
EXIT_HIGH_FACTOR = 1e6

# Orbit-span rank: columns shorter than this times the longest are dependent.
RANK_REL_TOL = 1e-10

# Orbit points whose forbidden part is longer than this cannot cover the net.
MEMBERSHIP_TOL = 1e-9


def _in_kernel(m: np.ndarray, lam: complex, y: SeqVec, p: int) -> bool:
    """Whether (m - lam)^p y is ~ 0: its norm is at most
    ``KERNEL_TOL * max(1, norm(y))``.

    A step that overflows makes the residual NaN or inf, and either fails.
    """
    residual = y.to_dense(len(m))
    for _ in range(p):
        residual = m @ residual - lam * residual
    return float(np.linalg.norm(residual)) <= KERNEL_TOL * max(1.0, norm(y))


def orbit_rows(op: FiniteMatrix, x: SeqVec, n_steps: int) -> np.ndarray:
    """The orbit x, Tx, ..., T^n x as dense rows, stepped as a stack of one.

    Fewer than n_steps + 1 rows exactly when the orbit ends at a zero row.
    The pairing laws and ``orbit_span_rank`` read rows like these; a caller
    with many orbits steps them in one ``_kernels.orbit_points`` stack.
    """
    if n_steps < 0:
        raise ValueError("orbit length must be >= 0")
    return _kernels.orbit_points(op.array[None], x.to_dense(op.dim)[None], n_steps)[0]


def _prefix(orbit: np.ndarray, n_steps: int) -> np.ndarray:
    """Rows 0..n_steps of an orbit that ``orbit_points`` stepped at least
    that far.

    The rows of a longer orbit start with exactly the rows of the shorter
    one.  A shorter orbit must end at a zero row, past which every row is
    zero.
    """
    error = _unreached(orbit, n_steps)
    if error is not None:
        raise error
    return orbit[: n_steps + 1]


def _unreached(orbit: np.ndarray, n_steps: int) -> ValueError | None:
    """The error of ``_prefix(orbit, n_steps)``, or None if it has none."""
    if n_steps < 0:
        return ValueError("orbit length must be >= 0")
    if len(orbit) <= n_steps and (len(orbit) == 0 or orbit[-1].any()):
        return ValueError(f"an orbit of {len(orbit)} rows does not reach step {n_steps}")
    return None


def jordan_orbit(
    op: FiniteMatrix, lam: complex, p: int, y: SeqVec, horizon: int
) -> list[SeqVec]:
    """Orbit points T^n y of a rank-p generalized eigenvector, in closed form,
    for n = p..horizon: the point of power n is item n - p.

    Requires horizon >= p >= 1 and (op - lam)^p y = 0 within ``KERNEL_TOL``.
    The gate runs once, and the powers T^(p-k) y are built once, for all n.
    Each point is

        T^n y = sum over k = 1..p of (-1)^(k-1) c(n, k) lam^(n-p+k) T^(p-k) y,
        c(n, k) = comb(p, k) comb(n, p) k / (n - p + k),

    its terms added in k order onto zeros.  The binomials are exact integers
    and c(n, k) is their int true division, which rounds correctly to a
    float, so only the powers of ``lam`` and the p - 1 matrix applications
    touch floats.  The first n whose point leaves the float range raises
    ``ArithmeticError``.
    """
    if p < 1:
        raise ValueError("rank p must be >= 1")
    if horizon < p:
        raise ValueError(f"closed form needs horizon >= p, got horizon={horizon}, p={p}")
    m = op.array
    if not _in_kernel(m, lam, y, p):
        raise NotInGeneralizedKernel(f"(T - lam)^{p} y is not ~ 0")

    powers = [y.to_dense(op.dim)]
    for _ in range(p - 1):
        powers.append(m @ powers[-1])
    # powers[p-k] = T^(p-k) y for k = 1..p

    points = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(p, horizon + 1):
                total = np.zeros(op.dim, dtype=np.complex128)
                for k in range(1, p + 1):
                    coeff = math.comb(p, k) * math.comb(n, p) * k / (n - p + k)
                    if (k - 1) % 2 == 1:
                        coeff = -coeff
                    total += coeff * lam ** (n - p + k) * powers[p - k]
                points.append(SeqVec.from_dense(total))
    # OverflowError from the division or lam ** (n - p + k); ValueError from
    # a non-finite entry of the sum.
    except (OverflowError, ValueError) as exc:
        raise ArithmeticError(
            f"jordan_orbit: T^n y is past the float range for lambda = {lam}, p = {p}, n = {n}"
        ) from exc
    return points


# --------------------------------------------------------------------------
# The adjoint pairing laws, read over a chunk of instances in one pass.


class PairingChunk(NamedTuple):
    """Instances of the pairing laws as arrays, in order, zero-padded to the
    chunk's widest dimension D and its longest orbit.

    Instance b has dimension d = ``dims[b]``: T is ``mats[b, :d, :d]`` and y
    is ``ys[b, :d]``, whose entries of modulus below ``PRUNE_MODULUS`` are
    zero, as a ``SeqVec`` stores them.  ``orbits[b]`` holds the rows T^n x
    of a start vector x; an orbit that ended at a zero row is zero from
    there on.  ``ranks[b]`` is the rank p that the chain law reads.
    """

    mats: np.ndarray  # (B, D, D) complex128
    dims: np.ndarray  # (B,) int
    orbits: np.ndarray  # (B, rows, D) complex128
    ys: np.ndarray  # (B, D) complex128
    lams: np.ndarray  # (B,) complex128
    ranks: np.ndarray  # (B,) int


def _zero_chunk(count: int, width: int, rows: int) -> PairingChunk:
    c = np.complex128
    return PairingChunk(
        np.zeros((count, width, width), c),
        np.zeros(count, np.intp),
        np.zeros((count, rows, width), c),
        np.zeros((count, width), c),
        np.zeros(count, c),
        np.ones(count, np.intp),
    )


def pairing_chunk(instances: Sequence[tuple]) -> PairingChunk:
    """The chunk of ``(op, orbit, y, lam)`` or ``(op, orbit, y, lam, p)``
    instances, in order; p defaults to 1.  ``orbit`` holds the rows T^n x,
    as ``orbit_rows(op, x, n)`` gives them.  An orbit shorter than the
    longest must end at a zero row."""
    rows = max((len(instance[1]) for instance in instances), default=0)
    chunk = _zero_chunk(
        len(instances), max((instance[0].dim for instance in instances), default=0), rows
    )
    for b, (op, orbit, y, lam, *p) in enumerate(instances):
        d = op.dim
        if len(orbit) < rows:
            _prefix(orbit, rows - 1)
        chunk.dims[b] = d
        chunk.mats[b, :d, :d] = op.array
        chunk.orbits[b, : len(orbit), :d] = orbit
        chunk.ys[b, :d] = y.to_dense(d)
        chunk.lams[b] = lam
        chunk.ranks[b] = p[0] if p else 1
    return chunk


def _head(chunk: PairingChunk, count: int) -> PairingChunk:
    return PairingChunk._make(field[:count] for field in chunk)


# The stacked gate decides an instance on its own only this far, relative,
# from the bound, beyond the rounding that two summation orders can differ by.
_GATE_SLACK = 1e-6


def _gate(chunk: PairingChunk, ranks: np.ndarray) -> np.ndarray:
    """``_in_kernel(T*, lam, y, p)`` for each instance, p = ``ranks[b]``.

    The residuals are stepped and measured over the whole chunk.  Their
    matrix products may sum in another order than ``_in_kernel``'s, so an
    instance is left to ``_in_kernel`` alone when its stacked residual norm
    is NaN or inf, or lies within ``_GATE_SLACK`` of the bound, relative,
    plus a rounding bound.  Each of the p steps rounds an entry by at most
    (D + 2) eps times terms no larger than (||T|| + |lam|)^p ||y||, so
    64 D p eps times that covers both orders and both norms.
    """
    mats, residual = chunk.mats, chunk.ys
    with np.errstate(all="ignore"):
        for k in range(1, int(ranks.max(initial=0)) + 1):
            # T* r as conj(conj(r) T), so that no copy of the matrices is made
            stepped = np.conj(np.matmul(residual.conj()[:, None], mats)[:, 0])
            stepped -= chunk.lams[:, None] * residual
            residual = np.where((ranks >= k)[:, None], stepped, residual)
        norms = np.linalg.norm(residual, axis=-1)
        y_norms = np.linalg.norm(chunk.ys, axis=-1)
        bounds = KERNEL_TOL * np.maximum(1.0, y_norms)
        squares = np.einsum("bij,bij->b", mats.real, mats.real)
        squares += np.einsum("bij,bij->b", mats.imag, mats.imag)
        terms = (np.sqrt(squares) + np.abs(chunk.lams)) ** ranks * y_norms
        slack = _GATE_SLACK * bounds + 64 * _EPS * chunk.mats.shape[-1] * ranks * terms
        decided = np.abs(norms - bounds) > slack
    passed = norms <= bounds
    for b in np.flatnonzero(~decided):
        d = chunk.dims[b]
        # The layout of ``op.array.conj().T``, so that ``m @`` sums as it did.
        adjoint = np.ascontiguousarray(chunk.mats[b, :d, :d]).conj().T
        y = SeqVec.from_dense(chunk.ys[b, :d])
        passed[b] = _in_kernel(adjoint, complex(chunk.lams[b]), y, int(ranks[b]))
    return passed


def _orbit_checks(chunk: PairingChunk, n_max: int) -> list:
    """The checks on the orbit rows 0..n_max, in order: the orbit reaches
    step n_max or ended at a zero row before it, and the rows are finite."""
    count, rows = chunk.orbits.shape[:2]
    if n_max < 0 or rows == 0:
        short = np.ones(count, dtype=bool)
    elif rows <= n_max:
        short = chunk.orbits[:, -1].any(axis=1)
    else:
        short = np.zeros(count, dtype=bool)
    finite = np.isfinite(chunk.orbits[:, : max(n_max + 1, 0)]).all(axis=(1, 2))
    return [
        (short, lambda b: _unreached(chunk.orbits[b], n_max)),
        (~finite, lambda b: ValueError("non-finite orbit entry")),
    ]


def _screen(checks: list) -> tuple[int, Exception | None]:
    """The first instance, in chunk order, that fails one of ``checks``,
    and the error of the first check it fails; the chunk's length and None
    if none fails.  Each check pairs the mask of failing instances with a
    function from an instance to its error."""
    masks = np.array([mask for mask, _ in checks])
    failing = masks.any(axis=0)
    if not failing.any():
        return masks.shape[1], None
    b = int(np.argmax(failing))
    return b, checks[int(np.argmax(masks[:, b]))][1](b)


def _pairings(chunk: PairingChunk, n_max: int) -> np.ndarray:
    """<T^n x, y> for n = 0..n_max, one row per instance, from orbit rows
    that reach step n_max or end at a zero row, all finite.

    Each pairing is Python's complex sum of ``row[j] * conj(y[j])`` over j
    in increasing order, in real form on float64 arrays: ``ar*br - ai*bi``
    and ``ar*bi + ai*br``, summed from +0.0.  A sum from +0.0 never turns
    -0.0, so the zero entries past y's support, or past an orbit's zero
    row, leave every bit of it as it is.
    """
    rows = chunk.orbits[:, : max(n_max + 1, 0)]
    out = np.zeros((len(rows), max(n_max + 1, 0)), dtype=np.complex128)
    re, im = out.real[:, : rows.shape[1]], out.imag[:, : rows.shape[1]]
    y_re, y_im = chunk.ys.real, -chunk.ys.imag
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(rows.shape[2]):
            a_re, a_im = rows[:, :, j].real, rows[:, :, j].imag
            b_re, b_im = y_re[:, j, None], y_im[:, j, None]
            re += a_re * b_re - a_im * b_im
            im += a_re * b_im + a_im * b_re
    return out


def _powers(bases: np.ndarray, exponents: range) -> tuple[np.ndarray, np.ndarray]:
    """``base ** n`` by Python's complex pow, one row per base, and where
    each row's first overflow is (``len(exponents)`` if none); a row is NaN
    from its overflow on."""
    bases = bases.tolist()
    overflows = np.full(len(bases), len(exponents), dtype=np.intp)
    shape = len(bases), len(exponents)
    try:
        powers = (base**n for base in bases for n in exponents)
        return np.fromiter(powers, np.complex128, shape[0] * shape[1]).reshape(shape), overflows
    except OverflowError:
        table = []
        for b, base in enumerate(bases):
            for k, n in enumerate(exponents):
                try:
                    table.append(base**n)
                except OverflowError:
                    overflows[b] = k
                    table.extend([complex(math.nan, math.nan)] * (len(exponents) - k))
                    break
    return np.array(table, dtype=np.complex128).reshape(shape), overflows


def _worst(worst: float, deviations: np.ndarray) -> float:
    """``max_or_nan`` of ``worst`` and every deviation, as a builtin float."""
    return max_or_nan(worst, float(np.max(deviations))) if deviations.size else worst


def eigen_orbit_pairing(chunk: PairingChunk, n_max: int) -> float:
    """Worst deviation of <T^n x, y> from conj(lam)^n <x, y> over n <= n_max
    and over the chunk's instances.

    Each y must satisfy T* y = lam y within ``KERNEL_TOL`` (relative to its
    norm); the pairing law then forces the whole profile.  The first
    instance that fails a check raises its error: the gate, then the orbit
    rows.  conj(lam)^n is Python's complex pow; the product with <x, y> and
    the difference are Python's complex arithmetic in real form, and the
    modulus is ``np.hypot``, which is Python's ``abs``.
    """
    ones = np.ones(len(chunk.lams), dtype=np.intp)
    first, error = _screen(
        [(~_gate(chunk, ones), lambda b: NotEigenvector("y is not an adjoint eigenvector for lam"))]
        + _orbit_checks(chunk, n_max)
    )
    head = _head(chunk, first)
    pairings = _pairings(head, n_max)
    lam_bars = head.lams.conj()
    powers, overflows = _powers(lam_bars, range(n_max + 1))
    base = pairings[:, :1]
    with np.errstate(over="ignore", invalid="ignore"):
        re = pairings.real - (powers.real * base.real - powers.imag * base.imag)
        im = pairings.imag - (powers.real * base.imag + powers.imag * base.real)
        deviations = np.hypot(re, im)
    too_large = np.isfinite(re) & np.isfinite(im) & np.isinf(deviations)
    overflowing = (overflows <= n_max) | too_large.any(axis=1)
    if overflowing.any():
        # The first such instance, one Python operation at a time, so that
        # pow or abs raises its own OverflowError where it did.
        g = int(np.argmax(overflowing))
        lam_bar, base = complex(lam_bars[g]), complex(pairings[g, 0])
        for n, pairing in enumerate(pairings[g].tolist()):
            abs(pairing - lam_bar**n * base)
    if error is not None:
        raise error
    return _worst(0.0, deviations)


def generalized_pairing_polynomial(chunk: PairingChunk, n_max: int) -> float:
    """Fit <T^n x, y> = conj(lam)^(n-p) Q(n), deg Q < p, and report the
    worst residual over the chunk's instances, p = ``chunk.ranks[b]``.

    Q is solved from the p pairings n = p..2p-1; the residual is the worst
    |<T^n x, y> - conj(lam)^(n-p) Q(n)| over 2p <= n <= n_max.  For lam = 0
    the profile collapses: no Q is fitted, and every pairing from n = 2p on
    must vanish outright.  The first instance that fails a check raises its
    error: p < 1, the gate, the orbit rows, then n_max < 2p - 1.

    The fit reproduces numpy's scalar arithmetic: the right-hand sides are
    numpy's power and division, which its array forms match; each rank's
    systems are one ``np.linalg.solve`` over the stack; Q(n) and
    conj(lam)^(n-p) Q(n), with the power by Python's pow, are numpy's
    scalar complex products, which the real form matches; the modulus is
    ``np.hypot``, which is numpy's scalar ``abs``.
    """
    ranks = chunk.ranks
    fits = chunk.lams != 0
    first, error = _screen(
        [
            (ranks < 1, lambda b: ValueError("rank p must be >= 1")),
            (
                ~_gate(chunk, ranks),
                lambda b: NotInGeneralizedKernel(f"(T* - lam)^{ranks[b]} y is not ~ 0"),
            ),
            *_orbit_checks(chunk, n_max),
            (
                fits & (n_max < 2 * ranks - 1),
                lambda b: ValueError(f"need n_max >= 2p - 1 = {2 * ranks[b] - 1} to fit Q"),
            ),
        ]
    )
    head = _head(chunk, first)
    pairings = _pairings(head, n_max)
    lam_bars = head.lams.conj()
    overflowing = np.zeros(first, dtype=bool)
    worst = 0.0
    for p in sorted(set(head.ranks.tolist())):
        ns = range(2 * p, n_max + 1)
        for fit in (False, True):
            group = np.flatnonzero((head.ranks == p) & (fits[:first] == fit))
            if not group.size or not ns:
                continue
            predicted = 0.0
            if fit:
                predicted, overflows = _fitted(pairings[group], lam_bars[group], p, ns)
                overflowing[group] = overflows < len(ns)
            observed = pairings[group, 2 * p :]
            with np.errstate(over="ignore", invalid="ignore"):
                re, im = observed.real - np.real(predicted), observed.imag - np.imag(predicted)
                deviations = np.hypot(re, im)
            if not fit:  # Python's abs, of Python's complex difference with 0j
                too_large = np.isfinite(re) & np.isfinite(im) & np.isinf(deviations)
                overflowing[group] = too_large.any(axis=1)
            worst = _worst(worst, deviations)
    if overflowing.any():
        # The first such instance, one Python operation at a time, so that
        # pow or abs raises its own OverflowError where it did.
        g = int(np.argmax(overflowing))
        p, lam_bar = int(head.ranks[g]), complex(lam_bars[g])
        for n in range(2 * p, n_max + 1):
            lam_bar ** (n - p) if fits[g] else abs(complex(pairings[g, n]) - 0j)
    if error is not None:
        raise error
    return worst


def _fitted(
    pairings: np.ndarray, lam_bars: np.ndarray, p: int, ns: range
) -> tuple[np.ndarray, np.ndarray]:
    """conj(lam)^(n-p) Q(n) for n in ``ns``, one row per rank-p instance,
    with Q fitted to its pairings n = p..2p-1, and where each row's Python
    pow first overflows, as ``_powers`` gives it."""
    vander = np.vander(np.arange(p, 2 * p).astype(np.complex128), p, increasing=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rhs = pairings[:, p : 2 * p] / lam_bars[:, None] ** np.arange(p)
        coeffs = np.linalg.solve(vander, rhs[..., None])[..., 0]
        # Q(n) = sum of coeffs[i] * n**i from 0: a product with (n**i, 0.0).
        q_re = np.zeros((len(coeffs), len(ns)))
        q_im = np.zeros((len(coeffs), len(ns)))
        for i in range(p):
            m = np.array([float(n**i) for n in ns])
            c_re, c_im = coeffs[:, i, None].real, coeffs[:, i, None].imag
            q_re += c_re * m - c_im * 0.0
            q_im += c_re * 0.0 + c_im * m
        powers, overflows = _powers(lam_bars, range(ns.start - p, ns.stop - p))
        out = np.empty(powers.shape, dtype=np.complex128)
        out.real = powers.real * q_re - powers.imag * q_im
        out.imag = powers.real * q_im + powers.imag * q_re
    return out, overflows


@dataclass(frozen=True)
class DichotomyVerdict:
    classification: str  # "toZero" | "toInfinity" | "neither"
    first_norm: float
    last_norm: float
    steps: int
    ratio_trend: float


def spectral_dichotomy(op: FiniteMatrix, x: SeqVec, n_steps: int = 400) -> DichotomyVerdict:
    """Iterate orbit norms and classify collapse vs blowup.

    Exits as soon as the norm leaves the band
    [EXIT_LOW_FACTOR * ||x||, EXIT_HIGH_FACTOR * ||x||]; staying inside for
    all ``n_steps`` steps yields "neither".
    """
    x_norm = norm(x)
    if x_norm == 0.0:
        raise ValueError("dichotomy needs a nonzero start vector")
    low = EXIT_LOW_FACTOR * x_norm
    high = EXIT_HIGH_FACTOR * x_norm
    norms = _kernels.orbit_norms(op.array, x.to_dense(op.dim), n_steps, low, high)
    last = float(norms[-1])
    steps = len(norms) - 1
    if last < low:
        cls = "toZero"
    elif last > high or not math.isfinite(last):
        cls = "toInfinity"
    else:
        cls = "neither"
    if steps >= 1 and last > 0.0 and math.isfinite(last):
        trend = (last / float(norms[0])) ** (1.0 / steps)
    else:
        trend = 0.0
    return DichotomyVerdict(cls, float(norms[0]), last, steps, trend)


def eigenvalue_moduli(op: FiniteMatrix) -> list[float]:
    """The moduli of the matrix's eigenvalues, in increasing order."""
    return sorted(float(m) for m in np.abs(np.linalg.eigvals(op.array)))


def orbit_span_rank(orbit: np.ndarray, n_steps: int) -> int:
    """Numerical rank of span{x, Tx, ..., T^n x} by pivoted Gram-Schmidt,
    read off the first n_steps + 1 rows of x's orbit (``orbit_rows``)."""
    return _pivoted_rank(_prefix(orbit, n_steps).T)


def _pivoted_rank(cols: np.ndarray) -> int:
    work = np.array(cols, dtype=np.complex128)
    d, m = work.shape
    threshold = RANK_REL_TOL * max(
        (float(np.linalg.norm(work[:, j])) for j in range(m)), default=0.0
    )
    if threshold == 0.0:
        return 0
    rank = 0
    for _ in range(min(d, m)):
        lengths = np.linalg.norm(work, axis=0)
        pivot = int(np.argmax(lengths))
        if lengths[pivot] <= threshold:
            break
        q = work[:, pivot] / lengths[pivot]
        work -= np.outer(q, q.conj() @ work)
        rank += 1
    return rank


def unit_ball_net(pattern: ZeroPattern, support_bound: int, net_level: int) -> np.ndarray:
    """The ``dyadic_net`` that ``density_defect`` covers, as dense rows of
    width ``support_bound``."""
    net = dyadic_net(pattern, support_bound, net_level)
    rows = [r for r, v in enumerate(net) for _ in v._entries]
    cols = [i for v in net for i in v._entries]
    out = np.zeros((len(net), support_bound), dtype=np.complex128)
    out[rows, cols] = [z for v in net for z in v._entries.values()]
    return out


def density_defect(
    points: Sequence[SeqVec] | np.ndarray,
    pattern: ZeroPattern,
    net_level: int,
    support_bound: int,
    eps: float,
    net: np.ndarray | None = None,
) -> float:
    """Fraction of a unit-ball dyadic net left uncovered by the orbit points.

    Points outside the subspace (beyond ``MEMBERSHIP_TOL``) cannot cover
    anything and are discarded first; an empty remaining cloud leaves the
    whole net uncovered (defect 1).  Sparse points become dense rows wide
    enough for every point and the net.  ``net``, when given, must be
    ``unit_ball_net(pattern, support_bound, net_level)``; a caller covering
    several orbits with one net builds it once.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if net is None:
        net = unit_ball_net(pattern, support_bound, net_level)

    if not isinstance(points, np.ndarray):
        width = max([support_bound] + [v.support()[-1] + 1 for v in points if v])
        points = np.array([v.to_dense(width) for v in points]).reshape(len(points), width)
    arr = np.asarray(points, dtype=np.complex128)
    forbidden = [i for i in range(arr.shape[1]) if pattern.forbids(i)]
    if forbidden:
        bad = np.sqrt(np.sum(np.abs(arr[:, forbidden]) ** 2, axis=1)) > MEMBERSHIP_TOL
        if bad.any():
            arr = arr[~bad]
    if arr.shape[0] == 0:
        return 1.0

    net_dim = max(arr.shape[1], support_bound)
    net_arr = np.zeros((len(net), net_dim), dtype=np.complex128)
    net_arr[:, :support_bound] = net
    if arr.shape[1] < net_dim:
        padded = np.zeros((arr.shape[0], net_dim), dtype=np.complex128)
        padded[:, : arr.shape[1]] = arr
        arr = padded

    misses = _kernels.uncovered_count(net_arr, arr, eps)
    return misses / len(net)


def findim_orbits(pattern: ZeroPattern, dim: int, trials: int, seed: int, n_steps: int):
    """``findim``'s seeded trials, in trial order: the orbit to ``n_steps`` of
    a unit start vector in the pattern's subspace under a matrix that keeps
    the subspace invariant, at spectral radius 0.8.  Trials are drawn and
    stepped in stacks that fit ``_kernels.stack_width``, each stack once the
    orbits before it are read.  The pattern must allow a coordinate below
    ``dim``."""
    rng = np.random.default_rng(seed)
    allowed = allowed_indices(pattern, dim)
    forbidden = [i for i in range(dim) if pattern.forbids(i)]

    def draw():
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m[np.ix_(forbidden, allowed)] = 0.0
        radius = float(np.abs(np.linalg.eigvals(m)).max())
        if radius > 1e-9:
            m *= 0.8 / radius
        vals = rng.standard_normal(len(allowed)) + 1j * rng.standard_normal(len(allowed))
        x = np.zeros(dim, dtype=np.complex128)
        x[allowed] = vals / np.linalg.norm(vals)
        return m, x

    width = _kernels.stack_width(n_steps + 1, dim)
    for first in range(0, trials, width):
        mats, vecs = zip(*(draw() for _ in range(first, min(first + width, trials))))
        yield from _kernels.orbit_points(np.array(mats), np.array(vecs), n_steps)


def compression_orbit_check(
    op: FiniteMatrix, pattern: ZeroPattern, x: SeqVec, horizon: int
) -> float:
    """Worst gap between P T^n x and (P T)^n x over n <= horizon.

    P projects onto the pattern's allowed coordinates.  Requires the
    forbidden coordinates to span an invariant complement: each forbidden
    basis column of the matrix must stay out of the allowed block.  The
    start vector must lie in the allowed block.
    """
    m = op.array
    d = op.dim
    allowed = np.array([not pattern.forbids(i) for i in range(d)])
    if not allowed.any():
        raise ValueError("pattern forbids every coordinate of the block")
    col_scale = max(1.0, float(np.abs(m).max()))
    for j in range(d):
        if allowed[j]:
            continue
        leak = float(np.linalg.norm(m[allowed, j]))
        if leak > KERNEL_TOL * col_scale:
            raise ComplementNotInvariant(
                f"column {j} leaks into the allowed block (norm {leak:.3e})"
            )
    x_dense = x.to_dense(d)
    if float(np.linalg.norm(x_dense[~allowed])) > KERNEL_TOL * max(1.0, norm(x)):
        raise ValueError("start vector must lie in the allowed block")

    mask = allowed.astype(np.complex128)
    full = x_dense.copy()
    compressed = x_dense.copy()
    worst = 0.0
    for _ in range(horizon):
        full = m @ full
        compressed = mask * (m @ compressed)
        worst = max_or_nan(worst, float(np.linalg.norm(mask * full - compressed)))
    return worst


# --------------------------------------------------------------------------
# Seeded instance generators for the pairing laws.  Unitary conjugation
# keeps the planted structure well conditioned, so observed deviations
# measure the pairing law, not the generator.  An instance is drawn, taking
# all its random numbers, then factored: T = Q middle Q*, or its adjoint if
# ``adjoint``, with Q the unitary QR factor of ``gauss``; y = Q[:, column]
# and T* y = lam y.
PlantedDraw = namedtuple("PlantedDraw", "gauss middle column lam adjoint")
Planted = tuple[FiniteMatrix, SeqVec, complex]


def draw_eigen(rng: np.random.Generator, dim: int) -> PlantedDraw:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    eigs = rng.uniform(0.2, 1.0, size=dim) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=dim))
    # T* = Q conj(Lambda) Q*, so the adjoint eigenvalue at q_0 is conj(eigs[0])
    return PlantedDraw(g, np.diag(eigs), 0, complex(np.conj(eigs[0])), False)


def draw_chain(rng: np.random.Generator, dim: int, p: int) -> PlantedDraw:
    if not 1 <= p <= dim:
        raise ValueError("need 1 <= p <= dim")
    lam = complex(rng.uniform(0.3, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    adj = np.zeros((dim, dim), dtype=np.complex128)
    adj[:p, :p] = np.diag(np.full(p, lam)) + np.diag(np.ones(p - 1), 1)
    adj[p:, p:] = np.diag(
        rng.uniform(0.2, 0.95, size=dim - p)
        * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=dim - p))
    )
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return PlantedDraw(g, adj, p - 1, lam, True)


def _factored(draws: Sequence[PlantedDraw]) -> tuple[np.ndarray, np.ndarray]:
    """Same-size draws of one kind as a C-ordered (B, d, d) stack of T, and
    the (B, d) stack of their dense y.  One ``qr`` and one Q @ middle @ Q*
    over the stack give each instance the bits of factoring it alone;
    scaling Q's columns by a diagonal middle factor would round
    differently."""
    q, _ = np.linalg.qr(np.array([d.gauss for d in draws]))
    t = q @ np.array([d.middle for d in draws]) @ q.conj().transpose(0, 2, 1)
    t = np.ascontiguousarray(t.conj().transpose(0, 2, 1) if draws[0].adjoint else t)
    return t, q[np.arange(len(draws)), :, [d.column for d in draws]]


def planted_orbits(draws: Sequence[PlantedDraw], starts: Sequence, n_steps: int) -> PairingChunk:
    """The chunk of draws of one kind and their start vectors, in draw
    order, each orbit to n_steps as ``orbit_rows`` steps it; a draw's rank
    is its y's place in the chain, ``column + 1``.  The draws of each
    dimension are factored and stepped as one stack."""
    dims = np.array([len(d.gauss) for d in draws])
    chunk = _zero_chunk(len(draws), int(dims.max()), n_steps + 1)
    chunk.dims[:] = dims
    chunk.lams[:] = [d.lam for d in draws]
    chunk.ranks[:] = [d.column + 1 for d in draws]
    # Not np.unique: its first call maps about 1.6 MB more of numpy into memory.
    for dim in sorted(set(dims.tolist())):
        group = np.flatnonzero(dims == dim)
        mats, ys = _factored([draws[i] for i in group])
        chunk.mats[group, :dim, :dim] = mats
        chunk.ys[group, :dim] = ys
        orbits = _kernels.orbit_points(mats, np.array([starts[i] for i in group]), n_steps)
        for i, orbit in zip(group.tolist(), orbits):
            chunk.orbits[i, : len(orbit), :dim] = orbit
    # y as ``SeqVec.from_dense`` stores it; np.hypot is Python's abs.
    chunk.ys[np.hypot(chunk.ys.real, chunk.ys.imag) < PRUNE_MODULUS] = 0.0
    return chunk


def _planted(draw: PlantedDraw) -> Planted:
    mats, ys = _factored([draw])
    return FiniteMatrix(mats[0]), SeqVec.from_dense(ys[0]), draw.lam


def planted_eigen_instance(rng: np.random.Generator, dim: int) -> Planted:
    """A matrix with a known adjoint eigenpair: returns (T, y, lam) with T* y = lam y."""
    return _planted(draw_eigen(rng, dim))


def planted_chain_instance(rng: np.random.Generator, dim: int, p: int) -> Planted:
    """A matrix whose adjoint has a planted rank-p chain: (T* - lam)^p y = 0."""
    return _planted(draw_chain(rng, dim, p))


# The planted instances of ``kernel`` have dimensions 2..8.
KERNEL_MAX_DIM = 8


def planted_streams(seed: int, eigen_count: int, chain_count: int, n_steps: int):
    """``kernel``'s eigen and chain instances as two lazy streams of
    ``PairingChunk``s over one ``default_rng(seed)``, each orbit that of a
    random start vector to ``n_steps``.  A chunk is a stack that fits
    ``_kernels.stack_width``, drawn and stepped once the chunks before it
    are read, so the chain stream draws once the eigen stream is read to
    its end."""
    rng = np.random.default_rng(seed)

    def start(dim: int) -> np.ndarray:
        return (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(dim)

    def eigen():
        dim = int(rng.integers(2, KERNEL_MAX_DIM + 1))
        return draw_eigen(rng, dim), start(dim)

    def chain():
        p = int(rng.integers(1, 4))
        dim = int(rng.integers(p + 1, KERNEL_MAX_DIM + 1))
        return draw_chain(rng, dim, p), start(dim)

    def stream(count: int, draw):
        chunk = _kernels.stack_width(n_steps + 1, KERNEL_MAX_DIM)
        for first in range(0, count, chunk):
            # No name holds the draws, so they are freed while the chunk is read.
            yield planted_orbits(*zip(*(draw() for _ in range(first, min(first + chunk, count)))), n_steps)

    return stream(eigen_count, eigen), stream(chain_count, chain)
