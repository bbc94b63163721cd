"""Finite-dimensional obstructions to orbit density.

Closed-form generalized-eigenvector orbits, adjoint pairing laws that pin
orbit inner products to polynomial-times-power profiles, the grow-or-die
norm dichotomy for matrices with spectrum off the unit circle, orbit span
rank, the coverage defect of an orbit against a dyadic net, and the
compressed-orbit identity on invariant-complement splits.  The seeded
draws of ``findim`` and ``kernel`` are made here and stepped in stacks.
Orbits are iterated by the numpy kernels in ``_kernels``.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _LAZY, _kernels
from .errors import (
    ComplementNotInvariant,
    NotEigenvector,
    NotInGeneralizedKernel,
)
from .seqspace import FiniteMatrix, SeqVec, max_or_nan, norm
from .subspace import ZeroPattern, allowed_indices, dyadic_net

# The package names these without importing numpy, from this one list.
__all__ = sorted(_LAZY)

KERNEL_TOL = 1e-10

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
    if n_steps < 0:
        raise ValueError("orbit length must be >= 0")
    if len(orbit) <= n_steps and (len(orbit) == 0 or orbit[-1].any()):
        raise ValueError(f"an orbit of {len(orbit)} rows does not reach step {n_steps}")
    return orbit[: n_steps + 1]


def _pairings(orbit: np.ndarray, y: SeqVec, n_max: int) -> list[complex]:
    """<T^n x, y> for n = 0..n_max, read off the orbit rows of x.

    Each pairing sums over y's support in increasing index order with
    Python complex products, as ``inner`` does; an orbit that ends at a zero
    row pairs to 0j from there on.
    """
    points = _prefix(orbit, n_max)
    if not np.isfinite(points).all():
        raise ValueError("non-finite orbit entry")
    entries = y.items()
    indices = [i for i, _ in entries]
    y_bar = [z.conjugate() for _, z in entries]
    pairings = [sum(map(operator.mul, row, y_bar), 0j) for row in points[:, indices].tolist()]
    return pairings + [0j] * (n_max + 1 - len(pairings))


def jordan_orbit(op: FiniteMatrix, lam: complex, p: int, y: SeqVec, n: int) -> SeqVec:
    """n-th orbit point of a rank-p generalized eigenvector, in closed form.

    Exact integer binomials carry the combinatorial part; only the powers of
    ``lam`` and the p matrix applications touch floats.  Requires n >= p and
    (op - lam)^p y = 0 within ``KERNEL_TOL``.
    """
    if p < 1:
        raise ValueError("rank p must be >= 1")
    if n < p:
        raise ValueError(f"closed form needs n >= p, got n={n}, p={p}")
    m = op.array
    if not _in_kernel(m, lam, y, p):
        raise NotInGeneralizedKernel(f"(T - lam)^{p} y is not ~ 0")

    powers = [y.to_dense(op.dim)]
    for _ in range(p - 1):
        powers.append(m @ powers[-1])
    # powers[p-k] = T^(p-k) y for k = 1..p

    total = np.zeros(op.dim, dtype=np.complex128)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, p + 1):
                coeff = Fraction(math.comb(p, k) * math.comb(n, p) * k, n - p + k)
                if (k - 1) % 2 == 1:
                    coeff = -coeff
                total += float(coeff) * lam ** (n - p + k) * powers[p - k]
        return SeqVec.from_dense(total)
    # OverflowError from float(coeff) or lam ** (n - p + k); ValueError from
    # a non-finite entry of the sum.
    except (OverflowError, ValueError) as exc:
        raise ArithmeticError(
            f"jordan_orbit: T^n y is past the float range for lambda = {lam}, p = {p}, n = {n}"
        ) from exc


def eigen_orbit_pairing(
    op: FiniteMatrix, orbit: np.ndarray, y: SeqVec, lam: complex, n_max: int
) -> float:
    """Worst deviation of <T^n x, y> from conj(lam)^n <x, y> over n <= n_max.

    ``orbit`` holds the rows T^n x of some x, as ``orbit_rows(op, x, n_max)``
    gives them.  ``y`` must satisfy T* y = lam y within ``KERNEL_TOL``
    (relative to its norm); the pairing law then forces the whole profile.
    """
    if not _in_kernel(op.array.conj().T, lam, y, 1):
        raise NotEigenvector("y is not an adjoint eigenvector for lam")
    pairings = _pairings(orbit, y, n_max)
    base = pairings[0]
    lam_bar = lam.conjugate()
    worst = 0.0
    for n, pairing in enumerate(pairings):
        worst = max_or_nan(worst, abs(pairing - lam_bar**n * base))
    return worst


def generalized_pairing_polynomial(
    op: FiniteMatrix, orbit: np.ndarray, y: SeqVec, lam: complex, p: int, n_max: int
) -> float:
    """Fit <T^n x, y> = conj(lam)^(n-p) Q(n), deg Q < p, and report the residual.

    ``orbit`` holds the rows T^n x, as for ``eigen_orbit_pairing``.

    Q is solved from the p pairings n = p..2p-1; the returned value is the
    worst |<T^n x, y> - conj(lam)^(n-p) Q(n)| over 2p <= n <= n_max.  For
    lam = 0 the profile collapses: no Q is fitted, and every pairing from
    n = 2p on must vanish outright.
    """
    if p < 1:
        raise ValueError("rank p must be >= 1")
    if not _in_kernel(op.array.conj().T, lam, y, p):
        raise NotInGeneralizedKernel(f"(T* - lam)^{p} y is not ~ 0")

    pairings = _pairings(orbit, y, n_max)

    lam_bar = lam.conjugate()
    if lam != 0:
        if n_max < 2 * p - 1:
            raise ValueError(f"need n_max >= 2p - 1 = {2 * p - 1} to fit Q")
        ns = np.arange(p, 2 * p)
        vander = np.vander(ns.astype(np.complex128), p, increasing=True)
        rhs = np.array(
            [pairings[n] / lam_bar ** (n - p) for n in ns], dtype=np.complex128
        )
        coeffs = np.linalg.solve(vander, rhs)

    worst = 0.0
    for n in range(2 * p, n_max + 1):
        if lam == 0:
            predicted = 0j
        else:
            q = sum(coeffs[i] * n**i for i in range(p))
            predicted = lam_bar ** (n - p) * q
        worst = max_or_nan(worst, abs(pairings[n] - predicted))
    return float(worst)  # a numpy float from the fitted Q, as a builtin


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
    return np.array([v.to_dense(support_bound) for v in net], dtype=np.complex128)


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


def _factored(draws: Sequence[PlantedDraw]) -> tuple[np.ndarray, list[Planted]]:
    """Same-size draws of one kind as a C-ordered (B, d, d) stack of T, and
    each (T, y, lam).  One ``qr`` and one Q @ middle @ Q* over the stack give
    each instance the bits of factoring it alone; scaling Q's columns by a
    diagonal middle factor would round differently."""
    q, _ = np.linalg.qr(np.array([d.gauss for d in draws]))
    t = q @ np.array([d.middle for d in draws]) @ q.conj().transpose(0, 2, 1)
    t = np.ascontiguousarray(t.conj().transpose(0, 2, 1) if draws[0].adjoint else t)
    ys = [SeqVec.from_dense(q[b, :, d.column]) for b, d in enumerate(draws)]
    return t, [(FiniteMatrix(m), y, d.lam) for m, y, d in zip(t, ys, draws)]


def planted_orbits(draws: Sequence[PlantedDraw], starts: Sequence, n_steps: int) -> list:
    """((T, y, lam), orbit) for draws of one kind and their start vectors, in
    draw order, each orbit to n_steps as ``orbit_rows`` steps it.  The draws
    of each dimension are factored and stepped as one stack."""
    out: list = [None] * len(draws)
    for dim in {len(d.gauss) for d in draws}:
        group = [i for i, d in enumerate(draws) if len(d.gauss) == dim]
        mats, instances = _factored([draws[i] for i in group])
        orbits = _kernels.orbit_points(mats, np.array([starts[i] for i in group]), n_steps)
        for i, instance, orbit in zip(group, instances, orbits):
            out[i] = instance, orbit
    return out


def planted_eigen_instance(rng: np.random.Generator, dim: int) -> Planted:
    """A matrix with a known adjoint eigenpair: returns (T, y, lam) with T* y = lam y."""
    return _factored([draw_eigen(rng, dim)])[1][0]


def planted_chain_instance(rng: np.random.Generator, dim: int, p: int) -> Planted:
    """A matrix whose adjoint has a planted rank-p chain: (T* - lam)^p y = 0."""
    return _factored([draw_chain(rng, dim, p)])[1][0]


# The planted instances of ``kernel`` have dimensions 2..8.
KERNEL_MAX_DIM = 8


def planted_streams(seed: int, eigen_count: int, chain_count: int, n_steps: int):
    """``kernel``'s eigen and chain instances as two lazy streams over one
    ``default_rng(seed)``.  An item is (T, orbit, y, lam), then p for a chain
    of rank p: the leading arguments of the pairing laws, with a random start
    vector's orbit to ``n_steps``.  Each stream draws and steps a stack that
    fits ``_kernels.stack_width`` once the items before it are read, so the
    chain stream draws once the eigen stream is read to its end."""
    rng = np.random.default_rng(seed)

    def start(dim: int) -> np.ndarray:
        return (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(dim)

    def eigen():
        dim = int(rng.integers(2, KERNEL_MAX_DIM + 1))
        return draw_eigen(rng, dim), start(dim), ()

    def chain():
        p = int(rng.integers(1, 4))
        dim = int(rng.integers(p + 1, KERNEL_MAX_DIM + 1))
        return draw_chain(rng, dim, p), start(dim), (p,)

    def stream(count: int, draw):
        chunk = _kernels.stack_width(n_steps + 1, KERNEL_MAX_DIM)
        for first in range(0, count, chunk):
            draws, starts, args = zip(*(draw() for _ in range(first, min(first + chunk, count))))
            for extra, ((op, y, lam), orbit) in zip(args, planted_orbits(draws, starts, n_steps)):
                yield (op, orbit, y, lam, *extra)

    return stream(eigen_count, eigen), stream(chain_count, chain)
