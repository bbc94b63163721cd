"""Finite-dimensional obstructions to orbit density.

Closed-form generalized-eigenvector orbits, adjoint pairing laws that pin
orbit inner products to polynomial-times-power profiles, the grow-or-die
norm dichotomy for matrices with spectrum off the unit circle, orbit span
rank, the coverage defect of an orbit against a dyadic net, and the
compressed-orbit identity on invariant-complement splits.  Orbits are
iterated by the numpy kernels in ``_kernels``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import (
    ComplementNotInvariant,
    NotEigenvector,
    NotInGeneralizedKernel,
)
from .seqspace import FiniteMatrix, SeqVec, norm
from .subspace import ZeroPattern, dyadic_net

__all__ = [
    "jordan_orbit",
    "eigen_orbit_pairing",
    "generalized_pairing_polynomial",
    "DichotomyVerdict",
    "spectral_dichotomy",
    "orbit_span_rank",
    "unit_ball_net",
    "density_defect",
    "compression_orbit_check",
    "planted_eigen_instance",
    "planted_chain_instance",
]

KERNEL_TOL = 1e-10

EXIT_LOW_FACTOR = 1e-6
EXIT_HIGH_FACTOR = 1e6

# Orbit-span rank: columns shorter than this times the longest are dependent.
RANK_REL_TOL = 1e-10

# Orbit points whose forbidden part is longer than this cannot cover the net.
MEMBERSHIP_TOL = 1e-9


def _kernel_residual(m: np.ndarray, lam: complex, y: np.ndarray, p: int) -> float:
    """Norm of (m - lam)^p y.

    A step that overflows makes it NaN or inf; the gates test
    ``not residual <= tol`` so that either fails them.
    """
    for _ in range(p):
        y = m @ y - lam * y
    return float(np.linalg.norm(y))


def _pairings(op: FiniteMatrix, x: SeqVec, y: SeqVec, n_max: int) -> list[complex]:
    """<T^n x, y> for n = 0..n_max, read off one orbit.

    Each pairing sums over y's support in increasing index order with
    Python complex products, as ``inner`` does; an orbit that ends at a zero
    row pairs to 0j from there on.
    """
    points = _kernels.orbit_points(op.array, x.to_dense(op.dim), n_max)
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
    y_dense = y.to_dense(op.dim)
    scale = max(1.0, float(np.linalg.norm(y_dense)))
    if not _kernel_residual(m, lam, y_dense, p) <= KERNEL_TOL * scale:
        raise NotInGeneralizedKernel(f"(T - lam)^{p} y is not ~ 0")

    powers = [y_dense]
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
    op: FiniteMatrix, x: SeqVec, y: SeqVec, lam: complex, n_max: int
) -> float:
    """Worst deviation of <T^n x, y> from conj(lam)^n <x, y> over n <= n_max.

    ``y`` must satisfy T* y = lam y within ``KERNEL_TOL`` (relative to its
    norm); the pairing law then forces the whole profile.
    """
    scale = max(1.0, norm(y))
    adjoint = op.array.conj().T
    if not _kernel_residual(adjoint, lam, y.to_dense(op.dim), 1) <= KERNEL_TOL * scale:
        raise NotEigenvector("y is not an adjoint eigenvector for lam")
    pairings = _pairings(op, x, y, n_max)
    base = pairings[0]
    lam_bar = lam.conjugate()
    worst = 0.0
    for n, pairing in enumerate(pairings):
        worst = max(worst, abs(pairing - lam_bar**n * base))
    return worst


def generalized_pairing_polynomial(
    op: FiniteMatrix, x: SeqVec, y: SeqVec, lam: complex, p: int, n_max: int
) -> float:
    """Fit <T^n x, y> = conj(lam)^(n-p) Q(n), deg Q < p, and report the residual.

    Q is solved from the p pairings n = p..2p-1; the returned value is the
    worst |<T^n x, y> - conj(lam)^(n-p) Q(n)| over 2p <= n <= n_max.  For
    lam = 0 the profile collapses: Q is the constant <T^p x, y> and every
    later pairing must vanish outright.
    """
    if p < 1:
        raise ValueError("rank p must be >= 1")
    scale = max(1.0, norm(y))
    adjoint = op.array.conj().T
    if not _kernel_residual(adjoint, lam, y.to_dense(op.dim), p) <= KERNEL_TOL * scale:
        raise NotInGeneralizedKernel(f"(T* - lam)^{p} y is not ~ 0")

    pairings = _pairings(op, x, y, n_max)

    lam_bar = lam.conjugate()
    if lam == 0:
        coeffs = np.zeros(p, dtype=np.complex128)
        coeffs[0] = pairings[p] if p <= n_max else 0j
    else:
        rows = min(p, n_max - p + 1)
        if rows < p:
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
        worst = max(worst, abs(pairings[n] - predicted))
    return worst


@dataclass(frozen=True)
class DichotomyVerdict:
    classification: str  # "toZero" | "toInfinity" | "neither"
    first_norm: float
    last_norm: float
    steps: int
    ratio_trend: float

    def to_json_dict(self) -> dict:
        return {
            "classification": self.classification,
            "firstNorm": self.first_norm,
            "lastNorm": self.last_norm,
            "steps": self.steps,
            "ratioTrend": self.ratio_trend,
        }


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


def orbit_span_rank(op: FiniteMatrix, x: SeqVec, n_steps: int) -> int:
    """Numerical rank of span{x, Tx, ..., T^n x} by pivoted Gram-Schmidt."""
    if n_steps < 0:
        raise ValueError("orbit length must be >= 0")
    points = _kernels.orbit_points(op.array, x.to_dense(op.dim), n_steps)
    return _pivoted_rank(points.T)


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
        worst = max(worst, float(np.linalg.norm(mask * full - compressed)))
    return worst


# --------------------------------------------------------------------------
# Seeded instance generators for the pairing laws.  Unitary conjugation
# keeps the planted structure well conditioned, so observed deviations
# measure the pairing law, not the generator.


def planted_eigen_instance(
    rng: np.random.Generator, dim: int
) -> tuple[FiniteMatrix, SeqVec, complex]:
    """A matrix with a known adjoint eigenpair: returns (T, y, lam) with T* y = lam y."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    moduli = rng.uniform(0.2, 1.0, size=dim)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=dim)
    eigs = moduli * np.exp(1j * phases)
    t = q @ np.diag(eigs) @ q.conj().T
    y = SeqVec.from_dense(q[:, 0])
    # T* = Q conj(Lambda) Q*, so the adjoint eigenvalue at q_0 is conj(eigs[0])
    return FiniteMatrix(t), y, complex(np.conj(eigs[0]))


def planted_chain_instance(
    rng: np.random.Generator, dim: int, p: int
) -> tuple[FiniteMatrix, SeqVec, complex]:
    """A matrix whose adjoint has a planted rank-p chain: (T* - lam)^p y = 0."""
    if not 1 <= p <= dim:
        raise ValueError("need 1 <= p <= dim")
    lam = complex(rng.uniform(0.3, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    block = np.diag(np.full(p, lam)) + np.diag(np.ones(p - 1), 1)
    rest = np.diag(
        rng.uniform(0.2, 0.95, size=dim - p)
        * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=dim - p))
    )
    adj = np.zeros((dim, dim), dtype=np.complex128)
    adj[:p, :p] = block
    adj[p:, p:] = rest
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    t = (q @ adj @ q.conj().T).conj().T
    y = SeqVec.from_dense(q[:, p - 1])
    return FiniteMatrix(t), y, lam
