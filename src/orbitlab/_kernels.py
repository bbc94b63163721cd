"""Dense numpy kernels: orbit iteration and net-cover counting."""

from __future__ import annotations

import math

import numpy as np

from ._report import BACKEND  # noqa: F401 - this module's backend, by its old name
from .seqspace import _RESCALE_BELOW

# Bounds the point-by-target distance block of ``uncovered_count`` to
# about 256 KB of float64, whatever the number of targets.
_BLOCK = 1 << 15

# Targets per norm-sorted block of ``uncovered_count``, and the relative
# slack of its norm band.
_TARGET_BLOCK = 64
_SLACK = 1e-6

# Steps between the tests of ``orbit_points`` for a zero row.
_ZERO_CHECK = 64

# Bounds the buffer of one ``orbit_points`` stack (orbits x rows x width)
# to about 2 MB of complex128, however many orbits a caller steps; see
# ``stack_width``.
_STACK = 1 << 17


def orbit_norms(mat, vec, n_steps, exit_low, exit_high):
    """Norms of vec, M vec, M^2 vec, ... with early exit.

    Stops after the first norm outside [exit_low, exit_high] or not finite.
    Returns a float64 array of the norms actually computed; shorter than
    n_steps + 1 exactly when the exit fired.
    """
    m = np.ascontiguousarray(mat, dtype=np.complex128)
    v = np.array(vec, dtype=np.complex128)
    norms = np.empty(n_steps + 1, dtype=np.float64)
    last = 0
    with np.errstate(over="ignore", invalid="ignore"):
        norms[0] = _norm(v)
        for n in range(1, n_steps + 1):
            v = m @ v
            r = _norm(v)
            norms[n] = r
            last = n
            if r < exit_low or r > exit_high or not math.isfinite(r):
                break
    return norms[: last + 1]


def _norm(v):
    """``np.linalg.norm``, rescaled when its unscaled squares overflow a
    finite vector (any norm past about 1.3e154) or may have lost digits to
    underflow (a nonzero norm below 2**-500), the rule ``seqspace.norm``
    follows."""
    r = float(np.linalg.norm(v))
    if (r == math.inf and np.isfinite(v).all()) or (r < _RESCALE_BELOW and v.any()):
        scale = float(np.abs(v).max())
        r = scale * float(np.linalg.norm(v / scale))
    return r


def stack_width(rows, dim):
    """How many orbits of ``rows`` rows of width ``dim`` one ``orbit_points``
    stack may hold: as many as fit ``_STACK`` entries, and at least one."""
    return max(1, _STACK // (rows * dim))


def orbit_points(mats, vecs, n_steps):
    """Orbits as rows, one per stacked matrix: out[b][n] = M_b^n v_b, for
    n = 0..n_steps or up to the first row of orbit b that is exactly zero.

    ``mats`` is a stack of B same-size square matrices and ``vecs`` a stack
    of B start vectors; a single orbit is a stack of one.  Every step is one
    ``np.matmul`` over the whole stack, which gives each orbit the bits of
    stepping it alone.  Returns a list of B arrays of rows, views of one
    buffer.

    A finite M maps zero to zero, so every row after a zero row is zero
    too; the orbit ends at the first one and keeps it.  A subnormal row
    does not end it, since a non-normal M can grow it back, and an M with
    a non-finite entry never ends early.  The rows are tested for zero
    once every ``_ZERO_CHECK`` steps, and the stack stops once every orbit
    has ended.
    """
    m = np.ascontiguousarray(mats, dtype=np.complex128)
    v = np.asarray(vecs, dtype=np.complex128)
    stack, dim = v.shape
    # Step-major, so that each step reads and writes one contiguous block.
    out = np.empty((n_steps + 1, stack, dim, 1), dtype=np.complex128)
    rows = out[..., 0]
    rows[0] = v
    ends = [n_steps] * stack  # the last row of each orbit
    finite = np.isfinite(m).all(axis=(1, 2))
    open_ = np.ones(stack, dtype=bool)  # orbits that have not ended
    # Rows 0..done are filled; the rows of an open orbit before start are nonzero.
    start = done = 0
    while True:
        ended = open_ & finite & ~rows[done].any(axis=1)
        for b in np.flatnonzero(ended):
            ends[b] = start + int(np.argmax(~rows[start : done + 1, b].any(axis=1)))
        open_ &= ~ended
        if done == n_steps or not open_.any():
            return [rows[: ends[b] + 1, b] for b in range(stack)]
        start, done = done, min(done + _ZERO_CHECK, n_steps)
        for prev, cur in zip(out[start:done], out[start + 1 : done + 1]):
            np.matmul(m, prev, cur)


def _real_rows(a):
    """Complex rows as float64 rows [re, im], so that real dot products of
    rows give Re <p, t>.

    Subnormal entries are flushed to zero.  Orbits that decay reach them
    after a few thousand steps, and arithmetic on them is several times
    slower; flushing changes a distance by less than 1e-307.
    """
    a = np.asarray(a, dtype=np.complex128)
    rows = np.concatenate([a.real, a.imag], axis=1)
    tiny = np.finfo(np.float64).tiny
    # |x| < tiny, without a float temporary the size of the rows.
    rows[(rows > -tiny) & (rows < tiny)] = 0.0
    return rows


def uncovered_count(targets, points, eps):
    """How many target rows have no point row within distance eps.

    A pair (p, t) is tested in the expanded form
    ||p||^2 + ||t||^2 - 2 Re <p, t> <= eps^2, but only when
    | ||p|| - ||t|| | <= eps + _SLACK * (eps + ||p|| + ||t||).  The distance
    is at least the difference of the norms, and the rounding error of the
    expanded form is far below (_SLACK * (||p|| + ||t||))^2, so every pair
    left out is one that the test rejects under any rounding.

    Non-finite squared norms make the expanded form NaN or inf, which
    compares as not below the threshold: such points never cover anything
    and such targets are never covered.

    The points are sorted by norm and the targets are taken in norm-sorted
    blocks of ``_TARGET_BLOCK``; ``searchsorted`` finds each target's band
    of points, and a block scans the union of its targets' bands in chunks
    of at most ``_BLOCK`` pairs.  Covered targets are dropped after each
    chunk, and the scan range then shrinks to the union of the remaining
    targets' bands: the bands' edges rise with the norm, so that is the
    first remaining target's lower edge to the last one's upper edge.  A
    block ends once none of its targets is left, or its range is scanned.
    """
    t = _real_rows(targets)
    p = _real_rows(points)
    if t.shape[0] == 0 or p.shape[0] == 0:
        return int(t.shape[0])
    eps = float(eps)
    eps2 = eps * eps
    with np.errstate(invalid="ignore", over="ignore"):
        tn = np.einsum("ij,ij->i", t, t)
        pn = np.einsum("ij,ij->i", p, p)
        finite = np.isfinite(tn)
        uncovered = int(t.shape[0] - np.count_nonzero(finite))
        t, tn = _by_norm(t, tn, finite)
        p, pn = _by_norm(p, pn, np.isfinite(pn))
        p_norm = np.sqrt(pn)
        t_norm = np.sqrt(tn)
        # The band edges solve | ||p|| - ||t|| | = eps + _SLACK * (eps + ||p|| + ||t||).
        lo = np.searchsorted(p_norm, t_norm * ((1 - _SLACK) / (1 + _SLACK)) - eps, "left")
        hi = np.searchsorted(p_norm, (t_norm + eps) * ((1 + _SLACK) / (1 - _SLACK)), "right")
        for first in range(0, t.shape[0], _TARGET_BLOCK):
            last = min(first + _TARGET_BLOCK, t.shape[0])
            bt, btn = t[first:last], tn[first:last]
            blo, bhi = lo[first:last], hi[first:last]
            start, end = int(blo[0]), int(bhi[-1])
            while start < end and bt.shape[0]:
                # |p - t|^2 expanded as ||p||^2 + ||t||^2 - 2 Re <p, t>
                stop = min(end, start + max(1, _BLOCK // bt.shape[0]))
                cross = _cross(p[start:stop], bt)
                cross *= 2.0
                d2 = np.add.outer(pn[start:stop], btn)
                d2 -= cross
                hit = (d2 <= eps2).any(axis=0)
                start = stop
                if hit.any():
                    keep = ~hit
                    bt, btn, blo, bhi = bt[keep], btn[keep], blo[keep], bhi[keep]
                    if bt.shape[0]:
                        start, end = max(stop, int(blo[0])), int(bhi[-1])
            uncovered += bt.shape[0]
    return uncovered


def _cross(a, b):
    """``a @ b.T`` through a matrix-matrix product, whatever the shapes.

    numpy sends a one-row side through a matrix-vector product, which rounds
    differently, so a count near the threshold would depend on how the
    pairs were chunked.  A one-row side is padded with a zero row.
    """
    rows, cols = a.shape[0], b.shape[0]
    if rows == 1:
        a = np.concatenate([a, np.zeros_like(a)])
    if cols == 1:
        b = np.concatenate([b, np.zeros_like(b)])
    return (a @ b.T)[:rows, :cols]


def _by_norm(rows, sq_norms, keep):
    """The kept rows and their squared norms, in increasing norm."""
    kept = np.flatnonzero(keep)
    order = kept[np.argsort(sq_norms[kept], kind="stable")]
    return rows[order], sq_norms[order]
