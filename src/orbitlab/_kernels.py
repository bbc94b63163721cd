"""Dense numpy kernels: orbit iteration and net-cover counting."""

from __future__ import annotations

import math

import numpy as np

# Recorded as ``backend`` in every report.json.
BACKEND = "fallback"

# Bounds the point-by-target distance block of ``uncovered_count`` to
# about 1 MB of float64, whatever the number of targets.
_BLOCK = 1 << 17


def orbit_norms(mat, vec, n_steps, exit_low, exit_high):
    """Norms of vec, M vec, M^2 vec, ... with early exit.

    Stops after the first norm outside [exit_low, exit_high] or not finite.
    Returns a float64 array of the norms actually computed; shorter than
    n_steps + 1 exactly when the exit fired.
    """
    m = np.ascontiguousarray(mat, dtype=np.complex128)
    v = np.array(vec, dtype=np.complex128)
    norms = np.empty(n_steps + 1, dtype=np.float64)
    norms[0] = np.linalg.norm(v)
    last = 0
    for n in range(1, n_steps + 1):
        v = m @ v
        r = float(np.linalg.norm(v))
        norms[n] = r
        last = n
        if r < exit_low or r > exit_high or not math.isfinite(r):
            break
    return norms[: last + 1]


def orbit_points(mat, vec, n_steps):
    """The full orbit as rows: out[n] = M^n vec, n = 0..n_steps."""
    m = np.ascontiguousarray(mat, dtype=np.complex128)
    v = np.asarray(vec, dtype=np.complex128)
    out = np.empty((n_steps + 1, v.shape[0]), dtype=np.complex128)
    out[0] = v
    for n in range(1, n_steps + 1):
        np.matmul(m, out[n - 1], out=out[n])
    return out


def _real_rows(a):
    """Complex rows as float64 rows [re, im], so that real dot products of
    rows give Re <p, t>.

    Subnormal entries are flushed to zero.  Orbits that decay reach them
    after a few thousand steps, and arithmetic on them is several times
    slower; flushing changes a distance by less than 1e-307.
    """
    a = np.asarray(a, dtype=np.complex128)
    rows = np.concatenate([a.real, a.imag], axis=1)
    rows[np.abs(rows) < np.finfo(np.float64).tiny] = 0.0
    return rows


def uncovered_count(targets, points, eps):
    """How many target rows have no point row within distance eps.

    Non-finite point coordinates never cover anything: their distances
    come out NaN or inf and compare as not below the threshold.  Points
    are taken in chunks, and covered targets are dropped after each chunk;
    the scan stops once no target is left.
    """
    t = _real_rows(targets)
    p = _real_rows(points)
    if t.shape[0] == 0 or p.shape[0] == 0:
        return int(t.shape[0])
    eps2 = float(eps) * float(eps)
    start = 0
    with np.errstate(invalid="ignore", over="ignore"):
        # |p - t|^2 expanded as ||p||^2 + ||t||^2 - 2 Re <p, t>
        tn = np.einsum("ij,ij->i", t, t)
        pn = np.einsum("ij,ij->i", p, p)
        while start < p.shape[0] and t.shape[0]:
            stop = start + max(1, _BLOCK // t.shape[0])
            cross = p[start:stop] @ t.T
            cross *= 2.0
            d2 = np.add.outer(pn[start:stop], tn)
            d2 -= cross
            hit = (d2 <= eps2).any(axis=0)
            if hit.any():
                t, tn = t[~hit], tn[~hit]
            start = stop
    return int(t.shape[0])
