import contextlib
import io
import json
import math
import operator
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from orbitlab import (
    BackwardShift,
    DirectSum,
    FiniteMatrix,
    Identity,
    NotEigenvector,
    NotInGeneralizedKernel,
    OrbitlabError,
    ScalarMultiple,
    SeqVec,
    apply_power,
    membership_defect,
    norm,
)
from orbitlab import obstructions
from orbitlab.cli import main
from orbitlab.constructor import CertEntry, _passes, _power
from orbitlab.seqspace import max_or_nan


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def spread_matrix(rng, dim, lo, hi, normal=True):
    """Matrix with eigenvalue moduli drawn from [lo, hi].

    ``normal=False`` conjugates by a mild non-unitary similarity instead, so
    orbit norms can overshoot before the spectrum wins.
    """
    moduli = rng.uniform(lo, hi, size=dim)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=dim)
    d = np.diag(moduli * np.exp(1j * phases))
    if normal:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(g)
        m = q @ d @ q.conj().T
    else:
        s = np.eye(dim) + 0.1 * (
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        )
        m = s @ d @ np.linalg.inv(s)
    return FiniteMatrix(m)


def rand_dense_vec(rng, dim, scale=1.0):
    vals = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    return SeqVec.from_dense(vals)


def rand_vec(rng, max_index=30, max_terms=6, scale=1.0):
    """Random sparse vector with a few complex entries."""
    k = int(rng.integers(0, max_terms + 1))
    idx = rng.choice(max_index, size=min(k, max_index), replace=False)
    return SeqVec(
        (int(i), scale * complex(rng.standard_normal(), rng.standard_normal()))
        for i in idx
    )


def rand_member(rng, pattern, bound, max_terms=4, scale=1.0):
    """Random sparse vector supported on the pattern's allowed indices."""
    allowed = [i for i in range(bound) if not pattern.forbids(i)]
    if not allowed:
        return SeqVec.zero()
    k = int(rng.integers(1, min(max_terms, len(allowed)) + 1))
    idx = rng.choice(allowed, size=k, replace=False)
    return SeqVec(
        (int(i), scale * complex(rng.standard_normal(), rng.standard_normal()))
        for i in idx
    )


def plain_orbit(mat, vec, steps):
    """The orbit by one ``np.matmul`` per step on this orbit alone, cut at
    its first zero row when the matrix is finite."""
    out = np.empty((steps + 1, vec.shape[0]), dtype=np.complex128)
    out[0] = vec
    for n in range(1, steps + 1):
        np.matmul(mat, out[n - 1], out=out[n])
    if np.isfinite(mat).all():
        zero = np.flatnonzero(~out.any(axis=1))
        if zero.size:
            return out[: zero[0] + 1]
    return out


# -- the planted instances' reference: one instance at a time -------------
# Each instance is drawn and factored alone, with one ``qr`` of its own.
# The stacked generators in ``obstructions`` must give every instance these
# bits and leave the rng where these do.


def reference_planted_eigen_instance(
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


def reference_planted_chain_instance(
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


# -- the pairing laws' reference: one instance at a time ----------------
# The laws as they read one instance before they read chunks.  The stacked
# laws in ``obstructions`` must give every instance these bits and raise
# these errors; a chunk's worst value is ``max_or_nan`` over its instances.


def reference_pairings(orbit, y, n_max):
    """<T^n x, y> for n = 0..n_max, read off the orbit rows of x, summed over
    y's support in increasing index order with Python complex products."""
    points = obstructions._prefix(orbit, n_max)
    if not np.isfinite(points).all():
        raise ValueError("non-finite orbit entry")
    entries = y.items()
    indices = [i for i, _ in entries]
    y_bar = [z.conjugate() for _, z in entries]
    pairings = [sum(map(operator.mul, row, y_bar), 0j) for row in points[:, indices].tolist()]
    return pairings + [0j] * (n_max + 1 - len(pairings))


def reference_eigen_orbit_pairing(op, orbit, y, lam, n_max):
    """Worst deviation of <T^n x, y> from conj(lam)^n <x, y> over n <= n_max."""
    if not obstructions._in_kernel(op.array.conj().T, lam, y, 1):
        raise NotEigenvector("y is not an adjoint eigenvector for lam")
    pairings = reference_pairings(orbit, y, n_max)
    base = pairings[0]
    lam_bar = lam.conjugate()
    worst = 0.0
    for n, pairing in enumerate(pairings):
        worst = max_or_nan(worst, abs(pairing - lam_bar**n * base))
    return worst


def reference_generalized_pairing_polynomial(op, orbit, y, lam, p, n_max):
    """Worst |<T^n x, y> - conj(lam)^(n-p) Q(n)| over 2p <= n <= n_max, Q of
    degree < p fitted to the pairings n = p..2p-1; for lam = 0 the worst
    |<T^n x, y>| from n = 2p on."""
    if p < 1:
        raise ValueError("rank p must be >= 1")
    if not obstructions._in_kernel(op.array.conj().T, lam, y, p):
        raise NotInGeneralizedKernel(f"(T* - lam)^{p} y is not ~ 0")

    pairings = reference_pairings(orbit, y, n_max)

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
    return float(worst)


class CountingOp:
    """Wraps an operator and counts its applications."""

    def __init__(self, op):
        self.op, self.calls = op, 0

    def apply(self, vec):
        self.calls += 1
        return self.op.apply(vec)


def _plain_power(op, n, vec):
    """The honest loop: ``op.apply`` n times, the reference for every fast path."""
    out = vec
    for _ in range(n):
        out = op.apply(out)
    return out


def _bits(vec):
    """Entries with their exact bits; ``==`` on complex cannot tell -0.0 from 0.0."""
    return [(i, z.real.hex(), z.imag.hex()) for i, z in vec.items()]


def _outcome(fn):
    """``fn()``'s vector as bits, another result as it is, or the type and
    message of the error it raises."""
    try:
        result = fn()
    except (OrbitlabError, ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return _bits(result) if isinstance(result, SeqVec) else result


def gate_values(*edges):
    """Floats of either sign from 1e-320 to 1e308, zero, NaN, +-inf, and the
    given threshold values."""
    magnitudes = st.builds(
        lambda e, m, sign: sign * m * 10.0**e,
        st.integers(-320, 307),
        st.floats(1.0, 10.0, exclude_max=True),
        st.sampled_from([1.0, -1.0]),
    )
    return st.one_of(magnitudes, st.sampled_from([0.0, math.nan, math.inf, -math.inf, *edges]))


def run_main(data):
    """``main`` on a config: its exit code, its stderr, and report.json if written."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.delenv("ORBITLAB_OUT", raising=False)
        cfg = Path(tmp, "cfg.json")
        cfg.write_text(json.dumps(data), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([str(cfg), "--out-dir", str(Path(tmp, "out"))])
        report = Path(tmp, "out", "report.json")
        return rc, err.getvalue(), json.loads(report.read_text()) if report.exists() else None


def non_finite_error(field, value):
    """The line ``main`` prints when a report value has no JSON spelling."""
    return f"error: {field} is {value}; report.json holds only finite numbers\n"


# -- the certificate's reference: the float vector, replayed ---------------

# A window term below this modulus is one rounding step away from being
# pruned as a structural zero, so the replay refuses it.
REPLAY_FLOOR = 1e-280


def replay_vector(schedule):
    """f = sum_j lam^(-k_j) S^(k_j) f_j as one float vector.

    Windows are disjoint by the spacing constraint, so each entry is its
    window's term z lam^(-k_j), built as ``0j + z`` (the value
    ``SeqVec.__add__`` stores).  The scale is a repeated-squaring power,
    exact for lam = +-2, +-2i and 4.  A window term below
    ``REPLAY_FLOOR`` raises ``ValueError``: the float vector cannot hold it.
    """
    lam_inv = 1 / schedule.lam
    total = {}
    for j, entry in enumerate(schedule.entries):
        if not entry.target:
            continue
        scale = _power(lam_inv, entry.time)
        if norm(entry.target) * abs(scale) < REPLAY_FLOOR:
            raise ValueError(f"entry {j}: window term below the float range of a replay")
        for i, z in (entry.target * scale).items():
            total[entry.time + i] = 0j + z
    return SeqVec(total)


def replay_certify(schedule, pattern, float_tol=1e-9, op=None, vec=None):
    """``certify``'s rows from the orbit of the float vector, iterated honestly.

    ``vec`` defaults to ``replay_vector(schedule)`` and ``op`` to lam B.
    Each row advances the previous row's image by the gap between their
    hitting times through ``apply_power``; every operator step is a pure
    function of its input, so a row is bit-identical to replaying its power
    from ``vec``.  The gate is certify's own.
    """
    if op is None:
        op = ScalarMultiple(schedule.lam, BackwardShift(1))
    image = replay_vector(schedule) if vec is None else vec
    reached, rows = 0, []
    for j, (entry, bound) in enumerate(zip(schedule.entries, schedule.bounds)):
        image = apply_power(op, entry.time - reached, image)
        reached = entry.time
        defect = membership_defect(image, pattern)
        distance = norm(image - entry.target)
        passed = _passes(defect, distance, bound, float_tol)
        rows.append(CertEntry(j, entry.time, defect, distance, bound, passed))
    return tuple(rows)


def _exact(z):
    return Fraction(z.real), Fraction(z.imag)


def _exact_power(z, n):
    """z**n for an exact complex (re, im), by repeated squaring."""
    out = (Fraction(1), Fraction(0))
    while n:
        if n & 1:
            out = (out[0] * z[0] - out[1] * z[1], out[0] * z[1] + out[1] * z[0])
        z = (z[0] * z[0] - z[1] * z[1], 2 * z[0] * z[1])
        n >>= 1
    return out


def _exact_apply(op, vec):
    """``op.apply`` on exact entries {index: (re, im)}, for the kinds certify takes."""
    if type(op) is Identity:
        return vec
    if type(op) is BackwardShift:
        return {i - op.power: z for i, z in vec.items() if i >= op.power}
    if type(op) is ScalarMultiple:
        (a, b), out = _exact(op.factor), _exact_apply(op.operand, vec)
        return {i: (x * a - y * b, x * b + y * a) for i, (x, y) in out.items()}
    if type(op) is DirectSum:
        s = op.split_index
        left = _exact_apply(op.left, {i: z for i, z in vec.items() if i < s})
        right = _exact_apply(op.right, {i - s: z for i, z in vec.items() if i >= s})
        out = {i: z for i, z in left.items() if i < s}
        out.update((i + s, z) for i, z in right.items())
        return out
    raise TypeError(f"no exact apply for {op!r}")


def exact_verdicts(schedule, pattern, float_tol=1e-9, op=None):
    """Per-row ``passed`` from an exact replay: f with exact rational entries,
    its orbit stepped one ``_exact_apply`` at a time, the defect decided by
    the forbidden entries and the distance gate on exact squares.  Once a
    step leaves the image as it is, so do all later steps."""
    if op is None:
        op = ScalarMultiple(schedule.lam, BackwardShift(1))
    image = {}
    for entry in schedule.entries:
        a, b = _exact_power(_exact(complex(schedule.lam)), entry.time)
        d = a * a + b * b
        a, b = a / d, -b / d  # lam^(-k_j)
        for i, z in entry.target.items():
            x, y = _exact(z)
            image[entry.time + i] = (x * a - y * b, x * b + y * a)
    reached, fixed, squares, out = 0, False, None, []
    for entry, bound in zip(schedule.entries, schedule.bounds):
        while reached < entry.time and not fixed:
            stepped = _exact_apply(op, image)
            fixed, reached = stepped == image, reached + 1
            if not fixed:
                image, squares = stepped, None
        if squares is None:
            squares = {i: x * x + y * y for i, (x, y) in image.items()}
        member = not any(pattern.forbids(i) and q for i, q in squares.items())
        terms = [q for i, q in squares.items() if entry.target[i] == 0]
        for i, z in entry.target.items():
            (x, y), (u, v) = _exact(z), image.get(i, (0, 0))
            terms.append((u - x) ** 2 + (v - y) ** 2)
        limit = Fraction(bound) + Fraction(float_tol)
        out.append(member and _exact_sum(terms) <= limit * limit)
    return out


def _exact_sum(qs):
    """The sum of rationals, exactly; power-of-two denominators add as shifted integers."""
    if not all(q.denominator & (q.denominator - 1) == 0 for q in qs):
        return sum(qs, Fraction(0))
    top = max((q.denominator.bit_length() for q in qs), default=1)
    return Fraction(sum(q.numerator << (top - q.denominator.bit_length()) for q in qs), 1 << (top - 1))


def fraction_tail_bounds(lam_abs, count):
    """``tail_bounds`` summed as ``Fraction``s, the reference for its integer sum:
    the float term while it is normal, the exact power past that."""
    out = [0.0] * (count + 1)
    total = Fraction(0)
    for i in range(count, 0, -1):
        term = lam_abs ** (-2 * i)
        normal = term >= sys.float_info.min
        total += Fraction(term) if normal else Fraction(lam_abs) ** (-2 * i)
        out[i - 1] = math.sqrt(total) if normal or total >= sys.float_info.min else _fraction_root(total)
    return out


def _fraction_root(x):
    """sqrt(x) correctly rounded to a float, for an exact rational 0 <= x < 1."""
    n, d = x.numerator, x.denominator
    if not n:
        return 0.0
    log2 = n.bit_length() - d.bit_length()  # floor(log2 x) is log2 or log2 - 1
    if n << -log2 < d:
        log2 -= 1
    e = min(52 - log2 // 2, 1074)
    n <<= 2 * e
    q = math.isqrt(n // d)
    over = 4 * n - (2 * q + 1) ** 2 * d
    if over > 0 or (over == 0 and q & 1):
        q += 1
    return math.ldexp(q, -e)
