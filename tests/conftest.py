import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from orbitlab import FiniteMatrix, OrbitlabError, SeqVec
from orbitlab.cli import main


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
