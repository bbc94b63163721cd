import numpy as np
import pytest

from orbitlab import FiniteMatrix, SeqVec


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


class CountingOp:
    """Wraps an operator and counts its applications."""

    def __init__(self, op):
        self.op, self.calls = op, 0

    def apply(self, vec):
        self.calls += 1
        return self.op.apply(vec)
