import math

import numpy as np
import pytest

from orbitlab import _kernels


def _orbit_case(rng, dim=5, steps=40):
    mat = 0.6 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return np.ascontiguousarray(mat), np.ascontiguousarray(vec), steps


def _non_finite_cases(rng):
    """Orbit inputs with a NaN or infinite entry in the matrix or the vector."""
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        mat, vec, steps = _orbit_case(rng, dim=4, steps=12)
        mat[1, 2] = bad
        yield mat, vec, steps
        mat, vec, steps = _orbit_case(rng, dim=4, steps=12)
        vec[3] = bad
        yield mat, vec, steps


def _reference_norms(mat, vec, steps, low, high):
    v = vec.copy()
    norms = [np.linalg.norm(v)]
    for _ in range(steps):
        v = mat @ v
        r = float(np.linalg.norm(v))
        norms.append(r)
        if r < low or r > high or not math.isfinite(r):
            break
    return np.array(norms)


def _reference_points(mat, vec, steps):
    v = vec.copy()
    rows = [v]
    for _ in range(steps):
        v = mat @ v
        rows.append(v)
    return np.array(rows)


def _reference_uncovered(targets, points, eps):
    misses = 0
    for t in targets:
        covered = False
        for p in points:
            if np.sum(np.abs(p - t) ** 2) <= eps * eps:
                covered = True
                break
        misses += not covered
    return misses


class TestOrbitNorms:
    def test_growth_exits_above_band(self):
        mat = np.array([[2.0 + 0j]])
        vec = np.array([1.0 + 0j])
        norms = _kernels.orbit_norms(mat, vec, 10, 0.1, 8.0)
        assert np.array_equal(norms, [1.0, 2.0, 4.0, 8.0, 16.0])

    def test_decay_exits_below_band(self):
        mat = np.array([[0.5 + 0j]])
        vec = np.array([1.0 + 0j])
        norms = _kernels.orbit_norms(mat, vec, 10, 0.3, 100.0)
        assert np.array_equal(norms, [1.0, 0.5, 0.25])

    def test_no_exit_runs_to_horizon(self):
        mat = np.array([[np.exp(0.3j)]])
        vec = np.array([1.0 + 0j])
        norms = _kernels.orbit_norms(mat, vec, 5, 1e-6, 1e6)
        assert norms.shape == (6,)
        assert np.allclose(norms, 1.0, rtol=1e-12)

    def test_nan_matrix_exits_after_one_step(self):
        mat = np.full((3, 3), np.nan, dtype=np.complex128)
        norms = _kernels.orbit_norms(mat, np.ones(3, dtype=np.complex128), 50, 1e-6, 1e6)
        assert norms.shape == (2,)
        assert norms[0] == math.sqrt(3.0)
        assert math.isnan(norms[1])

    def test_infinite_norm_exits_with_open_band(self):
        mat = np.array([[1e300 + 0j]])
        vec = np.array([1e150 + 0j])
        with np.errstate(over="ignore"):
            norms = _kernels.orbit_norms(mat, vec, 50, 0.0, np.inf)
        assert np.array_equal(norms, [1e150, np.inf])

    def test_matches_reference(self, rng):
        cases = [_orbit_case(rng) for _ in range(10)]
        cases += [_orbit_case(rng, dim=1 + k, steps=60) for k in range(8)]
        for mat, vec, steps in cases:
            for low, high in ((1e-6, 1e6), (0.5, 2.0), (0.0, np.inf)):
                got = _kernels.orbit_norms(mat, vec, steps, low, high)
                assert np.array_equal(got, _reference_norms(mat, vec, steps, low, high))

    def test_matches_reference_on_non_finite_input(self, rng):
        with np.errstate(invalid="ignore", over="ignore"):
            for mat, vec, steps in _non_finite_cases(rng):
                got = _kernels.orbit_norms(mat, vec, steps, 1e-6, 1e6)
                want = _reference_norms(mat, vec, steps, 1e-6, 1e6)
                assert np.array_equal(got, want, equal_nan=True)
                assert len(got) <= 2


class TestOrbitPoints:
    def test_matches_manual_iteration(self, rng):
        mat, vec, _ = _orbit_case(rng)
        pts = _kernels.orbit_points(mat, vec, 6)
        v = vec.copy()
        for n in range(7):
            assert np.array_equal(pts[n], v)
            v = mat @ v

    def test_matches_reference(self, rng):
        for k in range(10):
            mat, vec, steps = _orbit_case(rng, dim=1 + 2 * k, steps=25)
            got = _kernels.orbit_points(mat, vec, steps)
            assert got.shape == (steps + 1, vec.shape[0])
            assert np.array_equal(got, _reference_points(mat, vec, steps))

    def test_matches_reference_on_non_finite_input(self, rng):
        with np.errstate(invalid="ignore", over="ignore"):
            for mat, vec, steps in _non_finite_cases(rng):
                got = _kernels.orbit_points(mat, vec, steps)
                want = _reference_points(mat, vec, steps)
                assert np.array_equal(got, want, equal_nan=True)

    def test_zero_steps_is_the_start_vector(self):
        vec = np.array([1.0 + 2j, 3.0])
        got = _kernels.orbit_points(np.eye(2), vec, 0)
        assert np.array_equal(got, [vec])


class TestUncoveredCount:
    TARGETS = np.array([[0.0 + 0j], [1.0 + 0j], [3.0 + 0j]])

    def test_frozen_counts(self):
        points = np.array([[0.5 + 0j]])
        assert _kernels.uncovered_count(self.TARGETS, points, 0.6) == 1
        assert _kernels.uncovered_count(self.TARGETS, points, 0.4) == 3
        assert _kernels.uncovered_count(self.TARGETS, points, 3.0) == 0

    def test_empty_edges(self):
        nothing = np.empty((0, 1), dtype=np.complex128)
        assert _kernels.uncovered_count(self.TARGETS, nothing, 1.0) == 3
        assert _kernels.uncovered_count(nothing, self.TARGETS, 1.0) == 0

    def test_zero_distance_covers(self):
        points = self.TARGETS.copy()
        assert _kernels.uncovered_count(self.TARGETS, points, 1e-300) == 0

    def test_non_finite_points_never_cover(self):
        bad = np.array([[np.nan + 0j], [np.inf + 0j], [complex(0, np.inf)]])
        assert _kernels.uncovered_count(self.TARGETS, bad, 10.0) == 3
        mixed = np.vstack([bad, [[1.0 + 0j]]])
        assert _kernels.uncovered_count(self.TARGETS, mixed, 1.5) == 1

    def test_subnormal_points_act_as_zero(self):
        tiny = np.array([[5e-324 + 5e-324j], [-1e-310 + 0j]])
        assert _kernels.uncovered_count(self.TARGETS, tiny, 0.5) == 2
        assert _kernels.uncovered_count(self.TARGETS, tiny, 1.0) == 1
        small = np.array([[2e-150 + 0j]])
        assert _kernels.uncovered_count(self.TARGETS[:1], small, 1e-150) == 1

    @pytest.mark.parametrize("block", [1, 100, _kernels._BLOCK], ids=["row", "small", "default"])
    def test_matches_reference(self, rng, monkeypatch, block):
        # ``block`` bounds the distance block, so the small values run many
        # point chunks and drop covered targets between them.
        monkeypatch.setattr(_kernels, "_BLOCK", block)
        for trial in range(6):
            targets = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
            points = rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3))
            # Non-finite rows among the points and the targets.
            points[rng.choice(30, 4, replace=False), trial % 3] = (np.nan, np.inf, -np.inf, 1j * np.inf)
            targets[rng.choice(40, 2, replace=False), 0] = (np.nan, np.inf)
            if trial % 2:
                # The first points sit next to half of the targets, which
                # are then covered by the first chunk.
                points[:20] = targets[:20] + 0.05 * rng.standard_normal((20, 3))
            with np.errstate(invalid="ignore"):
                for eps in (0.05, 0.2, 0.5, 1.0, 2.0, 4.0):
                    got = _kernels.uncovered_count(targets, points, eps)
                    assert got == _reference_uncovered(targets, points, eps)
