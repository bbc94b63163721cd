import math

import numpy as np
import pytest

from orbitlab import FiniteMatrix, SeqVec, _kernels, orbit_span_rank
from orbitlab.obstructions import _pivoted_rank


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


def _unbanded_uncovered(targets, points, eps, block=1 << 17):
    """``uncovered_count`` without the norm band: every point chunk against
    every target still uncovered, in the same expanded form."""
    t = _kernels._real_rows(targets)
    p = _kernels._real_rows(points)
    if t.shape[0] == 0 or p.shape[0] == 0:
        return int(t.shape[0])
    eps2 = float(eps) * float(eps)
    start = 0
    with np.errstate(invalid="ignore", over="ignore"):
        # |p - t|^2 expanded as ||p||^2 + ||t||^2 - 2 Re <p, t>
        tn = np.einsum("ij,ij->i", t, t)
        pn = np.einsum("ij,ij->i", p, p)
        while start < p.shape[0] and t.shape[0]:
            stop = start + max(1, block // t.shape[0])
            cross = p[start:stop] @ t.T
            cross *= 2.0
            d2 = np.add.outer(pn[start:stop], tn)
            d2 -= cross
            hit = (d2 <= eps2).any(axis=0)
            if hit.any():
                t, tn = t[~hit], tn[~hit]
            start = stop
    return int(t.shape[0])


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

    def test_norms_past_1e154_match_hypot(self, rng):
        for scale in (1.0, 1e150, 1e160, 1e200, 1e300):
            mat, vec, steps = _orbit_case(rng, dim=4, steps=8)
            v = vec * scale
            got = _kernels.orbit_norms(mat, v, steps, 0.0, np.inf)
            for r in got:
                want = math.hypot(*v.real, *v.imag)
                assert math.isclose(r, want, rel_tol=1e-14), (scale, r, want)
                with np.errstate(over="ignore", invalid="ignore"):
                    v = mat @ v

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


def _nilpotent(rng, dim):
    """A strictly upper triangular matrix: M^dim v is exactly zero."""
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.ascontiguousarray(np.triu(mat, 1))


@pytest.fixture(params=[1, 3, _kernels._ZERO_CHECK], ids=["every-step", "three", "default"])
def zero_check(request, monkeypatch):
    monkeypatch.setattr(_kernels, "_ZERO_CHECK", request.param)


@pytest.mark.usefixtures("zero_check")
class TestOrbitPointsEarlyEnd:
    def test_nilpotent_ends_at_row_dim(self, rng):
        for dim in range(1, 7):
            mat, vec = _nilpotent(rng, dim), rng.standard_normal(dim) + 1j
            for steps in (dim - 1, dim, dim + 1, 50):
                got = _kernels.orbit_points(mat, vec, steps)
                want = _reference_points(mat, vec, steps)
                assert np.array_equal(got, want[: dim + 1])
                if steps >= dim:
                    assert got.shape == (dim + 1, dim)
                    assert not got[-1].any() and got[:-1].any(axis=1).all()
                    assert not want[dim:].any()

    def test_zero_start_vector_gives_one_row(self, rng):
        mat, _, _ = _orbit_case(rng)
        for steps in (0, 1, 40):
            got = _kernels.orbit_points(mat, np.zeros(5, dtype=np.complex128), steps)
            assert got.shape == (1, 5) and not got.any()

    def test_nan_matrix_never_ends_early(self, rng):
        # Finite, the nilpotent matrix would end its orbit at row 3.
        one_nan = _nilpotent(rng, 3)
        one_nan[0, 2] = np.nan
        with np.errstate(invalid="ignore"):
            for mat in (np.full((3, 3), np.nan, dtype=np.complex128), one_nan):
                for vec in (np.zeros(3, dtype=np.complex128), np.ones(3, dtype=np.complex128)):
                    got = _kernels.orbit_points(mat, vec, 20)
                    assert got.shape == (21, 3)
                    assert np.array_equal(got, _reference_points(mat, vec, 20), equal_nan=True)

    def test_subnormal_row_does_not_end(self):
        # Row 0 is subnormal; the non-normal matrix grows it back to 1e-10.
        mat = np.array([[0.0, 1e300], [0.0, 0.5]], dtype=np.complex128)
        vec = np.array([0.0, 1e-310], dtype=np.complex128)
        got = _kernels.orbit_points(mat, vec, 10)
        assert got.shape == (11, 2)
        assert np.array_equal(got, _reference_points(mat, vec, 10))
        assert abs(got[1, 0]) > 1e-11

    def test_matches_plain_loop_up_to_the_end(self, rng):
        # Contracting orbits underflow to exact zero after a thousand steps
        # or more; the subnormal rows before that do not end them.
        ended = 0
        for dim in (2, 4, 6):
            for _ in range(3):
                mat, vec, _ = _orbit_case(rng, dim=dim)
                mat *= 0.5 / np.abs(np.linalg.eigvals(mat)).max()
                got = _kernels.orbit_points(mat, vec, 3000)
                want = _reference_points(mat, vec, 3000)
                n = got.shape[0]
                assert np.array_equal(got, want[:n])
                assert want[: n - 1].any(axis=1).all()
                assert not want[n - 1 :].any() or n == 3001
                ended += n < 3001
        assert ended >= 6

    def test_span_rank_unchanged_on_nilpotent(self, rng):
        for dim in range(2, 7):
            op = FiniteMatrix(_nilpotent(rng, dim))
            x = SeqVec.from_dense(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            for steps in (dim - 1, dim, 2 * dim, 30):
                want = _pivoted_rank(_reference_points(op.array, x.to_dense(dim), steps).T)
                assert orbit_span_rank(op, x, steps) == want


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


def _full_product_uncovered(targets, points, eps):
    """The expanded-form test with one matrix-matrix product over every pair."""
    t = _kernels._real_rows(targets)
    p = _kernels._real_rows(points)
    tn = np.einsum("ij,ij->i", t, t)
    pn = np.einsum("ij,ij->i", p, p)
    cross = p @ t.T
    cross *= 2.0
    d2 = np.add.outer(pn, tn)
    d2 -= cross
    return int(t.shape[0] - np.count_nonzero((d2 <= eps * eps).any(axis=0)))


@pytest.mark.parametrize(
    "block, target_block",
    [(1, 64), (1 << 15, 1), (100, 7), (_kernels._BLOCK, _kernels._TARGET_BLOCK)],
    ids=["point-rows", "target-rows", "small", "default"],
)
def test_count_does_not_depend_on_chunks(rng, monkeypatch, block, target_block):
    # At norm 1e8 the rounding of the expanded form is far above eps^2, so
    # every decision turns on the last bits of the cross term.  A chunk of
    # one point row or one target used to take a matrix-vector product,
    # which rounds differently from the full product.
    monkeypatch.setattr(_kernels, "_BLOCK", block)
    monkeypatch.setattr(_kernels, "_TARGET_BLOCK", target_block)
    for _ in range(200):
        targets = rng.standard_normal((24, 3)) + 1j * rng.standard_normal((24, 3))
        norms = np.linalg.norm(targets, axis=1)
        targets *= (1e8 / norms)[:, None]
        offsets = rng.uniform(0.3, 0.7, 24) * rng.choice([-1.0, 1.0], 24)
        points = targets * ((1e8 + offsets) / 1e8)[:, None]
        got = _kernels.uncovered_count(targets, points, 0.5)
        assert got == _full_product_uncovered(targets, points, 0.5)


@pytest.fixture(
    params=[(1, 1), (100, 7), (_kernels._BLOCK, _kernels._TARGET_BLOCK)],
    ids=["row", "small", "default"],
)
def chunks(request, monkeypatch):
    """Pair budget per chunk and targets per norm block of ``uncovered_count``."""
    block, target_block = request.param
    monkeypatch.setattr(_kernels, "_BLOCK", block)
    monkeypatch.setattr(_kernels, "_TARGET_BLOCK", target_block)


def _radial(targets, offsets):
    """Points on the rays through the targets, at norm ||t|| + offset."""
    norms = np.linalg.norm(targets, axis=1)
    return np.concatenate([targets * ((norms + d) / norms)[:, None] for d in offsets])


@pytest.mark.usefixtures("chunks")
class TestUncoveredCountBand:
    """The norm band leaves out only pairs the expanded test rejects: the
    count equals that of the same test run over every pair."""

    def test_norm_1e4_targets(self, rng):
        targets = rng.standard_normal((24, 3)) + 1j * rng.standard_normal((24, 3))
        targets *= 1e4 / np.linalg.norm(targets, axis=1)[:, None]
        points = _radial(targets[:16], np.linspace(-6.0, 6.0, 49))
        points = np.concatenate([points, targets[16:] + rng.standard_normal((8, 3))])
        for eps in (0.5, 1.0, 3.0):
            got = _kernels.uncovered_count(targets, points, eps)
            assert got == _unbanded_uncovered(targets, points, eps)

    def test_norm_1e8_targets(self):
        # One nonzero coordinate per row, so each sum in the expanded form
        # has one term and rounds alike in any order.  Squares near 1e16
        # round to even, so a point 1 away from its target reads as
        # distance 0 and covers it at eps = 0.5: a band of plain eps
        # around ||t|| would leave that pair out.
        targets = np.zeros((4, 3), dtype=np.complex128)
        targets[[0, 1, 2, 3], [0, 1, 2, 0]] = (1e8, 1e8j, -1.5e8, -1.5e8j)
        unit = targets / np.abs(targets).sum(axis=1)[:, None]  # 1, 1j, -1, -1j on the axis
        for offsets in ((-1.0,), (1.0,), (2.0,), (-3.0, 0.5), (-8.0, 5.0, 7.0)):
            points = np.concatenate([targets + d * unit for d in offsets])
            for eps in (0.5, 1.0, 3.0):
                got = _kernels.uncovered_count(targets, points, eps)
                assert got == _unbanded_uncovered(targets, points, eps)
        assert _unbanded_uncovered(targets, targets - unit, 0.5) == 0
        assert _unbanded_uncovered(targets, targets + unit, 0.5) == 0

    def test_points_at_norm_plus_or_minus_eps(self):
        eps = 0.5
        h = 0.5 + 0.5j
        targets = np.array([[1, 0, 0], [0, 3j, 0], [0, 0, -10], [h, h.conjugate(), 0]])
        # Norm ||t|| - eps and ||t|| + eps: on the ray through t the
        # distance is exactly eps, off it more than eps.  Every value is
        # dyadic, so the expanded form is exact.
        on_ray = [
            [[0.5, 0, 0], [0, 2.5j, 0], [0, 0, -9.5], [h / 2, h.conjugate() / 2, 0]],
            [[1.5, 0, 0], [0, 3.5j, 0], [0, 0, -10.5], [1.5 * h, 1.5 * h.conjugate(), 0]],
        ]
        off_ray = [
            [[0.5j, 0, 0], [0, -2.5j, 0], [9.5, 0, 0], [h.conjugate() / 2, h / 2, 0]],
            [[0, 1.5, 0], [0, 3.5, 0], [0, 0, 10.5], [1.5 * h.conjugate(), 1.5 * h, 0]],
        ]
        for rows, want in [(r, 0) for r in on_ray] + [(r, 4) for r in off_ray]:
            points = np.array(rows, dtype=np.complex128)
            assert _kernels.uncovered_count(targets, points, eps) == want
            assert _unbanded_uncovered(targets, points, eps) == want
        points = np.array(on_ray[0][:2] + off_ray[1], dtype=np.complex128)
        assert _kernels.uncovered_count(targets, points, eps) == 2

    def test_non_finite_rows(self, rng):
        targets = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
        points = np.concatenate([targets[::2] + 0.1, rng.standard_normal((20, 4)) + 0j])
        targets[[0, 5, 9], [0, 1, 2]] = (np.nan, np.inf, complex(0, -np.inf))
        points[[0, 3, 7, 22], [3, 0, 1, 2]] = (np.nan, -np.inf, complex(np.nan, 1), np.inf)
        targets[12] = 1e200  # a finite row whose squared norm overflows
        points[1] = 1e200
        with np.errstate(invalid="ignore", over="ignore"):
            for eps in (0.05, 0.3, 1.0, 5.0):
                assert _kernels.uncovered_count(targets, points, eps) == _unbanded_uncovered(
                    targets, points, eps
                )

    def test_random_clouds(self, rng):
        for trial in range(6):
            scale = 10.0 ** trial
            targets = scale * (rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3)))
            points = targets[rng.choice(50, 30)] + rng.standard_normal((30, 3))
            for eps in (0.1, 1.0, 2.0):
                assert _kernels.uncovered_count(targets, points, eps) == _unbanded_uncovered(
                    targets, points, eps
                )
