import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orbitlab import (
    ComplementNotInvariant,
    DimensionMismatch,
    FiniteMatrix,
    NotEigenvector,
    NotInGeneralizedKernel,
    PrefixZero,
    ResidueZero,
    SeqVec,
    SupportIn,
    apply_power,
    compression_orbit_check,
    density_defect,
    dyadic_net,
    eigen_orbit_pairing,
    generalized_pairing_polynomial,
    inner,
    jordan_orbit,
    norm,
    orbit_rows,
    orbit_span_rank,
    pairing_chunk,
    planted_chain_instance,
    planted_eigen_instance,
    spectral_dichotomy,
    unit_ball_net,
)
from orbitlab import _kernels, cli, obstructions
from conftest import (
    gate_values,
    non_finite_error,
    rand_dense_vec,
    reference_jordan_orbit,
    run_main,
    spread_matrix,
)


def _eigen_law(op, x, y, lam, n_max):
    """``eigen_orbit_pairing`` on a chunk of one: the orbit of the start vector x."""
    return eigen_orbit_pairing(pairing_chunk([(op, orbit_rows(op, x, n_max), y, lam)]), n_max)


def _chain_law(op, x, y, lam, p, n_max):
    """``generalized_pairing_polynomial`` on a chunk of one: the orbit of the
    start vector x."""
    chunk = pairing_chunk([(op, orbit_rows(op, x, n_max), y, lam, p)])
    return generalized_pairing_polynomial(chunk, n_max)


def _span_rank(op, x, n_steps):
    """``orbit_span_rank`` on the orbit of the start vector x."""
    return orbit_span_rank(orbit_rows(op, x, n_steps), n_steps)


def _jordan_block(lam, p):
    rows = [[lam if i == j else 1.0 if j == i + 1 else 0.0 for j in range(p)] for i in range(p)]
    return FiniteMatrix(np.array(rows, dtype=np.complex128))


class TestJordanOrbit:
    def test_rank_one_is_plain_power(self):
        op = FiniteMatrix(np.diag([2.0, 5.0]).astype(np.complex128))
        got = jordan_orbit(op, 2.0, 1, SeqVec.basis(0), 7)
        assert got == [SeqVec.basis(0, 2.0**n) for n in range(1, 8)]

    def test_frozen_two_by_two(self):
        op = _jordan_block(2.0, 2)
        got = jordan_orbit(op, 2.0, 2, SeqVec.basis(1), 3)
        assert got == [SeqVec({0: 4.0, 1: 4.0}), SeqVec({0: 12.0, 1: 8.0})]

    @pytest.mark.parametrize("lam", [2.0, 0.7 + 0.7j, -1.1])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_iterated_apply(self, lam, p):
        op = _jordan_block(lam, p)
        y = SeqVec.basis(p - 1)
        points = jordan_orbit(op, lam, p, y, 12)
        assert len(points) == 13 - p
        for n, got in enumerate(points, start=p):
            expected = apply_power(op, n, y)
            rel = norm(got - expected) / max(1.0, norm(expected))
            assert rel <= 1e-10

    @pytest.fixture
    def gate_calls(self, monkeypatch):
        """The arguments of every ``_in_kernel`` call."""
        calls, gate = [], obstructions._in_kernel
        monkeypatch.setattr(
            obstructions, "_in_kernel", lambda *args: calls.append(args) or gate(*args)
        )
        return calls

    def test_requires_generalized_kernel(self, gate_calls):
        op = _jordan_block(2.0, 2)
        with pytest.raises(NotInGeneralizedKernel):
            jordan_orbit(op, 2.0, 1, SeqVec.basis(1), 12)
        assert len(gate_calls) == 1

    def test_gates_once_for_every_power(self, gate_calls):
        assert len(jordan_orbit(_jordan_block(2.0, 3), 2.0, 3, SeqVec.basis(2), 40)) == 38
        assert len(gate_calls) == 1

    def test_requires_n_at_least_p(self):
        op = _jordan_block(2.0, 3)
        with pytest.raises(ValueError, match="horizon >= p"):
            jordan_orbit(op, 2.0, 3, SeqVec.basis(2), 2)
        with pytest.raises(ValueError, match="rank p"):
            jordan_orbit(op, 2.0, 0, SeqVec.basis(2), 3)


def _point_bits(point, dim):
    return point.to_dense(dim).view(np.uint64).tolist()


def _same_as_one_power_at_a_time(lam, p, horizon):
    op = _jordan_block(lam, p)
    y = SeqVec.basis(p - 1)
    points = jordan_orbit(op, lam, p, y, horizon)
    assert len(points) == horizon - p + 1
    for n, point in enumerate(points, start=p):
        assert _point_bits(point, p) == _point_bits(reference_jordan_orbit(op, lam, p, y, n), p)


class TestJordanOrbitBits:
    """Every point of one call has the bits of the closed form taken one
    power at a time, with ``Fraction`` coefficients (``conftest``)."""

    @pytest.mark.parametrize("lam", cli._JORDAN_LAMBDAS)
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_the_jordan_lambdas(self, lam, p):
        _same_as_one_power_at_a_time(lam, p, 60)

    @seed(32)
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.5, 2.5),
        st.floats(0.0, 2 * math.pi),
        st.integers(1, 4),
        st.integers(4, 60),
    )
    def test_drawn_lambdas(self, modulus, phase, p, horizon):
        lam = complex(modulus * math.cos(phase), modulus * math.sin(phase))
        _same_as_one_power_at_a_time(lam, p, horizon)

    @pytest.mark.parametrize("p, n", [(1, 1024), (2, 1015), (4, 996)])
    def test_the_first_power_past_the_float_range_is_named(self, p, n):
        op, y = _jordan_block(2.0, p), SeqVec.basis(p - 1)
        with pytest.raises(ArithmeticError) as want:
            reference_jordan_orbit(op, 2.0 + 0j, p, y, n)
        reference_jordan_orbit(op, 2.0 + 0j, p, y, n - 1)
        with pytest.raises(ArithmeticError) as got:
            jordan_orbit(op, 2.0 + 0j, p, y, n + 50)
        assert str(got.value) == str(want.value)
        assert type(got.value.__cause__) is type(want.value.__cause__)


class TestEigenPairing:
    def test_diagonal_is_exact(self):
        op = FiniteMatrix(np.diag([2.0, 3.0, 4.0]))
        dev = _eigen_law(op, SeqVec({0: 1.0, 1: 1.0}), SeqVec.basis(0), 2.0, 20)
        assert dev == 0.0

    def test_imaginary_eigenvalue(self):
        op = FiniteMatrix(np.diag([2.0j, 3.0]))
        dev = _eigen_law(op, SeqVec.basis(0, 1.0 + 1.0j), SeqVec.basis(0), -2.0j, 16)
        assert dev == 0.0

    def test_zero_functional_pairs_trivially(self):
        op = FiniteMatrix(np.diag([2.0, 3.0]))
        assert _eigen_law(op, SeqVec.basis(0), SeqVec.zero(), 2.0, 8) == 0.0

    def test_rejects_non_eigenvector(self):
        op = FiniteMatrix(np.diag([2.0, 3.0, 4.0]))
        with pytest.raises(NotEigenvector):
            _eigen_law(op, SeqVec.basis(0), SeqVec({0: 1.0, 1: 1.0}), 2.0, 8)

    def test_planted_instances(self, rng):
        for k in range(30):
            dim = 2 + k % 7
            op, y, lam = planted_eigen_instance(rng, dim)
            x = rand_dense_vec(rng, dim)
            assert _eigen_law(op, x, y, lam, 12) <= 1e-10


class TestGeneralizedPairing:
    def test_planted_transpose_chain(self):
        op = FiniteMatrix(np.array([[2.0, 0.0], [1.0, 2.0]], dtype=np.complex128))
        res = _chain_law(op, SeqVec.basis(0), SeqVec.basis(1), 2.0, 2, 12)
        assert res <= 1e-9

    def test_nilpotent_profile_vanishes(self):
        op = FiniteMatrix(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128))
        res = _chain_law(op, SeqVec.basis(0), SeqVec.basis(1), 0.0, 2, 10)
        assert res == 0.0

    def test_rank_one_agrees_with_eigen_law(self, rng):
        op, y, lam = planted_eigen_instance(rng, 5)
        x = rand_dense_vec(rng, 5)
        res = _chain_law(op, x, y, lam, 1, 12)
        assert res <= 1e-10

    def test_needs_room_to_fit(self):
        op = FiniteMatrix(np.array([[2.0, 0.0], [1.0, 2.0]], dtype=np.complex128))
        with pytest.raises(ValueError):
            _chain_law(op, SeqVec.basis(0), SeqVec.basis(1), 2.0, 2, 2)

    def test_rejects_vector_outside_chain(self):
        op = FiniteMatrix(np.array([[2.0, 0.0], [1.0, 2.0]], dtype=np.complex128))
        with pytest.raises(NotInGeneralizedKernel):
            _chain_law(op, SeqVec.basis(0), SeqVec.basis(1), 2.0, 1, 8)

    def test_planted_chain_instances(self, rng):
        for k in range(30):
            p = 1 + k % 3
            dim = p + 1 + k % 4
            op, y, lam = planted_chain_instance(rng, dim, p)
            x = rand_dense_vec(rng, dim)
            assert _chain_law(op, x, y, lam, p, 12) <= 1e-7


# Each law behind the generalized-kernel gate, on the 1x1 matrix [[m]] at
# rank 1: jordan_orbit gates (m - lam) y, the pairing laws (m* - lam) y.
_GATED_LAWS = {
    "jordan_orbit": lambda op, y, lam: jordan_orbit(op, lam, 1, y, 2),
    "eigen_orbit_pairing": lambda op, y, lam: _eigen_law(op, SeqVec.basis(0), y, lam, 4),
    "generalized_pairing_polynomial": lambda op, y, lam: _chain_law(
        op, SeqVec.basis(0), y, lam, 1, 4
    ),
}


class TestKernelGate:
    """One gate for the three laws: ||(m - lam)^p y|| <= KERNEL_TOL * max(1, ||y||)."""

    @pytest.mark.parametrize("law", _GATED_LAWS.values(), ids=_GATED_LAWS)
    def test_a_residual_at_the_bound_passes(self, law):
        # y = 2 e_0 and lam = 0: the residual is exactly 2 * KERNEL_TOL, the bound.
        law(FiniteMatrix([[obstructions.KERNEL_TOL]]), SeqVec.basis(0, 2.0), 0.0)

    @pytest.mark.parametrize("law", _GATED_LAWS.values(), ids=_GATED_LAWS)
    def test_a_residual_just_above_the_bound_fails(self, law):
        above = math.nextafter(obstructions.KERNEL_TOL, 1.0)
        with pytest.raises((NotEigenvector, NotInGeneralizedKernel)):
            law(FiniteMatrix([[above]]), SeqVec.basis(0, 2.0), 0.0)

    @pytest.mark.parametrize("law", _GATED_LAWS.values(), ids=_GATED_LAWS)
    def test_a_nan_residual_fails(self, law):
        # m y and lam y both overflow to inf, so their difference is NaN.
        op, y = FiniteMatrix([[1e200]]), SeqVec.basis(0, 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            residual = op.array @ y.to_dense(1) - 1e200 * y.to_dense(1)
            assert math.isnan(residual[0].real)
            with pytest.raises((NotEigenvector, NotInGeneralizedKernel)):
                law(op, y, 1e200)


def _reference_pairings(op, x, y, n_max):
    """The pairings as the laws first computed them: one ``apply`` and one
    ``inner`` per step."""
    pairings = []
    v = x
    for n in range(n_max + 1):
        if n > 0:
            v = op.apply(v)
        pairings.append(inner(v, y))
    return pairings


def _outcome(fn, *args):
    try:
        return "value", repr(fn(*args))
    except Exception as exc:  # the exception type is part of the contract
        return "raises", type(exc)


N_MAXES = [0, 1, 12, 200]


class TestPairingsAgainstStepping:
    """``_pairings`` reads a chunk's dense orbits; on a chunk of one it must
    give the stepping loop's pairings bit for bit, and the pairing laws the
    same values."""

    def _cases(self, rng):
        for k in range(12):
            dim = 2 + k % 7
            op, y, lam = planted_eigen_instance(rng, dim)
            yield op, rand_dense_vec(rng, dim), y, lam, 1
        for k in range(12):
            p = 1 + k % 3
            op, y, lam = planted_chain_instance(rng, p + 1 + k % 4, p)
            yield op, rand_dense_vec(rng, op.dim), y, lam, p
        # nilpotent: the orbit ends at a zero row and the rest is padding
        shift = np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4), -1)
        yield FiniteMatrix(shift), rand_dense_vec(rng, 5), SeqVec.basis(4), 0.0, 5
        # zero start vector
        op, y, lam = planted_eigen_instance(rng, 4)
        yield op, SeqVec.zero(), y, lam, 1
        # y has entries where the orbit is zero: x stays in the first block
        block = FiniteMatrix(np.diag([0.5 + 0.5j, -0.75, 0.0, 0.0]))
        y = SeqVec({0: 1.0, 2: 2.0 - 1j, 3: 0.25j})
        yield block, SeqVec({0: 1.5, 1: -1j}), y, 0.5 - 0.5j, 1

    @pytest.mark.parametrize("n_max", N_MAXES)
    def test_pairings_equal_stepping_bit_for_bit(self, rng, n_max):
        for op, x, y, lam, _ in self._cases(rng):
            chunk = pairing_chunk([(op, orbit_rows(op, x, n_max), y, lam)])
            got = obstructions._pairings(chunk, n_max)[0].tolist()
            want = _reference_pairings(op, x, y, n_max)
            assert len(got) == n_max + 1
            assert got == want
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("n_max", N_MAXES)
    def test_laws_equal_stepping(self, rng, monkeypatch, n_max):
        cases = list(self._cases(rng))
        laws = [
            lambda op, x, y, lam, p: _eigen_law(op, x, y, lam, n_max),
            lambda op, x, y, lam, p: _chain_law(op, x, y, lam, p, n_max),
        ]
        got = [_outcome(law, *case) for case in cases for law in laws]
        want = []
        for op, x, y, lam, p in cases:
            # The laws read the stepping loop's pairings of this case's x.
            monkeypatch.setattr(
                obstructions,
                "_pairings",
                lambda chunk, n_max, op=op, x=x, y=y: np.array(
                    [_reference_pairings(op, x, y, n_max)], dtype=np.complex128
                ),
            )
            want += [_outcome(law, op, x, y, lam, p) for law in laws]
        assert got == want
        assert sum(kind == "value" for kind, _ in got) >= 12

    def test_overflowing_orbit_raises_like_stepping(self):
        op = FiniteMatrix(np.full((2, 2), 1e200))
        x, y = SeqVec.basis(0), SeqVec.basis(1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                _reference_pairings(op, x, y, 3)
            chunk = pairing_chunk([(op, orbit_rows(op, x, 3), y, 1.0)])
            _, error = obstructions._screen(obstructions._orbit_checks(chunk, 3))
        assert type(error) is ValueError and str(error) == "non-finite orbit entry"

    def test_overflowing_gate_rejects(self):
        # T* y is inf - inf = NaN: the gates must fail it, not let it pass.
        op = FiniteMatrix([[1e200, 0.0], [-1e200, 0.0]])
        y = SeqVec({0: 1e200, 1: 1e200})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotEigenvector):
                _eigen_law(op, SeqVec.basis(0), y, 1.0, 4)
            with pytest.raises(NotInGeneralizedKernel):
                _chain_law(op, SeqVec.basis(0), y, 1.0, 2, 4)

    @pytest.mark.parametrize("n_max", [0, 1, 12])
    def test_start_outside_block_is_rejected(self, n_max):
        op = FiniteMatrix(np.diag([2.0, 3.0]))
        with pytest.raises(DimensionMismatch):
            orbit_rows(op, SeqVec.basis(2), n_max)
        with pytest.raises(DimensionMismatch):
            _eigen_law(op, SeqVec.basis(2), SeqVec.basis(0), 2.0, n_max)

    def test_no_vector_is_built_per_step(self, rng, monkeypatch):
        op, y, lam = planted_eigen_instance(rng, 5)
        x = rand_dense_vec(rng, 5)

        def no_apply(self, vec):
            raise AssertionError("pairing law stepped through FiniteMatrix.apply")

        builds = []
        init = SeqVec.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FiniteMatrix, "apply", no_apply)
        monkeypatch.setattr(SeqVec, "__init__", counting_init)
        counts = []
        for n_max in (12, 200):
            builds.clear()
            _eigen_law(op, x, y, lam, n_max)
            _chain_law(op, x, y, lam, 1, n_max)
            counts.append(len(builds))
        assert counts[0] == counts[1]


class TestSpectralDichotomy:
    def test_contraction_exits_low(self):
        op = FiniteMatrix((0.5 * np.eye(2)).astype(np.complex128))
        verdict = spectral_dichotomy(op, SeqVec.basis(0))
        assert verdict.classification == "toZero"
        assert verdict.steps == 20  # 0.5^20 is the first norm below 1e-6
        assert verdict.first_norm == 1.0

    def test_expansion_exits_high(self):
        op = FiniteMatrix((3.0 * np.eye(2)).astype(np.complex128))
        verdict = spectral_dichotomy(op, SeqVec.basis(0))
        assert verdict.classification == "toInfinity"
        assert verdict.steps == 13
        assert verdict.ratio_trend == pytest.approx(3.0, rel=1e-9)

    def test_start_vectors_whose_squares_underflow(self):
        # Both norms of a 1e-200 start rescale; unscaled, the orbit norms
        # read 0.0 and every orbit looked like a collapse.
        grow = FiniteMatrix((3.0 * np.eye(2)).astype(np.complex128))
        verdict = spectral_dichotomy(grow, SeqVec.basis(0, 1e-200))
        assert verdict.classification == "toInfinity"
        assert verdict.steps == 13
        assert verdict.first_norm == 1e-200
        shrink = FiniteMatrix((0.5 * np.eye(2)).astype(np.complex128))
        verdict = spectral_dichotomy(shrink, SeqVec.basis(0, 1e-200))
        assert verdict.classification == "toZero"
        assert verdict.steps == 20

    def test_rotation_never_exits(self):
        op = FiniteMatrix(
            np.diag([np.exp(0.7j), np.exp(-0.7j)]).astype(np.complex128)
        )
        verdict = spectral_dichotomy(op, SeqVec({0: 1.0, 1: 1.0}), n_steps=400)
        assert verdict.classification == "neither"
        assert verdict.steps == 400
        assert verdict.last_norm == pytest.approx(verdict.first_norm, rel=1e-9)

    def test_nan_norm_stops_at_first_step(self):
        # (1e300 + 1e300j) * (1e10 + 1e10j) overflows to nan + inf j, so the
        # first orbit norm is NaN; NaN compares inside any band.
        mat = np.zeros((3, 3), dtype=np.complex128)
        mat[0, 0] = 1e300 * (1 + 1j)
        x = SeqVec({0: 1e10 * (1 + 1j)})
        with np.errstate(over="ignore", invalid="ignore"):
            verdict = spectral_dichotomy(FiniteMatrix(mat), x, n_steps=50)
        assert verdict.steps == 1
        assert verdict.classification == "toInfinity"
        assert math.isnan(verdict.last_norm)

    def test_rejects_zero_vector(self):
        op = FiniteMatrix(np.eye(2).astype(np.complex128))
        with pytest.raises(ValueError):
            spectral_dichotomy(op, SeqVec.zero())

    def test_seeded_classification(self, rng):
        for k in range(20):
            dim = 2 + k % 6
            normal = k % 2 == 0
            contractive = spread_matrix(rng, dim, 0.3, 0.88, normal=normal)
            expansive = spread_matrix(rng, dim, 1.12, 3.0, normal=normal)
            x = rand_dense_vec(rng, dim)
            assert spectral_dichotomy(contractive, x).classification == "toZero"
            assert spectral_dichotomy(expansive, x).classification == "toInfinity"


_LOW, _HIGH = obstructions.EXIT_LOW_FACTOR, obstructions.EXIT_HIGH_FACTOR
_BAND_EDGES = [
    x for e in (_LOW, _HIGH) for x in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))
]
# 2I has no eigenvalue modulus in [0.9, 1.1], so spectrum passes only when
# every probe leaves the band; each probe starts at norm 1.0 at dimension 4.
_SPECTRUM = {
    "command": "spectrum",
    "operator": {"kind": "scalar", "factor": [2, 0], "of": {"kind": "identity"}},
    "truncationDim": 4,
    "horizon": 20,
}


def _patched_norms(mp, probes):
    """Each probe's orbit norms read 1.0, ..., 1.0, ``last`` over ``steps`` steps."""
    drawn = iter(probes)

    def orbit_norms(mat, vec, n_steps, low, high):
        assert (low, high) == (_LOW, _HIGH)  # the band of a unit start vector
        first, steps, last = next(drawn)
        return np.array([first] * steps + [last])

    mp.setattr(_kernels, "orbit_norms", orbit_norms)


class TestSpectrumGateSweep:
    """A probe is toZero below the band [1e-6, 1e6] times its start norm,
    toInfinity above it or when not finite, and neither inside; spectrum
    fails on a neither, and a non-finite norm stops the run with exit 2."""

    @seed(19)
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 20),
                gate_values(*_BAND_EDGES),
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_dichotomy_gate(self, probes):
        with pytest.MonkeyPatch.context() as mp:
            _patched_norms(mp, [(1.0, steps, last) for steps, last in probes])
            rc, err, report = run_main(_SPECTRUM)
        bad = [i for i, (_, last) in enumerate(probes) if not math.isfinite(last)]
        if bad:
            field = f"report.probes[{bad[0]}].lastNorm"
            assert (rc, err, report) == (2, non_finite_error(field, probes[bad[0]][1]), None)
            return
        want = [
            "toZero" if Fraction(last) < Fraction(_LOW)
            else "toInfinity" if Fraction(last) > Fraction(_HIGH)
            else "neither"
            for _, last in probes
        ]
        rows = report["report"]["probes"]
        assert report["report"]["annulusCount"] == 0
        assert [(r["steps"], r["lastNorm"]) for r in rows] == probes
        assert [r["classification"] for r in rows] == want
        assert (rc, err) == (1 if "neither" in want else 0, "")

    @pytest.mark.parametrize("probe", [0, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_first_norm_exits_2(self, probe, bad):
        probes = [(1.0, 1, 1e7)] * 3
        probes[probe] = (bad, 1, 1e7)
        with pytest.MonkeyPatch.context() as mp:
            _patched_norms(mp, probes)
            rc, err, report = run_main(_SPECTRUM)
        field = f"report.probes[{probe}].firstNorm"
        assert (rc, err, report) == (2, non_finite_error(field, bad), None)


class TestOrbitSpanRank:
    def test_fixed_vector_spans_line(self):
        op = FiniteMatrix(np.eye(3).astype(np.complex128))
        assert _span_rank(op, SeqVec.basis(0), 10) == 1

    def test_nilpotent_chain_spans_fully(self):
        op = _jordan_block(0.0, 3)
        assert _span_rank(op, SeqVec.basis(2), 5) == 3

    def test_two_eigendirections(self):
        op = FiniteMatrix(np.diag([1.0, 2.0]).astype(np.complex128))
        assert _span_rank(op, SeqVec({0: 1.0, 1: 1.0}), 6) == 2

    def test_rank_stabilizes_at_dimension(self, rng):
        for k in range(10):
            dim = 2 + k % 5
            op = spread_matrix(rng, dim, 0.5, 1.5)
            x = rand_dense_vec(rng, dim)
            early = _span_rank(op, x, dim - 1)
            late = _span_rank(op, x, 2 * dim + 3)
            assert early == late

    def test_zero_vector_has_rank_zero(self):
        op = FiniteMatrix(np.eye(2).astype(np.complex128))
        assert _span_rank(op, SeqVec.zero(), 4) == 0

    def test_ranks_read_off_one_longer_orbit(self, rng):
        for dim in range(2, 9):
            op = spread_matrix(rng, dim, 0.5, 1.5, normal=dim % 2 == 0)
            x = rand_dense_vec(rng, dim)
            orbit = orbit_rows(op, x, 3 * dim)
            for n in (0, 1, dim - 1, dim, 2 * dim):
                assert orbit_span_rank(orbit, n) == _span_rank(op, x, n)

    def test_an_orbit_short_of_the_step_is_refused(self):
        op = FiniteMatrix(np.diag([1.0, 2.0]).astype(np.complex128))
        x = SeqVec({0: 1.0, 1: 1.0})
        with pytest.raises(ValueError, match="does not reach step 5"):
            orbit_span_rank(orbit_rows(op, x, 3), 5)
        with pytest.raises(ValueError, match="does not reach step 5"):
            chunk = pairing_chunk([(op, orbit_rows(op, x, 3), SeqVec.basis(0), 1.0)])
            eigen_orbit_pairing(chunk, 5)
        # An orbit that ended at a zero row reaches every later step.
        nilpotent = _jordan_block(0.0, 3)
        orbit = orbit_rows(nilpotent, SeqVec.basis(2), 10)
        assert len(orbit) == 4
        assert orbit_span_rank(orbit, 10) == 3


class TestDensityDefect:
    PATTERN = PrefixZero(0)

    def test_net_covers_itself(self):
        net = dyadic_net(self.PATTERN, 2, 1)
        assert density_defect(net, self.PATTERN, 1, 2, eps=1e-12) == 0.0

    def test_no_points_covers_nothing(self):
        assert density_defect([], self.PATTERN, 1, 2, eps=0.5) == 1.0

    def test_monotone_in_eps(self, rng):
        points = [rand_dense_vec(rng, 2, scale=0.4) for _ in range(15)]
        tight = density_defect(points, self.PATTERN, 1, 2, eps=0.1)
        loose = density_defect(points, self.PATTERN, 1, 2, eps=0.3)
        assert tight >= loose

    def test_monotone_in_points(self, rng):
        points = [rand_dense_vec(rng, 2, scale=0.4) for _ in range(15)]
        some = density_defect(points[:5], self.PATTERN, 1, 2, eps=0.2)
        more = density_defect(points, self.PATTERN, 1, 2, eps=0.2)
        assert more <= some

    def test_off_subspace_points_are_discarded(self):
        stray = [SeqVec.basis(0)]  # violates the forbidden prefix
        assert density_defect(stray, PrefixZero(1), 1, 2, eps=10.0) == 1.0

    def test_collapsing_orbit_leaves_net_uncovered(self):
        pts = [SeqVec({0: 0.3 * 0.5**n, 1: 0.4 * 0.5**n}) for n in range(50)]
        defect = density_defect(pts, self.PATTERN, 1, 2, eps=0.1)
        assert defect >= 0.5

    def test_dense_array_input_matches_sparse(self, rng):
        points = [rand_dense_vec(rng, 2, scale=0.4) for _ in range(10)]
        arr = np.array([p.to_dense(2) for p in points])
        a = density_defect(points, self.PATTERN, 1, 2, eps=0.2)
        b = density_defect(arr, self.PATTERN, 1, 2, eps=0.2)
        assert a == b

    def test_unit_ball_net_rows(self):
        net = unit_ball_net(PrefixZero(1), 3, 1)
        sparse = dyadic_net(PrefixZero(1), 3, 1)
        assert net.shape == (len(sparse), 3)
        assert all(SeqVec.from_dense(row) == v for row, v in zip(net, sparse))

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize(
        "pattern, support_bound",
        [
            (PrefixZero(1), 4),
            (ResidueZero(0, 2), 4),
            (SupportIn(2), 4),  # the last allowed index is 2
            (ResidueZero(0, 2), 5),  # 3
            (SupportIn(3), 7),  # 6
            (SupportIn(4), 7),  # 4
        ],
        ids=repr,
    )
    def test_unit_ball_net_has_the_bits_of_dense_rows(self, pattern, support_bound, level):
        net = unit_ball_net(pattern, support_bound, level)
        sparse = dyadic_net(pattern, support_bound, level)
        rows = np.array([v.to_dense(support_bound) for v in sparse], dtype=np.complex128)
        assert net.dtype == np.complex128 and net.shape == rows.shape
        assert np.array_equal(net.view(np.uint64), rows.view(np.uint64))

    @pytest.mark.parametrize("width", [2, 5])
    def test_given_net_matches_built_net(self, rng, width):
        pattern = PrefixZero(1)
        arr = 0.4 * (rng.standard_normal((30, width)) + 1j * rng.standard_normal((30, width)))
        arr[:, 0] = 0.0
        net = unit_ball_net(pattern, 3, 1)
        for eps in (0.05, 0.2, 0.5):
            built = density_defect(arr, pattern, 1, 3, eps)
            assert density_defect(arr, pattern, 1, 3, eps, net=net) == built

    def test_findim_builds_one_net_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counting_net(*args):
            calls.append(args)
            return dyadic_net(*args)

        monkeypatch.setattr(obstructions, "dyadic_net", counting_net)
        cfg = tmp_path / "findim.json"
        cfg.write_text(
            '{"command": "findim", "pattern": {"kind": "prefix", "m": 1}, '
            '"truncationDim": 4, "horizon": 200, "trials": 3}',
            encoding="utf-8",
        )
        assert cli.main([str(cfg), "--out-dir", str(tmp_path)]) in (0, 1)
        assert len(calls) == 1
        assert cli.main([str(cfg), "--out-dir", str(tmp_path)]) in (0, 1)
        assert len(calls) == 2


class TestCompression:
    def test_block_diagonal_is_exact(self):
        op = FiniteMatrix(np.diag([3.0, 0.5]).astype(np.complex128))
        dev = compression_orbit_check(op, PrefixZero(1), SeqVec.basis(1), 12)
        assert dev == 0.0

    def test_upper_triangular_coupling_is_harmless(self):
        m = np.array([[3.0, 0.7], [0.0, 0.5]], dtype=np.complex128)
        op = FiniteMatrix(m)
        dev = compression_orbit_check(op, PrefixZero(1), SeqVec.basis(1), 12)
        assert dev <= 1e-12

    def test_leaking_complement_is_rejected(self):
        m = np.array([[3.0, 0.0], [0.7, 0.5]], dtype=np.complex128)
        op = FiniteMatrix(m)
        with pytest.raises(ComplementNotInvariant):
            compression_orbit_check(op, PrefixZero(1), SeqVec.basis(1), 12)

    def test_start_vector_must_live_in_block(self):
        op = FiniteMatrix(np.diag([3.0, 0.5]).astype(np.complex128))
        with pytest.raises(ValueError):
            compression_orbit_check(op, PrefixZero(1), SeqVec.basis(0), 12)

    def test_random_block_upper_triangular(self, rng):
        for k in range(30):
            dim = int(rng.integers(2, 9))
            split = int(rng.integers(1, dim))
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m *= 0.5
            m[split:, :split] = 0.0
            op = FiniteMatrix(m)
            x = SeqVec.from_dense(
                np.concatenate(
                    [
                        np.zeros(split),
                        rng.standard_normal(dim - split)
                        + 1j * rng.standard_normal(dim - split),
                    ]
                )
            )
            dev = compression_orbit_check(op, PrefixZero(split), x, 20)
            assert dev <= 1e-9


class TestNanDeviations:
    """A NaN anywhere in a profile makes the reported worst case NaN, which
    fails every ``<= tol`` gate, instead of being dropped from the maximum."""

    @staticmethod
    def _nan_at(monkeypatch, k):
        pairings = obstructions._pairings

        def patched(*args):
            out = pairings(*args)
            out[:, k] = complex(math.nan, 0.0)
            return out

        monkeypatch.setattr(obstructions, "_pairings", patched)

    def test_eigen_pairing(self, rng, monkeypatch):
        op, y, lam = planted_eigen_instance(rng, 4)
        x = rand_dense_vec(rng, 4)
        assert _eigen_law(op, x, y, lam, 12) <= 1e-10
        self._nan_at(monkeypatch, 5)
        assert math.isnan(_eigen_law(op, x, y, lam, 12))

    def test_generalized_pairing(self, rng, monkeypatch):
        op, y, lam = planted_chain_instance(rng, 5, 2)
        x = rand_dense_vec(rng, 5)
        assert _chain_law(op, x, y, lam, 2, 12) <= 1e-8
        self._nan_at(monkeypatch, 5)
        assert math.isnan(_chain_law(op, x, y, lam, 2, 12))

    def test_compression_gap_that_overflows(self):
        # The allowed coordinate grows by 1e200 per step: both orbits reach
        # inf at n = 2, and inf - inf is NaN, not a gap of 0.
        op = FiniteMatrix(np.diag([1.0, 1e200]))
        with np.errstate(over="ignore", invalid="ignore"):
            dev = compression_orbit_check(op, PrefixZero(1), SeqVec.basis(1), 4)
        assert math.isnan(dev)
        assert not dev <= 1e-9


class TestPlantedGenerators:
    def test_eigen_instance_shape(self, rng):
        op, y, lam = planted_eigen_instance(rng, 5)
        assert op.dim == 5
        assert abs(lam) <= 1.0
        assert norm(y) == pytest.approx(1.0, rel=1e-12)

    def test_chain_instance_rejects_bad_rank(self, rng):
        with pytest.raises(ValueError):
            planted_chain_instance(rng, 3, 4)
