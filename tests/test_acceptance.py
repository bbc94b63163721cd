"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line so the whole battery can be
read off a ``pytest -s`` run at a glance.  Expected values are re-derived
inside the tests (exact rationals for the certificate bounds, brute-force
iteration for closed forms) rather than imported from the code under test.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from orbitlab import (
    BackwardShift,
    ComplementNotInvariant,
    FiniteMatrix,
    PrefixZero,
    ResidueZero,
    RightBlockZero,
    ScalarMultiple,
    SeqVec,
    SupportIn,
    apply_power,
    assemble,
    build_schedule,
    certify,
    check_criterion,
    compression_orbit_check,
    density_defect,
    eigen_orbit_pairing,
    generalized_pairing_polynomial,
    invariance_check,
    jordan_orbit,
    norm,
    orbit_rows,
    orbit_span_rank,
    pairing_chunk,
    planted_chain_instance,
    planted_eigen_instance,
    spectral_dichotomy,
    transitivity_probe,
)
from orbitlab._kernels import orbit_points
from orbitlab.cli import main
from orbitlab.constructor import length
from orbitlab.presets import PRESETS
from orbitlab.subspace import DenseFamilySpec, allowed_indices, dense_family
from conftest import rand_dense_vec, spread_matrix

DOUBLING = ScalarMultiple(2.0, BackwardShift())


def _verdict(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _exact_tail_bounds(count):
    """Certificate bounds recomputed from exact rationals."""
    bounds = []
    for j in range(count + 1):
        total = Fraction(0)
        for i in range(j + 1, count + 1):
            total += Fraction(1, 4**i)
        bounds.append(math.sqrt(float(total)))
    return bounds


def _certificate_ok(pattern, j_max):
    spec = DenseFamilySpec(pattern, 6, 1)
    targets = [dense_family(spec, j) for j in range(j_max + 1)]
    schedule = build_schedule(2.0, targets)
    vec = assemble(schedule)
    report = certify(vec, pattern, float_tol=1e-9)
    bounds = _exact_tail_bounds(j_max)
    ok = report.passes
    for j, row in enumerate(report.entries):
        ok = ok and row.defect == 0.0
        ok = ok and row.bound == pytest.approx(bounds[j], rel=1e-12, abs=1e-300)
        ok = ok and row.distance <= bounds[j] + 1e-9
    return ok


class TestAcceptance:
    def test_01_certified_orbit_hits_family(self):
        start = time.perf_counter()
        ok = _certificate_ok(PrefixZero(3), 20)
        elapsed = time.perf_counter() - start
        _verdict(1, "certified orbit through 21 subspace targets", ok and elapsed < 5.0)

    def test_02_certificate_with_nothing_forbidden(self):
        start = time.perf_counter()
        ok = _certificate_ok(PrefixZero(0), 20)
        elapsed = time.perf_counter() - start
        _verdict(2, "same pipeline with no forbidden coordinates", ok and elapsed < 5.0)

    def test_03_three_condition_criterion(self):
        pattern = ResidueZero(0, 2)
        spec = DenseFamilySpec(pattern, 8, 1)
        samples = [dense_family(spec, j) for j in range(50)]
        nks = [2 * k for k in range(1, 31)]
        report = check_criterion(DOUBLING, pattern, samples, samples, nks, 128, 1e-12)
        ok = report.passes
        for sample, dec, rec in zip(samples, report.decay, report.recovery):
            ok = ok and dec.final_norm == 0.0
            expected_first = min(n for n in nks if n >= length(sample))
            ok = ok and dec.first_zero_nk == expected_first
            ok = ok and rec.recovery_error <= 1e-12
            ok = ok and rec.norm_law_dev <= 1e-12

        control = check_criterion(
            BackwardShift(), pattern, samples, samples, nks, 128, 1e-12
        )
        ok = ok and control.decay_ok and not control.recovery_ok and not control.passes
        _verdict(3, "criterion passes and unimodular control fails", ok)

    def test_04_prefix_pattern_obstructs_transitivity(self):
        pattern = PrefixZero(3)
        ok = all(not invariance_check(DOUBLING, pattern, n, 64) for n in range(1, 33))
        spec = DenseFamilySpec(pattern, 6, 1)
        u = dense_family(spec, 1)
        v = dense_family(spec, 2)
        for horizon in (50, 200):
            hit = transitivity_probe(
                DOUBLING, pattern, u, 0.25, v, 0.25, horizon=horizon, dim=256
            )
            ok = ok and hit is None
        _verdict(4, "no power maps the prefix subspace into itself", ok)

    def test_05_closed_form_orbit_of_chain_vectors(self):
        start = time.perf_counter()
        ok = True
        for p in range(1, 5):
            for lam in (2.0, 0.7 + 0.7j, -1.1):
                block = np.diag(np.full(p, lam)) + np.diag(np.ones(p - 1), 1)
                op = FiniteMatrix(block.astype(np.complex128))
                y = SeqVec.basis(p - 1)
                for n in range(p, 13):
                    closed = jordan_orbit(op, lam, p, y, n)
                    brute = apply_power(op, n, y)
                    rel = norm(closed - brute) / max(1.0, norm(brute))
                    ok = ok and rel <= 1e-10
        elapsed = time.perf_counter() - start
        _verdict(5, "closed-form orbit matches iteration to 1e-10", ok and elapsed < 1.0)

    def test_06_pairing_laws_on_planted_instances(self):
        rng = np.random.default_rng(6)
        ok = True
        for i in range(100):
            dim = 2 + i % 7
            op, y, lam = planted_eigen_instance(rng, dim)
            x = rand_dense_vec(rng, dim)
            chunk = pairing_chunk([(op, orbit_rows(op, x, 12), y, lam)])
            ok = ok and eigen_orbit_pairing(chunk, 12) <= 1e-8
        for i in range(50):
            p = 1 + i % 3
            dim = p + 1 + i % 4
            op, y, lam = planted_chain_instance(rng, dim, p)
            x = rand_dense_vec(rng, dim)
            chunk = pairing_chunk([(op, orbit_rows(op, x, 12), y, lam, p)])
            ok = ok and generalized_pairing_polynomial(chunk, 12) <= 1e-7
        _verdict(6, "pairing laws hold on 150 planted instances", ok)

    def test_07_norm_dichotomy_classification(self):
        rng = np.random.default_rng(7)
        misses = 0
        for i in range(100):
            dim = 2 + i % 7
            normal = i % 2 == 0
            lo_op = spread_matrix(rng, dim, 0.3, 0.88, normal=normal)
            hi_op = spread_matrix(rng, dim, 1.12, 3.0, normal=normal)
            x = rand_dense_vec(rng, dim)
            if spectral_dichotomy(lo_op, x, 400).classification != "toZero":
                misses += 1
            if spectral_dichotomy(hi_op, x, 400).classification != "toInfinity":
                misses += 1
        _verdict(7, "200/200 spectra classified by orbit norms", misses == 0)

    def test_08_rank_stabilization_and_sparse_coverage(self):
        rng = np.random.default_rng(8)
        ok = True
        for i in range(200):
            dim = 2 + i % 7
            op = spread_matrix(rng, dim, 0.5, 1.5, normal=i % 2 == 0)
            x = rand_dense_vec(rng, dim)
            orbit = orbit_rows(op, x, 2 * dim)
            ok = ok and orbit_span_rank(orbit, dim - 1) == orbit_span_rank(orbit, 2 * dim)

        patterns = [ResidueZero(0, 2), PrefixZero(2), SupportIn(2), RightBlockZero(2)]
        dim = 4
        for i in range(50):
            pattern = patterns[i % len(patterns)]
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for r in range(dim):
                if pattern.forbids(r):
                    for c in range(dim):
                        if not pattern.forbids(c):
                            m[r, c] = 0.0
            radius = float(np.abs(np.linalg.eigvals(m)).max())
            if radius > 1e-9:
                m *= 0.8 / radius
            allowed = allowed_indices(pattern, dim)
            vals = rng.standard_normal(len(allowed)) + 1j * rng.standard_normal(len(allowed))
            vals /= np.linalg.norm(vals)
            x = SeqVec(zip(allowed, vals))
            points = orbit_points(m[None], x.to_dense(dim)[None], 10_000)[0]
            defect = density_defect(points, pattern, 1, 4, eps=0.1)
            ok = ok and defect >= 0.5
        _verdict(8, "finite orbits stabilize in rank and never fill a net", ok)

    def test_09_compressed_orbits_on_invariant_complements(self):
        rng = np.random.default_rng(9)
        ok = True
        for i in range(100):
            dim = 2 + i % 7
            split = 1 + i % (dim - 1) if dim > 1 else 1
            m = 0.5 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            m[split:, :split] = 0.0
            op = FiniteMatrix(m)
            tail = rng.standard_normal(dim - split) + 1j * rng.standard_normal(dim - split)
            x = SeqVec.from_dense(np.concatenate([np.zeros(split), tail]))
            ok = ok and compression_orbit_check(op, PrefixZero(split), x, 20) <= 1e-9

        leaky = np.array([[0.5, 0.0], [0.3, 0.5]], dtype=np.complex128)
        raised = False
        try:
            compression_orbit_check(
                FiniteMatrix(leaky), PrefixZero(1), SeqVec.basis(1), 5
            )
        except ComplementNotInvariant:
            raised = True
        _verdict(9, "compression identity holds on 100 invariant splits", ok and raised)

    def test_10_preset_runs_are_reproducible(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ORBITLAB_OUT", raising=False)
        ok = True
        for name in PRESETS:
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(
                json.dumps({"command": "preset", "preset": name}), encoding="utf-8"
            )
            outs = []
            for run_id in ("a", "b"):
                out_dir = tmp_path / f"{name}-{run_id}"
                rc = main([str(cfg_path), "--out-dir", str(out_dir)])
                ok = ok and rc == 0
                outs.append(out_dir)
            first, second = outs
            ok = ok and (first / "report.json").read_bytes() == (
                second / "report.json"
            ).read_bytes()
            ok = ok and (first / "table.csv").read_bytes() == (
                second / "table.csv"
            ).read_bytes()
        _verdict(10, "all presets pass twice with identical bytes", ok)
