"""The benchmark's workloads: one fixed mix of orbitlab configs per workload.

A workload is the list of experiments one pass runs, in order.  The seed
picks only the seeded inputs (the phase of lambda, and the ``findim`` and
``kernel`` seeds); sizes are fixed, so every seed costs about the same and
attempts the same operations.  Sizes are chosen so that no experiment costs
more than a few times another in the same workload, which keeps a cliff
between two sizes away from the median.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("certify", "criterion", "dense")


def _phase_lambda(rng: random.Random, modulus: float = 2.0) -> list[float]:
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return [modulus * math.cos(phi), modulus * math.sin(phi)]


def _scaled_shift(lam, power=1):
    return {"kind": "scalar", "factor": lam, "of": {"kind": "backwardShift", "power": power}}


def _certify(rng: random.Random) -> list[tuple[str, dict]]:
    mix = []
    # lambda of modulus 2 on prefix patterns.  The 42-target underflow
    # ceiling of prefix-3 sits above the largest size used here.
    for m, targets in ((2, 34), (2, 37), (3, 33), (3, 36), (4, 32), (4, 35)):
        mix.append((f"prefix{m}-t{targets}", {
            "command": "certify",
            "lambda": _phase_lambda(rng),
            "pattern": {"kind": "prefix", "m": m},
            "targets": targets,
            "supportBound": 6,
            "resolutionLevel": 1,
            "truncationDim": 512,
            "tol": 1e-9,
        }))
    # The two direct-sum presets (2B plus an identity block, split 512),
    # enlarged; past about 30 targets the hitting times cross the split.
    shift_plus_identity = {
        "kind": "directSum",
        "left": _scaled_shift([2.0, 0.0]),
        "right": {"kind": "identity"},
        "split": 512,
    }
    for name, pattern in (
        ("left-block-t28", {"kind": "rightBlock", "split": 512}),
        ("direct-sum-prefix3-t28", {"kind": "prefix", "m": 3}),
    ):
        mix.append((name, {
            "command": "certify",
            "operator": shift_plus_identity,
            "lambda": [2.0, 0.0],
            "pattern": pattern,
            "targets": 28,
            "supportBound": 6,
            "resolutionLevel": 1,
            "truncationDim": 512,
            "tol": 1e-9,
        }))
    return mix


def _criterion(rng: random.Random) -> list[tuple[str, dict]]:
    lam = _phase_lambda(rng)
    return [
        # criterion-odd-support, scaled down to the cost of the others.
        ("odd-support", {
            "command": "criterion",
            "lambda": lam,
            "pattern": {"kind": "residue", "a": 0, "b": 2},
            "targets": 20,
            "supportBound": 8,
            "resolutionLevel": 1,
            "truncationDim": 128,
            "horizon": 22,
            "tol": 1e-12,
        }),
        # criterion-shift-squared, scaled down likewise.
        ("shift-squared", {
            "command": "criterion",
            "operator": _scaled_shift(lam, 2),
            "lambda": lam,
            "pattern": {"kind": "supportIn", "b": 2},
            "targets": 16,
            "supportBound": 8,
            "resolutionLevel": 1,
            "truncationDim": 64,
            "horizon": 44,
            "tol": 1e-12,
        }),
        # Negative control: lambda B does not keep prefix-3 invariant, so
        # condition III fails at every power and the run exits 1.
        ("prefix3-negative", {
            "command": "criterion",
            "lambda": lam,
            "pattern": {"kind": "prefix", "m": 3},
            "targets": 12,
            "supportBound": 6,
            "resolutionLevel": 1,
            "truncationDim": 128,
            "horizon": 44,
            "tol": 1e-12,
        }),
        ("probe-residue-hit", {
            "command": "probe",
            "lambda": lam,
            "pattern": {"kind": "residue", "a": 0, "b": 2},
            "truncationDim": 256,
            "horizon": 50,
            "probe": {"gridLevel": 2, "gridSupport": 4},
            "expect": "found",
        }),
        ("probe-prefix-none", {
            "command": "probe",
            "lambda": lam,
            "pattern": {"kind": "prefix", "m": 3},
            "truncationDim": 256,
            "horizon": 50,
            "expect": "none",
        }),
    ]


def _dense(rng: random.Random) -> list[tuple[str, dict]]:
    mix = []
    for dim, pattern, support_bound in (
        (4, {"kind": "prefix", "m": 1}, 4),
        (5, {"kind": "prefix", "m": 1}, 4),
        (6, {"kind": "residue", "a": 0, "b": 2}, 6),
        (7, {"kind": "prefix", "m": 1}, 4),
        (8, {"kind": "residue", "a": 0, "b": 2}, 6),
        (8, {"kind": "prefix", "m": 1}, 4),
    ):
        mix.append((f"findim-d{dim}-{pattern['kind']}", {
            "command": "findim",
            "pattern": pattern,
            "truncationDim": dim,
            "supportBound": support_bound,
            "horizon": 4000,
            "netLevel": 1,
            "epsilon": 0.1,
            "trials": 3,
            "seed": rng.randrange(2**31),
        }))
    # spectrum-direct-sum, truncated at 256 instead of 64.
    mix.append(("spectrum-direct-sum-d256", {
        "command": "spectrum",
        "operator": {
            "kind": "directSum",
            "left": _scaled_shift([2.0, 0.0]),
            "right": {"kind": "scalar", "factor": [3.0, 0.0], "of": {"kind": "identity"}},
            "split": 32,
        },
        "truncationDim": 256,
        "horizon": 400,
    }))
    mix.append(("kernel", {
        "command": "kernel",
        "eigenInstances": 300,
        "chainInstances": 150,
        "horizon": 12,
        "seed": rng.randrange(2**31),
    }))
    mix.append(("jordan-h40", {"command": "jordan", "horizon": 40, "tol": 1e-10}))
    return mix


_MIXES = {"certify": _certify, "criterion": _criterion, "dense": _dense}


def experiments(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The (name, config) pairs of one pass over the workload, in run order."""
    return _MIXES[workload](random.Random(f"{workload}:{seed}"))


def smallest(workload: str, seed: int) -> tuple[str, dict]:
    """The experiment that ``setup_s`` runs in each fresh interpreter."""
    name = {
        "certify": "prefix4-t32",
        "criterion": "probe-residue-hit",
        "dense": "spectrum-direct-sum-d256",
    }[workload]
    return next(e for e in experiments(workload, seed) if e[0] == name)
