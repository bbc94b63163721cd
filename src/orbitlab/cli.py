"""Config-driven experiment runner.

Usage::

    orbitlab <config.json> [--out-dir DIR] [--verbose]

The config is a single JSON object whose ``command`` selects the experiment;
``{"command": "preset", "preset": "certify-prefix3"}`` expands to a stored
configuration, with any other keys supplied on top taking precedence.  Each
run writes ``report.json`` and ``table.csv`` to the output directory (the
``ORBITLAB_OUT`` environment variable overrides ``--out-dir``), prints a
verdict line, and exits 0 on pass, 1 on a negative verdict, 2 on a bad
config or on a run that rejects its parameters.  Outputs carry no
timestamps and all randomness is seeded, so a given config always produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import _kernels
from .constructor import (
    CERT_CSV_HEADER,
    assemble,
    build_schedule,
    certify,
    length,
)
from .criterion import (
    CRITERION_CSV_HEADER,
    check_criterion,
    criterion_csv_rows,
    transitivity_probe,
)
from .errors import ConfigError, OrbitlabError
from .obstructions import (
    density_defect,
    eigen_orbit_pairing,
    generalized_pairing_polynomial,
    jordan_orbit,
    orbit_span_rank,
    planted_chain_instance,
    planted_eigen_instance,
    spectral_dichotomy,
)
from .presets import preset_config
from .seqspace import (
    BackwardShift,
    Diagonal,
    DirectSum,
    FiniteMatrix,
    ForwardShift,
    Identity,
    Operator,
    ScalarMultiple,
    SeqVec,
    apply_power,
    norm,
    to_matrix,
)
from .subspace import (
    DenseFamilySpec,
    ResidueZero,
    ZeroPattern,
    allowed_indices,
    dense_family,
    pattern_from_config,
    pattern_to_config,
)

__all__ = ["ExperimentConfig", "RunResult", "run", "main"]

COMMANDS = (
    "construct",
    "certify",
    "criterion",
    "probe",
    "findim",
    "spectrum",
    "kernel",
    "jordan",
)


def _complex_from(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)
    ):
        raise ConfigError(f"{where}: complex values are [re, im] pairs, got {value!r}")
    return complex(value[0], value[1])


def _complex_to(z: complex) -> list[float]:
    return [z.real, z.imag]


def operator_from_config(cfg, where: str = "operator") -> Operator:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"{where}: expected an object with a kind, got {cfg!r}")
    kind = cfg["kind"]
    try:
        if kind == "backwardShift":
            return BackwardShift(int(cfg.get("power", 1)))
        if kind == "forwardShift":
            return ForwardShift(int(cfg.get("power", 1)))
        if kind == "identity":
            return Identity()
        if kind == "scalar":
            return ScalarMultiple(
                _complex_from(cfg["factor"], f"{where}.factor"),
                operator_from_config(cfg["of"], f"{where}.of"),
            )
        if kind == "diagonal":
            return Diagonal(
                tuple(
                    _complex_from(w, f"{where}.weights[{i}]")
                    for i, w in enumerate(cfg["weights"])
                )
            )
        if kind == "directSum":
            return DirectSum(
                operator_from_config(cfg["left"], f"{where}.left"),
                operator_from_config(cfg["right"], f"{where}.right"),
                int(cfg["split"]),
            )
        if kind == "finiteMatrix":
            rows = [
                [_complex_from(z, f"{where}.entries") for z in row]
                for row in cfg["entries"]
            ]
            return FiniteMatrix.from_array(np.array(rows, dtype=np.complex128))
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc} for kind {kind!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown operator kind {kind!r}")


def operator_to_config(op: Operator) -> dict:
    if isinstance(op, BackwardShift):
        return {"kind": "backwardShift", "power": op.power}
    if isinstance(op, ForwardShift):
        return {"kind": "forwardShift", "power": op.power}
    if isinstance(op, Identity):
        return {"kind": "identity"}
    if isinstance(op, ScalarMultiple):
        return {
            "kind": "scalar",
            "factor": _complex_to(op.factor),
            "of": operator_to_config(op.operand),
        }
    if isinstance(op, Diagonal):
        return {"kind": "diagonal", "weights": [_complex_to(w) for w in op.weights]}
    if isinstance(op, DirectSum):
        return {
            "kind": "directSum",
            "left": operator_to_config(op.left),
            "right": operator_to_config(op.right),
            "split": op.split_index,
        }
    if isinstance(op, FiniteMatrix):
        return {
            "kind": "finiteMatrix",
            "entries": [[_complex_to(z) for z in row] for row in op.entries],
        }
    raise TypeError(f"unknown operator {op!r}")


_DEFAULTS: dict[str, dict[str, Any]] = {
    "construct": {"targets": 20, "truncationDim": 512, "tol": 1e-9, "horizon": 0},
    "certify": {"targets": 20, "truncationDim": 512, "tol": 1e-9, "horizon": 0},
    "criterion": {"targets": 50, "truncationDim": 128, "tol": 1e-12, "horizon": 30},
    "probe": {"targets": 0, "truncationDim": 256, "tol": 1e-9, "horizon": 50},
    "findim": {"targets": 0, "truncationDim": 4, "tol": 1e-9, "horizon": 10000},
    "spectrum": {"targets": 0, "truncationDim": 64, "tol": 1e-9, "horizon": 400},
    "kernel": {"targets": 0, "truncationDim": 8, "tol": 1e-9, "horizon": 12},
    "jordan": {"targets": 0, "truncationDim": 4, "tol": 1e-10, "horizon": 12},
}

_PROBE_DEFAULTS = {
    "uIndex": 1,
    "vIndex": 2,
    "uRadius": 0.25,
    "vRadius": 0.25,
    "gridLevel": 1,
    "gridSupport": 4,
}

_KNOWN_KEYS = {
    "command",
    "preset",
    "operator",
    "lambda",
    "pattern",
    "targets",
    "supportBound",
    "resolutionLevel",
    "truncationDim",
    "horizon",
    "tol",
    "seed",
    "netLevel",
    "epsilon",
    "trials",
    "probe",
    "expect",
    "eigenInstances",
    "chainInstances",
    "eigenTol",
    "chainTol",
}

_NEEDS_MODULUS = ("construct", "certify", "criterion")


def _as_int(raw: dict, key: str, default: int, minimum: int) -> int:
    val = raw.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{key} must be an integer, got {val!r}")
    if val < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {val}")
    return val


def _as_float(raw: dict, key: str, default: float, positive: bool = True) -> float:
    val = raw.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{key} must be a number, got {val!r}")
    if positive and val <= 0:
        raise ConfigError(f"{key} must be positive, got {val}")
    return float(val)


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    preset: str | None
    operator: Operator | None
    lam: complex | None
    pattern: ZeroPattern | None
    targets: int
    support_bound: int
    resolution_level: int
    truncation_dim: int
    horizon: int
    tol: float
    seed: int
    net_level: int
    epsilon: float
    trials: int
    probe: dict
    expect: str
    eigen_instances: int
    chain_instances: int
    eigen_tol: float
    chain_tol: float
    normalized: dict = field(compare=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        command = raw.get("command")
        if command == "preset" or (command is None and "preset" in raw):
            name = raw.get("preset")
            if not isinstance(name, str):
                raise ConfigError("preset runs need a preset name")
            try:
                base = preset_config(name)
            except KeyError as exc:
                raise ConfigError(str(exc)) from exc
            overlay = {k: v for k, v in raw.items() if k not in ("command", "preset")}
            base.update(overlay)
            raw = base
            command = raw["command"]
        if command not in COMMANDS:
            raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")
        unknown = set(raw) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

        defaults = _DEFAULTS[command]
        lam = None
        if "lambda" in raw:
            lam = _complex_from(raw["lambda"], "lambda")
        if command in _NEEDS_MODULUS:
            if lam is None:
                raise ConfigError(f"{command} requires a lambda")
            if abs(lam) <= 1.0:
                raise ConfigError(
                    f"{command} requires |lambda| > 1, got modulus {abs(lam)}"
                )

        operator = None
        if "operator" in raw and raw["operator"] is not None:
            operator = operator_from_config(raw["operator"])
        if command == "spectrum" and operator is None:
            raise ConfigError("spectrum requires an operator")

        pattern = None
        if "pattern" in raw and raw["pattern"] is not None:
            pattern = pattern_from_config(raw["pattern"])
        if command in ("construct", "certify", "criterion", "probe", "findim") and pattern is None:
            raise ConfigError(f"{command} requires a pattern")

        probe = dict(_PROBE_DEFAULTS)
        if "probe" in raw:
            if not isinstance(raw["probe"], dict):
                raise ConfigError("probe must be an object")
            bad = set(raw["probe"]) - set(_PROBE_DEFAULTS)
            if bad:
                raise ConfigError(f"unknown probe keys: {sorted(bad)}")
            probe.update(raw["probe"])
        for key in ("uIndex", "vIndex", "gridLevel", "gridSupport"):
            if isinstance(probe[key], bool) or not isinstance(probe[key], int) or probe[key] < 0:
                raise ConfigError(f"probe.{key} must be a non-negative integer")
        for key in ("uRadius", "vRadius"):
            if (
                isinstance(probe[key], bool)
                or not isinstance(probe[key], (int, float))
                or probe[key] <= 0
            ):
                raise ConfigError(f"probe.{key} must be positive")

        expect = raw.get("expect", "found")
        if expect not in ("found", "none"):
            raise ConfigError(f"expect must be 'found' or 'none', got {expect!r}")

        truncation_dim = _as_int(raw, "truncationDim", defaults["truncationDim"], 1)
        if command == "findim" and not 2 <= truncation_dim <= 12:
            raise ConfigError("findim works on matrix dimensions 2..12")

        cfg = cls(
            command=command,
            preset=raw.get("preset"),
            operator=operator,
            lam=lam,
            pattern=pattern,
            targets=_as_int(raw, "targets", defaults["targets"], 0),
            support_bound=_as_int(raw, "supportBound", 6 if command != "findim" else 4, 1),
            resolution_level=_as_int(raw, "resolutionLevel", 1, 0),
            truncation_dim=truncation_dim,
            horizon=_as_int(raw, "horizon", defaults["horizon"], 0),
            tol=_as_float(raw, "tol", defaults["tol"]),
            seed=_as_int(raw, "seed", 0, 0),
            net_level=_as_int(raw, "netLevel", 1, 0),
            epsilon=_as_float(raw, "epsilon", 0.1),
            trials=_as_int(raw, "trials", 3, 1),
            probe=probe,
            expect=expect,
            eigen_instances=_as_int(raw, "eigenInstances", 100, 0),
            chain_instances=_as_int(raw, "chainInstances", 50, 0),
            eigen_tol=_as_float(raw, "eigenTol", 1e-8),
            chain_tol=_as_float(raw, "chainTol", 1e-7),
            normalized={},
        )
        object.__setattr__(cfg, "normalized", cfg._normalize())
        return cfg

    def _normalize(self) -> dict:
        out: dict[str, Any] = {
            "command": self.command,
            "seed": self.seed,
            "tol": self.tol,
            "targets": self.targets,
            "truncationDim": self.truncation_dim,
            "horizon": self.horizon,
            "supportBound": self.support_bound,
            "resolutionLevel": self.resolution_level,
        }
        if self.preset:
            out["preset"] = self.preset
        if self.lam is not None:
            out["lambda"] = _complex_to(self.lam)
        if self.operator is not None:
            out["operator"] = operator_to_config(self.operator)
        if self.pattern is not None:
            out["pattern"] = pattern_to_config(self.pattern)
        if self.command == "probe":
            out["probe"] = dict(sorted(self.probe.items()))
            out["expect"] = self.expect
        if self.command == "findim":
            out["netLevel"] = self.net_level
            out["epsilon"] = self.epsilon
            out["trials"] = self.trials
        if self.command == "kernel":
            out["eigenInstances"] = self.eigen_instances
            out["chainInstances"] = self.chain_instances
            out["eigenTol"] = self.eigen_tol
            out["chainTol"] = self.chain_tol
        return out

    def default_operator(self) -> Operator:
        if self.operator is not None:
            return self.operator
        if self.lam is None:
            raise ConfigError(f"{self.command} needs an operator or a lambda")
        return ScalarMultiple(self.lam, BackwardShift(1))

    def family(self) -> DenseFamilySpec:
        return DenseFamilySpec(self.pattern, self.support_bound, self.resolution_level)


@dataclass(frozen=True)
class RunResult:
    passed: bool
    report: dict
    table_header: list
    table_rows: list


def _plain(obj):
    """Coerce numpy scalars and tuples so json sees only builtin types."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _exponents(cfg: ExperimentConfig) -> list[int]:
    stride = cfg.pattern.b if isinstance(cfg.pattern, ResidueZero) else 1
    return [stride * k for k in range(1, cfg.horizon + 1)]


def _run_construct(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.family()
    targets = [dense_family(spec, j) for j in range(cfg.targets + 1)]
    schedule = build_schedule(cfg.lam, targets)
    entries = [
        {
            "j": j,
            "k_j": e.time,
            "targetLength": length(e.target),
            "targetNorm": norm(e.target),
            "bound": e.bound,
        }
        for j, e in enumerate(schedule.entries)
    ]
    report = {"entries": entries, "count": len(entries)}
    rows = [
        [e["j"], e["k_j"], e["targetLength"], e["targetNorm"], e["bound"]]
        for e in entries
    ]
    return RunResult(True, report, ["j", "k_j", "targetLength", "targetNorm", "bound"], rows)


def _run_certify(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.family()
    targets = [dense_family(spec, j) for j in range(cfg.targets + 1)]
    schedule = build_schedule(cfg.lam, targets)
    vec = assemble(schedule)
    rep = certify(
        cfg.lam, vec, schedule, cfg.pattern, float_tol=cfg.tol, op=cfg.default_operator()
    )
    report = rep.to_json_dict()
    report["vectorLength"] = length(vec)
    report["vectorNorm"] = norm(vec)
    return RunResult(rep.passes, report, list(CERT_CSV_HEADER), rep.to_csv_rows())


def _run_criterion(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.family()
    samples = [dense_family(spec, j) for j in range(cfg.targets)]
    rep = check_criterion(
        cfg.default_operator(),
        cfg.pattern,
        samples,
        samples,
        _exponents(cfg),
        cfg.truncation_dim,
        cfg.tol,
    )
    return RunResult(
        rep.passes, rep.to_json_dict(), list(CRITERION_CSV_HEADER), criterion_csv_rows(rep)
    )


def _run_probe(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.family()
    u_center = dense_family(spec, cfg.probe["uIndex"])
    v_center = dense_family(spec, cfg.probe["vIndex"])
    found = transitivity_probe(
        cfg.default_operator(),
        cfg.pattern,
        u_center,
        float(cfg.probe["uRadius"]),
        v_center,
        float(cfg.probe["vRadius"]),
        cfg.horizon,
        cfg.truncation_dim,
        grid_level=cfg.probe["gridLevel"],
        grid_support=cfg.probe["gridSupport"],
    )
    passed = (found is not None) if cfg.expect == "found" else (found is None)
    report = {
        "found": found is not None,
        "n": found,
        "expect": cfg.expect,
        "horizon": cfg.horizon,
    }
    return RunResult(passed, report, ["found", "n"], [[found is not None, found]])


def _random_member(rng: np.random.Generator, pattern: ZeroPattern, dim: int) -> SeqVec:
    allowed = allowed_indices(pattern, dim)
    if not allowed:
        raise ConfigError("pattern forbids every coordinate below the dimension")
    vals = rng.standard_normal(len(allowed)) + 1j * rng.standard_normal(len(allowed))
    vals /= np.linalg.norm(vals)
    return SeqVec(zip(allowed, vals))


def _run_findim(cfg: ExperimentConfig) -> RunResult:
    rng = np.random.default_rng(cfg.seed)
    dim = cfg.truncation_dim
    trials = []
    for t in range(cfg.trials):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for i in range(dim):
            if cfg.pattern.forbids(i):
                for j in range(dim):
                    if not cfg.pattern.forbids(j):
                        m[i, j] = 0.0
        radius = float(np.abs(np.linalg.eigvals(m)).max())
        if radius > 1e-9:
            m *= 0.8 / radius
        op = FiniteMatrix.from_array(m)
        x = _random_member(rng, cfg.pattern, dim)

        rank_small = orbit_span_rank(op, x, dim - 1)
        rank_large = orbit_span_rank(op, x, 2 * dim)
        stabilized = rank_small == rank_large

        points = _kernels.orbit_points(m, x.to_dense(dim), cfg.horizon)
        defect = density_defect(
            points, cfg.pattern, cfg.net_level, cfg.support_bound, cfg.epsilon
        )
        trials.append(
            {
                "trial": t,
                "rankAtDimMinus1": rank_small,
                "rankAtTwiceDim": rank_large,
                "stabilized": stabilized,
                "densityDefect": defect,
                "pass": stabilized and defect >= 0.5,
            }
        )
    passed = all(tr["pass"] for tr in trials)
    report = {
        "dim": dim,
        "epsilon": cfg.epsilon,
        "netLevel": cfg.net_level,
        "trials": trials,
    }
    rows = [
        [
            tr["trial"],
            tr["rankAtDimMinus1"],
            tr["rankAtTwiceDim"],
            tr["stabilized"],
            tr["densityDefect"],
            tr["pass"],
        ]
        for tr in trials
    ]
    header = ["trial", "rankAtDimMinus1", "rankAtTwiceDim", "stabilized", "densityDefect", "pass"]
    return RunResult(passed, report, header, rows)


def _run_spectrum(cfg: ExperimentConfig) -> RunResult:
    dim = cfg.truncation_dim
    mat = FiniteMatrix.from_array(to_matrix(cfg.operator, dim))
    moduli = sorted(float(m) for m in np.abs(np.linalg.eigvals(mat.array)))
    annulus = sum(1 for m in moduli if 0.9 <= m <= 1.1)

    probes = [
        ("e0", SeqVec.basis(0)),
        ("eLast", SeqVec.basis(dim - 1)),
        ("uniform", SeqVec((i, 1.0 / math.sqrt(dim)) for i in range(dim))),
    ]
    results = []
    for label, vec in probes:
        verdict = spectral_dichotomy(mat, vec, cfg.horizon)
        entry = {"probe": label}
        entry.update(verdict.to_json_dict())
        results.append(entry)

    if annulus == 0:
        passed = all(r["classification"] != "neither" for r in results)
    else:
        passed = True
    report = {
        "dim": dim,
        "eigenvalueModuli": moduli,
        "minModulus": moduli[0],
        "maxModulus": moduli[-1],
        "annulusCount": annulus,
        "probes": results,
    }
    rows = [
        [r["probe"], r["classification"], r["firstNorm"], r["lastNorm"], r["ratioTrend"]]
        for r in results
    ]
    header = ["probe", "classification", "firstNorm", "lastNorm", "ratioTrend"]
    return RunResult(passed, report, header, rows)


def _run_kernel(cfg: ExperimentConfig) -> RunResult:
    rng = np.random.default_rng(cfg.seed)
    worst_eigen = 0.0
    for _ in range(cfg.eigen_instances):
        dim = int(rng.integers(2, 9))
        op, y, lam = planted_eigen_instance(rng, dim)
        x = SeqVec.from_dense(
            (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(dim)
        )
        worst_eigen = max(worst_eigen, eigen_orbit_pairing(op, x, y, lam, cfg.horizon))

    worst_chain = 0.0
    for _ in range(cfg.chain_instances):
        p = int(rng.integers(1, 4))
        dim = int(rng.integers(p + 1, 9))
        op, y, lam = planted_chain_instance(rng, dim, p)
        x = SeqVec.from_dense(
            (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(dim)
        )
        worst_chain = max(
            worst_chain, generalized_pairing_polynomial(op, x, y, lam, p, cfg.horizon)
        )

    eigen_ok = worst_eigen <= cfg.eigen_tol
    chain_ok = worst_chain <= cfg.chain_tol
    report = {
        "eigen": {
            "instances": cfg.eigen_instances,
            "maxDeviation": worst_eigen,
            "tol": cfg.eigen_tol,
            "pass": eigen_ok,
        },
        "chain": {
            "instances": cfg.chain_instances,
            "maxResidual": worst_chain,
            "tol": cfg.chain_tol,
            "pass": chain_ok,
        },
    }
    rows = [
        ["eigen", cfg.eigen_instances, worst_eigen, cfg.eigen_tol, eigen_ok],
        ["chain", cfg.chain_instances, worst_chain, cfg.chain_tol, chain_ok],
    ]
    header = ["family", "instances", "worst", "tol", "pass"]
    return RunResult(eigen_ok and chain_ok, report, header, rows)


_JORDAN_LAMBDAS = (2.0 + 0.0j, 0.7 + 0.7j, -1.1 + 0.0j)


def _run_jordan(cfg: ExperimentConfig) -> RunResult:
    results = []
    for p in range(1, 5):
        for lam in _JORDAN_LAMBDAS:
            block = np.diag(np.full(p, lam)) + np.diag(np.ones(p - 1), 1)
            op = FiniteMatrix.from_array(block)
            y = SeqVec.basis(p - 1)
            worst = 0.0
            for n in range(p, cfg.horizon + 1):
                closed = jordan_orbit(op, lam, p, y, n)
                power = apply_power(op, n, y)
                err = norm(closed - power) / max(norm(power), 1e-30)
                worst = max(worst, err)
            results.append(
                {
                    "p": p,
                    "lambda": _complex_to(lam),
                    "maxRelError": worst,
                    "pass": worst <= cfg.tol,
                }
            )
    passed = all(r["pass"] for r in results)
    report = {"horizon": cfg.horizon, "tol": cfg.tol, "cases": results}
    rows = [
        [r["p"], r["lambda"][0], r["lambda"][1], r["maxRelError"], r["pass"]]
        for r in results
    ]
    header = ["p", "lambdaRe", "lambdaIm", "maxRelError", "pass"]
    return RunResult(passed, report, header, rows)


_RUNNERS = {
    "construct": _run_construct,
    "certify": _run_certify,
    "criterion": _run_criterion,
    "probe": _run_probe,
    "findim": _run_findim,
    "spectrum": _run_spectrum,
    "kernel": _run_kernel,
    "jordan": _run_jordan,
}


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute one configured experiment and wrap its verdict and tables."""
    result = _RUNNERS[cfg.command](cfg)
    report = {
        "command": cfg.command,
        "preset": cfg.preset,
        "backend": _kernels.BACKEND,
        "config": cfg.normalized,
        "passed": result.passed,
        "verdict": "pass" if result.passed else "fail",
        "report": result.report,
    }
    return RunResult(result.passed, _plain(report), result.table_header, result.table_rows)


def write_outputs(result: RunResult, out_dir: str | Path) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    table_path = out / "table.csv"
    report_path.write_text(
        json.dumps(result.report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    with table_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result.table_header)
        writer.writerows(result.table_rows)
    return report_path, table_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitlab",
        description="Run a configured orbit-density experiment.",
    )
    parser.add_argument("config", help="path to a JSON run configuration")
    parser.add_argument(
        "--out-dir",
        default=".",
        help="directory for report.json and table.csv (env ORBITLAB_OUT overrides)",
    )
    parser.add_argument("--verbose", action="store_true", help="print per-row detail")
    args = parser.parse_args(argv)

    out_dir = os.environ.get("ORBITLAB_OUT") or args.out_dir

    try:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        cfg = ExperimentConfig.from_dict(raw)
        result = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OrbitlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report_path, table_path = write_outputs(result, out_dir)
    if args.verbose:
        print(",".join(str(h) for h in result.table_header))
        for row in result.table_rows:
            print(",".join(str(c) for c in row))
    label = cfg.preset or cfg.command
    print(f"{label}: {'PASS' if result.passed else 'FAIL'} ({report_path}, {table_path})")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
