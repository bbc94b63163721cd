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
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import _kernels
from .constructor import assemble, build_schedule, certify, length
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
    unit_ball_net,
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
    PrefixZero,
    ResidueZero,
    RightBlockZero,
    SupportIn,
    ZeroPattern,
    allowed_indices,
    dense_family,
)

__all__ = ["ExperimentConfig", "RunResult", "run", "main"]


def _finite(val, where: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where} must be a number, got {val!r}")
    try:
        out = float(val)
    except OverflowError:  # an integer literal past the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{where} must be finite, got {val!r}")
    return out


def _complex_from(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where}: complex values are [re, im] pairs, got {value!r}")
    return complex(_finite(value[0], where), _finite(value[1], where))


def _complex_to(z: complex) -> list[float]:
    return [z.real, z.imag]


def _as_int(val, where: str, minimum: int = 0) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where} must be an integer, got {val!r}")
    if val < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {val}")
    return val


def _as_float(val, where: str) -> float:
    out = _finite(val, where)
    if out <= 0:
        raise ConfigError(f"{where} must be positive, got {val}")
    return out


def _at_least_one(val, where: str) -> int:
    return _as_int(val, where, 1)


def _complexes_from(values, where: str) -> tuple[complex, ...]:
    return tuple(_complex_from(z, f"{where}[{i}]") for i, z in enumerate(values))


def _matrix_from(rows, where: str) -> list[tuple[complex, ...]]:
    # FiniteMatrix rejects ragged, non-square and empty entry lists.
    return [_complexes_from(row, where) for row in rows]


def _from_config(noun: str, cfg, where: str):
    """The object that a ``{"kind": ..., field: ...}`` config names in ``_KINDS[noun]``."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"{where}: expected an object with a kind, got {cfg!r}")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in _KINDS[noun]:
        raise ConfigError(f"{where}: unknown {noun} kind {kind!r}")
    cls, spec = _KINDS[noun][kind]
    extra = sorted(set(cfg) - set(spec) - {"kind"})
    if extra:
        raise ConfigError(f"{where}: unexpected fields {extra} for kind {kind!r}")
    required = {f.name for f in fields(cls) if f.default is MISSING}
    for name, (attr, _) in spec.items():
        if name not in cfg and attr in required:
            raise ConfigError(f"{where}: missing field {name!r} for kind {kind!r}")
    try:
        return cls(
            **{
                attr: parse(cfg[name], f"{where}.{name}")
                for name, (attr, (parse, _)) in spec.items()
                if name in cfg
            }
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _to_config(noun: str, obj) -> dict:
    for kind, (cls, spec) in _KINDS[noun].items():
        if isinstance(obj, cls):
            out = {name: write(getattr(obj, attr)) for name, (attr, (_, write)) in spec.items()}
            return {"kind": kind, **out}
    raise TypeError(f"unknown {noun} {obj!r}")


def operator_from_config(cfg, where: str = "operator") -> Operator:
    return _from_config("operator", cfg, where)


def operator_to_config(op: Operator) -> dict:
    return _to_config("operator", op)


# Field types: (parser from JSON, writer to JSON).
_INT = (_as_int, int)
_COMPLEX = (_complex_from, _complex_to)
_COMPLEXES = (_complexes_from, lambda zs: [_complex_to(z) for z in zs])
_MATRIX = (_matrix_from, lambda a: [[_complex_to(z) for z in row] for row in a.tolist()])
_OPERATOR = (operator_from_config, operator_to_config)

# Config object -> kind -> (class, {JSON field: (attribute, field type)}).
_KINDS = {
    "operator": {
        "backwardShift": (BackwardShift, {"power": ("power", _INT)}),
        "forwardShift": (ForwardShift, {"power": ("power", _INT)}),
        "identity": (Identity, {}),
        "scalar": (
            ScalarMultiple,
            {"factor": ("factor", _COMPLEX), "of": ("operand", _OPERATOR)},
        ),
        "diagonal": (Diagonal, {"weights": ("weights", _COMPLEXES)}),
        "directSum": (
            DirectSum,
            {
                "left": ("left", _OPERATOR),
                "right": ("right", _OPERATOR),
                "split": ("split_index", _INT),
            },
        ),
        "finiteMatrix": (FiniteMatrix, {"entries": ("array", _MATRIX)}),
    },
    "pattern": {
        "prefix": (PrefixZero, {"m": ("m", _INT)}),
        "residue": (ResidueZero, {"a": ("a", _INT), "b": ("b", _INT)}),
        "supportIn": (SupportIn, {"b": ("b", _INT)}),
        "rightBlock": (RightBlockZero, {"split": ("split", _INT)}),
    },
}

# Probe key -> (parser, default).
_PROBE_KEYS = {
    "uIndex": (_as_int, 1),
    "vIndex": (_as_int, 2),
    "uRadius": (_as_float, 0.25),
    "vRadius": (_as_float, 0.25),
    "gridLevel": (_as_int, 1),
    "gridSupport": (_as_int, 4),
}


def _as_probe(val, where: str) -> dict:
    if not isinstance(val, dict):
        raise ConfigError(f"{where} must be an object")
    bad = set(val) - set(_PROBE_KEYS)
    if bad:
        raise ConfigError(f"unknown {where} keys: {sorted(bad)}")
    # Values are kept as written, so the config echo prints an integer radius as one.
    probe = {key: val.get(key, default) for key, (_, default) in _PROBE_KEYS.items()}
    for key, (parse, _) in _PROBE_KEYS.items():
        parse(probe[key], f"{where}.{key}")
    return probe


def _as_expect(val, where: str) -> str:
    if val not in ("found", "none"):
        raise ConfigError(f"{where} must be 'found' or 'none', got {val!r}")
    return val


# JSON key -> (attribute, parser, default); a command's defaults override
# these.  Every key is echoed in report["config"], except the keys that
# some command lists as its own extras, which only that command echoes.
_KEYS = {
    "targets": ("targets", _as_int, 0),
    "supportBound": ("support_bound", _at_least_one, 6),
    "resolutionLevel": ("resolution_level", _as_int, 1),
    "truncationDim": ("truncation_dim", _at_least_one, None),
    "horizon": ("horizon", _as_int, 0),
    "tol": ("tol", _as_float, 1e-9),
    "seed": ("seed", _as_int, 0),
    "netLevel": ("net_level", _as_int, 1),
    "epsilon": ("epsilon", _as_float, 0.1),
    "trials": ("trials", _at_least_one, 3),
    "probe": ("probe", _as_probe, {}),
    "expect": ("expect", _as_expect, "found"),
    "eigenInstances": ("eigen_instances", _as_int, 100),
    "chainInstances": ("chain_instances", _as_int, 50),
    "eigenTol": ("eigen_tol", _as_float, 1e-8),
    "chainTol": ("chain_tol", _as_float, 1e-7),
}

_KNOWN_KEYS = {"command", "preset", "lambda", "operator", "pattern", *_KEYS}


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
        if command not in _COMMANDS:
            raise ConfigError(f"command must be one of {tuple(_COMMANDS)}, got {command!r}")
        unknown = set(raw) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        spec = _COMMANDS[command]

        # An explicit null reads as absent, so a preset overlay can drop a key.
        lam, operator, pattern = raw.get("lambda"), raw.get("operator"), raw.get("pattern")
        given = {
            "lambda": None if lam is None else _complex_from(lam, "lambda"),
            "operator": None if operator is None else operator_from_config(operator),
            "pattern": None if pattern is None else _from_config("pattern", pattern, "pattern"),
        }
        for key in spec.needs:
            if given[key] is None:
                raise ConfigError(f"{command} requires {key!r}")
        lam = given["lambda"]
        if "lambda" in spec.needs and abs(lam) <= 1.0:
            raise ConfigError(f"{command} requires |lambda| > 1, got modulus {abs(lam)}")

        scalars = {}
        for key, (attr, parse, default) in _KEYS.items():
            scalars[attr] = parse(raw.get(key, spec.defaults.get(key, default)), key)
        return cls(
            command=command,
            preset=raw.get("preset"),
            operator=given["operator"],
            lam=lam,
            pattern=given["pattern"],
            **scalars,
        )

    @cached_property
    def normalized(self) -> dict:
        """The config as report.json echoes it, defaults filled in."""
        extras = {key for c in _COMMANDS.values() for key in c.echo}
        own = _COMMANDS[self.command].echo
        out: dict[str, Any] = {"command": self.command}
        for key, (attr, _, _) in _KEYS.items():
            if key not in extras or key in own:
                out[key] = getattr(self, attr)
        if self.preset:
            out["preset"] = self.preset
        if self.lam is not None:
            out["lambda"] = _complex_to(self.lam)
        if self.operator is not None:
            out["operator"] = operator_to_config(self.operator)
        if self.pattern is not None:
            out["pattern"] = _to_config("pattern", self.pattern)
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


def _plain(obj, where: str):
    """Coerce numpy scalars and tuples so json sees only builtin types.

    A non-finite float raises: strict JSON has no spelling for it.
    """
    if isinstance(obj, dict):
        return {k: _plain(v, f"{where}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v, f"{where}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        out = float(obj)
        if not math.isfinite(out):
            raise ArithmeticError(f"{where} is {out}; report.json holds only finite numbers")
        return out
    return obj


def _rows(header: list, records: list[dict]) -> list[list]:
    return [[r[key] for key in header] for r in records]


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
    header = ["j", "k_j", "targetLength", "targetNorm", "bound"]
    return RunResult(True, report, header, _rows(header, entries))


def _run_certify(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.family()
    targets = [dense_family(spec, j) for j in range(cfg.targets + 1)]
    schedule = build_schedule(cfg.lam, targets)
    vec = assemble(schedule)
    rep = certify(
        cfg.lam, vec, schedule, cfg.pattern, float_tol=cfg.tol, op=cfg.default_operator()
    )
    entries = [
        {
            "n": e.index,
            "k_n": e.time,
            "membershipDefect": e.defect,
            "distance": e.distance,
            "bound": e.bound,
            "pass": e.passed,
        }
        for e in rep.entries
    ]
    report = {
        "lambda": _complex_to(cfg.lam),
        "pattern": _to_config("pattern", cfg.pattern),
        "floatTol": cfg.tol,
        "passed": rep.passes,
        "entries": entries,
        "vectorLength": length(vec),
        "vectorNorm": norm(vec),
    }
    header = ["n", "k_n", "defect", "distance", "bound", "pass"]
    rows = [[e.index, e.time, e.defect, e.distance, e.bound, e.passed] for e in rep.entries]
    return RunResult(rep.passes, report, header, rows)


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
    if not 2 <= cfg.truncation_dim <= 12:
        raise ConfigError("findim works on matrix dimensions 2..12")
    rng = np.random.default_rng(cfg.seed)
    dim = cfg.truncation_dim
    trials = []
    net = None  # one net for every trial, built where the first trial needs it
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
        op = FiniteMatrix(m)
        x = _random_member(rng, cfg.pattern, dim)

        rank_small = orbit_span_rank(op, x, dim - 1)
        rank_large = orbit_span_rank(op, x, 2 * dim)
        stabilized = rank_small == rank_large

        points = _kernels.orbit_points(m, x.to_dense(dim), cfg.horizon)
        if net is None:
            net = unit_ball_net(cfg.pattern, cfg.support_bound, cfg.net_level)
        defect = density_defect(
            points, cfg.pattern, cfg.net_level, cfg.support_bound, cfg.epsilon, net=net
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
    header = ["trial", "rankAtDimMinus1", "rankAtTwiceDim", "stabilized", "densityDefect", "pass"]
    return RunResult(passed, report, header, _rows(header, trials))


def _run_spectrum(cfg: ExperimentConfig) -> RunResult:
    dim = cfg.truncation_dim
    mat = FiniteMatrix(to_matrix(cfg.operator, dim))
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
    header = ["probe", "classification", "firstNorm", "lastNorm", "ratioTrend"]
    return RunResult(passed, report, header, _rows(header, results))


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
            op = FiniteMatrix(block)
            y = SeqVec.basis(p - 1)
            worst = 0.0
            power, reached = y, 0  # T^reached y, carried from one n to the next
            for n in range(p, cfg.horizon + 1):
                closed = jordan_orbit(op, lam, p, y, n)
                power = apply_power(op, n - reached, power)
                reached = n
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


@dataclass(frozen=True)
class _Command:
    run: Callable[[ExperimentConfig], RunResult]
    needs: tuple[str, ...]  # of "lambda" (with modulus > 1), "pattern", "operator"
    defaults: dict  # overrides of the _KEYS defaults
    echo: tuple[str, ...] = ()  # _KEYS that only this command echoes


_SHIFT_NEEDS = ("lambda", "pattern")
_COMMANDS = {
    "construct": _Command(_run_construct, _SHIFT_NEEDS, {"targets": 20, "truncationDim": 512}),
    "certify": _Command(_run_certify, _SHIFT_NEEDS, {"targets": 20, "truncationDim": 512}),
    "criterion": _Command(
        _run_criterion,
        _SHIFT_NEEDS,
        {"targets": 50, "truncationDim": 128, "tol": 1e-12, "horizon": 30},
    ),
    "probe": _Command(
        _run_probe, ("pattern",), {"truncationDim": 256, "horizon": 50}, ("probe", "expect")
    ),
    "findim": _Command(
        _run_findim,
        ("pattern",),
        {"truncationDim": 4, "horizon": 10000, "supportBound": 4},
        ("netLevel", "epsilon", "trials"),
    ),
    "spectrum": _Command(_run_spectrum, ("operator",), {"truncationDim": 64, "horizon": 400}),
    "kernel": _Command(
        _run_kernel,
        (),
        {"truncationDim": 8, "horizon": 12},
        ("eigenInstances", "chainInstances", "eigenTol", "chainTol"),
    ),
    "jordan": _Command(_run_jordan, (), {"truncationDim": 4, "horizon": 12, "tol": 1e-10}),
}


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute one configured experiment and wrap its verdict and tables."""
    result = _COMMANDS[cfg.command].run(cfg)
    report = {
        "command": cfg.command,
        "preset": cfg.preset,
        "backend": _kernels.BACKEND,
        "config": cfg.normalized,
        "passed": result.passed,
        "verdict": "pass" if result.passed else "fail",
        "report": result.report,
    }
    report = {key: _plain(value, key) for key, value in report.items()}
    return RunResult(result.passed, report, result.table_header, result.table_rows)


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
    except (OrbitlabError, ValueError, ArithmeticError) as exc:
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
