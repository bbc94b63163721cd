"""Config-driven experiment runner.

Usage::

    orbitlab <config.json> [--out-dir DIR] [--verbose]

The config is a single JSON object whose ``command`` selects the experiment;
``{"command": "preset", "preset": "certify-prefix3"}`` expands to a stored
configuration, with any other keys supplied on top taking precedence.  Each
run writes ``report.json`` and ``table.csv`` to the output directory (the
``ORBITLAB_OUT`` environment variable overrides ``--out-dir``), prints a
verdict line, and exits 0 on pass, 1 on a negative verdict, 2 on a bad
config, which is refused before the run starts, or on a failed run.  Outputs
carry no timestamps and all randomness is seeded, so a given config always
produces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property, partial
from pathlib import Path
from typing import Any, Callable

from ._report import BACKEND, json_text
from .constructor import _identity_split, assemble, build_schedule, certify, length
from .criterion import backsolve, check_criterion, transitivity_probe
from .errors import ConfigError, OrbitlabError
from .presets import preset_config
from .seqspace import (
    PRUNE_MODULUS,
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
    max_or_nan,
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


def _obstruction(name: str) -> Callable:
    """A stand-in for ``obstructions.<name>`` that looks it up at its first
    call.  The stand-in stays bound here, so a wrapper that a test or a
    tracer puts on this module's name stays in place."""
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module("orbitlab.obstructions"), name)
        return target(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


density_defect = _obstruction("density_defect")
eigen_orbit_pairing = _obstruction("eigen_orbit_pairing")
generalized_pairing_polynomial = _obstruction("generalized_pairing_polynomial")
jordan_orbit = _obstruction("jordan_orbit")
orbit_span_rank = _obstruction("orbit_span_rank")
spectral_dichotomy = _obstruction("spectral_dichotomy")

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


def _as_tol(val, where: str) -> float:
    out = _as_float(val, where)
    if out < PRUNE_MODULUS:
        raise ConfigError(
            f"{where} must be at least {PRUNE_MODULUS}, below which vector entries"
            f" are pruned to zero, got {val}"
        )
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


def _key(key: str, parse: Callable, default: Any = None, write: Callable | None = None):
    """The field that config key ``key`` sets: ``parse`` reads it from JSON.
    A scalar takes ``default`` when absent, or its command's default.  An
    object is optional, and ``write`` writes it back to JSON."""
    return field(metadata={"config": (key, parse, default, write)})


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's config: every field past ``preset`` is set by one config key.

    report["config"] echoes each object given and each scalar but the
    extras, which only their command echoes.  A command refuses a key its
    run does not read, unless a shared scalar at the value echoed anyway.
    """

    command: str
    preset: str | None
    # The objects, in the order they are read.
    lam: complex | None = _key("lambda", _complex_from, write=_complex_to)
    operator: Operator | None = _key("operator", operator_from_config, write=operator_to_config)
    pattern: ZeroPattern | None = _key(
        "pattern", partial(_from_config, "pattern"), write=partial(_to_config, "pattern")
    )
    targets: int = _key("targets", _as_int, 0)
    support_bound: int = _key("supportBound", _at_least_one, 6)
    resolution_level: int = _key("resolutionLevel", _as_int, 1)
    truncation_dim: int = _key("truncationDim", _at_least_one)
    horizon: int = _key("horizon", _as_int, 0)
    tol: float = _key("tol", _as_tol, 1e-9)
    seed: int = _key("seed", _as_int, 0)
    net_level: int = _key("netLevel", _as_int, 1)
    epsilon: float = _key("epsilon", _as_float, 0.1)
    trials: int = _key("trials", _at_least_one, 3)
    probe: dict = _key("probe", _as_probe, {})
    expect: str = _key("expect", _as_expect, "found")
    eigen_instances: int = _key("eigenInstances", _as_int, 100)
    chain_instances: int = _key("chainInstances", _as_int, 50)
    eigen_tol: float = _key("eigenTol", _as_float, 1e-8)
    chain_tol: float = _key("chainTol", _as_float, 1e-7)

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
        elif raw.get("preset") is not None:
            raise ConfigError(
                f"preset {raw['preset']!r} is given with command {command!r};"
                " a preset run has command 'preset' or none"
            )
        if command not in _COMMANDS:
            raise ConfigError(f"command must be one of {tuple(_COMMANDS)}, got {command!r}")
        unknown = set(raw) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        spec = _COMMANDS[command]
        # An explicit null reads as absent, so a preset overlay can drop an object.
        values = {}
        for name, key, parse, _, _ in _OBJECTS:
            values[name] = None if raw.get(key) is None else parse(raw[key], key)
        needs = spec.needs
        if spec.shift_default and values["operator"] is None:
            needs = ("lambda", *needs)
        for name, key, *_ in _OBJECTS:
            if key in needs and values[name] is None:
                raise ConfigError(f"{command} requires {key!r}")
        lam = values["lam"]
        if "lambda" in needs and abs(lam) <= 1.0:
            raise ConfigError(f"{command} requires |lambda| > 1, got modulus {abs(lam)}")
        for name, key, parse, default, _ in _SCALARS:
            values[name] = parse(raw.get(key, spec.defaults.get(key, default)), key)
        # An unread key may hold only what is echoed anyway: a shared scalar's default.
        unread = [
            key
            for name, key, _, default, _ in _FIELDS
            if key in raw
            and key not in spec.reads
            and (key in _EXTRAS or values[name] != spec.defaults.get(key, default))
        ]
        if unread:
            raise ConfigError(f"{command} does not read {sorted(unread)}")
        cfg = cls(command=command, preset=raw.get("preset"), **values)
        if (refusal := spec.check(cfg)) is not None:
            raise ConfigError(refusal)
        return cfg

    @cached_property
    def normalized(self) -> dict:
        """The config as report.json echoes it, defaults filled in."""
        own = _COMMANDS[self.command].reads
        out: dict[str, Any] = {"command": self.command}
        for name, key, *_ in _SCALARS:
            if key not in _EXTRAS or key in own:
                out[key] = getattr(self, name)
        if self.preset:
            out["preset"] = self.preset
        for name, key, _, _, write in _OBJECTS:
            value = getattr(self, name)
            if value is not None:
                out[key] = write(value)
        return out

    def default_operator(self) -> Operator:
        if self.operator is not None:
            return self.operator
        return ScalarMultiple(self.lam, BackwardShift(1))

    def family(self) -> DenseFamilySpec:
        return DenseFamilySpec(self.pattern, self.support_bound, self.resolution_level)


# (attribute, key, parser, default, writer) of each config key's field.
_FIELDS = [(f.name, *f.metadata["config"]) for f in fields(ExperimentConfig) if f.metadata]
_OBJECTS = [f for f in _FIELDS if f[4]]
_SCALARS = [f for f in _FIELDS if not f[4]]
_KNOWN_KEYS = {"command", "preset", *(f[1] for f in _FIELDS)}
# The scalars that only the command that reads them echoes.
_EXTRAS = {
    "netLevel", "epsilon", "trials", "probe", "expect",
    "eigenInstances", "chainInstances", "eigenTol", "chainTol",
}


@dataclass(frozen=True)
class RunResult:
    passed: bool
    report: dict
    table_header: list
    table_rows: list


def _name_non_finite(obj, where: str) -> None:
    """Raise ``ArithmeticError`` naming the first non-finite float under
    ``obj``, which ``where`` leads to: strict JSON has no spelling for it."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _name_non_finite(v, f"{where}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _name_non_finite(v, f"{where}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise ArithmeticError(f"{where} is {obj}; report.json holds only finite numbers")


def _rows(header: list, records: list[dict]) -> list[list]:
    return [[r[key] for key in header] for r in records]


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
            "bound": bound,
        }
        for j, (e, bound) in enumerate(zip(schedule.entries, schedule.bounds))
    ]
    report = {"entries": entries, "count": len(entries)}
    header = ["j", "k_j", "targetLength", "targetNorm", "bound"]
    return RunResult(True, report, header, _rows(header, entries))


def _run_certify(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.family()
    targets = [dense_family(spec, j) for j in range(cfg.targets + 1)]
    schedule = build_schedule(cfg.lam, targets)
    vec = assemble(schedule)
    rep = certify(vec, cfg.pattern, float_tol=cfg.tol, op=cfg.default_operator())
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
        "vectorLength": vec.length,
        "vectorNorm": vec.norm(),
    }
    header = ["n", "k_n", "defect", "distance", "bound", "pass"]
    rows = [[e.index, e.time, e.defect, e.distance, e.bound, e.passed] for e in rep.entries]
    return RunResult(rep.passes, report, header, rows)


def _run_criterion(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.family()
    samples = [dense_family(spec, j) for j in range(cfg.targets)]
    stride = cfg.pattern.b if isinstance(cfg.pattern, ResidueZero) else 1
    rep = check_criterion(
        cfg.default_operator(),
        cfg.pattern,
        samples,
        samples,
        [stride * k for k in range(1, cfg.horizon + 1)],
        cfg.truncation_dim,
        cfg.tol,
    )
    report = {
        "nks": list(rep.nks),
        "tol": rep.tol,
        "condI": [
            {"sampleIndex": d.sample, "maxTailNorm": d.final_norm, "firstZeroNk": d.first_zero_nk}
            for d in rep.decay
        ],
        "condII": [
            {
                "sampleIndex": r.sample,
                "xkNorm": r.final_preimage_norm,
                "xkMonotone": r.preimage_monotone,
                "recoveryError": r.recovery_error,
                "normLawDev": r.norm_law_dev,
            }
            for r in rep.recovery
        ],
        "condIII": [{"k": c.k, "n_k": c.n_k, "invariant": c.invariant} for c in rep.invariance],
        "verdict": {
            "condI": rep.decay_ok,
            "condII": rep.recovery_ok,
            "condIII": rep.invariance_ok,
            "tol": rep.tol,
        },
        "passed": rep.passes,
    }
    # Conditions I and II are judged after the last exponent, III at each one.
    k_last, n_last = len(rep.nks) - 1, rep.nks[-1]
    rows = (
        [["I", d.sample, k_last, n_last, d.final_norm, d.passed] for d in rep.decay]
        + [["II", r.sample, k_last, n_last, r.recovery_error, r.passed] for r in rep.recovery]
        + [["III", c.k, c.k, c.n_k, float(c.invariant), c.invariant] for c in rep.invariance]
    )
    header = ["condition", "index", "k", "n_k", "value", "pass"]
    return RunResult(rep.passes, report, header, rows)


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


def _run_findim(cfg: ExperimentConfig) -> RunResult:
    dim = cfg.truncation_dim
    from .obstructions import findim_orbits, unit_ball_net

    # The rank orbits and the density orbit are prefixes of this one.
    steps = max(cfg.horizon, 2 * dim)
    trials = []
    net = None  # one net for every trial, built where the first trial needs it
    for t, orbit in enumerate(findim_orbits(cfg.pattern, dim, cfg.trials, cfg.seed, steps)):
        rank_small = orbit_span_rank(orbit, dim - 1)
        rank_large = orbit_span_rank(orbit, 2 * dim)
        stabilized = rank_small == rank_large
        if net is None:
            net = unit_ball_net(cfg.pattern, cfg.support_bound, cfg.net_level)
        defect = density_defect(
            orbit[: cfg.horizon + 1],
            cfg.pattern,
            cfg.net_level,
            cfg.support_bound,
            cfg.epsilon,
            net=net,
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
    from .obstructions import eigenvalue_moduli

    dim = cfg.truncation_dim
    mat = FiniteMatrix(to_matrix(cfg.operator, dim))
    moduli = eigenvalue_moduli(mat)
    annulus = sum(1 for m in moduli if 0.9 <= m <= 1.1)

    probes = [
        ("e0", SeqVec.basis(0)),
        ("eLast", SeqVec.basis(dim - 1)),
        ("uniform", SeqVec((i, 1.0 / math.sqrt(dim)) for i in range(dim))),
    ]
    results = []
    for label, vec in probes:
        verdict = spectral_dichotomy(mat, vec, cfg.horizon)
        results.append(
            {
                "probe": label,
                "classification": verdict.classification,
                "firstNorm": verdict.first_norm,
                "lastNorm": verdict.last_norm,
                "steps": verdict.steps,
                "ratioTrend": verdict.ratio_trend,
            }
        )

    passed = annulus > 0 or all(r["classification"] != "neither" for r in results)
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
    from .obstructions import planted_streams

    n_max = cfg.horizon
    eigens, chains = planted_streams(cfg.seed, cfg.eigen_instances, cfg.chain_instances, n_max)
    # Read in order, so the first instance that raises is the one that raises.
    worst_eigen = worst_chain = 0.0
    for chunk in eigens:
        worst_eigen = max_or_nan(worst_eigen, eigen_orbit_pairing(chunk, n_max))
    for chunk in chains:
        worst_chain = max_or_nan(worst_chain, generalized_pairing_polynomial(chunk, n_max))

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
            # lam on the diagonal, 1 just above it
            block = [[lam if j == i else float(j == i + 1) for j in range(p)] for i in range(p)]
            op = FiniteMatrix(block)
            y = SeqVec.basis(p - 1)
            worst = 0.0
            power, reached = y, 0  # T^reached y, carried from one n to the next
            for n, closed in enumerate(jordan_orbit(op, lam, p, y, cfg.horizon), start=p):
                power = apply_power(op, n - reached, power)
                reached = n
                err = norm(closed - power) / max(norm(power), 1e-30)
                worst = max_or_nan(worst, err)
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


def _check_certify(cfg: ExperimentConfig) -> None:
    _identity_split(cfg.operator, cfg.lam)  # raises on all but lam B and lam B + I


def _check_criterion(cfg: ExperimentConfig) -> str | None:
    if cfg.targets < 2:  # sample 0 is the zero vector, which checks nothing
        return f"criterion needs targets >= 2, got {cfg.targets}"
    backsolve(cfg.default_operator(), 0, SeqVec())  # raises unless op is lam B^b, lam != 0
    return None


def _check_findim(cfg: ExperimentConfig) -> str | None:
    if not 2 <= cfg.truncation_dim <= 12:
        return "findim works on matrix dimensions 2..12"
    if not allowed_indices(cfg.pattern, cfg.truncation_dim):
        return "pattern forbids every coordinate below the dimension"
    return None


@dataclass(frozen=True)
class _Command:
    run: Callable[[ExperimentConfig], RunResult]
    needs: tuple[str, ...]  # of the keys "lambda" (with modulus > 1), "operator", "pattern"
    defaults: dict  # by key, overrides of the scalars' defaults
    reads: tuple[str, ...]  # every key the run reads
    # Without an operator the run is on lambda B, so it needs "lambda" too.
    shift_default: bool = False
    check: Callable[[ExperimentConfig], str | None] = lambda cfg: None  # refusal text, or None


_SHIFT_NEEDS = ("lambda", "pattern")
_FAMILY = ("pattern", "supportBound", "resolutionLevel")
_COMMANDS = {
    "construct": _Command(
        _run_construct, _SHIFT_NEEDS, {"targets": 20, "truncationDim": 512},
        ("lambda", *_FAMILY, "targets"),
    ),
    "certify": _Command(
        _run_certify, _SHIFT_NEEDS, {"targets": 20, "truncationDim": 512},
        ("lambda", "operator", *_FAMILY, "targets", "tol"), check=_check_certify,
    ),
    "criterion": _Command(
        _run_criterion, ("pattern",),
        {"targets": 50, "truncationDim": 128, "tol": 1e-12, "horizon": 30},
        ("lambda", "operator", *_FAMILY, "targets", "truncationDim", "horizon", "tol"),
        shift_default=True, check=_check_criterion,
    ),
    "probe": _Command(
        _run_probe, ("pattern",), {"truncationDim": 256, "horizon": 50},
        ("lambda", "operator", *_FAMILY, "truncationDim", "horizon", "probe", "expect"),
        check=lambda cfg: "probe needs an operator or a lambda"
        if cfg.operator is None and cfg.lam is None else None,
    ),
    "findim": _Command(
        _run_findim, ("pattern",), {"truncationDim": 4, "horizon": 10000, "supportBound": 4},
        ("pattern", "supportBound", "truncationDim", "horizon", "seed",
         "netLevel", "epsilon", "trials"), check=_check_findim,
    ),
    "spectrum": _Command(
        _run_spectrum, ("operator",), {"truncationDim": 64, "horizon": 400},
        ("operator", "truncationDim", "horizon"),
    ),
    "kernel": _Command(
        _run_kernel, (), {"truncationDim": 8, "horizon": 12},
        ("horizon", "seed", "eigenInstances", "chainInstances", "eigenTol", "chainTol"),
        # Chains have rank 1..3, and fitting rank 3's Q takes n_max >= 2p - 1.
        check=lambda cfg: f"kernel needs horizon >= 5 to fit its rank-3 chains, got {cfg.horizon}"
        if cfg.chain_instances and cfg.horizon < 5 else None,
    ),
    "jordan": _Command(
        _run_jordan, (), {"truncationDim": 4, "horizon": 12, "tol": 1e-10}, ("horizon", "tol"),
        # Rank p is checked at the powers n = p..horizon.
        check=lambda cfg: f"jordan needs horizon >= 4, its largest rank, got {cfg.horizon}"
        if cfg.horizon < 4 else None,
    ),
}


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute one configured experiment and wrap its verdict and tables.

    The report is returned unchecked: ``write_outputs`` refuses one that
    holds a non-finite float, naming the field.
    """
    result = _COMMANDS[cfg.command].run(cfg)
    report = {
        "command": cfg.command,
        "preset": cfg.preset,
        "backend": BACKEND,
        "config": cfg.normalized,
        "passed": result.passed,
        "verdict": "pass" if result.passed else "fail",
        "report": result.report,
    }
    return RunResult(result.passed, report, result.table_header, result.table_rows)


def write_outputs(result: RunResult, out_dir: str | Path) -> tuple[Path, Path]:
    try:
        text = json_text(result.report)
    except ArithmeticError:
        for key, value in result.report.items():
            _name_non_finite(value, key)
        raise
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    table_path = out / "table.csv"
    report_path.write_text(text + "\n", encoding="utf-8")
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
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        cfg = ExperimentConfig.from_dict(raw)
        result = run(cfg)
        report_path, table_path = write_outputs(result, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # from reading, parsing or running a deeply nested config
        print("config error: config is nested too deeply", file=sys.stderr)
        return 2
    except OSError as exc:  # from write_outputs: reading the config raises ConfigError
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    except (OrbitlabError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the allocation; a bare MemoryError has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    if args.verbose:
        print(",".join(str(h) for h in result.table_header))
        for row in result.table_rows:
            print(",".join(str(c) for c in row))
    label = cfg.preset or cfg.command
    print(f"{label}: {'PASS' if result.passed else 'FAIL'} ({report_path}, {table_path})")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
