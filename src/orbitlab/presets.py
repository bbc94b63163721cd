"""Stock run configurations.

Each preset is an overlay of its command's defaults: it names the command
and holds only the keys whose values differ from that command's defaults,
which ``ExperimentConfig`` fills back in.  The CLI resolves a bare
``{"command": "preset", "preset": "<name>"}`` to one of these, and any keys
the user supplies on top override the stored ones in turn.
"""

from __future__ import annotations

import copy

__all__ = ["PRESETS", "preset_config"]

_SCALED_SHIFT = {
    "kind": "scalar",
    "factor": [2.0, 0.0],
    "of": {"kind": "backwardShift", "power": 1},
}

_SHIFT_PLUS_IDENTITY = {
    "kind": "directSum",
    "left": _SCALED_SHIFT,
    "right": {"kind": "identity"},
    "split": 512,
}

PRESETS: dict[str, dict] = {
    # Single scaled backward shift hitting a prefix-zero subspace.
    "certify-prefix3": {
        "command": "certify",
        "lambda": [2.0, 0.0],
        "pattern": {"kind": "prefix", "m": 3},
    },
    # Direct sum of the scaled shift with an identity block; the orbit is
    # dense in the left block but nowhere near the full space.
    "certify-left-block": {
        "command": "certify",
        "operator": _SHIFT_PLUS_IDENTITY,
        "lambda": [2.0, 0.0],
        "pattern": {"kind": "rightBlock", "split": 512},
        "targets": 12,
    },
    # The direct sum certified against a prefix pattern instead of its own
    # left block: density transfers to the smaller subspace.
    "certify-direct-sum-prefix3": {
        "command": "certify",
        "operator": _SHIFT_PLUS_IDENTITY,
        "lambda": [2.0, 0.0],
        "pattern": {"kind": "prefix", "m": 3},
        "targets": 12,
    },
    # Criterion evidence on the odd-support subspace (even coordinates
    # pinned to zero), exponents n_k = 2k.
    "criterion-odd-support": {
        "command": "criterion",
        "lambda": [2.0, 0.0],
        "pattern": {"kind": "residue", "a": 0, "b": 2},
        "supportBound": 8,
    },
    # Square of the shift on the stride-2 support subspace.
    "criterion-shift-squared": {
        "command": "criterion",
        "operator": {
            "kind": "scalar",
            "factor": [2.0, 0.0],
            "of": {"kind": "backwardShift", "power": 2},
        },
        "lambda": [2.0, 0.0],
        "pattern": {"kind": "supportIn", "b": 2},
        "targets": 30,
        "supportBound": 8,
        "horizon": 45,
    },
    # Truncated doubled shift direct-summed with a tripled identity:
    # eigenvalue moduli sit well off 1, so every probe must pick a side.
    "spectrum-direct-sum": {
        "command": "spectrum",
        "operator": {
            "kind": "directSum",
            "left": _SCALED_SHIFT,
            "right": {"kind": "scalar", "factor": [3.0, 0.0], "of": {"kind": "identity"}},
            "split": 32,
        },
    },
}


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known: {known}")
    cfg = copy.deepcopy(PRESETS[name])
    cfg["preset"] = name
    return cfg
