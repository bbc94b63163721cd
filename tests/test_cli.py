import cmath
import hashlib
import importlib.util
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orbitlab import _kernels, cli, constructor, seqspace, subspace
from orbitlab._report import json_text
from orbitlab.cli import (
    _KINDS,
    ExperimentConfig,
    _from_config,
    _to_config,
    main,
    operator_from_config,
    run,
    write_outputs,
)
from orbitlab.errors import ConfigError
from orbitlab.presets import PRESETS
from orbitlab.seqspace import (
    BackwardShift,
    Diagonal,
    DirectSum,
    FiniteMatrix,
    ForwardShift,
    Identity,
    ScalarMultiple,
)
from orbitlab.subspace import PrefixZero, ResidueZero, RightBlockZero, SupportIn
from conftest import non_finite_error


def _write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _run(tmp_path, data, out="out", extra=()):
    cfg = _write_cfg(tmp_path, data)
    out_dir = tmp_path / out
    rc = main([cfg, "--out-dir", str(out_dir), *extra])
    return rc, out_dir


def _report(out_dir):
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))


class TestDeterminism:
    def test_preset_runs_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ORBITLAB_OUT", raising=False)
        data = {"command": "preset", "preset": "certify-prefix3"}
        rc1, d1 = _run(tmp_path, data, out="first")
        rc2, d2 = _run(tmp_path, data, out="second")
        assert rc1 == rc2 == 0
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
        assert (d1 / "table.csv").read_bytes() == (d2 / "table.csv").read_bytes()

    def test_certify_table_shape(self, tmp_path):
        rc, out = _run(tmp_path, {"command": "preset", "preset": "certify-prefix3"})
        assert rc == 0
        table = (out / "table.csv").read_bytes()
        assert b"\r" not in table
        lines = table.decode().splitlines()
        assert lines[0] == "n,k_n,defect,distance,bound,pass"
        assert len(lines) == 1 + 21  # header + targets 0..20

    def test_report_carries_config_echo(self, tmp_path):
        rc, out = _run(tmp_path, {"command": "preset", "preset": "certify-prefix3"})
        rep = _report(out)
        assert rep["preset"] == "certify-prefix3"
        assert rep["command"] == "certify"
        assert rep["passed"] is True
        assert rep["config"]["lambda"] == [2.0, 0.0]
        assert rep["config"]["pattern"] == {"kind": "prefix", "m": 3}


# SHA-256 of report.json and table.csv for the sparse presets.  A refactor
# that is meant to leave the outputs alone must leave these digests alone.
# spectrum-direct-sum is left out: its eigenvalue moduli come from LAPACK.
PRESET_DIGESTS = {
    "certify-prefix3": (
        "109be049f7e774f6632f8af1eae828f6aa765e2dbf5f14bf6ebe99b4c62455ca",
        "564bbb721e13b552f68d12a4c71a4da3fa45b5404933963740e3b18c6c7d0b52",
    ),
    "certify-left-block": (
        "8194c8a15579ac3938d6ed5bd7dc705512e1a85b9a56ec082786bf1a715ee466",
        "f0ff74ca399ef98ddcca97002e62d4cc458004bf33efa977598f54b406be310f",
    ),
    "certify-direct-sum-prefix3": (
        "583d7501bc2cc6a8fa1756e511dd34b1b51ea749c865f411f43ef63cf8860be0",
        "0093901b7c3439007fc8b8b6a4116aab0988b8f286d8567946a10f7654b58257",
    ),
    "criterion-odd-support": (
        "e61c1a9d48c8655ba082c1f349871464913ec65a649a0b961aa43f814e565af8",
        "e6d8442b8f52d5e550aef69534b71dc82954c88273b44db389898e8926cee3c0",
    ),
    "criterion-shift-squared": (
        "5188698ec663b06d1969ba43618fcbcc616b23f098556ec236a0dc710c11132f",
        "112dd4ad83636e41230bcb25c13c662af6b3f7f7efb013c8bf8a132a186aab68",
    ),
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_preset_states_only_what_differs_from_its_command(preset):
    stored = PRESETS[preset]
    defaults = cli._COMMANDS[stored["command"]].defaults
    scalars = {key: default for _, key, _, default, _ in cli._SCALARS}
    restated = {
        key: value
        for key, value in stored.items()
        if key in scalars and value == defaults.get(key, scalars[key])
    }
    assert restated == {}


@pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
def test_sparse_preset_outputs_keep_their_bytes(preset, tmp_path):
    result = run(ExperimentConfig.from_dict({"command": "preset", "preset": preset}))
    paths = write_outputs(result, tmp_path)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    assert digests == PRESET_DIGESTS[preset]


_PREFIX3 = {"kind": "prefix", "m": 3}
IDENTITY = {"kind": "identity"}
_COMMON = {
    "horizon": 0,
    "resolutionLevel": 1,
    "seed": 0,
    "supportBound": 6,
    "targets": 0,
    "tol": 1e-9,
}
_SCALED = {"lambda": [2.0, 0.0], "pattern": _PREFIX3}

_DIRECT_SUM = {"command": "preset", "preset": "certify-direct-sum-prefix3"}

# perfbench's two probe configs, at lambda = 2 and at 2 e^{0.7i}, and a
# lambda B^2 probe on the same level-2 grid, whose survivors collapse.
_ROTATED = 2 * cmath.exp(0.7j)
_PROBE_HIT = {
    "command": "probe",
    "pattern": {"kind": "residue", "a": 0, "b": 2},
    "truncationDim": 256,
    "horizon": 50,
    "probe": {"gridLevel": 2, "gridSupport": 4},
    "expect": "found",
}
_PROBE_NONE = {
    "command": "probe",
    "pattern": _PREFIX3,
    "truncationDim": 256,
    "horizon": 50,
    "expect": "none",
}
_PROBE_SHIFT_SQUARED = {
    "command": "probe",
    "operator": {
        "kind": "scalar",
        "factor": [2.0, 0.0],
        "of": {"kind": "backwardShift", "power": 2},
    },
    "pattern": {"kind": "supportIn", "b": 2},
    "truncationDim": 64,
    "horizon": 30,
    "probe": {"gridLevel": 2, "gridSupport": 4},
    "expect": "found",
}

# Runs the presets never reach, through ``main``: the config, the exit code,
# the SHA-256 of report.json and table.csv (None when none is written) and
# stderr.  Prefix-3 at 1,000 targets holds windows past the float range,
# and bounds past the normal range.  From 31 targets on, the direct sum's
# windows cross its split at 512: at 41 and 42 targets it fails honestly,
# on the rows whose window sits in the identity block, and row 30 reads a
# distance that only the entries kept there make (1.5e-155).  The three
# runs before the last decide norm tests past the float range exactly.  The
# last one's bounds sum exact powers of a modulus one ulp below 2, whose
# odd part is 2**53 - 1.
PINNED_RUNS = {
    "certify-prefix3-t1000": (
        {"command": "preset", "preset": "certify-prefix3", "targets": 1000},
        0,
        "25a30607de2e265a442d596625c15553c83116abde3d575907309dbeca18fbec",
        "716d32566739a7c0ecdbeae3b472e5f1d8b1b57ab17b00a6f0401a56e4a7ecf4",
        "",
    ),
    "certify-direct-sum-prefix3-t41": (
        {**_DIRECT_SUM, "targets": 41},
        1,
        "1180ea46e8d22ee2d90b2a7ec1b9168bc5f75bbbebd9886ed2e064015ac76657",
        "2817fb85de7a75899258156430818fd5c138f3b8c538bef58bf733909a35c06a",
        "",
    ),
    "certify-direct-sum-prefix3-t42": (
        {**_DIRECT_SUM, "targets": 42},
        1,
        "76a0237307e13acdadc3e7dbe0c2f975c2ae71558322f788aa28f4d3aed69e3f",
        "5b519194f97f9f532b0ffe6537b36a82186d01dcd6871b51cfb112f28420e013",
        "",
    ),
    "construct-lam1.1-t120": (
        {"command": "construct", "lambda": [1.1, 0], "pattern": _PREFIX3, "targets": 120},
        0,
        "a9b539132e5d7bf2818d0b150e908f426e76030e916066892e4c1ceed0a2692f",
        "6f78730f78b6f380eab9378e7ad54515560fcc583e28a035618d15e6388bac40",
        "",
    ),
    "probe-residue-hit-lam2": (
        {**_PROBE_HIT, "lambda": [2.0, 0.0]},
        0,
        "f14f497616553b1d8cdbc7656e082d461c763a2420345b165acb5775655d6a1b",
        "ecee346b82f02194886aaeeb7e95d1ec0cb95fa3cb50b22277f4a9443d64b337",
        "",
    ),
    "probe-prefix-none-lam2": (
        {**_PROBE_NONE, "lambda": [2.0, 0.0]},
        0,
        "3fddd1f8c48c4455f29c353e2d2f8b93debfcab08afb0e0415a8434c0b529eba",
        "792aaa20c1a0079b5d38a4d86c75d19999e38d7218beb6bc0a9dfda20da82ee2",
        "",
    ),
    "probe-residue-hit-rotated": (
        {**_PROBE_HIT, "lambda": [_ROTATED.real, _ROTATED.imag]},
        0,
        "37bd4e059522b82b14a4e1016095a440e15f30f2e5b271c2f833830680878b66",
        "ecee346b82f02194886aaeeb7e95d1ec0cb95fa3cb50b22277f4a9443d64b337",
        "",
    ),
    "probe-prefix-none-rotated": (
        {**_PROBE_NONE, "lambda": [_ROTATED.real, _ROTATED.imag]},
        0,
        "3f871df00589ec65388bc2f0e0335ca1c59e902fe8e6a8f372ba149f224bb497",
        "792aaa20c1a0079b5d38a4d86c75d19999e38d7218beb6bc0a9dfda20da82ee2",
        "",
    ),
    "probe-shift-squared": (
        _PROBE_SHIFT_SQUARED,
        0,
        "0b669a5ca299edb80d76de8c2c36995227a918b2a1c00ddc1a8808bad4b382c9",
        "8a10efb57324656060823b5878196decf7a5976d6b57963fe81d1b32f68b7f8a",
        "",
    ),
    "certify-lam1e10i-prefix2-t120": (
        {"command": "certify", "lambda": [0, 1e10], "pattern": {"kind": "prefix", "m": 2}, "targets": 120},
        0,
        "9a825e6e13e9982efd76bc638e07ad826574453cf0b16b29ac96ae1866077414",
        "8ef7d2f40ff05bca41f0160750903ee0cba07fdbc1199fdce76c03da34ca787e",
        "",
    ),
    "certify-lam3-prefix3-t700": (
        {"command": "certify", "lambda": [3, 0], "pattern": _PREFIX3, "targets": 700},
        0,
        "e1643ff387c7b5b9466178fe7412a8c7109c5401c4188aaababbf83d06d2fdd0",
        "63d81eec55cd119162ef64a627985be44d052be802faf48c9cb2abb801a503bd",
        "",
    ),
    "construct-lam1e200-prefix1-t40": (
        {"command": "construct", "lambda": [1e200, 0], "pattern": {"kind": "prefix", "m": 1}, "targets": 40},
        0,
        "22a30171eb818b22c623e10e299dc8ef1848329a8bcc0e8b426d9885ad0e2919",
        "0ed649e20a50a4e5936a4977ef025b028ea466c70a66cf0e6781cb19e98a8534",
        "",
    ),
    "certify-lam2ulp-prefix3-t600": (
        {"command": "certify", "lambda": [1.9999999999999998, 0], "pattern": _PREFIX3, "targets": 600},
        0,
        "d651331d07a6547e13b2e9a725294df686f532f6e8474451883e517d8045f7fd",
        "1a4bbfba392a6ab08ee6f70da0ad2a7219aaf44917e6070b8e1043bc58ae9e93",
        "",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_runs_past_the_presets_keep_their_bytes(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ORBITLAB_OUT", raising=False)
    data, code, report, table, err = PINNED_RUNS[name]
    rc, out = _run(tmp_path, data)
    assert rc == code
    assert capsys.readouterr().err == err
    digests = [
        hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
        for p in (out / "report.json", out / "table.csv")
    ]
    assert digests == [report, table]


def _same_outputs():
    """``tools/same_outputs.py``, whose ``workload_configs`` lists every
    perfbench experiment at seeds 0-3."""
    path = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("_test_cli_same_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


_ECHOED = {
    **{f"preset/{name}": {"command": "preset", "preset": name} for name in PRESETS},
    **dict(_same_outputs().workload_configs()),
    **{f"pinned/{name}": run[0] for name, run in PINNED_RUNS.items()},
}


@pytest.mark.parametrize("name", sorted(_ECHOED))
def test_a_config_echo_parses_to_itself(name):
    # A preset beside a command is a config error, so the echo's preset goes.
    echo = dict(ExperimentConfig.from_dict(_ECHOED[name]).normalized)
    echo.pop("preset", None)
    again = ExperimentConfig.from_dict(echo).normalized
    assert json_text(again) == json_text(echo)


# report.json is written by a one-pass writer that must give json.dumps's
# bytes on anything a report can hold: nested and empty dicts and lists,
# big ints, bools, None, floats at the edges of the range, and strings
# with non-ASCII, control and surrogate characters.
_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-320, 1e308, -1.7976931348623157e308, 0.1]),
)
_JSON_STRINGS = st.one_of(
    st.text(max_size=8), st.sampled_from(["", "\x00\x1f\"\\/", "λ→∞", "\u2028\ud800", "\U0001f600"])
)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**400), 10**400),
    _JSON_FLOATS,
    _JSON_STRINGS,
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(_JSON_STRINGS, kids, max_size=4),
    ),
    max_leaves=12,
)


@seed(21)
@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_JSON_STRINGS, _JSON_VALUES, max_size=5))
def test_report_text_matches_json_dumps(report):
    assert json_text(report) == json.dumps(report, sort_keys=True, indent=2)


def test_write_outputs_writes_json_dumps_bytes(tmp_path):
    result = run(ExperimentConfig.from_dict({"command": "preset", "preset": "criterion-odd-support"}))
    report_path, _ = write_outputs(result, tmp_path)
    expected = json.dumps(result.report, sort_keys=True, indent=2) + "\n"
    assert report_path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_outputs_refuses_a_non_finite_float_as_plain_does(bad, tmp_path):
    report = {"command": "probe", "report": {"rows": [1.0, {"value": bad}], "n": 2.0}}
    with pytest.raises(ArithmeticError) as plain:
        for key, value in report.items():
            cli._name_non_finite(value, key)
    assert str(plain.value) == f"report.rows[1].value is {bad}; report.json holds only finite numbers"
    with pytest.raises(ArithmeticError) as written:
        write_outputs(cli.RunResult(False, report, ["n"], [[1]]), tmp_path)
    assert str(written.value) == str(plain.value)
    assert not (tmp_path / "report.json").exists()


def test_run_returns_a_non_finite_report_that_main_refuses(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "eigen_orbit_pairing", lambda *args: math.nan)
    data = {"command": "kernel", "eigenInstances": 1, "chainInstances": 1}
    result = run(ExperimentConfig.from_dict(data))
    assert math.isnan(result.report["report"]["eigen"]["maxDeviation"])
    rc, out = _run(tmp_path, data)
    assert (rc, capsys.readouterr().err) == (
        2,
        non_finite_error("report.eigen.maxDeviation", math.nan),
    )
    assert not (out / "report.json").exists() and not (out / "table.csv").exists()


# One minimal config per command and the whole config echo it must produce:
# the defaults each command fills in and the extra keys it echoes.
ECHOES = {
    "construct": (
        {"command": "construct", "lambda": [2, 0], "pattern": _PREFIX3},
        {**_COMMON, **_SCALED, "command": "construct", "targets": 20, "truncationDim": 512},
    ),
    "certify": (
        {"command": "certify", "lambda": [2, 0], "pattern": _PREFIX3},
        {**_COMMON, **_SCALED, "command": "certify", "targets": 20, "truncationDim": 512},
    ),
    "criterion": (
        {"command": "criterion", "lambda": [2, 0], "pattern": _PREFIX3},
        {
            **_COMMON,
            **_SCALED,
            "command": "criterion",
            "targets": 50,
            "truncationDim": 128,
            "horizon": 30,
            "tol": 1e-12,
        },
    ),
    "probe": (
        {"command": "probe", "lambda": [2, 0], "pattern": _PREFIX3},
        {
            **_COMMON,
            **_SCALED,
            "command": "probe",
            "truncationDim": 256,
            "horizon": 50,
            "probe": {
                "gridLevel": 1,
                "gridSupport": 4,
                "uIndex": 1,
                "uRadius": 0.25,
                "vIndex": 2,
                "vRadius": 0.25,
            },
            "expect": "found",
        },
    ),
    "findim": (
        {"command": "findim", "pattern": _PREFIX3},
        {
            **_COMMON,
            "command": "findim",
            "pattern": _PREFIX3,
            "supportBound": 4,
            "truncationDim": 4,
            "horizon": 10000,
            "netLevel": 1,
            "epsilon": 0.1,
            "trials": 3,
        },
    ),
    "spectrum": (
        {"command": "spectrum", "operator": {"kind": "identity"}},
        {
            **_COMMON,
            "command": "spectrum",
            "operator": {"kind": "identity"},
            "truncationDim": 64,
            "horizon": 400,
        },
    ),
    "kernel": (
        {"command": "kernel"},
        {
            **_COMMON,
            "command": "kernel",
            "truncationDim": 8,
            "horizon": 12,
            "eigenInstances": 100,
            "chainInstances": 50,
            "eigenTol": 1e-8,
            "chainTol": 1e-7,
        },
    ),
    "jordan": (
        {"command": "jordan"},
        {**_COMMON, "command": "jordan", "truncationDim": 4, "horizon": 12, "tol": 1e-10},
    ),
}


@pytest.mark.parametrize("command", list(ECHOES))
def test_config_echo(tmp_path, command):
    data, echo = ECHOES[command]
    rc, out = _run(tmp_path, data)
    assert rc in (0, 1)
    assert _report(out)["config"] == echo


# A valid value for every key that only one command reads, from its echo.
_EXTRA_VALUES = {key: echo[key] for _, echo in ECHOES.values() for key in echo if key in cli._EXTRAS}

# A valid value for every config key that is no command's default.
_OTHER_VALUES = {
    "lambda": [3, 0],
    "operator": {"kind": "identity"},
    "pattern": {"kind": "prefix", "m": 2},
    "targets": 7,
    "supportBound": 5,
    "resolutionLevel": 2,
    "truncationDim": 3,
    "horizon": 5,
    "tol": 1e-6,
    "seed": 5,
    "netLevel": 2,
    "epsilon": 0.2,
    "trials": 2,
    "probe": {"gridLevel": 2},
    "expect": "none",
    "eigenInstances": 7,
    "chainInstances": 7,
    "eigenTol": 1e-6,
    "chainTol": 1e-6,
}
_UNREAD = [
    (c, key)
    for c in ECHOES
    for key in sorted({key for _, key, *_ in cli._FIELDS} - set(cli._COMMANDS[c].reads))
]


@pytest.mark.parametrize("command, key", _UNREAD)
def test_a_key_only_another_command_reads_is_refused(command, key, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ORBITLAB_OUT", raising=False)
    rc, out = _run(tmp_path, {**ECHOES[command][0], key: _OTHER_VALUES[key]})
    assert (rc, capsys.readouterr().err) == (2, f"config error: {command} does not read ['{key}']\n")
    assert not out.exists()


@pytest.mark.parametrize("command, key", _UNREAD)
def test_an_unread_key_passes_only_at_the_value_echoed_anyway(command, key):
    data, echo = ECHOES[command]
    if key in echo:  # a shared scalar, echoed at the command's default
        assert ExperimentConfig.from_dict({**data, key: echo[key]}).normalized == echo
        return
    # An extra or an object, which the command never echoes: null reads as
    # absent, and any value is refused, an extra's default too.
    if key not in cli._EXTRAS:
        assert ExperimentConfig.from_dict({**data, key: None}).normalized == echo
    with pytest.raises(ConfigError, match=rf"^{command} does not read \['{key}'\]$"):
        ExperimentConfig.from_dict({**data, key: _EXTRA_VALUES.get(key, _OTHER_VALUES[key])})


_KEY_OF = {name: key for name, key, *_ in cli._FIELDS}
_RUN_CONFIGS = [data for data, _ in ECHOES.values()] + [
    {"command": "preset", "preset": name} for name in sorted(PRESETS)
]


@pytest.mark.parametrize("command", list(ECHOES))
def test_a_command_reads_exactly_the_keys_it_declares(command, monkeypatch):
    """Each run touches only config fields whose keys its command reads,
    and every key it reads is touched by some ECHOES config or preset."""
    touched = set()
    plain = ExperimentConfig.__getattribute__

    def recorded(self, name):
        if name in _KEY_OF:
            touched.add(_KEY_OF[name])
        return plain(self, name)

    parsed = (ExperimentConfig.from_dict(data) for data in _RUN_CONFIGS)
    configs = [cfg for cfg in parsed if cfg.command == command]
    monkeypatch.setattr(ExperimentConfig, "__getattribute__", recorded)
    for cfg in configs:
        cli._COMMANDS[command].run(cfg)
    assert touched == set(cli._COMMANDS[command].reads)


def test_a_preset_overlay_with_a_foreign_key_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ORBITLAB_OUT", raising=False)
    rc, out = _run(tmp_path, {"command": "preset", "preset": "certify-prefix3", "netLevel": 2})
    assert (rc, capsys.readouterr().err) == (2, "config error: certify does not read ['netLevel']\n")
    assert not out.exists()


def _noun(cfg) -> str:
    """Configs of a pattern kind read as patterns, all others as operators."""
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    return "pattern" if isinstance(kind, str) and kind in _KINDS["pattern"] else "operator"


class TestOperatorConfig:
    SHIFT = {"kind": "backwardShift", "power": 1}
    SCALED_SHIFT = {"kind": "scalar", "factor": [2.0, 0.0], "of": SHIFT}
    CASES = [
        (BackwardShift(2), {"kind": "backwardShift", "power": 2}),
        (ForwardShift(1), {"kind": "forwardShift", "power": 1}),
        (Identity(), {"kind": "identity"}),
        (ScalarMultiple(2.0, BackwardShift(1)), SCALED_SHIFT),
        (
            Diagonal((1.0, 0.5 - 0.25j)),
            {"kind": "diagonal", "weights": [[1.0, 0.0], [0.5, -0.25]]},
        ),
        (
            DirectSum(ScalarMultiple(2.0, BackwardShift(1)), Identity(), 512),
            {"kind": "directSum", "left": SCALED_SHIFT, "right": IDENTITY, "split": 512},
        ),
        (
            ScalarMultiple(0.5j, DirectSum(ForwardShift(3), ScalarMultiple(-1.0, Identity()), 2)),
            {
                "kind": "scalar",
                "factor": [0.0, 0.5],
                "of": {
                    "kind": "directSum",
                    "left": {"kind": "forwardShift", "power": 3},
                    "right": {"kind": "scalar", "factor": [-1.0, 0.0], "of": IDENTITY},
                    "split": 2,
                },
            },
        ),
        (
            FiniteMatrix(((2.0, 1.0), (0.0, 2.0 + 1.0j))),
            {
                "kind": "finiteMatrix",
                "entries": [[[2.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 1.0]]],
            },
        ),
        (PrefixZero(3), {"kind": "prefix", "m": 3}),
        (ResidueZero(0, 2), {"kind": "residue", "a": 0, "b": 2}),
        (SupportIn(2), {"kind": "supportIn", "b": 2}),
        (RightBlockZero(64), {"kind": "rightBlock", "split": 64}),
    ]

    @pytest.mark.parametrize(
        "op, cfg", CASES, ids=[f"{i}-{c[1]['kind']}" for i, c in enumerate(CASES)]
    )
    def test_round_trip(self, op, cfg):
        noun = _noun(cfg)
        assert _to_config(noun, op) == cfg
        assert _from_config(noun, cfg, noun) == op

    def test_power_defaults_to_one(self):
        assert operator_from_config({"kind": "backwardShift"}) == BackwardShift(1)
        assert operator_from_config({"kind": "forwardShift"}) == ForwardShift(1)

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "rotate"},
            {"power": 1},
            {"kind": "scalar", "factor": [2, 0]},
            {"kind": "directSum", "left": IDENTITY, "right": IDENTITY},
            {"kind": "diagonal"},
            {"kind": "finiteMatrix"},
            {"kind": "finiteMatrix", "entries": []},
            {"kind": "finiteMatrix", "entries": [[[1, 0], [0, 0]]]},
            {"kind": "backwardShift", "power": 1.9},
            {"kind": "forwardShift", "power": True},
            {"kind": "backwardShift", "power": 0},
            {"kind": "directSum", "left": IDENTITY, "right": IDENTITY, "split": "4"},
            {"kind": "identity", "power": 3},
            {"kind": "scalar", "factor": [math.inf, 0], "of": IDENTITY},
            {"kind": "scalar", "factor": [10**400, 0], "of": IDENTITY},
            {"kind": "diagonal", "weights": [[1, 0], [math.nan, 0]]},
            "identity",
            ["identity"],
            None,
            {"kind": ["identity"]},
            {"kind": "nope"},
            {"kind": "prefix"},
            {"kind": "prefix", "m": 3, "extra": 1},
            {"kind": "residue", "a": 2, "b": 2},
            {"kind": "prefix", "m": 2.9},
            {"kind": "prefix", "m": True},
            {"kind": "rightBlock", "split": "4"},
            "prefix",
        ],
    )
    def test_bad_configs_rejected(self, bad):
        with pytest.raises(ConfigError):
            _from_config(_noun(bad), bad, "where")


# The whole error line of the rejected configs whose text is pinned.
_REJECTION_TEXT = {
    "underflowing-probe": (
        "error: backsolve: lambda^-n is past the float range for lambda = (1e-170+0j), n = 2\n"
    ),
    "non-finite-report": (
        "error: report.eigenvalueModuli[1] is inf; report.json holds only finite numbers\n"
    ),
    "overflowing-jordan": (
        "error: jordan_orbit: T^n y is past the float range for lambda = (2+0j), p = 4, n = 996\n"
    ),
    "jordan-power-past-float-range": (
        "error: jordan_orbit: T^n y is past the float range for lambda = (2+0j), p = 1, n = 1024\n"
    ),
    "kernel-smaller-size": "config error: kernel does not read ['truncationDim']\n",
    "kernel-larger-size": "config error: kernel does not read ['truncationDim']\n",
    "jordan-other-size": "config error: jordan does not read ['truncationDim']\n",
    "no-allowed-coordinate": (
        "config error: pattern forbids every coordinate below the dimension\n"
    ),
    "jordan-horizon-2": "config error: jordan needs horizon >= 4, its largest rank, got 2\n",
    "jordan-horizon-3": "config error: jordan needs horizon >= 4, its largest rank, got 3\n",
    "kernel-horizon-4": (
        "config error: kernel needs horizon >= 5 to fit its rank-3 chains, got 4\n"
    ),
    "kernel-horizon-0": (
        "config error: kernel needs horizon >= 5 to fit its rank-3 chains, got 0\n"
    ),
    "criterion-lambda-b-no-lambda": "config error: criterion requires 'lambda'\n",
    "criterion-lambda-b-unimodular": (
        "config error: criterion requires |lambda| > 1, got modulus 1.0\n"
    ),
    "criterion-no-targets": "config error: criterion needs targets >= 2, got 0\n",
    "criterion-zero-target-only": "config error: criterion needs targets >= 2, got 1\n",
    "operator-nested-too-deeply": "config error: config is nested too deeply\n",
}


def _nested_scalars(depth):
    op = {"kind": "identity"}
    for _ in range(depth):
        op = {"kind": "scalar", "factor": [1, 0], "of": op}
    return op


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        rc = main([str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main([str(path), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_a_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"command": "jordan", "note": "\u00e9"}'.encode("latin-1"))
        rc = main([str(path), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: cannot read config: 'utf-8' codec can't decode")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_json_nested_past_the_recursion_limit_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        rc = main([str(path), "--out-dir", str(tmp_path / "out")])
        assert (rc, capsys.readouterr().err) == (2, "config error: config is nested too deeply\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "data",
        [
            {"command": "spectrum", "truncationDim": 2, "horizon": 4},
            {"command": "probe", "pattern": _PREFIX3, "truncationDim": 8, "horizon": 2},
        ],
        ids=["spectrum", "probe"],
    )
    def test_the_nesting_boundary_is_where_parsing_fails(
        self, tmp_path, capsys, monkeypatch, data
    ):
        # Found by bisection: the smallest depth of nested scalars that main
        # refuses as nested too deeply.  There the config fails to parse, so
        # nothing runs; one level less runs and writes both files.
        runs = []
        monkeypatch.setattr(cli, "run", lambda cfg: runs.append(cfg) or run(cfg))

        def outcome(depth):
            runs.clear()
            rc, out = _run(tmp_path, {**data, "operator": _nested_scalars(depth)}, out=str(depth))
            deep = capsys.readouterr().err == "config error: config is nested too deeply\n"
            return rc, deep, out

        low, high = 0, 800
        assert outcome(high)[:2] == (2, True)
        while high - low > 1:
            mid = (low + high) // 2
            if outcome(mid)[1]:
                high = mid
            else:
                low = mid
        rc, deep, out = outcome(high - 1)
        assert rc in (0, 1) and not deep and len(runs) == 1
        assert (out / "report.json").exists() and (out / "table.csv").exists()
        rc, deep, out = outcome(high)
        assert rc == 2 and deep and runs == [] and not out.exists()

    def test_certify_quotes_a_deep_operator_in_part(self, tmp_path, capsys):
        # The repr of 300 nested scalars is 11,710 characters; the line
        # quotes the first 200 of them.  A short repr is quoted whole.
        deep = {"command": "certify", "lambda": [2, 0], "pattern": _PREFIX3}
        rc, _ = _run(tmp_path, {**deep, "operator": _nested_scalars(300)})
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1 and len(err.encode()) < 1024
        assert err.endswith(", operand=ScalarMult... (11710 characters)\n")
        rc, _ = _run(tmp_path, {**deep, "operator": {"kind": "identity"}}, out="short")
        assert (rc, capsys.readouterr().err) == (
            2,
            "error: certify reads only lam B and lam B + I off the windows"
            " (lam = (2+0j)), not Identity()\n",
        )

    @pytest.mark.parametrize(
        "data",
        [
            {"command": "fly"},
            {"command": "certify", "lambda": [1, 0], "pattern": {"kind": "prefix", "m": 3}},
            {"command": "certify", "lambda": [2, 0], "pattern": {"kind": "prefix", "m": 3}, "bogus": 1},
            {"command": "certify", "lambda": [2, 0], "pattern": {"kind": "weird"}},
            {"command": "certify", "lambda": [2, 0]},
            {"command": "spectrum"},
            {"command": "preset", "preset": "no-such-preset"},
            {"command": "findim", "pattern": {"kind": "prefix", "m": 1}, "truncationDim": 40},
            {"command": "probe", "lambda": [2, 0], "pattern": {"kind": "prefix", "m": 1}, "probe": {"uRadius": 0}},
            # Non-finite numbers (json.loads reads NaN and Infinity).
            {"command": "construct", "lambda": [math.nan, 0], "pattern": _PREFIX3, "targets": 3},
            {"command": "certify", "lambda": [2, 0], "pattern": _PREFIX3, "tol": math.nan},
            {"command": "findim", "pattern": _PREFIX3, "epsilon": math.inf},
            {"command": "probe", **_SCALED, "probe": {"uRadius": math.nan}},
            {"command": "kernel", "eigenTol": math.nan},
            {"command": "jordan", "tol": 10**400},
            # Non-integer or unknown fields in pattern and operator objects.
            {"command": "construct", "lambda": [2, 0], "pattern": {"kind": "prefix", "m": 2.9}},
            {"command": "spectrum", "operator": {"kind": "backwardShift", "power": 1.9}},
            {"command": "spectrum", "operator": {"kind": "backwardShift", "power": True}},
            {
                "command": "spectrum",
                "operator": {
                    "kind": "directSum",
                    "left": {"kind": "identity"},
                    "right": {"kind": "identity"},
                    "split": "4",
                },
            },
            {"command": "spectrum", "operator": {"kind": "identity", "power": 3}},
            # Accepted by the parser, rejected by the run with ValueError.
            {"command": "criterion", "lambda": [2, 0], "pattern": {"kind": "prefix", "m": 3}, "horizon": 0},
            {
                "command": "findim",
                "pattern": {"kind": "prefix", "m": 1},
                "truncationDim": 8,
                "supportBound": 8,
                "horizon": 100,
                "trials": 1,
            },
            # Accepted by the parser, overflowing in the run.
            {
                "command": "probe",
                "lambda": [1.3e154, 4.1e153],
                "pattern": {"kind": "residue", "a": 0, "b": 2},
                "truncationDim": 64,
                "horizon": 6,
            },
            # Accepted by the parser, underflowing in the run.
            {
                "command": "probe",
                "lambda": [1e-170, 0],
                "pattern": {"kind": "residue", "a": 0, "b": 2},
                "truncationDim": 64,
                "horizon": 6,
            },
            # A finite config whose report would hold a non-finite value.
            {
                "command": "spectrum",
                "operator": {"kind": "finiteMatrix", "entries": [[[1e308, 0]] * 2] * 2},
                "truncationDim": 2,
                "horizon": 5,
            },
            {"command": "jordan", "horizon": 1000},
            {"command": "jordan", "horizon": 1100},
            # A size that these commands do not read, away from the echoed default.
            {"command": "kernel", "truncationDim": 3},
            {"command": "kernel", "truncationDim": 12},
            {"command": "jordan", "truncationDim": 2},
            # Checked before any trial is drawn.
            {"command": "findim", "pattern": {"kind": "prefix", "m": 9}, "truncationDim": 4},
            # Past Python's recursion limit in the parser.
            {"command": "spectrum", "operator": _nested_scalars(400)},
            # jordan checks rank p at the powers p..horizon, and criterion's
            # sample 0 is the zero vector: each run would check nothing somewhere.
            {"command": "jordan", "horizon": 2},
            {"command": "jordan", "horizon": 3},
            {"command": "criterion", **_SCALED, "targets": 0},
            {"command": "criterion", **_SCALED, "targets": 1},
            # Chains have rank 1..3, and rank 3's fit needs horizon >= 5,
            # whatever the seed draws.
            {"command": "kernel", "eigenInstances": 1, "chainInstances": 1, "horizon": 4},
            {"command": "kernel", "eigenInstances": 0, "chainInstances": 9, "horizon": 0},
            # Without an operator, criterion runs on lambda B.
            {"command": "criterion", "pattern": _PREFIX3},
            {"command": "criterion", "lambda": [0, 1], "pattern": _PREFIX3},
        ],
        ids=[
            "unknown-command",
            "unimodular-lambda",
            "unknown-key",
            "bad-pattern",
            "missing-pattern",
            "missing-operator",
            "missing-preset",
            "huge-matrix-dim",
            "zero-radius",
            "nan-lambda",
            "nan-tol",
            "infinite-epsilon",
            "nan-probe-radius",
            "nan-eigen-tol",
            "tol-past-float-range",
            "fractional-pattern-field",
            "fractional-power",
            "boolean-power",
            "string-split",
            "unknown-operator-field",
            "no-criterion-exponents",
            "net-over-point-cap",
            "overflowing-probe",
            "underflowing-probe",
            "non-finite-report",
            "overflowing-jordan",
            "jordan-power-past-float-range",
            "kernel-smaller-size",
            "kernel-larger-size",
            "jordan-other-size",
            "no-allowed-coordinate",
            "operator-nested-too-deeply",
            "jordan-horizon-2",
            "jordan-horizon-3",
            "criterion-no-targets",
            "criterion-zero-target-only",
            "kernel-horizon-4",
            "kernel-horizon-0",
            "criterion-lambda-b-no-lambda",
            "criterion-lambda-b-unimodular",
        ],
    )
    def test_rejected_configs(self, tmp_path, capsys, data, request):
        rc, out = _run(tmp_path, data)
        assert rc == 2
        assert not (out / "report.json").exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(("config error: ", "error: "))
        if request.node.callspec.id in _REJECTION_TEXT:
            assert err == _REJECTION_TEXT[request.node.callspec.id]

    @pytest.mark.parametrize("tol", [9.99e-301, 1e-310, 5e-324])
    @pytest.mark.parametrize(
        "data",
        [
            {"command": "preset", "preset": "criterion-odd-support"},
            {"command": "preset", "preset": "certify-prefix3"},
            {"command": "jordan"},
        ],
        ids=["criterion", "certify", "jordan"],
    )
    def test_a_tol_below_the_pruning_modulus_exits_two(self, tmp_path, capsys, data, tol):
        rc, out = _run(tmp_path, {**data, "tol": tol}, out="tiny")
        assert rc == 2
        assert not (out / "report.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: tol must be at least 1e-300")
        assert len(err.splitlines()) == 1
        rc, _ = _run(tmp_path, {**data, "tol": 1e-300}, out="at-modulus")
        assert rc in (0, 1)

    # Each level is refused before any power of two its grid needs is built.
    @pytest.mark.parametrize(
        "data, line",
        [
            (
                {"command": "findim", "pattern": {"kind": "prefix", "m": 1}, "netLevel": level},
                f"error: net of more than 2**{6 * (level + 1)} raw points exceeds the cap 2000000",
            )
            for level in (5000, 8000, 10**9)
        ]
        + [
            (
                {"command": "probe", "lambda": [2, 0], "pattern": _PREFIX3,
                 "probe": {"gridLevel": 10**7}},
                f"error: net of more than 2**{2 * (10**7 + 1)} raw points exceeds the cap 2000000",
            ),
        ]
        + [
            (
                {"command": "certify", "lambda": [2, 0], "pattern": _PREFIX3, "targets": 3,
                 "resolutionLevel": level},
                "error: resolution level must be <= 1023, the largest whose grid values are"
                f" floats, got {level}",
            )
            for level in (1024, 10**8)
        ],
        ids=["net5000", "net8000", "net1e9", "grid1e7", "res1024", "res1e8"],
    )
    def test_a_grid_level_past_its_limit_exits_two(
        self, tmp_path, capsys, monkeypatch, data, line
    ):
        side = subspace._grid_side

        def small_side(level):
            assert level <= 1023, f"built the grid side of level {level}"
            return side(level)

        monkeypatch.setattr(subspace, "_grid_side", small_side)
        rc, out = _run(tmp_path, data)
        assert rc == 2
        assert not (out / "report.json").exists()
        assert capsys.readouterr().err == line + "\n"

    def test_a_preset_beside_another_command_is_refused(self, tmp_path, capsys):
        plain = {"command": "certify", "lambda": [2, 0], "pattern": _PREFIX3, "targets": 2}
        for out, preset in (("number", 17), ("name", "certify-prefix3")):
            rc, _ = _run(tmp_path, {**plain, "preset": preset}, out=out)
            assert (rc, capsys.readouterr().err) == (
                2,
                f"config error: preset {preset!r} is given with command 'certify';"
                " a preset run has command 'preset' or none\n",
            )
            assert not (tmp_path / out).exists()
        # A null preset reads as absent; the preset command, or none, expands a name.
        rc, out = _run(tmp_path, {**plain, "preset": None}, out="null")
        assert rc == 0 and _report(out)["preset"] is None
        for out, data in (("preset", {"command": "preset"}), ("none", {})):
            rc, out = _run(tmp_path, {**data, "preset": "certify-prefix3", "targets": 2}, out=out)
            assert rc == 0 and _report(out)["preset"] == "certify-prefix3"
        rc, _ = _run(tmp_path, {"command": "preset"}, out="nameless")
        assert (rc, capsys.readouterr().err) == (2, "config error: preset runs need a preset name\n")

    def test_the_least_sizes_run(self, tmp_path):
        rc, out = _run(tmp_path, {"command": "jordan", "horizon": 4}, out="jordan")
        assert rc == 0 and len(_report(out)["report"]["cases"]) == 12
        rc, out = _run(tmp_path, {"command": "criterion", **_SCALED, "targets": 2}, out="criterion")
        rep = _report(out)["report"]
        assert rc in (0, 1) and len(rep["condI"]) == len(rep["condII"]) == 2

    def test_kernel_horizons_that_run(self, tmp_path):
        # Without chains no Q is fitted; with them, horizon 5 fits rank 3.
        for eigen, chain, horizon in ((3, 0, 0), (3, 0, 4), (2, 9, 5)):
            data = {"command": "kernel", "eigenInstances": eigen, "chainInstances": chain}
            rc, out = _run(tmp_path, {**data, "horizon": horizon}, out=f"{chain}-{horizon}")
            assert rc == 0 and _report(out)["report"]["chain"]["instances"] == chain

    def test_criterion_with_an_operator_reads_no_lambda(self, tmp_path, capsys):
        # The operator is the one the run reads: without a lambda, or with
        # one of modulus at most 1, the body and the table are the same,
        # and the echo names only the lambda that was given.
        preset = {"command": "preset", "preset": "criterion-shift-squared"}
        rc, out = _run(tmp_path, preset, out="preset")
        want = _report(out)
        for lam in (None, [0.5, 0.0], [5.0, 0.0]):
            got_rc, got = _run(tmp_path, {**preset, "lambda": lam}, out=str(lam))
            report = _report(got)
            assert (got_rc, capsys.readouterr().err) == (rc, "")
            assert report["report"] == want["report"]
            assert (got / "table.csv").read_bytes() == (out / "table.csv").read_bytes()
            assert report["config"].get("lambda") == lam
            assert {**report["config"], "lambda": [2.0, 0.0]} == want["config"]

    def test_null_lambda_reads_as_absent(self, tmp_path, capsys):
        rc, out = _run(tmp_path, {"command": "jordan", "lambda": None}, out="null")
        assert rc == 0
        rc, plain = _run(tmp_path, {"command": "jordan"}, out="plain")
        assert (out / "report.json").read_bytes() == (plain / "report.json").read_bytes()

        data = {"command": "preset", "preset": "certify-prefix3", "lambda": None}
        rc, out = _run(tmp_path, data, out="needs")
        assert rc == 2
        assert not (out / "report.json").exists()
        assert capsys.readouterr().err == "config error: certify requires 'lambda'\n"


class TestVerdicts:
    def test_failing_run_exits_one_but_reports(self, tmp_path):
        data = {
            "command": "criterion",
            "lambda": [2, 0],
            "pattern": {"kind": "prefix", "m": 3},
            "targets": 5,
            "horizon": 5,
            "supportBound": 6,
        }
        rc, out = _run(tmp_path, data)
        assert rc == 1
        rep = _report(out)
        assert rep["passed"] is False
        assert rep["verdict"] == "fail"
        assert rep["report"]["verdict"]["condIII"] is False

    def test_criterion_table_agrees_with_the_verdict(self):
        # At this tol and horizon condition II passes on some samples only.
        cfg = ExperimentConfig.from_dict(
            {
                "command": "criterion",
                "lambda": [2, 0],
                "pattern": {"kind": "residue", "a": 0, "b": 2},
                "targets": 12,
                "supportBound": 8,
                "truncationDim": 64,
                "horizon": 2,
                "tol": 0.05,
            }
        )
        result = run(cfg)
        verdict = result.report["report"]["verdict"]
        column = {"I": [], "II": [], "III": []}
        for row in result.table_rows:
            column[row[0]].append(row[-1])
        assert True in column["II"] and False in column["II"]
        for condition, passes in column.items():
            assert passes and verdict[f"cond{condition}"] == all(passes), condition
        assert result.passed is False and result.report["verdict"] == "fail"

    def test_probe_expectations_both_ways(self, tmp_path):
        hit = {
            "command": "probe",
            "lambda": [2, 0],
            "pattern": {"kind": "residue", "a": 0, "b": 2},
            "supportBound": 8,
            "horizon": 30,
            "truncationDim": 128,
        }
        rc, out = _run(tmp_path, hit, out="hit")
        assert rc == 0
        rep = _report(out)
        assert rep["report"]["found"] is True
        assert rep["report"]["n"] % 2 == 0

        miss = {
            "command": "probe",
            "lambda": [2, 0],
            "pattern": {"kind": "prefix", "m": 3},
            "horizon": 40,
            "truncationDim": 256,
            "expect": "none",
        }
        rc, out = _run(tmp_path, miss, out="miss")
        assert rc == 0
        assert _report(out)["report"]["found"] is False

    def test_matrix_probe_never_reaches_past_its_block(self, tmp_path):
        # [[1, 1], [0, 1]] moves e_1 onto index 0, so every power n >= 1 fails
        # invariance at the first allowed basis vector, before e_2, which lies
        # outside the 2x2 block and would raise.
        data = {
            "command": "probe",
            "operator": {"kind": "finiteMatrix", "entries": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]},
            "pattern": {"kind": "prefix", "m": 1},
            "truncationDim": 8,
            "expect": "none",
        }
        rc, out = _run(tmp_path, data)
        assert rc == 0
        assert _report(out)["report"]["found"] is False


class TestRunners:
    def test_construct_row_count(self, tmp_path):
        data = {
            "command": "construct",
            "lambda": [2, 0],
            "pattern": {"kind": "prefix", "m": 3},
            "targets": 6,
        }
        rc, out = _run(tmp_path, data)
        assert rc == 0
        lines = (out / "table.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 7

    @pytest.mark.parametrize("lam", [[1e308, 1e308], [-1.25e308, 1.25e308]])
    def test_certify_near_the_float_maximum(self, tmp_path, lam):
        data = {"command": "certify", "lambda": lam, "pattern": {"kind": "prefix", "m": 1}}
        rc, out = _run(tmp_path, {**data, "targets": 5})
        assert rc == 0
        assert _report(out)["passed"] is True

    def test_findim_quick(self, tmp_path):
        data = {
            "command": "findim",
            "pattern": {"kind": "residue", "a": 0, "b": 2},
            "truncationDim": 4,
            "supportBound": 4,
            "horizon": 2000,
            "trials": 2,
        }
        rc, out = _run(tmp_path, data)
        assert rc == 0
        rep = _report(out)
        for trial in rep["report"]["trials"]:
            assert trial["stabilized"] is True
            assert trial["densityDefect"] >= 0.5

    def test_spectrum_norms_past_1e154(self, tmp_path, capsys):
        data = {
            "command": "spectrum",
            "operator": {"kind": "scalar", "factor": [1e200, 0], "of": IDENTITY},
            "truncationDim": 2,
            "horizon": 5,
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = _run(tmp_path, data)
        assert rc == 0
        assert capsys.readouterr().err == ""
        rep = _report(out)["report"]
        assert rep["eigenvalueModuli"] == [1e200, 1e200]
        for probe in rep["probes"]:
            assert probe["classification"] == "toInfinity"
            assert probe["lastNorm"] == pytest.approx(1e200, rel=1e-15)
            assert probe["ratioTrend"] == pytest.approx(1e200, rel=1e-15)

    def test_kernel_quick(self, tmp_path):
        data = {"command": "kernel", "eigenInstances": 10, "chainInstances": 5}
        rc, out = _run(tmp_path, data)
        assert rc == 0
        rep = _report(out)
        assert rep["report"]["eigen"]["maxDeviation"] <= 1e-8
        assert rep["report"]["chain"]["maxResidual"] <= 1e-7

    def test_jordan_sweep(self, tmp_path):
        rc, out = _run(tmp_path, {"command": "jordan"})
        assert rc == 0
        rep = _report(out)
        assert len(rep["report"]["cases"]) == 12

    def test_preset_overlay(self, tmp_path):
        data = {"command": "preset", "preset": "certify-prefix3", "targets": 6}
        rc, out = _run(tmp_path, data)
        assert rc == 0
        rep = _report(out)
        assert rep["config"]["targets"] == 6
        lines = (out / "table.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 7

    def test_verbose_prints_rows(self, tmp_path, capsys):
        rc, _ = _run(
            tmp_path,
            {"command": "jordan"},
            extra=("--verbose",),
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "maxRelError" in printed
        assert "PASS" in printed


@pytest.mark.parametrize(
    "data, want",
    [
        (
            {"command": "spectrum", "operator": {"kind": "identity"}, "truncationDim": 4},
            {"obstructions.spectral_dichotomy": 3},
        ),
        # Cases p = 1..4 at three lambdas, each checked at n = p..12.
        ({"command": "jordan"}, {"obstructions.jordan_orbit": 126, "seqspace.apply_power": 126}),
    ],
    ids=["spectrum", "jordan"],
)
def test_traced_dense_runners_emit_their_spans(data, want, monkeypatch):
    """perfbench's per-layer metrics read these spans; a runner that stops
    calling through the names its tracer wraps would report them as 0."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        assert run(ExperimentConfig.from_dict(data)).passed
        spans = [name for _, _, name, _, _ in tracer.spans]
    finally:
        tracer.uninstall()
    assert {name: spans.count(name) for name in want} == want


@pytest.mark.parametrize("preset", ["certify-left-block", "certify-direct-sum-prefix3"])
def test_direct_sum_certify_reads_the_windows(preset, monkeypatch):
    # Patched on the class, so ``type(op) is DirectSum`` still holds.
    calls = []
    one_step = DirectSum.apply

    def counted(self, vec):
        calls.append(vec)
        return one_step(self, vec)

    def no_power(op, n, vec):
        raise AssertionError("certify replayed an orbit")

    monkeypatch.setattr(DirectSum, "apply", counted)
    for module in (cli, constructor, seqspace):
        monkeypatch.setattr(module, "apply_power", no_power)
    result = run(ExperimentConfig.from_dict({"command": "preset", "preset": preset}))
    assert result.passed
    assert calls == []


def _nan_on_call(fn, k):
    """``fn``, except that its k-th call (from 0) returns NaN."""
    calls = []

    def patched(*args):
        calls.append(args)
        return math.nan if len(calls) == k + 1 else fn(*args)

    return patched


class TestNanGates:
    """A NaN in a running worst case fails the gate that reads it."""

    @pytest.mark.parametrize(
        "command, name",
        [
            ("kernel", "eigen_orbit_pairing"),
            ("kernel", "generalized_pairing_polynomial"),
            ("jordan", "norm"),
        ],
    )
    def test_a_nan_deviation_fails_the_run(self, command, name, monkeypatch):
        # One instance per kernel chunk, so that each law call is one instance.
        monkeypatch.setattr(_kernels, "_STACK", 13 * 8)  # horizon 12, width 8
        cfg = ExperimentConfig.from_dict(
            {"command": command, "eigenInstances": 3, "chainInstances": 3}
            if command == "kernel"
            else {"command": command}
        )
        assert cli._COMMANDS[command].run(cfg).passed
        monkeypatch.setattr(cli, name, _nan_on_call(getattr(cli, name), 1))
        result = cli._COMMANDS[command].run(cfg)
        assert not result.passed
        assert any(isinstance(c, float) and math.isnan(c) for row in result.table_rows for c in row)


class TestJordanPastNormOverflow:
    """Past n = 512 the lambda = 2 orbit has norms above 1.3e154, whose
    squares overflow; the relative error must still be a real number."""

    def test_horizon_700_passes_with_finite_errors(self, tmp_path):
        rc, out = _run(tmp_path, {"command": "jordan", "horizon": 700})
        assert rc == 0
        for case in _report(out)["report"]["cases"]:
            assert math.isfinite(case["maxRelError"]) and case["pass"]

    @pytest.mark.parametrize("bad_n", [513, 700])
    def test_a_wrong_step_past_512_fails(self, bad_n, monkeypatch):
        # Scale the closed form by 1 + 1e-6 at one step: a relative error of
        # 1e-6 there, which a norm read as inf would hide as 0.0.
        closed_form = cli.jordan_orbit

        def skewed(op, lam, p, y, n):
            out = closed_form(op, lam, p, y, n)
            return out * (1 + 1e-6) if n == bad_n else out

        monkeypatch.setattr(cli, "jordan_orbit", skewed)
        cfg = ExperimentConfig.from_dict({"command": "jordan", "horizon": 700})
        cases = cli._COMMANDS["jordan"].run(cfg).report["cases"]
        for case in cases:
            if case["lambda"] == [2.0, 0.0]:
                assert case["maxRelError"] == pytest.approx(1e-6, rel=1e-3)
                assert not case["pass"]


_TOO_LARGE = "Unable to allocate 58.2 TiB for an array with shape (1, 1000000000001, 4)"


class TestOutputRouting:
    def test_an_unwritable_out_dir_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        rc, _ = _run(tmp_path, {"command": "jordan"}, out="file/out")
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write outputs: ")
        assert str(blocker / "out") in captured.err
        assert len(captured.err.splitlines()) == 1

    # numpy's MemoryError names the allocation; Python's own carries no message.
    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError(_TOO_LARGE), f"error: {_TOO_LARGE}\n"),
            (MemoryError(), "error: out of memory\n"),
        ],
        ids=["numpy", "bare"],
    )
    @pytest.mark.parametrize(
        "data",
        [
            {"command": "findim", "pattern": {"kind": "prefix", "m": 1}, "horizon": 50},
            {"command": "kernel"},
        ],
        ids=lambda data: data["command"],
    )
    def test_an_allocation_failure_exits_two(self, tmp_path, capsys, monkeypatch, data, exc, line):
        # The orbit stack raises as a too-large allocation would; none is made.
        def refuse(*args):
            raise exc

        monkeypatch.setattr(_kernels, "orbit_points", refuse)
        rc, out_dir = _run(tmp_path, data)
        assert (rc, capsys.readouterr(), out_dir.exists()) == (2, ("", line), False)

    def test_env_var_overrides_flag(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env-out"
        monkeypatch.setenv("ORBITLAB_OUT", str(env_dir))
        data = {"command": "jordan"}
        rc, flag_dir = _run(tmp_path, data, out="flag-out")
        assert rc == 0
        assert (env_dir / "report.json").exists()
        assert not flag_dir.exists()
