import json
import math
import warnings

import pytest

from orbitlab.cli import _KINDS, _from_config, _to_config, main, operator_from_config
from orbitlab.errors import ConfigError
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
}


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        rc = main([str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main([str(path), "--out-dir", str(tmp_path)])
        assert rc == 2

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


class TestOutputRouting:
    def test_env_var_overrides_flag(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env-out"
        monkeypatch.setenv("ORBITLAB_OUT", str(env_dir))
        data = {"command": "jordan"}
        rc, flag_dir = _run(tmp_path, data, out="flag-out")
        assert rc == 0
        assert (env_dir / "report.json").exists()
        assert not flag_dir.exists()
