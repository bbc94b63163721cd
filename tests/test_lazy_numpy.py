"""The sparse commands run without numpy; the dense layer loads it on demand.

``construct``, ``certify``, ``criterion`` and ``probe`` compute with
pure-Python sparse arithmetic, so a process that runs only them must never
import numpy.  A child interpreter with ``sys.modules["numpy"] = None`` (which
makes every ``import numpy`` raise) runs them through ``cli.main``; its
outputs must be those of a run in this process, where numpy is loaded.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import orbitlab
from orbitlab import cli, constructor, criterion, errors, obstructions, seqspace, subspace

SRC = Path(__file__).resolve().parents[1] / "src"

SPARSE_CONFIGS = {
    "certify-prefix3": {"command": "preset", "preset": "certify-prefix3"},
    "certify-left-block": {"command": "preset", "preset": "certify-left-block"},
    "certify-direct-sum-prefix3": {"command": "preset", "preset": "certify-direct-sum-prefix3"},
    "criterion-odd-support": {"command": "preset", "preset": "criterion-odd-support"},
    "criterion-shift-squared": {"command": "preset", "preset": "criterion-shift-squared"},
    # perfbench's two probes: a hit on residue 0 mod 2, and none on prefix-3.
    "probe-residue-hit": {
        "command": "probe",
        "lambda": [1.2, 1.6],
        "pattern": {"kind": "residue", "a": 0, "b": 2},
        "truncationDim": 256,
        "horizon": 50,
        "probe": {"gridLevel": 2, "gridSupport": 4},
        "expect": "found",
    },
    "probe-prefix-none": {
        "command": "probe",
        "lambda": [1.2, 1.6],
        "pattern": {"kind": "prefix", "m": 3},
        "truncationDim": 256,
        "horizon": 50,
        "expect": "none",
    },
    "construct-prefix3": {
        "command": "construct",
        "lambda": [1.5, 0.5],
        "pattern": {"kind": "prefix", "m": 3},
        "targets": 30,
    },
}

# Runs each config file named on the command line through ``main`` with
# numpy blocked, and prints the exit codes and the modules left loaded.
_CHILD = """
import json, sys
sys.modules["numpy"] = None
from orbitlab.cli import main
codes = [main([cfg, "--out-dir", out]) for cfg, out in zip(sys.argv[1::2], sys.argv[2::2])]
loaded = sorted(m for m in ("orbitlab._kernels", "orbitlab.obstructions") if m in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _child(code, *args):
    env = {k: v for k, v in os.environ.items() if k != "ORBITLAB_OUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _outputs(out: Path):
    return [(out / name).read_bytes() for name in ("report.json", "table.csv")]


def test_sparse_commands_run_with_numpy_blocked(tmp_path, monkeypatch):
    monkeypatch.delenv("ORBITLAB_OUT", raising=False)
    args, expected = [], {}
    for name, data in SPARSE_CONFIGS.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(data), encoding="utf-8")
        args += [str(cfg), str(tmp_path / "blocked" / name)]
        rc = cli.main([str(cfg), "--out-dir", str(tmp_path / "loaded" / name)])
        expected[name] = (rc, _outputs(tmp_path / "loaded" / name))

    child = _child(_CHILD, *args)

    assert child["loaded"] == []
    for name, code in zip(SPARSE_CONFIGS, child["codes"]):
        assert (code, _outputs(tmp_path / "blocked" / name)) == expected[name], name


def test_importing_cli_loads_no_dense_module():
    loaded = _child(
        "import json, sys, orbitlab.cli\n"
        "print(json.dumps([m for m in ('numpy', 'orbitlab._kernels', 'orbitlab.obstructions')"
        " if m in sys.modules]))"
    )
    assert loaded == []


_BUILTIN = (dict, list, str, int, float, bool, type(None))


def _builtin_only(obj):
    if isinstance(obj, dict):
        return all(type(k) is str and _builtin_only(v) for k, v in obj.items())
    if isinstance(obj, list):
        return all(_builtin_only(v) for v in obj)
    return type(obj) in _BUILTIN


@pytest.mark.parametrize(
    "data",
    [
        {"command": "findim", "pattern": {"kind": "prefix", "m": 1}, "horizon": 50},
        {"command": "preset", "preset": "spectrum-direct-sum"},
        {"command": "kernel", "eigenInstances": 5, "chainInstances": 5},
        {"command": "jordan"},
    ],
    ids=lambda data: data.get("preset") or data["command"],
)
def test_dense_runners_hand_over_builtins(data):
    """The report and the table hold no numpy scalar, so the report writer
    needs no numpy to spell them."""
    result = cli.run(cli.ExperimentConfig.from_dict(data))
    assert _builtin_only(result.report)
    assert _builtin_only([list(row) for row in result.table_rows])


class TestLazyExports:
    def test_every_exported_name_resolves(self):
        for name in orbitlab.__all__:
            assert getattr(orbitlab, name) is not None, name

    def test_star_import(self):
        namespace = {}
        exec("from orbitlab import *", namespace)
        assert set(orbitlab.__all__) <= set(namespace)
        assert namespace["density_defect"] is obstructions.density_defect

    def test_lazy_name_is_the_obstructions_object(self):
        assert orbitlab.density_defect is obstructions.density_defect
        assert orbitlab.DichotomyVerdict is obstructions.DichotomyVerdict

    def test_dir_lists_the_lazy_names(self):
        assert {"density_defect", "spectral_dichotomy", "unit_ball_net"} <= set(dir(orbitlab))
        assert set(orbitlab.__all__) <= set(dir(orbitlab))

    def test_unknown_attribute_names_the_module(self):
        with pytest.raises(AttributeError, match="module 'orbitlab' has no attribute 'nope'"):
            orbitlab.nope


# The modules whose ``__all__`` is the package's, ``obstructions`` lazily.
_EXPORTING = (seqspace, subspace, constructor, criterion, errors, obstructions)


class TestPublicNames:
    def test_the_package_exports_each_modules_all(self):
        names = {"__version__"}.union(*(m.__all__ for m in _EXPORTING))
        assert len(orbitlab.__all__) == len(names)
        assert set(orbitlab.__all__) == names

    def test_no_two_modules_export_one_name(self):
        # A star import would let the later module shadow the earlier silently.
        assert sum(len(m.__all__) for m in _EXPORTING) == len(
            set().union(*(m.__all__ for m in _EXPORTING))
        )

    def test_the_lazy_names_are_the_obstructions_all(self):
        assert orbitlab._LAZY == set(obstructions.__all__)

    def test_pyproject_reads_the_package_version(self):
        from setuptools.config.pyprojecttoml import read_configuration

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # setuptools calls its pyproject support beta
            config = read_configuration(SRC.parent / "pyproject.toml", expand=True)
        assert config["project"]["version"] == orbitlab.__version__
