"""``tools/same_outputs.py`` finds no difference between a tree and its copy,
and finds one planted in a copy."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"

_CONFIGS = {
    "certify.json": {
        "command": "certify",
        "lambda": [2, 0],
        "pattern": {"kind": "prefix", "m": 3},
        "targets": 4,
    },
    "probe.json": {
        "command": "probe",
        "lambda": [2, 0],
        "pattern": {"kind": "residue", "a": 0, "b": 2},
    },
    "bad.json": {"command": "certify", "lambda": [0.5, 0], "pattern": {"kind": "prefix", "m": 1}},
}


def _copy(tmp_path, name):
    tree = tmp_path / name
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def _tool(*args, cwd=None):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def _configs(tmp_path):
    paths = []
    for name, config in _CONFIGS.items():
        path = tmp_path / name
        path.write_text(json.dumps(config), encoding="utf-8")
        paths.append(path)
    return paths


def test_a_copy_gives_the_same_outputs(tmp_path):
    # Every preset, every perfbench config at seeds 0-3 and the named files,
    # with the trees named relative to the working directory.
    _copy(tmp_path, "copy")
    configs = [path.name for path in _configs(tmp_path)]
    got = _tool("copy", os.path.relpath(ROOT, tmp_path), *configs, cwd=tmp_path)
    assert (got.returncode, got.stdout) == (0, ""), got.stderr
    assert got.stderr.startswith("0 of ")
    assert int(got.stderr.split()[2]) > len(_CONFIGS) + 90


def test_a_planted_difference_is_reported(tmp_path):
    planted = _copy(tmp_path, "planted")
    cli = planted / "src" / "orbitlab" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    for old, new in (('"backend": BACKEND,', '"backend": BACKEND + "!",'), ("'PASS'", "'pass'")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    cli.write_text(text, encoding="utf-8")
    certify, probe, bad = _configs(tmp_path)
    got = _tool(ROOT, planted, certify, probe, bad)
    assert got.returncode == 1, got.stderr
    # Every run but the rejected config writes a report, and the passing
    # ones print PASS; the rejected one prints one stderr line alike.
    lines = got.stdout.splitlines()
    assert lines[-2:] == [f"{certify}: stdout, report.json", f"{probe}: stdout, report.json"]
    assert all(line.endswith(" report.json") for line in lines)
    assert not any(line.startswith(str(bad)) for line in lines)
    differ, total = int(got.stderr.split()[0]), int(got.stderr.split()[2])
    assert differ == len(lines) == total - 1


def test_a_missing_tree_is_named(tmp_path):
    got = _tool(ROOT, "absent", cwd=tmp_path)
    assert (got.returncode, got.stdout) == (2, "")
    assert got.stderr == "error: absent holds no src/orbitlab\n"
