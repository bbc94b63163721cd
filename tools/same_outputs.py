"""Check that two source trees give byte-identical command-line outputs.

    python tools/same_outputs.py PARENT_TREE CHANGE_TREE [CONFIG.json ...]

Each tree is a directory holding ``src/orbitlab``.  The configs are every
preset of either tree, every experiment of this checkout's
``perfbench/workloads.py`` at seeds 0-3 (read, never written), the
``kernel`` sweep of ``kernel_configs``, and the config files named on the
command line.  Each tree runs them all through
``orbitlab.cli.main --verbose``, in order, in one fresh interpreter of its
own, and each run's exit code, stdout, stderr, ``report.json`` and ``table.csv`` are compared.
Output paths are normalised in stdout and stderr.  The name of every
config whose outputs differ is printed with the parts that differ; the
exit code is 1 if any differ, 0 if none do, and 2 if a tree cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
FIELDS = ("exit", "stdout", "stderr", "report.json", "table.csv")
SEEDS = range(4)

# ``kernel``'s instance chunk at horizon 12: stack_width(13, 8) at the
# default stack cap of 2**17 entries.
KERNEL_CHUNK = (1 << 17) // (13 * 8)


def _child_env(tree: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ORBITLAB_OUT"}
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def preset_names(tree: Path) -> list[str]:
    """The names in ``tree``'s ``orbitlab.presets.PRESETS``."""
    code = "import json; from orbitlab.presets import PRESETS; print(json.dumps(sorted(PRESETS)))"
    with tempfile.TemporaryDirectory() as cwd:
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=cwd, env=_child_env(tree), capture_output=True, text=True, check=True,
        )
    return json.loads(out.stdout)


def workload_configs() -> list[tuple[str, dict]]:
    """``(name, config)`` for every perfbench experiment at every seed in ``SEEDS``."""
    spec = importlib.util.spec_from_file_location("_same_outputs_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as it is
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = written
    return [
        (f"{workload}/{name}@seed{seed}", config)
        for workload in workloads.WORKLOADS
        for seed in SEEDS
        for name, config in workloads.experiments(workload, seed)
    ]


def kernel_configs() -> list[tuple[str, dict]]:
    """``(name, config)`` for the ``kernel`` sweep at horizon 12: seeds 0-40
    at (eigen, chain) instance counts (1, 1), (7, 4) and (60, 30), and
    seeds 0-3 at one instance past a chunk of eigen instances and one short
    of a chunk of chains."""
    sizes = [((1, 1), range(41)), ((7, 4), range(41)), ((60, 30), range(41))]
    sizes.append(((KERNEL_CHUNK + 1, KERNEL_CHUNK - 1), SEEDS))
    return [
        (
            f"kernel/{eigen}-{chain}@seed{seed}",
            {
                "command": "kernel",
                "eigenInstances": eigen,
                "chainInstances": chain,
                "horizon": 12,
                "seed": seed,
            },
        )
        for (eigen, chain), seeds in sizes
        for seed in seeds
    ]


def run_tree(jobs_path: str, result_path: str) -> None:
    """Run every ``(name, config file)`` job through ``cli.main``; write what each gave.

    Runs in the child interpreter, with the tree's ``src`` on the path.
    Warnings are reset before each run, so each shows as it would in a
    process of its own.
    """
    import contextlib
    import io
    import warnings

    from orbitlab import cli

    results = {"orbitlab": cli.__file__, "runs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, config) in enumerate(json.loads(Path(jobs_path).read_text())):
            out_dir = os.path.join(tmp, str(k))
            stdout, stderr = io.StringIO(), io.StringIO()
            with (
                warnings.catch_warnings(),
                contextlib.redirect_stdout(stdout),
                contextlib.redirect_stderr(stderr),
            ):
                try:
                    code = cli.main([config, "--out-dir", out_dir, "--verbose"])
                except Exception as exc:  # a traceback and exit 1 on the command line
                    code = 1
                    print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            run = {
                "exit": code,
                "stdout": stdout.getvalue().replace(out_dir, "OUT"),
                "stderr": stderr.getvalue().replace(out_dir, "OUT"),
            }
            for field in ("report.json", "table.csv"):
                path = Path(out_dir, field)
                digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
                run[field] = digest
            results["runs"][name] = run
    Path(result_path).write_text(json.dumps(results))


def _start(tree: Path, jobs_path: Path, result_path: Path, cwd: Path) -> subprocess.Popen:
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
        f"import same_outputs; same_outputs.run_tree({str(jobs_path)!r}, {str(result_path)!r})"
    )
    return subprocess.Popen([sys.executable, "-c", code], cwd=cwd, env=_child_env(tree))


def compare(parent: Path, change: Path, jobs: list[tuple[str, str]]) -> dict[str, list[str]]:
    """Run ``(name, config file)`` jobs in both trees at once; the differing fields by name."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        jobs_path = tmp / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        results = {}
        children = []
        for side, tree in (("parent", parent), ("change", change)):
            (tmp / side).mkdir()
            result_path = tmp / f"{side}.json"
            child = _start(tree, jobs_path, result_path, tmp / side)
            children.append((side, tree, result_path, child))
        for side, tree, result_path, child in children:
            if child.wait() != 0:
                raise RuntimeError(f"the {side} tree {tree} exited {child.returncode}")
            results[side] = json.loads(result_path.read_text())
            src = (tree / "src").resolve()
            if not Path(results[side]["orbitlab"]).resolve().is_relative_to(src):
                raise RuntimeError(f"the {side} run imported {results[side]['orbitlab']}")
    a, b = results["parent"]["runs"], results["change"]["runs"]
    differing = {}
    for name, _ in jobs:
        fields = [f for f in FIELDS if a[name][f] != b[name][f]]
        if fields:
            differing[name] = fields
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    parser.add_argument("change", type=Path, help="the tree under test")
    parser.add_argument("configs", nargs="*", type=Path, help="more config files to run")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "orbitlab").is_dir():
            print(f"error: {tree} holds no src/orbitlab", file=sys.stderr)
            return 2
    parent, change = args.parent.resolve(), args.change.resolve()
    missing = [str(path) for path in args.configs if not path.is_file()]
    if missing:
        print(f"error: no config file {', '.join(missing)}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        try:
            names = sorted(set(preset_names(parent)) | set(preset_names(change)))
            builtin = [(f"preset/{n}", {"command": "preset", "preset": n}) for n in names]
            jobs = []
            for k, (name, config) in enumerate(builtin + workload_configs() + kernel_configs()):
                path = Path(tmp, f"{k}.json")
                path.write_text(json.dumps(config))
                jobs.append((name, str(path)))
            jobs.extend((str(path), str(path.resolve())) for path in args.configs)
            differing = compare(parent, change, jobs)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for name, fields in differing.items():
        print(f"{name}: {', '.join(fields)}")
    print(f"{len(differing)} of {len(jobs)} configs differ", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
