"""Check that two source trees give byte-identical command-line outputs.

    python tools/same_outputs.py PARENT_TREE CHANGE_TREE [CONFIG.json ...]

Each tree is a directory holding ``src/orbitlab``.  The configs are every
preset of either tree, every experiment of this checkout's
``perfbench/workloads.py`` at seeds 0-3 (read, never written), the
``kernel`` sweep of ``kernel_configs``, the ``jordan`` horizons of
``jordan_configs``, the ``findim`` grid of ``findim_configs``, the ``probe``
grids of ``probe_configs``, the refused configs of ``rejected_configs``, and
the config files named on the command line.
Each tree runs them all through ``orbitlab.cli.main --verbose``, in order,
in one fresh interpreter of its own, and each run's exit code, stdout,
stderr, ``report.json`` and ``table.csv`` are compared.
Output paths are normalised in stdout and stderr.  The name of every
config whose outputs differ is printed with the parts that differ; the
exit code is 1 if any differ, 0 if none do, and 2 if a tree cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
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


def jordan_configs() -> list[tuple[str, dict]]:
    """``(name, config)`` for ``jordan`` at horizons 4-40, and at horizons
    past n = 512, where the lambda = 2 orbit's squared norms overflow, and
    about the powers where its closed form leaves the float range: from
    horizon 996 each run stops at its first such power, with an error."""
    horizons = [*range(4, 41), 512, 513, 700, 996, 1000, 1015, 1023, 1024, 1100]
    return [(f"jordan/h{h}", {"command": "jordan", "horizon": h}) for h in horizons]


def findim_configs() -> list[tuple[str, dict]]:
    """``(name, config)`` for ``findim`` at dimensions 2, 4, 8 and 12, on
    prefix, residue and ``supportIn`` patterns, at net levels 1 and 2 and
    epsilon 0.05-1.0, each at one of the seeds 0-3 in turn.  The nets have
    2 or 3 allowed coordinates (89 to 1,281 points), and the orbits 1,001
    rows, most of them near zero."""
    patterns = [
        ({"kind": "prefix", "m": 1}, {1: 4, 2: 3}),  # supportBound by net level
        ({"kind": "residue", "a": 0, "b": 2}, {1: 4, 2: 4}),
        ({"kind": "supportIn", "b": 2}, {1: 4, 2: 4}),
    ]
    configs = []
    for dim in (2, 4, 8, 12):
        for pattern, bounds in patterns:
            for level in (1, 2):
                for eps in (0.05, 0.1, 0.3, 0.6, 1.0):
                    seed = len(configs) % len(SEEDS)
                    name = f"findim/d{dim}-{pattern['kind']}-l{level}-e{eps}@seed{seed}"
                    configs.append((name, {
                        "command": "findim",
                        "pattern": pattern,
                        "truncationDim": dim,
                        "supportBound": bounds[level],
                        "horizon": 1000,
                        "netLevel": level,
                        "epsilon": eps,
                        "trials": 2,
                        "seed": seed,
                    }))
    return configs


def probe_configs() -> list[tuple[str, dict]]:
    """``(name, config)`` for ``probe`` on prefix, residue, ``supportIn`` and
    ``rightBlock`` patterns, at grid levels 1 and 2 and grid supports 3-6
    (13 to 1,713 grid points).  Each grid is probed with each U-radius of
    1e-300, 0.25, 1.0 and 1e300, beside a V-radius from the same list that
    turns with the grid, so that the 12 grids meet all 16 pairs; lambda
    runs through moduli 0.5, 2 and 3 at phases 0, 0.7, pi/2 and pi, and
    ``expect`` alternates between 'found' and 'none'."""
    prefix, residue = {"kind": "prefix", "m": 1}, {"kind": "residue", "a": 0, "b": 2}
    stride, block = {"kind": "supportIn", "b": 2}, {"kind": "rightBlock", "split": 2}
    grids = [
        (prefix, 3, 1), (prefix, 3, 2), (prefix, 5, 1),
        (residue, 3, 1), (residue, 3, 2), (residue, 4, 2), (residue, 6, 1),
        (stride, 4, 2), (stride, 6, 1),
        (block, 3, 1), (block, 4, 2), ({"kind": "rightBlock", "split": 3}, 6, 1),
    ]
    radii = (1e-300, 0.25, 1.0, 1e300)
    lambdas = [
        [r * math.cos(t), r * math.sin(t)]
        for r in (0.5, 2.0, 3.0)
        for t in (0.0, 0.7, math.pi / 2, math.pi)
    ]
    configs = []
    for g, (pattern, support, level) in enumerate(grids):
        for j, u_radius in enumerate(radii):
            k = len(configs)
            v_radius = radii[(j + g) % len(radii)]
            name = f"probe/{pattern['kind']}-s{support}-l{level}-u{u_radius}-v{v_radius}"
            configs.append((name, {
                "command": "probe",
                "lambda": lambdas[k % len(lambdas)],
                "pattern": pattern,
                "truncationDim": 64,
                "horizon": 20,
                "probe": {
                    "uRadius": u_radius,
                    "vRadius": v_radius,
                    "gridLevel": level,
                    "gridSupport": support,
                },
                "expect": ("found", "none")[k % 2],
            }))
    return configs


def rejected_configs() -> list[tuple[str, dict]]:
    """``(name, config)`` for configs that ``cli.main`` refuses before a run
    starts: each refusal of a command's ``check``, the two operator refusals
    at sizes whose run takes 0.1-0.2 s, and configs that also hold an error
    the run would raise, whose refusal is the error reported."""
    prefix3 = {"kind": "prefix", "m": 3}
    scaled = {"lambda": [2, 0], "pattern": prefix3}
    diagonal = {"kind": "diagonal", "weights": [[2, 0]] * 4}
    not_a_shift = {"command": "criterion", "pattern": prefix3, "operator": diagonal}
    configs = {
        "kernel-horizon-4": {"command": "kernel", "chainInstances": 1, "horizon": 4},
        "kernel-horizon-0": {"command": "kernel", "eigenInstances": 0, "horizon": 0},
        "criterion-targets-0": {"command": "criterion", **scaled, "targets": 0},
        "criterion-targets-1": {"command": "criterion", **scaled, "targets": 1},
        "findim-dim-1": {"command": "findim", "pattern": prefix3, "truncationDim": 1},
        "findim-dim-13": {"command": "findim", "pattern": prefix3, "truncationDim": 13},
        "findim-no-allowed-coordinate": {
            "command": "findim", "pattern": {"kind": "prefix", "m": 4}, "truncationDim": 4,
        },
        "jordan-horizon-2": {"command": "jordan", "horizon": 2},
        "jordan-horizon-3": {"command": "jordan", "horizon": 3},
        "probe-no-operator": {"command": "probe", "pattern": prefix3},
        "certify-identity-4000": {
            "command": "certify", **scaled, "operator": {"kind": "identity"}, "targets": 4000,
        },
        "criterion-diagonal-64": {
            "command": "criterion",
            "pattern": {"kind": "residue", "a": 0, "b": 2},
            "operator": {"kind": "diagonal", "weights": [[2, 0]] * 64},
            "targets": 200,
            "horizon": 200,
        },
        "criterion-zero-factor": {
            "command": "criterion", **scaled,
            "operator": {"kind": "scalar", "factor": [0, 0], "of": {"kind": "backwardShift"}},
        },
        # Each of these also holds an error that the run would raise.
        "probe-no-operator-resolution-2000": {
            "command": "probe", "pattern": prefix3, "resolutionLevel": 2000,
        },
        "probe-no-operator-prefix-10": {
            "command": "probe", "pattern": {"kind": "prefix", "m": 10},
        },
        "certify-identity-prefix-6": {
            "command": "certify", "lambda": [2, 0], "pattern": {"kind": "prefix", "m": 6},
            "operator": {"kind": "identity"},
        },
        "criterion-diagonal-horizon-0": {**not_a_shift, "horizon": 0},
        "criterion-diagonal-resolution-2000": {**not_a_shift, "resolutionLevel": 2000},
    }
    return [(f"rejected/{name}", config) for name, config in configs.items()]


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
            configs = builtin + workload_configs() + kernel_configs() + jordan_configs()
            configs += findim_configs() + probe_configs() + rejected_configs()
            jobs = []
            for k, (name, config) in enumerate(configs):
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
