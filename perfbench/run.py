"""End-to-end and per-layer benchmark of orbitlab's three kinds of work.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Workloads: ``certify`` (hitting-time construction and certificates),
``criterion`` (three-condition criterion and transitivity probes) and
``dense`` (finite-dimensional obstructions).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced pass.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs
every workload briefly in both modes and checks that every metric named in
``BENCHMARK.json`` is reported.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import speed
import workloads
from tracer import METRICS

HERE = Path(__file__).resolve().parent
# Fresh interpreters timed for setup_s in each run; the median is reported.
SETUP_RUNS = 7
# Seconds a child may take beyond the run length before it is stopped.
CHILD_TIMEOUT = 120


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ORBITLAB_OUT", None)
    return env


def _write_plan(work: Path, workload: str, seed: int, seconds: float, trace: bool) -> Path:
    exps = []
    for i, (name, config) in enumerate(workloads.experiments(workload, seed)):
        path = work / f"{i:02d}-{name}.json"
        path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
        exps.append({"name": name, "config": config, "path": str(path),
                     "out": str(work / "out" / name)})
    plan = {
        "experiments": exps,
        "seconds": seconds,
        "trace": trace,
        "trace_file": str(work.parent / f"trace-{workload}-seed{seed}.jsonl"),
    }
    path = work / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return path


def _setup_times(root: Path, work: Path, workload: str, seed: int, runs: int):
    """Reference seconds of whole CLI invocations on the smallest experiment."""
    name, config = workloads.smallest(workload, seed)
    cfg = work / "setup.json"
    cfg.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    expect = checks.prepare(config)
    launch = functools.partial(
        subprocess.run, cwd=root, env=_env(root), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT,
    )
    times, problems = [], []
    for i in range(runs):
        out = work / f"setup-{i}"
        proc, _, ref = speed.timed(
            launch, [sys.executable, "-m", "orbitlab.cli", str(cfg), "--out-dir", str(out)])
        times.append(ref)
        try:
            report = (out / "report.json").read_text(encoding="utf-8")
            table = (out / "table.csv").read_text(encoding="utf-8")
        except FileNotFoundError:
            report = table = ""
        found = checks.verify(config, expect, proc.returncode, report, table)
        problems += [f"setup {name}: {p}" for p in found]
        if proc.returncode not in (0, 1):
            problems.append(proc.stderr.decode(errors="replace")[-2000:])
    return times, problems


def _worker(root: Path, plan: Path, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan)],
        cwd=root, env=_env(root), capture_output=True, text=True,
        timeout=seconds + CHILD_TIMEOUT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        setup_runs: int = SETUP_RUNS) -> dict:
    out_root = root / ".perfbench-out"
    work = out_root / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    try:
        problems = []
        if not trace:
            setup, problems = _setup_times(root, work, workload, seed, setup_runs)
        res = _worker(root, _write_plan(work, workload, seed, seconds, trace), seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems += res["failures"]
    for p in problems:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)

    times = res["times"]
    if trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in METRICS.items()}
        overhead = res["traced_s"] / res["untraced_s"] - 1.0
        print(f"perfbench: {workload}: {res['spans']} spans, tracing overhead "
              f"{100 * overhead:.1f} % per experiment", file=sys.stderr)
    else:
        passed = res["attempted"] - res["failed"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "experiments_per_s": {"value": passed / sum(times), "unit": "1/s"},
            "experiment_s.p50": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"perfbench: {workload}: wall-clock median {statistics.median(res['walls']):.4f} s"
              f" over {len(times)} experiments", file=sys.stderr)
    blas = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            if k in os.environ}
    print(f"perfbench: {workload}: backend {res['backend']}, BLAS threads "
          f"{blas or 'environment default'}, nproc {os.cpu_count()}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    out_root.mkdir(exist_ok=True)
    (out_root / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def smoke(root: Path) -> int:
    """Every workload for a moment in both modes; every named metric present."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    bad = []
    for workload in names:
        for trace in (0, 1):
            res = run(root, workload, 0, 0.0, bool(trace), setup_runs=1)
            if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
                    and isinstance(res["failed"], int)):
                bad.append(f"{workload}/trace{trace}: attempted/failed missing")
            if not res["correct"] or res["failed"]:
                bad.append(f"{workload}/trace{trace}: incorrect or failed experiments")
            for metric in wanted[trace]:
                got = res["metrics"].get(metric["name"])
                if not got or got["unit"] != metric["unit"] or not isinstance(
                        got["value"], (int, float)):
                    bad.append(f"{workload}/trace{trace}: metric {metric['name']} missing")
            extra = set(res["metrics"]) - {m["name"] for m in wanted[trace]}
            if extra:
                bad.append(f"{workload}/trace{trace}: unnamed metrics {sorted(extra)}")
    for b in bad:
        print(f"perfbench smoke: {b}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if bad else "ok", "workloads": names}))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "orbitlab" / "cli.py").is_file():
        return _fail(f"no orbitlab sources under {root / 'src'}; run from a checkout root")
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        return _fail("--workload is required")
    if args.seconds < 0:
        return _fail("--seconds must be >= 0")
    try:
        result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
