"""One workload in one fresh interpreter: the timed or the traced pass.

Run by ``run.py`` with the program's ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py <plan.json>

The plan names the configs of one pass, the run length, whether to trace,
and where to write outputs.  Experiments run one at a time through
``orbitlab.cli.main``; ``gc.collect()`` runs between them, outside the timed
interval, and each call is timed between two calibration loops (see
``speed.py``).  One untimed warm-up pass comes first, and its outputs are
the reference the traced pass must reproduce byte for byte.  The result is
one JSON object on the last line of standard output.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import speed
from tracer import Tracer


def _guarded(main):
    """``main`` with an escaping exception turned into the exit code a fresh
    interpreter would give (1), so one faulty experiment fails alone."""

    def run(argv):
        try:
            return main(argv)
        except Exception:  # noqa: BLE001 - reported, and the experiment fails
            traceback.print_exc(limit=3)
            return 1

    return run


def _run_one(run_cli, exp):
    """Run one experiment through ``run_cli(argv)``.

    Returns (wall seconds, reference seconds, exit code, report bytes,
    table bytes).
    """
    out = Path(exp["out"])
    for name in ("report.json", "table.csv"):
        with contextlib.suppress(FileNotFoundError):
            (out / name).unlink()
    gc.collect()
    argv = [exp["path"], "--out-dir", str(out)]
    rc, wall, ref = speed.timed(run_cli, argv)
    try:
        outputs = ((out / "report.json").read_bytes(), (out / "table.csv").read_bytes())
    except FileNotFoundError:
        outputs = (b"", b"")
    return wall, ref, rc, *outputs


def _problems(exp, expect, rc, report, table, reference=None):
    problems = checks.verify(exp["config"], expect, rc, report.decode(), table.decode())
    if reference is not None and (report, table) != reference:
        problems.append("traced outputs differ from the untraced run")
    return problems


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    from orbitlab import _kernels, cli

    run_cli = _guarded(cli.main)
    exps = plan["experiments"]
    expects = [checks.prepare(e["config"]) for e in exps]
    failures = []
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        reference = []
        for exp, expect in zip(exps, expects):
            _, _, rc, report, table = _run_one(run_cli, exp)
            reference.append((report, table))
            bad = _problems(exp, expect, rc, report, table)
            failures += [f"warm-up {exp['name']}: {p}" for p in bad]

        tracer = None
        if plan["trace"]:
            # An untraced pass first, as the base of the tracing overhead.
            untraced = sum(_run_one(run_cli, e)[1] for e in exps)
            tracer = Tracer()
            tracer.install()
            run_cli = functools.partial(tracer.run, run_cli)

        walls, times, attempted, failed = [], [], 0, 0
        start = time.perf_counter()
        while attempted == 0 or time.perf_counter() - start < plan["seconds"]:
            for exp, expect, ref in zip(exps, expects, reference):
                wall, elapsed, rc, report, table = _run_one(run_cli, exp)
                if tracer:
                    tracer.fold(elapsed / wall)
                bad = _problems(exp, expect, rc, report, table, ref if tracer else None)
                attempted += 1
                walls.append(wall)
                times.append(elapsed)
                if bad:
                    failed += 1
                    failures += [f"{exp['name']}: {p}" for p in bad]
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "times": times,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": _kernels.BACKEND,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics(attempted)
        result["traced_s"] = sum(times) / attempted
        result["untraced_s"] = untraced / len(exps)
        result["spans"] = len(tracer.spans)
        tracer.write(plan["trace_file"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
