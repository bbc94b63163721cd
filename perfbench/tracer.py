"""Spans and counters around orbitlab's public functions, from outside.

``Tracer.install`` replaces each function at the binding its caller uses
(``orbitlab.cli.certify``, ``orbitlab.criterion.invariance_check``,
``orbitlab._kernels.uncovered_count``, ...) with a wrapper that records a
span (id, parent, name, start, end) and counts work at the same boundary.
Spans stay in memory until ``write``.  The program itself is not changed:
the wrappers call the original functions with the original arguments and
return their results untouched.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter, defaultdict

# Per-layer metric name -> unit, in report order.  Times are self times.
METRICS = {
    "cli.config_parse_s": "s",
    "cli.write_outputs_s": "s",
    "constructor.build_schedule_s": "s",
    "constructor.assemble_s": "s",
    "constructor.certify_s": "s",
    "constructor.certify_rows": "count",
    "seqspace.apply_power_s": "s",
    "seqspace.apply_power_calls": "count",
    "seqspace.operator_applies": "count",
    "seqspace.seqvec_builds": "count",
    "subspace.invariance_check_s": "s",
    "subspace.invariance_check_calls": "count",
    "subspace.basis_vectors_checked": "count",
    "subspace.dense_family_s": "s",
    "subspace.dyadic_net_s": "s",
    "subspace.net_points": "count",
    "criterion.check_criterion_s": "s",
    "criterion.transitivity_probe_s": "s",
    "criterion.backsolve_calls": "count",
    "obstructions.density_defect_s": "s",
    "obstructions.orbit_span_rank_s": "s",
    "obstructions.spectral_dichotomy_s": "s",
    "obstructions.pairing_s": "s",
    "obstructions.jordan_orbit_s": "s",
    "kernels.uncovered_count_s": "s",
    "kernels.uncovered_count_pairs": "count",
    "kernels.orbit_points_s": "s",
    "kernels.orbit_points_rows": "count",
    "kernels.orbit_norms_s": "s",
    "kernels.orbit_norms_steps": "count",
}

ROOT = "experiment"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._open = [(0, None)]  # (span id, name) of the open spans; 0 is the top
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []
        self.self_s: defaultdict = defaultdict(float)  # span name -> folded self time
        self._folded = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span ``name``; ``count(args, result)`` adds to counters."""
        spans, open_, ids, counts = self.spans, self._open, self._ids, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            open_.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans.append((sid, open_[-1][0], name, start, end))
            if count is not None:
                for key, value in count(args, result):
                    counts[key] += value
            return result

        return traced

    def counted(self, key, fn, within=None):
        """``fn`` unchanged, except that each call adds one to ``key``; with
        ``within``, only calls made directly inside a span of that name."""
        counts, open_ = self.counts, self._open

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            if within is None or open_[-1][1] == within:
                counts[key] += 1
            return fn(*args, **kwargs)

        return tallied

    def run(self, fn, *args):
        """Call ``fn`` as the root span of one experiment."""
        return self.wrap(ROOT, fn)(*args)

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- installation ------------------------------------------------------

    def install(self):
        from orbitlab import (
            _kernels, cli, constructor, criterion, obstructions, seqspace, subspace,
        )

        wrap, counted, patch = self.wrap, self.counted, self._patch

        from_dict = cli.ExperimentConfig.__dict__["from_dict"].__func__
        patch(cli.ExperimentConfig, "from_dict",
              classmethod(wrap("cli.config_parse", from_dict)))
        patch(cli, "write_outputs", wrap("cli.write_outputs", cli.write_outputs))

        patch(cli, "build_schedule", wrap("constructor.build_schedule", cli.build_schedule))
        patch(cli, "assemble", wrap("constructor.assemble", cli.assemble))
        patch(cli, "certify", wrap(
            "constructor.certify", cli.certify,
            lambda a, r: [("constructor.certify_rows", len(r.entries))]))

        def power_calls(args, result):
            return [("seqspace.apply_power_calls", 1)]

        for module in (cli, constructor, criterion, subspace):
            patch(module, "apply_power",
                  wrap("seqspace.apply_power", module.apply_power, power_calls))
        for kind in (seqspace.BackwardShift, seqspace.ForwardShift, seqspace.Identity,
                     seqspace.ScalarMultiple, seqspace.Diagonal, seqspace.DirectSum,
                     seqspace.FiniteMatrix):
            patch(kind, "apply", counted("seqspace.operator_applies", kind.apply))
        patch(seqspace.SeqVec, "__init__",
              counted("seqspace.seqvec_builds", seqspace.SeqVec.__init__))

        patch(criterion, "invariance_check", wrap(
            "subspace.invariance_check", criterion.invariance_check,
            lambda a, r: [("subspace.invariance_check_calls", 1)]))
        # invariance_check calls membership_defect once per basis vector it
        # checks; the apply_power span before it has closed by then.
        patch(subspace, "membership_defect", counted(
            "subspace.basis_vectors_checked", subspace.membership_defect,
            within="subspace.invariance_check"))
        patch(cli, "dense_family", wrap("subspace.dense_family", cli.dense_family))

        def net_points(args, result):
            return [("subspace.net_points", len(result))]

        for module in (criterion, obstructions):
            patch(module, "dyadic_net",
                  wrap("subspace.dyadic_net", module.dyadic_net, net_points))

        patch(cli, "check_criterion", wrap("criterion.check_criterion", cli.check_criterion))
        patch(cli, "transitivity_probe",
              wrap("criterion.transitivity_probe", cli.transitivity_probe))
        patch(criterion, "backsolve", counted("criterion.backsolve_calls", criterion.backsolve))

        patch(cli, "density_defect", wrap("obstructions.density_defect", cli.density_defect))
        patch(cli, "orbit_span_rank", wrap("obstructions.orbit_span_rank", cli.orbit_span_rank))
        patch(cli, "spectral_dichotomy",
              wrap("obstructions.spectral_dichotomy", cli.spectral_dichotomy))
        patch(cli, "eigen_orbit_pairing", wrap("obstructions.pairing", cli.eigen_orbit_pairing))
        patch(cli, "generalized_pairing_polynomial",
              wrap("obstructions.pairing", cli.generalized_pairing_polynomial))
        patch(cli, "jordan_orbit", wrap("obstructions.jordan_orbit", cli.jordan_orbit))

        patch(_kernels, "uncovered_count", wrap(
            "kernels.uncovered_count", _kernels.uncovered_count,
            lambda a, r: [("kernels.uncovered_count_pairs", len(a[0]) * len(a[1]))]))
        patch(_kernels, "orbit_points", wrap(
            "kernels.orbit_points", _kernels.orbit_points,
            lambda a, r: [("kernels.orbit_points_rows", len(r))]))
        patch(_kernels, "orbit_norms", wrap(
            "kernels.orbit_norms", _kernels.orbit_norms,
            lambda a, r: [("kernels.orbit_norms_steps", len(r) - 1)]))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def fold(self, factor: float = 1.0):
        """Add the self times of the spans recorded since the last fold,
        multiplied by ``factor``, to the per-layer totals."""
        new = self.spans[self._folded:]
        self._folded = len(self.spans)
        child = defaultdict(float)
        for _, parent, _, start, end in new:
            child[parent] += end - start
        for sid, _, name, start, end in new:
            self.self_s[name] += ((end - start) - child[sid]) * factor

    def metrics(self, experiments: int) -> dict[str, float]:
        """Every per-layer metric, per experiment."""
        out = {}
        for metric in METRICS:
            if metric.endswith("_s"):
                total = self.self_s.get(metric[:-2], 0.0)
            else:
                total = self.counts.get(metric, 0)
            out[metric] = total / experiments
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                ) + "\n")
