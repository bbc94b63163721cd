"""``findim`` and ``kernel`` step their orbits in stacks; their outputs must
be those of stepping every orbit alone.

The reference runners below are the one-orbit-at-a-time runners the stacked
ones replaced: a 3-trial ``findim`` steps nine orbits (two rank orbits and
one density orbit per trial), and each pairing-law instance steps its own.
Each reference orbit is a plain ``np.matmul`` loop.  The stack cap
``_kernels._STACK`` is set to one orbit, three orbits and its default, as
``zero_check`` sets ``_ZERO_CHECK``.
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orbitlab import _kernels, cli
from orbitlab.cli import ExperimentConfig, RunResult, main
from orbitlab.errors import ConfigError
from orbitlab.obstructions import (
    density_defect,
    eigen_orbit_pairing,
    generalized_pairing_polynomial,
    orbit_span_rank,
    planted_chain_instance,
    planted_eigen_instance,
    unit_ball_net,
)
from orbitlab.seqspace import FiniteMatrix, SeqVec, max_or_nan
from conftest import gate_values, non_finite_error, plain_orbit, run_main


def _reference_findim(cfg: ExperimentConfig) -> RunResult:
    if not 2 <= cfg.truncation_dim <= 12:
        raise ConfigError("findim works on matrix dimensions 2..12")
    rng = np.random.default_rng(cfg.seed)
    dim = cfg.truncation_dim
    trials = []
    net = None
    for t in range(cfg.trials):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for i in range(dim):
            if cfg.pattern.forbids(i):
                for j in range(dim):
                    if not cfg.pattern.forbids(j):
                        m[i, j] = 0.0
        radius = float(np.abs(np.linalg.eigvals(m)).max())
        if radius > 1e-9:
            m *= 0.8 / radius
        op = FiniteMatrix(m)
        x = cli._random_member(rng, cfg.pattern, dim).to_dense(dim)

        rank_small = orbit_span_rank(plain_orbit(op.array, x, dim - 1), dim - 1)
        rank_large = orbit_span_rank(plain_orbit(op.array, x, 2 * dim), 2 * dim)
        stabilized = rank_small == rank_large

        points = plain_orbit(m, x, cfg.horizon)
        if net is None:
            net = unit_ball_net(cfg.pattern, cfg.support_bound, cfg.net_level)
        defect = density_defect(
            points, cfg.pattern, cfg.net_level, cfg.support_bound, cfg.epsilon, net=net
        )
        trials.append(
            {
                "trial": t,
                "rankAtDimMinus1": rank_small,
                "rankAtTwiceDim": rank_large,
                "stabilized": stabilized,
                "densityDefect": defect,
                "pass": stabilized and defect >= 0.5,
            }
        )
    passed = all(tr["pass"] for tr in trials)
    report = {"dim": dim, "epsilon": cfg.epsilon, "netLevel": cfg.net_level, "trials": trials}
    header = ["trial", "rankAtDimMinus1", "rankAtTwiceDim", "stabilized", "densityDefect", "pass"]
    return RunResult(passed, report, header, [[tr[k] for k in header] for tr in trials])


def _reference_kernel(cfg: ExperimentConfig) -> RunResult:
    rng = np.random.default_rng(cfg.seed)
    worst_eigen = 0.0
    for _ in range(cfg.eigen_instances):
        dim = int(rng.integers(2, 9))
        op, y, lam = planted_eigen_instance(rng, dim)
        x = SeqVec.from_dense(
            (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(dim)
        )
        orbit = plain_orbit(op.array, x.to_dense(dim), cfg.horizon)
        worst_eigen = max_or_nan(worst_eigen, eigen_orbit_pairing(op, orbit, y, lam, cfg.horizon))

    worst_chain = 0.0
    for _ in range(cfg.chain_instances):
        p = int(rng.integers(1, 4))
        dim = int(rng.integers(p + 1, 9))
        op, y, lam = planted_chain_instance(rng, dim, p)
        x = SeqVec.from_dense(
            (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(dim)
        )
        orbit = plain_orbit(op.array, x.to_dense(dim), cfg.horizon)
        worst_chain = max_or_nan(
            worst_chain, generalized_pairing_polynomial(op, orbit, y, lam, p, cfg.horizon)
        )

    eigen_ok = worst_eigen <= cfg.eigen_tol
    chain_ok = worst_chain <= cfg.chain_tol
    report = {
        "eigen": {
            "instances": cfg.eigen_instances,
            "maxDeviation": worst_eigen,
            "tol": cfg.eigen_tol,
            "pass": eigen_ok,
        },
        "chain": {
            "instances": cfg.chain_instances,
            "maxResidual": worst_chain,
            "tol": cfg.chain_tol,
            "pass": chain_ok,
        },
    }
    rows = [
        ["eigen", cfg.eigen_instances, worst_eigen, cfg.eigen_tol, eigen_ok],
        ["chain", cfg.chain_instances, worst_chain, cfg.chain_tol, chain_ok],
    ]
    header = ["family", "instances", "worst", "tol", "pass"]
    return RunResult(eigen_ok and chain_ok, report, header, rows)


REFERENCES = {"findim": _reference_findim, "kernel": _reference_kernel}


def _orbit_size(data):
    """(rows, width) of the largest orbit the stacked runner steps for ``data``."""
    if data["command"] == "findim":
        dim = data["truncationDim"]
        return max(data["horizon"], 2 * dim) + 1, dim
    return data["horizon"] + 1, cli._KERNEL_MAX_DIM


@pytest.fixture(params=["one", "three", "default"])
def stack_cap(request, monkeypatch):
    """Sets ``_kernels._STACK`` to hold one or three orbits of a config, or
    leaves its default, and records the stack of every ``orbit_points`` call,
    failing any over the cap."""
    stacks = []
    stepped = _kernels.orbit_points

    def checked(mats, vecs, n_steps):
        size, width = len(vecs), np.shape(vecs)[1]
        assert size == 1 or size * (n_steps + 1) * width <= _kernels._STACK
        stacks.append(size)
        return stepped(mats, vecs, n_steps)

    monkeypatch.setattr(_kernels, "orbit_points", checked)

    def apply(data):
        rows, width = _orbit_size(data)
        if request.param == "one":
            monkeypatch.setattr(_kernels, "_STACK", 1)
        elif request.param == "three":
            monkeypatch.setattr(_kernels, "_STACK", 3 * rows * width)
        return stacks

    apply.kind = request.param
    return apply


def _outputs(tmp_path, name, data, capsys):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / name
    rc = main([str(cfg), "--out-dir", str(out)])
    err = capsys.readouterr().err
    files = [
        (out / f).read_bytes() if (out / f).exists() else None
        for f in ("report.json", "table.csv")
    ]
    return rc, err, files


def _stacked_and_reference(tmp_path, data, capsys, monkeypatch):
    stacked = _outputs(tmp_path, "stacked", data, capsys)
    command = cli._COMMANDS[data["command"]]
    monkeypatch.setitem(
        cli._COMMANDS,
        data["command"],
        dataclasses.replace(command, run=REFERENCES[data["command"]]),
    )
    reference = _outputs(tmp_path, "reference", data, capsys)
    return stacked, reference


# dim 3: dim - 1 = 2 and 2 dim = 6.  Horizons below, at and between those,
# and past them, for 1..5 trials; at 4000 the orbits underflow to zero at
# rows of their own.
FINDIM_CASES = [
    (trials, horizon) for trials in range(1, 6) for horizon in (0, 1, 2, 4, 6, 7, 300)
] + [(3, 4000), (5, 4000)]


@pytest.mark.parametrize("trials, horizon", FINDIM_CASES)
def test_findim_matches_one_orbit_at_a_time(
    tmp_path, capsys, monkeypatch, stack_cap, trials, horizon
):
    pattern = {"kind": "prefix", "m": 1}
    if horizon == 4000:
        pattern = {"kind": "residue", "a": 0, "b": 2}
    data = {
        "command": "findim",
        "pattern": pattern,
        "truncationDim": 3,
        "supportBound": 4,
        "horizon": horizon,
        "trials": trials,
        "seed": 11 * trials + horizon,
    }
    stacks = stack_cap(data)
    stacked, reference = _stacked_and_reference(tmp_path, data, capsys, monkeypatch)
    assert stacked == reference
    assert stacked[2][0] is not None
    assert sum(stacks) == trials
    if stack_cap.kind == "three":
        assert stacks == [3] * (trials // 3) + [trials % 3] * (trials % 3 > 0)


KERNEL_CASES = [
    # (eigen, chain, horizon): chunks of three at the "three" cap; at the
    # default cap a horizon of 1500 makes chunks of ten.
    (7, 4, 12),
    (3, 3, 12),
    (0, 5, 5),
    (1, 0, 0),
    (23, 11, 1500),
    # A chain of rank 2 needs horizon >= 3: the first such instance raises.
    (4, 9, 2),
]


@pytest.mark.parametrize("eigen, chain, horizon", KERNEL_CASES)
def test_kernel_matches_one_orbit_at_a_time(
    tmp_path, capsys, monkeypatch, stack_cap, eigen, chain, horizon
):
    data = {
        "command": "kernel",
        "eigenInstances": eigen,
        "chainInstances": chain,
        "horizon": horizon,
        "seed": eigen + 10 * chain + horizon,
    }
    stacks = stack_cap(data)
    stacked, reference = _stacked_and_reference(tmp_path, data, capsys, monkeypatch)
    assert stacked == reference
    if horizon == 2:
        assert stacked[0] == 2 and stacked[1].startswith("error: need n_max >= 2p - 1")
    else:
        assert stacked[0] in (0, 1)
        assert sum(stacks) == eigen + chain
    if stack_cap.kind == "one":
        assert set(stacks) <= {1}


def _bad_on_call(fn, k, value):
    """``fn``, except that its k-th call (from 0) returns ``value``."""
    calls = []

    def patched(*args):
        calls.append(args)
        return value if len(calls) == k + 1 else fn(*args)

    return patched


def _kernel_run(monkeypatch, eigen, chain, horizon=12):
    """The kernel runner on chunks of three instances."""
    monkeypatch.setattr(_kernels, "_STACK", 3 * (horizon + 1) * cli._KERNEL_MAX_DIM)
    cfg = ExperimentConfig.from_dict(
        {"command": "kernel", "eigenInstances": eigen, "chainInstances": chain, "horizon": horizon}
    )
    return cli._COMMANDS["kernel"].run(cfg)


class TestKernelGateSweep:
    """Every deviation reaches its gate through the chunked reduction."""

    # The first instance, the first past the chunk boundary, and the last.
    @pytest.mark.parametrize("k", [0, 3, 6])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "family, name",
        [("eigen", "eigen_orbit_pairing"), ("chain", "generalized_pairing_polynomial")],
    )
    def test_a_non_finite_deviation_fails_its_gate(self, monkeypatch, k, bad, family, name):
        assert _kernel_run(monkeypatch, 7, 7).passed
        monkeypatch.setattr(cli, name, _bad_on_call(getattr(cli, name), k, bad))
        result = _kernel_run(monkeypatch, 7, 7)
        verdict = result.report[family]
        other = result.report["chain" if family == "eigen" else "eigen"]
        assert not verdict["pass"] and other["pass"] and not result.passed

    @seed(13)
    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(["eigen", "chain"]),
        devs=st.lists(
            st.tuples(st.integers(-320, 307), st.floats(1.0, 10.0, exclude_max=True)),
            min_size=1,
            max_size=7,
        ),
        tol=st.tuples(st.integers(-320, 307), st.floats(1.0, 10.0, exclude_max=True)),
    )
    def test_magnitudes_gate_through_chunks(self, family, devs, tol):
        devs = [m * 10.0**e for e, m in devs]
        tol = tol[1] * 10.0 ** tol[0]
        name = "eigen_orbit_pairing" if family == "eigen" else "generalized_pairing_polynomial"
        with pytest.MonkeyPatch.context() as monkeypatch:
            values = iter(devs)
            monkeypatch.setattr(cli, name, lambda *args: next(values))
            tol_key = "eigen_tol" if family == "eigen" else "chain_tol"
            count = len(devs)
            monkeypatch.setattr(_kernels, "_STACK", 3 * 13 * cli._KERNEL_MAX_DIM)
            base = {"command": "kernel", "eigenInstances": 0, "chainInstances": 0}
            base["eigenInstances" if family == "eigen" else "chainInstances"] = count
            cfg = dataclasses.replace(ExperimentConfig.from_dict(base), **{tol_key: tol})
            result = cli._COMMANDS["kernel"].run(cfg)
        verdict = result.report[family]
        worst = verdict["maxDeviation" if family == "eigen" else "maxResidual"]
        assert worst == max(devs)
        assert verdict["pass"] == (max(devs) <= tol)
        assert result.passed == verdict["pass"]


class TestFindimGateSweep:
    """A trial passes when its ranks stabilized and densityDefect >= 0.5; a
    non-finite defect stops the run with exit 2, naming the field."""

    @seed(18)
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            gate_values(0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)),
            min_size=3,
            max_size=3,
        )
    )
    def test_density_defect_gate(self, defects):
        data = {"command": "findim", "pattern": {"kind": "prefix", "m": 1}, "horizon": 50}
        values = iter(defects)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "density_defect", lambda *args, **kwargs: next(values))
            rc, err, report = run_main(data)
        bad = [t for t, d in enumerate(defects) if not math.isfinite(d)]
        if bad:
            field = f"report.trials[{bad[0]}].densityDefect"
            assert (rc, err, report) == (2, non_finite_error(field, defects[bad[0]]), None)
            return
        want = [Fraction(d) >= Fraction(1, 2) for d in defects]
        trials = report["report"]["trials"]
        assert all(tr["stabilized"] for tr in trials)
        assert [tr["densityDefect"] for tr in trials] == defects
        assert [tr["pass"] for tr in trials] == want
        assert (rc, err) == (0 if all(want) else 1, "")
