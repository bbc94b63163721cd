"""``findim`` and ``kernel`` step their orbits in stacks; their outputs must
be those of stepping every orbit alone.

The reference runners below are the one-orbit-at-a-time runners the stacked
ones replaced: a 3-trial ``findim`` steps nine orbits (two rank orbits and
one density orbit per trial), and each pairing-law instance is generated by
the one-at-a-time references in ``conftest`` and steps its own orbit.  Each
reference orbit is a plain ``np.matmul`` loop.  The stack cap
``_kernels._STACK`` is set to one orbit, three orbits and its default, as
``zero_check`` sets ``_ZERO_CHECK``.
"""

import dataclasses
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orbitlab import _kernels, cli, obstructions
from orbitlab.cli import ExperimentConfig, RunResult, main
from orbitlab.errors import ConfigError, NotEigenvector, NotInGeneralizedKernel, OrbitlabError
from orbitlab.obstructions import density_defect, orbit_span_rank, unit_ball_net
from orbitlab.seqspace import FiniteMatrix, SeqVec, max_or_nan
from conftest import (
    gate_values,
    non_finite_error,
    plain_orbit,
    reference_eigen_orbit_pairing,
    reference_generalized_pairing_polynomial,
    reference_planted_chain_instance,
    reference_planted_eigen_instance,
    run_main,
)


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
        allowed = [i for i in range(dim) if not cfg.pattern.forbids(i)]
        vals = rng.standard_normal(len(allowed)) + 1j * rng.standard_normal(len(allowed))
        vals /= np.linalg.norm(vals)
        x = SeqVec(zip(allowed, vals)).to_dense(dim)

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
        op, y, lam = reference_planted_eigen_instance(rng, dim)
        x = SeqVec.from_dense(
            (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(dim)
        )
        orbit = plain_orbit(op.array, x.to_dense(dim), cfg.horizon)
        worst_eigen = max_or_nan(
            worst_eigen, reference_eigen_orbit_pairing(op, orbit, y, lam, cfg.horizon)
        )

    worst_chain = 0.0
    for _ in range(cfg.chain_instances):
        p = int(rng.integers(1, 4))
        dim = int(rng.integers(p + 1, 9))
        op, y, lam = reference_planted_chain_instance(rng, dim, p)
        x = SeqVec.from_dense(
            (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(dim)
        )
        orbit = plain_orbit(op.array, x.to_dense(dim), cfg.horizon)
        worst_chain = max_or_nan(
            worst_chain, reference_generalized_pairing_polynomial(op, orbit, y, lam, p, cfg.horizon)
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
    return data["horizon"] + 1, obstructions.KERNEL_MAX_DIM


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
    # Chains need horizon >= 5, for rank 3's fit: refused before any draw.
    (4, 9, 2),
]

# The line a kernel config with chains and a horizon below 5 exits 2 with.
SHORT_HORIZON = "config error: kernel needs horizon >= 5 to fit its rank-3 chains, got {}\n"


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
        assert stacked[:2] == (2, SHORT_HORIZON.format(horizon)) and stacks == []
    else:
        assert stacked[0] in (0, 1)
        assert sum(stacks) == eigen + chain
    if stack_cap.kind == "one":
        assert set(stacks) <= {1}


# The chunk of a horizon-12 run at the default stack cap.
CHUNK = _kernels.stack_width(13, obstructions.KERNEL_MAX_DIM)


@pytest.mark.parametrize(
    "eigen, chain, horizon",
    [
        (0, 0, 12),
        (1, 0, 12),
        (0, 1, 12),
        (CHUNK - 1, CHUNK + 1, 12),
        (CHUNK, CHUNK, 12),
        (CHUNK + 1, CHUNK - 1, 12),
        # One orbit per stack.
        (1, 1, 100000),
        # Chains need horizon >= 5: refused before any draw.
        (0, 40, 2),
        (5, CHUNK + 1, 2),
    ],
)
def test_kernel_edges_match_the_reference(tmp_path, capsys, monkeypatch, eigen, chain, horizon):
    data = {
        "command": "kernel",
        "eigenInstances": eigen,
        "chainInstances": chain,
        "horizon": horizon,
        "seed": 3 * eigen + chain + horizon,
    }
    stacks = []
    stepped = _kernels.orbit_points

    def recorded(mats, vecs, n_steps):
        stacks.append(len(vecs))
        return stepped(mats, vecs, n_steps)

    monkeypatch.setattr(_kernels, "orbit_points", recorded)
    stacked, reference = _stacked_and_reference(tmp_path, data, capsys, monkeypatch)
    assert stacked == reference
    if horizon == 2:
        assert stacked[:2] == (2, SHORT_HORIZON.format(horizon)) and stacks == []
        return
    assert stacked[:2] == (0, "")
    assert sum(stacks) == eigen + chain
    assert max(stacks, default=1) <= (1 if horizon == 100000 else CHUNK)


SIZES = (1, 2, 3, 17, 64, CHUNK)


def _instance_bits(instance):
    op, y, lam = instance
    return op.array.view(np.uint64).tolist(), repr(y.items()), repr(lam)


def _same_as_one_at_a_time(draw, reference, size):
    """``size`` draws factored as one stack against the one-at-a-time
    references, bit for bit, and the rng left in the same state."""
    drawn, alone = np.random.default_rng(size), np.random.default_rng(size)
    draws = [draw(drawn) for _ in range(size)]
    want = [reference(alone) for _ in range(size)]
    assert drawn.bit_generator.state == alone.bit_generator.state
    mats, ys = obstructions._factored(draws)
    assert mats.flags.c_contiguous and len(mats) == len(ys) == size
    got = [(FiniteMatrix(m), SeqVec.from_dense(y), d.lam) for m, y, d in zip(mats, ys, draws)]
    assert [_instance_bits(g) for g in got] == [_instance_bits(w) for w in want]
    assert mats.view(np.uint64).tolist() == [w[0].array.view(np.uint64).tolist() for w in want]


class TestStackedGenerators:
    """A stack of draws factors to the bits of the one-at-a-time generators.

    numpy's stacked ``qr`` and ``matmul`` run the LAPACK and BLAS calls of
    one matrix on each matrix of the stack; if a numpy version stops doing
    so, these tests fail.
    """

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("dim", range(2, 13))
    def test_eigen(self, dim, size):
        _same_as_one_at_a_time(
            lambda rng: obstructions.draw_eigen(rng, dim),
            lambda rng: reference_planted_eigen_instance(rng, dim),
            size,
        )

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("dim", range(2, 13))
    def test_chain(self, dim, p, size):
        if p > dim:
            with pytest.raises(ValueError, match="need 1 <= p <= dim"):
                obstructions.draw_chain(np.random.default_rng(0), dim, p)
            return
        _same_as_one_at_a_time(
            lambda rng: obstructions.draw_chain(rng, dim, p),
            lambda rng: reference_planted_chain_instance(rng, dim, p),
            size,
        )

    @pytest.mark.parametrize("dim", range(2, 13))
    def test_one_instance_is_a_stack_of_one(self, dim):
        drawn, alone = np.random.default_rng(dim), np.random.default_rng(dim)
        got = [obstructions.planted_eigen_instance(drawn, dim)]
        want = [reference_planted_eigen_instance(alone, dim)]
        for p in range(1, min(dim, 3) + 1):
            got.append(obstructions.planted_chain_instance(drawn, dim, p))
            want.append(reference_planted_chain_instance(alone, dim, p))
        assert [_instance_bits(g) for g in got] == [_instance_bits(w) for w in want]
        assert drawn.bit_generator.state == alone.bit_generator.state

    def test_a_bad_rank_raises_before_any_draw(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        for dim, p in ((3, 4), (3, 0)):
            with pytest.raises(ValueError, match="need 1 <= p <= dim"):
                obstructions.planted_chain_instance(rng, dim, p)
        assert rng.bit_generator.state == state

    def test_planted_orbits_in_draw_order(self):
        """Mixed dimensions and ranks: each instance of the chunk, its rank
        and its orbit as alone, zero past its dimension."""
        drawn, alone = np.random.default_rng(9), np.random.default_rng(9)
        draws, starts, want = [], [], []
        for k in range(40):
            dim = 2 + k % 7
            p = min(1 + k % 3, dim)
            draws.append(obstructions.draw_chain(drawn, dim, p))
            starts.append(drawn.standard_normal(dim) + 1j * drawn.standard_normal(dim))
            op, y, lam = reference_planted_chain_instance(alone, dim, p)
            x = alone.standard_normal(dim) + 1j * alone.standard_normal(dim)
            want.append(((op, y, lam), p, plain_orbit(op.array, x, 9)))
        chunk = obstructions.planted_orbits(draws, starts, 9)
        assert chunk.mats.shape == (40, 8, 8) and chunk.orbits.shape == (40, 10, 8)
        for b, (ref, p, ref_orbit) in enumerate(want):
            d = chunk.dims[b]
            y, lam = SeqVec.from_dense(chunk.ys[b]), complex(chunk.lams[b])
            instance = FiniteMatrix(chunk.mats[b, :d, :d]), y, lam
            assert _instance_bits(instance) == _instance_bits(ref) and chunk.ranks[b] == p
            assert not chunk.mats[b, d:].any() and not chunk.mats[b, :, d:].any()
            assert not chunk.ys[b, d:].any() and not chunk.orbits[b, :, d:].any()
            orbit = chunk.orbits[b, :, :d]
            assert orbit.view(np.uint64).tolist() == ref_orbit.view(np.uint64).tolist()


def _bad_on_call(fn, k, value):
    """``fn``, except that its k-th call (from 0) returns ``value``."""
    calls = []

    def patched(*args):
        calls.append(args)
        return value if len(calls) == k + 1 else fn(*args)

    return patched


def _kernel_run(monkeypatch, eigen, chain, horizon=12):
    """The kernel runner on chunks of three instances: each law call reads one."""
    monkeypatch.setattr(_kernels, "_STACK", 3 * (horizon + 1) * obstructions.KERNEL_MAX_DIM)
    cfg = ExperimentConfig.from_dict(
        {"command": "kernel", "eigenInstances": eigen, "chainInstances": chain, "horizon": horizon}
    )
    return cli._COMMANDS["kernel"].run(cfg)


class TestKernelGateSweep:
    """Every deviation reaches its gate through the chunked reduction."""

    # Seven instances in chunks of three: the first chunk, the one past the
    # first boundary, and the last, of one instance.
    @pytest.mark.parametrize("k", [0, 1, 2])
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
            # One instance per chunk, so that each law call is one instance.
            monkeypatch.setattr(_kernels, "_STACK", 13 * obstructions.KERNEL_MAX_DIM)
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


# -- the pairing laws over chunks -------------------------------------------


def _tool():
    """``tools/same_outputs.py``, whose ``kernel_configs`` is the kernel sweep
    and whose ``workload_configs`` hold perfbench's at seeds 0-3."""
    path = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("_stacked_same_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


_SAME_OUTPUTS = _tool()
_SWEEP = dict(
    _SAME_OUTPUTS.kernel_configs()
    + [(name, cfg) for name, cfg in _SAME_OUTPUTS.workload_configs() if "/kernel@" in name]
)


def _one(chunk, b):
    """Instance b of a chunk as the reference laws read it: (op, orbit, y, lam, p)."""
    d = chunk.dims[b]
    op = FiniteMatrix(chunk.mats[b, :d, :d])
    y = SeqVec.from_dense(chunk.ys[b, :d])
    return op, chunk.orbits[b, :, :d], y, complex(chunk.lams[b]), int(chunk.ranks[b])


def _bits(value):
    assert type(value) is float
    return np.float64(value).view(np.uint64)


def test_the_sweep_chunk_is_the_default_chunk():
    assert _SAME_OUTPUTS.KERNEL_CHUNK == CHUNK


@pytest.mark.parametrize("name", sorted(_SWEEP))
def test_the_laws_match_the_references_bit_for_bit(name):
    """Each chunk's worst value is ``max_or_nan`` over the one-at-a-time
    references; on the small sizes, each instance alone, as a chunk of one
    cut from its chunk, is its reference's value."""
    cfg = _SWEEP[name]
    n_max = cfg["horizon"]
    streams = obstructions.planted_streams(
        cfg["seed"], cfg["eigenInstances"], cfg["chainInstances"], n_max
    )
    laws = [
        (cli.eigen_orbit_pairing, lambda op, orbit, y, lam, p: reference_eigen_orbit_pairing(
            op, orbit, y, lam, n_max
        )),
        (cli.generalized_pairing_polynomial, lambda op, orbit, y, lam, p: (
            reference_generalized_pairing_polynomial(op, orbit, y, lam, p, n_max)
        )),
    ]
    alone = cfg["eigenInstances"] + cfg["chainInstances"] <= 11
    for stream, (law, reference) in zip(streams, laws):
        for chunk in stream:
            want = [reference(*_one(chunk, b)) for b in range(len(chunk.lams))]
            folded = 0.0
            for value in want:
                folded = max_or_nan(folded, value)
            assert _bits(law(chunk, n_max)) == _bits(folded)
            if alone:
                got = [
                    law(obstructions.PairingChunk._make(f[b : b + 1] for f in chunk), n_max)
                    for b in range(len(want))
                ]
                assert [_bits(g) for g in got] == [_bits(w) for w in want]


def _outcome_of(fn):
    """``fn()``'s value as bits, or the type and message of its error."""
    try:
        return _bits(fn())
    except (OrbitlabError, ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _reference_chunk_outcome(instances, reference):
    """The references over the instances in order: the first error, or the
    ``max_or_nan`` of their values."""
    worst = 0.0
    for instance in instances:
        outcome = _outcome_of(lambda: reference(*instance))
        if isinstance(outcome, tuple):
            return outcome
        worst = max_or_nan(worst, reference(*instance))
    return _bits(worst)


@pytest.mark.parametrize("ranks", [(1, 2, 3, 2), (1, 3, 2, 3)])
def test_the_first_rank_short_of_its_fit_raises(ranks):
    """At n_max = 2 ranks 2 and 3 fail their fit with different messages:
    the chunk raises the message of the first such instance."""
    rng = np.random.default_rng(sum(ranks))
    instances = []
    for p in ranks:
        op, y, lam = obstructions.planted_chain_instance(rng, 5, p)
        x = SeqVec.from_dense(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        instances.append((op, obstructions.orbit_rows(op, x, 2), y, lam, p))
    got = _outcome_of(lambda: obstructions.generalized_pairing_polynomial(
        obstructions.pairing_chunk(instances), 2
    ))
    first = 2 * ranks[1] - 1
    assert got == (ValueError, f"need n_max >= 2p - 1 = {first} to fit Q")
    assert got == _reference_chunk_outcome(
        [(*i, 2) for i in instances], reference_generalized_pairing_polynomial
    )


def _gate_instance(rng, p, d, scale, lam, t, phase, dense):
    """(op, y, lam, p) with T* = lam + delta on y's line: ``delta`` =
    t e^(i phase) on y = scale e_0, or on y = scale U e_0 for a random
    unitary U when ``dense``; the other eigenvalues of T* are lam + 1/2."""
    delta = t * complex(math.cos(phase), math.sin(phase))
    adjoint = np.diag([lam + delta] + [lam + 0.5] * (d - 1)).astype(np.complex128)
    y = np.zeros(d, dtype=np.complex128)
    y[0] = scale
    if dense:
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        adjoint, y = u @ adjoint @ u.conj().T, u @ y
    return FiniteMatrix(adjoint.conj().T), SeqVec.from_dense(y), lam, p


def _passes(instance):
    op, y, lam, p = instance
    return obstructions._in_kernel(op.array.conj().T, lam, y, p)


def _crossing(instance_at, lo, hi):
    """The largest t in [lo, hi] at which ``instance_at(t)`` passes the gate,
    by bisection on the bits of t, for lo passing and hi failing."""
    lo_bits, hi_bits = (np.float64(v).view(np.int64) for v in (lo, hi))
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        if _passes(instance_at(float(np.int64(mid).view(np.float64)))):
            lo_bits = mid
        else:
            hi_bits = mid
    return float(np.int64(lo_bits).view(np.float64))


_GATE_KINDS = st.sampled_from(["near", "far", "nan", "inf"])


@st.composite
def _gate_instances(draw):
    """Instances of the pairing-law gate at ranks 1-3: residuals within +-4
    ulps of the bound KERNEL_TOL max(1, ||y||), far from it, NaN or inf,
    with ||y|| on either side of 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(_GATE_KINDS)
    p, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    scale = draw(st.floats(1.0, 2.0)) * 2.0 ** draw(st.sampled_from([-20, -3, 0, 3, 20]))
    lam = draw(st.sampled_from([0j, 0.5 - 0.25j, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]))
    phase = draw(st.floats(0.0, 2 * math.pi))
    dense = d > 1 and draw(st.booleans())
    if kind == "nan":  # lam y and T* y both overflow to inf
        return _gate_instance(rng, p, d, 1e200, 1e200, 0.0, 0.0, False), None
    if kind == "inf":
        return _gate_instance(rng, p, d, 1e10, 0j, 1e300, phase, dense), None
    bound = obstructions.KERNEL_TOL * max(1.0, scale)
    t = (bound / scale) ** (1 / p)
    at = lambda t: _gate_instance(np.random.default_rng(d), p, d, scale, lam, t, phase, dense)
    if kind == "far":
        return at(t * 10.0 ** draw(st.sampled_from([-3, -1, 1, 3]))), None
    crossing = _crossing(at, t / 2, t * 2)
    offset = draw(st.integers(-4, 4))
    for _ in range(abs(offset)):
        crossing = math.nextafter(crossing, math.inf if offset > 0 else 0.0)
    return at(crossing), offset


class TestStackedGate:
    """The gate over a chunk gives ``_in_kernel``'s boolean for every
    instance, and the first instance that fails a check raises."""

    @seed(30)
    @settings(max_examples=120, deadline=None)
    @given(st.lists(_gate_instances(), min_size=1, max_size=6))
    def test_the_stacked_gate_is_in_kernel(self, planted):
        instances = [instance for instance, _ in planted]
        chunk = obstructions.pairing_chunk(
            [(op, np.zeros((1, op.dim)), y, lam, p) for op, y, lam, p in instances]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            want = [_passes(instance) for instance in instances]
            got = obstructions._gate(chunk, chunk.ranks)
        assert got.tolist() == want
        for (instance, offset), passed in zip(planted, want):
            op, y, lam, p = instance
            if offset is not None and lam == 0 and op.dim == 1:
                # One product per step: the residual grows with t, so the
                # crossing and the ulps below it pass and those above fail.
                assert passed == (offset <= 0)

    @seed(31)
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_gate_instances(), min_size=1, max_size=6),
        st.integers(0, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_the_first_failing_instance_raises(self, planted, n_max, start_seed):
        rng = np.random.default_rng(start_seed)
        instances = []
        for (op, y, lam, p), _ in planted:
            x = SeqVec.from_dense(rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim))
            with np.errstate(over="ignore", invalid="ignore"):
                instances.append((op, obstructions.orbit_rows(op, x, n_max), y, lam, p))
        chunk = obstructions.pairing_chunk(instances)
        with np.errstate(all="ignore"):
            eigen = _outcome_of(lambda: obstructions.eigen_orbit_pairing(chunk, n_max))
            chain = _outcome_of(lambda: obstructions.generalized_pairing_polynomial(chunk, n_max))
            assert eigen == _reference_chunk_outcome(
                [(*i[:4], n_max) for i in instances], reference_eigen_orbit_pairing
            )
            assert chain == _reference_chunk_outcome(
                [(*i, n_max) for i in instances], reference_generalized_pairing_polynomial
            )

    @pytest.mark.parametrize("law", ["eigen", "chain"])
    def test_a_mixed_chunk_raises_its_first_failure(self, law):
        # Planted ranks 1 and 2 (not adjoint eigenvectors at rank 2), y
        # outside the kernel at place 2 and a non-finite orbit at place 4:
        # each tail of the chunk raises what the references raise first.
        rng = np.random.default_rng(7)
        instances = []
        for k in range(6):
            p = 2 if k in (1, 3) else 1
            op, y, lam = obstructions.planted_chain_instance(rng, 4, p)
            x = SeqVec.from_dense(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            orbit = obstructions.orbit_rows(op, x, 6).copy()
            if k == 4:
                orbit[5, 0] = math.inf
            instances.append((op, orbit, SeqVec.basis(3) if k == 2 else y, lam, p))
        if law == "eigen":
            stacked, reference = obstructions.eigen_orbit_pairing, reference_eigen_orbit_pairing
            instances = [instance[:4] for instance in instances]
        else:
            stacked = obstructions.generalized_pairing_polynomial
            reference = reference_generalized_pairing_polynomial
        outcomes = []
        for first in range(6):
            part = instances[first:]
            got = _outcome_of(lambda: stacked(obstructions.pairing_chunk(part), 6))
            assert got == _reference_chunk_outcome([(*i, 6) for i in part], reference)
            outcomes.append(got)
        gate = NotEigenvector if law == "eigen" else NotInGeneralizedKernel
        assert outcomes[2][0] is gate and outcomes[4] == (ValueError, "non-finite orbit entry")
        assert isinstance(outcomes[5], np.uint64)

    def test_an_overflow_in_the_loop_over_n_raises_in_chunk_order(self):
        # conj(lam)^n overflows at n = 2 with every pairing 0: x is
        # orthogonal to y.  For lam = 0 (and a residual of half the bound),
        # the pairing at n = 2 has finite parts of 1.5e308 and a modulus
        # past the float range.  Python's pow
        # and abs raise OverflowError there; a gate failure after them must
        # not win, and one before them must.
        rng = np.random.default_rng(3)
        op, y, lam = obstructions.planted_chain_instance(rng, 3, 1)
        fine = (op, obstructions.orbit_rows(op, SeqVec.basis(0), 6), y, lam, 1)
        outside = (*fine[:2], SeqVec.basis(2), lam, 1)
        big = FiniteMatrix(np.diag([1e200, 0.5]))
        power = (big, obstructions.orbit_rows(big, SeqVec.basis(1), 6), SeqVec.basis(0), 1e200 + 0j)
        small = FiniteMatrix([[0.5e-10]])
        start = SeqVec.basis(0, 6e178 + 6e178j)
        modulus = (small, obstructions.orbit_rows(small, start, 6), SeqVec.basis(0, 1e150), 0j)
        cases = [
            ("eigen", [fine[:4], power, outside[:4]], "complex exponentiation"),
            ("chain", [fine, (*power, 1), outside], "complex exponentiation"),
            ("chain", [fine, (*modulus, 1), outside], "absolute value too large"),
        ]
        for law, instances, message in cases:
            stacked, reference = {
                "eigen": (obstructions.eigen_orbit_pairing, reference_eigen_orbit_pairing),
                "chain": (
                    obstructions.generalized_pairing_polynomial,
                    reference_generalized_pairing_polynomial,
                ),
            }[law]
            with np.errstate(all="ignore"):
                for order in (instances, instances[::-1]):
                    got = _outcome_of(lambda: stacked(obstructions.pairing_chunk(order), 6))
                    want = _reference_chunk_outcome([(*i, 6) for i in order], reference)
                    assert got == want
            assert want[0] in (NotEigenvector, NotInGeneralizedKernel)
            assert _outcome_of(
                lambda: stacked(obstructions.pairing_chunk(instances), 6)
            ) == (OverflowError, message)
