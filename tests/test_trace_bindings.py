"""perfbench's tracer patches orbitlab by name; every name must still exist.

``perfbench/tracer.py`` wraps functions at the bindings their callers use
(``cli.eigen_orbit_pairing``, ``criterion.invariance_check``,
``_kernels.orbit_points``, ...) through ``owner.__dict__[attr]``.  A refactor
that drops or renames one of them breaks ``--trace 1`` and ``--smoke``; this
test installs and uninstalls the tracer so that it breaks here first.
"""

from pathlib import Path

from orbitlab import _kernels, cli, constructor, criterion, obstructions, seqspace, subspace
from orbitlab.cli import ExperimentConfig, run

MODULES = (_kernels, cli, constructor, criterion, obstructions, seqspace, subspace)


def _owners():
    """The orbitlab modules and the classes they define."""
    classes = [
        value
        for module in MODULES
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__.startswith("orbitlab")
    ]
    return list(MODULES) + list({id(c): c for c in classes}.values())


def test_install_then_uninstall_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    before = {id(owner): dict(vars(owner)) for owner in _owners()}
    tracer = Tracer()
    try:
        tracer.install()
        patched = [(owner, attr) for owner, attr, _ in tracer._undo]
        names = {f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in patched}
        # One traced run of the kernel command goes through the pairing
        # wrappers and the orbit kernel they read.
        cfg = ExperimentConfig.from_dict(
            {"command": "kernel", "eigenInstances": 2, "chainInstances": 2, "horizon": 6}
        )
        run(cfg)
        spans = {name for _, _, name, _, _ in tracer.spans}
    finally:
        tracer.uninstall()

    assert {
        "orbitlab.cli.eigen_orbit_pairing",
        "orbitlab.cli.generalized_pairing_polynomial",
        "orbitlab.criterion.invariance_check",
        "orbitlab._kernels.orbit_points",
    } <= names
    assert {"obstructions.pairing", "kernels.orbit_points"} <= spans
    for owner, attr in patched:
        assert vars(owner)[attr] is before[id(owner)][attr], (owner, attr)
    for owner in _owners():
        now = vars(owner)
        assert now.keys() == before[id(owner)].keys(), owner
        assert all(now[k] is v for k, v in before[id(owner)].items()), owner


def test_traced_findim_emits_the_dense_spans(monkeypatch):
    """The dense per-layer metrics read these spans; a run that stops going
    through their bindings would report them as 0."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        cfg = ExperimentConfig.from_dict(
            {"command": "findim", "pattern": {"kind": "prefix", "m": 1}, "horizon": 50}
        )
        run(cfg)
        spans = [name for _, _, name, _, _ in tracer.spans]
        counts = dict(tracer.counts)
    finally:
        tracer.uninstall()

    assert {
        "obstructions.orbit_span_rank",
        "obstructions.density_defect",
        "kernels.orbit_points",
    } <= set(spans)
    # Three trials: two ranks and one defect each, off one stack of orbits.
    assert spans.count("obstructions.orbit_span_rank") == 6
    assert spans.count("obstructions.density_defect") == 3
    assert counts["kernels.orbit_points_rows"] == 3


def test_traced_certify_emits_the_constructor_spans(monkeypatch):
    """The certify per-layer metrics read these spans and this count; the
    tracer patches ``cli.build_schedule``, ``cli.assemble``, ``cli.certify``
    and ``constructor.apply_power``, so all four bindings must stay.  The
    windows are built once, in ``assemble``, and ``certify`` only reads them:
    each build records the innermost open span."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    tracer = Tracer()
    built = []
    build = constructor.WindowedVector.__init__

    def recorded(self, schedule):
        built.append(tracer._open[-1][1])
        build(self, schedule)

    monkeypatch.setattr(constructor.WindowedVector, "__init__", recorded)
    try:
        tracer.install()
        patched = {f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in tracer._undo}
        cfg = ExperimentConfig.from_dict(
            {"command": "preset", "preset": "certify-prefix3", "targets": 42}
        )
        assert run(cfg).passed
        spans = [name for _, _, name, _, _ in tracer.spans]
        counts = dict(tracer.counts)
    finally:
        tracer.uninstall()

    assert {
        "orbitlab.cli.build_schedule",
        "orbitlab.cli.assemble",
        "orbitlab.cli.certify",
        "orbitlab.constructor.apply_power",
    } <= patched
    for name in ("constructor.build_schedule", "constructor.assemble", "constructor.certify"):
        assert spans.count(name) == 1, name
    assert counts["constructor.certify_rows"] == 42 + 1
    assert built == ["constructor.assemble"]
