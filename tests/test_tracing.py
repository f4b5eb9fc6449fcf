"""The benchmark's tracer (bench/tracing.py) must install on this package
and uninstall cleanly: it patches loupe's functions, methods and
`integrate` attributes by name and binds some of their parameters, so a
rename that would break `bench/run.py --trace 1` fails here instead."""

import importlib.util
import sys
from pathlib import Path

import pytest

from loupe.geometry import Circle, ExteriorDisk

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    # the bench scripts put their own directory on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = _load("bench_run", ROOT / "bench" / "run.py")
    tracing = _load("bench_tracing", ROOT / "bench" / "tracing.py")
    return run, tracing


def _attributes(mods):
    """Every module attribute and class attribute the tracer may patch."""
    owners = list(mods.values())
    for mod in mods.values():
        owners += [v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__ == mod.__name__]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_tracer_installs_counts_and_uninstalls(bench):
    run, tracing = bench
    mods = run.import_loupe(ROOT)
    before = _attributes(mods)
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        loops = mods["loops"]
        assert loops.loop_mass is not before[id(loops)][1]["loop_mass"]
        q = loops.LoopMassQuery((Circle(0j, 1.0), Circle(0j, 2.0)),
                                ExteriorDisk(0j, 0.5), force_mc=True,
                                n_theta=4, n_per_node=64)
        loops.loop_mass(q, 0)
        loops.loop_mass_circles(0.5, 2.0)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["loops.nodes"] > 0
    assert m["loops.node_walkers"] == m["loops.nodes"] * 4 * 16 * 2
    assert m["loops.target_dist_points"] > 0
    assert tracer.calls["loops.quad"] > 0
    for owner, attrs in before.values():
        now = vars(owner)
        assert [k for k, v in attrs.items() if now.get(k) is not v] == []
