"""The benchmark's tracer binds package names; a rename must fail here first.

``bench/tracing.installed`` patches public entry points where their
consumers bind them. Entering it resolves every one of them, so a deleted or
renamed name fails this test instead of a full benchmark run.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import siggame
import siggame.cli
from siggame.simulate import run_episode

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_installed_resolves_every_binding_and_restores_it(table1, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    modules = (siggame.cli, siggame.equilibrium, siggame.simulate, siggame.scenario_io)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, siggame):
        patched = {
            (m.__name__, name): (value, old[name])
            for m, old in zip(modules, before)
            for name, value in vars(m).items()
            if value is not old.get(name)
        }
        # each replacement wraps or subclasses the name it replaced
        for value, original in patched.values():
            assert getattr(value, "__wrapped__", None) is original or issubclass(value, original)
        siggame.simulate.run_episode(replace(table1, horizon=1, episode_length=3), 0)
    assert ("siggame.simulate", "RecedingHorizonPolicy") in patched
    assert ("siggame.cli", "read_trajectory") in patched
    assert tracing.RUN_EPISODE in tracer.names and tracing.SAMPLE in tracer.names
    for m, old in zip(modules, before):
        assert vars(m) == old
    assert siggame.simulate.run_episode is run_episode
