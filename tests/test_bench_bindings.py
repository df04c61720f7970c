"""The benchmark binds package names; a rename must fail here first.

``bench/tracing.installed`` patches public entry points where their
consumers bind them, and ``bench/run.py`` calls the package through ``sg``.
Both are resolved here, so a deleted or renamed name fails this test instead
of a full benchmark run.
"""

import ast
import functools
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import siggame
import siggame.cli
from siggame.simulate import run_episode

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACING = _BENCH / "tracing.py"
# reached through locals, not through an ``sg`` chain: ``eq = self.sg.equilibrium``
# and ``checks.reimport(path, sg.scenario_io)``
_THROUGH_LOCALS = {
    ("equilibrium", "solve_bne"),
    ("scenario_io", "read_trajectory"),
    ("scenario_io", "format_trajectory"),
}


def _package_chains(tree):
    """Every attribute chain rooted at ``sg`` or ``self.sg``, as a name tuple;
    ``sg.cli.main`` gives ("cli",) and ("cli", "main")."""
    chains = set()
    for node in ast.walk(tree):
        names, base = [], node
        while isinstance(base, ast.Attribute):
            names.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id == "self" and names[-1:] == ["sg"]:
            names.pop()
        elif not (isinstance(base, ast.Name) and base.id == "sg"):
            continue
        if names:
            chains.add(tuple(reversed(names)))
    return chains


def test_run_resolves_every_package_name_it_calls():
    chains = _package_chains(ast.parse((_BENCH / "run.py").read_text(encoding="utf-8")))
    assert ("BeliefState",) in chains and ("cli", "main") in chains
    missing = []
    for chain in sorted(chains | _THROUGH_LOCALS):
        try:
            functools.reduce(getattr, chain, siggame)
        except AttributeError:
            missing.append(".".join(chain))
    assert missing == []


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
