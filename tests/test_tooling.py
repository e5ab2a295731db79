"""The benchmark's layer tracer and the demos still run against the engine."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import zamobelt.belt as belt
import zamobelt.bigraph as bg
import zamobelt.cli as cli
import zamobelt.green as green
import zamobelt.laurent as laurent
import zamobelt.tropical as tropical

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_layers():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_tracer_counts_both_green_tracks_and_restores_every_original():
    layers = _load_layers()
    owners = (belt, bg, cli, green, laurent.Laurent, tropical)
    before = [dict(vars(owner)) for owner in owners]
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        for config in (
            {"command": "green", "target": "A2", "skipSymbolic": True},
            {"command": "halfperiod", "target": "A2"},
        ):
            assert cli.run_experiment(config)[1] == 0, config
        spans, _ = tracer.snapshot()
    finally:
        tracer.uninstall()
    framed_calls = spans["green.mutate_framed"][0]
    assert framed_calls > 0 and spans["green.mutate_y"][0] == framed_calls
    assert spans["cli.run_experiment"][0] == 2
    for owner, was in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == was.keys(), owner
        assert all(now[name] is value for name, value in was.items()), owner


@pytest.mark.parametrize(
    "demo", sorted(p.name for p in (ROOT / "demos").glob("*.py"))
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
