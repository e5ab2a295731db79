"""The benchmark's layer tracer, the demos and the README's library
example still run against the engine, and its reports still hash to the
pinned digest."""

import hashlib
import importlib.util
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import types

import pytest

import zamobelt.belt as belt
import zamobelt.bigraph as bg
import zamobelt.cli as cli
import zamobelt.green as green
import zamobelt.laurent as laurent
import zamobelt.tropical as tropical

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_bench(name):
    """The benchmark's module bench/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_tracer_counts_both_green_tracks_and_restores_every_original():
    layers = _load_bench("layers")
    owners = (belt, bg, cli, green, laurent.Laurent, tropical)
    before = [dict(vars(owner)) for owner in owners]
    tracer = layers.Tracer()
    layers.install(tracer)
    trials = 5
    try:
        for config in (
            {"command": "green", "target": "A2", "skipSymbolic": True},
            {"command": "halfperiod", "target": "A2"},
            {"command": "tropical", "target": "A3", "seed": 7, "trials": trials},
        ):
            assert cli.run_experiment(config)[1] == 0, config
        spans, _ = tracer.snapshot()
    finally:
        tracer.uninstall()
    framed_calls = spans["green.mutate_framed"][0]
    assert framed_calls > 0 and spans["green.mutate_y"][0] == framed_calls
    assert spans["cli.run_experiment"][0] == 3
    # green A2 and tropical A3 each read their bigraph's certificates once,
    # through the attribute the tracer patches
    assert spans["green.verify_bipartite_belt_mgs"][0] == 2
    # each trial steps to N and re-indexes the states up to 2N
    assert spans["tropical.step_values"][0] == trials * bg.catalog("A3").half_period
    for owner, was in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == was.keys(), owner
        assert all(now[name] is value for name, value in was.items()), owner


# The digest's configs: the benchmark's experiments, then a 25-step belt
# and a symbolic green run on each of these targets.
DIGEST_TARGETS = ("A3", "D4", "E6", "A2xA4", "fig2-F4xA2", "fig1-A5starD4", "D4xA2")
REPORT_DIGEST = "8283398f214d4768"


def test_the_reports_hash_to_the_pinned_digest():
    # one SHA-256 over json.dumps([config, text, code]) of each config's
    # run: every report byte and exit code of 111 runs, pinned
    workloads = _load_bench("workloads")
    configs = [c for w in workloads.WORKLOADS for c in workloads.experiments(w)]
    configs += [{"command": "belt", "target": t, "steps": 25} for t in DIGEST_TARGETS]
    configs += [{"command": "green", "target": t} for t in DIGEST_TARGETS]
    digest, codes = hashlib.sha256(), set()
    for config in configs:
        text, code = cli.run_experiment(config)
        codes.add(code)
        digest.update(json.dumps([config, text, code]).encode())
    assert (len(configs), codes) == (111, {0})
    assert digest.hexdigest()[:16] == REPORT_DIGEST, "a report or an exit code changed"


# The kernels the integer tracks run once per step, per mutation or per
# labeling entry.  In CPython before 3.12 each comprehension, generator
# expression or lambda is a nested code object called with a frame of
# its own every time it runs; 3.12 inlines list, dict and set
# comprehensions (PEP 709), but requires-python is >=3.10.  A nested
# code object among a function's constants is the static sign of one.
KERNELS = (
    (tropical, "step_values"),
    (tropical, "random_int_labeling"),
    (tropical, "scaled_labeling"),
    (tropical, "_scaled_start"),
    (tropical, "scaled_states"),
    (tropical, "_advance"),
    (tropical, "dual_transfer_check"),
    (bg, "mutate_rows"),
    (bg, "composite_mutation"),
    (bg, "require_int_vertex"),
    (bg, "_by_sign"),
    (bg, "_negated"),
    (bg, "support"),
    (green, "mutate_framed"),
    (green, "mutate_c"),
    (green, "_parts"),
    (green, "_state"),
    (green, "mutate_y"),
    (green, "_checked"),
    (green, "_require_mutable"),
    (green, "vertex_status"),
    (green, "_points_inside"),
    (green, "_only"),
    (green, "_moved"),
    (green, "_check_restriction_commutes"),
    (green, "_assert_y_matches_c"),
)


@pytest.mark.parametrize(
    "module, name", KERNELS, ids=[m.__name__ + "." + n for m, n in KERNELS]
)
def test_a_per_step_kernel_holds_no_nested_code_object(module, name):
    code = getattr(module, name).__code__
    nested = [c.co_name for c in code.co_consts if isinstance(c, types.CodeType)]
    assert nested == []


# what only the dispatcher (cli._run) may name: a command that names one
# resolves its target or writes the report envelope itself again
DISPATCHER_NAMES = {"_resolve_target", "catalog_version", "_json_text"}


def _names(code):
    """The names a code object and every code object nested in it use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


@pytest.mark.parametrize(
    "command", sorted(name for name in cli._COMMANDS if name != "catalog-list")
)
def test_a_command_leaves_the_target_and_the_envelope_to_the_dispatcher(command):
    assert _names(cli._COMMANDS[command].__code__) & DISPATCHER_NAMES == set()


# what only the bigraph's certificates (`Bigraph.certificates`) may call:
# a command that names one walks a belt the bigraph may already hold
CERTIFICATE_NAMES = {"verify_bipartite_belt_mgs", "_certify"}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_a_command_reads_the_certificates_the_bigraph_holds(command):
    assert _names(cli._COMMANDS[command].__code__) & CERTIFICATE_NAMES == set()


# the first 16 hex digits of the SHA-256 of each demo's stdout; a demo
# added without its digest fails
DEMO_DIGESTS = {
    "01_symbolic_belt.py": "dbc9fdc01bad45de",
    "02_maximal_green.py": "4ede79886a03427e",
    "03_tropical_census.py": "e7e21790f78d0b99",
    "04_folding_and_duals.py": "72b8ff5e1ab7a82e",
}


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
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:].decode(errors="replace")
    assert hashlib.sha256(done.stdout).hexdigest()[:16] == DEMO_DIGESTS.get(demo)


def test_readme_library_surface_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library surface", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_readme_cli_examples_run(tmp_path, capsys):
    # each line of the README's CLI block exits 0, its suite file being
    # the README's suite JSON block
    section = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    lines = re.search(r"```\n(zamobelt .*?)```", section, re.DOTALL).group(1)
    suite = tmp_path / "configs.json"
    suite.write_text(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))
    lines = lines.splitlines()
    assert len(lines) == 8
    for line in lines:
        argv = shlex.split(line.split("#", 1)[0])
        assert argv[0] == "zamobelt"
        argv = [str(suite) if a == "configs.json" else a for a in argv[1:]]
        assert cli.main(argv) == 0, line
        capsys.readouterr()
