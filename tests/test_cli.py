"""Command line driver: report shapes, exit protocol, determinism."""

import argparse
import csv
import dataclasses
import importlib.util
import json
import os
import pathlib
import random
import signal
import tracemalloc
from fractions import Fraction

import pytest

import zamobelt.belt as belt
import zamobelt.bigraph as bg
import zamobelt.cli as cli
import zamobelt.green as green
import zamobelt.laurent as laurent
import zamobelt.tropical as tropical
from zamobelt.cli import main, run_experiment
from zamobelt.errors import InputError, NotMaximal, TermGuardExceeded
from zamobelt.laurent import Laurent


def run(capsys, *argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_belt_initial_cluster(capsys):
    code, out, _ = run(capsys, "belt", "A2", "--steps", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["cluster"] == "x1, x2"
    assert doc["steps"] == 0


@pytest.mark.parametrize("steps", [1_000_000, 1_000_003])
def test_a_long_belt_renders_one_state_in_bounded_memory(capsys, steps):
    # a step depends on time only through its parity, so the state at
    # steps is the state at steps mod the period; holding every state up
    # to a million would take tens of MiB
    _, out, _ = run(capsys, "halfperiod", "A2")
    period = json.loads(out)["period"]
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "belt", "A2", "--steps", str(steps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20, peak
    doc = json.loads(out)
    assert doc["steps"] == steps
    _, short, _ = run(capsys, "belt", "A2", "--steps", str(steps % period))
    assert doc["cluster"] == json.loads(short)["cluster"]


@pytest.mark.parametrize("command", ["tropical", "dual-check"])
def test_trial_labelings_are_drawn_one_at_a_time(command):
    # drawn all before the first run, the labelings took about 0.2 KiB
    # a trial, some 360 KiB more at 2 000 trials than at 200
    def peak(trials):
        config = {"command": command, "target": "A2", "seed": 7, "trials": trials}
        tracemalloc.start()
        try:
            assert run_experiment(config)[1] == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200)  # the catalog entry and the imports it needs, built once
    assert peak(2000) - peak(200) < 64 * 1024


def test_halfperiod_report_keys_and_values(capsys):
    code, out, _ = run(capsys, "halfperiod", "fig1-A5starD4")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "name",
        "N",
        "period",
        "sigma",
        "colorBehavior",
        "identity",
        "censusSize",
        "catalogVersion",
    ]
    assert doc["N"] == 10
    assert doc["period"] == 20
    assert doc["sigma"] == "(8 9)"
    assert doc["colorBehavior"] == "preserving"
    assert doc["identity"] is False
    assert doc["censusSize"] is None


def test_halfperiod_census_size_for_tensor_with_point(capsys):
    code, out, _ = run(capsys, "halfperiod", "A3")
    doc = json.loads(out)
    assert code == 0 and doc["censusSize"] == 9


def test_green_report(capsys):
    code, out, _ = run(capsys, "green", "A2")
    assert code == 0
    doc = json.loads(out)
    assert doc["lengths"] == [3, 2]
    assert doc["certificates"][0]["sequence"] == [2, 1, 2]
    assert doc["certificates"][1]["sequence"] == [1, 2]
    assert all(c["finalCIsMinusPermutation"] for c in doc["certificates"])
    assert doc["frozenIsomorphism"] == {"sigma": "(1 2)", "matchesSymbolic": True}


def test_green_skip_symbolic(capsys):
    code, out, _ = run(capsys, "green", "B2", "--skip-symbolic")
    doc = json.loads(out)
    assert code == 0
    assert doc["frozenIsomorphism"]["matchesSymbolic"] is None


def test_census_csv(capsys):
    code, out, _ = run(capsys, "census", "A2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,lambdaSeed,period,red,blue,ties"
    assert lines[1] == "A2,-1,10,6,4,0"


def test_a_census_row_with_a_per_vertex_labeling_is_six_csv_fields(capsys):
    code, out, _ = run(capsys, "census", "A3", "--lambda=-1,-2,-3")
    assert code == 0
    assert out == 'name,lambdaSeed,period,red,blue,ties\nA3,"-1,-2,-3",12,12,6,0\n'
    header, row = csv.reader(out.splitlines())
    assert dict(zip(header, row)) == {
        "name": "A3", "lambdaSeed": "-1,-2,-3", "period": "12",
        "red": "12", "blue": "6", "ties": "0",
    }


@pytest.mark.parametrize("file_name", ["a,2.json", 'a"2.json'])
def test_a_census_row_of_a_target_path_with_a_comma_or_quote_is_six_csv_fields(
    tmp_path, capsys, file_name
):
    # one quoting rule for the name and the labeling: a comma is quoted,
    # a '"' doubled, and the path reads back whole
    path = tmp_path / file_name
    path.write_text(json.dumps({"n": 2, "b": [[0, 1], [-1, 0]], "epsilon": ["w", "b"]}))
    for lam in ("-1", "-1,-2"):
        code, out, _ = run(capsys, "census", str(path), "--lambda=" + lam)
        assert code == 0
        header, row = csv.reader(out.splitlines())
        assert len(header) == len(row) == 6
        assert (row[0], row[1]) == (str(path), lam)
        assert run_experiment(
            {"command": "census", "target": str(path), "lambda": lam}
        ) == (out, 0)


@pytest.mark.parametrize(
    "lam", ["-1e-3", "\u0663", "1_0", "-1,1e2,-1", ".5", "-1.", "1 / 2", "0x1", "inf"]
)
def test_a_labeling_outside_the_ascii_grammar_exits_two(capsys, lam):
    # no exponent, no digits of other scripts, no "_": Fraction reads all
    # three, an exponent at a cost growing with its value
    code, out, err = run(capsys, "census", "A3", "--lambda=" + lam)
    assert (code, out, err) == (2, "", "error: bad labeling %r\n" % lam)
    text, code = run_experiment({"command": "census", "target": "A3", "lambda": lam})
    assert (text, code) == ("error: bad labeling %r\n" % lam, 2)


@pytest.mark.parametrize(
    "lam, values",
    [
        ("-1", (-1, -1, -1)),
        ("-2/3", (Fraction(-2, 3),) * 3),
        ("-1.25", (Fraction(-5, 4),) * 3),
        ("+2", (2, 2, 2)),
        (" -1 , -2 ,-3", (-1, -2, -3)),
    ],
)
def test_a_labeling_in_the_ascii_grammar_is_read(lam, values):
    assert cli._parse_labeling(lam, 3) == values


def test_an_exponent_labeling_in_a_suite_exits_two_at_once(tmp_path, capsys):
    def stop(signum, frame):
        raise TimeoutError("the labeling was not refused at once")

    path = tmp_path / "suite.json"
    path.write_text(json.dumps(
        [{"command": "census", "target": "A2", "lambda": "-1e-999999999"}]
    ))
    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        code, out, _ = run(capsys, "suite", str(path))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert code == 2
    (entry,) = json.loads(out)["results"]
    assert entry["report"] == "error: bad labeling '-1e-999999999'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("belt", "A2", "--steps", "\u0663"),
        ("tropical", "A2", "--trials", "1_0"),
        ("tropical", "A2", "--seed", "\u0667"),
        ("dual-check", "A2", "--seed", "+1"),
        ("dual-check", "A2", "--trials", " 2"),
        ("suite", "suite.json", "--jobs", "\uff12"),
    ],
)
def test_an_integer_flag_reads_only_ascii_digits(capsys, argv):
    with pytest.raises(SystemExit) as stopped:
        main(list(argv))
    captured = capsys.readouterr()
    assert stopped.value.code == 2 and captured.out == ""
    assert "argument %s: not an integer: %r" % (argv[2], argv[3]) in captured.err


def test_no_option_is_parsed_by_int():
    # int() reads digits of every script and "_"; each integer flag takes
    # the one ASCII reader instead
    parser, commands = cli._build_parser()
    for name, sub in [("", parser), *commands.items()]:
        for action in sub._actions:
            assert action.type is not int, (name, action.dest)
    int_flags = {
        (name, action.dest)
        for name, sub in commands.items()
        for action in sub._actions
        if action.type is cli._ascii_int
    }
    assert int_flags == {
        ("belt", "steps"), ("tropical", "seed"), ("tropical", "trials"),
        ("dual-check", "seed"), ("dual-check", "trials"), ("suite", "jobs"),
    }
    with pytest.raises(argparse.ArgumentTypeError, match="Exceeds the limit"):
        cli._ascii_int("9" * 5000)
    assert cli._ascii_int("-3") == -3 and cli._ascii_int("007") == 7


def test_census_judges_the_labeling_given(capsys, monkeypatch):
    # a tie is unreachable on working code (see colored_census); were the
    # engine to produce one, the census reports it in its one row, exit 1
    real = tropical.colored_census

    def with_a_tie(g, lam):
        census = real(g, lam)
        return dataclasses.replace(census, red=census.red - 1, ties=1)

    monkeypatch.setattr(tropical, "colored_census", with_a_tie)
    code, out, _ = run(capsys, "census", "A2", "--lambda", "-2")
    assert code == 1
    assert out == "name,lambdaSeed,period,red,blue,ties\nA2,-2,10,5,4,1\n"


def test_census_without_gamma_neighbour_exits_two(capsys):
    # the single point bigraph ties on every event at every labeling, so
    # the census claim cannot be judged on it: an input error, not exit 1
    message = "error: colored census needs a Gamma neighbour at every vertex"
    code, out, err = run(capsys, "census", "A1")
    assert code == 2 and out == ""
    assert err.startswith(message)
    text, code = run_experiment({"command": "census", "target": "A1"})
    assert code == 2 and text.startswith(message)


@pytest.mark.parametrize(
    "argv",
    [("tropical", "A2", "--trials", "-1"), ("dual-check", "A2", "--trials", "-3")],
)
def test_negative_trials_exit_two(capsys, argv):
    # no trial runs, so nothing was verified: the count itself is rejected
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: trials must be at least 0, got %s\n" % argv[-1]
    text, code = run_experiment(
        {"command": argv[0], "target": "A2", "trials": int(argv[-1])}
    )
    assert code == 2
    assert text == "error: trials must be at least 0, got %s\n" % argv[-1]


@pytest.mark.parametrize("command", ["tropical", "dual-check"])
def test_a_negative_trial_count_is_named_before_an_unknown_target(capsys, command):
    # the trial count is checked before the target resolves
    message = "error: trials must be at least 0, got -1\n"
    assert run(capsys, command, "nope", "--trials", "-1") == (2, "", message)
    config = {"command": command, "target": "nope", "trials": -1}
    assert run_experiment(config) == (message, 2)


# a JSON report of each command that has one, as a command line and as a
# suite entry
ENVELOPED = [
    (("belt", "A3", "--steps", "2"), {"command": "belt", "target": "A3", "steps": 2}),
    (("halfperiod", "A3"), {"command": "halfperiod", "target": "A3"}),
    (
        ("green", "A3", "--skip-symbolic"),
        {"command": "green", "target": "A3", "skipSymbolic": True},
    ),
    (
        ("tropical", "A3", "--trials", "3"),
        {"command": "tropical", "target": "A3", "trials": 3},
    ),
    (
        ("dual-check", "B2", "--trials", "2"),
        {"command": "dual-check", "target": "B2", "trials": 2},
    ),
]


@pytest.mark.parametrize("argv, config", ENVELOPED, ids=[a[0] for a, _ in ENVELOPED])
def test_a_json_report_opens_with_its_name_and_closes_with_the_catalog_version(
    capsys, argv, config
):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run_experiment(config) == (out, 0)
    doc = json.loads(out)
    keys = list(doc)
    assert keys[0] == "name" and keys[-1] == "catalogVersion"
    assert doc["name"] == argv[1]
    assert doc["catalogVersion"] == bg.catalog_version()


def test_census_and_catalog_list_keep_their_own_shapes(capsys):
    code, out, _ = run(capsys, "census", "A3")
    assert code == 0
    assert run_experiment({"command": "census", "target": "A3"}) == (out, 0)
    header, row = csv.reader(out.splitlines())
    assert header == ["name", "lambdaSeed", "period", "red", "blue", "ties"]
    assert len(row) == 6 and row[0] == "A3"
    code, out, _ = run(capsys, "catalog-list")
    assert code == 0
    assert run_experiment({"command": "catalog-list"}) == (out, 0)
    assert list(json.loads(out)) == ["catalogVersion", "entries"]


def test_zero_trials_still_run(capsys):
    code, out, _ = run(capsys, "tropical", "A2", "--trials", "0")
    assert code == 0 and json.loads(out)["trials"] == 0


def test_tropical_report(capsys):
    code, out, _ = run(capsys, "tropical", "B2xB2", "--trials", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["periodsDivide2N"] is True
    assert doc["halfPeriodShiftOk"] is True
    assert doc["sigma"] == "id"


def test_dual_check_report(capsys):
    code, out, _ = run(capsys, "dual-check", "G2", "--trials", "4")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog-list")
    assert code == 0
    doc = json.loads(out)
    names = [e["name"] for e in doc["entries"]]
    assert "A2" in names and "fig2-F4xA2" in names
    fig2 = next(e for e in doc["entries"] if e["name"] == "fig2-F4xA2")
    assert fig2["hGamma"] == 12 and fig2["hDelta"] == 3 and fig2["N"] == 15


def test_unknown_name_exits_two(capsys):
    code, out, err = run(capsys, "halfperiod", "Q9")
    assert code == 2
    assert "catalog" in err


def test_bad_json_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "halfperiod", str(bad))
    assert code == 2


def test_a_bad_file_reads_alike_as_a_target_and_a_library_input(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    for path in (missing, bad):
        code, _, err = run(capsys, "halfperiod", str(path))
        with pytest.raises(InputError) as info:
            bg.load_bigraph(str(path))
        assert code == 2 and err == "error: %s\n" % info.value
    code, _, err = run(capsys, "suite", str(bad))
    assert code == 2 and err.startswith("error: bad JSON in %s: " % bad)


def test_json_file_target(tmp_path, capsys):
    doc = {"n": 2, "b": [[0, 2], [-1, 0]], "epsilon": ["w", "b"]}
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "halfperiod", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["N"] == 6 and report["period"] == 6


def test_a_bare_target_is_a_catalog_name_beside_a_file_of_that_name(
    tmp_path, capsys, monkeypatch
):
    a2 = {"n": 2, "b": [[0, 1], [-1, 0]], "epsilon": ["w", "b"]}
    (tmp_path / "A3").write_text(json.dumps(a2))
    (tmp_path / "mine").write_text(json.dumps(a2))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "halfperiod", "A3")
    assert code == 0 and json.loads(out)["N"] == 6  # the catalog's A3
    for target in ("./A3", os.path.join(".", "mine")):
        code, out, _ = run(capsys, "halfperiod", target)
        assert code == 0 and json.loads(out)["N"] == 5  # the file's A2
    code, _, err = run(capsys, "halfperiod", "mine")
    assert code == 2 and "'mine' is not a catalog name" in err


def test_term_guard_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("ZAMOBELT_TERM_GUARD", "2")
    code, _, err = run(capsys, "halfperiod", "A2")
    assert code == 2
    assert "guard" in err


def test_term_guard_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("ZAMOBELT_TERM_GUARD", "2")
    code, _, _ = run(capsys, "halfperiod", "A2", "--term-guard", "1000000")
    assert code == 0


def test_term_guard_applies_only_to_the_exchanges_a_run_makes(tmp_path, capsys):
    # A2xA5 with its vertices relabeled (N = 9, midpoint M = 5): an
    # 18-step belt run makes the exchanges of steps 0..4, which hold at
    # most 51 terms, and derives the rest.  Made, the exchange of step 5
    # holds 58: its mirror source is renamed, which changes the variable
    # x1 and so how the dividend is sliced
    b = [
        [0, 1, 0, -1, 0, 0, 0, 1, 0, 0],
        [-1, 0, 0, 0, -1, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, -1, 0, 0, -1],
        [1, 0, 0, 0, 0, -1, 0, 0, 0, -1],
        [0, 1, -1, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, -1, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, -1, 0],
        [-1, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, -1, 0, 1, 0, 0, 0],
        [0, -1, 1, 1, 0, 0, 0, 0, 0, 0],
    ]
    spec = {"n": 10, "b": b, "epsilon": list("bwwwbbbwwb")}
    path = tmp_path / "a2xa5.json"
    path.write_text(json.dumps(spec))
    code, unguarded, _ = run(capsys, "belt", str(path), "--steps", "18")
    assert code == 0
    assert run(capsys, "belt", str(path), "--steps", "18", "--term-guard", "51") == (
        0,
        unguarded,
        "",
    )
    code, _, err = run(capsys, "belt", str(path), "--steps", "18", "--term-guard", "50")
    assert code == 2 and "polynomial has 51 terms, guard is 50" in err
    # stepping forward through every exchange trips that guard at step 5
    g = bg.from_json(spec)
    states = [belt.initial_state(g)]
    keep = laurent.get_term_guard()
    laurent.set_term_guard(51)
    try:
        with pytest.raises(TermGuardExceeded, match="58 terms"):
            while True:
                states.append(belt.step(g, len(states) - 1, states[-1]))
    finally:
        laurent.set_term_guard(keep)
    assert g.half_period == 9 and len(states) - 1 == 5


def test_main_restores_the_term_guard_it_found(capsys):
    keep = laurent.get_term_guard()
    code, _, _ = run(capsys, "halfperiod", "A2", "--term-guard", "19")
    assert code == 0 and laurent.get_term_guard() == keep
    # a library call after main runs under the guard in force before it
    belt.run_belt(bg.catalog("fig2-F4xA2"), 4)


def test_reports_are_byte_identical_across_runs(capsys):
    first = run(capsys, "halfperiod", "A2xA3")
    second = run(capsys, "halfperiod", "A2xA3")
    assert first == second
    third = run(capsys, "tropical", "A3", "--trials", "7", "--seed", "42")
    fourth = run(capsys, "tropical", "A3", "--trials", "7", "--seed", "42")
    assert third == fourth


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "halfperiod", "A2", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["N"] == 5


def test_suite_runs_all_and_aggregates(tmp_path, capsys):
    configs = [
        {"command": "halfperiod", "target": "A2"},
        {"command": "census", "target": "A3"},
        {"command": "halfperiod", "target": "NOPE"},
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(configs))
    code, out, _ = run(capsys, "suite", str(path))
    assert code == 2  # worst member: the unknown name
    doc = json.loads(out)
    assert doc["summary"] == {"total": 3, "verified": 2, "falsified": 0, "errors": 1}
    assert doc["results"][2]["exitCode"] == 2


def test_suite_parallel_matches_serial(tmp_path, capsys):
    configs = [
        {"command": "halfperiod", "target": "A2"},
        {"command": "halfperiod", "target": "A3"},
        {"command": "census", "target": "B2"},
        {"command": "dual-check", "target": "C2", "trials": 3},
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(configs))
    serial = run(capsys, "suite", str(path))
    parallel = run(capsys, "suite", str(path), "--jobs", "4")
    assert serial == parallel
    assert serial[0] == 0


# Gamma is the path A6 and Delta three A2 edges: each side shares one
# Coxeter number, but the belt does not return (see _edges_doc below)
NON_RECURRENT_EDGES = (
    6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)], [(1, 4), (3, 6), (5, 2)]
)


def test_a_suite_reports_each_entry_as_it_runs_alone(tmp_path, capsys):
    # targets repeat, good and bad: a failure is never kept, so the bad
    # name and the non-recurrent file fail alike for every entry naming them
    bad_file = tmp_path / "input.json"
    bad_file.write_text(json.dumps(_edges_doc(*NON_RECURRENT_EDGES)))
    configs = [
        {"command": "halfperiod", "target": "A3"},
        {"command": "tropical", "target": "A3", "seed": 7, "trials": 3},
        {"command": "halfperiod", "target": "NOPE"},
        {"command": "green", "target": str(bad_file)},
        {"command": "census", "target": "A3"},
        {"command": "census", "target": "NOPE"},
        {"command": "tropical", "target": str(bad_file), "trials": 2},
        {"command": "green", "target": "A3", "skipSymbolic": True},
        {"command": "dual-check", "target": "B2", "trials": 2},
        {"command": "census", "target": "B2"},
        {"command": "belt", "target": "A3", "steps": 4},
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(configs))
    serial = run(capsys, "suite", str(path))
    results = json.loads(serial[1])["results"]
    assert [r["config"] for r in results] == configs
    assert [(r["report"], r["exitCode"]) for r in results] == [
        run_experiment(config) for config in configs
    ]
    assert [r["exitCode"] for r in results] == [0, 0, 2, 2, 0, 2, 2, 0, 0, 0, 0]
    assert results[2]["report"].startswith("error: 'NOPE' is not a catalog name")
    assert results[3]["report"].startswith("error: %s is not recurrent: " % bad_file)
    assert serial[0] == 2 and serial[2] == ""
    assert run(capsys, "suite", str(path), "--jobs", "2") == serial


def test_a_suite_builds_each_distinct_target_once_per_call(
    tmp_path, capsys, monkeypatch
):
    built = []
    real_catalog = bg.catalog

    def counting_catalog(name):
        built.append(name)
        return real_catalog(name)

    monkeypatch.setattr(bg, "catalog", counting_catalog)
    # the shape of the tropical-green workload: each target under several
    # commands, and under the same command with other options
    targets = ["A2", "B2", "G2", "A2xA2"]
    configs = [{"command": "tropical", "target": t, "seed": 7, "trials": 3}
               for t in targets]
    configs += [{"command": "census", "target": t} for t in targets[:3]]
    configs += [{"command": "dual-check", "target": t, "trials": 3} for t in targets]
    configs += [{"command": "green", "target": t, "skipSymbolic": True}
                for t in targets]
    configs += [{"command": "tropical", "target": "A2", "seed": 8, "trials": 3}]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(configs))
    first = run(capsys, "suite", str(path))
    assert first[0] == 0 and sorted(built) == sorted(targets)
    # nothing outlives the suite call: the next one builds them all again
    assert run(capsys, "suite", str(path)) == first
    assert sorted(built) == sorted(targets * 2)
    run(capsys, "census", "A2")
    assert built.count("A2") == 3


def test_a_parallel_suite_builds_and_walks_each_target_once_per_worker(
    tmp_path, capsys, monkeypatch
):
    # forked workers inherit the patches below and log each call, by
    # pid, to a file the parent reads back
    import concurrent.futures
    import multiprocessing

    class ForkPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            kwargs["mp_context"] = multiprocessing.get_context("fork")
            super().__init__(*args, **kwargs)

    log = tmp_path / "calls.log"
    real_catalog, real_walk = bg.catalog, green.verify_bipartite_belt_mgs

    def logged(kind, key):
        with open(log, "a") as handle:
            handle.write("%d %s %s\n" % (os.getpid(), kind, key))

    def logging_catalog(name):
        logged("build", name)
        return real_catalog(name)

    def logging_walk(g):
        logged("walk", g.n)
        return real_walk(g)

    configs = [
        {"command": "tropical", "target": "A2xA3", "trials": 3},
        {"command": "green", "target": "A2xA3"},
        {"command": "tropical", "target": "A2xA3", "trials": 3},
        {"command": "census", "target": "A3"},
        {"command": "tropical", "target": "A3", "trials": 3},
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(configs))
    serial = run(capsys, "suite", str(path))
    assert serial[0] == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ForkPool)
    monkeypatch.setattr(bg, "catalog", logging_catalog)
    monkeypatch.setattr(green, "verify_bipartite_belt_mgs", logging_walk)
    assert run(capsys, "suite", str(path), "--jobs", "2") == serial
    calls = log.read_text().splitlines()
    assert {line.split()[1] for line in calls} == {"build", "walk"}
    assert len(calls) == len(set(calls)), calls


def test_a_json_target_is_read_once_per_suite_call(tmp_path, capsys, monkeypatch):
    target = tmp_path / "a3.json"
    target.write_text(json.dumps({"n": 3, "b": bg.catalog("A3").base.b}))
    read = []
    real_read = bg.read_json

    def counting_read(file):
        read.append(file)
        return real_read(file)

    monkeypatch.setattr(bg, "read_json", counting_read)
    configs = [{"command": c, "target": str(target)} for c in ("halfperiod", "census")]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(configs))
    code, out, _ = run(capsys, "suite", str(path))
    assert code == 0 and json.loads(out)["summary"]["verified"] == 2
    assert read == [str(path), str(target)]


def test_green_reads_the_recurrence_verdict_its_target_check_computed(
    capsys, monkeypatch
):
    composites = []
    real = bg.composite_mutation

    def counting(m, vertices):
        composites.append(vertices)
        return real(m, vertices)

    monkeypatch.setattr(bg, "composite_mutation", counting)
    # the frozen isomorphism's premises include recurrence, checked once
    code, _, _ = run(capsys, "green", "D4", "--skip-symbolic")
    assert code == 0 and len(composites) == 2


@pytest.mark.parametrize("name", ["A01", "E06", "A2xA03", "A\u0663"])
def test_a_rank_with_a_leading_zero_or_foreign_digits_is_unknown(capsys, name):
    # no name is read as another: A01 is not A1, nor A2xA03 A2xA3
    code, out, err = run(capsys, "halfperiod", name)
    assert code == 2 and out == ""
    assert err.startswith("error: %r is not a catalog name; " % name)
    text, code = run_experiment({"command": "halfperiod", "target": name})
    assert code == 2 and text == err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_two(tmp_path, capsys, jobs):
    # not coerced to a serial run; a large value is not tried here, as
    # it would start that many worker processes
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"command": "halfperiod", "target": "A2"}]))
    code, out, err = run(capsys, "suite", str(path), "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == "error: jobs must be at least 1, got %s\n" % jobs


def test_term_guard_holds_for_its_suite_entry_only(tmp_path, capsys):
    configs = [
        {"command": "halfperiod", "target": "A3", "termGuard": 3},
        {"command": "halfperiod", "target": "A3"},
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(configs))
    serial = run(capsys, "suite", str(path))
    parallel = run(capsys, "suite", str(path), "--jobs", "2")
    assert serial == parallel
    doc = json.loads(serial[1])
    assert [r["exitCode"] for r in doc["results"]] == [2, 0]


def test_suite_workers_run_under_the_suite_term_guard_whatever_the_start_method(
    tmp_path, capsys, monkeypatch
):
    # a spawned or forkserver worker inherits no process global: the
    # suite's guard must reach it explicitly
    import concurrent.futures
    import multiprocessing

    class SpawnPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            kwargs["mp_context"] = multiprocessing.get_context("spawn")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpawnPool)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"command": "halfperiod", "target": "A3"}]))
    serial = run(capsys, "suite", str(path), "--term-guard", "2")
    assert serial[0] == 2
    assert json.loads(serial[1])["results"][0]["exitCode"] == 2
    assert run(capsys, "suite", str(path), "--jobs", "2", "--term-guard", "2") == serial


def test_suite_entry_defaults_match_the_command_flags(capsys):
    _, out, _ = run(capsys, "dual-check", "C2")
    text, code = run_experiment({"command": "dual-check", "target": "C2"})
    assert code == 0 and text == out
    assert json.loads(text)["trials"] == 10


def test_halfperiod_steps_the_belt_once(capsys, monkeypatch):
    calls = []
    real_step = belt.step

    def counting_step(g, c, values):
        calls.append(c)
        return real_step(g, c, values)

    monkeypatch.setattr(belt, "step", counting_step)
    code, _, _ = run(capsys, "halfperiod", "A3")
    assert code == 0
    # A3 has no mirror (N = 6, no colour-reversing automorphism): it
    # steps to N once, and the second half re-indexes by sigma
    assert calls == list(range(bg.catalog("A3").half_period))


def count_exchanges(monkeypatch):
    """Record the time of the step that makes each `exchange` call."""
    calls, now = [], []
    real_step, real_exchange = belt.step, belt.exchange

    def timed_step(g, c, values):
        now[:] = [c]
        return real_step(g, c, values)

    def counting_exchange(monomials, divisor):
        calls.append(now[0])
        return real_exchange(monomials, divisor)

    monkeypatch.setattr(belt, "step", timed_step)
    monkeypatch.setattr(belt, "exchange", counting_exchange)
    return calls


def vertex_moves(g, steps):
    return sum(g.eta(k) % 2 == c % 2 for c in range(steps) for k in range(g.n))


def test_halfperiod_divides_only_in_the_first_half(capsys, monkeypatch):
    # from t = N on, each state is a state of the first half re-indexed
    # by sigma, so the run makes no exchange there
    calls = count_exchanges(monkeypatch)
    g = bg.catalog("A3")
    code, _, _ = run(capsys, "halfperiod", "A3")
    assert code == 0
    assert len(calls) == vertex_moves(g, g.half_period) == 9
    assert max(calls) < g.half_period


def test_long_belt_divides_each_distinct_exchange_once(capsys, monkeypatch):
    calls = count_exchanges(monkeypatch)
    g = bg.catalog("A3")
    code, _, _ = run(capsys, "belt", "A3", "--steps", "400")
    assert code == 0
    assert len(calls) == vertex_moves(g, g.half_period)
    assert max(calls) < g.half_period


def test_figure_two_halfperiod_divides_thirty_two_times(capsys, monkeypatch):
    # N = 15: the run steps to the midpoint M = 8 and mirrors the rest
    calls = count_exchanges(monkeypatch)
    g = bg.catalog("fig2-F4xA2")
    mid = g.half_period - g.half_period // 2
    code, _, _ = run(capsys, "halfperiod", "fig2-F4xA2")
    assert code == 0
    assert len(calls) == vertex_moves(g, mid) == 32
    assert max(calls) < mid


@pytest.mark.parametrize(
    "doc",
    [
        # one Dynkin and one non-Dynkin Gamma component
        {
            "n": 4,
            "b": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]],
            "epsilon": ["w", "b", "w", "b"],
        },
        {"n": 2, "b": [[0, 1.9], [-1, 0]]},
        {"n": 2, "b": [[0, True], [-1, 0]]},
        {"n": 2, "b": [[0, "1"], [-1, 0]]},
    ],
)
def test_rejected_matrices_exit_two(tmp_path, capsys, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "halfperiod", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "b": 5},
        {"n": 2, "b": [5, 6]},
        {"n": "2", "b": [[0, 1], [-1, 0]]},
        {"n": True, "b": [[0]]},
        {"n": 2, "b": [[0, 1], [-1, 0]], "epsilon": 5},
    ],
)
def test_malformed_json_shapes_exit_two(tmp_path, capsys, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "halfperiod", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"command": "tropical", "target": "A2", "trials": 2.9}, "trials"),
        ({"command": "halfperiod", "target": "A3", "termGuard": 0}, "termGuard"),
        ({"command": "tropical", "target": "A2", "trials": "x"}, "trials"),
    ],
)
def test_suite_values_are_not_coerced(config, key):
    text, code = run_experiment(config)
    assert code == 2
    assert text.startswith("error: config key %r must be" % key)
    assert "Traceback" not in text


@pytest.mark.parametrize(
    "extra",
    [
        {"seed": True},
        {"seed": 1.0},
        {"trials": None},
        {"termGuard": 2.5},
        {"target": 5},
        {"target": None},
    ],
)
def test_suite_values_of_the_wrong_type_exit_two(extra):
    text, code = run_experiment({"command": "tropical", "target": "A2", **extra})
    assert code == 2 and text.startswith("error: config key ")


def test_suite_accepts_bool_and_string_values():
    text, code = run_experiment(
        {"command": "green", "target": "A2", "skipSymbolic": True}
    )
    assert code == 0 and json.loads(text)["frozenIsomorphism"]["matchesSymbolic"] is None
    _, code = run_experiment({"command": "green", "target": "A2", "skipSymbolic": 1})
    assert code == 2
    _, code = run_experiment({"command": "census", "target": "A2", "lambda": "-1"})
    assert code == 0
    _, code = run_experiment({"command": "census", "target": "A2", "lambda": -1})
    assert code == 2


@pytest.mark.parametrize(
    "entry, kind",
    [
        ("halfperiod", "a string"),
        (5, "a number"),
        (None, "null"),
        ([{"command": "halfperiod"}], "an array"),
        (True, "a boolean"),
    ],
)
def test_a_suite_entry_that_is_not_an_object_exits_two(tmp_path, capsys, entry,
                                                       kind):
    text, code = run_experiment(entry)
    assert (text, code) == ("error: config must be a JSON object, got %s\n" % kind, 2)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"command": "halfperiod", "target": "A2"}, entry]))
    code, out, _ = run(capsys, "suite", str(path))
    doc = json.loads(out)
    assert code == 2 and "Traceback" not in out
    assert [r["exitCode"] for r in doc["results"]] == [0, 2]
    assert doc["results"][1]["report"] == text


@pytest.mark.parametrize(
    "config, key",
    [
        ({"command": "tropical", "target": "A2", "trails": 0}, "trails"),
        ({"command": "halfperiod", "target": "A2", "seed": 1}, "seed"),
        ({"command": "belt", "target": "A2", "skipSymbolic": True}, "skipSymbolic"),
        ({"command": "catalog-list", "steps": 3}, "steps"),
        ({"command": "census", "target": "A2", "lam": "-1"}, "lam"),
    ],
)
def test_a_config_key_the_command_does_not_take_exits_two(config, key):
    text, code = run_experiment(config)
    assert code == 2
    assert text == "error: config key %r is not a %s option\n" % (key, config["command"])


def test_every_checked_in_config_uses_only_keys_its_command_takes():
    root = pathlib.Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location(
        "workloads", root / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = [c for w in workloads.WORKLOADS for c in workloads.experiments(w)]
    for golden in ("belt_tropical_reports.json", "green_reports.json"):
        entries = json.loads((root / "tests" / golden).read_text())
        configs += [entry["config"] for entry in entries]
    assert len(configs) > 100
    for config in configs:
        allowed = {"command", "target", "termGuard"} | set(
            cli._options(config["command"])
        )
        assert set(config) <= allowed, config


def test_halfperiod_multiplies_no_constant_one(capsys, monkeypatch):
    products = []
    real_mul = Laurent.__mul__

    def counting_mul(a, b):
        products.append((a, b))
        return real_mul(a, b)

    monkeypatch.setattr(Laurent, "__mul__", counting_mul)
    # B3's double edge squares a value; a simply laced entry such as A3
    # has only the last product of each monomial, which is streamed
    code, _, _ = run(capsys, "halfperiod", "B3")
    assert code == 0 and products
    assert not [(a, b) for a, b in products if a == 1 or b == 1]


def test_exponent_overflow_exits_two(capsys, monkeypatch):
    # start B2's belt from x_k^20000: the doubled edge squares a value,
    # which would need exponents past the 16-bit field
    def high_state(g):
        return tuple(
            Laurent.monomial(tuple(20000 if j == k else 0 for j in range(g.n)))
            for k in range(g.n)
        )

    monkeypatch.setattr(belt, "initial_state", high_state)
    code, out, err = run(capsys, "belt", "B2", "--steps", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: exponent of x") and "Traceback" not in err


def _edges_doc(n, gamma, delta):
    """JSON input with odd vertices white; edges are 1-based pairs."""
    b = [[0] * n for _ in range(n)]
    for edges, sign in ((gamma, 1), (delta, -1)):
        for u, v in edges:
            if u % 2 == 0:
                u, v = v, u
            b[u - 1][v - 1] = sign
            b[v - 1][u - 1] = -sign
    return {"n": n, "b": b, "epsilon": ["w" if v % 2 else "b" for v in range(1, n + 1)]}


@pytest.mark.parametrize("command", ["halfperiod", "green", "tropical"])
def test_non_recurrent_input_exits_two(tmp_path, capsys, command):
    # the theorem's hypothesis fails; no claim may be judged falsified on it
    doc = _edges_doc(*NON_RECURRENT_EDGES)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert not bg.from_json(doc).recurrent
    code, out, err = run(capsys, command, str(path))
    message = "error: %s is not recurrent: " % path
    assert code == 2 and out == "" and err.startswith(message)
    text, code = run_experiment({"command": command, "target": str(path)})
    assert code == 2 and text == err


def test_non_dynkin_component_is_named(tmp_path, capsys):
    # the 4-cycle is the affine diagram of type A3^(1), with no Coxeter number
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_edges_doc(4, [(1, 2), (2, 3), (3, 4), (4, 1)], [])))
    code, out, err = run(capsys, "halfperiod", str(path))
    assert code == 2 and out == ""
    assert err == (
        "error: Gamma components have Coxeter numbers ['?']; "
        "not of finite Dynkin type: {1, 2, 3, 4}\n"
    )


def test_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    def broken(g, steps):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(belt, "run_belt", broken)
    code, out, err = run(capsys, "halfperiod", "A2")
    assert code == 3 and out == ""
    assert err.startswith("Traceback") and "RuntimeError: broken on purpose" in err
    configs = [
        {"command": "halfperiod", "target": "A2"},
        {"command": "census", "target": "A2"},
        {"command": "halfperiod", "target": "NOPE"},
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(configs))
    code, out, _ = run(capsys, "suite", str(path))
    assert code == 3  # the worst member: the internal error
    doc = json.loads(out)
    assert doc["summary"] == {"total": 3, "verified": 1, "falsified": 0, "errors": 2}
    assert [r["exitCode"] for r in doc["results"]] == [3, 0, 2]


@pytest.mark.parametrize("value", ["abc", "0", "2.5", "-5", "1_0", "\u0663"])
def test_bad_term_guard_values_exit_two(capsys, monkeypatch, value):
    monkeypatch.setenv("ZAMOBELT_TERM_GUARD", value)
    code, out, err = run(capsys, "halfperiod", "A2")
    assert code == 2 and out == ""
    assert err == "error: ZAMOBELT_TERM_GUARD must be a positive integer, got %r\n" % value
    monkeypatch.delenv("ZAMOBELT_TERM_GUARD")
    code, out, err = run(capsys, "halfperiod", "A2", "--term-guard", value)
    assert code == 2 and out == ""
    assert err == "error: --term-guard must be a positive integer, got %r\n" % value


def test_term_guard_past_the_digit_limit_exits_two(capsys):
    code, out, err = run(capsys, "halfperiod", "A2", "--term-guard", "9" * 5000)
    assert code == 2 and out == ""
    assert err.startswith("error: --term-guard: ") and len(err) < 300


def count_duals(monkeypatch):
    """The bigraphs `bigraph.dual_bigraph` is called on from now on."""
    built, real_dual = [], bg.dual_bigraph

    def counting_dual(g):
        built.append(g)
        return real_dual(g)

    monkeypatch.setattr(bg, "dual_bigraph", counting_dual)
    return built


def test_dual_check_builds_the_dual_once(capsys, monkeypatch):
    built = count_duals(monkeypatch)
    code, out, _ = run(capsys, "dual-check", "G2", "--trials", "4")
    assert code == 0 and json.loads(out)["ok"] is True
    assert len(built) == 1


def test_a_suite_builds_each_targets_dual_once(tmp_path, capsys, monkeypatch):
    # the suite resolves G2 once, and the bigraph holds its dual
    built = count_duals(monkeypatch)
    configs = [
        {"command": "dual-check", "target": "G2", "seed": seed, "trials": 3}
        for seed in (1, 2)
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(configs))
    code, out, _ = run(capsys, "suite", str(path))
    assert code == 0 and json.loads(out)["summary"]["verified"] == 2
    assert len(built) == 1


def test_a_suite_walks_each_targets_certificates_once(tmp_path, capsys, monkeypatch):
    # tropical and green read sigma off the certificates the bigraph holds:
    # the suite resolves A2xA3 once, so its two certificate walks run once
    walks, real_walk = [], green._certify

    def counting_walk(*args):
        walks.append(args[-1])
        return real_walk(*args)

    monkeypatch.setattr(green, "_certify", counting_walk)
    configs = [
        {"command": "tropical", "target": "A2xA3", "seed": 7, "trials": 3},
        {"command": "green", "target": "A2xA3", "skipSymbolic": True},
        {"command": "tropical", "target": "A2xA3", "seed": 8, "trials": 3},
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(configs))
    serial = run(capsys, "suite", str(path))
    assert serial[0] == 0 and json.loads(serial[1])["summary"]["verified"] == 3
    assert walks == ["the Gamma certificate", "the Delta certificate"]
    assert run(capsys, "suite", str(path), "--jobs", "2") == serial


def test_a_failed_certificate_is_not_kept_for_the_next_entry(
    tmp_path, capsys, monkeypatch
):
    # the first read of the certificates fails; the next entry on the same
    # target builds them, and the entry after that reuses them
    calls, real_verify = [], green.verify_bipartite_belt_mgs

    def fails_once(g):
        calls.append(g)
        if len(calls) == 1:
            raise NotMaximal("vertices [1] still green")
        return real_verify(g)

    monkeypatch.setattr(green, "verify_bipartite_belt_mgs", fails_once)
    configs = [{"command": "green", "target": "B2", "skipSymbolic": True}] * 3
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(configs))
    code, out, _ = run(capsys, "suite", str(path))
    results = json.loads(out)["results"]
    assert code == 1 and [r["exitCode"] for r in results] == [1, 0, 0]
    assert results[0]["report"] == "falsified: vertices [1] still green\n"
    assert results[1]["report"] == results[2]["report"]
    assert len(calls) == 2 and calls[0] is calls[1]


def test_unwritable_out_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "halfperiod", "A2", "--out", str(target))
    assert code == 2 and out == ""
    assert err == "error: cannot write %s: No such file or directory\n" % target


# -- the exit code on random input ---------------------------------------------


def random_bigraph_document(rng):
    """A JSON bigraph of at most 7 vertices: a random colouring, edges
    mostly between colours, |b_ij| <= 3 with |b_ji| often equal, and the
    colouring given as epsilon half the time."""
    n = rng.randint(1, 7)
    colour = [rng.choice("wb") for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5 and (colour[i] != colour[j] or rng.random() < 0.1):
                sign, weight = rng.choice((1, -1)), rng.randint(1, 3)
                back = weight if rng.random() < 0.6 else rng.randint(1, 3)
                b[i][j], b[j][i] = sign * weight, -sign * back
    doc = {"n": n, "b": b}
    if rng.random() < 0.5:
        doc["epsilon"] = colour
    return doc


# belt stays at 2 steps: on some recurrent bigraphs outside the theorem
# the values grow so fast that a few more steps run for minutes
FUZZED_COMMANDS = [
    {"command": "halfperiod"},
    {"command": "green", "skipSymbolic": True},
    {"command": "tropical"},
    {"command": "census"},
    {"command": "dual-check"},
    {"command": "belt", "steps": 2},
]


def test_random_bigraphs_exit_zero_or_two(tmp_path):
    # a claim of the paper never fails and no run ends in an internal
    # error: every input either meets the hypotheses and is verified, or
    # is rejected under a named InputError
    rng = random.Random(31)
    codes = {}
    for index in range(300):
        doc = random_bigraph_document(rng)
        path = tmp_path / ("g%d.json" % index)
        path.write_text(json.dumps(doc))
        for config in FUZZED_COMMANDS:
            text, code = run_experiment(dict(config, target=str(path)))
            assert code in (0, 2), (doc, config, text)
            codes[code] = codes.get(code, 0) + 1
    assert min(codes.get(0, 0), codes.get(2, 0)) > 300, codes


# -- byte-identical reports -------------------------------------------------------

# `run_experiment` results of `halfperiod` and `census` on every catalog
# entry, of `tropical` and `dual-check` (seed 7, 20 trials) on every
# catalog entry, and of `belt fig2-F4xA2 --steps 7`, captured before the
# two tracks shared one timetable and the Laurent kernel one
# term-product loop.  Seven of the census entries exit 2.  Only a
# deliberate change to a report (such as a new catalogVersion) may
# rewrite this file.
GOLDEN_REPORTS = json.loads(
    (pathlib.Path(__file__).with_name("belt_tropical_reports.json")).read_text()
)


@pytest.mark.parametrize(
    "golden",
    GOLDEN_REPORTS,
    ids=lambda r: "%s-%s" % (r["config"]["command"], r["config"]["target"]),
)
def test_symbolic_and_tropical_reports_are_byte_identical(golden):
    assert run_experiment(golden["config"]) == (golden["text"], golden["exitCode"])
