"""zamobelt benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the engine is imported from its `src/`.
The experiments are fixed (see `workloads.py`); `--seed` picks the point
at which the oracle evaluates the belt.  The workload's experiments run
in this process, one after another, through `zamobelt.cli.main`, in
whole rounds until `--seconds` have passed.  Times are rescaled to the
host speed that `reference.py` measures around them.  After each round
every report is checked against `oracle.py`.  An experiment that exits
non-zero or whose report fails a check counts as failed; `correct` is
false when an experiment exits 0 with a report that fails a check.  The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and the metrics, end to end with `--trace 0` and per layer with
`--trace 1`.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import layers
import oracle
import reference
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
# Set-up is timed in child interpreters, half of them before the rounds
# and half after, so that one slow spell of the host does not decide it.
SETUP_REPEATS = 5


def load_engine():
    package = os.path.join(SRC, "zamobelt")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.stderr.write("bench: no zamobelt package at %s\n" % package)
        sys.exit(2)
    sys.path.insert(0, SRC)
    from zamobelt import bigraph, cli

    if not os.path.abspath(cli.__file__).startswith(package + os.sep):
        sys.stderr.write("bench: zamobelt imported from %s\n" % cli.__file__)
        sys.exit(2)
    return bigraph, cli


def cpu_seconds():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(workload, times, raw_times):
    """Append the scaled and raw wall times of fresh set-ups in child
    interpreters."""
    probe = os.path.join(BENCH, "setup_probe.py")
    for _ in range(SETUP_REPEATS):
        # No timer samples here: they would run beside the child.
        with reference.Segment(cpu_seconds, sample=False) as segment:
            subprocess.run([sys.executable, probe, workload],
                           cwd=ROOT, check=True)
        times.append(segment.wall)
        raw_times.append(segment.raw)


def run_round(cli, workload, configs, suite_path, sample):
    """Run the round's experiments, one timed segment per CLI call.

    Returns [(report file, exit code)], then the round's wall and CPU
    seconds, each segment rescaled by the host speed, then its raw wall
    seconds.
    """
    if workload in workloads.SUITE_WORKLOADS:
        out = os.path.join(OUT, "%s.report.json" % workload)
        segments = [(out, ["suite", suite_path, "--out", out])]
    else:
        segments = []
        for i, config in enumerate(configs):
            out = os.path.join(OUT, "%s.report.%d" % (workload, i))
            segments.append((out, workloads.cli_argv(config) + ["--out", out]))
    outs = []
    wall = cpu = raw = 0.0
    for out, argv in segments:
        with reference.Segment(cpu_seconds, sample) as segment:
            code = cli.main(argv)
        wall += segment.wall
        cpu += segment.cpu
        raw += segment.raw
        outs.append((out, code))
    return outs, wall, cpu, raw


def read_results(workload, configs, outs):
    """[(config, exit code, report text)] for the round just run."""
    if workload in workloads.SUITE_WORKLOADS:
        try:
            with open(outs[0][0]) as handle:
                results = json.load(handle)["results"]
        except (OSError, ValueError, KeyError):
            results = []
        if len(results) != len(configs):
            return [(c, None, "") for c in configs]
        return [(c, r["exitCode"], r["report"] if r["config"] == c else "")
                for c, r in zip(configs, results)]
    texts = []
    for out, code in outs:
        try:
            with open(out) as handle:
                texts.append(handle.read())
        except OSError:
            texts.append("")
    return [(c, code, text) for c, (_, code), text in zip(configs, outs, texts)]


def clear_outputs(workload):
    for name in os.listdir(OUT):
        if name.startswith(workload + ".report"):
            os.remove(os.path.join(OUT, name))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bigraph, cli = load_engine()
    os.environ.pop("ZAMOBELT_TERM_GUARD", None)
    os.makedirs(OUT, exist_ok=True)

    configs = workloads.experiments(args.workload)
    suite_path = os.path.join(OUT, "%s.suite.json" % args.workload)
    with open(suite_path, "w") as handle:
        json.dump(configs, handle, indent=1)
    max_steps = max((c.get("steps", 0) for c in configs), default=0)
    oracles = {}
    for target in workloads.targets(configs):
        g = bigraph.catalog(target)
        oracles[target] = oracle.Oracle(
            target, g.base.b, g.epsilon, args.seed, max_steps
        )
    needed = sum(
        2 * oracles[c["target"]].shape.N if c["command"] == "halfperiod"
        else c.get("steps", 0) if c["command"] == "belt" else 0
        for c in configs
    )
    setup_times, raw_setup = [], []
    measure_setup(args.workload, setup_times, raw_setup)

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)

    walls, cpus, raws, layer_rounds = [], [], [], []
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    try:
        while True:
            clear_outputs(args.workload)
            gc.collect()
            if tracer:
                tracer.reset()
            outs, wall, cpu, raw = run_round(
                cli, args.workload, configs, suite_path, sample=not tracer
            )
            walls.append(wall)
            cpus.append(cpu)
            raws.append(raw)
            if tracer:
                spans, counts = tracer.snapshot()
                counts["belt.step.needed"] = needed
                layer_rounds.append((spans, counts))
            for config, code, text in read_results(args.workload, configs, outs):
                attempted += 1
                found = oracle.check(config, text, oracles[config["target"]])
                if code != 0 or found:
                    failed += 1
                if code == 0 and found:
                    problems.append((config, found))
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    measure_setup(args.workload, setup_times, raw_setup)

    for config, found in problems[:10]:
        sys.stderr.write("bench: %s: %s\n" % (json.dumps(config), "; ".join(found)))
    sys.stderr.write(
        "bench: %s seed %d trace %d: %d rounds, wall_s %s, raw wall %s, "
        "raw setup median %.4f\n"
        % (args.workload, args.seed, args.trace, len(walls),
           " ".join("%.4f" % w for w in walls),
           " ".join("%.4f" % w for w in raws), statistics.median(raw_setup))
    )
    if tracer:
        metrics = layers.layer_metrics(layer_rounds)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
