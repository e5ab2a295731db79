"""The benchmark's workloads: the experiments each one runs, in order.

Every experiment is a config dict in the form `zamobelt suite` reads.
The target lists are pinned here rather than read from
`bigraph.catalog_names()`, so a change to the catalog cannot change a
workload's work.  Entries whose command reads a seed or a trial count
give both explicitly, because the CLI and the suite runner default them
differently; no entry sets `termGuard`.
"""

# The catalog entries the CLI lists, pinned.
CATALOG = [
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "C2", "C3", "D4", "G2",
    "A2xA2", "A2xA3", "B2xB2", "G2xG2",
    "fig1-A5starD4", "fig2-F4xA2",
]

# Small and mid-size halfperiod verdicts: many cheap Laurent operations.
SWEEP_TARGETS = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7",
    "B2", "B3", "B4", "C2", "C3", "C4",
    "D4", "D5", "D6", "E6", "F4", "G2",
    "A2xA2", "A2xA3", "A3xA3", "A2xA4",
    "B2xA2", "A2xB2", "B2xB2", "C3xA2", "B3xA2",
    "G2xA2", "A2xG2", "G2xG2", "D4xA2", "D5xA2", "B3xB2",
    "fig1-A5starD4",
]

# Single Dynkin entries for the colored census.  A1 is left out: its only
# vertex has no neighbours, every mutation is a tie, and `census A1`
# exits 1 on every run.
CENSUS_TARGETS = [
    "A2", "A3", "A4", "A5", "B2", "B3", "C2", "C3", "D4", "G2",
    "E6", "E7", "E8",
]

# Multiply-laced entries, where the Langlands dual differs from the primal.
DUAL_TARGETS = ["B2", "B3", "C2", "C3", "G2", "B2xB2", "G2xG2", "fig2-F4xA2"]

# Large tensor products: framed mutation on 36x72 and 49x98 matrices.
GREEN_LARGE = ["E6xE6", "E7xE7"]

# The tropical and dual-check labelings come from this stated seed, not
# from the benchmark's --seed: a rare labeling has a shorter tropical
# period, so a seeded labeling would change the work from seed to seed.
TRIAL_SEED = 7
TROPICAL_TRIALS = 20
DUAL_TRIALS = 20
BELT_STEPS = 7

WORKLOADS = ("symbolic-fig2", "symbolic-sweep", "tropical-green")

# Workloads run as one `suite` invocation; the others run one CLI
# command per experiment.
SUITE_WORKLOADS = {"symbolic-sweep", "tropical-green"}


def experiments(workload):
    """The workload's experiment configs for one round."""
    if workload == "symbolic-fig2":
        return [
            {"command": "halfperiod", "target": "fig2-F4xA2"},
            {"command": "belt", "target": "fig2-F4xA2", "steps": BELT_STEPS},
        ]
    if workload == "symbolic-sweep":
        return [{"command": "halfperiod", "target": t} for t in SWEEP_TARGETS]
    if workload == "tropical-green":
        out = []
        for t in CATALOG + ["E6", "E7", "E8"]:
            out.append({"command": "tropical", "target": t,
                        "seed": TRIAL_SEED, "trials": TROPICAL_TRIALS})
        for t in CENSUS_TARGETS:
            out.append({"command": "census", "target": t, "lambda": "-1"})
        for t in DUAL_TARGETS:
            out.append({"command": "dual-check", "target": t,
                        "seed": TRIAL_SEED, "trials": DUAL_TRIALS})
        for t in CATALOG + GREEN_LARGE:
            out.append({"command": "green", "target": t, "skipSymbolic": True})
        return out
    raise KeyError(workload)


def targets(configs):
    """Distinct targets in first-use order."""
    return list(dict.fromkeys(c["target"] for c in configs))


def cli_argv(config):
    """Command line equivalent to one config of a non-suite workload."""
    argv = [config["command"], config["target"]]
    if "steps" in config:
        argv += ["--steps", str(config["steps"])]
    return argv
