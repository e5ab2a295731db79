"""Command line interface: run one experiment or a suite, emit reports.

Exit protocol: 0 when every checked claim held, 1 when a claim was
falsified by the input, 2 when the input or a resource guard stopped
the run before any claim could be judged, 3 on an internal error.
"""

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from itertools import chain

# each command imports the tracks it runs, so a process compiles only those
from . import bigraph, errors
from .errors import ClaimViolation, InputError

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _failure(exc):
    """(text, exit code) for the exception that stopped a command."""
    if isinstance(exc, InputError):
        return "error: %s\n" % exc, EXIT_INPUT
    if isinstance(exc, ClaimViolation):
        return "falsified: %s\n" % exc, EXIT_FALSIFIED
    import traceback

    return "".join(traceback.format_exception(exc)), EXIT_INTERNAL


def _resolve_target(target, resolved=None):
    """The target's bigraph, which must be recurrent; this checks nothing
    more, and a command refuses a bigraph outside the theorem
    (NotAdmissibleBigraph) when it reads `half_period`.  A JSON file
    when it ends in .json or holds a path separator, else a catalog name
    whatever files the working directory holds.

    resolved, when given, is a suite call's dict from each target string
    it has resolved to that target's Bigraph, which is immutable: a
    target found there is neither built nor checked again, and one
    resolved here is added.  A failure is never kept, so a bad name, a
    bad file or a target that is not recurrent raises again, with the
    same text, for each entry that names it."""
    if resolved is not None and target in resolved:
        return resolved[target]
    if target.endswith(".json") or os.path.sep in target:
        g = bigraph.load_bigraph(target)
    else:
        g = bigraph.catalog(target)
    bigraph.require_recurrent(g, target)
    if resolved is not None:
        resolved[target] = g
    return g


# a command-line integer: an optional "-", then ASCII digits
_ASCII_INT = re.compile(r"-?[0-9]+")

# a labeling entry: an optional sign, ASCII digits, then an optional
# "/digits" or ".digits"; no exponent, whose cost grows with its value
_LABELING_ENTRY = re.compile(r"[-+]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def _ascii_int(text):
    """The int an optional "-" and ASCII digits spell, the type of every
    integer flag.  Anything else (digits of other scripts, "_", "+") and
    a number past the interpreter's digit limit raise ArgumentTypeError,
    which argparse reports as a usage error, exit 2."""
    if not _ASCII_INT.fullmatch(text):
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_labeling(text, n):
    """The labeling a comma-separated list of entries spells, one entry
    standing for all n.  Each entry, stripped of surrounding whitespace,
    is an integer, a fraction a/b or a decimal in ASCII digits."""
    parts = [p.strip() for p in text.split(",")]
    try:
        if not all(map(_LABELING_ENTRY.fullmatch, parts)):
            raise ValueError(text)
        values = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("bad labeling %r" % text) from exc
    if len(values) == 1:
        return tuple(values * n)
    if len(values) != n:
        raise InputError("labeling has %d entries, expected %d" % (len(values), n))
    return tuple(values)


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (out_path, exc.strerror)) from exc
    else:
        sys.stdout.write(text)


def _json_text(doc):
    return json.dumps(doc, indent=2) + "\n"


# -- individual commands: (fields, exit code) from the target and the args ----


def cmd_belt(g, args):
    from . import belt

    cluster = ", ".join(v.render() for v in belt.state_at(g, args.steps))
    return {"steps": args.steps, "cluster": cluster}, EXIT_OK


def cmd_halfperiod(g, args):
    from . import belt

    states = belt.run_belt(g, 2 * g.half_period)
    report = belt.read_half_period(g, states)
    period = bigraph.first_return(states)
    if period is None:
        raise ClaimViolation("no recurrence within 2N = %d steps" % (2 * report.N))
    census_size = len(belt.read_census(g, states)) if g.plain else None
    return {
        "N": report.N,
        "period": period,
        "sigma": report.sigma.cycles(),
        "colorBehavior": report.color_behavior,
        "identity": report.identity,
        "censusSize": census_size,
    }, EXIT_OK


def cmd_green(g, args):
    from . import green

    cert_gamma, cert_delta = g.certificates
    symbolic = None
    if not args.skip_symbolic:
        from . import belt

        symbolic = belt.half_period(g).sigma
    frozen_sigma = green.frozen_isomorphism_check(g, symbolic)

    def cert_doc(cert):
        return {
            "sequence": [k + 1 for k in cert.sequence],
            "factors": cert.factors,
            # true on every report that exits 0, as _certify raises
            # NotPermutation before a certificate exists otherwise; it
            # stays because the benchmark oracle and the golden reports
            # read it
            "finalCIsMinusPermutation": cert.permutation is not None,
            "permutation": cert.permutation.cycles(),
        }

    return {
        "lengths": [g.h_gamma, g.h_delta],
        "certificates": [cert_doc(cert_gamma), cert_doc(cert_delta)],
        "frozenIsomorphism": {
            "sigma": frozen_sigma.cycles(),
            "matchesSymbolic": None if symbolic is None else True,
        },
    }, EXIT_OK


def cmd_tropical(g, args):
    from . import green, tropical

    n_half = g.half_period
    rng = tropical.make_rng(args.seed)
    sigma = green.frozen_isomorphism_check(g)
    periods_ok = True
    shift_ok = True
    # drawn one at a time as the runs use them, not all before the first,
    # as ints: 100 times random_labeling's, and by homogeneity the same
    # periods and shifts
    labelings = (tropical.random_int_labeling(rng, g.n) for _ in range(args.trials))
    for states, shifted in tropical.half_period_runs(g, labelings, sigma):
        period = bigraph.first_return(states)
        if period is None or (2 * n_half) % period != 0:
            periods_ok = False
        if not shifted:
            shift_ok = False
    fields = {
        "N": n_half,
        "seed": args.seed,
        "trials": args.trials,
        "periodsDivide2N": periods_ok,
        "sigma": sigma.cycles(),
        "halfPeriodShiftOk": shift_ok,
    }
    return fields, EXIT_OK if periods_ok and shift_ok else EXIT_FALSIFIED


def cmd_census(g, args):
    import csv
    import io

    from . import tropical

    lam = _parse_labeling(args.lam, g.n)
    census = tropical.colored_census(g, lam)
    ok = (
        census.red == g.h_gamma * g.n
        and census.blue == 2 * g.n
        and census.ties == 0
        and tropical.blue_times_admissible(census, g.half_period)
    )
    # one quoting rule for every field: a target path or a labeling with
    # a comma is quoted, and a '"' in it doubled
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(("name", "lambdaSeed", "period", "red", "blue", "ties"))
    rows.writerow(
        (args.target, args.lam, census.period, census.red, census.blue, census.ties)
    )
    return out.getvalue(), EXIT_OK if ok else EXIT_FALSIFIED


def cmd_dual_check(g, args):
    from . import tropical

    rng = tropical.make_rng(args.seed)
    labelings = chain(
        [tropical.constant_labeling(g.n, -1)],
        (tropical.random_int_labeling(rng, g.n) for _ in range(args.trials)),
    )
    ok = all(tropical.dual_transfer_check(g, lam) for lam in labelings)
    fields = {"seed": args.seed, "trials": args.trials, "ok": ok}
    return fields, EXIT_OK if ok else EXIT_FALSIFIED


def cmd_catalog_list(args):
    """The one command without a target: its report's own text, with
    catalogVersion first."""
    entries = []
    for name in bigraph.catalog_names():
        g = bigraph.catalog(name)
        entries.append(
            {
                "name": name,
                "n": g.n,
                "gammaComponents": [c.name for c in g.gamma_components],
                "deltaComponents": [c.name for c in g.delta_components],
                "hGamma": g.h_gamma,
                "hDelta": g.h_delta,
                "N": g.half_period,
            }
        )
    doc = {"catalogVersion": bigraph.catalog_version(), "entries": entries}
    return _json_text(doc), EXIT_OK


# -- dispatch and the suite runner -------------------------------------------

_COMMANDS = {
    "belt": cmd_belt,
    "halfperiod": cmd_halfperiod,
    "green": cmd_green,
    "tropical": cmd_tropical,
    "census": cmd_census,
    "dual-check": cmd_dual_check,
    "catalog-list": cmd_catalog_list,
}


def _run(command, args):
    """(report text, exit code) of one command, for main and for each
    suite entry alike.  The checks run in this order: a negative trial
    count is refused, as it would run no trial and verify nothing; then
    the target resolves (`_resolve_target`); then the command reads its
    own input.  A command returns its report's text (census's CSV row)
    or the fields of its JSON report as a dict, written here between the
    target's name and the catalog version."""
    if command == "catalog-list":
        return cmd_catalog_list(args)
    if getattr(args, "trials", 0) < 0:
        raise InputError("trials must be at least 0, got %d" % args.trials)
    g = _resolve_target(args.target, args.resolved)
    fields, code = _COMMANDS[command](g, args)
    if isinstance(fields, dict):
        version = bigraph.catalog_version()
        fields = _json_text({"name": args.target, **fields, "catalogVersion": version})
    return fields, code


def _is_json_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# every command's config may hold these, and the _options of the command
_COMMON_KEYS = ("command", "termGuard")

# suite config key -> (argument dest, accepted JSON type, its name); a key
# left out of a config takes the default of the command's own flag, but a
# command with a target argument needs its target
_CONFIG_KEYS = {
    "target": ("target", lambda value: isinstance(value, str), "a string"),
    "steps": ("steps", _is_json_int, "an integer"),
    "seed": ("seed", _is_json_int, "an integer"),
    "trials": ("trials", _is_json_int, "an integer"),
    "lambda": ("lam", lambda value: isinstance(value, str), "a string"),
    "skipSymbolic": ("skip_symbolic", lambda value: isinstance(value, bool),
                     "a boolean"),
}


def _options(command):
    """The _CONFIG_KEYS entries whose flag the command defines."""
    dests = {action.dest for action in _build_parser()[1][command]._actions}
    return {key: spec for key, spec in _CONFIG_KEYS.items() if spec[0] in dests}


def _config_error(key, kind, value):
    return InputError("config key %r must be %s, got %r" % (key, kind, value))


# the JSON type of each value a suite file decodes to, as an error names it
_JSON_TYPES = {str: "a string", int: "a number", float: "a number",
               bool: "a boolean", list: "an array", type(None): "null"}


def run_experiment(config, resolved=None):
    """Run one config dict; returns (report text, exit code).

    Never raises: failures are folded into the exit code so one bad
    suite entry cannot take down its siblings.  A termGuard holds for
    this config only.  Values are taken as given, never coerced: a
    config that is not a JSON object, a key the command does not take,
    or a value of the wrong JSON type is an input error naming it.
    resolved is the suite call's dict of resolved targets
    (`_resolve_target`); without it the target is built and checked
    afresh.
    """
    keep_guard = errors.get_term_guard()
    try:
        if not isinstance(config, dict):
            kind = _JSON_TYPES.get(type(config), type(config).__name__)
            raise InputError("config must be a JSON object, got %s" % kind)
        command = config.get("command")
        if not isinstance(command, str) or command not in _COMMANDS:
            raise InputError("unknown command %r" % command)
        options = _options(command)
        extra = [k for k in config if k not in options and k not in _COMMON_KEYS]
        if extra:
            raise InputError("config key %r is not a %s option" % (extra[0], command))
        if "target" in options and not isinstance(config.get("target"), str):
            raise _config_error("target", "a string", config.get("target"))
        guard = config.get("termGuard")
        if guard is not None:
            if not _is_json_int(guard) or guard < 1:
                raise _config_error("termGuard", "a positive integer", guard)
            errors.set_term_guard(guard)
        args = argparse.Namespace(out=None, resolved=resolved)
        for key, (dest, accepts, kind) in options.items():
            if key not in config:
                value = _build_parser()[1][command].get_default(dest)
            elif accepts(config[key]):
                value = config[key]
            else:
                raise _config_error(key, kind, config[key])
            setattr(args, dest, value)
        return _run(command, args)
    except Exception as exc:
        return _failure(exc)
    finally:
        errors.set_term_guard(keep_guard)


# a suite worker's resolved targets, kept for the pool's life
_worker_resolved = None


def _start_worker(guard):
    """Set up a suite worker: it runs its entries under the suite's term
    guard, which it would inherit only from a forked parent, and resolves
    each distinct target once however many of its entries name it."""
    global _worker_resolved
    errors.set_term_guard(guard)
    _worker_resolved = {}


def _run_in_worker(config):
    return run_experiment(config, _worker_resolved)


def cmd_suite(args):
    if args.jobs < 1:
        raise InputError("jobs must be at least 1, got %d" % args.jobs)
    configs = bigraph.read_json(args.file)
    if not isinstance(configs, list):
        raise InputError("suite file must hold a list of configs")
    if args.jobs > 1 and configs:
        # imported here: it loads multiprocessing, which a serial run
        # and every other command never need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=args.jobs,
            initializer=_start_worker,
            initargs=(errors.get_term_guard(),),
        ) as pool:
            results = list(pool.map(_run_in_worker, configs))
    else:
        # each distinct target is built and checked once per suite call
        resolved = {}
        results = [run_experiment(cfg, resolved) for cfg in configs]
    entries = []
    worst = EXIT_OK
    tally = dict.fromkeys((EXIT_OK, EXIT_FALSIFIED, EXIT_INPUT, EXIT_INTERNAL), 0)
    for config, (text, code) in zip(configs, results):
        worst = max(worst, code)
        tally[code] += 1
        entries.append({"config": config, "exitCode": code, "report": text})
    doc = {
        "summary": {
            "total": len(configs),
            "verified": tally[EXIT_OK],
            "falsified": tally[EXIT_FALSIFIED],
            "errors": tally[EXIT_INPUT] + tally[EXIT_INTERNAL],
        },
        "results": entries,
        "catalogVersion": bigraph.catalog_version(),
    }
    return _json_text(doc), worst


@functools.cache
def _build_parser():
    """The top-level parser and the subparser of each command by name.

    Built once per process: every suite entry reads its defaults here.
    Callers only parse with it and read defaults, never change it.
    """
    parser = argparse.ArgumentParser(
        prog="zamobelt",
        description="exact engine for bipartite-belt dynamics",
    )
    # a command line resolves its one target afresh; run_experiment
    # passes a suite call's resolved targets here
    parser.set_defaults(resolved=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--out", default=None, help="write the report here")
        sp.add_argument(
            "--term-guard",
            default=None,
            help="cap on polynomial term counts (env ZAMOBELT_TERM_GUARD)",
        )
        return sp

    sp = add("belt", help="run the symbolic belt and print the cluster")
    sp.add_argument("target")
    sp.add_argument("--steps", type=_ascii_int, default=0)

    sp = add("halfperiod", help="half-period permutation report")
    sp.add_argument("target")

    sp = add("green", help="maximal green certificates and frozen isomorphism")
    sp.add_argument("target")
    sp.add_argument("--skip-symbolic", action="store_true")

    sp = add("tropical", help="tropical periodicity over random labelings")
    sp.add_argument("target")
    sp.add_argument("--seed", type=_ascii_int, default=0)
    sp.add_argument("--trials", type=_ascii_int, default=100)

    sp = add("census", help="colored mutation counts over one period")
    sp.add_argument("target")
    sp.add_argument("--lambda", dest="lam", default="-1")

    sp = add("dual-check", help="transfer check against the Langlands dual")
    sp.add_argument("target")
    sp.add_argument("--seed", type=_ascii_int, default=0)
    sp.add_argument("--trials", type=_ascii_int, default=10)

    add("catalog-list", help="list built-in entries")

    sp = add("suite", help="run a JSON list of experiment configs")
    sp.add_argument("file")
    sp.add_argument("--jobs", type=_ascii_int, default=1)

    return parser, sub.choices


def _term_guard(flag):
    """The guard from --term-guard, else ZAMOBELT_TERM_GUARD, else the
    default.  A value must be a positive integer, read as every integer
    flag is (`_ascii_int`)."""
    source, text = "--term-guard", flag
    if text is None:
        source, text = "ZAMOBELT_TERM_GUARD", os.environ.get("ZAMOBELT_TERM_GUARD")
        if not text:
            return errors.DEFAULT_TERM_GUARD
    try:
        value = _ascii_int(text)
    except argparse.ArgumentTypeError as exc:
        if _ASCII_INT.fullmatch(text):  # more digits than the interpreter converts
            raise InputError("%s: %s" % (source, exc)) from exc
        value = 0  # no integer: the message below names it
    if value < 1:
        raise InputError("%s must be a positive integer, got %r" % (source, text))
    return value


def main(argv=None):
    """Run one command line; the term guard it sets holds for this call
    only, as a suite entry's does in run_experiment."""
    args = _build_parser()[0].parse_args(argv)
    keep_guard = errors.get_term_guard()
    try:
        errors.set_term_guard(_term_guard(args.term_guard))
        if args.command == "suite":
            text, code = cmd_suite(args)
        else:
            text, code = _run(args.command, args)
        _emit(text, args.out)
    except Exception as exc:
        text, code = _failure(exc)
        sys.stderr.write(text)
    finally:
        errors.set_term_guard(keep_guard)
    return code


if __name__ == "__main__":
    sys.exit(main())
