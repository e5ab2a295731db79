"""Per-layer tracing from outside the engine.

The tracer wraps public functions of the engine's modules (and the
`Laurent` operations) in place, so calls made inside the engine pass
through the wrappers too.  Each wrapper adds to its name's call count
and inclusive time, and charges its time to the enclosing traced call,
which gives self time.  Nothing is traced until `install` runs.
"""

import time
from statistics import median, median_low


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive s, traced-children s]
        self.counts = {}
        self._stack = []
        self._restore = []

    def reset(self):
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.counts = dict.fromkeys(self.counts, 0)

    def add(self, name, amount):
        self.counts[name] += amount

    def peak(self, name, value):
        if value > self.counts[name]:
            self.counts[name] = value

    def _wrap(self, name, fn, observe):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[0]
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, observe=None, aliases=()):
        """Replace owner.attr (and any aliases) with a traced wrapper."""
        original = owner.__dict__[attr]
        fn = original
        if isinstance(original, classmethod):
            fn = original.__func__
        wrapped = self._wrap(name, fn, observe)
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        for a in (attr,) + tuple(aliases):
            self._restore.append((owner, a, owner.__dict__[a]))
            setattr(owner, a, wrapped)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def snapshot(self):
        """{name: (calls, inclusive s, self s)} plus the counters."""
        spans = {
            name: (calls, total, total - children)
            for name, (calls, total, children) in self.stats.items()
        }
        return spans, dict(self.counts)


def install(tracer):
    """Trace the layers the benchmark reports on."""
    from zamobelt import belt, bigraph, cli, green, laurent, tropical

    Laurent = laurent.Laurent
    for name in (
        "laurent.mul.unit_calls", "laurent.mul.term_pairs",
        "laurent.divexact.quotient_terms", "laurent.divexact.term_pairs",
        "laurent.divexact.peak_dividend_terms",
        "laurent.divexact.peak_quotient_terms",
    ):
        tracer.counts[name] = 0

    def is_one(x):
        if isinstance(x, int):
            return x == 1
        terms = x.terms
        return len(terms) == 1 and terms.get((0,) * x.nvars) == 1

    def size(x):
        return 1 if isinstance(x, int) else len(x.terms)

    def on_mul(args, result):
        a, b = args
        if is_one(a) or is_one(b):
            tracer.add("laurent.mul.unit_calls", 1)
        tracer.add("laurent.mul.term_pairs", size(a) * size(b))

    def on_divexact(args, result):
        dividend, divisor = args
        q = len(result.terms)
        tracer.add("laurent.divexact.quotient_terms", q)
        tracer.add("laurent.divexact.term_pairs", q * size(divisor))
        tracer.peak("laurent.divexact.peak_dividend_terms", len(dividend.terms))
        tracer.peak("laurent.divexact.peak_quotient_terms", q)

    tracer.patch(Laurent, "__mul__", "laurent.mul", on_mul, aliases=("__rmul__",))
    tracer.patch(Laurent, "divexact", "laurent.divexact", on_divexact)
    tracer.patch(Laurent, "render", "laurent.render")
    # Traced only so that belt.step self time leaves out all Laurent work.
    tracer.patch(Laurent, "__add__", "laurent.add", aliases=("__radd__",))
    tracer.patch(Laurent, "__pow__", "laurent.pow")
    tracer.patch(Laurent, "one", "laurent.one")

    for module, names in (
        (belt, ("step", "half_period", "detect_period",
                "cluster_variable_census")),
        (tropical, ("step_values", "tropical_period", "tropical_half_period",
                    "dual_transfer_check", "colored_census")),
        (green, ("mutate_framed", "mutate_y", "verify_bipartite_belt_mgs",
                 "frozen_isomorphism_check")),
        (bigraph, ("catalog",)),
        (cli, ("run_experiment", "cmd_suite")),
    ):
        prefix = module.__name__.rsplit(".", 1)[1]
        for fname in names:
            tracer.patch(module, fname, "%s.%s" % (prefix, fname))


def _span(spans, name, field):
    calls, total, self_s = spans.get(name, (0, 0.0, 0.0))
    return {"calls": calls, "s": total, "self_s": self_s}[field]


# (metric, unit, span, field): field of the span, or the counter's name
# when span is None.
PER_LAYER = [
    ("laurent.mul.calls", "count", "laurent.mul", "calls"),
    ("laurent.mul.unit_calls", "count", None, "laurent.mul.unit_calls"),
    ("laurent.mul.term_pairs", "count", None, "laurent.mul.term_pairs"),
    ("laurent.mul.s", "s", "laurent.mul", "s"),
    ("laurent.divexact.s", "s", "laurent.divexact", "s"),
    ("laurent.divexact.calls", "count", "laurent.divexact", "calls"),
    ("laurent.divexact.quotient_terms", "count", None,
     "laurent.divexact.quotient_terms"),
    ("laurent.divexact.term_pairs", "count", None, "laurent.divexact.term_pairs"),
    ("laurent.divexact.peak_dividend_terms", "count", None,
     "laurent.divexact.peak_dividend_terms"),
    ("laurent.divexact.peak_quotient_terms", "count", None,
     "laurent.divexact.peak_quotient_terms"),
    ("laurent.render.s", "s", "laurent.render", "s"),
    ("belt.step.calls", "count", "belt.step", "calls"),
    ("belt.step.needed", "count", None, "belt.step.needed"),
    ("belt.step.self_s", "s", "belt.step", "self_s"),
    ("belt.half_period.s", "s", "belt.half_period", "s"),
    ("belt.detect_period.s", "s", "belt.detect_period", "s"),
    ("belt.cluster_variable_census.s", "s", "belt.cluster_variable_census", "s"),
    ("tropical.step_values.calls", "count", "tropical.step_values", "calls"),
    ("tropical.step_values.s", "s", "tropical.step_values", "s"),
    ("tropical.tropical_period.s", "s", "tropical.tropical_period", "s"),
    ("tropical.tropical_half_period.s", "s", "tropical.tropical_half_period", "s"),
    ("tropical.dual_transfer_check.s", "s", "tropical.dual_transfer_check", "s"),
    ("tropical.colored_census.s", "s", "tropical.colored_census", "s"),
    ("green.mutate_framed.calls", "count", "green.mutate_framed", "calls"),
    ("green.mutate_framed.s", "s", "green.mutate_framed", "s"),
    ("green.mutate_y.s", "s", "green.mutate_y", "s"),
    ("green.verify_bipartite_belt_mgs.s", "s", "green.verify_bipartite_belt_mgs",
     "s"),
    ("green.frozen_isomorphism_check.s", "s", "green.frozen_isomorphism_check",
     "s"),
    ("bigraph.catalog.calls", "count", "bigraph.catalog", "calls"),
    ("bigraph.catalog.s", "s", "bigraph.catalog", "s"),
    ("cli.run_experiment.calls", "count", "cli.run_experiment", "calls"),
    ("cli.run_experiment.s", "s", "cli.run_experiment", "s"),
    ("cli.suite.self_s", "s", "cli.cmd_suite", "self_s"),
]


def layer_metrics(rounds):
    """Median over rounds of each per-layer metric.

    Each round is (spans, counts) from `Tracer.snapshot`, with
    `belt.step.needed` added to the counts by the caller.
    """
    out = {}
    for name, unit, span, field in PER_LAYER:
        values = [
            counts[field] if span is None else _span(spans, span, field)
            for spans, counts in rounds
        ]
        pick = median_low if unit == "count" else median
        out[name] = {"value": pick(values), "unit": unit}
    return out
