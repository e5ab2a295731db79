"""Independent checks of every report the benchmark's workloads produce.

Nothing here calls the engine's dynamics.  The oracle takes the
exchange matrix b and the colouring of a bigraph and evaluates the
exchange relation

    T_k(t+1) * T_k(t-1) = prod_{b_ik > 0} T_i^{b_ik} + prod_{b_ik < 0} T_i^{-b_ik}

at a seeded random point modulo a large prime, on the same belt layout
the engine uses (whites move first).  A closed-form table gives the
numbers the paper predicts from the Dynkin types alone.
"""

import json
import random
import re
from dataclasses import dataclass

P = 2**61 - 1

_COXETER = {
    "A": lambda r: r + 1,
    "B": lambda r: 2 * r,
    "C": lambda r: 2 * r,
    "D": lambda r: 2 * r - 2,
    "E": lambda r: {6: 12, 7: 18, 8: 30}[r],
    "F": lambda r: 12,
    "G": lambda r: 6,
}

# (n, h_Gamma, h_Delta): fig1 has Gamma = A5 + D4 and Delta = 3 A3;
# fig2 has Gamma = 2 F4 and Delta = 4 A2.
_FIGURES = {"fig1-A5starD4": (9, 6, 4), "fig2-F4xA2": (8, 12, 3)}

_SINGLE = re.compile(r"^([A-G])(\d+)$")
_TENSOR = re.compile(r"^([A-G])(\d+)x([A-G])(\d+)$")


@dataclass(frozen=True)
class Shape:
    """What the closed forms predict for one catalog target."""

    n: int
    h_gamma: int
    h_delta: int
    single: bool  # a plain Dynkin entry X_r, i.e. X_r tensor A1

    @property
    def N(self):
        return self.h_gamma + self.h_delta

    @property
    def census_size(self):
        """|Phi+| + n = n h / 2 + n for a plain Dynkin entry, else None."""
        return self.n * (self.h_gamma + 2) // 2 if self.single else None


def shape(target):
    if target in _FIGURES:
        return Shape(*_FIGURES[target], single=False)
    hit = _SINGLE.match(target)
    if hit:
        family, rank = hit.group(1), int(hit.group(2))
        return Shape(rank, _COXETER[family](rank), 2, single=True)
    fl, rl, fr, rr = _TENSOR.match(target).groups()
    rl, rr = int(rl), int(rr)
    return Shape(rl * rr, _COXETER[fl](rl), _COXETER[fr](rr), single=False)


def _belt_mod_p(b, epsilon, x, steps):
    """States 0..steps of the belt at the point x; raises ValueError
    when a value to divide by vanishes mod P."""
    n = len(b)
    states = [tuple(x)]
    for c in range(steps):
        old = states[-1]
        new = list(old)
        for k in range(n):
            if (0 if epsilon[k] == "w" else 1) != c % 2:
                continue
            pos = neg = 1
            for i in range(n):
                e = b[i][k]
                if e > 0:
                    pos = pos * pow(old[i], e, P) % P
                elif e < 0:
                    neg = neg * pow(old[i], -e, P) % P
            new[k] = (pos + neg) * pow(old[k], -1, P) % P
        states.append(tuple(new))
    return states


class Oracle:
    """Closed forms and the modular belt for one target."""

    def __init__(self, target, b, epsilon, seed, steps=0):
        self.target = target
        self.shape = shape(target)
        self.epsilon = tuple(epsilon)
        rng = random.Random("%s:%s" % (seed, target))
        while True:
            self.x = tuple(rng.randrange(2, P) for _ in range(len(b)))
            try:
                self.states = _belt_mod_p(
                    b, self.epsilon, self.x, max(steps, 2 * self.shape.N)
                )
                break
            except ValueError:
                continue
        index = {v: j for j, v in enumerate(self.x)}
        perm = tuple(index.get(v) for v in self.states[self.shape.N])
        is_perm = None not in perm and sorted(perm) == list(range(len(b)))
        self.sigma = perm if is_perm else None

    def period(self):
        """Smallest even p <= 2N with state(p) == state(0), or None."""
        for p in range(2, 2 * self.shape.N + 1, 2):
            if self.states[p] == self.x:
                return p
        return None


def parse_cycles(text):
    """Zero-based {i: sigma(i)} from one-based cycle notation ('id' allowed)."""
    pairs = {}
    for body in re.findall(r"\(([^)]*)\)", text):
        cycle = [int(v) - 1 for v in body.split()]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            pairs[a] = b
    return pairs


def _sigma_problem(oracle, text):
    if oracle.sigma is None:
        return "the modular belt at step N is not a permutation of the point"
    pairs = parse_cycles(text)
    perm = tuple(pairs.get(i, i) for i in range(len(oracle.sigma)))
    if perm != oracle.sigma:
        return "sigma %s, modular belt gives %s" % (text, oracle.sigma)
    return None


def eval_rendered(text, x):
    """Value mod P of a rendered Laurent polynomial at the point x."""
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = re.split(r" ([+-]) ", text)
    chunks = [(sign, parts[0])]
    chunks += [(1 if op == "+" else -1, body)
               for op, body in zip(parts[1::2], parts[2::2])]
    total = 0
    for s, body in chunks:
        value = s
        for factor in body.split("*"):
            if factor.startswith("x"):
                name, _, exp = factor.partition("^")
                value = value * pow(x[int(name[1:]) - 1], int(exp or 1), P) % P
            else:
                value = value * int(factor) % P
        total = (total + value) % P
    return total


def _expect(problems, what, got, want):
    if got != want:
        problems.append("%s is %r, expected %r" % (what, got, want))


def _check_halfperiod(config, doc, oracle, problems):
    s = oracle.shape
    _expect(problems, "N", doc["N"], s.N)
    period = oracle.period()
    _expect(problems, "period", doc["period"], period)
    if period is None or (2 * s.N) % period:
        problems.append("modular belt period %r does not divide 2N" % period)
    problem = _sigma_problem(oracle, doc["sigma"])
    if problem:
        problems.append(problem)
        return
    flips = [oracle.epsilon[j] != oracle.epsilon[i]
             for i, j in enumerate(oracle.sigma)]
    behavior = ("preserving" if not any(flips)
                else "reversing" if all(flips) else "mixed")
    _expect(problems, "colorBehavior", doc["colorBehavior"], behavior)
    _expect(problems, "colorBehavior by the parity of N", behavior,
            "preserving" if s.N % 2 == 0 else "reversing")
    identity = oracle.sigma == tuple(range(s.n))
    _expect(problems, "identity", doc["identity"], identity)
    _expect(problems, "censusSize", doc["censusSize"], s.census_size)
    if s.single:
        distinct = {v for state in oracle.states[: 2 * s.N + 1] for v in state}
        _expect(problems, "distinct values over a period", len(distinct),
                s.census_size)


def _check_belt(config, doc, oracle, problems):
    steps = config["steps"]
    _expect(problems, "steps", doc["steps"], steps)
    cluster = doc["cluster"].split(", ")
    values = tuple(eval_rendered(v, oracle.x) for v in cluster)
    if values != oracle.states[steps]:
        problems.append("rendered cluster disagrees with the modular belt")


def _check_tropical(config, doc, oracle, problems):
    _expect(problems, "N", doc["N"], oracle.shape.N)
    _expect(problems, "seed", doc["seed"], config["seed"])
    _expect(problems, "trials", doc["trials"], config["trials"])
    _expect(problems, "periodsDivide2N", doc["periodsDivide2N"], True)
    _expect(problems, "halfPeriodShiftOk", doc["halfPeriodShiftOk"], True)
    problem = _sigma_problem(oracle, doc["sigma"])
    if problem:
        problems.append(problem)


def _check_dual(config, doc, oracle, problems):
    _expect(problems, "seed", doc["seed"], config["seed"])
    _expect(problems, "trials", doc["trials"], config["trials"])
    _expect(problems, "ok", doc["ok"], True)


def _check_green(config, doc, oracle, problems):
    s = oracle.shape
    _expect(problems, "lengths", doc["lengths"], [s.h_gamma, s.h_delta])
    whites = [i + 1 for i, e in enumerate(oracle.epsilon) if e == "w"]
    blacks = [i + 1 for i, e in enumerate(oracle.epsilon) if e != "w"]
    plan = ((s.h_gamma, blacks, whites), (s.h_delta, whites, blacks))
    for cert, (factors, first, second) in zip(doc["certificates"], plan):
        sequence = [v for f in range(factors)
                    for v in (first if f % 2 == 0 else second)]
        _expect(problems, "certificate factors", cert["factors"], factors)
        _expect(problems, "certificate sequence", cert["sequence"], sequence)
        _expect(problems, "finalCIsMinusPermutation",
                cert["finalCIsMinusPermutation"], True)
    frozen = doc["frozenIsomorphism"]
    _expect(problems, "matchesSymbolic", frozen["matchesSymbolic"], None)
    problem = _sigma_problem(oracle, frozen["sigma"])
    if problem:
        problems.append(problem)


def _check_census(config, text, oracle):
    s = oracle.shape
    problems = []
    lines = text.splitlines()
    _expect(problems, "header", lines[0], "name,lambdaSeed,period,red,blue,ties")
    name, _, period, red, blue, ties = lines[-1].split(",")
    _expect(problems, "name", name, config["target"])
    _expect(problems, "period", int(period), 2 * s.N)
    _expect(problems, "red", int(red), s.h_gamma * s.n)
    _expect(problems, "blue", int(blue), 2 * s.n)
    _expect(problems, "ties", int(ties), 0)
    return problems


_JSON_CHECKS = {
    "halfperiod": _check_halfperiod,
    "belt": _check_belt,
    "tropical": _check_tropical,
    "dual-check": _check_dual,
    "green": _check_green,
}


def check(config, text, oracle):
    """Problems found in one report (empty when it is right)."""
    try:
        if config["command"] == "census":
            return _check_census(config, text, oracle)
        doc = json.loads(text)
        problems = []
        _expect(problems, "name", doc["name"], config["target"])
        _JSON_CHECKS[config["command"]](config, doc, oracle, problems)
        return problems
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return ["unreadable report: %s: %s" % (type(exc).__name__, exc)]
