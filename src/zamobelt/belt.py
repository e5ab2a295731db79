"""Symbolic T-system along the bipartite belt.

Time bookkeeping follows the split convention: vertex k carries values
only at times t with t = eta_k (mod 2).  A BeltState at time c stores,
for every vertex, the value at c when the parities agree and the value
at c+1 otherwise, so one state always holds a full cluster spanning the
two times {c, c+1}.  Stepping from c to c+1 produces T_k(c+2) for the
vertices k with eta_k = c (mod 2); whites are the first movers.  The
bigraph's timetable, `Bigraph.movers`, lists those vertices with their
Gamma and Delta in-edges, and the tropical track steps over it too.

A run divides each distinct exchange once.  The states of one run share
a memo of exact quotients, keyed by the exchange's inputs, so a step
whose inputs were seen before reuses the quotient instead of dividing
again.  At N = h_Gamma + h_Delta the belt holds the initial cluster
relabeled by sigma, so states[N + t].values[k] == states[t].values[sigma(k)]
and the second half of a 2N run is served by sigma-re-indexed hits.
Nothing relies on that: a miss divides, and a failed division is never
stored.
"""

from collections import Counter
from dataclasses import dataclass, field

from . import dynkin
from .bigraph import (
    Automorphism,
    automorphism,
    classify_color_behavior,
    unmatched_entry,
)
from .errors import (
    ClaimViolation,
    InputError,
    LaurentPhenomenonViolation,
    NoPermutationMatch,
    NotDivisible,
)
from .laurent import Laurent, exchange


@dataclass(frozen=True)
class BeltState:
    """The cluster at time t.  `done` is the run's memo of exact
    quotients, handed on by `step`; a state built by hand starts with
    an empty one.  It takes no part in equality."""

    g: object
    t: int
    values: tuple
    done: dict = field(default_factory=dict, compare=False, repr=False)


def initial_state(g):
    n = g.n
    return BeltState(g=g, t=0, values=tuple(Laurent.variable(k, n) for k in range(n)))


def _exchange_key(monomials, divisor):
    """The memo key of an exchange: each monomial as a multiset of its
    (base, exponent) pairs, in (Gamma, Delta) order, then the divisor."""
    return (*(frozenset(Counter(pairs).items()) for pairs in monomials), divisor)


def step(state):
    """Advance one time unit, mutating the vertices that move at its
    parity in the bigraph's timetable."""
    c = state.t
    old = state.values
    values = list(old)
    for k, gamma_in, delta_in in state.g.movers[c % 2]:
        monomials = [
            [(old[i], w) for i, w in gamma_in],
            [(old[i], w) for i, w in delta_in],
        ]
        key = _exchange_key(monomials, old[k])
        if key not in state.done:
            try:
                state.done[key] = exchange(monomials, old[k])
            except NotDivisible as exc:
                raise LaurentPhenomenonViolation(
                    "vertex %d at time %d: %s" % (k + 1, c + 2, exc)
                ) from exc
        values[k] = state.done[key]
    return BeltState(g=state.g, t=c + 1, values=tuple(values), done=state.done)


def run_belt(g, steps):
    """Trajectory of steps+1 states starting from the initial cluster.

    The states share one memo, so the run divides each distinct exchange
    once; from t = N on, a 2N run replays its first half re-indexed by
    sigma and is served by memo hits.
    """
    if steps < 0:
        raise InputError("steps must be nonnegative")
    out = [initial_state(g)]
    for _ in range(steps):
        out.append(step(out[-1]))
    return out


def first_return(trajectory):
    """Smallest even p > 0 with trajectory[p] == trajectory[0], or None.

    Period detection for both tracks: a trajectory is a list of belt
    clusters or of tropical states, from time 0.
    """
    return next(
        (p for p in range(2, len(trajectory), 2) if trajectory[p] == trajectory[0]),
        None,
    )


def read_period(states):
    """Smallest even p with an exact cluster recurrence in a belt run."""
    return first_return([state.values for state in states])


def detect_period(g, max_steps):
    """Smallest even p <= max_steps with an exact cluster recurrence."""
    return read_period(run_belt(g, max_steps))


@dataclass(frozen=True)
class HalfPeriodReport:
    N: int
    sigma: Automorphism
    color_behavior: str
    order: int
    identity: bool


def sigma_from_cluster(values):
    """Permutation sigma with values[i] == x_{sigma(i)}, or raise.

    Entries that are not plain variables, scalar multiples included,
    mean the cluster is not a relabeling of the initial one.
    """
    n = len(values)
    perm = []
    for i, value in enumerate(values):
        j = value.as_variable()
        if j is None:
            raise NoPermutationMatch(
                "entry %d is %s, not an initial variable" % (i + 1, value)
            )
        perm.append(j)
    if sorted(perm) != list(range(n)):
        raise NoPermutationMatch("variable indices repeat: %s" % (perm,))
    return tuple(perm)


def half_period(g):
    """Run to t = h_Gamma + h_Delta and classify the relabeling found there."""
    return read_half_period(g, run_belt(g, g.half_period))


def read_half_period(g, states):
    """Classify the relabeling held at t = N by a belt run from t = 0."""
    n_steps = g.half_period
    perm = sigma_from_cluster(states[n_steps].values)
    sigma = automorphism(g, perm)
    if any(unmatched_entry(perm, m, m) is not None for m in (g.gamma, g.delta)):
        raise ClaimViolation(
            "half-period permutation does not preserve (Gamma, Delta)"
        )
    if sigma.order > 2:
        raise ClaimViolation("half-period permutation has order above two")
    behavior = classify_color_behavior(g, perm)
    expected = "preserving" if n_steps % 2 == 0 else "reversing"
    if behavior != expected:
        raise ClaimViolation(
            "color behavior %s does not match parity of N=%d" % (behavior, n_steps)
        )
    return HalfPeriodReport(
        N=n_steps,
        sigma=sigma,
        color_behavior=behavior,
        order=sigma.order,
        identity=sigma.is_identity,
    )


def _require_tensor_with_point(g, what):
    if not g.plain:
        raise InputError("%s needs an empty Delta (a plain Dynkin entry)" % what)


def _produced(g, states):
    """The initial cluster, then each value in the order the run made it."""
    yield from states[0].values
    for c, state in enumerate(states[1:]):
        for k, _, _ in g.movers[c % 2]:
            yield state.values[k]


def cluster_variable_census(g):
    """Multiset of the values produced over one full period 2N."""
    _require_tensor_with_point(g, "census")
    return read_census(g, run_belt(g, 2 * g.half_period - 2))


def read_census(g, states):
    """The census of a plain Dynkin entry from a belt run of 2N - 2 or
    more steps."""
    return Counter(_produced(g, states[: 2 * g.half_period - 1]))


def denominator_bijection_check(g):
    """Compare half-period d-vectors with almost positive roots.

    The root side comes from the brute-force enumerator on the Cartan
    companion of Gamma, so the two sides are computed independently.
    """
    _require_tensor_with_point(g, "denominator bijection")
    n = g.n
    states = run_belt(g, g.half_period - 2)
    collected = Counter(v.denominator_vector() for v in _produced(g, states))
    cartan = tuple(
        tuple(2 if i == j else -g.gamma[i][j] for j in range(n)) for i in range(n)
    )
    expected = Counter(dynkin.positive_roots(cartan))
    for i in range(n):
        expected[tuple(-1 if j == i else 0 for j in range(n))] += 1
    return collected == expected
