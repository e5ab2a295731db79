"""Tropical max-plus T-system over exact rationals.

Same split-convention state layout as the symbolic belt, with Laurent
values replaced by Fractions and the exchange binomial replaced by
max(Gamma-sum, Delta-sum).  Every mutation is logged with the two sums
so it can be colored red (Gamma side won), blue (Delta side won) or tie;
exactness of the rationals is what makes the tie test meaningful.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .belt import first_return
from .bigraph import dual_bigraph
from .errors import InputError

RED = "red"
BLUE = "blue"
TIE = "tie"


def constant_labeling(n, value):
    return tuple(Fraction(value) for _ in range(n))


def random_labeling(rng, n):
    """Entries in [-10, 10] with denominator at most 100."""
    return tuple(Fraction(rng.randint(-1000, 1000), 100) for _ in range(n))


def perturbed_negative_labeling(n):
    """The tie-breaking rerun labeling: lambda_i = -1 - i / (100 n^2)."""
    return tuple(-1 - Fraction(i, 100 * n * n) for i in range(1, n + 1))


@dataclass(frozen=True)
class MutationEvent:
    t: int
    k: int
    color: str
    gamma_sum: Fraction
    delta_sum: Fraction


def _classify(gamma_sum, delta_sum):
    if gamma_sum > delta_sum:
        return RED
    if delta_sum > gamma_sum:
        return BLUE
    return TIE


def step_values(g, c, values, events=None):
    """One time step from the state at time c; returns the new value tuple.

    Newly produced values sit at time c+2 for the active vertices, and
    that produced time is what a logged event carries.
    """
    out = list(values)
    for k in range(g.n):
        if g.eta(k) % 2 != c % 2:
            continue
        gamma_sum = sum(
            (g.gamma[i][k] * values[i] for i in range(g.n) if g.gamma[i][k]),
            Fraction(0),
        )
        delta_sum = sum(
            (g.delta[j][k] * values[j] for j in range(g.n) if g.delta[j][k]),
            Fraction(0),
        )
        out[k] = max(gamma_sum, delta_sum) - values[k]
        if events is not None:
            events.append(
                MutationEvent(
                    t=c + 2,
                    k=k,
                    color=_classify(gamma_sum, delta_sum),
                    gamma_sum=gamma_sum,
                    delta_sum=delta_sum,
                )
            )
    return tuple(out)


def initial_values(g, lam):
    if len(lam) != g.n:
        raise InputError("labeling length %d, expected %d" % (len(lam), g.n))
    return tuple(Fraction(x) for x in lam)


def run_states(g, lam, steps, events=None):
    """States at times 0..steps inclusive."""
    states = [initial_values(g, lam)]
    for c in range(steps):
        states.append(step_values(g, c, states[-1], events))
    return states


def tropical_period(g, lam, max_steps):
    """Smallest even p <= max_steps with state(p) == state(0)."""
    return first_return(run_states(g, lam, max_steps))


def tropical_half_period(g, lam, sigma):
    """Does shifting time by N match relabeling the vertices by sigma?"""
    return read_half_period_shift(g, run_states(g, lam, 3 * g.half_period), sigma)


def read_half_period_shift(g, states, sigma):
    """The half-period shift check on states at times 0..3N.

    Compared at the state level: state(c + N)[i] == state(c)[sigma(i)]
    for every c in one full period.  A sigma whose color behavior does
    not fit the parity of N fails here on any non-degenerate labeling.
    """
    perm = tuple(sigma)
    n_half = g.half_period
    for c in range(2 * n_half):
        shifted = states[c + n_half]
        base = states[c]
        if any(shifted[i] != base[perm[i]] for i in range(g.n)):
            return False
    return True


def dual_transfer_check(g, lam):
    """Dual trajectory against the symmetrizer-rescaled primal one.

    The dual system runs the raw labeling; the primal one runs the
    labeling scaled entrywise by the primal symmetrizer, and the two
    must agree after dividing the primal values back by it.
    """
    c = g.base.c
    dual = dual_bigraph(g)
    lam_tilde = tuple(ci * Fraction(x) for ci, x in zip(c, lam))
    steps = 2 * g.half_period
    dual_states = run_states(dual, lam, steps)
    primal_states = run_states(g, lam_tilde, steps)
    for dual_state, primal_state in zip(dual_states, primal_states):
        for i in range(g.n):
            if dual_state[i] * c[i] != primal_state[i]:
                return False
    return True


@dataclass(frozen=True)
class ColoredCensus:
    lam: tuple
    period: int
    red: int
    blue: int
    ties: int
    blue_times: tuple


def colored_census(g, lam):
    """Event counts over one full period 2N of a tensor-with-point entry."""
    if not g.plain:
        raise InputError("colored census needs an empty Delta")
    if any(x >= 0 for x in lam):
        raise InputError("colored census needs an all-negative labeling")
    events = []
    period = 2 * g.half_period
    run_states(g, lam, period, events)
    counts = {RED: 0, BLUE: 0, TIE: 0}
    blue_times = []
    for event in events:
        counts[event.color] += 1
        if event.color == BLUE:
            blue_times.append(event.t)
    return ColoredCensus(
        lam=tuple(Fraction(x) for x in lam),
        period=period,
        red=counts[RED],
        blue=counts[BLUE],
        ties=counts[TIE],
        blue_times=tuple(blue_times),
    )


def census_with_tie_policy(g, lam=None):
    """Census at the given labeling (default all -1); on ties, rerun once
    with the perturbed labeling and report both."""
    if lam is None:
        lam = constant_labeling(g.n, -1)
    first = colored_census(g, lam)
    if first.ties == 0:
        return first, None
    return first, colored_census(g, perturbed_negative_labeling(g.n))


def blue_times_admissible(census, n_half):
    """Blue inputs must come from the initial or half-period clusters.

    An event produced at time p consumed neighbor values at p - 1; the
    clusters holding those inputs sit at times 0/1 and N/N+1 modulo 2N.
    """
    allowed = {0, 1, n_half, n_half + 1}
    return all((p - 1) % (2 * n_half) in allowed for p in census.blue_times)


def make_rng(seed):
    return random.Random(seed)
