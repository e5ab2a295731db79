"""Tropical max-plus T-system: scaled ints inside, Fractions at the boundary.

Same split-convention state layout as the symbolic belt, with Laurent
values replaced by rationals and the exchange binomial replaced by
max(Gamma-sum, Delta-sum).  Every mutation is logged with the two sums
so it can be colored red (Gamma side won), blue (Delta side won) or tie;
exactness is what makes the tie test meaningful.

Max-plus is positively homogeneous: T(s lambda) = s T(lambda) for s > 0.
So a run scales its labeling once by the LCM of the denominators and
steps on plain ints, over the bigraph's belt timetable
(`Bigraph.movers`), the one the symbolic belt steps over.  Ties,
equality and period detection do not change under a positive scale;
only `run_states` and the sums a `MutationEvent` carries are divided
back into Fractions.

The half-period trials (`half_period_runs`) step only to N.  When the
state there is the initial one relabeled by sigma and sigma passes the
half-period rules, the states after N are re-indexed copies of earlier
ones, through the replay the symbolic belt uses; otherwise a trial steps
on to 3N.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .bigraph import classify_sigma, dual_bigraph, first_return, replay
from .errors import ClaimViolation, InputError, NoGammaNeighbour

RED = "red"
BLUE = "blue"
TIE = "tie"


def constant_labeling(n, value):
    return tuple(Fraction(value) for _ in range(n))


def random_labeling(rng, n):
    """Entries in [-10, 10] with denominator at most 100."""
    return tuple(Fraction(rng.randint(-1000, 1000), 100) for _ in range(n))


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


def step_values(movers, c, values, scale, events=None):
    """One time step on scaled int values from the state at time c.

    `movers` is the bigraph's timetable `g.movers`: per parity of c, the
    vertices that move, with their Gamma and Delta in-edges.  `scale` is
    the factor the values carry.  Newly produced values sit at time c+2
    for the moving vertices, and that produced time is what a logged
    event carries, with its sums divided back by the scale.
    """
    out = list(values)
    for k, gamma_in, delta_in in movers[c % 2]:
        gamma_sum = sum([w * values[i] for i, w in gamma_in])
        delta_sum = sum([w * values[j] for j, w in delta_in])
        out[k] = max(gamma_sum, delta_sum) - values[k]
        if events is not None:
            events.append(
                MutationEvent(
                    t=c + 2,
                    k=k,
                    color=_classify(gamma_sum, delta_sum),
                    gamma_sum=Fraction(gamma_sum, scale),
                    delta_sum=Fraction(delta_sum, scale),
                )
            )
    return tuple(out)


def initial_values(g, lam):
    if len(lam) != g.n:
        raise InputError("labeling length %d, expected %d" % (len(lam), g.n))
    return tuple(Fraction(x) for x in lam)


def scale_of(lam):
    """The least s > 0 that makes every s * lambda_i an integer."""
    return math.lcm(*(Fraction(x).denominator for x in lam))


def scaled_states(g, lam, scale, steps, events=None):
    """States at times 0..steps inclusive, every value multiplied by scale.

    `scale` must be a multiple of `scale_of(lam)`.
    """
    state = tuple(
        x.numerator * (scale // x.denominator) for x in initial_values(g, lam)
    )
    return _advance(g, [state], steps, scale, events)


def _advance(g, states, last, scale, events=None):
    """Step the scaled run forward until it holds the state at time last."""
    for c in range(len(states) - 1, last):
        states.append(step_values(g.movers, c, states[-1], scale, events))
    return states


def run_states(g, lam, steps, events=None):
    """States at times 0..steps inclusive, as Fractions."""
    scale = scale_of(lam)
    return [
        tuple(Fraction(x, scale) for x in state)
        for state in scaled_states(g, lam, scale, steps, events)
    ]


def tropical_period(g, lam, max_steps):
    """Smallest even p <= max_steps with state(p) == state(0)."""
    return first_return(scaled_states(g, lam, scale_of(lam), max_steps))


def tropical_half_period(g, lam, sigma):
    """Does shifting time by N match relabeling the vertices by the
    Automorphism sigma?"""
    return next(half_period_runs(g, [lam], sigma))[1]


def half_period_runs(g, labelings, sigma):
    """Per labeling, its scaled states at times 0..3N and whether
    shifting time by N relabels them by the Automorphism sigma.

    Each run steps to N.  When state(N) is state(0) relabeled by sigma
    and sigma passes the half-period rules (`bigraph.classify_sigma`,
    checked once for all labelings), state(N + t) is state(t) relabeled
    by sigma for every t >= 0, so the run re-indexes the states after N
    (`bigraph.replay`) and the shift holds.  This is the uniqueness
    argument of the symbolic belt's replay: a step depends on its time
    only through the parity, and sigma, an automorphism whose colour
    behaviour fits the parity of N, takes the step at time t to the step
    at t + N.  Otherwise the run steps on to 3N and
    `read_half_period_shift` judges it.
    """
    n_half = g.half_period
    try:
        classify_sigma(g, sigma)
        fits = True
    except ClaimViolation:
        fits = False
    for lam in labelings:
        scale = scale_of(lam)
        states = scaled_states(g, lam, scale, n_half)
        if fits and states[n_half] == sigma.relabel(states[0]):
            replay(states, sigma, n_half, 3 * n_half)
            yield states, True
        else:
            _advance(g, states, 3 * n_half, scale)
            yield states, read_half_period_shift(g, states, sigma)


def read_half_period_shift(g, states, sigma):
    """The half-period shift check on states at times 0..3N.

    Compared at the state level: state(c + N)[i] == state(c)[sigma(i)]
    for every c in one full period, sigma an Automorphism.  A sigma
    whose color behavior does not fit the parity of N fails here on any
    non-degenerate labeling.
    """
    n_half = g.half_period
    return all(
        states[c + n_half] == sigma.relabel(states[c]) for c in range(2 * n_half)
    )


def dual_transfer_check(g, lam, dual=None):
    """Dual trajectory against the symmetrizer-rescaled primal one.

    The dual system runs the raw labeling; the primal one runs the
    labeling scaled entrywise by the primal symmetrizer, and the two
    must agree after dividing the primal values back by it.  Both runs
    share one scale, so the comparison is on their scaled ints.  dual
    is g's `dual_bigraph`, built here unless a caller checking many
    labelings built it once.
    """
    c = g.base.c
    if dual is None:
        dual = dual_bigraph(g)
    lam_tilde = tuple(ci * Fraction(x) for ci, x in zip(c, lam))
    scale = scale_of(tuple(lam) + lam_tilde)
    steps = 2 * g.half_period
    dual_states = scaled_states(dual, lam, scale, steps)
    primal_states = scaled_states(g, lam_tilde, scale, steps)
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
    """Event counts over one full period 2N of a tensor-with-point entry,
    judged on exactly the labeling given.

    A vertex with no Gamma neighbour compares two empty sums at every
    labeling, so its events all tie and the census cannot be judged.

    Every other input in scope never ties.  Delta is empty, so an event
    produced at time p is red or blue as its Gamma-sum over the values
    at p - 1 is positive or negative.  At the four slices 0, 1, N, N+1
    (mod 2N) those values are initial, relabeled by sigma at N and N+1,
    so each is some lambda_i < 0.  At any other time a value is a
    non-initial cluster variable P(x) / x^d with d a positive root and P
    a polynomial with nonnegative coefficients and P(0) != 0
    (Fomin-Zelevinsky, "Cluster algebras II", Invent. Math. 2003, Thm
    1.9).  With no cancellation, its max-plus value at lambda < 0 is
    the max over P's monomials, which the constant term wins at 0, less
    d . lambda: that is d . |lambda| > 0.  Every vertex has a
    Gamma neighbour, so no Gamma-sum is 0, and the events whose inputs
    sit in the four initial slices are exactly the blue ones.  A tie
    here would be an engine fault, and the census reports it as one.
    """
    if not g.plain:
        raise InputError("colored census needs an empty Delta")
    if any(x >= 0 for x in lam):
        raise InputError("colored census needs an all-negative labeling")
    lonely = [k + 1 for k, column in enumerate(zip(*g.gamma)) if not any(column)]
    if lonely:
        raise NoGammaNeighbour(
            "colored census needs a Gamma neighbour at every vertex; "
            "vertices %s have none" % lonely
        )
    events = []
    period = 2 * g.half_period
    scaled_states(g, lam, scale_of(lam), period, events)
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


def blue_times_admissible(census, n_half):
    """Blue inputs must come from the initial or half-period clusters.

    An event produced at time p consumed neighbor values at p - 1; the
    clusters holding those inputs sit at times 0/1 and N/N+1 modulo 2N.
    """
    allowed = {0, 1, n_half, n_half + 1}
    return all((p - 1) % (2 * n_half) in allowed for p in census.blue_times)


def make_rng(seed):
    return random.Random(seed)
