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

A labeling entry is an int (not a bool) or a Fraction; anything else,
a float, a string or a bool, raises InvalidLabeling naming the entry.
Every entry point reads its labeling exactly once, in `scaled_labeling`
(through `_scaled_start`, which also checks the length): the least
scale and the scaled ints, an int entry taken as it is and a Fraction
by its numerator and denominator, so no Fraction is built.  A run
carries that one scale; `colored_census` checks signs on the scaled
ints, which a positive scale leaves as they are.  The CLI's trials
stay on the int side: `tropical` and `dual-check` draw each labeling
as ints (`random_int_labeling`, 100 times the Fraction labeling
`random_labeling` draws from the same generator state), which by
homogeneity give the same verdicts, and a run of them builds no
Fraction at all.

The half-period trials (`half_period_runs`) take a sigma that passes
the half-period rules and step only to N.  When the state there is the
initial one relabeled by sigma, the states after N are re-indexed
copies of earlier ones, through the replay the symbolic belt uses;
otherwise the shift fails, and a trial steps on to 2N so that its
period can be read.

The track also answers the root question: `denominator_bijection_check`
reads every d-vector of a plain Dynkin entry off n integer runs, by
Lee-Schiffler positivity and Speyer-Williams tropicalization, and
compares them with the almost positive roots (Fomin-Zelevinsky II).
"""

import math
import random
import reprlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import dynkin
from .bigraph import (
    cartan_companion,
    classify_sigma,
    first_return,
    produced,
    replay,
    require_plain,
)
from .errors import InputError, InvalidLabeling, NoGammaNeighbour

RED = "red"
BLUE = "blue"
TIE = "tie"


def constant_labeling(n, value):
    """n copies of value, an entry checked as a labeling's entries are."""
    _require_entry(0, value)
    return (value,) * n


def random_int_labeling(rng, n):
    """n draws of rng.randint(-1000, 1000), in order: 100 times the
    entries of `random_labeling` from the same generator state, and the
    ints the CLI's trials run on."""
    draw = rng.randint
    out = []
    for _ in range(n):
        out.append(draw(-1000, 1000))
    return tuple(out)


def random_labeling(rng, n):
    """Entries in [-10, 10] with denominator at most 100: the draws of
    `random_int_labeling` over 100."""
    return tuple(Fraction(x, 100) for x in random_int_labeling(rng, n))


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
        gamma_sum = 0
        for i, w in gamma_in:
            gamma_sum += w * values[i]
        delta_sum = 0
        for j, w in delta_in:
            delta_sum += w * values[j]
        out[k] = (delta_sum if gamma_sum < delta_sum else gamma_sum) - values[k]
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


def _require_entry(i, x):
    """Refuse entry i with InvalidLabeling unless it is an int (a bool is
    not one) or a Fraction."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise InvalidLabeling(
            "labeling entry %d is %s (%s), not an int or a Fraction"
            % (i + 1, reprlib.repr(x), type(x).__name__)
        )


def scaled_labeling(lam):
    """The least s > 0 that makes every s * lambda_i an integer, and
    those integers, read in one pass: an int (not a bool) as it is and a
    Fraction by its numerator and denominator, so no Fraction is built;
    anything else is refused with InvalidLabeling.  A denominator the
    scale does not clear yet grows it, and the ints read so far."""
    out = []
    scale = 1
    for i, x in enumerate(lam):
        if type(x) is not int:
            _require_entry(i, x)
            d = x.denominator
            if scale % d:
                grow = d // math.gcd(scale, d)
                scale *= grow
                for j in range(i):
                    out[j] *= grow
            x = x.numerator * (scale // d)
        elif scale != 1:
            x *= scale
        out.append(x)
    return scale, tuple(out)


def _scaled_start(g, lam):
    """scaled_labeling(lam), its length checked against g."""
    scale, start = scaled_labeling(lam)
    if len(start) != g.n:
        raise InputError("labeling length %d, expected %d" % (len(start), g.n))
    return scale, start


def scaled_states(g, lam, steps, events=None):
    """The labeling's scale and its states at times 0..steps inclusive,
    every value multiplied by that scale.  A negative steps is refused."""
    if steps < 0:
        raise InputError("steps must be nonnegative")
    scale, start = _scaled_start(g, lam)
    return scale, _advance(g, [start], steps, scale, events)


def _advance(g, states, last, scale, events=None):
    """Step the scaled run forward until it holds the state at time last."""
    for c in range(len(states) - 1, last):
        states.append(step_values(g.movers, c, states[-1], scale, events))
    return states


def run_states(g, lam, steps, events=None):
    """States at times 0..steps inclusive, as Fractions."""
    scale, states = scaled_states(g, lam, steps, events)
    return [tuple(Fraction(x, scale) for x in state) for state in states]


def tropical_period(g, lam, max_steps):
    """Smallest even p <= max_steps with state(p) == state(0)."""
    return first_return(scaled_states(g, lam, max_steps)[1])


def tropical_half_period(g, lam, sigma):
    """Does shifting time by N match relabeling the vertices by the
    Automorphism sigma?  sigma must pass the half-period rules, as in
    `half_period_runs`."""
    return next(half_period_runs(g, [lam], sigma))[1]


def half_period_runs(g, labelings, sigma):
    """Per labeling, its scaled states at times 0..2N and whether
    shifting time by N relabels them by the Automorphism sigma.

    sigma must pass the half-period rules (`bigraph.classify_sigma`),
    checked once before the first step; one that does not raises the
    ClaimViolation the symbolic and the green track raise.  Each run
    steps to N.  When state(N) is state(0) relabeled by sigma,
    state(N + t) is state(t) relabeled by sigma for every t >= 0, so the
    run re-indexes the states after N (`bigraph.replay`) and the shift
    holds.  This is the uniqueness argument of the symbolic belt's
    replay: a step depends on its time only through the parity, and
    sigma, an automorphism whose colour behaviour fits the parity of N,
    takes the step at time t to the step at t + N.  Otherwise the shift
    fails at t = 0, and the run steps on to 2N so that its period can
    be read.
    """
    classify_sigma(g, sigma)
    n_half = g.half_period
    for lam in labelings:
        scale, start = _scaled_start(g, lam)
        states = _advance(g, [start], n_half, scale)
        shifted = states[n_half] == sigma.relabel(states[0])
        if shifted:
            replay(states, sigma, n_half, 2 * n_half)
        else:
            _advance(g, states, 2 * n_half, scale)
        yield states, shifted


def dual_transfer_check(g, lam):
    """Dual trajectory against the symmetrizer-rescaled primal one.

    The dual system, `g.dual`, runs the raw labeling; the primal one
    runs the labeling scaled entrywise by the primal symmetrizer, and
    the two must agree after dividing the primal values back by it.
    Both runs share one scale, the labeling's own, so the comparison is
    on their scaled ints.
    """
    c = g.base.c
    # c holds positive ints, so lam's scale also clears c * lam, and the
    # scaled ints of c * lam are c times those of lam
    steps = 2 * g.half_period
    scale, dual_states = scaled_states(g.dual, lam, steps)
    lam_tilde = []
    for ci, x in zip(c, dual_states[0]):
        lam_tilde.append(ci * x)
    primal_states = _advance(g, [tuple(lam_tilde)], steps, scale)
    for dual_state, primal_state in zip(dual_states, primal_states):
        for i in range(g.n):
            if dual_state[i] * c[i] != primal_state[i]:
                return False
    return True


@dataclass(frozen=True)
class ColoredCensus:
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
    scale, start = _scaled_start(g, lam)
    if any(x >= 0 for x in start):
        raise InputError("colored census needs an all-negative labeling")
    lonely = [k + 1 for k, column in enumerate(zip(*g.gamma)) if not any(column)]
    if lonely:
        raise NoGammaNeighbour(
            "colored census needs a Gamma neighbour at every vertex; "
            "vertices %s have none" % lonely
        )
    events = []
    period = 2 * g.half_period
    _advance(g, [start], period, scale, events)
    counts = {RED: 0, BLUE: 0, TIE: 0}
    blue_times = []
    for event in events:
        counts[event.color] += 1
        if event.color == BLUE:
            blue_times.append(event.t)
    return ColoredCensus(
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


def denominator_bijection_check(g):
    """Compare the d-vectors of the values a run of a plain Dynkin
    entry makes up to N - 2 with its almost positive roots, which
    Fomin-Zelevinsky ("Cluster algebras II", Invent. Math. 2003) put in
    bijection with them.

    Each value is a Laurent polynomial with nonnegative coefficients
    (Lee-Schiffler, Ann. of Math. 2015), so no term cancels and its
    max-plus run at lambda is the max of e . lambda over its exponents e
    (Speyer-Williams, J. Algebraic Combin. 2005).  At lambda = -e_i that
    is minus the least exponent of x_i: entry i of the value's d-vector.
    So n runs to N - 2, one per i, read in production order
    (`bigraph.produced`), give every d-vector.  The root side is the
    brute-force enumerator's positive roots of the Cartan companion of
    Gamma plus the negative simple roots, so the two sides are computed
    independently.
    """
    require_plain(g, "denominator bijection")
    n = g.n
    negatives = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    entries = [
        produced(g, scaled_states(g, lam, g.half_period - 2)[1]) for lam in negatives
    ]
    collected = Counter(zip(*entries))
    expected = Counter(dynkin.positive_roots(cartan_companion(g.gamma, range(n))))
    expected.update(negatives)
    return collected == expected


def make_rng(seed):
    return random.Random(seed)
