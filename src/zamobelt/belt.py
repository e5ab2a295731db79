"""Symbolic T-system along the bipartite belt.

Time bookkeeping follows the split convention: vertex k carries values
only at times t with t = eta_k (mod 2).  A BeltState at time c stores,
for every vertex, the value at c when the parities agree and the value
at c+1 otherwise, so one state always holds a full cluster spanning the
two times {c, c+1}.  Stepping from c to c+1 produces T_k(c+2) for the
vertices k with eta_k = c (mod 2); whites are the first movers.  The
bigraph's timetable, `Bigraph.movers`, lists those vertices with their
Gamma and Delta in-edges, and the tropical track steps over it too.

A run divides only where it must.  Write N = h_Gamma + h_Delta and S_c
for the state at time c.  Two facts let it derive states instead:

- Uniqueness.  T_k(t+1) * T_k(t-1) is a sum of two monomials in the
  values at t, and no value is zero, so one full cluster fixes a
  solution at every time, forward and backward.  Any map taking solutions to solutions and agreeing with
  the run on one state agrees with it on every state.
- Symmetries.  Three maps take solutions to solutions: renaming the
  initial variables (a ring automorphism, `Laurent.rename`); relabeling
  the vertices by an automorphism pi of (Gamma, Delta); and a shift or
  reversal of time, t -> t + s or t -> s - t, provided pi preserves
  colours when s is even and reverses them when s is odd.

Mirror.  Take pi = id when N is odd and a colour-reversing automorphism
when N is even, so that s = N + 1 fits, and any permutation rho of the
variables.  Then T_k(t) -> rho(T_{pi(k)}(N + 1 - t)) is a symmetry, and
on states it reads S_{N-c}[k] = rho(S_c[pi(k)]).  With M = N - N // 2,
the run steps to S_M and checks that identity at c = N - M exactly.  If
it holds, the uniqueness argument gives it at every c, so S_{M+1}, ...,
S_N are renamed copies of S_{N-M-1}, ..., S_0 and cost no division.
The paper's theorem (S_N is S_0 relabeled by an involution sigma) makes
the check pass with rho = (sigma pi)^(-1), a colour-reversing
automorphism, so rho is drawn from those.  A lazy search yields them one
at a time, and the run tries at most MIRROR_TRIES, stopping at the
first that passes; so a bigraph with a huge symmetry group costs a few
tries, not its group.  Nothing relies on the theorem: without a passing
candidate the run steps forward.

Replay.  If read_half_period accepts S_N, it holds the initial
variables relabeled by an involution sigma of (Gamma, Delta),
colour-preserving for even N and colour-reversing for odd N.  Then
S_{N+t}[k] = S_t[sigma(k)] for every t by the same argument, so the run
re-indexes states from there on.  If the verdict rejects S_N, the run
steps forward.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice

from . import dynkin
from .bigraph import (
    Automorphism,
    automorphism_search,
    classify_color_behavior,
    unmatched_entry,
)
from .errors import (
    ClaimViolation,
    InputError,
    LaurentPhenomenonViolation,
    NoPermutationMatch,
    NotAdmissibleBigraph,
    NotDivisible,
    SearchBoundExceeded,
)
from .laurent import Laurent, exchange

# The mirror check tries at most this many rho; past them the run steps.
# On every catalog and sweep entry the passing rho is the first or second.
MIRROR_TRIES = 8


@dataclass(frozen=True)
class BeltState:
    """The cluster at time t."""

    g: object
    t: int
    values: tuple


def initial_state(g):
    n = g.n
    return BeltState(g=g, t=0, values=tuple(Laurent.variable(k, n) for k in range(n)))


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
        try:
            values[k] = exchange(monomials, old[k])
        except NotDivisible as exc:
            raise LaurentPhenomenonViolation(
                "vertex %d at time %d: %s" % (k + 1, c + 2, exc)
            ) from exc
    return BeltState(g=state.g, t=c + 1, values=tuple(values))


def run_belt(g, steps):
    """Trajectory of steps+1 states starting from the initial cluster.

    Every state equals the one stepping forward would give.  Past the
    midpoint of the first N steps the run derives states by the mirror,
    and past N by the replay (see the module docstring), wherever their
    checks hold; everywhere else it steps.
    """
    if steps < 0:
        raise InputError("steps must be nonnegative")
    states = [initial_state(g)]
    try:
        n_steps = g.half_period
    except NotAdmissibleBigraph:
        n_steps = None
    if n_steps is not None:
        first_half = min(steps, n_steps)
        _advance(states, min(first_half, n_steps - n_steps // 2))
        _mirror(g, states, n_steps, first_half)
        _advance(states, first_half)
        _replay(g, states, n_steps, steps)
    _advance(states, steps)
    return states


def _advance(states, last):
    """Step the run forward until it holds the state at time last."""
    while len(states) <= last:
        states.append(step(states[-1]))


def mirror_candidates(g, n_steps):
    """(pi, rhos) for the mirror about the midpoint of the first n_steps
    steps, or None when there is no candidate: pi is the identity for
    odd n_steps and the first colour-reversing automorphism for even
    n_steps, and rhos lazily yields the first MIRROR_TRIES
    colour-reversing automorphisms, each found only when it is tried."""
    try:
        rhos = automorphism_search(g, "colorReversing")
    except SearchBoundExceeded:
        return None
    first = next(rhos, None)
    if first is None:
        return None
    pi = tuple(range(g.n)) if n_steps % 2 else first
    return pi, islice(chain([first], rhos), MIRROR_TRIES)


def _mirror(g, states, n_steps, last):
    """Derive the states after the midpoint M up to time last from the
    ones before it, if some candidate passes the exact check at M."""
    mid = len(states) - 1
    if last <= mid:
        return
    candidates = mirror_candidates(g, n_steps)
    if candidates is None:
        return
    pi, rhos = candidates
    at_mid, source = states[mid].values, states[n_steps - mid].values
    rho = next(
        (
            rho
            for rho in rhos
            if all(at_mid[k] == source[pi[k]].rename(rho) for k in range(g.n))
        ),
        None,
    )
    if rho is None:
        return
    for c in range(mid, last):
        source = states[n_steps - c - 1].values
        values = list(states[-1].values)
        for k, _, _ in g.movers[c % 2]:
            values[k] = source[pi[k]].rename(rho)
        states.append(BeltState(g=g, t=c + 1, values=tuple(values)))


def _replay(g, states, n_steps, steps):
    """Re-index the states after time N from the ones before it, if
    read_half_period accepts the state at N."""
    if steps <= n_steps:
        return
    try:
        perm = read_half_period(g, states).sigma.perm
    except ClaimViolation:
        return
    for t in range(1, steps - n_steps + 1):
        values = states[t].values
        states.append(
            BeltState(g=g, t=n_steps + t, values=tuple(values[j] for j in perm))
        )


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
    return classify_sigma(g, sigma_from_cluster(states[g.half_period].values))


def classify_sigma(g, perm):
    """The half-period report of perm, or ClaimViolation unless perm is
    an automorphism of (Gamma, Delta) of order at most two that preserves
    colours for even N and reverses them for odd N.  A relabeling held
    at N that passes re-indexes every later state (the module docstring's
    replay); the tropical track reuses these rules for its own."""
    n_steps = g.half_period
    sigma = Automorphism(perm)
    if any(unmatched_entry(perm, m, m) is not None for m in (g.gamma, g.delta)):
        raise ClaimViolation(
            "half-period permutation does not preserve (Gamma, Delta)"
        )
    if sigma.order > 2:
        raise ClaimViolation("half-period permutation has order above two")
    behavior = classify_color_behavior(g, perm)
    if behavior != ("preserving" if n_steps % 2 == 0 else "reversing"):
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
