"""Symbolic T-system along the bipartite belt.

Time bookkeeping follows the split convention: vertex k carries values
only at times t with t = eta_k (mod 2).  A run is a list of states
indexed by time, as on the tropical track: the state at time c is a
tuple holding, for every vertex, the value at c when the parities agree
and the value at c+1 otherwise, so one state always holds a full cluster
spanning the two times {c, c+1}.  Stepping from c to c+1 produces
T_k(c+2) for the vertices k with eta_k = c (mod 2); whites are the first
movers.  The bigraph's timetable, `Bigraph.movers`, lists those vertices
with their Gamma and Delta in-edges, and the tropical track steps over
it too.

A run divides only where it must.  Write N = h_Gamma + h_Delta and S_c
for the state at time c.  Two facts let it derive states instead:

- Uniqueness.  T_k(t+1) * T_k(t-1) is a sum of two monomials in the
  values at t, and no value is zero, so one full cluster fixes a
  solution at every time, forward and backward.  Any map taking
  solutions to solutions and agreeing with the run on one state agrees
  with it on every state.
- Symmetries.  Three maps take solutions to solutions: renaming the
  initial variables (a ring automorphism, `Laurent.rename`); relabeling
  the vertices by an automorphism pi of (Gamma, Delta); and a shift or
  reversal of time, t -> t + s or t -> s - t, provided pi preserves
  colours when s is even and reverses them when s is odd.

Mirror.  For odd N, s = N + 1 is even and fits pi = id, so for any
permutation rho of the variables T_k(t) -> rho(T_k(N + 1 - t)) is a
symmetry; on states it reads S_{N-c}[k] = rho(S_c[k]).  With
M = N - N // 2, M - 1 = N - M, so the run steps to S_M and checks that
identity once, as S_M = rho(S_{M-1}).  If it holds, the uniqueness
argument gives it at every c, so S_{M+1}, ..., S_N are renamed copies of
S_{M-2}, ..., S_0 and cost no division.  Renaming by rho permutes every
value's d-vector (`denominator_vector`) the same way, so the d-vectors
force rho: variable i goes to the lowest free variable whose column of
d-vectors in S_M equals i's column in S_{M-1} (`_renaming`).  That one
rho is checked.  The paper's theorem (S_N is S_0 relabeled by an
involution sigma) makes the check pass with rho = sigma, but nothing
relies on it: when no rho is read or the check fails, the run steps
forward.  An even N would need a colour-reversing pi, found only by an
automorphism search, so an even-N run searches nothing and steps to N.

Replay.  If read_half_period accepts S_N, it holds the initial
variables relabeled by an involution sigma of (Gamma, Delta),
colour-preserving for even N and colour-reversing for odd N.  Then
S_{N+t}[k] = S_t[sigma(k)] for every t by the same argument, so the run
re-indexes states from there on (`bigraph.replay`, which the tropical
track shares).  If the verdict rejects S_N, the run steps forward.
"""

from collections import Counter

from . import dynkin
from .bigraph import (
    Automorphism,
    cartan_companion,
    classify_sigma,
    first_return,
    replay,
)
from .errors import (
    ClaimViolation,
    InputError,
    InvalidPermutation,
    LaurentPhenomenonViolation,
    NoPermutationMatch,
    NotAdmissibleBigraph,
    NotDivisible,
)
from .laurent import Laurent, exchange


def initial_state(g):
    return tuple(Laurent.variable(k, g.n) for k in range(g.n))


def step(g, c, values):
    """The state at time c + 1 from the state values at c, mutating the
    vertices that move at c's parity in the bigraph's timetable."""
    out = list(values)
    for k, gamma_in, delta_in in g.movers[c % 2]:
        monomials = [
            [(values[i], w) for i, w in gamma_in],
            [(values[i], w) for i, w in delta_in],
        ]
        try:
            out[k] = exchange(monomials, values[k])
        except NotDivisible as exc:
            raise LaurentPhenomenonViolation(
                "vertex %d at time %d: %s" % (k + 1, c + 2, exc)
            ) from exc
    return tuple(out)


def run_belt(g, steps):
    """Trajectory of steps+1 states starting from the initial cluster.

    Every state equals the one stepping forward would give.  Past the
    midpoint of the first N steps, for odd N, the run derives states by
    the mirror, and past N by the replay (see the module docstring),
    wherever their checks hold; everywhere else it steps.
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
        _advance(g, states, min(first_half, n_steps - n_steps // 2))
        _mirror(g, states, n_steps, first_half)
        _advance(g, states, first_half)
        _replay(g, states, n_steps, steps)
    _advance(g, states, steps)
    return states


def state_at(g, steps):
    """The state at time steps, as run_belt(g, steps)[-1] holds it,
    without holding steps + 1 states.

    On an admissible bigraph a run past 2N stops at 2N.  A step depends
    on the time only through its parity, so when the state at an even p
    equals the initial one (`first_return`), the state at t is the state
    at t mod p.  Otherwise the run steps on from its last state, keeping
    that state alone, as it does from time 0 on a bigraph outside the
    theorem.  run_belt rejects a negative steps.
    """
    try:
        last = min(steps, 2 * g.half_period)
    except NotAdmissibleBigraph:
        last = min(steps, 0)
    states = run_belt(g, last)
    period = first_return(states) if steps > last else None
    if period is not None:
        return states[steps % period]
    values = states[-1]
    for c in range(last, steps):
        values = step(g, c, values)
    return values


def _advance(g, states, last):
    """Step the run forward until it holds the state at time last."""
    while len(states) <= last:
        states.append(step(g, len(states) - 1, states[-1]))


def _renaming(before, after):
    """The one candidate rho for after[k] == before[k].rename(rho) at
    every k, or None.  Renaming moves variable i's column of d-vectors
    to column rho(i), so i goes to the lowest free j whose column in
    after equals i's column in before; the caller checks rho exactly.
    """
    free = {}
    for j, column in enumerate(zip(*(v.denominator_vector() for v in after))):
        free.setdefault(column, []).append(j)
    rho = []
    for column in zip(*(v.denominator_vector() for v in before)):
        if not free.get(column):
            return None
        rho.append(free[column].pop(0))
    return Automorphism(tuple(rho))


def _mirror(g, states, n_steps, last):
    """Derive the states after the midpoint M up to time last from the
    ones before it, if n_steps is odd and the rho read off the d-vectors
    at M passes the exact check S_M = rho(S_{M-1}) there."""
    mid = len(states) - 1
    if n_steps % 2 == 0 or last <= mid:
        return
    at_mid, source = states[mid], states[n_steps - mid]
    rho = _renaming(source, at_mid)
    if rho is None or any(at_mid[k] != source[k].rename(rho) for k in range(g.n)):
        return
    for c in range(mid, last):
        source = states[n_steps - c - 1]
        values = list(states[-1])
        for k, _, _ in g.movers[c % 2]:
            values[k] = source[k].rename(rho)
        states.append(tuple(values))


def _replay(g, states, n_steps, steps):
    """Re-index the states after time N from the ones before it, if
    read_half_period accepts the state at N."""
    if steps <= n_steps:
        return
    try:
        sigma = read_half_period(g, states).sigma
    except ClaimViolation:
        return
    replay(states, sigma, n_steps, steps)


def detect_period(g, max_steps):
    """Smallest even p <= max_steps with an exact cluster recurrence."""
    return first_return(run_belt(g, max_steps))


def sigma_from_cluster(values):
    """The Automorphism sigma with values[i] == x_{sigma(i)}, or raise.

    Entries that are not plain variables, scalar multiples included,
    mean the cluster is not a relabeling of the initial one.
    """
    perm = tuple(value.as_variable() for value in values)
    if None in perm:
        i = perm.index(None)
        raise NoPermutationMatch(
            "entry %d is %s, not an initial variable" % (i + 1, values[i])
        )
    try:
        return Automorphism(perm)
    except InvalidPermutation as exc:
        raise NoPermutationMatch("variable indices repeat: %s" % (list(perm),)) from exc


def half_period(g):
    """Run to t = h_Gamma + h_Delta and classify the relabeling found there."""
    return read_half_period(g, run_belt(g, g.half_period))


def read_half_period(g, states):
    """Classify the relabeling held at t = N by a belt run from t = 0."""
    return classify_sigma(g, sigma_from_cluster(states[g.half_period]))


def _require_tensor_with_point(g, what):
    if not g.plain:
        raise InputError("%s needs an empty Delta (a plain Dynkin entry)" % what)


def _produced(g, states):
    """The initial cluster, then each value in the order the run made it."""
    yield from states[0]
    for c, state in enumerate(states[1:]):
        for k, _, _ in g.movers[c % 2]:
            yield state[k]


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
    expected = Counter(dynkin.positive_roots(cartan_companion(g.gamma, range(n))))
    for i in range(n):
        expected[tuple(-1 if j == i else 0 for j in range(n))] += 1
    return collected == expected
