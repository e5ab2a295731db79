"""Framed matrices, c-vectors, and maximal green sequence certification.

Everything here runs two bookkeeping tracks at once.  The primary track
is plain matrix mutation of the n x 2n extension; the c-vectors are its
frozen columns.  The second track iterates the coefficient mutation
rule in the tropical semifield, where a coefficient is an integer
exponent vector and semifield addition takes componentwise minima.
The two tracks must agree row for row after every single mutation; that
agreement is asserted, not assumed.
"""

from dataclasses import dataclass
from operator import itemgetter

from .bigraph import Automorphism, automorphism, mutate_rows, unmatched_entry
from .errors import (
    CoefficientMismatch,
    FrozenVertex,
    InvalidPartition,
    MismatchWithSymbolicSigma,
    NoIsomorphism,
    NotComponentPreserving,
    NotGreenAtStep,
    NotMaximal,
    NotPermutation,
    SignCoherenceViolation,
)

GREEN = "green"
RED = "red"


@dataclass(frozen=True)
class FramedState:
    n: int
    ext: tuple
    history: tuple

    def c_vector(self, i):
        return self.ext[i][self.n:]

    def c_matrix(self):
        return tuple(row[self.n:] for row in self.ext)

    def mutable_block(self):
        return tuple(row[: self.n] for row in self.ext)


def framed(m, sign=1):
    """B over sign * I: the framed matrix, or with sign -1 the coframed one."""
    n = m.n
    ext = tuple(
        tuple(m.b[i]) + tuple(sign if j == i else 0 for j in range(n))
        for i in range(n)
    )
    return FramedState(n=n, ext=ext, history=())


def _assert_sign_coherent(state):
    for i in range(state.n):
        c = state.c_vector(i)
        if min(c) < 0 < max(c):
            raise SignCoherenceViolation(
                "c-vector %d is %s after %s" % (i + 1, c, state.history)
            )


def mutate_framed(state, k):
    """Standard mutation at mutable k over all 2n columns."""
    if not 0 <= k < state.n:
        raise FrozenVertex("vertex %d is not mutable" % (k + 1))
    new = FramedState(
        n=state.n, ext=mutate_rows(state.ext, k), history=state.history + (k,)
    )
    _assert_sign_coherent(new)
    return new


def vertex_status(state, k):
    if not 0 <= k < state.n:
        raise FrozenVertex("vertex %d is not mutable" % (k + 1))
    return GREEN if all(x >= 0 for x in state.c_vector(k)) else RED


def _normalize_partition(state, partition):
    parts = [tuple(sorted(part)) for part in partition]
    covered = sorted(v for part in parts for v in part)
    if covered != list(range(state.n)):
        raise InvalidPartition(
            "partition covers %s, expected 0..%d once each" % (covered, state.n - 1)
        )
    return parts


def is_component_preserving(state, partition, k):
    """Green k may only point negatively inside its own part; red k may
    only point positively inside its own part.  Frozen columns satisfy
    this automatically through sign-coherence."""
    parts = _normalize_partition(state, partition)
    own = next(part for part in parts if k in part)
    green = vertex_status(state, k) == GREEN
    row = state.ext[k]
    for j in range(2 * state.n):
        if green and row[j] < 0:
            bad = j
        elif not green and row[j] > 0:
            bad = j
        else:
            continue
        if bad < state.n and bad not in own:
            return False
        if bad >= state.n:
            # a frozen violation would contradict the green/red status
            raise SignCoherenceViolation(
                "frozen column %d contradicts status of %d" % (bad + 1, k + 1)
            )
    return True


def _restrict(ext, n, part):
    """Square-free restriction: rows of part, columns of part then frozen."""
    pick = itemgetter(*part, *range(n, 2 * n))
    return tuple(pick(ext[i]) for i in part)


def _check_restriction_commutes(before, after, parts, k):
    """Mutation at k must act on the part containing k exactly as local
    mutation of the restricted matrix and must leave other parts alone."""
    n = before.n
    for part in parts:
        restricted_after = _restrict(after.ext, n, part)
        if k in part:
            local = mutate_rows(_restrict(before.ext, n, part), part.index(k))
            if local != restricted_after:
                raise NotComponentPreserving(
                    "mutation at %d does not commute with restriction" % (k + 1)
                )
        elif _restrict(before.ext, n, part) != restricted_after:
            raise NotComponentPreserving(
                "mutation at %d leaked into part %s" % (k + 1, part)
            )


def _min0(vec):
    return tuple(min(0, x) for x in vec)


def initial_y(n, sign=1):
    return tuple(
        tuple(sign if j == i else 0 for j in range(n)) for i in range(n)
    )


def mutate_y(y, ext, k):
    """Coefficient mutation in the tropical semifield, on exponent rows.

    Uses the pre-mutation exchange entries b_ik; semifield addition
    turns (y^a + 1) into the componentwise min(a, 0) exponent.
    """
    n = len(y)
    floor_k = _min0(y[k])
    out = []
    for i in range(n):
        if i == k:
            out.append(tuple(-x for x in y[k]))
            continue
        b_ik = ext[i][k]
        if b_ik == 0:
            out.append(y[i])  # the update is the identity here
            continue
        plus = max(b_ik, 0)
        out.append(
            tuple(
                a + plus * ak - b_ik * fk
                for a, ak, fk in zip(y[i], y[k], floor_k)
            )
        )
    return tuple(out)


def _assert_y_matches_c(state, y):
    for i in range(state.n):
        if tuple(state.c_vector(i)) != y[i]:
            raise CoefficientMismatch(
                "row %d: c-vector %s vs coefficient %s after %s"
                % (i + 1, state.c_vector(i), y[i], state.history)
            )


@dataclass(frozen=True)
class GreenCertificate:
    sequence: tuple
    factors: int
    final_c: tuple
    permutation: object


def _extract_minus_permutation(c_rows):
    """sigma with -C == P_sigma (row i has its -1 in column sigma(i))."""
    n = len(c_rows)
    perm = []
    for row in c_rows:
        negatives = [j for j, x in enumerate(row) if x == -1]
        if len(negatives) != 1 or any(x not in (0, -1) for x in row):
            return None
        perm.append(negatives[0])
    if sorted(perm) != list(range(n)):
        return None
    return tuple(perm)


def _alternating_factors(first, second, count):
    return [list(first) if f % 2 == 0 else list(second) for f in range(count)]


def _certify(g, first, second, factors, partition):
    state = framed(g.base)
    y = initial_y(g.n)
    parts = _normalize_partition(state, partition)
    sequence = []
    for factor in _alternating_factors(first, second, factors):
        for k in factor:
            if vertex_status(state, k) != GREEN:
                raise NotGreenAtStep(len(sequence) + 1, k)
            if not is_component_preserving(state, parts, k):
                raise NotComponentPreserving(
                    "vertex %d at position %d" % (k + 1, len(sequence) + 1)
                )
            after = mutate_framed(state, k)
            _check_restriction_commutes(state, after, parts, k)
            y = mutate_y(y, state.ext, k)
            _assert_y_matches_c(after, y)
            state = after
            sequence.append(k)
    still_green = [k for k in range(g.n) if vertex_status(state, k) == GREEN]
    if still_green:
        raise NotMaximal("vertices %s still green" % [k + 1 for k in still_green])
    perm = _extract_minus_permutation(state.c_matrix())
    if perm is None:
        raise NotPermutation("final C is %s" % (state.c_matrix(),))
    return GreenCertificate(
        sequence=tuple(sequence),
        factors=factors,
        final_c=state.c_matrix(),
        permutation=Automorphism(perm=perm, kind="general"),
    )


def verify_bipartite_belt_mgs(g):
    """Certify both alternating belt sequences on the framed matrix.

    The sink-first sequence (h_Gamma factors, Gamma-sinks open) is
    checked against the Gamma-component partition; the other sequence
    (h_Delta factors, Delta-sinks open) against the Delta-component
    partition.  Whites are Gamma-sources under the sign convention, so
    Gamma-sinks are the black vertices.
    """
    partition_gamma = tuple(comp.vertices for comp in g.gamma_components)
    partition_delta = tuple(comp.vertices for comp in g.delta_components)
    cert_gamma = _certify(g, g.blacks, g.whites, g.h_gamma, partition_gamma)
    cert_delta = _certify(g, g.whites, g.blacks, g.h_delta, partition_delta)
    return cert_gamma, cert_delta


def frozen_isomorphism_check(g, symbolic_sigma=None):
    """Run the belt on the coframed matrix for N composite factors.

    The result must be the coframed matrix with mutable labels permuted
    and frozen labels fixed; the permutation is returned and, when a
    symbolic half-period permutation is supplied, must equal it.
    """
    state = framed(g.base, sign=-1)
    y = initial_y(g.n, sign=-1)
    for factor in _alternating_factors(g.whites, g.blacks, g.half_period):
        for k in factor:
            y = mutate_y(y, state.ext, k)
            state = mutate_framed(state, k)
            _assert_y_matches_c(state, y)
    row_perm = _extract_minus_permutation(state.c_matrix())
    if row_perm is None:
        raise NoIsomorphism("frozen block is %s" % (state.c_matrix(),))
    # row r holds the -1 of frozen column row_perm[r]; sigma is the inverse
    perm = tuple(sorted(range(g.n), key=row_perm.__getitem__))
    if unmatched_entry(perm, g.base.b, state.mutable_block()) is not None:
        raise NoIsomorphism("mutable block is not a relabeling of the original")
    if symbolic_sigma is not None and perm != tuple(symbolic_sigma):
        raise MismatchWithSymbolicSigma(
            "frozen %s vs symbolic %s" % (perm, tuple(symbolic_sigma))
        )
    return automorphism(g, perm)
