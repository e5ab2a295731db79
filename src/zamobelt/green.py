"""Framed matrices, c-vectors, and maximal green sequence certification.

Everything here runs two bookkeeping tracks at once.  The primary track
is plain matrix mutation of the n x 2n extension; the c-vectors are its
frozen columns.  The second track iterates the coefficient mutation
rule in the tropical semifield, where a coefficient is an integer
exponent vector and semifield addition takes componentwise minima.
The two tracks must agree row for row after every single mutation; that
agreement is asserted, not assumed.

Both belts, framed for the green certificates and coframed for sigma,
run through one checked walk, `_walk`.

Each check covers every row of a start state (`framed`, `initial_y`),
every row of a hand-built `FramedState`, and after each mutation every
row that the mutation changed.  A mutation returns each row it leaves
alone as the very same tuple, in both tracks, so a row that is still
the same object still holds a value that was checked: the checks stay
exact by induction from the start state.
"""

from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import gt, is_not, itemgetter, lt, neg, or_

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
    """The n x 2n framed matrix and the mutations that led to it.

    `checked` says every row's c-vector is known to be sign-coherent.
    Only `framed` and `mutate_framed` set it; a state built by hand (or
    by `dataclasses.replace`) has it unset, and its first mutation
    checks every row.  It takes no part in equality.
    """

    n: int
    ext: tuple
    history: tuple
    checked: bool = field(default=False, init=False, compare=False, repr=False)

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
    return _checked(FramedState(n=n, ext=ext, history=()), range(n))


def _when(history):
    """Where a track stands, in bounded text: the step and its vertex."""
    if not history:
        return "at the start"
    return "after step %d at vertex %d" % (len(history), history[-1] + 1)


def _checked(state, rows):
    """Assert sign-coherence of the c-vectors in rows, then mark state
    checked; the caller vouches for every other row."""
    n = state.n
    for i in rows:
        c = state.ext[i][n:]
        if min(c) < 0 < max(c):
            raise SignCoherenceViolation(
                "c-vector %d is %s %s" % (i + 1, c, _when(state.history))
            )
    object.__setattr__(state, "checked", True)
    return state


def mutate_framed(state, k):
    """Standard mutation at mutable k over all 2n columns.

    Sign-coherence is asserted on the rows the mutation changed, or on
    every row when state itself was not checked."""
    if not 0 <= k < state.n:
        raise FrozenVertex("vertex %d is not mutable" % (k + 1))
    ext = mutate_rows(state.ext, k)
    moved = compress(count(), map(is_not, state.ext, ext))
    return _checked(
        FramedState(n=state.n, ext=ext, history=state.history + (k,)),
        moved if state.checked else range(state.n),
    )


def vertex_status(state, k):
    if not 0 <= k < state.n:
        raise FrozenVertex("vertex %d is not mutable" % (k + 1))
    return GREEN if min(state.ext[k][state.n:]) >= 0 else RED


def _normalize_partition(n, partition):
    parts = [tuple(sorted(part)) for part in partition]
    covered = sorted(v for part in parts for v in part)
    if covered != list(range(n)):
        raise InvalidPartition(
            "partition covers %s, expected 0..%d once each" % (covered, n - 1)
        )
    return parts


def is_component_preserving(state, partition, k):
    """Green k may only point negatively inside its own part; red k may
    only point positively inside its own part.  Frozen columns satisfy
    this automatically through sign-coherence."""
    parts = _normalize_partition(state.n, partition)
    # no part holds a frozen k; vertex_status rejects it
    return _points_inside(state, next((p for p in parts if k in p), ()), k)


def _points_inside(state, own, k):
    """is_component_preserving, given the normalized part holding k.

    Only the pivot-row entries of the offending sign are visited."""
    offends = lt if vertex_status(state, k) == GREEN else gt
    for bad in compress(count(), map(offends, state.ext[k], repeat(0))):
        if bad >= state.n:
            # a frozen violation would contradict the green/red status
            raise SignCoherenceViolation(
                "frozen column %d contradicts status of %d" % (bad + 1, k + 1)
            )
        if bad not in own:
            return False
    return True


def _restrict(ext, n, part, rows):
    """Square-free restriction to part: the given rows, columns of part
    then frozen."""
    pick = itemgetter(*part, *range(n, 2 * n))
    return tuple(pick(ext[i]) for i in rows)


def _check_restriction_commutes(before, after, part_of, k, moved):
    """Mutation at k must act on the part containing k exactly as local
    mutation of the restricted matrix and must leave other parts alone.

    The part holding k is compared whole.  Other parts are compared on
    the moved rows alone: every other row is the very row it was."""
    n = before.n
    own = part_of[k]
    local = mutate_rows(_restrict(before.ext, n, own, own), own.index(k))
    if local != _restrict(after.ext, n, own, own):
        raise NotComponentPreserving(
            "mutation at %d does not commute with restriction" % (k + 1)
        )
    for i in moved:
        part = part_of[i]
        if part is not own and (
            _restrict(before.ext, n, part, (i,)) != _restrict(after.ext, n, part, (i,))
        ):
            raise NotComponentPreserving(
                "mutation at %d leaked into part %s" % (k + 1, part)
            )


def initial_y(n, sign=1):
    return tuple(
        tuple(sign if j == i else 0 for j in range(n)) for i in range(n)
    )


def mutate_y(y, ext, k):
    """Coefficient mutation in the tropical semifield, on exponent rows.

    Uses the pre-mutation exchange entries b_ik; semifield addition
    turns (y^a + 1) into the componentwise min(a, 0) exponent, so row i
    becomes a + [b_ik]_+ a_k - b_ik min(a_k, 0).  Only the rows with
    b_ik != 0 and, in them, the support of y_k are visited; every other
    row comes back as the very same tuple.

    This is the semifield formula itself, kept apart from mutate_rows on
    purpose: the c-vector/coefficient check compares the two tracks, and
    it only checks something while they are computed independently.
    """
    yk = y[k]
    support = [(j, ak, min(ak, 0)) for j, ak in compress(enumerate(yk), yk)]
    out = list(y)
    for i in compress(range(len(y)), map(itemgetter(k), ext)):
        if i == k:
            continue
        b_ik = ext[i][k]
        plus = max(b_ik, 0)
        new = list(y[i])
        for j, ak, floor in support:
            new[j] += plus * ak - b_ik * floor
        out[i] = tuple(new)
    out[k] = tuple(map(neg, yk))
    return tuple(out)


def _moved(before, after, y_before, y_after):
    """Rows where either track's new row is not its old row object.

    mutate_rows and mutate_y return each row they leave alone as the
    same tuple, so every other row still holds its checked value.  A row
    rebuilt equal to its old value is listed too, and merely checked
    again.
    """
    changed = map(
        or_, map(is_not, before.ext, after.ext), map(is_not, y_before, y_after)
    )
    return list(compress(count(), changed))


def _assert_y_matches_c(state, y, rows):
    n = state.n
    for i in rows:
        if state.ext[i][n:] != y[i]:
            raise CoefficientMismatch(
                "row %d: c-vector %s vs coefficient %s %s"
                % (i + 1, state.ext[i][n:], y[i], _when(state.history))
            )


@dataclass(frozen=True)
class GreenCertificate:
    sequence: tuple
    factors: int
    final_c: tuple
    permutation: object


SHOWN_ROWS = 3


def _minus_permutation(c_rows, error, name):
    """sigma with -C == P_sigma (row i has its -1 in column sigma(i)).

    Otherwise raises error naming C's shape and its first offending
    rows: those that are not minus a unit vector, or whose -1 sits in
    the column of an earlier row's.  C can be 49 x 49 and more, so the
    text shows at most SHOWN_ROWS of them.
    """
    perm = []
    offending = []
    used = set()
    for i, row in enumerate(c_rows):
        negatives = [j for j, x in enumerate(row) if x == -1]
        if (
            len(negatives) == 1
            and negatives[0] not in used
            and all(x in (0, -1) for x in row)
        ):
            used.add(negatives[0])
            perm.append(negatives[0])
        else:
            offending.append(i)
    if offending:
        shown = ", ".join(
            "row %d = %s" % (i + 1, c_rows[i]) for i in offending[:SHOWN_ROWS]
        )
        raise error(
            "%s (%d x %d) is not minus a permutation matrix: %d offending rows, %s%s"
            % (name, len(c_rows), len(c_rows), len(offending), shown,
               ", ..." if len(offending) > SHOWN_ROWS else "")
        )
    return tuple(perm)


def _alternating_factors(first, second, count):
    return [list(first) if f % 2 == 0 else list(second) for f in range(count)]


def _walk(g, sign, first, second, factors, check=None):
    """The final state of `factors` alternating factors of first and
    second, from the framed (sign 1) or coframed (sign -1) matrix, with
    both tracks compared at the start and on the rows each mutation
    moved.  `mutate_framed` runs first, so a vertex out of range is a
    FrozenVertex; check(before, k, after, moved) runs before the
    compare."""
    state = framed(g.base, sign)
    y = initial_y(g.n, sign)
    _assert_y_matches_c(state, y, range(g.n))
    for factor in _alternating_factors(first, second, factors):
        for k in factor:
            after = mutate_framed(state, k)
            y_after = mutate_y(y, state.ext, k)
            moved = _moved(state, after, y, y_after)
            if check is not None:
                check(state, k, after, moved)
            _assert_y_matches_c(after, y_after, moved)
            state, y = after, y_after
    return state


def _certify(g, first, second, factors, partition):
    parts = _normalize_partition(g.n, partition)
    part_of = {v: part for part in parts for v in part}

    def check(before, k, after, moved):
        position = len(after.history)
        if vertex_status(before, k) != GREEN:
            raise NotGreenAtStep(position, k)
        if not _points_inside(before, part_of[k], k):
            raise NotComponentPreserving(
                "vertex %d at position %d" % (k + 1, position)
            )
        _check_restriction_commutes(before, after, part_of, k, moved)

    state = _walk(g, 1, first, second, factors, check)
    still_green = [k for k in range(g.n) if vertex_status(state, k) == GREEN]
    if still_green:
        raise NotMaximal("vertices %s still green" % [k + 1 for k in still_green])
    perm = _minus_permutation(state.c_matrix(), NotPermutation, "final C")
    return GreenCertificate(
        sequence=state.history,
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
    state = _walk(g, -1, g.whites, g.blacks, g.half_period)
    row_perm = _minus_permutation(state.c_matrix(), NoIsomorphism, "frozen block")
    # row r holds the -1 of frozen column row_perm[r]; sigma is the inverse
    perm = tuple(sorted(range(g.n), key=row_perm.__getitem__))
    if unmatched_entry(perm, g.base.b, state.mutable_block()) is not None:
        raise NoIsomorphism("mutable block is not a relabeling of the original")
    if symbolic_sigma is not None and perm != tuple(symbolic_sigma):
        raise MismatchWithSymbolicSigma(
            "frozen %s vs symbolic %s" % (perm, tuple(symbolic_sigma))
        )
    return automorphism(g, perm)
