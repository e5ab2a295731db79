"""Framed matrices, c-vectors, and maximal green sequence certification.

Everything here runs two bookkeeping tracks at once.  The primary track
is plain matrix mutation of the n x 2n extension; the c-vectors are its
frozen columns.  The second track iterates the coefficient mutation
rule in the tropical semifield, where a coefficient is an integer
exponent vector and semifield addition takes componentwise minima.
The two tracks must agree row for row after every single mutation; that
agreement is asserted, not assumed.

Both belts, framed for the green certificates and coframed for sigma,
run through one checked walk, `_walk`.  Given the two certificates, the
coframed belt is not walked again: it is the Gamma certificate run
backwards and then the Delta certificate, both relabeled by q^-1, where
q is the Gamma certificate's permutation.  Matrix mutation and the
tropical y-mutation are involutions and commute with relabeling, and a
certificate that ends at the coframed matrix relabeled by q can be
retraced from there; `frozen_isomorphism_check` gives the premises and
the proof.  That the coframed belt returns to the coframed matrix up to
relabeling at all is Nakanishi's synchronicity (C_t = +-P fixes the
whole seed; J. LMS 2021).

Each check covers every row of a start state (`framed`, `initial_y`),
every row of a hand-built `FramedState`, and after each mutation every
row that the mutation changed.  A mutation returns each row it leaves
alone as the very same tuple, in both tracks, so a row that is still
the same object still holds a value that was checked: the checks stay
exact by induction from the start state.  That includes the restriction
check of a green certificate: it mutates the moved rows of the part
holding k locally, each unmoved row standing in as a zero row, since
its b_ik is 0 and the local mutation would leave it alone.
"""

from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import gt, is_not, itemgetter, lt, neg, or_

from .bigraph import (
    Automorphism,
    classify_sigma,
    is_recurrent,
    mutate_rows,
    unmatched_entry,
)
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


def _restrictions(n, parts):
    """Vertex -> (its part, its index there, the part's picker), where
    the picker takes a row to its square-free restriction: the columns
    of the part, then the frozen ones."""
    frozen = range(n, 2 * n)
    out = {}
    for part in parts:
        pick = itemgetter(*part, *frozen)
        for place, v in enumerate(part):
            out[v] = (part, place, pick)
    return out


def _check_restriction_commutes(before, after, part_of, k, moved):
    """Mutation at k must act on the part containing k exactly as local
    mutation of the restricted matrix and must leave other parts alone.

    Only the moved rows and k are compared.  A row outside `moved` is
    the very row it was in both tracks, and mutate_y rebuilds every row
    with b_ik != 0, so such a row has b_ik = 0: the local mutation
    leaves it alone too, and it enters that mutation as a zero row.  A
    moved row of another part must keep its restriction to that part."""
    own, pivot, pick = part_of[k]
    rows = {part_of[i][1]: i for i in moved if part_of[i][0] is own}
    rows[pivot] = k
    local = [(0,) * (len(own) + before.n)] * len(own)
    for place, i in rows.items():
        local[place] = pick(before.ext[i])
    local = mutate_rows(local, pivot)
    if any(local[place] != pick(after.ext[i]) for place, i in rows.items()):
        raise NotComponentPreserving(
            "mutation at %d does not commute with restriction" % (k + 1)
        )
    for i in moved:
        part, _, pick = part_of[i]
        if part is not own and pick(before.ext[i]) != pick(after.ext[i]):
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
    """A certified belt: its factor count, its final state and sigma
    with final C == -P_sigma."""

    factors: int
    final: FramedState
    permutation: Automorphism

    @property
    def sequence(self):
        return self.final.history


SHOWN_ROWS = 3


def _minus_permutation(c_rows, error, name):
    """The Automorphism sigma with -C == P_sigma (row i has its -1 in
    column sigma(i)).

    Otherwise raises error naming C's shape and its first offending
    rows: those that are not minus a unit vector, or whose -1 sits in
    the column of an earlier row's.  C can be 49 x 49 and more, so the
    text shows at most SHOWN_ROWS of them.
    """
    perm = ()
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
            perm += (negatives[0],)
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
    return Automorphism(perm)


def _sequence(first, second, factors):
    """The vertices of `factors` alternating factors, in walking order."""
    return tuple(k for f in range(factors) for k in (second if f % 2 else first))


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
    for k in _sequence(first, second, factors):
        after = mutate_framed(state, k)
        y_after = mutate_y(y, state.ext, k)
        moved = _moved(state, after, y, y_after)
        if check is not None:
            check(state, k, after, moved)
        _assert_y_matches_c(after, y_after, moved)
        state, y = after, y_after
    return state


def _certify(g, first, second, factors, partition):
    part_of = _restrictions(g.n, _normalize_partition(g.n, partition))

    def check(before, k, after, moved):
        position = len(after.history)
        if vertex_status(before, k) != GREEN:
            raise NotGreenAtStep(position, k)
        if not _points_inside(before, part_of[k][0], k):
            raise NotComponentPreserving(
                "vertex %d at position %d" % (k + 1, position)
            )
        _check_restriction_commutes(before, after, part_of, k, moved)

    state = _walk(g, 1, first, second, factors, check)
    still_green = [k for k in range(g.n) if vertex_status(state, k) == GREEN]
    if still_green:
        raise NotMaximal("vertices %s still green" % [k + 1 for k in still_green])
    perm = _minus_permutation(state.c_matrix(), NotPermutation, "final C")
    return GreenCertificate(factors=factors, final=state, permutation=perm)


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


def _relabeled(ext, p):
    """R_p of an n x 2n extension, p an Automorphism: row i is row p(i),
    its mutable columns read at p and its frozen columns left in place."""
    n = len(ext)
    return tuple(p.relabel(row) + row[n:] for row in p.relabel(ext))


def _derived_final(g, cert_gamma, cert_delta):
    """The final state of the coframed walk, read off the certificates
    (see frozen_isomorphism_check), or None when a premise fails."""
    q = cert_gamma.permutation
    last = g.whites if g.h_gamma % 2 == 0 else g.blacks
    if (
        cert_gamma.sequence != _sequence(g.blacks, g.whites, g.h_gamma)
        or cert_delta.sequence != _sequence(g.whites, g.blacks, g.h_delta)
        or not is_recurrent(g)
        or cert_gamma.final.ext != _relabeled(framed(g.base, -1).ext, q)
        or sorted(map(q, last)) != list(g.whites)
    ):
        return None
    return FramedState(
        n=g.n,
        ext=_relabeled(cert_delta.final.ext, q.inverse),
        history=_sequence(g.whites, g.blacks, g.half_period),
    )


def frozen_isomorphism_check(g, symbolic_sigma=None, certificates=None):
    """Run the belt on the coframed matrix for N composite factors.

    The result must be the coframed matrix with mutable labels permuted
    and frozen labels fixed, by a permutation that passes the paper's
    half-period rules (`bigraph.classify_sigma`: an automorphism of
    (Gamma, Delta) of order at most two with the colour behaviour N's
    parity needs).  That Automorphism is returned and, when the symbolic
    half-period Automorphism is supplied, must equal it.

    Given `certificates`, the pair verify_bipartite_belt_mgs(g)
    returned, the final state is derived from them instead of walked,
    when four exact premises hold:
    - each certificate's sequence is its belt's alternating sequence;
    - g is recurrent;
    - the Gamma certificate ends at R_q(coframed B), where q is its
      permutation and R_q takes X to the matrix with entries
      X[q(i)][q(j)], frozen columns left in place (`_relabeled`);
    - q maps that certificate's last factor onto the whites.
    Proof.  Recurrence makes the mutable block +-B at every factor
    boundary of all three walks, so the vertices of one factor are
    pairwise unlinked there: their mutations commute, and the factor's
    composite, in any order, is an involution on states (matrix and
    tropical y track alike).  Both mutations commute with relabeling,
    mu_k(R_p X) == R_p(mu_p(k) X).  The walk starts at coframed B,
    which is R_q^-1 of the Gamma certificate's final state, and its
    first factor, the whites, is q of that certificate's last factor;
    so its first h_Gamma factors undo the certificate's factors, last
    first, relabeled by R_q^-1, and reach R_q^-1(framed B).  As q^-1
    maps the walk's factor h_Gamma onto the certificate's first, the
    blacks, it maps the next one, their complement, onto the whites,
    the Delta certificate's first factor; so the last h_Delta factors
    are that certificate's, relabeled by R_q^-1, and the walk ends at
    R_q^-1 of its final state.  Each state of the walk at a factor
    boundary is thus a relabeled state whose rows a certificate checked
    for sign coherence and against the y track; the states inside a
    factor are not formed.  When a premise fails, the walk runs.  Either
    way the checks below read the same final state.
    """
    state = None if certificates is None else _derived_final(g, *certificates)
    if state is None:
        state = _walk(g, -1, g.whites, g.blacks, g.half_period)
    row_perm = _minus_permutation(state.c_matrix(), NoIsomorphism, "frozen block")
    # row r holds the -1 of frozen column row_perm(r); sigma is the inverse
    sigma = row_perm.inverse
    if unmatched_entry(sigma, g.base.b, state.mutable_block()) is not None:
        raise NoIsomorphism("mutable block is not a relabeling of the original")
    classify_sigma(g, sigma)
    if symbolic_sigma is not None and sigma != symbolic_sigma:
        raise MismatchWithSymbolicSigma(
            "frozen %s vs symbolic %s" % (sigma.perm, symbolic_sigma.perm)
        )
    return sigma
