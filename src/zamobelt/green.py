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
check of a green certificate: it applies the local rule to the moved
rows of the part holding k, since an unmoved row has b_ik = 0 and the
local mutation would leave it alone.

So that a mutation pays for the entries it touches and not for n, each
state of the matrix track keeps an index (`FramedState.index`): every
row's nonzero entries, {column: entry}, mutable and frozen columns
apart.  `framed` builds it from the rows, and `mutate_rows`, handed a
copy by `mutate_framed`, keeps it in step entry by entry as it rebuilds
rows.  The rule reads the pivot's entries and the rows it changes there,
and the green status, `_points_inside`, the sign-coherence check and
the restriction and leak check read it too; only `_moved` still scans
every row, by identity.  `mutate_y` never reads the index: it reads
column k from `ext` itself, so an index that lost or gained an entry
sends the two tracks apart, and the walk stops with CoefficientMismatch
(or the restriction check with NotComponentPreserving) instead of
agreeing with itself.
"""

from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import gt, is_not, itemgetter, lt, or_

from .bigraph import (
    Automorphism,
    classify_sigma,
    is_recurrent,
    mutate_rows,
    require_automorphism,
    support,
    symmetrizer,
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
    NotSkewSymmetrizable,
    SignCoherenceViolation,
)

GREEN = "green"
RED = "red"


@dataclass(frozen=True)
class FramedState:
    """The n x 2n framed matrix and the mutations that led to it.

    `index` holds each row's `bigraph.support`: its nonzero entries,
    {column: entry}, the mutable columns' and the frozen ones' apart.
    Only `framed` and `mutate_framed` set it, and only on a state whose
    every c-vector is known to be sign-coherent and whose mutable block
    is skew-symmetrizable; `checked` says it is set.  A state built by
    hand (or by `dataclasses.replace`) has none, and its first mutation
    is the stepped one, checking every row.  It takes no part in
    equality.
    """

    n: int
    ext: tuple
    history: tuple
    index: tuple = field(default=None, init=False, compare=False, repr=False)

    @property
    def checked(self):
        return self.index is not None

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
    # m is an ExchangeMatrix: its b is skew-symmetrizable
    return _indexed(FramedState(n=n, ext=ext, history=()), True)


def _indexed(state, symmetrizable):
    """state with its index built from ext and every row checked; the
    index is dropped again unless the mutable block is skew-symmetrizable,
    as `mutate_rows` needs to read it."""
    object.__setattr__(state, "index", _index_of(state))
    _checked(state, range(state.n))
    if not symmetrizable:
        object.__setattr__(state, "index", None)
    return state


def _index_of(state):
    """state's index, or for a state with none the one its rows have."""
    if state.index is None:
        return tuple(map(support, state.ext, repeat(state.n)))
    return state.index


def _skew_symmetrizable(ext, n):
    try:
        symmetrizer(tuple(row[:n] for row in ext))
    except NotSkewSymmetrizable:
        return False
    return True


def _when(history):
    """Where a track stands, in bounded text: the step and its vertex."""
    if not history:
        return "at the start"
    return "after step %d at vertex %d" % (len(history), history[-1] + 1)


def _checked(state, rows):
    """Assert sign-coherence of the c-vectors in rows, reading each
    row's nonzero frozen entries in the index; the caller vouches for
    every other row."""
    index = state.index
    for i in rows:
        c = index[i][1].values()
        if c and min(c) < 0 < max(c):
            raise SignCoherenceViolation(
                "c-vector %d is %s %s"
                % (i + 1, state.ext[i][state.n:], _when(state.history))
            )
    return state


def mutate_framed(state, k):
    """Standard mutation at mutable k over all 2n columns.

    On an indexed state the rule reads and updates a copy of the index,
    and sign-coherence is asserted on the rows whose tuple changed.  A state
    with no index gets the stepped rule, `mutate_rows`, and every row
    is checked."""
    if not 0 <= k < state.n:
        raise FrozenVertex("vertex %d is not mutable" % (k + 1))
    history = state.history + (k,)
    if state.index is None:
        ext = mutate_rows(state.ext, k)
        after = FramedState(n=state.n, ext=ext, history=history)
        return _indexed(after, _skew_symmetrizable(ext, state.n))
    index = list(state.index)
    ext = mutate_rows(state.ext, k, index)
    after = FramedState(n=state.n, ext=ext, history=history)
    object.__setattr__(after, "index", tuple(index))
    return _checked(after, compress(count(), map(is_not, state.ext, ext)))


def vertex_status(state, k):
    if not 0 <= k < state.n:
        raise FrozenVertex("vertex %d is not mutable" % (k + 1))
    if state.index is None:
        c = state.ext[k][state.n:]
    else:
        c = state.index[k][1].values()
    return GREEN if min(c, default=0) >= 0 else RED


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
    status = vertex_status(state, k)
    if state.index is None:
        cols = support(state.ext[k], state.n)
    else:
        cols = state.index[k]
    # no part holds a frozen k; vertex_status rejects it
    return _points_inside(cols, next((p for p in parts if k in p), ()), k, status)


def _points_inside(cols, own, k, status):
    """is_component_preserving for pivot row k, given its index entry
    cols, the normalized part holding k and k's status.

    Only the pivot row's nonzero entries are visited."""
    offends = lt if status == GREEN else gt
    mutable, frozen = cols
    for j, x in mutable.items():
        if offends(x, 0) and j not in own:
            return False
    for j, x in frozen.items():
        if offends(x, 0):
            # a frozen violation would contradict the green/red status
            raise SignCoherenceViolation(
                "frozen column %d contradicts status of %d" % (j + 1, k + 1)
            )
    return True


def _restrictions(n, parts):
    """The normalized part holding each vertex, as a list by vertex."""
    part_of = [None] * n
    for part in parts:
        for v in part:
            part_of[v] = part
    return part_of


def _check_restriction_commutes(before, after, part_of, k, moved):
    """Mutation at k must act on the part containing k exactly as local
    mutation of the restricted matrix and must leave other parts alone.

    A row's restriction to its part holds the columns of the part, then
    the frozen ones.  Only the moved rows and k are compared.  A row
    outside `moved` is the very row it was in both tracks, and mutate_y
    rebuilds every row with b_ik != 0, so such a row has b_ik = 0: the
    local mutation leaves it alone too.  A moved row of another part
    must keep its restriction to that part.

    Each moved row is compared where the index puts a nonzero entry in
    its old or its new row and, in k's part, in the pivot row: at every
    other column the old entry, the new one and the local rule's change
    are all 0."""
    n = before.n
    own = part_of[k]
    old = before.ext
    new = after.ext
    pivot = old[k]
    old_index = _index_of(before)
    new_index = _index_of(after)
    pivot_mutable, pivot_frozen = old_index[k]
    for i in moved:
        if part_of[i] is not own:
            continue
        was = old[i]
        now = new[i]
        was_mutable, was_frozen = old_index[i]
        now_mutable, now_frozen = new_index[i]
        a = was[k]
        size = abs(a)
        for j in chain(
            was_mutable, was_frozen, now_mutable, now_frozen, pivot_mutable, pivot_frozen
        ):
            if j < n and part_of[j] is not own:
                continue
            if i == k or j == k:
                want = -was[j]
            elif a * pivot[j] > 0:
                want = was[j] + size * pivot[j]
            else:
                want = was[j]
            if now[j] != want:
                raise NotComponentPreserving(
                    "mutation at %d does not commute with restriction" % (k + 1)
                )
    for i in moved:
        part = part_of[i]
        if part is own:
            continue
        was = old[i]
        now = new[i]
        was_mutable, was_frozen = old_index[i]
        now_mutable, now_frozen = new_index[i]
        leaked = was_frozen != now_frozen
        for j in chain(was_mutable, now_mutable):
            if part_of[j] is part and now[j] != was[j]:
                leaked = True
        if leaked:
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
    entries = []
    negated = [0] * len(yk)
    for j, ak in compress(enumerate(yk), yk):
        entries.append((j, ak, ak if ak < 0 else 0))
        negated[j] = -ak
    out = list(y)
    for i in compress(range(len(y)), map(itemgetter(k), ext)):
        if i == k:
            continue
        b_ik = ext[i][k]
        plus = b_ik if b_ik > 0 else 0
        new = list(y[i])
        for j, ak, floor in entries:
            new[j] += plus * ak - b_ik * floor
        out[i] = tuple(new)
    out[k] = tuple(negated)
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
    ext = state.ext
    for i in rows:
        if ext[i][n:] != y[i]:
            raise CoefficientMismatch(
                "row %d: c-vector %s vs coefficient %s %s"
                % (i + 1, ext[i][n:], y[i], _when(state.history))
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
        if not _points_inside(_index_of(before)[k], part_of[k], k, GREEN):
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
    if symbolic_sigma is not None:
        require_automorphism(symbolic_sigma)
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
