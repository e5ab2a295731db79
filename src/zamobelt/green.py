"""Framed matrices, c-vectors, and maximal green sequence certification.

Two bookkeeping tracks run at once: matrix mutation of the n x 2n
extension, whose frozen columns are the c-vectors, and the coefficient
rule in the tropical semifield (exponent vectors, addition the
componentwise min).  They must agree row for row after every mutation;
that is asserted, not assumed.  Each green certificate is one walk,
`_certify`, which runs every check in its own body, and
`frozen_isomorphism_check` reads the coframed belt's end off them, as
the bigraph holds them (`Bigraph.certificates`), with no walk.  That it
returns to the coframed matrix up to relabeling is Nakanishi's
synchronicity (C_t = +-P fixes the whole seed; J. LMS 2021).  Every
state is sign-coherent with a skew-symmetrizable block: `framed` builds
one, a state built by hand is refused otherwise, and after each mutation
the checks read only the rows it changed.  A mutation at k returns each
row it leaves alone as the very same object, in the block, the c-vectors
and the y rows, and on a skew-symmetrizable block it changes the pivot's
index entry and k.  So those are taken as the moved rows, and `_only`
confirms it with one C-level compare per track: the old rows with those
written in, against the new ones, each read by identity first.  Only
when a compare fails, which a sound rule never makes happen, does a scan
of every row find those that are not their old objects, so a rule that
changes a row it should leave is still checked there, at the same step.
A state (`FramedState`) stores what the walk holds: the block, its
index, the packed c-vectors and its mutations as a trail of pairs, so a
mutation costs the same at step 1 and at step 1 000; the n x 2n `ext`
and the `history` are views built on first read.

The c-vectors and the y rows are packed: a row is one int of n
FIELD_BITS-wide fields, entry j in the j-th from the most significant,
plus a bias, each field's top bit.  Entries and multipliers b_ik lie in
[-BOUND, BOUND), so no sum a mutation forms carries out of a field;
each multiplier and each new row is checked, the row by one mask test,
and one outside raises EntryOverflow (exit 2) before any check reads
it.  A moved row gains |b_ik| times the part of c_k with b_ik's sign,
cut out by masks; the pivot row becomes twice the bias less itself.  A
row is nonnegative when every top bit is set, and has a positive entry
when it does less 1 in every field.  The mutable block stays int tuples
with an index of their nonzero entries, which every state holds and
`mutate_rows` reads and keeps in step: its rows to move, and
`mutate_c`'s, are the pivot's nonzero columns.  `mutate_y` applies the
semifield formula itself, with masks of its own, and reads column k
from the rows, never the index, so an index that lost or gained an
entry sends the tracks apart.
"""

import functools
import struct
from collections import namedtuple
from dataclasses import FrozenInstanceError, dataclass
from itertools import compress, count
from operator import is_not, itemgetter, neg

from .bigraph import (
    Automorphism,
    classify_sigma,
    mutate_rows,
    require_automorphism,
    require_int_vertex,
    support,
    symmetrizer,
    unmatched_entry,
)
from .errors import (
    ClaimViolation,
    CoefficientMismatch,
    EntryOverflow,
    FrozenVertex,
    InvalidPartition,
    MismatchWithSymbolicSigma,
    NoIsomorphism,
    NotComponentPreserving,
    NotGreenAtStep,
    NotMaximal,
    NotPermutation,
    NotRecurrent,
    SignCoherenceViolation,
)

GREEN = "green"
RED = "red"
FIELD_BITS = 16
BOUND = 1 << 7
_FIELD = (1 << FIELD_BITS) - 1
_TOP = FIELD_BITS - 1
_Codec = namedtuple("_Codec", "unit offset lift high pack unpack")
_ROW = "an entry of row %d after mutation at %d"


@functools.lru_cache(maxsize=None)
def _codec(n):
    """Packed rows of n fields: unit holds 1 in every field, offset each
    field's top bit (the packed zero row), and a row's entries lie in
    [-BOUND, BOUND) exactly when (row + lift) & high == offset."""
    unit = ((1 << FIELD_BITS * n) - 1) // _FIELD
    offset = unit << _TOP
    layout = struct.Struct(">%dh" % n)

    def pack(row):
        if row and not -BOUND <= min(row) <= max(row) < BOUND:
            raise _overflow("an entry of a packed row", row)
        return int.from_bytes(layout.pack(*row), "big") ^ offset

    def unpack(key):
        return layout.unpack((key ^ offset).to_bytes(2 * n, "big"))

    high = unit * (_FIELD ^ (2 * BOUND - 1))
    return _Codec(unit, offset, BOUND * unit, high, pack, unpack)


def _overflow(where, entries):
    """EntryOverflow naming the first of entries outside the bound; no
    field of a packed row carries, so its unpacked entries are exact."""
    x = next(x for x in entries if not -BOUND <= x < BOUND)
    return EntryOverflow("%s is %d, outside [%d, %d)" % (where, x, -BOUND, BOUND))


def _parts(row, unit, offset):
    """The positive and the negative part of a packed row, less the
    bias: for a sign-coherent row one of them is the row itself."""
    if row & offset == offset:
        return row - offset, 0
    if not (row - unit) & offset:
        return 0, row - offset
    up = (((row - unit) & offset) >> _TOP) * _FIELD
    down = (((row & offset) ^ offset) >> _TOP) * _FIELD
    return (row & up) - (offset & up), (row & down) - (offset & down)


class FramedState:
    """The n x 2n framed matrix and the mutations that led to it, held as a
    walk holds them: `block`, the mutable block's int tuples, `c`, the
    packed c-vectors, `index`, each block row's `bigraph.support`,
    `trail`, the mutations as (previous trail, k) pairs back to (), and
    `steps`, their count, so a mutation adds one pair and copies nothing.
    `ext`, the n x 2n rows, and `history`, the mutations in order, are
    views built from those when first read.  FramedState(n, ext, history)
    builds a state by hand and checks it: its block must be
    skew-symmetrizable (NotSkewSymmetrizable) and each c-vector
    sign-coherent (SignCoherenceViolation).  `framed` and `mutate_framed`
    build theirs unchecked (`_state`) from states known to be both.  A
    state is read-only; equality and hash read n, the block, the
    c-vectors and history, never the index; copy and pickle rebuild it
    from (n, ext, history), so they never recurse into the trail.
    """

    def __init__(self, n, ext, history):
        pack = _codec(n).pack
        block = tuple(row[:n] for row in ext)
        c = tuple(pack(row[n:]) for row in ext)
        symmetrizer(block)
        trail = ()
        for k in history:
            trail = (trail, k)
        vars(self).update(
            n=n, block=block, c=c, index=tuple(map(support, block)),
            trail=trail, steps=len(history),
        )
        _checked(self, range(n))

    @functools.cached_property
    def ext(self):
        unpack = _codec(self.n).unpack
        return tuple(row + unpack(c) for row, c in zip(self.block, self.c))

    @functools.cached_property
    def history(self):
        ks = []
        trail = self.trail
        while trail:
            trail, k = trail
            ks.append(k)
        return tuple(reversed(ks))

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.block, self.c, self.history) == (
            other.n, other.block, other.c, other.history
        )

    def __hash__(self):
        return hash((self.n, self.block, self.c, self.history))

    def __repr__(self):
        return "FramedState(n=%d, ext=%r, steps=%d)" % (self.n, self.ext, self.steps)

    def __reduce__(self):
        # the trail nests one pair per mutation, deeper than copy and
        # pickle recurse: they take the history, flat, in its place
        return FramedState, (self.n, self.ext, self.history)

    def c_matrix(self):
        return tuple(map(_codec(self.n).unpack, self.c))


def _state(n, trail, block, c, index, steps=0):
    """The state of parts already known sound, built unchecked."""
    state = object.__new__(FramedState)
    vars(state).update(n=n, block=block, c=c, index=index, trail=trail, steps=steps)
    return state


def _unit_rows(n, sign):
    """The packed rows of sign * I."""
    offset = _codec(n).offset
    return tuple(offset + (sign << FIELD_BITS * (n - 1 - i)) for i in range(n))


def framed(m, sign=1):
    """B over sign * I: the framed matrix, or with sign -1 the coframed one."""
    # m is an ExchangeMatrix: its b is skew-symmetrizable
    return _state(m.n, (), m.b, _unit_rows(m.n, sign), tuple(map(support, m.b)))


def _when(history):
    """Where a track stands, in bounded text: the step and its vertex."""
    if not history:
        return "at the start"
    return "after step %d at vertex %d" % (len(history), history[-1] + 1)


def _checked(state, rows):
    """Assert sign-coherence of the c-vectors in rows; the caller vouches
    for every other row."""
    unit, offset, _, _, _, unpack = _codec(state.n)
    for i in rows:
        row = state.c[i]
        if row & offset != offset and (row - unit) & offset:
            raise SignCoherenceViolation(
                "c-vector %d is %s %s" % (i + 1, unpack(row), _when(state.history))
            )
    return state


def mutate_c(c, rows, k, movers):
    """The packed c-vectors after mutation at k, rows being the block
    before it and movers the rows with b_ik != 0: each gains |b_ik| times
    the part of c_k with b_ik's sign, row k is negated, and every other
    row comes back as the very same int."""
    unit, offset, lift, high, _, unpack = _codec(len(c))
    pivot = c[k]
    up, down = _parts(pivot, unit, offset)
    out = list(c)
    for i in movers:
        if i == k:
            continue
        a = rows[i][k]
        if not -BOUND <= a < BOUND:
            raise _overflow("multiplier b_%d,%d" % (i + 1, k + 1), (a,))
        new = c[i] + a * up if a > 0 else c[i] - a * down
        if (new + lift) & high != offset:
            raise _overflow(_ROW % (i + 1, k + 1), unpack(new))
        out[i] = new
    new = 2 * offset - pivot
    if (new + lift) & high != offset:
        raise _overflow(_ROW % (k + 1, k + 1), unpack(new))
    out[k] = new
    return tuple(out)


def mutate_framed(state, k):
    """Mutation at mutable k over all 2n columns: `mutate_rows` on the
    block, reading and updating a copy of the index, and `mutate_c` on
    the c-vectors, moving the rows the pivot's index entry names and
    asserting sign-coherence on the c-vectors that moved: the pivot's
    index entry and k, when no other c-vector changed (`_only`), and
    otherwise every one that is not its old int.  A vertex that is not
    an int raises InvalidVertex, as in `bigraph.composite_mutation`."""
    _require_mutable(k, state.n)
    index = list(state.index)
    rows = sorted((*index[k], k))
    c = mutate_c(state.c, state.block, k, index[k])
    block = mutate_rows(state.block, k, index)
    after = _state(state.n, (state.trail, k), block, c, tuple(index), state.steps + 1)
    if not _only(rows, state.c, c):
        rows = compress(count(), map(is_not, state.c, c))
    return _checked(after, rows)


def _only(rows, old, new):
    """Is new the tuple old with rows written in?  One list compare,
    which reads each other row by identity before value, so a rule that
    returns each row it leaves alone as the same object passes at C
    speed; a row it changed elsewhere fails it."""
    out = [*old]
    for i in rows:
        out[i] = new[i]
    return out == [*new]


def _require_mutable(k, n):
    """Refuse k unless it is an int (InvalidVertex) naming one of the n
    mutable vertices (FrozenVertex)."""
    require_int_vertex(k)
    if not 0 <= k < n:
        raise FrozenVertex("vertex %d is not mutable" % (k + 1))


def vertex_status(state, k):
    _require_mutable(k, state.n)
    offset = _codec(state.n).offset
    return GREEN if state.c[k] & offset == offset else RED


def _normalize_partition(n, partition):
    parts = [tuple(sorted(part)) for part in partition]
    covered = sorted(v for part in parts for v in part)
    if covered != list(range(n)):
        raise InvalidPartition(
            "partition covers %s, expected 0..%d once each" % (covered, n - 1)
        )
    return parts


def _points_inside(state, k, own):
    """Does green k point negatively only inside own, the part holding
    k?  Frozen columns satisfy this through sign-coherence, which every
    state has, so only the mutable entries of row k are read, in the
    index."""
    for j, x in state.index[k].items():
        if x < 0 and j not in own:
            return False
    return True


def _check_restriction_commutes(before, after, part_of, k, moved):
    """Mutation at k must act on the part containing k (its columns, then
    the frozen ones) as local mutation of the restricted matrix, and
    leave other parts alone.  Only moved rows are compared: mutate_y
    rebuilds every row with b_ik != 0, so any other row has b_ik = 0.
    Mutable entries are compared where the index puts a nonzero entry in
    the old or new row, or in k's part in the pivot row (elsewhere all
    are 0); the c-vector whole, the local multiply-add worked out again."""
    code = _codec(before.n)
    own = part_of[k]
    old, new, old_c, new_c = before.block, after.block, before.c, after.c
    old_index, new_index = before.index, after.index
    up, down = _parts(old_c[k], code.unit, code.offset)
    for i in moved:
        part = part_of[i]
        was, now = old[i], new[i]
        if part is not own:
            leaked = old_c[i] != new_c[i]
            for index in (old_index[i], new_index[i]):
                for j in index:
                    if part_of[j] is part and now[j] != was[j]:
                        leaked = True
            if leaked:
                raise NotComponentPreserving(
                    "mutation at %d leaked into part %s" % (k + 1, part)
                )
            continue
        a = was[k]
        size = abs(a)
        if i == k:
            commutes = new_c[i] == 2 * code.offset - old_c[k]
        else:
            commutes = new_c[i] == old_c[i] + size * (up if a > 0 else down)
        for index in (old_index[i], new_index[i], old_index[k]):
            for j in index:
                if part_of[j] is not own:
                    continue
                if i == k or j == k:
                    commutes &= now[j] == -was[j]
                elif a * old[k][j] > 0:
                    commutes &= now[j] == was[j] + size * old[k][j]
                else:
                    commutes &= now[j] == was[j]
        if not commutes:
            raise NotComponentPreserving(
                "mutation at %d does not commute with restriction" % (k + 1)
            )


def initial_y(n):
    return tuple(tuple(int(j == i) for j in range(n)) for i in range(n))


def mutate_y(y, ext, k):
    """Coefficient mutation in the tropical semifield, on packed exponent
    rows, reading the pre-mutation b_ik in column k of ext (or the block):
    (y^a + 1) becomes the componentwise min(a, 0) exponent, so row i
    becomes a + [b_ik]_+ a_k - b_ik min(a_k, 0), and every row with
    b_ik = 0 comes back as the very same int.  The semifield formula is
    kept apart from `mutate_c` on purpose, masks and bound checks too:
    the c-vector/coefficient check only checks something while the two
    tracks are computed independently."""
    unit, offset, lift, high, _, unpack = _codec(len(y))
    yk = y[k]
    negative = (((yk & offset) ^ offset) >> _TOP) * _FIELD
    floor = (yk & negative) - (offset & negative)
    out = list(y)
    for i in compress(range(len(y)), map(itemgetter(k), ext)):
        if i == k:
            continue
        b_ik = ext[i][k]
        if not -BOUND <= b_ik < BOUND:
            raise _overflow("multiplier b_%d,%d" % (i + 1, k + 1), (b_ik,))
        new = y[i] + (b_ik if b_ik > 0 else 0) * (yk - offset) - b_ik * floor
        if (new + lift) & high != offset:
            raise _overflow(_ROW % (i + 1, k + 1), unpack(new))
        out[i] = new
    new = 2 * offset - yk
    if (new + lift) & high != offset:
        raise _overflow(_ROW % (k + 1, k + 1), unpack(new))
    out[k] = new
    return tuple(out)


def _moved(before, after, y_before, y_after, k):
    """The rows a mutation at k moved, in order: the pivot's index entry
    and k, when no other block row, c-vector or y row changed (`_only`,
    one compare per track); otherwise the rows where one of them is not
    its old object, found by scanning all three.  The rules return each
    row they leave alone as the same object, so every other row still
    holds its checked value."""
    rows = sorted((*before.index[k], k))
    if (
        _only(rows, before.block, after.block)
        and _only(rows, before.c, after.c)
        and _only(rows, y_before, y_after)
    ):
        return rows
    return sorted({
        *compress(count(), map(is_not, before.block, after.block)),
        *compress(count(), map(is_not, before.c, after.c)),
        *compress(count(), map(is_not, y_before, y_after)),
    })


def _assert_y_matches_c(state, y, rows):
    for i in rows:
        if state.c[i] != y[i]:
            unpack = _codec(state.n).unpack
            raise CoefficientMismatch(
                "row %d: c-vector %s vs coefficient %s %s"
                % (i + 1, unpack(state.c[i]), unpack(y[i]), _when(state.history))
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
    column sigma(i)), each packed row compared with the packed -e_j.
    Otherwise raises error naming C's shape and at most SHOWN_ROWS of
    its first offending rows: those that are not minus a unit vector, or
    whose -1 sits in the column of an earlier row's."""
    n = len(c_rows)
    code = _codec(n)
    column = {row: j for j, row in enumerate(_unit_rows(n, -1))}
    perm = [column.pop(row, None) for row in c_rows]
    offending = [i for i, j in enumerate(perm) if j is None]
    if offending:
        shown = ", ".join(
            "row %d = %s" % (i + 1, code.unpack(c_rows[i]))
            for i in offending[:SHOWN_ROWS]
        )
        raise error(
            "%s (%d x %d) is not minus a permutation matrix: %d offending rows, %s%s"
            % (name, n, n, len(offending), shown,
               ", ..." if len(offending) > SHOWN_ROWS else "")
        )
    return Automorphism(tuple(perm))


def _sequence(first, second, factors):
    """The vertices of `factors` alternating factors, in walking order."""
    return tuple(k for f in range(factors) for k in (second if f % 2 else first))


def _certify(g, first, second, factors, partition, name="the green sequence"):
    """The certificate of `factors` alternating factors of first and
    second, walked from the framed matrix, both tracks compared at the
    start and on the rows each mutation moved.  `mutate_framed` runs
    first, so a vertex out of range is a FrozenVertex; then the pivot
    must have been green, point negatively only inside its part, and
    mutate as its part's restriction does, before the y rows are
    compared.  On a recurrent g a whole colour's mutation negates B, so
    the block is -B where an odd factor ends, B where an even one does;
    the first factor where it is not is raised, naming the walk, once
    the walk is done, as a check that names its step and vertex raises
    first.  Then no vertex may be green, and -C must be P_sigma."""
    part_of = [None] * g.n
    for part in _normalize_partition(g.n, partition):
        for v in part:
            part_of[v] = part
    state = framed(g.base)
    y = tuple(map(_codec(g.n).pack, initial_y(g.n)))
    _assert_y_matches_c(state, y, range(g.n))
    b = g.base.b
    blocks = (b, tuple(tuple(map(neg, row)) for row in b)) if g.recurrent else ()
    ends, t, broken = {}, 0, None
    for f in range(1, factors + 1) if blocks else ():
        t += len(first if f % 2 else second)
        ends[t] = f
    for t, k in enumerate(_sequence(first, second, factors), 1):
        after = mutate_framed(state, k)
        y_after = mutate_y(y, state.block, k)
        moved = _moved(state, after, y, y_after, k)
        if vertex_status(state, k) != GREEN:
            raise NotGreenAtStep(t, k)
        if not _points_inside(state, k, part_of[k]):
            raise NotComponentPreserving("vertex %d at position %d" % (k + 1, t))
        _check_restriction_commutes(state, after, part_of, k, moved)
        _assert_y_matches_c(after, y_after, moved)
        state, y = after, y_after
        if t in ends and not broken and state.block != blocks[ends[t] % 2]:
            broken = ends[t], state.block
    if broken:
        f, block = broken
        want = blocks[f % 2]
        i, j = unmatched_entry(Automorphism.identity(g.n), want, block)
        raise ClaimViolation(
            "%s: the mutable block is not %sB after factor %d: entry (%d,%d) is %d, "
            "not %d" % (name, "-" * (f % 2), f, i + 1, j + 1, block[i][j], want[i][j])
        )
    still_green = [k for k in range(g.n) if vertex_status(state, k) == GREEN]
    if still_green:
        raise NotMaximal("vertices %s still green" % [k + 1 for k in still_green])
    perm = _minus_permutation(state.c, NotPermutation, "final C")
    return GreenCertificate(factors=factors, final=state, permutation=perm)


def verify_bipartite_belt_mgs(g):
    """Certify both alternating belt sequences on the framed matrix: the
    sink-first one (h_Gamma factors, Gamma-sinks, the blacks, open)
    against the Gamma-component partition, the other (h_Delta factors,
    Delta-sinks open) against the Delta-component partition."""
    gamma = tuple(comp.vertices for comp in g.gamma_components)
    delta = tuple(comp.vertices for comp in g.delta_components)
    return (
        _certify(g, g.blacks, g.whites, g.h_gamma, gamma, "the Gamma certificate"),
        _certify(g, g.whites, g.blacks, g.h_delta, delta, "the Delta certificate"),
    )


def _relabeled(rows, p):
    """R_p of a square, p an Automorphism: entry (i, j) is rows[p(i)][p(j)]."""
    return tuple(map(p.relabel, p.relabel(rows)))


def _derived_final(g):
    """The coframed belt's end as (block, packed c), off `g.certificates`."""
    if not g.recurrent:
        raise NotRecurrent("the bigraph is not recurrent")
    cert_gamma, cert_delta = g.certificates
    q = cert_gamma.permutation
    last = g.whites if g.h_gamma % 2 == 0 else g.blacks
    for holds, premise in (
        (cert_gamma.sequence == _sequence(g.blacks, g.whites, g.h_gamma)
         and cert_delta.sequence == _sequence(g.whites, g.blacks, g.h_delta),
         "the certificates' sequences are the belts'"),
        (cert_gamma.final.block == _relabeled(g.base.b, q)
         and cert_gamma.final.c == q.relabel(_unit_rows(g.n, -1)),
         "the Gamma certificate ends at R_q(coframed B)"),
        (sorted(map(q, last)) == g.whites, "q maps the last factor onto the whites"),
    ):
        if not holds:
            raise NoIsomorphism("premise failed: %s" % premise)
    # no FramedState: a wrong block fails the relabeling check, exit 1, not 2
    p = q.inverse
    return _relabeled(cert_delta.final.block, p), p.relabel(cert_delta.final.c)


def frozen_isomorphism_check(g, symbolic_sigma=None):
    """The Automorphism sigma by which the coframed belt, after N
    composite factors, returns to the coframed matrix, frozen labels
    fixed.  It must pass the paper's half-period rules
    (`bigraph.classify_sigma`) and equal symbolic_sigma when given.

    No walk runs: `_derived_final` reads the belt's end off
    `g.certificates` under four exact premises: g is recurrent (else
    NotRecurrent, exit 2); each certificate's sequence is its belt's;
    the Gamma certificate ends at R_q(coframed B), q its permutation and
    R_q reading the block at q in rows and columns (`_relabeled`) and
    the packed c-vectors at q in rows only; and q maps that
    certificate's last factor onto the whites (else NoIsomorphism, exit
    1, naming the premise).
    Proof.  Recurrence makes the mutable block +-B at every factor
    boundary of a belt walk (the certificates' walks check it), so the
    vertices of one factor are pairwise unlinked there: their mutations
    commute, and the factor's composite is an involution on states (both
    tracks).  Both mutations commute with relabeling, mu_k(R_p X) ==
    R_p(mu_p(k) X).  The walk starts at coframed B = R_q^-1 of the Gamma
    certificate's end, and its first factor, the whites, is q of that
    certificate's last; so its first h_Gamma factors undo the
    certificate's, last first, relabeled by R_q^-1, reaching
    R_q^-1(framed B).  As q^-1 maps the walk's factor h_Gamma onto the
    blacks, it maps the next one onto the whites, the Delta
    certificate's first factor; so the last h_Delta factors are that
    certificate's, relabeled, and the walk ends at R_q^-1 of its final
    state.  Each state at a factor boundary is thus a relabeled one a
    certificate checked; the states inside a factor are not formed.
    """
    if symbolic_sigma is not None:
        require_automorphism(symbolic_sigma)
    block, c = _derived_final(g)
    row_perm = _minus_permutation(c, NoIsomorphism, "frozen block")
    # row r holds the -1 of frozen column row_perm(r); sigma is the inverse
    sigma = row_perm.inverse
    if unmatched_entry(sigma, g.base.b, block) is not None:
        raise NoIsomorphism("mutable block is not a relabeling of the original")
    classify_sigma(g, sigma)
    if symbolic_sigma is not None and sigma != symbolic_sigma:
        raise MismatchWithSymbolicSigma(
            "frozen %s vs symbolic %s" % (sigma.perm, symbolic_sigma.perm)
        )
    return sigma
