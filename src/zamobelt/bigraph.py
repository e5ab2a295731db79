"""Exchange matrices with bipartite structure.

A bigraph is a skew-symmetrizable integer matrix together with a
two-coloring of its vertices and the induced split of its edge set into
an unsigned red part Gamma and blue part Delta.  The sign convention is
fixed once and for all: on a Gamma edge the entry from the white vertex
to the black one is positive, on a Delta edge it is negative.
`_compose` is its one writer and `decompose` its one reader.  All the
dynamics modules read (Gamma, Delta, epsilon) through this module and
never re-derive signs themselves.
"""

import functools
import json
import math
import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from . import dynkin
from .errors import (
    ClaimViolation,
    InputError,
    InvalidPermutation,
    InvalidRank,
    InvalidVertex,
    NotAdmissible,
    NotAdmissibleBigraph,
    NotBipartite,
    NotIntegerMatrix,
    NotSkewSymmetrizable,
    OrbitAdjacency,
    SearchBoundExceeded,
    UnknownName,
)

WHITE = "w"
BLACK = "b"

# The automorphism search refuses bigraphs on more vertices than this.  No
# run searches; the bound guards the library search, which `fold` callers
# use to find their tau.
SEARCH_BOUND = 16


def _freeze(rows):
    return tuple(tuple(row) for row in rows)


def _spread(b, first, rule):
    """Label the vertices of the graph of b, one component at a time.

    Each component's lowest vertex gets first(root), and a neighbour j of
    a labeled vertex i gets rule(i, j, label of i).  Returns the labels
    and the first edge (i, j) whose labels break the rule, or None.
    """
    n = len(b)
    labels = [None] * n
    for root in range(n):
        if labels[root] is not None:
            continue
        labels[root] = first(root)
        queue = [root]
        while queue:
            i = queue.pop()
            for j in range(n):
                if b[i][j] == 0 and b[j][i] == 0:
                    continue
                want = rule(i, j, labels[i])
                if labels[j] is None:
                    labels[j] = want
                    queue.append(j)
                elif labels[j] != want:
                    return labels, (i, j)
    return labels, None


def symmetrizer(b):
    """Positive rationals c with c_i b_ij = -c_j b_ji, min normalized to 1."""
    n = len(b)
    for i in range(n):
        if b[i][i] != 0:
            raise NotSkewSymmetrizable("nonzero diagonal at %d" % (i + 1))
        for j in range(n):
            if (b[i][j] == 0) != (b[j][i] == 0):
                raise NotSkewSymmetrizable(
                    "entry (%d,%d) nonzero but its mirror is zero" % (i + 1, j + 1)
                )
            if b[i][j] * b[j][i] > 0:
                raise NotSkewSymmetrizable(
                    "entries (%d,%d) and (%d,%d) have the same sign"
                    % (i + 1, j + 1, j + 1, i + 1)
                )
    c, clash = _spread(
        b, lambda root: Fraction(1), lambda i, j, ci: ci * abs(b[i][j]) / abs(b[j][i])
    )
    if clash is not None:
        raise NotSkewSymmetrizable(
            "inconsistent ratio cycle through %d-%d" % (clash[0] + 1, clash[1] + 1)
        )
    scale = math.lcm(*(x.denominator for x in c))
    whole = [x * scale for x in c]
    shrink = math.gcd(*(int(x) for x in whole))
    return tuple(int(x) // shrink for x in whole)


@dataclass(frozen=True)
class ExchangeMatrix:
    n: int
    b: tuple
    c: tuple


def exchange_matrix(rows):
    """Validated exchange matrix: a square of plain ints."""
    b = _freeze(rows)
    for i, row in enumerate(b):
        if len(row) != len(b):
            raise NotSkewSymmetrizable(
                "row %d has length %d, not %d: the matrix is not square"
                % (i + 1, len(row), len(b))
            )
    for i, row in enumerate(b):
        for j, x in enumerate(row):
            if type(x) is not int:
                raise NotIntegerMatrix(
                    "entry (%d,%d) is %r, not an integer" % (i + 1, j + 1, x)
                )
    return ExchangeMatrix(n=len(b), b=b, c=symmetrizer(b))


def mutate_rows(rows, k, index):
    """Matrix mutation at k of a skew-symmetrizable square: a tuple of int
    tuples, with `index`, a list holding `support(row)` of each row.

    Row k and column k change sign; every other entry b_ij gains
    |b_ik| b_kj when b_ik and b_kj have the same sign.  As the square is
    skew-symmetrizable, the rows to rebuild are the pivot's nonzero
    columns, so the rule reads them, and the pivot's entries, in the
    index, and keeps the index in step entry by entry.  Every row i != k
    with b_ik = 0 comes back as the very same tuple, with the very same
    index entry.
    """
    movers = index[k]
    up, down = _by_sign(movers.items())
    out = list(rows)
    for i in movers:
        new = list(rows[i])
        a = new[k]
        size = abs(a)
        entries = dict(index[i])
        for j, x in up if a > 0 else down:
            w = new[j] + size * x
            new[j] = w
            if w:
                entries[j] = w
            else:
                entries.pop(j, None)
        new[k] = entries[k] = -a
        index[i] = entries
        out[i] = tuple(new)
    new = [0] * len(rows)
    index[k] = _negated(new, movers)
    out[k] = tuple(new)
    return tuple(out)


def _by_sign(entries):
    """The (j, x) pairs with x > 0, and the others."""
    up = []
    down = []
    for entry in entries:
        if entry[1] > 0:
            up.append(entry)
        else:
            down.append(entry)
    return up, down


def _negated(new, entries):
    """Write minus each (j, x) of entries into the list new at j, and
    return those entries as a new dict."""
    out = {}
    for j, x in entries.items():
        new[j] = out[j] = -x
    return out


def support(row):
    """The index entry of a row of an exchange matrix: its nonzero
    entries as {column: entry}."""
    return dict(compress(enumerate(row), row))


def mutate(m, k):
    """Matrix mutation at vertex k (zero-based); symmetrizer is untouched."""
    return composite_mutation(m, (k,))


def require_int_vertex(k):
    """Refuse a vertex that is not an int (a bool is not one) with
    InvalidVertex: the one rule for every mutation's vertex."""
    if type(k) is not int:
        raise InvalidVertex(
            "vertex %s is %s, not an int" % (reprlib.repr(k), type(k).__name__)
        )


def composite_mutation(m, vertices):
    """Mutate at each vertex in turn, through one index of m's rows;
    callers pass pairwise non-adjacent sets.  A vertex that is not an
    int, or outside 0..n-1, raises InvalidVertex, numbered from 1."""
    b = m.b
    index = list(map(support, b))
    for k in vertices:
        require_int_vertex(k)
        if not 0 <= k < m.n:
            raise InvalidVertex("vertex %d is not one of 1..%d" % (k + 1, m.n))
        b = mutate_rows(b, k, index)
    return ExchangeMatrix(n=m.n, b=b, c=m.c)


def detect_epsilon(b):
    """Two-color each connected component, lowest vertex white."""
    eps, clash = _spread(
        b, lambda root: WHITE, lambda i, j, e: BLACK if e == WHITE else WHITE
    )
    if clash is not None:
        raise NotBipartite("odd cycle through vertex %d" % (clash[1] + 1))
    return tuple(eps)


def _validate_epsilon(b, eps):
    n = len(b)
    if len(eps) != n:
        raise NotBipartite("coloring has wrong length")
    for i in range(n):
        for j in range(n):
            if b[i][j] != 0 and eps[i] == eps[j]:
                raise NotBipartite(
                    "edge %d-%d joins two %s vertices" % (i + 1, j + 1, eps[i])
                )


@dataclass(frozen=True)
class Component:
    vertices: tuple
    family: str
    rank: int
    coxeter: int

    @property
    def name(self):
        if self.family is None:
            return "unknown"
        return "%s%d" % (self.family, self.rank)


@dataclass(frozen=True)
class Bigraph:
    base: ExchangeMatrix
    epsilon: tuple
    gamma: tuple
    delta: tuple
    gamma_components: tuple
    delta_components: tuple

    @property
    def n(self):
        return self.base.n

    @property
    def whites(self):
        return [i for i, e in enumerate(self.epsilon) if e == WHITE]

    @property
    def blacks(self):
        return [i for i, e in enumerate(self.epsilon) if e == BLACK]

    def eta(self, k):
        return 0 if self.epsilon[k] == WHITE else 1

    @functools.cached_property
    def recurrent(self):
        """True iff mutating all whites, or all blacks, negates the matrix.

        The composite around a full period is the identity exactly when
        both one-color composites negate, so both are checked; one alone
        is not enough in general.  Cached, so the CLI's check of a target
        and a later premise check share it."""
        minus = _freeze([[-x for x in row] for row in self.base.b])
        return all(
            composite_mutation(self.base, color_set).b == minus
            for color_set in (self.whites, self.blacks)
        )

    @functools.cached_property
    def movers(self):
        """The belt timetable: per parity of c, the vertices that move at
        c, in vertex order, as (k, Gamma in-edges, Delta in-edges), each
        in-edge an (i, weight) pair with weight nonzero.  Whites move at
        even c, blacks at odd c."""
        n = self.n

        def in_edges(m, k):
            return tuple((i, m[i][k]) for i in range(n) if m[i][k])

        by_parity = ([], [])
        for k in range(n):
            by_parity[self.eta(k)].append(
                (k, in_edges(self.gamma, k), in_edges(self.delta, k))
            )
        return tuple(map(tuple, by_parity))

    @functools.cached_property
    def dual(self):
        """`dual_bigraph` of this bigraph, built once per bigraph."""
        return dual_bigraph(self)

    @functools.cached_property
    def certificates(self):
        """green.verify_bipartite_belt_mgs(self), built once; a failure is not kept."""
        from . import green  # green imports this module
        return green.verify_bipartite_belt_mgs(self)

    @property
    def plain(self):
        """True for a plain Dynkin entry (the tensor with a point): no Delta."""
        return not any(any(row) for row in self.delta)

    def _shared_coxeter(self, components, label):
        values = {comp.coxeter for comp in components}
        if None in values or len(values) != 1:
            known = sorted(v for v in values if v is not None)
            message = "%s components have Coxeter numbers %s" % (
                label, known + ["?"] * (None in values)
            )
            unknown = [comp.vertices for comp in components if comp.coxeter is None]
            if unknown:
                message += "; not of finite Dynkin type: %s" % ", ".join(
                    "{%s}" % ", ".join(str(v + 1) for v in vertices)
                    for vertices in unknown
                )
            raise NotAdmissibleBigraph(message)
        return values.pop()

    @property
    def h_gamma(self):
        return self._shared_coxeter(self.gamma_components, "Gamma")

    @property
    def h_delta(self):
        return self._shared_coxeter(self.delta_components, "Delta")

    @property
    def half_period(self):
        return self.h_gamma + self.h_delta


def _connected_components(weights):
    roots, _ = _spread(weights, lambda root: root, lambda i, j, r: r)
    return [
        tuple(v for v, r in enumerate(roots) if r == root)
        for root in dict.fromkeys(roots)
    ]


def cartan_companion(weights, vertices):
    """2I - W on vertices, in their order: the Cartan companion of the
    unsigned matrix weights restricted to them."""
    return tuple(
        tuple(2 if a == b else -weights[a][b] for b in vertices) for a in vertices
    )


def _component_data(weights):
    """The connected components of the unsigned matrix weights, in order
    of their lowest vertex, each with its Dynkin type and Coxeter number,
    or family None and rank its size when it is not of finite type.

    Components with the same Cartan matrix (E7xE7 has fourteen) share
    one recognition: dynkin.recognize runs once per distinct matrix.
    """
    types = {}
    comps = []
    for vertices in _connected_components(weights):
        cartan = cartan_companion(weights, vertices)
        if cartan not in types:
            hit = dynkin.recognize(cartan)
            if hit is None:
                types[cartan] = (None, len(vertices), None)
            else:
                family, rank = hit
                types[cartan] = (family, rank, dynkin.coxeter_number(family, rank))
        comps.append(Component(vertices, *types[cartan]))
    return tuple(comps)


def _compose(gamma, delta, epsilon):
    """The exchange matrix of the unsigned pair under a two-coloring: a
    white row holds Gamma - Delta and a black row Delta - Gamma."""
    return tuple(
        tuple(x - y if e == WHITE else y - x for x, y in zip(gamma_row, delta_row))
        for gamma_row, delta_row, e in zip(gamma, delta, epsilon)
    )


def decompose(m, epsilon=None):
    """Split m into the unsigned (Gamma, Delta) pair under a two-coloring."""
    b = m.b
    if epsilon is None:
        epsilon = detect_epsilon(b)
    else:
        epsilon = tuple(epsilon)
        _validate_epsilon(b, epsilon)
    n = m.n
    gamma = [[0] * n for _ in range(n)]
    delta = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if b[i][j] == 0:
                continue
            white_to_black = b[i][j] if epsilon[i] == WHITE else b[j][i]
            target = gamma if white_to_black > 0 else delta
            target[i][j] = abs(b[i][j])
    gamma = _freeze(gamma)
    delta = _freeze(delta)
    return Bigraph(
        base=m,
        epsilon=epsilon,
        gamma=gamma,
        delta=delta,
        gamma_components=_component_data(gamma),
        delta_components=_component_data(delta),
    )


def _tensor_rows(family_l, rank_l, family_r, rank_r):
    adj_l, adj_r = (
        [[0 if i == j else -x for j, x in enumerate(row)] for i, row in enumerate(c)]
        for c in map(dynkin.cartan_matrix, (family_l, family_r), (rank_l, rank_r))
    )
    col_l, col_r = detect_epsilon(adj_l), detect_epsilon(adj_r)
    n = rank_l * rank_r

    def flat(i, j):
        return j * rank_l + i

    eps = [None] * n
    gamma = [[0] * n for _ in range(n)]
    delta = [[0] * n for _ in range(n)]
    for i in range(rank_l):
        for j in range(rank_r):
            u = flat(i, j)
            eps[u] = WHITE if col_l[i] == col_r[j] else BLACK
            for i2 in range(rank_l):
                gamma[u][flat(i2, j)] = adj_l[i][i2]
            for j2 in range(rank_r):
                delta[u][flat(i, j2)] = adj_r[j][j2]
    return _compose(gamma, delta, eps), eps


def tensor_product(family_l, rank_l, family_r, rank_r):
    """Bigraph on the vertex product: Gamma copies the left diagram down
    each column, Delta copies the right diagram along each row."""
    b, eps = _tensor_rows(family_l, rank_l, family_r, rank_r)
    return decompose(exchange_matrix(b), eps)


def langlands_dual(m):
    """-B transposed, with the symmetrizer recomputed from scratch."""
    return exchange_matrix(
        [[-m.b[j][i] for j in range(m.n)] for i in range(m.n)]
    )


def dual_bigraph(g):
    """Langlands dual with the same coloring; Gamma/Delta transpose."""
    return decompose(langlands_dual(g.base), g.epsilon)


@dataclass(frozen=True)
class Automorphism:
    """A permutation of the vertices 0..n-1: vertex i goes to perm[i].

    The one permutation type of the engine.  It is validated once, here:
    a perm that is not a tuple (a list would leave the object unhashable
    and unequal to its tuple twin), or a map with an entry that is not an
    int in 0..n-1 (a bool is not a vertex) or a repeated image, raises
    InvalidPermutation, naming the first offending vertex.
    """

    perm: tuple

    def __post_init__(self):
        if not isinstance(self.perm, tuple):
            raise InvalidPermutation(
                "a permutation is a tuple, got %s" % type(self.perm).__name__
            )
        n, source = len(self.perm), {}
        for i, v in enumerate(self.perm):
            if isinstance(v, bool):
                raise InvalidPermutation(
                    "vertex %d maps to %r, not a vertex" % (i + 1, v)
                )
            if not isinstance(v, int) or not 0 <= v < n:
                raise InvalidPermutation("vertex %d maps outside 1..%d" % (i + 1, n))
            if v in source:
                raise InvalidPermutation(
                    "vertices %d and %d both map to vertex %d"
                    % (source[v] + 1, i + 1, v + 1)
                )
            source[v] = i

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)))

    def __call__(self, i):
        return self.perm[i]

    def __iter__(self):
        return iter(self.perm)

    def _cycles(self):
        """The cycles, fixed points included, each walked from its
        smallest vertex; they close, as perm is a permutation."""
        seen = set()
        for start in range(len(self.perm)):
            if start in seen:
                continue
            cycle = [start]
            nxt = self.perm[start]
            while nxt != start:
                cycle.append(nxt)
                nxt = self.perm[nxt]
            seen.update(cycle)
            yield cycle

    def relabel(self, seq):
        """The tuple whose entry i is seq[sigma(i)]."""
        return tuple(map(seq.__getitem__, self.perm))

    @property
    def inverse(self):
        return Automorphism(
            tuple(sorted(range(len(self.perm)), key=self.perm.__getitem__))
        )

    @property
    def order(self):
        return math.lcm(*map(len, self._cycles()))

    @property
    def is_identity(self):
        return self.perm == tuple(range(len(self.perm)))

    def cycles(self):
        """Cycle notation over one-based labels; identity renders as 'id'."""
        out = "".join(
            "(" + " ".join(str(v + 1) for v in cycle) + ")"
            for cycle in self._cycles()
            if len(cycle) > 1
        )
        return out or "id"


def require_automorphism(sigma):
    """Raise InvalidPermutation unless sigma is an Automorphism: a list
    or a tuple reaching a library call is refused, never wrapped."""
    if not isinstance(sigma, Automorphism):
        raise InvalidPermutation(
            "%r object is not an Automorphism" % type(sigma).__name__
        )


def classify_color_behavior(g, sigma):
    flips = [g.epsilon[j] != e for e, j in zip(g.epsilon, sigma.perm)]
    if not any(flips):
        return "preserving"
    if all(flips):
        return "reversing"
    return "mixed"


def unmatched_entry(sigma, src, dst):
    """First (i, j) with src[i][j] != dst[sigma(i)][sigma(j)], or None."""
    perm = sigma.perm
    n = len(perm)
    return next(
        (
            (i, j)
            for i in range(n)
            for j in range(n)
            if src[i][j] != dst[perm[i]][perm[j]]
        ),
        None,
    )


@dataclass(frozen=True)
class HalfPeriodReport:
    N: int
    sigma: Automorphism
    color_behavior: str
    order: int
    identity: bool


def classify_sigma(g, sigma):
    """The half-period report of the Automorphism sigma, or
    ClaimViolation unless sigma is an automorphism of (Gamma, Delta) of
    order at most two that preserves colours for even N and reverses
    them for odd N.  These are the paper's rules for the relabeling held
    at N, and every track applies them: the symbolic verdict, the
    tropical trials and the frozen isomorphism.  A relabeling that
    passes re-indexes every later state (`replay`)."""
    require_automorphism(sigma)
    n_steps = g.half_period
    if any(unmatched_entry(sigma, m, m) is not None for m in (g.gamma, g.delta)):
        raise ClaimViolation("half-period permutation does not preserve (Gamma, Delta)")
    if sigma.order > 2:
        raise ClaimViolation("half-period permutation has order above two")
    behavior = classify_color_behavior(g, sigma)
    if behavior != ("preserving" if n_steps % 2 == 0 else "reversing"):
        raise ClaimViolation(
            "color behavior %s does not match parity of N=%d" % (behavior, n_steps)
        )
    return HalfPeriodReport(n_steps, sigma, behavior, sigma.order, sigma.is_identity)


def replay(states, sigma, shift, last):
    """Extend a run holding times 0..shift to time last, the state at
    shift + t being states[t] relabeled by sigma: sound when shift = N,
    the state there is the initial one relabeled and classify_sigma
    accepts sigma (the belt module's replay gives the proof)."""
    require_automorphism(sigma)
    for t in range(len(states) - shift, last - shift + 1):
        states.append(sigma.relabel(states[t]))


def first_return(trajectory):
    """Smallest even p > 0 with trajectory[p] == trajectory[0], or None:
    period detection on a run of any track, states from time 0."""
    return next(
        (p for p in range(2, len(trajectory), 2) if trajectory[p] == trajectory[0]),
        None,
    )


def automorphism_search(g, kind="all"):
    """Lazily, in lex order, each Automorphism fixing both unsigned
    matrices whose colour behaviour is kind: "all", "colorPreserving" or
    "colorReversing".

    The colour is a condition of placing each vertex, not a filter: the
    search relabels (Gamma, Delta) onto itself with each vertex's colour
    on the diagonal, swapped on the target side for "colorReversing".
    Backtracking keeps it sound for every n, but any other kind raises
    InputError, and n over SEARCH_BOUND SearchBoundExceeded, at once.
    """
    if kind not in ("all", "colorPreserving", "colorReversing"):
        raise InputError("unknown automorphism kind %r: expected 'all', "
                         "'colorPreserving' or 'colorReversing'" % (kind,))
    if g.n > SEARCH_BOUND:
        raise SearchBoundExceeded(
            "automorphism search on %d vertices exceeds bound %d"
            % (g.n, SEARCH_BOUND)
        )
    coloured = kind != "all"
    colours = [g.eta(k) if coloured else 0 for k in range(g.n)]
    targets = [1 - c for c in colours] if kind == "colorReversing" else colours

    def marked(marks):
        return tuple(
            tuple(
                (gv, dv, marks[i] if i == j else -1)
                for j, (gv, dv) in enumerate(zip(gamma_row, delta_row))
            )
            for i, (gamma_row, delta_row) in enumerate(zip(g.gamma, g.delta))
        )

    relabelings = dynkin.relabelings(marked(colours), marked(targets))
    return map(Automorphism, relabelings)


def check_bicolored(g, auto):
    """Raise NotAdmissible unless the Automorphism auto is a bicolored
    automorphism of g; returns its orbits as sorted tuples, in order."""
    require_automorphism(auto)
    orbits = [tuple(sorted(cycle)) for cycle in auto._cycles()]
    b = g.base.b
    n = g.n
    for i in range(n):
        if g.epsilon[auto(i)] != g.epsilon[i]:
            raise NotAdmissible("i", "vertex %d changes color" % (i + 1))
    bad = unmatched_entry(auto, b, b)
    if bad is not None:
        raise NotAdmissible(
            "iii", "entry (%d,%d) not preserved" % (bad[0] + 1, bad[1] + 1)
        )
    for orbit in orbits:
        for i in orbit:
            for j in orbit:
                if i != j and b[i][j] != 0:
                    raise OrbitAdjacency(
                        "vertices %d and %d share an orbit" % (i + 1, j + 1)
                    )
    for orbit in orbits:
        for j in range(n):
            signs = {b[i][j] for i in orbit if b[i][j]}
            if len({x > 0 for x in signs}) > 1:
                raise NotAdmissible(
                    "ii", "orbit %s hits vertex %d with mixed signs"
                    % (tuple(v + 1 for v in orbit), j + 1)
                )
    return orbits


def fold(g, auto):
    """Quotient by a bicolored Automorphism; orbits become vertices."""
    orbits = check_bicolored(g, auto)
    b = g.base.b
    folded = []
    for orbit_i in orbits:
        row = []
        for orbit_j in orbits:
            if orbit_i == orbit_j:
                row.append(0)
                continue
            values = {sum(b[i][j] for i in orbit_i) for j in orbit_j}
            if len(values) != 1:
                raise NotAdmissible(
                    "iii", "folded entry not independent of the column choice"
                )
            row.append(values.pop())
        folded.append(row)
    eps = tuple(g.epsilon[orbit[0]] for orbit in orbits)
    return decompose(exchange_matrix(folded), eps)


# -- catalog ----------------------------------------------------------------

_FIG1_GAMMA_EDGES = ((1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8), (7, 9))
_FIG1_DELTA_EDGES = ((1, 6), (5, 6), (2, 7), (4, 7), (3, 8), (3, 9))
_FIG1_EPSILON = (BLACK, WHITE, BLACK, WHITE, BLACK, WHITE, BLACK, WHITE, WHITE)

_FIG2_EPSILON = (BLACK, WHITE, BLACK, WHITE, WHITE, BLACK, WHITE, BLACK)


def _figure_one():
    n = 9
    gamma = [[0] * n for _ in range(n)]
    delta = [[0] * n for _ in range(n)]
    for edges, weights in ((_FIG1_GAMMA_EDGES, gamma), (_FIG1_DELTA_EDGES, delta)):
        for u, v in edges:
            weights[u - 1][v - 1] = weights[v - 1][u - 1] = 1
    b = _compose(gamma, delta, _FIG1_EPSILON)
    return decompose(exchange_matrix(b), _FIG1_EPSILON)


def _figure_two_rows():
    """F4 x A2 with the two colors swapped, which negates every entry."""
    b, _ = _tensor_rows("F", 4, "A", 2)
    return [[-x for x in row] for row in b]


# a rank is ASCII decimal digits with no leading zero: A01, E06 and a
# rank in other scripts' digits are no names, not aliases of A1 and E6
_TENSOR_RE = re.compile(r"([A-G])(0|[1-9][0-9]*)x([A-G])(0|[1-9][0-9]*)")


def catalog(name):
    """Bigraph for a catalog name.

    A single Dynkin name X is read as the tensor XxA1 with a point, so
    Delta is empty and every vertex is its own A1 Delta component.
    """
    if name == "fig1-A5starD4":
        return _figure_one()
    if name == "fig2-F4xA2":
        return decompose(exchange_matrix(_figure_two_rows()), _FIG2_EPSILON)
    hit = _TENSOR_RE.fullmatch(name) or _TENSOR_RE.fullmatch(name + "xA1")
    if hit:
        fl, rl, fr, rr = hit.groups()
        try:
            return tensor_product(fl, int(rl), fr, int(rr))
        except InvalidRank as exc:
            raise UnknownName("%s: %s" % (name, exc)) from exc
    raise UnknownName(
        "%r is not a catalog name; try one of %s or a tensor like A2xA3"
        % (name, ", ".join(catalog_names()))
    )


def catalog_names():
    """The names exercised by the test sweeps; catalog() accepts more."""
    return [
        "A1", "A2", "A3", "A4", "A5",
        "B2", "B3", "C2", "C3", "D4", "G2",
        "A2xA2", "A2xA3", "B2xB2", "G2xG2",
        "fig1-A5starD4", "fig2-F4xA2",
    ]


def catalog_version():
    """The version every report carries, pinning the figure entries and
    the Coxeter table.

    A literal, so no process hashes anything: the first 12 hex digits of
    a SHA-256 over that data, which the tier-1 tests recompute
    (tests/test_bigraph.py).  An edit to the figures or to the table in
    `dynkin` fails them, naming the new digest, until this is bumped."""
    return "e0db35bbf4da"


def from_json(doc):
    """Bigraph from {"n": int, "b": rows, "epsilon": optional colors}."""
    if not isinstance(doc, dict) or "n" not in doc or "b" not in doc:
        raise NotBipartite("input document needs keys 'n' and 'b'")
    n = doc["n"]
    b = doc["b"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise NotBipartite("'n' must be an integer, got %r" % (n,))
    if not isinstance(b, list) or not all(isinstance(row, list) for row in b):
        raise NotBipartite("'b' must be a list of rows, each a list")
    if len(b) != n or any(len(row) != n for row in b):
        raise NotBipartite("matrix shape does not match n=%s" % n)
    eps = doc.get("epsilon")
    if eps is not None:
        if not isinstance(eps, list):
            raise NotBipartite("'epsilon' must be a list of 'w' and 'b'")
        if any(x not in (WHITE, BLACK) for x in eps):
            raise NotBipartite("epsilon entries must be 'w' or 'b'")
        eps = tuple(eps)
    return decompose(exchange_matrix(b), eps)


def read_json(path):
    """The JSON document in the file at path.  A missing, unreadable or
    malformed file is an InputError naming the path."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InputError("no such file: %s" % path) from exc
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc.strerror)) from exc
    except ValueError as exc:
        raise InputError("bad JSON in %s: %s" % (path, exc)) from exc


def load_bigraph(path):
    """Bigraph from a JSON file in the form `from_json` reads."""
    return from_json(read_json(path))
