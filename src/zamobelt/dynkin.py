"""Finite Dynkin data: Cartan matrices, root enumeration, Coxeter numbers.

The Coxeter numbers come from a hard-coded table that nothing checks at
run time.  The tier-1 tests prove it against the brute-force root
enumerator below (h * rank == number of roots on every family), so a
typo in it fails them, and `bigraph.catalog_version` pins it in every
report.
"""

from .errors import InvalidRank

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _check_rank(family, rank):
    if family not in _RANK_RANGE:
        raise InvalidRank("unknown family %r" % family)
    lo, hi = _RANK_RANGE[family]
    if rank < lo or (hi is not None and rank > hi):
        raise InvalidRank("rank %d invalid for family %s" % (rank, family))


def cartan_matrix(family, rank):
    """Cartan matrix in Bourbaki numbering, as a tuple of tuple rows."""
    _check_rank(family, rank)
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, down=-1, up=-1):
        a[i][j] = down
        a[j][i] = up

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            edge(i, i + 1)
        if family == "B" and n >= 2:
            a[n - 1][n - 2] = -2  # last simple root short
        if family == "C" and n >= 2:
            a[n - 2][n - 1] = -2  # last simple root long
    elif family == "D":
        for i in range(n - 3):
            edge(i, i + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1)
    elif family == "E":
        # chain 1-3-4-5-6(-7)(-8) with node 2 hanging off node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for u, v in zip(chain, chain[1:]):
            edge(u, v)
        edge(1, 3)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, down=-1, up=-2)
        edge(2, 3)
    elif family == "G":
        edge(0, 1, down=-1, up=-3)
    return tuple(tuple(row) for row in a)


_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "C": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 12,
    "G": lambda n: 6,
}


def coxeter_number(family, rank):
    _check_rank(family, rank)
    return _COXETER[family](rank)


def positive_roots(cartan):
    """All positive roots, as coordinate tuples over the simple roots.

    Brute force: close the simple roots under all simple reflections
    s_i(beta) = beta - (sum_j A_ij beta_j) alpha_i, then keep the
    vectors with all coordinates >= 0.
    """
    n = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            pairing = sum(cartan[i][j] * beta[j] for j in range(n))
            image = tuple(
                b - pairing if j == i else b for j, b in enumerate(beta)
            )
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return sorted(v for v in seen if all(x >= 0 for x in v))


def _is_cartan_like(m):
    n = len(m)
    for i in range(n):
        if m[i][i] != 2:
            return False
        for j in range(n):
            if i != j and (m[i][j] > 0 or (m[i][j] == 0) != (m[j][i] == 0)):
                return False
    return True


def relabelings(src, dst):
    """Each permutation p with src[i][j] == dst[p(i)][p(j)] for all i, j.

    Backtracking places vertices in order and tries targets in order, so
    the permutations come out in lex order.  A vertex only goes to a
    target whose multiset of (out, in) entry pairs equals its own.
    """
    n = len(src)

    def signature(mat, i):
        return sorted((mat[i][j], mat[j][i]) for j in range(n))

    sig_src = [signature(src, i) for i in range(n)]
    sig_dst = [signature(dst, i) for i in range(n)]
    if sorted(sig_src) != sorted(sig_dst):
        return
    perm = [None] * n
    used = [False] * n

    def place(i):
        if i == n:
            yield tuple(perm)
            return
        for t in range(n):
            if used[t] or sig_src[i] != sig_dst[t] or src[i][i] != dst[t][t]:
                continue
            if all(
                src[i][j] == dst[t][perm[j]] and src[j][i] == dst[perm[j]][t]
                for j in range(i)
            ):
                perm[i] = t
                used[t] = True
                yield from place(i + 1)
                used[t] = False

    yield from place(0)


def recognize(cartan):
    """(family, rank) matching the matrix up to permutation, or None.

    Rank-2 B and C templates coincide up to relabeling; such a
    component reports as B2.  Non-Dynkin input returns None.
    """
    m = tuple(tuple(row) for row in cartan)
    n = len(m)
    if n == 0 or not _is_cartan_like(m):
        return None
    candidates = []
    for family in "ABCDEFG":
        lo, hi = _RANK_RANGE[family]
        if n >= lo and (hi is None or n <= hi):
            candidates.append((family, n))
    for family, rank in candidates:
        if next(relabelings(m, cartan_matrix(family, rank)), None) is not None:
            return family, rank
    return None
