"""Exception taxonomy.

Two base classes matter for the CLI exit protocol: InputError means the
request itself was bad (unknown name, malformed matrix, guard tripped)
and maps to exit code 2; ClaimViolation means the engine ran fine but a
mathematical claim failed on the input, and maps to exit code 1.  Any
other exception is an internal error and maps to exit code 3.
"""


class InputError(Exception):
    """Bad input or a resource guard stopped the run."""


class NotBipartite(InputError):
    """The matrix has an edge between two vertices of the same color."""


class NotSkewSymmetrizable(InputError):
    """No positive symmetrizer exists for the matrix."""


class UnknownName(InputError):
    """Catalog lookup failed."""


class InvalidRank(InputError):
    """Dynkin family given a rank outside its valid range."""


class ArityMismatch(InputError):
    """Operands disagree on the number of variables or vertices."""


class TermGuardExceeded(InputError):
    """A polynomial grew past the configured term ceiling."""


class ExponentOverflow(InputError):
    """An exponent would leave the fixed-width field a Laurent term key
    gives each variable."""


class NotIntegerMatrix(InputError):
    """A matrix entry is not an integer: floats, bools and strings."""


class SearchBoundExceeded(InputError):
    """Exhaustive automorphism search refused: too many vertices."""


class NotAdmissible(InputError):
    """Folding automorphism violates an admissibility condition."""

    def __init__(self, condition, detail=""):
        self.condition = condition
        msg = "admissibility condition (%s) violated" % condition
        if detail:
            msg += ": " + detail
        super().__init__(msg)


class OrbitAdjacency(NotAdmissible):
    """Two vertices of one folding orbit are adjacent."""

    def __init__(self, detail=""):
        super().__init__("iv", detail or "orbit contains adjacent vertices")


class FrozenVertex(InputError):
    """Mutation requested at a frozen vertex."""


class InvalidPartition(InputError):
    """Vertex partition does not cover the mutable vertices exactly."""


class NotAdmissibleBigraph(InputError):
    """Gamma or Delta components disagree on the Coxeter number, or one
    component is not of finite Dynkin type."""


class NotRecurrent(InputError):
    """Mutating every white vertex, or every black one, does not negate
    the exchange matrix: the bigraph is outside the theorem's hypothesis."""


class InvalidPermutation(InputError):
    """A vertex map that is not a permutation of the vertices."""


class NoGammaNeighbour(InputError):
    """A vertex has no Gamma neighbour, so every colored-census event at
    it ties whatever the labeling."""


class ClaimViolation(Exception):
    """A verified mathematical claim failed on this input."""


class LaurentPhenomenonViolation(ClaimViolation):
    """An exchange-relation division left a remainder."""


class NoPermutationMatch(ClaimViolation):
    """The half-period cluster is not a relabeling of the initial one."""


class SignCoherenceViolation(ClaimViolation):
    """A c-vector came out with mixed signs."""


class NotGreenAtStep(ClaimViolation):
    """A certified sequence mutated a vertex that was already red."""

    def __init__(self, step, vertex):
        self.step = step
        self.vertex = vertex
        super().__init__("vertex %d red at step %d" % (vertex + 1, step))


class NotMaximal(ClaimViolation):
    """Some vertex is still green after the full sequence."""


class NotPermutation(ClaimViolation):
    """-C is not a permutation matrix after the full sequence."""


class NoIsomorphism(ClaimViolation):
    """The belt did not return the coframed matrix up to relabeling."""


class MismatchWithSymbolicSigma(ClaimViolation):
    """Frozen-isomorphism permutation differs from the symbolic one."""


class NotComponentPreserving(ClaimViolation):
    """A belt mutation leaked across the component partition."""


class CoefficientMismatch(ClaimViolation):
    """Tropical coefficient exponents diverged from the c-vectors."""


# Arithmetic-level errors.  NotDivisible is deliberately not a
# ClaimViolation: callers that know the division *should* be exact
# (the belt) translate it into LaurentPhenomenonViolation themselves.

class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial."""


class ZeroPolynomial(ValueError):
    """Operation undefined on the zero polynomial."""


class NotDivisible(ArithmeticError):
    """Exact division failed; carries the nonzero remainder.

    The message names only the remainder's leading terms and its term
    count, since a remainder can hold as many terms as the term guard.
    """

    SHOWN_TERMS = 4

    def __init__(self, remainder):
        self.remainder = remainder
        super().__init__(
            "division left remainder %s" % remainder.render(limit=self.SHOWN_TERMS)
        )
