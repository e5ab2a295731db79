"""Sparse multivariate Laurent polynomials with integer coefficients.

Terms live in a map from exponent vectors (tuples over Z) to nonzero
arbitrary-precision integer coefficients.  Coefficients stay integers
throughout: the exchange dynamics only ever needs ring operations plus
exact division, and a rational coefficient showing up anywhere would
mean an invariant was already broken upstream.
"""

from .errors import (
    ArityMismatch,
    DivisionByZero,
    NotDivisible,
    TermGuardExceeded,
    ZeroPolynomial,
)

DEFAULT_TERM_GUARD = 10**6

_term_guard = DEFAULT_TERM_GUARD


def set_term_guard(limit):
    """Set the global ceiling on the term count of any single polynomial."""
    global _term_guard
    if limit < 1:
        raise ValueError("term guard must be positive")
    _term_guard = int(limit)


def get_term_guard():
    return _term_guard


def _check_guard(nterms):
    if nterms > _term_guard:
        raise TermGuardExceeded(
            "polynomial has %d terms, guard is %d" % (nterms, _term_guard)
        )


class Laurent:
    """Immutable sparse Laurent polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ArityMismatch(
                        "exponent vector %r has length %d, expected %d"
                        % (exps, len(exps), nvars)
                    )
                if coeff:
                    clean[tuple(exps)] = coeff
        _check_guard(len(clean))
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, value, nvars):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars):
        return cls.const(1, nvars)

    @classmethod
    def variable(cls, index, nvars):
        """Generator x_{index+1}; index is zero-based."""
        if not 0 <= index < nvars:
            raise IndexError("variable index %d out of range" % index)
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls(len(exps), {tuple(exps): coeff})

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def as_variable(self):
        """Index i if this polynomial is exactly x_{i+1}, else None.

        A scalar multiple of a variable does not count.
        """
        if len(self.terms) != 1:
            return None
        (exps, coeff), = self.terms.items()
        if coeff != 1 or sum(exps) != 1 or any(e not in (0, 1) for e in exps):
            return None
        return exps.index(1)

    # -- ring structure ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Laurent):
            if other.nvars != self.nvars:
                raise ArityMismatch(
                    "operands have %d and %d variables" % (self.nvars, other.nvars)
                )
            return other
        if isinstance(other, int):
            return Laurent.const(other, self.nvars)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = out.get(exps, 0) + coeff
            if total:
                out[exps] = total
            else:
                out.pop(exps, None)
        return Laurent(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return Laurent.zero(self.nvars)
        # iterate over the smaller operand for fewer dict rebuilds
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                total = out.get(key, 0) + ca * cb
                if total:
                    out[key] = total
                else:
                    del out[key]
        return Laurent(self.nvars, out)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("only integer powers are defined")
        if k < 0:
            # negative powers exist only for units: one term, coefficient +-1
            if len(self.terms) != 1:
                raise ValueError("negative power of a non-monomial")
            (exps, coeff), = self.terms.items()
            if coeff not in (1, -1):
                raise ValueError("negative power of a non-unit coefficient")
            inverse = Laurent(self.nvars, {tuple(-e for e in exps): coeff})
            return inverse ** (-k)
        result = Laurent.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = Laurent.const(other, self.nvars)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    # -- exact division -------------------------------------------------

    def divexact(self, other):
        """Quotient q with q * other == self, exactly.

        Works by repeated leading-term elimination in lex order.  If the
        division is exact, every quotient exponent lies in the box given
        by the per-variable degree bounds of self and other, and every
        leading-coefficient division is an exact integer division; any
        violation raises NotDivisible carrying the remainder so far.
        """
        other = self._coerce(other)
        if other is None or not isinstance(other, Laurent):
            raise TypeError("divexact needs a Laurent or int divisor")
        if other.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero():
            return Laurent.zero(self.nvars)

        lo_a, hi_a = _bounds(self.terms)
        lo_b, hi_b = _bounds(other.terms)
        qlo = tuple(x - y for x, y in zip(lo_a, lo_b))
        qhi = tuple(x - y for x, y in zip(hi_a, hi_b))
        if any(l > h for l, h in zip(qlo, qhi)):
            raise NotDivisible(self)

        lead_b = max(other.terms)
        lc_b = other.terms[lead_b]
        rem = dict(self.terms)
        quot = {}
        while rem:
            lead_r = max(rem)
            qe = tuple(x - y for x, y in zip(lead_r, lead_b))
            c = rem[lead_r]
            if c % lc_b or any(
                not l <= e <= h for e, l, h in zip(qe, qlo, qhi)
            ):
                raise NotDivisible(Laurent(self.nvars, rem))
            qc = c // lc_b
            quot[qe] = qc
            _check_guard(len(quot))
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(qe, eb))
                total = rem.get(key, 0) - qc * cb
                if total:
                    rem[key] = total
                else:
                    rem.pop(key, None)
        return Laurent(self.nvars, quot)

    # -- degrees ---------------------------------------------------------

    def degree_profile(self):
        """Per-variable (min, max) exponent pairs over all terms."""
        if self.is_zero():
            raise ZeroPolynomial("degree profile of the zero polynomial")
        lo, hi = _bounds(self.terms)
        return tuple(zip(lo, hi))

    def denominator_vector(self):
        """Negated per-variable minimum exponents."""
        if self.is_zero():
            raise ZeroPolynomial("denominator vector of the zero polynomial")
        lo, _ = _bounds(self.terms)
        return tuple(-x for x in lo)

    # -- rendering ---------------------------------------------------------

    def render(self):
        """Canonical text form, terms in descending lex order."""
        if not self.terms:
            return "0"
        chunks = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append("x%d" % (i + 1))
                elif e:
                    factors.append("x%d^%d" % (i + 1, e))
            mono = "*".join(factors)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = "%d*%s" % (mag, mono)
            chunks.append((coeff < 0, body))
        first_neg, first_body = chunks[0]
        out = ("-" if first_neg else "") + first_body
        for neg, body in chunks[1:]:
            out += (" - " if neg else " + ") + body
        return out

    __str__ = render

    def __repr__(self):
        return "Laurent(%d, %s)" % (self.nvars, self.render())


def _bounds(terms):
    iters = iter(terms)
    first = next(iters)
    lo = list(first)
    hi = list(first)
    for exps in iters:
        for i, e in enumerate(exps):
            if e < lo[i]:
                lo[i] = e
            elif e > hi[i]:
                hi[i] = e
    return tuple(lo), tuple(hi)


def variables(nvars):
    """All generators x1..xn as a list."""
    return [Laurent.variable(i, nvars) for i in range(nvars)]
