"""Sparse multivariate Laurent polynomials with integer coefficients.

Each term is keyed by one int.  Variable x_i owns a FIELD_BITS-wide
field of the key holding its exponent plus BIAS, with x1 in the most
significant field.  So int order on keys is lex order on exponent
vectors, and the product of two monomials is one int addition (less the
bias of the second).  Every polynomial carries its per-variable degree
bounds.  They add exactly under `*` and under exact division over Z, so
the check that no exponent leaves its field costs O(nvars) per
operation; only a sum whose terms cancelled rescans its keys.  Exact
division runs lead-term elimination off a max-heap of remainder keys
(Monagan and Pearce, "Sparse polynomial division using a heap", 2011),
one x1 slice of the remainder at a time.  `exchange` is the one route
into it: it divides a sum of monomials in polynomials and makes each
slice of that sum only when the division reaches it, so a dividend far
larger than its quotient is held whole only when the division fails.
`divexact` is its case of one monomial.  The term guard bounds what is
held: each power and head product, each dividend slice, the quotient
and any remainder.  Its value is held in `errors`, beside
TermGuardExceeded, so a run that makes no polynomial never loads this
module; `set_term_guard`, `get_term_guard` and DEFAULT_TERM_GUARD import
from here as well.  Every sum of term products (a product, a dividend
slice with the products waiting to land in it, a remainder) goes
through one accumulate loop, `_slice_product`.

The public boundary stays on exponent tuples: the constructor takes a
{tuple: coefficient} map, `terms` gives one back, and `render` and
`denominator_vector` speak in exponent vectors.  `rename` permutes the
variables by moving the exponent fields of every key, with no
arithmetic on terms.

Coefficients stay integers throughout: the exchange dynamics only ever
needs ring operations plus exact division, and a rational coefficient
showing up anywhere would mean an invariant was already broken upstream.
"""

import functools
import heapq
import struct
from array import array
from operator import add, gt, sub

from .errors import (
    DEFAULT_TERM_GUARD,
    ArityMismatch,
    DivisionByZero,
    ExponentOverflow,
    NotDivisible,
    ZeroPolynomial,
    check_term_guard,
    get_term_guard,
    set_term_guard,
)

# Width of one variable's exponent field; exponents lie in [-BIAS, BIAS).
FIELD_BITS = 16
BIAS = 1 << (FIELD_BITS - 1)
_STRUCT_CODE = {8: "b", 16: "h", 32: "i", 64: "q"}[FIELD_BITS]


@functools.lru_cache(maxsize=None)
def _codec(nvars):
    """(offset, pack, unpack) for keys of nvars fields.

    offset holds BIAS in every field.  A biased field is its exponent's
    two's complement with the top bit flipped, so XOR with offset turns
    a key into packed signed fields and back.
    """
    offset = BIAS * (((1 << FIELD_BITS * nvars) - 1) // ((1 << FIELD_BITS) - 1))
    layout = struct.Struct(">%d%s" % (nvars, _STRUCT_CODE))
    width = layout.size

    def pack(exps):
        return int.from_bytes(layout.pack(*exps), "big") ^ offset

    def unpack(key):
        return layout.unpack((key ^ offset).to_bytes(width, "big"))

    return offset, pack, unpack


def _fit(lo, hi):
    """Raise ExponentOverflow unless the box [lo, hi] fits every field."""
    for i, (l, h) in enumerate(zip(lo, hi)):
        if l < -BIAS or h >= BIAS:
            raise ExponentOverflow(
                "exponent of x%d reaches %d, outside the %d-bit field [%d, %d]"
                % (i + 1, l if l < -BIAS else h, FIELD_BITS, -BIAS, BIAS - 1)
            )


def _bounds(vectors):
    """Per-variable (lo, hi) bounds of a nonempty run of exponent vectors."""
    columns = list(zip(*vectors))
    return tuple(map(min, columns)), tuple(map(max, columns))


def _scan(packed, nvars):
    """Per-variable (lo, hi) exponent bounds of packed keys; None if empty."""
    if not packed:
        return None, None
    return _bounds(map(_codec(nvars)[2], packed))


def _new(nvars, packed, lo, hi):
    """Wrap a packed term map whose exact degree bounds are lo, hi."""
    check_term_guard(len(packed))
    p = object.__new__(Laurent)
    p.nvars = nvars
    p._packed = packed
    p._lo = lo
    p._hi = hi
    p._hash = None
    return p


def _shift(nvars):
    """Bit offset of the x1 field; key >> _shift(nvars) is x1's biased
    exponent, the key's slice."""
    return FIELD_BITS * (nvars - 1)


def _divide(n, plan, divisor, qlo, qhi):
    """Lead-term elimination of a dividend by a packed divisor.

    The dividend is given by its slice plan (see `_slice_plan`), and
    each of its x1 slices is multiplied out when it is reached.  Slices
    are eliminated in descending order, each off a max-heap of its keys
    with lazy deletion.  The products of a slice's quotient terms with
    the divisor terms of lower x1 exponent land in lower slices; they
    wait, one (quotient terms, divisor terms) pair per lower slice they
    reach, until that slice is reached, so only one slice of the
    remainder is held at a time.  Each slice is held to the term guard
    once its waiting products have landed.

    Returns (quotient terms, exact).  exact is False when a remainder
    lead's coefficient is not a multiple of the divisor's lead
    coefficient, or the quotient term it gives lies outside the box
    qlo..qhi; the quotient terms are then those found before it.
    """
    offset, _, unpack = _codec(n)
    shift = _shift(n)
    lead_b = max(divisor)
    lc_b = divisor[lead_b]
    # quotient term x^q lies in the box iff the remainder lead it
    # comes from, x^q times the divisor's lead, lies in this one
    lead_e = unpack(lead_b)
    rlo = tuple(map(add, qlo, lead_e))
    rhi = tuple(map(add, qhi, lead_e))
    # the divisor's other terms, as key steps down from its lead, by how
    # many slices down they move a product
    top_b = lead_b >> shift
    drops = {}
    for kb, cb in divisor.items():
        if kb != lead_b:
            drops.setdefault(top_b - (kb >> shift), []).append((kb - lead_b, cb))
    same = drops.pop(0, [])
    lower = sorted(drops.items())

    # slice: [(quotient terms as (remainder lead, -coeff), divisor steps)]
    waiting = {}
    todo = [-s for s in plan]
    heapq.heapify(todo)
    heappush, heappop = heapq.heappush, heapq.heappop
    quot = {}
    while todo:
        s = -heappop(todo)
        # the slice's own products, then the waiting ones landing in it
        rem = _slice_product(plan.get(s, []) + waiting.pop(s, []))
        check_term_guard(len(rem))
        heap = [-key for key in rem]
        heapq.heapify(heap)
        found = []
        while rem:
            lead_r = -heappop(heap)
            c = rem.get(lead_r)
            if c is None:  # cancelled since it was pushed
                continue
            if c % lc_b or any(
                not l <= e <= h for e, l, h in zip(unpack(lead_r), rlo, rhi)
            ):
                return quot, False
            qc = c // lc_b
            quot[lead_r - lead_b + offset] = qc
            check_term_guard(len(quot))
            del rem[lead_r]
            found.append((lead_r, -qc))
            for step, cb in same:
                key = lead_r + step
                old = rem.get(key)
                if old is None:
                    rem[key] = -qc * cb
                    heappush(heap, -key)
                else:
                    total = old - qc * cb
                    if total:
                        rem[key] = total
                    else:
                        del rem[key]
        if found:
            for d, steps in lower:
                t = s - d
                if t not in waiting:
                    waiting[t] = []
                    if t not in plan:
                        heappush(todo, -t)
                waiting[t].append((found, steps))
    return quot, True


class Laurent:
    """Immutable sparse Laurent polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "_packed", "_lo", "_hi", "_hash")

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
        check_term_guard(len(clean))
        lo = hi = None
        if clean:
            lo, hi = _bounds(clean)
            _fit(lo, hi)
        pack = _codec(nvars)[1]
        self._packed = {pack(exps): coeff for exps, coeff in clean.items()}
        self._lo = lo
        self._hi = hi
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

    # -- the tuple boundary ---------------------------------------------

    @property
    def terms(self):
        """{exponent tuple: coefficient}, unpacked afresh on each access."""
        unpack = _codec(self.nvars)[2]
        return {unpack(key): coeff for key, coeff in self._packed.items()}

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self._packed

    def as_variable(self):
        """Index i if this polynomial is exactly x_{i+1}, else None.

        A scalar multiple of a variable does not count.
        """
        if len(self._packed) != 1:
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
        out = dict(self._packed)
        cancelled = False
        for key, coeff in other._packed.items():
            total = out.get(key, 0) + coeff
            if total:
                out[key] = total
            else:
                del out[key]
                cancelled = True
        if cancelled:
            lo, hi = _scan(out, self.nvars)
        elif not self._packed:
            lo, hi = other._lo, other._hi
        elif not other._packed:
            lo, hi = self._lo, self._hi
        else:
            # no term cancelled, so the keys are the union of both sides'
            lo = tuple(map(min, self._lo, other._lo))
            hi = tuple(map(max, self._hi, other._hi))
        return _new(self.nvars, out, lo, hi)

    __radd__ = __add__

    def __neg__(self):
        return _new(
            self.nvars, {k: -c for k, c in self._packed.items()}, self._lo, self._hi
        )

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
        if not self._packed or not other._packed:
            return Laurent.zero(self.nvars)
        # extreme degrees add under a product over an integral domain
        lo = tuple(map(add, self._lo, other._lo))
        hi = tuple(map(add, self._hi, other._hi))
        _fit(lo, hi)
        # the bias comes off the smaller operand's keys
        a, b = sorted((self._packed, other._packed), key=len)
        offset = _codec(self.nvars)[0]
        out = _slice_product(
            [([(ka - offset, ca) for ka, ca in a.items()], list(b.items()))]
        )
        return _new(self.nvars, out, lo, hi)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self._packed)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("only integer powers are defined")
        if k < 0:
            # negative powers exist only for units: one term, coefficient +-1
            if len(self._packed) != 1:
                raise ValueError("negative power of a non-monomial")
            (exps, coeff), = self.terms.items()
            if coeff not in (1, -1):
                raise ValueError("negative power of a non-unit coefficient")
            inverse = Laurent(self.nvars, {tuple(-e for e in exps): coeff})
            return inverse ** (-k)
        if k == 0:
            return Laurent.one(self.nvars)
        # square and multiply, starting from the base rather than from 1
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other):
        if isinstance(other, int):
            other = Laurent.const(other, self.nvars)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.nvars == other.nvars and self._packed == other._packed

    def __hash__(self):
        """A constant hashes as the int it equals."""
        if self._hash is None:
            packed, origin = self._packed, _codec(self.nvars)[0]
            if packed.keys() <= {origin}:
                self._hash = hash(packed.get(origin, 0))
            else:
                self._hash = hash((self.nvars, frozenset(packed.items())))
        return self._hash

    # -- exact division -------------------------------------------------

    def divexact(self, other):
        """Quotient q with q * other == self, exactly.

        Works by repeated leading-term elimination in lex order, one x1
        slice of the remainder at a time: it is `exchange` with self as
        the one monomial.  If the division is exact, every quotient
        exponent lies in the box given by the per-variable degree bounds
        of self and other, and every leading-coefficient division is an
        exact integer division; any violation raises NotDivisible
        carrying the remainder so far.
        """
        other = self._coerce(other)
        if other is None:
            raise TypeError("divexact needs a Laurent or int divisor")
        return exchange([[(self, 1)]], other)

    def _remainder(self, other, quot):
        """self less other times the packed quotient terms quot."""
        n = self.nvars
        offset = _codec(n)[0]
        rem = _slice_product(
            [([(kq - offset, -qc) for kq, qc in quot.items()],
              list(other._packed.items()))],
            dict(self._packed),
        )
        return _new(n, rem, *_scan(rem, n))

    # -- renaming --------------------------------------------------------

    def rename(self, perm):
        """This polynomial with each x_{i+1} renamed x_{perm[i]+1}.

        For a permutation perm of range(nvars) this is a ring
        automorphism.  It moves each key's exponent fields, all terms at
        once through one array of fields, so it neither multiplies nor
        divides, and the degree bounds permute with the fields.
        """
        n = self.nvars
        if sorted(perm) != list(range(n)):
            raise ValueError("%r is not a permutation of %d variables" % (perm, n))
        packed = self._packed
        if not packed:
            return self
        width = FIELD_BITS // 8 * n
        fields = array(
            _STRUCT_CODE, b"".join(key.to_bytes(width, "big") for key in packed)
        )
        moved = array(_STRUCT_CODE, fields)
        for i, j in enumerate(perm):
            moved[j::n] = fields[i::n]
        raw = moved.tobytes()
        keys = [
            int.from_bytes(raw[p : p + width], "big")
            for p in range(0, len(raw), width)
        ]
        lo, hi = [None] * n, [None] * n
        for i, j in enumerate(perm):
            lo[j], hi[j] = self._lo[i], self._hi[i]
        return _new(n, dict(zip(keys, packed.values())), tuple(lo), tuple(hi))

    # -- degrees ---------------------------------------------------------

    def denominator_vector(self):
        """Negated per-variable minimum exponents."""
        if self.is_zero():
            raise ZeroPolynomial("denominator vector of the zero polynomial")
        return tuple(-x for x in self._lo)

    # -- rendering ---------------------------------------------------------

    def render(self, limit=None):
        """Canonical text form, terms in descending lex order.

        With a limit, only that many leading terms are written, followed
        by the total term count when some were left out.
        """
        packed = self._packed
        if not packed:
            return "0"
        if limit is not None and len(packed) > limit:
            keys = heapq.nlargest(limit, packed)
        else:
            keys = sorted(packed, reverse=True)
        unpack = _codec(self.nvars)[2]
        chunks = []
        for key in keys:
            coeff = packed[key]
            factors = []
            for i, e in enumerate(unpack(key)):
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
        if len(keys) < len(packed):
            out += " + ... (%d terms)" % len(packed)
        return out

    __str__ = render

    def __repr__(self):
        return "Laurent(%d, %s)" % (self.nvars, self.render())


def exchange(monomials, divisor):
    """Exact quotient of a sum of monomials in Laurent polynomials.

    Each monomial is a list of (base, exponent) pairs with positive
    exponents; an empty list is the constant 1.  divisor and every base
    are Laurent polynomials in as many variables.  The result, and any
    error, is that of forming the sum, each monomial from its first
    factor, and dividing it exactly.  But the last multiplication of
    each monomial is done one x1 slice at a time, as the division (see
    `_divide`) reaches that slice, so the dividend, often far larger
    than the quotient, is held whole only when the division fails.
    """
    n = divisor.nvars
    plan, lo, hi, whole = _slice_plan(monomials, n)
    if not divisor._packed:
        raise DivisionByZero("division by the zero polynomial")
    if not plan:
        return Laurent.zero(n)
    qlo = tuple(map(sub, lo, divisor._lo))
    qhi = tuple(map(sub, hi, divisor._hi))
    if whole is not None:
        # lo..hi are the dividend's own bounds: an exact quotient fills
        # this box, so it must be nonempty and fit the fields
        if any(map(gt, qlo, qhi)):
            raise NotDivisible(whole)
        _fit(qlo, qhi)
    # a quotient term outside the fields has no key; for a sum, which
    # only the formed dividend's own bounds can judge, it ends the pass
    qlo = tuple(max(l, -BIAS) for l in qlo)
    qhi = tuple(min(h, BIAS - 1) for h in qhi)
    quot, exact = _divide(n, plan, divisor._packed, qlo, qhi)
    if exact:
        return _new(n, quot, *_scan(quot, n))
    if whole is not None:
        raise NotDivisible(whole._remainder(divisor, quot))
    # only now form the dividend, where the remainder starts, and divide
    # it again with its own bounds, as divexact would
    dividend = _slice_product([pair for pairs in plan.values() for pair in pairs])
    return exchange([[(_new(n, dividend, *_scan(dividend, n)), 1)]], divisor)


def _slice_plan(monomials, n):
    """The nonzero products of a sum, cut into x1 slices, unmultiplied.

    Returns (plan, lo, hi, whole).  plan is {slice: [(head terms, last
    terms)]}: each product is its head, the product of all its factors
    but the last, times its last factor.  Head terms carry keys less the
    bias word, so a key sum is a product key; a product of one factor,
    or of none (the constant 1), has the single term 1 for its head.
    Each power and head is formed, and each product's box checked
    against the fields, in the order forming the products would.  lo..hi
    bounds every term of the sum; whole is the dividend when the sum is
    a single power, which is held already and whose bounds are its own.
    """
    offset = _codec(n)[0]
    shift = _shift(n)
    plan = {}
    lo = hi = whole = None
    for pairs in monomials:
        head = last = None
        for i, (base, e) in enumerate(pairs):
            power = base**e
            if power.nvars != n:
                raise ArityMismatch(
                    "operands have %d and %d variables" % (power.nvars, n)
                )
            if i < len(pairs) - 1:
                head = power if head is None else head * power
            else:
                last = power
        if last is None:
            last = _new(n, {offset: 1}, (0,) * n, (0,) * n)
        if not last._packed or (head is not None and not head._packed):
            continue  # a zero product
        if head is None:
            plo, phi = last._lo, last._hi
            if len(monomials) == len(pairs) == 1:
                whole = last
        else:
            plo = tuple(map(add, head._lo, last._lo))
            phi = tuple(map(add, head._hi, last._hi))
            _fit(plo, phi)
        lo = plo if lo is None else tuple(map(min, lo, plo))
        hi = phi if hi is None else tuple(map(max, hi, phi))
        last_slices = {}
        for key, coeff in last._packed.items():
            last_slices.setdefault(key >> shift, []).append((key, coeff))
        head_slices = {}
        for key, coeff in (head._packed if head is not None else {offset: 1}).items():
            head_slices.setdefault(key >> shift, []).append((key - offset, coeff))
        for sa, a in head_slices.items():
            for sb, b in last_slices.items():
                plan.setdefault(sa + sb - BIAS, []).append((a, b))
    return plan, lo, hi, whole


def _slice_product(pairs, out=None):
    """Packed term map of the sum of the products of pairs of term
    lists, added into out when it is given.  Each pair's key sums must
    be product keys: one of its lists carries keys less the bias word
    (a head), or steps down from a key (a divisor's terms less its
    lead)."""
    if out is None:
        out = {}
    get = out.get
    for a, b in pairs:
        if len(a) > len(b):  # the shorter list in the outer loop
            a, b = b, a
        for ka, ca in a:
            for kb, cb in b:
                key = ka + kb
                total = get(key, 0) + ca * cb
                if total:
                    out[key] = total
                else:
                    del out[key]
    return out


def variables(nvars):
    """All generators x1..xn as a list."""
    return [Laurent.variable(i, nvars) for i in range(nvars)]
