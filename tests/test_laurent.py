"""Exact Laurent polynomial ring: arithmetic laws, exact division, rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zamobelt
from zamobelt.errors import (
    ExponentOverflow,
    InputError,
    NotDivisible,
    TermGuardExceeded,
    ZeroPolynomial,
)
from zamobelt.laurent import (
    BIAS,
    Laurent,
    exchange,
    get_term_guard,
    set_term_guard,
    variables,
)

NVARS = 3


def exponents() -> st.SearchStrategy:
    return st.tuples(*[st.integers(min_value=-5, max_value=5)] * NVARS)


def polys(min_terms: int = 0) -> st.SearchStrategy:
    terms = st.dictionaries(
        exponents(),
        st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0),
        min_size=min_terms,
        max_size=6,
    )
    return terms.map(lambda t: Laurent(NVARS, dict(t)))


# -- construction and equality -------------------------------------------------


def test_zero_terms_are_dropped():
    p = Laurent(2, {(0, 0): 1, (1, 0): 0})
    assert p == Laurent.one(2)
    assert len(p.terms) == 1


def test_variable_and_const():
    x1, x2 = variables(2)
    assert x1.terms == {(1, 0): 1}
    assert x2.terms == {(0, 1): 1}
    assert Laurent.const(7, 2).terms == {(0, 0): 7}
    assert not Laurent.zero(2)
    assert Laurent.const(0, 2) == Laurent.zero(2)


def test_as_variable_rejects_scalar_multiples():
    x1, x2 = variables(2)
    assert x1.as_variable() == 0
    assert x2.as_variable() == 1
    assert (2 * x1).as_variable() is None
    assert (x1 * x2).as_variable() is None
    assert (x1 + x2).as_variable() is None
    assert Laurent.monomial((-1, 0)).as_variable() is None


# -- ring laws -----------------------------------------------------------------


@given(a=polys(), b=polys())
def test_add_commutative(a: Laurent, b: Laurent):
    assert a + b == b + a


@given(a=polys(), b=polys(), c=polys())
def test_add_associative(a: Laurent, b: Laurent, c: Laurent):
    assert (a + b) + c == a + (b + c)


@given(a=polys())
def test_additive_inverse(a: Laurent):
    assert a - a == Laurent.zero(NVARS)
    assert a + (-a) == Laurent.zero(NVARS)


@given(a=polys(), b=polys())
@settings(max_examples=60)
def test_mul_commutative(a: Laurent, b: Laurent):
    assert a * b == b * a


@given(a=polys(), b=polys(), c=polys())
@settings(max_examples=40)
def test_mul_associative(a: Laurent, b: Laurent, c: Laurent):
    assert (a * b) * c == a * (b * c)


@given(a=polys(), b=polys(), c=polys())
@settings(max_examples=40)
def test_distributive(a: Laurent, b: Laurent, c: Laurent):
    assert a * (b + c) == a * b + a * c


@given(a=polys())
def test_units(a: Laurent):
    assert a * Laurent.one(NVARS) == a
    assert a + Laurent.zero(NVARS) == a
    assert a * Laurent.zero(NVARS) == Laurent.zero(NVARS)


@given(a=polys(), k=st.integers(min_value=0, max_value=5))
@settings(max_examples=40)
def test_pow_matches_repeated_product(a: Laurent, k: int):
    expected = Laurent.one(NVARS)
    for _ in range(k):
        expected = expected * a
    assert a**k == expected


@given(a=polys(), n=st.integers(min_value=-9, max_value=9))
def test_int_promotion(a: Laurent, n: int):
    assert a + n == a + Laurent.const(n, NVARS)
    assert n * a == Laurent.const(n, NVARS) * a
    assert a - n == a - Laurent.const(n, NVARS)


# -- exact division --------------------------------------------------------


@given(a=polys(), b=polys(min_terms=1))
@settings(max_examples=80)
def test_divexact_recovers_factor(a: Laurent, b: Laurent):
    assert (a * b).divexact(b) == a


def test_divexact_monomial_shift():
    x1, x2 = variables(2)
    p = x1 * x2 + x2
    assert p.divexact(x2) == x1 + 1


def test_divexact_golden_binomial():
    # (x1^2 - x2^2) / (x1 - x2) = x1 + x2
    x1, x2 = variables(2)
    assert (x1**2 - x2**2).divexact(x1 - x2) == x1 + x2


def test_divexact_raises_and_carries_remainder():
    x1, x2 = variables(2)
    with pytest.raises(NotDivisible) as err:
        (x1 + 1).divexact(x2 + 1)
    assert err.value.remainder


def test_divexact_rejects_inexact_coefficient():
    x1, x2 = variables(2)
    with pytest.raises(NotDivisible):
        (x1 + x2).divexact(2 * x1)


def test_divexact_by_zero():
    x1, _ = variables(2)
    with pytest.raises(ZeroDivisionError):
        x1.divexact(Laurent.zero(2))


# -- degrees, denominators, rendering -------------------------------------


def profile(p: Laurent) -> tuple:
    """Per-variable (min, max) exponent pairs: the carried degree bounds."""
    return tuple(zip(p._lo, p._hi))


def test_degree_profile_and_denominator_vector():
    x1, x2 = variables(2)
    p = (x2 + 1).divexact(x1)  # (x2 + 1)/x1
    assert profile(p) == ((-1, -1), (0, 1))
    assert p.denominator_vector() == (1, 0)
    assert x1.denominator_vector() == (-1, 0)


def test_degree_profile_of_zero_raises():
    # the zero polynomial carries no bounds, so it has no denominator vector
    zero = Laurent.zero(2)
    assert zero._lo is None and zero._hi is None
    with pytest.raises(ZeroPolynomial):
        zero.denominator_vector()


@given(a=polys(min_terms=1), b=polys(min_terms=1))
@settings(max_examples=60)
def test_degree_profile_additive_under_product(a: Laurent, b: Laurent):
    # extreme degrees add under multiplication over an integral domain
    pa = profile(a)
    pb = profile(b)
    pc = profile(a * b)
    for v in range(NVARS):
        assert pc[v][0] == pa[v][0] + pb[v][0]
        assert pc[v][1] == pa[v][1] + pb[v][1]


def test_render_goldens():
    x1, x2 = variables(2)
    assert x1.render() == "x1"
    assert Laurent.one(2).render() == "1"
    assert Laurent.const(-3, 2).render() == "-3"
    assert ((x2 + 1).divexact(x1)).render() == "x1^-1*x2 + x1^-1"
    assert (x1 - x2).render() == "x1 - x2"
    assert (2 * x1 * x2 + x1 - 5).render() == "2*x1*x2 + x1 - 5"
    assert (x1**2).render() == "x1^2"


@given(a=polys())
def test_render_round_trips_through_eval(a: Laurent):
    # the rendered form is a valid Python expression in x1..x3
    names = {"x%d" % (i + 1): v for i, v in enumerate(variables(NVARS))}
    text = a.render().replace("^", "**")
    value = eval(text, {"__builtins__": {}}, names)
    if isinstance(value, int):
        value = Laurent.const(value, NVARS)
    assert value == a


# -- the term guard ---------------------------------------------------------


@pytest.mark.parametrize("limit", [2.5, True, 1000000.9, "5", 0])
def test_set_term_guard_refuses_what_is_not_a_positive_int(limit):
    keep = get_term_guard()
    with pytest.raises(ValueError, match="^term guard must be a positive int, not "):
        zamobelt.set_term_guard(limit)
    assert get_term_guard() == keep


def test_term_guard_trips_and_restores():
    keep = get_term_guard()
    try:
        set_term_guard(3)
        x1, x2, x3 = variables(3)
        with pytest.raises(TermGuardExceeded):
            (x1 + x2) * (x1 + x3)
    finally:
        set_term_guard(keep)
    assert get_term_guard() == keep


# -- differential test against a tuple-keyed reference -----------------------
#
# The reference below is the plain {exponent tuple: coefficient} arithmetic
# the packed kernel replaced, kept here only as an oracle.


class RefNotDivisible(Exception):
    def __init__(self, remainder):
        self.remainder = remainder


def ref_add(a, b):
    out = dict(a)
    for exps, coeff in b.items():
        total = out.get(exps, 0) + coeff
        if total:
            out[exps] = total
        else:
            out.pop(exps, None)
    return out


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            total = out.get(key, 0) + ca * cb
            if total:
                out[key] = total
            else:
                del out[key]
    return out


def ref_bounds(terms):
    columns = list(zip(*terms))
    return [min(c) for c in columns], [max(c) for c in columns]


def ref_divexact(a, b):
    if not a:
        return {}
    lo_a, hi_a = ref_bounds(a)
    lo_b, hi_b = ref_bounds(b)
    qlo = [x - y for x, y in zip(lo_a, lo_b)]
    qhi = [x - y for x, y in zip(hi_a, hi_b)]
    if any(l > h for l, h in zip(qlo, qhi)):
        raise RefNotDivisible(a)
    lead_b = max(b)
    rem = dict(a)
    quot = {}
    while rem:
        lead_r = max(rem)
        qe = tuple(x - y for x, y in zip(lead_r, lead_b))
        c = rem[lead_r]
        if c % b[lead_b] or any(not l <= e <= h for e, l, h in zip(qe, qlo, qhi)):
            raise RefNotDivisible(rem)
        qc = c // b[lead_b]
        quot[qe] = qc
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(qe, eb))
            total = rem.get(key, 0) - qc * cb
            if total:
                rem[key] = total
            else:
                rem.pop(key, None)
    return quot


def ref_render(terms):
    if not terms:
        return "0"
    chunks = []
    for exps in sorted(terms, reverse=True):
        coeff = terms[exps]
        mono = "*".join(
            "x%d" % (i + 1) if e == 1 else "x%d^%d" % (i + 1, e)
            for i, e in enumerate(exps)
            if e
        )
        mag = abs(coeff)
        body = str(mag) if not mono else mono if mag == 1 else "%d*%s" % (mag, mono)
        chunks.append(("-" if coeff < 0 else "+", body))
    out = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
    return out + "".join(" %s %s" % chunk for chunk in chunks[1:])


def agrees(packed: Laurent, ref: dict) -> bool:
    """Same terms, text and degree bounds, the last carried, not rescanned."""
    if packed.terms != ref or packed.render() != ref_render(ref):
        return False
    return not ref or profile(packed) == tuple(zip(*ref_bounds(ref)))


@given(a=polys(), b=polys())
@settings(max_examples=150)
def test_packed_sum_and_product_match_reference(a: Laurent, b: Laurent):
    assert agrees(a + b, ref_add(a.terms, b.terms))
    assert agrees(a * b, ref_mul(a.terms, b.terms))
    negated = {e: -c for e, c in ref_mul(a.terms, b.terms).items()}
    assert agrees(a - a * b, ref_add(a.terms, negated))
    # a's terms cancel, so the sum's degree bounds must shrink back to b's
    assert agrees((a + b) - a, b.terms)


@given(a=polys(), b=polys(min_terms=1), c=polys(min_terms=1))
@settings(max_examples=150)
def test_packed_divexact_matches_reference(a: Laurent, b: Laurent, c: Laurent):
    # a*b + c is divisible by b only sometimes; both kernels must agree
    # on which, and on the quotient or the remainder
    dividend = a * b + c
    try:
        expected = ref_divexact(dividend.terms, b.terms)
    except RefNotDivisible as ref_err:
        with pytest.raises(NotDivisible) as err:
            dividend.divexact(b)
        assert agrees(err.value.remainder, ref_err.remainder)
    else:
        assert agrees(dividend.divexact(b), expected)
    assert agrees((a * b).divexact(b), a.terms)


# -- exchange: a sum of monomials over a divisor, sliced --------------------


def formed_quotient(monomials, divisor):
    """What exchange must give: the sum formed, then divided."""
    dividend = Laurent.zero(divisor.nvars)
    for pairs in monomials:
        prod = Laurent.one(divisor.nvars)
        for base, e in pairs:
            prod = prod * base**e
        dividend = dividend + prod
    return dividend.divexact(divisor)


@given(a=polys(), b=polys(min_terms=1), c=polys(), d=polys(min_terms=1))
@settings(max_examples=150)
def test_exchange_matches_forming_the_sum(a, b, c, d):
    # exact for the first list, exact only sometimes for the second; an
    # empty monomial is the constant 1
    for monomials in (
        [[(b, 1), (a, 1)], [(b, 2), (c, 1), (d, 1)]],
        [[(a, 1), (d, 2)], [(c, 1)], []],
    ):
        try:
            expected = formed_quotient(monomials, b)
        except NotDivisible as want:
            with pytest.raises(NotDivisible) as got:
                exchange(monomials, b)
            assert str(got.value) == str(want)
            assert got.value.remainder == want.remainder
        else:
            assert agrees(exchange(monomials, b), expected.terms)


def test_exact_exchange_never_forms_the_dividend(monkeypatch):
    x1, x2, x3 = variables(3)
    a = (x1 + x2**-1 + x3 + 2) ** 3
    b = (x1 * x3 + x2 - 1) ** 2
    c = x1**-2 + x2 * x3 + 1
    monomials = [[(a, 1), (b, 2)], [(b, 1), (c, 2)]]
    expected = formed_quotient(monomials, b)

    def refuse(*args):
        raise AssertionError("the dividend was formed")

    monkeypatch.setattr(Laurent, "divexact", refuse)
    monkeypatch.setattr(Laurent, "__add__", refuse)
    assert agrees(exchange(monomials, b), expected.terms)


def test_exchange_raises_what_the_formed_sum_raises():
    x1, x2 = variables(2)
    with pytest.raises(NotDivisible) as err:
        exchange([[(x1, 1)], []], x2 + 1)
    assert err.value.remainder == x1 + 1
    top = Laurent.monomial((BIAS - 1, 0))
    with pytest.raises(ExponentOverflow) as err:
        exchange([[(top, 1), (x1, 1)], []], x2)
    with pytest.raises(ExponentOverflow) as want:
        top * x1
    assert str(err.value) == str(want.value)
    keep = get_term_guard()
    try:
        set_term_guard(5)
        p = x1 + x2 + 1
        with pytest.raises(TermGuardExceeded) as err:
            exchange([[(p, 2)], [(x1, 1)]], p)
        with pytest.raises(TermGuardExceeded) as want:
            p**2
        assert str(err.value) == str(want.value)
    finally:
        set_term_guard(keep)


def test_exchange_holds_the_guard_to_what_it_holds():
    # a*b has 9 terms, past a guard of 5, but it is never held: each of
    # its x1 slices has 3, and no power, head or quotient passes 5
    x1, x2, _ = variables(3)
    a = x1**2 + x1 + 1
    b = x2**2 + x2 + 1
    monomials = [[(a, 1), (b, 1)], [(b, 2)]]
    expected = formed_quotient(monomials, b)
    keep = get_term_guard()
    try:
        set_term_guard(5)
        with pytest.raises(TermGuardExceeded):
            a * b
        assert agrees(exchange(monomials, b), expected.terms)
    finally:
        set_term_guard(keep)
    assert expected == a + b


def test_a_slice_past_the_guard_trips_it():
    # the x1^0 slice of a*b has 9 terms, the whole product 12
    x1, x2, x3 = variables(3)
    a = x1 + x3**2 + x3 + 1
    b = x2**2 + x2 + 1
    held = a * b
    keep = get_term_guard()
    try:
        set_term_guard(8)
        for run in (lambda: exchange([[(a, 1), (b, 1)]], b), lambda: held.divexact(b)):
            with pytest.raises(TermGuardExceeded) as err:
                run()
            assert str(err.value) == "polynomial has 9 terms, guard is 8"
        set_term_guard(9)
        assert exchange([[(a, 1), (b, 1)]], b) == a
        assert held.divexact(b) == a
    finally:
        set_term_guard(keep)


def test_exchange_quotient_outside_the_fields_raises_as_formed():
    # each quotient has x1^BIAS, one past x1's field; a sum's box is
    # only a bound, so the formed dividend's own bounds must decide
    x1, x2 = variables(2)
    divisor = Laurent.monomial((-BIAS, 0))
    for monomials in ([[]], [[(x2, 1)], [(x2, 1), (x1, 1)], [(x2, 1)]]):
        with pytest.raises(ExponentOverflow) as err:
            exchange(monomials, divisor)
        with pytest.raises(ExponentOverflow) as want:
            formed_quotient(monomials, divisor)
        assert str(err.value) == str(want.value)
    # an empty quotient box is not divisible before it is out of the fields
    bottom = Laurent.monomial((-BIAS, 0))
    with pytest.raises(NotDivisible) as err:
        bottom.divexact(x1**7232 + x1**7233)
    assert err.value.remainder == bottom


# -- the exponent fields ---------------------------------------------------


def test_field_end_exponents_round_trip():
    ends = (-BIAS, BIAS - 1, 0)
    p = Laurent(3, {ends: 5, (BIAS - 1, -BIAS, 1): -2})
    assert p.terms == {ends: 5, (BIAS - 1, -BIAS, 1): -2}
    assert profile(p) == ((-BIAS, BIAS - 1), (-BIAS, BIAS - 1), (0, 1))
    assert p.render() == "-2*x1^%d*x2^%d*x3 + 5*x1^%d*x2^%d" % (
        BIAS - 1, -BIAS, -BIAS, BIAS - 1
    )
    top = Laurent.monomial((BIAS - 1, 0))
    assert (top * Laurent.monomial((-BIAS, 0))).terms == {(-1, 0): 1}
    assert (top * 3).divexact(top) == 3


def test_exponent_leaving_its_field_raises():
    x1, x2 = variables(2)
    top = Laurent.monomial((BIAS - 1, 0))
    bottom = Laurent.monomial((0, -BIAS))
    with pytest.raises(ExponentOverflow):
        top * x1
    with pytest.raises(ExponentOverflow):
        (top + x2) ** 2
    with pytest.raises(ExponentOverflow):
        bottom.divexact(x2)
    with pytest.raises(ExponentOverflow):
        bottom**-1
    with pytest.raises(ExponentOverflow):
        Laurent.monomial((BIAS, 0))
    with pytest.raises(ExponentOverflow):
        Laurent.monomial((0, -BIAS - 1))
    assert issubclass(ExponentOverflow, InputError)


# -- units, powers, the remainder text ---------------------------------------


def test_pow_starts_from_the_base(monkeypatch):
    x1, x2 = variables(2)
    p = x1 + x2
    seen = []
    real_mul = Laurent.__mul__

    def counting_mul(a, b):
        seen.append((a, b))
        return real_mul(a, b)

    monkeypatch.setattr(Laurent, "__mul__", counting_mul)
    assert p**1 is p
    assert not seen
    assert p**0 == Laurent.one(2)
    assert p**5 == p * p * p * p * p
    assert all(a != 1 and b != 1 for a, b in seen)


def test_not_divisible_message_is_bounded():
    x1, _ = variables(2)
    big = Laurent(2, {(i, -i): 1 for i in range(1000)})
    with pytest.raises(NotDivisible) as err:
        big.divexact(2 * x1 + 1)  # odd lead coefficient: fails at once
    remainder = err.value.remainder
    message = str(err.value)
    assert remainder == big
    assert len(message.encode()) < 1024
    assert message.endswith(" + ... (1000 terms)")
    assert message.startswith(
        "division left remainder " + remainder.render(limit=NotDivisible.SHOWN_TERMS)
    )


def test_not_divisible_message_of_a_small_remainder_is_whole():
    x1, x2 = variables(2)
    with pytest.raises(NotDivisible) as err:
        (x1 + 1).divexact(x2 + 1)
    assert str(err.value) == "division left remainder %s" % err.value.remainder
    assert "terms)" not in str(err.value)


@given(a=polys(), b=polys())
def test_hash_agrees_with_equality(a, b):
    assert hash(a * b) == hash(b * a)
    assert hash(Laurent(a.nvars, a.terms)) == hash(a)
    assert hash(a + b - b) == hash(a)


def test_a_constant_hashes_as_the_int_it_equals():
    assert {1: "int"}.get(Laurent.one(2)) == "int"
    assert Laurent.zero(3) in {0} and hash(Laurent.zero(3)) == hash(0)


@given(c=st.integers(min_value=-(10**20), max_value=10**20), n=st.integers(1, 4))
def test_constant_hash_agrees_with_int_equality(c, n):
    p = Laurent.const(c, n)
    assert p == c and hash(p) == hash(c)


# -- renaming the variables --------------------------------------------------


def permutations() -> st.SearchStrategy:
    return st.permutations(range(NVARS)).map(tuple)


def inverse(perm: tuple) -> tuple:
    out = [None] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return tuple(out)


def test_rename_golden():
    x1, x2, x3 = variables(3)
    p = 3 * x1**2 * x2 ** (-1) + x3 - 5
    # x1 -> x2, x2 -> x3, x3 -> x1
    assert p.rename((1, 2, 0)) == 3 * x2**2 * x3 ** (-1) + x1 - 5
    assert x1.rename((2, 0, 1)) == x3
    assert Laurent.zero(3).rename((1, 0, 2)) == 0
    ends = Laurent(3, {(-BIAS, BIAS - 1, 0): 5})
    assert ends.rename((2, 0, 1)).terms == {(BIAS - 1, 0, -BIAS): 5}


def test_rename_needs_a_permutation():
    x1, _ = variables(2)
    for bad in ((0, 0), (0,), (0, 1, 2), (1, 2)):
        with pytest.raises(ValueError):
            x1.rename(bad)


@given(a=polys(), perm=permutations())
def test_rename_moves_each_exponent_to_its_new_variable(a, perm):
    moved = {
        tuple(exps[inverse(perm)[j]] for j in range(NVARS)): c
        for exps, c in a.terms.items()
    }
    assert a.rename(perm).terms == moved


@given(a=polys(), b=polys(), perm=permutations())
def test_rename_is_a_ring_automorphism(a, b, perm):
    assert (a * b).rename(perm) == a.rename(perm) * b.rename(perm)
    assert (a + b).rename(perm) == a.rename(perm) + b.rename(perm)
    assert a.rename(perm).rename(inverse(perm)) == a


@given(a=polys(min_terms=1), perm=permutations())
def test_rename_permutes_the_degree_bounds_exactly(a, perm):
    renamed = profile(a.rename(perm))
    assert all(renamed[j] == profile(a)[i] for i, j in enumerate(perm))
    # the carried bounds are the exact bounds of the renamed terms
    assert renamed == tuple(zip(*ref_bounds(a.rename(perm).terms)))


@given(a=polys(), b=polys(), perm=permutations())
def test_rename_keeps_equality_and_hash_consistent(a, b, perm):
    ra, rb = a.rename(perm), b.rename(perm)
    assert (ra == rb) == (a == b)
    assert hash(ra) == hash(Laurent(NVARS, ra.terms))
    if a == b:
        assert hash(ra) == hash(rb)
