"""Hypothesis properties of Q(x): ring axioms, exact quotients, the hash/eq
contract with int and Fraction, faithful, round-tripping JSON, the
multiply-accumulate kernel behind matrix products against a naive sum, and
the gcd-free product with a monomial against the gcd path.

Elements mix integer, half-integer and 1/3 coefficients on exponent strides
1, 4 and 8, the shapes the integer storage and the stride-compressed gcd
take apart.
"""

from fractions import Fraction

import pytest

from qweyl import qring
from qweyl.qring import ONE, ZERO, X, LaurentPoly, RingElem, dot
from qweyl.repn import QMatrix
from qweyl.twist import zhat_inverse

from json_decode import elem_from_json, through_text

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
settings = hypothesis.settings(max_examples=60, deadline=None)

coeffs = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))


@st.composite
def polys(draw):
    stride = draw(st.sampled_from([1, 4, 8]))
    off = draw(st.integers(-3, 3))
    terms = draw(st.dictionaries(st.integers(-2, 3), coeffs, max_size=4))
    return LaurentPoly({off + stride * i: c for i, c in terms.items()})


@st.composite
def elems(draw):
    num = draw(polys())
    den = draw(polys().filter(lambda p: not p.is_zero))
    return RingElem(num, den)


nonzero = elems().filter(lambda e: not e.is_zero)
shifts = st.one_of(st.just(LaurentPoly()),
                   st.builds(LaurentPoly.monomial, st.integers(-8, 8), coeffs))


@settings
@given(elems(), elems(), elems())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + ZERO == a and a * ONE == a
    assert a - a == ZERO
    assert a - b == a + (-b)


@settings
@given(elems(), nonzero)
def test_quotient_times_divisor(a, b):
    assert (a / b) * b == a
    assert b * b.inverse() == ONE


@settings
@given(coeffs)
def test_constants_hash_and_compare_like_numbers(c):
    computed = (X * c) / X
    for value in (RingElem.from_rational(c), computed, LaurentPoly.monomial(0, c)):
        assert value == c
        assert hash(value) == hash(c)
        if c.denominator == 1:
            assert value == int(c)
            assert hash(value) == hash(int(c))
    assert len({RingElem.from_rational(c), computed, c}) == 1


@settings
@given(elems(), nonzero)
def test_equal_forms_hash_equal(a, s):
    b = RingElem(a.num * s.num, a.den * s.num)
    assert a == b
    assert hash(a) == hash(b)


@settings
@given(elems(), nonzero, shifts, shifts)
def test_json_is_faithful(a, s, dn, dd):
    # b moves the numerator and the denominator of a by a monomial each,
    # often zero, and stores them over a common factor s
    hypothesis.assume(not (a.den + dd).is_zero)
    b = RingElem((a.num + dn) * s.num, (a.den + dd) * s.num)
    assert (a.to_json() == b.to_json()) == (a == b)


@settings
@given(elems())
def test_json_round_trip(a):
    assert elem_from_json(through_text(a.to_json())) == a


# matrix entries: zero, polynomials (the kernel's accumulation) and rational
# functions (its fallback through the ring operators)
entries = st.one_of(st.just(ZERO), st.builds(RingElem, polys()), elems())


def naive_sum(products):
    """The independent oracle: RingElem * and + one product at a time."""
    total = ZERO
    for a, b in products:
        total = total + a * b
    return total


def naive_product(a, b):
    return tuple(tuple(naive_sum((a[i, k], b[k, j]) for k in range(a.cols))
                       for j in range(b.cols)) for i in range(a.rows))


@st.composite
def products(draw):
    n, m, p = (draw(st.integers(1, 4)) for _ in range(3))
    a = [[draw(entries) for _ in range(m)] for _ in range(n)]
    b = [[draw(entries) for _ in range(p)] for _ in range(m)]
    a[draw(st.integers(0, n - 1))] = [ZERO] * m
    zero_col = draw(st.integers(0, p - 1))
    for row in b:
        row[zero_col] = ZERO
    return QMatrix(a), QMatrix(b)


def assert_canonical_zero(e):
    assert e == ZERO and e.is_zero and e.den.is_one


@settings
@given(st.lists(st.tuples(entries, entries), max_size=6))
def test_dot_matches_naive_sum(pairs):
    assert dot(pairs) == naive_sum(pairs)
    # the same products with their negations sum to exactly zero
    assert_canonical_zero(dot(pairs + [(-a, b) for a, b in pairs]))


@settings
@given(products())
def test_matrix_product_matches_naive_loop(ab):
    a, b = ab
    product = a * b
    assert product.entries == naive_product(a, b)
    for row in product.entries:
        for e in row:
            if not e:
                assert_canonical_zero(e)
    # [A | A] times [B ; -B]: every entry is a sum that cancels exactly
    doubled = QMatrix([ra + ra for ra in a.entries])
    stacked = QMatrix(b.entries + (-b).entries)
    for row in (doubled * stacked).entries:
        for e in row:
            assert_canonical_zero(e)


def test_entry_mixing_denominators_two_and_three():
    a = QMatrix([[X / 2 + 1, X * X / 3]])
    b = QMatrix([[X - Fraction(1, 2)], [1 + X / 3]])
    expected = RingElem(LaurentPoly({3: Fraction(1, 9), 2: Fraction(5, 6),
                                     1: Fraction(3, 4), 0: Fraction(-1, 2)}))
    assert (a * b)[0, 0] == expected
    # and a sum over denominators 2, 3 and 6 that cancels to zero
    c = QMatrix([[X / 2, X / 3, X]])
    d = QMatrix([[ONE], [ONE], [RingElem.from_rational(Fraction(-5, 6))]])
    assert_canonical_zero((c * d)[0, 0])


monomials = st.builds(lambda e, c: RingElem(LaurentPoly.monomial(e, c)),
                      st.integers(-8, 8), coeffs.filter(bool))
rationals = elems().filter(lambda e: not e.den.is_one)


def gcd_path(num, den):
    """num / den canonicalized in full: the gcd of num and den is cancelled."""
    e = RingElem(num, den)
    return e.num, e.den


@settings
@given(monomials, rationals)
def test_monomial_times_rational_matches_gcd_path(m, a):
    expected = gcd_path(m.num * a.num, m.den * a.den)
    assert ((m * a).num, (m * a).den) == expected
    assert ((a * m).num, (a * m).den) == expected


def test_negated_rational_matrix_needs_no_gcd(monkeypatch):
    m = zhat_inverse(7, 1)
    entries = [a for row in m.entries for a in row]
    assert sum(not a.den.is_one for a in entries) == 15
    cancels = []
    cancel = qring._cancel
    monkeypatch.setattr(qring, "_cancel", lambda a, b: cancels.append(a) or cancel(a, b))
    negated = [a for row in (-m).entries for a in row]
    assert cancels == []
    monkeypatch.undo()
    for a, b in zip(entries, negated):
        assert (b.num, b.den) == gcd_path(-a.num, a.den)
