"""Hypothesis properties of Q(x): ring axioms, exact quotients, the hash/eq
contract with int and Fraction, and faithful, round-tripping JSON.

Elements mix integer, half-integer and 1/3 coefficients on exponent strides
1, 4 and 8, the shapes the integer storage and the stride-compressed gcd
take apart.
"""

from fractions import Fraction

import pytest

from qweyl.qring import ONE, ZERO, X, LaurentPoly, RingElem

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
