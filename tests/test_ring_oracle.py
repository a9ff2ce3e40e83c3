"""The ring core against sympy as an independent reference.

Canonical forms after + - * /, the cofactors of the gcd of polynomial parts
and the Gaussian binomials are recomputed with sympy's `cancel`, `gcd` and
`Poly` division on seeded random inputs: integer, half-integer and 1/3
coefficients on exponent strides 1, 4 and 8.  Every sympy input is built
from the same plain coefficient dicts as the qweyl input, never from a
qweyl result.  The arithmetic and gcd oracles run twice: on the heuristic
gcd, and with the heuristic forced to fail so that every gcd takes the PRS
fallback.
"""

import math
import random
from fractions import Fraction

import pytest

from qweyl import qring
from qweyl.qring import LaurentPoly, RingElem, _cancel, q_binomial

sympy = pytest.importorskip("sympy")

x = sympy.Symbol("x")
KINDS = {"integer": 1, "half": 2, "third": 3}
STRIDES = (1, 4, 8)
CASES = [(kind, stride) for kind in KINDS for stride in STRIDES]


def rand_coeffs(rng, denom, stride, max_terms=4, span=3):
    """Random nonzero {exponent: Fraction}, exponents on off + stride * Z."""
    off = rng.randint(-3, 3)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = off + stride * rng.randint(-span, span)
        terms[e] = terms.get(e, 0) + Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]),
                                              rng.choice([1, denom]))
    terms = {e: c for e, c in terms.items() if c}
    return terms or {off: Fraction(1, denom)}


def integer_polys(*parts):
    """The parts as integer sympy Polys, all multiplied by one scalar and
    one power of x, so that their ratios are unchanged."""
    low = min(min(part) for part in parts)
    scale = math.lcm(*(c.denominator for part in parts for c in part.values()))
    return [sympy.Poly.from_dict({(e - low,): int(c * scale) for e, c in part.items()},
                                 x, domain="ZZ")
            for part in parts]


def poly_coeffs(poly, shift=0, scale=1):
    """{exponent - shift: Fraction} of a sympy Poly divided by scale."""
    out = {}
    for (e,), c in poly.terms():
        c = sympy.Rational(c) / scale
        out[e - shift] = Fraction(int(c.p), int(c.q))
    return out


def sympy_canonical(num, den):
    """(num, den) coefficient dicts of num / den: den monic, lowest exponent 0."""
    if num.is_zero:
        return {}, {0: Fraction(1)}
    num, den = num.cancel(den, include=True)
    low = min(e for (e,) in den.monoms())
    lead = den.LC()
    return poly_coeffs(num, low, lead), poly_coeffs(den, low, lead)


def stored(p):
    """Coefficients read straight from the storage fields, which must hold
    nonzero ints over a positive int denominator in lowest terms."""
    assert type(p.denom) is int and p.denom > 0
    assert all(type(c) is int and c for c in p.terms.values())
    assert math.gcd(p.denom, *p.terms.values()) == 1
    return {e: Fraction(c, p.denom) for e, c in p.terms.items()}


@pytest.mark.parametrize("kind, stride", CASES)
def test_canonical_forms_match_cancel(kind, stride):
    rng = random.Random("canonical-%s-%d" % (kind, stride))
    denom = KINDS[kind]
    for _ in range(10):
        parts = [rand_coeffs(rng, denom, stride) for _ in range(4)]
        a = RingElem(LaurentPoly(parts[0]), LaurentPoly(parts[1]))
        b = RingElem(LaurentPoly(parts[2]), LaurentPoly(parts[3]))
        na, da = integer_polys(parts[0], parts[1])
        nb, db = integer_polys(parts[2], parts[3])
        for got, (num, den) in ((a, (na, da)), (a + b, (na * db + nb * da, da * db)),
                                (a - b, (na * db - nb * da, da * db)),
                                (a * b, (na * nb, da * db)), (a / b, (na * db, da * nb))):
            assert (stored(got.num), stored(got.den)) == sympy_canonical(num, den), got


def part(p):
    """The polynomial part of a LaurentPoly as an integer sympy Poly, free of
    x-power units and up to a rational constant."""
    return integer_polys(p.coefficients())[0]


def check_cofactors(a, b):
    """_cancel(a, b) against sympy: the results keep the ratio a / b, are
    coprime, and a / a' is the gcd of the polynomial parts up to a rational
    constant."""
    ca, cb = _cancel(a, b)
    assert stored(ca) and stored(cb)
    assert ca * b == cb * a, (a, b)
    assert sympy.gcd(part(ca), part(cb)).degree() == 0, (a, b)
    quot, rem = sympy.div(part(a), part(ca), domain="QQ")
    assert rem.is_zero
    common = sympy.gcd(part(a), part(b))
    assert quot.monic() == common.monic(), (a, b)
    if common.degree() == 0:
        assert ca is a and cb is b


@pytest.mark.parametrize("kind, stride", CASES)
def test_gcd_matches_sympy(kind, stride):
    rng = random.Random("gcd-%s-%d" % (kind, stride))
    denom = KINDS[kind]
    for _ in range(8):
        f, g, h = (integer_polys(rand_coeffs(rng, denom, stride))[0] for _ in range(3))
        fg, fh = f * g, f * h
        check_cofactors(LaurentPoly(poly_coeffs(fg, 5)), LaurentPoly(poly_coeffs(fh, -2)))
        # rational coefficients, and a pair whose gcd may be constant
        check_cofactors(LaurentPoly(rand_coeffs(rng, denom, stride)),
                        LaurentPoly(rand_coeffs(rng, denom, stride)))


@pytest.fixture
def prs_only(monkeypatch):
    """Every gcd takes the PRS fallback: the heuristic always fails."""
    monkeypatch.setattr(qring, "_int_heu_gcd", lambda pa, pb: None)


@pytest.mark.parametrize("kind, stride", CASES)
def test_canonical_forms_match_cancel_on_prs_path(kind, stride, prs_only):
    test_canonical_forms_match_cancel(kind, stride)


@pytest.mark.parametrize("kind, stride", CASES)
def test_gcd_matches_sympy_on_prs_path(kind, stride, prs_only):
    test_gcd_matches_sympy(kind, stride)


def test_gcd_after_failed_first_evaluation_point(monkeypatch):
    # found by a seeded search: at the first xi the candidate does not
    # divide, and a later xi succeeds
    f, g, h = {0: -2, 3: -1, 4: -3}, {0: -3, 1: -3, 4: 3}, {2: 1, 3: -2}
    fg = LaurentPoly(f) * LaurentPoly(g)
    fh = LaurentPoly(f) * LaurentPoly(h)
    # the primitive integer lists that _cancel hands to the heuristic
    pa = qring._int_primitive(qring._dense(fg, 1))
    pb = qring._int_primitive(qring._dense(fh, 1))
    monkeypatch.setattr(qring, "HEU_GCD_TRIES", 1)
    assert qring._int_heu_gcd(pa, pb) is None
    monkeypatch.undo()
    assert qring._int_heu_gcd(pa, pb) is not None
    check_cofactors(fg, fh)


def test_q_binomial_matches_gaussian_product():
    # [n over k] = q^(-k(n-k)/2) prod_i (1 - q^(n-k+i)) / (1 - q^i), q = x^8
    for n in range(13):
        for k in range(n + 1):
            top = sympy.Poly(1, x)
            bottom = sympy.Poly(1, x)
            for i in range(1, k + 1):
                top *= sympy.Poly(1 - x ** (8 * (n - k + i)), x)
                bottom *= sympy.Poly(1 - x ** (8 * i), x)
            quot, rem = sympy.div(top, bottom)
            assert rem.is_zero
            got = q_binomial(n, k)
            assert got.den.is_one
            assert stored(got.num) == poly_coeffs(quot, 4 * k * (n - k)), (n, k)
