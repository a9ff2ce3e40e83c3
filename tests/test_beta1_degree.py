"""Degrees in beta1: beta_m and alpha_m are polynomials of degree m in
beta1, the twist matrix and zhat's inverse on V_d ones of degree d - 1,
each side of the cylinder braid equation and of the coproduct condition
for z on V_a (x) V_b one of degree (a-1) + (b-1), and each side of the
braid-matrix form on V_d (x) V_d one of degree 2(d-1).

The degrees are read from outside the code path, as forward differences
over the integer points beta1 = 0, 1, 2, ...: a polynomial of degree k has
a nonzero k-th difference and a zero (k+1)-th one.  A sympy oracle
recomputes beta_m from its defining recursion with beta1 as a symbol.
"""

from fractions import Fraction

import pytest

from qweyl.qring import ONE, X
from qweyl.repn import embed
from qweyl.rmat import conjugated_r
from qweyl.twist import (
    TwistConfig,
    beta_coeffs,
    braid_form_sides,
    coproduct_z,
    four_braid_sides,
    twist_t,
    z_elem,
    zhat_inverse,
)

M_MAX = 8


def differences(values, order):
    """The order-th forward difference at the first point."""
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values[0]


def assert_degree(values, degree):
    """values at beta1 = 0..degree+1 come from a polynomial of exactly that
    degree."""
    assert len(values) == degree + 2
    assert not differences(values[:-1], degree).is_zero
    assert differences(values, degree + 1).is_zero


@pytest.mark.parametrize("m", range(1, M_MAX + 1))
def test_beta_m_has_degree_m(m):
    assert_degree([beta_coeffs(M_MAX, b).betas[m] for b in range(m + 2)], m)


@pytest.mark.parametrize("m", range(1, 7))
def test_alpha_m_has_degree_m(m):
    assert_degree([beta_coeffs(6, b).alphas[m] for b in range(m + 2)], m)


@pytest.mark.parametrize("d", range(2, 6))
def test_twist_has_degree_d_minus_1(d):
    assert_degree([twist_t(d, TwistConfig(beta1=b)) for b in range(d + 1)], d - 1)


@pytest.mark.parametrize("d", range(2, 5))
def test_zhat_inverse_has_degree_d_minus_1(d):
    assert_degree([zhat_inverse(d, b) for b in range(d + 1)], d - 1)


@pytest.mark.parametrize("da, db", [(da, db) for da in (1, 2, 3) for db in (1, 2, 3)
                                    if (da, db) != (1, 1)])
def test_zdelta_sides_have_degree_da_plus_db_minus_2(da, db):
    degree = da + db - 2
    lhs, rhs = [], []
    for b in range(degree + 2):
        lhs.append(coproduct_z(da, db, b))
        z1 = embed(z_elem(da, b), right=db)
        z2 = embed(z_elem(db, b), left=da)
        rhs.append(z2 * conjugated_r(da, db) * z1)
    assert_degree(lhs, degree)
    assert_degree(rhs, degree)


def twist_at(d, beta1):
    return twist_t(d, TwistConfig(beta1=beta1))


@pytest.mark.parametrize("da, db", [(da, db) for da in (1, 2, 3) for db in (1, 2, 3)])
def test_four_braid_sides_have_degree_at_most_D(da, db):
    degree = (da - 1) + (db - 1)
    sides = [four_braid_sides(da, db, twist_at(da, b), twist_at(db, b))
             for b in range(degree + 2)]
    for side in (0, 1):
        assert differences([s[side] for s in sides], degree + 1).is_zero, side


@pytest.mark.parametrize("d", (1, 2, 3))
def test_braid_form_sides_have_degree_at_most_D(d):
    degree = 2 * (d - 1)
    sides = [braid_form_sides(d, twist_at(d, b)) for b in range(degree + 2)]
    for side in (0, 1):
        assert differences([s[side] for s in sides], degree + 1).is_zero, side


def test_four_braid_left_side_degree_is_exact_at_3_3():
    lhs = [four_braid_sides(3, 3, twist_at(3, b), twist_at(3, b))[0] for b in range(5)]
    assert not differences(lhs, 4).is_zero


def test_beta_m_matches_symbolic_recursion():
    sympy = pytest.importorskip("sympy")
    x, b = sympy.symbols("x b")

    def q_int(n):
        return (x ** (4 * n) - x ** (-4 * n)) / (x ** 4 - x ** -4)

    # beta_{a+1} = (beta_a beta_1 + beta_{a-1} (q^-1 - 1) q^((1-a)/2)) / [a+1]
    betas = [sympy.Integer(1), b]
    for a in range(1, M_MAX):
        nxt = (betas[a] * b + betas[a - 1] * (x ** -8 - 1) * x ** (4 * (1 - a))) \
            / q_int(a + 1)
        betas.append(sympy.cancel(nxt))

    def to_sympy(e):
        def poly(p):
            return sum(sympy.Rational(c.numerator, c.denominator) * x ** k
                       for k, c in p.coefficients().items())
        return poly(e.num) / poly(e.den)

    for m in range(1, M_MAX + 1):
        num, den = sympy.fraction(betas[m])
        assert b not in den.free_symbols
        assert sympy.degree(num, b) == m
    for beta1, value in ((0, 0), (1, 1), (Fraction(7, 2), sympy.Rational(7, 2)),
                         (X ** 4 + ONE, x ** 4 + 1)):
        table = beta_coeffs(M_MAX, beta1)
        for m in range(M_MAX + 1):
            oracle = betas[m].subs(b, value)
            assert sympy.cancel(oracle - to_sympy(table.betas[m])) == 0, (beta1, m)
