"""Degrees in beta1: beta_m and alpha_m are polynomials of degree m in
beta1, the twist matrix and zhat's inverse on V_d ones of degree d - 1,
each side of the cylinder braid equation, of the coproduct law for t and
of both coproduct conditions for z and zhat on V_a (x) V_b one of degree
(a-1) + (b-1), each side of the braid-matrix form on V_d (x) V_d one of
degree 2(d-1), each side of the two coefficient equations at (a, b) one of
degree a + b, and on the bundle V_d^(x3) each side of the type-B relation
one of degree 2(d-1) and each side of the cylinder generator's commutation
with a distant braid one of degree d - 1.

The degrees are read from outside the code path, as forward differences
over the integer points beta1 = 0, 1, 2, ...: a polynomial of degree k has
a nonzero k-th difference and a zero (k+1)-th one.  A sympy oracle
recomputes beta_m from its defining recursion with beta1 as a symbol.
"""

from fractions import Fraction

import pytest

from qweyl.braidrep import zbn_generators
from qweyl.qring import ONE, X, ZERO, q_factorial, q_power
from qweyl.repn import embed, irrep, powers, product, tensor_series, x_diagonal
from qweyl.rmat import cartan_factor, conjugated_r, r_inverse, r_matrix
from qweyl.twist import (
    TwistConfig,
    beta_coeffs,
    bracket_coeff,
    braid_form_sides,
    coproduct_t,
    coproduct_z,
    coproduct_zhat,
    four_braid_sides,
    series_coeff_B,
    twist_t,
    z_elem,
    zhat,
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
        assert differences([product(s[side]) for s in sides],
                           degree + 1).is_zero, side


@pytest.mark.parametrize("d", (1, 2, 3))
def test_braid_form_sides_have_degree_at_most_D(d):
    degree = 2 * (d - 1)
    sides = [braid_form_sides(d, twist_at(d, b)) for b in range(degree + 2)]
    for side in (0, 1):
        assert differences([product(s[side]) for s in sides],
                           degree + 1).is_zero, side


def test_four_braid_left_side_degree_is_exact_at_3_3():
    lhs = [product(four_braid_sides(3, 3, twist_at(3, b), twist_at(3, b))[0])
           for b in range(5)]
    assert not differences(lhs, 4).is_zero


DIM_PAIRS = [(da, db) for da in (1, 2, 3) for db in (1, 2, 3) if (da, db) != (1, 1)]


@pytest.mark.parametrize("da, db", DIM_PAIRS)
def test_coproduct_law_sides_have_degree_da_plus_db_minus_2(da, db):
    # coproduct(t) = R^-1 t2 R t1
    degree = da + db - 2
    lhs, rhs = [], []
    for b in range(degree + 2):
        cfg = TwistConfig(beta1=b)
        lhs.append(product(coproduct_t(da, db, b)))
        rhs.append(r_inverse(da, db) * embed(twist_t(db, cfg), left=da)
                   * r_matrix(da, db) * embed(twist_t(da, cfg), right=db))
    assert_degree(lhs, degree)
    assert_degree(rhs, degree)


def theta(da, db):
    """sum_n B_n (q^(-Hn) F^n) (x) F^n, the series between the zhat factors."""
    nmax = min(da, db) - 1
    fpow_a, fpow_b = powers(irrep(da).F, nmax), powers(irrep(db).F, nmax)
    return tensor_series(
        (series_coeff_B(n),
         x_diagonal(-4 * n * h for h in irrep(da).weights) * fpow_a[n], fpow_b[n])
        for n in range(nmax + 1))


@pytest.mark.parametrize("da, db", DIM_PAIRS)
def test_unipotent_zdelta_sides_have_degree_da_plus_db_minus_2(da, db):
    # coproduct(zhat) = q^(H (x) H/4) (1 (x) zhat) q^(-H (x) H/4) theta (zhat (x) 1)
    degree = da + db - 2
    lhs, rhs = [], []
    for b in range(degree + 2):
        lhs.append(coproduct_zhat(da, db, b))
        rhs.append(cartan_factor(da, db, 1) * embed(zhat(db, b), left=da)
                   * cartan_factor(da, db, -1) * theta(da, db)
                   * embed(zhat(da, b), right=db))
    assert_degree(lhs, degree)
    assert_degree(rhs, degree)


AB_PAIRS = [(a, b) for a in range(5) for b in range(5 - a)]


@pytest.mark.parametrize("a, b", AB_PAIRS)
def test_coefficient_equation_sides_have_degree_a_plus_b(a, b):
    degree = a + b
    tables = [beta_coeffs(degree, beta1) for beta1 in range(degree + 2)]
    # the doubled sum: beta'_(a+b) = sum_n c(a, b, n) beta'_(a-n) beta'_(b-n)
    assert_degree([t.beta_primes[a + b] for t in tables], degree)
    assert_degree([sum((bracket_coeff(a, b, n) * t.beta_primes[a - n]
                        * t.beta_primes[b - n] for n in range(min(a, b) + 1)), ZERO)
                   for t in tables], degree)
    # the unprimed equation: beta_(a+b) [a+b]! / ([a]! [b]!) = sum_n B_n ...
    assert_degree([t.betas[a + b] * q_factorial(a + b) / (q_factorial(a) * q_factorial(b))
                   for t in tables], degree)
    assert_degree([sum((series_coeff_B(n) * t.betas[a - n] * t.betas[b - n]
                        * q_power(Fraction(n * n, 2) - Fraction(n * (a + b - 1), 2))
                        for n in range(min(a, b) + 1)), ZERO)
                   for t in tables], degree)


@pytest.mark.parametrize("d", (2, 3))
def test_zbn_relation_sides_on_three_strands(d):
    gens = [[bundle.generator(i) for i in range(3)]
            for bundle in (zbn_generators(d, 3, b)
                           for b in range(2 * d))]
    # the type-B relation, tau_0 tau_1 tau_0 tau_1 = tau_1 tau_0 tau_1 tau_0
    assert_degree([g[0] * g[1] * g[0] * g[1] for g in gens], 2 * (d - 1))
    assert_degree([g[1] * g[0] * g[1] * g[0] for g in gens], 2 * (d - 1))
    # the cylinder generator against the distant braid tau_2
    assert_degree([g[0] * g[2] for g in gens[:d + 1]], d - 1)
    assert_degree([g[2] * g[0] for g in gens[:d + 1]], d - 1)


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
