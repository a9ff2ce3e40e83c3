import argparse
import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qweyl.qring import (
    ONE,
    Q_BINOMIAL_CACHE_SIZE,
    ZERO,
    RingElem,
    parse_ring_elem,
    q_binomial,
    q_factorial,
    q_int,
    q_power,
)
from qweyl.repn import (
    QMatrix,
    embed,
    irrep,
    kron,
    powers,
    product,
    products_equal,
    tensor_series,
    x_diagonal,
)
from qweyl.reports import matrix_check
from qweyl.rmat import cartan_factor, conjugated_r, r_inverse, r_matrix, r21
from qweyl import cli, qring, repn, reports, rmat, twist
from qweyl.twist import (
    BETA1_CACHE_SIZE,
    BRACKET_CACHE_SIZE,
    REFERENCE_MATRICES,
    CoeffTable,
    TwistConfig,
    beta_coeffs,
    bracket_coeff,
    braid_form_sides,
    compare_reference_matrix,
    coproduct_t,
    coproduct_z,
    coproduct_zhat,
    four_braid_sides,
    series_coeff_B,
    symmetric_basis_matrix,
    twist_t,
    verify_bform,
    verify_coproduct,
    verify_four_braid,
    verify_inverse,
    verify_reference_matrices,
    verify_zdelta,
    weyl_w,
    z_elem,
    zhat,
    zhat_inverse,
)

import coeff_oracle
from factor_oracle import twist_product

B0 = RingElem.from_rational(0)
B1 = ONE
BX4 = RingElem.x_power(4)


def x_pow(k):
    return RingElem.x_power(k)


class TestCoefficients:
    def test_beta_start(self):
        table = beta_coeffs(4, B1)
        assert table.betas[0] == ONE
        assert table.betas[1] == B1

    def test_beta2_at_zero(self):
        table = beta_coeffs(3, B0)
        assert table.betas[2] == (q_power(-1) - ONE) / q_int(2)
        assert table.betas[3] == ZERO

    def test_odd_betas_vanish_at_zero(self):
        table = beta_coeffs(12, B0)
        for a in range(1, 13, 2):
            assert table.betas[a] == ZERO

    def test_primed_definition(self):
        # beta'_a = beta_a [a]!, with beta_a from the defining recursion
        for b1 in (B0, B1, BX4):
            table = beta_coeffs(8, b1)
            betas = coeff_oracle.betas(8, b1)
            for a in range(9):
                assert table.beta_primes[a] == betas[a] * q_factorial(a)

    def test_primed_recursion(self):
        # beta'_{a+1} = beta'_1 beta'_a + beta'_{a-1} (q^-a - 1) and
        # alpha'_{a+1} = -beta'_1 q^-a alpha'_a + (q^(1-a) - q^(1-2a)) alpha'_{a-1},
        # read on the oracle's table, which neither recursion builds
        for b1 in (B0, B1, BX4):
            table = coeff_oracle.coeff_table(13, b1)
            bp = table.beta_primes
            ap = [alpha * q_factorial(a) for a, alpha in enumerate(table.alphas)]
            for a in range(1, 12):
                assert bp[a + 1] == bp[1] * bp[a] + bp[a - 1] * (q_power(-a) - ONE)
                assert ap[a + 1] == (-bp[1] * q_power(-a) * ap[a]
                                     + (q_power(1 - a) - q_power(1 - 2 * a)) * ap[a - 1])

    @pytest.mark.parametrize("b1", ["0", "1", "7/2", "-3", "x^4+1", "2*x^4-3*x^-4",
                                    "1/(q-2)"])
    def test_table_matches_oracle(self, b1):
        b1 = parse_ring_elem(b1)
        got, want = beta_coeffs(12, b1), coeff_oracle.coeff_table(12, b1)
        for field in CoeffTable._fields:
            for m, (g, w) in enumerate(zip(getattr(got, field), getattr(want, field),
                                           strict=True)):
                assert g == w, (field, m)

    def test_tables_proved_for_every_beta1(self):
        # beta'_a and alpha'_a are polynomials of degree a in beta1: each step
        # of either recursion multiplies by beta1 at most once.  So agreement
        # with the oracle at the 18 points beta1 = 0..17, for every
        # a <= MAX_COEFF_INDEX = 16, proves both recursions for every beta1
        # (a nonzero polynomial of degree <= 16 has at most 16 roots).
        n_max = cli.MAX_COEFF_INDEX
        for b1 in range(n_max + 2):
            table = beta_coeffs(n_max, b1)
            bp = [b * q_factorial(m) for m, b in enumerate(coeff_oracle.betas(n_max, b1))]
            assert table.beta_primes == tuple(bp), b1
            assert [a * q_factorial(m) for m, a in enumerate(table.alphas)] \
                == coeff_oracle.alpha_primes(bp), b1

    def test_inverse_coefficients(self):
        table = beta_coeffs(4, B1)
        assert table.alphas[0] == ONE
        assert table.alphas[1] == -B1

    def test_series_coeff_values(self):
        assert series_coeff_B(0) == ONE
        assert series_coeff_B(1) == q_power(-1) - ONE

    def test_bracket_coeff_values(self):
        for a in range(5):
            for b in range(5):
                assert bracket_coeff(a, b, 0) == ONE
        assert bracket_coeff(3, 3, -1) == ZERO
        assert bracket_coeff(2, 3, 5) == ZERO

    def test_bracket_coeff_closed_product(self):
        # [a over n] [b over n] [n]! q^(-n(a+b)/2) q^((3n+n^2)/4) (q^-1 - 1)^n
        for a in range(9):
            for b in range(9):
                for n in range(10):
                    closed = (q_binomial(a, n) * q_binomial(b, n) * q_factorial(n)
                              * q_power(Fraction(-n * (a + b), 2))
                              * q_power(Fraction(3 * n + n * n, 4))
                              * (q_power(-1) - ONE) ** n)
                    assert bracket_coeff(a, b, n) == closed, (a, b, n)


class TestBorelFactor:
    def test_one_dimensional(self):
        assert zhat(1, B1) == QMatrix.identity(1)
        assert z_elem(1, B1) == QMatrix.identity(1)

    def test_two_dimensional(self):
        b = RingElem.x_power(4) + 2
        assert zhat(2, b) == QMatrix([[ONE, ZERO], [b * x_pow(2), ONE]])
        scale = QMatrix.diagonal([x_pow(-1), x_pow(-1)])
        assert z_elem(2, b) == scale * zhat(2, b)

    def test_inverse_small(self):
        zh = zhat(4, B1)
        zi = zhat_inverse(4, B1)
        assert zh * zi == QMatrix.identity(4)

    def test_inverse_sweep(self):
        rep = verify_inverse(6, B0)
        assert rep.ok
        for b1 in (B1, BX4):
            assert verify_inverse(6, b1).ok

    def test_printed_index_recursion_fails(self):
        # The alternate recursion with the summation index shifted down by
        # one (alpha_a = -sum_{m=0}^{a-1} alpha_{a-1-m} beta_m q^(-m(a-1-m)/2))
        # forces alpha_1 = -1 regardless of beta_1, so it only inverts zhat
        # when beta_1 happens to equal 1.
        def printed_alphas(n_max, b1):
            table = beta_coeffs(n_max, b1)
            alphas = [ONE]
            for a in range(1, n_max + 1):
                acc = ZERO
                for m in range(a):
                    acc = acc + (table.alphas[0] * ZERO if False else
                                 alphas[a - 1 - m] * table.betas[m]
                                 * q_power(Fraction(-m * (a - 1 - m), 2)))
                alphas.append(-acc)
            return alphas

        from qweyl.twist import _borel_series
        for d, b1 in ((2, B0), (2, BX4), (3, B1)):
            bad = _borel_series(d, printed_alphas(d - 1, b1))
            assert zhat(d, b1) * bad != QMatrix.identity(d), (d, b1)

        # coincidence at beta_1 = 1: alpha_1 = -beta_1 = -1 there, and in
        # dimension 2 no higher coefficient contributes
        good = _borel_series(2, printed_alphas(1, B1))
        assert zhat(2, B1) * good == QMatrix.identity(2)


class TestWeylElement:
    def test_one_dimensional_counit(self):
        assert weyl_w(1) == QMatrix.identity(1)

    def test_two_dimensional(self):
        assert weyl_w(2) == QMatrix([[ZERO, -x_pow(-5)], [x_pow(-1), ZERO]])

    def test_exchange_relations(self):
        half = q_power(Fraction(1, 2))
        for d in range(1, 7):
            r = irrep(d)
            w = weyl_w(d)
            assert w * r.X == (r.Y * w).scale(-half)
            assert w * r.Y == (r.X * w).scale(-half.inverse())
            assert w * r.H == -(r.H * w)

    def test_square_is_scalar(self):
        for d in range(1, 7):
            w2 = weyl_w(d) * weyl_w(d)
            scalar = w2[(0, 0)]
            assert w2 == QMatrix.identity(d).scale(scalar)

    def test_negates_h_by_conjugation(self):
        for d in range(2, 6):
            r = irrep(d)
            w = weyl_w(d)
            assert w * r.H * w.inverse() == -r.H


class TestTwistMatrix:
    def test_two_dimensional_closed_form(self):
        for b in (B0, B1, RingElem.x_power(4) + 2):
            t = twist_t(2, TwistConfig(beta1=b))
            expected = QMatrix([[-b * x_pow(-4), -x_pow(-6)], [x_pow(-2), ZERO]])
            assert t == expected

    def test_counit_value(self):
        for variant, alpha in (("standard", None), ("w_inverse", None),
                               ("k_conjugate", Fraction(1, 2)),
                               ("u_conjugate", None), ("affine", None)):
            cfg = TwistConfig(beta1=B1, variant=variant, alpha=alpha)
            assert twist_t(1, cfg) == QMatrix.identity(1)

    def test_corner_entry(self):
        for d in range(2, 7):
            t = twist_t(d, TwistConfig(beta1=BX4))
            assert t[(d - 1, 0)] == q_power(Fraction(-(d - 1) ** 2, 4))
            assert t[(d - 1, 1)] == ZERO

    # beta1 with integer, half-integer, Laurent, rational-function and zero values
    CLOSED_FORM_BETA1 = ("3", "-2+1/2", "x^4+1", "1/(q-2)", "0", "2*x^-4-x^12")

    def closed_form_mismatches(self):
        """(d, beta1) with d <= 7 where the standard twist, built uncached,
        differs from the product w z."""
        return [(d, b) for b in self.CLOSED_FORM_BETA1 for d in range(1, 8)
                if twist.twist_t.__wrapped__(d, TwistConfig(beta1=parse_ring_elem(b)))
                != twist_product(d, parse_ring_elem(b))]

    def test_standard_closed_form_matches_w_times_z(self):
        assert self.closed_form_mismatches() == []

    def test_closed_form_without_its_sign_fails(self, monkeypatch):
        leg = twist._twist_leg
        monkeypatch.setattr(twist, "_twist_leg", lambda d, k, j: leg(d, k, j) * (-1) ** k)
        assert self.closed_form_mismatches() == [
            (d, b) for b in self.CLOSED_FORM_BETA1 for d in range(2, 8)]

    def test_closed_form_with_a_shifted_exponent_fails(self, monkeypatch):
        # one q on the entries with (k, j) = (1, 1), where m = 0
        leg = twist._twist_leg
        monkeypatch.setattr(twist, "_twist_leg", lambda d, k, j:
                            leg(d, k, j).shift(8 if (k, j) == (1, 1) else 0))
        assert self.closed_form_mismatches() == [
            (d, b) for b in self.CLOSED_FORM_BETA1 for d in range(2, 8)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TwistConfig(beta1=B1, variant="nonsense")
        with pytest.raises(ValueError):
            TwistConfig(beta1=B1, variant="k_conjugate")
        with pytest.raises(ValueError):
            TwistConfig(beta1=B1, variant="k_conjugate", alpha=Fraction(1, 3))
        with pytest.raises(ValueError):
            TwistConfig(beta1=B1, variant="standard", alpha=1)
        with pytest.raises(TypeError):
            TwistConfig(beta1=1.5)


class TestFourBraid:
    def test_standard_sweep(self):
        for b1 in (B0, B1, BX4):
            cfg = TwistConfig(beta1=b1)
            for da in range(1, 5):
                for db in range(1, 5):
                    assert verify_four_braid(da, db, cfg).ok, (da, db, b1)

    def test_scalar_case(self):
        assert verify_four_braid(1, 1, TwistConfig(beta1=BX4)).ok

    def test_variants(self):
        configs = [TwistConfig(beta1=B1, variant="w_inverse"),
                   TwistConfig(beta1=B1, variant="u_conjugate"),
                   TwistConfig(beta1=B1, variant="affine"),
                   TwistConfig(beta1=B0, variant="affine")]
        for alpha in (Fraction(1, 2), Fraction(-1, 2), 1):
            configs.append(TwistConfig(beta1=B1, variant="k_conjugate", alpha=alpha))
        for cfg in configs:
            for d in range(1, 4):
                assert verify_four_braid(d, d, cfg).ok, (cfg, d)
        assert verify_four_braid(2, 3, TwistConfig(beta1=B1, variant="affine")).ok

    def test_perturbed_twist_fails(self):
        cfg = TwistConfig(beta1=B1)
        t = twist_t(2, cfg)
        rows = [list(r) for r in t.entries]
        rows[1][1] = rows[1][1] + ONE
        bad = QMatrix(rows)
        lhs, rhs = map(product, four_braid_sides(2, 2, bad, bad))
        diff = lhs.first_difference(rhs)
        assert diff is not None
        i, j, a, b = diff
        assert a - b != ZERO

    def test_shifting_top_left_stays_in_family(self):
        # the top-left entry of the 2-dim twist carries the free coefficient,
        # so bumping it only moves to another family member
        t = twist_t(2, TwistConfig(beta1=B1))
        rows = [list(r) for r in t.entries]
        rows[0][0] = rows[0][0] + ONE
        shifted = QMatrix(rows)
        assert shifted == twist_t(2, TwistConfig(beta1=B1 - x_pow(4)))
        lhs, rhs = map(product, four_braid_sides(2, 2, shifted, shifted))
        assert lhs == rhs

    def test_report_shape(self):
        rep = verify_four_braid(2, 2, TwistConfig(beta1=B1))
        assert rep.ok and len(rep.checks) == 2
        rep = verify_four_braid(2, 3, TwistConfig(beta1=B1))
        assert rep.ok and len(rep.checks) == 1

    def test_sides_build_without_zero_products(self, monkeypatch):
        # the construction reads nonzero entries only; dense kron and scale
        # made 14,150 products with a zero operand here
        for module in (qring, repn, rmat, twist):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        zero_operand = []
        mul = RingElem.__mul__

        def counted(a, b):
            if not a or b == 0:
                zero_operand.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(RingElem, "__mul__", counted)
        monkeypatch.setattr(RingElem, "__rmul__", counted)
        cfg = TwistConfig(beta1=3)
        for da in range(1, 6):
            for db in range(1, 6):
                ta, tb = twist_t(da, cfg), twist_t(db, cfg)
                four_braid_sides(da, db, ta, tb)
                if da == db:
                    braid_form_sides(da, ta)
        assert r_matrix.cache_info().currsize == 25
        assert len(zero_operand) == 0


class TestCoproducts:
    def test_trivial(self):
        assert coproduct_zhat(1, 1, B1) == QMatrix.identity(1)
        assert product(coproduct_t(1, 1, B1)) == QMatrix.identity(1)

    def test_single_lowering_slice_matches_kron_build(self):
        # isolate the linear-in-beta1 part on V2 (x) V2 by comparing the
        # tables at beta_1 = 1 and beta_1 = -1 (the even coefficients agree)
        da = db = 2
        plus = coproduct_zhat(da, db, B1)
        minus = coproduct_zhat(da, db, -B1)
        ra, rb = irrep(da), irrep(db)
        # q^(-H/4) (x) q^(-H/4) = x^(-2h) (x) x^(-2h)
        qh_a = x_diagonal(-2 * h for h in ra.weights)
        qh_b = x_diagonal(-2 * h for h in rb.weights)
        direct = kron(qh_a, qh_b) * (kron(ra.Y, rb.K) + kron(ra.Kinv, rb.Y))
        half = RingElem.from_rational(Fraction(1, 2))
        assert (plus - minus).scale(half) == direct

    def test_zdelta_reports(self):
        assert verify_zdelta(1, 1, B1).ok
        assert verify_zdelta(2, 2, B1).ok
        assert verify_zdelta(3, 2, B0).ok
        assert verify_zdelta(2, 3, BX4).ok

    def test_twist_coproduct_formula(self):
        for b1 in (B0, B1):
            cfg = TwistConfig(beta1=b1)
            for da in range(1, 4):
                for db in range(1, 4):
                    lhs = product(coproduct_t(da, db, b1))
                    t1 = kron(twist_t(da, cfg), QMatrix.identity(db))
                    t2 = kron(QMatrix.identity(da), twist_t(db, cfg))
                    rhs = r_inverse(da, db) * t2 * r_matrix(da, db) * t1
                    assert lhs == rhs, (da, db, b1)

    @pytest.mark.parametrize("suite, args", [
        (verify_zdelta, (1, 2, B1)), (verify_coproduct, (2, B1)), (verify_inverse, (2, B1))],
        ids=("zdelta", "coproduct", "inverse"))
    def test_suites_ask_the_ring_image_first(self, suite, args, monkeypatch):
        # every check goes through product_check, and the image proves some
        # of them without the exact products
        true_equal = reports.products_equal
        verdicts = []

        def spy(lhs, rhs):
            verdicts.append(true_equal(lhs, rhs))
            return verdicts[-1]

        monkeypatch.setattr(reports, "products_equal", spy)
        rep = suite(*args)
        assert rep.ok and len(verdicts) == len(rep.checks)
        assert True in verdicts


class TestCoefficientEquation:
    def test_full_suite(self):
        for b1 in (B0, B1):
            rep = verify_bform(8, b1)
            assert rep.ok, rep.lines()

    def test_trivial_row(self):
        table = beta_coeffs(0, B1)
        assert table.beta_primes[0] == table.beta_primes[0] ** 2


class TestReferenceMatrices:
    def test_two_dim_beta_zero(self):
        res = compare_reference_matrix(2, 0, 0.7)
        assert res < 1e-9
        got = symmetric_basis_matrix(2, B0, 0.7)
        q = 0.7
        want = np.array([[0.0, -q ** -0.75], [q ** -0.25, 0.0]])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_three_dim(self):
        assert compare_reference_matrix(3, 1, 0.7) < 1e-9

    def test_four_dim(self):
        assert compare_reference_matrix(4, 2, 1.3) < 1e-9

    def test_full_grid(self):
        rep = verify_reference_matrices()
        assert rep.ok, rep.lines()

    def test_symmetric_basis_matches_numpy_formula(self):
        # the former numpy expression is the reference, entry for entry,
        # down to the sign of zero
        for d in range(1, 6):
            for b1 in (B0, B1, RingElem.from_rational(Fraction(-7, 2))):
                for q0 in (0.31, 0.7, 1.3, 5.5):
                    t_num = twist_t(d, TwistConfig(beta1=b1)).evaluate(q0)
                    dvec = [1.0]
                    for k in range(d - 1):
                        dvec.append(dvec[-1] / math.sqrt(
                            q_int(k + 1).evaluate(q0).real
                            * q_int(d - 1 - k).evaluate(q0).real))
                    dvec = np.array(dvec)
                    scale = 1.0 / q_factorial(d - 1).evaluate(q0).real
                    want = scale * (t_num / dvec[:, None]) * dvec[None, :]
                    got = symmetric_basis_matrix(d, b1, q0)
                    assert [[(repr(v.real), repr(v.imag)) for v in row]
                            for row in got] == \
                        [[(repr(v.real), repr(v.imag)) for v in map(complex, row)]
                         for row in want]

    def test_tampered_reference_fails(self, monkeypatch):
        # negative twin: one entry of one closed form moved by 1e-6
        true_ref = REFERENCE_MATRICES[3]

        def tampered(q, b1):
            rows = true_ref(q, b1)
            rows[1][0] += 1e-6
            return rows

        monkeypatch.setitem(REFERENCE_MATRICES, 3, tampered)
        assert abs(compare_reference_matrix(3, 1, 0.7) - 1e-6) < 1e-9
        rep = verify_reference_matrices()
        assert not rep.ok
        failed = [line for line in rep.lines() if line.startswith("FAIL")]
        assert len(failed) == 6
        assert all("d=3" in line and "[residual 1.000e-06]" in line
                   for line in failed)

    def test_overflow_residual_is_nan(self):
        # at q0 = 1e80 some entries of the 4-dim twist evaluate to inf/inf;
        # with beta1 = 0 the first entry's residual is 0.0 and later ones
        # are NaN, so a plain max() would report 0.0 and pass
        assert math.isnan(compare_reference_matrix(4, 0, 1e80))
        rep = verify_reference_matrices(beta1_values=(0,), q0_values=(1e80,))
        assert rep.lines()[-1] == \
            "FAIL closed-form matrix d=4 beta1=0 q0=1e+80  [residual nan]"
        # q ** 2 overflows in the 3-dim closed form; at q0 = 1e-120 the
        # exact twist's negative powers of x divide by a zero double
        rep = verify_reference_matrices(q0_values=(1e200,))
        assert "FAIL closed-form matrix d=3 beta1=0 q0=1e+200  [residual nan]" \
            in rep.lines()
        assert math.isnan(compare_reference_matrix(4, 2, 1e-120))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compare_reference_matrix(5, 0, 0.7)
        with pytest.raises(ValueError):
            compare_reference_matrix(2, 0, 1.0)
        with pytest.raises(ValueError):
            compare_reference_matrix(2, 0, -0.5)


def bump(m, i, j):
    """A copy of m with ONE added to entry (i, j)."""
    rows = [list(r) for r in m.entries]
    rows[i][j] = rows[i][j] + ONE
    return QMatrix(rows)


def failed_lines(report):
    return [line for line in report.lines() if line.startswith("FAIL")]


ENTRY = re.compile(r"  \[entry \(\d+,\d+\): ")


class TestNegativeTwins:
    """Each suite must fail once the builder it calls is tampered with."""

    @pytest.fixture(autouse=True)
    def drop_caches(self):
        # a tampered builder may reach a cached one that calls it, and a
        # cached one filled before the tampering would hide it
        caches = (beta_coeffs, zhat, zhat_inverse, z_elem, twist_t,
                  coproduct_zhat, coproduct_z, bracket_coeff, q_binomial)
        for cached in caches:
            cached.cache_clear()
        yield
        for cached in caches:
            cached.cache_clear()

    @staticmethod
    def zdelta_sides(da, db, b1):
        """Both zdelta identities on V_a (x) V_b as chains of factors, built
        from the twist module's functions as they stand, by check name."""
        on = "on V%d (x) V%d" % (da, db)
        nmax = min(da, db) - 1
        fpow_a, fpow_b = powers(irrep(da).F, nmax), powers(irrep(db).F, nmax)
        theta = tensor_series(
            (series_coeff_B(n),
             x_diagonal(-4 * n * h for h in irrep(da).weights) * fpow_a[n], fpow_b[n])
            for n in range(nmax + 1))
        return {
            "coproduct condition for z " + on: (
                (coproduct_z(da, db, b1),),
                (embed(twist.z_elem(db, b1), left=da), conjugated_r(da, db),
                 embed(twist.z_elem(da, b1), right=db))),
            "unipotent coproduct equation " + on: (
                (coproduct_zhat(da, db, b1),),
                (cartan_factor(da, db, 1), embed(twist.zhat(db, b1), left=da),
                 cartan_factor(da, db, -1), theta,
                 embed(twist.zhat(da, b1), right=db)))}

    @staticmethod
    def assert_exact_details(report, sides):
        """Each failing check of the report is the exact matrix_check of the
        products of its sides, given as {name: (lhs, rhs)}."""
        failed = [c for c in report.checks if not c.ok]
        assert failed
        for check in failed:
            lhs, rhs = sides[check.name]
            assert check == matrix_check(check.name, product(lhs), product(rhs))

    def test_zdelta_tampered_z(self, monkeypatch):
        true_z = twist.z_elem
        monkeypatch.setattr(twist, "z_elem",
                            lambda d, b1: bump(true_z(d, b1), 1, 0) if d == 2
                            else true_z(d, b1))
        rep = verify_zdelta(2, 3, B1)
        assert not rep.ok
        [line] = failed_lines(rep)
        assert line.startswith("FAIL coproduct condition for z on V2 (x) V3")
        assert ENTRY.search(line)
        self.assert_exact_details(rep, self.zdelta_sides(2, 3, B1))

    def test_zdelta_tampered_zhat(self, monkeypatch):
        true_zhat = twist.zhat
        monkeypatch.setattr(twist, "zhat",
                            lambda d, b1: bump(true_zhat(d, b1), 0, 1) if d == 2
                            else true_zhat(d, b1))
        rep = verify_zdelta(2, 3, B1)
        assert not rep.ok
        failed = failed_lines(rep)
        assert any(line.startswith("FAIL unipotent coproduct equation on V2 (x) V3")
                   and ENTRY.search(line) for line in failed)
        self.assert_exact_details(rep, self.zdelta_sides(2, 3, B1))

    def test_coproduct_tampered_twist(self, monkeypatch):
        true_t = twist.twist_t
        monkeypatch.setattr(twist, "twist_t",
                            lambda d, cfg: bump(true_t(d, cfg), 1, 1) if d == 2
                            else true_t(d, cfg))
        rep = verify_coproduct(2, B1)
        assert not rep.ok
        failed = failed_lines(rep)
        assert [line.split("  [")[0] for line in failed] == [
            "FAIL twist coproduct law on V1 (x) V2",
            "FAIL twist coproduct law on V2 (x) V1",
            "FAIL twist coproduct law on V2 (x) V2"]
        assert all(ENTRY.search(line) for line in failed)
        cfg = TwistConfig(beta1=B1)
        self.assert_exact_details(rep, {
            "twist coproduct law on V%d (x) V%d" % (da, db): (
                coproduct_t(da, db, B1),
                (r_inverse(da, db), embed(twist.twist_t(db, cfg), left=da),
                 r_matrix(da, db), embed(twist.twist_t(da, cfg), right=db)))
            for da in (1, 2) for db in (1, 2)})

    def test_coproduct_tampered_counit(self, monkeypatch):
        true_t = twist.twist_t
        monkeypatch.setattr(twist, "twist_t",
                            lambda d, cfg: bump(true_t(d, cfg), 0, 0) if d == 1
                            else true_t(d, cfg))
        rep = verify_coproduct(2, B1)
        # t on V1 enters the law on V1 (x) V1, V1 (x) V2 and V2 (x) V1 too
        assert failed_lines(rep) == [
            "FAIL twist coproduct law on V1 (x) V1  [entry (1,1): 1 != 4]",
            "FAIL twist coproduct law on V1 (x) V2  [entry (1,1): -x^-4 != -2*x^-4]",
            "FAIL twist coproduct law on V2 (x) V1  [entry (1,1): -x^-4 != -2*x^-4]",
            "FAIL counit of the twist is 1  [entry (1,1): 2 != 1]"]

    def test_bform_tampered_table(self, monkeypatch):
        true_table = twist.beta_coeffs

        def tampered(n_max, b1):
            table = true_table(n_max, b1)
            primes = list(table.beta_primes)
            primes[3] = primes[3] + ONE
            return table._replace(beta_primes=tuple(primes))

        monkeypatch.setattr(twist, "beta_coeffs", tampered)
        rep = verify_bform(6, B1)
        assert not rep.ok
        [line] = failed_lines(rep)
        assert line.startswith("FAIL doubled sum reproduces beta'_(a+b)")
        assert re.search(r"\[\(a=\d+,b=\d+\)", line)

    def test_bform_tampered_bracket_coeff(self, monkeypatch):
        true_bracket = twist.bracket_coeff
        monkeypatch.setattr(twist, "bracket_coeff",
                            lambda a, b, n: true_bracket(a, b, n)
                            + (ONE if (a, b, n) == (2, 3, 1) else ZERO))
        rep = verify_bform(6, B1)
        # six index-shift cases read (2, 3, 1); the line names the first three
        assert failed_lines(rep) == [
            "FAIL doubled sum reproduces beta'_(a+b) for a+b <= 6  [(a=2,b=3)]",
            "FAIL index-shift recurrences for a, b <= 6  [a-shift (a=1,b=3,n=1), "
            "b-shift (a=2,b=2,n=1), a-shift (a=2,b=3,n=1)]"]

    def test_bform_tampered_q_binomial(self, monkeypatch):
        true_binomial = twist.q_binomial
        monkeypatch.setattr(twist, "q_binomial",
                            lambda n, k: true_binomial(n, k)
                            + (ONE if (n, k) == (3, 1) else ZERO))
        rep = verify_bform(6, B1)
        # [3 over 1] enters bracket_coeff(a, b, 1) for a = 3 or b = 3
        assert failed_lines(rep) == [
            "FAIL doubled sum reproduces beta'_(a+b) for a+b <= 6  "
            "[(a=1,b=3), (a=2,b=3), (a=3,b=1)]",
            "FAIL index-shift recurrences for a, b <= 6  [a-shift (a=0,b=3,n=1), "
            "b-shift (a=1,b=2,n=1), a-shift (a=1,b=3,n=1)]"]

    def test_bform_tampered_betas(self, monkeypatch):
        true_table = twist.beta_coeffs

        def tampered(n_max, b1):
            table = true_table(n_max, b1)
            betas = list(table.betas)
            betas[4] = betas[4] + ONE
            return table._replace(betas=tuple(betas))

        monkeypatch.setattr(twist, "beta_coeffs", tampered)
        rep = verify_bform(6, B1)
        assert failed_lines(rep) == [
            "FAIL coefficient equation in the unprimed coefficients, a+b <= 6  "
            "[(a=1,b=3), (a=1,b=4), (a=1,b=5)]"]

    @staticmethod
    def verify_lines(*argv):
        """Exit code and report lines of `qweyl verify ...`, summaries dropped."""
        buf = io.StringIO()
        code = cli.run(["verify", *argv], out=buf)
        return code, [line for line in buf.getvalue().splitlines()
                      if line.startswith(("ok  ", "FAIL"))]

    def test_four_braid_tampered_twist(self, monkeypatch):
        true_t = twist.twist_t
        monkeypatch.setattr(twist, "twist_t",
                            lambda d, cfg: bump(true_t(d, cfg), 1, 1) if d == 3
                            else true_t(d, cfg))
        code, lines = self.verify_lines("four-braid", "--max-dim", "3")
        assert code == 1
        failed = [line for line in lines if line.startswith("FAIL")]
        # V1 is trivial, so R on V1 (x) V3 is the identity and t1 a scalar:
        # V1 (x) V3 and V3 (x) V1 hold for any t on V3
        assert [line.split("  [")[0] for line in failed] == [
            "FAIL cylinder braid equation on V2 (x) V3 (standard)",
            "FAIL cylinder braid equation on V3 (x) V2 (standard)",
            "FAIL cylinder braid equation on V3 (x) V3 (standard)",
            "FAIL braid-matrix form on V3 (x) V3 (standard)"]
        assert all(ENTRY.search(line) for line in failed)
        assert len(lines) == 12

    def test_four_braid_failure_detail_is_the_exact_one(self, monkeypatch):
        # the ring image refutes the tampered sides; the detail still comes
        # from the exact products, as it did before the image was used
        true_t = twist.twist_t
        monkeypatch.setattr(twist, "twist_t",
                            lambda d, cfg: bump(true_t(d, cfg), 1, 1) if d == 3
                            else true_t(d, cfg))
        cfg = TwistConfig(beta1=B1)
        lhs, rhs = four_braid_sides(2, 3, twist.twist_t(2, cfg), twist.twist_t(3, cfg))
        assert products_equal(lhs, rhs) is False
        name = "cylinder braid equation on V2 (x) V3 (standard)"
        [check] = verify_four_braid(2, 3, cfg).checks
        assert check == matrix_check(name, product(lhs), product(rhs))
        assert check.detail == ("entry (1,2): -x^-12 - 2*x^-20 - x^-28 != "
                                "-1 - x^-12 + x^-16 - 2*x^-20 - x^-28")

    def test_inverse_tampered_zhat_inverse(self, monkeypatch):
        true_inverse = twist.zhat_inverse
        monkeypatch.setattr(twist, "zhat_inverse",
                            lambda d, b1: bump(true_inverse(d, b1), 0, 3) if d == 4
                            else true_inverse(d, b1))
        code, lines = self.verify_lines("inverse")
        assert code == 1
        failed = [line for line in lines if line.startswith("FAIL")]
        assert [line.split("  [")[0] for line in failed] == [
            "FAIL zhat inverse (right) d=4", "FAIL zhat inverse (left) d=4"]
        assert all(ENTRY.search(line) for line in failed)
        assert len(lines) == 12
        zh, zinv, ident = zhat(4, B1), twist.zhat_inverse(4, B1), QMatrix.identity(4)
        self.assert_exact_details(verify_inverse(4, B1), {
            "zhat inverse (right) d=4": ((zh, zinv), (ident,)),
            "zhat inverse (left) d=4": ((zinv, zh), (ident,))})

    def test_variants_tampered_drinfeld_u(self, monkeypatch):
        true_u = twist.drinfeld_u
        # at d = 2 the suite sees entry (0,1) of u; a bump of (0,0), (1,0) or
        # (1,1) leaves both identities true
        monkeypatch.setattr(twist, "drinfeld_u",
                            lambda d: bump(true_u(d), 0, 1) if d == 2 else true_u(d))
        reports = cli._variants(argparse.Namespace(max_dim=3), B1)
        failed = [line for rep in reports for line in failed_lines(rep)]
        assert [line.split("  [")[0] for line in failed] == [
            "FAIL cylinder braid equation on V2 (x) V2 (u_conjugate)",
            "FAIL braid-matrix form on V2 (x) V2 (u_conjugate)"]
        assert all(ENTRY.search(line) for line in failed)
        assert sum(len(rep.checks) for rep in reports) == 30


class TestCacheBounds:
    CACHES = ("beta_coeffs", "zhat", "zhat_inverse", "z_elem", "twist_t",
              "coproduct_zhat", "coproduct_z")

    def test_distinct_beta1_values_stay_within_bound(self):
        # verify all --max-dim 3 fills 28 at the default beta1 and at most 30
        # at others, in the twist_t memo
        assert BETA1_CACHE_SIZE >= 4 * 28
        for k in range(1000):
            b1 = RingElem.from_rational(Fraction(k, 7))
            # each memo is filled by its own builder: the standard twist
            # no longer goes through z_elem and zhat
            beta_coeffs(1, b1)
            zhat(2, b1)
            zhat_inverse(2, b1)
            z_elem(2, b1)
            twist_t(2, TwistConfig(beta1=b1))
            coproduct_zhat(1, 2, b1)
            coproduct_z(1, 2, b1)
        for name in self.CACHES:
            info = getattr(twist, name).cache_info()
            assert info.maxsize == BETA1_CACHE_SIZE, name
            assert info.currsize <= BETA1_CACHE_SIZE, name
            assert info.misses >= 1000, name

    def test_coefficient_memos_stay_within_bound(self):
        # out-of-range indices are cheap zeros, but each is an entry
        for k in range(2 * Q_BINOMIAL_CACHE_SIZE):
            q_binomial(k, -1)
        for k in range(2 * BRACKET_CACHE_SIZE):
            bracket_coeff(k, 0, -1)
        for cached, size in ((q_binomial, Q_BINOMIAL_CACHE_SIZE),
                             (bracket_coeff, BRACKET_CACHE_SIZE)):
            info = cached.cache_info()
            assert info.maxsize == size
            assert info.currsize <= size
            cached.cache_clear()
        # the largest bform sweep the CLI admits fits in the bracket memo
        verify_bform(cli.MAX_COEFF_INDEX, B1)
        assert bracket_coeff.cache_info().currsize < BRACKET_CACHE_SIZE
