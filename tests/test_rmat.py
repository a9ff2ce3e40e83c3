import pytest

from qweyl import rmat
from qweyl.qring import ONE, RingElem, q_power
from qweyl.repn import QMatrix, irrep, kron, product, products_equal
from qweyl.rmat import (
    braid_matrix,
    cartan_factor,
    conjugated_r,
    drinfeld_u,
    r21,
    r_inverse,
    r_matrix,
    series_coeff,
)
from qweyl.twist import weyl_w

from factor_oracle import projector, r_product, u_projector_sum
from coproduct_oracle import coproduct_gen, coproduct_gen_op, flip

PAIRS = [(da, db) for da in range(1, 8) for db in range(1, 8)]
# the pairs whose R has a term with n = 1
PAIRS_WITH_SERIES = [(da, db) for da, db in PAIRS if min(da, db) >= 2]


def x_pow(k):
    return RingElem.x_power(k)


def embed_12(m, dc):
    return kron(m, QMatrix.identity(dc))


def embed_23(da, m):
    return kron(QMatrix.identity(da), m)


def embed_13(da, db, dc, m):
    # act on legs 1 and 3 by flipping legs 2 and 3 on each side
    left = embed_23(da, flip(dc, db))
    right = embed_23(da, flip(db, dc))
    return left * embed_12(m, db) * right


class TestRMatrix:
    def test_trivial_first_leg(self):
        for d in range(1, 5):
            assert r_matrix(1, d) == QMatrix.identity(d)
            assert r_matrix(d, 1) == QMatrix.identity(d)

    def test_two_by_two_explicit(self):
        # basis order: e0e0, e0e1, e1e0, e1e1
        off = x_pow(2) - x_pow(-6)
        expected = QMatrix([
            [x_pow(2), 0, 0, 0],
            [0, x_pow(-2), off, 0],
            [0, 0, x_pow(-2), 0],
            [0, 0, 0, x_pow(2)],
        ])
        assert r_matrix(2, 2) == expected

    def test_inverse(self):
        assert r_matrix(3, 3) * r_inverse(3, 3) == QMatrix.identity(9)
        assert r_inverse(2, 3) * r_matrix(2, 3) == QMatrix.identity(6)

    def test_r21_is_flip_conjugate(self):
        # r21 permutes the indices of R; the oracle multiplies by the flips
        for da in range(1, 8):
            for db in range(1, 8):
                direct = flip(db, da) * r_matrix(db, da) * flip(da, db)
                assert r21(da, db) == direct, (da, db)

    def test_family_bundle(self):
        assert r_matrix(2, 3) * r_inverse(2, 3) == QMatrix.identity(6)
        assert r21(2, 3) == flip(3, 2) * r_matrix(3, 2) * flip(2, 3)


class TestClosedForms:
    """r_matrix against the product of its factors, r_inverse against
    Gauss-Jordan elimination; both are built uncached, so that a tampered
    leg coefficient reaches them."""

    @staticmethod
    def r_mismatches():
        return [(da, db) for da, db in PAIRS
                if rmat.r_matrix.__wrapped__(da, db) != r_product(da, db)]

    @staticmethod
    def inverse_mismatches():
        return [(da, db) for da, db in PAIRS
                if rmat.r_inverse.__wrapped__(da, db) != r_matrix(da, db).inverse()]

    def test_r_matches_cartan_times_series(self):
        assert self.r_mismatches() == []

    def test_r_inverse_matches_gauss_jordan(self):
        assert self.inverse_mismatches() == []

    def test_sign_flipped_leg_fails(self, monkeypatch):
        # (-1)^n on every leg coefficient: a sign in R, and R^-1 without
        # its (-1)^n
        leg = rmat._leg_coeff
        monkeypatch.setattr(rmat, "_leg_coeff", lambda da, k, n: leg(da, k, n) * (-1) ** n)
        assert self.r_mismatches() == PAIRS_WITH_SERIES
        assert self.inverse_mismatches() == PAIRS_WITH_SERIES

    def test_exponent_shifted_by_eight_fails(self, monkeypatch):
        # one q on the (k, n) = (1, 1) terms only
        leg = rmat._leg_coeff
        monkeypatch.setattr(rmat, "_leg_coeff", lambda da, k, n:
                            leg(da, k, n).shift(8 if (k, n) == (1, 1) else 0))
        assert self.r_mismatches() == PAIRS_WITH_SERIES
        assert self.inverse_mismatches() == PAIRS_WITH_SERIES

    def test_rejects_empty_legs(self):
        for build in (r_matrix, r_inverse):
            for dims in ((0, 2), (2, 0)):
                with pytest.raises(ValueError, match="positive"):
                    build(*dims)


class TestIntertwiner:
    def test_r_intertwines_coproduct(self):
        for da in range(1, 5):
            for db in range(1, 5):
                r = r_matrix(da, db)
                for g in ("X", "Y", "K"):
                    lhs = r * coproduct_gen(da, db, g)
                    rhs = coproduct_gen_op(da, db, g) * r
                    assert lhs == rhs, (da, db, g)


class TestYangBaxter:
    def test_mixed_dimensions(self):
        for da in range(1, 4):
            for db in range(1, 4):
                for dc in range(1, 4):
                    r12 = embed_12(r_matrix(da, db), dc)
                    r23 = embed_23(da, r_matrix(db, dc))
                    r13 = embed_13(da, db, dc, r_matrix(da, dc))
                    assert r12 * r13 * r23 == r23 * r13 * r12, (da, db, dc)


class TestBraidMatrix:
    def test_one_dimensional(self):
        assert braid_matrix(1) == QMatrix.identity(1)

    def test_flip_times_r(self):
        # braid_matrix permutes the rows of R; the oracle multiplies by the flip
        for d in range(1, 8):
            assert braid_matrix(d) == flip(d, d) * r_matrix(d, d), d

    def test_braid_relation(self):
        for d in (2, 3):
            b = braid_matrix(d)
            ident = QMatrix.identity(d)
            b1 = kron(b, ident)
            b2 = kron(ident, b)
            assert b1 * b2 * b1 == b2 * b1 * b2

    def test_quadratic_minimal_polynomial(self):
        # solve B^2 = s B + p I from two entries, then confirm the identity
        # and the two eigenvalue classes
        b = braid_matrix(2)
        b2 = b * b
        s = b2[(2, 1)] / b[(2, 1)]              # off-diagonal: no identity part
        p = b2[(0, 0)] - s * b[(0, 0)]
        ident = QMatrix.identity(4)
        assert b2 - b.scale(s) - ident.scale(p) == QMatrix.zeros(4)
        lam1, lam2 = x_pow(2), -x_pow(-6)
        assert s == lam1 + lam2
        assert p == -lam1 * lam2
        assert lam1 != lam2
        assert (b - ident.scale(lam1)) * (b - ident.scale(lam2)) == QMatrix.zeros(4)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_minimal_polynomial_against_a_zero_side(self, d):
        # prod_s (B - lambda_s) = 0 on V_d (x) V_d, decided by the ring image
        # against a zero matrix; dropping a root or shifting one leaves a
        # nonzero product.  The exact product is the oracle.
        zero = QMatrix.zeros(d * d)
        chain = eigenvalue_factors(d)
        assert products_equal(chain, [zero]) is True
        assert product(chain) == zero
        for s in range(d):
            for bad in (eigenvalue_factors(d, drop=s), eigenvalue_factors(d, shift=s)):
                assert products_equal(bad, [zero]) is False
                assert product(bad) != zero, (d, s)


def eigenvalue_factors(d, drop=None, shift=None):
    """The factors B - lambda_s, s = 0..d-1, of the minimal polynomial of B on
    V_d (x) V_d, with lambda_s = (-1)^(d-1-s) q^(s(s+1)/2 - (d^2-1)/4) the
    eigenvalue of the braiding on the summand V_(2s+1); the root s = drop
    left out, and the root s = shift times q."""
    b = braid_matrix(d)
    ident = QMatrix.identity(d * d)
    out = []
    for s in range(d):
        if s != drop:
            lam = x_pow(4 * s * (s + 1) - 2 * (d * d - 1) + 8 * (s == shift))
            out.append(b - ident.scale(lam if (d - 1 - s) % 2 == 0 else -lam))
    return out


class TestConjugatedR:
    def test_trivial(self):
        assert conjugated_r(1, 1) == QMatrix.identity(1)

    def test_matches_weyl_conjugation(self):
        for d in range(1, 5):
            w2 = kron(QMatrix.identity(d), weyl_w(d))
            direct = w2 * r21(d, d) * w2.inverse()
            assert conjugated_r(d, d) == direct

    def test_lowering_structure(self):
        # every off-diagonal entry moves both tensor indices down equally
        da, db = 2, 3
        m = conjugated_r(da, db)
        for r in range(da * db):
            for c in range(da * db):
                if r == c or not m[(r, c)]:
                    continue
                i_to, j_to = divmod(r, db)
                i_from, j_from = divmod(c, db)
                assert i_to - i_from == j_to - j_from > 0


class TestWeylExchange:
    def test_w_tensor_w_exchanges_r(self):
        for d in range(1, 5):
            ww = kron(weyl_w(d), weyl_w(d))
            assert ww * r_matrix(d, d) == r21(d, d) * ww


class TestDrinfeldElement:
    def test_trivial(self):
        assert drinfeld_u(1) == QMatrix.identity(1)

    def test_implements_antipode_squared(self):
        q = q_power(1)
        for d in range(1, 5):
            r = irrep(d)
            u = drinfeld_u(d)
            uinv = u.inverse()
            assert u * r.X * uinv == r.X.scale(q)
            assert u * r.Y * uinv == r.Y.scale(q.inverse())
            assert u * r.H * uinv == r.H
            assert u * r.K * uinv == r.K

    def test_commutes_with_h(self):
        r = irrep(3)
        u = drinfeld_u(3)
        assert u * r.H == r.H * u

    def test_matches_projector_sum(self):
        # the diagonal closed form against the antipoded series of R
        for d in range(1, 8):
            assert drinfeld_u(d) == u_projector_sum(d), d


class TestCartanFactor:
    def test_diagonal_values(self):
        m = cartan_factor(2, 2, 1)
        assert m == QMatrix.diagonal([x_pow(2), x_pow(-2), x_pow(-2), x_pow(2)])
        assert cartan_factor(2, 2, -1) * m == QMatrix.identity(4)

    def test_matches_projector_sum(self):
        for da in range(1, 6):
            for db in range(1, 6):
                for sign in (1, -1):
                    total = QMatrix.zeros(da * db)
                    for m in irrep(da).weights:
                        for mp in irrep(db).weights:
                            block = kron(projector(da, m), projector(db, mp))
                            total = total + block.scale(x_pow(2 * sign * m * mp))
                    assert cartan_factor(da, db, sign) == total, (da, db, sign)

    def test_series_coeff_values(self):
        assert series_coeff(0) == ONE
        assert series_coeff(1) == ONE - q_power(-1)
