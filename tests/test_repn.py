import random
from fractions import Fraction

import pytest

from qweyl.qring import ONE, ZERO, LaurentPoly, RingElem, q_int, q_power
from qweyl.repn import (
    QMatrix,
    embed,
    irrep,
    kron,
    powers,
    tensor_series,
    x_diagonal,
)

from coproduct_oracle import flip
from json_decode import matrix_from_json, through_text


def x_pow(k):
    return RingElem.x_power(k)


def projector(d, m):
    """Diagonal idempotent onto the m-weight space of the d-dim irrep."""
    return QMatrix.diagonal([ONE if h == m else ZERO for h in irrep(d).weights])


def rand_matrix(rng, n):
    def entry():
        terms = {rng.randint(-3, 3): Fraction(rng.randint(-4, 4))
                 for _ in range(rng.randint(0, 3))}
        return RingElem(LaurentPoly(terms))
    return QMatrix([[entry() for _ in range(n)] for _ in range(n)])


def mixed_entry(rng):
    """ZERO, ONE, a distinct element equal to one, a zero that is not ZERO,
    a Laurent polynomial or a rational function."""
    kind = rng.randrange(6)
    if kind == 0:
        return ZERO
    if kind == 1:
        return ONE
    if kind == 2:
        return RingElem(1)
    if kind == 3:
        return RingElem(LaurentPoly({2: 1})) - x_pow(2)
    if kind == 4:
        return RingElem(LaurentPoly({rng.randint(-4, 4): Fraction(rng.randint(-3, 3) or 1, 2),
                                     rng.randint(-4, 4): 1}))
    return RingElem(LaurentPoly({rng.randint(-2, 2): rng.randint(1, 3)}),
                    LaurentPoly({0: 1, 8: -rng.randint(2, 5)}))


def mixed_matrix(rng, rows, cols, zero_row=None):
    """A rows x cols matrix of mixed_entry values; row zero_row all ZERO."""
    return QMatrix([[ZERO if i == zero_row else mixed_entry(rng) for _ in range(cols)]
                    for i in range(rows)])


# every kind of entry that the fast paths treat apart
MIXED = QMatrix([[ZERO, ONE, RingElem(1)],
                 [RingElem(LaurentPoly({0: 1}), LaurentPoly({0: 1, 8: -2})), x_pow(-3), ZERO]])


def entry_kron(*legs):
    """The Kronecker product of the legs from its entry formula: a_ij b_pq
    is the entry (i rb + p, j cb + q) of A (x) B, with B of shape rb x cb."""
    out = legs[0]
    for b in legs[1:]:
        rb, cb = b.rows, b.cols
        entries = [[ZERO] * (out.cols * cb) for _ in range(out.rows * rb)]
        for i in range(out.rows):
            for j in range(out.cols):
                for p in range(rb):
                    for q in range(cb):
                        entries[i * rb + p][j * cb + q] = out[(i, j)] * b[(p, q)]
        out = QMatrix(entries)
    return out


def dense_series(terms):
    """The sum of c * (A_1 (x) ... (x) A_k), added over every entry."""
    total = None
    for c, *legs in terms:
        k = entry_kron(*legs)
        term = [[c * k[(i, j)] for j in range(k.cols)] for i in range(k.rows)]
        total = term if total is None else [[a + b for a, b in zip(ra, rb)]
                                            for ra, rb in zip(total, term)]
    return QMatrix(total)


class TestQMatrix:
    def test_identity_product(self):
        rng = random.Random(3)
        a = rand_matrix(rng, 3)
        assert QMatrix.identity(3) * a == a
        assert a * QMatrix.identity(3) == a

    def test_associativity_spot(self):
        rng = random.Random(4)
        a, b, c = (rand_matrix(rng, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)

    def test_inverse(self):
        rng = random.Random(5)
        m = rand_matrix(rng, 3) + QMatrix.identity(3).scale(x_pow(2))
        inv = m.inverse()
        assert m * inv == QMatrix.identity(3)
        assert inv * m == QMatrix.identity(3)

    def test_singular_reported(self):
        with pytest.raises(ZeroDivisionError):
            QMatrix.zeros(2).inverse()

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            QMatrix.zeros(2, 3) * QMatrix.zeros(2, 3)

    def test_sums_match_entry_formula(self):
        rng = random.Random(14)
        pairs = [(MIXED, MIXED), (MIXED, mixed_matrix(rng, 2, 3, zero_row=0))]
        pairs += [(mixed_matrix(rng, r, k), mixed_matrix(rng, r, k, zero_row=r - 1))
                  for r, k in ((1, 1), (3, 2), (2, 4), (4, 4))]
        for a, b in pairs:
            def entrywise(f):
                return QMatrix([[f(a[(i, j)], b[(i, j)]) for j in range(a.cols)]
                                for i in range(a.rows)])

            assert a + b == entrywise(lambda u, v: u + v)
            assert a - b == entrywise(lambda u, v: u - v)
            assert -a == entrywise(lambda u, v: -u)
            assert (a - a).is_zero
        for a, b in ((MIXED, QMatrix.identity(2)), (QMatrix.zeros(2, 3), QMatrix.zeros(3, 2))):
            with pytest.raises(ValueError, match="shape mismatch"):
                a + b
            with pytest.raises(ValueError, match="shape mismatch"):
                a - b

    def test_json_round_trip(self):
        rng = random.Random(6)
        m = rand_matrix(rng, 3)
        assert matrix_from_json(through_text(m.to_json())) == m


class TestIrrep:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            irrep(0)

    def test_trivial_rep(self):
        r = irrep(1)
        assert r.H == QMatrix.zeros(1)
        assert r.X == QMatrix.zeros(1)
        assert r.Y == QMatrix.zeros(1)
        assert r.K == QMatrix.identity(1)

    def test_two_dimensional(self):
        r = irrep(2)
        assert r.H == QMatrix.diagonal([1, -1])
        assert r.X == QMatrix([[0, 1], [0, 0]])
        assert r.Y == QMatrix([[0, 0], [1, 0]])
        assert r.K == QMatrix.diagonal([x_pow(2), x_pow(-2)])

    def test_three_dimensional_couplings(self):
        r = irrep(3)
        two = q_int(2)
        assert r.X[(0, 1)] == two
        assert r.X[(1, 2)] == two

    def test_commutation_relations(self):
        half = q_power(Fraction(1, 2))
        for d in range(1, 9):
            r = irrep(d)
            assert r.H * r.X - r.X * r.H == r.X.scale(2)
            assert r.H * r.Y - r.Y * r.H == r.Y.scale(-2)
            denom = q_power(Fraction(1, 2)) - q_power(Fraction(-1, 2))
            lhs = r.X * r.Y - r.Y * r.X
            rhs = (r.K * r.K - r.Kinv * r.Kinv).scale(denom.inverse())
            assert lhs == rhs
            assert r.K * r.X == (r.X * r.K).scale(half)
            assert r.K * r.Y == (r.Y * r.K).scale(half.inverse())

    def test_commutator_is_quantum_weight(self):
        for d in range(1, 9):
            r = irrep(d)
            comm = r.X * r.Y - r.Y * r.X
            expected = QMatrix.diagonal([q_int(h) for h in r.weights])
            assert comm == expected

    def test_weights_decreasing(self):
        for d in range(1, 9):
            w = irrep(d).weights
            assert w == tuple(sorted(w, reverse=True))
            assert w[0] == d - 1 and w[-1] == -(d - 1)

    def test_e_f_definitions_and_powers(self):
        for d in range(1, 9):
            r = irrep(d)
            assert r.E == r.K * r.X
            assert r.F == r.Kinv * r.Y
            En = QMatrix.identity(d)
            Fn = QMatrix.identity(d)
            Kn = QMatrix.identity(d)
            Kn_inv = QMatrix.identity(d)
            Xn = QMatrix.identity(d)
            Yn = QMatrix.identity(d)
            for n in range(1, d + 1):
                En, Fn = En * r.E, Fn * r.F
                Kn, Kn_inv = Kn * r.K, Kn_inv * r.Kinv
                Xn, Yn = Xn * r.X, Yn * r.Y
                scalar = q_power(Fraction(-n * (n - 1), 4))
                assert En == (Kn * Xn).scale(scalar)
                assert Fn == (Kn_inv * Yn).scale(scalar)

    def test_nilpotency(self):
        for d in range(1, 9):
            r = irrep(d)
            xp = QMatrix.identity(d)
            yp = QMatrix.identity(d)
            for _ in range(d):
                xp, yp = xp * r.X, yp * r.Y
            assert xp.is_zero and yp.is_zero


class TestProjectors:
    def test_examples(self):
        assert projector(2, 1) == QMatrix.diagonal([1, 0])
        assert projector(2, 0) == QMatrix.zeros(2)
        assert projector(3, 0) == QMatrix.diagonal([0, 1, 0])

    def test_resolution_of_identity(self):
        for d in range(1, 6):
            total = QMatrix.zeros(d)
            for m in range(-d, d + 1):
                total = total + projector(d, m)
            assert total == QMatrix.identity(d)

    def test_h_power(self):
        # q^(-H/4) = x^(-2h) on V3
        m = x_diagonal(-2 * h for h in irrep(3).weights)
        assert m == QMatrix.diagonal([x_pow(-4), ONE, x_pow(4)])

    def test_h_squared(self):
        # q^(-H^2/8) = x^(-h^2)
        m = x_diagonal(-h * h for h in irrep(2).weights)
        assert m == QMatrix.diagonal([x_pow(-1), x_pow(-1)])
        m = x_diagonal(-h * h for h in irrep(3).weights)
        assert m == QMatrix.diagonal([x_pow(-4), ONE, x_pow(-4)])

    def test_x_diagonal_is_projector_sum(self):
        for d in range(1, 6):
            total = QMatrix.zeros(d)
            for m in irrep(d).weights:
                total = total + projector(d, m).scale(x_pow(3 * m - 1))
            assert x_diagonal(3 * h - 1 for h in irrep(d).weights) == total


class TestKronFlip:
    def test_kron_identity(self):
        assert kron(QMatrix.identity(2), QMatrix.identity(2)) == QMatrix.identity(4)

    def test_flip_moves_basis_vector(self):
        p = flip(2, 2)
        # e_0 (x) e_1 has index 1; e_1 (x) e_0 has index 2
        assert p[(2, 1)] == ONE
        assert p[(1, 2)] == ONE
        assert p[(0, 0)] == ONE and p[(3, 3)] == ONE
        assert p * p == QMatrix.identity(4)

    def test_flip_conjugates_kron(self):
        rng = random.Random(8)
        for _ in range(5):
            a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
            p = flip(2, 2)
            assert p * kron(a, b) * p == kron(b, a)

    def test_kron_and_scale_match_entry_formula(self):
        rng = random.Random(31)
        mats = [MIXED, mixed_matrix(rng, 3, 2, zero_row=1)]
        mats += [mixed_matrix(rng, rng.randint(1, 3), rng.randint(1, 3)) for _ in range(6)]
        scalars = (ZERO, ONE, RingElem(1), 0, 1, Fraction(-2, 3), x_pow(5),
                   RingElem(LaurentPoly({1: 1}), LaurentPoly({0: 1, 8: 3})))
        for a in mats:
            for b in mats:
                assert kron(a, b) == entry_kron(a, b)
            for s in scalars:
                expected = QMatrix([[a[(i, j)] * s for j in range(a.cols)]
                                    for i in range(a.rows)])
                assert a.scale(s) == expected, s

    def test_rectangular_flip(self):
        p = flip(2, 3)
        q = flip(3, 2)
        assert q * p == QMatrix.identity(6)

    def test_cartan_factor_from_projectors(self):
        # q^(H (x) H / 4) assembled from weight projectors is diagonal with
        # entries x^(2 m m')
        da, db = 2, 3
        total = QMatrix.zeros(da * db)
        for m in range(-da, da + 1):
            for mp in range(-db, db + 1):
                block = kron(projector(da, m), projector(db, mp))
                total = total + block.scale(x_pow(2 * m * mp))
        expected = []
        for ha in irrep(da).weights:
            for hb in irrep(db).weights:
                expected.append(x_pow(2 * ha * hb))
        assert total == QMatrix.diagonal(expected)


def dense_product(a, b):
    """The independent oracle for A B: sum_k a_ik b_kj over every k, zeros
    included, one RingElem product and sum at a time."""
    out = [[ZERO] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] = out[i][j] + a[(i, k)] * b[(k, j)]
    return tuple(map(tuple, out))


def scanned_rows(m):
    """Per row, the (column, entry) pairs of the entries that compare unequal to 0."""
    return tuple(tuple((j, a) for j, a in enumerate(row) if a != 0) for row in m.entries)


def holed_matrix(rng, rows, cols):
    """A mixed matrix with one zero row and one zero column, both chosen by rng."""
    zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
    return QMatrix([[ZERO if i == zero_row or j == zero_col else mixed_entry(rng)
                     for j in range(cols)] for i in range(rows)])


def with_index(m, index):
    """A copy of m whose index of nonzeros is `index`, whatever its entries."""
    out = QMatrix._raw(m.rows, m.cols, m.entries)
    out._nonzero = index
    return out


class TestNonzeroRows:
    def test_products_match_dense_oracle(self):
        rng = random.Random(21)
        for _ in range(40):
            n, m, p, r = (rng.randint(1, 5) for _ in range(4))
            a, b, c = holed_matrix(rng, n, m), holed_matrix(rng, m, p), rand_matrix(rng, p)
            ab = a * b
            assert ab.entries == dense_product(a, b)
            # a product's own index, read by the next product
            assert (ab * c).entries == dense_product(ab, c)
            d = holed_matrix(rng, p, r)
            assert (ab * d).entries == dense_product(ab, d)

    def test_index_is_built_once(self):
        rng = random.Random(22)
        a, b = holed_matrix(rng, 3, 4), holed_matrix(rng, 4, 2)
        index = b.nonzero_rows()
        assert b.nonzero_rows() is index
        a * b
        b * QMatrix.identity(2)
        assert b.nonzero_rows() is index
        assert a.nonzero_rows() is a.nonzero_rows()

    def test_constructors_report_their_nonzeros(self):
        rng = random.Random(23)
        built = holed_matrix(rng, 3, 4)
        zero = RingElem(LaurentPoly({2: 1})) - x_pow(2)
        cases = [built, MIXED, QMatrix([[zero, 1], [0, Fraction(1, 2)]]),
                 QMatrix._raw(built.rows, built.cols, built.entries),
                 QMatrix.zeros(2, 3), QMatrix.zeros(1), QMatrix.identity(3),
                 QMatrix.diagonal([ONE, ZERO, x_pow(-2), zero])]
        for m in cases:
            assert m.nonzero_rows() == scanned_rows(m)
            assert m.is_zero == (not any(scanned_rows(m)))
        assert QMatrix.zeros(2, 3).nonzero_rows() == ((), ())
        assert QMatrix.identity(3).nonzero_rows() == (((0, ONE),), ((1, ONE),), ((2, ONE),))
        assert QMatrix.diagonal([ONE, ZERO, 3]).nonzero_rows() == (((0, ONE),), (), ((2, 3),))
        assert MIXED.nonzero_rows() == (((1, ONE), (2, ONE)), ((0, MIXED[(1, 0)]), (1, x_pow(-3))))

    def test_dropped_index_entry_fails_the_oracle(self):
        # the negative twin: products, kron and is_zero read the index, so an
        # index that leaves out one nonzero entry changes each of them
        rng = random.Random(24)
        a = holed_matrix(rng, 3, 4)
        index = a.nonzero_rows()
        left, right = QMatrix.identity(3), QMatrix.identity(4)
        dropped = 0
        for i, row in enumerate(index):
            for n in range(len(row)):
                tampered = with_index(a, index[:i] + (row[:n] + row[n + 1:],) + index[i + 1:])
                assert tampered == a
                assert (tampered * right).entries != dense_product(tampered, right)
                assert (left * tampered).entries != dense_product(left, tampered)
                assert kron(tampered, left) != entry_kron(tampered, left)
                dropped += 1
        assert dropped == sum(map(len, index)) > 0
        assert with_index(a, ((),) * a.rows).is_zero
        assert (a * right).entries == dense_product(a, right)


class TestBuilders:
    def test_powers(self):
        r = irrep(4)
        p = powers(r.Y, 4)
        assert len(p) == 5
        assert p[0] == QMatrix.identity(4)
        assert p[3] == r.Y * r.Y * r.Y
        assert p[4].is_zero

    def test_tensor_series_matches_explicit_sum(self):
        rng = random.Random(9)
        a = [rand_matrix(rng, 2) for _ in range(3)]
        b = [rand_matrix(rng, 3) for _ in range(3)]
        c = [x_pow(k) + k for k in range(3)]
        assert tensor_series(zip(c, a, b)) == dense_series(zip(c, a, b))
        plain = [(c[0], a[0]), (c[1], a[1])]
        assert tensor_series(plain) == dense_series(plain)

    def test_tensor_series_matches_entry_formula(self):
        rng = random.Random(12)
        c = [x_pow(3) - 2, RingElem(LaurentPoly({0: 1}), LaurentPoly({0: 1, 8: 1})), 5, ONE]

        def legs(*shapes):
            # the first leg of each term has a zero row
            return [mixed_matrix(rng, r, k, zero_row=None if n else 0)
                    for n, (r, k) in enumerate(shapes)]

        cases = [
            [(c[0], *legs((2, 3))), (c[1], *legs((2, 3))), (c[2], *legs((2, 3)))],
            [(ck, *legs((2, 3), (3, 2))) for ck in c],
            [(ck, *legs((2, 2), (1, 3), (2, 1))) for ck in c],
            [(c[2], MIXED, MIXED), (RingElem(1), MIXED, MIXED), (0, MIXED, MIXED)],
        ]
        for terms in cases:
            assert tensor_series(terms) == dense_series(terms)
        # terms that cancel: c A (x) B - c A (x) B, and a third term left over
        a, b, d, e = legs((2, 3), (3, 2), (2, 3), (3, 2))
        assert tensor_series([(c[1], a, b), (-c[1], a, b)]) == QMatrix.zeros(6)
        assert tensor_series([(c[1], a, b), (c[0], d, e), (-c[1], a, b)]) \
            == dense_series([(c[0], d, e)])

    def test_tensor_series_rejects_mixed_shapes_and_empty(self):
        a, b = QMatrix.identity(2), QMatrix.identity(3)
        with pytest.raises(ValueError, match="shape mismatch"):
            tensor_series([(ONE, a, a), (ONE, a, b)])
        with pytest.raises(ValueError, match="shape mismatch"):
            tensor_series([(ONE, a), (ONE, a, a)])
        with pytest.raises(ValueError, match="at least one term"):
            tensor_series([])

    def test_embed_matches_kron_with_identities(self):
        rng = random.Random(10)
        m = rand_matrix(rng, 2)
        i2, i3 = QMatrix.identity(2), QMatrix.identity(3)
        assert embed(m) == m
        assert embed(m, left=3) == entry_kron(i3, m)
        assert embed(m, right=2) == entry_kron(m, i2)
        assert embed(m, left=2, right=3) == entry_kron(i2, m, i3)
