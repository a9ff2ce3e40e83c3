import random
import re

import numpy as np
import pytest

from qweyl import braidrep
from qweyl.braidrep import (
    BraidWord,
    eval_braid_word,
    relation_report,
    verify_affine_relation,
    verify_zbn_relations,
    zbn_generators,
    zbn_generators_numeric,
)
from qweyl.qring import ONE, ZERO, RingElem, parse_ring_elem
from qweyl.repn import QMatrix, kron, product, products_equal
from qweyl.rmat import braid_matrix
from qweyl.twist import TwistConfig, braid_form_sides, four_braid_sides, twist_t

B0 = RingElem.from_rational(0)
B1 = ONE
CFG1 = TwistConfig(beta1=B1)


def generators(bundle):
    """The bundle's generators tau_0 .. tau_{n-1} as exact matrices."""
    return [bundle.generator(i) for i in range(bundle.n)]


class TestBundle:
    def test_trivial_rep(self):
        bundle = zbn_generators(1, 3, B1)
        for g in generators(bundle):
            assert g == QMatrix.identity(1)

    def test_two_strand_layout(self):
        bundle = zbn_generators(2, 2, B1)
        assert bundle.generator(0) == kron(twist_t(2, CFG1), QMatrix.identity(2))
        assert bundle.generator(1) == braid_matrix(2)

    def test_three_strand_sizes(self):
        bundle = zbn_generators(2, 3, B1)
        assert len(generators(bundle)) == 3
        for g in generators(bundle):
            assert g.rows == g.cols == 8

    def test_legs(self):
        # tau_0 = t (x) 1 on leg 0, tau_i = 1 (x) B (x) 1 on legs (i-1, i)
        bundle = zbn_generators(3, 4, B1)
        assert bundle.leg(0) == (1, bundle.twist, 27)
        assert bundle.leg(1) == (1, bundle.braid, 9)
        assert bundle.leg(2) == (3, bundle.braid, 3)
        assert bundle.leg(3) == (9, bundle.braid, 1)

    @pytest.mark.parametrize("d, n", [(2, 3), (3, 3), (2, 4)])
    def test_generators_follow_the_index_formula(self, d, n):
        # row r of V_d^(x n) is the basis vector with leg digits r_0 .. r_(n-1),
        # r = sum_k r_k d^(n-1-k).  tau_0 acts by t on leg 0 and tau_i, i >= 1,
        # by B on legs i-1, i (B's row index r_(i-1) d + r_i); every other
        # leg of row and column must agree.  An inverse inverts the factor.
        bundle = zbn_generators(d, n, B1)
        size = d ** n
        digits = [[r // d ** (n - 1 - k) % d for k in range(n)] for r in range(size)]

        def entry(factor, legs, r, c):
            if any(digits[r][k] != digits[c][k] for k in range(n) if k not in legs):
                return ZERO
            i = j = 0
            for k in legs:
                i, j = i * d + digits[r][k], j * d + digits[c][k]
            return factor.entries[i][j]

        for factors, exp in ((bundle, 1), (bundle.inverse, -1)):
            for g in range(n):
                factor, legs = (factors.twist, (0,)) if g == 0 else (factors.braid, (g - 1, g))
                expected = QMatrix([[entry(factor, legs, r, c) for c in range(size)]
                                    for r in range(size)])
                assert bundle.generator(g, exp) == expected, (g, exp)

    def test_guardrail(self, monkeypatch):
        monkeypatch.setattr(braidrep, "MAX_EXACT_DIM", 8)
        zbn_generators(2, 3, B1)
        with pytest.raises(ValueError):
            zbn_generators(2, 4, B1)
        # three rows, but a braid matrix of nine
        with pytest.raises(ValueError, match="braid matrix"):
            zbn_generators(3, 1, B1)
        monkeypatch.setattr(braidrep, "MAX_EXACT_DIM", 16)
        zbn_generators(2, 4, B1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            zbn_generators(0, 2, B1)
        with pytest.raises(ValueError):
            zbn_generators(2, 0, B1)

    @pytest.mark.parametrize("i", [3, 5, -1])
    def test_index_out_of_range(self, i):
        bundle = zbn_generators(2, 3, B1)
        message = "generator index %d out of range for 3 strands" % i
        for build in (bundle.leg, bundle.generator, lambda i: bundle.generator(i, -1)):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(i)

    @pytest.mark.parametrize("build", [
        lambda config: zbn_generators(2, 3, config),
        lambda config: zbn_generators_numeric(2, 3, 0.7, config),
        lambda config: verify_zbn_relations(2, 3, config)],
        ids=["exact", "numeric", "relations"])
    def test_rejects_config(self, build):
        # a bundle is built from beta1 alone, always with the standard twist
        with pytest.raises(TypeError):
            build(CFG1)


class TestRelations:
    def test_three_strands(self):
        for d in (2, 3):
            for b1 in (B0, B1):
                rep = verify_zbn_relations(d, 3, b1)
                assert rep.ok, rep.lines()

    def test_trivial_dimension(self):
        assert verify_zbn_relations(1, 4, B1).ok

    def test_four_strands(self):
        rep = verify_zbn_relations(2, 4, B1)
        assert rep.ok, rep.lines()

    def test_needs_two_strands(self):
        with pytest.raises(ValueError):
            verify_zbn_relations(2, 1, B1)

    def test_tampered_cylinder_generator_fails(self):
        gens = generators(zbn_generators(2, 3, B1))
        t = twist_t(2, CFG1)
        rows = [list(r) for r in t.entries]
        rows[1][1] = rows[1][1] + ONE
        bad_t = QMatrix(rows)
        bad_g0 = kron(kron(bad_t, QMatrix.identity(2)), QMatrix.identity(2))
        rep = relation_report(2, 3, [bad_g0] + gens[1:])
        assert not rep.ok
        failed = {c.name for c in rep.checks if not c.ok}
        assert "type-B relation with the cylinder generator" in failed
        typeb = next(c for c in rep.checks if not c.ok)
        assert "entry" in typeb.detail

    def test_affine_twist_fails_only_the_type_b_relation(self):
        # negative twin from a real wrong twist: the affine variant solves the
        # shifted relation, not the type-B one
        t = twist_t(2, TwistConfig(1, variant="affine"))
        b, one = braid_matrix(2), QMatrix.identity(2)
        gens = [kron(kron(t, one), one), kron(b, one), kron(one, b)]
        rep = relation_report(2, 3, gens)
        assert [c.ok for c in rep.checks].count(True) == 3
        assert [line for line in rep.lines() if line.startswith("FAIL")] == [
            "FAIL type-B relation with the cylinder generator  "
            "[entry (1,3): x^-10 - x^-18 != 0]"]

    # negative twins of the labelled families: tau_i := tau_i tau_j breaks
    # the relations that tie tau_i to a generator that tau_j does not commute with
    TAMPERED = [
        (3, 0, 1, ["FAIL type-B relation with the cylinder generator  "
                   "[entry (1,3): x^-6 - x^-22 != x^-6]",
                   "FAIL cylinder generator commutes with distant braids  [i=2]"]),
        (5, 0, 3, ["FAIL cylinder generator commutes with distant braids  "
                   "[i=2, i=4]"]),
        (5, 3, 0, ["FAIL far commutation among braid generators  [(1,3)]",
                   "FAIL braid relation on adjacent generators  [(2,3), (3,4)]"]),
    ]

    @pytest.mark.parametrize("n,i,j,expected", TAMPERED,
                             ids=["n%d-tau%d-tau%d" % t[:3] for t in TAMPERED])
    def test_tampered_generator_fail_lines(self, n, i, j, expected):
        gens = generators(zbn_generators(2, n, B1))
        gens[i] = gens[i] * gens[j]
        rep = relation_report(2, n, gens)
        assert [line for line in rep.lines() if line.startswith("FAIL")] == expected


class TestEquationFormsAgree:
    def test_verdicts_match_on_good_and_bad_input(self):
        for d in (2, 3):
            t = twist_t(d, CFG1)
            lhs, rhs = map(product, four_braid_sides(d, d, t, t))
            bl, br = map(product, braid_form_sides(d, t))
            assert (lhs == rhs) and (bl == br)
        t = twist_t(2, CFG1)
        rows = [list(r) for r in t.entries]
        rows[1][1] = rows[1][1] + ONE
        bad = QMatrix(rows)
        lhs, rhs = map(product, four_braid_sides(2, 2, bad, bad))
        bl, br = map(product, braid_form_sides(2, bad))
        assert (lhs != rhs) and (bl != br)


class TestWords:
    def test_empty_word(self):
        bundle = zbn_generators(2, 2, B1)
        word = BraidWord(n=2, letters=())
        assert eval_braid_word(word, bundle) == QMatrix.identity(4)

    def test_type_b_word_identity(self):
        bundle = zbn_generators(2, 2, B1)
        lhs = eval_braid_word(BraidWord.parse("0 1 0 1", 2), bundle)
        rhs = eval_braid_word(BraidWord.parse("1 0 1 0", 2), bundle)
        assert lhs == rhs

    def test_inverse_pair(self):
        bundle = zbn_generators(2, 2, B1)
        word = BraidWord.parse("1 1'", 2)
        assert eval_braid_word(word, bundle) == QMatrix.identity(4)
        word = BraidWord.parse("0 0'", 2)
        assert eval_braid_word(word, bundle) == QMatrix.identity(4)

    def test_homomorphism_on_random_words(self):
        bundle = zbn_generators(2, 3, B1)
        rng = random.Random(17)
        for _ in range(10):
            u = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(4))]
            v = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(4))]
            eu = eval_braid_word(BraidWord(3, tuple(u)), bundle)
            ev = eval_braid_word(BraidWord(3, tuple(v)), bundle)
            euv = eval_braid_word(BraidWord(3, tuple(u + v)), bundle)
            assert euv == eu * ev

    def test_word_validation(self):
        with pytest.raises(ValueError):
            BraidWord(n=2, letters=((2, 1),))
        with pytest.raises(ValueError):
            BraidWord(n=2, letters=((0, 2),))
        bundle = zbn_generators(2, 2, B1)
        with pytest.raises(ValueError):
            eval_braid_word(BraidWord(n=3, letters=()), bundle)


class TestFactorInverses:
    # (d, n) bundles and beta1 values of the inverse oracle
    SHAPES = [(2, 3), (3, 3), (2, 4)]
    BETAS = ["0", "1", "7/2", "x^4+1"]

    @pytest.mark.parametrize("beta1", BETAS)
    @pytest.mark.parametrize("d,n", SHAPES, ids=["V%d^(x%d)" % s for s in SHAPES])
    def test_generator_inverses(self, d, n, beta1):
        bundle = zbn_generators(d, n, parse_ring_elem(beta1))
        one = QMatrix.identity(d ** n)
        for i in range(n):
            g, g_inv = bundle.generator(i), bundle.generator(i, -1)
            assert g * g_inv == one
            assert g_inv * g == one
            # reference: Gauss-Jordan on the whole generator
            assert g_inv == g.inverse()

    def test_word_inverts_each_factor_once(self, monkeypatch):
        bundle = zbn_generators(3, 4, parse_ring_elem("7/2"))
        inverted = []
        inverse = QMatrix.inverse

        def spy(m):
            inverted.append(m)
            return inverse(m)

        monkeypatch.setattr(QMatrix, "inverse", spy)
        # every generator is inverted somewhere in the word
        word = BraidWord.parse("0 1 2' 3 0' 1' 2 3'", 4)
        product = eval_braid_word(word, bundle)
        assert product.rows == 81
        assert max(m.rows for m in inverted) <= 9
        assert sorted(id(m) for m in inverted) == sorted((id(bundle.twist),
                                                          id(bundle.braid)))


class TestAffine:
    def test_small_dimensions(self):
        assert verify_affine_relation(1, B1).ok
        assert verify_affine_relation(2, B1).ok
        assert verify_affine_relation(3, B0).ok

    def test_rejects_config(self):
        with pytest.raises(TypeError):
            verify_affine_relation(2, TwistConfig(beta1=B1))

    def test_tampered_twist_fails(self, monkeypatch):
        # negative twin: one entry of the conjugated twist moved by 1
        def tampered(d, config):
            rows = [list(r) for r in twist_t(d, config).entries]
            rows[1][1] = rows[1][1] + ONE
            return QMatrix(rows)

        monkeypatch.setattr(braidrep, "twist_t", tampered)
        rep = verify_affine_relation(3, B1)
        assert not rep.ok
        [line] = rep.lines()
        assert re.match(r"FAIL affine cylinder relation on V3 \(x\) V3  "
                        r"\[entry \(\d+,\d+\): ", line)


    def test_tampered_twist_detail_is_the_exact_one(self, monkeypatch):
        # the ring image refutes the sides; the line is the one the exact
        # products gave before the image was used
        def tampered(d, config):
            rows = [list(r) for r in twist_t(d, config).entries]
            rows[1][1] = rows[1][1] + ONE
            return QMatrix(rows)

        tbar = tampered(3, TwistConfig(beta1=B1, variant="affine"))
        assert products_equal(*braid_form_sides(3, tbar, affine=True)) is False
        monkeypatch.setattr(braidrep, "twist_t", tampered)
        assert verify_affine_relation(3, B1).lines() == [
            "FAIL affine cylinder relation on V3 (x) V3  [entry (5,7): x^4 - 2 + x^-4 "
            "- 2*x^-8 + x^-12 + 2*x^-16 + 2*x^-24 - 2*x^-28 - x^-36 != x^-4 + 2*x^-12 "
            "- 2*x^-28 - x^-36]"]


class TestNumericBundle:
    def test_matches_exact_evaluation(self):
        exact = zbn_generators(2, 3, B1)
        numeric = zbn_generators_numeric(2, 3, 0.7, B1)
        for g_exact, g_num in zip(generators(exact), numeric):
            assert np.max(np.abs(g_exact.evaluate(0.7) - g_num)) < 1e-12

    def test_not_subject_to_ceiling(self, monkeypatch):
        monkeypatch.setattr(braidrep, "MAX_EXACT_DIM", 4)
        gens = zbn_generators_numeric(2, 3, 0.7, B1)
        assert gens[0].shape == (8, 8)
