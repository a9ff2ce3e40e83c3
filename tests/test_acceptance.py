"""Acceptance suite: one check per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Everything on the exact path is compared with zero tolerance; the numeric
comparisons state their tolerances inline.
"""

import random
import time
from fractions import Fraction

from qweyl.braidrep import verify_affine_relation, verify_zbn_relations
from qweyl.qring import ONE, ZERO, LaurentPoly, RingElem, q_power
from qweyl.repn import QMatrix, irrep, kron
from qweyl.rmat import (
    drinfeld_u,
    r21,
    r_matrix,
)
from qweyl.twist import (
    TwistConfig,
    beta_coeffs,
    compare_reference_matrix,
    verify_bform,
    verify_coproduct,
    verify_four_braid,
    verify_inverse,
    verify_zdelta,
    weyl_w,
    zhat,
    _borel_series,
)

from coproduct_oracle import coproduct_gen, coproduct_gen_op, flip

B0 = RingElem.from_rational(0)
B1 = ONE
BX4 = RingElem.x_power(4)
BETA_SWEEP = (B0, B1, BX4)


def _line(num, ok, text):
    print("ACCEPTANCE %2s: %s ... %s" % (num, text, "PASS" if ok else "FAIL"))
    assert ok, text


def test_criterion_1_four_braid_sweep():
    start = time.time()
    ok = True
    for b1 in BETA_SWEEP:
        config = TwistConfig(beta1=b1)
        for da in range(1, 6):
            for db in range(1, 6):
                ok = ok and verify_four_braid(da, db, config).ok
    elapsed = time.time() - start
    _line(1, ok and elapsed < 60,
          "four-braid equation exact on all V_a (x) V_b, a,b <= 5, "
          "beta1 in {0, 1, x^4} (%.1fs)" % elapsed)


def test_criterion_2_reference_matrices():
    start = time.time()
    worst = 0.0
    for d in (2, 3, 4):
        for b1 in (0, 1, 2):
            for q0 in (0.7, 1.3):
                worst = max(worst, compare_reference_matrix(d, b1, q0))
    elapsed = time.time() - start
    _line(2, worst < 1e-9 and elapsed < 1.0,
          "closed-form matrices d in {2,3,4}, beta1 in {0,1,2}, "
          "q0 in {0.7,1.3}: worst residual %.2e (%.2fs)" % (worst, elapsed))


def test_criterion_3_yang_baxter_and_intertwiner():
    ok = True
    for da in range(1, 4):
        for db in range(1, 4):
            for dc in range(1, 4):
                r12 = kron(r_matrix(da, db), QMatrix.identity(dc))
                r23 = kron(QMatrix.identity(da), r_matrix(db, dc))
                swap = kron(QMatrix.identity(da), flip(dc, db))
                swap_back = kron(QMatrix.identity(da), flip(db, dc))
                r13 = swap * kron(r_matrix(da, dc), QMatrix.identity(db)) * swap_back
                ok = ok and (r12 * r13 * r23 == r23 * r13 * r12)
    for da in range(1, 5):
        for db in range(1, 5):
            r = r_matrix(da, db)
            for g in ("X", "Y", "K"):
                ok = ok and (r * coproduct_gen(da, db, g)
                             == coproduct_gen_op(da, db, g) * r)
    _line(3, ok, "Yang-Baxter exact (dims <= 3) and coproduct intertwiner "
                 "exact (dims <= 4)")


def test_criterion_4_braid_group_relations():
    ok = True
    for d in (2, 3):
        for b1 in (B0, B1):
            ok = ok and verify_zbn_relations(d, 3, b1).ok
    ok = ok and verify_zbn_relations(2, 4, B1).ok
    _line(4, ok, "type-B relation suite exact on V2^(x3), V3^(x3) "
                 "(beta1 in {0,1}) and V2^(x4)")


def test_criterion_5_coproduct_law():
    report = verify_coproduct(3, B1)
    _line(5, report.ok, "twist coproduct law exact for dims <= 3 and "
                        "counit value 1")


def test_criterion_6_derivation_replay():
    ok = True
    for da in range(1, 4):
        for db in range(1, 4):
            ok = ok and verify_zdelta(da, db, B1).ok
    _line(6, ok, "coproduct condition for z and its unipotent form exact "
                 "on all pairs from {1,2,3}")


def test_criterion_7_inverse_recursion():
    ok = True
    for b1 in BETA_SWEEP:
        ok = ok and verify_inverse(6, b1).ok
    _line(7, ok, "unipotent-factor inverse recursion exact for d <= 6, "
                 "beta1 in {0, 1, x^4}")


def test_criterion_7_negative_printed_recursion():
    # the variant with the summation index shifted down by one (the printed
    # form of the inverse recursion) must fail to invert zhat
    def printed_alphas(n_max, b1):
        table = beta_coeffs(n_max, b1)
        alphas = [ONE]
        for a in range(1, n_max + 1):
            acc = ZERO
            for m in range(a):
                acc = acc + (alphas[a - 1 - m] * table.betas[m]
                             * q_power(Fraction(-m * (a - 1 - m), 2)))
            alphas.append(-acc)
        return alphas

    fails = []
    for d, b1, label in ((2, B0, "d=2 beta1=0"), (2, BX4, "d=2 beta1=x^4"),
                         (3, B1, "d=3 beta1=1")):
        bad = _borel_series(d, printed_alphas(d - 1, b1))
        fails.append(zhat(d, b1) * bad != QMatrix.identity(d))
    # at d=2, beta1=1 the two recursions coincide (both give alpha_1 = -1),
    # so no failure is observable at that particular point; see the
    # decisions ledger
    coincide = _borel_series(2, printed_alphas(1, B1))
    agrees = zhat(2, B1) * coincide == QMatrix.identity(2)
    print("            note: at d=2, beta1=1 the printed and corrected "
          "recursions coincide (alpha_1 = -1 = -beta1), so the failure is "
          "demonstrated at neighboring points instead")
    _line("7n", all(fails) and agrees,
          "printed-index inverse recursion demonstrably fails "
          "(d=2 beta1 in {0, x^4}; d=3 beta1=1)")


def test_criterion_8_coefficient_identities():
    ok = True
    for b1 in (B0, B1):
        ok = ok and verify_bform(10, b1).ok
    _line(8, ok, "doubled coefficient sum depends only on a+b (a+b <= 10) "
                 "and both index-shift recurrences hold (a, b <= 6)")


def test_criterion_9_variant_family():
    configs = [TwistConfig(beta1=B1, variant="w_inverse"),
               TwistConfig(beta1=B1, variant="u_conjugate"),
               TwistConfig(beta1=B1, variant="affine"),
               TwistConfig(beta1=B1, variant="k_conjugate", alpha=Fraction(1, 2)),
               TwistConfig(beta1=B1, variant="k_conjugate", alpha=Fraction(-1, 2)),
               TwistConfig(beta1=B1, variant="k_conjugate", alpha=Fraction(1))]
    ok = True
    for config in configs:
        for d in range(1, 4):
            ok = ok and verify_four_braid(d, d, config).ok
    for d in range(1, 4):
        ok = ok and verify_affine_relation(d, B1).ok
    _line(9, ok, "variant solutions (w-inverse, K-conjugate, u-conjugate, "
                 "affine) each satisfy their governing relation for d <= 3")


def test_criterion_10_drinfeld_and_weyl_exchange():
    q = q_power(1)
    ok = True
    for d in range(1, 5):
        rep = irrep(d)
        u = drinfeld_u(d)
        uinv = u.inverse()
        ok = ok and (u * rep.X * uinv == rep.X.scale(q))
        ok = ok and (u * rep.Y * uinv == rep.Y.scale(q.inverse()))
        ok = ok and (u * rep.H * uinv == rep.H)
        ww = kron(weyl_w(d), weyl_w(d))
        ok = ok and (ww * r_matrix(d, d) == r21(d, d) * ww)
    _line(10, ok, "Drinfeld element conjugation squares the antipode and the "
                  "Weyl pair exchanges the R-matrix legs (d <= 4)")


def test_criterion_11_ring_property_suites():
    rng = random.Random(20240810)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            e = rng.randint(-6, 6)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            terms[e] = terms.get(e, Fraction(0)) + c
        return LaurentPoly(terms)

    def rand_elem():
        den = rand_poly()
        while den.is_zero:
            den = rand_poly()
        return RingElem(rand_poly(), den)

    exact_failures = 0
    for _ in range(1000):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        if (a + b) + c != a + (b + c):
            exact_failures += 1
        if (a * b) * c != a * (b * c):
            exact_failures += 1
        if a * (b + c) != a * b + a * c:
            exact_failures += 1
        if not a.is_zero and a * a.inverse() != ONE:
            exact_failures += 1

    numeric_failures = 0
    cases = 0
    while cases < 1000:
        a, b = rand_elem(), rand_elem()
        q0 = rng.uniform(0.3, 2.0)
        try:
            av, bv = a.evaluate(q0), b.evaluate(q0)
            sv = (a + b).evaluate(q0)
            pv = (a * b).evaluate(q0)
        except ValueError:
            continue
        cases += 1
        if abs(sv - (av + bv)) > 1e-12 * max(1.0, abs(av) + abs(bv)):
            numeric_failures += 1
        if abs(pv - av * bv) > 1e-12 * max(1.0, abs(av) * abs(bv)):
            numeric_failures += 1
    _line(11, exact_failures == 0 and numeric_failures == 0,
          "field axioms (1000 random triples, exact) and evaluation "
          "homomorphism (1000 random pairs, 1e-12 relative)")
