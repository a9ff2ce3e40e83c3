import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from qweyl import qring
from qweyl.qring import (
    ONE,
    ZERO,
    X,
    Q,
    LaurentPoly,
    RingElem,
    _cancel,
    _int_exact_quotient,
    parse_ring_elem,
    q_binomial,
    q_factorial,
    q_int,
    q_power,
)
from qweyl.twist import TwistConfig, beta_coeffs, twist_t

from json_decode import elem_from_json, through_text


def x_pow(k):
    return RingElem.x_power(k)


def rand_poly(rng, max_terms=4, exp_range=6, coeff_range=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = rng.randint(-exp_range, exp_range)
        c = Fraction(rng.randint(-coeff_range, coeff_range),
                     rng.randint(1, coeff_range))
        terms[e] = terms.get(e, Fraction(0)) + c
    return LaurentPoly(terms)


def rand_elem(rng):
    num = rand_poly(rng)
    den = rand_poly(rng)
    while den.is_zero:
        den = rand_poly(rng)
    return RingElem(num, den)


def rand_nonzero(rng):
    e = rand_elem(rng)
    while e.is_zero:
        e = rand_elem(rng)
    return e


class TestQPower:
    def test_zero_exponent(self):
        assert q_power(0) == ONE

    def test_q_is_x8(self):
        assert q_power(1) == x_pow(8)

    def test_eighth_denominators(self):
        # the exponent -3/4 shows up in the 2-dimensional twist matrix
        assert q_power(Fraction(-3, 4)) == x_pow(-6)
        assert q_power(Fraction(1, 8)) == X

    def test_rejects_finer_denominator(self):
        with pytest.raises(ValueError):
            q_power(Fraction(1, 3))
        with pytest.raises(ValueError):
            q_power(Fraction(1, 16))


class TestArithmetic:
    def test_additive_inverse(self):
        assert X + (-X) == ZERO

    def test_polynomial_division(self):
        # (q - q^-1) / (q^(1/2) - q^(-1/2)) = q^(1/2) + q^(-1/2)
        a = x_pow(8) - x_pow(-8)
        b = x_pow(4) - x_pow(-4)
        assert a / b == x_pow(4) + x_pow(-4)

    def test_multiplicative_inverse(self):
        e = ONE / (X - ONE)
        assert e * (X - ONE) == ONE

    def test_division_by_zero_reported(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_int_coercion(self):
        assert X * 2 - X == X
        assert 1 + X - X == ONE
        assert (2 * X) / 2 == X

    def test_equal_values_hash_equal(self):
        half = Fraction(1, 2)
        pairs = [(ONE, 1), (ZERO, 0), (RingElem.from_rational(half), half),
                 (RingElem.from_rational(-3), -3), (LaurentPoly.monomial(0, 1), 1),
                 (LaurentPoly(), 0), (LaurentPoly.monomial(0, half), half)]
        for a, b in pairs:
            assert a == b
            assert hash(a) == hash(b), (a, b)
        assert len({ONE, 1}) == 1
        assert len({LaurentPoly.monomial(0, 1), 1, Fraction(1)}) == 1
        assert len({X, x_pow(1), X + ZERO}) == 1

    def test_negative_powers(self):
        assert X ** -3 == x_pow(-3)
        e = (X + ONE) ** -2
        assert e * (X + ONE) ** 2 == ONE


class TestCanonicalForm:
    def test_common_factor_cancelled(self):
        num = LaurentPoly({16: 1, 0: -1})        # x^16 - 1
        den = LaurentPoly({8: 1, 0: -1})         # x^8 - 1
        assert RingElem(num, den) == x_pow(8) + ONE

    def test_denominator_monic_and_shifted(self):
        num = LaurentPoly({0: 2})
        den = LaurentPoly({-3: 3, 1: 3})         # 3x^-3 + 3x = 3x^-3(1 + x^4)
        e = RingElem(num, den)
        assert e.den.min_exp() == 0
        assert e.den.terms[e.den.max_exp()] == 1
        assert e * RingElem(den) == RingElem(num)

    def test_cross_form_equality(self):
        rng = random.Random(7)
        for _ in range(300):
            a = rand_elem(rng)
            s = rand_nonzero(rng)
            b = RingElem(a.num * s.num, a.den * s.num)
            assert a == b

    def test_canonicalization_idempotent(self):
        rng = random.Random(11)
        for _ in range(300):
            e = rand_elem(rng)
            again = RingElem(e.num, e.den)
            assert again.num == e.num and again.den == e.den

    def test_coprimality_invariant(self):
        rng = random.Random(13)
        for _ in range(200):
            a, b = rand_elem(rng), rand_elem(rng)
            for e in (a * b, a + b):
                if e.is_zero or e.den.is_one:
                    continue
                num, den = _cancel(e.num, e.den)
                assert num is e.num and den is e.den


def int_mul(a, b):
    """Product of ascending integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


class TestExactDivision:
    def test_stride_quotient(self):
        # (x^8 - 1/4) / (x^4 - 1/2) = x^4 + 1/2, on stride 4
        a = LaurentPoly({8: 1, 0: Fraction(-1, 4)})
        g = LaurentPoly({4: 1, 0: Fraction(-1, 2)})
        qa, qg = _cancel(a, g)
        assert qg.terms.keys() == {0}
        assert qa == LaurentPoly({4: 1, 0: Fraction(1, 2)}) * qg
        # a shifted dividend keeps its x-unit: x^3 (3x^16 - 3) / (x^8 - 1)
        a = LaurentPoly({19: 3, 3: -3})
        qa, qg = _cancel(a, LaurentPoly({8: 1, 0: -1}))
        assert qg in (LaurentPoly({0: 1}), LaurentPoly({0: -1}))
        assert qa == LaurentPoly({11: 3, 3: 3}) * qg

    def test_inexact_divisor_raises(self):
        # ascending integer coefficients, in y = x^4 where the stride is 4
        cases = [
            ([1, 0, 1], [2, 1]),                 # stride 4, remainder 5
            ([1, 1], [1, 0, 1]),                 # 1 + x^4 by 1 + x^8, stride 4
            ([1, 1], [1, 2]),                    # leading 1 / 2 not integral
            ([1, 0, 0, 2], [1, 2]),              # second leading -1 / 2 not integral
            ([1, 0, 0, 1], [1, 0, 0, 0, 0, 1]),  # divisor of higher degree
        ]
        for a, g in cases:
            with pytest.raises(ArithmeticError, match="inexact"):
                _int_exact_quotient(a, g)

    def test_divisions_per_cancel(self, monkeypatch):
        # a gcd found at the first xi costs one division per side, which
        # also serves as the heuristic's acceptance test; a constant gcd none
        calls = []

        def counted(a, b):
            calls.append(b)
            return _int_exact_quotient(a, b)

        monkeypatch.setattr(qring, "_int_exact_quotient", counted)
        monkeypatch.setattr(qring, "HEU_GCD_TRIES", 1)
        half = Fraction(1, 2)
        common = [({16: 1, 0: -1}, {8: 1, 0: -1}),
                  ({2: 3, 1: -3}, {5: 1, 3: -1}),
                  ({8: 1, 0: Fraction(-1, 4)}, {4: 1, 0: -half})]
        coprime = [({1: 1, 0: 1}, {1: 1, 0: 2}),
                   ({8: 2, 0: half}, {0: 3}),
                   ({4: 1}, {12: 1, 0: 1})]
        for pairs, per_call, constant in ((common, 2, False), (coprime, 0, True)):
            for a, b in pairs:
                a, b = LaurentPoly(a), LaurentPoly(b)
                del calls[:]
                qa, qb = _cancel(a, b)
                assert len(calls) == per_call, (a, b)
                assert (qa is a and qb is b) == constant
                assert qa * b == qb * a


class TestHeuristicGcd:
    """GCDHEU against the PRS fallback, on pairs with a planted common factor."""

    @staticmethod
    def rand_factor(rng, stride, shape, top):
        if shape == "constant":
            exps = [0]
        elif shape == "monomial":
            exps = [stride * rng.randint(-3, 3)]
        else:
            exps = [stride * i for i in rng.sample(range(-2, 4), rng.randint(2, 4))]
        return LaurentPoly({e: rng.choice((-1, 1)) * rng.randint(1, top) for e in exps})

    def test_matches_prs_on_planted_factors(self):
        rng = random.Random("heu-vs-prs")
        seen = set()
        heu_used = 0
        for trial in range(300):
            stride = rng.choice((1, 2, 4, 8))
            top = 2 ** 70 if trial % 3 == 0 else 9
            shape = rng.choice(("dense", "dense", "constant", "monomial"))
            f = self.rand_factor(rng, stride, shape, top)
            g, h = (self.rand_factor(rng, stride, "dense", top) for _ in range(2))
            a, b = f * g, (f * h).shift(rng.randint(-5, 5))
            step = qring._stride(a, b) or 1
            pa = qring._int_primitive(qring._dense(a, step))
            pb = qring._int_primitive(qring._dense(b, step))
            prs = qring._int_prs_gcd(pa, pb)
            found = qring._int_heu_gcd(pa, pb)
            if found is not None:
                heu_used += 1
                gcd, qa, qb = found
                assert gcd in (prs, [-v for v in prs]), (a, b)
                assert int_mul(gcd, qa) == pa and int_mul(gcd, qb) == pb, (a, b)
            # the planted factor divides the gcd, both read in x
            in_x = [0] * (step * (len(prs) - 1) + 1)
            in_x[::step] = prs
            _int_exact_quotient(in_x, qring._int_primitive(qring._dense(f, 1)))
            ca, cb = _cancel(a, b)
            assert ca * b == cb * a
            assert (ca is a) == (len(prs) == 1)
            seen.add(shape)
            if step > 1:
                seen.add("stride")
            if pa[-1] < 0:
                seen.add("negative lead")
            if max(map(abs, pa)) >= 2 ** 64:
                seen.add("above 2^64")
        assert seen == {"dense", "constant", "monomial", "stride", "negative lead",
                        "above 2^64"}
        assert heu_used >= 290

    def test_factorial_divisions_need_no_prs(self, monkeypatch):
        # the gcd of a primed entry and [m]! has a far larger max-norm than
        # the entry that sets the first xi, so xi must grow fast enough to
        # reach it within HEU_GCD_TRIES points
        calls = []

        def counted(pa, pb):
            calls.append((pa, pb))
            return prs_gcd(pa, pb)

        prs_gcd = qring._int_prs_gcd
        monkeypatch.setattr(qring, "_int_prs_gcd", counted)
        beta_coeffs.cache_clear()
        try:
            beta_coeffs(16, 0)
        finally:
            beta_coeffs.cache_clear()
        assert calls == []


class TestIntegerStorage:
    def assert_stored_ints(self, *polys):
        for p in polys:
            assert type(p.denom) is int and p.denom > 0
            assert all(type(c) is int for c in p.terms.values())
            assert all(p.terms.values())
            assert math.gcd(p.denom, *p.terms.values()) == 1

    def test_every_operation_stores_ints(self):
        half = Fraction(1, 2)
        a = RingElem(LaurentPoly({4: half, 0: Fraction(3, 2)}),
                     LaurentPoly({8: Fraction(5, 2), 0: half}))
        b = RingElem(LaurentPoly({1: Fraction(-7, 2), -3: 1}))
        p = LaurentPoly({4: half, -4: Fraction(-3, 2)})
        self.assert_stored_ints(p, -p, p + p, p - p, p * p, p * p * p, p.shift(5),
                                p.scale(Fraction(2, 3)), LaurentPoly.monomial(2, half))
        for e in (a, b, a + b, a - b, a * b, a / b, -a, a.inverse(), a ** 3, b ** -2,
                  a * half, half - a):
            self.assert_stored_ints(e.num, e.den)

    def test_integer_polynomials_have_denominator_one(self):
        p = LaurentPoly({2: Fraction(1, 2), 0: Fraction(3, 2)})
        assert (p + p).denom == 1 and (p + p).terms == {2: 1, 0: 3}
        assert q_binomial(6, 3).num.denom == 1


class TestFieldAxioms:
    def test_randomized_axioms(self):
        rng = random.Random(2024)
        for _ in range(400):
            a, b, c = rand_elem(rng), rand_elem(rng), rand_elem(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a - a == ZERO
            if not a.is_zero:
                assert a * a.inverse() == ONE
                assert (b / a) * a == b


class TestEvaluate:
    def test_identity_substitution(self):
        assert abs(q_power(1).evaluate(0.7) - 0.7) < 1e-14

    def test_classical_limit(self):
        two = x_pow(4) + x_pow(-4)
        assert abs(two.evaluate(1.0) - 2.0) < 1e-14

    def test_half_power_substitution(self):
        two = x_pow(4) + x_pow(-4)
        expected = 0.7 + 1 / 0.7
        assert abs(two.evaluate(0.49) - expected) < 1e-12

    def test_homomorphism(self):
        rng = random.Random(99)
        for _ in range(400):
            a, b = rand_elem(rng), rand_elem(rng)
            q0 = rng.uniform(0.3, 2.0)
            try:
                av, bv = a.evaluate(q0), b.evaluate(q0)
                sv = (a + b).evaluate(q0)
                pv = (a * b).evaluate(q0)
            except ValueError:
                continue
            scale_s = max(1.0, abs(av) + abs(bv))
            scale_p = max(1.0, abs(av) * abs(bv))
            assert abs(sv - (av + bv)) <= 1e-12 * scale_s
            assert abs(pv - av * bv) <= 1e-12 * scale_p

    def test_half_integer_twist_entries_evaluate_term_by_term(self):
        # evaluate keeps the double arithmetic of a Fraction-coefficient sum,
        # term by term by ascending exponent, so numeric output cannot drift
        def reference(p, x0):
            return sum(complex(Fraction(c, p.denom)) * x0 ** e
                       for e, c in sorted(p.terms.items()))

        config = TwistConfig(beta1=Fraction(7, 2))
        for d in range(1, 6):
            for entry in (a for row in twist_t(d, config).entries for a in row):
                for q0 in (0.7, 1.3):
                    x0 = complex(q0) ** 0.125
                    assert entry.evaluate(q0) == reference(entry.num, x0) / reference(entry.den, x0)

    def test_evaluation_ignores_storage_order(self):
        # equal polynomials whose terms were stored in opposite orders
        terms = {-8: Fraction(-5, 2), -6: Fraction(-1, 2), -4: Fraction(3, 4),
                 -2: Fraction(6, 7), 0: Fraction(-3, 2), 2: Fraction(6),
                 4: Fraction(3, 7), 6: Fraction(-9, 8), 8: Fraction(-1, 4)}
        p = LaurentPoly(terms)
        r = LaurentPoly(dict(reversed(terms.items())))
        assert p == r and list(p.terms) != list(r.terms)
        x0 = 0.7 ** 0.125
        assert p(x0) == r(x0)
        assert RingElem(p).evaluate(0.7) == RingElem(r).evaluate(0.7)

    def test_denominator_zero_reported(self):
        e = ONE / (X - ONE)
        with pytest.raises(ValueError):
            e.evaluate(1.0)

    def test_pole_up_to_rounding_reported(self):
        # at these poles the denominator evaluates to about 1e-16, not 0
        for e, q0 in ((ONE / (Q - 2), 2.0), (ONE / (ONE + Q), -1.0)):
            with pytest.raises(ValueError, match="^denominator vanishes at q = "):
                e.evaluate(q0)
        assert abs((ONE / (Q - 2)).evaluate(2.001) - 1000) < 1e-6
        # the test is relative: a small denominator is not a pole
        assert (ONE / X ** 40).evaluate(1e-60) == pytest.approx(1e300)


class TestQCombinatorics:
    def test_quantum_integers(self):
        assert q_int(1) == ONE
        assert q_int(2) == x_pow(4) + x_pow(-4)
        assert q_int(3) == x_pow(8) + ONE + x_pow(-8)
        assert q_int(-4) == -q_int(4)
        assert q_int(0) == ZERO

    def test_quantum_integer_matches_defining_ratio(self):
        for n in range(1, 9):
            ratio = (q_power(Fraction(n, 2)) - q_power(Fraction(-n, 2))) / \
                    (q_power(Fraction(1, 2)) - q_power(Fraction(-1, 2)))
            assert q_int(n) == ratio

    def test_factorial(self):
        assert q_factorial(0) == ONE
        assert q_factorial(3) == q_int(2) * q_int(3)

    def test_factorial_table_fill_is_thread_safe(self):
        # four threads fill an emptied memo at once; a lost race must never
        # store a factorial under the wrong index
        expected = [ONE]
        for k in range(1, 26):
            expected.append(expected[-1] * q_int(k))
        saved_interval = sys.getswitchinterval()
        try:
            for _ in range(5):
                q_factorial.cache_clear()
                sys.setswitchinterval(1e-6)
                threads = [threading.Thread(target=q_factorial, args=(25,))
                           for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                sys.setswitchinterval(saved_interval)
                assert not any(t.is_alive() for t in threads)
                assert [q_factorial(k) for k in range(26)] == expected
        finally:
            sys.setswitchinterval(saved_interval)

    def test_factorial_fills_to_the_row_ceiling_from_empty(self, monkeypatch):
        # 255 = d - 1 for the largest twist the 256-row ceiling admits.  The
        # memo recurses once per missing index; [255]! itself takes minutes
        # to multiply out, so [k] is stood in for by x^k, and the product
        # of the recursion is then x^(255*256/2)
        monkeypatch.setattr(qring, "q_int", x_pow)
        q_factorial.cache_clear()
        try:
            assert q_factorial(255) == x_pow(255 * 256 // 2)
        finally:
            q_factorial.cache_clear()

    def test_binomial_values(self):
        assert q_binomial(2, 1) == q_int(2)
        assert q_binomial(3, -1) == ZERO
        assert q_binomial(3, 4) == ZERO
        assert q_binomial(-2, 1) == ZERO

    def test_binomial_ratio_agrees_with_recurrence_table(self):
        # build the triangle from the index-shift recurrence alone and
        # compare against the factorial-ratio definition
        table = {(0, 0): ONE}
        for a in range(12):
            for n in range(a + 2):
                prev = table.get((a, n), ZERO)
                lower = table.get((a, n - 1), ZERO)
                table[(a + 1, n)] = q_power(Fraction(-n, 2)) * prev + \
                    q_power(Fraction(a + 1 - n, 2)) * lower
        for a in range(13):
            for n in range(a + 1):
                assert table.get((a, n), ZERO) == q_binomial(a, n), (a, n)

    def test_binomial_matches_factorial_quotient(self):
        # the q-Pascal build from a cold memo against [n]! / ([k]! [n-k]!)
        q_binomial.cache_clear()
        for n in range(24):
            for k in range(n + 1):
                quotient = q_factorial(n) / (q_factorial(k) * q_factorial(n - k))
                assert q_binomial(n, k) == quotient, (n, k)

    def test_binomial_is_laurent_polynomial(self):
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k).den.is_one

    def test_binomial_recurrence(self):
        # [a+1 over n] = q^(-n/2) [a over n] + q^((a+1-n)/2) [a over n-1]
        for a in range(11):
            for n in range(a + 2):
                lhs = q_binomial(a + 1, n)
                rhs = q_power(Fraction(-n, 2)) * q_binomial(a, n) + \
                      q_power(Fraction(a + 1 - n, 2)) * q_binomial(a, n - 1)
                assert lhs == rhs


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            e = rand_elem(rng)
            assert elem_from_json(through_text(e.to_json())) == e

    def test_pinned_fractional_element(self):
        # (x^4/2 + 3/2) / (5/2 x^8 + 1/2): the denominator is made monic
        e = RingElem(LaurentPoly({4: Fraction(1, 2), 0: Fraction(3, 2)}),
                     LaurentPoly({8: Fraction(5, 2), 0: Fraction(1, 2)}))
        assert e.to_json() == {"num": [[0, "3/5"], [4, "1/5"]],
                               "den": [[0, "1/5"], [8, "1"]]}

    def test_schema_shape(self):
        e = (x_pow(4) + x_pow(-4)) / (X - ONE)
        obj = e.to_json()
        assert set(obj) == {"num", "den"}
        exps = [pair[0] for pair in obj["num"]]
        assert exps == sorted(exps)
        assert all(isinstance(pair[1], str) for pair in obj["num"])


class TestExpressionParser:
    def test_basic_atoms(self):
        assert parse_ring_elem("0") == ZERO
        assert parse_ring_elem("x") == X
        assert parse_ring_elem("q") == x_pow(8)

    def test_rationals_and_powers(self):
        assert parse_ring_elem("3/4") == RingElem.from_rational(Fraction(3, 4))
        assert parse_ring_elem("x^4 + x^-4") == q_int(2)
        assert parse_ring_elem("x^(-6)") == x_pow(-6)
        assert parse_ring_elem("(x+1)^2") == (X + ONE) ** 2

    def test_precedence(self):
        assert parse_ring_elem("1 + 2*x^8") == ONE + 2 * Q
        assert parse_ring_elem("-x^2") == -x_pow(2)
        assert parse_ring_elem("1/(q - 1)") == ONE / (Q - ONE)

    def test_errors(self):
        for bad in ("", "x +", "y", "x^z", "(x", "1/0"):
            with pytest.raises(ValueError):
                parse_ring_elem(bad)

    def test_power_size_limit(self):
        assert qring.MAX_POWER_SIZE == 512
        assert parse_ring_elem("x^512") == x_pow(512)
        assert parse_ring_elem("x^-512") == x_pow(-512)
        assert parse_ring_elem("2^256") == RingElem.from_rational(2 ** 256)
        assert parse_ring_elem("(1/3)^256") == RingElem.from_rational(Fraction(1, 3 ** 256))
        assert parse_ring_elem("(q^-1)^64") == x_pow(-512)
        assert parse_ring_elem("((1+x)^16)^32") == (X + ONE) ** 512
        for bad in ("x^513", "x^-513", "2^257", "(x^2)^257", "(q^-1)^65",
                    "((1+x)^16)^33", "(1+x)^100000", "2^100000000"):
            with pytest.raises(ValueError, match="too large"):
                parse_ring_elem(bad)
