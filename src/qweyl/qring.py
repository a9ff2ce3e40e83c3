"""Exact arithmetic in Q(x), the fraction field of Laurent polynomials in x.

The variable x stands for the eighth root q^(1/8), so every fractional
power of q with denominator dividing 8 is an integer power of x.  All
matrices in this package have entries in this field; nothing here is
floating point except the explicit `evaluate` bridge.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache


def _coeff(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError("coefficient must be int or Fraction, got %r" % type(v).__name__)


# ---------------------------------------------------------------------------
# dense helpers for ordinary integer polynomials (ascending coefficient
# lists); used only by canonicalization


def _trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _int_primitive(ints):
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _int_pseudo_rem(a, b):
    # fraction-free remainder: repeatedly a := lc(b)*a - lc(a)*x^k*b
    a = a[:]
    db = len(b) - 1
    lb = b[-1]
    while a and len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        if lb != 1:
            for i in range(len(a)):
                a[i] *= lb
        for i in range(len(b)):
            a[shift + i] -= la * b[i]
        _trim(a)
    return a


def _int_exact_quotient(a, b):
    """Quotient a / b of integer polynomials, b primitive.

    By Gauss's lemma b divides a over Q only if the quotient is integral,
    so every leading division must be exact and the remainder zero.
    """
    a = a[:]
    db = len(b) - 1
    lb = b[-1]
    nonzero = [(i, v) for i, v in enumerate(b) if v]
    q = [0] * max(0, len(a) - db)
    while a and len(a) - 1 >= db:
        factor, rem = divmod(a[-1], lb)
        if rem:
            break
        shift = len(a) - 1 - db
        q[shift] = factor
        for i, v in nonzero:
            a[shift + i] -= factor * v
        _trim(a)
    if a:
        raise ArithmeticError("inexact polynomial division")
    return q


def _mul_add(out, a, b):
    """out + a * b on exponent -> integer numerator dicts, zero sums dropped;
    a new dict when out is empty and a factor is a monomial, else out itself."""
    if not out and (len(a) == 1 or len(b) == 1):
        if len(a) != 1:
            a, b = b, a
        (ea, ca), = a.items()
        return {ea + e: ca * c for e, c in b.items()}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e)
            if s is None:
                out[e] = ca * cb
            else:
                s += ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


class LaurentPoly:
    """A Laurent polynomial in x with exact rational coefficients.

    Stored as integer numerators keyed by exponent (`terms`, zeros omitted)
    over one positive integer denominator `denom` shared by every term, in
    lowest terms: gcd(denom, numerators) == 1, so an integer polynomial has
    denom 1.  `coefficients()` gives the Fraction values.  Instances are
    treated as immutable.
    """

    __slots__ = ("terms", "denom")

    def __init__(self, terms=None):
        fracs = {}
        if terms:
            for e, c in terms.items():
                c = _coeff(c)
                if c:
                    fracs[int(e)] = c
        # over the lcm of the denominators the numerators share no factor
        # with it: some term carries each prime power of the lcm in full
        den = math.lcm(*(c.denominator for c in fracs.values()))
        self.terms = {e: c.numerator * (den // c.denominator)
                      for e, c in fracs.items()}
        self.denom = den

    @classmethod
    def _raw(cls, terms, denom=1):
        # internal fast constructor: terms and denom already in lowest terms
        p = object.__new__(cls)
        p.terms = terms
        p.denom = denom
        return p

    @classmethod
    def _reduced(cls, terms, denom):
        # internal constructor: integer terms, zeros omitted, over a positive
        # denom; no terms at all reduce to the zero polynomial over 1
        if denom != 1:
            g = math.gcd(denom, *terms.values())
            if g != 1:
                terms = {e: c // g for e, c in terms.items()}
                denom //= g
        return cls._raw(terms, denom)

    @classmethod
    def monomial(cls, exp, coeff=1):
        c = _coeff(coeff)
        return cls._raw({int(exp): c.numerator}, c.denominator) if c else cls._raw({})

    def coefficients(self):
        """The coefficients as an {exponent: Fraction} dict, in storage order."""
        d = self.denom
        return {e: Fraction(c, d) for e, c in self.terms.items()}

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_one(self):
        return self.denom == 1 and len(self.terms) == 1 and self.terms.get(0) == 1

    def min_exp(self):
        return min(self.terms)

    def max_exp(self):
        return max(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _plus(self, other, sign):
        # self + sign * other over the common denominator, merged into a copy
        da, db = self.denom, other.denom
        g = math.gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        out = dict(self.terms) if ma == 1 else {e: c * ma for e, c in self.terms.items()}
        return LaurentPoly._reduced(_mul_add(out, {0: mb}, other.terms), da * ma)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self.terms.items()}, self.denom)

    def __mul__(self, other):
        return LaurentPoly._reduced(_mul_add({}, self.terms, other.terms),
                                    self.denom * other.denom)

    def scale(self, c):
        c = _coeff(c)
        if not c:
            return _P_ZERO
        n = c.numerator
        return LaurentPoly._reduced({e: v * n for e, v in self.terms.items()},
                                    self.denom * c.denominator)

    def shift(self, k):
        if k == 0:
            return self
        return LaurentPoly._raw({e + k: c for e, c in self.terms.items()}, self.denom)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.denom == other.denom and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.terms
            return self.denom == other.denominator and self.terms == {0: other.numerator}
        return NotImplemented

    def __hash__(self):
        # a constant equals its int or Fraction, so it must hash like it
        if not self.terms.keys() - {0}:
            return hash(Fraction(self.terms.get(0, 0), self.denom))
        return hash((frozenset(self.terms.items()), self.denom))

    # -- conversion -----------------------------------------------------------

    def __call__(self, xval):
        # by ascending exponent, so equal polynomials give equal bits
        return sum(complex(c) * xval ** e
                   for e, c in sorted(self.coefficients().items()))

    def format(self, monomial):
        """The terms by falling exponent, joined by their signs;
        monomial(|c|, e) writes the body of the term c x^e."""
        if not self.terms:
            return "0"
        text = "".join((" - " if c < 0 else " + ") + monomial(abs(c), e)
                       for e, c in sorted(self.coefficients().items(), reverse=True))
        # the first term carries its sign without spaces
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __str__(self):
        return self.format(_plain_monomial)

    def __repr__(self):
        return "LaurentPoly(%s)" % self


def _plain_monomial(c, e):
    if e == 0:
        return str(c)
    xs = "x" if e == 1 else "x^%d" % e
    return xs if c == 1 else "%s*%s" % (c, xs)


_P_ZERO = LaurentPoly._raw({})
_P_ONE = LaurentPoly._raw({0: 1})


def _stride(*polys):
    """Gcd of the exponent steps of the polys; 0 when all are monomials."""
    g = 0
    for p in polys:
        v = min(p.terms)
        g = math.gcd(g, *[e - v for e in p.terms])
    return g


def _dense(p, step):
    """Integer numerators of p / x^min_exp as an ascending list in y = x^step."""
    v = min(p.terms)
    out = [0] * ((max(p.terms) - v) // step + 1)
    for e, c in p.terms.items():
        out[(e - v) // step] = c
    return out


HEU_GCD_TRIES = 6
"""Evaluation points the heuristic gcd tries before the PRS takes over."""


def _int_heu_gcd(pa, pb):
    """(g, pa / g, pb / g) for the gcd g of primitive integer polynomials,
    by GCDHEU, or None on failure.

    Char, Geddes and Gonnet, "GCDHEU: heuristic polynomial GCD algorithm
    based on integer GCD computation", J. Symbolic Comput. 7 (1989): with
    xi >= 2 min(|pa|, |pb|) + 2 in the max-norm, the primitive part of the
    polynomial whose symmetric base-xi digits are gcd(pa(xi), pb(xi)) is
    the gcd as soon as it divides both.  A constant candidate divides
    everything, so its cofactors are pa and pb themselves.  A rejected
    candidate grows xi to 73794 xi isqrt(isqrt(xi)) / 27011, the step of
    SymPy's dup_zz_heu_gcd.
    """
    xi = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 29
    for _ in range(HEU_GCD_TRIES):
        va = vb = 0
        for c in reversed(pa):
            va = va * xi + c
        for c in reversed(pb):
            vb = vb * xi + c
        h = math.gcd(va, vb)
        if h:
            digits = []
            half = xi // 2
            while h:
                d = h % xi
                if d > half:
                    d -= xi
                digits.append(d)
                h = (h - d) // xi
            # h > 0 has a positive leading digit, so a constant is [1]
            cand = _int_primitive(digits)
            if len(cand) == 1:
                return cand, pa, pb
            try:
                return (cand, _int_exact_quotient(pa, cand),
                        _int_exact_quotient(pb, cand))
            except ArithmeticError:
                pass
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _int_prs_gcd(pa, pb):
    """gcd of primitive integer polynomials by the primitive pseudo-remainder
    sequence, which keeps intermediate coefficients bounded; primitive, with
    a leading coefficient of either sign."""
    while pb:
        pa, pb = pb, _int_primitive(_int_pseudo_rem(pa, pb))
    return pa


def _cancel(a, b):
    """(a / g, b / g) for the gcd g of the polynomial parts of a and b,
    ignoring x-power units; a and b themselves when g is constant.

    Both parts are polynomials in y = x^s for their common exponent stride
    s; the gcd and its cofactors are taken there, over the integers, by the
    heuristic gcd and, where that fails, by the PRS.  The sign of g cancels
    in the ratio of the two results.
    """
    step = _stride(a, b) or 1
    da, db = _dense(a, step), _dense(b, step)
    ca, cb = math.gcd(*da), math.gcd(*db)
    pa, pb = [v // ca for v in da], [v // cb for v in db]
    found = _int_heu_gcd(pa, pb)
    if found is None:
        g = _int_prs_gcd(pa, pb)
        found = g, _int_exact_quotient(pa, g), _int_exact_quotient(pb, g)
    g, qa, qb = found
    if len(g) == 1:
        return a, b
    # content(qa) = 1 by Gauss's lemma, and gcd(ca, a.denom) = 1
    ea, eb = a.min_exp(), b.min_exp()
    return (LaurentPoly._raw({ea + i * step: ca * v for i, v in enumerate(qa) if v},
                             a.denom),
            LaurentPoly._raw({eb + i * step: cb * v for i, v in enumerate(qb) if v},
                             b.denom))


POLE_TOLERANCE = 1e-12
"""`RingElem.evaluate` refuses a point where |den(x0)| is at most this
fraction of sum |c_e| |x0|^e over the denominator's terms: at a pole the
terms cancel up to rounding, which leaves about 1e-16 of that sum."""


class RingElem:
    """An element of Q(x) stored as a canonical numerator/denominator pair.

    Canonical form: the denominator is an ordinary polynomial (lowest
    exponent 0) with leading coefficient 1, coprime to the numerator.
    Equality of canonical forms is field equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = _P_ONE if den is None else _as_poly(den)
        e = _make(num, den)
        self.num = e.num
        self.den = e.den

    @classmethod
    def _raw(cls, num, den):
        e = object.__new__(cls)
        e.num = num
        e.den = den
        return e

    @classmethod
    def from_rational(cls, c):
        c = _coeff(c)
        return cls._raw(LaurentPoly.monomial(0, c), _P_ONE) if c else ZERO

    @classmethod
    def x_power(cls, k):
        return cls._raw(LaurentPoly.monomial(int(k)), _P_ONE)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.num.terms

    def __bool__(self):
        return bool(self.num.terms)

    # -- arithmetic ---------------------------------------------------------

    def _plus(self, other, sign):
        # self + sign * other
        other = _as_elem(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other if sign == 1 else -other
        if self.den.is_one and other.den.is_one:
            return RingElem._raw(self.num._plus(other.num, sign), _P_ONE)
        return _make((self.num * other.den)._plus(other.num * self.den, sign),
                     self.den * other.den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RingElem._raw(-self.num, self.den)

    def __mul__(self, other):
        other = _as_elem(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num.terms or not other.num.terms:
            return ZERO
        if self.den.is_one and other.den.is_one:
            return RingElem._raw(self.num * other.num, _P_ONE)
        # a monomial factor is a unit: it shares no factor with a denominator
        if self.den.is_one and len(self.num.terms) == 1:
            return RingElem._raw(self.num * other.num, other.den)
        if other.den.is_one and len(other.num.terms) == 1:
            return RingElem._raw(self.num * other.num, self.den)
        # cross-cancel before multiplying so gcds stay small
        a, b = self.num, self.den
        c, d = other.num, other.den
        if not d.is_one:
            a, d = _cancel(a, d)
        if not b.is_one:
            c, b = _cancel(c, b)
        return _normalize_unit(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_elem(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def shift(self, k):
        """self * x^k; the unit x^k leaves the denominator as it is."""
        return RingElem._raw(self.num.shift(k), self.den)

    def inverse(self):
        if not self.num.terms:
            raise ZeroDivisionError("division by zero in Q(x)")
        return _normalize_unit(self.den, self.num)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other):
        other = _as_elem(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den.is_one:
            return hash(self.num)
        return hash((self.num, self.den))

    # -- numeric bridge -------------------------------------------------------

    def evaluate(self, q0):
        """Value at x = q0^(1/8), principal branch.  Returns a complex number."""
        q0 = complex(q0)
        if q0 == 0:
            raise ValueError("cannot evaluate at q = 0")
        x0 = q0 ** 0.125
        dv = self.den(x0)
        scale = sum(abs(complex(c) * x0 ** e) for e, c in self.den.coefficients().items())
        if abs(dv) <= POLE_TOLERANCE * scale:
            raise ValueError("denominator vanishes at q = %r" % (q0,))
        return self.num(x0) / dv

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        out = {}
        for key, poly in (("num", self.num), ("den", self.den)):
            # an integer polynomial's numerators are its coefficients
            coeffs = poly.terms if poly.denom == 1 else poly.coefficients()
            out[key] = [[e, str(coeffs[e])] for e in sorted(coeffs)]
        return out

    def __str__(self):
        if self.den.is_one:
            return str(self.num)
        ns = str(self.num)
        if len(self.num.terms) > 1:
            ns = "(%s)" % ns
        return "%s/(%s)" % (ns, self.den)

    def __repr__(self):
        return "RingElem(%s)" % self


def _as_poly(v):
    if isinstance(v, LaurentPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return LaurentPoly.monomial(0, v)
    raise TypeError("expected LaurentPoly, int or Fraction, got %r" % type(v).__name__)


def _as_elem(v):
    if isinstance(v, RingElem):
        return v
    if isinstance(v, (int, Fraction)):
        return RingElem.from_rational(v)
    return NotImplemented


def as_elem(v):
    """v as a ring element; v must be a RingElem, int or Fraction."""
    e = _as_elem(v)
    if e is NotImplemented:
        raise TypeError("expected RingElem, int or Fraction, got %r"
                        % type(v).__name__)
    return e


def _normalize_unit(num, den):
    """Canonicalize assuming num, den already coprime up to x-units."""
    if not num.terms:
        return ZERO
    vd = den.min_exp()
    lead = den.terms[den.max_exp()]
    if vd:
        num = num.shift(-vd)
        den = den.shift(-vd)
    if lead != 1 or den.denom != 1:
        inv = Fraction(den.denom, lead)
        num = num.scale(inv)
        den = den.scale(inv)
    return RingElem._raw(num, den)


def _make(num, den):
    """Full canonicalization of an arbitrary num/den pair."""
    if not den.terms:
        raise ZeroDivisionError("division by zero in Q(x)")
    if not num.terms:
        return ZERO
    if den.is_one:
        return RingElem._raw(num, den)
    return _normalize_unit(*_cancel(num, den))


ZERO = RingElem._raw(_P_ZERO, _P_ONE)
ONE = RingElem._raw(_P_ONE, _P_ONE)
X = RingElem.x_power(1)
Q = RingElem.x_power(8)


def dot(pairs):
    """The sum of a * b over the pairs (a, b) of ring elements.  Polynomial
    products accumulate over one integer denominator, rescaled only when a
    new one shows up, and are reduced once; a pair with a rational-function
    factor is added through the ring operators."""
    terms = {}
    denom = 1
    rest = ZERO
    for a, b in pairs:
        if not (a.den.is_one and b.den.is_one):
            rest = rest + a * b
            continue
        ta = a.num.terms
        d = a.num.denom * b.num.denom
        if denom % d:
            m = d // math.gcd(denom, d)
            terms = {e: c * m for e, c in terms.items()}
            denom *= m
        if d != denom:
            ta = {e: c * (denom // d) for e, c in ta.items()}
        terms = _mul_add(terms, ta, b.num.terms)
    if not terms:
        return rest
    total = RingElem._raw(LaurentPoly._reduced(terms, denom), _P_ONE)
    return total + rest if rest.num.terms else total


def q_power(r):
    """The monomial q^r as a ring element; 8*r must be an integer."""
    r = Fraction(r)
    e = 8 * r
    if e.denominator != 1:
        raise ValueError("q^(%s) does not lie in Q(x): denominator of the "
                         "exponent must divide 8" % r)
    return RingElem.x_power(int(e))


def q_int(n):
    """Quantum integer [n] = (q^(n/2) - q^(-n/2)) / (q^(1/2) - q^(-1/2))."""
    n = int(n)
    if n < 0:
        return -q_int(-n)
    return RingElem._raw(
        LaurentPoly._raw({4 * (n - 1 - 2 * i): 1 for i in range(n)}), _P_ONE)


@lru_cache(maxsize=None)
def q_factorial(n):
    """Quantum factorial [n]! = [1][2]...[n]."""
    n = int(n)
    if n < 0:
        raise ValueError("q_factorial of negative %d" % n)
    return q_factorial(n - 1) * q_int(n) if n else ONE


Q_BINOMIAL_CACHE_SIZE = 1024
"""Entries kept by the `q_binomial` memo, least recently used first out.
`verify all --max-dim 3` asks for 65 distinct (n, k)."""


@lru_cache(maxsize=Q_BINOMIAL_CACHE_SIZE)
def q_binomial(n, k):
    """Gaussian binomial [n over k]; zero outside 0 <= k <= n."""
    n, k = int(n), int(k)
    if k < 0 or k > n:
        return ZERO
    return q_factorial(n) / (q_factorial(k) * q_factorial(n - k))


# ---------------------------------------------------------------------------
# small expression grammar for ring elements: rationals, x, q (= x^8),
# ^, *, /, +, -, parentheses.  Used by the command line interface.

MAX_POWER_SIZE = 512
"""Largest |n| * size(b) accepted for a power b^n in an expression, where
size(b) is the larger of b's highest |exponent of x| and the bit length of
its largest integer coefficient or denominator, and at least 1.  The bound
caps the degree and the coefficient size of every power, nested or not:
(1+x)^512 and 2^256 parse; (1+x)^513, 2^257 and (x^2)^257 do not."""


def _power_size(v):
    size = 1
    for p in (v.num, v.den):
        size = max(size, p.denom.bit_length(), *map(abs, p.terms),
                   *(c.bit_length() for c in p.terms.values()))
    return size


def parse_ring_elem(s):
    """Parse a ring element from the small expression grammar."""
    tokens = [int(tok) if tok.isdecimal() else tok for tok in re.findall(r"\d+|\S", s)]
    for tok in tokens:
        if isinstance(tok, str) and tok not in "xq^*/+-()":
            raise ValueError("unexpected character %r in expression %r" % (tok, s))
    tokens.reverse()

    def take(*allowed):
        """Consume and return the next token if it is one of `allowed`, where
        int stands for any integer; otherwise None."""
        if tokens and (tokens[-1] in allowed or type(tokens[-1]) in allowed):
            return tokens.pop()
        return None

    def expr():
        value = term()
        while op := take("+", "-"):
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term():
        value = factor()
        while op := take("*", "/"):
            rhs = factor()
            if op == "*":
                value = value * rhs
            elif rhs.is_zero:
                raise ValueError("division by zero in expression")
            else:
                value = value / rhs
        return value

    def factor():
        sign = take("+", "-")
        if sign:
            value = factor()
            return value if sign == "+" else -value
        value = atom()
        while take("^"):
            n = exponent()
            if abs(n) * _power_size(value) > MAX_POWER_SIZE:
                raise ValueError("power ^%d is too large: |exponent| times the "
                                 "size of its base must be at most %d"
                                 % (n, MAX_POWER_SIZE))
            value = value ** n
        return value

    def atom():
        tok = take(int, "x", "q", "(")
        if tok is None:
            raise ValueError("unexpected token %r in expression" % (tokens[-1],)
                             if tokens else "unexpected end of expression")
        if tok == "(":
            value = expr()
            if not take(")"):
                raise ValueError("missing closing parenthesis")
            return value
        return X if tok == "x" else Q if tok == "q" else RingElem.from_rational(tok)

    def exponent():
        paren = take("(")
        sign = -1 if take("+", "-") == "-" else 1
        n = take(int)
        if n is None:
            raise ValueError("exponent must be an integer")
        if paren and not take(")"):
            raise ValueError("missing closing parenthesis in exponent")
        return sign * n

    try:
        value = expr()
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
    if tokens:
        raise ValueError("trailing input in expression %r" % s)
    return value
