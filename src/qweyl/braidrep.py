"""Tensor representations of the type-B braid group on n strands.

A bundle keeps the two factors of its generators, the cylinder twist and
the braid matrix; the module checks all defining relations exactly and
evaluates arbitrary braid words.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .repn import QMatrix, embed, product
from .reports import Report, labels_check, matrix_check, product_check
from .rmat import braid_matrix
from .twist import TwistConfig, braid_form_sides, twist_t

MAX_EXACT_DIM = 256
"""Row ceiling for exact work; raise it only with a recorded timing."""

MAX_WORD_WORK = 4096
"""Ceiling on letters times rows of an exact word; it does not bound the word's time."""

MAX_NUMERIC_DIM = 1024
"""Row and strand ceiling for numeric bundles, whose generators are dense
complex matrices: 16 MiB each at 1024 rows."""


def check_exact_rows(rows, what):
    """Refuse exact work whose largest matrix has more than MAX_EXACT_DIM
    rows; `what` names the input that asked for it."""
    if rows > MAX_EXACT_DIM:
        raise ValueError("%s needs an exact matrix of %d rows, above the ceiling %d"
                         % (what, rows, MAX_EXACT_DIM))


class BraidWord(namedtuple("BraidWord", "n letters")):
    """A word in the generators tau_0 .. tau_{n-1} with exponents +-1."""

    __slots__ = ()

    def __new__(cls, n, letters):
        for idx, exp in letters:
            if not 0 <= idx < n:
                raise ValueError("generator index %d out of range for %d strands"
                                 % (idx, n))
            if exp not in (1, -1):
                raise ValueError("exponent must be +1 or -1, got %r" % (exp,))
        return super().__new__(cls, n, letters)

    @classmethod
    def _make(cls, fields):
        """Build through __new__, so that `_replace` validates too."""
        return cls(*fields)

    @classmethod
    def parse(cls, text, n):
        """Parse whitespace-separated generator indices; a trailing apostrophe
        marks an inverse, e.g. \"0 1 0' 1\"."""
        letters = []
        for tok in text.split():
            index = tok[:-1] if tok.endswith("'") else tok
            if not (index.isascii() and index.isdigit()):
                raise ValueError("bad letter %r in braid word: write whitespace-separated "
                                 "generator indices, each with a trailing ' for an "
                                 "inverse, e.g. \"0 1 0' 1\"" % tok)
            letters.append((int(index), -1 if tok.endswith("'") else 1))
        return cls(n=n, letters=tuple(letters))


class RepBundle(namedtuple("RepBundle", "d n twist braid")):
    """The type-B braid group on V_d^(x n), kept as its two factors."""

    # no __slots__: cached_property keeps `inverse` in the instance __dict__

    @cached_property
    def inverse(self):
        """The bundle of the inverse factors, whose tau_i is this tau_i^-1."""
        return RepBundle(self.d, self.n, self.twist.inverse(), self.braid.inverse())

    def leg(self, i):
        """tau_i as (left, factor, right), for 1_left (x) factor (x) 1_right:
        the twist t on leg 0, the braid matrix on legs (i-1, i)."""
        if not 0 <= i < self.n:
            raise ValueError("generator index %d out of range for %d strands"
                             % (i, self.n))
        left, factor = (1, self.twist) if i == 0 else (self.d ** (i - 1), self.braid)
        return left, factor, self.d ** self.n // (left * factor.rows)

    def generator(self, i, exp=1):
        """tau_i^exp as an exact matrix; an inverse inverts only the factor."""
        left, factor, right = (self if exp == 1 else self.inverse).leg(i)
        return embed(factor, left, right)


def _factors(d, n, beta1):
    """The bundle's two factors, the standard twist t at beta1 on V_d and B on
    V_d (x) V_d, refused when B has more than MAX_EXACT_DIM rows."""
    check_exact_rows(d * d, "the braid matrix on V%d (x) V%d" % (d, d))
    return RepBundle(d, n, twist_t(d, TwistConfig(beta1)), braid_matrix(d))


def zbn_generators(d, n, beta1, letters=0):
    """The bundle at beta1 on V_d^(x n), refused above the exact-mode row
    ceiling, or above MAX_WORD_WORK for a word of `letters` letters."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    # the strand count is tested first, so that d ** n stays small
    check_exact_rows(n, "a bundle on %d strands" % n)
    check_exact_rows(d ** n, "the bundle V%d^(x%d)" % (d, n))
    if letters * d ** n > MAX_WORD_WORK:
        raise ValueError("a word of %d letters on V%d^(x%d) exceeds the limit %d on "
                         "letters times rows" % (letters, d, n, MAX_WORD_WORK))
    return _factors(d, n, beta1)


def zbn_generators_numeric(d, n, q0, beta1):
    """Generator matrices evaluated at q = q0, as numpy arrays.  Refuses
    bundles above MAX_NUMERIC_DIM rows; the exact factors they are evaluated
    from keep the exact-mode ceiling."""
    # the strand count is tested first, so that d ** n stays small
    if not 1 <= n <= MAX_NUMERIC_DIM or d ** n > MAX_NUMERIC_DIM:
        raise ValueError("numeric bundle V%d^(x%d) needs 1 to %d strands and "
                         "at most %d rows" % (d, n, MAX_NUMERIC_DIM, MAX_NUMERIC_DIM))
    bundle = _factors(d, n, beta1)
    import numpy as np

    return [np.kron(np.kron(np.eye(left), factor.evaluate(q0)), np.eye(right))
            for left, factor, right in map(bundle.leg, range(n))]


def relation_report(d, n, g):
    """Exact check of the four relation families on the generators g of V_d^(x n),
    n >= 2."""
    return Report(title="type-B relations d=%d n=%d" % (d, n), checks=(
        labels_check("far commutation among braid generators",
                     (("(%d,%d)" % (i, j), g[i] * g[j], g[j] * g[i])
                      for i in range(1, n) for j in range(i + 2, n))),
        labels_check("braid relation on adjacent generators",
                     (("(%d,%d)" % (i, i + 1), g[i] * g[i + 1] * g[i],
                       g[i + 1] * g[i] * g[i + 1]) for i in range(1, n - 1))),
        matrix_check("type-B relation with the cylinder generator",
                     g[0] * g[1] * g[0] * g[1], g[1] * g[0] * g[1] * g[0]),
        labels_check("cylinder generator commutes with distant braids",
                     (("i=%d" % i, g[0] * g[i], g[i] * g[0]) for i in range(2, n)))))


def verify_zbn_relations(d, n, beta1):
    if n < 2:
        raise ValueError("relation suite needs at least 2 strands")
    bundle = zbn_generators(d, n, beta1)
    return relation_report(d, n, [bundle.generator(i) for i in range(n)])


def eval_braid_word(word, bundle):
    """The chain product of the word's generators, built lazily; the identity if empty."""
    if word.n != bundle.n:
        raise ValueError("word on %d strands does not fit a bundle on %d"
                         % (word.n, bundle.n))
    if not word.letters:
        return QMatrix.identity(bundle.d ** bundle.n)
    return product(bundle.generator(idx, exp) for idx, exp in word.letters)


def verify_affine_relation(d, beta1):
    """Check the shifted cylinder relation satisfied by the conjugated twist
    on V_d (x) V_d: (1 (x) F) B (1 (x) F) B = B (1 (x) F) B (1 (x) F)."""
    tbar = twist_t(d, TwistConfig(beta1=beta1, variant="affine"))
    return Report(title="affine relation d=%d" % d, checks=(product_check(
        "affine cylinder relation on V%d (x) V%d" % (d, d),
        *braid_form_sides(d, tbar, affine=True)),))
