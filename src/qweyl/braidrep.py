"""Tensor representations of the type-B braid group on n strands.

The generator acting on the first tensor factor is the cylinder-twist
matrix; the remaining generators are the braid matrix on adjacent factors.
The module builds the generator bundle, checks all defining relations
exactly, and evaluates arbitrary braid words.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .repn import QMatrix, embed
from .reports import Report, labels_check, matrix_check, matrix_report
from .rmat import braid_matrix
from .twist import TwistConfig, braid_form_sides, twist_t

DEFAULT_MAX_EXACT_DIM = 256

MAX_NUMERIC_DIM = 1024
"""Row and strand ceiling for numeric bundles, whose generators are dense
complex matrices: 16 MiB each at 1024 rows."""


def max_exact_dim():
    """Row-count ceiling for exact bundles; override with QW_MAX_EXACT_DIM,
    a positive integer."""
    value = os.environ.get("QW_MAX_EXACT_DIM") or str(DEFAULT_MAX_EXACT_DIM)
    if not (value.isascii() and value.isdigit() and int(value) >= 1):
        raise ValueError("QW_MAX_EXACT_DIM must be a positive integer, got %r" % value)
    return int(value)


def check_exact_rows(rows, what):
    """Refuse exact work whose largest matrix has more than max_exact_dim()
    rows; `what` names the input that asked for it."""
    ceiling = max_exact_dim()
    if rows > ceiling:
        raise ValueError(
            "%s needs an exact matrix of %d rows, above the ceiling %d "
            "(set QW_MAX_EXACT_DIM to raise it)" % (what, rows, ceiling))


@dataclass(frozen=True)
class BraidWord:
    """A word in the generators tau_0 .. tau_{n-1} with exponents +-1."""

    n: int
    letters: tuple

    def __post_init__(self):
        for idx, exp in self.letters:
            if not 0 <= idx < self.n:
                raise ValueError("generator index %d out of range for %d strands"
                                 % (idx, self.n))
            if exp not in (1, -1):
                raise ValueError("exponent must be +1 or -1, got %r" % (exp,))

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


@dataclass(frozen=True)
class RepBundle:
    """Generator matrices of the type-B braid group on V_d^(x n)."""

    d: int
    n: int
    generators: tuple

    @property
    def dim(self):
        return self.d ** self.n


def zbn_generators(d, n, config):
    """The bundle with tau_0 = t (x) 1...1 and tau_i the braid matrix on
    legs (i, i+1).  Exact mode refuses bundles above the size ceiling."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    # the strand count is tested first, so that d ** n stays small
    check_exact_rows(n, "a bundle on %d strands" % n)
    check_exact_rows(d ** n, "the bundle V%d^(x%d)" % (d, n))
    b = braid_matrix(d)
    gens = [embed(twist_t(d, config), right=d ** (n - 1))]
    gens += [embed(b, left=d ** (i - 1), right=d ** (n - i - 1)) for i in range(1, n)]
    return RepBundle(d=d, n=n, generators=tuple(gens))


def zbn_generators_numeric(d, n, q0, config):
    """Generator matrices evaluated at q = q0, as numpy arrays.  Refuses
    bundles above MAX_NUMERIC_DIM rows, not the exact-mode ceiling."""
    # the strand count is tested first, so that d ** n stays small
    if not 1 <= n <= MAX_NUMERIC_DIM or d ** n > MAX_NUMERIC_DIM:
        raise ValueError("numeric bundle V%d^(x%d) needs 1 to %d strands and "
                         "at most %d rows" % (d, n, MAX_NUMERIC_DIM, MAX_NUMERIC_DIM))
    import numpy as np

    def eye(k):
        return np.eye(d ** k, dtype=complex)

    b = braid_matrix(d).evaluate(q0)
    gens = [np.kron(twist_t(d, config).evaluate(q0), eye(n - 1))]
    gens += [np.kron(np.kron(eye(i - 1), b), eye(n - i - 1)) for i in range(1, n)]
    return gens


def relation_report(bundle):
    """Exact check of the four defining relation families on a bundle."""
    g, n = bundle.generators, bundle.n
    checks = [
        labels_check("far commutation among braid generators",
                     (("(%d,%d)" % (i, j), g[i] * g[j], g[j] * g[i])
                      for i in range(1, n) for j in range(i + 2, n))),
        labels_check("braid relation on adjacent generators",
                     (("(%d,%d)" % (i, i + 1), g[i] * g[i + 1] * g[i],
                       g[i + 1] * g[i] * g[i + 1]) for i in range(1, n - 1)))]
    if n >= 2:
        checks.append(matrix_check("type-B relation with the cylinder generator",
                                   g[0] * g[1] * g[0] * g[1], g[1] * g[0] * g[1] * g[0]))
    checks.append(labels_check("cylinder generator commutes with distant braids",
                               (("i=%d" % i, g[0] * g[i], g[i] * g[0])
                                for i in range(2, n))))
    return Report(title="type-B relations d=%d n=%d" % (bundle.d, bundle.n),
                  checks=tuple(checks))


def verify_zbn_relations(d, n, config):
    if n < 2:
        raise ValueError("relation suite needs at least 2 strands")
    return relation_report(zbn_generators(d, n, config))


def eval_braid_word(word, bundle):
    """Ordered product of the word's generator matrices; empty word gives
    the identity."""
    if word.n != bundle.n:
        raise ValueError("word on %d strands does not fit a bundle on %d"
                         % (word.n, bundle.n))
    gens = bundle.generators
    # each distinct inverted generator is inverted once
    inverses = {idx: gens[idx].inverse()
                for idx in {idx for idx, exp in word.letters if exp == -1}}
    result = QMatrix.identity(bundle.dim)
    for idx, exp in word.letters:
        result = result * (gens[idx] if exp == 1 else inverses[idx])
    return result


def verify_affine_relation(d, beta1):
    """Check the shifted cylinder relation satisfied by the conjugated twist
    on V_d (x) V_d: (1 (x) F) B (1 (x) F) B = B (1 (x) F) B (1 (x) F)."""
    tbar = twist_t(d, TwistConfig(beta1=beta1, variant="affine"))
    return matrix_report("affine relation d=%d" % d, [
        ("affine cylinder relation on V%d (x) V%d" % (d, d),
         *braid_form_sides(d, tbar, affine=True))])
