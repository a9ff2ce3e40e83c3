"""The cylinder-twist element t = w z and its verification suites.

The twist factors through the Weyl element w and a Borel part
z = q^(-H^2/8) zhat, where zhat = sum_m beta_m q^(-Hm/4) Y^m is driven by
the coefficient recursion

    beta_{a+1} = (beta_a beta_1 + beta_{a-1} (q^-1 - 1) q^((1-a)/2)) / [a+1]

with beta_0 = 1 and beta_1 a free parameter of the solution family.  The
tables come from the division-free recursions of the primed coefficients
beta_m [m]! and alpha_m [m]! (see `beta_coeffs`).
Everything here is exact over Q(x); the only numeric op is the comparison
against the known closed-form matrices in dimensions 2, 3, 4, whose
entries involve square roots and therefore live outside Q(x).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .qring import ONE, ZERO, RingElem, as_elem, q_binomial, q_factorial, q_int, q_power
from .repn import QMatrix, embed, irrep, kron, powers, tensor_series, x_diagonal
from .reports import Check, Report, labels_check, product_check
from .rmat import (
    braid_matrix,
    cartan_factor,
    conjugated_r,
    r21,
    r_inverse,
    r_matrix,
    series_coeff,
)

VARIANTS = ("standard", "w_inverse", "k_conjugate", "u_conjugate", "affine")

BETA1_CACHE_SIZE = 256
"""Entries kept by each cache keyed by a beta1 or a TwistConfig, least
recently used first out.  `verify all --max-dim 3` fills at most 30, in
the `twist_t` memo; the standard twists the variants read are among them."""

BRACKET_CACHE_SIZE = 2048
"""Entries kept by the `bracket_coeff` memo.  `verify bform` at the largest
--max-sum, cli.MAX_COEFF_INDEX = 16, asks for 791 distinct (a, b, n)."""


class TwistConfig(namedtuple("TwistConfig", "beta1 variant alpha")):
    """Selects a member of the solution family.

    beta1 is the free coefficient; variant picks one of the known
    transformed solutions; alpha (a half-integer) only applies to the
    K-conjugated variant, where it must keep K^alpha inside Q(x).
    """

    __slots__ = ()

    def __new__(cls, beta1, variant="standard", alpha=None):
        beta1 = as_elem(beta1)
        if variant not in VARIANTS:
            raise ValueError("unknown variant %r (choose from %s)"
                             % (variant, ", ".join(VARIANTS)))
        if variant == "k_conjugate":
            if alpha is None:
                raise ValueError("k_conjugate needs an alpha")
            alpha = Fraction(alpha)
            if (2 * alpha).denominator != 1:
                raise ValueError("alpha must be a half-integer, got %s" % alpha)
        elif alpha is not None:
            raise ValueError("alpha is only meaningful for the k_conjugate variant")
        return super().__new__(cls, beta1, variant, alpha)

    @classmethod
    def _make(cls, fields):
        """Build through __new__, so that `_replace` validates too."""
        return cls(*fields)


# twist coefficients beta_m, beta'_m = beta_m [m]! and inverse coefficients
# alpha_m, indexed 0..N
CoeffTable = namedtuple("CoeffTable", "betas beta_primes alphas")


@lru_cache(maxsize=BETA1_CACHE_SIZE)
def beta_coeffs(n_max, beta1):
    """Coefficient tables up to index n_max for the given beta_1.

    The primed coefficients follow three-term recursions without division:

        beta'_(a+1) = beta_1 beta'_a + (q^-a - 1) beta'_(a-1),
        alpha'_(a+1) = -beta_1 q^-a alpha'_a + (q^(1-a) - q^(1-2a)) alpha'_(a-1),

    from beta'_0 = alpha'_0 = 1 and beta'_1 = -alpha'_1 = beta_1.  The first
    is the defining recursion times [a]!, as (q^-1 - 1) q^((1-a)/2) [a] =
    q^-a - 1; the second makes alpha_m = alpha'_m / [m]! the inverse series.
    """
    beta1 = as_elem(beta1)
    primes, alpha_primes = _beta_primes(n_max, beta1), [ONE, -beta1][:n_max + 1]
    for a in range(1, n_max):
        alpha_primes.append(-beta1 * q_power(-a) * alpha_primes[a]
                            + (q_power(1 - a) - q_power(1 - 2 * a)) * alpha_primes[a - 1])
    return CoeffTable(betas=tuple(p / q_factorial(m) for m, p in enumerate(primes)),
                      beta_primes=primes,
                      alphas=tuple(p / q_factorial(m) for m, p in enumerate(alpha_primes)))


def _beta_primes(n_max, beta1):
    """beta'_0 .. beta'_n_max for the ring element beta1, by the first
    recursion of `beta_coeffs`, with no division."""
    primes = [ONE, beta1][:n_max + 1]
    for a in range(1, n_max):
        primes.append(beta1 * primes[a] + (q_power(-a) - ONE) * primes[a - 1])
    return tuple(primes)


@lru_cache(maxsize=None)
def series_coeff_B(n):
    """B_n = (1-q^-1)^n/[n]! q^(n(n-1)/4) (-q^(1/2))^n q^(-n^2/2)."""
    return series_coeff(n) * (-q_power(Fraction(1, 2))) ** n \
        * q_power(Fraction(-n * n, 2))


@lru_cache(maxsize=None)
def _bracket_factor(n):
    """The part of bracket_coeff(a, b, n) that depends on n alone:
    [n]! q^((3n+n^2)/4) (q^-1 - 1)^n."""
    return (q_factorial(n) * q_power(Fraction(3 * n + n * n, 4))
            * (q_power(-1) - ONE) ** n)


@lru_cache(maxsize=BRACKET_CACHE_SIZE)
def bracket_coeff(a, b, n):
    """The two-index series coefficient tying the primed recursion to the
    doubled sum,

        [a over n] [b over n] [n]! q^(-n(a+b)/2) q^((3n+n^2)/4) (q^-1 - 1)^n,

    zero for negative n."""
    if n < 0:
        return ZERO
    return (q_binomial(a, n) * q_binomial(b, n)
            * (_bracket_factor(n) * q_power(Fraction(-n * (a + b), 2))))


# ---------------------------------------------------------------------------
# the twist matrices


def _borel_series(d, coeffs):
    """sum_m coeffs[m] q^(-Hm/4) Y^m on the d-dim irrep (truncates at d-1)."""
    weights = irrep(d).weights
    ypow = powers(irrep(d).Y, d - 1)
    return tensor_series(
        (coeffs[m], x_diagonal(-2 * m * h for h in weights) * ypow[m])
        for m in range(d))


@lru_cache(maxsize=BETA1_CACHE_SIZE)
def zhat(d, beta1):
    """The unipotent Borel factor of the twist."""
    return _borel_series(d, beta_coeffs(d - 1, beta1).betas)


@lru_cache(maxsize=BETA1_CACHE_SIZE)
def zhat_inverse(d, beta1):
    """Inverse of zhat, sum_m alpha_m q^(-Hm/4) Y^m, whose coefficients
    solve alpha_a = -sum_{m=1..a} beta_m alpha_{a-m} q^(-m(a-m)/2),
    alpha_0 = 1."""
    return _borel_series(d, beta_coeffs(d - 1, beta1).alphas)


@lru_cache(maxsize=BETA1_CACHE_SIZE)
def z_elem(d, beta1):
    """z = q^(-H^2/8) zhat."""
    return x_diagonal(-h * h for h in irrep(d).weights) * zhat(d, beta1)


@lru_cache(maxsize=None)
def weyl_w(d):
    """The Weyl element in the d-dim irrep: the antidiagonal intertwiner
    with w e_k = omega_k e_{d-1-k}, omega_k = -q^(-1/2) [k][d-k] omega_{k-1},
    normalized by omega_0 = q^(-(d-1)^2/8).

    The intertwining relations fix w up to one scalar; this normalization
    puts the corner of t = w z at q^(-(d-1)^2/4) in every dimension.
    """
    omega = [RingElem.x_power(-(d - 1) ** 2)]
    factor = -q_power(Fraction(-1, 2))
    for k in range(1, d):
        omega.append(factor * q_int(k) * q_int(d - k) * omega[k - 1])
    entries = [[ZERO] * d for _ in range(d)]
    for k in range(d):
        entries[d - 1 - k][k] = omega[k]
    return QMatrix(entries)


@lru_cache(maxsize=None)
def _twist_leg(d, k, j):
    """The beta1-free factor of the standard twist's entry (d-1-k, j), with
    m = k - j: (-1)^k x^(-(d-1)^2 - 4k - h_k^2 - 2 m h_k) ([k]!/[m]!)
    ([d-1]!/[d-1-k]!), a Laurent polynomial."""
    h = d - 1 - 2 * k
    out = ONE
    for i in (*range(k - j + 1, k + 1), *range(d - k, d)):
        out = out * q_int(i)
    out = out.shift(-(d - 1) ** 2 - 4 * k - h * h - 2 * (k - j) * h)
    return -out if k % 2 else out


@lru_cache(maxsize=BETA1_CACHE_SIZE)
def twist_t(d, config):
    """The cylinder-twist matrix in the d-dim irrep for the given family member.

    The standard twist t = w z is written entry by entry: w e_k = omega_k
    e_(d-1-k) and z e_j = sum_m beta_m x^(-h_(j+m)^2 - 2 m h_(j+m)) e_(j+m)
    give, with beta_m = beta'_m / [m]!,

        t[d-1-k, j] = (-1)^k x^(-(d-1)^2 - 4k - h_k^2 - 2 m h_k)
                        ([k]!/[m]!) ([d-1]!/[d-1-k]!) beta'_m,   m = k - j,

    for 0 <= j <= k, and zero elsewhere.  The affine variant is z w.  On V_d,
    w w = s = (-1)^(d-1) x^(-2(d^2-1)) ([d-1]!)^2, w K = K^-1 w and
    u = x^(-2(d^2-1)) K^2 (`rmat.drinfeld_u`), so w^-1 z = t / s and
    w K^(e/2) z K^(e/2) = K^(-e/2) t K^(e/2) is t with entry (i, j) times
    x^(e (h_j - h_i)); w u z u is that at e = 4, times x^(-4(d^2-1)).  The
    test oracle of each variant is the product of its factors."""
    if d < 1:
        raise ValueError("dimension must be positive, got %d" % d)
    if config.variant == "affine":
        return z_elem(d, config.beta1) * weyl_w(d)
    if config.variant != "standard":
        t = twist_t(d, TwistConfig(config.beta1))
        if config.variant == "w_inverse":
            s = q_factorial(d - 1) ** 2 * RingElem.x_power(-2 * (d * d - 1))
            return t.scale(ONE / (s if d % 2 else -s))
        e, shift = ((int(2 * config.alpha), 0) if config.variant == "k_conjugate"
                    else (4, -4 * (d * d - 1)))
        h = irrep(d).weights
        return QMatrix._raw(d, d, tuple(
            tuple(a.shift(e * (hj - hi) + shift) for a, hj in zip(row, h))
            for row, hi in zip(t.entries, h)))
    primes = _beta_primes(d - 1, config.beta1)
    entries = [[ZERO] * d for _ in range(d)]
    for k in range(d):
        for j in range(k + 1):
            entries[d - 1 - k][j] = _twist_leg(d, k, j) * primes[k - j]
    return QMatrix._raw(d, d, tuple(map(tuple, entries)))


# ---------------------------------------------------------------------------
# coproducts


@lru_cache(maxsize=BETA1_CACHE_SIZE)
def coproduct_zhat(da, db, beta1):
    """Coproduct of zhat on V_a (x) V_b via the closed double sum

    sum_m sum_i beta_m [m over i] (q^(H(i-2m)/4) Y^i) (x) (q^(H(i-m)/4) Y^(m-i)).
    """
    m_max = (da - 1) + (db - 1)
    table = beta_coeffs(m_max, beta1)
    wa, wb = irrep(da).weights, irrep(db).weights
    ypow_a, ypow_b = powers(irrep(da).Y, da - 1), powers(irrep(db).Y, db - 1)
    return tensor_series(
        (table.betas[m] * q_binomial(m, i),
         x_diagonal(2 * (i - 2 * m) * h for h in wa) * ypow_a[i],
         x_diagonal(2 * (i - m) * h for h in wb) * ypow_b[m - i])
        for m in range(m_max + 1)
        for i in range(max(0, m - (db - 1)), min(m, da - 1) + 1))


@lru_cache(maxsize=BETA1_CACHE_SIZE)
def coproduct_z(da, db, beta1):
    """Coproduct of z: q^(-(H (x) 1 + 1 (x) H)^2 / 8) coproduct(zhat)."""
    gauss = x_diagonal(-(ha + hb) ** 2
                       for ha in irrep(da).weights for hb in irrep(db).weights)
    return gauss * coproduct_zhat(da, db, beta1)


def coproduct_t(da, db, beta1):
    """Coproduct of the standard twist as its chain of factors from left to
    right: (R^-1, w (x) w, coproduct(z))."""
    return r_inverse(da, db), kron(weyl_w(da), weyl_w(db)), coproduct_z(da, db, beta1)


# ---------------------------------------------------------------------------
# verification suites


def four_braid_sides(da, db, ta, tb, affine=False):
    """Both sides of the cylinder braid equation for given twist matrices,
    each as its tuple of factors from left to right.

    Ordinary form:  R21 t2 R t1  vs  t1 R21 t2 R.
    Affine form:    R t2 R21 t1  vs  t1 R t2 R21, i.e. R and R21 exchanged.
    """
    t1 = embed(ta, right=db)
    t2 = embed(tb, left=da)
    r, rt = r_matrix(da, db), r21(da, db)
    if affine:
        r, rt = rt, r
    return (rt, t2, r, t1), (t1, rt, t2, r)


def braid_form_sides(d, t, affine=False):
    """Both sides of the equivalent braid-matrix form on V_d (x) V_d, each as
    its tuple of factors from left to right."""
    b = braid_matrix(d)
    f = embed(t, left=d) if affine else embed(t, right=d)
    return (f, b, f, b), (b, f, b, f)


def verify_four_braid(da, db, config):
    """Check the cylinder braid equation (and the braid-matrix form when
    the dimensions agree) for the configured twist."""
    affine = config.variant == "affine"
    ta = twist_t(da, config)
    label = "affine" if affine else "cylinder"
    sides = [("%s braid equation on V%d (x) V%d (%s)" % (label, da, db, config.variant),
              *four_braid_sides(da, db, ta, twist_t(db, config), affine=affine))]
    if da == db:
        sides.append(("braid-matrix form on V%d (x) V%d (%s)" % (da, db, config.variant),
                      *braid_form_sides(da, ta, affine=affine)))
    return Report(title="four-braid d=(%d,%d) %s" % (da, db, config.variant),
                  checks=tuple(product_check(*side) for side in sides))


def verify_zdelta(da, db, beta1):
    """Check the coproduct condition on z and its unipotent reformulation."""
    z1 = embed(z_elem(da, beta1), right=db)
    z2 = embed(z_elem(db, beta1), left=da)
    nmax = min(da, db) - 1
    fpow_a, fpow_b = powers(irrep(da).F, nmax), powers(irrep(db).F, nmax)
    series = tensor_series(
        (series_coeff_B(n),
         x_diagonal(-4 * n * h for h in irrep(da).weights) * fpow_a[n], fpow_b[n])
        for n in range(nmax + 1))
    rhs_hat = (cartan_factor(da, db, 1), embed(zhat(db, beta1), left=da),
               cartan_factor(da, db, -1), series, embed(zhat(da, beta1), right=db))
    return Report(title="zdelta d=(%d,%d)" % (da, db), checks=(
        product_check("coproduct condition for z on V%d (x) V%d" % (da, db),
                      (coproduct_z(da, db, beta1),), (z2, conjugated_r(da, db), z1)),
        product_check("unipotent coproduct equation on V%d (x) V%d" % (da, db),
                      (coproduct_zhat(da, db, beta1),), rhs_hat)))


def verify_bform(max_sum, beta1):
    """Check that the doubled coefficient sum depends only on a + b, that
    both index-shift recurrences hold, and the original coefficient
    equation in the unprimed coefficients."""
    beta1 = as_elem(beta1)
    table = beta_coeffs(max_sum, beta1)
    primes, betas = table.beta_primes, table.betas
    pairs = [(a, b) for a in range(max_sum + 1) for b in range(max_sum + 1 - a)]

    def doubled_sum():
        for a, b in pairs:
            yield ("(a=%d,b=%d)" % (a, b), primes[a + b],
                   sum((bracket_coeff(a, b, n) * primes[a - n] * primes[b - n]
                        for n in range(min(a, b) + 1)), ZERO))

    def index_shifts():
        qq = q_power(1)
        for a in range(7):
            for b in range(7):
                for n in range(max(a, b) + 2):
                    qn = q_power(-n)
                    here, below = bracket_coeff(a, b, n), bracket_coeff(a, b, n - 1)
                    label = "(a=%d,b=%d,n=%d)" % (a, b, n)
                    yield ("a-shift " + label, bracket_coeff(a + 1, b, n),
                           qn * (here + (q_power(n - b) - qq) * below))
                    yield ("b-shift " + label, bracket_coeff(a, b + 1, n),
                           qn * (here + (q_power(n - a) - qq) * below))

    def unprimed():
        for a, b in pairs:
            yield ("(a=%d,b=%d)" % (a, b),
                   betas[a + b] * q_factorial(a + b) / (q_factorial(a) * q_factorial(b)),
                   sum((series_coeff_B(n) * betas[a - n] * betas[b - n]
                        * q_power(Fraction(n * n, 2) - Fraction(n * (a + b - 1), 2))
                        for n in range(min(a, b) + 1)), ZERO))

    return Report(title="coefficient identities (beta1 = %s)" % beta1, checks=(
        labels_check("doubled sum reproduces beta'_(a+b) for a+b <= %d" % max_sum,
                     doubled_sum(), shown=3),
        labels_check("index-shift recurrences for a, b <= 6", index_shifts(), shown=3),
        labels_check("coefficient equation in the unprimed coefficients, a+b <= %d"
                     % max_sum, unprimed(), shown=3)))


def verify_coproduct(max_dim, beta1):
    """Check the coproduct law for the twist, coproduct(t) = R^-1 t2 R t1,
    and the counit value read off from the one-dimensional representation."""
    cfg = TwistConfig(beta1=beta1)
    dims = range(1, max_dim + 1)
    checks = [product_check("twist coproduct law on V%d (x) V%d" % (da, db),
                            coproduct_t(da, db, cfg.beta1),
                            (r_inverse(da, db), embed(twist_t(db, cfg), left=da),
                             r_matrix(da, db), embed(twist_t(da, cfg), right=db)))
              for da in dims for db in dims]
    checks.append(product_check("counit of the twist is 1",
                                (twist_t(1, cfg),), (QMatrix.identity(1),)))
    return Report(title="twist coproduct", checks=tuple(checks))


def verify_inverse(max_dim, beta1):
    """Check zhat * zhat^-1 = zhat^-1 * zhat = identity for d <= max_dim."""
    checks = []
    for d in range(1, max_dim + 1):
        ident = (QMatrix.identity(d),)
        zh, zinv = zhat(d, beta1), zhat_inverse(d, beta1)
        checks.append(product_check("zhat inverse (right) d=%d" % d, (zh, zinv), ident))
        checks.append(product_check("zhat inverse (left) d=%d" % d, (zinv, zh), ident))
    return Report(title="unipotent factor inversion", checks=tuple(checks))


# ---------------------------------------------------------------------------
# numeric comparison against the known closed-form matrices (dims 2, 3, 4)


def _ref_matrix_2(q, b1):
    return [
        [-b1 * q ** -0.5, -q ** -0.75],
        [q ** -0.25, 0.0],
    ]


def _ref_matrix_3(q, b1):
    root = math.sqrt(q + 1)
    return [
        [(1 - q + q * b1 ** 2) / q ** 2, q ** -1.75 * root * b1, q ** -2.0],
        [-q ** -1.25 * b1 * root, -1 / q, 0.0],
        [1 / q, 0.0, 0.0],
    ]


def _ref_matrix_4(q, b1):
    g = math.sqrt(1 + q + q * q)
    return [
        [-q ** -3.5 * b1 * (1 + q - 2 * q * q + q * q * b1 ** 2),
         q ** -3.75 * g * (q - 1 - q * b1 ** 2),
         -q ** -3.5 * g * b1,
         -q ** -3.75],
        [q ** -3.25 * g * (1 - q + q * b1 ** 2),
         q ** -2.5 * (1 + q) * b1,
         q ** -2.25,
         0.0],
        [-q ** -2.5 * g * b1, -q ** -1.75, 0.0, 0.0],
        [q ** -2.25, 0.0, 0.0, 0.0],
    ]


REFERENCE_MATRICES = {2: _ref_matrix_2, 3: _ref_matrix_3, 4: _ref_matrix_4}


def symmetric_basis_matrix(d, beta1, q0):
    """The twist evaluated at q0 in the mirror-symmetric basis, as rows of
    complex numbers.

    The exact core works in the basis where the lowering operator has unit
    entries; the displayed closed forms live in the basis where raising and
    lowering have equal square-root entries.  The bridge is the diagonal
    D_0 = 1, D_{k+1} = D_k / sqrt([k+1][d-1-k]) together with the overall
    scale 1/[d-1]!, which restores the corner normalization q^(-(d-1)^2/4).
    Entry (i, j) is (scale * (t_ij * (1/D_i))) * D_j, the order of the
    floating-point operations that fixes the printed digits.  The square
    roots are real only for q0 > 0, so any other q0 is refused.
    """
    if not q0 > 0:
        raise ValueError("the mirror-symmetric basis needs q > 0, got q = %s" % q0)
    t = twist_t(d, TwistConfig(beta1=beta1))
    coupling = [q_int(k + 1).evaluate(q0).real * q_int(d - 1 - k).evaluate(q0).real
                for k in range(d - 1)]
    dvec = [1.0]
    for k in range(d - 1):
        dvec.append(dvec[-1] / math.sqrt(coupling[k]))
    scale = 1.0 / q_factorial(d - 1).evaluate(q0).real
    return [[(scale * (a.evaluate(q0) * (1.0 / di))) * dj
             for a, dj in zip(row, dvec)]
            for row, di in zip(t.entries, dvec)]


def compare_reference_matrix(d, beta1_value, q0):
    """Max-abs entrywise residual against the known d-dimensional matrix;
    NaN if any entry's residual is NaN or an entry overflows a double."""
    if d not in REFERENCE_MATRICES:
        raise ValueError("closed-form matrices are known for d in {2, 3, 4}")
    if not (q0 > 0) or q0 == 1:
        raise ValueError("q0 must be a positive real other than 1")
    b1 = Fraction(beta1_value)
    try:
        got = symmetric_basis_matrix(d, RingElem.from_rational(b1), q0)
        want = REFERENCE_MATRICES[d](float(q0), float(b1))
    except (OverflowError, ZeroDivisionError):
        # an entry leaves the range of a double
        return math.nan
    residuals = [abs(g - w) for rg, rw in zip(got, want) for g, w in zip(rg, rw)]
    if any(math.isnan(r) for r in residuals):
        return math.nan
    return max(residuals)


def verify_reference_matrices(beta1_values=(0, 1, 2), q0_values=(0.7, 1.3),
                              tol=1e-9):
    """Residual checks against all three known closed-form matrices."""
    checks = []
    for d in sorted(REFERENCE_MATRICES):
        for b1 in beta1_values:
            for q0 in q0_values:
                res = compare_reference_matrix(d, b1, q0)
                checks.append(Check(
                    name="closed-form matrix d=%d beta1=%s q0=%s" % (d, b1, q0),
                    ok=res < tol, detail="residual %.3e" % res))
    return Report(title="closed-form matrix comparison", checks=tuple(checks))
