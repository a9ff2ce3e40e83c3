"""The R-matrix and its relatives on tensor products of irreducibles.

The universal element is the finite series
q^(H (x) H / 4) * sum_n c_n E^n (x) F^n, c_n = (1-q^-1)^n / [n]! * q^(n(n-1)/4),
which truncates by nilpotency at n = min(da, db) - 1.  The Cartan factor
is the diagonal with entry x^(2 ha hb) at the tensor weight (ha, hb).
R and R^-1 are written entry by entry from this series (`_series_entries`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .qring import ONE, ZERO, q_binomial, q_factorial, q_int, q_power
from .repn import QMatrix, irrep, powers, tensor_series, x_diagonal


@lru_cache(maxsize=None)
def cartan_factor(da, db, sign=1):
    """q^(sign * H (x) H / 4) on V_a (x) V_b: the diagonal x^(2 sign ha hb)."""
    return x_diagonal(2 * sign * ha * hb
                      for ha in irrep(da).weights for hb in irrep(db).weights)


@lru_cache(maxsize=None)
def series_coeff(n):
    """(1 - q^-1)^n / [n]! * q^(n(n-1)/4)."""
    return ((ONE - q_power(-1)) ** n / q_factorial(n)) \
        * q_power(Fraction(n * (n - 1), 4))


@lru_cache(maxsize=None)
def _leg_coeff(da, k, n):
    """The x-power-free part of c_n times the entry of E^n at (k-n, k) on
    V_a: (1-q^-1)^n [k over n] prod_(m=k-n+1..k) [da - m], a polynomial."""
    out = (ONE - q_power(-1)) ** n * q_binomial(k, n)
    for m in range(k - n + 1, k + 1):
        out = out * q_int(da - m)
    return out


def _series_entries(da, db, inverse):
    """R, or R^-1 when inverse is set, on V_a (x) V_b, entry by entry.

    c_n E^n (x) F^n maps e_k (x) e_l to e_(k-n) (x) e_(l+n) for 0 <= n <=
    min(k, db-1-l).  R puts the Cartan factor x^(2 ha hb) of the row on it;
    R^-1 = (S (x) id)(R) = [sum_n (-1)^n c_n q^(-n(n-1)/2) E^n (x) F^n]
    q^(-H (x) H/4) puts that of the column (C. Kassel, "Quantum Groups",
    GTM 155, ch. VIII).
    """
    if da < 1 or db < 1:
        raise ValueError("dimensions must be positive")
    ha, hb = irrep(da).weights, irrep(db).weights
    size = da * db
    out = [[ZERO] * size for _ in range(size)]
    for k in range(da):
        for l in range(db):
            legs = 0  # the x-power of E^n at (k-n, k) and of F^n at (l+n, l)
            for n in range(min(k, db - 1 - l) + 1):
                if n:
                    legs += 2 * ha[k - n] - 2 * hb[l + n]
                if inverse:
                    e = legs - 2 * n * (n - 1) - 2 * ha[k] * hb[l]
                else:
                    e = legs + 2 * n * (n - 1) + 2 * ha[k - n] * hb[l + n]
                entry = _leg_coeff(da, k, n).shift(e)
                out[(k - n) * db + l + n][k * db + l] = -entry if inverse and n % 2 else entry
    return QMatrix._raw(size, size, tuple(map(tuple, out)))


@lru_cache(maxsize=None)
def r_matrix(da, db):
    """(pi_a (x) pi_b) applied to the universal R element, from its closed
    form: the entry at row (k-n) db + l+n, column k db + l is

        x^(2 ha_(k-n) hb_(l+n) - 2 sum_(m=l+1..l+n) hb_m + sum_(m=k-n+1..k) 2(da+1-2m))
          * (1-q^-1)^n q^(n(n-1)/4) [k over n] prod_(m=k-n+1..k) [da - m]

    for 0 <= n <= min(k, db-1-l), with h_i = d-1-2i.  Its test oracle is the
    product of the Cartan factor and the tensor series of c_n E^n (x) F^n."""
    return _series_entries(da, db, inverse=False)


@lru_cache(maxsize=None)
def r_inverse(da, db):
    """R^-1 from the same series with the antipode on the first leg (see
    `_series_entries`); its test oracle is Gauss-Jordan elimination."""
    return _series_entries(da, db, inverse=True)


@lru_cache(maxsize=None)
def r21(da, db):
    """R with its tensor legs exchanged, as an operator on V_a (x) V_b: its
    entry at rows (i, j), columns (k, l) is that of R on V_b (x) V_a at rows
    (j, i), columns (l, k)."""
    r = r_matrix(db, da).entries
    swap = [j * da + i for i in range(da) for j in range(db)]
    return QMatrix._raw(da * db, da * db,
                        tuple(tuple(r[row][col] for col in swap) for row in swap))


@lru_cache(maxsize=None)
def braid_matrix(d):
    """B = P R on V_d (x) V_d; satisfies the Yang-Baxter braid relation.
    The flip P makes row i d + j of B row j d + i of R."""
    r = r_matrix(d, d).entries
    return QMatrix._raw(d * d, d * d, tuple(r[j * d + i] for i in range(d) for j in range(d)))


@lru_cache(maxsize=None)
def conjugated_r(da, db):
    """The exchanged R-matrix conjugated by the Weyl element on the second leg.

    Built from the closed form
    q^(-H (x) H / 4) * sum_n c_n (-q^(1/2))^n F^n (x) F^n
    rather than from an explicit Weyl matrix.
    """
    nmax = min(da, db) - 1
    msign = -q_power(Fraction(1, 2))
    fa, fb = powers(irrep(da).F, nmax), powers(irrep(db).F, nmax)
    series = tensor_series((series_coeff(n) * msign ** n, fa[n], fb[n])
                           for n in range(nmax + 1))
    return cartan_factor(da, db, -1) * series


@lru_cache(maxsize=None)
def drinfeld_u(d):
    """The Drinfeld element u = sum_n c_n S(F)^n q^(-H^2/4) E^n on V_d, the
    antipoded second leg of R times the first.  Conjugation by u, as by K^2,
    implements S^2, so u K^-2 is central and a scalar on V_d, read off at the
    highest weight, where only n = 0 acts: u = q^(-(d^2-1)/4) K^2, the
    diagonal x^(4h - 2(d^2-1)).  Its test oracle is the series.
    """
    return x_diagonal(4 * h - 2 * (d * d - 1) for h in irrep(d).weights)
