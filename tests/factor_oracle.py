"""R, the Drinfeld element and every twist variant as products of their
factors, the oracles of the closed forms in `rmat.r_matrix`,
`rmat.drinfeld_u` and `twist.twist_t`.

The package writes each entry of R, u and t from a closed form, and builds
the twist variants by moving t.  Here R is the product of the Cartan factor
q^(H (x) H/4) and the tensor series sum_n c_n E^n (x) F^n, u is the
antipoded series summed over weight projectors, and each twist variant is
the product of its factors w, z, K^alpha and u, as they were built before
the closed forms.
"""

from fractions import Fraction
from functools import lru_cache

from qweyl.qring import ONE, ZERO, RingElem, q_power
from qweyl.repn import QMatrix, irrep, powers, tensor_series, x_diagonal
from qweyl.rmat import cartan_factor, series_coeff
from qweyl.twist import weyl_w, z_elem


def r_product(da, db):
    """R = q^(H (x) H/4) * sum_n c_n E^n (x) F^n on V_a (x) V_b."""
    nmax = min(da, db) - 1
    epow, fpow = powers(irrep(da).E, nmax), powers(irrep(db).F, nmax)
    series = tensor_series((series_coeff(n), epow[n], fpow[n])
                           for n in range(nmax + 1))
    return cartan_factor(da, db, 1) * series


def twist_product(d, beta1):
    """The standard twist t = w z on V_d."""
    return weyl_w(d) * z_elem(d, beta1)


def projector(d, m):
    """Diagonal idempotent onto the m-weight space of the d-dim irrep."""
    return QMatrix.diagonal([ONE if h == m else ZERO for h in irrep(d).weights])


@lru_cache(maxsize=None)
def u_projector_sum(d):
    """The Drinfeld element on V_d from R written as a sum of pure tensors
    (P_m E^n) (x) (F^n P_m') with scalar c_n x^(2 m m').  The antipode acts
    by S(H) = -H, S(X) = -q^(1/2) X, S(Y) = -q^(-1/2) Y, so the second leg
    becomes S(F)^n P_-m' with S(F) = -q^(-1/2) Y K, and u is the sum of
    S(F)^n P_-m' P_m E^n c_n x^(2 m m')."""
    r = irrep(d)
    sf = (r.Y * r.K).scale(-q_power(Fraction(-1, 2)))
    total = QMatrix.zeros(d)
    epow = sfpow = QMatrix.identity(d)
    for n in range(d):
        for m in r.weights:
            for mp in r.weights:
                term = sfpow * projector(d, -mp) * projector(d, m) * epow
                total = total + term.scale(series_coeff(n) * RingElem.x_power(2 * m * mp))
        epow, sfpow = epow * r.E, sfpow * sf
    return total


def variant_product(d, config):
    """The twist of the configured family member on V_d as the product of
    its factors: w z, w^-1 z (w inverted by Gauss-Jordan elimination),
    w K^alpha z K^alpha, w u z u with u from `u_projector_sum`, or z w."""
    w, z = weyl_w(d), z_elem(d, config.beta1)
    if config.variant == "w_inverse":
        return w.inverse() * z
    if config.variant == "k_conjugate":
        k_alpha = x_diagonal(int(2 * config.alpha) * h for h in irrep(d).weights)
        return w * k_alpha * z * k_alpha
    if config.variant == "u_conjugate":
        u = u_projector_sum(d)
        return w * u * z * u
    if config.variant == "affine":
        return z * w
    return w * z
