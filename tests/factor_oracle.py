"""The R-matrix and the standard twist as products of their factors, the
oracles of the closed forms in `rmat.r_matrix` and `twist.twist_t`.

The package writes each entry of R and of t from a closed form.  Here R is
the product of the Cartan factor q^(H (x) H/4) and the tensor series
sum_n c_n E^n (x) F^n, and t is the product w z of the Weyl element and the
Borel factor, as they were built before the closed forms.
"""

from qweyl.repn import irrep, powers, tensor_series
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
