"""Exact construction of the cylinder twist for the quantum Weyl group of sl2.

The package computes, over the fraction field Q(x) with x = q^(1/8):

* irreducible representations of the quantized enveloping algebra of sl2,
* R-matrices, braid matrices and the Drinfeld element on tensor products,
* the cylinder-twist element t = w z in every irreducible representation,
  together with its coefficient recursions, coproduct formulas and the
  family of variant solutions,
* tensor representations of the type-B braid group ZB_n and of its affine
  relative, with full relation checking.

Everything in the identity-checking path is exact; floating point only
enters through the explicit numeric evaluation bridge.
"""

from .qring import (
    LaurentPoly,
    RingElem,
    ONE,
    ZERO,
    X,
    Q,
    parse_ring_elem,
    q_binomial,
    q_factorial,
    q_int,
    q_power,
)
from .repn import (
    IrrepSpec,
    QMatrix,
    embed,
    irrep,
    kron,
    x_diagonal,
)
from .rmat import (
    braid_matrix,
    conjugated_r,
    drinfeld_u,
    r21,
    r_inverse,
    r_matrix,
)
from .twist import (
    CoeffTable,
    TwistConfig,
    beta_coeffs,
    bracket_coeff,
    compare_reference_matrix,
    coproduct_t,
    coproduct_z,
    coproduct_zhat,
    series_coeff_B,
    symmetric_basis_matrix,
    twist_t,
    verify_bform,
    verify_coproduct,
    verify_four_braid,
    verify_inverse,
    verify_reference_matrices,
    verify_zdelta,
    weyl_w,
    z_elem,
    zhat,
    zhat_inverse,
)
from .braidrep import (
    BraidWord,
    RepBundle,
    eval_braid_word,
    verify_affine_relation,
    verify_zbn_relations,
    zbn_generators,
    zbn_generators_numeric,
)
from .reports import Check, Report

__version__ = "0.1.0"
