#!/usr/bin/env python3
"""Constructing the cylinder twist t = w z and confirming its identities.

The twist solves the reflection-style braid equation
R21 t2 R t1 = t1 R21 t2 R on every tensor product of irreps, for every
value of the free coefficient beta_1.
"""

import numpy as np

from qweyl import (
    ONE,
    RingElem,
    TwistConfig,
    compare_reference_matrix,
    symmetric_basis_matrix,
    twist_t,
    verify_four_braid,
    verify_zdelta,
)
from qweyl.cli import matrix_latex

b1 = RingElem.x_power(4)        # beta_1 = q^(1/2), one member of the family

print("== the twist in dimension 2 (beta1 = x^4) ==")
t2 = twist_t(2, TwistConfig(beta1=b1))
print(t2)
print()
print("as LaTeX in powers of q:")
print(matrix_latex(t2))

print()
print("== the braid equation, exactly over Q(x) ==")
for da, db in ((2, 2), (2, 3), (4, 3), (5, 5)):
    report = verify_four_braid(da, db, TwistConfig(beta1=b1))
    print("V%d (x) V%d:" % (da, db), "pass" if report.ok else "FAIL")

print()
print("== the coproduct condition that drives the construction ==")
for da, db in ((2, 2), (3, 2)):
    report = verify_zdelta(da, db, b1)
    for line in report.lines():
        print(" ", line)

print()
print("== numeric comparison with the known closed forms ==")
for d in (2, 3, 4):
    res = compare_reference_matrix(d, 1, 0.7)
    print("d = %d, beta1 = 1, q = 0.7: residual %.2e" % (d, res))

print()
print("== the twist at q = 0.7 in the mirror-symmetric basis (d = 3) ==")
m = symmetric_basis_matrix(3, ONE, 0.7)
with np.printoptions(precision=6, suppress=True):
    print(np.array(m).real)
