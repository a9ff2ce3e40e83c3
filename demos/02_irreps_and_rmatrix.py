#!/usr/bin/env python3
"""Irreducible representations and the R-matrix.

Shows the generator matrices in the weight basis, checks the defining
relations, builds the R-matrix on a tensor product and confirms the
Yang-Baxter equation exactly.
"""

from fractions import Fraction

from qweyl import (
    QMatrix,
    braid_matrix,
    irrep,
    kron,
    q_power,
    r_inverse,
    r_matrix,
)

print("== the 3-dimensional irrep ==")
rep = irrep(3)
for name in ("H", "X", "Y", "K"):
    print("%s =" % name)
    print(getattr(rep, name))
    print()

print("commutator X Y - Y X (diagonal of quantum weights):")
print(rep.X * rep.Y - rep.Y * rep.X)

print()
print("== R-matrix on V2 (x) V2 ==")
r = r_matrix(2, 2)
print(r)
print("R * R^-1 = identity:", r * r_inverse(2, 2) == QMatrix.identity(4))

print()
print("== Yang-Baxter on V2 (x) V3 (x) V2 ==")
da, db, dc = 2, 3, 2


def flip(da, db):
    """The tensor flip V_a (x) V_b -> V_b (x) V_a: e_i (x) e_j -> e_j (x) e_i."""
    entries = [[0] * (da * db) for _ in range(db * da)]
    for i in range(da):
        for j in range(db):
            entries[j * da + i][i * db + j] = 1
    return QMatrix(entries)


r12 = kron(r_matrix(da, db), QMatrix.identity(dc))
r23 = kron(QMatrix.identity(da), r_matrix(db, dc))
swap = kron(QMatrix.identity(da), flip(dc, db))
swap_back = kron(QMatrix.identity(da), flip(db, dc))
r13 = swap * kron(r_matrix(da, dc), QMatrix.identity(db)) * swap_back
print("R12 R13 R23 == R23 R13 R12:", r12 * r13 * r23 == r23 * r13 * r12)

print()
print("== braid matrix eigenvalue classes (d = 2) ==")
b = braid_matrix(2)
ident = QMatrix.identity(4)
lam1 = q_power(Fraction(1, 4))
lam2 = -q_power(Fraction(-3, 4))
print("(B - q^(1/4)) (B + q^(-3/4)) = 0:",
      (b - ident.scale(lam1)) * (b - ident.scale(lam2)) == QMatrix.zeros(4))
