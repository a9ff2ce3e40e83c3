"""The coproduct of the sl2 generators on V_a (x) V_b, written out with kron,
and the tensor flip.

Delta(X) = X (x) K + K^-1 (x) X, likewise for Y, Delta(H) = H (x) 1 + 1 (x) H
and Delta(K^+-1) = K^+-1 (x) K^+-1.  The R-matrix must intertwine Delta with
its flip; the package builds R without these matrices, so the tests use them
as an independent oracle.  The package builds R21 and B = P R by permuting
the indices of R, so the flip matrix P lives here as their oracle too.
"""

from qweyl.qring import ONE, ZERO
from qweyl.repn import QMatrix, irrep, kron


def flip(da, db):
    """The tensor flip V_a (x) V_b -> V_b (x) V_a."""
    entries = [[ZERO] * (da * db) for _ in range(db * da)]
    for i in range(da):
        for j in range(db):
            entries[j * da + i][i * db + j] = ONE
    return QMatrix(entries)


_COPRODUCTS = {
    "X": lambda a, b: kron(a.X, b.K) + kron(a.Kinv, b.X),
    "Y": lambda a, b: kron(a.Y, b.K) + kron(a.Kinv, b.Y),
    "H": lambda a, b: (kron(a.H, QMatrix.identity(b.H.rows))
                       + kron(QMatrix.identity(a.H.rows), b.H)),
    "K": lambda a, b: kron(a.K, b.K),
    "Kinv": lambda a, b: kron(a.Kinv, b.Kinv),
}


def coproduct_gen(da, db, name):
    """(pi_a (x) pi_b) of the coproduct of a generator."""
    return _COPRODUCTS[name](irrep(da), irrep(db))


def coproduct_gen_op(da, db, name):
    """The flipped coproduct of a generator."""
    return flip(db, da) * coproduct_gen(db, da, name) * flip(da, db)
