"""Finite-dimensional irreducible representations of quantized sl2.

The weight basis is e_0, ..., e_{d-1} ordered by decreasing weight
(H e_k = (d-1-2k) e_k), with the lowering operator acting by coefficient 1
and the raising operator carrying the quantum-integer couplings.  In this
basis every generator matrix lives over Q(x).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, reduce

from .qring import ONE, ZERO, RingElem, as_elem, dot, q_int


class QMatrix:
    """Dense matrix over Q(x).  Immutable after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(as_elem(v) for v in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows

    @classmethod
    def _raw(cls, rows, cols, entries):
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def zeros(cls, rows, cols=None):
        cols = rows if cols is None else cols
        row = (ZERO,) * cols
        return cls._raw(rows, cols, tuple(row for _ in range(rows)))

    @classmethod
    def identity(cls, n):
        return cls.diagonal([ONE] * n)

    @classmethod
    def diagonal(cls, values):
        n = len(values)
        entries = tuple(
            tuple(as_elem(values[i]) if i == j else ZERO for j in range(n))
            for i in range(n))
        return cls._raw(n, n, entries)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return QMatrix._raw(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return QMatrix._raw(self.rows, self.cols, tuple(
            tuple(-a for a in row) for row in self.entries))

    def __mul__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d times %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        nonzero_b = [[(j, b) for j, b in enumerate(row) if b.num.terms]
                     for row in other.entries]
        out = []
        for row_a in self.entries:
            # output column -> the (a, b) pairs whose products sum to it
            by_col = {}
            for a, row_b in zip(row_a, nonzero_b):
                if a.num.terms:
                    for j, b in row_b:
                        by_col.setdefault(j, []).append((a, b))
            row = [ZERO] * other.cols
            for j, pairs in by_col.items():
                row[j] = pairs[0][0] * pairs[0][1] if len(pairs) == 1 else dot(pairs)
            out.append(tuple(row))
        return QMatrix._raw(self.rows, other.cols, tuple(out))

    def scale(self, s):
        s = as_elem(s)
        return QMatrix._raw(self.rows, self.cols, tuple(
            tuple(a * s for a in row) for row in self.entries))

    def kron(self, other):
        """Kronecker product with index convention (i, j) -> i*cols_other + j."""
        entries = []
        for i in range(self.rows):
            for p in range(other.rows):
                row = []
                for j in range(self.cols):
                    a = self.entries[i][j]
                    if a.num.terms:
                        row.extend(a * b for b in other.entries[p])
                    else:
                        row.extend([ZERO] * other.cols)
                entries.append(tuple(row))
        return QMatrix._raw(self.rows * other.rows, self.cols * other.cols,
                            tuple(entries))

    def inverse(self):
        """Exact inverse by Gauss-Jordan elimination over Q(x)."""
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        work = [list(row) + [ONE if i == j else ZERO for j in range(n)]
                for i, row in enumerate(self.entries)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col].num.terms), None)
            if pivot is None:
                raise ZeroDivisionError("matrix is singular over Q(x)")
            work[col], work[pivot] = work[pivot], work[col]
            inv = work[col][col].inverse()
            work[col] = [v * inv for v in work[col]]
            for r in range(n):
                if r == col:
                    continue
                f = work[r][col]
                if f.num.terms:
                    work[r] = [a - f * b for a, b in zip(work[r], work[col])]
        return QMatrix._raw(n, n, tuple(tuple(row[n:]) for row in work))

    # -- predicates -----------------------------------------------------------

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    @property
    def is_zero(self):
        return all(not a.num.terms for row in self.entries for a in row)

    def first_difference(self, other):
        """Position and values of the first differing entry, or None."""
        for i in range(self.rows):
            for j in range(self.cols):
                if self.entries[i][j] != other.entries[i][j]:
                    return i, j, self.entries[i][j], other.entries[i][j]
        return None

    # -- numeric bridge ---------------------------------------------------------

    def evaluate(self, q0):
        """The matrix at q = q0 as a complex numpy array."""
        import numpy as np

        out = np.empty((self.rows, self.cols), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, a in enumerate(row):
                out[i, j] = a.evaluate(q0)
        return out

    # -- serialization ------------------------------------------------------------

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols,
                "entries": [[a.to_json() for a in row] for row in self.entries]}

    def __str__(self):
        return "\n".join("[" + ", ".join(str(a) for a in row) + "]"
                         for row in self.entries)

    def __repr__(self):
        return "QMatrix(%dx%d)" % (self.rows, self.cols)


# generator matrices of the d-dimensional irreducible representation
IrrepSpec = namedtuple("IrrepSpec", "weights H X Y E F K Kinv")


@lru_cache(maxsize=None)
def irrep(d):
    """The d-dimensional irreducible representation in the weight basis."""
    if d < 1:
        raise ValueError("dimension must be positive, got %d" % d)
    weights = tuple(d - 1 - 2 * k for k in range(d))
    H = QMatrix.diagonal([RingElem.from_rational(h) for h in weights])
    K = x_diagonal(2 * h for h in weights)
    Kinv = x_diagonal(-2 * h for h in weights)

    y_rows = [[ONE if (i == j + 1) else ZERO for j in range(d)] for i in range(d)]
    Y = QMatrix(y_rows)
    x_rows = [[q_int(j) * q_int(d - j) if (i == j - 1) else ZERO
               for j in range(d)] for i in range(d)]
    X = QMatrix(x_rows)
    return IrrepSpec(weights=weights, H=H, X=X, Y=Y,
                     E=K * X, F=Kinv * Y, K=K, Kinv=Kinv)


def x_diagonal(exponents):
    """The diagonal matrix with entries x^e, one for each exponent e."""
    return QMatrix.diagonal([RingElem.x_power(e) for e in exponents])


def powers(m, k):
    """The list [1, m, m^2, ..., m^k]."""
    out = [QMatrix.identity(m.rows)]
    for _ in range(k):
        out.append(out[-1] * m)
    return out


def tensor_series(terms):
    """Sum of c * (A_1 (x) ... (x) A_k) over the terms (c, A_1, ..., A_k).

    With one leg per term this is the plain linear combination sum c * A.
    """
    total = None
    for c, *legs in terms:
        term = reduce(kron, legs).scale(c)
        total = term if total is None else total + term
    return total


def embed(m, left=1, right=1):
    """The leg embedding 1_left (x) m (x) 1_right."""
    if left > 1:
        m = kron(QMatrix.identity(left), m)
    if right > 1:
        m = kron(m, QMatrix.identity(right))
    return m


kron = QMatrix.kron


def flip(da, db):
    """The tensor flip V_a (x) V_b -> V_b (x) V_a."""
    entries = [[ZERO] * (da * db) for _ in range(db * da)]
    for i in range(da):
        for j in range(db):
            entries[j * da + i][i * db + j] = ONE
    return QMatrix(entries)
