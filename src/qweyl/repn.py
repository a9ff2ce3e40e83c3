"""Finite-dimensional irreducible representations of quantized sl2.

The weight basis is e_0, ..., e_{d-1} ordered by decreasing weight
(H e_k = (d-1-2k) e_k), with the lowering operator acting by coefficient 1
and the raising operator carrying the quantum-integer couplings.  In this
basis every generator matrix lives over Q(x).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache, reduce
from operator import mul

from .qring import ONE, ZERO, RingElem, as_elem, dot, q_int


def _times(a, b):
    """a * b for nonzero ring elements; a factor that is ONE gives the other
    one back without a multiplication."""
    if a is ONE:
        return b
    return a if b is ONE else a * b


class QMatrix:
    """Dense matrix over Q(x); immutable, so its index of nonzeros is built once."""

    __slots__ = ("rows", "cols", "entries", "_nonzero")

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
        self._nonzero = None

    @classmethod
    def _raw(cls, rows, cols, entries):
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m._nonzero = None
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

    def nonzero_rows(self):
        """Per row, the (column, entry) pairs of its nonzero entries."""
        if self._nonzero is None:
            self._nonzero = tuple([tuple([(j, a) for j, a in enumerate(row) if a.num.terms])
                                   for row in self.entries])
        return self._nonzero

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return tensor_series(((ONE, self), (ONE, other)))

    def __sub__(self, other):
        return tensor_series(((ONE, self), (-ONE, other)))

    def __neg__(self):
        return tensor_series(((-ONE, self),))

    def __mul__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d times %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        nonzero_b = other.nonzero_rows()
        out = []
        for row_a in self.nonzero_rows():
            # output column -> the (a, b) pairs whose products sum to it
            by_col = {}
            for k, a in row_a:
                for j, b in nonzero_b[k]:
                    by_col.setdefault(j, []).append((a, b))
            row = [ZERO] * other.cols
            for j, pairs in by_col.items():
                row[j] = _times(*pairs[0]) if len(pairs) == 1 else dot(pairs)
            out.append(tuple(row))
        return QMatrix._raw(self.rows, other.cols, tuple(out))

    def scale(self, s):
        return tensor_series(((s, self),))

    def kron(self, other):
        """Kronecker product with index convention (i, j) -> i*cols_other + j."""
        return tensor_series(((ONE, self, other),))

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

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    @property
    def is_zero(self):
        return not any(self.nonzero_rows())

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

    Entry (i, j) of a Kronecker product is the product of the legs' entries
    at the digits of i and j, so each term adds only the products of nonzero
    leg entries, and the sum is kept as one {(row, col): entry} dict.  With
    one leg per term this is the plain linear combination sum c * A.
    """
    sums = {}
    shape = None
    for c, *legs in terms:
        term_shape = (math.prod(m.rows for m in legs), math.prod(m.cols for m in legs))
        shape = shape or term_shape
        if term_shape != shape:
            raise ValueError("shape mismatch: a %dx%d term in a %dx%d series"
                             % (*term_shape, *shape))
        c = as_elem(c)
        # the term's nonzero entries as (row, col, value), one leg at a time
        term = [(0, 0, c)] if c.num.terms else []
        for m in legs:
            nonzero = [(i, j, a) for i, row in enumerate(m.nonzero_rows()) for j, a in row]
            term = [(r * m.rows + i, s * m.cols + j, _times(v, a))
                    for r, s, v in term for i, j, a in nonzero]
        for r, s, v in term:
            key = (r, s)
            sums[key] = sums[key] + v if key in sums else v
    if shape is None:
        raise ValueError("a tensor series needs at least one term")
    rows, cols = shape
    out = [[ZERO] * cols for _ in range(rows)]
    for (r, s), v in sums.items():
        out[r][s] = v
    return QMatrix._raw(rows, cols, tuple(map(tuple, out)))


def embed(m, left=1, right=1):
    """The leg embedding 1_left (x) m (x) 1_right."""
    return tensor_series(((ONE, QMatrix.identity(left), m, QMatrix.identity(right)),))


kron = QMatrix.kron


# ---------------------------------------------------------------------------
# products of chains of matrices


def product(factors):
    """The left-to-right product F_1 F_2 ... F_n of a chain of matrices."""
    return reduce(mul, factors)


# a factor m cleared to the integer matrix den q^k m, with den the common
# integer denominator and k >= 0 the least power of q that leaves no negative
# exponent; rows is m.nonzero_rows(), width the most nonzeros in a row and
# norm the largest l1 norm of an entry of den q^k m
_Cleared = namedtuple("_Cleared", "den k rows width norm")


def _cleared(m):
    """m as a _Cleared factor, or None when an entry of m has a non-constant
    denominator."""
    rows = m.nonzero_rows()
    if not all(a.den.is_one for row in rows for _, a in row):
        return None
    flat = [a.num for row in rows for _, a in row]
    den = math.lcm(*(p.denom for p in flat))
    k = max([0] + [-(min(p.terms) // 8) for p in flat])
    norm = max([den // p.denom * sum(map(abs, p.terms.values())) for p in flat], default=0)
    return _Cleared(den, k, rows, max(map(len, rows)), norm)


def _image(c, w):
    """The entries of the cleared factor c, integer polynomials sum v x^e with
    e >= 0, as their images in Z[x]/(x^8 - 2^w): per row the (16 j + r, sum
    of v 2^(w (e >> 3)) over the exponents e = r mod 8) pairs of column j and
    class r, zeros left out.  An entry object that recurs in c, as every
    entry of t does in t (x) 1, is mapped once."""
    out = []
    mapped = {}
    for row in c.rows:
        image_row = []
        for j, a in row:
            image = mapped.get(id(a))
            if image is None:
                scale = c.den // a.num.denom
                classes = [0] * 8
                for e, v in a.num.terms.items():
                    classes[e & 7] += v * scale << w * ((e >> 3) + c.k)
                image = mapped[id(a)] = [(r, v) for r, v in enumerate(classes) if v]
            image_row.extend((16 * j + r, v) for r, v in image)
        out.append(image_row)
    return out


def _row_times(vec, rows, w):
    """The row vector vec times the matrix rows, both in the image and keyed
    16 j + r by column j and class r; x^8 = 2^w folds class r + 8 onto r."""
    acc = {}
    get = acc.get
    for ka, va in vec.items():
        ra = ka & 7
        for jb, vb in rows[ka >> 4]:
            key = jb + ra
            acc[key] = get(key, 0) + va * vb
    out = {}
    for key, v in acc.items():
        if key & 8:
            key -= 8
            v <<= w
        out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def _chain_row(images, i, w):
    """Row i of the product of a chain of factor images, as a {16 j + r:
    value} dict."""
    vec = dict(images[0][i])
    for rows in images[1:]:
        vec = _row_times(vec, rows, w)
    return vec


def _shared_run(lhs, rhs):
    """(i, j, n) for the longest run lhs[i:i+n] that is also rhs[j:j+n],
    factor by factor as the same objects; n = 0 when no factor is shared."""
    best = (0, 0, 0)
    for i in range(len(lhs)):
        for j in range(len(rhs)):
            n = 0
            while i + n < len(lhs) and j + n < len(rhs) and lhs[i + n] is rhs[j + n]:
                n += 1
            if n > best[2]:
                best = (i, j, n)
    return best


def products_equal(lhs, rhs):
    """Whether the chains of matrices lhs and rhs have equal products, decided
    without building either product; None when some factor has an entry with
    a non-constant denominator, or when the two sides are cleared by
    different total scalings.

    Each factor F_m is cleared to the integer matrix D_m q^(K_m) F_m, and its
    entries are mapped by x -> x, q = x^8 -> 2^w into Z[x]/(x^8 - 2^w), a ring
    homomorphism in which an entry is at most 8 big integers, one for each
    exponent class mod 8.  With both sides cleared by the same prod D_m and
    sum K_m, the sides are equal exactly when the cleared products are, and a
    difference of images is the difference of the products' images.  That
    map loses nothing on an integer polynomial whose coefficients are below
    2^w in absolute value (one with |c_k| <= X - 1 that is not zero is not
    zero at X).  A chain F_1 ... F_n has at most prod_(m<n) width_m paths
    from a row to a column, so every entry of its cleared product has an l1
    norm of at most B = prod_(m<n) width_m * prod_m norm_m, and
    w = bit_length(B_lhs + B_rhs) + 1 bounds every coefficient of the
    difference.

    The longest run of factors that both chains share (the same objects in
    the same order, as in the rotations R21 t2 R t1 and t1 R21 t2 R) is
    multiplied out once, in the image, and each side then uses it as one
    factor; the image of a product is the product of the images, so w is
    unchanged.  Products are taken row by row, left to right.
    """
    cleared = {}
    for f in (*lhs, *rhs):
        if id(f) not in cleared:
            cleared[id(f)] = _cleared(f)
            if cleared[id(f)] is None:
                return None
    scalings, bounds = [], []
    for chain in (lhs, rhs):
        for f, g in zip(chain, chain[1:]):
            if f.cols != g.rows:
                raise ValueError("shape mismatch: %dx%d times %dx%d"
                                 % (f.rows, f.cols, g.rows, g.cols))
        facts = [cleared[id(f)] for f in chain]
        scalings.append((math.prod(c.den for c in facts), sum(c.k for c in facts)))
        bounds.append(math.prod(c.width for c in facts[:-1])
                      * math.prod(c.norm for c in facts))
    if scalings[0] != scalings[1]:
        return None
    if (lhs[0].rows, lhs[-1].cols) != (rhs[0].rows, rhs[-1].cols):
        return False
    w = sum(bounds).bit_length() + 1
    images = {key: _image(c, w) for key, c in cleared.items()}
    sides = [[images[id(f)] for f in chain] for chain in (lhs, rhs)]
    i, j, n = _shared_run(lhs, rhs)
    if n > 1:
        run_images = sides[0][i:i + n]
        run = [list(_chain_row(run_images, row, w).items()) for row in range(lhs[i].rows)]
        sides = [sides[0][:i] + [run] + sides[0][i + n:],
                 sides[1][:j] + [run] + sides[1][j + n:]]
    for row in range(lhs[0].rows):
        if _chain_row(sides[0], row, w) != _chain_row(sides[1], row, w):
            return False
    return True
