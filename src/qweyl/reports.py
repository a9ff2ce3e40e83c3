"""Small pass/fail report structures shared by the verification suites."""

from __future__ import annotations

from collections import namedtuple

from .repn import product, products_equal

Check = namedtuple("Check", "name ok detail", defaults=("",))


class Report(namedtuple("Report", "title checks")):
    __slots__ = ()

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            mark = "ok  " if c.ok else "FAIL"
            line = "%s %s" % (mark, c.name)
            if c.detail and not c.ok:
                line += "  [%s]" % c.detail
            out.append(line)
        return out

    def summary(self):
        passed = sum(1 for c in self.checks if c.ok)
        return "%s: %d/%d checks passed" % (self.title, passed, len(self.checks))


def matrix_check(name, lhs, rhs):
    """Check exact equality of two matrices, reporting the first mismatch."""
    if lhs == rhs:
        return Check(name=name, ok=True)
    i, j, a, b = lhs.first_difference(rhs)
    return Check(name=name, ok=False,
                 detail="entry (%d,%d): %s != %s" % (i + 1, j + 1, a, b))


def product_check(name, lhs, rhs):
    """matrix_check of the products of two chains of matrices, each a tuple of
    factors from left to right.  A ring image proves most equalities without
    building either product (repn.products_equal); the products are built and
    compared entry by entry only when it does not, so every failure and every
    rational-function entry goes through matrix_check."""
    if products_equal(lhs, rhs):
        return Check(name=name, ok=True)
    return matrix_check(name, product(lhs), product(rhs))


def labels_check(name, cases, shown=None):
    """One check over (label, lhs, rhs) cases of exact equality; a failure
    names the labels of the first `shown` failing cases (all when None)."""
    failed = []
    for label, lhs, rhs in cases:
        if lhs != rhs:
            failed.append(label)
        # drop this case's sides before the next case is built
        del lhs, rhs
    return Check(name=name, ok=not failed, detail=", ".join(failed[:shown]))
