"""Layer tracer for one worker process, built only from the benchmark's files.

`Tracer.install()` replaces functions and methods of the qweyl modules with
timing wrappers.  A module-level function is replaced in every qweyl module
that binds it, because modules such as `twist` and `braidrep` hold their
own `from .rmat import ...` names.  Two kinds of wrapper exist:

* spans, around the public calls of each layer.  A span belongs to a group
  named after a per-layer metric.  Open spans form a stack, so each group
  gets its inclusive time (outermost span of the group only), its self
  time (minus nested spans of any group) and its bare self time (also
  minus ring operations).  Calls per (caller group, group) edge are kept
  in memory and returned with the totals.
* counters, around the hot `qring` operations.  Ring arithmetic on
  `RingElem` is counted and timed at the outermost operation only; the
  time is charged to the innermost open span.  `LaurentPoly.__mul__` and
  `q_binomial` are counted only.

Bookkeeping that scans matrices (useful products, nonzeros) is timed and
removed from the times of every enclosing span.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import qweyl
from qweyl import braidrep, cli, qring, repn, reports, rmat, twist
from qweyl.braidrep import BraidWord
from qweyl.qring import LaurentPoly, RingElem
from qweyl.repn import QMatrix

_pc = time.perf_counter
_MODULES = (qweyl, qring, repn, rmat, twist, braidrep, reports, cli)

# group -> module-level functions spanned under it
FUNCTION_GROUPS = {
    "rmat.build": (rmat, ("r_matrix", "r_inverse", "r21", "braid_matrix",
                          "conjugated_r", "drinfeld_u")),
    "rmat.cartan": (rmat, ("cartan_factor",)),
    "twist.coeffs": (twist, ("beta_coeffs",)),
    "twist.build": (twist, ("twist_t", "zhat", "zhat_inverse", "z_elem", "weyl_w",
                            "coproduct_zhat", "coproduct_z", "coproduct_t")),
    "twist.verify": (twist, ("verify_four_braid", "verify_zdelta", "verify_bform",
                             "verify_coproduct", "verify_inverse",
                             "verify_reference_matrices")),
    "braidrep.bundle": (braidrep, ("zbn_generators", "zbn_generators_numeric")),
    "braidrep.relations": (braidrep, ("relation_report", "verify_affine_relation")),
    "braidrep.word": (braidrep, ("eval_braid_word",)),
    "reports.compare": (reports, ("matrix_check",)),
    "repn.kron": (repn, ("kron",)),
    "cli.parse": (qring, ("parse_ring_elem",)),
    "cli.emit": (cli, ("_print_matrix", "_print_numeric", "_print_report",
                       "matrix_latex")),
}

# group -> methods spanned under it
METHOD_GROUPS = {
    "repn.matmul": ((QMatrix, "__mul__"),),
    "repn.kron": ((QMatrix, "kron"),),
    "repn.inverse": ((QMatrix, "inverse"),),
    "reports.compare": ((QMatrix, "__eq__"), (QMatrix, "first_difference")),
    "cli.emit": ((QMatrix, "to_json"), (RingElem, "to_json")),
}

RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__neg__", "__pow__", "__truediv__", "__rtruediv__", "inverse")
DIVIDING_OPS = ("__truediv__", "__rtruediv__", "inverse")

CACHED_MODULES = {"rmat": rmat, "twist": twist}


class Tracer:
    def __init__(self):
        # open spans: [group, child span time, ring time, hidden bookkeeping time]
        self.stack = []
        self.depth = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.self_bare = defaultdict(float)
        self.calls = Counter()
        self.edges = defaultdict(lambda: [0, 0.0])
        self.count = Counter()
        self.ring_s = 0.0
        self.in_ring = False
        self.qbinom_pairs = set()
        self.cached = {}
        # nonzeros per row of right-hand matmul operands, by id; the
        # operands are kept alive so that no id is reused
        self.row_nnz = {}
        self.keep = []

    # -- wrappers -------------------------------------------------------------

    def span(self, fn, group, account=None):
        stack, depth = self.stack, self.depth

        def wrapper(*args, **kwargs):
            frame = [group, 0.0, 0.0, 0.0]
            stack.append(frame)
            depth[group] += 1
            t0 = _pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _pc() - t0 - frame[3]
                stack.pop()
                depth[group] -= 1
                if not depth[group]:
                    self.incl[group] += dt
                self.self_s[group] += dt - frame[1]
                self.self_bare[group] += dt - frame[1] - frame[2]
                self.calls[group] += 1
                edge = self.edges[(stack[-1][0] if stack else "", group)]
                edge[0] += 1
                edge[1] += dt
                if stack:
                    stack[-1][1] += dt
                    stack[-1][3] += frame[3]
            if account is not None:
                a0 = _pc()
                account(args, result)
                if stack:
                    stack[-1][3] += _pc() - a0
            return result

        return wrapper

    def ring_op(self, fn, name):
        stack, count = self.stack, self.count
        dividing = name in DIVIDING_OPS
        power = name == "__pow__"

        def wrapper(a, *rest):
            if self.in_ring:
                return fn(a, *rest)
            self.in_ring = True
            t0 = _pc()
            try:
                result = fn(a, *rest)
            finally:
                self.in_ring = False
            dt = _pc() - t0
            self.ring_s += dt
            if stack:
                stack[-1][2] += dt
            count["ring_ops"] += 1
            # a canonical denominator has leading coefficient 1 and lowest
            # exponent 0, so it equals 1 exactly when it has one term
            b = rest[0] if rest else None
            if (dividing or (power and b < 0) or len(a.den.terms) != 1
                    or (type(b) is RingElem and len(b.den.terms) != 1)
                    or (type(result) is RingElem and len(result.den.terms) != 1)):
                count["ring_rational"] += 1
            return result

        return wrapper

    # -- per-call bookkeeping ---------------------------------------------------

    def _account_matmul(self, args, result):
        a, b = args
        if not isinstance(b, QMatrix):
            return
        row_nnz = self.row_nnz.get(id(b))
        if row_nnz is None:
            row_nnz = [sum(1 for v in row if v.num.terms) for row in b.entries]
            self.row_nnz[id(b)] = row_nnz
            self.keep.append(b)
        useful = nnz_a = 0
        for row in a.entries:
            for k, v in enumerate(row):
                if v.num.terms:
                    useful += row_nnz[k]
                    nnz_a += 1
        c = self.count
        c["mm_useful"] += useful
        c["mm_dense"] += a.rows * a.cols * b.cols
        c["mm_nnz"] += nnz_a + sum(row_nnz)
        c["mm_entries"] += a.rows * a.cols + b.rows * b.cols

    def _account_first_difference(self, args, result):
        a = args[0]
        if result is None:
            self.count["entries_compared"] += a.rows * a.cols
        else:
            i, j = result[0], result[1]
            self.count["entries_compared"] += i * a.cols + j + 1

    def _account_eq(self, args, result):
        a, b = args
        if isinstance(b, QMatrix):
            # all entries when equal; an upper bound when not
            self.count["entries_compared"] += a.rows * a.cols

    # -- installation -----------------------------------------------------------

    def _rebind(self, original, replacement):
        for module in _MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)

    def install(self):
        for module_name, module in CACHED_MODULES.items():
            self.cached[module_name] = [v for v in vars(module).values()
                                        if callable(getattr(v, "cache_info", None))]
        accounts = {(QMatrix, "__mul__"): self._account_matmul,
                    (QMatrix, "first_difference"): self._account_first_difference,
                    (QMatrix, "__eq__"): self._account_eq}
        for group, (module, names) in FUNCTION_GROUPS.items():
            for name in names:
                original = getattr(module, name)
                self._rebind(original, self.span(original, group))
        for group, methods in METHOD_GROUPS.items():
            for cls, name in methods:
                original = cls.__dict__[name]
                setattr(cls, name, self.span(original, group, accounts.get((cls, name))))
        parse = BraidWord.__dict__["parse"].__func__
        BraidWord.parse = classmethod(self.span(parse, "cli.parse"))
        build_parser = cli._build_parser

        def traced_parser():
            parser = build_parser()
            parser.parse_args = self.span(parser.parse_args, "cli.parse")
            return parser

        cli._build_parser = self.span(traced_parser, "cli.parse")
        json.dumps = self.span(json.dumps, "cli.emit")

        for name in RING_OPS:
            setattr(RingElem, name, self.ring_op(RingElem.__dict__[name], name))
        poly_mul = LaurentPoly.__mul__

        def counted_poly_mul(a, b):
            self.count["poly_mul"] += 1
            return poly_mul(a, b)

        LaurentPoly.__mul__ = counted_poly_mul
        q_binomial = qring.q_binomial

        def counted_q_binomial(n, k):
            self.count["qbinom_calls"] += 1
            self.qbinom_pairs.add((int(n), int(k)))
            return q_binomial(n, k)

        self._rebind(q_binomial, counted_q_binomial)

    # -- results -----------------------------------------------------------------

    def totals(self):
        """Counters and times so far, as plain JSON-ready data."""
        cache = {}
        for module_name, functions in self.cached.items():
            infos = [f.cache_info() for f in functions]
            cache[module_name] = [sum(i.hits for i in infos), sum(i.misses for i in infos)]
        return {"count": dict(self.count, qbinom_distinct=len(self.qbinom_pairs)),
                "ring_s": self.ring_s,
                "incl": dict(self.incl), "self": dict(self.self_s),
                "self_bare": dict(self.self_bare), "calls": dict(self.calls),
                "cache": cache,
                "edges": [[p, g, n, s] for (p, g), (n, s) in sorted(self.edges.items())]}
