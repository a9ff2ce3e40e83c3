"""Command line interface: matrix emission, numeric evaluation, and the
batch verification suites.

Exit codes: 0 all requested checks pass / output produced, 1 at least one
verification failed, 2 usage or expression-parse error.
"""

from __future__ import annotations

import argparse
import cmath
import io
import json
import math
import sys
from fractions import Fraction

from .braidrep import (
    BraidWord,
    check_exact_rows,
    eval_braid_word,
    verify_affine_relation,
    verify_zbn_relations,
    zbn_generators,
    zbn_generators_numeric,
)
from .qring import parse_ring_elem
from .repn import irrep
from .rmat import r_matrix
from .reports import Report
from .twist import (
    VARIANTS,
    TwistConfig,
    beta_coeffs,
    symmetric_basis_matrix,
    twist_t,
    verify_bform,
    verify_coproduct,
    verify_four_braid,
    verify_inverse,
    verify_reference_matrices,
    verify_zdelta,
)

MAX_COEFF_INDEX = 16
"""Largest coefficient index that `coeffs --count`, `verify --max-sum` and
`twist --dim` (index d - 1) accept.  On a 2-vCPU host (Python 3.11.7)
beta_coeffs(16, x^4) takes about 5 ms and beta_coeffs(29, x^4) about 50 ms,
but the entries grow with beta1: `coeffs --count 16 --beta1 "(1+x)^64"`
takes 0.6-1.0 s."""

MAX_VERIFY_DIM = 7
"""Largest `verify --max-dim`, `verify zbn --dim` and exact `zbn --dim`, a
bound on time on a 2-vCPU host (Python 3.11.7): `verify all --max-dim d
--beta1 "x^4+1"` took 2.4 s at d = 6, 10.8 s at d = 7 and 99.3 s at d = 8
with exact four-braid sides.  `verify zbn --dim 7 --strands 2` took 0.5 s and
`--dim 6 --strands 3` 0.9-1.2 s; the type-B relation alone took 35 s at
d = 11.  `zbn --dim d --strands 2 --word "0 1 0' 1'"` took 0.2 s at d = 7,
0.9 s at d = 9 and 115.7 s (505 MB) at d = 16, mostly Gauss-Jordan on B."""


def _check_verify_dim(d, option):
    if d > MAX_VERIFY_DIM:
        raise ValueError("%s %d exceeds the limit %d on the dimensions verified"
                         % (option, d, MAX_VERIFY_DIM))


def _check_coeff_index(n, option):
    if n < 0:
        raise ValueError("%s %d is negative: the coefficient index starts at 0"
                         % (option, n))
    if n > MAX_COEFF_INDEX:
        raise ValueError("%s %d exceeds the limit %d on the coefficient index"
                         % (option, n, MAX_COEFF_INDEX))


# ---------------------------------------------------------------------------
# output helpers


def _latex_monomial(c, exp8):
    """The body of one term c q^(exp8/8), c > 0, exponent in lowest terms."""
    r = Fraction(exp8, 8)
    power = "" if r == 0 else "q" if r == 1 else "q^{%s}" % r
    if power and c == 1:
        return power
    if c.denominator == 1:
        return str(c.numerator) + power
    return r"\frac{%d}{%d}" % (c.numerator, c.denominator) + power


def ring_elem_latex(e):
    """LaTeX form using powers of q with exponents reduced to lowest terms."""
    num = e.num.format(_latex_monomial)
    if e.den.is_one:
        return num
    return r"\frac{%s}{%s}" % (num, e.den.format(_latex_monomial))


def matrix_latex(m):
    body = " \\\\\n".join(
        " & ".join(ring_elem_latex(a) for a in row) for row in m.entries)
    return "\\left(\\begin{array}{%s}\n%s\n\\end{array}\\right)" \
        % ("c" * m.cols, body)


def _fmt_complex(v):
    if abs(v.imag) <= 1e-12 * max(1.0, abs(v.real)):
        return "%.12g" % v.real
    return "%.12g%+.12gi" % (v.real, v.imag)


def _print_numeric(mat, fmt, out):
    """Print a numeric matrix given as rows of complex numbers (a list of
    lists or a numpy array); an entry that is not finite raises
    OverflowError."""
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if not cmath.isfinite(v):
                raise OverflowError("entry (%d,%d) is %s"
                                    % (i + 1, j + 1, _fmt_complex(v)))
    if fmt == "json":
        payload = {"rows": len(mat), "cols": len(mat[0]),
                   "entries": [[[v.real, v.imag] for v in row] for row in mat]}
        print(json.dumps(payload), file=out)
    else:
        for row in mat:
            print("[" + ", ".join(_fmt_complex(v) for v in row) + "]", file=out)


def _print_matrix(m, fmt, at_q, out):
    if at_q is not None:
        _print_numeric(m.evaluate(at_q), fmt, out)
    elif fmt == "json":
        print(json.dumps(m.to_json()), file=out)
    elif fmt == "latex":
        print(matrix_latex(m), file=out)
    else:
        print(m, file=out)


def _print_report(report, out):
    for line in report.lines():
        print(line, file=out)
    print(report.summary(), file=out)


# ---------------------------------------------------------------------------
# argument plumbing


def _config(args, beta1):
    # Fraction() expands a power of ten in full: 1e10000000 takes seconds
    if args.alpha is not None and "e" in args.alpha.lower():
        raise ValueError("--alpha %s: write the half-integer as a fraction such "
                         "as 1/2 or -3/2, without an exponent" % args.alpha)
    alpha = None if args.alpha is None else Fraction(args.alpha)
    return TwistConfig(beta1=beta1, variant=args.variant, alpha=alpha)


def _join_signed_values(argv):
    """argv with `--beta1 -x^4` written as `--beta1=-x^4`, and so for
    --alpha and --at-q: argparse reads a separate value that starts with a
    single '-' as an option of its own, unless it looks like `-2.5`."""
    out = []
    for arg in argv:
        if (out and out[-1] in ("--beta1", "--alpha", "--at-q") and arg.startswith("-")
                and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qweyl",
        description="Exact cylinder-twist matrices and type-B braid "
                    "representations for quantized sl2.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "latex", "plain"),
                       default="plain")
        p.add_argument("--at-q", type=float, default=None, metavar="Q",
                       help="evaluate numerically at q = Q")

    p = sub.add_parser("irrep", help="print the generator matrices of an irrep")
    p.add_argument("--dim", type=int, required=True)
    add_format(p)

    p = sub.add_parser("rmatrix", help="print the R-matrix on V_a (x) V_b")
    p.add_argument("--dims", required=True, metavar="A,B")
    add_format(p)

    p = sub.add_parser("twist", help="print a cylinder-twist matrix")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--beta1", default="0", metavar="EXPR")
    p.add_argument("--variant", default="standard", choices=VARIANTS)
    p.add_argument("--alpha", default=None, metavar="A",
                   help="half-integer exponent for the K-conjugated variant")
    p.add_argument("--basis", choices=("integer", "symmetric"), default="integer")
    add_format(p)

    p = sub.add_parser("coeffs", help="print the twist coefficient tables")
    p.add_argument("--count", type=int, required=True, metavar="N")
    p.add_argument("--beta1", default="0", metavar="EXPR")
    p.add_argument("--format", choices=("json", "plain"), default="plain")

    p = sub.add_parser("zbn", help="evaluate a braid word on a braid-group bundle "
                                   "(relations: verify zbn)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--beta1", default="0", metavar="EXPR")
    p.add_argument("--word", required=True,
                   help="generator indices, apostrophe suffix for inverse")
    add_format(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=[name for name, (alone, _) in _SUITES.items()
                                     if alone] + ["all"])
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument("--max-sum", type=int, default=8)
    p.add_argument("--beta1", default="1", metavar="EXPR")
    p.add_argument("--variant", default="standard", choices=VARIANTS)
    p.add_argument("--alpha", default=None, metavar="A")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--strands", type=int, default=3)
    return parser


# ---------------------------------------------------------------------------
# subcommands


def _cmd_irrep(args, out):
    check_exact_rows(args.dim, "--dim %d" % args.dim)
    rep = irrep(args.dim)
    for name, mat in (("H", rep.H), ("X", rep.X), ("Y", rep.Y),
                      ("E", rep.E), ("F", rep.F), ("K", rep.K),
                      ("K^-1", rep.Kinv)):
        print("%s =" % name, file=out)
        _print_matrix(mat, args.format, args.at_q, out)
    return 0


def _cmd_rmatrix(args, out):
    try:
        da, db = (int(v) for v in args.dims.split(","))
    except ValueError:
        raise ValueError("--dims expects two comma-separated integers")
    check_exact_rows(da * db, "--dims %d,%d" % (da, db))
    _print_matrix(r_matrix(da, db), args.format, args.at_q, out)
    return 0


def _cmd_twist(args, out):
    check_exact_rows(args.dim, "--dim %d" % args.dim)
    if args.dim - 1 > MAX_COEFF_INDEX:
        raise ValueError("--dim %d needs the coefficient index %d, above the limit %d"
                         % (args.dim, args.dim - 1, MAX_COEFF_INDEX))
    config = _config(args, parse_ring_elem(args.beta1))
    if args.basis == "symmetric":
        if args.at_q is None:
            raise ValueError("--basis symmetric is numeric only; pass --at-q")
        if config.variant != "standard":
            raise ValueError("the symmetric basis is only wired up for the "
                             "standard variant")
        mat = symmetric_basis_matrix(args.dim, config.beta1, args.at_q)
        _print_numeric(mat, args.format, out)
        return 0
    _print_matrix(twist_t(args.dim, config), args.format, args.at_q, out)
    return 0


def _cmd_coeffs(args, out):
    _check_coeff_index(args.count, "--count")
    table = beta_coeffs(args.count, parse_ring_elem(args.beta1))
    columns = (("beta", "beta_%d  =", table.betas),
               ("beta_prime", "beta'_%d =", table.beta_primes),
               ("alpha", "alpha_%d =", table.alphas))
    if args.format == "json":
        print(json.dumps({key: [v.to_json() for v in values]
                          for key, _, values in columns}), file=out)
    else:
        for _, label, values in columns:
            for m, value in enumerate(values):
                print(label % m, value, file=out)
    return 0


def _cmd_zbn(args, out):
    beta1 = parse_ring_elem(args.beta1)
    word = BraidWord.parse(args.word, args.strands)
    if args.at_q is not None:
        import numpy as np
        gens = zbn_generators_numeric(args.dim, args.strands, args.at_q, beta1)
        inverses = {idx: np.linalg.inv(gens[idx])
                    for idx in {idx for idx, exp in word.letters if exp == -1}}
        result = np.eye(args.dim ** args.strands, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # _print_numeric reports it
            for idx, exp in word.letters:
                result = result @ (gens[idx] if exp == 1 else inverses[idx])
        _print_numeric(result, args.format, out)
        return 0
    _check_verify_dim(args.dim, "--dim")
    bundle = zbn_generators(args.dim, args.strands, beta1, len(word.letters))
    _print_matrix(eval_braid_word(word, bundle), args.format, None, out)
    return 0


def _pairs(suite, args, *rest):
    """suite(da, db, *rest) for every pair of dimensions up to --max-dim."""
    dims = range(1, args.max_dim + 1)
    return [suite(da, db, *rest) for da in dims for db in dims]


def _variants(args, beta1):
    """The four-braid suite for the other members of the solution family."""
    configs = [TwistConfig(beta1=beta1, variant=v) for v in ("w_inverse", "u_conjugate")]
    configs += [TwistConfig(beta1=beta1, variant="k_conjugate", alpha=alpha)
                for alpha in (Fraction(1, 2), Fraction(-1, 2), Fraction(1))]
    return [verify_four_braid(d, d, config)
            for config in configs for d in range(1, min(args.max_dim, 3) + 1)]


def _both(run):
    return run, run


# suite -> (its reports alone, its reports under `verify all`): functions of
# (args, beta1) that look each verify_* up when called; `all` keeps this order
_SUITES = {
    "four-braid": _both(lambda args, beta1:
                        _pairs(verify_four_braid, args, _config(args, beta1))),
    "zdelta": _both(lambda args, beta1: _pairs(verify_zdelta, args, beta1)),
    "bform": _both(lambda args, beta1: [verify_bform(args.max_sum, beta1)]),
    "coproduct": _both(lambda args, beta1: [verify_coproduct(args.max_dim, beta1)]),
    "inverse": _both(lambda args, beta1: [verify_inverse(max(args.max_dim, 6), beta1)]),
    "zbn": (lambda args, beta1: [verify_zbn_relations(args.dim, args.strands, beta1)],
            lambda args, beta1: [verify_zbn_relations(d, 3, beta1)
                                 for d in range(2, min(args.max_dim, 3) + 1)]),
    "affine": _both(lambda args, beta1: [verify_affine_relation(d, beta1)
                                         for d in range(1, args.max_dim + 1)]),
    "variants": (None, _variants),
    "paper-matrices": _both(lambda args, beta1: [verify_reference_matrices()]),
}


def _verify_reports(args):
    if args.max_dim < 1:
        raise ValueError("--max-dim %d leaves no dimension to check: it must be "
                         "at least 1" % args.max_dim)
    # the largest exact matrix is a product on V_d (x) V_d, d = --max-dim
    check_exact_rows(args.max_dim ** 2, "--max-dim %d" % args.max_dim)
    _check_verify_dim(args.max_dim, "--max-dim")
    if args.suite == "zbn":
        _check_verify_dim(args.dim, "--dim")
    _check_coeff_index(args.max_sum, "--max-sum")
    beta1 = parse_ring_elem(args.beta1)
    if args.suite == "all":
        runs = [under_all for _, under_all in _SUITES.values()]
    else:
        runs = [_SUITES[args.suite][0]]
    return [report for run in runs for report in run(args, beta1)]


def _cmd_verify(args, out):
    reports = _verify_reports(args)
    for report in reports:
        _print_report(report, out)
    total = Report(title="TOTAL", checks=tuple(c for r in reports for c in r.checks))
    print(total.summary() + ("" if total.ok else "  [FAILURES PRESENT]"), file=out)
    return 0 if total.ok else 1


_COMMANDS = {
    "irrep": _cmd_irrep,
    "rmatrix": _cmd_rmatrix,
    "twist": _cmd_twist,
    "coeffs": _cmd_coeffs,
    "zbn": _cmd_zbn,
    "verify": _cmd_verify,
}


def run(argv=None, out=None):
    """Dispatch a command line; returns the process exit code."""
    out = sys.stdout if out is None else out
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_signed_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        if getattr(args, "at_q", None) is not None:
            if not math.isfinite(args.at_q):
                raise ValueError("--at-q must be a finite number, got %s" % args.at_q)
            if args.format == "latex":
                raise ValueError("--format latex cannot be used with --at-q")
        # buffered, so that a command that fails prints nothing
        buf = io.StringIO()
        code = _COMMANDS[args.command](args, buf)
        out.write(buf.getvalue())
        return code
    except (ValueError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OverflowError as exc:
        print("error: numeric overflow at --at-q: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
