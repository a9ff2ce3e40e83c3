"""Command line interface: matrix emission, numeric evaluation, and the
batch verification suites.

Exit codes: 0 all requested checks pass / output produced, 1 at least one
verification failed, 2 usage or expression-parse error.
"""

from __future__ import annotations

import argparse
import json
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
from .qring import ONE, RingElem, parse_ring_elem
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
"""Largest coefficient index that `coeffs --count` and `verify --max-sum`
accept.  The tables grow fast: beta_coeffs(16, x^4) takes about 4 s on a
2-vCPU host, and each further index roughly doubles that."""


def _check_coeff_index(n, option):
    if n > MAX_COEFF_INDEX:
        raise ValueError("%s %d exceeds the limit %d on the coefficient index"
                         % (option, n, MAX_COEFF_INDEX))


# ---------------------------------------------------------------------------
# output helpers


def _q_power_latex(exp8):
    r = Fraction(exp8, 8)
    if r == 0:
        return ""
    if r == 1:
        return "q"
    return "q^{%s}" % r


def _coeff_latex(c, has_power):
    if c.denominator == 1:
        body = str(abs(c.numerator))
    else:
        body = r"\frac{%d}{%d}" % (abs(c.numerator), c.denominator)
    if has_power and abs(c) == 1:
        body = ""
    return body


def _poly_latex(poly):
    if not poly.terms:
        return "0"
    coeffs = poly.coefficients()
    parts = []
    for e in sorted(coeffs, reverse=True):
        c = coeffs[e]
        power = _q_power_latex(e)
        body = _coeff_latex(c, bool(power)) + power
        if not body:
            body = "1"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def ring_elem_latex(e):
    """LaTeX form using powers of q with exponents reduced to lowest terms."""
    if e.den.is_one:
        return _poly_latex(e.num)
    return r"\frac{%s}{%s}" % (_poly_latex(e.num), _poly_latex(e.den))


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
    lists or a numpy array)."""
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


def _beta1(args):
    return parse_ring_elem(args.beta1)


def _config(args):
    variant = getattr(args, "variant", "standard")
    alpha = getattr(args, "alpha", None)
    if alpha is not None:
        alpha = Fraction(alpha)
    return TwistConfig(beta1=_beta1(args), variant=variant, alpha=alpha)


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

    p = sub.add_parser("zbn", help="braid-group bundle: relation check or "
                                   "word evaluation")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--beta1", default="0", metavar="EXPR")
    p.add_argument("--word", default=None,
                   help="generator indices, apostrophe suffix for inverse")
    add_format(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("four-braid", "zdelta", "bform",
                                     "coproduct", "inverse", "zbn", "affine",
                                     "paper-matrices", "all"))
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
    config = _config(args)
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
    table = beta_coeffs(args.count, _beta1(args))
    if args.format == "json":
        payload = {
            "beta": [b.to_json() for b in table.betas],
            "beta_prime": [b.to_json() for b in table.beta_primes],
            "alpha": [a.to_json() for a in table.alphas],
        }
        print(json.dumps(payload), file=out)
    else:
        for m in range(args.count + 1):
            print("beta_%d  = %s" % (m, table.betas[m]), file=out)
        for m in range(args.count + 1):
            print("beta'_%d = %s" % (m, table.beta_primes[m]), file=out)
        for m in range(args.count + 1):
            print("alpha_%d = %s" % (m, table.alphas[m]), file=out)
    return 0


def _cmd_zbn(args, out):
    config = TwistConfig(beta1=_beta1(args))
    if args.word is None:
        report = verify_zbn_relations(args.dim, args.strands, config)
        _print_report(report, out)
        return 0 if report.ok else 1
    word = BraidWord.parse(args.word, args.strands)
    if args.at_q is not None:
        # the numeric bundle is not capped, but it evaluates the exact
        # twist and braid matrix, of d and d^2 rows
        check_exact_rows(args.dim ** 2, "--dim %d" % args.dim)
        import numpy as np
        gens = zbn_generators_numeric(args.dim, args.strands, args.at_q, config)
        inverses = {idx: np.linalg.inv(gens[idx])
                    for idx, exp in word.letters if exp == -1}
        result = np.eye(args.dim ** args.strands, dtype=complex)
        for idx, exp in word.letters:
            result = result @ (gens[idx] if exp == 1 else inverses[idx])
        _print_numeric(result, args.format, out)
        return 0
    bundle = zbn_generators(args.dim, args.strands, config)
    _print_matrix(eval_braid_word(word, bundle), args.format, None, out)
    return 0


def _verify_reports(args):
    # the largest exact matrix is a product on V_d (x) V_d, d = --max-dim
    check_exact_rows(max(args.max_dim, 0) ** 2, "--max-dim %d" % args.max_dim)
    _check_coeff_index(args.max_sum, "--max-sum")
    beta1 = _beta1(args)
    suite = args.suite
    reports = []
    if suite in ("four-braid", "all"):
        config = _config(args)
        for da in range(1, args.max_dim + 1):
            for db in range(1, args.max_dim + 1):
                reports.append(verify_four_braid(da, db, config))
    if suite in ("zdelta", "all"):
        for da in range(1, args.max_dim + 1):
            for db in range(1, args.max_dim + 1):
                reports.append(verify_zdelta(da, db, beta1))
    if suite in ("bform", "all"):
        reports.append(verify_bform(args.max_sum, beta1))
    if suite in ("coproduct", "all"):
        reports.append(verify_coproduct(args.max_dim, beta1))
    if suite in ("inverse", "all"):
        reports.append(verify_inverse(max(args.max_dim, 6), beta1))
    if suite in ("zbn", "all"):
        if suite == "zbn":
            reports.append(verify_zbn_relations(args.dim, args.strands,
                                                TwistConfig(beta1=beta1)))
        else:
            for d in range(2, min(args.max_dim, 3) + 1):
                reports.append(verify_zbn_relations(d, 3, TwistConfig(beta1=beta1)))
    if suite in ("affine", "all"):
        for d in range(1, args.max_dim + 1):
            reports.append(verify_affine_relation(d, beta1))
    if suite == "all":
        variant_configs = [TwistConfig(beta1=beta1, variant="w_inverse"),
                           TwistConfig(beta1=beta1, variant="u_conjugate")]
        for alpha in (Fraction(1, 2), Fraction(-1, 2), Fraction(1)):
            variant_configs.append(TwistConfig(beta1=beta1,
                                               variant="k_conjugate", alpha=alpha))
        for config in variant_configs:
            for d in range(1, min(args.max_dim, 3) + 1):
                reports.append(verify_four_braid(d, d, config))
    if suite in ("paper-matrices", "all"):
        reports.append(verify_reference_matrices())
    return reports


def _cmd_verify(args, out):
    reports = _verify_reports(args)
    all_ok = True
    for report in reports:
        _print_report(report, out)
        all_ok = all_ok and report.ok
    total = sum(len(r.checks) for r in reports)
    passed = sum(1 for r in reports for c in r.checks if c.ok)
    print("TOTAL: %d/%d checks passed%s"
          % (passed, total, "" if all_ok else "  [FAILURES PRESENT]"), file=out)
    return 0 if all_ok else 1


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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return _COMMANDS[args.command](args, out)
    except (ValueError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
