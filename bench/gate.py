"""Correctness gate for job outputs, with its negative twins.

The gate never calls qweyl: coefficient tables are checked against their
defining recursions evaluated here, and exact word matrices against the
CLI's independent numeric (numpy) path.  A job passes only if it exited 0 and its output
passes the check for its kind.
"""

from __future__ import annotations

import decimal
import functools
import json
from fractions import Fraction

import numpy as np

from jobs import Q0_VALUES

COEFF_RTOL = decimal.Decimal("1e-9")
WORD_RTOL = 1e-8


# Both sides are evaluated with 50 significant digits: the exact outputs
# have long numerators with large alternating coefficients, and the alpha
# recursion is an alternating sum, so doubles lose up to 1e-8 of relative
# accuracy on either side.  q0 is real and positive, so everything is real.
_CTX = decimal.Context(prec=50)
_D = decimal.Decimal


@functools.lru_cache(maxsize=None)
def _x_power(q0, e):
    with decimal.localcontext(_CTX):
        return (_D(q0) ** (_D(1) / 8)) ** e


def _eval_poly(terms, q0):
    total = _D(0)
    for e, c in terms:
        c = Fraction(c)
        total += _D(c.numerator) / c.denominator * _x_power(q0, e)
    return total


def eval_entry(obj, q0):
    """Value of a serialized ring element {"num": ..., "den": ...} at q = q0 > 0."""
    with decimal.localcontext(_CTX):
        return _eval_poly(obj["num"], q0) / _eval_poly(obj["den"], q0)


def coeff_oracle(beta1_terms, count, q0):
    """beta, beta' = beta [m]! and alpha up to index count, at q = q0 > 0, from
    their defining recursions."""
    with decimal.localcontext(_CTX):
        q = _D(q0)

        def qpow(r):
            return q ** (_D(r.numerator) / r.denominator)

        def qint(n):
            return (qpow(Fraction(n, 2)) - qpow(Fraction(-n, 2))) \
                / (qpow(Fraction(1, 2)) - qpow(Fraction(-1, 2)))

        beta = [_D(1), sum(k * _x_power(q0, e) for e, k in beta1_terms)]
        for a in range(1, count):
            beta.append((beta[a] * beta[1]
                         + beta[a - 1] * (1 / q - 1) * qpow(Fraction(1 - a, 2)))
                        / qint(a + 1))
        fact = [_D(1)]
        for m in range(1, count + 1):
            fact.append(fact[-1] * qint(m))
        alpha = [_D(1)]
        for a in range(1, count + 1):
            alpha.append(-sum(beta[m] * alpha[a - m] * qpow(Fraction(-m * (a - m), 2))
                              for m in range(1, a + 1)))
        return {"beta": beta[:count + 1],
                "beta_prime": [b * f for b, f in zip(beta, fact)],
                "alpha": alpha}


def _check_verify(job, stdout):
    lines = stdout.splitlines()
    bad = [ln for ln in lines if ln.startswith("FAIL")]
    if bad:
        return "failing check: %s" % bad[0]
    want = "TOTAL: %d/%d checks passed" % (job.expect, job.expect)
    if not lines or lines[-1] != want:
        return "last line %r, expected %r" % (lines[-1] if lines else "", want)
    return None


def _check_coeffs(job, stdout):
    tables = json.loads(stdout)
    for q0 in Q0_VALUES:
        oracle = coeff_oracle(job.beta1_terms, job.expect, q0)
        for name, want in oracle.items():
            got = tables[name]
            if len(got) != len(want):
                return "%s has %d entries, expected %d" % (name, len(got), len(want))
            for m, (g, w) in enumerate(zip(got, want)):
                value = eval_entry(g, q0)
                if not abs(value - w) <= COEFF_RTOL * abs(w):
                    return "%s_%d at q=%s: %r vs oracle %r" % (name, m, q0, value, w)
    return None


def parse_numeric(stdout):
    """The matrix printed by `--format json --at-q`."""
    obj = json.loads(stdout)
    return np.array([[complex(re, im) for re, im in row] for row in obj["entries"]])


def _check_word(job, stdout, refs):
    if set(refs) != set(Q0_VALUES):
        return "no numeric reference: the --at-q run failed"
    obj = json.loads(stdout)
    if obj["rows"] != job.expect or obj["cols"] != job.expect:
        return "word matrix is %sx%s, expected %d" % (obj["rows"], obj["cols"], job.expect)
    for q0, ref in refs.items():
        exact = np.array([[float(eval_entry(a, q0)) for a in row]
                          for row in obj["entries"]])
        err = float(np.max(np.abs(exact - ref)))
        if not err <= WORD_RTOL * max(1.0, float(np.max(np.abs(ref)))):
            return "word matrix at q=%s differs from the numeric path by %.3e" % (q0, err)
    return None


def check_job(job, returncode, stdout, refs=None):
    """None if the job passed, else the reason it failed."""
    if returncode != 0:
        return "exit code %d" % returncode
    try:
        if job.kind == "verify":
            return _check_verify(job, stdout)
        if job.kind == "coeffs":
            return _check_coeffs(job, stdout)
        return _check_word(job, stdout, refs)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return "unreadable output: %s: %s" % (type(exc).__name__, exc)


def _bump(obj):
    """Add 1 to the first numerator coefficient of a serialized ring element."""
    e, c = obj["num"][0]
    obj["num"][0] = [e, str(Fraction(c) + 1)]


def negative_twins(job, stdout):
    """Tampered copies of a passing job's result: (label, exit code, stdout).

    Every twin must fail the gate: a non-zero exit for every job, a FAIL
    line for verify jobs, and one altered coefficient for JSON outputs.
    """
    twins = [("exit code 1", 1, stdout)]
    if job.kind == "verify":
        lines = stdout.splitlines()
        i = next(k for k, ln in enumerate(lines) if ln.startswith("ok  "))
        lines[i] = "FAIL" + lines[i][4:]
        twins.append(("FAIL line", 0, "\n".join(lines) + "\n"))
    elif job.kind == "coeffs":
        tampered = json.loads(stdout)
        _bump(tampered["beta_prime"][job.expect // 2])
        twins.append(("tampered coeffs JSON", 0, json.dumps(tampered)))
    else:
        tampered = json.loads(stdout)
        row = next(r for r in tampered["entries"] if any(a["num"] for a in r))
        _bump(next(a for a in row if a["num"]))
        twins.append(("tampered word matrix JSON", 0, json.dumps(tampered)))
    return twins
