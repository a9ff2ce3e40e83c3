"""Seeded job lists for the three workloads.

A job is one ``qweyl`` command line plus what its output must show.  The
seed picks only the values inside the command lines (beta1 expressions and
the braid word); every seed gives the same commands, sizes and mix of
integer and half-integer coefficients, so two seeds cost about the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("braid", "identities", "bundle")

# points at which the gate evaluates exact outputs numerically
Q0_VALUES = (0.7, 1.3)


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    kind selects the gate: "verify" (the TOTAL line must read
    expect/expect), "coeffs" (JSON tables against their recursions for
    count = expect) or "word" (JSON matrix against the CLI's numeric path).
    """

    argv: tuple
    kind: str
    expect: int
    beta1_terms: tuple = ()  # beta1 as ((x exponent, integer), ...) for the oracle

    def to_json(self):
        return {"argv": list(self.argv), "kind": self.kind, "expect": self.expect}


def _signed(rng, magnitudes):
    return rng.choice(magnitudes) * rng.choice((1, -1))


def braid_jobs(rng):
    """Two four-braid sweeps to dimension 5: one integer beta1 and one with a
    +-1/2 term, which gives the twist entries non-integer coefficients."""
    b_int = _signed(rng, (2, 3, 4))
    b_half = "%d%s1/2" % (_signed(rng, (2, 3, 4)), rng.choice("+-"))
    # 25 pairs (da, db) with 1 <= da, db <= 5, plus the braid-matrix form
    # on the 5 pairs with da == db
    return [Job(("verify", "four-braid", "--max-dim", "5", "--beta1=%d" % b_int),
                "verify", 30),
            Job(("verify", "four-braid", "--max-dim", "5", "--beta1=" + b_half),
                "verify", 30)]


def identities_jobs(rng):
    """Every suite at dimension 3, then the coefficient tables to index 10
    for a two-term Laurent polynomial in x^4 (denominators in q^(1/2))."""
    b = _signed(rng, (2, 3, 4))
    c1, c2 = _signed(rng, (1, 2, 3)), _signed(rng, (1, 2, 3))
    b_laurent = "%d*x^4%+d*x^-4" % (c1, c2)
    # verify all --max-dim 3 runs 114 checks: four-braid 12, zdelta 18,
    # bform 3, coproduct 10, inverse 12, zbn 8, affine 3, variants 30,
    # closed-form matrices 18
    return [Job(("verify", "all", "--max-dim", "3", "--beta1=%d" % b),
                "verify", 114),
            Job(("coeffs", "--count", "10", "--beta1=" + b_laurent,
                 "--format", "json"), "coeffs", 10, ((4, c1), (-4, c2)))]


def braid_word(rng, strands=4):
    """The word 0 1 .. n-1 0 1 .. n-1 in which one of the two occurrences of
    each generator, chosen by the seed, is inverted.

    A word's cost depends on how dense its partial products grow.  Shuffled
    words of this kind cost 0.4 to 1.1 s with 8 letters and 0.4 to 2.7 s with
    12; with the letter order fixed, all 16 choices cost 0.56 to 0.83 s (job
    time after the import, 2-vCPU host, Python 3.11.7)."""
    inverted = [rng.randrange(2) for _ in range(strands)]
    return " ".join("%d%s" % (g, "'" if r == inverted[g] else "")
                    for r in range(2) for g in range(strands))


def bundle_jobs(rng):
    """ZB_n relation checks on 256-row bundles and one exact 8-letter word
    on the 81-row bundle V_3^(x4)."""
    word = braid_word(rng)
    # each relation report holds 4 checks
    return [Job(("verify", "zbn", "--dim", "4", "--strands", "4"), "verify", 4),
            Job(("verify", "zbn", "--dim", "2", "--strands", "8"), "verify", 4),
            Job(("zbn", "--dim", "3", "--strands", "4", "--word", word,
                 "--format", "json"), "word", 81)]


def make_jobs(workload, seed):
    rng = random.Random("%s:%d" % (workload, seed))
    return {"braid": braid_jobs, "identities": identities_jobs,
            "bundle": bundle_jobs}[workload](rng)


def reference_argv(job, q0):
    """The numeric twin of a word job: the same word through --at-q."""
    return job.argv + ("--at-q", repr(q0))
