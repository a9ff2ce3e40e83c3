"""Byte-level regression guard: sha256 digests of CLI output.

The digests pin exact output (JSON, LaTeX, the verify table and numeric
text) so that a refactor of the matrix builders cannot change a single
byte.  Regenerate a digest only for an intended change of output.
"""

import hashlib
import io

import pytest

from qweyl import cli

GOLDEN = [
    (("verify", "all", "--max-dim", "2", "--beta1", "1"),
     "a68fdcd54db887d630bbf40542cac5301f35fa570c5417353cc9ce95cf54caaa"),
    (("twist", "--dim", "4", "--beta1", "x^4+1", "--format", "json"),
     "dbb0b65052b31259bfa225b0338da2e7c168fd7567a2928ebe194f88476d6720"),
    (("twist", "--dim", "4", "--beta1", "x^4+1", "--format", "latex"),
     "124e5d26a95b9da034f1fed66c2aca0fa4ad3ad40688b305d57dd7b6bc91a922"),
    (("twist", "--dim", "3", "--variant", "u_conjugate", "--format", "json"),
     "bbf8c7665268f116f78d50525ae064625a7f048317ff8c3517847b6dddcdf0ca"),
    (("coeffs", "--count", "6", "--beta1", "1", "--format", "json"),
     "06a958d61bd17ad616c99edd1dc9f5ec2772298b070f0d4740a27b7e24fd7600"),
    (("rmatrix", "--dims", "3,2", "--format", "json"),
     "56ab9f8451287aabcac4aba3d327900257aee4d9bd82a17ab7f26726c60ab9ac"),
    # R summed over the nonzero entries of E^n (x) F^n, both leg orders
    (("rmatrix", "--dims", "5,4", "--format", "json"),
     "00820c4580267b44b79cb4ac1d866cda1818594380c4ee4d274de9d188690aa8"),
    (("rmatrix", "--dims", "4,5", "--format", "latex"),
     "4702e0737f85b33a1ae489ba0037ad59d6a60f5996faa64453f9295b998bd779"),
    (("zbn", "--dim", "2", "--strands", "3", "--beta1", "1",
      "--word", "0 1 0' 2", "--format", "json"),
     "a52652482e446f8c18ea1afc19a14790e2b4d89d87f275d2e3a61f6b4089ad52"),
    (("zbn", "--dim", "2", "--strands", "3", "--beta1", "1",
      "--word", "0 1 0' 2", "--at-q", "0.7"),
     "f9d650a5ee0e62b99c8699cb60364597fb6dc8db6ae51c07ffe07e77c2c7eeb4"),
    # non-integer coefficients: denominators shared across a polynomial
    (("twist", "--dim", "4", "--beta1", "7/2", "--format", "json"),
     "1c4a664637a9016bc401e655ded7805e43a81bd548a1d36706e370f8c36179ea"),
    (("twist", "--dim", "4", "--beta1", "7/2", "--format", "latex"),
     "3462b5837bac2e11fd93e1433a6d79bdc8b7815dcebde857cec56e5b7d201cf3"),
    (("coeffs", "--count", "8", "--beta1", "x^4/2-3/2", "--format", "json"),
     "e368155a200779cc5f7a8f9bdc0d6f9f5d47d4e713dd9dddda9bd23ac7f64fa3"),
    # the tables to the index limit through the division-free recursions:
    # a Laurent beta1 in JSON, a rational-function one in plain text
    (("coeffs", "--count", "16", "--beta1", "2*x^4-3*x^-4", "--format", "json"),
     "d68d69cf76a16b881527369578536ba32f0404494313b375b2b276e861225d09"),
    (("coeffs", "--count", "12", "--beta1", "1/(q-2)"),
     "a4998704cf895423fceb376c6423cefd68263ccd26ff0d3bc81d747b8403429e"),
    (("zbn", "--dim", "2", "--strands", "3", "--beta1", "1/3",
      "--word", "0 1 0' 2", "--at-q", "0.7"),
     "84492747ba0f8658e15e39ecafa3ad8b4ac1b92a61c10851fe755a0199e1573c"),
    # matrix products: 81 rows of non-integer coefficients through inverse
    # letters, and rational-function entries summed in one product entry
    (("zbn", "--dim", "3", "--strands", "4", "--beta1", "7/2",
      "--word", "0 1' 2 3' 0' 1 2' 3", "--format", "json"),
     "5eceed216b79ca6b28396174bfcec6c50c46396996459ee1b8e673257d5bdbdf"),
    (("zbn", "--dim", "2", "--strands", "3", "--beta1", "x^4/(1+x^8)",
      "--word", "0 1 0' 2", "--format", "json"),
     "4ecdc8132462763a8d1b7f48b58fb5de7cf7c00d58dcd8b08d11587ff6a9b3ff"),
    # the symmetric-basis bridge: floating-point operation order pinned
    (("twist", "--dim", "4", "--beta1", "7/2", "--basis", "symmetric",
      "--at-q", "0.7"),
     "c13393d9dbfabd6bbbf87079d795420bafea9eeda2b3c8d190e08f1a7684ddf4"),
    (("twist", "--dim", "4", "--beta1", "7/2", "--basis", "symmetric",
      "--at-q", "0.7", "--format", "json"),
     "92134d352851da06660ebb88d675e329049c2223b084f3447d7091b265f4a36b"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_output_digest(argv, digest):
    buf = io.StringIO()
    assert cli.run(list(argv), out=buf) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
