import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from json_decode import matrix_from_json

from qweyl import braidrep, cli
from qweyl.braidrep import MAX_EXACT_DIM, RepBundle
from qweyl.qring import ONE, RingElem
from qweyl.repn import QMatrix
from qweyl.reports import Check, Report
from qweyl.twist import TwistConfig, beta_coeffs, twist_t


def run_cli(*argv):
    buf = io.StringIO()
    code = cli.run(list(argv), out=buf)
    return code, buf.getvalue()


class TestTwistCommand:
    def test_latex_two_dim(self):
        code, out = run_cli("twist", "--dim", "2", "--beta1", "0",
                            "--format", "latex")
        assert code == 0
        assert "0 & -q^{-3/4}" in out
        assert "q^{-1/4} & 0" in out

    def test_json_round_trip(self):
        code, out = run_cli("twist", "--dim", "3", "--beta1", "x^4",
                            "--format", "json")
        assert code == 0
        expected = twist_t(3, TwistConfig(beta1=RingElem.x_power(4)))
        assert json.loads(out) == expected.to_json()

    def test_plain_deterministic(self):
        first = run_cli("twist", "--dim", "3", "--beta1", "1")
        second = run_cli("twist", "--dim", "3", "--beta1", "1")
        assert first == second

    def test_numeric_output(self):
        code, out = run_cli("twist", "--dim", "2", "--beta1", "0",
                            "--at-q", "0.7")
        assert code == 0
        corner = 0.7 ** -0.25
        assert ("%.12g" % corner)[:8] in out

    def test_symmetric_basis_requires_at_q(self):
        code, _ = run_cli("twist", "--dim", "3", "--beta1", "1",
                          "--basis", "symmetric")
        assert code == 2

    def test_symmetric_basis_numeric(self):
        code, out = run_cli("twist", "--dim", "2", "--beta1", "0",
                            "--basis", "symmetric", "--at-q", "0.49")
        assert code == 0
        assert abs(float(out.splitlines()[1].strip("[]").split(",")[0])
                   - 0.49 ** -0.25) < 1e-9

    def test_variant_flag(self):
        code, out = run_cli("twist", "--dim", "2", "--beta1", "1",
                            "--variant", "k_conjugate", "--alpha", "1/2",
                            "--format", "json")
        assert code == 0
        from fractions import Fraction
        expected = twist_t(2, TwistConfig(beta1=ONE, variant="k_conjugate",
                                          alpha=Fraction(1, 2)))
        assert json.loads(out) == expected.to_json()


class TestOtherCommands:
    def test_irrep(self):
        code, out = run_cli("irrep", "--dim", "2")
        assert code == 0
        assert "H =" in out and "K^-1 =" in out

    def test_rmatrix(self):
        code, out = run_cli("rmatrix", "--dims", "2,2")
        assert code == 0
        assert "x^2" in out

    def test_rmatrix_numeric(self):
        code, out = run_cli("rmatrix", "--dims", "2,2", "--at-q", "0.7",
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == 4

    def test_coeffs(self):
        code, out = run_cli("coeffs", "--count", "3", "--beta1", "0")
        assert code == 0
        assert "beta_0  = 1" in out
        assert "beta_3  = 0" in out

    def test_coeffs_json(self):
        code, out = run_cli("coeffs", "--count", "2", "--beta1", "1",
                            "--format", "json")
        assert code == 0
        table = beta_coeffs(2, ONE)
        assert json.loads(out) == {
            "beta": [v.to_json() for v in table.betas],
            "beta_prime": [v.to_json() for v in table.beta_primes],
            "alpha": [v.to_json() for v in table.alphas]}

    def test_zbn_relations(self):
        code, out = run_cli("verify", "zbn", "--dim", "2", "--strands", "3",
                            "--beta1", "1")
        assert code == 0
        assert "4/4 checks passed" in out

    def test_zbn_needs_a_word(self, capsys):
        # the relation suite is `verify zbn`; `zbn` only evaluates words
        code, out = run_cli("zbn", "--dim", "2", "--strands", "3", "--at-q", "0.7",
                            "--format", "json")
        assert code == 2 and out == ""
        assert "--word" in capsys.readouterr().err

    def test_zbn_word(self):
        code_a, out_a = run_cli("zbn", "--dim", "2", "--strands", "2",
                                "--beta1", "1", "--word", "0 1 0 1")
        code_b, out_b = run_cli("zbn", "--dim", "2", "--strands", "2",
                                "--beta1", "1", "--word", "1 0 1 0")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_zbn_word_numeric(self):
        code, out = run_cli("zbn", "--dim", "2", "--strands", "2",
                            "--beta1", "1", "--word", "1 1'", "--at-q", "0.7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("[1,")


class TestWordOracle:
    """The exact word against the `--at-q` path, which inverts the full
    numeric generators with numpy, on the benchmark's word shape."""

    ARGV = ("zbn", "--dim", "3", "--strands", "4", "--word", "0 1 2' 3 0' 1' 2 3'")

    def worst_error(self, beta1):
        """Largest entry difference relative to the numeric matrix, as in
        the benchmark's word gate, over q0 = 0.7 and 1.3."""
        code, out = run_cli(*self.ARGV, "--beta1", beta1, "--format", "json")
        assert code == 0
        exact = matrix_from_json(json.loads(out))
        worst = 0.0
        for q0 in (0.7, 1.3):
            code, out = run_cli(*self.ARGV, "--beta1", beta1, "--at-q", repr(q0),
                                "--format", "json")
            assert code == 0
            ref = np.array([[complex(re, im) for re, im in row]
                            for row in json.loads(out)["entries"]])
            err = np.max(np.abs(exact.evaluate(q0) - ref))
            worst = max(worst, err / max(1.0, np.max(np.abs(ref))))
        return worst

    @pytest.mark.parametrize("beta1", ["0", "7/2"])
    def test_exact_word_matches_numeric_path(self, beta1):
        assert self.worst_error(beta1) <= 1e-8

    def test_tampered_factor_inverse_fails(self, monkeypatch):
        # negative twin: one entry of the exact braid-matrix inverse moved by 1
        inverse = RepBundle.inverse.func

        def tampered(bundle):
            good = inverse(bundle)
            rows = [list(r) for r in good.braid.entries]
            rows[1][1] = rows[1][1] + ONE
            return RepBundle(good.d, good.n, good.twist, QMatrix(rows))

        monkeypatch.setattr(RepBundle, "inverse", property(tampered))
        assert self.worst_error("7/2") > 1e-8


class TestVerifyCommand:
    def test_all_passes(self):
        code, out = run_cli("verify", "all", "--max-dim", "2", "--beta1", "1")
        assert code == 0
        assert "FAILURES" not in out
        assert "TOTAL:" in out

    def test_single_suites(self):
        for suite in ("four-braid", "zdelta", "bform", "coproduct",
                      "inverse", "zbn", "affine", "paper-matrices"):
            code, out = run_cli("verify", suite, "--max-dim", "2")
            assert code == 0, (suite, out)

    def test_failure_exit_code(self, monkeypatch):
        failing = Report(title="stub", checks=(
            Check(name="stub check", ok=False, detail="entry (1,1)"),))
        monkeypatch.setattr(cli, "verify_inverse", lambda *a: failing)
        code, out = run_cli("verify", "inverse")
        assert code == 1
        assert "FAIL stub check" in out
        assert "FAILURES PRESENT" in out

    def test_verify_variant(self):
        code, _ = run_cli("verify", "four-braid", "--max-dim", "2",
                          "--variant", "w_inverse")
        assert code == 0

    def test_verify_output_deterministic(self):
        first = run_cli("verify", "zdelta", "--max-dim", "2", "--beta1", "1")
        second = run_cli("verify", "zdelta", "--max-dim", "2", "--beta1", "1")
        assert first == second


class TestUsageErrors:
    def test_unknown_flag(self):
        code, _ = run_cli("twist", "--dim", "99", "--strands", "-1")
        assert code == 2

    def test_bad_expression(self, capsys):
        code, _ = run_cli("twist", "--dim", "2", "--beta1", "y(")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_expression(self, capsys):
        deep = "(" * 3000 + "1" + ")" * 3000
        code, _ = run_cli("twist", "--dim", "2", "--beta1", deep)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_dims(self):
        code, _ = run_cli("rmatrix", "--dims", "nope")
        assert code == 2

    def test_bad_alpha(self):
        code, _ = run_cli("twist", "--dim", "2", "--beta1", "1",
                          "--variant", "k_conjugate", "--alpha", "1/3")
        assert code == 2

    def test_alpha_in_exponent_notation(self, capsys):
        # 1E2 = 100 is a half-integer, refused for its notation alone
        code, out = run_cli("twist", "--dim", "2", "--variant", "k_conjugate",
                            "--alpha", "1E2")
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: --alpha 1E2:") and "exponent" in err

    @pytest.mark.parametrize("alpha", ["1/2", "-1/2", "3/2", "1"])
    def test_half_integer_alpha_accepted(self, alpha):
        code, out = run_cli("twist", "--dim", "3", "--beta1", "1",
                            "--variant", "k_conjugate", "--alpha=" + alpha)
        config = TwistConfig(beta1=ONE, variant="k_conjugate", alpha=Fraction(alpha))
        assert code == 0 and out == str(twist_t(3, config)) + "\n"

    def test_missing_subcommand(self):
        code, _ = run_cli()
        assert code == 2

    AT_Q = [("twist", "--dim", "4", "--beta1", "2"),
            ("twist", "--dim", "4", "--beta1", "2", "--basis", "symmetric"),
            ("rmatrix", "--dims", "3,3"),
            ("zbn", "--dim", "2", "--strands", "2", "--word", "0")]
    BAD_AT_Q = [argv + q for argv in AT_Q
                for q in (("--at-q", "inf"), ("--at-q=-inf",),
                          # LaTeX is exact output only
                          ("--format", "latex", "--at-q", "0.7"))]
    BAD_AT_Q += [
        ("twist", "--dim", "4", "--beta1", "2", "--at-q", "nan"),
        # finite, but q^(1/8) to the powers in the twist overflows a double
        ("twist", "--dim", "4", "--beta1", "2", "--basis", "symmetric",
         "--at-q", "1e300"),
        # finite q, but entries of the evaluated matrix are NaN
        ("twist", "--dim", "4", "--beta1", "2", "--at-q", "1e300"),
        ("rmatrix", "--dims", "3,3", "--at-q", "1e300"),
        # H evaluates, X overflows: nothing of H may reach stdout
        ("irrep", "--dim", "200", "--at-q", "1e300")]
    # the mirror-symmetric basis takes real square roots, so needs q > 0
    BAD_AT_Q += [("twist", "--dim", d, "--basis", "symmetric", "--at-q", q)
                 for d, q in (("3", "-0.9"), ("5", "-2"), ("3", "-2"), ("3", "-0.5"))]

    @pytest.mark.parametrize("argv", BAD_AT_Q, ids=" ".join)
    def test_bad_at_q(self, argv, capsys):
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("twist", "--dim", "2", "--beta1", "1/(q-2)", "--at-q", "2"),
        ("twist", "--dim", "2", "--beta1", "1/(1+q)", "--at-q", "-1")], ids=" ".join)
    def test_pole_refused(self, argv, capsys):
        # the denominator vanishes at q0 up to rounding only
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: denominator vanishes at q = ")

    @pytest.mark.parametrize("word", ["0,1,-1", "0''"])
    def test_bad_braid_word(self, word, capsys):
        code, out = run_cli("zbn", "--dim", "3", "--strands", "2", "--word", word)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        # names the bad token and states the syntax
        assert repr(word) in err
        assert "whitespace-separated generator indices" in err
        assert "trailing '" in err


class TestSeparateSignedValues:
    """A value that starts with '-' may follow --beta1, --alpha or --at-q as
    an argument of its own, as it may follow '='."""

    CASES = [("twist", "--dim", "2", "--beta1", "-x^4"),
             ("twist", "--dim", "3", "--beta1", "-1/2", "--format", "json"),
             ("twist", "--dim", "4", "--variant", "k_conjugate", "--alpha", "-3/2"),
             ("verify", "four-braid", "--max-dim", "2", "--beta1", "-x^4+1"),
             ("coeffs", "--count", "4", "--beta1", "-q"),
             ("zbn", "--dim", "2", "--strands", "2", "--word", "0 1'", "--beta1", "-2"),
             # argparse takes `-2.5` for a value, but not exponent notation
             ("twist", "--dim", "2", "--at-q", "-1e-100"),
             ("zbn", "--dim", "2", "--strands", "2", "--word", "0 1'", "--at-q", "-2.5e-1")]

    @pytest.mark.parametrize("argv", CASES, ids=" ".join)
    def test_same_bytes_as_the_equals_form(self, argv):
        at = next(i for i, arg in enumerate(argv)
                  if arg in ("--beta1", "--alpha", "--at-q") and argv[i + 1].startswith("-"))
        joined = argv[:at] + ("%s=%s" % argv[at:at + 2],) + argv[at + 2:]
        code, out = run_cli(*argv)
        assert code == 0 and out
        assert (code, out) == run_cli(*joined)

    def test_an_option_after_the_flag_is_still_a_missing_value(self, capsys):
        code, out = run_cli("twist", "--dim", "2", "--beta1", "--format", "json")
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert "--beta1: expected one argument" in err and "Traceback" not in err


class TestSizeLimits:
    REFUSED = [
        ("twist", "--dim", "5000"),
        ("irrep", "--dim", "300"),
        ("rmatrix", "--dims", "17,17"),
        ("verify", "four-braid", "--max-dim", "40"),
        ("verify", "bform", "--max-sum", "40"),
        ("coeffs", "--count", "100"),
        # sizes that leave a suite or a table with nothing in it
        ("verify", "four-braid", "--max-dim", "0"),
        ("verify", "all", "--max-dim", "-2"),
        ("verify", "bform", "--max-sum", "-1"),
        ("coeffs", "--count", "-1"),
        ("coeffs", "--count", "2", "--beta1", "(1+x)^100000"),
        ("twist", "--dim", "2", "--beta1", "((1+x)^99)^99"),
        ("twist", "--dim", "2", "--beta1", "2^100000000"),
        ("zbn", "--dim", "3", "--strands", "1000000000", "--word", "0"),
        ("zbn", "--dim", "1", "--strands", "1000", "--word", "0"),
        ("zbn", "--dim", "5000", "--strands", "1", "--word", "0", "--at-q", "0.7"),
        # a one-strand bundle of 17 rows, above the dimension limit, whose
        # braid matrix has 289
        ("zbn", "--dim", "17", "--strands", "1", "--word", "0"),
        # the twist on V_d needs the coefficient index d - 1
        ("twist", "--dim", "18"),
        # no twist on fewer than one dimension, for the standard variant too
        ("twist", "--dim", "0"),
        ("twist", "--dim", "-2", "--format", "json"),
        ("twist", "--dim", "256", "--at-q", "0.7"),
        # numeric bundles: 2048 rows, a strand count tested before d ** n,
        # and no strands at all
        ("zbn", "--dim", "2", "--strands", "11", "--word", "0", "--at-q", "0.7"),
        ("zbn", "--dim", "2", "--strands", "1000000000", "--word", "0",
         "--at-q", "0.7"),
        ("zbn", "--dim", "2", "--strands", "0", "--word", "", "--at-q", "0.7"),
        # exponent notation, refused before Fraction() expands the power of ten
        ("twist", "--dim", "2", "--variant", "k_conjugate", "--alpha", "1e10000000"),
        ("verify", "four-braid", "--variant", "k_conjugate", "--alpha", "1e10000000"),
        # within the row ceiling, but above the recorded time bound
        ("verify", "all", "--max-dim", str(cli.MAX_VERIFY_DIM + 1)),
        ("verify", "zbn", "--dim", "8"),
        ("verify", "zbn", "--dim", "16", "--strands", "2"),
        ("zbn", "--dim", "16", "--strands", "2", "--word", "0 1 0' 1'"),
        # above the bound on letters times rows: 100 letters on 81 rows (67.6 s
        # and 517 MB unbounded), 51 on 81 rows and 17 on 256 rows
        ("zbn", "--dim", "3", "--strands", "4", "--word", " ".join(["0 1' 2 3'"] * 25)),
        ("zbn", "--dim", "3", "--strands", "4", "--word", "0 " * 51),
        ("zbn", "--dim", "2", "--strands", "8", "--word", "7' " * 17),
    ]

    @pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
    def test_refused_quickly(self, argv, capsys):
        start = time.perf_counter()
        code, out = run_cli(*argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert elapsed < 1.0

    def test_ceiling_override(self, monkeypatch, capsys):
        monkeypatch.setattr(braidrep, "MAX_EXACT_DIM", 8)
        assert run_cli("rmatrix", "--dims", "3,3")[0] == 2
        assert "9 rows, above the ceiling 8" in capsys.readouterr().err
        assert run_cli("twist", "--dim", "9")[0] == 2
        assert run_cli("verify", "four-braid", "--max-dim", "3")[0] == 2
        assert run_cli("rmatrix", "--dims", "2,4")[0] == 0
        assert run_cli("twist", "--dim", "8")[0] == 0

    def test_smallest_ceiling_accepted(self, monkeypatch):
        monkeypatch.setattr(braidrep, "MAX_EXACT_DIM", 1)
        assert run_cli("twist", "--dim", "1")[0] == 0
        assert run_cli("twist", "--dim", "2")[0] == 2

    def test_limits_admit_the_sizes_in_use(self):
        # the largest sizes the benchmark and the tests ask for
        assert cli.MAX_COEFF_INDEX >= 13
        assert MAX_EXACT_DIM >= 5 * 5
        assert run_cli("coeffs", "--count", "2", "--beta1", "(1+x)^64")[0] == 0

    def test_word_work_limit(self, monkeypatch, capsys):
        # the benchmark's 8-letter word on 81 rows and the 16-letter word on 256
        # rows that CI times are admitted; one letter more on 256 rows is not,
        # and it is refused before the bundle's factors are built
        assert 8 * 3 ** 4 <= 16 * 2 ** 8 <= braidrep.MAX_WORD_WORK < 17 * 2 ** 8
        code, out = run_cli("zbn", "--dim", "3", "--strands", "4", "--word",
                            "0 1' 2 3' 0' 1 2' 3", "--format", "json")
        assert code == 0 and json.loads(out)["rows"] == 81
        assert braidrep.zbn_generators(2, 8, 0, 16).n == 8
        monkeypatch.setattr(braidrep, "_factors", None)
        assert run_cli("zbn", "--dim", "2", "--strands", "8", "--word", "0 " * 17)[0] == 2
        assert "a word of 17 letters on V2^(x8) exceeds the limit %d on letters times rows" \
            % braidrep.MAX_WORD_WORK in capsys.readouterr().err

    def test_verify_dim_limit(self, capsys):
        # the benchmark sweeps four-braid to --max-dim 5
        assert cli.MAX_VERIFY_DIM >= 5
        too_big = cli.MAX_VERIFY_DIM + 1
        assert run_cli("verify", "inverse", "--max-dim", str(too_big))[0] == 2
        assert "--max-dim %d exceeds the limit %d" % (too_big, cli.MAX_VERIFY_DIM) \
            in capsys.readouterr().err

    def test_twist_at_the_coefficient_limit(self, capsys):
        code, out = run_cli("twist", "--dim", "17")
        assert code == 0 and out.count("\n") == 17
        assert run_cli("twist", "--dim", "18")[0] == 2
        err = capsys.readouterr().err
        assert "--dim 18" in err and "limit 16" in err

    def test_smallest_sizes_accepted(self):
        code, out = run_cli("verify", "four-braid", "--max-dim", "1")
        assert code == 0 and out.endswith("TOTAL: 2/2 checks passed\n")
        code, out = run_cli("verify", "bform", "--max-sum", "0")
        assert code == 0 and "a+b <= 0" in out
        code, out = run_cli("coeffs", "--count", "0")
        assert code == 0 and out == "beta_0  = 1\nbeta'_0 = 1\nalpha_0 = 1\n"


def test_readme_command_lines_run():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        block = f.read().split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) == 9
    for argv in lines:
        assert argv[0] == "qweyl"
        assert run_cli(*argv[1:])[0] == 0, argv


def _run_python(code):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_numeric_word_overflow_reports_only_the_error():
    # numpy warns of the overflow inside the product; the finite check of
    # the printed matrix reports it, as the only line on stderr
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONWARNINGS="default")
    done = subprocess.run([sys.executable, "-m", "qweyl.cli", "zbn", "--dim", "3",
                           "--strands", "2", "--word", "0 1'", "--at-q", "1e-100"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: numeric overflow at --at-q: entry (1,1) is inf+nani\n"


def test_cli_start_imports_no_dataclasses_or_inspect():
    result = _run_python(
        "import sys\n"
        "import qweyl.cli\n"
        "seen = ['dataclasses' in sys.modules, 'inspect' in sys.modules]\n"
        "import json\n"
        "print(json.dumps(seen))\n")
    assert result == [False, False]


class TestNumpyImport:
    """numpy is the numeric bridge only: exact commands never import it."""

    EXACT = [
        ["verify", "all", "--max-dim", "2"],
        ["verify", "four-braid", "--max-dim", "2", "--beta1=7/2"],
        ["verify", "zbn", "--dim", "2", "--strands", "3"],
        ["coeffs", "--count", "6", "--format", "json"],
        ["zbn", "--dim", "2", "--strands", "3", "--word", "0 1 0' 2",
         "--format", "json"],
    ]

    def test_exact_commands_do_not_import_numpy(self):
        result = _run_python(
            "import io, json, sys\n"
            "import qweyl, qweyl.cli\n"
            "seen = ['numpy' in sys.modules]\n"
            "for argv in %r:\n"
            "    assert qweyl.cli.run(argv, out=io.StringIO()) == 0, argv\n"
            "    seen.append('numpy' in sys.modules)\n"
            "print(json.dumps(seen))\n" % (self.EXACT,))
        assert result == [False] * (1 + len(self.EXACT))

    def test_at_q_command_loads_numpy(self):
        argv = ["zbn", "--dim", "2", "--strands", "3", "--beta1", "1",
                "--word", "0 1 0' 2", "--at-q", "0.7"]
        result = _run_python(
            "import hashlib, io, json, sys\n"
            "import qweyl.cli\n"
            "before = 'numpy' in sys.modules\n"
            "buf = io.StringIO()\n"
            "assert qweyl.cli.run(%r, out=buf) == 0\n"
            "print(json.dumps([before, 'numpy' in sys.modules,\n"
            "                  hashlib.sha256(buf.getvalue().encode()).hexdigest()]))\n"
            % (argv,))
        # the digest is the golden one for this command line
        assert result == [False, True, "f9d650a5ee0e62b99c8699cb60364597"
                                       "fb6dc8db6ae51c07ffe07e77c2c7eeb4"]
