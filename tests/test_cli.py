import io
import json

import pytest

from qweyl import cli
from qweyl.qring import ONE, RingElem
from qweyl.repn import QMatrix
from qweyl.reports import Check, Report
from qweyl.twist import TwistConfig, twist_t


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
        parsed = QMatrix.from_json(json.loads(out))
        assert parsed == twist_t(3, TwistConfig(beta1=RingElem.x_power(4)))

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
        parsed = QMatrix.from_json(json.loads(out))
        from fractions import Fraction
        expected = twist_t(2, TwistConfig(beta1=ONE, variant="k_conjugate",
                                          alpha=Fraction(1, 2)))
        assert parsed == expected


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
        payload = json.loads(out)
        assert RingElem.from_json(payload["beta"][0]) == ONE

    def test_zbn_relations(self):
        code, out = run_cli("zbn", "--dim", "2", "--strands", "3",
                            "--beta1", "1")
        assert code == 0
        assert "4/4 checks passed" in out

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

    def test_missing_subcommand(self):
        code, _ = run_cli()
        assert code == 2
