"""The benchmark's layer tracer wraps qweyl names by string; these tests
fail when a rename or a deletion in the package breaks `--trace 1`."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
BENCH = os.path.join(ROOT, "bench")
REPORT_TAG = "@@bench-report "


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "qweyl_bench_tracer", os.path.join(BENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    for group, (module, names) in tracer.FUNCTION_GROUPS.items():
        for name in names:
            assert callable(getattr(module, name, None)), (group, name)
    for group, methods in tracer.METHOD_GROUPS.items():
        for cls, name in methods:
            assert name in cls.__dict__, (group, cls.__name__, name)


def _traced_counts(*argv):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "1", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = done.stderr.rstrip("\n").splitlines()[-1]
    assert last.startswith(REPORT_TAG)
    return json.loads(last[len(REPORT_TAG):])["trace"]["count"]


def test_traced_worker_reports_ring_counts():
    counts = _traced_counts("verify", "four-braid", "--max-dim", "2", "--beta1", "1")
    assert counts["poly_mul"] > 0


def test_traced_worker_counts_memoized_q_binomial():
    # the tracer rebinds q_binomial by identity; a memo wrapped around it
    # under another name would leave the counter at zero
    counts = _traced_counts("verify", "bform", "--max-sum", "3")
    assert counts.get("qbinom_calls", 0) > 0


def test_traced_worker_counts_a_word_with_inverse_letters():
    # the bundle job's word path: generators and factor inverses built from
    # the bundle's two factors
    counts = _traced_counts("zbn", "--dim", "2", "--strands", "3", "--beta1", "7/2",
                            "--word", "0 1' 2 0' 1", "--format", "json")
    assert counts["poly_mul"] > 0
