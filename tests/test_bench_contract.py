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


def test_traced_worker_reports_ring_counts():
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "1", "verify",
         "four-braid", "--max-dim", "2", "--beta1", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = done.stderr.rstrip("\n").splitlines()[-1]
    assert last.startswith(REPORT_TAG)
    report = json.loads(last[len(REPORT_TAG):])
    assert report["trace"]["count"]["poly_mul"] > 0
