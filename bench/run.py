"""Layered benchmark for qweyl.

Usage:
    python3 bench/run.py --workload {braid,identities,bundle} --seed N
                         --seconds S --trace {0,1}

A closed loop with one client: the seeded job list of the workload (see
jobs.py) runs job after job, each job a `qweyl` command line in a fresh
Python process (worker.py), so every job pays the interpreter start, the
import and cold caches as a CLI user does.  The job list repeats, job by
job, until the next job would end after S seconds, so the last repetition
may be partial.  A list figure sums, over its jobs, the job's median over
repetitions; setup_s is the median over all jobs.
Every job's output goes through the gate (gate.py); after the loop the
gate's negative twins must all be rejected.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced job lists and reports the per-layer metrics of the traced lists
(tracer.py) plus the tracing overhead.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the full record of the
run (job lists, stdout sha256 of every job, results) is written to
.bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from gate import check_job, negative_twins, parse_numeric
from jobs import Q0_VALUES, WORKLOADS, make_jobs, reference_argv
from worker import REPORT_TAG

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"
JOB_TIMEOUT_S = 150

END_TO_END_UNITS = {"run_s": "s", "job_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The program cannot be started at all; no result is printed."""


def run_job(job_argv, trace):
    """Run one command line in a fresh worker process and time it."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), "1" if trace else "0",
                               *job_argv], cwd=ROOT, capture_output=True,
                              timeout=JOB_TIMEOUT_S)
        returncode, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode, stdout, stderr = -9, exc.stdout or b"", exc.stderr or b""
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = stderr.decode(errors="replace").splitlines()
    report = None
    if lines and lines[-1].startswith(REPORT_TAG):
        report = json.loads(lines[-1][len(REPORT_TAG):])
        lines.pop()
    if report is None and returncode == 0:
        returncode = -1  # the worker ended without its report
    return {
        "returncode": returncode,
        "stdout": stdout.decode(errors="replace"),
        "stderr_tail": "\n".join(lines[-5:]),
        "sha256": hashlib.sha256(stdout).hexdigest(),
        "bytes": len(stdout),
        "wall_s": wall,
        "setup_s": report["t_imported"] - t0 if report else None,
        "job_s": report["job_s"] if report else wall,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "rss_mb": report["maxrss_kb"] / 1024 if report else 0.0,
        "trace": report.get("trace") if report else None,
    }


class Runner:
    def __init__(self, jobs):
        self.jobs = jobs
        self.refs = {}
        self.verdicts = {}
        self.lists = []

    def numeric_references(self):
        """Word matrices through the CLI's numeric path, outside the timed loop."""
        for i, job in enumerate(self.jobs):
            if job.kind != "word":
                continue
            self.refs[i] = {}
            for q0 in Q0_VALUES:
                res = run_job(reference_argv(job, q0), False)
                try:
                    if res["returncode"] == 0:
                        self.refs[i][q0] = parse_numeric(res["stdout"])
                except (ValueError, KeyError, TypeError):
                    pass  # the word job then fails the gate

    def verdict(self, i, res):
        key = (i, res["returncode"], res["sha256"])
        if key not in self.verdicts:
            self.verdicts[key] = check_job(self.jobs[i], res["returncode"],
                                           res["stdout"], self.refs.get(i))
        return self.verdicts[key]

    def run_list(self, trace, deadline=None):
        """Run the job list once.  With a deadline, stop before a job that
        would end after it, judged by the job's median wall time so far: the
        run's last list may then be partial.  Returns whether the list is whole."""
        results = []
        for i, job in enumerate(self.jobs):
            if deadline is not None:
                walls = [lst["jobs"][i]["wall_s"] for lst in self.lists
                         if lst["trace"] == trace and len(lst["jobs"]) > i]
                if time.perf_counter() + _median(walls) > deadline:
                    break
            res = run_job(job.argv, trace)
            res["failure"] = self.verdict(i, res)
            results.append(res)
        if results:
            self.lists.append({"trace": trace, "jobs": results})
        return len(results) == len(self.jobs)

    def twins(self):
        """Run the gate on tampered copies of the first list's passing results."""
        outcome = []
        for i, (job, res) in enumerate(zip(self.jobs, self.lists[0]["jobs"])):
            if res["failure"] is not None:
                continue
            for label, code, stdout in negative_twins(job, res["stdout"]):
                reason = check_job(job, code, stdout, self.refs.get(i))
                outcome.append({"job": i, "twin": label, "rejected": reason is not None,
                                "reason": reason})
        return outcome


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _typical_list(lists, key, combine=sum):
    """A job list's figure from per-job medians over the untraced lists, which
    filters a slow spell of the host per job rather than per list."""
    timed = [lst["jobs"] for lst in lists if not lst["trace"]]
    return combine(_median([jobs[i][key] for jobs in timed if len(jobs) > i])
                   for i in range(len(timed[0])))


def end_to_end(lists):
    setups = [r["setup_s"] for lst in lists if not lst["trace"] for r in lst["jobs"]
              if r["setup_s"] is not None]
    return {
        "run_s": _typical_list(lists, "wall_s"),
        "job_s": _typical_list(lists, "job_s"),
        "setup_s": _median(setups),
        "cpu_s": _typical_list(lists, "cpu_s"),
        "peak_rss_mb": _typical_list(lists, "rss_mb", max),
    }


def _layer_values(jobs):
    """Per-layer metrics of one traced job list: sums over its jobs."""
    count, incl, self_s, self_bare, calls = (Counter(), Counter(), Counter(),
                                            Counter(), Counter())
    cache = defaultdict(lambda: [0, 0])
    ring_s = 0.0
    for r in jobs:
        t = r["trace"] or {}
        count.update(t.get("count", {}))
        incl.update(t.get("incl", {}))
        self_s.update(t.get("self", {}))
        self_bare.update(t.get("self_bare", {}))
        calls.update(t.get("calls", {}))
        ring_s += t.get("ring_s", 0.0)
        for module, (hits, misses) in t.get("cache", {}).items():
            cache[module][0] += hits
            cache[module][1] += misses
    ops = count["ring_ops"]
    return {
        "qring.ops": (ops, "count"),
        "qring.rational_frac": (_ratio(count["ring_rational"], ops), "frac"),
        "qring.poly_mul": (count["poly_mul"], "count"),
        "qring.busy_s": (ring_s, "s"),
        "qring.us_per_op": (_ratio(ring_s * 1e6, ops), "us"),
        "qring.qbinom_calls": (count["qbinom_calls"], "count"),
        "qring.qbinom_reuse_frac": (
            1 - _ratio(count["qbinom_distinct"], count["qbinom_calls"])
            if count["qbinom_calls"] else 0.0, "frac"),
        "repn.matmul_calls": (calls["repn.matmul"], "count"),
        "repn.matmul_self_s": (self_bare["repn.matmul"], "s"),
        "repn.matmul_useful_frac": (_ratio(count["mm_useful"], count["mm_dense"]), "frac"),
        "repn.nnz_frac": (_ratio(count["mm_nnz"], count["mm_entries"]), "frac"),
        "repn.kron_s": (incl["repn.kron"], "s"),
        "repn.inverse_s": (incl["repn.inverse"], "s"),
        "rmat.build_s": (incl["rmat.build"], "s"),
        "rmat.cartan_s": (incl["rmat.cartan"], "s"),
        "rmat.cache_hit_frac": (_ratio(cache["rmat"][0], sum(cache["rmat"])), "frac"),
        "twist.coeffs_s": (incl["twist.coeffs"], "s"),
        "twist.build_s": (incl["twist.build"], "s"),
        "twist.verify_s": (self_s["twist.verify"], "s"),
        "twist.cache_hit_frac": (_ratio(cache["twist"][0], sum(cache["twist"])), "frac"),
        "braidrep.bundle_s": (incl["braidrep.bundle"], "s"),
        "braidrep.relations_s": (incl["braidrep.relations"], "s"),
        "braidrep.word_s": (incl["braidrep.word"], "s"),
        "reports.compare_s": (incl["reports.compare"], "s"),
        "reports.entries_compared": (count["entries_compared"], "count"),
        "cli.parse_s": (incl["cli.parse"], "s"),
        "cli.emit_s": (incl["cli.emit"], "s"),
        "cli.output_bytes": (sum(r["bytes"] for r in jobs), "bytes"),
    }


def per_layer(lists):
    traced = [_layer_values(lst["jobs"]) for lst in lists if lst["trace"]]
    metrics = {name: (_median([values[name][0] for values in traced]), unit)
               for name, (_, unit) in traced[0].items()}
    run_s = {flag: _median([sum(r["wall_s"] for r in lst["jobs"])
                            for lst in lists if lst["trace"] == flag])
             for flag in (False, True)}
    metrics["trace.overhead_frac"] = (_ratio(run_s[True], run_s[False]) - 1, "frac")
    return metrics


def measure(workload, seed, seconds, trace):
    jobs = make_jobs(workload, seed)
    runner = Runner(jobs)
    if not (ROOT / "src" / "qweyl" / "cli.py").is_file():
        raise SetupError("no qweyl sources under %s" % (ROOT / "src"))
    warm = run_job(("irrep", "--dim", "2"), False)
    if warm["returncode"] != 0:
        raise SetupError("qweyl cannot be started: %s"
                         % (warm["stderr_tail"] or "no output"))
    runner.numeric_references()

    start = time.perf_counter()
    if trace:
        # traced figures are sums over whole lists, so only whole pairs run
        rounds = 0
        while True:
            runner.run_list(False)
            runner.run_list(True)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds:
                break
    else:
        runner.run_list(False)
        while runner.run_list(False, start + seconds):
            pass

    twins = runner.twins()
    attempted = sum(len(lst["jobs"]) for lst in runner.lists)
    failed = sum(r["failure"] is not None for lst in runner.lists for r in lst["jobs"])
    if trace:
        metrics = per_layer(runner.lists)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(runner.lists).items()}
    result = {"correct": failed == 0 and all(t["rejected"] for t in twins),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "jobs": [job.to_json() for job in jobs],
        "lists": [{"trace": lst["trace"],
                   "jobs": [{k: v for k, v in r.items() if k not in ("stdout", "trace")}
                            for r in lst["jobs"]]} for lst in runner.lists],
        "last_trace_edges": [r["trace"]["edges"] for r in runner.lists[-1]["jobs"]
                             if r["trace"]],
        "negative_twins": twins,
        **result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("%s-seed%d-trace%d.json" % (workload, seed, int(trace)))
    path.write_text(json.dumps(record, indent=1))

    print("workload %s  seed %d  %d job lists (%d jobs, %d failed)  record %s"
          % (workload, seed, len(runner.lists), attempted, failed,
             path.relative_to(ROOT)))
    for i, job in enumerate(jobs):
        print("  job %d: qweyl %s" % (i, " ".join(job.argv)))
    for lst in runner.lists:
        for i, r in enumerate(lst["jobs"]):
            if r["failure"]:
                print("  FAILED job %d%s: %s" % (i, " (traced)" if lst["trace"] else "",
                                                r["failure"]))
    for t in twins:
        if not t["rejected"]:
            print("  GATE ACCEPTED A NEGATIVE TWIN: job %d, %s" % (t["job"], t["twin"]))
    if not trace:
        metrics["failed_frac"] = (_ratio(failed, attempted), "1")
    for name, (value, unit) in metrics.items():
        print("  %-26s %14.6g %s" % (name, value, unit))
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
