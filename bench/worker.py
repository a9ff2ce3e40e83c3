"""Run one qweyl command line in this fresh process and report its timings.

Usage: python3 bench/worker.py TRACE ARG...

ARG... is the qweyl command line; TRACE is 1 to install the layer tracer
after the import.  The CLI writes to stdout exactly as `qweyl ARG...`
would.  The last line on stderr is REPORT_TAG followed by one JSON object:
perf_counter readings (CLOCK_MONOTONIC on Linux, so the parent can subtract
its own readings) after the import and after the command, the peak RSS,
and the tracer's totals when TRACE is 1.
"""

import os
import sys
import time

REPORT_TAG = "@@bench-report "


def main():
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import qweyl.cli

    t_imported = time.perf_counter()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    t_begin = time.perf_counter()
    code = qweyl.cli.run(argv)
    sys.stdout.flush()
    t_end = time.perf_counter()

    import json
    import resource

    report = {"t_imported": t_imported, "job_s": t_end - t_begin,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        report["trace"] = tracer.totals()
    sys.stderr.write(REPORT_TAG + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
