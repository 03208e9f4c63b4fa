"""One measured round in a fresh process: import fdcluster, run the CLI calls.

Usage: ``python3 child.py JOB.json``. The job names the source directory,
the argument lists for ``fdcluster.cli.main``, whether to trace, and where
to write the result. The result records the set-up time (from the
parent's spawn to the start of the timed region: interpreter start and
``import fdcluster``), the timed region's wall time (first entry call to
the last output written), the CLI exit codes (-1 for a call that raised,
with its traceback), this process's own peak RSS and, when traced, the
per-layer table.
"""

import json
import sys
import time
import traceback

# exit code recorded for a call that raised instead of returning one
CRASHED = -1


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space (VmHWM), in MB.

    Not ru_maxrss: on Linux that also keeps the parent's peak across the
    vfork and exec that start this process, so a round run right after the
    parent had written a sweep input read the parent's 106.4 MB instead of
    its own 98.3 MB.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import fdcluster.cli

    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer().install()

    def call(argv):
        # an exception the CLI does not turn into an exit code fails this
        # call's operations; the round goes on and is still reported
        try:
            return fdcluster.cli.main(argv), None
        except Exception:
            return CRASHED, traceback.format_exc(limit=-3)

    t0 = time.monotonic()
    outcomes = [call(argv) for argv in job["calls"]]
    t1 = time.monotonic()

    result = {
        "setup_s": t0 - job["spawned_at"],
        "run_s": t1 - t0,
        "codes": [code for code, _ in outcomes],
        "errors": [error for _, error in outcomes if error is not None],
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracer.stats
        result["absent"] = sorted(tracer.absent)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
