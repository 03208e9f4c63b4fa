"""Benchmark of `fdcluster fit` and `fdcluster simulate`.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,ingest,study} --seed N \
        --seconds S --trace {0,1}

Inputs are generated from the seed (once per seed; kept under
perfbench/work/). Every measured round runs in a fresh child process,
one at a time, with the BLAS thread count set explicitly; rounds repeat
while the next one is expected to end within S seconds (at least one).
Every round's outputs are checked against computations made apart from
the program (see checks.py). The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics (medians over the rounds) with --trace 0, the
per-layer metrics with --trace 1. The line before it records the run's
conditions: BLAS threads, load average, steal ticks, each round's run_s
and any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import inputs      # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

# One BLAS thread per child: on a shared two-core machine a second thread
# mostly measures the neighbours' load, and results do not depend on it.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a failed check)."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    # numpy asks for transparent huge pages on large arrays; whether the
    # kernel grants them depends on the machine's memory state at the time,
    # and a huge page counts 2 MB towards peak RSS however little of it is used
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONPATH"] = str(HERE)
    return env


def steal_ticks():
    """System-wide stolen CPU ticks from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


# ---------------------------------------------------------------------------
# inputs and references

def prepare_volume(spec, work: Path, seed: int) -> dict:
    """Write the seed's volume once, and the checks' stage-1 reference."""
    done = work / "ready"
    if not done.exists():
        work.mkdir(parents=True, exist_ok=True)
        truth = inputs.write_volume(spec, seed, work / "volume.civt")
        ref = checks.fit_reference(spec, work / "volume.civt", truth)
        np.savez(work / "ref.npz", **ref)
        done.touch()
    with np.load(work / "ref.npz") as data:
        return {key: data[key] for key in data.files}


def fit_calls(spec, work: Path, seed: int, out: Path) -> list:
    return [["fit", "--input", str(work / "volume.civt"), "--format", "civt",
             "--d", str(spec.d), "--k-set", f"{spec.k_lo}..{spec.k_hi}",
             "--alpha", spec.alpha, "--restarts", str(spec.restarts),
             "--max-iter", str(spec.max_iter), "--seed", str(seed),
             "--out", str(out)]]


def study_calls(calls, seed: int, out: Path) -> list:
    return [["simulate", "--study", call.study.lower(),
             "--grid", f"{call.m}x{call.n}", "--replicates", str(call.replicates),
             "--seed", str(seed), "--restarts", str(call.restarts),
             "--methods", ",".join(m for m, _, _ in call.targets),
             "--out", str(out / f"study{i}.csv")]
            for i, call in enumerate(calls)]


def check_round(name, spec, ref, out: Path, codes, errors=()) -> tuple:
    """(attempted, failed, messages) for one round's outputs.

    A call with a non-zero exit code (-1: it raised) fails all of its
    operations; the others are checked. Every round attempts the same
    operations, whatever fails.
    """
    messages = list(errors)
    if name == "study":
        attempted = failed = 0
        for i, (call, code) in enumerate(zip(spec, codes)):
            if code != 0:
                per_method = {m: [f"{call.study} {m}: exit code {code}"]
                              for m, _, _ in call.targets}
            else:
                per_method = checks.check_study(call, out / f"study{i}.csv")
            for fails in per_method.values():
                attempted += call.replicates
                if fails:
                    failed += call.replicates
                    messages += fails
        return attempted, failed, messages
    if codes != [0]:
        return 1, 1, messages + [f"exit code {codes[0]}"]
    messages += checks.check_fit(spec, ref, out)
    return 1, int(bool(messages)), messages


# ---------------------------------------------------------------------------
# children

def run_child(calls, traced: bool, scratch: Path) -> dict:
    """Run one round in a fresh process and return its result record."""
    job_path, result_path = scratch / "job.json", scratch / "result.json"
    result_path.unlink(missing_ok=True)
    job = {"src": str(ROOT / "src"), "calls": calls, "trace": traced,
           "result": str(result_path)}
    with open(scratch / "child.log", "w") as log:
        job["spawned_at"] = time.monotonic()
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                                cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"a round took more than {CHILD_TIMEOUT_S} s")
    if code != 0 or not result_path.exists():
        tail = (scratch / "child.log").read_text()[-2000:]
        raise BenchError(f"child exited with code {code}:\n{tail}")
    with open(result_path) as fh:
        return json.load(fh)


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    if not (ROOT / "src" / "fdcluster" / "__init__.py").is_file():
        raise BenchError(f"no fdcluster sources under {ROOT / 'src'}")
    spec = workloads.get(name, smoke)
    work = HERE / "work" / f"{name}{'-smoke' if smoke else ''}-s{seed}"
    scratch = HERE / "work" / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    out = scratch / "out"
    if name == "study":
        ref, calls = None, study_calls(spec, seed, out)
    else:
        ref = prepare_volume(spec, work, seed)
        calls = fit_calls(spec, work, seed, out)

    run_child([], False, scratch)   # warm the file cache and bytecode cache
    load0, steal0 = os.getloadavg(), steal_ticks()
    rounds = []
    t_start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 0
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        rec = run_child(calls, traced, scratch)
        rec["traced"] = traced
        rec["attempted"], rec["failed"], rec["messages"] = check_round(
            name, spec, ref, out, rec["codes"], rec["errors"])
        rounds.append(rec)
        # stop when one more unit (a round; a traced/untraced pair when
        # tracing) would not end inside the window
        unit = 2 if trace else 1
        if len(rounds) % unit == 0:
            elapsed = time.monotonic() - t_start
            if elapsed + unit * elapsed / len(rounds) > seconds:
                break
    steal1 = steal_ticks()
    conditions = {
        "workload": name, "seed": seed, "trace": int(trace),
        "blas_threads": BLAS_THREADS, "numpy_madvise_hugepage": 0,
        "rounds": len(rounds),
        "loadavg_start": list(load0), "loadavg_end": list(os.getloadavg()),
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "round_run_s": [round(r["run_s"], 4) for r in rounds],
        "messages": sorted({m for r in rounds for m in r["messages"]}),
    }
    return rounds, conditions


def summarize(rounds: list, trace: bool) -> dict:
    """Medians over the rounds: end-to-end metrics, or per-layer when tracing."""
    median = statistics.median
    if not trace:
        return {
            "run_s": {"value": median([r["run_s"] for r in rounds]), "unit": "s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in rounds]),
                            "unit": "MB"},
            "setup_s": {"value": median([r["setup_s"] for r in rounds]), "unit": "s"},
        }
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = [tracer.layer_metrics(r["layers"], set(r["absent"])) for r in traced]
    metrics = {}
    for key in per_round[0]:
        values = [m[key] for m in per_round]
        value = None if any(v is None for v in values) else median(values)
        metrics[key] = {"value": value, "unit": tracer.unit(key)}
    traced_run = median([r["run_s"] for r in traced])
    metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced_run - median([r["run_s"] for r in plain]), "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fdcluster benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs of the same shape (the benchmark's tests)")
    args = parser.parse_args(argv)
    try:
        rounds, conditions = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": summarize(rounds, bool(args.trace))}
    print(json.dumps({"conditions": conditions}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
