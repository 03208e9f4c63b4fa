"""Tests of the benchmark itself: smoke runs, the output checks, the tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import inputs      # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=1):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = run_bench("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_inputs_repeat_for_a_seed(tmp_path):
    spec = workloads.get("sweep", smoke=True)
    t1 = inputs.write_volume(spec, 7, tmp_path / "a.civt")
    t2 = inputs.write_volume(spec, 7, tmp_path / "b.civt")
    inputs.write_volume(spec, 8, tmp_path / "c.civt")
    assert np.array_equal(t1, t2)
    a, b, c = ((tmp_path / f"{x}.civt").read_bytes() for x in "abc")
    assert a == b and a != c
    dims, m, t_lo, t_hi, series = inputs.read_civt(tmp_path / "a.civt")
    assert dims == spec.dims and series.shape == (spec.n, spec.m)
    assert len(a) == 40 + 4 * spec.n * spec.m


# ---------------------------------------------------------------------------
# each check rejects a corrupted output

@pytest.fixture(scope="module")
def fit_output(tmp_path_factory):
    """A smoke-size `fdcluster fit` output that passes every check."""
    spec = workloads.get("sweep", smoke=True)
    base = tmp_path_factory.mktemp("fit")
    truth = inputs.write_volume(spec, 1, base / "volume.civt")
    out = base / "out"
    argv = ["fit", "--input", str(base / "volume.civt"), "--format", "civt",
            "--d", str(spec.d), "--k-set", f"{spec.k_lo}..{spec.k_hi}",
            "--alpha", spec.alpha, "--restarts", str(spec.restarts),
            "--seed", "1", "--out", str(out)]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import fdcluster.cli as c; sys.exit(c.main(sys.argv[2:]))")
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), *argv],
                   check=True, capture_output=True, timeout=170)
    ref = checks.fit_reference(spec, base / "volume.civt", truth)
    return spec, ref, out


def corrupted(fit_output, tmp_path, edit):
    spec, ref, out = fit_output
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    edit(copy)
    return checks.check_fit(spec, ref, copy)


def edit_labels(path, fn):
    with open(path / "labels.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    fn(rows)
    with open(path / "labels.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def k_hat_of(path):
    return json.loads((path / "selection.json").read_text())["k_hat"]


def test_checks_pass_on_the_program_output(fit_output):
    spec, ref, out = fit_output
    assert checks.check_fit(spec, ref, out) == []


def test_flipped_label_is_rejected(fit_output, tmp_path):
    def flip(path):
        k = k_hat_of(path)

        def edit(rows):
            rows[1][3] = str(int(rows[1][3]) % k + 1)
        edit_labels(path, edit)

    fails = corrupted(fit_output, tmp_path, flip)
    assert any("nearest mean" in f for f in fails), fails


def test_wrong_trim_flag_is_rejected(fit_output, tmp_path):
    def flip(rows):
        rows[1][4] = str(1 - int(rows[1][4]))

    fails = corrupted(fit_output, tmp_path, lambda p: edit_labels(p, flip))
    assert any("trimmed" in f for f in fails), fails


def test_swapped_trim_flags_are_rejected(fit_output, tmp_path):
    """Same trimmed count, but a retained voxel scores worse than a trimmed one."""
    spec, ref, out = fit_output

    def swap(path):
        means = np.loadtxt(path / "models" / f"means_k{k_hat_of(path):02d}.csv",
                           delimiter=",", ndmin=2)
        best = checks.cdist(ref["U"], means, "sqeuclidean").min(axis=1)

        def edit(rows):
            flags = np.array([int(r[4]) for r in rows[1:]], dtype=bool)
            trimmed_best = np.flatnonzero(flags)[np.argmin(best[flags])]
            kept_best = np.flatnonzero(~flags)[np.argmin(best[~flags])]
            rows[1 + trimmed_best][4], rows[1 + kept_best][4] = "0", "1"
        edit_labels(path, edit)

    fails = corrupted(fit_output, tmp_path, swap)
    assert any("scores better" in f for f in fails), fails


def test_perturbed_coefficient_statistic_is_rejected(fit_output, tmp_path):
    def perturb(path):
        stats = np.loadtxt(path / "normalization.csv", delimiter=",", ndmin=2)
        stats[1, 3] *= 1 + 1e-6
        np.savetxt(path / "normalization.csv", stats, delimiter=",")

    fails = corrupted(fit_output, tmp_path, perturb)
    assert any("normalization" in f for f in fails), fails


def test_perturbed_loglik_is_rejected(fit_output, tmp_path):
    def perturb(path):
        k = k_hat_of(path)
        with open(path / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        for r in rows[1:]:
            if int(r[0]) == k:
                r[1] = repr(float(r[1]) * (1 + 1e-6))
        with open(path / "trace.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    fails = corrupted(fit_output, tmp_path, perturb)
    assert any("loglik" in f for f in fails), fails


def test_wrong_k_hat_is_rejected(fit_output, tmp_path):
    def edit(path):
        sel = json.loads((path / "selection.json").read_text())
        sel["k_hat"] = sel["k_hat"] + 1
        (path / "selection.json").write_text(json.dumps(sel))

    fails = corrupted(fit_output, tmp_path, edit)
    assert any("k_hat" in f for f in fails), fails


def write_report(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["study", "m", "n", "method", "alpha", "ari_mean", "ari_se", "seconds"])
        w.writerows(rows)


def test_study_check_rejects_ari_out_of_tolerance(tmp_path):
    call = workloads.STUDY[2]      # S2: gmm and kmeans, with the gap rule
    report = tmp_path / "r.csv"
    write_report(report, [["S2", 100, 2500, "gmm", 0.0, 0.984, 0.001, 1.0],
                          ["S2", 100, 2500, "kmeans", 0.0, 0.934, 0.001, 1.0]])
    assert all(f == [] for f in checks.check_study(call, report).values())
    write_report(report, [["S2", 100, 2500, "gmm", 0.0, 0.984, 0.001, 1.0],
                          ["S2", 100, 2500, "kmeans", 0.0, 0.910, 0.001, 1.0]])
    fails = checks.check_study(call, report)
    assert fails["gmm"] == [] and fails["kmeans"], fails
    write_report(report, [["S2", 100, 2500, "gmm", 0.0, 0.966, 0.001, 1.0],
                          ["S2", 100, 2500, "kmeans", 0.0, 0.950, 0.001, 1.0]])
    fails = checks.check_study(call, report)
    assert all(any("gap" in m for m in f) for f in fails.values()), fails


def test_ari_matches_hand_computed_values():
    assert checks.ari([1, 1, 2, 2], [5, 5, 7, 7]) == 1.0
    # contingency [[2, 1], [0, 2]]: index 1 + 1, rows 3 + 1, cols 1 + 3, pairs 10
    assert checks.ari([0, 0, 0, 1, 1], [0, 0, 1, 1, 1]) == pytest.approx(
        (2 - 16 / 10) / (4 - 16 / 10))


def test_retained_count_is_exact():
    assert checks.retained_count(6000, "0.05") == 5700
    assert checks.retained_count(10, "0.15") == 8


# ---------------------------------------------------------------------------
# tracer

def test_tracer_self_time_and_counts():
    t = tracer.Tracer()

    class Model:
        means = np.zeros((3, 2))

    def inner(U, model, trim=None):
        return None

    wrapped_inner = t.wrap("tclust.tclust_objective", inner)

    def outer(U, model, trim=None):
        wrapped_inner(U, model)
        return wrapped_inner(U, model)

    t.wrap("tclust.tclust_step", outer)(np.zeros((10, 2)), Model())
    step, obj = t.stats["tclust.tclust_step"], t.stats["tclust.tclust_objective"]
    assert step["calls"] == 1 and obj["calls"] == 2
    assert step["dist_evals"] == 30 and obj["dist_evals"] == 60
    assert step["self_s"] == pytest.approx(step["s"] - obj["s"])
    metrics = tracer.layer_metrics(t.stats, set())
    assert metrics["tclust.dist_evals"] == 90
    assert metrics["mixtures.fit_gmm_em.s"] == 0


def test_absent_layer_is_null_not_zero():
    absent = {"mixtures.fit_gmm_em", "pipeline.export_cluster_map",
              "pipeline.export_mean_functions"}
    metrics = tracer.layer_metrics({}, absent)
    assert metrics["mixtures.fit_gmm_em.s"] is None
    assert metrics["pipeline.export.s"] is None
    assert metrics["basis.detrend.s"] == 0
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(metrics) | {"trace.run_s", "trace.overhead_s"} == declared


def test_sum_counts_the_parts_still_present():
    """Removing tclust_objective halves dist_evals instead of nulling it."""
    stats = {"tclust.tclust_step": {"calls": 4, "s": 2.0, "self_s": 2.0,
                                    "dist_evals": 120},
             "pipeline.export_mean_functions": {"calls": 1, "s": 0.5, "self_s": 0.5}}
    absent = {"tclust.tclust_objective", "pipeline.export_cluster_map",
              "selection.estimate_slope_ddse"}
    metrics = tracer.layer_metrics(stats, absent)
    assert metrics["tclust.tclust_objective.s"] is None
    assert metrics["tclust.dist_evals"] == 120
    assert metrics["tclust.dist_evals_per_s"] == 60
    assert metrics["pipeline.export.s"] == 0.5
    assert metrics["selection.s"] == 0


# ---------------------------------------------------------------------------
# a call that raises fails its operations, not the run

def test_child_reports_a_call_that_raises(tmp_path):
    package = tmp_path / "src" / "fdcluster"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "def main(argv):\n"
        "    if argv == ['boom']:\n"
        "        raise RuntimeError('EM log-likelihood decreased')\n"
        "    return 0\n")
    job = {"src": str(tmp_path / "src"), "calls": [["ok"], ["boom"]],
           "trace": False, "result": str(tmp_path / "result.json"),
           "spawned_at": 0.0}
    (tmp_path / "job.json").write_text(json.dumps(job))
    subprocess.run([sys.executable, str(HERE / "child.py"), str(tmp_path / "job.json")],
                   check=True, capture_output=True, timeout=60)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["codes"] == [0, -1]
    assert len(result["errors"]) == 1
    assert "EM log-likelihood decreased" in result["errors"][0]


def test_crashed_call_fails_its_operations(tmp_path):
    import run
    study = workloads.get("study", smoke=True)
    codes = [0, -1, 0]
    for i, call in enumerate(study):
        if codes[i] == 0:
            write_report(tmp_path / f"study{i}.csv",
                         [[call.study, call.m, call.n, spec.partition(":")[0],
                           spec.partition(":")[2] or 0.0, published, 0.001, 1.0]
                          for spec, published, _ in call.targets])
    attempted, failed, messages = run.check_round(
        "study", study, None, tmp_path, codes, ["Traceback ..."])
    assert attempted == sum(c.replicates * len(c.targets) for c in study)
    assert failed == study[1].replicates * len(study[1].targets)
    assert "Traceback ..." in messages

    spec = workloads.get("sweep", smoke=True)
    assert run.check_round("sweep", spec, None, tmp_path, [-1], ["Traceback ..."]) == (
        1, 1, ["Traceback ...", "exit code -1"])


def test_child_peak_memory_is_its_own(tmp_path):
    """A child's peak RSS does not carry the parent's larger peak over."""
    import run
    ballast = np.ones(20_000_000)      # 160 MB touched in this process
    del ballast
    rec = run.run_child([], False, tmp_path)
    assert 20 < rec["peak_rss_mb"] < 140
