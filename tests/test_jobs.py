"""Worker processes change no result: `TaskPool`, and `run_two_stage` and
`run_study` with one job against two."""

import multiprocessing
import os
import sys
import traceback
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcluster import cli, pipeline, simstudy, tclust
from fdcluster.basis import TimeGrid, design_matrix, make_bspline_system
from fdcluster.pipeline import (RunConfig, VolumeSeries, load_volume,
                                normalize_columns, run_two_stage,
                                save_volume_civt)
from fdcluster.selection import SlopeEstimationError
from fdcluster.simstudy import SimConfig, run_study
from fdcluster.tclust import TaskPool
from test_pipeline import blocked_volume, stage1_coefficients


def pool_map(task, shared, items, cost, jobs):
    """One `TaskPool.map` on a pool of its own."""
    with TaskPool(shared, jobs) as pool:
        return pool.map(task, items, cost)


def _record(log, item):
    log.append(item)
    return item * 10, os.getpid()


def _record_then_fail_at_9(log, item):
    log.append(item)
    if item == 9:
        raise ValueError("item 9 failed")
    return item


def _fail_odd(shared, item):
    if item % 2:
        raise ValueError(f"item {item} failed")
    return item


class Unpicklable:
    def __reduce__(self):
        raise TypeError("the shared argument was pickled")


def _read_shared(shared, item):
    return float(shared[0][item])


def test_in_process_map_runs_in_input_order_and_stops_at_first_failure():
    log = []
    items = [3, 1, 4, 1, 5, 9, 2, 6]
    results = pool_map(_record, log, items, cost=lambda item: item % 4, jobs=1)
    assert [value for value, _ in results] == [10 * item for item in items]
    assert {pid for _, pid in results} == {os.getpid()}
    assert log == items
    log.clear()
    with pytest.raises(ValueError, match=r"^item 9 failed$"):
        pool_map(_record_then_fail_at_9, log, items, cost=lambda item: item, jobs=1)
    assert log == [3, 1, 4, 1, 5, 9]


class _RunHerePool:
    """Stands in for the process pool: runs each call when it is submitted."""

    def __init__(self, workers, context, initializer, initargs):
        initializer(*initargs)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures):
        pass


def test_pool_dispatches_costliest_first(monkeypatch):
    monkeypatch.setattr(tclust, "ProcessPoolExecutor", _RunHerePool)
    monkeypatch.setattr(tclust, "_worker_shared", None)
    log = []
    items = [3, 1, 4, 1, 5, 9, 2, 6]
    results = pool_map(_record, log, items, cost=lambda item: item % 4, jobs=2)
    assert [value for value, _ in results] == [10 * item for item in items]
    # cost 3, then 2, 1 and 0; equal costs keep their input order
    assert log == [3, 2, 6, 1, 1, 5, 9, 4]


@pytest.mark.parametrize("jobs", [2, 3])
def test_pool_returns_results_in_input_order(jobs):
    items = list(range(7))
    results = pool_map(_record, [], items, cost=lambda item: item, jobs=jobs)
    assert [value for value, _ in results] == [10 * item for item in items]
    assert os.getpid() not in {pid for _, pid in results}
    assert multiprocessing.active_children() == []


def test_single_item_runs_in_process():
    results = pool_map(_record, [], [4], cost=lambda item: item, jobs=2)
    assert results == [(40, os.getpid())]


def test_shared_argument_reaches_workers_without_pickle():
    shared = (np.arange(5.0), Unpicklable())
    assert pool_map(_read_shared, shared, [0, 1, 4], cost=lambda item: item,
                     jobs=2) == [0.0, 1.0, 4.0]


@pytest.mark.parametrize("jobs", [1, 2])
def test_first_failing_item_in_input_order_is_raised(jobs):
    # in a pool the costliest item (7) runs first and fails; item 1 fails
    # too and comes first in input order, so its exception is the one raised
    with pytest.raises(ValueError, match=r"^item 1 failed$") as info:
        pool_map(_fail_odd, None, [0, 1, 2, 7, 4], cost=lambda item: item,
                  jobs=jobs)
    # the worker's traceback is kept, as the cause of the one raised here
    assert "in _fail_odd" in "".join(
        traceback.format_exception(info.value, chain=True))
    assert multiprocessing.active_children() == []
    assert pool_map(_fail_odd, None, [0, 2, 4], cost=lambda item: item,
                     jobs=jobs) == [0, 2, 4]
    assert multiprocessing.active_children() == []


def test_one_pool_serves_every_map_with_the_same_workers():
    # the workers forked by the first map run the later ones, a failing map
    # included, and leaving the block joins them
    with TaskPool([], 2) as pool:
        pids = {pid for _, pid in pool.map(_record, range(6), cost=lambda item: item)}
        alive = {child.pid for child in multiprocessing.active_children()}
        with pytest.raises(ValueError, match=r"^item 1 failed$"):
            pool.map(_fail_odd, [0, 1, 2], cost=lambda item: item)
        assert pool.map(_record, [7], cost=lambda item: item) == [(70, os.getpid())]
        pids |= {pid for _, pid in pool.map(_record, range(6), cost=lambda item: item)}
        assert {child.pid for child in multiprocessing.active_children()} == alive
    assert len(pids) <= 2 and pids <= alive and os.getpid() not in pids
    assert multiprocessing.active_children() == []


def _assert_same_fits(a, b):
    assert sorted(a) == sorted(b)
    for k in a:
        fa, fb = a[k], b[k]
        np.testing.assert_array_equal(fa.model.means, fb.model.means)
        assert fa.model.scale == fb.model.scale
        assert fa.objective == fb.objective
        assert fa.iterations == fb.iterations
        assert fa.restart_index == fb.restart_index


def test_two_stage_up_to_the_kept_count_is_identical_for_any_jobs():
    # alpha 0.5 keeps 6 of the 12 voxels: k = 2..6 is the largest sweep it
    # allows, and every candidate is fitted at alpha 0.5
    vol, _ = blocked_volume(nx=2, ny=2, nz=3)
    cfg = RunConfig(d=8, k_set=range(2, 7), alpha=0.5, restarts=2, seed=0)
    serial = run_two_stage(vol, cfg, jobs=1)
    pooled = run_two_stage(vol, cfg, jobs=2)
    _assert_same_fits(serial.fits, pooled.fits)
    assert [r[:3] for r in serial.trace.records] == [r[:3] for r in pooled.trace.records]
    assert serial.trace.k_values == list(range(2, 7))
    assert int(serial.cluster_volume.trimmed.sum()) == 6
    assert serial.k_hat == pooled.k_hat
    assert serial.slope.kappa == pooled.slope.kappa
    np.testing.assert_array_equal(serial.cluster_volume.labels,
                                  pooled.cluster_volume.labels)
    np.testing.assert_array_equal(serial.cluster_volume.trimmed,
                                  pooled.cluster_volume.trimmed)
    np.testing.assert_array_equal(serial.mean_functions.values,
                                  pooled.mean_functions.values)


def _sweep(vol, cfg, jobs):
    """(trace rows without seconds or None, result or None, the error)."""
    try:
        result = run_two_stage(vol, cfg, jobs=jobs)
    except SlopeEstimationError as exc:
        # a nonpositive slope: the sweep is attached
        return [r[:3] for r in exc.trace.records], None, repr(exc)
    except ValueError as exc:
        # a setting refused before stage 1: there is no sweep
        return None, None, repr(exc)
    return [r[:3] for r in result.trace.records], result, None


@settings(max_examples=12, deadline=None)
@given(k_set=st.sets(st.integers(1, 9), min_size=1, max_size=6),
       alpha=st.sampled_from([0.0, 0.3, 0.6]), seed=st.integers(0, 2**16))
def test_two_stage_is_identical_for_any_jobs_on_random_k_sets(k_set, alpha, seed):
    vol, _ = blocked_volume(nx=3, ny=2, nz=3, m=40)
    cfg = RunConfig(d=6, k_set=tuple(sorted(k_set)), alpha=alpha, restarts=2,
                    seed=seed, lam=0.1)
    rows_1, serial, error_1 = _sweep(vol, cfg, jobs=1)
    rows_2, pooled, error_2 = _sweep(vol, cfg, jobs=2)
    assert rows_1 == rows_2
    assert error_1 == error_2
    # 18 voxels: alpha 0.6 keeps 7, so k = 8 or 9 is refused; so is a set
    # of two or three candidates
    refused = (1 < len(k_set) < 4
               or max(k_set) > tclust.TrimSpec(alpha).retained_count(18))
    assert (rows_1 is None) == refused
    if serial is not None:
        _assert_same_fits(serial.fits, pooled.fits)
        assert serial.k_hat == pooled.k_hat
        np.testing.assert_array_equal(serial.cluster_volume.labels,
                                      pooled.cluster_volume.labels)


def test_study_is_identical_for_any_jobs():
    # the second cell is the larger, so it is dispatched first
    base = SimConfig("S1", n=60, m=30)
    kw = dict(methods=("gmm", "kmeans", "trimmed:0.5"), seed=8, restarts=4,
              base_config=base)
    cells = [(30, 150), (20, 200)]
    serial = run_study("S1", cells, replicates=3, jobs=1, **kw)
    pooled = run_study("S1", cells, replicates=3, jobs=2, **kw)
    columns = ("study", "m", "n", "method", "alpha", "ari_mean", "ari_se")
    assert len(serial.rows) == 6
    assert ([[getattr(r, c) for c in columns] for r in serial.rows]
            == [[getattr(r, c) for c in columns] for r in pooled.rows])


def test_jobs_below_one_is_refused_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(pipeline, "_filter_rows", refuse)
    monkeypatch.setattr(simstudy, "simulate_study", refuse)
    vol, _ = blocked_volume(nx=2, ny=2, nz=3)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_two_stage(vol, RunConfig(d=8, k_set=(2, 3)), jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_study("S1", [(30, 40)], replicates=2, methods=("kmeans",), jobs=jobs)


@pytest.fixture
def civt_with_two_bad_voxels(tmp_path, monkeypatch):
    """A CIVT volume with non-finite values at voxels 7 and 9, which lie in
    different stage-1 tasks once a task is one block of 4 voxels."""
    monkeypatch.setattr(pipeline, "_STAGE1_ROWS", 4)
    monkeypatch.setattr(pipeline, "_STAGE1_TASK_VALUES", 1)
    rng = np.random.default_rng(6)
    n, m = 24, 12
    series = rng.standard_normal((n, m))
    vol = VolumeSeries(dims=(n, 1, 1), series=series, grid=TimeGrid.uniform(0.0, 1.0, m))
    path = tmp_path / "vol.civt"
    save_volume_civt(vol, path)
    data = np.fromfile(path, dtype=np.uint8)
    payload = data[pipeline._CIVT_HEADER_BYTES:].view("<f4").reshape(n, m)
    payload[9, 0] = np.inf      # the first value of the higher task
    payload[7, -1] = np.nan     # the last value of the lower one
    data.tofile(path)
    return path


def test_non_finite_values_in_two_tasks_name_the_lower_voxel(civt_with_two_bad_voxels):
    vol = load_volume(civt_with_two_bad_voxels, "civt")
    with pytest.raises(ValueError, match=r"non-finite values \(voxel 7\)"):
        run_two_stage(vol, RunConfig(d=6, k_set=(2,), restarts=1), jobs=2)


def test_fit_with_non_finite_values_in_two_tasks_leaves_no_output(
        civt_with_two_bad_voxels, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "x"
    rc = cli.main(["fit", "--input", str(civt_with_two_bad_voxels), "--format", "civt",
                   "--d", "6", "--k-set", "2", "--restarts", "1", "--out", str(out)])
    assert rc == 2
    assert "non-finite values (voxel 7)" in capsys.readouterr().err
    assert not out.exists()


# a file each task appends "<phase> <process id>" to (set by the tests that
# log; forked workers inherit it)
_PID_LOG = None
_filter_rows = pipeline._filter_rows
_fit_candidate = pipeline._fit_candidate


def _log_pid(phase):
    with open(_PID_LOG, "a") as fh:
        fh.write(f"{phase} {os.getpid()}\n")


def _filter_rows_logging_pid(shared, rows):
    _log_pid("stage1")
    return _filter_rows(shared, rows)


def _fit_candidate_logging_pid(shared, task):
    _log_pid("candidate")
    return _fit_candidate(shared, task)


class _CountedPool(ProcessPoolExecutor):
    made = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def pid_log(tmp_path, monkeypatch):
    """Tasks log their process ids; pools made are counted. Returns a
    function giving the logged {phase: set of ids}."""
    monkeypatch.setattr(sys.modules[__name__], "_PID_LOG", tmp_path / "pids")
    monkeypatch.setattr(pipeline, "_filter_rows", _filter_rows_logging_pid)
    monkeypatch.setattr(pipeline, "_fit_candidate", _fit_candidate_logging_pid)
    monkeypatch.setattr(tclust, "ProcessPoolExecutor", _CountedPool)
    monkeypatch.setattr(_CountedPool, "made", 0)

    def logged():
        pids = {"stage1": set(), "candidate": set()}
        if _PID_LOG.exists():
            for line in _PID_LOG.read_text().splitlines():
                phase, pid = line.split()
                pids[phase].add(int(pid))
        return pids

    return logged


@pytest.fixture
def stage1_of_three_tasks(monkeypatch):
    """12 voxels in stage-1 tasks of one 4-voxel block each."""
    monkeypatch.setattr(pipeline, "_STAGE1_ROWS", 4)
    monkeypatch.setattr(pipeline, "_STAGE1_TASK_VALUES", 1)
    vol, _ = blocked_volume(nx=2, ny=2, nz=3)
    assert len(pipeline._stage1_tasks(vol.n, vol.m)) == 3
    return vol


def test_shared_pool_with_several_stage1_tasks_is_identical_for_any_jobs(
        stage1_of_three_tasks):
    # the workers forked for stage 1 fit the candidates on the coefficients
    # normalized here after the fork
    vol = stage1_of_three_tasks
    cfg = RunConfig(d=8, k_set=range(2, 7), alpha=0.5, restarts=2, seed=3)
    assert cfg.normalize
    serial = run_two_stage(vol, cfg, jobs=1)
    # the largest candidate is the fit of the normalized coefficients
    design = design_matrix(make_bspline_system((vol.grid.t_lo, vol.grid.t_hi), cfg.d),
                           vol.grid)
    coefs, _ = normalize_columns(stage1_coefficients(vol, design, True, jobs=1))
    seed = tclust.seed_int(np.random.SeedSequence(cfg.seed).spawn(5)[-1])
    direct = tclust.trimmed_kmeans(coefs, 6, tclust.TrimSpec(cfg.alpha),
                                   restarts=cfg.restarts, seed=seed)
    _assert_same_fits({6: direct}, {6: serial.fits[6]})
    # 4 workers: more than this machine may have cores
    for jobs in (2, 4):
        pooled = run_two_stage(vol, cfg, jobs=jobs)
        _assert_same_fits(serial.fits, pooled.fits)
        assert ([r[:3] for r in serial.trace.records]
                == [r[:3] for r in pooled.trace.records])
        assert serial.k_hat == pooled.k_hat
        np.testing.assert_array_equal(serial.stats.means, pooled.stats.means)
        np.testing.assert_array_equal(serial.stats.sds, pooled.stats.sds)
        np.testing.assert_array_equal(serial.cluster_volume.labels,
                                      pooled.cluster_volume.labels)
        np.testing.assert_array_equal(serial.cluster_volume.trimmed,
                                      pooled.cluster_volume.trimmed)


def test_stage1_and_candidates_share_one_set_of_workers(stage1_of_three_tasks, pid_log):
    vol = stage1_of_three_tasks
    run_two_stage(vol, RunConfig(d=8, k_set=range(2, 7), restarts=2), jobs=2)
    pids = pid_log()
    workers = pids["stage1"] | pids["candidate"]
    assert pids["stage1"] and pids["candidate"]
    assert len(workers) <= 2 and os.getpid() not in workers
    assert _CountedPool.made == 1
    assert multiprocessing.active_children() == []


def test_stage1_of_one_task_runs_here_and_candidates_fork_once(pid_log):
    vol, _ = blocked_volume(nx=2, ny=2, nz=3)
    run_two_stage(vol, RunConfig(d=8, k_set=range(2, 7), restarts=2), jobs=2)
    pids = pid_log()
    assert pids["stage1"] == {os.getpid()}
    assert len(pids["candidate"]) <= 2 and os.getpid() not in pids["candidate"]
    assert _CountedPool.made == 1
    assert multiprocessing.active_children() == []


def test_non_finite_stage1_task_raises_before_any_candidate_starts(
        civt_with_two_bad_voxels, pid_log):
    vol = load_volume(civt_with_two_bad_voxels, "civt")
    with pytest.raises(ValueError, match=r"non-finite values \(voxel 7\)"):
        run_two_stage(vol, RunConfig(d=6, k_set=range(2, 6), restarts=1), jobs=2)
    pids = pid_log()
    assert pids["stage1"] and os.getpid() not in pids["stage1"]
    assert pids["candidate"] == set()
    assert multiprocessing.active_children() == []
