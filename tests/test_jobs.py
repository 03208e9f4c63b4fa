"""Worker processes change no result: `map_tasks`, and `run_two_stage` and
`run_study` with one job against two."""

import multiprocessing
import os
import traceback
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcluster import cli, pipeline, simstudy, tclust
from fdcluster.basis import TimeGrid
from fdcluster.pipeline import (FallbackWarning, RunConfig, VolumeSeries,
                                load_volume, run_two_stage, save_volume_civt)
from fdcluster.selection import SlopeEstimationError
from fdcluster.simstudy import SimConfig, run_study
from fdcluster.tclust import map_tasks
from test_pipeline import blocked_volume


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
    results = map_tasks(_record, log, items, cost=lambda item: item % 4, jobs=1)
    assert [value for value, _ in results] == [10 * item for item in items]
    assert {pid for _, pid in results} == {os.getpid()}
    assert log == items
    log.clear()
    with pytest.raises(ValueError, match=r"^item 9 failed$"):
        map_tasks(_record_then_fail_at_9, log, items, cost=lambda item: item, jobs=1)
    assert log == [3, 1, 4, 1, 5, 9]


class _RunHerePool:
    """Stands in for the process pool: runs each call when it is submitted."""

    def __init__(self, workers, context, initializer, initargs):
        initializer(*initargs)

    def submit(self, fn, item):
        future = Future()
        future.set_result(fn(item))
        return future

    def shutdown(self, cancel_futures):
        pass


def test_pool_dispatches_costliest_first(monkeypatch):
    monkeypatch.setattr(tclust, "ProcessPoolExecutor", _RunHerePool)
    monkeypatch.setattr(tclust, "_worker_task", None)
    log = []
    items = [3, 1, 4, 1, 5, 9, 2, 6]
    results = map_tasks(_record, log, items, cost=lambda item: item % 4, jobs=2)
    assert [value for value, _ in results] == [10 * item for item in items]
    # cost 3, then 2, 1 and 0; equal costs keep their input order
    assert log == [3, 2, 6, 1, 1, 5, 9, 4]


@pytest.mark.parametrize("jobs", [2, 3])
def test_pool_returns_results_in_input_order(jobs):
    items = list(range(7))
    results = map_tasks(_record, [], items, cost=lambda item: item, jobs=jobs)
    assert [value for value, _ in results] == [10 * item for item in items]
    assert os.getpid() not in {pid for _, pid in results}
    assert multiprocessing.active_children() == []


def test_single_item_runs_in_process():
    results = map_tasks(_record, [], [4], cost=lambda item: item, jobs=2)
    assert results == [(40, os.getpid())]


def test_shared_argument_reaches_workers_without_pickle():
    shared = (np.arange(5.0), Unpicklable())
    assert map_tasks(_read_shared, shared, [0, 1, 4], cost=lambda item: item,
                     jobs=2) == [0.0, 1.0, 4.0]


@pytest.mark.parametrize("jobs", [1, 2])
def test_first_failing_item_in_input_order_is_raised(jobs):
    # in a pool the costliest item (7) runs first and fails; item 1 fails
    # too and comes first in input order, so its exception is the one raised
    with pytest.raises(ValueError, match=r"^item 1 failed$") as info:
        map_tasks(_fail_odd, None, [0, 1, 2, 7, 4], cost=lambda item: item,
                  jobs=jobs)
    # the worker's traceback is kept, as the cause of the one raised here
    assert "in _fail_odd" in "".join(
        traceback.format_exception(info.value, chain=True))
    assert multiprocessing.active_children() == []
    assert map_tasks(_fail_odd, None, [0, 2, 4], cost=lambda item: item,
                     jobs=jobs) == [0, 2, 4]
    assert multiprocessing.active_children() == []


def _run_recording_warnings(vol, cfg, jobs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_two_stage(vol, cfg, jobs=jobs)
    messages = [str(w.message) for w in caught if w.category is FallbackWarning]
    return result, messages


def _assert_same_fits(a, b):
    assert sorted(a) == sorted(b)
    for k in a:
        fa, fb = a[k], b[k]
        np.testing.assert_array_equal(fa.model.means, fb.model.means)
        assert fa.model.scale == fb.model.scale
        assert fa.objective == fb.objective
        assert fa.iterations == fb.iterations
        assert fa.restart_index == fb.restart_index
        np.testing.assert_array_equal(fa.labels, fb.labels)
        np.testing.assert_array_equal(fa.trimmed, fb.trimmed)


def test_two_stage_with_fallbacks_is_identical_for_any_jobs():
    # alpha 0.5 keeps 6 of the 12 voxels, so k = 7..12 fall back to alpha 0
    vol, _ = blocked_volume(nx=2, ny=2, nz=3)
    cfg = RunConfig(d=8, k_set=range(2, 13), alpha=0.5, restarts=2, seed=0)
    serial, serial_warnings = _run_recording_warnings(vol, cfg, jobs=1)
    pooled, pooled_warnings = _run_recording_warnings(vol, cfg, jobs=2)
    expected = [f"k={k}: alpha=0.5 keeps 6 of 12 voxels, fewer than {k} "
                "clusters: fitting with alpha=0" for k in range(7, 13)]
    assert serial_warnings == pooled_warnings == expected
    _assert_same_fits(serial.fits, pooled.fits)
    assert [r[:3] for r in serial.trace.records] == [r[:3] for r in pooled.trace.records]
    assert serial.trace.k_values == list(range(2, 13))
    assert serial.k_hat == pooled.k_hat
    assert serial.slope.kappa == pooled.slope.kappa
    np.testing.assert_array_equal(serial.cluster_volume.labels,
                                  pooled.cluster_volume.labels)
    np.testing.assert_array_equal(serial.cluster_volume.trimmed,
                                  pooled.cluster_volume.trimmed)
    np.testing.assert_array_equal(serial.mean_functions.values,
                                  pooled.mean_functions.values)


def _sweep(vol, cfg, jobs):
    """(trace rows without seconds, result or None, the selection's error)."""
    try:
        result = run_two_stage(vol, cfg, jobs=jobs)
    except (SlopeEstimationError, ValueError) as exc:
        # too few candidates, or a nonpositive slope: the sweep is attached
        return [r[:3] for r in exc.trace.records], None, repr(exc)
    return [r[:3] for r in result.trace.records], result, None


@settings(max_examples=12, deadline=None)
@given(k_set=st.sets(st.integers(1, 9), min_size=1, max_size=6),
       alpha=st.sampled_from([0.0, 0.3, 0.6]), seed=st.integers(0, 2**16))
def test_two_stage_is_identical_for_any_jobs_on_random_k_sets(k_set, alpha, seed):
    vol, _ = blocked_volume(nx=3, ny=2, nz=3, m=40)
    cfg = RunConfig(d=6, k_set=tuple(sorted(k_set)), alpha=alpha, restarts=2,
                    seed=seed, lam=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FallbackWarning)
        rows_1, serial, error_1 = _sweep(vol, cfg, jobs=1)
        rows_2, pooled, error_2 = _sweep(vol, cfg, jobs=2)
    assert rows_1 == rows_2
    assert error_1 == error_2
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

    monkeypatch.setattr(pipeline, "_stage1_coefficients", refuse)
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
