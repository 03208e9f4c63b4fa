import itertools
import mmap
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fdcluster import pipeline
from fdcluster.basis import TimeGrid, design_matrix, make_bspline_system
from fdcluster.pipeline import (ClusterVolume, MeanFunctions, RunConfig,
                                VolumeSeries, export_cluster_map,
                                export_mean_functions, load_labels_civl,
                                load_volume, normalize_columns, render_slice,
                                run_two_stage, save_labels_civl,
                                save_volume_civt)
from fdcluster.tclust import TaskPool


def blocked_volume(nx=6, ny=5, nz=3, m=80, noise=0.4, seed=3):
    """Three z-blocked classes with distinct mean curves."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid.uniform(0.0, 1.0, m)
    t = grid.points
    curves = np.stack([
        np.sin(2 * np.pi * t),
        np.cos(4 * np.pi * t) + 0.8 * t,
        np.sin(6 * np.pi * t) - 0.5 * t,
    ])
    n = nx * ny * nz
    block = n // 3
    labels = np.repeat([1, 2, 3], block)
    series = curves[labels - 1] + noise * rng.standard_normal((n, m))
    vol = VolumeSeries(dims=(nx, ny, nz), series=series, grid=grid)
    return vol, labels


def one_series_volume():
    grid = TimeGrid.uniform(0.0, 1.0, 30)
    series = np.sin(2 * np.pi * grid.points)[None, :]
    return VolumeSeries(dims=(1, 1, 1), series=series, grid=grid)


class TestVolumeSeries:
    def test_dims_mismatch_rejected(self):
        grid = TimeGrid.uniform(0, 1, 4)
        with pytest.raises(ValueError):
            VolumeSeries(dims=(2, 2, 2), series=np.zeros((7, 4)), grid=grid)

    def test_non_finite_rejected(self):
        grid = TimeGrid.uniform(0, 1, 3)
        bad = np.zeros((2, 3))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            VolumeSeries(dims=(2, 1, 1), series=bad, grid=grid)


class TestCsvVolume:
    def test_small_fixture(self, tmp_path):
        path = tmp_path / "vol.csv"
        path.write_text("x,y,z,t1,t2,t3\n"
                        "0,0,0,1.5,2.5,3.5\n"
                        "1,0,0,-1.0,0.0,1.0\n")
        vol = load_volume(path, "csv")
        assert vol.dims == (2, 1, 1)
        assert vol.m == 3
        np.testing.assert_allclose(vol.series,
                                   [[1.5, 2.5, 3.5], [-1.0, 0.0, 1.0]])
        np.testing.assert_allclose(vol.grid.points, [1.0, 2.0, 3.0])

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "vol.csv"
        lines = ["x,y,z,t1"]
        for x in range(2):
            for y in range(2):
                lines.append(f"{x},{y},0,1.0")
        lines.pop()  # 7 rows declared by coords but dims say 8... actually 3 of 4
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_volume(path, "csv")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "vol.csv"
        path.write_text("a,b,c,t1\n0,0,0,1\n")
        with pytest.raises(ValueError):
            load_volume(path, "csv")

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "vol.csv"
        path.write_text("x,y,z,t1\n0,0,0,nan\n")
        with pytest.raises(ValueError):
            load_volume(path, "csv")


class TestCivtRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = TimeGrid.uniform(2.0, 9.0, 6)
        series = rng.standard_normal((8, 6)).astype(np.float32).astype(float)
        vol = VolumeSeries(dims=(2, 2, 2), series=series, grid=grid)
        path = tmp_path / "vol.civt"
        save_volume_civt(vol, path)
        back = load_volume(path, "civt")
        assert back.dims == vol.dims
        np.testing.assert_array_equal(back.series, vol.series)
        assert (back.grid.t_lo, back.grid.t_hi) == (2.0, 9.0)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.civt"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError):
            load_volume(path, "civt")

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = TimeGrid.uniform(0.0, 1.0, 4)
        vol = VolumeSeries(dims=(2, 1, 1), series=rng.standard_normal((2, 4)), grid=grid)
        path = tmp_path / "t.civt"
        save_volume_civt(vol, path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(ValueError):
            load_volume(path, "civt")


class _ReadCounter:
    """A file object that records how many bytes were read through it."""

    def __init__(self, fh, counts):
        self._fh, self._counts = fh, counts

    def read(self, size=-1):
        data = self._fh.read(size)
        self._counts.append(len(data))
        return data

    def fileno(self):
        return self._fh.fileno()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("edit, message", [
    (lambda data: data[:-3], "unexpected end of file"),
    (lambda data: data + b"\x00", "trailing bytes"),
], ids=["truncated", "trailing"])
def test_civt_size_rejected_before_the_payload_is_read(tmp_path, monkeypatch,
                                                       edit, message):
    rng = np.random.default_rng(1)
    grid = TimeGrid.uniform(0.0, 1.0, 40)
    vol = VolumeSeries(dims=(5, 2, 1), series=rng.standard_normal((10, 40)), grid=grid)
    path = tmp_path / "t.civt"
    save_volume_civt(vol, path)
    path.write_bytes(edit(path.read_bytes()))
    counts = []
    monkeypatch.setattr(pipeline, "open",
                        lambda *a, **kw: _ReadCounter(open(*a, **kw), counts),
                        raising=False)
    with pytest.raises(ValueError, match=message):
        load_volume(path, "civt")
    assert sum(counts) == 40          # the header, not the 1600-byte payload


def test_civt_loads_as_a_read_only_float32_mapping(tmp_path):
    rng = np.random.default_rng(2)
    grid = TimeGrid.uniform(0.0, 1.0, 7)
    vol = VolumeSeries(dims=(3, 2, 2), series=rng.standard_normal((12, 7)), grid=grid)
    path = tmp_path / "v.civt"
    save_volume_civt(vol, path)
    back = load_volume(path, "civt")
    assert isinstance(back.series, np.memmap)
    assert back.series.dtype == np.float32 and back.series.shape == (12, 7)
    assert not back.series.flags.writeable


def test_stage1_streams_a_mapped_volume_in_bounded_memory(tmp_path):
    # loading and filtering a 4000 x 500 volume keeps at most a few
    # 256-row blocks allocated; a float64 copy of the volume would be n*m*8
    n, m = 4000, 500
    rng = np.random.default_rng(5)
    grid = TimeGrid.uniform(0.0, 1.0, m)
    vol = VolumeSeries(dims=(20, 20, 10), series=rng.standard_normal((n, m)), grid=grid)
    path = tmp_path / "big.civt"
    save_volume_civt(vol, path)
    del vol
    cfg = RunConfig(d=8, k_set=(2,), restarts=1, max_iter=2, seed=0)
    tracemalloc.start()
    try:
        result = run_two_stage(load_volume(path, "civt"), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.cluster_volume.labels.shape == (n,)
    assert peak < n * m * 8 / 4


def test_peak_memory_does_not_grow_with_the_candidate_set():
    # a candidate's fit keeps its means, not per-voxel labels or trim flags:
    # only the chosen model is allocated, once, after selection
    vol, _ = blocked_volume(nx=40, ny=25, nz=21, m=16)
    peaks = []
    for k_set in (range(2, 6), range(2, 14)):
        cfg = RunConfig(d=6, k_set=tuple(k_set), restarts=1, max_iter=2, seed=0)
        tracemalloc.start()
        try:
            result = run_two_stage(vol, cfg, jobs=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sorted(result.fits) == list(k_set)
    assert peaks[1] <= 1.01 * peaks[0]


class _AdviceLog:
    """Stands in for a memmap's mmap: records the ranges it is told to drop."""

    def __init__(self):
        self.calls = []

    def madvise(self, option, start, length):
        self.calls.append((start, length))


@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTNEED"), reason="no madvise")
def test_release_rows_started_mid_file_drops_nothing_before_its_first_row(
        tmp_path, monkeypatch):
    # one page per row; the 40-byte header puts each row 40 bytes into a page
    page, n = mmap.PAGESIZE, 12
    m = page // 4
    vol = VolumeSeries(dims=(n, 1, 1), series=np.zeros((n, m)),
                       grid=TimeGrid.uniform(0.0, 1.0, m))
    save_volume_civt(vol, tmp_path / "v.civt")
    series = load_volume(tmp_path / "v.civt", "civt").series
    log = _AdviceLog()
    monkeypatch.setattr(series, "_mmap", log)
    pipeline._release_rows(series, 5, 9)
    assert log.calls == [(5 * page, 4 * page)]
    pipeline._release_rows(series, 9, 9)
    assert log.calls == [(5 * page, 4 * page)]


@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTNEED"), reason="no madvise")
@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 3000), block=st.integers(1, 9),
       rows=st.lists(st.integers(0, 40), min_size=2, max_size=2, unique=True))
def test_a_task_releases_the_pages_of_its_rows_once_in_order(m, block, rows):
    """The blocks of one task drop abutting page ranges, from the page where
    its first row begins to the page where the row after its last begins."""
    lo, hi = sorted(rows)
    n = 40
    vol = VolumeSeries(dims=(n, 1, 1), series=np.zeros((n, m)),
                       grid=TimeGrid.uniform(0.0, 1.0, m))
    design = design_matrix(make_bspline_system((0.0, 1.0), 4), vol.grid)
    with tempfile.TemporaryDirectory() as tmp:
        save_volume_civt(vol, Path(tmp) / "v.civt")
        vol = load_volume(Path(tmp) / "v.civt", "civt")
        log = _AdviceLog()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vol.series, "_mmap", log)
            patch.setattr(pipeline, "_STAGE1_ROWS", block)
            pipeline._filter_rows((vol, design, RunConfig(d=4, detrend=False),
                                   np.empty((n, 4))), (lo, hi))
        del vol

    def page_of(row):
        offset = 40 + row * m * 4       # the CIVT header is 40 bytes
        return offset - offset % mmap.PAGESIZE

    assert all(length > 0 for _, length in log.calls)
    ends = [page_of(lo)] + [start + length for start, length in log.calls]
    assert [start for start, _ in log.calls] == ends[:-1]
    assert ends[-1] == page_of(hi)


def stage1_coefficients(vol, design, detrended, jobs):
    """Stage 1 as `run_two_stage` runs it: the row-range tasks of
    `_filter_rows` on a `TaskPool`, writing into a `_shared_rows` matrix."""
    coefs = pipeline._shared_rows(vol.n, design.d)
    cfg = RunConfig(d=design.d, detrend=detrended)
    with TaskPool((vol, design, cfg, coefs), jobs) as pool:
        pool.map(pipeline._filter_rows, pipeline._stage1_tasks(vol.n, vol.m),
                 cost=lambda rows: rows[1] - rows[0])
    return coefs


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 30), st.integers(2, 40), st.integers(4, 12), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_stage1_coefficients_do_not_depend_on_the_block_size(n, m, d, detrended, seed):
    """Block sizes 1, 7 and the default, tasks of one block and of the
    default size, and 1 or 2 processes give the same bits, for in-memory
    and file-backed series alike; m < d gives a rank-deficient design."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid.uniform(0.0, 2.0, m)
    t = grid.points
    series = (rng.standard_normal((n, m)) * rng.uniform(0.1, 100.0)
              + rng.uniform(-50.0, 50.0) + rng.standard_normal((n, 1)) * t)
    series = series.astype(np.float32).astype(float)
    vol = VolumeSeries(dims=(n, 1, 1), series=series, grid=grid)
    design = design_matrix(make_bspline_system((0.0, 2.0), d), grid)
    assert design.singular or m >= d
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vol.civt"
        save_volume_civt(vol, path)
        mapped = load_volume(path, "civt")
        results = []
        for rows, values, jobs in itertools.product(
                (1, 7, pipeline._STAGE1_ROWS), (1, pipeline._STAGE1_TASK_VALUES), (1, 2)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline, "_STAGE1_ROWS", rows)
                mp.setattr(pipeline, "_STAGE1_TASK_VALUES", values)
                for source in (vol, mapped):
                    results.append(stage1_coefficients(source, design, detrended, jobs))
        del mapped
    for coefs in results[1:]:
        np.testing.assert_array_equal(coefs, results[0])


DIMS = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(DIMS, st.integers(1, 6), st.data())
def test_civt_round_trip_for_any_small_dims(dims, m, data):
    n = dims[0] * dims[1] * dims[2]
    series = data.draw(hnp.arrays(np.float32, (n, m),
                                  elements=st.floats(-1e6, 1e6, width=32)))
    t_lo = data.draw(st.floats(-1e3, 1e3))
    grid = TimeGrid.uniform(t_lo, t_lo + data.draw(st.floats(1e-3, 1e3)), m)
    vol = VolumeSeries(dims=dims, series=series, grid=grid)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vol.civt"
        save_volume_civt(vol, path)
        back = load_volume(path, "civt")
    assert back.dims == dims
    np.testing.assert_array_equal(back.series, vol.series)
    assert (back.grid.t_lo, back.grid.t_hi) == (grid.t_lo, grid.t_hi)
    np.testing.assert_array_equal(back.grid.points, grid.points)


@settings(max_examples=60, deadline=None)
@given(DIMS, st.integers(1, 0xFFFF), st.data())
def test_civl_round_trip_for_any_small_dims(dims, k, data):
    n = dims[0] * dims[1] * dims[2]
    labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(1, k)))
    trimmed = data.draw(hnp.arrays(np.bool_, n))
    cv = ClusterVolume(dims=dims, labels=labels, trimmed=trimmed, k=k)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.civl"
        save_labels_civl(cv, path)
        back = load_labels_civl(path)
    assert (back.dims, back.k) == (dims, k)
    np.testing.assert_array_equal(back.labels, labels)
    np.testing.assert_array_equal(back.trimmed, trimmed)


class TestNormalizeColumns:
    def test_zero_mean_unit_sd(self):
        rng = np.random.default_rng(2)
        coefs = rng.normal(3.0, 2.0, size=(50, 4))
        normed, stats = normalize_columns(coefs)
        assert np.abs(normed.mean(axis=0)).max() < 1e-10
        assert np.abs(normed.std(axis=0, ddof=1) - 1.0).max() < 1e-10

    def test_constant_column_centered_with_unit_scale(self):
        values = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        normed, stats = normalize_columns(values)
        assert np.all(normed[:, 0] == 0.0)
        assert stats.sds[0] == 1.0

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(30, 5)) * [1, 10, 100, 0.1, 1]
        normed, stats = normalize_columns(values.copy())
        back = stats.denormalize_rows(normed)
        np.testing.assert_allclose(back, values, atol=1e-10)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            normalize_columns(np.ones((1, 3)))

    def test_normalizes_in_place_without_an_n_by_d_temporary(self):
        n, d = 20000, 8
        values = np.random.default_rng(4).normal(size=(n, d))
        tracemalloc.start()
        try:
            normed, _ = normalize_columns(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(normed, values)
        assert peak < n * d * 8 / 8


ROWS = pipeline._STAGE1_ROWS


# d >= 2: numpy sums a single contiguous column pairwise, not row by row
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 88, 4 * ROWS + 6]),
       st.integers(2, 12), st.integers(0, 11), st.integers(0, 2 ** 32 - 1))
def test_blockwise_normalization_has_the_bits_of_numpy_mean_and_std(n, d, flat, seed):
    """Means, SDs and normalized values equal mean(axis=0),
    std(axis=0, ddof=1) and (values - means) / sds exactly, for n below, at
    and above the block size; column `flat` (when < d) has zero variance."""
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, d)
              + rng.uniform(-1e3, 1e3, d))
    if flat < d:
        values[:, flat] = rng.integers(-5, 6)    # an exact mean: zero variance
    means = values.mean(axis=0)
    sds = values.std(axis=0, ddof=1)
    sds[sds == 0.0] = 1.0
    expected = (values - means) / sds
    normed, stats = normalize_columns(values)
    np.testing.assert_array_equal(stats.means, means)
    np.testing.assert_array_equal(stats.sds, sds)
    np.testing.assert_array_equal(normed, expected)
    if flat < d:
        assert stats.sds[flat] == 1.0


class TestClusterMapExport:
    def test_csv_and_civl_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 2 * 3 * 2
        cv = ClusterVolume(dims=(2, 3, 2),
                           labels=rng.integers(1, 5, n),
                           trimmed=rng.random(n) < 0.3, k=4)
        csv_path = tmp_path / "labels.csv"
        civl_path = tmp_path / "labels.civl"
        export_cluster_map(cv, csv_path, civl_path)
        back = load_labels_civl(civl_path)
        np.testing.assert_array_equal(back.labels, cv.labels)
        np.testing.assert_array_equal(back.trimmed, cv.trimmed)
        assert back.dims == cv.dims and back.k == cv.k

    def test_csv_order_is_x_fastest(self, tmp_path):
        cv = ClusterVolume(dims=(2, 2, 1), labels=[1, 2, 3, 4],
                           trimmed=[False] * 4, k=4)
        path = tmp_path / "labels.csv"
        export_cluster_map(cv, path, tmp_path / "labels.civl")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,z,label,trimmed"
        assert lines[1:] == ["0,0,0,1,0", "1,0,0,2,0", "0,1,0,3,0", "1,1,0,4,0"]

    def test_csv_bytes_of_a_non_cubic_volume_with_trimmed_voxels(self, tmp_path):
        cv = ClusterVolume(dims=(3, 2, 2), labels=[1, 2, 3, 1, 2, 3, 3, 2, 1, 1, 1, 2],
                           trimmed=np.isin(np.arange(12), [2, 7, 11]), k=3)
        path = tmp_path / "labels.csv"
        export_cluster_map(cv, path, tmp_path / "labels.civl")
        assert path.read_bytes() == (
            b"x,y,z,label,trimmed\r\n"
            b"0,0,0,1,0\r\n1,0,0,2,0\r\n2,0,0,3,1\r\n"
            b"0,1,0,1,0\r\n1,1,0,2,0\r\n2,1,0,3,0\r\n"
            b"0,0,1,3,0\r\n1,0,1,2,1\r\n2,0,1,1,0\r\n"
            b"0,1,1,1,0\r\n1,1,1,1,0\r\n2,1,1,2,1\r\n")

    def test_out_of_range_labels_rejected_at_write(self, tmp_path):
        cv = ClusterVolume(dims=(2, 1, 1), labels=[1, 2], trimmed=[False, False], k=2)
        cv.labels[1] = 7  # corrupt after construction
        with pytest.raises(ValueError):
            export_cluster_map(cv, tmp_path / "x.csv", tmp_path / "x.civl")
        with pytest.raises(ValueError):
            save_labels_civl(cv, tmp_path / "x.civl")

    def test_labels_above_the_civl_range_are_refused_before_either_file_opens(
            self, tmp_path):
        # the CSV used to be written before the CIVL writer refused the labels
        cv = ClusterVolume(dims=(2, 1, 1), labels=[1, 70000], trimmed=[False, True],
                           k=70000)
        with pytest.raises(ValueError, match="labels exceed 65535"):
            export_cluster_map(cv, tmp_path / "x.csv", tmp_path / "x.civl")
        assert list(tmp_path.iterdir()) == []

    def test_construction_validates_range(self):
        with pytest.raises(ValueError):
            ClusterVolume(dims=(1, 1, 1), labels=[3], trimmed=[False], k=2)

    def test_empty_volume_refused(self, tmp_path):
        with pytest.raises(ValueError, match="at least one voxel"):
            ClusterVolume(dims=(0, 3, 2), labels=[], trimmed=[], k=1)
        # a CIVL file of zero voxels: the header alone
        path = tmp_path / "empty.civl"
        path.write_bytes(b"CIVL" + np.array([1, 3, 0, 2, 1], dtype="<u4").tobytes())
        with pytest.raises(ValueError, match="at least one voxel, got dims 3x0x2"):
            load_labels_civl(path)


class TestMeanFunctionExport:
    def test_zero_coefficients_zero_curve(self, tmp_path):
        grid = TimeGrid.uniform(0, 1, 5)
        mf = MeanFunctions(grid=grid, values=np.zeros((1, 5)))
        path = tmp_path / "means.csv"
        export_mean_functions(mf, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,mu_1"
        assert all(line.split(",")[1] == "0.0" for line in lines[1:])

    def test_values_equal_reconstruction(self, tmp_path):
        system = make_bspline_system((0.0, 1.0), 7)
        grid = TimeGrid.uniform(0.0, 1.0, 12)
        design = design_matrix(system, grid)
        rng = np.random.default_rng(5)
        coef_means = rng.normal(size=(3, 7))
        values = coef_means @ design.matrix.T
        mf = MeanFunctions(grid=grid, values=values)
        path = tmp_path / "means.csv"
        export_mean_functions(mf, path)
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
        for j, row in enumerate(rows):
            for c in range(3):
                expected = coef_means[c] @ design.matrix[j]
                assert float(row[c + 1]) == pytest.approx(expected, abs=1e-10)


class TestRenderSlice:
    def _volume(self):
        labels = np.arange(1, 9)
        return ClusterVolume(dims=(2, 2, 2), labels=labels,
                             trimmed=[False] * 7 + [True], k=8)

    def test_single_pixel_palette(self, tmp_path):
        from fdcluster.pipeline import PALETTE
        cv = ClusterVolume(dims=(1, 1, 1), labels=[1], trimmed=[False], k=1)
        path = tmp_path / "s.ppm"
        render_slice(cv, "z", 0, path)
        data = path.read_bytes()
        assert data.startswith(b"P6\n1 1\n255\n")
        assert data[-3:] == bytes(PALETTE[1])

    def test_trimmed_rendered_black(self, tmp_path):
        cv = self._volume()
        path = tmp_path / "s.ppm"
        render_slice(cv, "z", 1, path)
        data = path.read_bytes()
        # last pixel of the z=1 slice is voxel (1,1,1): trimmed
        assert data[-3:] == b"\x00\x00\x00"

    def test_uniform_labels_uniform_image(self, tmp_path):
        cv = ClusterVolume(dims=(3, 2, 1), labels=[2] * 6, trimmed=[False] * 6, k=2)
        path = tmp_path / "u.ppm"
        render_slice(cv, "z", 0, path)
        body = path.read_bytes().split(b"255\n", 1)[1]
        assert len(set(body[i:i + 3] for i in range(0, len(body), 3))) == 1

    def test_deterministic_bytes(self, tmp_path):
        cv = self._volume()
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        render_slice(cv, "y", 0, a)
        render_slice(cv, "y", 0, b)
        assert a.read_bytes() == b.read_bytes()

    def test_axis_bounds_checked(self, tmp_path):
        cv = self._volume()
        with pytest.raises(ValueError):
            render_slice(cv, "z", 2, tmp_path / "x.ppm")
        with pytest.raises(ValueError):
            render_slice(cv, "w", 0, tmp_path / "x.ppm")


    def test_orientation_on_every_axis(self, tmp_path):
        # dims (4, 3, 2): every slice shape differs, so a transposed plane
        # has the wrong width or height; the z = 1 voxels reuse the colors
        # of z = 0 voxels that differ in x and y, so no two voxels of one
        # slice share a color and a flipped plane shows
        nx, ny, nz = 4, 3, 2
        labels = np.array([1 + y * nx + x if z == 0
                           else 17 + ((y + 1) % ny) * nx + (x + 1) % nx
                           for z in range(nz) for y in range(ny) for x in range(nx)])
        trimmed = np.zeros(nx * ny * nz, dtype=bool)
        trimmed[[0, 7, 13, 22]] = True
        cv = ClusterVolume(dims=(nx, ny, nz), labels=labels, trimmed=trimmed, k=28)

        def pixel(x, y, z):
            voxel = (z * ny + y) * nx + x
            return b"\x00\x00\x00" if trimmed[voxel] else bytes(pipeline.PALETTE[labels[voxel] % 16])

        # (axis, size, width, height, voxel of the pixel in row r, column c)
        layouts = [("z", nz, nx, ny, lambda i, r, c: (c, r, i)),    # x across, y down
                   ("y", ny, nx, nz, lambda i, r, c: (c, i, r)),    # x across, z down
                   ("x", nx, ny, nz, lambda i, r, c: (i, c, r))]    # y across, z down
        for axis, size, width, height, voxel in layouts:
            for index in range(size):
                path = tmp_path / f"{axis}{index}.ppm"
                render_slice(cv, axis, index, path)
                expected = b"".join(pixel(*voxel(index, r, c))
                                    for r in range(height) for c in range(width))
                assert path.read_bytes() == f"P6\n{width} {height}\n255\n".encode() + expected


class TestRunTwoStage:
    def test_blocked_volume_recovers_three_classes(self):
        vol, truth = blocked_volume()
        cfg = RunConfig(d=12, k_set=tuple(range(2, 7)), restarts=8, seed=5,
                        alpha=0.0, lam=0.1)
        result = run_two_stage(vol, cfg)
        assert result.k_hat == 3
        labels = result.cluster_volume.labels
        purity = 0
        for c in (1, 2, 3):
            counts = np.bincount(labels[truth == c])
            purity += counts.max()
        assert purity / vol.n >= 0.99
        assert result.mean_functions.values.shape == (3, vol.m)
        assert sorted(result.fits) == list(range(2, 7))

    def test_determinism(self):
        vol, _ = blocked_volume()
        cfg = RunConfig(d=10, k_set=(2, 3, 4, 5), restarts=4, seed=9, lam=0.1)
        a = run_two_stage(vol, cfg)
        b = run_two_stage(vol, cfg)
        np.testing.assert_array_equal(a.cluster_volume.labels,
                                      b.cluster_volume.labels)
        # everything but the wall-time column must coincide exactly
        assert [r[:3] for r in a.trace.records] == [r[:3] for r in b.trace.records]
        assert a.slope.kappa == b.slope.kappa
        np.testing.assert_array_equal(a.mean_functions.values,
                                      b.mean_functions.values)

    def test_single_voxel_single_k_smoke(self):
        # one series can be fitted untrimmed and unnormalized, with no warning
        cfg = RunConfig(d=6, k_set=(1,), restarts=2, seed=0, normalize=False)
        result = run_two_stage(one_series_volume(), cfg)
        assert result.cluster_volume.labels.tolist() == [1]
        assert result.cluster_volume.trimmed.tolist() == [False]
        assert result.slope is None and result.stats is None

    def test_candidates_above_n_are_refused_before_stage1(self, monkeypatch):
        # 12 voxels: alpha 0 keeps all 12, so k up to 12 is fitted and the
        # candidates above are refused before any series is read; alpha 0.5
        # keeps 6, so k = 7..12 are refused too
        vol, _ = blocked_volume(nx=2, ny=2, nz=3)

        def stage1(*args):
            raise AssertionError("stage 1 ran")

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "_filter_rows", stage1)
            for alpha, kept, above in ((0.0, 12, range(13, 17)),
                                       (0.5, 6, range(7, 17))):
                cfg = RunConfig(d=8, k_set=range(2, 17), alpha=alpha,
                                restarts=2, seed=0)
                with pytest.raises(ValueError, match=re.escape(
                        f"candidates {list(above)} exceed the {kept} voxels "
                        f"kept of 12 at alpha={alpha}")):
                    run_two_stage(vol, cfg)
        for alpha, k_max in ((0.0, 12), (0.5, 6)):
            cfg = RunConfig(d=8, k_set=range(2, k_max + 1), alpha=alpha,
                            restarts=2, seed=0)
            result = run_two_stage(vol, cfg)
            assert result.trace.k_values == list(range(2, k_max + 1))
            assert int(result.cluster_volume.trimmed.sum()) == 12 - k_max

    @pytest.mark.parametrize("n, settings, message", [
        (12, dict(k_set=(2, 3, 4)),
         "the slope needs at least 4 candidates, got 3"),
        (12, dict(k_set=(2, 5)), "the slope needs at least 4 candidates, got 2"),
        (1, dict(k_set=(1,)), "normalization needs at least two series"),
    ], ids=["three-candidates", "two-candidates", "normalize-one"])
    def test_settings_the_volume_cannot_support_are_refused_before_stage1(
            self, monkeypatch, n, settings, message):
        def stage1(*args):
            raise AssertionError("stage 1 ran")

        monkeypatch.setattr(pipeline, "_filter_rows", stage1)
        vol = one_series_volume() if n == 1 else blocked_volume(nx=2, ny=2, nz=3)[0]
        with pytest.raises(ValueError, match=re.escape(message)):
            run_two_stage(vol, RunConfig(d=8, restarts=2, seed=0, **settings))

    def test_normalization_neutrality_for_mean_curves(self):
        # de-normalized cluster means reconstruct the same curves as the
        # per-cluster average of the raw coefficients
        vol, _ = blocked_volume(noise=0.2)
        cfg = RunConfig(d=12, k_set=(3,), restarts=8, seed=1, alpha=0.0,
                        detrend=False)
        result = run_two_stage(vol, cfg)
        system = make_bspline_system((vol.grid.t_lo, vol.grid.t_hi), cfg.d)
        design = design_matrix(system, vol.grid)
        from fdcluster.basis import ols_fit
        raw = ols_fit(design, vol.series)
        labels = result.cluster_volume.labels
        for c in range(1, 4):
            direct = raw[labels == c].mean(axis=0) @ design.matrix.T
            np.testing.assert_allclose(result.mean_functions.values[c - 1],
                                       direct, atol=1e-6)

    def test_trimmed_count_propagates(self):
        vol, _ = blocked_volume()
        cfg = RunConfig(d=10, k_set=(3,), restarts=6, seed=2, alpha=0.2)
        result = run_two_stage(vol, cfg)
        n = vol.n
        expected = n - int(np.floor(round(n * 0.8, 9)))
        assert int(result.cluster_volume.trimmed.sum()) == expected
