"""End-to-end orchestration and I/O for volumetric time-series clustering.

Ingests a volume of voxel time series, detrends and filters each series to
basis coefficients, z-scores the coefficient columns, sweeps trimmed
k-means over the candidate cluster counts, calibrates the selection rule
from the sweep, allocates every voxel, and exports label volumes, mean
functions, and slice images.

File formats (little-endian throughout):

* CIVT volume: magic ``CIVT``, u32 version=1, u32 nx, ny, nz, m,
  f64 t_lo, t_hi, then n*m float32 intensities, voxel-major with x
  fastest and time contiguous per voxel.
* CIVL labels: magic ``CIVL``, u32 version=1, u32 nx, ny, nz, u32 k,
  then n records of (u16 label, u8 trimmed).
* Volume CSV: header ``x,y,z,t1..tm``, one row per voxel.
* Label CSV: header ``x,y,z,label,trimmed`` in x-fastest order.
"""

from __future__ import annotations

import csv
import math
import mmap
import numbers
import os
import struct
import time
from dataclasses import dataclass

import numpy as np

from .basis import (TimeGrid, coef_values, design_matrix, detrend,
                    make_bspline_system, ols_fit)
from .mixtures import spherical_log_likelihood
from .selection import (MIN_WINDOW, SelectionTrace, SlopeEstimate,
                        SlopeEstimationError, estimate_slope_ddse,
                        penalty_spherical, select_k)
from .tclust import (ClusterFit, TrimSpec, allocate_all, map_tasks, seed_int,
                     trimmed_kmeans)

_CIVT_MAGIC = b"CIVT"
_CIVL_MAGIC = b"CIVL"
_FORMAT_VERSION = 1
_CIVT_HEADER_BYTES = 40     # magic, five u32, two f64

# Voxels filtered together in stage 1, and rows per block of the squared
# deviations in `normalize_columns`. Each stage-1 task converts its blocks
# into one float64 buffer, detrended in place; the stage-1 kernels work per
# row, so the coefficients do not depend on this number.
_STAGE1_ROWS = 256

# Series values per stage-1 task (about 0.1 s of filtering): a task is the
# most whole blocks that fit in this, and at least one block. A volume that
# fits in one task is filtered in the calling process.
_STAGE1_TASK_VALUES = 2 ** 23

# 16 fixed colors; slice images index them by label mod 16, trimmed voxels
# render black.
PALETTE = np.array([
    (230, 159, 0), (86, 180, 233), (0, 158, 115), (240, 228, 66),
    (0, 114, 178), (213, 94, 0), (204, 121, 167), (153, 153, 153),
    (128, 0, 128), (60, 179, 113), (255, 99, 71), (70, 130, 180),
    (255, 215, 0), (139, 69, 19), (0, 206, 209), (255, 105, 180),
], dtype=np.uint8)


@dataclass
class VolumeSeries:
    """nx*ny*nz voxel time series on one shared grid, x-fastest order.

    In-memory series are stored as float64 and checked to be finite here. A
    file-backed series (an ``np.memmap``, as `load_volume` returns for CIVT)
    is kept as mapped and checked block by block as stage 1 reads it.
    """

    dims: tuple                # (nx, ny, nz)
    series: np.ndarray         # (n, m) float64, or a read-only float32 np.memmap
    grid: TimeGrid

    def __post_init__(self):
        nx, ny, nz = self.dims
        mapped = isinstance(self.series, np.memmap)
        if not mapped:
            self.series = np.asarray(self.series, dtype=float)
        if self.series.ndim != 2:
            raise ValueError("series must be an n x m matrix")
        if self.series.shape[0] != nx * ny * nz:
            raise ValueError(
                f"dims {self.dims} declare {nx * ny * nz} voxels but "
                f"{self.series.shape[0]} series are present")
        if self.series.shape[1] != self.grid.m:
            raise ValueError("series length does not match the grid")
        if not mapped and not np.all(np.isfinite(self.series)):
            raise ValueError("volume contains non-finite values")

    @property
    def n(self) -> int:
        return self.series.shape[0]

    @property
    def m(self) -> int:
        return self.series.shape[1]


def _is_integer(value) -> bool:
    """An integer that is not a bool (JSON true would otherwise pass as 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class RunConfig:
    """Knobs for one end-to-end run; mirrored by the JSON config file."""

    d: int = 100
    lam: float = 1.0
    alpha: float = 0.0
    k_set: tuple = tuple(range(2, 51))
    restarts: int = 20
    max_iter: int = 20
    seed: int = 0
    detrend: bool = True
    normalize: bool = True

    def __post_init__(self):
        # values read from a JSON file arrive unchecked: "false" is truthy
        # and "8" does not compare with 4, so types are checked first
        for name in ("detrend", "normalize"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false")
        for name in ("d", "restarts", "max_iter", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        for name in ("lam", "alpha"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be a positive finite number")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        try:
            entries = tuple(self.k_set)
        except TypeError:
            raise ValueError("k_set must be a list of integers") from None
        if not all(_is_integer(k) for k in entries):
            raise ValueError("k_set must be a list of integers")
        self.k_set = tuple(int(k) for k in entries)
        if not self.k_set or any(k < 1 for k in self.k_set):
            raise ValueError("k_set must be a nonempty set of positive counts")
        if len(set(self.k_set)) != len(self.k_set):
            raise ValueError("k_set contains duplicates")
        TrimSpec(self.alpha)        # refuses an alpha outside [0, 1)
        if self.d < 4 or self.restarts < 1 or self.max_iter < 1:
            raise ValueError("d, restarts, max_iter must be positive (d >= 4)")


@dataclass
class ClusterVolume:
    """Per-voxel cluster labels (1..k) and trim flags, x-fastest order."""

    dims: tuple
    labels: np.ndarray     # (n,) int in 1..k
    trimmed: np.ndarray    # (n,) bool
    k: int

    def __post_init__(self):
        nx, ny, nz = self.dims
        n = nx * ny * nz
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.trimmed = np.asarray(self.trimmed, dtype=bool)
        if self.labels.shape != (n,) or self.trimmed.shape != (n,):
            raise ValueError("labels/trimmed do not match the volume dims")
        self.validate()

    def validate(self) -> None:
        """Check the label range; the writers call it again, as the labels
        array can change after construction."""
        if self.labels.min() < 1 or self.labels.max() > self.k:
            raise ValueError(f"labels must lie in 1..{self.k}")

    def grid3d(self) -> np.ndarray:
        nx, ny, nz = self.dims
        return self.labels.reshape(nz, ny, nx)   # [z, y, x]


@dataclass
class MeanFunctions:
    """Cluster mean curves sampled on the grid, in original data units."""

    grid: TimeGrid
    values: np.ndarray       # (k, m)


@dataclass
class ColumnStats:
    """Per-column centering/scaling used to normalize a coefficient set."""

    means: np.ndarray
    sds: np.ndarray

    def denormalize_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows, dtype=float) * self.sds + self.means


def normalize_columns(B) -> tuple[np.ndarray, ColumnStats]:
    """Z-score each coefficient column (sample SD, ddof=1) of an n x d matrix.

    `coef_values(B)` (B itself when B is a C-contiguous float64 array) is
    normalized in place and returned with its `ColumnStats`, with no n x d
    temporary: the squared deviations are summed block by block, carrying
    the running sum in the row order of `std(axis=0, ddof=1)`. For d >= 2
    the result has the bits of `(B - B.mean(0)) / B.std(0, ddof=1)`; numpy
    sums a single column pairwise instead.

    Zero-variance columns are centered only and recorded with scale 1 so
    de-normalization is exact.
    """
    values = coef_values(B)
    n, d = values.shape
    if n < 2:
        raise ValueError("normalization needs at least two series")
    means = values.mean(axis=0)
    # row 0 carries the running sum; 0.0 + x is x for the squares x >= 0
    scratch = np.zeros((_STAGE1_ROWS + 1, d))
    for start in range(0, n, _STAGE1_ROWS):
        block = values[start:start + _STAGE1_ROWS]
        squares = scratch[1:block.shape[0] + 1]
        np.subtract(block, means, out=squares)
        np.square(squares, out=squares)
        scratch[0] = np.add.reduce(scratch[:block.shape[0] + 1], axis=0)
    sds = np.sqrt(scratch[0] / (n - 1))
    sds[sds == 0.0] = 1.0
    values -= means
    values /= sds
    return values, ColumnStats(means=means, sds=sds)


# ---------------------------------------------------------------------------
# volume ingestion

def _read_exact(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError("unexpected end of file")
    return data


def save_volume_civt(vol: VolumeSeries, path) -> None:
    nx, ny, nz = vol.dims
    with open(path, "wb") as fh:
        fh.write(_CIVT_MAGIC)
        fh.write(struct.pack("<5I", _FORMAT_VERSION, nx, ny, nz, vol.m))
        fh.write(struct.pack("<2d", vol.grid.t_lo, vol.grid.t_hi))
        fh.write(np.ascontiguousarray(vol.series, dtype="<f4").tobytes())


def _load_civt(path) -> VolumeSeries:
    """Check the header and the file size, then map the payload read-only.

    No payload byte is read here: stage 1 reads the mapping block by block.
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != _CIVT_MAGIC:
            raise ValueError(f"{path} is not a CIVT volume")
        version, nx, ny, nz, m = struct.unpack("<5I", _read_exact(fh, 20))
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported CIVT version {version}")
        t_lo, t_hi = struct.unpack("<2d", _read_exact(fh, 16))
        payload = os.fstat(fh.fileno()).st_size - _CIVT_HEADER_BYTES
    n = nx * ny * nz
    if payload < 4 * n * m:
        raise ValueError("unexpected end of file")
    if payload > 4 * n * m:
        raise ValueError("trailing bytes after CIVT payload")
    grid = TimeGrid.uniform(t_lo, t_hi, m)
    series = np.memmap(path, dtype="<f4", mode="r",
                       offset=_CIVT_HEADER_BYTES, shape=(n, m))
    return VolumeSeries(dims=(nx, ny, nz), series=series, grid=grid)


def _load_csv_volume(path) -> VolumeSeries:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["x", "y", "z"]:
            raise ValueError(f"malformed volume CSV header in {path}")
        m = len(header) - 3
        if m < 1:
            raise ValueError("volume CSV has no time columns")
        coords = []
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != 3 + m:
                raise ValueError("volume CSV row width does not match header")
            coords.append((int(row[0]), int(row[1]), int(row[2])))
            rows.append([float(v) for v in row[3:]])
    if not rows:
        raise ValueError("volume CSV has no voxel rows")
    coords = np.asarray(coords, dtype=np.int64)
    if coords.min() < 0:
        raise ValueError("voxel coordinates must be nonnegative")
    nx, ny, nz = (int(coords[:, i].max()) + 1 for i in range(3))
    n = nx * ny * nz
    if len(rows) != n:
        raise ValueError(
            f"dims ({nx}, {ny}, {nz}) declare {n} voxels but {len(rows)} rows are present")
    series = np.empty((n, m))
    seen = np.zeros(n, dtype=bool)
    flat = coords[:, 0] + nx * (coords[:, 1] + ny * coords[:, 2])
    for idx, values in zip(flat, rows):
        if seen[idx]:
            raise ValueError("duplicate voxel coordinates in volume CSV")
        seen[idx] = True
        series[idx] = values
    grid = TimeGrid.uniform(1.0, float(max(m, 1)), m)
    return VolumeSeries(dims=(nx, ny, nz), series=series, grid=grid)


def load_volume(path, format: str) -> VolumeSeries:
    """Read a volume from ``civt`` binary or ``csv`` text."""
    if format == "civt":
        return _load_civt(path)
    if format == "csv":
        return _load_csv_volume(path)
    raise ValueError(f"unknown volume format {format!r}")


# ---------------------------------------------------------------------------
# exporters

def export_cluster_map(cv: ClusterVolume, csv_path, civl_path) -> None:
    """Write labels as CSV (x-fastest order) and as CIVL binary."""
    cv.validate()
    nx, ny, nz = cv.dims
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "label", "trimmed"])
        z, y, x = np.unravel_index(np.arange(cv.labels.size), (nz, ny, nx))
        writer.writerows(zip(x.tolist(), y.tolist(), z.tolist(),
                             cv.labels.astype(np.int64).tolist(),
                             cv.trimmed.astype(np.int64).tolist()))
    save_labels_civl(cv, civl_path)


def save_labels_civl(cv: ClusterVolume, path) -> None:
    cv.validate()
    nx, ny, nz = cv.dims
    if cv.labels.max() > 0xFFFF:
        raise ValueError("labels exceed the u16 range of the CIVL format")
    records = np.empty(cv.labels.size, dtype=[("label", "<u2"), ("trimmed", "u1")])
    records["label"] = cv.labels
    records["trimmed"] = cv.trimmed
    with open(path, "wb") as fh:
        fh.write(_CIVL_MAGIC)
        fh.write(struct.pack("<5I", _FORMAT_VERSION, nx, ny, nz, cv.k))
        fh.write(records.tobytes())


def load_labels_civl(path) -> ClusterVolume:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != _CIVL_MAGIC:
            raise ValueError(f"{path} is not a CIVL label volume")
        version, nx, ny, nz, k = struct.unpack("<5I", _read_exact(fh, 20))
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported CIVL version {version}")
        n = nx * ny * nz
        raw = _read_exact(fh, 3 * n)
        if fh.read(1):
            raise ValueError("trailing bytes after CIVL payload")
    records = np.frombuffer(raw, dtype=[("label", "<u2"), ("trimmed", "u1")])
    return ClusterVolume(dims=(nx, ny, nz),
                         labels=records["label"].astype(np.int64),
                         trimmed=records["trimmed"].astype(bool), k=k)


def export_mean_functions(mf: MeanFunctions, path) -> None:
    """CSV of the mean curves: t, mu_1..mu_k sampled on the grid."""
    k = mf.values.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"mu_{c + 1}" for c in range(k)])
        for j, t in enumerate(mf.grid.points):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in mf.values[:, j]])


def render_slice(cv: ClusterVolume, axis: str, index: int, path) -> None:
    """Write one slice as a binary PPM (P6), one pixel per voxel.

    z slices have x across and y down; y slices x across, z down;
    x slices y across, z down. Trimmed voxels are black.
    """
    grid = cv.grid3d()                         # [z, y, x]
    trimmed = cv.trimmed.reshape(grid.shape)
    nx, ny, nz = cv.dims
    sizes = {"x": nx, "y": ny, "z": nz}
    if axis not in sizes:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    if not 0 <= index < sizes[axis]:
        raise ValueError(f"index {index} outside axis {axis} of size {sizes[axis]}")
    if axis == "z":
        plane, mask = grid[index], trimmed[index]
    elif axis == "y":
        plane, mask = grid[:, index, :], trimmed[:, index, :]
    else:
        plane, mask = grid[:, :, index], trimmed[:, :, index]
    pixels = PALETTE[plane % 16]
    pixels[mask] = 0
    height, width = plane.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


# ---------------------------------------------------------------------------
# orchestration

def _release_rows(series: np.ndarray, start: int, stop: int) -> None:
    """Drop this process's mapped pages of a file-backed series from the
    page where row `start` begins up to, not including, the page where row
    `stop` begins: pages that hold no row from `stop` on. In-memory series
    have nothing to drop.

    Mapped file pages count towards the resident set (and its peak) until
    unmapped, so a pass over a mapped volume would otherwise end with the
    whole file resident. On a read-only mapping MADV_DONTNEED drops only the
    references; the data stays in the page cache.
    """
    mapping = getattr(series, "_mmap", None)     # numpy's mmap of a np.memmap
    if mapping is None or not hasattr(mmap, "MADV_DONTNEED"):
        return
    # np.memmap maps from the allocation boundary below its file offset
    base = series.offset % mmap.ALLOCATIONGRANULARITY
    row_bytes = series.shape[1] * series.itemsize
    lo, hi = (base + row * row_bytes for row in (start, stop))
    lo -= lo % mmap.PAGESIZE
    hi -= hi % mmap.PAGESIZE
    if hi > lo:
        mapping.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


def _filter_rows(shared, rows) -> None:
    """Filter rows [lo, hi) into `coefs` in place, one block at a time
    through one float64 buffer, and release the mapped pages this task read."""
    vol, design, detrended, coefs = shared
    lo, hi = rows
    buffer = np.empty((min(_STAGE1_ROWS, hi - lo), vol.m))
    for start in range(lo, hi, _STAGE1_ROWS):
        stop = min(start + _STAGE1_ROWS, hi)
        block = buffer[:stop - start]
        block[...] = vol.series[start:stop]
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            voxel = start + int(np.argmin(finite))
            raise ValueError(f"volume contains non-finite values (voxel {voxel})")
        if detrended:
            detrend(block, vol.grid)
        coefs[start:stop] = ols_fit(design, block)
        _release_rows(vol.series, start, stop)


def _stage1_coefficients(vol: VolumeSeries, design, detrended: bool,
                         jobs: int = 1) -> np.ndarray:
    """Raw n x d coefficients, filtered in blocks of `_STAGE1_ROWS` voxels.

    Each block is converted into its task's one float64 buffer, checked to
    be finite, detrended in place when asked and projected. `detrend` and
    `ols_fit` are looked up in this module's globals on every block.

    The rows are split into tasks of whole blocks, about
    `_STAGE1_TASK_VALUES` series values each, run on up to `jobs`
    processes (`map_tasks`). The tasks write into one anonymous shared
    mapping, so no row is pickled and this process reads no series when the
    tasks run in workers. A non-finite value raises ValueError naming the
    lowest such voxel, whatever `jobs` is.
    """
    n, d = vol.n, design.d
    # MAP_SHARED (mmap's default), so rows written by a forked worker land here
    coefs = np.frombuffer(mmap.mmap(-1, n * d * 8), dtype=float).reshape(n, d)
    step = _STAGE1_ROWS * max(1, _STAGE1_TASK_VALUES // (_STAGE1_ROWS * vol.m))
    tasks = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    map_tasks(_filter_rows, (vol, design, detrended, coefs), tasks,
              cost=lambda rows: rows[1] - rows[0], jobs=jobs)
    return coefs


@dataclass
class TwoStageResult:
    """Everything produced by one end-to-end run."""

    cluster_volume: ClusterVolume
    mean_functions: MeanFunctions
    trace: SelectionTrace
    slope: SlopeEstimate | None
    k_hat: int
    fits: dict                       # requested k -> ClusterFit (normalized space)
    stats: ColumnStats | None        # None when normalization was off


def _fit_candidate(shared, task):
    """One candidate's fit, its log-likelihood and the seconds they took."""
    coefs, cfg, trim = shared
    k, seed = task
    t0 = time.perf_counter()
    fit = trimmed_kmeans(coefs, k, trim, restarts=cfg.restarts,
                         max_iter=cfg.max_iter, seed=seed, scale=cfg.lam)
    loglik = spherical_log_likelihood(coefs, fit.model)
    return fit, loglik, time.perf_counter() - t0


def run_two_stage(vol: VolumeSeries, cfg: RunConfig, jobs: int = 1) -> TwoStageResult:
    """Filter, sweep cluster counts, select k, and allocate every voxel.

    Settings the volume cannot support raise ValueError before any series
    is read: `jobs` below 1, a candidate above the h voxels that `alpha`
    keeps, two or three candidates (the slope needs `MIN_WINDOW`; one
    candidate is fitted without selection), and normalization of fewer
    than two series. Every candidate is fitted at `alpha`.

    Stage 1 streams the series in blocks, as row-range tasks on up to
    `jobs` processes (`_stage1_coefficients`); a non-finite value raises
    ValueError naming its (lowest) voxel. The candidates are fitted on up
    to `jobs` processes (`map_tasks`; in a pool, largest k first). Each has
    its own seed stream, so the result does not depend on `jobs`; a
    candidate's trace seconds are its own fit's time.

    Raises SlopeEstimationError (with the completed sweep attached as
    ``exc.trace``) when the loss-penalty slope is nonpositive.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    n = vol.n
    trim = TrimSpec(cfg.alpha)
    h = trim.retained_count(n)
    above = sorted(k for k in cfg.k_set if k > h)
    if above:
        raise ValueError(f"candidates {above} exceed the {h} voxels kept of "
                         f"{n} at alpha={cfg.alpha}; remove them from the "
                         "candidate set")
    if 1 < len(cfg.k_set) < MIN_WINDOW:
        raise ValueError(f"the slope needs at least {MIN_WINDOW} candidates, "
                         f"got {len(cfg.k_set)}; give more, or one k to fit "
                         "it without selection")
    if cfg.normalize and n < 2:
        raise ValueError("normalization needs at least two series; "
                         "turn it off to fit a single series")
    system = make_bspline_system((vol.grid.t_lo, vol.grid.t_hi), cfg.d)
    design = design_matrix(system, vol.grid)
    coefs = _stage1_coefficients(vol, design, cfg.detrend, jobs)
    stats = None
    if cfg.normalize:
        coefs, stats = normalize_columns(coefs)   # in place: one n x d copy

    k_seqs = np.random.SeedSequence(cfg.seed).spawn(len(cfg.k_set))
    tasks = [(k, seed_int(seq)) for k, seq in zip(sorted(cfg.k_set), k_seqs)]
    outcomes = map_tasks(_fit_candidate, (coefs, cfg, trim), tasks,
                         cost=lambda task: task[0], jobs=jobs)

    trace = SelectionTrace(n_points=n)
    fits: dict[int, ClusterFit] = {}
    for (k, _), (fit, loglik, seconds) in zip(tasks, outcomes):
        trace.add(k, loglik, penalty_spherical(k, cfg.d), seconds)
        fits[k] = fit

    slope = None
    if len(cfg.k_set) == 1:
        k_hat = trace.k_values[0]
    else:
        try:
            slope = estimate_slope_ddse(trace)
        except SlopeEstimationError as exc:
            exc.trace = trace
            raise
        k_hat = select_k(trace, slope.kappa)

    fit = fits[k_hat]
    labels, trimmed = allocate_all(coefs, fit, trim)
    cluster_volume = ClusterVolume(dims=vol.dims, labels=labels,
                                   trimmed=trimmed, k=fit.k)
    coef_means = fit.model.means
    if stats is not None:
        coef_means = stats.denormalize_rows(coef_means)
    curves = coef_means @ design.matrix.T
    mean_functions = MeanFunctions(grid=vol.grid, values=curves)
    return TwoStageResult(cluster_volume=cluster_volume,
                          mean_functions=mean_functions, trace=trace,
                          slope=slope, k_hat=k_hat, fits=fits, stats=stats)
