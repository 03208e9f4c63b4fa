"""Output checks computed apart from the program.

Nothing here imports `fdcluster`: stage 1 is rebuilt with scipy's B-spline
design matrix and LAPACK least squares, the log-likelihood with a plain
log-sum-exp, and agreement with the planted truth with a pair-counting
adjusted Rand index. Every check returns a list of failure messages; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import lstsq
from scipy.spatial.distance import cdist

from inputs import read_civt

# Two computations of the same double-precision result (different order
# of operations) agree far inside this relative tolerance; a corrupted
# statistic, label or flag does not.
RTOL = 1e-8
_BLOCK = 2000


def bspline_design(t_lo: float, t_hi: float, m: int, d: int) -> np.ndarray:
    """m x d clamped cubic B-spline design with d-2 equally spaced breakpoints."""
    t = np.linspace(t_lo, t_hi, m)
    inner = np.linspace(t_lo, t_hi, d - 2)[1:-1]
    knots = np.concatenate([[t_lo] * 4, inner, [t_hi] * 4])
    return BSpline.design_matrix(t, knots, 3).toarray()


def stage1_reference(series, t_lo: float, t_hi: float, d: int) -> np.ndarray:
    """Raw n x d coefficients: detrend each series on (1, t), then least squares."""
    n, m = series.shape
    t = np.linspace(t_lo, t_hi, m)
    trend = np.column_stack([np.ones(m), t])
    X = bspline_design(t_lo, t_hi, m, d)
    coefs = np.empty((n, d))
    for lo in range(0, n, _BLOCK):
        Z = np.asarray(series[lo:lo + _BLOCK], dtype=float).T        # m x b
        resid = Z - trend @ lstsq(trend, Z)[0]
        coefs[lo:lo + _BLOCK] = lstsq(X, resid)[0].T
    return coefs


def column_stats(coefs: np.ndarray):
    means = coefs.mean(axis=0)
    sds = coefs.std(axis=0, ddof=1)
    return means, np.where(sds == 0.0, 1.0, sds)


def retained_count(n: int, alpha: str) -> int:
    """floor(n * (1 - alpha)) in exact arithmetic on the decimal alpha."""
    return math.floor(n * (1 - Fraction(alpha)))


def log_sum_exp(a: np.ndarray) -> np.ndarray:
    top = a.max(axis=1)
    return top + np.log(np.exp(a - top[:, None]).sum(axis=1))


def spherical_loglik(U: np.ndarray, means: np.ndarray, lam: float = 1.0) -> float:
    k, d = means.shape
    const = -math.log(k) - 0.5 * d * math.log(2.0 * math.pi * lam)
    D = cdist(U, means, "sqeuclidean")
    return math.fsum(log_sum_exp(const - D / (2.0 * lam)))


def ari(a, b) -> float:
    """Adjusted Rand index from the contingency table (Hubert and Arabie)."""
    _, ai = np.unique(np.asarray(a), return_inverse=True)
    _, bi = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1)

    def pairs(x):
        return float(np.sum(x * (x - 1) / 2.0))

    n = ai.size
    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / (n * (n - 1) / 2.0)
    top = (rows + cols) / 2.0 - expected
    return 1.0 if top == 0 else (index - expected) / top


# ---------------------------------------------------------------------------
# fit outputs

def read_fit_outputs(out: Path) -> dict:
    with open(out / "selection.json") as fh:
        selection = json.load(fh)
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    trace = {int(r[0]): (float(r[1]), float(r[2])) for r in rows[1:] if r}
    table = np.loadtxt(out / "labels.csv", delimiter=",", skiprows=1,
                       dtype=np.int64, ndmin=2)
    means = {k: np.loadtxt(out / "models" / f"means_k{k:02d}.csv",
                           delimiter=",", ndmin=2) for k in trace}
    norm = np.loadtxt(out / "normalization.csv", delimiter=",", ndmin=2)
    return {"selection": selection, "trace": trace, "table": table,
            "means": means, "normalization": norm}


def _close(a, b) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= RTOL * scale))


def check_fit(spec, ref: dict, out: Path) -> list:
    """All checks of one `fdcluster fit` output directory.

    `ref` holds the benchmark's own raw coefficients' column `means` and
    `sds`, the normalized coefficients `U`, and the planted `truth`.
    """
    try:
        o = read_fit_outputs(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"outputs unreadable: {exc!r}"]
    fails = []
    n = spec.n
    ks = list(range(spec.k_lo, spec.k_hi + 1))
    k_hat = o["selection"].get("k_hat")
    if sorted(o["trace"]) != ks:
        return [f"trace covers k={sorted(o['trace'])}, expected {ks}"]
    if k_hat not in o["trace"]:
        return [f"k_hat={k_hat} is not a candidate"]
    for k, (_, pen) in o["trace"].items():
        if pen != spec.d * k:
            fails.append(f"pen({k})={pen}, expected {spec.d * k}")

    # stage 1: normalization.csv holds the raw coefficients' column means and SDs
    if not (_close(o["normalization"][0], ref["means"])
            and _close(o["normalization"][1], ref["sds"])):
        fails.append("normalization.csv disagrees with the rebuilt stage-1 coefficients")

    # labels are the nearest means at k_hat; the trim set is the worst n - h
    table = o["table"]
    if table.shape != (n, 5):
        return fails + [f"labels.csv has shape {table.shape}, expected ({n}, 5)"]
    nx, ny, _ = spec.dims
    idx = np.arange(n)
    if not (np.array_equal(table[:, 0], idx % nx)
            and np.array_equal(table[:, 1], (idx // nx) % ny)
            and np.array_equal(table[:, 2], idx // (nx * ny))):
        fails.append("labels.csv is not in x-fastest voxel order")
    labels, trimmed = table[:, 3], table[:, 4].astype(bool)
    means = o["means"][k_hat]
    D = cdist(ref["U"], means, "sqeuclidean")
    best = D.min(axis=1)
    tol = RTOL * (1.0 + best)
    if labels.min() < 1 or labels.max() > k_hat:
        fails.append(f"labels outside 1..{k_hat}")
    elif np.any(D[idx, labels - 1] > best + tol):
        bad = int(np.sum(D[idx, labels - 1] > best + tol))
        fails.append(f"{bad} labels are not the nearest mean")
    h = retained_count(n, spec.alpha)
    if int(trimmed.sum()) != n - h:
        fails.append(f"{int(trimmed.sum())} voxels trimmed, expected {n - h}")
    elif trimmed.any() and (~trimmed).any():
        if best[~trimmed].max() > best[trimmed].min() * (1 + RTOL) + RTOL:
            fails.append("a trimmed voxel scores better than a retained one")

    # trace.csv log-likelihood at k_hat
    loglik = spherical_loglik(ref["U"], means)
    got = o["trace"][k_hat][0]
    if abs(got - loglik) > RTOL * abs(loglik):
        fails.append(f"trace loglik at k={k_hat} is {got!r}, recomputed {loglik!r}")

    # planted truth
    truth = ref["truth"]
    if spec.check_k_hat and k_hat != spec.planted:
        fails.append(f"k_hat={k_hat}, planted {spec.planted}")
    inlier = truth >= 0
    planted_labels = cdist(ref["U"][inlier], o["means"][spec.planted],
                           "sqeuclidean").argmin(axis=1)
    score = ari(planted_labels, truth[inlier])
    if score < spec.min_inlier_ari:
        fails.append(f"inlier ARI {score:.4f} at k={spec.planted} "
                     f"< {spec.min_inlier_ari}")
    return fails


# ---------------------------------------------------------------------------
# study outputs

def check_study(call, report: Path) -> dict:
    """Failures per method spec of one simulate call: {spec: [messages]}."""
    fails = {spec: [] for spec, _, _ in call.targets}
    try:
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return {spec: [f"report unreadable: {exc!r}"] for spec in fails}
    got = {}
    for spec, published, tol in call.targets:
        name, _, arg = spec.partition(":")
        match = [r for r in rows
                 if r["study"] == call.study and int(r["m"]) == call.m
                 and int(r["n"]) == call.n and r["method"] == name
                 and (not arg or abs(float(r["alpha"]) - float(arg)) < 1e-12)]
        if len(match) != 1:
            fails[spec].append(f"{len(match)} report rows for {spec}")
            continue
        value = float(match[0]["ari_mean"])
        got[spec] = value
        if abs(value - published) > tol:
            fails[spec].append(f"{call.study} {spec} ARI {value:.4f}, "
                               f"published {published} +- {tol}")
    if len(rows) != len(call.targets):
        for spec in fails:
            fails[spec].append(f"report has {len(rows)} rows, expected "
                               f"{len(call.targets)}")
    if call.min_gap is not None and len(got) == 2:
        (a, va), (b, vb) = got.items()
        if va - vb < call.min_gap:
            msg = f"{call.study} gap {a} - {b} = {va - vb:.4f} < {call.min_gap}"
            fails[a].append(msg)
            fails[b].append(msg)
    return fails


def fit_reference(spec, volume_path: Path, truth: np.ndarray) -> dict:
    _, m, t_lo, t_hi, series = read_civt(volume_path)
    coefs = stage1_reference(series, t_lo, t_hi, spec.d)
    means, sds = column_stats(coefs)
    return {"means": means, "sds": sds, "U": (coefs - means) / sds,
            "truth": truth}

