"""Adjusted Rand index and the generative S1/S2 simulation studies.

Curves are drawn from five coefficient classes on a shared 10-function
cubic B-spline system, observed with Gaussian noise on a uniform grid,
filtered back to coefficients by least squares, and clustered with each
requested method; agreement with the generating labels is summarized by
the adjusted Rand index over replicates. The full-covariance EM fit behind
the "gmm" baseline method lives here, next to its one caller.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .basis import (TimeGrid, coef_values, design_matrix, make_bspline_system,
                    ols_fit)
from .mixtures import (GmmParams, bayes_allocate, component_log_densities,
                       row_logsumexp)
from .tclust import TrimSpec, allocate_all, map_tasks, seed_int, trimmed_kmeans

DEFAULT_METHODS = ("gmm", "kmeans", "trimmed:0.25", "trimmed:0.5")

# EM fits per replicate of the "gmm" method; the best log-likelihood wins.
EM_RESTARTS = 5

# The most EM iterations one fit runs.
EM_MAX_ITER = 200


def _comb2(x: int) -> int:
    return x * (x - 1) // 2


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two partitions (Hubert-Arabie).

    1 means the partitions coincide up to relabeling; values near 0 mean
    no association. Computed exactly from the contingency table with
    rational arithmetic; defined as 1 when the denominator vanishes
    (both partitions trivial and equal).
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("label vectors must be 1-D and of equal length")
    n = a.size
    if n < 2:
        raise ValueError("need at least two points")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    sum_cells = sum(_comb2(int(v)) for v in table.ravel() if v > 1)
    sum_a = sum(_comb2(int(v)) for v in table.sum(axis=1))
    sum_b = sum(_comb2(int(v)) for v in table.sum(axis=0))
    expected = Fraction(sum_a * sum_b, _comb2(n))
    denominator = Fraction(sum_a + sum_b, 2) - expected
    if denominator == 0:
        return 1.0
    return float((sum_cells - expected) / denominator)


@dataclass
class SimConfig:
    """Generative settings for one simulated dataset."""

    study: str                     # "S1" (independent) or "S2" (correlated)
    n: int
    m: int
    seed: int = 0
    k_true: int = 5
    d_gen: int = 10
    sigma: float = 0.25            # observation noise SD
    diag_sd: float = 0.25          # per-coordinate coefficient SD
    off_diag_sd: float = 0.15      # S2 cross-coordinate covariance sqrt
    domain: tuple = (0.0, 1.0)

    def __post_init__(self):
        self.study = self.study.upper()
        if self.study not in ("S1", "S2"):
            raise ValueError("study must be S1 or S2")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")

    def class_means(self) -> np.ndarray:
        """Five mean coefficient vectors: zero, +/- on the first two
        coordinates, +/- on the last two."""
        d = self.d_gen
        mu = np.zeros((5, d))
        mu[1, :2] = 1.0
        mu[2, :2] = -1.0
        mu[3, -2:] = 1.0
        mu[4, -2:] = -1.0
        return mu

    def coef_cov(self) -> np.ndarray:
        d = self.d_gen
        if self.study == "S1":
            return np.eye(d) * self.diag_sd**2
        V = np.full((d, d), self.off_diag_sd**2)
        np.fill_diagonal(V, self.diag_sd**2)
        return V


@dataclass
class LabeledDataset:
    """Simulated noisy curves with their generating labels and coefficients."""

    series: np.ndarray   # (n, m)
    labels: np.ndarray   # (n,) in 1..k_true
    coefs: np.ndarray    # (n, d_gen) generating coefficient vectors
    grid: TimeGrid


def simulate_study(cfg: SimConfig) -> LabeledDataset:
    """Draw one dataset: class, then coefficients, then observation noise.

    Fully determined by cfg.seed; identical configs give bit-identical
    datasets.
    """
    rng = np.random.default_rng(cfg.seed)
    mu = cfg.class_means()
    V = cfg.coef_cov()
    if np.count_nonzero(V) == 0:
        L = np.zeros_like(V)
    else:
        L = np.linalg.cholesky(V)

    labels = rng.integers(1, cfg.k_true + 1, size=cfg.n)
    coefs = mu[labels - 1] + rng.standard_normal((cfg.n, cfg.d_gen)) @ L.T

    grid = TimeGrid.uniform(cfg.domain[0], cfg.domain[1], cfg.m)
    system = make_bspline_system(cfg.domain, cfg.d_gen)
    X = design_matrix(system, grid).matrix
    series = coefs @ X.T + cfg.sigma * rng.standard_normal((cfg.n, cfg.m))
    return LabeledDataset(series=series, labels=labels, coefs=coefs, grid=grid)


def _em_loglik(B: np.ndarray, params: GmmParams) -> tuple[float, np.ndarray]:
    """Sample log-likelihood plus the (n, k) joint log-density matrix."""
    scores = component_log_densities(B, params)
    row_lse = row_logsumexp(scores)
    return float(np.sum(row_lse)), scores - row_lse[:, None]


def fit_gmm_em(B, k: int, seed: int = 0) -> tuple[GmmParams, np.ndarray]:
    """Fit a full-covariance k-component mixture by EM.

    Initialization comes from one untrimmed k-means run on the data. Each
    M-step adds ridge * I to every covariance, with ridge 1e-6 times the
    mean diagonal of the pooled covariance, which keeps the updates
    positive definite. Iterations stop after `EM_MAX_ITER` or when the
    log-likelihood gain falls below 1e-6 * n. The log-likelihood sequence
    is checked to be nondecreasing (1e-8 relative slack).

    Returns the GmmParams and the log-likelihood of every iteration.
    """
    U = coef_values(B)
    n, d = U.shape
    if k >= n:
        raise ValueError("need more points than components")
    pooled = np.cov(U, rowvar=False, bias=True).reshape(d, d)
    mean_diag = float(np.mean(np.diag(pooled)))
    if mean_diag <= 0:
        raise ValueError("degenerate data: zero pooled variance")
    ridge = 1e-6 * mean_diag

    init = trimmed_kmeans(U, k, TrimSpec(0.0), restarts=1, max_iter=20, seed=seed)
    init_labels = allocate_all(U, init, TrimSpec(0.0))[0]
    means = init.model.means.copy()
    weights = np.empty(k)
    covs = np.empty((k, d, d))
    eye = np.eye(d)
    for c in range(k):
        members = U[init_labels == c + 1]
        weights[c] = max(members.shape[0], 1) / n
        if members.shape[0] >= 2:
            covs[c] = np.cov(members, rowvar=False, bias=True) + ridge * eye
        else:
            covs[c] = pooled + ridge * eye
    weights /= weights.sum()
    params = GmmParams(weights, means, covs)

    history = []
    prev_ll = -np.inf
    for _ in range(EM_MAX_ITER):
        ll, log_resp = _em_loglik(U, params)
        history.append(ll)
        if ll + 1e-8 * (1.0 + abs(ll)) < prev_ll:
            raise RuntimeError("EM log-likelihood decreased")
        if ll - prev_ll < 1e-6 * n:
            break
        prev_ll = ll
        resp = np.exp(log_resp)                     # (n, k)
        counts = resp.sum(axis=0)
        counts = np.maximum(counts, 1e-300)
        weights = counts / n
        means = (resp.T @ U) / counts[:, None]
        for c in range(k):
            diff = U - means[c]
            covs[c] = (diff.T * resp[:, c]) @ diff / counts[c] + ridge * eye
            covs[c] = 0.5 * (covs[c] + covs[c].T)
        params = GmmParams(weights / weights.sum(), means, covs)

    return params, np.asarray(history)


@dataclass
class StudyRow:
    study: str
    m: int
    n: int
    method: str
    alpha: float
    ari_mean: float
    ari_se: float
    seconds: float


@dataclass
class StudyReport:
    """Per-cell, per-method ARI summaries over the replicates."""

    rows: list = field(default_factory=list)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["study", "m", "n", "method", "alpha",
                             "ari_mean", "ari_se", "seconds"])
            for r in self.rows:
                writer.writerow([r.study, r.m, r.n, r.method, r.alpha,
                                 f"{r.ari_mean:.6f}", f"{r.ari_se:.6f}",
                                 f"{r.seconds:.3f}"])

    def cell(self, m: int, n: int, method: str, alpha: float | None = None) -> StudyRow:
        for r in self.rows:
            if r.m == m and r.n == n and r.method == method:
                if alpha is None or abs(r.alpha - alpha) < 1e-12:
                    return r
        raise KeyError(f"no row for ({m}, {n}, {method}, {alpha})")


def _parse_method(spec: str) -> tuple[str, float]:
    name, sep, arg = spec.partition(":")
    name = name.strip().lower()
    if name in ("gmm", "kmeans"):
        if sep:
            raise ValueError(f"method {spec!r} takes no argument")
        return name, 0.0
    if name == "trimmed":
        try:
            alpha = float(arg)
        except ValueError:
            raise ValueError(f"method {spec!r} is not of the form "
                             "trimmed:<alpha>") from None
        return "trimmed", TrimSpec(alpha).alpha
    raise ValueError(f"unknown method {spec!r}")


def _score_replicate(shared, task):
    """Simulate one replicate, filter it, and score every method on it.

    Returns each method's ARI and the seconds its fit and allocation took.
    """
    parsed, restarts = shared
    cell_cfg, rep_seq = task
    sim_seq, fit_seq = rep_seq.spawn(2)
    cfg = replace(cell_cfg, seed=seed_int(sim_seq))
    data = simulate_study(cfg)
    system = make_bspline_system(cfg.domain, cfg.d_gen)
    design = design_matrix(system, data.grid)
    coefs = ols_fit(design, data.series)

    aris, seconds = [], []
    for (name, alpha), mseq in zip(parsed, fit_seq.spawn(len(parsed))):
        t0 = time.perf_counter()
        if name == "gmm":
            best = None
            for sub in mseq.spawn(EM_RESTARTS):
                params, hist = fit_gmm_em(coefs, cfg.k_true, seed=seed_int(sub))
                if best is None or hist[-1] > best[0]:
                    best = (hist[-1], params)
            labels = bayes_allocate(coefs, best[1])
        else:
            fit = trimmed_kmeans(coefs, cfg.k_true, TrimSpec(alpha),
                                 restarts=restarts, seed=seed_int(mseq))
            labels = allocate_all(coefs, fit, TrimSpec(alpha))[0]
        seconds.append(time.perf_counter() - t0)
        aris.append(adjusted_rand_index(labels, data.labels))
    return aris, seconds


def run_study(study: str, grid_cells, replicates: int,
              methods=DEFAULT_METHODS, seed: int = 0, restarts: int = 20,
              base_config: SimConfig | None = None, jobs: int = 1) -> StudyReport:
    """Simulate and score every (m, n) cell with every requested method.

    Methods are given as "gmm", "kmeans", or "trimmed:<alpha>", each at
    most once. Clustering runs with k fixed at the generating class count;
    every point is allocated (the nearest-mean rule for the k-means
    variants, the posterior-weight rule for the fitted mixture) and scored
    against the true labels. Per-(cell, replicate, method) RNG streams are split from
    the master seed, so results do not depend on execution order.

    The (cell, replicate) pairs run on up to `jobs` processes (`map_tasks`;
    in a pool, largest cells first); a row's seconds are the sum of its method's own
    times over the replicates. Bad settings raise ValueError before any
    data is simulated.
    """
    if replicates < 1:
        raise ValueError("replicates must be positive")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if not methods:
        raise ValueError("no methods given: name at least one of gmm, kmeans, trimmed:<alpha>")
    parsed = []
    for spec in methods:
        method = _parse_method(spec)
        if method in parsed:
            raise ValueError(f"method {spec!r} is listed twice")
        parsed.append(method)
    cells = [(int(m), int(n)) for m, n in grid_cells]
    configs = [SimConfig(study=study, n=n, m=m) if base_config is None
               else replace(base_config, study=study, n=n, m=m) for m, n in cells]
    for cfg in configs:
        for spec, (name, alpha) in zip(methods, parsed):
            if name == "gmm":
                if cfg.n <= cfg.k_true:
                    raise ValueError(f"cell {cfg.m}x{cfg.n}: gmm needs more points "
                                     f"than its {cfg.k_true} components")
            elif (h := TrimSpec(alpha).retained_count(cfg.n)) < cfg.k_true:
                raise ValueError(f"cell {cfg.m}x{cfg.n}: {spec} retains {h} points, "
                                 f"fewer than k={cfg.k_true}")
    root = np.random.SeedSequence(seed)
    tasks = [(cfg, rep_seq)
             for cfg, cell_seq in zip(configs, root.spawn(len(cells)))
             for rep_seq in cell_seq.spawn(replicates)]
    outcomes = map_tasks(_score_replicate, (parsed, restarts), tasks,
                         cost=lambda task: (task[0].n, task[0].m), jobs=jobs)

    report = StudyReport()
    for c, (m, n) in enumerate(cells):
        aris = {spec: [] for spec in methods}
        seconds = dict.fromkeys(methods, 0.0)
        for rep_aris, rep_seconds in outcomes[c * replicates:(c + 1) * replicates]:
            for spec, ari, secs in zip(methods, rep_aris, rep_seconds):
                aris[spec].append(ari)
                seconds[spec] += secs

        for spec, (name, alpha) in zip(methods, parsed):
            values = np.asarray(aris[spec])
            se = float(values.std(ddof=1) / np.sqrt(replicates)) if replicates > 1 else 0.0
            report.rows.append(StudyRow(study=study.upper(), m=m, n=n,
                                        method=name, alpha=alpha,
                                        ari_mean=float(values.mean()),
                                        ari_se=se, seconds=seconds[spec]))
    return report
