"""Acceptance suite: one test per release criterion, in order.

Each test prints a single PASS line once its assertions hold, so a
verbose or captured run shows one line per criterion. The stochastic
criteria run at fixed seeds and are deterministic end to end.
"""

import itertools
import json

import numpy as np

from oracles import (contingency_ari, exhaustive_optimum, pair_counting_ari,
                     reference_lloyd)

import fdcluster as fd
from fdcluster.basis import (TimeGrid, design_matrix, evaluate_basis,
                             make_bspline_system, ols_fit)
from fdcluster.cli import main
from fdcluster.mixtures import spherical_log_likelihood
from fdcluster.pipeline import normalize_columns
from fdcluster.selection import (SelectionTrace, SlopeEstimationError,
                                 estimate_slope_ddse, penalty_spherical,
                                 select_k)
from fdcluster.simstudy import SimConfig, adjusted_rand_index, simulate_study
from fdcluster.tclust import TrimSpec, allocate_all, trimmed_kmeans


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def stage1_coefs(cfg, data):
    system = make_bspline_system(cfg.domain, cfg.d_gen)
    design = design_matrix(system, data.grid)
    return ols_fit(design, data.series)


# -- 1 -------------------------------------------------------------------

def test_c01_table1_reproduction():
    """S1 (m=100, n=1000, 50 reps): k-means near 0.972, trimmed-0.5 near 0.970."""
    rep = fd.run_study("S1", [(100, 1000)], 50,
                       methods=("kmeans", "trimmed:0.5"),
                       seed=20260810, restarts=100)
    kmeans = rep.cell(100, 1000, "kmeans").ari_mean
    trimmed = rep.cell(100, 1000, "trimmed", 0.5).ari_mean
    assert abs(kmeans - 0.972) <= 0.02, f"k-means ARI {kmeans:.4f}"
    assert abs(trimmed - 0.970) <= 0.03, f"trimmed-0.5 ARI {trimmed:.4f}"
    report(1, f"S1 m=100 n=1000: kmeans {kmeans:.4f} (0.972±0.02), "
              f"trimmed-0.5 {trimmed:.4f} (0.970±0.03)")


# -- 2 -------------------------------------------------------------------

def test_c02_table2_gap_reproduction():
    """S2 (m=100, n=2500, 50 reps): mixture rule near 0.984, k-means near
    0.934, and the mixture advantage of at least 0.03."""
    rep = fd.run_study("S2", [(100, 2500)], 50,
                       methods=("gmm", "kmeans"), seed=20260811, restarts=100)
    gmm = rep.cell(100, 2500, "gmm").ari_mean
    kmeans = rep.cell(100, 2500, "kmeans").ari_mean
    assert abs(gmm - 0.984) <= 0.02, f"GMM ARI {gmm:.4f}"
    assert abs(kmeans - 0.934) <= 0.02, f"k-means ARI {kmeans:.4f}"
    assert gmm - kmeans >= 0.03, f"gap {gmm - kmeans:.4f}"
    report(2, f"S2 m=100 n=2500: gmm {gmm:.4f} (0.984±0.02), "
              f"kmeans {kmeans:.4f} (0.934±0.02), gap {gmm - kmeans:.4f} >= 0.03")


# -- 3 -------------------------------------------------------------------

def test_c03_scaling_trend():
    """Every method improves from (m=100, n=500) to (m=1000, n=5000) on S1."""
    methods = ("gmm", "kmeans", "trimmed:0.25", "trimmed:0.5")
    rep = fd.run_study("S1", [(100, 500), (1000, 5000)], 20,
                       methods=methods, seed=424242, restarts=100)
    gains = {}
    for spec in methods:
        name, _, arg = spec.partition(":")
        alpha = float(arg) if arg else None
        small = rep.cell(100, 500, name, alpha).ari_mean
        large = rep.cell(1000, 5000, name, alpha).ari_mean
        assert large >= small, f"{spec}: {large:.4f} < {small:.4f}"
        gains[spec] = (small, large)
    summary = ", ".join(f"{s} {a:.3f}->{b:.3f}" for s, (a, b) in gains.items())
    report(3, f"S1 scaling trend holds for every method ({summary})")


# -- 4 -------------------------------------------------------------------

def test_c04_alpha0_matches_reference_lloyd():
    """Untrimmed runs reproduce a plain Lloyd reference exactly, same init."""
    rng = np.random.default_rng(55)
    for trial in range(20):
        n = int(rng.integers(50, 2001))
        d = int(rng.integers(1, 11))
        k = int(rng.integers(1, 6))
        centers = rng.normal(0, 4, (k, d))
        labels = rng.integers(0, k, n)
        U = centers[labels] + rng.normal(0, 1, (n, d))
        # the draw keeps the later trials' fixtures; the fit starts from its
        # documented stream, restart 0 of seed `trial`
        rng.choice(n, k, replace=False)
        fit = trimmed_kmeans(U, k, TrimSpec(0.0), restarts=1, seed=trial)
        start_rng = np.random.default_rng(np.random.SeedSequence(trial, spawn_key=(0,)))
        ref_labels, ref_means = reference_lloyd(U, U[start_rng.choice(n, k, replace=False)])
        order = np.lexsort(ref_means.T[::-1])
        relabel = np.empty(k, dtype=int)
        relabel[order] = np.arange(k)
        labels = allocate_all(U, fit, TrimSpec(0.0))[0]
        np.testing.assert_array_equal(labels, relabel[ref_labels - 1] + 1,
                                      err_msg=f"trial {trial}")
    report(4, "alpha=0 labels identical to reference Lloyd on 20 fixtures")


# -- 5 -------------------------------------------------------------------

def test_c05_small_instance_optimality():
    """Multi-start objective matches the exhaustive optimum on every small
    instance (n <= 8, d <= 2, k <= 2, alpha in {0, 0.25})."""
    rng = np.random.default_rng(77)
    checked = 0
    for n, d, k, alpha in itertools.product(range(1, 9), (1, 2), (1, 2),
                                            (0.0, 0.25)):
        if TrimSpec(alpha).retained_count(n) < k:
            continue
        U = rng.normal(0, 2, (n, d))
        fit = trimmed_kmeans(U, k, TrimSpec(alpha), restarts=50, seed=checked)
        oracle = exhaustive_optimum(U, k, alpha)
        assert abs(fit.objective - oracle) <= 1e-9, \
            f"n={n} d={d} k={k} alpha={alpha}: {fit.objective} vs {oracle}"
        checked += 1
    assert checked >= 40
    report(5, f"multi-start objective equals the exhaustive optimum on "
              f"{checked} small instances (1e-9)")


# -- 6 -------------------------------------------------------------------

def test_c06_ari_oracle():
    """ARI agrees with two independent formulations on 500 random pairs."""
    rng = np.random.default_rng(99)
    for trial in range(500):
        n = int(rng.integers(2, 201))
        a = rng.integers(1, int(rng.integers(1, 9)) + 1, n)
        b = rng.integers(1, int(rng.integers(1, 9)) + 1, n)
        mine = adjusted_rand_index(a, b)
        assert abs(mine - contingency_ari(a, b)) <= 1e-12
        assert abs(mine - pair_counting_ari(a, b)) <= 1e-12
    labels = rng.integers(1, 6, 100)
    assert adjusted_rand_index(labels, labels) == 1.0
    report(6, "ARI matches independent contingency and pair-counting "
              "oracles on 500 pairs (1e-12); identical partitions give 1")


# -- 7 -------------------------------------------------------------------

def test_c07_stage1_numerics():
    """Partition of unity, noiseless recovery, and the rank-deficient path."""
    rng = np.random.default_rng(111)
    for d in (4, 10, 100, 200):
        system = make_bspline_system((0.0, 1.0), d)
        ts = rng.uniform(0.0, 1.0, 1000)
        vals = evaluate_basis(system, ts)
        err = np.abs(vals.sum(axis=1) - 1.0).max()
        assert err < 1e-12, f"d={d}: partition of unity off by {err}"

    system = make_bspline_system((0.0, 1.0), 30)
    grid = TimeGrid.uniform(0.0, 1.0, 120)
    design = design_matrix(system, grid)
    b = rng.normal(size=30)
    fitted = ols_fit(design, (design.matrix @ b)[None])[0]
    rel = np.linalg.norm(fitted - b) / np.linalg.norm(b)
    assert rel < 1e-8, f"noiseless recovery error {rel}"

    thin = design_matrix(make_bspline_system((0.0, 1.0), 25),
                         TimeGrid.uniform(0.0, 1.0, 10))
    assert thin.singular
    z = rng.normal(size=10)
    mine = ols_fit(thin, z[None])[0]
    oracle = np.linalg.lstsq(thin.matrix, z, rcond=None)[0]
    assert np.linalg.norm(mine - oracle) <= 1e-8 * (1 + np.linalg.norm(oracle))
    assert np.linalg.norm(thin.matrix @ mine - z) < 1e-8
    report(7, "stage-1 numerics: partition of unity (1e-12, d up to 200), "
              "noiseless recovery (1e-8), rank-deficient = SVD oracle (1e-8)")


# -- 8 -------------------------------------------------------------------

def test_c08_model_selection_recovers_k5():
    """Slope-calibrated selection finds k=5 on at least 16 of 20 seeds."""
    hits = 0
    picks = []
    for s in range(20):
        cfg = SimConfig("S1", n=5000, m=100, seed=81_000 + s)
        data = simulate_study(cfg)
        coefs, _ = normalize_columns(stage1_coefs(cfg, data))
        trace = SelectionTrace(n_points=cfg.n)
        for k in range(2, 11):
            fit = trimmed_kmeans(coefs, k, TrimSpec(0.0), restarts=10,
                                 seed=s * 100 + k, scale=0.1)
            trace.add(k, spherical_log_likelihood(coefs, fit.model),
                      penalty_spherical(k, cfg.d_gen))
        try:
            slope = estimate_slope_ddse(trace)
            k_hat = select_k(trace, slope.kappa)
        except SlopeEstimationError:
            k_hat = -1
        picks.append(k_hat)
        hits += k_hat == 5
    assert hits >= 16, f"k=5 selected only {hits}/20 times: {picks}"
    report(8, f"selection picked k=5 on {hits}/20 seeds (need >= 16)")


# -- 9 -------------------------------------------------------------------

def test_c09_consistency_trend():
    """Mean error of the aligned estimated means shrinks as n grows.

    Alignment is by optimal one-to-one matching rather than lexicographic
    order: three of the generating means share identical leading
    coordinates, so the sort order of the estimates is noise-determined
    and a sorted-vs-sorted comparison measures label permutation instead
    of estimation error.
    """
    from scipy.optimize import linear_sum_assignment

    true_means = SimConfig("S1", n=10, m=10).class_means()
    mean_err = {}
    for n in (500, 2000, 8000):
        errs = []
        for s in range(10):
            cfg = SimConfig("S1", n=n, m=100, seed=90_000 + 17 * s + n)
            data = simulate_study(cfg)
            coefs = stage1_coefs(cfg, data)
            fit = trimmed_kmeans(coefs, 5, TrimSpec(0.0), restarts=30, seed=s)
            cost = np.linalg.norm(
                fit.model.means[:, None, :] - true_means[None, :, :], axis=2)
            rows, cols = linear_sum_assignment(cost)
            errs.append(cost[rows, cols].mean())
        mean_err[n] = float(np.mean(errs))
    assert mean_err[500] > mean_err[2000] > mean_err[8000], mean_err
    report(9, "mean-estimation error decreases monotonically over "
              f"n=500/2000/8000: {mean_err[500]:.4f} > {mean_err[2000]:.4f} "
              f"> {mean_err[8000]:.4f}")


# -- 10 ------------------------------------------------------------------

def test_c10_pipeline_smoke(tmp_path, capsys):
    """20x20x5 blocked volume: CLI fit selects k=3, labels are pure within
    blocks, and every exported artifact round-trips bit-exactly."""
    rng = np.random.default_rng(1234)
    nx, ny, nz, m = 20, 20, 5, 200
    grid = TimeGrid.uniform(0.0, 1.0, m)
    t = grid.points
    curves = np.stack([
        np.sin(2 * np.pi * t) + 1.5 * t,
        np.cos(4 * np.pi * t) - 0.5 * t,
        np.sin(6 * np.pi * t) + 0.2,
    ])
    zidx = np.repeat(np.arange(nz), ny * nx)   # z is the slowest axis
    truth = np.where(zidx < 2, 1, np.where(zidx < 4, 2, 3))
    series = curves[truth - 1] + 0.35 * rng.standard_normal((nx * ny * nz, m))
    vol = fd.VolumeSeries(dims=(nx, ny, nz), series=series, grid=grid)
    vol_path = tmp_path / "vol.civt"
    fd.save_volume_civt(vol, vol_path)

    out = tmp_path / "out"
    rc = main(["fit", "--input", str(vol_path), "--format", "civt",
               "--d", "20", "--k-set", "2..6", "--alpha", "0.0",
               "--restarts", "10", "--seed", "7", "--lambda", "0.1",
               "--out", str(out)])
    assert rc == 0
    selection = json.loads((out / "selection.json").read_text())
    assert selection["k_hat"] == 3, selection

    cv = fd.load_labels_civl(out / "labels.civl")
    purity = sum(np.bincount(cv.labels[truth == c]).max() for c in (1, 2, 3))
    assert purity / vol.n >= 0.99, purity / vol.n

    # volume round trip is bit-exact
    reread = fd.load_volume(vol_path, "civt")
    resaved = tmp_path / "vol2.civt"
    fd.save_volume_civt(reread, resaved)
    assert vol_path.read_bytes() == resaved.read_bytes()

    # label round trips are bit-exact (binary and CSV)
    civl2 = tmp_path / "labels2.civl"
    fd.save_labels_civl(cv, civl2)
    assert (out / "labels.civl").read_bytes() == civl2.read_bytes()
    csv2 = tmp_path / "labels2.csv"
    fd.export_cluster_map(cv, csv2, tmp_path / "labels3.civl")
    assert (out / "labels.csv").read_bytes() == csv2.read_bytes()

    # selection re-run from the written trace alone repeats fit's choice
    capsys.readouterr()
    rc = main(["select", "--trace", str(out / "trace.csv")])
    assert rc == 0
    assert int(capsys.readouterr().out) == selection["k_hat"]
    report(10, f"pipeline smoke: k_hat=3, purity {purity / vol.n:.4f}, "
               "all artifacts round-trip bit-exactly")
