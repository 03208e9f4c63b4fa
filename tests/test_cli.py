import json

import numpy as np
import pytest

from fdcluster import cli, pipeline, simstudy
from fdcluster.basis import TimeGrid
from fdcluster.cli import main
from fdcluster.pipeline import VolumeSeries, load_labels_civl, save_volume_civt
from fdcluster.selection import (SelectionTrace, SlopeEstimationError,
                                 penalty_spherical)


@pytest.fixture
def blocked_civt(tmp_path):
    rng = np.random.default_rng(7)
    nx, ny, nz, m = 4, 4, 3, 60
    grid = TimeGrid.uniform(0.0, 1.0, m)
    t = grid.points
    curves = np.stack([np.sin(2 * np.pi * t),
                       np.cos(4 * np.pi * t) + t,
                       np.sin(6 * np.pi * t) - t])
    labels = np.repeat([1, 2, 3], nx * ny)
    series = curves[labels - 1] + 0.3 * rng.standard_normal((nx * ny * nz, m))
    vol = VolumeSeries(dims=(nx, ny, nz), series=series, grid=grid)
    path = tmp_path / "vol.civt"
    save_volume_civt(vol, path)
    return path, labels


def test_fit_end_to_end(tmp_path, blocked_civt, capsys):
    vol_path, truth = blocked_civt
    out = tmp_path / "run"
    rc = main(["fit", "--input", str(vol_path), "--format", "civt",
               "--d", "10", "--k-set", "2..6", "--alpha", "0.0",
               "--restarts", "8", "--seed", "11", "--lambda", "0.1",
               "--out", str(out)])
    assert rc == 0
    for name in ("trace.csv", "slope.json", "selection.json", "labels.csv",
                 "labels.civl", "means.csv"):
        assert (out / name).exists(), name
    selection = json.loads((out / "selection.json").read_text())
    assert selection["k_hat"] == 3
    cv = load_labels_civl(out / "labels.civl")
    assert cv.labels.shape == (48,)
    assert sorted(p.name for p in (out / "models").iterdir()) == [
        f"means_k{k:02d}.csv" for k in range(2, 7)]


def test_fit_config_file_with_flag_override(tmp_path, blocked_civt):
    vol_path, _ = blocked_civt
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "d": 10, "k_set": [2, 3, 4, 5], "restarts": 6, "seed": 1,
        "alpha": 0.0, "lam": 0.1, "normalize": True, "detrend": True,
    }))
    out = tmp_path / "run2"
    rc = main(["fit", "--input", str(vol_path), "--format", "civt",
               "--config", str(cfg_path), "--seed", "11", "--out", str(out)])
    assert rc == 0
    selection = json.loads((out / "selection.json").read_text())
    assert selection["k_hat"] == 3


def test_fit_unknown_config_field_is_validation_error(tmp_path, blocked_civt):
    vol_path, _ = blocked_civt
    cfg_path = tmp_path / "cfg.json"
    for config in ({"bogus": 1}, {"penalty": "spherical"}):
        cfg_path.write_text(json.dumps(config))
        rc = main(["fit", "--input", str(vol_path), "--format", "civt",
                   "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 2


@pytest.mark.parametrize("bad", [
    {"detrend": "false"}, {"normalize": 0}, {"d": "8"}, {"d": 10.0},
    {"restarts": 2.5}, {"max_iter": True}, {"seed": "1"}, {"k_set": [3.5]},
    {"k_set": [True]}, {"k_set": 3}, {"lam": "0.1"}, {"alpha": None},
    {"penalty": ["full"]},
], ids=json.dumps)
def test_fit_config_value_of_wrong_type_is_validation_error(tmp_path, blocked_civt,
                                                            capsys, bad):
    # a single candidate k: with the value taken as given the run succeeds
    vol_path, _ = blocked_civt
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"d": 10, "k_set": [3], "restarts": 2, **bad}))
    rc = main(["fit", "--input", str(vol_path), "--format", "civt",
               "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert next(iter(bad)) in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("config, flags", [
    ({"lam": 0}, []), ({"lam": -1}, []), ({"lam": float("nan")}, []),
    ({}, ["--lambda", "0"]),
], ids=["lam 0", "lam -1", "lam NaN", "--lambda 0"])
def test_fit_lambda_not_positive_is_rejected_before_the_run(tmp_path, blocked_civt,
                                                            capsys, config, flags):
    vol_path, _ = blocked_civt
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"d": 10, "k_set": [3], "restarts": 2, **config}))
    rc = main(["fit", "--input", str(vol_path), "--format", "civt",
               "--config", str(cfg_path), *flags, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "lam must be a positive finite number" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("config, flags", [
    ({"seed": -1}, []), ({}, ["--seed", "-1"]),
], ids=["seed -1", "--seed -1"])
def test_fit_negative_seed_is_rejected_before_stage1(tmp_path, blocked_civt, capsys,
                                                     monkeypatch, config, flags):
    def stage1(*args):
        raise AssertionError("stage 1 ran")

    monkeypatch.setattr(pipeline, "_stage1_coefficients", stage1)
    vol_path, _ = blocked_civt
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"d": 10, "k_set": [3], "restarts": 2, **config}))
    rc = main(["fit", "--input", str(vol_path), "--format", "civt",
               "--config", str(cfg_path), *flags, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_fit_non_finite_value_in_the_last_block_is_validation_error(tmp_path, capsys):
    # the volume is checked block by block as stage 1 reads it; the bad value
    # sits in the last voxel, after several full blocks
    rng = np.random.default_rng(2)
    n, m = 2 * pipeline._STAGE1_ROWS + 5, 12
    vol = VolumeSeries(dims=(n, 1, 1), series=rng.standard_normal((n, m)),
                       grid=TimeGrid.uniform(0.0, 1.0, m))
    path = tmp_path / "vol.civt"
    save_volume_civt(vol, path)
    data = bytearray(path.read_bytes())
    data[-4:] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(data))
    rc = main(["fit", "--input", str(path), "--format", "civt", "--d", "6",
               "--k-set", "2", "--restarts", "1", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"non-finite values (voxel {n - 1})" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text", ["7", "[1, 2]", '"d"'], ids=["number", "list", "string"])
def test_fit_config_that_is_not_an_object_is_refused_before_the_volume_is_read(
        tmp_path, blocked_civt, capsys, monkeypatch, text):
    def load(*args):
        raise AssertionError("the volume was read")

    monkeypatch.setattr(cli, "load_volume", load)
    vol_path, _ = blocked_civt
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    rc = main(["fit", "--input", str(vol_path), "--format", "civt",
               "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"{cfg_path}: the config must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_fit_descending_k_range_is_validation_error(tmp_path, blocked_civt, capsys):
    vol_path, _ = blocked_civt
    rc = main(["fit", "--input", str(vol_path), "--format", "civt",
               "--d", "10", "--k-set", "3,9..5", "--restarts", "2",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "'9..5'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_fit_candidates_above_n_are_validation_error(tmp_path, blocked_civt, capsys):
    vol_path, _ = blocked_civt
    rc = main(["fit", "--input", str(vol_path), "--format", "civt",
               "--d", "10", "--k-set", "2..3,47..50", "--restarts", "2",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "candidates [49, 50] exceed the 48 voxels" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("n, argv, message", [
    (48, ["--alpha", "0.9", "--k-set", "2..6"],
     "candidates [5, 6] exceed the 4 voxels kept of 48 at alpha=0.9"),
    (48, ["--k-set", "2..4"], "the slope needs at least 4 candidates, got 3"),
    (1, ["--k-set", "1"], "normalization needs at least two series"),
], ids=["k-above-kept", "three-candidates", "normalize-one"])
def test_fit_setting_the_volume_cannot_support_is_refused_before_stage1(
        tmp_path, capsys, monkeypatch, n, argv, message):
    def stage1(*args):
        raise AssertionError("stage 1 ran")

    monkeypatch.setattr(pipeline, "_stage1_coefficients", stage1)
    m = 20
    vol = VolumeSeries(dims=(n, 1, 1),
                       series=np.random.default_rng(0).standard_normal((n, m)),
                       grid=TimeGrid.uniform(0.0, 1.0, m))
    path = tmp_path / "vol.civt"
    save_volume_civt(vol, path)
    rc = main(["fit", "--input", str(path), "--format", "civt", "--d", "6",
               "--restarts", "1", *argv, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_fit_slope_failure_writes_the_sweep_and_exits_3(tmp_path, blocked_civt,
                                                         capsys, monkeypatch):
    def unusable(trace):
        raise SlopeEstimationError("estimated slope 0.000e+00 is unusable")

    monkeypatch.setattr(pipeline, "estimate_slope_ddse", unusable)
    vol_path, _ = blocked_civt
    out = tmp_path / "x"
    rc = main(["fit", "--input", str(vol_path), "--format", "civt", "--d", "6",
               "--k-set", "2..5", "--restarts", "1", "--out", str(out)])
    assert rc == 3
    assert "model selection failed: estimated slope" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]
    assert SelectionTrace.read_csv(out / "trace.csv").k_values == [2, 3, 4, 5]


def test_fit_missing_input_is_validation_error(tmp_path):
    rc = main(["fit", "--input", str(tmp_path / "absent.civt"),
               "--format", "civt", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_select_with_ddse_and_explicit_kappa(tmp_path):
    trace = SelectionTrace(n_points=100)
    for k in range(2, 11):
        loss = 10.0 / k + 0.002 * penalty_spherical(k, 10)
        trace.add(k, -loss * 100, penalty_spherical(k, 10), 0.0)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)

    rc = main(["select", "--trace", str(path)])
    assert rc == 0

    rc = main(["select", "--trace", str(path), "--kappa", "0.002", "--n", "100"])
    assert rc == 0

    # explicit kappa without n cannot scale the loss
    rc = main(["select", "--trace", str(path), "--kappa", "0.002"])
    assert rc == 2


def test_select_names_the_scale_of_the_kappa_it_prints(tmp_path, capsys):
    # without --n the slope is fitted on the total loss, n times fit's kappa;
    # with --n the printed kappa is one --kappa takes back
    trace = SelectionTrace(n_points=100)
    for k in range(2, 11):
        loss = 10.0 / k + 0.002 * penalty_spherical(k, 10)
        trace.add(k, -loss * 100, penalty_spherical(k, 10), 0.0)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)

    assert main(["select", "--trace", str(path), "--n", "100"]) == 0
    out, err = capsys.readouterr()
    assert err.startswith("kappa = ")
    kappa = err.split()[2]
    assert main(["select", "--trace", str(path), "--kappa", kappa, "--n", "100"]) == 0
    assert capsys.readouterr().out == out

    assert main(["select", "--trace", str(path)]) == 0
    total_out, err = capsys.readouterr()
    assert total_out == out
    assert err.startswith("n*kappa = ") and "pass --n for fit's kappa" in err
    assert float(err.split()[2]) == pytest.approx(100 * float(kappa), rel=1e-6)


def _five_row_trace(tmp_path):
    """A trace on which --kappa 0.01 --n 100 gives the criterion
    2.4, 2.1, 2.0, 2.1, 2.25 for k = 2..6, so k = 4."""
    trace = SelectionTrace(n_points=100)
    for k, loss in zip(range(2, 7), (2.0, 1.5, 1.2, 1.1, 1.05)):
        trace.add(k, -loss * 100, penalty_spherical(k, 10), 0.0)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    return path


def test_select_with_explicit_kappa_prints_the_penalized_minimum(tmp_path, capsys):
    rc = main(["select", "--trace", str(_five_row_trace(tmp_path)),
               "--kappa", "0.01", "--n", "100"])
    assert rc == 0
    assert capsys.readouterr().out == "4\n"


@pytest.mark.parametrize("kappa, n, message", [
    ("nan", "100", "kappa must be a positive finite number"),
    ("inf", "100", "kappa must be a positive finite number"),
    ("0.01", "-100", "--n must be at least 1"),
    ("0.01", "0", "--n must be at least 1"),
], ids=["kappa-nan", "kappa-inf", "n-negative", "n-zero"])
def test_select_refuses_a_kappa_or_n_it_cannot_use(tmp_path, capsys, kappa, n, message):
    # each used to print a k (2, 2, 2 and 6) with exit code 0
    rc = main(["select", "--trace", str(_five_row_trace(tmp_path)),
               "--kappa", kappa, "--n", n])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--study", "s1", "--grid", "100"],
     "grid entry '100' is not of the form MxN"),
    (["simulate", "--study", "s1", "--grid", "100x500,x500"],
     "grid entry 'x500' is not of the form MxN"),
    (["fit", "--input", "missing.civt", "--format", "civt", "--k-set", "2.."],
     "k set entry '2..' is not an integer k or a range lo..hi"),
    (["fit", "--input", "missing.civt", "--format", "civt", "--k-set", "2,three"],
     "k set entry 'three' is not an integer k or a range lo..hi"),
], ids=["grid-no-x", "grid-no-m", "k-set-open-range", "k-set-word"])
def test_malformed_grid_or_k_set_names_the_entry_and_the_form(tmp_path, capsys, argv,
                                                              message):
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_select_refuses_a_short_trace_row_naming_its_line(tmp_path, capsys):
    # the short row used to end in an IndexError traceback and exit code 1
    path = tmp_path / "t.csv"
    path.write_text("k,loglik,pen,seconds\n2,-1,2,0\n3,-1\n")
    rc = main(["select", "--trace", str(path), "--kappa", "1", "--n", "5"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}, line 3: expected k,loglik,pen,seconds\n"


def test_select_refuses_a_nan_in_the_trace(tmp_path, capsys):
    # the NaN row used to be selected: np.argmin returns the first NaN
    path = tmp_path / "t.csv"
    path.write_text("k,loglik,pen,seconds\n2,nan,2,0\n3,-5,3,0\n")
    rc = main(["select", "--trace", str(path), "--kappa", "1", "--n", "5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "the trace's loss or penalty is NaN at k = [2]" in captured.err
    # an infinite loss is the worst k, not an error
    path.write_text("k,loglik,pen,seconds\n2,-inf,2,0\n3,-5,3,0\n")
    assert main(["select", "--trace", str(path), "--kappa", "1", "--n", "5"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_select_prints_chosen_k(tmp_path, capsys):
    trace = SelectionTrace(n_points=50)
    for k in range(2, 9):
        loss = (5.0 - k) if k <= 5 else -0.001 * k
        trace.add(k, -loss * 50, penalty_spherical(k, 10), 0.0)
    path = tmp_path / "t.csv"
    trace.write_csv(path)
    rc = main(["select", "--trace", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip().isdigit()


def test_select_flat_trace_exits_3(tmp_path):
    trace = SelectionTrace(n_points=10)
    for k in range(2, 8):
        trace.add(k, -100.0, penalty_spherical(k, 10), 0.0)
    path = tmp_path / "flat.csv"
    trace.write_csv(path)
    rc = main(["select", "--trace", str(path)])
    assert rc == 3


def test_ari_prints_six_decimals(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("1\n1\n1\n2\n2\n2\n")
    b.write_text("1\n1\n2\n2\n2\n2\n")
    rc = main(["ari", "--a", str(a), "--b", str(b)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "0.324324"


def test_ari_reads_label_column(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x,y,z,label,trimmed\n0,0,0,1,0\n1,0,0,1,0\n0,1,0,2,0\n1,1,0,2,0\n")
    b.write_text("4\n4\n9\n9\n")
    rc = main(["ari", "--a", str(a), "--b", str(b)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1.000000"


def test_ari_refuses_a_short_label_row_naming_its_line(tmp_path, capsys):
    # the short row used to end in an IndexError traceback and exit code 1
    a = tmp_path / "l1.csv"
    b = tmp_path / "l2.csv"
    a.write_text("x,y,z,label,trimmed\n0,0,0,1,0\n1,0,0\n")
    b.write_text("1\n2\n")
    rc = main(["ari", "--a", str(a), "--b", str(b)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {a}, line 3: no label in column 4\n"


def test_render_from_civl(tmp_path, blocked_civt):
    vol_path, _ = blocked_civt
    out = tmp_path / "run3"
    assert main(["fit", "--input", str(vol_path), "--format", "civt",
                 "--d", "10", "--k-set", "2..5", "--restarts", "6",
                 "--seed", "11", "--lambda", "0.1", "--out", str(out)]) == 0
    ppm = tmp_path / "slice.ppm"
    rc = main(["render", "--labels", str(out / "labels.civl"),
               "--axis", "z", "--index", "1", "--out", str(ppm)])
    assert rc == 0
    data = ppm.read_bytes()
    assert data.startswith(b"P6\n4 4\n255\n")
    assert len(data.split(b"255\n", 1)[1]) == 4 * 4 * 3

    rc = main(["render", "--labels", str(out / "labels.civl"),
               "--axis", "z", "--index", "99", "--out", str(ppm)])
    assert rc == 2


def test_simulate_writes_report(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["simulate", "--study", "s1", "--grid", "30x40",
               "--replicates", "2", "--seed", "5", "--methods", "kmeans",
               "--restarts", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "study,m,n,method,alpha,ari_mean,ari_se,seconds"
    assert len(lines) == 2


def test_simulate_zero_restarts_is_refused_before_simulating(tmp_path, capsys,
                                                            monkeypatch):
    def simulate(*args):
        raise AssertionError("data was simulated")

    monkeypatch.setattr(simstudy, "simulate_study", simulate)
    out = tmp_path / "report.csv"
    rc = main(["simulate", "--study", "s1", "--grid", "30x40", "--replicates", "2",
               "--methods", "kmeans", "--restarts", "0", "--out", str(out)])
    assert rc == 2
    assert "restarts must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--study", "s1", "--grid", "30x40", "--methods", "kmeans,trimmed:1.5"],
    ["fit", "--input", "missing.civt", "--format", "civt", "--alpha", "1.5"],
], ids=["simulate", "fit"])
def test_alpha_outside_its_range_is_named_in_the_error(tmp_path, capsys, argv):
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    assert "alpha must lie in [0, 1), got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["trimmed", "trimmed:abc"])
def test_trimmed_method_without_an_alpha_names_the_spec_and_the_form(tmp_path, capsys,
                                                                   method):
    out = tmp_path / "report.csv"
    rc = main(["simulate", "--study", "s1", "--grid", "30x40",
               "--methods", f"kmeans,{method}", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: method {method!r} is not of the form "
                                       "trimmed:<alpha>\n")
    assert not out.exists()


@pytest.mark.parametrize("methods, message", [
    ("kmeans:0.3", "method 'kmeans:0.3' takes no argument"),
    ("gmm:abc", "method 'gmm:abc' takes no argument"),
    ("kmeans,gmm,kmeans", "method 'kmeans' is listed twice"),
    ("trimmed:0.25,trimmed:.25", "method 'trimmed:.25' is listed twice"),
], ids=["kmeans-alpha", "gmm-word", "kmeans-twice", "trimmed-twice"])
def test_simulate_method_spec_it_would_misread_is_refused(tmp_path, capsys, methods,
                                                          message):
    # taken as given, the argument to gmm or kmeans would be dropped, and a
    # repeated method's two rows would each average both lists of ARIs
    out = tmp_path / "report.csv"
    rc = main(["simulate", "--study", "s1", "--grid", "30x40",
               "--methods", methods, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_empty_method_list_is_refused_before_simulating(tmp_path, capsys,
                                                                 monkeypatch):
    # it used to simulate every replicate and write a report of one header line
    def simulate(*args):
        raise AssertionError("data was simulated")

    monkeypatch.setattr(simstudy, "simulate_study", simulate)
    out = tmp_path / "report.csv"
    rc = main(["simulate", "--study", "s1", "--grid", "30x40",
               "--methods", ",", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == ("error: no methods given: name at least one "
                                       "of gmm, kmeans, trimmed:<alpha>\n")
    assert not out.exists()


@pytest.mark.parametrize("grid, method, message", [
    ("100x5", "gmm", "gmm needs more points than its 5 components"),
    ("100x8", "trimmed:0.5", "trimmed:0.5 retains 4 points, fewer than k=5"),
])
def test_simulate_cell_too_small_is_refused_before_simulating(tmp_path, capsys, monkeypatch,
                                                              grid, method, message):
    def simulate(*args):
        raise AssertionError("data was simulated")

    monkeypatch.setattr(simstudy, "simulate_study", simulate)
    out = tmp_path / "report.csv"
    rc = main(["simulate", "--study", "s1", "--grid", f"30x40,{grid}",
               "--methods", f"kmeans,{method}", "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
