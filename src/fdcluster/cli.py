"""Command-line interface.

Subcommands: ``fit`` (end-to-end volume run), ``simulate`` (synthetic
study grid), ``select`` (re-run model selection from a sweep CSV),
``ari`` (compare two label files), ``render`` (slice image from a label
volume). Exit codes: 0 success, 2 validation error, 3 numerical failure
(nonpositive selection slope).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .pipeline import (CIVL_MAX_LABEL, RunConfig, export_cluster_map,
                       export_mean_functions, load_labels_civl, load_volume,
                       render_slice, run_two_stage)
from .selection import (SelectionTrace, SlopeEstimationError,
                        estimate_slope_ddse, select_k)
from .simstudy import DEFAULT_METHODS, adjusted_rand_index, run_study

CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _parse_k_set(text: str):
    """Parse '2..50' or '2,3,5' (mixes allowed) into a sorted tuple."""
    ks = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition("..")
        try:
            lo = int(lo)
            hi = int(hi) if sep else lo
        except ValueError:
            raise ValueError(f"k set entry {part!r} is not an integer k "
                             "or a range lo..hi") from None
        if lo > hi:
            raise ValueError(f"descending range {part!r} in k set")
        ks.extend(range(lo, hi + 1))
    if not ks:
        raise ValueError(f"empty k set {text!r}")
    return tuple(sorted(set(ks)))


def _parse_grid(text: str):
    """Parse '100x500,100x1000' into [(m, n), ...]."""
    cells = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        m, _, n = part.partition("x")
        try:
            cells.append((int(m), int(n)))
        except ValueError:
            raise ValueError(f"grid entry {part!r} is not of the form MxN") from None
    if not cells:
        raise ValueError(f"empty grid {text!r}")
    return cells


def _read_labels(path):
    """Labels from a bare one-column file or a CSV with a 'label' column; a
    first row whose label is not an integer is a header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if r]
    if not rows:
        raise ValueError(f"no labels in {path}")
    header = [h.strip().lower() for h in rows[0][1]]
    col = header.index("label") if "label" in header else 0
    labels = []
    for line, row in rows:
        if len(row) <= col:
            raise ValueError(f"{path}, line {line}: no label in column {col + 1}")
        try:
            labels.append(int(row[col]))
        except ValueError:
            if line != rows[0][0]:
                raise ValueError(f"{path}, line {line}: label {row[col]!r} "
                                 "is not an integer") from None
    return np.array(labels, dtype=np.int64)


def _build_run_config(args) -> RunConfig:
    values = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: the config must be a JSON object")
        unknown = set(loaded) - set(CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        values.update(loaded)
    for name in CONFIG_FIELDS:      # fit's flags are stored under these names
        value = getattr(args, name)
        if value is not None:
            values[name] = _parse_k_set(value) if name == "k_set" else value
    return RunConfig(**values)


def _usable_cpus() -> int:
    """The CPUs this process may run on: fit and simulate use one worker
    process each (restrict them with e.g. `taskset -c 0`)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call outside Linux
        return os.cpu_count() or 1


def cmd_fit(args) -> int:
    cfg = _build_run_config(args)
    if max(cfg.k_set) > CIVL_MAX_LABEL:
        raise ValueError(f"candidate k = {max(cfg.k_set)} exceeds {CIVL_MAX_LABEL}, the "
                         "largest label labels.civl stores; keep the candidates at or below it")
    vol = load_volume(args.input, args.format)
    out = Path(args.out)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = run_two_stage(vol, cfg, jobs=_usable_cpus())
    except SlopeEstimationError as exc:
        exc.trace.write_csv(out / "trace.csv")
        print(f"model selection failed: {exc}", file=sys.stderr)
        print(f"sweep written to {out / 'trace.csv'}", file=sys.stderr)
        return 3
    except ValueError:
        # a refused setting or a non-finite value: nothing was written, so
        # leave no empty output directory behind
        if made:
            out.rmdir()
        raise

    result.trace.write_csv(out / "trace.csv")
    if result.slope is not None:
        with open(out / "slope.json", "w") as fh:
            json.dump({"kappa": result.slope.kappa,
                       "window": [int(k) for k in result.slope.window],
                       "window_slopes": [[int(w), s] for w, s in result.slope.diagnostics]},
                      fh, indent=2)
    with open(out / "selection.json", "w") as fh:
        json.dump({"k_hat": result.k_hat, "n": result.trace.n_points,
                   "d": cfg.d, "alpha": cfg.alpha,
                   "kappa": result.slope.kappa if result.slope else None},
                  fh, indent=2)
    export_cluster_map(result.cluster_volume, out / "labels.csv", out / "labels.civl")
    export_mean_functions(result.mean_functions, out / "means.csv")

    models = out / "models"
    models.mkdir(exist_ok=True)
    for k, fit in sorted(result.fits.items()):
        np.savetxt(models / f"means_k{k:02d}.csv", fit.model.means, delimiter=",")
    if result.stats is not None:
        np.savetxt(out / "normalization.csv",
                   np.vstack([result.stats.means, result.stats.sds]), delimiter=",")
    print(f"selected k = {result.k_hat}; outputs in {out}")
    return 0


def cmd_simulate(args) -> int:
    methods = ([s.strip() for s in args.methods.split(",") if s.strip()]
               if args.methods else list(DEFAULT_METHODS))
    report = run_study(args.study, _parse_grid(args.grid), args.replicates,
                       methods=methods, seed=args.seed, restarts=args.restarts,
                       jobs=_usable_cpus())
    report.write_csv(args.out)
    print(f"report written to {args.out}")
    return 0


def cmd_select(args) -> int:
    if args.n is not None and args.n < 1:
        raise ValueError("--n must be at least 1")
    trace = SelectionTrace.read_csv(args.trace, n_points=args.n)
    if args.kappa is not None:
        if args.n is None:
            raise ValueError("an explicit --kappa needs --n to scale the loss")
        print(select_k(trace, args.kappa))
        return 0
    slope = estimate_slope_ddse(trace)
    print(select_k(trace, slope.kappa))
    name, hint = ("kappa", "") if args.n is not None else ("n*kappa", "; pass --n for fit's kappa")
    print(f"{name} = {slope.kappa:.6e} (window k = {slope.window}){hint}", file=sys.stderr)
    return 0


def cmd_ari(args) -> int:
    a = _read_labels(args.a)
    b = _read_labels(args.b)
    print(f"{adjusted_rand_index(a, b):.6f}")
    return 0


def cmd_render(args) -> int:
    cv = load_labels_civl(args.labels)
    render_slice(cv, args.axis, args.index, args.out)
    print(f"slice written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fdcluster",
                                     description="Two-stage clustering of volumetric time series")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="run the two-stage pipeline on a volume")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("civt", "csv"), required=True)
    p.add_argument("--config", help="JSON file mirroring the run-config fields")
    p.add_argument("--d", type=int)
    p.add_argument("--k-set", dest="k_set", help="e.g. 2..50 or 2,3,5")
    p.add_argument("--alpha", type=float)
    p.add_argument("--restarts", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lambda", type=float, dest="lam", metavar="LAMBDA")
    p.add_argument("--no-detrend", dest="detrend", action="store_false", default=None)
    p.add_argument("--no-normalize", dest="normalize", action="store_false", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="run a synthetic study grid")
    p.add_argument("--study", choices=("s1", "s2", "S1", "S2"), required=True)
    p.add_argument("--grid", required=True, help="e.g. 100x500,100x1000")
    p.add_argument("--replicates", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", help="comma list: gmm,kmeans,trimmed:0.25")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("select", help="re-run model selection from a sweep CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--kappa", type=float)
    p.add_argument("--n", type=int, help="points behind the sweep (needed with --kappa)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("ari", help="adjusted Rand index of two label files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_ari)

    p = sub.add_parser("render", help="render one slice of a label volume")
    p.add_argument("--labels", required=True)
    p.add_argument("--axis", choices=("x", "y", "z"), default="z")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SlopeEstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
