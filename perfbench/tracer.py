"""Timing wrappers around the program's public functions, for the traced run.

Each wrapper is installed where the function's callers look it up (the
module globals of the caller), so the program's own code is unchanged.
The tracer keeps, per layer function, its call count, total seconds and
self seconds (total minus the time spent in wrapped functions it called),
plus counts computed from the calls' arguments. A function that no longer
exists at a patch site is recorded as absent, and its metrics are reported
as null rather than zero; a metric summed over several functions counts
the ones still present.
"""

from __future__ import annotations

import functools
import importlib
import time

# (layer name, module the callers live in, attribute name). One layer may
# be patched at several sites; each call passes through exactly one wrapper.
PATCH_SITES = (
    ("cli.fit", "fdcluster.cli", "cmd_fit"),
    ("pipeline.load_volume", "fdcluster.cli", "load_volume"),
    ("pipeline.run_two_stage", "fdcluster.cli", "run_two_stage"),
    ("pipeline.export_cluster_map", "fdcluster.cli", "export_cluster_map"),
    ("pipeline.export_mean_functions", "fdcluster.cli", "export_mean_functions"),
    ("simstudy.run_study", "fdcluster.cli", "run_study"),
    ("basis.detrend", "fdcluster.pipeline", "detrend"),
    ("basis.design_matrix", "fdcluster.pipeline", "design_matrix"),
    ("basis.ols_fit", "fdcluster.pipeline", "ols_fit"),
    ("pipeline.normalize_columns", "fdcluster.pipeline", "normalize_columns"),
    ("tclust.trimmed_kmeans", "fdcluster.pipeline", "trimmed_kmeans"),
    ("mixtures.spherical_log_likelihood", "fdcluster.pipeline", "spherical_log_likelihood"),
    ("selection.estimate_slope_ddse", "fdcluster.pipeline", "estimate_slope_ddse"),
    ("selection.select_k", "fdcluster.pipeline", "select_k"),
    ("tclust.allocate_all", "fdcluster.pipeline", "allocate_all"),
    ("tclust.tclust_step", "fdcluster.tclust", "tclust_step"),
    ("tclust.tclust_objective", "fdcluster.tclust", "tclust_objective"),
    # fit_gmm_em imports trimmed_kmeans from fdcluster.tclust at call time
    ("tclust.trimmed_kmeans", "fdcluster.tclust", "trimmed_kmeans"),
    ("simstudy.simulate_study", "fdcluster.simstudy", "simulate_study"),
    ("basis.design_matrix", "fdcluster.simstudy", "design_matrix"),
    ("basis.ols_fit", "fdcluster.simstudy", "ols_fit"),
    ("mixtures.fit_gmm_em", "fdcluster.simstudy", "fit_gmm_em"),
    ("mixtures.bayes_allocate", "fdcluster.simstudy", "bayes_allocate"),
    ("tclust.trimmed_kmeans", "fdcluster.simstudy", "trimmed_kmeans"),
    ("tclust.allocate_all", "fdcluster.simstudy", "allocate_all"),
    ("simstudy.adjusted_rand_index", "fdcluster.simstudy", "adjusted_rand_index"),
)


def _rows(U) -> int:
    values = getattr(U, "values", U)
    return int(values.shape[0])


def _dist_evals(args, kwargs) -> int:
    """n * k distances scored by one tclust_step or tclust_objective call."""
    U = args[0] if args else kwargs["U"]
    model = args[1] if len(args) > 1 else kwargs["model"]
    return _rows(U) * int(model.means.shape[0])


def _volume_bytes(result) -> int:
    """n * m * 4: the CIVT payload behind a loaded volume."""
    return int(result.series.shape[0]) * int(result.series.shape[1]) * 4


# layer -> (counter name, function of (args, kwargs, result))
COUNTERS = {
    "tclust.tclust_step": ("dist_evals", lambda a, kw, r: _dist_evals(a, kw)),
    "tclust.tclust_objective": ("dist_evals", lambda a, kw, r: _dist_evals(a, kw)),
    "pipeline.load_volume": ("bytes", lambda a, kw, r: _volume_bytes(r)),
}


class Tracer:
    """Per-layer calls, total and self seconds, and argument-derived counts."""

    def __init__(self):
        self.stats = {}        # layer -> {"calls", "s", "self_s", counters...}
        self.absent = set()
        self._stack = []       # child seconds accumulated per open call

    def _record(self, layer, elapsed, child, extra):
        st = self.stats.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["s"] += elapsed
        st["self_s"] += elapsed - child
        if extra is not None:
            name, value = extra
            st[name] = st.get(name, 0) + value

    def wrap(self, layer, fn):
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
            extra = None
            if counter is not None:
                extra = (counter[0], counter[1](args, kwargs, result))
            self._record(layer, elapsed, child, extra)
            return result

        return traced

    def install(self):
        present = set()
        for layer, module_name, attr in PATCH_SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            present.add(layer)
            setattr(module, attr, self.wrap(layer, fn))
        self.absent = {layer for layer, _, _ in PATCH_SITES} - present
        return self


def layer_metrics(stats: dict, absent) -> dict:
    """Per-layer metrics of one traced round, by name; None marks an absent layer."""

    def g(layer, key="s"):
        if layer in absent:
            return None
        return stats.get(layer, {}).get(key, 0)

    def total(*values):
        # a sum over the parts still present; absent only when every part is
        present = [v for v in values if v is not None]
        return sum(present) if present else None

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den > 0 else 0.0

    load_mb = g("pipeline.load_volume", "bytes")
    dist_evals = total(g("tclust.tclust_step", "dist_evals"),
                       g("tclust.tclust_objective", "dist_evals"))
    return {
        "pipeline.load_volume.s": g("pipeline.load_volume"),
        "pipeline.load_volume.mb_per_s": ratio(
            None if load_mb is None else load_mb / 1e6, g("pipeline.load_volume")),
        "pipeline.normalize_columns.s": g("pipeline.normalize_columns"),
        "pipeline.export.s": total(g("pipeline.export_cluster_map"),
                                   g("pipeline.export_mean_functions")),
        "pipeline.run_two_stage.self_s": g("pipeline.run_two_stage", "self_s"),
        "basis.detrend.s": g("basis.detrend"),
        "basis.design_matrix.s": g("basis.design_matrix"),
        "basis.ols_fit.s": g("basis.ols_fit"),
        "tclust.tclust_step.self_s": g("tclust.tclust_step", "self_s"),
        "tclust.tclust_objective.s": g("tclust.tclust_objective"),
        "tclust.trimmed_kmeans.self_s": g("tclust.trimmed_kmeans", "self_s"),
        "tclust.tclust_step.calls": g("tclust.tclust_step", "calls"),
        "tclust.dist_evals": dist_evals,
        "tclust.dist_evals_per_s": ratio(dist_evals, g("tclust.tclust_step")),
        "tclust.allocate_all.s": g("tclust.allocate_all"),
        "mixtures.spherical_log_likelihood.s": g("mixtures.spherical_log_likelihood"),
        "mixtures.fit_gmm_em.s": g("mixtures.fit_gmm_em"),
        "mixtures.bayes_allocate.s": g("mixtures.bayes_allocate"),
        "selection.s": total(g("selection.estimate_slope_ddse"),
                             g("selection.select_k")),
        "simstudy.simulate_study.s": g("simstudy.simulate_study"),
        "simstudy.adjusted_rand_index.s": g("simstudy.adjusted_rand_index"),
        "simstudy.run_study.self_s": g("simstudy.run_study", "self_s"),
        "cli.fit.self_s": g("cli.fit", "self_s"),
    }


UNITS = {
    "pipeline.load_volume.mb_per_s": "MB/s",
    "tclust.tclust_step.calls": "count",
    "tclust.dist_evals": "count",
    "tclust.dist_evals_per_s": "1/s",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s")
