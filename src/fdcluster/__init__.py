"""Two-stage clustering of large collections of noisy time series.

Stage 1 filters each series to B-spline coefficients by least squares;
Stage 2 clusters the coefficients with trimmed k-means, allocates every
series, and selects the number of clusters with a slope-calibrated
penalty. A simulation harness and a volumetric CLI sit on top.

The package root exports what the CLI and the end-to-end pipeline are
built from; the rest is imported from its module.
"""

from .basis import (TimeGrid, design_matrix, detrend, make_bspline_system,
                    ols_fit)
from .mixtures import spherical_log_likelihood
from .pipeline import (ClusterVolume, ColumnStats, FallbackWarning,
                       MeanFunctions, RunConfig, TwoStageResult,
                       VolumeSeries, export_cluster_map,
                       export_mean_functions, load_labels_civl, load_volume,
                       normalize_columns, render_slice, run_two_stage,
                       save_labels_civl, save_volume_civt)
from .selection import (SelectionTrace, SlopeEstimate, SlopeEstimationError,
                        estimate_slope_ddse, select_k)
from .simstudy import adjusted_rand_index, fit_gmm_em, run_study
from .tclust import ClusterFit, TrimSpec, allocate_all, trimmed_kmeans

__version__ = "0.1.0"
