"""Two-stage clustering of large collections of noisy time series.

Stage 1 filters each series to B-spline coefficients by least squares;
Stage 2 clusters the coefficients with trimmed k-means, allocates every
series, and selects the number of clusters with a slope-calibrated
penalty. A simulation harness and a volumetric CLI sit on top.
"""

from .basis import (BasisSystem, CoefSet, DesignMatrix, TimeGrid, design_matrix,
                    detrend, evaluate_basis, filter_series, make_bspline_system,
                    ols_fit, reconstruct)
from .mixtures import (GmmParams, MeanModel, bayes_allocate, fit_gmm_em,
                       gaussian_log_density, kmeans_allocate,
                       mixture_log_density, spherical_log_likelihood)
from .pipeline import (ClusterVolume, ColumnStats, FallbackWarning,
                       MeanFunctions, RunConfig, TwoStageResult,
                       VolumeSeries, export_cluster_map,
                       export_mean_functions, load_labels_civl, load_volume,
                       normalize_columns, render_slice, run_two_stage,
                       save_labels_civl, save_volume_civt)
from .selection import (SelectionTrace, SlopeEstimate, SlopeEstimationError,
                        estimate_slope_ddse, penalty_gmm_full,
                        penalty_spherical, select_k)
from .simstudy import (LabeledDataset, SimConfig, StudyReport,
                       adjusted_rand_index, run_study, simulate_study)
from .tclust import (ClusterFit, TclustState, TrimSpec, allocate_all,
                     component_log_score, tclust_objective, tclust_step,
                     trimmed_kmeans)

__version__ = "0.1.0"
