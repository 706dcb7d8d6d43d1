"""Hyper-heuristic feature selection.

A genetic-algorithm supervisor evolves sequences of 16 low-level
heuristics (bit-mask local searches). The heuristics improve a binary
feature mask under a correlation filter merit; the supervisor accepts
masks by 1-nearest-neighbor cross-validated accuracy. The experiment
harness reproduces multi-run UCI benchmarks with seeded determinism.
"""

from .correlation import CorrelationCache, build_cache, cfs_merit
from .dataset import (Dataset, DatasetError, load_csv, min_max_normalize,
                      stratified_folds)
from .evaluation import CvProtocol, FitnessEvaluator, cv_accuracy
from .experiment import (DatasetConfig, ExperimentSpec, full_feature_baseline,
                         load_config, render_comparison, run_experiment,
                         verify_report)
from .llh import CATALOG, LlhContext, LlhInfo
from .llh import apply as apply_llh
from .mask import FeatureMask
from .supervisor import (SupervisorConfig, SupervisorResult, roulette_select,
                         run_supervisor)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CorrelationCache",
    "CvProtocol",
    "Dataset",
    "DatasetConfig",
    "DatasetError",
    "ExperimentSpec",
    "FeatureMask",
    "FitnessEvaluator",
    "LlhContext",
    "LlhInfo",
    "SupervisorConfig",
    "SupervisorResult",
    "apply_llh",
    "build_cache",
    "cfs_merit",
    "cv_accuracy",
    "full_feature_baseline",
    "load_config",
    "load_csv",
    "min_max_normalize",
    "render_comparison",
    "roulette_select",
    "run_experiment",
    "run_supervisor",
    "stratified_folds",
    "verify_report",
]
