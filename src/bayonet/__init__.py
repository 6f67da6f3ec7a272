"""Bayesian lasso / elastic-net posteriors through a stationary-phase
approximation of the partition function, with exact single-coordinate and
Gibbs-sampling oracles for verification."""

from .data import (
    Dataset,
    PenalizedProblem,
    apply_standardization,
    build_problem,
    load_csv,
    standardize,
)
from .errors import (
    BayonetError,
    NotConverged,
    NumericalError,
    ParseError,
    SingularMatrix,
    ZeroVarianceColumn,
)
from .exact1d import (
    OneDimProblem,
    density_exact,
    expectation_exact,
    log_z_exact,
    prob_nonnegative,
)
from .gibbs import GibbsChain, run_gibbs
from .hyper import (
    CvReport,
    HyperGrid,
    cross_validate,
    default_grid,
    map_tau,
    mu_grid,
    mu_max,
    tau_grid,
)
from .mlfit import MlSolution, solve_ml
from .partition import LogPartition, log_det_c_plus_d, log_partition
from .posterior import (
    GridSpec,
    MarginalCurve,
    expectation,
    marginal_ml_approx,
    marginal_sp,
    posterior_sd,
)
from .saddle import SaddleSolution, solve_saddle, tau_path
from .special import RngStream

__version__ = "0.1.0"

__all__ = [
    "BayonetError",
    "CvReport",
    "Dataset",
    "GibbsChain",
    "GridSpec",
    "HyperGrid",
    "LogPartition",
    "MarginalCurve",
    "MlSolution",
    "NotConverged",
    "NumericalError",
    "OneDimProblem",
    "ParseError",
    "PenalizedProblem",
    "RngStream",
    "SaddleSolution",
    "SingularMatrix",
    "ZeroVarianceColumn",
    "apply_standardization",
    "build_problem",
    "cross_validate",
    "default_grid",
    "density_exact",
    "expectation",
    "expectation_exact",
    "load_csv",
    "log_det_c_plus_d",
    "log_partition",
    "log_z_exact",
    "map_tau",
    "marginal_ml_approx",
    "marginal_sp",
    "mu_grid",
    "mu_max",
    "posterior_sd",
    "prob_nonnegative",
    "run_gibbs",
    "solve_ml",
    "solve_saddle",
    "standardize",
    "tau_grid",
    "tau_path",
]
