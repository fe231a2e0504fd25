"""Fractional Brownian paths, regularized self-intersection local time, and
Edwards-measure reweighting on a uniform grid.

The package is organized bottom-up: exact path sampling (fbm), shifts of the
underlying Gaussian measure and their densities (cameron_martin), the
centered self-intersection local time and its eps ladder (silt),
second-moment machinery with the Holder-modulus and density-process checks
(moments), reweighted ensembles with cylinder functions and the quadratic
form (edwards), a path-space MALA sampler (mala), and serialization plus a
CLI (pathio, config, cli).
"""

from .params import ModelParams, TimeGrid, make_grid
from .rng import stream
from .fbm import GridCovariance, FbmPath, cov_h, sample_fbm, sample_fbm_batch
from .cameron_martin import (
    CMShift,
    ShiftedPath,
    builtin_shift,
    c_h_norm,
    gaussian_rn_density,
    kernel_rh,
    log_gaussian_rn_density,
    make_shift_from_h,
    make_shift_from_target,
)
from .silt import (
    EpsLadder,
    LadderConfig,
    SiltEstimate,
    brownian_plane_expectation,
    centered_ladder,
    heat_kernel,
    silt_centered,
    silt_expectation,
    silt_expectation_grid,
    silt_limit,
    silt_raw,
    silt_raw_batch,
    silt_raw_shifted,
)
from .moments import (
    ContinuityScan,
    HolderReport,
    MomentIntegral,
    SigmaMatrix,
    continuity_scan,
    density_process,
    density_process_batch,
    gaussian_moment_integral,
    holder_verify,
    l2_difference_silt,
    sigma_matrix,
)
from .edwards import (
    CylinderFunction,
    SmoothFn,
    WeightedEnsemble,
    coordinate_functional,
    dirichlet_form,
    edwards_ensemble,
    gradient_cylinder,
    make_linear,
    make_poly_bump,
    make_tanh,
    random_cylinder,
)
from .mala import ChainState, MalaResult, batch_means_stderr, load_checkpoint, run_mala, save_checkpoint
from .config import ConfigError, RunConfig, config_hash, dump_config, load_config, parse_config
from .pathio import (
    read_path_binary,
    read_path_csv,
    read_shift_csv,
    write_path_binary,
    write_path_csv,
    write_shift_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ModelParams",
    "TimeGrid",
    "make_grid",
    "stream",
    "GridCovariance",
    "FbmPath",
    "cov_h",
    "sample_fbm",
    "sample_fbm_batch",
    "CMShift",
    "ShiftedPath",
    "builtin_shift",
    "c_h_norm",
    "gaussian_rn_density",
    "kernel_rh",
    "log_gaussian_rn_density",
    "make_shift_from_h",
    "make_shift_from_target",
    "EpsLadder",
    "LadderConfig",
    "SiltEstimate",
    "brownian_plane_expectation",
    "centered_ladder",
    "heat_kernel",
    "silt_centered",
    "silt_expectation",
    "silt_expectation_grid",
    "silt_limit",
    "silt_raw",
    "silt_raw_batch",
    "silt_raw_shifted",
    "ContinuityScan",
    "HolderReport",
    "MomentIntegral",
    "SigmaMatrix",
    "continuity_scan",
    "density_process",
    "density_process_batch",
    "gaussian_moment_integral",
    "holder_verify",
    "l2_difference_silt",
    "sigma_matrix",
    "CylinderFunction",
    "SmoothFn",
    "WeightedEnsemble",
    "coordinate_functional",
    "dirichlet_form",
    "edwards_ensemble",
    "gradient_cylinder",
    "make_linear",
    "make_poly_bump",
    "make_tanh",
    "random_cylinder",
    "ChainState",
    "MalaResult",
    "batch_means_stderr",
    "load_checkpoint",
    "run_mala",
    "save_checkpoint",
    "ConfigError",
    "RunConfig",
    "config_hash",
    "dump_config",
    "load_config",
    "parse_config",
    "read_path_binary",
    "read_path_csv",
    "read_shift_csv",
    "write_path_binary",
    "write_path_csv",
    "write_shift_csv",
]
