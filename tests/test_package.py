"""The package namespace is the concatenation of its modules' __all__."""

import importlib

import edwardsim

# the package's public names before the modules' __all__ became the only list
EXPORTED = """
__version__ ModelParams TimeGrid make_grid stream GridCovariance FbmPath cov_h
sample_fbm sample_fbm_batch CMShift ShiftedPath builtin_shift c_h_norm
gaussian_rn_density kernel_rh log_gaussian_rn_density make_shift_from_h
make_shift_from_target EpsLadder LadderConfig SiltEstimate
brownian_plane_expectation centered_ladder heat_kernel silt_centered
silt_expectation silt_expectation_grid silt_limit silt_raw silt_raw_batch
silt_raw_shifted ContinuityScan HolderReport MomentIntegral SigmaMatrix
continuity_scan density_process density_process_batch gaussian_moment_integral
holder_verify l2_difference_silt sigma_matrix CylinderFunction SmoothFn
WeightedEnsemble coordinate_functional dirichlet_form edwards_ensemble
gradient_cylinder make_linear make_poly_bump make_tanh random_cylinder ChainState
MalaResult batch_means_stderr load_checkpoint run_mala save_checkpoint ConfigError
RunConfig config_hash dump_config load_config parse_config read_path_binary
read_path_csv read_shift_csv write_path_binary write_path_csv write_shift_csv
""".split()
MODULES = ("params", "rng", "fbm", "cameron_martin", "silt", "moments", "edwards", "mala",
           "config", "pathio")


def test_every_earlier_name_still_resolves():
    assert set(EXPORTED) <= set(edwardsim.__all__)
    for name in EXPORTED:
        assert hasattr(edwardsim, name), name


def test_all_is_the_modules_lists_without_repeats():
    modules = [importlib.import_module(f"edwardsim.{m}") for m in MODULES]
    assert edwardsim.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    assert len(set(edwardsim.__all__)) == len(edwardsim.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(edwardsim, name) is getattr(module, name), name
