"""Estimation, capacity, and energy-efficiency limits of large-scale MISO
links with transceiver hardware impairments."""

from .randmat import (
    CovarianceMatrix,
    InvalidMatrixError,
    exponential_correlation,
    psd_factor,
    sample_cn,
    sample_scalar_cn,
    substream,
)
from .specfun import exp_integral_e1, one_minus_x_ex_e1
from .estimation import (
    ImpairmentProfile,
    MonteCarloEstimate,
    SingularMatrixError,
    UplinkConfig,
    empirical_mse,
    empirical_mse_batch,
    error_covariance,
    error_floor,
    error_floor_iid,
    floor_per_antenna,
    lmmse_filter,
    mse_per_antenna,
    pilot_chain,
)
from .capacity import (
    DownlinkConfig,
    capacity_ideal_jensen,
    capacity_upper_bound,
    lower_bound_asymptotic,
    lower_bound_iid,
    lower_bound_is_exact,
    lower_bound_mc,
    lower_bound_mc_batch,
    lower_bound_rates,
    lower_limit_scaled_power,
    optimal_beamformer,
    sinr_of_beamformer,
    sinr_perfect_csi,
    upper_limit_high_power,
    upper_limit_large_n,
)
from .energy import EnergyConfig, ee_sweep, energy_efficiency, scaled_power
from .experiments import ExperimentConfig, run_experiment, write_csv

__version__ = "0.1.0"
