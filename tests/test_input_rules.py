"""The two input rules every public entry point applies: a real input is
a finite real and not a bool (``randmat._is_finite``), and a seed, a
sample count, a worker count, a sample size or an array size is an
integer and not a bool (``randmat._is_int``)."""

import math

import numpy as np
import pytest

from misolim import capacity
from misolim.capacity import (
    DownlinkConfig,
    lower_bound_mc,
    lower_bound_mc_batch,
    lower_bound_rates,
    lower_limit_scaled_power,
    upper_limit_high_power,
    upper_limit_large_n,
)
from misolim import estimation
from misolim.energy import (
    EnergyConfig,
    ee_points,
    energy_efficiency,
    scaled_power,
)
from misolim.estimation import (
    ImpairmentProfile,
    UplinkConfig,
    empirical_mse,
    empirical_mse_batch,
    error_floor_iid,
    pilot_chain,
)
from misolim.randmat import (
    CovarianceMatrix,
    InvalidMatrixError,
    derive_seed,
    exponential_correlation,
    nearly_psd,
    sample_cn,
    sample_scalar_cn,
    substream,
)
from misolim.specfun import exp_integral_e1, one_minus_x_ex_e1

EYE = CovarianceMatrix.identity(2)

# site -> (call with the value under test, whether it must be positive)
REAL_SITES = {
    **{f"ImpairmentProfile.{f}": (lambda x, f=f: ImpairmentProfile(**{f: x}),
                                  False)
       for f in ("kappa_t_bs", "kappa_r_bs", "kappa_t_ut", "kappa_r_ut")},
    "UplinkConfig.p_ut": (lambda x: UplinkConfig(r=EYE, s=EYE, p_ut=x), False),
    "upper_limit_large_n": (upper_limit_large_n, False),
    "upper_limit_high_power": (lambda x: upper_limit_high_power(4, 0.0, x),
                               False),
    "lower_limit_scaled_power": (lambda x: lower_limit_scaled_power(x, 0.0),
                                 False),
    "error_floor_iid.kappa": (lambda x: error_floor_iid(1.0, 0.0, x), False),
    "error_floor_iid.lam": (lambda x: error_floor_iid(x, 0.0, 0.0), True),
    "DownlinkConfig.p_bs": (lambda x: DownlinkConfig(p_bs=x, sigma2_ut=1.0),
                            True),
    "DownlinkConfig.sigma2_ut": (lambda x: DownlinkConfig(p_bs=1.0,
                                                          sigma2_ut=x), True),
    **{f"EnergyConfig.{f}": (lambda x, f=f: EnergyConfig(**{f: x}),
                             f in ("p_bs_base", "p_ut_base", "bandwidth_hz"))
       for f in ("alpha1", "alpha2", "p_bs_base", "p_ut_base", "t_bs", "t_ut",
                 "bandwidth_hz", "circuit_power")},
    "scaled_power.p_base": (lambda x: scaled_power(x, 4, 0.5), True),
    "scaled_power.t": (lambda x: scaled_power(1.0, 4, x), False),
    "energy_efficiency.capacity": (
        lambda x: energy_efficiency(x, 1.0, 1.0, EnergyConfig()), False),
    # alpha2 = 1: a zero or negative power leaves the total positive
    "energy_efficiency.p_bs": (
        lambda x: energy_efficiency(1.0, x, 5.0, EnergyConfig(alpha2=1.0)),
        False),
    "energy_efficiency.p_ut": (
        lambda x: energy_efficiency(1.0, 5.0, x, EnergyConfig(alpha2=1.0)),
        False),
    "nearly_psd.scale": (lambda x: nearly_psd(np.eye(2), x), False),
    "exp_integral_e1": (exp_integral_e1, True),
    "one_minus_x_ex_e1": (one_minus_x_ex_e1, True),
    "sample_scalar_cn": (lambda x: sample_scalar_cn(x, substream(0)), False),
    "CovarianceMatrix.scaled": (EYE.scaled, False),
    "exponential_correlation": (lambda x: exponential_correlation(3, x),
                                False),
}

HUGE = 10 ** 400  # an int too large for a float: OverflowError in isfinite

NOT_REAL = [True, np.True_, "0.5", np.array(1.0), math.nan, math.inf,
            -math.inf, -1.0, HUGE]


@pytest.mark.parametrize("site, value", [
    (site, value) for site, (_, positive) in REAL_SITES.items()
    for value in NOT_REAL + [0.0] * positive],
    ids=lambda v: "10**400" if v is HUGE else repr(v))
def test_real_inputs_are_rejected(site, value):
    call = REAL_SITES[site][0]
    error = InvalidMatrixError if site == "CovarianceMatrix.scaled" \
        else ValueError
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("site", REAL_SITES)
@pytest.mark.parametrize("value", [0, np.int64(0), np.float32(0.01)],
                         ids=repr)
def test_integers_and_numpy_reals_are_accepted(site, value):
    call, positive = REAL_SITES[site]
    if positive and value == 0:
        value += 1
    call(value)


def test_message_names_the_input_and_the_rule():
    with pytest.raises(ValueError, match=r"^kappa_t_ut must be a nonnegative "
                                         r"finite real, got True$"):
        ImpairmentProfile(kappa_t_ut=True)
    with pytest.raises(ValueError, match=r"^p_bs must be a positive finite "
                                         r"real, got 0\.0$"):
        DownlinkConfig(p_bs=0.0, sigma2_ut=1.0)


def iid_link(n=2):
    eye = CovarianceMatrix.identity(n)
    imp = ImpairmentProfile.uniform(0.0025)
    return (UplinkConfig(r=eye, s=eye, p_ut=10.0, imp=imp),
            DownlinkConfig(p_bs=10.0, sigma2_ut=1.0, imp=imp))


NOT_INT = [1.5, 7.9, True, np.True_, "1", np.float64(1.0)]


class TestIntegerInputs:
    """A seed, a sample count, a worker count or a size that is not an
    integer is refused, where int() used to truncate it to another
    integer's draws."""

    @pytest.mark.parametrize("seed", NOT_INT, ids=repr)
    def test_seeds(self, seed):
        ul, dl = iid_link()
        for call in (lambda: substream(seed), lambda: substream(1, seed),
                     lambda: derive_seed(seed, 4),
                     lambda: empirical_mse(ul, 1000, seed),
                     lambda: lower_bound_mc(ul, dl, 1000, seed)):
            with pytest.raises(ValueError, match="must be integers"):
                call()

    @pytest.mark.parametrize("count", [2.5e3, 1000.0, True, np.True_,
                                       "1000"], ids=repr)
    def test_sample_counts(self, count, monkeypatch):
        ul, dl = iid_link()
        # refused before any filter is formed
        for former in ("_chain_filters", "_diagonal_norms", "_dense_norms"):
            monkeypatch.setattr(estimation, former, None)
        for call in (lambda: empirical_mse(ul, count, 0),
                     lambda: lower_bound_mc(ul, dl, count, 0),
                     lambda: pilot_chain([ul], count, 0,
                                         lambda h, h_hat, h2: h2)):
            with pytest.raises(ValueError, match="integer"):
                call()

    @pytest.mark.parametrize("seed", [1.5, -3, True, "1"], ids=repr)
    def test_seed_checked_before_any_filter(self, seed, monkeypatch):
        # a negative seed would reach numpy's SeedSequence, and the others
        # substream, only after every filter was formed
        def never(*args):
            raise AssertionError("a filter was formed")

        monkeypatch.setattr(estimation, "_chain_filters", never)
        monkeypatch.setattr(estimation, "_error_filters", never)
        ul, dl = iid_link()
        dense = UplinkConfig(r=CovarianceMatrix(np.eye(2)), s=EYE, p_ut=1.0)
        for call in (lambda: pilot_chain([ul], 1000, seed,
                                         lambda h, h_hat, h2: h2),
                     lambda: empirical_mse(dense, 1000, seed),
                     lambda: lower_bound_mc(ul, dl, 1000, seed)):
            with pytest.raises(ValueError, match="must be integers"):
                call()

    def test_numpy_integers_draw_as_ints(self):
        ul, dl = iid_link()
        assert empirical_mse(ul, np.int64(1000), np.int64(3)) \
            == empirical_mse(ul, 1000, 3)
        assert lower_bound_mc(ul, dl, np.int32(1000), np.uint8(3)) \
            == lower_bound_mc(ul, dl, 1000, 3)

    @pytest.mark.parametrize("workers", [2.5, True, "2", 0, -1], ids=repr)
    def test_worker_counts(self, workers, monkeypatch):
        # refused by every Monte-Carlo entry point before any filter is
        # formed, and before any exact rate is computed
        def never(*args):
            raise AssertionError("work began")

        for former in ("_chain_filters", "_diagonal_norms", "_dense_norms"):
            monkeypatch.setattr(estimation, former, never)
        monkeypatch.setattr(capacity, "lower_bound_iid", never)
        ul, dl = iid_link()
        specs = [(EnergyConfig(), "impaired", ul.imp)]
        for call in (lambda: pilot_chain([ul], 1000, 0,
                                         lambda h, h_hat, h2: h2, workers),
                     lambda: empirical_mse_batch([ul], 1000, 0, workers),
                     lambda: lower_bound_mc_batch([(ul, dl)], 1000, 0,
                                                  workers),
                     lambda: lower_bound_rates([(ul, dl)], 1000, 0, workers),
                     lambda: ee_points(2, (EYE, EYE, 1.0), specs, 1000, 0,
                                       workers)):
            with pytest.raises(ValueError, match=r"^workers must be an "
                                                 r"integer >= 1, got"):
                call()

    @pytest.mark.parametrize("size", NOT_INT + [2.0, -1], ids=repr)
    def test_sample_sizes(self, size):
        rng = substream(0)
        for call in (lambda: sample_cn(EYE, rng, size=size),
                     lambda: sample_scalar_cn(1.0, rng, size=size),
                     lambda: sample_scalar_cn(1.0, rng, size=(2, size))):
            with pytest.raises(ValueError, match="^sizes must be integers "
                                                 ">= 0, got"):
                call()

    def test_sample_sizes_accepted(self):
        rng = substream(0)
        assert sample_cn(EYE, rng, size=np.int64(3)).shape == (3, 2)
        assert sample_cn(EYE, rng, size=0).shape == (0, 2)
        assert sample_scalar_cn(1.0, rng, size=(2, np.int32(3))).shape \
            == (2, 3)
        assert isinstance(sample_scalar_cn(1.0, rng), complex)

    @pytest.mark.parametrize("n", NOT_INT + [0, -3], ids=repr)
    def test_array_sizes(self, n):
        with pytest.raises(ValueError, match="dimension must be a positive "
                                             "integer"):
            energy_efficiency(1.0, 1.0, 1.0, EnergyConfig(), n=n)
