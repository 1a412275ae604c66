"""Energy-efficiency metric and power-scaling sweep tests."""

import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misolim import estimation, randmat
from misolim.energy import (
    EnergyConfig,
    EnergyPoint,
    ee_points,
    ee_sweep,
    energy_efficiency,
    scaled_power,
)
from misolim.estimation import ImpairmentProfile
from misolim.experiments import (
    EE_KAPPA_IMPAIRED,
    EE_P_BASE_W,
    EE_SNR_BASE_DB,
    EXP_CORR_RHO,
    ExperimentConfig,
    db_to_linear,
    run_experiment,
)
from misolim.randmat import CovarianceMatrix, exponential_correlation


def identity_channel(n):
    return CovarianceMatrix.identity(n), CovarianceMatrix.identity(n), 0.01


class TestEnergyConfig:
    def test_defaults_are_valid(self):
        cfg = EnergyConfig()
        assert cfg.bandwidth_hz == 15_000.0
        assert cfg.circuit_power == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"alpha1": -0.1},
        {"alpha2": -1.0},
        {"p_bs_base": 0.0},
        {"p_ut_base": -1.0},
        {"t_bs": -0.25},
        {"bandwidth_hz": 0.0},
        {"circuit_power": -0.5},
        {"t_bs": math.nan},
        {"alpha1": math.nan},
        {"bandwidth_hz": math.inf},
        {"p_bs_base": math.inf},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            EnergyConfig(**kwargs)

    @pytest.mark.parametrize("t_bs,t_ut,ok", [
        (0.0, 0.25, True),
        (0.5, 0.49, True),
        (0.0, 0.0, False),      # t_ut must be strictly positive
        (0.25, 0.5, False),     # t_ut must stay below 1/2
        (0.75, 0.3, False),     # sum must stay below 1
    ])
    def test_admissibility(self, t_bs, t_ut, ok):
        cfg = EnergyConfig(t_bs=t_bs, t_ut=t_ut)
        assert cfg.exponents_admissible() is ok


class TestScaledPower:
    @pytest.mark.parametrize("p,n,t,expected", [
        (1.0, 100, 0.5, 0.1),
        (1.0, 16, 0.25, 0.5),
        (2.0, 64, 0.0, 2.0),
        (1.0, 1, 0.5, 1.0),
    ])
    def test_values(self, p, n, t, expected):
        assert scaled_power(p, n, t) == pytest.approx(expected, rel=1e-14)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            scaled_power(0.0, 4, 0.5)
        for n in (0, True, 2.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                scaled_power(1.0, n, 0.5)
        with pytest.raises(ValueError):
            scaled_power(1.0, 4, -0.1)

    @pytest.mark.parametrize("p,t", [(1.0, math.nan), (1.0, math.inf),
                                     (math.inf, 0.5), (math.nan, 0.5)])
    def test_rejects_non_finite(self, p, t):
        with pytest.raises(ValueError):
            scaled_power(p, 4, t)

    @given(n=st.integers(1, 10_000), t=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_base(self, n, t):
        assert 0.0 < scaled_power(1.0, n, t) <= 1.0


class TestEnergyEfficiency:
    def test_reference_value(self):
        # 2 bits/use * 15000 uses/s over 1 W radiated = 30000 bits/Joule
        cfg = EnergyConfig()
        assert energy_efficiency(2.0, 1.0, 1.0, cfg) == pytest.approx(30_000.0)

    def test_overheads_enter_denominator(self):
        cfg = EnergyConfig(alpha1=0.5, alpha2=1.0)
        # denominator: 1.5 * 1 + 1.0 * 2 = 3.5 W
        assert energy_efficiency(7.0, 1.0, 2.0, cfg) == pytest.approx(
            7.0 * 15_000.0 / 3.5)

    def test_circuit_power_scales_with_antennas(self):
        cfg = EnergyConfig(circuit_power=0.1)
        assert energy_efficiency(1.0, 1.0, 0.0, cfg, n=10) == pytest.approx(
            15_000.0 / 2.0)

    def test_doubling_powers_halves_efficiency(self):
        cfg = EnergyConfig(alpha1=0.2, alpha2=0.3)
        a = energy_efficiency(3.0, 1.0, 0.5, cfg)
        b = energy_efficiency(3.0, 2.0, 1.0, cfg)
        assert b == pytest.approx(a / 2.0, rel=1e-14)

    @given(c=st.floats(0.01, 20.0), scale=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, c, scale):
        cfg = EnergyConfig()
        base = energy_efficiency(c, 1.0, 1.0, cfg)
        assert energy_efficiency(c, scale, scale, cfg) == pytest.approx(
            base / scale, rel=1e-12)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            energy_efficiency(-1.0, 1.0, 1.0, EnergyConfig())

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0),
                                      (math.inf, 1.0, 1.0),
                                      (1.0, math.nan, 1.0),
                                      (1.0, 1.0, math.inf)])
    def test_rejects_non_finite(self, args):
        with pytest.raises(ValueError):
            energy_efficiency(*args, EnergyConfig(alpha2=1.0))

    def test_rejects_zero_total_power(self):
        with pytest.raises(ValueError):
            energy_efficiency(1.0, 0.0, 1.0, EnergyConfig(alpha2=0.0))


class TestEeSweep:
    PROFILES = {
        "ideal": ImpairmentProfile(),
        "impaired": ImpairmentProfile.uniform(0.0025),
    }

    def test_point_layout(self):
        cfg = EnergyConfig(t_bs=0.25, t_ut=0.25)
        pts = ee_sweep(identity_channel, cfg, [1, 4], self.PROFILES,
                       n_samples=1000, seed=0)
        assert [(p.n, p.hardware) for p in pts] == [
            (1, "ideal"), (1, "impaired"), (4, "ideal"), (4, "impaired")]
        for p in pts:
            assert isinstance(p, EnergyPoint)
            assert p.p_bs == pytest.approx(p.n ** -0.25)
            assert p.ee > 0.0 and p.ee_std_error >= 0.0

    def test_efficiency_grows_under_sqrt_scaling(self):
        cfg = EnergyConfig(t_bs=0.5, t_ut=0.5)
        with pytest.warns(UserWarning):
            pts = ee_sweep(identity_channel, cfg, [4, 64],
                           {"ideal": ImpairmentProfile()},
                           n_samples=2000, seed=1)
        assert pts[1].ee > 2.0 * pts[0].ee

    def test_unscaled_power_plateaus(self):
        with pytest.warns(UserWarning):
            cfg = EnergyConfig(t_bs=0.0, t_ut=0.0)
            pts = ee_sweep(identity_channel, cfg, [16, 64, 256],
                           {"impaired": ImpairmentProfile.uniform(0.0025)},
                           n_samples=2000, seed=2)
        # at t = 0 the efficiency is the rate times a constant, and the
        # rate saturates: each 4x array adds fewer bits than the last
        # (about 1.75, then 1.40, with a standard error of about 0.07 on
        # their difference)
        ee = [p.ee for p in pts]
        assert ee[2] - ee[1] < ee[1] - ee[0]

    def test_matches_experiment_rows(self):
        # ee_sweep seeds the points of one n as the CLI does, so it gives
        # the energy-efficiency experiment's values for the same channel
        cfg = ExperimentConfig(experiment="energy-efficiency", seed=5,
                               n_samples=1000, n_grid=[2, 8], t=[0.25])
        rows = [row for row in run_experiment(cfg) if row[6] == "ee"]
        sigma2 = EE_P_BASE_W / db_to_linear(EE_SNR_BASE_DB)

        def channel(n):
            return (exponential_correlation(n, EXP_CORR_RHO),
                    CovarianceMatrix.identity(n).scaled(sigma2), sigma2)

        ecfg = EnergyConfig(p_bs_base=EE_P_BASE_W, p_ut_base=EE_P_BASE_W,
                            t_bs=0.25, t_ut=0.25)
        profiles = {"ideal": ImpairmentProfile(),
                    "impaired": ImpairmentProfile.uniform(EE_KAPPA_IMPAIRED)}
        pts = ee_sweep(channel, ecfg, [2, 8], profiles, n_samples=1000,
                       seed=5)
        assert [(p.n, p.ee, p.ee_std_error) for p in pts] == [
            (row[1], row[7], row[8]) for row in rows]

    def test_warns_on_inadmissible_exponents(self):
        cfg = EnergyConfig(t_bs=0.5, t_ut=0.5)
        assert not cfg.exponents_admissible()
        with pytest.warns(UserWarning, match="admissible"):
            ee_sweep(identity_channel, cfg, [2], {"ideal": ImpairmentProfile()},
                     n_samples=1000, seed=0)

    def test_channel_model_called_once_per_n(self):
        calls = []

        def channel(n):
            calls.append(n)
            return identity_channel(n)

        pts = ee_sweep(channel, EnergyConfig(t_bs=0.25, t_ut=0.25), [2, 8],
                       self.PROFILES, n_samples=1000, seed=3)
        assert calls == [2, 8]
        assert len(pts) == 4

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ee_sweep(identity_channel, EnergyConfig(t_ut=0.25), [],
                     self.PROFILES, n_samples=1000, seed=0)

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError, match="at least one config"):
            ee_sweep(identity_channel, EnergyConfig(t_ut=0.25), [2], {},
                     n_samples=1000, seed=0)


class TestNothingToSample:
    """A point whose every config is exact (``lower_bound_is_exact``)
    draws nothing and forks no process: the energy-efficiency run at
    kappa = 0 writes every rate with standard error 0."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def boom(*args):
            raise AssertionError("substream or fork called")

        monkeypatch.setattr(randmat, "substream", boom)
        monkeypatch.setattr(estimation, "substream", boom)
        monkeypatch.setattr(os, "fork", boom)

    def test_run_at_kappa_zero(self):
        cfg = ExperimentConfig(experiment="energy-efficiency", seed=5,
                               n_samples=1000, n_grid=[1, 8, 64],
                               kappa=[0.0], workers=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # t outside the admissible region
            rows = run_experiment(cfg)
        assert len(rows) == 3 * 3 * 2
        assert all(row[8] == 0.0 and row[7] > 0.0 for row in rows)

    def test_ee_points(self):
        specs = [(EnergyConfig(t_bs=t, t_ut=t), "ideal", ImpairmentProfile())
                 for t in (0.25, 0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pts = ee_points(16, identity_channel(16), specs, 1000, 0,
                            workers=2)
        assert [p.capacity_std_error for p in pts] == [0.0, 0.0]
        assert [p.ee_std_error for p in pts] == [0.0, 0.0]
