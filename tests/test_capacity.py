"""Downlink simulation, beamforming, and capacity-bound tests."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss
from scipy import integrate

from misolim import capacity, estimation, randmat
from misolim.capacity import (
    DownlinkConfig,
    _mrt_stats,
    _rate_estimate,
    MonteCarloEstimate,
    capacity_ideal_jensen,
    capacity_upper_bound,
    lower_bound_asymptotic,
    lower_bound_iid,
    lower_bound_mc,
    lower_bound_mc_batch,
    lower_limit_scaled_power,
    optimal_beamformer,
    sinr_of_beamformer,
    sinr_perfect_csi,
    upper_limit_high_power,
    upper_limit_large_n,
)
from misolim.estimation import (
    _CHUNK,
    _squared_moduli,
    ImpairmentProfile,
    UplinkConfig,
    empirical_mse,
    error_covariance,
    error_floor,
    lmmse_filter,
    mse_per_antenna,
    pilot_chain,
)
from misolim.randmat import (
    CovarianceMatrix,
    exponential_correlation,
    sample_cn,
    sample_scalar_cn,
    substream,
)


def make_dl(p=100.0, sig2=1.0, kt_bs=0.0, kr_ut=0.0):
    return DownlinkConfig(p_bs=p, sigma2_ut=sig2,
                          imp=ImpairmentProfile(kappa_t_bs=kt_bs,
                                                kappa_r_ut=kr_ut))


def make_symmetric(n, kappa, p=100.0, sig2=1.0):
    imp = ImpairmentProfile.uniform(kappa)
    ul = UplinkConfig(r=CovarianceMatrix.identity(n),
                      s=CovarianceMatrix.identity(n), p_ut=p, imp=imp)
    dl = DownlinkConfig(p_bs=p, sigma2_ut=sig2, imp=imp)
    return ul, dl


def batched_max_sinr(h_batch, dl):
    """Vectorized version of sinr_perfect_csi for Monte-Carlo oracles."""
    count, n = h_batch.shape
    m = np.zeros((count, n, n), dtype=np.complex128)
    idx = np.arange(n)
    m[:, idx, idx] = (dl.imp.kappa_t_bs * np.abs(h_batch) ** 2
                      + dl.sigma2_ut / dl.p_bs)
    m += dl.imp.kappa_r_ut * np.conj(h_batch)[:, :, None] * h_batch[:, None, :]
    x = np.linalg.solve(m, np.conj(h_batch)[..., None])[..., 0]
    return np.real(np.einsum("ki,ki->k", h_batch, x))


def simulate_downlink(dl: DownlinkConfig, h: np.ndarray, w: np.ndarray,
                      s: complex, rng: np.random.Generator) -> complex:
    """One draw of the received downlink symbol y = h^T (w s + eta_t) + n
    + eta_r for fixed (h, w, s): the per-symbol model that the bounds
    average over."""
    h = np.asarray(h, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    if abs(np.linalg.norm(w) - 1.0) > 1e-12:
        raise ValueError("beamformer must have unit norm")
    kt, kr = dl.imp.kappa_t_bs, dl.imp.kappa_r_ut
    eta_t = (np.sqrt(kt * dl.p_bs) * np.abs(w)
             * sample_scalar_cn(1.0, rng, size=w.shape[0]))
    gain = h @ w
    n = sample_scalar_cn(dl.sigma2_ut, rng)
    eta_r = sample_scalar_cn(kr * dl.p_bs * abs(gain) ** 2, rng)
    return complex(h @ (w * s + eta_t) + n + eta_r)


class TestSimulateDownlink:
    def test_noiseless_ideal(self):
        dl = make_dl(p=1.0, sig2=1e-30)
        h = np.array([1.0 + 1j, 2.0, -1j])
        w = np.array([1.0, 0.0, 0.0])
        s = 0.7 - 0.2j
        y = simulate_downlink(dl, h, w, s, substream(0))
        assert y == pytest.approx((h @ w) * s, abs=1e-12)

    def test_rejects_unnormalized_beamformer(self):
        with pytest.raises(ValueError):
            simulate_downlink(make_dl(), np.ones(2), np.ones(2), 1.0,
                              substream(0))

    def test_zero_channel_pure_noise(self):
        dl = make_dl(p=10.0, sig2=2.0, kt_bs=0.01, kr_ut=0.01)
        rng = substream(1)
        w = np.array([1.0, 0.0]) / 1.0
        ys = np.array([simulate_downlink(dl, np.zeros(2), w, 1.0, rng)
                       for _ in range(20_000)])
        assert np.mean(np.abs(ys) ** 2) == pytest.approx(2.0, rel=0.05)

    def test_total_received_power(self):
        dl = make_dl(p=4.0, sig2=0.5, kt_bs=0.01, kr_ut=0.02)
        rng = substream(2)
        h = sample_cn(exponential_correlation(3, 0.5), rng)
        w = optimal_beamformer(h, dl)
        n_draws = 100_000
        s = sample_scalar_cn(dl.p_bs, rng, size=n_draws)
        ys = np.array([simulate_downlink(dl, h, w, s[k], rng)
                       for k in range(n_draws)])
        # signal plus what the SINR divides it by: p gain (1 + 1/SINR)
        gain = abs(h @ w) ** 2
        expected = dl.p_bs * gain * (1 + 1 / sinr_of_beamformer(h, w, dl))
        emp = float(np.mean(np.abs(ys) ** 2))
        se = float(np.std(np.abs(ys) ** 2, ddof=1)) / math.sqrt(n_draws)
        assert abs(emp - expected) <= 3.0 * se


class TestOptimalBeamformer:
    def test_reduces_to_mrt_without_bs_impairments(self):
        h = substream(3).standard_normal(5) + 1j * substream(4).standard_normal(5)
        w = optimal_beamformer(h, make_dl(kt_bs=0.0, kr_ut=0.01))
        np.testing.assert_allclose(w, np.conj(h) / np.linalg.norm(h),
                                   atol=1e-12)

    def test_single_antenna_is_unit_phasor(self):
        h = np.array([2.0 - 1.0j])
        w = optimal_beamformer(h, make_dl(kt_bs=0.01, kr_ut=0.01))
        np.testing.assert_allclose(w, np.conj(h) / abs(h[0]), atol=1e-14)

    def test_zero_channel_rejected(self):
        with pytest.raises(ValueError):
            optimal_beamformer(np.zeros(3), make_dl())

    def test_local_optimality(self):
        rng = substream(5)
        h = sample_cn(exponential_correlation(4, 0.7), rng)
        dl = make_dl(kt_bs=0.01, kr_ut=0.0025)
        w = optimal_beamformer(h, dl)
        best = sinr_of_beamformer(h, w, dl)
        for _ in range(100):
            delta = 0.01 * sample_cn(CovarianceMatrix.identity(4), rng)
            delta *= 0.01 / np.linalg.norm(delta)
            w2 = (w + delta) / np.linalg.norm(w + delta)
            assert sinr_of_beamformer(h, w2, dl) <= best + 1e-12


class TestSinrPerfectCsi:
    def test_matched_filter_without_impairments(self):
        h = np.array([1.0, 2.0j, -1.0])
        dl = make_dl(p=10.0, sig2=2.0)
        expected = 10.0 * np.linalg.norm(h) ** 2 / 2.0
        assert sinr_perfect_csi(h, dl) == pytest.approx(expected, rel=1e-12)

    def test_attained_by_optimal_beamformer(self):
        rng = substream(6)
        h = sample_cn(exponential_correlation(8, 0.7), rng)
        dl = make_dl(kt_bs=0.01, kr_ut=0.0025)
        w = optimal_beamformer(h, dl)
        assert sinr_perfect_csi(h, dl) == pytest.approx(
            sinr_of_beamformer(h, w, dl), rel=1e-10)

    def test_strictly_beats_mrt_under_bs_impairments(self):
        h = np.array([2.0, 0.5, 1.0 + 1j, -0.2j])  # unequal magnitudes
        dl = make_dl(kt_bs=0.01)
        mrt = np.conj(h) / np.linalg.norm(h)
        assert sinr_perfect_csi(h, dl) > sinr_of_beamformer(h, mrt, dl)

    def test_dominates_random_beamformers(self):
        rng = substream(7)
        h = sample_cn(exponential_correlation(8, 0.7), rng)
        dl = make_dl(kt_bs=0.01, kr_ut=0.0025)
        best = sinr_perfect_csi(h, dl)
        for _ in range(1000):
            w = sample_cn(CovarianceMatrix.identity(8), rng)
            w /= np.linalg.norm(w)
            assert sinr_of_beamformer(h, w, dl) <= best + 1e-12

    def test_phase_invariant_single_antenna(self):
        dl = make_dl(kt_bs=0.01, kr_ut=0.01)
        vals = [sinr_perfect_csi(np.array([2.0 * np.exp(1j * phi)]), dl)
                for phi in np.linspace(0, 2 * np.pi, 7)]
        np.testing.assert_allclose(vals, vals[0], rtol=1e-12)

    @pytest.mark.parametrize("n, kt, kr", [(1, 0.0, 0.0), (3, 0.01, 0.0025),
                                           (16, 0.0225, 0.0225),
                                           (64, 0.0, 0.01)])
    def test_matches_dense_solve(self, n, kt, kr):
        # the Sherman-Morrison form against the N x N solve
        dl = make_dl(p=50.0, kt_bs=kt, kr_ut=kr)
        hs = sample_cn(exponential_correlation(n, 0.7), substream(8), size=20)
        np.testing.assert_allclose([sinr_perfect_csi(h, dl) for h in hs],
                                   batched_max_sinr(hs, dl), rtol=1e-12)

    def test_no_dense_matrix(self):
        # an N x N complex matrix alone is 268 MB at N = 4096
        h = sample_cn(CovarianceMatrix.identity(4096), substream(9))
        dl = make_dl(kt_bs=0.0025, kr_ut=0.0025)
        tracemalloc.start()
        try:
            sinr = sinr_perfect_csi(h, dl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert 0.0 < sinr < 1.0 / dl.imp.kappa_r_ut


class TestCapacityUpperBound:
    def test_ideal_hardware_jensen(self):
        n = 6
        r = CovarianceMatrix.identity(n)
        dl = make_dl(p=100.0, sig2=1.0)
        assert capacity_upper_bound(r, dl) == pytest.approx(
            math.log2(1 + n * 100.0), rel=1e-12)

    def test_high_power_ceiling(self):
        n = 8
        r = CovarianceMatrix.identity(n)
        dl = make_dl(p=1e9, sig2=1.0, kt_bs=0.0025, kr_ut=0.0025)
        assert capacity_upper_bound(r, dl) == pytest.approx(
            upper_limit_high_power(n, 0.0025, 0.0025), abs=1e-3)

    def test_jensen_dominates_expectation(self):
        n, kappa = 4, 0.0025
        r = CovarianceMatrix.identity(n)
        dl = make_dl(p=100.0, sig2=1.0, kt_bs=kappa, kr_ut=kappa)
        rng = substream(8)
        h = sample_cn(r, rng, size=100_000)
        psi = batched_max_sinr(h, dl)
        rates = np.log2(1.0 + psi / (1.0 + kappa * psi))
        mean = float(np.mean(rates))
        se = float(np.std(rates, ddof=1)) / math.sqrt(len(rates))
        assert capacity_upper_bound(r, dl) >= mean - 3.0 * se

    def test_zero_diagonal_rejected(self):
        r = CovarianceMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            capacity_upper_bound(r, make_dl())

    def test_small_kappa_branch_is_continuous(self):
        r = exponential_correlation(8, 0.7)
        a = capacity_upper_bound(r, make_dl(kt_bs=0.0, kr_ut=0.0025))
        b = capacity_upper_bound(r, make_dl(kt_bs=1e-10, kr_ut=0.0025))
        assert abs(a - b) <= 1e-6

    @pytest.mark.parametrize("kt", [0.0, 0.0025])
    def test_tagged_r_has_one_term(self, kt):
        # c K_rho, like c I, has one antenna term counted N times by its
        # tag; its dense copy sorts N equal terms to the same rate
        r = exponential_correlation(64, 0.7).scaled(2.5)
        dl = make_dl(p=100.0, sig2=1.0, kt_bs=kt, kr_ut=0.0025)
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            fast = capacity_upper_bound(r, dl)
            assert unique.call_count == 0
            dense = capacity_upper_bound(CovarianceMatrix(r.matrix), dl)
            assert unique.call_count == (1 if kt else 0)
        assert fast == pytest.approx(dense, rel=1e-12)

    def test_monotone_and_capped_in_n(self):
        kappa = 0.0025
        ceiling = upper_limit_large_n(kappa)
        prev = 0.0
        for n in (1, 4, 16, 64, 256, 1024):
            dl = make_dl(p=100.0, sig2=1.0, kt_bs=kappa, kr_ut=kappa)
            val = capacity_upper_bound(CovarianceMatrix.identity(n), dl)
            assert prev <= val <= ceiling + 1e-9
            prev = val

    def test_monotone_in_power_and_capped(self):
        n, kappa = 16, 0.0025
        r = CovarianceMatrix.identity(n)
        cap = upper_limit_high_power(n, kappa, kappa)
        prev = 0.0
        for p in (1.0, 10.0, 100.0, 1e4, 1e8):
            val = capacity_upper_bound(r, make_dl(p=p, kt_bs=kappa,
                                                  kr_ut=kappa))
            assert prev <= val <= cap + 1e-9
            prev = val


class TestAsymptoticLimits:
    def test_high_power_reduces_to_large_n_form(self):
        assert upper_limit_high_power(10, 0.0, 0.01) == pytest.approx(
            math.log2(1 + 1 / 0.01), rel=1e-12)
        assert abs(upper_limit_high_power(10 ** 9, 0.0025, 0.0025)
                   - upper_limit_large_n(0.0025)) <= 1e-6

    def test_high_power_reference_value(self):
        assert upper_limit_high_power(1, 0.0025, 0.0025) == pytest.approx(
            math.log2(1 + 1 / 0.005), rel=1e-12)

    def test_large_n_values(self):
        assert upper_limit_large_n(1.0) == 1.0
        assert upper_limit_large_n(0.0025) == pytest.approx(
            math.log2(401.0), rel=1e-12)
        assert upper_limit_large_n(0.01) == pytest.approx(
            math.log2(101.0), rel=1e-12)
        assert upper_limit_large_n(0.0) == math.inf

    def test_scaled_power_limit(self):
        assert lower_limit_scaled_power(0.0, 0.01) == upper_limit_large_n(0.01)
        assert lower_limit_scaled_power(0.0025, 0.0025) == pytest.approx(
            math.log2(1 + 1 / 0.00500625), rel=1e-12)
        assert lower_limit_scaled_power(0.01, 0.003) \
            == lower_limit_scaled_power(0.003, 0.01)
        assert lower_limit_scaled_power(0.0, 0.0) == math.inf

    @pytest.mark.parametrize("bad", [-2.0, math.nan, math.inf, -math.inf])
    def test_levels_must_be_nonnegative_reals(self, bad):
        for call in (lambda: upper_limit_large_n(bad),
                     lambda: lower_limit_scaled_power(bad, 0.0),
                     lambda: lower_limit_scaled_power(0.0, bad),
                     lambda: upper_limit_high_power(4, bad, 0.0),
                     lambda: upper_limit_high_power(4, 0.0, bad)):
            with pytest.raises(ValueError, match="impairment level must be "
                               "a nonnegative finite real"):
                call()

    @pytest.mark.parametrize("n", [0, -1, 2.5, 4.0, True, math.nan,
                                   math.inf])
    def test_antenna_count_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="positive integer"):
            upper_limit_high_power(n, 0.0025, 0.0025)


class TestLowerBoundMc:
    def test_rejects_small_sample_count(self):
        ul, dl = make_symmetric(4, 0.0025)
        with pytest.raises(ValueError):
            lower_bound_mc(ul, dl, 100, seed=0)

    def test_bound_ordering_single_antenna(self):
        ul, dl = make_symmetric(1, 0.0)
        est = lower_bound_mc(ul, dl, 20_000, seed=1)
        upper = capacity_upper_bound(ul.r, dl)
        assert est.value <= upper + 3.0 * est.std_error

    def test_regression_anchor_n64(self):
        # frozen from a verified run of the 256-row-chunk chain (seed 1,
        # 10^4 samples); changed from 6.95546488201745 (0.03 SE away) when
        # the chain began to draw noise plus array distortion as one value
        # per antenna for a diagonal S
        ul, dl = make_symmetric(64, 0.0025)
        est = lower_bound_mc(ul, dl, 10_000, seed=1)
        upper = capacity_upper_bound(ul.r, dl)
        assert 4.0 <= est.value <= upper
        assert upper - est.value <= 2.0
        assert est.value == pytest.approx(6.955121938168692, rel=1e-12)

    def test_sandwich_across_array_sizes(self):
        for n in (4, 16, 64, 256):
            ul, dl = make_symmetric(n, 0.0025)
            est = lower_bound_mc(ul, dl, 4_000, seed=2)
            upper = capacity_upper_bound(ul.r, dl)
            assert est.value <= upper + 3.0 * est.std_error, f"N={n}"

    def test_deterministic_given_seed(self):
        ul, dl = make_symmetric(8, 0.0025)
        a = lower_bound_mc(ul, dl, 3_000, seed=9)
        b = lower_bound_mc(ul, dl, 3_000, seed=9)
        assert a == b

    def test_tiny_estimates_are_not_dropped(self):
        # |h_hat|^2 ~ 1e-600 underflows, yet no estimate is zero
        for r in (CovarianceMatrix.identity(1).scaled(1e-300),
                  CovarianceMatrix(1e-300 * np.eye(3))):
            ul = UplinkConfig(r=r, s=CovarianceMatrix.identity(r.dim),
                              p_ut=1.0)
            est = lower_bound_mc(ul, make_dl(p=1.0), 1000, seed=1)
            assert est.n_samples == 1000
            assert math.isfinite(est.value) and est.value >= 0.0

    def test_beamformer_stats_scale_free(self):
        # rows whose plain norm underflows give the beamformer of the
        # unscaled row; a zero row has none, and raises
        rng = substream(12)
        h = sample_cn(CovarianceMatrix.identity(4), rng, size=6)
        h_hat = sample_cn(CovarianceMatrix.identity(4), rng, size=6)
        tiny = h_hat.copy()
        tiny[1:4] *= 1e-300
        tiny[4] = 0.0
        keep = [0, 1, 2, 3, 5]
        h2 = _squared_moduli(h)
        np.testing.assert_allclose(_mrt_stats(h[keep], tiny[keep], h2[keep]),
                                   _mrt_stats(h[keep], h_hat[keep], h2[keep]),
                                   rtol=1e-14)
        with pytest.raises(RuntimeError, match="zero channel estimate"):
            _mrt_stats(h, tiny, h2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("r", [CovarianceMatrix.identity(4).scaled(0.0),
                                   CovarianceMatrix(np.zeros((3, 3)))],
                             ids=["tagged", "dense"])
    def test_zero_channel_raises_at_first_chunk(self, r, workers,
                                                monkeypatch):
        # R = 0: every estimate is 0, so the first chunk this process
        # takes raises, on one process or two, and it takes no other
        ul = UplinkConfig(r=r, s=CovarianceMatrix.identity(r.dim), p_ut=1.0)
        stat = mock.Mock(side_effect=_mrt_stats)
        monkeypatch.setattr(capacity, "_mrt_stats", stat)
        with pytest.raises(RuntimeError, match="zero channel estimate"):
            lower_bound_mc_batch([(ul, make_dl(p=1.0))], 10_000, 1, workers)
        assert stat.call_count == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_subnormal_channel_raises(self, workers):
        # |h|^2 ~ 1e-322 leaves some estimates exactly 0: an error, not a
        # value from the draws that are left
        r = CovarianceMatrix.identity(1).scaled(1e-322)
        ul = UplinkConfig(r=r, s=CovarianceMatrix.identity(1), p_ut=1.0)
        with pytest.raises(RuntimeError, match="zero channel estimate"):
            lower_bound_mc_batch([(ul, make_dl(p=1.0))], 10_000, 1, workers)


class TestScaledIdentityBounds:
    def test_no_dense_placeholder(self):
        # a dense 4096 x 4096 complex identity alone is 268 MB
        tracemalloc.start()
        try:
            r = CovarianceMatrix.identity(4096)
            ul = UplinkConfig(r=r, s=r, p_ut=100.0,
                              imp=ImpairmentProfile.uniform(0.0025))
            dl = DownlinkConfig(p_bs=100.0, sigma2_ut=1.0, imp=ul.imp)
            upper = capacity_upper_bound(ul.r, dl)
            ideal = capacity_ideal_jensen(ul.r, dl)
            # the estimation layer serves R = c I on R's eigenbasis with
            # V = None: scalars and vectors of N, no identity basis
            a = lmmse_filter(ul)
            err = error_covariance(ul)
            floor = error_floor(ul)
            mse = mse_per_antenna(ul)
            asym = lower_bound_asymptotic(ul, dl)
            h_hat, = pilot_chain([ul], 2, 0,
                                 lambda h, h_hat, h2: h_hat.copy())
            emp = empirical_mse(ul, 2, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert upper < ideal
        assert np.ndim(a) == 0 and h_hat.shape == (2, 4096)
        assert emp.value > 0.0
        assert err.identity_scale == pytest.approx(mse, rel=1e-15)
        assert 0.0 < floor.identity_scale < mse
        assert 0.0 < asym < upper

    # 6 SE, as in the benchmark's checks: a correct program fails one
    # example in about 5e8
    @given(n=st.integers(1, 256), kappa=st.floats(0.0, 0.03),
           snr_db=st.floats(-10.0, 40.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_lower_upper_ideal_ordering(self, n, kappa, snr_db, seed):
        ul, dl = make_symmetric(n, kappa, p=10.0 ** (snr_db / 10.0))
        lower = lower_bound_mc(ul, dl, 1000, seed)
        upper = capacity_upper_bound(ul.r, dl)
        assert lower.value <= upper + 6.0 * lower.std_error
        assert upper <= capacity_ideal_jensen(ul.r, dl)



class TestExponentialCorrelationChain:
    def test_no_eigh_and_no_dense_array(self, monkeypatch):
        # R = K_rho and S = s I: AR(1) draws and a tridiagonal solve per
        # config, with no eigendecomposition and no N x N array, of which
        # the smallest, a real one, is 134 MB at N = 4096. The chain holds
        # a few arrays of _CHUNK x N complex values: a smaller chunk keeps
        # them well below that.
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        n = 4096
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        monkeypatch.setattr(estimation, "_CHUNK", 128)
        tracemalloc.start()
        try:
            r = exponential_correlation(n, 0.7)
            imp = ImpairmentProfile.uniform(0.0025)
            ul = UplinkConfig(r=r, s=CovarianceMatrix.identity(n).scaled(0.01),
                              p_ut=1.0, imp=imp)
            dl = DownlinkConfig(p_bs=1.0, sigma2_ut=0.01, imp=imp)
            rate, = lower_bound_mc_batch([(ul, dl)], 1000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
        assert 0.0 < rate.value < capacity_upper_bound(r, dl)


def beamformer_stats(h, h_hat):
    """The rows of ``_mrt_stats`` from the beamformer array
    v = conj(h_hat) / ||h_hat||, each row of h_hat first scaled by its
    largest modulus."""
    peak = np.max(np.abs(h_hat), axis=1)[:, None]
    h_hat = h_hat.real / peak + 1j * (h_hat.imag / peak)
    v = np.conj(h_hat) / np.linalg.norm(h_hat, axis=1)[:, None]
    g = np.sum(h * v, axis=1)
    u = np.sum(np.abs(h) ** 2 * np.abs(v) ** 2, axis=1)
    return np.column_stack([g.real, g.imag, np.abs(g) ** 2, u])


class TestMrtRowSums:
    def test_matches_beamformer_expression(self):
        # the three row sums give the beamformer's statistics: on plain
        # rows, on rows whose |h_hat|^2 or |h|^2 |h_hat|^2 underflows and
        # on a zero channel row; a zero estimate row raises
        rng = substream(21)
        n = 6
        h = sample_cn(CovarianceMatrix.identity(n), rng, size=40)
        h_hat = 0.9 * h + 0.3 * sample_cn(CovarianceMatrix.identity(n),
                                          rng, size=40)
        h_hat[1:4] *= 1e-300
        h_hat[4:6] *= 1e-155
        h_hat[6:8] *= 1e-162
        h_hat[8] = 0.0
        h_hat[9, 1:] = 0.0
        h_hat[10, :] = 5e-324
        h[11] = 0.0
        h2 = _squared_moduli(h)
        with pytest.raises(RuntimeError, match="zero channel estimate"):
            _mrt_stats(h, h_hat, h2)
        keep = np.arange(40) != 8
        got = _mrt_stats(h[keep], h_hat[keep], h2[keep])
        want = beamformer_stats(h[keep], h_hat[keep])
        assert got.shape == want.shape == (39, 4)
        g = np.abs(want[:, 0] + 1j * want[:, 1])
        assert np.all(np.abs(got[:, :2] - want[:, :2]) <= 1e-13 * g[:, None])
        np.testing.assert_allclose(got[:, 2:], want[:, 2:], rtol=1e-13)
        # row 11 comes after row 8, which is left out
        assert np.all(got[10] == 0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-300], ids=["plain", "tiny"])
    def test_zero_estimate_raises(self, scale):
        # one zero estimate among plain or underflowing rows
        rng = substream(22)
        h = sample_cn(CovarianceMatrix.identity(3), rng, size=5)
        h_hat = scale * sample_cn(CovarianceMatrix.identity(3), rng, size=5)
        h_hat[2] = 0.0
        with pytest.raises(RuntimeError,
                           match="^a draw produced a zero channel estimate$"):
            _mrt_stats(h, h_hat, _squared_moduli(h))


class TestRowTiles:
    @pytest.mark.parametrize("n", [1, 100])
    def test_bits_do_not_depend_on_tile_size(self, monkeypatch, n):
        # R = I: one row per tile and a whole chunk per tile give the same
        # bits, with a partial last chunk
        r = CovarianceMatrix.identity(n)
        links = []
        for p, kappa in ((1.0, 0.0), (100.0, 0.0025), (10.0, 0.02)):
            imp = ImpairmentProfile.uniform(kappa)
            links.append((UplinkConfig(r=r, s=r, p_ut=p, imp=imp),
                          DownlinkConfig(p_bs=p, sigma2_ut=1.0, imp=imp)))
        rates = []
        for tile, count in ((1, 1100), (_CHUNK * n, 5)):
            monkeypatch.setattr(estimation, "_TILE", tile)
            stat = mock.Mock(side_effect=_mrt_stats)
            pilot_chain([links[0][0]], 1100, 4, stat)
            assert stat.call_count == count
            rates.append(lower_bound_mc_batch(links, 1100, 4))
        assert rates[0] == rates[1]

    @pytest.mark.parametrize("s", [CovarianceMatrix.identity(100),
                                   CovarianceMatrix(np.eye(100) + 0.01)],
                             ids=["diagonal", "dense"])
    def test_squared_moduli_once_per_chunk(self, monkeypatch, s):
        # 1000 rows in 3 chunks of up to 334 rows, each of 3 row tiles
        # at N = 100: |h|^2 is formed once per chunk, not per tile
        monkeypatch.setattr(estimation, "_CHUNK", 334)
        r = CovarianceMatrix.identity(100)
        imp = ImpairmentProfile.uniform(0.0025)
        links = [(UplinkConfig(r=r, s=s, p_ut=p, imp=imp),
                  DownlinkConfig(p_bs=p, sigma2_ut=1.0, imp=imp))
                 for p in (1.0, 100.0)]
        assert not hasattr(capacity, "_squared_moduli")
        with mock.patch.object(estimation, "_squared_moduli",
                               wraps=_squared_moduli) as squares:
            lower_bound_mc_batch(links, 1000, 4)
        assert squares.call_count == 3


class TestChainMemory:
    """The lower bound holds one chunk of draws (h, |h|^2 and u, and nu
    for an untagged S) and what one tile's estimate and statistics need:
    at most 4 arrays of _CHUNK x N complex values for R = I, whose tiles
    are small, and 6 for exponential R, whose solve takes a whole chunk."""

    @pytest.mark.parametrize("kind, arrays", [("identity", 4), ("kms", 6)])
    def test_peak(self, kind, arrays):
        n = 4096
        imp = ImpairmentProfile.uniform(0.0025)
        if kind == "identity":
            r = s = CovarianceMatrix.identity(n)
        else:
            r = exponential_correlation(n, 0.7)
            s = CovarianceMatrix.identity(n).scaled(0.01)
        ul = UplinkConfig(r=r, s=s, p_ut=1.0, imp=imp)
        dl = DownlinkConfig(p_bs=1.0, sigma2_ut=0.01, imp=imp)
        tracemalloc.start()
        try:
            rate, = lower_bound_mc_batch([(ul, dl)], 1000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= arrays * _CHUNK * n * 16
        assert 0.0 < rate.value < capacity_upper_bound(r, dl)


class TestRateEstimate:
    def test_exact_on_its_rows_at_kappa_zero(self):
        # N = 1024 with ideal hardware: the SINR is about 4e3, so
        # (1 + kappa_r_ut) E|g|^2 - |E g|^2 would cancel almost four
        # digits of the denominator; the value matches an exact evaluation
        # of the same rows
        ul, dl = make_symmetric(1024, 0.0)
        x, = pilot_chain([ul], 1000, 11, _mrt_stats)
        m = [sum(map(Fraction, col.tolist())) / len(col) for col in x.T]
        sig = m[0] ** 2 + m[1] ** 2
        denom = m[2] - sig + Fraction(dl.sigma2_ut) / Fraction(dl.p_bs)
        exact = math.log2(1.0 + float(sig / denom))
        assert 3e3 < float(sig / denom) < 5e3
        est = _rate_estimate(x, dl)
        assert est.value == pytest.approx(exact, rel=1e-14)

    @staticmethod
    def delta_method_se(x, dl):
        """sqrt(grad^T Cov grad / n) in exact arithmetic on the float rows
        x, Cov their sample covariance and grad the gradient of log2(1 +
        SINR) in the four means, with the denominator that _rate_estimate
        forms: kr E|g|^2 + E|g - E g|^2 + kt E u + sigma^2 / p."""
        n = len(x)
        cols = [list(map(Fraction, c.tolist())) for c in x.T]
        sums = [sum(c) for c in cols]
        m = [t / n for t in sums]
        cov = [[(sum(a * b for a, b in zip(cols[j], cols[k]))
                 - sums[j] * sums[k] / n) / (n - 1) for k in range(4)]
               for j in range(4)]
        kt, kr = Fraction(dl.imp.kappa_t_bs), Fraction(dl.imp.kappa_r_ut)
        sig = m[0] ** 2 + m[1] ** 2
        spread = sum((a - m[0]) ** 2 + (b - m[1]) ** 2
                     for a, b in zip(cols[0], cols[1])) / n
        denom = (kr * m[2] + spread + kt * m[3]
                 + Fraction(dl.sigma2_ut) / Fraction(dl.p_bs))
        grad = [2 * m[0] * (denom + sig), 2 * m[1] * (denom + sig),
                -sig * (1 + kr), -sig * kt]  # times 1 / denom^2
        var = sum(grad[j] * cov[j][k] * grad[k]
                  for j in range(4) for k in range(4)) / denom ** 4 / n
        sinr = sig / denom
        return math.sqrt(float(var)) / (math.log(2.0) * float(1 + sinr))

    @pytest.mark.parametrize("case", ["ideal-identity-1024",
                                      "impaired-kms-64"])
    def test_std_error_is_the_delta_method(self, case):
        # the standard error is the spread of the rows' projections on the
        # gradient; at SINR 4e3 the projections' terms are 6e3 times their
        # spread, so they agree with the exact quadratic form within 1e-10
        if case == "ideal-identity-1024":
            ul, dl = make_symmetric(1024, 0.0)
        else:
            ul, dl = link(64, "kms", 100.0, 0.0025)
        x, = pilot_chain([ul], 1000, 11, _mrt_stats)
        est = _rate_estimate(x, dl)
        assert est.std_error == pytest.approx(self.delta_method_se(x, dl),
                                              rel=1e-10)

    def test_equal_projections_give_zero_error(self):
        # a spread of equal values is exactly 0, with no negative variance
        # to clamp: g = 0 on every row, so the gradient and every
        # projection are 0 while |g|^2 and u still spread, and two copies
        # of one row of a chain
        ul, dl = link(64, "kms", 100.0, 0.0025)
        x = np.zeros((1000, 4))
        x[:, 2:] = np.random.default_rng(5).exponential(size=(1000, 2))
        est = _rate_estimate(x, dl)
        assert (est.value, est.std_error) == (0.0, 0.0)
        row = pilot_chain([ul], 1, 11, _mrt_stats)[0]
        est = _rate_estimate(np.repeat(row, 2, axis=0), dl)
        assert est.value > 0.0 and est.std_error == 0.0


def link(n, kind, p_ut, kappa):
    """(ul, dl) with R = I ("identity") or K_0.7 ("kms"), S = I, every
    level kappa, and p_bs = sigma^2 = 1."""
    r = (CovarianceMatrix.identity(n) if kind == "identity"
         else exponential_correlation(n, 0.7))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # kappa above the typical range
        imp = ImpairmentProfile.uniform(kappa)
    return (UplinkConfig(r=r, s=CovarianceMatrix.identity(n), p_ut=p_ut,
                         imp=imp),
            DownlinkConfig(p_bs=1.0, sigma2_ut=1.0, imp=imp))


class TestLowerBoundAsymptotic:
    def test_consistent_with_mc_when_ut_transmit_ideal(self):
        n = 256
        imp = ImpairmentProfile(kappa_t_bs=0.0025, kappa_r_bs=0.0025,
                                kappa_t_ut=0.0, kappa_r_ut=0.0025)
        ul = UplinkConfig(r=CovarianceMatrix.identity(n),
                          s=CovarianceMatrix.identity(n), p_ut=100.0, imp=imp)
        dl = DownlinkConfig(p_bs=100.0, sigma2_ut=1.0, imp=imp)
        mc = lower_bound_mc(ul, dl, 10_000, seed=3)
        asym = lower_bound_asymptotic(ul, dl)
        assert asym >= mc.value - 3.0 * mc.std_error

    def test_noise_term_negligible_at_large_n(self):
        # the 1/N noise term contributes < 1e-4 to the SINR denominator
        n = 10 ** 6
        sigma2, p_ut, p_bs = 1.0, 100.0, 100.0
        assert sigma2 / (n * p_ut * p_bs) < 1e-4

    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_spectrum_traces_match_dense_products(self, n):
        # exponential R with S = s I takes R's eigenbasis, an untagged
        # S = s I the dense products
        r = exponential_correlation(n, 0.7)
        imp = ImpairmentProfile.uniform(0.0025)
        dl = DownlinkConfig(p_bs=100.0, sigma2_ut=0.5, imp=imp)
        rates = [lower_bound_asymptotic(
            UplinkConfig(r=r, s=s, p_ut=100.0, imp=imp), dl)
            for s in (CovarianceMatrix.identity(n).scaled(0.5),
                      CovarianceMatrix(0.5 * np.eye(n)))]
        assert rates[0] == pytest.approx(rates[1], rel=1e-12)

    def test_unbounded_when_all_ut_impairments_vanish(self):
        # Without impairments only the noise term sigma^2 / (N p_ut p_bs)
        # is left in the SINR denominator: the bound is finite at every
        # power, and each 100x step in both powers adds log2(1e4) bits.
        n = 4
        imp = ImpairmentProfile()
        rates = []
        for p in (1e6, 1e8, 1e10, 1e12, 1e14):
            ul = UplinkConfig(r=CovarianceMatrix.identity(n),
                              s=CovarianceMatrix.identity(n), p_ut=p, imp=imp)
            dl = DownlinkConfig(p_bs=p, sigma2_ut=1.0, imp=imp)
            rates.append(lower_bound_asymptotic(ul, dl))
        assert all(math.isfinite(rate) for rate in rates)
        np.testing.assert_allclose(np.diff(rates), math.log2(1e4),
                                   rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("kind", ["identity", "kms"])
    @pytest.mark.parametrize("n", [4, 256])
    def test_matches_a_finer_rule(self, monkeypatch, n, kind):
        # the 40-node rule against 200 nodes per axis: converged for the
        # typical levels, and close at 0.1
        for kappa, rel in ((0.0, 1e-14), (0.0025, 1e-14), (0.03, 1e-14),
                           (0.1, 1e-9)):
            for p in (1e-3, 1e-1, 1.0, 1e2, 1e4):
                ul, dl = link(n, kind, p, kappa)
                got = lower_bound_asymptotic(ul, dl)
                with monkeypatch.context() as m:
                    m.setattr(capacity, "_HERMITE_NODES", 200)
                    want = lower_bound_asymptotic(ul, dl)
                assert got == pytest.approx(want, rel=rel), (kappa, p)

    def test_draws_nothing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("substream called")

        monkeypatch.setattr(randmat, "substream", no_draws)
        monkeypatch.setattr(estimation, "substream", no_draws)
        ul, dl = link(64, "kms", 100.0, 0.01)
        assert lower_bound_asymptotic(ul, dl) == lower_bound_asymptotic(ul, dl)

    @pytest.mark.parametrize("dense_s", [False, True])
    def test_matches_scipy_quadrature(self, dense_s):
        # tr(R - C) and the two filter traces from dense inverses, and the
        # expectations over eta ~ CN(0, kappa_t_ut p_ut) by scipy's
        # adaptive quadrature over Re eta and Im eta (the tails beyond 12
        # standard deviations are below 1e-30)
        n, p_ut, p_bs, sigma2 = 8, 3.0, 2.0, 0.5
        imp = ImpairmentProfile(kappa_t_bs=0.003, kappa_r_bs=0.02,
                                kappa_t_ut=0.03, kappa_r_ut=0.01)
        r = exponential_correlation(n, 0.7)
        s = (CovarianceMatrix(0.5 * np.eye(n)) if dense_s
             else CovarianceMatrix.identity(n).scaled(0.5))
        ul = UplinkConfig(r=r, s=s, p_ut=p_ut, imp=imp)
        dl = DownlinkConfig(p_bs=p_bs, sigma2_ut=sigma2, imp=imp)

        rm, d = r.matrix, math.sqrt(p_ut)
        psi = p_ut * imp.kappa_r_bs * np.diag(np.diag(rm).real) + 0.5 * np.eye(n)
        m_inv = np.linalg.inv(p_ut * (1.0 + imp.kappa_t_ut) * rm + psi)
        a = d * rm @ m_inv
        tr_rc = np.trace(p_ut * rm @ m_inv @ rm).real
        t_sig = np.trace(a @ rm @ a.conj().T).real
        t_psi = np.trace(a @ psi @ a.conj().T).real
        sd = math.sqrt(imp.kappa_t_ut * p_ut / 2.0)

        def x(u, v):
            eta = sd * complex(u, v)
            return ((1.0 + eta / d) * math.sqrt(tr_rc)
                    / math.sqrt(abs(d + eta) ** 2 * t_sig + t_psi))

        def mean(f):
            def g(v, u):
                return f(u, v) * math.exp(-(u * u + v * v) / 2.0) / (2.0 * math.pi)
            return integrate.dblquad(g, -12.0, 12.0, -12.0, 12.0,
                                     epsabs=1e-15, epsrel=1e-13)[0]

        ex = complex(mean(lambda u, v: x(u, v).real),
                     mean(lambda u, v: x(u, v).imag))
        spread = mean(lambda u, v: abs(x(u, v) - ex) ** 2)
        num = abs(ex) ** 2
        want = math.log2(1.0 + num / (
            imp.kappa_r_ut * (num + spread) + spread
            + sigma2 / (n * p_ut * p_bs)))
        assert lower_bound_asymptotic(ul, dl) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("dense_s", [False, True])
    def test_exact_without_terminal_transmit_distortion(self, dense_s):
        # at kappa_t_ut = 0, M = p R + Psi, so p tr(B R B^H) + tr(B Psi
        # B^H) = tr(B R) and x = 1 at every node: the bound is log2(1 +
        # 1 / (kappa_r_ut + sigma^2 / (N p_ut p_bs))), whatever kappa_r_bs
        n = 16
        imp = ImpairmentProfile(kappa_t_bs=0.01, kappa_r_bs=0.02,
                                kappa_r_ut=0.0025)
        r = exponential_correlation(n, 0.7).scaled(2.0)
        s = (CovarianceMatrix(0.5 * np.eye(n)) if dense_s
             else CovarianceMatrix.identity(n).scaled(0.5))
        for p in (1e-3, 1.0, 1e4):
            ul = UplinkConfig(r=r, s=s, p_ut=p, imp=imp)
            dl = DownlinkConfig(p_bs=2.0, sigma2_ut=0.5, imp=imp)
            want = math.log2(1.0 + 1.0 / (0.0025 + 0.5 / (n * p * 2.0)))
            assert lower_bound_asymptotic(ul, dl) == pytest.approx(
                want, rel=1e-13)

    @pytest.mark.parametrize("p", [1e-16, 1e-20])
    def test_tiny_pilot_power(self, p):
        # tr(R - C) as tr R - N mse cancelled to a negative number here
        ul, dl = link(4, "kms", p, 0.01)
        rate = lower_bound_asymptotic(ul, dl)
        assert math.isfinite(rate) and rate >= 0.0


def iid_link(n, p, kappas, c=1.0, s=1.0, p_bs=None, sigma2=1.0):
    """(ul, dl) with R = c I and S = s I, both tagged, pilot power p, the
    levels kappas = (kt_bs, kr_bs, kt_ut, kr_ut) and p_bs = p unless
    given."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # kappa above the typical range
        imp = ImpairmentProfile(*kappas)
    ul = UplinkConfig(r=CovarianceMatrix.identity(n).scaled(c),
                      s=CovarianceMatrix.identity(n).scaled(s), p_ut=p,
                      imp=imp)
    return ul, DownlinkConfig(p_bs=p if p_bs is None else p_bs,
                              sigma2_ut=sigma2, imp=imp)


class TestGaussRule:
    @pytest.mark.parametrize("family, n", [("hermite", 8), ("hermite", 40),
                                           ("laguerre", 24),
                                           ("laguerre", 64)])
    def test_matches_numpy(self, family, n):
        x, w = capacity._gauss_rule(family, n)
        want_x, want_w = (hermgauss(n) if family == "hermite"
                          else laggauss(n))
        if family == "hermite":
            want_w = want_w / math.sqrt(math.pi)
        np.testing.assert_allclose(x, want_x, rtol=1e-12, atol=1e-13)
        # relative to each weight, the smallest included
        np.testing.assert_allclose(w, want_w, rtol=1e-10, atol=0.0)

    def test_built_once_and_read_only(self):
        x, w = capacity._gauss_rule("laguerre", 24)
        assert capacity._gauss_rule("laguerre", 24)[0] is x
        assert not (x.flags.writeable or w.flags.writeable)
        with pytest.raises(ValueError, match="unknown"):
            capacity._gauss_rule("legendre", 4)

    def test_no_rule_built_at_import(self):
        # nor any lattice block of ``lower_bound_iid``
        code = ("import sys, misolim, misolim.cli; "
                "from misolim.capacity import _gauss_rule, _shared_block; "
                "sys.exit(_gauss_rule.cache_info().currsize "
                "+ _shared_block.cache_info().currsize)")
        src = os.path.dirname(os.path.dirname(capacity.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + path
                   if path else src)
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=120).returncode == 0


# Rules finer than ``lower_bound_iid``'s along every axis
_FINER_IID = dict(_IID_HERMITE_NODES=16, _LAGUERRE_NODES=48,
                  _LOG_T_NODES=400, _LOG_T_WINDOW=(-35.0, 25.0))


def _finer_iid(monkeypatch, ul, dl, **rules):
    with monkeypatch.context() as m:
        for name, value in {**_FINER_IID, **rules}.items():
            m.setattr(capacity, name, value)
        return lower_bound_iid(ul, dl)


class TestLowerBoundIid:
    """The exact lower bound for R = c I and S = s I; its kappa = 0 closed
    forms are in tests/test_lower_bound_oracle.py."""

    @pytest.mark.parametrize("vs_kappa", [False, True])
    @pytest.mark.parametrize("kappa", [0.0025, 0.0225])
    @pytest.mark.parametrize("n", [1, 4, 64, 1024])
    def test_matches_a_finer_rule(self, monkeypatch, n, kappa, vs_kappa):
        # the two capacity runs' links at 20 dB: every level kappa, or the
        # BS levels kappa with the terminal's at 0.0025
        ut = 0.0025 if vs_kappa else kappa
        ul, dl = iid_link(n, 100.0, (kappa, kappa, ut, ut))
        got = lower_bound_iid(ul, dl)
        assert abs(got - _finer_iid(monkeypatch, ul, dl)) <= 1e-6

    @pytest.mark.parametrize("n", [1, 4, 64, 1024])
    def test_error_at_kappa_one(self, monkeypatch, n):
        # E[g | zeta] turns sharply near zeta = -1, which the 8-node rule
        # resolves to within 1e-3 bits (measured: at most 9.6e-4)
        ul, dl = iid_link(n, 100.0, (1.0,) * 4)
        want = _finer_iid(monkeypatch, ul, dl, _IID_HERMITE_NODES=24)
        assert abs(lower_bound_iid(ul, dl) - want) <= 2e-3

    @pytest.mark.parametrize("case", [
        # (n, c, s, p, kappas, p_bs, sigma2)
        (1, 1.0, 1.0, 100.0, (0.0025, 0.01, 0.0225, 0.01), 100.0, 1.0),
        (4, 2.0, 0.5, 3.0, (0.01, 0.0225, 0.01, 0.0), 3.0, 0.5),
        (64, 0.5, 2.0, 1.0, (0.0225, 0.0225, 0.0225, 0.0025), 1.0, 2.0),
        (256, 1.0, 1.0, 100.0, (0.0025,) * 4, 100.0, 1.0),
    ])
    def test_matches_monte_carlo(self, case):
        # within Z = 5 standard errors on a fixed seed, Z fixed before
        # any draw was looked at
        n, c, s, p, kappas, p_bs, sigma2 = case
        ul, dl = iid_link(n, p, kappas, c=c, s=s, p_bs=p_bs, sigma2=sigma2)
        mc = lower_bound_mc(ul, dl, 20_000, seed=17)
        assert abs(lower_bound_iid(ul, dl) - mc.value) <= 5.0 * mc.std_error

    def test_draws_nothing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("substream called")

        monkeypatch.setattr(randmat, "substream", no_draws)
        monkeypatch.setattr(estimation, "substream", no_draws)
        ul, dl = iid_link(64, 100.0, (0.0025,) * 4)
        assert lower_bound_iid(ul, dl) == lower_bound_iid(ul, dl)

    @pytest.mark.parametrize("p", [1e-300, 1e300])
    @pytest.mark.parametrize("kappa", [0.0, 0.0225, 1.0])
    def test_extreme_powers_give_finite_rates(self, p, kappa):
        for n in (1, 1024):
            rate = lower_bound_iid(*iid_link(n, p, (kappa,) * 4))
            assert math.isfinite(rate) and rate >= 0.0

    def test_rejects_other_links(self):
        n, imp = 4, ImpairmentProfile.uniform(0.0025)
        dl = DownlinkConfig(p_bs=1.0, sigma2_ut=1.0, imp=imp)
        eye = CovarianceMatrix.identity(n)
        for r, s in ((exponential_correlation(n, 0.7), eye),
                     (eye, CovarianceMatrix(np.eye(n))),
                     (CovarianceMatrix(np.eye(n)), eye)):
            ul = UplinkConfig(r=r, s=s, p_ut=1.0, imp=imp)
            with pytest.raises(ValueError, match="c I"):
                lower_bound_iid(ul, dl)
        with pytest.raises(ValueError, match="pilot power"):
            lower_bound_iid(UplinkConfig(r=eye, s=eye, p_ut=0.0), dl)
        with pytest.raises(ValueError, match="R is 0"):
            lower_bound_iid(UplinkConfig(r=eye.scaled(0.0), s=eye, p_ut=1.0),
                            dl)


def kms_link(n, p, kappas, c=1.0, s=0.01):
    """(ul, dl) with R = c K_0.7 and S = s I, pilot and data power p, the
    levels kappas = (kt_bs, kr_bs, kt_ut, kr_ut) and sigma^2 = s."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # kappa above the typical range
        imp = ImpairmentProfile(*kappas)
    ul = UplinkConfig(r=exponential_correlation(n, 0.7).scaled(c),
                      s=CovarianceMatrix.identity(n).scaled(s), p_ut=p,
                      imp=imp)
    return ul, DownlinkConfig(p_bs=p, sigma2_ut=s, imp=imp)


class TestExactDomain:
    """``lower_bound_iid`` also covers R = c K_rho with kappa_r_bs =
    kappa_t_bs = 0, on R's eigenbasis; its kappa = 0 values are checked
    against 40-digit ones in tests/test_kms_oracle.py."""

    def test_decided_by_tags_and_levels(self):
        eye = CovarianceMatrix.identity(4)
        kms = exponential_correlation(4, 0.7)
        dense = CovarianceMatrix(kms.matrix)
        cases = [
            (eye, eye, (0.01, 0.01, 0.01, 0.01), True),
            (kms, eye, (0.0, 0.0, 0.0225, 0.01), True),
            (kms.scaled(2.0), eye.scaled(0.5), (0.0,) * 4, True),
            (kms, eye, (0.0025, 0.0, 0.0, 0.0), False),  # u has weight
            (kms, eye, (0.0, 0.0025, 0.0, 0.0), False),  # couples coordinates
            (dense, eye, (0.0,) * 4, False),  # untagged
            (kms, CovarianceMatrix(np.eye(4)), (0.0,) * 4, False),
        ]
        for r, s, kappas, exact in cases:
            imp = ImpairmentProfile(*kappas)
            ul = UplinkConfig(r=r, s=s, p_ut=1.0, imp=imp)
            dl = DownlinkConfig(p_bs=1.0, sigma2_ut=1.0, imp=imp)
            assert capacity.lower_bound_is_exact(ul, dl) is exact
            if not exact:
                with pytest.raises(ValueError, match="c K_rho"):
                    lower_bound_iid(ul, dl)

    @pytest.mark.parametrize("kappas", [(0.0,) * 4,
                                        (0.0, 0.0, 0.0225, 0.01)])
    @pytest.mark.parametrize("n", [1, 4, 64, 256])
    def test_matches_a_finer_rule(self, monkeypatch, n, kappas):
        ul, dl = kms_link(n, n ** -0.25, kappas)
        assert abs(lower_bound_iid(ul, dl)
                   - _finer_iid(monkeypatch, ul, dl)) <= 1e-6

    @pytest.mark.parametrize("case", [
        # (n, p, kappas, c, s)
        (4, 3.0, (0.0, 0.0, 0.0225, 0.01), 2.0, 0.5),
        (64, 1.0, (0.0, 0.0, 0.0025, 0.0025), 1.0, 0.01),
    ])
    def test_matches_monte_carlo(self, case):
        # within Z = 5 standard errors on a fixed seed, Z fixed before
        # any draw was looked at
        n, p, kappas, c, s = case
        ul, dl = kms_link(n, p, kappas, c=c, s=s)
        mc = lower_bound_mc(ul, dl, 20_000, seed=23)
        assert abs(lower_bound_iid(ul, dl) - mc.value) <= 5.0 * mc.std_error

    @pytest.mark.parametrize("p", [1e-300, 1e300])
    @pytest.mark.parametrize("kt_ut", [0.0, 0.0225, 1.0])
    def test_extreme_powers_give_finite_rates(self, p, kt_ut):
        for n in (1, 1024):
            rate = lower_bound_iid(*kms_link(n, p, (0.0, 0.0, kt_ut, 0.01)))
            assert math.isfinite(rate) and rate >= 0.0

    def test_draws_nothing_and_no_dense_decomposition(self, monkeypatch):
        def no_call(*args, **kwargs):
            raise AssertionError("called")

        for module in (randmat, estimation):
            monkeypatch.setattr(module, "substream", no_call)
        monkeypatch.setattr(np.linalg, "eigh", no_call)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_call)
        n = 4096  # a dense n x n complex matrix alone is 268 MB
        tracemalloc.start()
        try:
            ul, dl = kms_link(n, 1.0, (0.0,) * 4)
            rate = lower_bound_iid(ul, dl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        assert 0.0 < rate < capacity_upper_bound(ul.r, dl)
        assert lower_bound_iid(ul, dl) == rate


class TestLatticeBlocks:
    """``lower_bound_iid`` walks one log-t lattice in blocks of about
    _QUAD_BUDGET values, and for R = c I with kappa_r_bs > 0 keeps each
    block's Laguerre moments for every N (``_shared_block``): a rate's
    bits depend on neither the cache's contents nor the block size."""

    @pytest.mark.parametrize("ut", [None, 0.0025], ids=["vs_n", "vs_kappa"])
    def test_same_float_whatever_filled_the_cache(self, ut):
        def rate(n, kappa):
            return lower_bound_iid(*iid_link(
                n, 100.0, (kappa, kappa) + (kappa if ut is None else ut,) * 2))

        capacity._shared_block.cache_clear()
        cold = rate(64, 0.0025)
        capacity._shared_block.cache_clear()
        rate(1, 0.0025)
        rate(1024, 0.0025)
        after_other_n = rate(64, 0.0025)
        assert capacity._shared_block.cache_info().hits > 0  # shared
        capacity._shared_block.cache_clear()
        rate(64, 0.01)
        rate(1024, 0.0225)
        after_other_kappa = rate(64, 0.0025)
        assert cold == after_other_n == after_other_kappa

    @pytest.mark.parametrize("name, value", [
        ("_IID_HERMITE_NODES", 16), ("_LAGUERRE_NODES", 48),
        ("_LOG_T_NODES", 400), ("_LOG_T_WINDOW", (-35.0, 25.0)),
        ("_QUAD_BUDGET", 2 ** 11)])
    def test_every_rule_is_in_the_key(self, monkeypatch, name, value):
        # a finer rule never reads a block of the default rules, which the
        # finer-rule tests of TestLowerBoundIid would compare with itself
        ul, dl = iid_link(64, 100.0, (0.0025,) * 4)
        lower_bound_iid(ul, dl)
        before = capacity._shared_block.cache_info()
        monkeypatch.setattr(capacity, name, value)
        lower_bound_iid(ul, dl)
        after = capacity._shared_block.cache_info()
        assert after.hits == before.hits
        assert after.misses > before.misses

    def test_cache_is_bounded_and_holds_no_kms_block(self):
        capacity._shared_block.cache_clear()
        lower_bound_iid(*kms_link(64, 1.0, (0.0, 0.0, 0.0225, 0.01)))
        lower_bound_iid(*iid_link(64, 100.0, (0.0, 0.0, 0.0025, 0.0025)))
        info = capacity._shared_block.cache_info()
        assert info.currsize == 0 and info.maxsize == capacity._BLOCK_CACHE
        blocks = capacity._shared_block(0.0025, 0.0025, 0.01, 0,
                                        capacity._rules())
        assert all(not x.flags.writeable for x in blocks)

    @pytest.mark.parametrize("link", [
        iid_link(1, 100.0, (0.0025,) * 4),
        iid_link(64, 100.0, (0.0025,) * 4),
        iid_link(1024, 100.0, (0.0025,) * 4),
        kms_link(64, 1.0, (0.0,) * 4),
        kms_link(1024, 1.0, (0.0,) * 4)],
        ids=["I-1", "I-64", "I-1024", "K-64", "K-1024"])
    def test_bits_do_not_depend_on_the_budget(self, monkeypatch, link):
        moments = []
        for budget in (2 ** 11, 2 ** 13, 2 ** 15):
            monkeypatch.setattr(capacity, "_QUAD_BUDGET", budget)
            moments.append(capacity._iid_moments(link[0]))
        assert moments[0] == moments[1] == moments[2]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor page faults as counted by Linux")
    def test_warm_call_faults_in_no_fresh_pages(self):
        resource = pytest.importorskip("resource")
        ul, dl = iid_link(1024, 100.0, (0.0025,) * 4)
        lower_bound_iid(ul, dl)
        faults = []
        for _ in range(3):  # the fewest: another allocation may interleave
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            lower_bound_iid(ul, dl)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)
        assert min(faults) < 100


class TestLowerBoundRates:
    """Exact where ``lower_bound_is_exact``, sampled elsewhere, on one
    chain of the sampled links alone."""

    def test_mixed_batch(self):
        # one pilot chain: the links share R and S
        r = exponential_correlation(16, 0.7)
        s = CovarianceMatrix.identity(16).scaled(0.01)
        links = []
        for kappas in ((0.0,) * 4, (0.0025,) * 4, (0.0, 0.0, 0.01, 0.0),
                       (0.01,) * 4):
            imp = ImpairmentProfile(*kappas)
            links.append((UplinkConfig(r=r, s=s, p_ut=1.0, imp=imp),
                          DownlinkConfig(p_bs=1.0, sigma2_ut=0.01, imp=imp)))
        rates = capacity.lower_bound_rates(links, 1000, 7)
        sampled = lower_bound_mc_batch([links[1], links[3]], 1000, 7)
        assert rates[0] == (lower_bound_iid(*links[0]), 0.0)
        assert rates[2] == (lower_bound_iid(*links[2]), 0.0)
        assert [rates[1], rates[3]] == [(e.value, e.std_error)
                                        for e in sampled]

    def test_all_exact_draws_nothing(self, monkeypatch):
        def no_call(*args, **kwargs):
            raise AssertionError("called")

        for module in (randmat, estimation):
            monkeypatch.setattr(module, "substream", no_call)
        monkeypatch.setattr(os, "fork", no_call)
        links = [kms_link(8, p, (0.0,) * 4) for p in (1.0, 0.5)]
        links.append(iid_link(8, 10.0, (0.0025,) * 4))
        rates = capacity.lower_bound_rates(links, 1000, 3, workers=2)
        assert rates == [(lower_bound_iid(*link), 0.0) for link in links]

    @pytest.mark.parametrize("n_samples, seed", [
        (999, 0), (1000.0, 0), (1000, -1), (1000, 1.5), (1000, True)])
    def test_counts_and_seeds_checked_when_nothing_is_drawn(self, n_samples,
                                                            seed):
        with pytest.raises(ValueError, match="integer"):
            capacity.lower_bound_rates([kms_link(4, 1.0, (0.0,) * 4)],
                                       n_samples, seed)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one config"):
            capacity.lower_bound_rates([], 1000, 0)


class TestZeroPilotPower:
    """A link with p_ut = 0 estimates nothing: every lower bound rejects
    it before any draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def boom(*args):
            raise AssertionError("substream called")

        monkeypatch.setattr(randmat, "substream", boom)
        monkeypatch.setattr(estimation, "substream", boom)

    @pytest.mark.parametrize("kind", ["identity", "kms"])
    def test_rejected(self, kind):
        ul, dl = link(4, kind, 0.0, 0.0025)
        with pytest.raises(ValueError, match="pilot power"):
            lower_bound_asymptotic(ul, dl)
        with pytest.raises(ValueError, match="pilot power"):
            lower_bound_mc(ul, dl, 1000, 0)
        # one link without pilot power rejects the whole batch
        powered = UplinkConfig(r=ul.r, s=ul.s, p_ut=1.0, imp=ul.imp)
        with pytest.raises(ValueError, match="pilot power"):
            lower_bound_mc_batch([(powered, dl), (ul, dl)], 1000, 0)


class TestCapacityIdealJensen:
    def test_identity_covariance(self):
        for n in (1, 4, 16):
            r = CovarianceMatrix.identity(n)
            assert capacity_ideal_jensen(r, make_dl(p=100.0)) == pytest.approx(
                math.log2(1 + 100 * n), rel=1e-12)

    def test_strictly_increasing_in_n(self):
        vals = [capacity_ideal_jensen(CovarianceMatrix.identity(n), make_dl())
                for n in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_equals_upper_bound_without_impairments(self):
        r = exponential_correlation(16, 0.7)
        dl = make_dl(p=100.0, sig2=1.0)
        assert capacity_ideal_jensen(r, dl) == pytest.approx(
            capacity_upper_bound(r, dl), rel=1e-10)


class TestMonteCarloEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonteCarloEstimate(1.0, -0.1, 10)
        with pytest.raises(ValueError):
            MonteCarloEstimate(1.0, 0.1, 1)
        for value, std_error in ((math.inf, 0.0), (math.nan, 0.0),
                                 (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                MonteCarloEstimate(value, std_error, 10)
