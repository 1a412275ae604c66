"""Downlink simulation, beamforming, and capacity-bound tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misolim import estimation
from misolim.capacity import (
    DownlinkConfig,
    _mrt_stats,
    MonteCarloEstimate,
    capacity_ideal_jensen,
    capacity_upper_bound,
    lower_bound_asymptotic,
    lower_bound_mc,
    lower_bound_mc_batch,
    lower_limit_scaled_power,
    optimal_beamformer,
    simulate_downlink,
    sinr_of_beamformer,
    sinr_perfect_csi,
    upper_limit_high_power,
    upper_limit_large_n,
)
from misolim.estimation import (
    ImpairmentProfile,
    UplinkConfig,
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
        gain = abs(h @ w) ** 2
        expected = (dl.p_bs * gain * (1 + 0.02)
                    + 0.01 * dl.p_bs * float(np.sum(np.abs(h * w) ** 2))
                    + dl.sigma2_ut)
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
        # 10^4 samples)
        ul, dl = make_symmetric(64, 0.0025)
        est = lower_bound_mc(ul, dl, 10_000, seed=1)
        upper = capacity_upper_bound(ul.r, dl)
        assert 4.0 <= est.value <= upper
        assert upper - est.value <= 2.0
        assert est.value == pytest.approx(6.95546488201745, rel=1e-12)

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
        # unscaled row; zero rows are dropped
        rng = substream(12)
        h = sample_cn(CovarianceMatrix.identity(4), rng, size=6)
        h_hat = sample_cn(CovarianceMatrix.identity(4), rng, size=6)
        tiny = h_hat.copy()
        tiny[1:4] *= 1e-300
        tiny[4] = 0.0
        keep = [0, 1, 2, 3, 5]
        np.testing.assert_allclose(_mrt_stats(h, tiny),
                                   _mrt_stats(h[keep], h_hat[keep]),
                                   rtol=1e-14)


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
            asym = lower_bound_asymptotic(ul, dl, 1000)
            v = next(pilot_chain([ul], 2, 0))[3]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert upper < ideal
        assert np.ndim(a) == 0 and v is None
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

class TestLowerBoundAsymptotic:
    def test_consistent_with_mc_when_ut_transmit_ideal(self):
        n = 256
        imp = ImpairmentProfile(kappa_t_bs=0.0025, kappa_r_bs=0.0025,
                                kappa_t_ut=0.0, kappa_r_ut=0.0025)
        ul = UplinkConfig(r=CovarianceMatrix.identity(n),
                          s=CovarianceMatrix.identity(n), p_ut=100.0, imp=imp)
        dl = DownlinkConfig(p_bs=100.0, sigma2_ut=1.0, imp=imp)
        mc = lower_bound_mc(ul, dl, 10_000, seed=3)
        asym = lower_bound_asymptotic(ul, dl, 100_000, seed=0)
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
            UplinkConfig(r=r, s=s, p_ut=100.0, imp=imp), dl, 1000, seed=0)
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
            rates.append(lower_bound_asymptotic(ul, dl, 1_000, seed=0))
        assert all(math.isfinite(rate) for rate in rates)
        np.testing.assert_allclose(np.diff(rates), math.log2(1e4),
                                   rtol=0.0, atol=1e-6)


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
