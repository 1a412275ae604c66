"""LMMSE estimator, error covariance, and error-floor tests.

Monte-Carlo oracles (sample-covariance regression, orthogonality checks,
law of total covariance) validate the closed forms end to end.
"""

import contextlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misolim import estimation
from misolim.capacity import (
    DownlinkConfig,
    capacity_upper_bound,
    lower_bound_asymptotic,
    lower_bound_mc,
    lower_bound_mc_batch,
)
from misolim.estimation import (
    _CHUNK,
    ImpairmentProfile,
    SingularMatrixError,
    UplinkConfig,
    _cho_solve,
    _observe,
    _squared_moduli,
    _tridiagonal_filter,
    _tridiagonal_solve,
    _uplink_draws,
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
from misolim.randmat import (
    CovarianceMatrix,
    exponential_correlation,
    sample_cn,
    sample_scalar_cn,
    substream,
)


def estimates(h, h_hat, h2):
    """The ``stat`` of ``pilot_chain`` that keeps the estimates."""
    return h_hat.copy()


def make_config(n=4, lam=1.0, sig2=1.0, p=1.0, kt_ut=0.0, kr_bs=0.0, r=None):
    r = r if r is not None else CovarianceMatrix(lam * np.eye(n))
    s = CovarianceMatrix(sig2 * np.eye(r.dim))
    imp = ImpairmentProfile(kappa_t_ut=kt_ut, kappa_r_bs=kr_bs)
    return UplinkConfig(r=r, s=s, p_ut=p, imp=imp)


class TestImpairmentProfile:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ImpairmentProfile(kappa_t_bs=-0.1)

    def test_warns_above_typical_range(self):
        with pytest.warns(UserWarning):
            ImpairmentProfile(kappa_r_ut=0.05)

    def test_uniform(self):
        imp = ImpairmentProfile.uniform(0.01)
        assert imp.kappa_t_bs == imp.kappa_r_bs == imp.kappa_t_ut \
            == imp.kappa_r_ut == 0.01


class TestUplinkConfig:
    def test_default_pilot_symbol(self):
        cfg = make_config(p=9.0)
        assert cfg.d == 3.0

    def test_rejects_singular_noise(self):
        with pytest.raises(ValueError):
            UplinkConfig(r=CovarianceMatrix.identity(2),
                         s=CovarianceMatrix(np.zeros((2, 2))), p_ut=1.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            UplinkConfig(r=CovarianceMatrix.identity(2),
                         s=CovarianceMatrix.identity(3), p_ut=1.0)

    @pytest.mark.parametrize("r", [exponential_correlation(2, 0.7),
                                   CovarianceMatrix.identity(2),
                                   CovarianceMatrix(np.eye(2))],
                             ids=["kms", "identity", "dense"])
    @pytest.mark.parametrize("levels", [(1e304, 1e304), (1e304, 0.0),
                                        (0.0, 1e304)],
                             ids=["both", "kappa_t_ut", "kappa_r_bs"])
    def test_rejects_infinite_observation_powers(self, r, levels):
        # p (1 + kappa_t_ut) or p kappa_r_bs overflows: the spectral path
        # would return a nan MSE and the scalar one a 0 filter
        with pytest.warns(UserWarning):
            imp = ImpairmentProfile(kappa_t_ut=levels[0], kappa_r_bs=levels[1])
        with pytest.raises(ValueError, match="must be finite"):
            UplinkConfig(r=r, s=CovarianceMatrix.identity(2), p_ut=1e5, imp=imp)

    def test_accepts_the_largest_finite_observation_powers(self):
        # p = 10^307.5 with both levels 1: p (1 + kappa) = 6.3e307
        with pytest.warns(UserWarning):
            imp = ImpairmentProfile.uniform(1.0)
        cfg = UplinkConfig(r=CovarianceMatrix.identity(2),
                           s=CovarianceMatrix.identity(2), p_ut=10 ** 307.5,
                           imp=imp)
        assert np.isfinite(cfg.p_ut * (1.0 + cfg.imp.kappa_t_ut))

    @pytest.mark.parametrize("r", [CovarianceMatrix.identity(3).scaled(2.0),
                                   exponential_correlation(3, 0.7).scaled(2.0),
                                   CovarianceMatrix(2.0 * np.eye(3))],
                             ids=["identity", "kms", "dense"])
    def test_rejects_observation_covariance_overflowing_through_r(self, r):
        # p and p (1 + kappa) are finite, but 2 p is not: the tagged
        # filter came out 0 and the MSE 0.0, with no error
        with pytest.raises(ValueError, match="must be finite"):
            UplinkConfig(r=r, s=CovarianceMatrix.identity(3), p_ut=1e308)

    def test_rejects_observation_covariance_overflowing_through_s(self):
        with pytest.raises(ValueError, match="must be finite"):
            UplinkConfig(r=CovarianceMatrix.identity(2),
                         s=CovarianceMatrix.identity(2).scaled(1e308),
                         p_ut=1e308)


class TestLmmseFilter:
    def test_classical_scalar_filter(self):
        p, sig2 = 2.0, 0.5
        cfg = make_config(n=3, sig2=sig2, p=p)
        expected = (np.sqrt(p) / (p + sig2)) * np.eye(3)
        np.testing.assert_allclose(lmmse_filter(cfg), expected, atol=1e-14)

    def test_vanishes_without_pilot_power(self):
        cfg = make_config(p=1e-12)
        assert np.linalg.norm(lmmse_filter(cfg), "fro") <= 1e-5

    def test_matches_sample_covariance_regression(self):
        # brute-force Wiener filter: A = E{h z^H} (E{z z^H})^-1 from draws
        r = exponential_correlation(4, 0.7)
        cfg = make_config(r=r, p=10.0, kt_ut=0.0025, kr_bs=0.0025)
        n_draws = 1_000_000
        h, *draws = _uplink_draws(r, cfg.s, n_draws, substream(100))
        z = _observe(cfg, h, *draws)
        cov_hz = np.einsum("ki,kj->ij", h, np.conj(z)) / n_draws  # E{h z^H}
        cov_zz = np.einsum("ki,kj->ij", z, np.conj(z)) / n_draws
        a_emp = cov_hz @ np.linalg.inv(cov_zz)
        np.testing.assert_allclose(lmmse_filter(cfg), a_emp, atol=1e-2)


class TestEstimate:
    def test_estimate_error_uncorrelated(self):
        # orthogonality principle: E{h_hat eps^H} = 0
        r = exponential_correlation(4, 0.7)
        cfg = make_config(r=r, p=5.0, kt_ut=0.0025, kr_bs=0.0025)
        a = lmmse_filter(cfg)
        n_draws = 100_000
        h, *draws = _uplink_draws(r, cfg.s, n_draws, substream(101))
        z = _observe(cfg, h, *draws)
        h_hat = z @ a.T
        eps = h - h_hat
        cross = np.einsum("ki,kj->ij", h_hat, np.conj(eps)) / n_draws
        se = 3.0 / np.sqrt(n_draws)  # entry magnitudes are O(1)
        assert np.max(np.abs(cross)) <= 3.0 * se


class TestErrorCovariance:
    def test_classical_mmse(self):
        lam, sig2, p = 2.0, 0.5, 3.0
        cfg = make_config(n=3, lam=lam, sig2=sig2, p=p)
        expected = lam * sig2 / (p * lam + sig2) * np.eye(3)
        np.testing.assert_allclose(error_covariance(cfg).matrix, expected,
                                   atol=1e-14)

    def test_iid_closed_form(self):
        # general-kappa scalar-case reduction of the matrix expression
        rng = substream(55)
        for _ in range(20):
            lam = float(rng.uniform(0.2, 3.0))
            sig2 = float(rng.uniform(0.1, 2.0))
            p = float(rng.uniform(0.1, 50.0))
            kt, kr = rng.uniform(0.0, 0.0225, size=2)
            cfg = make_config(n=3, lam=lam, sig2=sig2, p=p,
                              kt_ut=float(kt), kr_bs=float(kr))
            closed = lam * (1.0 - p * lam / (p * lam * (1 + kt + kr) + sig2))
            c = error_covariance(cfg).matrix
            np.testing.assert_allclose(c, closed * np.eye(3), atol=1e-14)

    def test_matches_empirical_mse(self):
        r = exponential_correlation(8, 0.7)
        cfg = make_config(r=r, p=100.0, kt_ut=0.0025, kr_bs=0.0025)
        analytic = error_covariance(cfg).trace() / 8
        est = empirical_mse(cfg, 100_000, seed=7)
        assert est.value == pytest.approx(analytic, rel=0.01)

    def test_zero_pilot_power_returns_r(self):
        r = exponential_correlation(3, 0.5)
        cfg = UplinkConfig(r=r, s=CovarianceMatrix.identity(3), p_ut=0.0)
        np.testing.assert_array_equal(error_covariance(cfg).matrix, r.matrix)

    def test_sandwich_psd(self):
        # 0 <= C <= R
        r = exponential_correlation(6, 0.7)
        cfg = make_config(r=r, p=3.0, kt_ut=0.01, kr_bs=0.0025)
        c = error_covariance(cfg)
        tol = 1e-10 * r.max_eigenvalue
        assert c.min_eigenvalue >= -tol
        gap = np.linalg.eigvalsh(r.matrix - c.matrix)
        assert gap[0] >= -tol

    def test_trace_non_increasing_in_power(self):
        r = exponential_correlation(5, 0.7)
        traces = []
        for p in [0.1, 1.0, 10.0, 100.0, 1e4]:
            cfg = make_config(r=r, p=p, kt_ut=0.0025, kr_bs=0.0025)
            traces.append(error_covariance(cfg).trace())
        assert all(a >= b - 1e-12 for a, b in zip(traces, traces[1:]))

    def test_estimate_second_moment(self):
        # E{h_hat h_hat^H} = R - C
        r = exponential_correlation(4, 0.7)
        cfg = make_config(r=r, p=5.0, kt_ut=0.0025, kr_bs=0.0025)
        a = lmmse_filter(cfg)
        c = error_covariance(cfg)
        n_draws = 100_000
        h, *draws = _uplink_draws(r, cfg.s, n_draws, substream(102))
        z = _observe(cfg, h, *draws)
        h_hat = z @ a.T
        emp = np.einsum("ki,kj->ij", h_hat, np.conj(h_hat)) / n_draws
        se = 3.0 / np.sqrt(n_draws)
        assert np.max(np.abs(emp - (r.matrix - c.matrix))) <= 3.0 * se


class TestRoundoffScale:
    @pytest.mark.parametrize("fn", [error_covariance, error_floor])
    def test_one_eigh_for_exponential_r(self, fn):
        # nearly_psd's scale for c K is its max_eigenvalue, from the KMS
        # equation, so R's own spectrum is not decomposed: nearly_psd's
        # eigh is the only one
        cfg = make_config(r=exponential_correlation(64, 0.7), p=10.0,
                          kt_ut=0.01, kr_bs=0.0025)
        with mock.patch.object(np.linalg, "eigh",
                               wraps=np.linalg.eigh) as eigh:
            fn(cfg)
        assert eigh.call_count == 1


class TestMsePerAntenna:
    def test_classical_half(self):
        assert mse_per_antenna(make_config()) == pytest.approx(0.5)

    def test_approaches_floor_at_high_power(self):
        cfg_hi = make_config(n=4, p=1e8, kt_ut=0.0025, kr_bs=0.0025)
        floor = error_floor_iid(1.0, 0.0025, 0.0025)
        assert mse_per_antenna(cfg_hi) == pytest.approx(floor, abs=1e-6)

    def test_weak_dependence_on_antenna_count(self):
        vals = []
        for n in (10, 100):
            r = exponential_correlation(n, 0.7)
            cfg = make_config(r=r, p=10.0, kt_ut=0.0025, kr_bs=0.0025)
            vals.append(mse_per_antenna(cfg))
        assert vals[0] == pytest.approx(vals[1], rel=0.10)


class TestErrorFloor:
    def test_zero_with_ideal_hardware(self):
        r = exponential_correlation(4, 0.7)
        cfg = make_config(r=r)
        assert error_floor(cfg).trace() <= 1e-12

    def test_iid_matches_scalar_floor(self):
        cfg = make_config(n=3, lam=2.0, kt_ut=0.01, kr_bs=0.02)
        expected = error_floor_iid(2.0, 0.01, 0.02)
        np.testing.assert_allclose(error_floor(cfg).matrix,
                                   expected * np.eye(3), atol=1e-14)

    def test_is_high_power_limit(self):
        r = exponential_correlation(8, 0.7)
        cfg = make_config(r=r, p=1e10, kt_ut=0.0025, kr_bs=0.0025)
        c = error_covariance(cfg)
        floor = error_floor(cfg)
        assert np.linalg.norm(c.matrix - floor.matrix, "fro") <= 1e-6

    def test_singular_bracket_raises(self):
        rank1 = CovarianceMatrix(np.ones((3, 3)))
        cfg = UplinkConfig(r=rank1, s=CovarianceMatrix.identity(3), p_ut=1.0)
        with pytest.raises(SingularMatrixError):
            error_floor(cfg)


class TestDenseCholeskyPath:
    """Unequal diagonal entries in R take the Cholesky path."""

    def test_singular_bracket_raises(self):
        rank1 = CovarianceMatrix(np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
        cfg = UplinkConfig(r=rank1, s=CovarianceMatrix.identity(3), p_ut=1.0)
        assert rank1.constant_diagonal is None
        with pytest.raises(SingularMatrixError, match="high-power bracket"):
            error_floor(cfg)

    def test_non_finite_observation_covariance_raises_value_error(self):
        # p (1 + kappa) R overflows: the config is refused at construction,
        # and the solve's own guard refuses an M with inf and nan entries
        r = CovarianceMatrix(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="must be finite"):
            UplinkConfig(r=r, s=CovarianceMatrix.identity(2), p_ut=1e308,
                         imp=ImpairmentProfile.uniform(0.03))
        m = np.array([[np.inf, 0.0], [0.0, np.nan]], dtype=complex)
        with pytest.raises(ValueError, match="infs or NaNs"):
            _cho_solve(m, np.eye(2), "unused")


class TestErrorFloorIid:
    def test_ideal_hardware(self):
        assert error_floor_iid(1.0, 0.0, 0.0) == 0.0

    def test_reference_levels(self):
        assert error_floor_iid(1.0, 0.0025, 0.0025) == pytest.approx(
            0.004975124378109453, rel=1e-12)
        assert error_floor_iid(2.0, 0.01, 0.02) == pytest.approx(
            2.0 * (1.0 - 1.0 / 1.03), rel=1e-12)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            error_floor_iid(0.0, 0.01, 0.01)

    @pytest.mark.parametrize("args", [(1.0, np.nan, 0.0), (1.0, 0.0, np.nan),
                                      (np.inf, 0.01, 0.01),
                                      (1.0, np.inf, 0.0)])
    def test_rejects_non_finite(self, args):
        with pytest.raises(ValueError):
            error_floor_iid(*args)

    @given(lam=st.floats(0.01, 10.0),
           a=st.floats(0.0, 0.03), b=st.floats(0.0, 0.03))
    @settings(max_examples=100, deadline=None)
    # 1.0 + a + b and 1.0 + b + a differ in the last ulp here
    @example(lam=1.0, a=0.028425377251427464, b=0.009439236800021665)
    def test_symmetric_in_impairments(self, lam, a, b):
        assert error_floor_iid(lam, a, b) == error_floor_iid(lam, b, a)


def _standard_draws(s, h, rng):
    """What the uplink distortion and noise of a given (count, N) batch of
    channels are made of, as ``_observe`` takes them after h: (w_t, h2, u)
    with w_t ~ CN(0, 1) per row and u ~ CN(0, 1) per entry, and nu ~
    CN(0, S) per row after them for an S without the s I tag."""
    w_t = sample_scalar_cn(1.0, rng, size=len(h))
    draws = (w_t, _squared_moduli(h), sample_scalar_cn(1.0, rng, size=h.shape))
    if s.identity_scale is not None:
        return draws
    return (*draws, sample_cn(s, rng, size=len(h)))


class TestSimulateUplink:
    def test_noiseless_pilot(self):
        n = 3
        r = CovarianceMatrix.identity(n)
        s = CovarianceMatrix(1e-20 * np.eye(n))
        cfg = UplinkConfig(r=r, s=s, p_ut=4.0)
        h = np.array([[1.0 + 1j, -0.5, 2.0j]])
        z = _observe(cfg, h, *_standard_draws(s, h, substream(1)))
        np.testing.assert_allclose(z, h * 2.0, atol=1e-9)

    def test_zero_channel_leaves_pure_noise(self):
        cfg = make_config(n=2, sig2=0.5, p=1.0, kt_ut=0.01, kr_bs=0.01)
        rng = substream(2)
        h = np.zeros((1, 2))
        draws = np.array([_observe(cfg, h, *_standard_draws(cfg.s, h, rng))[0]
                          for _ in range(20_000)])
        emp = np.einsum("ki,kj->ij", draws, np.conj(draws)) / draws.shape[0]
        se = 0.5 / np.sqrt(draws.shape[0])
        assert np.max(np.abs(emp - 0.5 * np.eye(2))) <= 3.0 * se

    def test_total_covariance(self):
        # Cov(z) = p (1 + kt) R + p kr diag(R) + S over channel and noise
        r = exponential_correlation(4, 0.7)
        cfg = make_config(r=r, p=2.0, kt_ut=0.01, kr_bs=0.02)
        n_draws = 100_000
        h, *draws = _uplink_draws(r, cfg.s, n_draws, substream(3))
        z = _observe(cfg, h, *draws)
        emp = np.einsum("ki,kj->ij", z, np.conj(z)) / n_draws
        expected = (cfg.p_ut * (1 + 0.01) * r.matrix
                    + cfg.p_ut * 0.02 * np.diag(r.diagonal())
                    + cfg.s.matrix)
        # dominant entry scale is p * (1 + kt) ~ 2; generous 3-se band
        se = 3.0 * cfg.p_ut / np.sqrt(n_draws)
        assert np.max(np.abs(emp - expected)) <= 3.0 * se


class TestScaledIdentityMatchesDense:
    """The scaled-identity branches give the dense path's values within
    1e-12 relative, on the same draws. The error covariances cancel R
    against a correction of its size, so their roundoff is absolute: they
    are compared with a 1e-14 absolute floor. Both empirical MSE paths
    take the error in closed form, so neither cancels at high SNR."""

    # Below about 1e-146 LAPACK rescales the dense reference before its
    # eigh, which moves the last bit of its factor; results that fall into
    # the subnormal range magnify that bit, so scales start at 1e-140.
    @given(n=st.integers(1, 64),
           c_r=st.floats(1e-140, 1e3), c_s=st.floats(1e-140, 1e3),
           p_ut=st.floats(1e-3, 1e6), kappa=st.floats(0.0, 0.03))
    @settings(max_examples=40, deadline=None)
    def test_whole_chain(self, n, c_r, c_s, p_ut, kappa):
        imp = ImpairmentProfile.uniform(kappa)
        fast = UplinkConfig(r=CovarianceMatrix.identity(n).scaled(c_r),
                            s=CovarianceMatrix.identity(n).scaled(c_s),
                            p_ut=p_ut, imp=imp)
        # the dense twin keeps the tagged S, so that both lower bounds take
        # the same draws, with no nu; its dense R alone forces every
        # Cholesky path
        dense = UplinkConfig(r=CovarianceMatrix(c_r * np.eye(n)), s=fast.s,
                             p_ut=p_ut, imp=imp)
        dl = DownlinkConfig(p_bs=p_ut, sigma2_ut=c_s, imp=imp)
        assert fast.r.identity_scale == c_r and dense.r.identity_scale is None
        assert np.ndim(lmmse_filter(fast)) == 0
        assert error_covariance(fast).identity_scale is not None
        assert error_floor(fast).identity_scale is not None

        def outcome(fn, cfg):
            # at extreme scales both paths overflow or underflow alike
            try:
                return fn(cfg)
            except RuntimeError as exc:
                return str(exc)

        def agree(fn, value=lambda v: v, floor=0.0):
            a, b = outcome(fn, fast), outcome(fn, dense)
            if isinstance(a, str) or isinstance(b, str):
                assert a == b
            else:
                np.testing.assert_allclose(value(a), value(b), rtol=1e-12,
                                           atol=floor)

        agree(lmmse_filter, lambda a: a * np.eye(n) if np.ndim(a) == 0 else a)
        for fn in (error_covariance, error_floor):
            agree(fn, lambda c: c.matrix, floor=1e-14)
        agree(mse_per_antenna, floor=1e-14)
        agree(floor_per_antenna, floor=1e-14)
        agree(lambda cfg: capacity_upper_bound(cfg.r, dl))

        def value_and_se(est):
            return est.value, est.std_error

        agree(lambda cfg: empirical_mse(cfg, 100, 3), value_and_se)
        agree(lambda cfg: lower_bound_mc(cfg, dl, 1000, 3), value_and_se)

    @pytest.mark.parametrize("c_r, c_s, p_ut", [(1.0, 1e-140, 1.0),
                                               (915.0, 1e-3, 197.0),
                                               (1.0, 1e-160, 1.0),
                                               (1.0, 1e-200, 1.0)])
    def test_mse_matches_extended_precision(self, c_r, c_s, p_ut):
        # h_hat - h cancels at these points: it rounds to 0 at the first,
        # and its standard error is 7e-13 off at the second. The chain
        # takes E[|e|^2 | h] = q^2 |h|^2 + s p g^2 (kappa = 0), with g =
        # c_r / m, q = c_s / m and m = p c_r + c_s, and adds the constant
        # to the mean alone: added to the rows at the first point, it
        # would round their spread away. At the last two the rows' squared
        # deviations fall below the normal range, where a plain spread
        # loses digits or reads 0. Here the rows of the chain's own h in
        # extended precision
        for r, s in ((CovarianceMatrix.identity(1).scaled(c_r),
                      CovarianceMatrix.identity(1).scaled(c_s)),
                     (CovarianceMatrix(np.array([[c_r]])),
                      CovarianceMatrix(np.array([[c_s]])))):
            cfg = UplinkConfig(r=r, s=s, p_ut=p_ut)
            h = sample_cn(r, substream(3, 0), size=100)
            ld = np.longdouble
            m = ld(p_ut) * ld(c_r) + ld(c_s)
            rows = (ld(c_s) / m * np.abs(h[:, 0].astype(np.clongdouble))) ** 2
            want = (np.mean(rows) + ld(c_s) * ld(p_ut) * (ld(c_r) / m) ** 2,
                    np.std(rows, ddof=1) / np.sqrt(ld(100)))
            got = empirical_mse(cfg, 100, 3)
            np.testing.assert_allclose((got.value, got.std_error),
                                       np.array(want, dtype=np.float64),
                                       rtol=1e-12)


class TestEigenbasisMatchesDense:
    """Exponential R with S = s I takes R's spectrum for the per-antenna
    MSE and floor, R's eigenbasis in the MSE chain and the tridiagonal
    solve in the lower bound's chain, which needs antenna values; the same
    R with an untagged S = s I takes the Cholesky path for all of them. On
    the same draws (the AR(1) draws of R) the two agree within 1e-12
    relative; the per-antenna MSE and floor, means of differences of terms
    of order R, with a 1e-14 absolute floor. The filter, error covariance
    and error floor of c K_rho take the Cholesky path on both sides. The
    untagged S also draws nu in the lower bound's chain, so its estimates
    are compared on the tagged S's observations."""

    @given(n=st.integers(1, 64), rho=st.floats(0.0, 0.95, exclude_max=True),
           s=st.floats(1e-2, 1e2), p_ut=st.floats(1e-3, 1e6),
           kappa=st.floats(0.0, 0.03))
    @settings(max_examples=40, deadline=None)
    def test_whole_chain(self, n, rho, s, p_ut, kappa):
        r = exponential_correlation(n, rho)
        fast_s = CovarianceMatrix.identity(n).scaled(s)
        dense_s = CovarianceMatrix(s * np.eye(n))
        imp = ImpairmentProfile.uniform(kappa)
        # a second point of each chain, as the experiments batch them
        fast, dense = ([UplinkConfig(r=r, s=s_, p_ut=p, imp=imp_)
                        for p, imp_ in ((p_ut, imp), (10.0, ImpairmentProfile()))]
                       for s_ in (fast_s, dense_s))
        assert r.constant_diagonal == 1.0 and r.kms_rho == rho
        with mock.patch.object(estimation, "_tridiagonal_solve",
                               wraps=_tridiagonal_solve) as solve:
            pilot_chain(fast[:1], 2, 0, estimates)
            assert solve.call_count == 1
            pilot_chain(dense[:1], 2, 0, estimates)
            assert solve.call_count == 1
        # the MSE chain forms N x N error filters on the dense path only
        with mock.patch.object(estimation, "_error_filters",
                               wraps=estimation._error_filters) as filters:
            empirical_mse_batch(fast, 2, 0)
            assert filters.call_count == 0
            empirical_mse_batch(dense, 2, 0)
            assert filters.call_count == 2

        def agree(a, b, floor=0.0):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=floor)

        a, b = lmmse_filter(fast[0]), lmmse_filter(dense[0])
        agree(a, b, floor=1e-12 * np.max(np.abs(b)))
        for fn in (mse_per_antenna, floor_per_antenna):
            agree(fn(fast[0]), fn(dense[0]), floor=1e-14)
        # 1000 rows: one chunk that spans several row blocks
        for x, y in zip(empirical_mse_batch(fast, 1000, 3),
                        empirical_mse_batch(dense, 1000, 3)):
            agree((x.value, x.std_error), (y.value, y.std_error))
        # the tridiagonal estimates against the dense filter's, on the same
        # observations; entries of h_hat cancel, so with the filter's floor
        h, w_t, h2, u = _uplink_draws(r, fast_s, 1000, substream(3, 0))
        for f, d in zip(fast, dense):
            z = _observe(f, h, w_t, h2, u)
            want = z @ lmmse_filter(d).T
            agree(_tridiagonal_solve(z, _tridiagonal_filter(f)), want,
                  floor=1e-12 * np.max(np.abs(want)))

    @given(n=st.integers(1, 64), rho=st.floats(0.0, 0.95, exclude_max=True),
           c=st.floats(1e-3, 1e3), s=st.floats(1e-2, 1e2),
           p_ut=st.floats(1e-3, 1e6), kappa=st.floats(0.0, 0.03))
    @example(n=1, rho=0.7, c=1.0, s=1.0, p_ut=1.0, kappa=0.01)
    @example(n=2, rho=0.0, c=1.0, s=1.0, p_ut=1.0, kappa=0.01)
    @example(n=2, rho=0.9, c=2.0, s=0.1, p_ut=1e3, kappa=0.0)
    @settings(max_examples=60, deadline=None)
    def test_tridiagonal_filter(self, n, rho, c, s, p_ut, kappa):
        # the solve applied to the rows of I gives the rows of A^T
        r = exponential_correlation(n, rho).scaled(c)
        imp = ImpairmentProfile.uniform(kappa)
        fast, dense = (UplinkConfig(r=r, s=s_, p_ut=p_ut, imp=imp)
                       for s_ in (CovarianceMatrix.identity(n).scaled(s),
                                  CovarianceMatrix(s * np.eye(n))))
        eye = np.eye(n, dtype=np.complex128)
        got = _tridiagonal_solve(eye, _tridiagonal_filter(fast)).T
        want = lmmse_filter(dense)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))

    def test_non_constant_diagonal_takes_dense_path(self):
        # an untagged R takes the Cholesky path whatever its diagonal: a
        # constant one included, as a dense copy of K_rho has
        for r in (CovarianceMatrix(np.diag([1.0, 2.0, 3.0]) + 0.1),
                  CovarianceMatrix(exponential_correlation(8, 0.7).matrix)):
            n = r.dim
            s = CovarianceMatrix.identity(n)
            cfg = UplinkConfig(r=r, s=s, p_ut=2.0,
                               imp=ImpairmentProfile.uniform(0.01))
            assert r.identity_scale is None and r.kms_rho is None
            with mock.patch.object(estimation, "_error_filters",
                                   wraps=estimation._error_filters) as filters:
                empirical_mse(cfg, 2, 0)
                assert filters.call_count == 1
            with mock.patch.object(estimation, "_cho_solve",
                                   wraps=estimation._cho_solve) as solve:
                pilot_chain([cfg], 2, 0, estimates)
                assert solve.call_count == 1
                assert solve.call_args.args[0].shape == (n, n)
            m = (2.0 * 1.01 * r.matrix + 2.0 * 0.01 * np.diag(r.diagonal())
                 + np.eye(n))
            np.testing.assert_allclose(
                lmmse_filter(cfg), np.sqrt(2.0) * r.matrix @ np.linalg.inv(m),
                rtol=1e-12)

    def test_only_the_mse_chain_reads_eigenvectors(self):
        # c K_rho with S = s I: every closed form and the lower bound's
        # chain work from R's tags and spectrum, or by Cholesky; only the
        # MSE chain, whose configs share R's eigenbasis, reads V
        def no_v(self):
            raise AssertionError("eigenvectors read")

        n = 6
        r = exponential_correlation(n, 0.7).scaled(2.0)
        imp = ImpairmentProfile.uniform(0.01)
        ul = UplinkConfig(r=r, s=CovarianceMatrix.identity(n).scaled(0.5),
                          p_ut=3.0, imp=imp)
        dl = DownlinkConfig(p_bs=3.0, sigma2_ut=0.5, imp=imp)
        with mock.patch.object(CovarianceMatrix, "eigenvectors",
                               property(no_v)):
            for fn in (lmmse_filter, error_covariance, error_floor,
                       mse_per_antenna, floor_per_antenna):
                fn(ul)
            lower_bound_asymptotic(ul, dl)
            lower_bound_mc_batch([(ul, dl)], 1000, 0)
            with pytest.raises(AssertionError, match="eigenvectors read"):
                empirical_mse_batch([ul], 2, 0)


class TestEigenbasisProperties:
    """Exponential R with S = s I, on R's eigenbasis."""

    @staticmethod
    def config(n, rho, s, p_ut, kappa):
        return UplinkConfig(r=exponential_correlation(n, rho),
                            s=CovarianceMatrix.identity(n).scaled(s),
                            p_ut=p_ut, imp=ImpairmentProfile.uniform(kappa))

    cases = dict(n=st.integers(1, 64), rho=st.floats(0.0, 0.95, exclude_max=True),
                 s=st.floats(1e-2, 1e2), kappa=st.floats(0.0, 0.03))

    @given(p_lo=st.floats(1e-3, 1e10), ratio=st.floats(1.0, 1e3), **cases)
    @settings(max_examples=60, deadline=None)
    def test_mse_non_increasing_in_power(self, n, rho, s, kappa, p_lo, ratio):
        lo = mse_per_antenna(self.config(n, rho, s, p_lo, kappa))
        hi = mse_per_antenna(self.config(n, rho, s, p_lo * ratio, kappa))
        assert hi <= lo * (1.0 + 1e-14)

    @given(p_ut=st.floats(1e-3, 1e10), **cases)
    @settings(max_examples=60, deadline=None)
    def test_error_covariance_psd(self, n, rho, s, kappa, p_ut):
        cfg = self.config(n, rho, s, p_ut, kappa)
        c = error_covariance(cfg)
        assert c.min_eigenvalue >= 0.0
        tol = 1e-14 * cfg.r.max_eigenvalue
        assert np.linalg.eigvalsh(c.matrix)[0] >= -tol

    @given(p_ut=st.floats(1.0, 1e12), **cases)
    @settings(max_examples=60, deadline=None)
    def test_mse_tends_to_floor(self, n, rho, s, kappa, p_ut):
        # per eigenvalue lam, C - C_inf = lam^2 s / ((p b + s) b) <= s / p
        # with b = (1 + kappa) lam + kappa
        cfg = self.config(n, rho, s, p_ut, kappa)
        mse = mse_per_antenna(cfg)
        gap = mse - floor_per_antenna(cfg)
        tol = 1e-14 * mse
        assert -tol <= gap <= s / p_ut + tol


class TestOneDisturbanceDraw:
    """The lower bound's chain draws nu + eta_r as one u per antenna: for
    S tagged s I, one CN(0, s + kappa_r_bs p |h_i|^2) value per antenna;
    for any other S, eta_r from u, and nu ~ CN(0, S) per row. The MSE
    chain draws neither: it integrates them out."""

    def test_moments_given_h(self):
        # seed chosen before looking at the draws; |h_i| differ, so the
        # per-antenna variances do
        n, rows = 4, 100_000
        r = CovarianceMatrix.identity(n)
        s = CovarianceMatrix.identity(n).scaled(1.5)
        cfg = UplinkConfig(r=r, s=s, p_ut=4.0,
                           imp=ImpairmentProfile(kappa_r_bs=0.02))
        _, w_t, _, u = _uplink_draws(r, s, rows, substream(18))
        h = np.tile(np.array([0.2, 1.0 - 1.0j, 3.0j, -2.5]), (rows, 1))
        h2 = np.abs(h) ** 2
        noise = _observe(cfg, h, w_t, h2, u) - cfg.d * h
        want = 1.5 + 0.02 * 4.0 * h2[0]
        power = np.abs(noise) ** 2
        for x, mean in ((power, want), (noise.real * noise.imag, 0.0),
                        (noise.real ** 2 - noise.imag ** 2, 0.0)):
            se = np.std(x, axis=0, ddof=1) / np.sqrt(rows)
            assert np.all(np.abs(np.mean(x, axis=0) - mean) <= 5.0 * se)

    def test_untagged_covariance_given_h(self):
        # kappa_t_ut = 0 and a non-diagonal S without a tag: given h, z - d
        # h = nu + eta_r has covariance S + kappa_r_bs p diag(|h_i|^2),
        # every entry within 5 standard errors; seed chosen before looking
        # at the draws. A covariance's diagonal is real, so only the real
        # parts are compared there
        n, rows = 3, 100_000
        r = CovarianceMatrix.identity(n)
        s = CovarianceMatrix(np.eye(n) + 0.2)
        cfg = UplinkConfig(r=r, s=s, p_ut=4.0,
                           imp=ImpairmentProfile(kappa_r_bs=0.02))
        _, w_t, _, u, nu = _uplink_draws(r, s, rows, substream(19))
        h = np.tile(np.array([0.2, 1.0 - 1.0j, 3.0j]), (rows, 1))
        h2 = np.abs(h) ** 2
        noise = _observe(cfg, h, w_t, h2, u, nu) - cfg.d * h
        want = s.matrix + 0.02 * 4.0 * np.diag(h2[0])
        prod = noise[:, :, None] * noise[:, None, :].conj()
        off = ~np.eye(n, dtype=bool)
        for x, mean in ((prod.real, want.real),
                        (prod.imag[:, off], want.imag[off])):
            se = np.std(x, axis=0, ddof=1) / np.sqrt(rows)
            assert np.all(np.abs(np.mean(x, axis=0) - mean) <= 5.0 * se)

    @pytest.mark.parametrize("s, tagged", [
        (CovarianceMatrix(np.diag([0.5, 1.0, 2.0])), False),
        (exponential_correlation(3, 0.0).scaled(0.5), False),
        (CovarianceMatrix.identity(3).scaled(0.5), True),
        (CovarianceMatrix(np.eye(3) + 0.1), False),
    ], ids=["dense-diagonal", "kms-rho-0", "scaled-identity", "dense"])
    def test_draws_taken(self, s, tagged):
        # the tag decides, not the entries: a dense diagonal S and c K_0
        # draw nu from S once per chunk, S = s I never; the MSE chain
        # draws from neither
        cfg = UplinkConfig(r=exponential_correlation(3, 0.7), s=s, p_ut=2.0,
                           imp=ImpairmentProfile.uniform(0.01))
        with mock.patch.object(estimation, "_uplink_draws",
                               wraps=estimation._uplink_draws) as draws, \
                mock.patch.object(estimation, "sample_cn",
                                  wraps=estimation.sample_cn) as cn:
            pilot_chain([cfg], 2 * _CHUNK + 1, 0, estimates)
            noise = [c.kwargs["size"] for c in cn.call_args_list
                     if c.args[0] is s]
            assert draws.call_count == 3
            assert noise == ([] if tagged else [_CHUNK, _CHUNK, 1])
            cn.reset_mock()
            empirical_mse(cfg, 2 * _CHUNK + 1, 0)
            assert draws.call_count == 3
            assert not [c for c in cn.call_args_list if c.args[0] is s]

    @pytest.mark.parametrize("r, s", [
        (exponential_correlation(4, 0.7), CovarianceMatrix.identity(4)),
        (CovarianceMatrix.identity(3).scaled(2.0),
         CovarianceMatrix.identity(3).scaled(0.5)),
        (CovarianceMatrix(np.diag([0.5, 1.0, 2.0]) + 0.1),
         CovarianceMatrix(np.eye(3) + 0.2))], ids=["kms", "identity", "dense"])
    def test_mse_chain_draws_h_and_w_t_only(self, r, s):
        # on R's eigenbasis (c K, c I) and off it (dense R and S): no noise
        # draw and no draw of S at all, and one w_t draw per chunk
        def never(*args, **kwargs):
            raise AssertionError("the MSE chain drew noise")

        def channel(m, rng, size=None):
            assert m is r
            return sample_cn(m, rng, size=size)

        cfgs = [UplinkConfig(r=r, s=s, p_ut=p,
                             imp=ImpairmentProfile.uniform(0.01))
                for p in (1.0, 100.0)]
        with mock.patch.multiple(estimation, _uplink_draws=never,
                                 sample_cn=channel), \
                mock.patch.object(estimation, "sample_scalar_cn",
                                  wraps=estimation.sample_scalar_cn) as w_t:
            assert len(empirical_mse_batch(cfgs, 2 * _CHUNK + 1, 0)) == 2
        assert [c.kwargs["size"] for c in w_t.call_args_list] == [
            _CHUNK, _CHUNK, 1]

    @pytest.mark.parametrize("r, s", [
        (CovarianceMatrix(np.array([[1.0, 0.3 + 0.2j, 0.1],
                                    [0.3 - 0.2j, 2.0, 0.4j],
                                    [0.1, -0.4j, 0.5]])),
         CovarianceMatrix(np.array([[0.5, 0.1j, 0.0],
                                    [-0.1j, 0.8, 0.2],
                                    [0.0, 0.2, 1.2]]))),
        (exponential_correlation(4, 0.7).scaled(2.0),
         CovarianceMatrix.identity(4).scaled(0.5))], ids=["dense", "kms"])
    def test_mse_chain_integrates_the_noise_out(self, r, s):
        # ||h - A z||^2 / N simulated plainly, with the noise and array
        # distortion drawn, agrees with the chain's conditional means
        # within 4 of the plain estimate's standard error; k and both
        # sample counts were fixed before any output was seen
        cfg = UplinkConfig(r=r, s=s, p_ut=10.0,
                           imp=ImpairmentProfile(kappa_t_ut=0.01,
                                                 kappa_r_bs=0.02))
        h, *draws = _uplink_draws(r, s, 100_000, substream(40, 1))
        e = h - _observe(cfg, h, *draws) @ lmmse_filter(cfg).T
        plain = np.sum(np.abs(e) ** 2, axis=1) / r.dim
        se = np.std(plain, ddof=1) / np.sqrt(len(plain))
        got = empirical_mse(cfg, 400_000, 41)
        assert abs(got.value - np.mean(plain)) <= 4.0 * se


class TestSharedDraws:
    """Configs that share R and S share one draw set: config i of a batch
    gives the bits of a batch of that config alone."""

    @staticmethod
    def batch(r):
        s = CovarianceMatrix.identity(r.dim).scaled(0.5)
        return [
            UplinkConfig(r=r, s=s, p_ut=1.0),
            UplinkConfig(r=r, s=s, p_ut=100.0,
                         imp=ImpairmentProfile(kappa_t_ut=0.0025,
                                               kappa_r_bs=0.01)),
            UplinkConfig(r=r, s=s, p_ut=4.0,
                         imp=ImpairmentProfile.uniform(0.02)),
        ]

    @staticmethod
    def chain(cfgs, n_samples, seed):
        """(h, h_hat) of each config, from one ``stat`` that keeps both."""
        n = cfgs[0].dim
        rows = pilot_chain(cfgs, n_samples, seed,
                           lambda h, h_hat, h2: np.hstack([h, h_hat]))
        return [(x[:, :n], x[:, n:]) for x in rows]

    @pytest.mark.parametrize(
        "s", [CovarianceMatrix.identity(3).scaled(0.5),
              CovarianceMatrix(np.eye(3) + 0.1)], ids=["diagonal", "dense"])
    def test_rows_join_chunks_in_order(self, s):
        # the chunk driver stacks each config's rows over chunk j, whose
        # h is the first draw of substream(seed, j); the last chunk is
        # partial
        r = exponential_correlation(3, 0.7)
        cfgs = [UplinkConfig(r=r, s=s, p_ut=p) for p in (1.0, 10.0)]
        n_samples = 2 * _CHUNK + 7
        rows = pilot_chain(cfgs, n_samples, 5,
                           lambda h, h_hat, h2: h.copy())
        want = np.concatenate([
            sample_cn(r, substream(5, j), size=count)
            for j, count in enumerate((_CHUNK, _CHUNK, 7))])
        assert len(rows) == 2
        for x in rows:
            np.testing.assert_array_equal(x, want)

    @pytest.mark.parametrize(
        "r", [exponential_correlation(3, 0.7),
              CovarianceMatrix.identity(3).scaled(2.0),
              CovarianceMatrix(np.diag([0.5, 1.0, 2.0]) + 0.1)],
        ids=["tridiagonal", "scaled-identity", "cholesky"])
    def test_stat_may_return_h_hat(self, r):
        # each config's h_hat is its own array: a stat that returns it
        # uncopied gives the rows of a stat that copies it
        cfgs = self.batch(r)
        n_samples = 2 * _CHUNK + 7
        rows = pilot_chain(cfgs, n_samples, 5, lambda h, h_hat, h2: h_hat)
        want = self.chain(cfgs, n_samples, 5)
        for x, (_, h_hat) in zip(rows, want):
            np.testing.assert_array_equal(x, h_hat)
        assert not np.array_equal(rows[0], rows[1])

    # a partial last chunk, whole chunks, and a one-row last chunk
    @pytest.mark.parametrize("n_samples", [1000, 4 * _CHUNK, 4 * _CHUNK + 1])
    @pytest.mark.parametrize(
        "r", [exponential_correlation(3, 0.7),
              CovarianceMatrix.identity(3).scaled(2.0),
              CovarianceMatrix(np.diag([0.5, 1.0, 2.0]) + 0.1),
              CovarianceMatrix(exponential_correlation(3, 0.7).matrix)],
        ids=["dense", "scaled-identity", "cholesky", "untagged"])
    def test_config_bits_do_not_depend_on_batch(self, r, n_samples):
        cfgs = self.batch(r)
        batch = self.chain(cfgs, n_samples, seed=5)
        mse = empirical_mse_batch(cfgs, n_samples, seed=5)
        dls = [DownlinkConfig(p_bs=cfg.p_ut, sigma2_ut=0.5, imp=cfg.imp)
               for cfg in cfgs]
        rates = lower_bound_mc_batch(list(zip(cfgs, dls)), n_samples, seed=5)
        for i, cfg in enumerate(cfgs):
            (h, h_hat), = self.chain([cfg], n_samples, seed=5)
            assert h.shape == (n_samples, 3)
            np.testing.assert_array_equal(batch[i][0], h)
            np.testing.assert_array_equal(batch[i][1], h_hat)
            assert mse[i] == empirical_mse(cfg, n_samples, seed=5)
            assert rates[i] == lower_bound_mc(cfg, dls[i], n_samples, seed=5)
        # one channel draw set, one estimate per config
        np.testing.assert_array_equal(batch[0][0], batch[2][0])
        assert not np.array_equal(batch[0][1], batch[2][1])

    def test_mse_bits_do_not_depend_on_batch_at_n_128(self):
        # at N = 128 the BLAS blocks its products: one product over all
        # configs' weights would give a config other bits in another batch
        r = exponential_correlation(128, 0.7)
        s = CovarianceMatrix.identity(128).scaled(0.5)
        cfgs = [UplinkConfig(r=r, s=s, p_ut=p,
                             imp=ImpairmentProfile(kappa_t_ut=kt,
                                                   kappa_r_bs=kr))
                for p in (0.1, 1.0, 10.0, 1e3)
                for kt, kr in ((0.0, 0.0), (0.0025, 0.01))]
        cfgs.append(UplinkConfig(r=r, s=s, p_ut=4.0,
                                 imp=ImpairmentProfile.uniform(0.02)))
        mse = empirical_mse_batch(cfgs, 1000, seed=5)
        for i, cfg in enumerate(cfgs):
            assert mse[i] == empirical_mse(cfg, 1000, seed=5)

    @pytest.mark.parametrize("r, rotations", [
        (exponential_correlation(8, 0.7), 1),
        (CovarianceMatrix.identity(8).scaled(2.0), 0)],
        ids=["kms", "identity"])
    def test_one_rotation_and_two_products_per_chunk(self, r, rotations):
        # on R's eigenbasis the MSE chain rotates h once per chunk (c K
        # only), and forms each config's four sums in two products,
        # whatever its levels
        s = CovarianceMatrix.identity(8).scaled(0.5)
        cfgs = [UplinkConfig(r=r, s=s, p_ut=2.0, imp=imp)
                for imp in (ImpairmentProfile(),
                            ImpairmentProfile(kappa_t_ut=0.01),
                            ImpairmentProfile(kappa_r_bs=0.01),
                            ImpairmentProfile.uniform(0.01))]
        with mock.patch.object(np, "dot", wraps=np.dot) as dot:
            empirical_mse_batch(cfgs, 2 * _CHUNK + 1, 0)
        assert dot.call_count == 3 * (rotations + 2 * len(cfgs))

    @staticmethod
    def traced_peak(run, n_samples):
        tracemalloc.start()
        try:
            run(n_samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("estimator", ["rate", "mse"])
    def test_peak_memory_does_not_grow_with_samples(self, estimator):
        # the chain holds one chunk of rows at a time: a few arrays of
        # _CHUNK x N complex values, whatever the sample count
        if estimator == "rate":
            n = 1024
            r = CovarianceMatrix.identity(n)
            cfgs = [UplinkConfig(r=r, s=r, p_ut=p,
                                 imp=ImpairmentProfile.uniform(0.0025))
                    for p in (1.0, 10.0, 100.0)]
            links = [(cfg, DownlinkConfig(p_bs=cfg.p_ut, sigma2_ut=1.0,
                                          imp=cfg.imp)) for cfg in cfgs]
            run = lambda m: lower_bound_mc_batch(links, m, seed=3)
        else:
            n = 256
            cfgs = self.batch(exponential_correlation(n, 0.7))
            run = lambda m: empirical_mse_batch(cfgs, m, seed=3)
        small, large = (self.traced_peak(run, m) for m in (1000, 4000))
        assert large <= 1.1 * small
        assert large < 12 * _CHUNK * n * 16

    def test_configs_must_share_covariances(self):
        r = exponential_correlation(3, 0.7)
        a, b, _ = self.batch(r)
        other_s = UplinkConfig(r=r, s=CovarianceMatrix.identity(3), p_ut=1.0)
        other_r = UplinkConfig(r=exponential_correlation(3, 0.7), s=a.s,
                               p_ut=1.0)
        for cfgs in ([a, other_s], [a, other_r]):
            with pytest.raises(ValueError, match="share R and S"):
                pilot_chain(cfgs, 10, 0, estimates)
        assert len(pilot_chain([a, b], 10, 0, estimates)) == 2

    def test_chain_needs_a_sample(self):
        # with no chunk to join, the chain would return no array at all
        cfg = self.batch(exponential_correlation(3, 0.7))[0]
        with pytest.raises(ValueError,
                           match="n_samples must be an integer >= 1,"):
            pilot_chain([cfg], 0, 0, estimates)

    @pytest.mark.parametrize("run", [
        lambda: pilot_chain([], 10, 1, estimates),
        lambda: empirical_mse_batch([], 100, 1),
        lambda: lower_bound_mc_batch([], 1000, 1),
    ], ids=["pilot_chain", "empirical_mse_batch", "lower_bound_mc_batch"])
    def test_empty_batch_rejected(self, run):
        with pytest.raises(ValueError, match="at least one config"):
            run()


def _cores(count):
    """Patch the usable-core count of the chunk map to ``count``."""
    return mock.patch.object(os, "sched_getaffinity", create=True,
                             return_value=set(range(count)))


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class _TwoArgError(Exception):
    """Pickles, but does not unpickle: its one pickled arg is one short."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.fixture
def one_blas_thread(monkeypatch):
    """The environment of a one-thread BLAS, so that chains that call the
    BLAS fork as many processes as the others."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")


class TestProcessCount:
    """How many processes the chunk map forks, checked without forking."""

    @pytest.mark.parametrize("env, cores, want", [
        ({}, 4, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 4),
        ({"OMP_NUM_THREADS": "1"}, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x",
          "OMP_NUM_THREADS": "2"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "3"}, 8, 2)])
    def test_blas_pools_within_cores(self, env, cores, want, monkeypatch):
        # each process runs its own BLAS pool, whose size OpenBLAS reads
        # from the environment at load, else one thread per core
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with _cores(cores):
            assert estimation._process_count(8, 40, blas=True) == want
            assert estimation._process_count(8, 40) == min(8, cores)

    @pytest.mark.parametrize("workers, chunks, cores, want", [
        (1, 40, 8, 1), (2, 40, 8, 2), (3, 40, 2, 2), (8, 3, 16, 3),
        (10 ** 6, 40, 2, 2), (10 ** 6, 1, 64, 1), (4, 40, 1, 1)])
    def test_bound(self, workers, chunks, cores, want):
        with _cores(cores):
            assert estimation._process_count(workers, chunks) == want

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert estimation._process_count(8, 40) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert estimation._process_count(8, 40) == 1

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        with _cores(8):
            assert estimation._process_count(8, 40) == 1
            cfg = TestSharedDraws.batch(exponential_correlation(3, 0.7))[0]
            rows, = pilot_chain([cfg], 3 * _CHUNK, 0, estimates, workers=8)
        assert rows.shape == (3 * _CHUNK, 3)

    def test_forks_no_more_than_chunks(self):
        # 8 workers asked for, 3 chunks and 64 cores: 2 children
        cfg = TestSharedDraws.batch(exponential_correlation(3, 0.7))[0]
        with _cores(64), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            pilot_chain([cfg], 2 * _CHUNK + 1, 0, estimates, workers=8)
        assert fork.call_count == 2
        assert _no_child_left()


@pytest.mark.usefixtures("one_blas_thread")
class TestProcessMap:
    """The chunk map over forked processes: the serial map's bytes at any
    worker count, and no child left behind on success or failure."""

    R = {"tridiagonal": exponential_correlation(3, 0.7),
         "scaled-identity": CovarianceMatrix.identity(3).scaled(2.0),
         "cholesky": CovarianceMatrix(np.diag([0.5, 1.0, 2.0]) + 0.1)}

    @staticmethod
    @contextlib.contextmanager
    def forks(n_samples, calls):
        """Checks that ``calls`` chains at each of workers 1, 2 and 3 fork
        min(workers, chunks) - 1 children each, with one pipe per child:
        none at one worker."""
        chunks = -(-n_samples // _CHUNK)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            with mock.patch.object(os, "pipe", wraps=os.pipe) as pipe:
                yield
        assert fork.call_count == calls * sum(min(w, chunks) - 1
                                              for w in (1, 2, 3))
        assert pipe.call_count == fork.call_count

    # a partial last chunk, and more workers (3) than chunks (2)
    @pytest.mark.parametrize("n_samples", [3 * _CHUNK + 7, _CHUNK + 1])
    @pytest.mark.parametrize("path", list(R))
    def test_pilot_chain_bytes(self, path, n_samples):
        cfgs = TestSharedDraws.batch(self.R[path])

        def stat(h, h_hat, h2):
            return np.hstack([h, h_hat, h2])

        with _cores(3), self.forks(n_samples, calls=1):
            runs = [pilot_chain(cfgs, n_samples, 5, stat, workers=w)
                    for w in (1, 2, 3)]
        for rows in runs[1:]:
            assert len(rows) == len(runs[0])
            for x, want in zip(rows, runs[0]):
                assert np.array_equal(x, want)
        assert _no_child_left()

    @pytest.mark.parametrize("n_samples", [3 * _CHUNK + 7, _CHUNK + 1])
    @pytest.mark.parametrize("r", [exponential_correlation(16, 0.7),
                                   CovarianceMatrix(np.eye(16) + 0.1)],
                             ids=["eigenbasis", "dense"])
    def test_empirical_mse_bytes(self, r, n_samples):
        cfgs = TestSharedDraws.batch(r)
        assert (estimation._eigenbasis(cfgs[0]) is None) is (r.kms_rho is None)
        norms = (estimation._dense_norms if r.kms_rho is None
                 else estimation._diagonal_norms)
        with _cores(3), self.forks(n_samples, calls=2):
            arrays = [estimation._map_chunks(norms(cfgs)[0], n_samples, 5, w)
                      for w in (1, 2, 3)]
            ests = [empirical_mse_batch(cfgs, n_samples, 5, workers=w)
                    for w in (1, 2, 3)]
        for got in arrays[1:]:
            for x, want in zip(got, arrays[0]):
                assert np.array_equal(x, want)
        assert ests[1] == ests[0] and ests[2] == ests[0]
        assert _no_child_left()

    def test_workers_run_the_chunks(self):
        # chunk j on process j mod 3: the parent runs chunks 0 and 3
        cfg = TestSharedDraws.batch(self.R["tridiagonal"])[0]
        parent = os.getpid()

        def stat(h, h_hat, h2):
            return np.full(len(h), os.getpid())

        with _cores(3):
            rows, = pilot_chain([cfg], 4 * _CHUNK, 0, stat, workers=3)
        pids = [int(rows[j * _CHUNK]) for j in range(4)]
        assert pids[0] == pids[3] == parent
        assert len({pids[0], pids[1], pids[2]}) == 3

    @staticmethod
    def raising(where, exc):
        """A ``stat`` that raises exc in the parent or in the children."""
        parent = os.getpid()

        def stat(h, h_hat, h2):
            if (os.getpid() == parent) == (where == "parent"):
                raise exc
            return h2

        return stat

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_error_is_raised_and_children_reaped(self, where):
        cfg = TestSharedDraws.batch(self.R["tridiagonal"])[0]
        stat = self.raising(where, ZeroDivisionError(f"boom in {where}"))
        with _cores(3), pytest.raises(ZeroDivisionError,
                                      match=f"^boom in {where}$"):
            pilot_chain([cfg], 3 * _CHUNK, 0, stat, workers=3)
        assert _no_child_left()

    def test_unpicklable_error_named(self):
        cfg = TestSharedDraws.batch(self.R["tridiagonal"])[0]
        stat = self.raising("child", _TwoArgError(1, 2))
        with _cores(2), pytest.raises(RuntimeError,
                                      match="_TwoArgError: 1 and 2"):
            pilot_chain([cfg], 2 * _CHUNK, 0, stat, workers=2)
        assert _no_child_left()

    def test_child_without_result(self):
        cfg = TestSharedDraws.batch(self.R["tridiagonal"])[0]
        parent = os.getpid()

        def stat(h, h_hat, h2):
            if os.getpid() != parent:
                os._exit(3)
            return h2

        with _cores(2), pytest.raises(RuntimeError, match="sent no result"):
            pilot_chain([cfg], 2 * _CHUNK, 0, stat, workers=2)
        assert _no_child_left()

    def test_interrupt_kills_and_reaps(self):
        # the parent is interrupted in its own share while its child works
        cfg = TestSharedDraws.batch(self.R["tridiagonal"])[0]
        stat = self.raising("parent", KeyboardInterrupt())
        with _cores(2), pytest.raises(KeyboardInterrupt):
            pilot_chain([cfg], 2 * _CHUNK, 0, stat, workers=2)
        assert _no_child_left()

    def test_buffered_output_flushed_before_fork(self):
        # stdout to a pipe is block-buffered: unflushed at the fork, what
        # this process had written would also go out with a child's output
        code = textwrap.dedent("""
            import os, sys
            from unittest import mock
            from misolim.estimation import UplinkConfig, pilot_chain
            from misolim.randmat import CovarianceMatrix
            from misolim.randmat import exponential_correlation as kms
            cfg = UplinkConfig(r=kms(3, 0.7), s=CovarianceMatrix.identity(3),
                               p_ut=1.0)
            parent = os.getpid()
            def stat(h, h_hat, h2):
                if os.getpid() != parent:
                    print("child")
                    sys.stdout.flush()
                return h2
            print("parent")
            with mock.patch.object(os, "sched_getaffinity", create=True,
                                   return_value={0, 1}):
                pilot_chain([cfg], 512, 0, stat, workers=2)
            """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(estimation.__file__).parents[1])]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert sorted(out.stdout.split()) == ["child", "parent"]

    def test_no_warning_at_fork(self):
        # Python 3.12 warns when a multi-threaded process forks, and
        # OpenBLAS's idle pool counts; a chain must run under -W error.
        # The fork is wrapped to give 3.12's warning on any version
        r = exponential_correlation(64, 0.7)
        cfgs = TestSharedDraws.batch(r)
        np.dot(np.ones((64, 64)), np.ones((64, 64)))  # starts the pool
        fork = os.fork

        def fork_that_warns():
            pid = fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) "
                              "is multi-threaded, use of fork() may lead to "
                              "deadlocks in the child.", DeprecationWarning,
                              stacklevel=2)
            return pid

        with warnings.catch_warnings(), _cores(2), mock.patch.object(
                os, "fork", fork_that_warns):
            warnings.simplefilter("error")
            rates = lower_bound_mc_batch(
                [(c, DownlinkConfig(p_bs=1.0, sigma2_ut=0.5, imp=c.imp))
                 for c in cfgs], 1000, 0, workers=2)
        assert len(rates) == 3
        assert _no_child_left()
