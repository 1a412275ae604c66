"""LMMSE estimator, error covariance, and error-floor tests.

Monte-Carlo oracles (sample-covariance regression, orthogonality checks,
law of total covariance) validate the closed forms end to end.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misolim import estimation
from misolim.capacity import (
    DownlinkConfig,
    capacity_upper_bound,
    lower_bound_mc,
    lower_bound_mc_batch,
)
from misolim.estimation import (
    _CHUNK,
    ImpairmentProfile,
    SingularMatrixError,
    UplinkConfig,
    _simulate_uplink_batch,
    _tridiagonal_filter,
    _tridiagonal_solve,
    empirical_mse,
    empirical_mse_batch,
    error_covariance,
    error_floor,
    error_floor_iid,
    estimate,
    lmmse_filter,
    mse_per_antenna,
    pilot_chain,
    simulate_uplink,
)
from misolim.randmat import (
    CovarianceMatrix,
    exponential_correlation,
    sample_cn,
    substream,
)


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

    def test_rejects_mismatched_pilot_power(self):
        with pytest.raises(ValueError):
            UplinkConfig(r=CovarianceMatrix.identity(2),
                         s=CovarianceMatrix.identity(2), p_ut=4.0, d=1.0)

    def test_rejects_singular_noise(self):
        with pytest.raises(ValueError):
            UplinkConfig(r=CovarianceMatrix.identity(2),
                         s=CovarianceMatrix(np.zeros((2, 2))), p_ut=1.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            UplinkConfig(r=CovarianceMatrix.identity(2),
                         s=CovarianceMatrix.identity(3), p_ut=1.0)


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
        rng = substream(100)
        h = sample_cn(r, rng, size=n_draws)
        z = _simulate_uplink_batch(cfg, h, rng)
        cov_hz = np.einsum("ki,kj->ij", h, np.conj(z)) / n_draws  # E{h z^H}
        cov_zz = np.einsum("ki,kj->ij", z, np.conj(z)) / n_draws
        a_emp = cov_hz @ np.linalg.inv(cov_zz)
        np.testing.assert_allclose(lmmse_filter(cfg), a_emp, atol=1e-2)


class TestEstimate:
    def test_zero_observation(self):
        cfg = make_config()
        np.testing.assert_array_equal(estimate(cfg, np.zeros(4)), np.zeros(4))

    def test_linearity(self):
        cfg = make_config(n=3, p=2.0, kt_ut=0.01)
        z = substream(5).standard_normal(3) + 1j * substream(6).standard_normal(3)
        c = 2.0 + 1.0j
        np.testing.assert_allclose(estimate(cfg, c * z),
                                   c * estimate(cfg, z), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            estimate(make_config(), np.zeros(5))

    def test_estimate_error_uncorrelated(self):
        # orthogonality principle: E{h_hat eps^H} = 0
        r = exponential_correlation(4, 0.7)
        cfg = make_config(r=r, p=5.0, kt_ut=0.0025, kr_bs=0.0025)
        a = lmmse_filter(cfg)
        n_draws = 100_000
        rng = substream(101)
        h = sample_cn(r, rng, size=n_draws)
        z = _simulate_uplink_batch(cfg, h, rng)
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
        rng = substream(102)
        h = sample_cn(r, rng, size=n_draws)
        z = _simulate_uplink_batch(cfg, h, rng)
        h_hat = z @ a.T
        emp = np.einsum("ki,kj->ij", h_hat, np.conj(h_hat)) / n_draws
        se = 3.0 / np.sqrt(n_draws)
        assert np.max(np.abs(emp - (r.matrix - c.matrix))) <= 3.0 * se


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
        # p (1 + kappa) overflows, and M = inf R + S has inf and nan entries
        r = CovarianceMatrix(np.diag([1.0, 2.0]))
        cfg = UplinkConfig(r=r, s=CovarianceMatrix.identity(2), p_ut=1e308,
                           imp=ImpairmentProfile.uniform(0.03))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="infs or NaNs"):
            lmmse_filter(cfg)


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

    @given(lam=st.floats(0.01, 10.0),
           a=st.floats(0.0, 0.03), b=st.floats(0.0, 0.03))
    @settings(max_examples=100, deadline=None)
    # 1.0 + a + b and 1.0 + b + a differ in the last ulp here
    @example(lam=1.0, a=0.028425377251427464, b=0.009439236800021665)
    def test_symmetric_in_impairments(self, lam, a, b):
        assert error_floor_iid(lam, a, b) == error_floor_iid(lam, b, a)


class TestSimulateUplink:
    def test_noiseless_pilot(self):
        n = 3
        r = CovarianceMatrix.identity(n)
        s = CovarianceMatrix(1e-20 * np.eye(n))
        cfg = UplinkConfig(r=r, s=s, p_ut=4.0)
        h = np.array([1.0 + 1j, -0.5, 2.0j])
        z = simulate_uplink(cfg, h, substream(1))
        np.testing.assert_allclose(z, h * 2.0, atol=1e-9)

    def test_zero_channel_leaves_pure_noise(self):
        cfg = make_config(n=2, sig2=0.5, p=1.0, kt_ut=0.01, kr_bs=0.01)
        rng = substream(2)
        draws = np.array([simulate_uplink(cfg, np.zeros(2), rng)
                          for _ in range(20_000)])
        emp = np.einsum("ki,kj->ij", draws, np.conj(draws)) / draws.shape[0]
        se = 0.5 / np.sqrt(draws.shape[0])
        assert np.max(np.abs(emp - 0.5 * np.eye(2))) <= 3.0 * se

    def test_total_covariance(self):
        # Cov(z) = p (1 + kt) R + p kr diag(R) + S over channel and noise
        r = exponential_correlation(4, 0.7)
        cfg = make_config(r=r, p=2.0, kt_ut=0.01, kr_bs=0.02)
        n_draws = 100_000
        rng = substream(3)
        h = sample_cn(r, rng, size=n_draws)
        z = _simulate_uplink_batch(cfg, h, rng)
        emp = np.einsum("ki,kj->ij", z, np.conj(z)) / n_draws
        expected = (cfg.p_ut * (1 + 0.01) * r.matrix
                    + cfg.p_ut * 0.02 * np.diag(r.diagonal())
                    + cfg.s.matrix)
        # dominant entry scale is p * (1 + kt) ~ 2; generous 3-se band
        se = 3.0 * cfg.p_ut / np.sqrt(n_draws)
        assert np.max(np.abs(emp - expected)) <= 3.0 * se

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            simulate_uplink(make_config(), np.zeros(5), substream(0))


class TestScaledIdentityMatchesDense:
    """The scaled-identity branches give the dense path's values within
    1e-12 relative, on the same draws. The error covariances cancel R
    against a correction of its size, so their roundoff is absolute: they
    are compared with a 1e-14 absolute floor. The Monte-Carlo standard
    errors meet 1e-12 only on a BLAS whose triangular solve multiplies by
    the reciprocal of the factor's diagonal (OpenBLAS does): one ulp of
    the dense filter moves them by up to 1.5e-12 at high SNR."""

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
        dense = UplinkConfig(r=CovarianceMatrix(c_r * np.eye(n)),
                             s=CovarianceMatrix(c_s * np.eye(n)),
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
        agree(lambda cfg: capacity_upper_bound(cfg.r, dl))

        def value_and_se(est):
            return est.value, est.std_error

        agree(lambda cfg: empirical_mse(cfg, 100, 3), value_and_se)
        agree(lambda cfg: lower_bound_mc(cfg, dl, 1000, 3), value_and_se)


class TestEigenbasisMatchesDense:
    """Exponential R with S = s I takes R's eigenbasis, except in the lower
    bound's chain, which needs antenna values and takes the tridiagonal
    solve; the same R with an untagged S = s I takes the Cholesky path. On
    the same draws (the AR(1) draws of R) the two agree within 1e-12
    relative; the error covariances, differences of terms of order R, with
    a 1e-14 absolute floor, and the filter relative to its largest entry,
    since its far off-diagonal entries are small differences too."""

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
        dl = DownlinkConfig(p_bs=p_ut, sigma2_ut=s, imp=imp)
        assert r.constant_diagonal == 1.0 and r.kms_rho == rho
        with mock.patch.object(estimation, "_tridiagonal_solve",
                               wraps=_tridiagonal_solve) as solve:
            assert next(pilot_chain(fast, 2, 0, antenna=True))[3] is None
            assert solve.call_count == 1
            assert next(pilot_chain(dense, 2, 0, antenna=True))[3] is None
            assert solve.call_count == 1
        assert next(pilot_chain(fast, 2, 0))[3] is r.eigenvectors
        assert next(pilot_chain(dense, 2, 0))[3] is None

        def agree(a, b, floor=0.0):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=floor)

        a, b = lmmse_filter(fast[0]), lmmse_filter(dense[0])
        agree(a, b, floor=1e-12 * np.max(np.abs(b)))
        for fn in (error_covariance, error_floor):
            agree(fn(fast[0]).matrix, fn(dense[0]).matrix, floor=1e-14)
        agree(mse_per_antenna(fast[0]), mse_per_antenna(dense[0]), floor=1e-14)
        # 1000 rows: one chunk that spans several row blocks
        for x, y in zip(empirical_mse_batch(fast, 1000, 3),
                        empirical_mse_batch(dense, 1000, 3)):
            agree((x.value, x.std_error), (y.value, y.std_error))
        for x, y in zip(lower_bound_mc_batch([(c, dl) for c in fast], 1000, 3),
                        lower_bound_mc_batch([(c, dl) for c in dense], 1000, 3)):
            agree((x.value, x.std_error), (y.value, y.std_error))

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
        r = CovarianceMatrix(np.diag([1.0, 2.0, 3.0]) + 0.1)
        s = CovarianceMatrix.identity(3)
        cfg = UplinkConfig(r=r, s=s, p_ut=2.0, imp=ImpairmentProfile.uniform(0.01))
        assert r.constant_diagonal is None
        assert next(pilot_chain([cfg], 2, 0))[3] is None
        m = (2.0 * 1.01 * r.matrix + 2.0 * 0.01 * np.diag(r.diagonal())
             + np.eye(3))
        np.testing.assert_allclose(lmmse_filter(cfg),
                                   np.sqrt(2.0) * r.matrix @ np.linalg.inv(m),
                                   rtol=1e-12)


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
        gap = mse - error_floor(cfg).trace() / n
        tol = 1e-14 * mse
        assert -tol <= gap <= s / p_ut + tol


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
            UplinkConfig(r=r, s=s, p_ut=4.0, d=2.0 * np.exp(0.3j),
                         imp=ImpairmentProfile.uniform(0.02)),
        ]

    @staticmethod
    def chain(cfgs, n_samples, seed):
        out = [([], []) for _ in cfgs]
        for i, h, h_hat, _ in pilot_chain(cfgs, n_samples, seed):
            out[i][0].append(h)
            out[i][1].append(h_hat)
        return [(np.concatenate(h), np.concatenate(h_hat)) for h, h_hat in out]

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
                next(pilot_chain(cfgs, 10, seed=0))
        assert len(list(pilot_chain([a, b], 10, seed=0))) == 2
