"""The Monte-Carlo lower bound against its exact expectations.

For R = c I, S = s I and an ideal uplink (kappa_t_ut = kappa_r_bs = 0)
the LMMSE estimate is the MMSE estimate of a Gaussian channel: h_hat ~
CN(0, sig2 I) with sig2 = p c^2 / (p c + s), and the error e = h - h_hat
~ CN(0, c_e I) with c_e = c s / (p c + s) is independent of it. For the
beamformer v = conj(h_hat) / ||h_hat||, ||h_hat||^2 / sig2 is Gamma(N, 1)
and independent of the direction, whose |h_hat_i|^2 / ||h_hat||^2 is
Beta(1, N - 1). So, whatever the downlink levels:

    E{h^T v}                = E||h_hat|| = sqrt(sig2) Gamma(N + 1/2) / Gamma(N)
    E{|h^T v|^2}            = N sig2 + c_e
    E{sum_i |h_i|^2 |v_i|^2} = 2 N sig2 / (N + 1) + c_e

and the rate is log2(1 + SINR) with the bound's SINR formula (see
``capacity._rate_estimate``) on those expectations.

For R = c K_rho (exponential correlation) the estimate is CN(0, Sigma),
whose eigenvalues are mu_k = p lam_k^2 / (p lam_k + s) for R's spectrum
lam, and the error is still independent of it. So E{h^T v} = E||h_hat||
still, and with ||h_hat||^2 = sum_k mu_k E_k for iid E_k ~ Exp(1),

    E||h_hat|| = (1 / (2 sqrt(pi))) int_0^inf (1 - prod_k (1 + t mu_k)^-1) t^(-3/2) dt,

from sqrt(q) = (1 / (2 sqrt(pi))) int_0^inf (1 - e^(-t q)) t^(-3/2) dt and
E e^(-t ||h_hat||^2) = prod_k (1 + t mu_k)^-1.

Each Monte-Carlo test compares a sample mean, or the estimate, with its
exact value within Z standard errors, on fixed seeds; Z was fixed before
any draw was looked at. The same closed forms check the quadrature of
``capacity.lower_bound_iid``, which the capacity runs write.
"""

import csv
import functools
import math
from pathlib import Path

import numpy as np
import pytest

from misolim.capacity import (
    DownlinkConfig,
    _iid_moments,
    _mrt_stats,
    lower_bound_iid,
    lower_bound_mc,
)
from misolim.estimation import ImpairmentProfile, UplinkConfig, pilot_chain
from misolim.experiments import N_GRID_POW2
from misolim.randmat import CovarianceMatrix, exponential_correlation

Z = 5.0
SAMPLES = 20_000
SEED = 31
# (N, c, s, p) of the uplink
CASES = [(1, 1.0, 1.0, 100.0), (4, 2.0, 0.5, 3.0), (64, 0.5, 2.0, 1.0)]
# (p_bs, sigma2_ut, kappa_t_bs, kappa_r_ut) of the downlink, one per case
DOWNLINKS = [(100.0, 1.0, 0.0025, 0.01), (3.0, 0.5, 0.01, 0.0),
             (1.0, 2.0, 0.0225, 0.0025)]
GOLDEN = Path(__file__).parent / "golden" / "capacity-vs-n.csv"
RHO = 0.7
# (N, c, s, p) of R = c K_rho, S = s I: one case with every value off 1,
# and the energy-efficiency run's kappa = 0 points (R = K_0.7, S = 0.01 I,
# pilot power 1 / N^t for t = 0, 0.25, 0.5)
KMS_CASES = [(4, 2.0, 0.5, 3.0)] + [(n, 1.0, 0.01, n ** -t)
                                    for n in (4, 64) for t in (0.0, 0.25, 0.5)]


def oracle(n, c, s, p):
    """Exact (E{h^T v}, E{|h^T v|^2}, E{sum_i |h_i|^2 |v_i|^2})."""
    sig2 = p * c * c / (p * c + s)
    c_e = c * s / (p * c + s)
    norm = math.sqrt(sig2) * math.exp(math.lgamma(n + 0.5) - math.lgamma(n))
    return norm, n * sig2 + c_e, 2.0 * n * sig2 / (n + 1) + c_e


def oracle_rate(case, p_bs, sigma2_ut, kappa_t_bs, kappa_r_ut):
    g, q, u = oracle(*case)
    denom = ((1.0 + kappa_r_ut) * q - g * g + kappa_t_bs * u
             + sigma2_ut / p_bs)
    return math.log2(1.0 + g * g / denom)


def mean_norm(mu):
    """E||h_hat|| for ||h_hat||^2 = sum_k mu_k E_k: the integral above in
    t = e^u, by the trapezoid rule, which converges geometrically for an
    integrand that decays exponentially in u at both ends."""
    u, du = np.linspace(-60.0, 60.0, 6001, retstep=True)
    t = np.exp(u)
    one_minus_prod = -np.expm1(-np.log1p(np.outer(t, mu)).sum(axis=1))
    return float(np.sum(one_minus_prod / np.sqrt(t)) * du / (2.0 * math.sqrt(math.pi)))


def kms_oracle(n, c, s, p):
    """E{h^T v} for R = c K_rho, from K's spectrum by numpy's eigvalsh."""
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    lam = c * np.linalg.eigvalsh(RHO ** lag.astype(float))
    return mean_norm(p * lam * lam / (p * lam + s))


def uplink(n, c, s, p):
    return UplinkConfig(r=CovarianceMatrix.identity(n).scaled(c),
                        s=CovarianceMatrix.identity(n).scaled(s), p_ut=p)


def kms_uplink(n, c, s, p):
    return UplinkConfig(r=exponential_correlation(n, RHO).scaled(c),
                        s=CovarianceMatrix.identity(n).scaled(s), p_ut=p)


@functools.lru_cache(maxsize=None)
def chain_rows(case, make=uplink):
    """The ``_mrt_stats`` rows (Re g, Im g, |g|^2, u) of the chain."""
    return pilot_chain([make(*case)], SAMPLES, SEED, _mrt_stats)[0]


def assert_mean(column, want):
    se = column.std(ddof=1) / math.sqrt(column.size)
    z = (column.mean() - want) / se
    assert abs(z) <= Z, f"mean {column.mean()!r} is {z:.2f} SE from {want!r}"


@pytest.mark.parametrize("case", CASES)
def test_mean_gain_is_mean_estimate_norm(case):
    assert_mean(chain_rows(case)[:, 0], oracle(*case)[0])


@pytest.mark.parametrize("case", CASES)
def test_mean_square_gain(case):
    assert_mean(chain_rows(case)[:, 2], oracle(*case)[1])


@pytest.mark.parametrize("case", CASES)
def test_mean_distortion_term(case):
    assert_mean(chain_rows(case)[:, 3], oracle(*case)[2])


@pytest.mark.parametrize("case, link", zip(CASES, DOWNLINKS))
def test_rate(case, link):
    p_bs, sigma2_ut, kt, kr = link
    dl = DownlinkConfig(p_bs=p_bs, sigma2_ut=sigma2_ut,
                        imp=ImpairmentProfile(kappa_t_bs=kt, kappa_r_ut=kr))
    est = lower_bound_mc(uplink(*case), dl, SAMPLES, SEED + 1)
    want = oracle_rate(case, *link)
    assert abs(est.value - want) <= Z * est.std_error, (est, want)


# Relative tolerance of the quadrature against the closed forms, fixed
# before any output was looked at. The moments: each rule is exact or
# converges geometrically, so only roundoff is left, a few hundred ulps
# over the 160 log-t nodes. The rate: its SINR denominator E|g|^2 - |E g|^2
# cancels up to about 4N of the moments' roundoff at 20 dB, 2.6e-12
# relative on a 7-bit rate at N = 64.
QUAD_REL = 1e-8
RATE_REL = 1e-9


@pytest.mark.parametrize("n", N_GRID_POW2 + (8192,))
@pytest.mark.parametrize("c, s, p", [(1.0, 1.0, 100.0), (2.0, 0.5, 3.0),
                                     (0.5, 2.0, 1.0)])
def test_quadrature_gives_the_closed_forms(n, c, s, p):
    got = _iid_moments(uplink(n, c, s, p))
    np.testing.assert_allclose(got, oracle(n, c, s, p), rtol=QUAD_REL,
                               atol=0.0)


def test_golden_ideal_rows():
    # the kappa = 0 capacity_lower rows of capacity-vs-n: R = S = I and
    # pilot and data power 100 (20 dB), every level 0; exact, so their
    # standard error is 0
    with open(GOLDEN, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh)
                if r["metric"] == "capacity_lower"
                and float(r["kappa_bs"]) == 0.0]
    assert [int(r["n"]) for r in rows] == [4, 64]
    for r in rows:
        case = (int(r["n"]), 1.0, 1.0, 100.0)
        want = oracle_rate(case, 100.0, 1.0, 0.0, 0.0)
        assert float(r["value"]) == pytest.approx(want, rel=RATE_REL), r
        assert r["std_error"] == "0", r


@pytest.mark.parametrize("case, link", zip(CASES, DOWNLINKS))
def test_exact_rate(case, link):
    p_bs, sigma2_ut, kt, kr = link
    dl = DownlinkConfig(p_bs=p_bs, sigma2_ut=sigma2_ut,
                        imp=ImpairmentProfile(kappa_t_bs=kt, kappa_r_ut=kr))
    assert lower_bound_iid(uplink(*case), dl) == pytest.approx(
        oracle_rate(case, *link), rel=RATE_REL)


def test_quadrature_gives_the_gamma_ratio():
    # equal mu: the closed form of R = c I above
    for case in CASES:
        n, c, s, p = case
        mu = np.full(n, p * c * c / (p * c + s))
        assert mean_norm(mu) == pytest.approx(oracle(*case)[0], rel=1e-12)


@pytest.mark.parametrize("case", KMS_CASES)
def test_kms_mean_gain_is_mean_estimate_norm(case):
    assert_mean(chain_rows(case, kms_uplink)[:, 0], kms_oracle(*case))


@pytest.mark.parametrize("case", KMS_CASES)
def test_kms_mean_gain_is_real(case):
    assert_mean(chain_rows(case, kms_uplink)[:, 1], 0.0)
