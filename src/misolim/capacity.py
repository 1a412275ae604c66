"""Downlink capacity bounds under transceiver hardware impairments.

The downlink observation is y = h^T (w s + eta_t) + n + eta_r with
distortion variances proportional to the signal power. The closed-form
upper bound assumes perfect channel knowledge and optimal beamforming;
the Monte-Carlo lower bound uses the LMMSE channel estimate with
approximate maximum ratio transmission and only statistical channel
knowledge at the receiver. Both converge to finite ceilings set by the
terminal-side impairment levels as the array grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimation import (
    ImpairmentProfile,
    MonteCarloEstimate,
    UplinkConfig,
    _check_levels,
    _eigenbasis,
    _solve_m,
    pilot_chain,
)
from .randmat import CovarianceMatrix, _dimension
from .specfun import one_minus_x_ex_e1

LOG2 = math.log(2.0)

# Below this transmit-distortion level the closed-form bound switches to
# its analytic zero-impairment limit to avoid 1/kappa blowup.
_KAPPA_T_BS_SWITCH = 1e-12

# Smallest normal double: a norm below it has lost bits to underflow.
_NORM_MIN = np.finfo(np.float64).tiny

# Gauss-Hermite nodes per axis of the asymptotic bound's product rule: 40
# agree with 200 within 1e-14 relative for kappa_t_ut <= 0.03 and within
# 1e-9 at 0.1 (tests/test_capacity.py)
_HERMITE_NODES = 40


@dataclass(frozen=True)
class DownlinkConfig:
    """Data-phase scenario: signal power, receiver noise variance, and the
    impairment profile (only the BS transmit / UT receive levels enter)."""

    p_bs: float
    sigma2_ut: float
    imp: ImpairmentProfile = field(default_factory=ImpairmentProfile)

    def __post_init__(self):
        if not (self.p_bs > 0.0) or not math.isfinite(self.p_bs):
            raise ValueError(f"signal power must be positive, got {self.p_bs}")
        if not (self.sigma2_ut > 0.0) or not math.isfinite(self.sigma2_ut):
            raise ValueError(f"noise variance must be positive, got {self.sigma2_ut}")


def sinr_of_beamformer(h: np.ndarray, w: np.ndarray, dl: DownlinkConfig) -> float:
    """Instantaneous SINR of a given unit-norm beamformer:
    |h^T w|^2 / (kt sum |h_i w_i|^2 + kr |h^T w|^2 + sigma^2 / p)."""
    h = np.asarray(h, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    gain = abs(h @ w) ** 2
    selfint = float(np.sum(np.abs(h * w) ** 2))
    denom = (dl.imp.kappa_t_bs * selfint + dl.imp.kappa_r_ut * gain
             + dl.sigma2_ut / dl.p_bs)
    return gain / denom


def optimal_beamformer(h: np.ndarray, dl: DownlinkConfig) -> np.ndarray:
    """SINR-maximizing unit-norm beamformer under perfect channel knowledge:
    (kt diag(|h_i|^2) + (sigma^2/p) I)^{-1} h*, normalized."""
    h = np.asarray(h, dtype=np.complex128)
    norm_h = np.linalg.norm(h)
    if norm_h == 0.0:
        raise ValueError("degenerate channel: h = 0 has no beamforming direction")
    w = np.conj(h) / (dl.imp.kappa_t_bs * np.abs(h) ** 2 + dl.sigma2_ut / dl.p_bs)
    return w / np.linalg.norm(w)


def sinr_perfect_csi(h: np.ndarray, dl: DownlinkConfig) -> float:
    """Maximum instantaneous SINR over unit-norm beamformers:
    h^T (D + kr h* h^T)^{-1} h* with D = kt diag(|h_i|^2) + (sigma^2/p) I.
    By Sherman-Morrison that is a / (1 + kr a), a = h^T D^{-1} h*: no
    N x N matrix."""
    g = np.abs(np.asarray(h, dtype=np.complex128)) ** 2
    a = float(np.sum(g / (dl.imp.kappa_t_bs * g + dl.sigma2_ut / dl.p_bs)))
    return a / (1.0 + dl.imp.kappa_r_ut * a)


def capacity_upper_bound(r: CovarianceMatrix, dl: DownlinkConfig) -> float:
    """Closed-form capacity upper bound, log2(1 + G / (1 + kr G)), in
    bits per channel use.

    G sums one antenna term per diagonal entry of R; at kappa_t_bs = 0 it
    collapses to the analytic limit p * tr(R) / sigma^2. A scaled identity
    R = c I has one term, counted N times.
    """
    scale = r.identity_scale
    diag = r.diagonal() if scale is None else np.float64(scale)
    if np.any(diag <= 0.0):
        raise ValueError("channel covariance has a zero diagonal entry")
    kt, kr = dl.imp.kappa_t_bs, dl.imp.kappa_r_ut
    if kt < _KAPPA_T_BS_SWITCH:
        total = float(np.sum(diag)) if scale is None else r.trace()
        g = dl.p_bs * total / dl.sigma2_ut
    else:
        x = dl.sigma2_ut / (dl.p_bs * kt * diag)
        # antennas with equal channel variance share one evaluation
        uniq, counts = (np.unique(x, return_counts=True) if scale is None
                        else ((x,), (r.dim,)))
        g = sum(c * one_minus_x_ex_e1(xi) for xi, c in zip(uniq, counts)) / kt
    return math.log2(1.0 + g / (1.0 + kr * g))


def capacity_ideal_jensen(r: CovarianceMatrix, dl: DownlinkConfig) -> float:
    """Ideal-hardware comparison curve: log2(1 + p * tr(R) / sigma^2)."""
    return math.log2(1.0 + dl.p_bs * r.trace() / dl.sigma2_ut)


def upper_limit_high_power(n: int, kappa_t_bs: float, kappa_r_ut: float) -> float:
    """High-power ceiling of the upper bound: log2(1 + N/(kt + kr N)).

    Returns +inf when both impairment levels are zero (no ceiling).
    """
    n = _dimension(n)
    _check_levels(kappa_t_bs, kappa_r_ut)
    denom = kappa_t_bs + kappa_r_ut * n
    if denom == 0.0:
        return math.inf
    return math.log2(1.0 + n / denom)


def upper_limit_large_n(kappa_r_ut: float) -> float:
    """Large-array ceiling of the upper bound: log2(1 + 1/kappa_r_ut).

    Returns +inf at kappa_r_ut = 0 (unbounded, not an error).
    """
    _check_levels(kappa_r_ut)
    if kappa_r_ut == 0.0:
        return math.inf
    return math.log2(1.0 + 1.0 / kappa_r_ut)


def lower_limit_scaled_power(kappa_t_ut: float, kappa_r_ut: float) -> float:
    """Large-array limit of the lower bound under admissible power scaling:
    log2(1 + 1/(kr + kt + kr kt)); +inf when both levels are zero."""
    _check_levels(kappa_t_ut, kappa_r_ut)
    denom = kappa_r_ut + kappa_t_ut + kappa_r_ut * kappa_t_ut
    if denom == 0.0:
        return math.inf
    return math.log2(1.0 + 1.0 / denom)


def _row_sums(h: np.ndarray, h_hat: np.ndarray, h2: np.ndarray):
    """(s, n2, t) of each row, as in ``_mrt_stats``."""
    s = np.einsum("ij,ij->i", h, h_hat.conj())
    a = h_hat.real ** 2
    a += h_hat.imag ** 2
    return s, a.sum(axis=1), np.einsum("ij,ij->i", a, h2)


def _mrt_stats(h: np.ndarray, h_hat: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Rows (Re g, Im g, |g|^2, u) of the draws with h_hat != 0, for the
    beamformer v = conj(h_hat)/||h_hat||: g = h^T v = s / sqrt(n2) and
    u = sum_i |h_i|^2 |v_i|^2 = t / n2, with no array for v, from the row
    sums s = sum_i h_i conj(h_hat_i), n2 = sum_i |h_hat_i|^2 and
    t = sum_i |h_i|^2 |h_hat_i|^2, with h2 = |h|^2 (the ``stat`` of
    ``pilot_chain``)."""
    s, n2, t = _row_sums(h, h_hat, h2)
    low = np.flatnonzero((n2 < _NORM_MIN) | (t < _NORM_MIN))
    if low.size:
        # a sum underflows: rescale those rows by their largest modulus,
        # part by part (a complex division's 1 / peak can overflow)
        peak = np.max(np.abs(h_hat[low]), axis=1, keepdims=True)
        peak[peak == 0.0] = 1.0  # zero rows stay 0, and are dropped
        unit = h_hat[low]
        unit.real /= peak
        unit.imag /= peak
        s[low], n2[low], t[low] = _row_sums(h[low], unit, h2[low])
    ok = n2 > 0.0  # the rows with h_hat != 0
    g = s[ok] / np.sqrt(n2[ok])
    return np.column_stack([g.real, g.imag, np.abs(g) ** 2, t[ok] / n2[ok]])


def _rate_estimate(x: np.ndarray, dl: DownlinkConfig,
                   n_samples: int) -> MonteCarloEstimate:
    """log2(1 + SINR) of the approximate-MRT bound from the rows of
    ``_mrt_stats``, with its delta-method standard error."""
    dropped = n_samples - x.shape[0]
    if dropped > 0.001 * n_samples:
        raise RuntimeError(
            f"{dropped} of {n_samples} draws produced a zero channel estimate"
        )
    n_eff = x.shape[0]
    mean = x.mean(axis=0)
    cov = np.cov(x, rowvar=False)
    a_re, a_im, q_m, u_m = mean
    sig = a_re ** 2 + a_im ** 2
    kt, kr = dl.imp.kappa_t_bs, dl.imp.kappa_r_ut
    # (1 + kr) q_m - sig as kr q_m + mean |g - mean g|^2: no cancellation
    denom = (kr * q_m + np.mean((x[:, 0] - a_re) ** 2 + (x[:, 1] - a_im) ** 2)
             + kt * u_m + dl.sigma2_ut / dl.p_bs)
    sinr = sig / denom
    value = math.log2(1.0 + sinr)
    grad_sinr = np.array([
        2.0 * a_re * (denom + sig) / denom ** 2,
        2.0 * a_im * (denom + sig) / denom ** 2,
        -sig * (1.0 + kr) / denom ** 2,
        -sig * kt / denom ** 2,
    ])
    grad = grad_sinr / (LOG2 * (1.0 + sinr))
    var = float(grad @ cov @ grad) / n_eff
    return MonteCarloEstimate(value=value, std_error=math.sqrt(max(var, 0.0)),
                              n_samples=n_eff)


def lower_bound_mc_batch(links, n_samples: int, seed: int,
                         workers: int = 1) -> list[MonteCarloEstimate]:
    """``lower_bound_mc`` of each (ul, dl) pair in ``links`` over one shared
    pilot chain, on up to ``workers`` processes: the uplink configs share
    R and S (see ``pilot_chain``)."""
    if n_samples < 1000:
        raise ValueError("lower_bound_mc needs at least 1000 samples")
    links = list(links)
    if any(ul.p_ut == 0.0 for ul, _ in links):
        raise ValueError("the lower bound needs pilot power p_ut > 0")
    rows = pilot_chain([ul for ul, _ in links], n_samples, seed, _mrt_stats,
                       workers)
    return [_rate_estimate(x, dl, n_samples)
            for x, (_, dl) in zip(rows, links)]


def lower_bound_mc(ul: UplinkConfig, dl: DownlinkConfig, n_samples: int,
                   seed: int) -> MonteCarloEstimate:
    """Monte-Carlo achievable-rate lower bound with approximate MRT.

    Each sample runs the pilot chain (channel draw, distorted uplink pilot,
    LMMSE estimate), then the beamformer v = conj(h_hat)/||h_hat||. The
    three expectations E{h^T v}, E{|h^T v|^2}, sum_i E{|h_i|^2 |v_i|^2} are
    estimated jointly from the common sample stream; the standard error of
    log2(1 + SINR) follows by the delta method. Draws whose estimate is
    exactly zero are dropped; more than 0.1 % of them raise RuntimeError.
    A link without pilot power (p_ut = 0) raises ValueError before any
    draw.
    """
    return lower_bound_mc_batch([(ul, dl)], n_samples, seed)[0]


def lower_bound_asymptotic(ul: UplinkConfig, dl: DownlinkConfig) -> float:
    """Large-array closed form of the lower bound with the O(1/sqrt(N))
    remainders dropped. Nothing is drawn: two calls give the same float.

    With B = R M^{-1} (the LMMSE filter over d*) and Psi = p_ut
    kappa_r_bs diag(R) + S, the channel-averaged covariance of the
    additive uplink disturbance, only expectations of

      x = (1 + zeta) sqrt(tr(B R) / (p_ut |1 + zeta|^2 tr(B R B^H)
                                     + tr(B Psi B^H)))

    over zeta = eta / d ~ CN(0, kappa_t_ut) remain, where eta is the
    terminal's transmit distortion; p_ut tr(B R) is tr(R - C), formed
    without the subtraction. They are taken by a product Gauss-Hermite
    rule of _HERMITE_NODES nodes per axis over Re zeta and Im zeta, on
    x - x(0), so that at kappa_t_ut = 0 the spread E|x - E x|^2 is exactly
    0. The SINR denominator (1 + kappa_r_ut) E|x|^2 - |E x|^2 is formed
    as kappa_r_ut E|x|^2 + E|x - E x|^2, which cancels nothing: without
    impairments only the noise term sigma^2 / (N p_ut p_bs) is left, so
    the rate grows without bound in the powers but is finite at each.
    Returns +inf only if the denominator underflows to 0. A link with
    p_ut = 0 raises ValueError.
    """
    if ul.p_ut == 0.0:
        raise ValueError("the lower bound needs pilot power p_ut > 0")
    basis = _eigenbasis(ul)
    if basis is None:
        b = _solve_m(ul, ul.r.matrix).conj().T
        br = b @ ul.r.matrix
        psi = (ul.p_ut * ul.imp.kappa_r_bs * np.diag(ul.r.diagonal())
               + ul.s.matrix)
        t_rc = float(np.real(np.trace(br)))
        # tr(X B^H) = sum of X * conj(B): no third product
        t_sig = float(np.real(np.vdot(b, br)))
        t_psi = float(np.real(np.vdot(b, b @ psi)))
    else:
        # B = V diag(g) V^H and Psi = beta I on R's eigenbasis; for R =
        # c I, lam and g are one value, repeated N times
        lam, g, beta = basis
        lam, g = np.broadcast_to(lam, ul.dim), np.broadcast_to(g, ul.dim)
        t_rc = float(np.sum(g * lam))
        t_sig = float(np.sum(g * g * lam))
        t_psi = beta * float(np.sum(g * g))

    def x(y):
        return y * np.sqrt(t_rc / (ul.p_ut * np.abs(y) ** 2 * t_sig + t_psi))

    # the Gauss-Hermite rule for the weight e^(-z^2) by Golub and Welsch:
    # the nodes are the eigenvalues of the Hermite recurrence's Jacobi
    # matrix, and the weights over sqrt(pi) the squares of its
    # eigenvectors' first entries (numpy's hermgauss would load
    # numpy.polynomial, 0.7 MB, into the process)
    off = np.sqrt(np.arange(1, _HERMITE_NODES) / 2.0)
    z, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    # zeta = sqrt(kappa)(z_i + j z_k), weighed by (v_0i v_0k)^2
    zeta = math.sqrt(ul.imp.kappa_t_ut) * (z[:, None] + 1j * z)
    w = np.outer(v[0] ** 2, v[0] ** 2)
    x0 = x(1.0)
    dx = x(1.0 + zeta) - x0
    shift = complex(np.sum(w * dx))  # E x - x(0)
    spread = float(np.sum(w * np.abs(dx - shift) ** 2))  # E|x - E x|^2
    num = abs(x0 + shift) ** 2
    denom = (dl.imp.kappa_r_ut * (num + spread) + spread
             + dl.sigma2_ut / (ul.dim * ul.p_ut * dl.p_bs))
    if denom <= 0.0:
        return math.inf
    return math.log2(1.0 + num / denom)
