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
    _eigenbasis,
    lmmse_filter,
    mse_per_antenna,
    pilot_chain,
)
from .randmat import CovarianceMatrix, sample_scalar_cn, substream
from .specfun import one_minus_x_ex_e1

LOG2 = math.log(2.0)

# Below this transmit-distortion level the closed-form bound switches to
# its analytic zero-impairment limit to avoid 1/kappa blowup.
_KAPPA_T_BS_SWITCH = 1e-12

# Smallest normal double: a norm below it has lost bits to underflow.
_NORM_MIN = np.finfo(np.float64).tiny


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


def simulate_downlink(dl: DownlinkConfig, h: np.ndarray, w: np.ndarray,
                      s: complex, rng: np.random.Generator) -> complex:
    """One draw of the received downlink symbol for fixed (h, w, s)."""
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
    h^T (kt diag(|h_i|^2) + kr h* h^T + (sigma^2/p) I)^{-1} h*."""
    h = np.asarray(h, dtype=np.complex128)
    if np.linalg.norm(h) == 0.0:
        return 0.0
    n = h.shape[0]
    m = np.diag(dl.imp.kappa_t_bs * np.abs(h) ** 2
                + dl.sigma2_ut / dl.p_bs).astype(np.complex128)
    m += dl.imp.kappa_r_ut * np.outer(np.conj(h), h)
    x = np.linalg.solve(m, np.conj(h))
    return float((h @ x).real)


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
    if n < 1:
        raise ValueError("antenna count must be a positive integer")
    denom = kappa_t_bs + kappa_r_ut * n
    if denom == 0.0:
        return math.inf
    return math.log2(1.0 + n / denom)


def upper_limit_large_n(kappa_r_ut: float) -> float:
    """Large-array ceiling of the upper bound: log2(1 + 1/kappa_r_ut).

    Returns +inf at kappa_r_ut = 0 (unbounded, not an error).
    """
    if kappa_r_ut == 0.0:
        return math.inf
    return math.log2(1.0 + 1.0 / kappa_r_ut)


def lower_limit_scaled_power(kappa_t_ut: float, kappa_r_ut: float) -> float:
    """Large-array limit of the lower bound under admissible power scaling:
    log2(1 + 1/(kr + kt + kr kt)); +inf when both levels are zero."""
    denom = kappa_r_ut + kappa_t_ut + kappa_r_ut * kappa_t_ut
    if denom == 0.0:
        return math.inf
    return math.log2(1.0 + 1.0 / denom)


def _mrt_stats(h: np.ndarray, h_hat: np.ndarray) -> np.ndarray:
    """Rows (Re g, Im g, |g|^2, u) of the draws with h_hat != 0, for the
    beamformer v = conj(h_hat)/||h_hat||: g = h^T v and
    u = sum_i |h_i|^2 |v_i|^2."""
    norms = np.linalg.norm(h_hat, axis=1)
    ok = norms >= _NORM_MIN
    if not ok.all():
        # the plain norm underflows: rescale those rows by their largest
        # modulus, and drop the rows that are zero
        idx = np.flatnonzero(~ok)
        peak = np.max(np.abs(h_hat[idx]), axis=1)
        idx, peak = idx[peak > 0.0], peak[peak > 0.0]
        h_hat = h_hat.copy()
        h_hat[idx] /= peak[:, None]
        norms[idx] = np.linalg.norm(h_hat[idx], axis=1)
        ok[idx] = True
        h, h_hat, norms = h[ok], h_hat[ok], norms[ok]
    v = np.conj(h_hat)
    v /= norms[:, None]
    g = np.einsum("ij,ij->i", h, v)
    q = np.abs(g) ** 2
    u = np.einsum("ij,ij->i", np.abs(h) ** 2, np.abs(v) ** 2)
    return np.column_stack([g.real, g.imag, q, u])


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
    denom = (1.0 + kr) * q_m - sig + kt * u_m + dl.sigma2_ut / dl.p_bs
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


def lower_bound_mc_batch(links, n_samples: int,
                         seed: int) -> list[MonteCarloEstimate]:
    """``lower_bound_mc`` of each (ul, dl) pair in ``links`` over one shared
    pilot chain: the uplink configs share R and S (see ``pilot_chain``)."""
    if n_samples < 1000:
        raise ValueError("lower_bound_mc needs at least 1000 samples")
    links = list(links)
    chunks = [[] for _ in links]
    # u = sum_i |h_i|^2 |v_i|^2 needs antenna values
    for i, h, h_hat, _ in pilot_chain([ul for ul, _ in links], n_samples,
                                      seed, antenna=True):
        chunks[i].append(_mrt_stats(h, h_hat))
    return [_rate_estimate(np.vstack(c), dl, n_samples)
            for c, (_, dl) in zip(chunks, links)]


def lower_bound_mc(ul: UplinkConfig, dl: DownlinkConfig, n_samples: int,
                   seed: int) -> MonteCarloEstimate:
    """Monte-Carlo achievable-rate lower bound with approximate MRT.

    Each sample runs the pilot chain (channel draw, distorted uplink pilot,
    LMMSE estimate), then the beamformer v = conj(h_hat)/||h_hat||. The
    three expectations E{h^T v}, E{|h^T v|^2}, sum_i E{|h_i|^2 |v_i|^2} are
    estimated jointly from the common sample stream; the standard error of
    log2(1 + SINR) follows by the delta method. Draws whose estimate is
    exactly zero are dropped; more than 0.1 % of them raise RuntimeError.
    """
    return lower_bound_mc_batch([(ul, dl)], n_samples, seed)[0]


def lower_bound_asymptotic(ul: UplinkConfig, dl: DownlinkConfig,
                           n_scalar_samples: int = 100_000,
                           seed: int = 0) -> float:
    """Large-array closed form of the lower bound with the O(1/sqrt(N))
    remainders dropped.

    Only two scalar expectations over the terminal transmit distortion
    eta ~ CN(0, kappa_t_ut * p_ut) remain; they are evaluated by seeded
    1-D Monte-Carlo. Psi = p_ut kappa_r_bs diag(R) + S is the
    channel-averaged covariance of the additive uplink disturbance.
    The SINR denominator (1 + kappa_r_ut) E|x|^2 - |E x|^2 of the sampled
    x is formed as kappa_r_ut E|x|^2 + E|x - E x|^2, which cancels
    nothing: without impairments only the noise term sigma^2 / (N p_ut
    p_bs) is left, so the rate grows without bound in the powers but is
    finite at each. Returns +inf only if the denominator underflows to 0.
    """
    if n_scalar_samples < 2:
        raise ValueError("need at least 2 scalar samples")
    tr_rc = ul.r.trace() - ul.dim * mse_per_antenna(ul)
    basis = _eigenbasis(ul)
    if basis is None:
        a = lmmse_filter(ul)
        psi = (ul.p_ut * ul.imp.kappa_r_bs * np.diag(ul.r.diagonal())
               + ul.s.matrix)
        t_sig = float(np.real(np.trace(a @ ul.r.matrix @ a.conj().T)))
        t_psi = float(np.real(np.trace(a @ psi @ a.conj().T)))
    else:
        # A = V diag(d* g) V^H and Psi = beta I on R's eigenbasis; for
        # R = c I, lam and g are one value, repeated N times
        lam, _, g, beta = basis
        lam, g = np.broadcast_to(lam, ul.dim), np.broadcast_to(g, ul.dim)
        a2 = np.abs(np.conj(ul.d) * g) ** 2
        t_sig = float(np.sum(a2 * lam))
        t_psi = beta * float(np.sum(a2))

    rng = substream(seed, 0)
    eta = sample_scalar_cn(ul.imp.kappa_t_ut * ul.p_ut, rng, size=n_scalar_samples)
    scale = np.abs(ul.d + eta) ** 2 * t_sig + t_psi
    x = (1.0 + eta / ul.d) * math.sqrt(tr_rc) / np.sqrt(scale)
    mean = np.mean(x)
    num = abs(mean) ** 2
    denom = (dl.imp.kappa_r_ut * float(np.mean(np.abs(x) ** 2))
             + float(np.mean(np.abs(x - mean) ** 2))
             + dl.sigma2_ut / (ul.dim * ul.p_ut * dl.p_bs))
    if denom <= 0.0:
        return math.inf
    return math.log2(1.0 + num / denom)
