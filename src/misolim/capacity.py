"""Downlink capacity bounds under transceiver hardware impairments.

The downlink observation is y = h^T (w s + eta_t) + n + eta_r with
distortion variances proportional to the signal power. The closed-form
upper bound assumes perfect channel knowledge and optimal beamforming;
the Monte-Carlo lower bound uses the LMMSE channel estimate with
approximate maximum ratio transmission and only statistical channel
knowledge at the receiver. Wherever the antennas decouple it is computed
by quadrature over R's spectrum instead, with standard error 0
(``lower_bound_is_exact``, the one place that decides): S = s I, and
R = c I at any levels, or R = c K_rho with kappa_r_bs = kappa_t_bs = 0,
the ideal-hardware links of the energy-efficiency run. Every other link
is sampled. Both bounds converge to finite ceilings set by the
terminal-side impairment levels as the array grows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .estimation import (
    ImpairmentProfile,
    MonteCarloEstimate,
    UplinkConfig,
    _check_draws,
    _check_levels,
    _eigenbasis,
    _solve_m,
    _standard_error,
    pilot_chain,
)
from .randmat import CovarianceMatrix, _check_real, _dimension
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

# The rules of ``lower_bound_iid``: Gauss-Hermite nodes per axis of zeta
# (even, so that half of them have Im zeta > 0), Gauss-Laguerre nodes in
# |h_i|^2, and trapezoid nodes in log t, whose step spreads _LOG_T_NODES
# over _LOG_T_WINDOW about -log E||z||^2. Against 32, 64 and 500 nodes on
# (-40, 30) the rate agrees within 3e-10 bits for every kappa <= 0.0225 at
# 20 dB and N = 1 to 1024, and within 1e-3 bits at kappa = 1, where
# E[g | zeta] turns sharply near zeta = -1 (tests/test_capacity.py)
_IID_HERMITE_NODES = 8
_LAGUERRE_NODES = 24
_LOG_T_NODES = 160
_LOG_T_WINDOW = (-25.0, 16.0)
# Values per (zeta, t, coordinate, r) array of a lattice block of
# ``lower_bound_iid``: 2^13 float64, 64 KiB, half of glibc's default trim
# and mmap thresholds (128 KiB), so that a block's temporaries reuse the
# heap's freed memory instead of faulting in fresh pages.
_QUAD_BUDGET = 2 ** 13
# Lattice blocks of the Gauss-Laguerre rule (kappa_r_bs > 0, so R = c I)
# kept for every N of a run. At the default rules an entry is three
# read-only arrays of 32 zeta x 10 t values, 7.5 KiB, so the cache holds
# at most 2 MiB; a default capacity run fills about 60 entries.
_BLOCK_CACHE = 256


@functools.lru_cache(maxsize=None)
def _gauss_rule(family: str, n: int):
    """(nodes, weights) of the n-point Gauss rule for the weight e^(-x^2)
    on the real line (``"hermite"``) or e^(-x) on x > 0 (``"laguerre"``),
    the weights scaled to sum to 1, as read-only arrays built once per
    process on first use.

    By Golub and Welsch, the nodes are the eigenvalues of the three-term
    recurrence's Jacobi matrix (numpy's hermgauss and laggauss would load
    numpy.polynomial, 0.7 MB, into the process). The weights are the
    Christoffel numbers 1 / sum_k p_k(x)^2 of the orthonormal polynomials
    p_k, by the recurrence: accurate relative to their size down to the
    smallest, where the squared first entries of the eigenvectors are
    accurate only relative to 1 (at 32 Laguerre nodes the smallest weight
    came out 2.7e3 times too large). p_k(x)^2 grows as e^(x^2) or e^x, so
    n stays below about 300 Hermite or 180 Laguerre nodes.
    """
    k = np.arange(1, n)
    if family == "hermite":
        diag, off = np.zeros(n), np.sqrt(k / 2.0)
    elif family == "laguerre":
        diag, off = 2.0 * np.arange(n) + 1.0, k.astype(float)
    else:
        raise ValueError(f"unknown Gauss rule {family!r}")
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p_prev, p = np.zeros(n), np.ones(n)
    total = np.ones(n)
    for j in range(n - 1):
        # x p_j = off_j p_(j+1) + diag_j p_j + off_(j-1) p_(j-1)
        p_prev, p = p, ((x - diag[j]) * p
                        - (off[j - 1] * p_prev if j else 0.0)) / off[j]
        total += p * p
    w = 1.0 / total
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class DownlinkConfig:
    """Data-phase scenario: signal power and UT noise variance, both > 0, and
    the impairment profile (only the BS transmit / UT receive levels enter)."""

    p_bs: float
    sigma2_ut: float
    imp: ImpairmentProfile = field(default_factory=ImpairmentProfile)

    def __post_init__(self):
        _check_real(self.p_bs, "p_bs", positive=True)
        _check_real(self.sigma2_ut, "sigma2_ut", positive=True)


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
    collapses to the analytic limit p * tr(R) / sigma^2. R = c I and
    R = c K_rho (by their tags) have one term, counted N times.
    """
    scale = r.constant_diagonal
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
    """Rows (Re g, Im g, |g|^2, u), one per draw, for the beamformer v =
    conj(h_hat)/||h_hat||: g = h^T v = s / sqrt(n2) and u = sum_i |h_i|^2
    |v_i|^2 = t / n2, with no array for v, from the row sums s = sum_i h_i
    conj(h_hat_i), n2 = sum_i |h_hat_i|^2 and t = sum_i |h_i|^2
    |h_hat_i|^2, with h2 = |h|^2 (the ``stat`` of ``pilot_chain``). A
    draw whose h_hat is exactly 0 has no beamformer: RuntimeError."""
    s, n2, t = _row_sums(h, h_hat, h2)
    low = np.flatnonzero((n2 < _NORM_MIN) | (t < _NORM_MIN))
    if low.size:
        # a sum underflows: rescale those rows by their largest modulus,
        # part by part (a complex division's 1 / peak can overflow)
        peak = np.max(np.abs(h_hat[low]), axis=1, keepdims=True)
        if not peak.all():
            raise RuntimeError("a draw produced a zero channel estimate")
        unit = h_hat[low]
        unit.real /= peak
        unit.imag /= peak
        s[low], n2[low], t[low] = _row_sums(h[low], unit, h2[low])
    g = s / np.sqrt(n2)
    return np.column_stack([g.real, g.imag, np.abs(g) ** 2, t / n2])


def _rate_estimate(x: np.ndarray, dl: DownlinkConfig) -> MonteCarloEstimate:
    """log2(1 + SINR) of the approximate-MRT bound from the rows of
    ``_mrt_stats``, one per draw, with its delta-method standard error:
    the value is a function of the rows' means, so grad^T Cov grad / n,
    the delta method's variance, is the squared standard error of the
    rows' projections on the gradient (``_standard_error``)."""
    a_re, a_im, q_m, u_m = x.mean(axis=0)
    sig = a_re ** 2 + a_im ** 2
    kt, kr = dl.imp.kappa_t_bs, dl.imp.kappa_r_ut
    # (1 + kr) q_m - sig as kr q_m + mean |g - mean g|^2: no cancellation
    denom = (kr * q_m + np.mean((x[:, 0] - a_re) ** 2 + (x[:, 1] - a_im) ** 2)
             + kt * u_m + dl.sigma2_ut / dl.p_bs)
    sinr = sig / denom
    grad_sinr = np.array([
        2.0 * a_re * (denom + sig) / denom ** 2,
        2.0 * a_im * (denom + sig) / denom ** 2,
        -sig * (1.0 + kr) / denom ** 2,
        -sig * kt / denom ** 2,
    ])
    grad = grad_sinr / (LOG2 * (1.0 + sinr))
    se = _standard_error((x * grad).sum(axis=1))
    return MonteCarloEstimate(value=math.log2(1.0 + sinr), std_error=se,
                              n_samples=x.shape[0])


def lower_bound_mc_batch(links, n_samples: int, seed: int,
                         workers: int = 1) -> list[MonteCarloEstimate]:
    """``lower_bound_mc`` of each (ul, dl) pair in ``links`` over one shared
    pilot chain, on up to ``workers`` processes: the uplink configs share
    R and S (see ``pilot_chain``)."""
    _check_draws(n_samples, seed, 1000, workers)
    links = list(links)
    if any(ul.p_ut == 0.0 for ul, _ in links):
        raise ValueError("the lower bound needs pilot power p_ut > 0")
    rows = pilot_chain([ul for ul, _ in links], n_samples, seed, _mrt_stats,
                       workers)
    return [_rate_estimate(x, dl) for x, (_, dl) in zip(rows, links)]


def lower_bound_mc(ul: UplinkConfig, dl: DownlinkConfig, n_samples: int,
                   seed: int) -> MonteCarloEstimate:
    """Monte-Carlo achievable-rate lower bound with approximate MRT.

    Each sample runs the pilot chain (channel draw, distorted uplink pilot,
    LMMSE estimate), then the beamformer v = conj(h_hat)/||h_hat||. The
    three expectations E{h^T v}, E{|h^T v|^2}, sum_i E{|h_i|^2 |v_i|^2} are
    estimated jointly from the common sample stream; the standard error of
    log2(1 + SINR) follows by the delta method (``_rate_estimate``). Every
    draw counts: n_samples is the request, and a draw whose estimate is
    exactly zero (R = 0, or an R so small that h_hat underflows) raises
    RuntimeError in the chunk that takes it. A link without pilot power
    (p_ut = 0) raises ValueError before any draw.
    """
    return lower_bound_mc_batch([(ul, dl)], n_samples, seed)[0]


def _trapezoid(f: np.ndarray, h: float, lo: float, hi: float) -> np.ndarray:
    """Trapezoid sums over the last axis of f, sampled at step h in log t,
    continued past both ends as the geometric series of an integrand that
    goes as t^lo below the first node and as t^-hi above the last (both
    in the measure d log t): the rule's analytic tails."""
    def tail(rate):  # sum of e^(-rate h k) over k >= 1
        return math.exp(-rate * h) / -math.expm1(-rate * h)

    return h * (f.sum(axis=-1) + f[..., 0] * tail(lo)
                + f[..., -1] * tail(hi))


def _r_moments(d2: np.ndarray, tau: np.ndarray, q: np.ndarray, kr: float,
               laguerre: int):
    """(log phi, A / (conj(D) phi), C / phi) of ``lower_bound_iid`` as
    (zeta, t, coordinate) arrays, at nodes of |D|^2 in d2, a (zeta, 1, 1)
    array, with each coordinate's t in tau, a (t, coordinate) array, and
    its q in q. At kappa_r_bs = 0, v = q does not depend on r, and they
    are the closed forms phi = 1 / (1 + t (q + |D|^2)), A = conj(D) phi^2
    and C = (q + 2 |D|^2 phi) phi^2; otherwise the Gauss-Laguerre rule of
    ``laguerre`` nodes in r takes them."""
    if kr == 0.0:
        x = tau * (q + d2)
        phi = 1.0 / (1.0 + x)
        return -np.log1p(x), phi, phi * (q + 2.0 * d2 * phi)
    ts1 = 1.0 + tau * q
    a = tau * d2 / ts1  # the exponent's slope in r at 0
    b = (1.0 + a)[..., None]
    x, wx = _gauss_rule("laguerre", laguerre)
    r = x / b  # (zeta, t, coordinate, r)
    tkr = (tau * kr)[..., None] * r
    tv1 = ts1[..., None] + tkr  # 1 + tau v
    ar = a[..., None] * r
    # e^(-r) e against the rule's weight e^(-b r) is e^(a r tkr / (1 + tv))
    # / (1 + tv), formed without the cancelling exponent -r - a r + b r;
    # 1 / b is dr per unit of b r
    e = wx * np.exp(ar * tkr / tv1) / (b * tv1)
    phi = e.sum(axis=-1)
    # (N - 1) log phi from phi itself carries N times phi's roundoff, 3e-12
    # relative on the moments at N = 1024. Where phi > 1/2, and so a < 1,
    # log phi is log1p(-E_r[1 - e]) instead, by the same rule: E_r f is
    # the sum of wx e^(a r) f / b. 1 - e = (t q + tkr - expm1(-t |D|^2 r
    # / (1 + tv))) / (1 + tv) is a sum of terms >= 0
    one_minus_e = ((tau * q)[..., None] + tkr
                   - np.expm1(-ar * ts1[..., None] / tv1)) / tv1
    log_phi = np.log(phi)
    near = phi > 0.5
    log_phi[near] = np.log1p(-(wx * np.exp(ar) / b * one_minus_e)
                             .sum(axis=-1)[near])
    e *= r / tv1
    big_a = e.sum(axis=-1)
    e *= q[..., None] + kr * r + d2[..., None] * r / tv1
    return log_phi, big_a / phi, e.sum(axis=-1) / phi


def _rules():
    """The rules of ``lower_bound_iid`` as they stand, read at each call:
    the key of every lattice block together with the levels and q."""
    return (_IID_HERMITE_NODES, _LAGUERRE_NODES, _LOG_T_NODES, _LOG_T_WINDOW,
            _QUAD_BUDGET)


def _lattice(kt: float, kr: float, coordinates: int, rules):
    """(zeta, weights, |D|^2, h, size) of ``lower_bound_iid`` under
    ``rules``: the zeta nodes, and the log-t lattice log t = k h, walked in
    blocks j of the lattice points j size, ..., (j + 1) size - 1, whose
    (zeta, t, coordinate, r) arrays hold at most _QUAD_BUDGET values (one
    t when a single t takes more)."""
    hermite, laguerre, nodes, (lo, hi), budget = rules
    if kt == 0.0:
        zeta, wz = np.zeros(1), np.ones(1)
    else:
        z, w = _gauss_rule("hermite", hermite)
        up = z > 0.0
        zeta = (math.sqrt(kt) * (z[:, None] + 1j * z[up])).ravel()
        wz = np.outer(w, 2.0 * w[up]).ravel()
    d2 = (1.0 + zeta.real) ** 2 + zeta.imag ** 2  # |D|^2
    per_t = coordinates * d2.size * (laguerre if kr else 1)
    return zeta, wz, d2, (hi - lo) / (nodes - 1), max(1, budget // per_t)


def _block(d2, w2, q, kr, laguerre, h, first, stop):
    """``_r_moments`` at the lattice points first, ..., stop - 1, where
    coordinate k's t is w2_k e^(k h)."""
    tau = np.exp(np.arange(first, stop) * h)[:, None] * w2
    return _r_moments(d2[:, None, None], tau, q, kr, laguerre)


@functools.lru_cache(maxsize=_BLOCK_CACHE)
def _shared_block(kt: float, kr: float, q: float, j: int, rules):
    """Lattice block j of ``_block`` for one coordinate (R = c I) as
    read-only arrays: they depend on the levels, q and the rules, never on
    N, so one computation serves every N of a run. The rules are part of
    the key, so that finer ones never read a coarser block."""
    _, _, d2, h, size = _lattice(kt, kr, 1, rules)
    moments = _block(d2, np.ones(1), np.array([q]), kr, rules[1], h,
                     j * size, (j + 1) * size)
    for x in moments:
        x.flags.writeable = False
    return moments


def _iid_moments(ul: UplinkConfig):
    """(E g, E|g|^2, E u) of the beamformer of ``lower_bound_iid``, for a
    link on its domain, with u taken on R's eigen-coordinates: the bound's
    u for R = c I."""
    n, kt, kr = ul.dim, ul.imp.kappa_t_ut, ul.imp.kappa_r_bs
    lam, g, _ = _eigenbasis(ul)
    # one value counted m = N times (c I), or N values counted once (c K)
    lam, g = np.atleast_1d(lam), np.atleast_1d(g)
    m = n / lam.size
    # omega^2 = g^2 lam and a^2 = lam omega^2, relative to the largest
    # eigenvalue's (the last), which sets the scale: 1 for R = c I
    rel = lam / lam[-1]
    w2 = (g / g[-1]) ** 2 * rel
    a2 = w2 * rel
    q = ul.s.identity_scale / (ul.p_ut * lam)
    rules = _rules()
    zeta, wz, d2, h, size = _lattice(kt, kr, lam.size, rules)
    # t about 1 / E Q, in log t: Q weighs coordinate k's |z_k|^2, of mean
    # 1 + kt + kr + q_k, by w2_k, and q is taken at the largest
    # eigenvalue's, the smallest (for R = c I, 1 / (N (1 + kt + kr + q))).
    # The window, rounded outward to the lattice, has 160 or 161 nodes
    x0 = -math.log(m * np.sum(w2)) - math.log1p(kt + kr + q[-1])
    lo, hi = _LOG_T_WINDOW
    first, last = math.floor((x0 + lo) / h), math.ceil((x0 + hi) / h)
    sums = []
    for j in range(first // size, last // size + 1):
        start, stop = max(first, j * size), min(last + 1, (j + 1) * size)
        if kr and lam.size == 1:  # R = c I's Laguerre rule, kept
            cut = slice(start - j * size, stop - j * size)
            moments = [x[:, cut]
                       for x in _shared_block(kt, kr, float(q[0]), j, rules)]
        else:  # the cheap closed forms, for c I or c K_rho's N coordinates
            moments = _block(d2, w2, q, kr, _LAGUERRE_NODES, h, start, stop)
        sums.append(_coordinate_sums(*moments, m, np.sqrt(a2), a2))
    f_g, f_u, f_pair = np.concatenate(sums, axis=-1)
    t = np.exp(np.arange(first, last + 1) * h)
    # each integrand times t, for d log t: t^(1/2) and t at t -> 0, and
    # at t -> inf t^(-N-1/2), t^-N and t^(-N-1)
    eg = _trapezoid(np.sqrt(t) * f_g, h, 0.5, n + 0.5)
    eg *= (1.0 + zeta.real) / math.sqrt(math.pi)
    eu = _trapezoid(t * f_u, h, 1.0, n)
    eg2 = eu + d2 * _trapezoid(t * f_pair, h, 1.0, n + 1.0)
    ref = lam[-1]
    # numpy's sums, not a BLAS dot, so the bytes do not depend on its kernel
    return (math.sqrt(ref) * float(np.sum(wz * eg)),
            ref * float(np.sum(wz * eg2)), ref * float(np.sum(wz * eu)))


def _coordinate_sums(log_phi, big_g, big_c, m, a, a2) -> np.ndarray:
    """E[S e^(-tQ)] / conj(D), E[T e^(-tQ)] and the pairs' part of
    E[|S|^2 e^(-tQ)] / |D|^2 of ``lower_bound_iid`` from the (zeta, t,
    coordinate) moments of ``_r_moments``, with a and a^2 per coordinate,
    as a (3, zeta, t) array: with G_k = a_k A_k / (conj(D) phi_k), Phi m
    sum_k G_k, Phi m sum_k a_k^2 C_k / phi_k and Phi ((m sum_k G_k)^2 - m
    sum_k G_k^2), sums over the distinct values k, each counted m times.
    Each sum runs along a node's own contiguous row, so its bits do not
    depend on how many nodes share the block."""
    big_g = big_g * a
    s1 = m * big_g.sum(axis=-1)
    big_g *= big_g
    phi_all = np.exp(m * log_phi.sum(axis=-1))  # Phi
    return phi_all * np.stack([s1, m * (big_c * a2).sum(axis=-1),
                               s1 * s1 - m * big_g.sum(axis=-1)])


def lower_bound_is_exact(ul: UplinkConfig, dl: DownlinkConfig) -> bool:
    """Whether ``lower_bound_iid`` computes the link's lower bound, by the
    tags and the levels alone: S = s I, and R = c I at any levels, or
    R = c K_rho with kappa_r_bs = kappa_t_bs = 0. Elsewhere the bound is
    sampled (``lower_bound_mc_batch``): a kappa_r_bs > 0 couples the
    eigen-coordinates of a correlated R, and u is not a function of them."""
    if ul.s.identity_scale is None:
        return False
    if ul.r.identity_scale is not None:
        return True
    return (ul.r.kms_rho is not None and ul.imp.kappa_r_bs == 0.0
            and dl.imp.kappa_t_bs == 0.0)


def lower_bound_iid(ul: UplinkConfig, dl: DownlinkConfig) -> float:
    """The lower bound of ``lower_bound_mc`` wherever the antennas decouple
    (``lower_bound_is_exact``), computed, not sampled: two calls give the
    same float.

    Given zeta = eta / d ~ CN(0, kappa_t_ut), the terminal's transmit
    distortion, the coordinates of h and z on R's eigenbasis (the
    antennas, for R = c I) are independent, and h^T conj(h_hat) and
    ||h_hat|| do not change under that rotation. Coordinate k has h_k ~
    CN(0, lam_k), and given h_k, z_k is CN(D h_k, v) with D = d (1 +
    zeta), v = s + kappa_r_bs p_ut |h_k|^2; h_hat_k = d g_k z_k
    (``_eigenbasis``). In its own units, where h_k / sqrt(lam_k) has r =
    |.|^2 ~ Exp(1) and z_k / (d sqrt(lam_k)) has D = 1 + zeta and v = q_k
    + kappa_r_bs r, q_k = s / (p_ut lam_k), the estimate is omega_k times
    z_k, omega_k^2 = g_k^2 lam_k. With Q = ||h_hat||^2, S = sum_k h_k
    conj(h_hat_k) and T = sum_k |h_k|^2 |h_hat_k|^2 the beamformer gives
    g = (d / |d|) S / sqrt(Q), |g|^2 = |S|^2 / Q, and for R = c I, u = T /
    Q. By 1/sqrt(Q) = pi^(-1/2) int t^(-1/2) e^(-tQ) dt and 1/Q = int
    e^(-tQ) dt, and complex-Gaussian tilting (E z e^(-t|z|^2) = D h_k
    / (1 + tv) E e^(-t|z|^2)),

      E[S e^(-tQ)]     = Phi sum_k a_k conj(D) A_k / phi_k,
      E[|S|^2 e^(-tQ)] = Phi (sum_k a_k^2 C_k / phi_k
                              + |D|^2 sum_(k != l) a_k a_l A_k A_l
                                                   / (phi_k phi_l)),
      E[T e^(-tQ)]     = Phi sum_k a_k^2 C_k / phi_k,

    sums and products over the N coordinates, Phi = prod_k phi_k and a_k^2
    = lam_k omega_k^2, where, with e = exp(-t |D|^2 r / (1 + tv)) / (1 +
    tv), phi = E_r e, A = E_r[r e / (1 + tv)] and C = E_r[r e (v / (1 +
    tv) + |D|^2 r / (1 + tv)^2)], taken at t omega_k^2 and q_k. R = c I
    is one value counted N times, and c K_rho N values (its
    ``eigenvalues``, from the KMS equation) counted once, so its pairs are
    (sum G)^2 - sum G^2 for G_k = a_k A_k / phi_k; omega and a are
    relative to the largest eigenvalue's, which sets the scale.

    Three rules take the integrals:
    - r: closed forms at kappa_r_bs = 0; otherwise Gauss-Laguerre in b r,
      with b = 1 + t |D|^2 / (1 + tq) the decay rate of e^(-r) e at r = 0;
    - log t: the trapezoid rule on the one lattice log t = k h, h the
      step of _LOG_T_NODES nodes over _LOG_T_WINDOW, at the lattice
      points of that window about -log E||z||^2 rounded outward, with the
      power-law tails (``_trapezoid``). With the Laguerre rule (R = c I)
      each block of lattice points is computed once for every N
      (``_shared_block``);
    - zeta: the product Gauss-Hermite rule of _IID_HERMITE_NODES nodes
      per axis, on Im zeta > 0 only, as zeta and conj(zeta) give
      conjugate E[g | zeta] and equal E[|g|^2 | zeta] and E[u | zeta];
      one node, zeta = 0, when kappa_t_ut = 0.

    A link with p_ut = 0 or R = 0, or off that domain, raises
    ValueError, and so does a SINR that is not a number.
    """
    if not lower_bound_is_exact(ul, dl):
        raise ValueError("lower_bound_iid needs S = s I, and R = c I, or "
                         "R = c K_rho with kappa_r_bs = kappa_t_bs = 0")
    if ul.p_ut == 0.0:
        raise ValueError("the lower bound needs pilot power p_ut > 0")
    if ul.r.constant_diagonal == 0.0:
        raise ValueError("the lower bound needs a channel: R is 0")
    g, g2, u = _iid_moments(ul)
    sig = g * g
    denom = (dl.imp.kappa_r_ut * g2 + (g2 - sig) + dl.imp.kappa_t_bs * u
             + dl.sigma2_ut / dl.p_bs)
    if not (math.isfinite(sig) and denom > 0.0):
        raise ValueError(f"the lower bound's moments are out of range: "
                         f"|E g|^2 = {sig!r}, SINR denominator {denom!r}")
    return math.log2(1.0 + sig / denom)


def lower_bound_rates(links, n_samples: int, seed: int,
                      workers: int = 1) -> list[tuple[float, float]]:
    """(value, standard error) of the lower bound of each (ul, dl) pair in
    ``links``: ``lower_bound_iid``, with standard error 0, where
    ``lower_bound_is_exact``, and ``lower_bound_mc_batch`` of the others,
    on one pilot chain. A batch whose every link is exact draws nothing,
    and forks no process."""
    _check_draws(n_samples, seed, 1000, workers)
    links = list(links)
    if not links:
        raise ValueError("a lower-bound batch needs at least one config")
    rates = {i: (lower_bound_iid(ul, dl), 0.0)
             for i, (ul, dl) in enumerate(links)
             if lower_bound_is_exact(ul, dl)}
    sampled = [i for i in range(len(links)) if i not in rates]
    if sampled:
        ests = lower_bound_mc_batch([links[i] for i in sampled], n_samples,
                                    seed, workers)
        rates.update((i, (est.value, est.std_error))
                     for i, est in zip(sampled, ests))
    return [rates[i] for i in range(len(links))]


def lower_bound_asymptotic(ul: UplinkConfig, dl: DownlinkConfig) -> float:
    """Large-array closed form of the lower bound with the O(1/sqrt(N))
    remainders dropped. Nothing is drawn: two calls give the same float.

    With B = R M^{-1} (the LMMSE filter over d) and Psi = p_ut
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

    # zeta = sqrt(kappa)(z_i + j z_k), weighed by w_i w_k
    z, wz = _gauss_rule("hermite", _HERMITE_NODES)
    zeta = math.sqrt(ul.imp.kappa_t_ut) * (z[:, None] + 1j * z)
    w = np.outer(wz, wz)
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
