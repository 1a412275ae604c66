"""Distortion-aware LMMSE uplink channel estimation.

The uplink observation is z = h (d + eta_t) + nu + eta_r, where the
distortion terms eta_t (terminal transmit) and eta_r (array receive) have
signal-power-proportional variance set by the impairment levels. Because
the distortion depends on the unknown channel, the classical MMSE results
do not apply; the best *linear* estimator and its error covariance are
computed in closed form here, together with their high-power limits
(the error floors).
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .randmat import (
    CovarianceMatrix,
    _re_plus_j_im,
    nearly_psd,
    sample_cn,
    sample_scalar_cn,
    substream,
)

# EVM-squared levels above this are outside the usual transceiver range
# and trigger a non-fatal warning.
TYPICAL_KAPPA_MAX = 0.03


class SingularMatrixError(np.linalg.LinAlgError):
    """A matrix that must be invertible for this operation is singular."""


@dataclass(frozen=True)
class ImpairmentProfile:
    """The four distortion levels (dimensionless EVM-squared values)."""

    kappa_t_bs: float = 0.0
    kappa_r_bs: float = 0.0
    kappa_t_ut: float = 0.0
    kappa_r_ut: float = 0.0

    def __post_init__(self):
        for name in ("kappa_t_bs", "kappa_r_bs", "kappa_t_ut", "kappa_r_ut"):
            v = getattr(self, name)
            if not (v >= 0.0) or not math.isfinite(v):
                raise ValueError(f"{name} must be a nonnegative real, got {v}")
        worst = max(self.kappa_t_bs, self.kappa_r_bs, self.kappa_t_ut, self.kappa_r_ut)
        if worst > TYPICAL_KAPPA_MAX:
            warnings.warn(
                f"impairment level {worst:g} exceeds the typical range "
                f"[0, {TYPICAL_KAPPA_MAX}]",
                stacklevel=3,
            )

    @classmethod
    def uniform(cls, kappa: float) -> "ImpairmentProfile":
        return cls(kappa, kappa, kappa, kappa)


@dataclass(frozen=True)
class UplinkConfig:
    """Pilot-phase scenario: channel covariance R, noise covariance S,
    pilot power (linear scale), pilot symbol d with |d|^2 = p_ut."""

    r: CovarianceMatrix
    s: CovarianceMatrix
    p_ut: float
    imp: ImpairmentProfile = field(default_factory=ImpairmentProfile)
    d: complex | None = None

    def __post_init__(self):
        if not (self.p_ut >= 0.0) or not math.isfinite(self.p_ut):
            raise ValueError(f"pilot power must be a nonnegative real, got {self.p_ut}")
        if self.r.dim != self.s.dim:
            raise ValueError(
                f"covariance dimensions differ: R is {self.r.dim}, S is {self.s.dim}"
            )
        if self.s.min_eigenvalue <= 0.0:
            raise ValueError("noise covariance S must be positive definite")
        if self.d is None:
            object.__setattr__(self, "d", complex(math.sqrt(self.p_ut)))
        else:
            object.__setattr__(self, "d", complex(self.d))
            if abs(abs(self.d) ** 2 - self.p_ut) > 1e-12 * max(self.p_ut, 1e-300):
                raise ValueError(
                    f"|d|^2 = {abs(self.d)**2:g} does not match p_ut = {self.p_ut:g}"
                )

    @property
    def dim(self) -> int:
        return self.r.dim

    def snr(self) -> float:
        """Average uplink SNR, p_ut * tr(R) / tr(S)."""
        return self.p_ut * self.r.trace() / self.s.trace()


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte-Carlo value with its standard error and sample count."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("a Monte-Carlo estimate needs at least 2 samples")
        if self.std_error < 0.0:
            raise ValueError("standard error must be nonnegative")


def _cho_solve(m: np.ndarray, b: np.ndarray, singular: str) -> np.ndarray:
    """m^{-1} b by Cholesky; SingularMatrixError(singular) unless m > 0.

    m is factored as m = L L^H by ``np.linalg.cholesky``, whose LAPACK
    factorisation is the positive-definiteness test, and b is solved
    against L and then L^H. A non-finite m raises ValueError.
    """
    if not np.all(np.isfinite(m)):
        raise ValueError("array must not contain infs or NaNs")
    try:
        f = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(singular) from exc
    # solve's LU of a triangular factor leaves its triangular solves to
    # trsm, which multiplies by the reciprocals of the factor's diagonal,
    # as ``_eigenbasis`` does; an LU of m would not
    return np.linalg.solve(f.conj().T, np.linalg.solve(f, b))


def _eigenbasis(cfg: UplinkConfig):
    """(lam, g, beta) when R is c I or c K_rho and S is s I by their tags,
    else None. Then M = alpha R + beta I, with alpha = p (1 + kappa_t_ut)
    and beta = p kappa_r_bs c + s, has R's eigenvectors, and M^{-1} R has
    the gains g on them. lam is R's spectrum clipped at 0, as its factor
    is (the scalar c for R = c I).

    g = lam inv inv with inv = 1 / sqrt(alpha lam + beta): the Cholesky
    path's operations on a diagonal M, whose factor is sqrt(M) and whose
    triangular solves multiply by its reciprocal, so that for R = c I the
    filter has the dense path's bits on a BLAS that does so.
    """
    lam, s = cfg.r.identity_scale, cfg.s.identity_scale
    if s is None or (lam is None and cfg.r.kms_rho is None):
        return None
    if lam is None:
        lam = np.clip(cfg.r.eigenvalues, 0.0, None)
    alpha = cfg.p_ut * (1.0 + cfg.imp.kappa_t_ut)
    kr_r0 = cfg.p_ut * cfg.imp.kappa_r_bs * cfg.r.constant_diagonal
    # M's eigenvalues summed in the dense path's order: alpha R + S first
    inv = 1.0 / np.sqrt(alpha * lam + s + kr_r0)
    return lam, lam * inv * inv, kr_r0 + s


def _mix(r: CovarianceMatrix, a: float, b: float,
         s: CovarianceMatrix | None = None) -> np.ndarray:
    """a R + b diag(R) + S (S = 0 when None) as an N x N array."""
    m = a * r.matrix
    if s is not None:
        m += s.matrix
    m[np.diag_indices_from(m)] += b * r.diagonal()
    return m


def _solve_m(cfg: UplinkConfig, b: np.ndarray) -> np.ndarray:
    """M^{-1} b for M = p (1 + kappa_t_ut) R + p kappa_r_bs diag(R) + S."""
    m = _mix(cfg.r, cfg.p_ut * (1.0 + cfg.imp.kappa_t_ut),
             cfg.p_ut * cfg.imp.kappa_r_bs, cfg.s)
    # cannot fail: M is positive definite whenever S is
    return _cho_solve(m, b, "observation covariance is not positive definite")


def _q(cfg: UplinkConfig) -> np.ndarray:
    """Q = M - p R = p kappa_t_ut R + p kappa_r_bs diag(R) + S."""
    return _mix(cfg.r, cfg.p_ut * cfg.imp.kappa_t_ut,
                cfg.p_ut * cfg.imp.kappa_r_bs, cfg.s)


def lmmse_filter(cfg: UplinkConfig) -> np.ndarray | complex:
    """Filter A such that h_hat = A z is the LMMSE channel estimate.

    A = d* R (p (1 + kappa_t_ut) R + p kappa_r_bs diag(R) + S)^{-1}.
    When R and S are scaled identities, A = a I and the scalar a is
    returned instead of the N x N array.
    """
    if cfg.r.identity_scale is not None and cfg.s.identity_scale is not None:
        return np.conj(cfg.d) * _eigenbasis(cfg)[1]
    # R M^{-1} = (M^{-1} R)^H since both R and M are Hermitian.
    return np.conj(cfg.d) * _solve_m(cfg, cfg.r.matrix).conj().T


def estimate(cfg: UplinkConfig, z: np.ndarray) -> np.ndarray:
    """LMMSE channel estimate h_hat = A z for one uplink observation."""
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (cfg.dim,):
        raise ValueError(f"observation must have shape ({cfg.dim},), got {z.shape}")
    a = lmmse_filter(cfg)
    return a * z if np.ndim(a) == 0 else a @ z


def error_covariance(cfg: UplinkConfig) -> CovarianceMatrix:
    """Covariance C of the estimation error h - h_hat.

    C = R - p R M^{-1} R with M = p (1 + kappa_t_ut) R + p kappa_r_bs
    diag(R) + S, which degrades continuously to C = R at zero pilot power.
    It is evaluated as R M^{-1} Q = (M^{-1} R)^H Q with Q = p kappa_t_ut R
    + p kappa_r_bs diag(R) + S, which cancels nothing, and symmetrised.
    """
    if cfg.p_ut == 0.0:
        return cfg.r
    if cfg.r.identity_scale is not None and cfg.s.identity_scale is not None:
        return CovarianceMatrix.identity(cfg.dim).scaled(mse_per_antenna(cfg))
    return nearly_psd(_solve_m(cfg, cfg.r.matrix).conj().T @ _q(cfg),
                      scale=cfg.r.norm_bound)


def mse_per_antenna(cfg: UplinkConfig) -> float:
    """tr(C) / N: mean-square estimation error per channel element; on
    ``_eigenbasis``, the mean of C's spectrum lam - p g lam in the form g
    (p kappa_t_ut lam + beta), which cancels nothing."""
    basis = _eigenbasis(cfg)
    if basis is None:
        return error_covariance(cfg).trace() / cfg.dim
    lam, g, beta = basis
    return float(np.mean(g * (cfg.p_ut * cfg.imp.kappa_t_ut * lam + beta)))


_SINGULAR_FLOOR = ("high-power bracket is singular "
                   "(rank-deficient R with kappa_r_bs = 0)")


def error_floor(cfg: UplinkConfig) -> CovarianceMatrix:
    """High-pilot-power limit of the error covariance.

    C_inf = R - R B^{-1} R with B = (1 + kappa_t_ut) R + kappa_r_bs diag(R),
    evaluated as (B^{-1} R)^H (kappa_t_ut R + kappa_r_bs diag(R)), which
    cancels nothing, and symmetrised.
    """
    if cfg.r.identity_scale is not None and cfg.s.identity_scale is not None:
        return CovarianceMatrix.identity(cfg.dim).scaled(floor_per_antenna(cfg))
    kt, kr = cfg.imp.kappa_t_ut, cfg.imp.kappa_r_bs
    x = _cho_solve(_mix(cfg.r, 1.0 + kt, kr), cfg.r.matrix, _SINGULAR_FLOOR)
    return nearly_psd(x.conj().T @ _mix(cfg.r, kt, kr),
                      scale=cfg.r.norm_bound)


def floor_per_antenna(cfg: UplinkConfig) -> float:
    """tr(C_inf) / N: the error floor per channel element; on
    ``_eigenbasis``, the mean of C_inf's spectrum lam (kt lam + kr c) /
    ((1 + kt) lam + kr c), singular where that denominator is 0."""
    basis = _eigenbasis(cfg)
    if basis is None:
        return error_floor(cfg).trace() / cfg.dim
    lam, kt = basis[0], cfg.imp.kappa_t_ut
    kr_r0 = cfg.imp.kappa_r_bs * cfg.r.constant_diagonal
    den = (1.0 + kt) * lam + kr_r0
    if np.any(den <= 0.0):
        raise SingularMatrixError(_SINGULAR_FLOOR)
    return float(np.mean(lam * (kt * lam + kr_r0) / den))


def _check_levels(*kappas: float) -> None:
    """ValueError unless every impairment level is a nonnegative real."""
    if not all(k >= 0.0 and math.isfinite(k) for k in kappas):
        raise ValueError("impairment levels must be nonnegative reals")


def error_floor_iid(lam: float, kappa_t_ut: float, kappa_r_bs: float) -> float:
    """Per-antenna error floor for R = lam * I: lam (1 - 1/(1 + kt + kr))."""
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"channel variance must be positive, got {lam}")
    _check_levels(kappa_t_ut, kappa_r_bs)
    # kt + kr first: exactly symmetric in the two levels, unlike 1 + kt + kr
    return lam * (1.0 - 1.0 / (1.0 + (kappa_t_ut + kappa_r_bs)))


def _standard_draws(s: CovarianceMatrix, h: np.ndarray,
                    rng: np.random.Generator):
    """What the uplink distortion and noise of a (count, N) batch of channels
    are made of, drawn in this order: w_t ~ CN(0, 1) per row, nu ~ CN(0, S),
    and |h| w_r with w_r ~ CN(0, 1) per entry. ``simulate_uplink`` and the
    MSE chain draw these for any S, the lower bound's chain only for an S
    that is not diagonal (see ``_diagonal_draws``)."""
    count, n = h.shape
    w_t = sample_scalar_cn(1.0, rng, size=count)
    nu = sample_cn(s, rng, size=count)
    hw_r = sample_scalar_cn(1.0, rng, size=(count, n))
    hw_r *= np.abs(h)
    return w_t, nu, hw_r


def _observe(cfg: UplinkConfig, h: np.ndarray, w_t: np.ndarray,
             nu: np.ndarray, hw_r: np.ndarray) -> np.ndarray:
    """z = h (d + eta_t) + nu + eta_r with eta_t = sqrt(kappa_t_ut p) w_t
    and eta_r = sqrt(kappa_r_bs p) |h| w_r, from ``_standard_draws``."""
    z = h * (cfg.d + math.sqrt(cfg.imp.kappa_t_ut * cfg.p_ut) * w_t)[:, None]
    z += nu
    z += math.sqrt(cfg.imp.kappa_r_bs * cfg.p_ut) * hw_r
    return z


def _squared_moduli(h: np.ndarray) -> np.ndarray:
    """|h_i|^2 of each entry, without the square root of np.abs."""
    return h.real ** 2 + h.imag ** 2


def _diagonal_draws(r: CovarianceMatrix, s: CovarianceMatrix, count: int,
                    rng: np.random.Generator):
    """(h, w_t, |h|^2, u) for a diagonal S, drawn in this order: h ~ CN(0,
    R) of count rows, w_t ~ CN(0, 1) per row and u ~ CN(0, 1) per entry,
    in h's memory layout. Given h, nu + eta_r is CN(0, S + kappa_r_bs p
    diag(|h_i|^2)), independent across antennas when S is diagonal, so
    ``_observe_diagonal`` forms it from u alone: one draw per antenna in
    place of the two of ``_standard_draws``. S itself is read per config;
    it is a parameter for the draw signature that ``pilot_chain`` shares
    with ``_draw_chunk``."""
    h = sample_cn(r, rng, size=count)
    w_t = sample_scalar_cn(1.0, rng, size=count)
    # u takes h's layout, whose antenna axis leads in memory for the AR(1)
    # h of c K_rho, so that each config's z takes it too, as the
    # tridiagonal solve wants. Drawn straight into it: the same bits as
    # a C-order draw copied by np.asfortranarray, and in 8 alternating
    # ee-scaling-mt pairs (seeds 771-778, 6 s each, 2 vCPUs) sweep_s
    # medians of 0.145 s against the copy's 0.143 s (the copy faster in
    # 5 of 8) with peak RSS 45.5 MB against 46.1 MB
    u = _re_plus_j_im(rng, h.shape, np.empty_like(h), np.sqrt(0.5))
    return h, w_t, _squared_moduli(h), u


def _observe_diagonal(cfg: UplinkConfig, h: np.ndarray, w_t: np.ndarray,
                      h2: np.ndarray, u: np.ndarray) -> np.ndarray:
    """z = h (d + eta_t) + sqrt(s_i + kappa_r_bs p |h_i|^2) u, from
    ``_diagonal_draws``, with s_i the diagonal of S."""
    # a scalar when the diagonal is constant: an N-vector per config and
    # tile moved ee-scaling-mt's peak RSS from 45.7 to 46.2 MB
    s = cfg.s.constant_diagonal
    if s is None:
        s = cfg.s.diagonal()
    kr_p = cfg.imp.kappa_r_bs * cfg.p_ut
    z = u * np.sqrt(s if kr_p == 0.0 else kr_p * h2 + s)
    z += h * (cfg.d + math.sqrt(cfg.imp.kappa_t_ut * cfg.p_ut) * w_t)[:, None]
    return z


def _simulate_uplink_batch(cfg: UplinkConfig, h: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Vectorized uplink draws for a (count, N) batch of channels."""
    return _observe(cfg, h, *_standard_draws(cfg.s, h, rng))


def simulate_uplink(cfg: UplinkConfig, h: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """One draw of the uplink observation z for a fixed channel h.

    z = h (d + eta_t) + nu + eta_r, with eta_t ~ CN(0, kappa_t_ut * p),
    nu ~ CN(0, S), and eta_r ~ CN(0, kappa_r_bs * p * diag(|h_i|^2)),
    all independent given h.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (cfg.dim,):
        raise ValueError(f"channel must have shape ({cfg.dim},), got {h.shape}")
    z = _simulate_uplink_batch(cfg, h[None, :], rng)
    return z[0]


def _tridiagonal_filter(cfg: UplinkConfig):
    """The LMMSE filter for R = c K_rho and S = s I, as (l, inv_m, kappa):
    h_hat = d* R M^{-1} z = kappa B^{-1} z with kappa = d* c and
    B = c alpha I + beta K^{-1}, for M = alpha R + beta I as in
    ``_eigenbasis``. K^{-1} is tridiagonal: (1 + rho^2 inside, 1 at both
    ends, -rho off the diagonal) / (1 - rho^2), and [1] for N = 1. B = L
    diag(m) L^T with unit lower bidiagonal L, whose subdiagonal is l[1:].
    """
    n, rho, c = cfg.dim, cfg.r.kms_rho, cfg.r.constant_diagonal
    alpha = cfg.p_ut * (1.0 + cfg.imp.kappa_t_ut)
    beta = cfg.p_ut * cfg.imp.kappa_r_bs * c + cfg.s.identity_scale
    g = beta / ((1.0 - rho) * (1.0 + rho))
    ca, off = c * alpha, -g * rho
    if n == 1:
        diag = [ca + beta]
    else:
        diag = [ca + g] + [ca + g * (1.0 + rho * rho)] * (n - 2) + [ca + g]
    l, m = [0.0], [diag[0]]
    for b in diag[1:]:
        l.append(off / m[-1])
        m.append(b - l[-1] * off)
    return l, [1.0 / mi for mi in m], np.conj(cfg.d) * c


def _tridiagonal_solve(z: np.ndarray, f) -> np.ndarray:
    """kappa B^{-1} z for each row of a (rows, N) z, with f = (l, inv_m,
    kappa) from ``_tridiagonal_filter``: the Thomas algorithm, on a copy
    of z whose antenna axis leads in memory (z itself when its transpose
    is C-contiguous), so that each step reads whole contiguous rows. B is
    real: the steps run on the real and imaginary parts alike."""
    l, inv_m, kappa = f
    u = np.ascontiguousarray(z.T)
    x = list(u.view(np.float64))
    for i in range(1, len(x)):
        x[i] -= l[i] * x[i - 1]
    x[-1] *= inv_m[-1]
    for i in range(len(x) - 2, -1, -1):
        x[i] *= inv_m[i]
        x[i] -= l[i + 1] * x[i + 1]
    u *= kappa
    return u.T


def _chain_filters(cfgs):
    """(apply, filters, rows) of ``pilot_chain``: h_hat = apply(z,
    filters[i]) for config i, on antenna values, ``rows`` rows at a time."""
    cfg = cfgs[0]
    if cfg.r.kms_rho is not None and cfg.s.identity_scale is not None:
        return _tridiagonal_solve, list(map(_tridiagonal_filter, cfgs)), _CHUNK
    filters = [lmmse_filter(c).T for c in cfgs]
    apply = np.multiply if np.ndim(filters[0]) == 0 else np.matmul
    return apply, filters, max(1, _TILE // cfg.dim)


_CHUNK = 256
_TILE = 2 ** 14  # complex values in a row tile: 256 KB an array


def _shared(cfgs) -> list:
    """cfgs as a list, checked to be non-empty and to share R and S."""
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("a pilot chain needs at least one config")
    r, s = cfgs[0].r, cfgs[0].s
    if any(cfg.r is not r or cfg.s is not s for cfg in cfgs):
        raise ValueError("the configs of one pilot chain must share R and S")
    return cfgs


def _draw_chunk(r: CovarianceMatrix, s: CovarianceMatrix, count: int,
                rng: np.random.Generator):
    """h ~ CN(0, R) of count rows, then its ``_standard_draws``."""
    h = sample_cn(r, rng, size=count)
    return (h, *_standard_draws(s, h, rng))


def _process_count(workers: int, n_chunks: int, blas: bool = False) -> int:
    """How many processes ``_map_chunks`` runs n_chunks chunks on: at most
    ``workers``, one per chunk and one per usable core, and 1 where the
    platform has no ``os.fork``. Each process runs its own BLAS thread
    pool, so for chunks that call the BLAS (``blas``) the processes times
    ``_blas_threads`` stay within the cores."""
    if workers <= 1 or not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    if blas:
        cores //= _blas_threads(cores)
    return max(1, min(workers, n_chunks, cores))


def _blas_threads(cores: int) -> int:
    """The BLAS's threads per process: the first positive integer among
    the variables OpenBLAS reads at load, else one per core, its default.
    Pools that together outnumber the cores slow every process down: on 2
    cores the default estimation-error run's MSE chain took longer on two
    processes than on one at 2 OpenBLAS threads each, and about half as
    long at 1."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                 "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cores


def _map_chunks(rows, n_samples: int, seed: int, workers: int = 1,
                blas: bool = False) -> list:
    """The chunk driver of both Monte-Carlo chains: one map over the chunk
    indices j, each chunk of up to _CHUNK rows, n_samples rows in all.
    ``rows(count, rng)``, with rng = ``substream(seed, j)``, returns one
    array per config, and each config's arrays are joined in j order.
    A chunk's draws live only within its call.

    With ``workers`` > 1 the chunks are shared among ``_process_count``
    processes forked from this one (``_fork_map``), fewer when ``rows``
    calls the BLAS (``blas``); chunk j draws from substream(seed, j) in
    any process, so the bytes are the serial map's."""
    n_chunks = -(-n_samples // _CHUNK)

    def chunk(j):
        return rows(min(_CHUNK, n_samples - j * _CHUNK), substream(seed, j))

    k = _process_count(workers, n_chunks, blas)
    if k == 1:
        done = map(chunk, range(n_chunks))
    else:
        done = _fork_map(chunk, n_chunks, k)
    return [np.concatenate(c) for c in zip(*done)]


# The warning Python 3.12 gives when a process with more than one OS thread
# forks (see ``_fork_map``).
_THREADED_FORK = r"This process \(pid=\d+\) is multi-threaded"


def _fork_map(chunk, n_chunks: int, k: int) -> list:
    """[chunk(j) for j in range(n_chunks)] on k processes: this one and k - 1
    children forked from it, chunk j on process j mod k. Each child sends
    its results back pickled through a pipe; an exception raised in a
    child is raised here. Every child is reaped before this returns or
    raises, and killed first unless it has sent its results."""
    # what is buffered would otherwise be written again by a child
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for i in range(1, k):
            r, w = os.pipe()
            children.append([None, r])
            pid = None
            try:
                with warnings.catch_warnings():
                    # OpenBLAS's thread pool makes this process
                    # multi-threaded; its pthread_atfork handler stops the
                    # pool for the fork, so the child inherits no lock that
                    # one of its threads holds
                    warnings.filterwarnings("ignore", _THREADED_FORK,
                                            DeprecationWarning)
                    pid = os.fork()
            finally:
                if pid != 0:
                    os.close(w)
            if pid == 0:
                os.close(r)
                _child(chunk, range(i, n_chunks, k), w)
            children[-1][0] = pid
        shares = [[chunk(j) for j in range(0, n_chunks, k)]]
        for child in children:
            shares.append(_receive(child))
    finally:
        for pid, r in children:
            if r is not None:
                os.close(r)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [shares[j % k][j // k] for j in range(n_chunks)]


def _child(chunk, js, w: int) -> None:
    """A child of ``_fork_map``: writes (True, [chunk(j) for j in js]), or
    (False, the exception raised, or a RuntimeError naming it when it does
    not survive pickling), pickled to the pipe end w, and exits without
    returning or running the parent's exit handlers."""
    status = 1
    try:
        try:
            reply = (True, [chunk(j) for j in js])
        except BaseException as exc:
            # KeyboardInterrupt included: the parent raises it again
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                name = type(exc).__name__
                exc = RuntimeError(f"a worker process raised {name}: {exc}")
            reply = (False, exc)
        with open(w, "wb") as fh:
            pickle.dump(reply, fh, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _receive(child: list) -> list:
    """The results of a ``_fork_map`` child [pid, read end], which is
    reaped and its entries set to None; raises what the child raised."""
    pid, r = child
    with open(r, "rb") as fh:
        child[1] = None
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    child[0] = None
    try:
        ok, value = pickle.loads(data)
    except (pickle.UnpicklingError, EOFError):
        raise RuntimeError(f"worker process {pid} sent no result "
                           f"(wait status {status})") from None
    if not ok:
        raise value
    return value


def pilot_chain(cfgs, n_samples: int, seed: int, stat,
                workers: int = 1) -> list:
    """Channel draw, distorted uplink pilot and LMMSE estimate for configs
    that share R and S (the same objects), reduced by ``stat``: returns one
    array per config, ``stat(h, h_hat, h2)`` of each of its row tiles
    stacked in order, where h2 = |h|^2 and the tiles hold n_samples rows of
    antenna values in all. Each config's h_hat is a fresh array. The
    chunks run on up to ``workers`` processes (``_map_chunks``).

    Chunk j draws h, w_t and the noise and array distortion once from
    ``substream(seed, j)`` (``_map_chunks``), and forms h2 once; every
    config scales those same draws by its own p and kappa and applies its
    own filter, tile by tile. So config i gives the same bits in any batch
    and with any tile size. For a diagonal S
    (``CovarianceMatrix.is_diagonal``) the noise and array distortion are
    one draw u per antenna (``_diagonal_draws``), else nu and |h| w_r
    (``_standard_draws``), as in ``empirical_mse_batch``; the two chains
    share h and w_t only.

    Each config's filter is formed once, before the first chunk:
    - R = c K_rho (``exponential_correlation``) and S = s I: a tridiagonal
      solve (``_tridiagonal_filter``), with no eigendecomposition and no
      N x N array, on whole chunks;
    - otherwise ``lmmse_filter(cfg).T``: the scalar d* g for R = c I and
      S = s I, else an N x N array, on tiles of _TILE values.
    """
    cfgs = _shared(cfgs)
    if n_samples < 1:
        raise ValueError("a pilot chain needs at least one sample")
    apply, filters, step = _chain_filters(cfgs)
    r, s = cfgs[0].r, cfgs[0].s
    if s.is_diagonal:
        draw, observe = _diagonal_draws, _observe_diagonal
    else:
        draw, observe = _draw_chunk, _observe

    def rows(count, rng):
        chunk = draw(r, s, count, rng)
        h2 = chunk[2] if s.is_diagonal else _squared_moduli(chunk[0])
        out = [[] for _ in cfgs]
        for a in range(0, count, step):
            tile = [x[a:a + step] for x in chunk]
            for o, cfg, f in zip(out, cfgs, filters):
                o.append(stat(tile[0], apply(observe(cfg, *tile), f),
                              h2[a:a + step]))
        return [np.concatenate(o) for o in out]

    return _map_chunks(rows, n_samples, seed, workers, apply is np.matmul)


def _error_weights(cfg: UplinkConfig, basis) -> np.ndarray:
    """The weights (p g^2, q g, q^2) of ``_eigenbasis``'s gains g and of
    q = (p kappa_t_ut lam + beta) / (alpha lam + beta), the gains of Q
    M^{-1}, as a (3, N) array."""
    lam, g, beta = basis
    p, kt = cfg.p_ut, cfg.imp.kappa_t_ut
    q = (p * kt * lam + beta) / (p * (1.0 + kt) * lam + beta)
    w = np.empty((3, cfg.dim))
    w[0], w[1], w[2] = p * g * g, q * g, q * q
    return w


def _weigh(a: np.ndarray, b: np.ndarray, w: np.ndarray, need: np.ndarray,
           p: np.ndarray, t: np.ndarray, imag: bool = False) -> np.ndarray:
    """<P, w_c> for each config c: P is the real part of a conj(b) (its
    imaginary part when ``imag``), formed in the buffer p with t as
    scratch, and w_c is a (k, N) stack of that config's weights. Returns
    a (configs, k, rows) array, from one fixed-shape product per config
    and weight, so that a config's bits do not depend on the batch; the
    products that the (configs, k) mask ``need`` leaves out stay 0."""
    if imag:
        np.multiply(a.imag, b.real, out=p)
        np.multiply(a.real, b.imag, out=t)
        p -= t
    else:
        np.multiply(a.real, b.real, out=p)
        np.multiply(a.imag, b.imag, out=t)
        p += t
    out = np.zeros((w.shape[0], w.shape[1], p.shape[0]))
    for wc, nc, oc in zip(w, need, out):
        for wj, nj, oj in zip(wc, nc, oc):
            if nj:
                np.dot(p, wj, out=oj)
    return out


def _diagonal_norms(cfgs):
    """The chunk function (see ``_map_chunks``) of configs on R's
    eigenbasis (``_eigenbasis``): a chunk's ||e||^2 per config and row, as
    a (configs, rows) array.

    There A = V diag(d* g) V^H and Q M^{-1} = V diag(q) V^H. With x = |h|
    w_r, eta_t = sqrt(kappa_t_ut p) w_t, c = sqrt(kappa_r_bs p), the
    draws h, nu and x rotated by conj(V), and <P, w> = sum_k w_k P_k over
    a row,

      ||e||^2 = |eta_t|^2 <|h|^2, p g^2> - 2 Re(d* eta_t) <|h|^2, q g>
              + <|h|^2, q^2> + <|nu|^2, p g^2> + c^2 <|x|^2, p g^2>
              + 2 c <Re(nu x*), p g^2>
              + 2 Re(eta_t (<h nu*, p g^2> + c <h x*, p g^2>))
              - 2 Re(d (<h nu*, q g> + c <h x*, q g>)).

    The products P are formed once per chunk, one at a time in one
    buffer, and summed with the weights of ``_error_weights``, which are
    formed once per chain; those that an exact zero multiplies are skipped.
    """
    r, s = cfgs[0].r, cfgs[0].s
    vc = None if r.identity_scale is not None else r.eigenvectors.conj()
    w = np.array([_error_weights(c, _eigenbasis(c)) for c in cfgs])
    g2, g1 = w[:, :1], w[:, :2]  # p g^2 alone, and with q g
    d = np.array([[c.d] for c in cfgs])
    eta = np.array([[math.sqrt(c.imp.kappa_t_ut * c.p_ut)] for c in cfgs])
    c_r = np.array([math.sqrt(c.imp.kappa_r_bs * c.p_ut) for c in cfgs])
    # the sums each config needs, as a (configs, k) mask per weight stack
    e, c, on = eta[:, 0] != 0.0, c_r != 0.0, np.ones(len(cfgs), bool)
    hh_on, nn_on, hy_on, xx_on, hx_on = (np.stack(m, axis=1) for m in (
        (e, e, on), (on,), (e, on), (c,), (e & c, c)))
    c_r = c_r[:, None, None]

    def rows(count, rng):
        h, w_t, nu, x = _draw_chunk(r, s, count, rng)
        p, t = np.empty((2, count, r.dim))
        # one rotation at a time, each original let go once rotated
        if vc is not None:
            h = h @ vc
        hh = _weigh(h, h, w, hh_on, p, t)
        if vc is not None:
            nu = nu @ vc
        nn = _weigh(nu, nu, g2, nn_on, p, t)
        hy = (_weigh(h, nu, g1, hy_on, p, t)
              + 1j * _weigh(h, nu, g1, hy_on, p, t, imag=True))
        if vc is not None:
            x = x @ vc
        # with u = nu + c x: hy = <h u*> and xx = <|u|^2> - <|nu|^2>
        xx = c_r ** 2 * _weigh(x, x, g2, xx_on, p, t)
        xx += 2.0 * c_r * _weigh(nu, x, g2, xx_on, p, t)
        hy += c_r * (_weigh(h, x, g1, hx_on, p, t)
                     + 1j * _weigh(h, x, g1, hx_on, p, t, imag=True))
        e_t = eta * w_t
        return ((e_t.real ** 2 + e_t.imag ** 2) * hh[:, 0]
                - 2.0 * (d.conj() * e_t).real * hh[:, 1] + hh[:, 2]
                + nn[:, 0] + xx[:, 0]
                + 2.0 * (e_t * hy[:, 0]).real - 2.0 * (d * hy[:, 1]).real)

    return rows


def _error_filters(cfg: UplinkConfig):
    """(A^T, (Q M^{-1})^T) for the dense path, from one Cholesky solve:
    with X = M^{-1} [R, Q], A^T = d* conj(X_R) and (Q M^{-1})^T =
    conj(X_Q), as Q and M are Hermitian."""
    x = _solve_m(cfg, np.hstack([cfg.r.matrix, _q(cfg)])).conj()
    return np.conj(cfg.d) * x[:, :cfg.dim], x[:, cfg.dim:]


def _dense_norms(cfgs):
    """The chunk function (see ``_map_chunks``) off R's eigenbasis: a
    chunk's ||e||^2 per config and row, as a list over configs, with e =
    y A^T - h (Q M^{-1})^T formed per config from its two N x N filters,
    which are formed once."""
    filters = [_error_filters(c) for c in cfgs]
    r, s = cfgs[0].r, cfgs[0].s

    def rows(count, rng):
        h, w_t, nu, x = _draw_chunk(r, s, count, rng)
        return [_dense_norm(cfg, f, h, w_t, nu, x)
                for cfg, f in zip(cfgs, filters)]

    return rows


def _dense_norm(cfg: UplinkConfig, f, h: np.ndarray, w_t: np.ndarray,
                nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """||e||^2 per row of one chunk, with f = ``_error_filters(cfg)``."""
    y = h * (math.sqrt(cfg.imp.kappa_t_ut * cfg.p_ut) * w_t)[:, None]
    y += nu
    y += math.sqrt(cfg.imp.kappa_r_bs * cfg.p_ut) * x
    e = y @ f[0]
    e -= h @ f[1]
    return np.sum(np.abs(e) ** 2, axis=1)


def empirical_mse_batch(cfgs, n_samples: int, seed: int,
                        workers: int = 1) -> list[MonteCarloEstimate]:
    """Monte-Carlo per-antenna MSE of each config over the draws of one
    shared pilot chain (see ``pilot_chain``).

    No estimate is formed: the error e = h_hat - h is taken in the closed
    form e = A y - Q M^{-1} h, where z = d h + y, y = eta_t h + nu +
    eta_r, A is the LMMSE filter and Q = M - p R = p kappa_t_ut R + p
    kappa_r_bs diag(R) + S. Nothing in it cancels at high SNR, where h_hat
    - h would: ||e||^2 comes from weighted row sums on R's eigenbasis
    (``_diagonal_norms``), and otherwise from the two N x N filters
    (``_dense_norms``). The chunks run on up to ``workers`` processes
    (``_map_chunks``).
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    cfgs = _shared(cfgs)
    norms = _dense_norms if _eigenbasis(cfgs[0]) is None else _diagonal_norms
    out = []
    for e in _map_chunks(norms(cfgs), n_samples, seed, workers, blas=True):
        e /= cfgs[0].dim
        out.append(MonteCarloEstimate(
            value=float(np.mean(e)),
            std_error=float(np.std(e, ddof=1) / math.sqrt(len(e))),
            n_samples=len(e)))
    return out


def empirical_mse(cfg: UplinkConfig, n_samples: int,
                  seed: int) -> MonteCarloEstimate:
    """Monte-Carlo per-antenna MSE over the pilot chain."""
    return empirical_mse_batch([cfg], n_samples, seed)[0]
