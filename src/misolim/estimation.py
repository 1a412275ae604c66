"""Distortion-aware LMMSE uplink channel estimation.

The uplink observation is z = h (d + eta_t) + nu + eta_r, where the
distortion terms eta_t (terminal transmit) and eta_r (array receive) have
signal-power-proportional variance set by the impairment levels. Because
the distortion depends on the unknown channel, the classical MMSE results
do not apply; the best *linear* estimator and its error covariance are
computed in closed form here, together with their high-power limits
(the error floors).

The Monte-Carlo bookkeeping of both estimators, this module's MSE and
the capacity lower bound, lives here too: one check of the sample count,
worker count and seed (``_check_draws``), one chunk map
(``_map_chunks``), one standard-error rule (``_standard_error``), and the
draws of h and w_t that begin every chunk (``_channel_draws``). The lower
bound's chain then draws one u per antenna for the noise and array
distortion, whatever S, and nu ~ CN(0, S) only for an S without the s I
tag (``_uplink_draws``), and forms z in one place (``_observe``). The MSE
chain draws nothing else: given h and w_t, it integrates the noise and
array distortion out in closed form (``empirical_mse_batch``).
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
    _check_real,
    _check_seed,
    _is_int,
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
    """The four distortion levels (EVM-squared values), finite reals >= 0."""

    kappa_t_bs: float = 0.0
    kappa_r_bs: float = 0.0
    kappa_t_ut: float = 0.0
    kappa_r_ut: float = 0.0

    def __post_init__(self):
        for name, v in vars(self).items():
            _check_real(v, name)
        worst = max(vars(self).values())
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
    pilot power p_ut >= 0 (linear scale). p_ut (1 + kappa_t_ut +
    kappa_r_bs) ||R|| + ||S|| bounds the entries of M (``_mix``) and must
    be finite, or the tagged paths give a nan MSE or a 0 filter, not an
    error."""

    r: CovarianceMatrix
    s: CovarianceMatrix
    p_ut: float
    imp: ImpairmentProfile = field(default_factory=ImpairmentProfile)

    def __post_init__(self):
        _check_real(self.p_ut, "p_ut")
        # the norms by max_eigenvalue; an inf product times a 0 norm is nan
        r = self.r.max_eigenvalue
        if not math.isfinite(self.p_ut * (1.0 + self.imp.kappa_t_ut) * r
                             + self.p_ut * self.imp.kappa_r_bs * r
                             + self.s.max_eigenvalue):
            raise ValueError("p_ut (1 + kappa_t_ut + kappa_r_bs) ||R|| + "
                             "||S|| must be finite")
        if self.r.dim != self.s.dim:
            raise ValueError(
                f"covariance dimensions differ: R is {self.r.dim}, S is {self.s.dim}"
            )
        if self.s.min_eigenvalue <= 0.0:
            raise ValueError("noise covariance S must be positive definite")

    @property
    def d(self) -> float:
        """The pilot symbol sqrt(p_ut); no result depends on its phase."""
        return math.sqrt(self.p_ut)

    @property
    def dim(self) -> int:
        return self.r.dim


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte-Carlo value with its standard error and sample count."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("a Monte-Carlo estimate needs at least 2 samples")
        if not (math.isfinite(self.value) and math.isfinite(self.std_error)):
            raise ValueError(f"a Monte-Carlo estimate must be finite, got "
                             f"{self.value} with standard error "
                             f"{self.std_error}")
        if self.std_error < 0.0:
            raise ValueError("standard error must be nonnegative")


def _check_draws(n_samples, seed, minimum, workers) -> None:
    """ValueError unless n_samples is an integer >= minimum, workers one
    >= 1 and seed one >= 0 (``_is_int``): the one check of every
    Monte-Carlo entry point and ``ExperimentConfig``, before any filter."""
    for name, v, least in (("n_samples", n_samples, minimum),
                           ("workers", workers, 1)):
        if not (_is_int(v) and v >= least):
            raise ValueError(f"{name} must be an integer >= {least}, "
                             f"got {v!r}")
    _check_seed(seed)


def _standard_error(v: np.ndarray) -> float:
    """The standard error of the mean of the draws v: their sample
    standard deviation over sqrt(len(v)), taken on v scaled by 2^-k, k
    the exponent of max |v|, so that no squared deviation falls below the
    normal range, and scaled back: exact, and the same bits wherever the
    squares of v itself are normal. numpy's reductions, no BLAS call."""
    k = int(np.frexp(np.max(np.abs(v)))[1])
    std = np.ldexp(np.std(np.ldexp(v, -k), ddof=1), k)
    return float(std / math.sqrt(len(v)))


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
    the gains g on them. lam is R's spectrum (the scalar c for R = c I).

    g = lam inv inv with inv = 1 / sqrt(alpha lam + beta): the Cholesky
    path's operations on a diagonal M, whose factor is sqrt(M) and whose
    triangular solves multiply by its reciprocal, so that for R = c I the
    filter has the dense path's bits on a BLAS that does so.
    """
    lam, s = cfg.r.identity_scale, cfg.s.identity_scale
    if s is None or (lam is None and cfg.r.kms_rho is None):
        return None
    if lam is None:
        lam = cfg.r.eigenvalues
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


def lmmse_filter(cfg: UplinkConfig) -> np.ndarray | float:
    """Filter A such that h_hat = A z is the LMMSE channel estimate.

    A = d R (p (1 + kappa_t_ut) R + p kappa_r_bs diag(R) + S)^{-1}.
    When R and S are scaled identities, A = a I and the scalar a is
    returned instead of the N x N array.
    """
    if cfg.r.identity_scale is not None and cfg.s.identity_scale is not None:
        return cfg.d * _eigenbasis(cfg)[1]
    # R M^{-1} = (M^{-1} R)^H since both R and M are Hermitian.
    return cfg.d * _solve_m(cfg, cfg.r.matrix).conj().T


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
                      scale=cfg.r.max_eigenvalue)


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
                      scale=cfg.r.max_eigenvalue)


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
    """ValueError unless every level is a finite real >= 0."""
    for k in kappas:
        _check_real(k, "impairment level")


def error_floor_iid(lam: float, kappa_t_ut: float, kappa_r_bs: float) -> float:
    """Per-antenna error floor for R = lam * I, lam > 0: lam (1 - 1/(1 + kt + kr))."""
    _check_real(lam, "channel variance", positive=True)
    _check_levels(kappa_t_ut, kappa_r_bs)
    # kt + kr first: exactly symmetric in the two levels, unlike 1 + kt + kr
    return lam * (1.0 - 1.0 / (1.0 + (kappa_t_ut + kappa_r_bs)))


def _channel_draws(r: CovarianceMatrix, count: int,
                   rng: np.random.Generator):
    """h ~ CN(0, R) of count rows, then w_t ~ CN(0, 1) per row, with h2 =
    |h|^2: what begins every chunk of both chains, and all the MSE chain
    draws (``empirical_mse_batch``)."""
    h = sample_cn(r, rng, size=count)
    return h, sample_scalar_cn(1.0, rng, size=count), _squared_moduli(h)


def _squared_moduli(h: np.ndarray) -> np.ndarray:
    """|h_i|^2 of each entry, without the square root of np.abs."""
    return h.real ** 2 + h.imag ** 2


def _uplink_draws(r: CovarianceMatrix, s: CovarianceMatrix, count: int,
                  rng: np.random.Generator):
    """(h, w_t, h2, u[, nu]) of one chunk of ``pilot_chain``, drawn in
    this order: ``_channel_draws``, then u ~ CN(0, 1) per entry, in h's
    memory layout, then, for an S without the s I tag only, nu ~ CN(0, S)
    per row. Given h, eta_r ~ CN(0, kappa_r_bs p diag(|h_i|^2)) is
    independent across antennas, so ``_observe`` forms it from u, with
    s I's noise joined to it."""
    h, w_t, h2 = _channel_draws(r, count, rng)
    # u takes h's layout, whose antenna axis leads in memory for the AR(1)
    # h of c K_rho, so that each config's z takes it too, as the
    # tridiagonal solve wants. Drawn straight into it: the same bits as
    # a C-order draw copied by np.asfortranarray, and in 8 alternating
    # ee-scaling-mt pairs (seeds 771-778, 6 s each, 2 vCPUs) sweep_s
    # medians of 0.145 s against the copy's 0.143 s (the copy faster in
    # 5 of 8) with peak RSS 45.5 MB against 46.1 MB
    u = _re_plus_j_im(rng, h.shape, np.empty_like(h), np.sqrt(0.5))
    if s.identity_scale is not None:
        return h, w_t, h2, u
    return h, w_t, h2, u, sample_cn(s, rng, size=count)


def _observe(cfg: UplinkConfig, h: np.ndarray, w_t: np.ndarray,
             h2: np.ndarray, u: np.ndarray,
             nu: np.ndarray | None = None) -> np.ndarray:
    """z = h (d + eta_t) + sqrt(s + kappa_r_bs p |h_i|^2) u, plus nu when
    given, from ``_uplink_draws``: eta_t = sqrt(kappa_t_ut p) w_t, and s is
    S's s I tag, or 0 for an untagged S, whose noise is nu."""
    s = cfg.s.identity_scale or 0.0
    kr_p = cfg.imp.kappa_r_bs * cfg.p_ut
    z = u * np.sqrt(s if kr_p == 0.0 else kr_p * h2 + s)
    z += h * (cfg.d + math.sqrt(cfg.imp.kappa_t_ut * cfg.p_ut) * w_t)[:, None]
    if nu is not None:
        z += nu
    return z


def _tridiagonal_filter(cfg: UplinkConfig):
    """The LMMSE filter for R = c K_rho and S = s I, as (l, inv_m, kappa):
    h_hat = d R M^{-1} z = kappa B^{-1} z with kappa = d c and
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
    return l, [1.0 / mi for mi in m], cfg.d * c


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
# Complex values in a row tile: 256 KB an array. A dense filter's h_hat
# keeps its bits only for tiles whose row counts lead the BLAS to the same
# kernels: with dense K_0.7 under OpenBLAS 0.3.31's Haswell kernels its
# bits were the same from 2^11 to 2^15 values at N = 300 and 1024 (6 to
# 109 and 2 to 32 rows), but not at 2^10 (3 and 1 rows), nor at 2^9 for
# N = 100 (5 rows)
_TILE = 2 ** 14


def _shared(cfgs) -> list:
    """cfgs as a list, checked to be non-empty and to share R and S."""
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("a pilot chain needs at least one config")
    r, s = cfgs[0].r, cfgs[0].s
    if any(cfg.r is not r or cfg.s is not s for cfg in cfgs):
        raise ValueError("the configs of one pilot chain must share R and S")
    return cfgs


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

    The chunks are shared among ``_process_count`` processes, this one and
    children forked from it (``_fork_map``), fewer when ``rows`` calls the
    BLAS (``blas``); chunk j draws from substream(seed, j) in any process,
    so the bytes are the one-process map's."""
    n_chunks = -(-n_samples // _CHUNK)

    def chunk(j):
        return rows(min(_CHUNK, n_samples - j * _CHUNK), substream(seed, j))

    done = _fork_map(chunk, n_chunks, _process_count(workers, n_chunks, blas))
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

    Chunk j draws h, w_t, u and, for an untagged S, nu once from
    ``substream(seed, j)`` (``_uplink_draws``), and forms h2 once; every
    config scales those same draws by its own p and kappa (``_observe``)
    and applies its own filter, tile by tile. So config i gives the same
    bits in any batch. The scalar filter and the tridiagonal solve work
    row by row, and give the same bits with any tile size; a dense
    filter's product is the BLAS's, whose summation order may follow the
    rows in a tile, so there the bits hold for the one _TILE (see there).
    ``empirical_mse_batch`` draws only h and w_t, as every chunk here
    begins with (``_channel_draws``).

    Each config's filter is formed once, before the first chunk:
    - R = c K_rho (``exponential_correlation``) and S = s I: a tridiagonal
      solve (``_tridiagonal_filter``), with no eigendecomposition and no
      N x N array, on whole chunks;
    - otherwise ``lmmse_filter(cfg).T``: the scalar d g for R = c I and
      S = s I, else an N x N array, on tiles of _TILE values.
    """
    cfgs = _shared(cfgs)
    _check_draws(n_samples, seed, 1, workers)
    apply, filters, step = _chain_filters(cfgs)
    r, s = cfgs[0].r, cfgs[0].s

    def rows(count, rng):
        chunk = _uplink_draws(r, s, count, rng)
        out = [[] for _ in cfgs]
        for a in range(0, count, step):
            tile = [x[a:a + step] for x in chunk]
            for o, cfg, f in zip(out, cfgs, filters):
                o.append(stat(tile[0], apply(_observe(cfg, *tile), f),
                              tile[2]))
        return [np.concatenate(o) for o in out]

    return _map_chunks(rows, n_samples, seed, workers, apply is np.matmul)


def _diagonal_norms(cfgs):
    """(rows, trace) for configs on R's eigenbasis (``_eigenbasis``): the
    chunk function rows (see ``_map_chunks``) gives a chunk's E[||e||^2 |
    h, w_t] less its constant tr(A S A^H) per config and row, as a
    (configs, rows) array, and trace holds that constant per config.

    There A = V diag(d g) V^H and Q M^{-1} = V diag(q) V^H with q = (p
    kappa_t_ut lam + beta) / (alpha lam + beta). With h' = V^H h, eta_t =
    sqrt(kappa_t_ut p) w_t and <x, w> = sum_k w_k x_k over a row,

      E[||e||^2 | h, w_t] = |eta_t|^2 <|h'|^2, p g^2>
              - 2 d Re(eta_t) <|h'|^2, q g> + <|h'|^2, q^2>
              + kappa_r_bs p <|h|^2, |V|^2 p g^2> + s p sum_k g_k^2,

    the last two terms being kappa_r_bs p sum_i |h_i|^2 ||A e_i||^2 and
    tr(A S A^H). h is rotated once per chunk, and each config's sums are
    one fixed-shape product per weight stack, so that its bits do not
    depend on the batch.
    """
    r = cfgs[0].r
    vc = None if r.identity_scale is not None else r.eigenvectors.conj()
    v2 = None if vc is None else _squared_moduli(vc)
    w, u, trace = [], [], []
    for c in cfgs:
        lam, g, beta = _eigenbasis(c)
        p, kt = c.p_ut, c.imp.kappa_t_ut
        q = (p * kt * lam + beta) / (p * (1.0 + kt) * lam + beta)
        wc = np.empty((c.dim, 3))
        wc[:, 0], wc[:, 1], wc[:, 2] = p * g * g, q * g, q * q
        w.append(wc)
        u.append(wc[:, 0] if vc is None else v2 @ wc[:, 0])
        trace.append(c.s.identity_scale * float(np.sum(wc[:, 0])))
    d = np.array([[c.d] for c in cfgs])
    eta = np.array([[math.sqrt(c.imp.kappa_t_ut * c.p_ut)] for c in cfgs])
    kr_p = np.array([[c.imp.kappa_r_bs * c.p_ut] for c in cfgs])

    def rows(count, rng):
        h, w_t, h2 = _channel_draws(r, count, rng)
        h2v = h2 if vc is None else _squared_moduli(np.dot(h, vc))
        hh = np.array([np.dot(h2v, wc) for wc in w])
        e_t = eta * w_t
        return ((e_t.real ** 2 + e_t.imag ** 2) * hh[:, :, 0]
                - 2.0 * d * e_t.real * hh[:, :, 1] + hh[:, :, 2]
                + kr_p * np.array([np.dot(h2, uc) for uc in u]))

    return rows, trace


def _error_filters(cfg: UplinkConfig):
    """(A^T, (Q M^{-1})^T) for the dense path, from one Cholesky solve:
    with X = M^{-1} [R, Q], A^T = d conj(X_R) and (Q M^{-1})^T =
    conj(X_Q), as Q and M are Hermitian."""
    x = _solve_m(cfg, np.hstack([cfg.r.matrix, _q(cfg)])).conj()
    return cfg.d * x[:, :cfg.dim], x[:, cfg.dim:]


def _dense_norms(cfgs):
    """(rows, trace) off R's eigenbasis: the chunk function rows (see
    ``_map_chunks``) gives a chunk's E[||e||^2 | h, w_t] less its constant
    tr(A S A^H) per config and row, as a list over configs, and trace
    holds that constant per config. Each config's two N x N filters
    (``_error_filters``), the column norms ||A e_i||^2 and the constant
    are formed once."""
    r = cfgs[0].r
    filters, trace = [], []
    for c in cfgs:
        at, qt = _error_filters(c)
        filters.append((at, qt, np.sum(np.abs(at) ** 2, axis=1)))
        trace.append(float(np.vdot(at.T, at.T @ c.s.matrix).real))

    def rows(count, rng):
        h, w_t, h2 = _channel_draws(r, count, rng)
        return [_dense_norm(cfg, f, h, w_t, h2)
                for cfg, f in zip(cfgs, filters)]

    return rows, trace


def _dense_norm(cfg: UplinkConfig, f, h: np.ndarray, w_t: np.ndarray,
                h2: np.ndarray) -> np.ndarray:
    """E[||e||^2 | h, w_t] - tr(A S A^H) per row of one chunk, with f =
    (A^T, (Q M^{-1})^T, ||A e_i||^2) from ``_dense_norms``: given h and
    w_t, e = (eta_t A - Q M^{-1}) h + A (nu + eta_r), whose second part
    has mean 0 and covariance A (S + kappa_r_bs p diag(|h_i|^2)) A^H."""
    e = (h * (math.sqrt(cfg.imp.kappa_t_ut * cfg.p_ut) * w_t)[:, None]) @ f[0]
    e -= h @ f[1]
    out = np.sum(np.abs(e) ** 2, axis=1)
    out += cfg.imp.kappa_r_bs * cfg.p_ut * (h2 @ f[2])
    return out


def empirical_mse_batch(cfgs, n_samples: int, seed: int,
                        workers: int = 1) -> list[MonteCarloEstimate]:
    """Monte-Carlo per-antenna MSE of each config over one shared set of
    draws of h and w_t (``_channel_draws``), those that begin every chunk
    of ``pilot_chain``.

    No estimate is formed: the error e = h_hat - h is taken in the closed
    form e = A y - Q M^{-1} h, where z = d h + y, y = eta_t h + nu +
    eta_r, A is the LMMSE filter and Q = M - p R = p kappa_t_ut R + p
    kappa_r_bs diag(R) + S. Given h and w_t, A (nu + eta_r) has mean 0 and
    is linear in the draws u and nu of ``_uplink_draws``, which would only
    be averaged away, so it is integrated out: each draw gives E[||e||^2 | h, w_t] (Rao-Blackwell),
    whose mean is the same and whose variance is no larger. Nothing in it
    cancels at high SNR, where h_hat - h would: it comes from weighted row
    sums on R's eigenbasis (``_diagonal_norms``), and otherwise from the
    two N x N filters (``_dense_norms``). The chunks run on up to
    ``workers`` processes (``_map_chunks``).

    The draws' constant part, tr(A S A^H), is added to the mean only: the
    standard error is ``_standard_error`` of the parts that vary, divided
    by N, which a constant added first could round away.
    """
    _check_draws(n_samples, seed, 2, workers)
    cfgs = _shared(cfgs)
    n = cfgs[0].dim
    rows, trace = (_dense_norms if _eigenbasis(cfgs[0]) is None
                   else _diagonal_norms)(cfgs)
    out = []
    for e, t in zip(_map_chunks(rows, n_samples, seed, workers, blas=True),
                    trace):
        e /= n
        out.append(MonteCarloEstimate(value=float(np.mean(e) + t / n),
                                      std_error=_standard_error(e),
                                      n_samples=len(e)))
    return out


def empirical_mse(cfg: UplinkConfig, n_samples: int,
                  seed: int) -> MonteCarloEstimate:
    """Monte-Carlo per-antenna MSE over the pilot chain."""
    return empirical_mse_batch([cfg], n_samples, seed)[0]
