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
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .randmat import (
    CovarianceMatrix,
    _from_spectrum,
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


def _cho_solve(m, b, singular: str):
    """m^{-1} b by Cholesky; SingularMatrixError(singular) unless m > 0.

    Scalars m and b stand for m I and b I and give the scalar of m^{-1} b I,
    with the dense path's arithmetic: the Cholesky factor of m I is
    sqrt(m) I, and each triangular solve multiplies by the reciprocal of
    its diagonal, as OpenBLAS's trsm does, so both paths give the same bits.
    """
    if np.ndim(m) == 0:
        if not m > 0.0:
            raise SingularMatrixError(singular)
        inv = 1.0 / math.sqrt(m)
        return b * inv * inv
    try:
        f = cho_factor(m, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(singular) from exc
    return cho_solve(f, b)


def _bracket(cfg: UplinkConfig) -> tuple[float, float] | None:
    """(alpha, beta) when R has a constant diagonal r0 and S = s I, else
    None. Then M = alpha R + beta I, with alpha = p (1 + kappa_t_ut) and
    beta = p kappa_r_bs r0 + s, commutes with R = V diag(lam) V^H, and
    M^{-1} R = V diag(lam / (alpha lam + beta)) V^H."""
    r0, s = cfg.r.constant_diagonal, cfg.s.identity_scale
    if r0 is None or s is None:
        return None
    return (cfg.p_ut * (1.0 + cfg.imp.kappa_t_ut),
            cfg.p_ut * cfg.imp.kappa_r_bs * r0 + s)


def _eigenbasis(cfg: UplinkConfig):
    """(lam, V, g, beta) for a dense R that ``_bracket`` accepts, None for
    other configs (scaled identities keep their scalar branches): lam is
    R's spectrum clipped at 0, as its factor is, and M^{-1} R =
    V diag(g) V^H with g = lam / (alpha lam + beta)."""
    bracket = _bracket(cfg)
    if bracket is None or cfg.r.identity_scale is not None:
        return None
    alpha, beta = bracket
    lam = np.clip(cfg.r.eigenvalues, 0.0, None)
    return lam, cfg.r.eigenvectors, lam / (alpha * lam + beta), beta


def _solve_against_r(cfg: UplinkConfig) -> np.ndarray | float:
    """M^{-1} R for M = p (1 + kappa_t_ut) R + p kappa_r_bs diag(R) + S;
    the scalar x of M^{-1} R = x I when R and S are scaled identities."""
    r, s = cfg.r.identity_scale, cfg.s.identity_scale
    if r is None or s is None:
        r = cfg.r.matrix
        m = cfg.p_ut * (1.0 + cfg.imp.kappa_t_ut) * r + cfg.s.matrix
        m[np.diag_indices_from(m)] += (cfg.p_ut * cfg.imp.kappa_r_bs
                                       * cfg.r.diagonal())
    else:
        m = (cfg.p_ut * (1.0 + cfg.imp.kappa_t_ut) * r + s
             + cfg.p_ut * cfg.imp.kappa_r_bs * r)
    # cannot fail: M is positive definite whenever S is
    return _cho_solve(m, r, "observation covariance is not positive definite")


def lmmse_filter(cfg: UplinkConfig) -> np.ndarray | complex:
    """Filter A such that h_hat = A z is the LMMSE channel estimate.

    A = d* R (p (1 + kappa_t_ut) R + p kappa_r_bs diag(R) + S)^{-1}.
    When R and S are scaled identities, A = a I and the scalar a is
    returned instead of the N x N array.
    """
    basis = _eigenbasis(cfg)
    if basis is not None:
        _, v, g, _ = basis
        return np.conj(cfg.d) * ((v * g) @ v.conj().T)
    x = _solve_against_r(cfg)
    # R M^{-1} = (M^{-1} R)^H since both R and M are Hermitian.
    return np.conj(cfg.d) * np.conj(x).T


def estimate(cfg: UplinkConfig, z: np.ndarray) -> np.ndarray:
    """LMMSE channel estimate h_hat = A z for one uplink observation."""
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (cfg.dim,):
        raise ValueError(f"observation must have shape ({cfg.dim},), got {z.shape}")
    a = lmmse_filter(cfg)
    return a * z if np.ndim(a) == 0 else a @ z


def _clipped_identity(n: int, c: float) -> CovarianceMatrix:
    """c I for a c that is nonnegative in exact arithmetic: a roundoff
    negative becomes 0, as ``nearly_psd`` clips the dense result."""
    return CovarianceMatrix.identity(n).scaled(max(c, 0.0))


def error_covariance(cfg: UplinkConfig) -> CovarianceMatrix:
    """Covariance C of the estimation error h - h_hat.

    C = R - p R (p (1 + kappa_t_ut) R + p kappa_r_bs diag(R) + S)^{-1} R,
    which degrades continuously to C = R at zero pilot power.
    """
    if cfg.p_ut == 0.0:
        return cfg.r
    basis = _eigenbasis(cfg)
    if basis is not None:
        return _from_spectrum(_error_spectrum(cfg, basis), basis[1])
    x = _solve_against_r(cfg)
    if np.ndim(x) == 0:
        r = cfg.r.identity_scale
        return _clipped_identity(cfg.dim, r - cfg.p_ut * (r * x))
    c = cfg.r.matrix - cfg.p_ut * (cfg.r.matrix @ x)
    return nearly_psd(c, scale=cfg.r.max_eigenvalue)


def _error_spectrum(cfg: UplinkConfig, basis) -> np.ndarray:
    """Eigenvalues of C on R's eigenbasis: lam - p g lam in the form
    g (p kappa_t_ut lam + beta), which cancels nothing."""
    lam, _, g, beta = basis
    return g * (cfg.p_ut * cfg.imp.kappa_t_ut * lam + beta)


def mse_per_antenna(cfg: UplinkConfig) -> float:
    """tr(C) / N: mean-square estimation error per channel element."""
    basis = _eigenbasis(cfg)
    if basis is not None:
        return float(np.sum(_error_spectrum(cfg, basis))) / cfg.dim
    return error_covariance(cfg).trace() / cfg.dim


def error_floor(cfg: UplinkConfig) -> CovarianceMatrix:
    """High-pilot-power limit of the error covariance.

    C_inf = R - R ((1 + kappa_t_ut) R + kappa_r_bs diag(R))^{-1} R.
    """
    singular = ("high-power bracket is singular "
                "(rank-deficient R with kappa_r_bs = 0)")
    basis = _eigenbasis(cfg)
    if basis is not None:
        lam, v, _, _ = basis
        kt, kr = cfg.imp.kappa_t_ut, cfg.imp.kappa_r_bs
        kr_r0 = kr * cfg.r.constant_diagonal
        den = (1.0 + kt) * lam + kr_r0
        if np.any(den <= 0.0):
            raise SingularMatrixError(singular)
        return _from_spectrum(lam * (kt * lam + kr_r0) / den, v)
    r = cfg.r.identity_scale
    if r is not None:
        b = (1.0 + cfg.imp.kappa_t_ut) * r + cfg.imp.kappa_r_bs * r
        return _clipped_identity(cfg.dim, r - r * _cho_solve(b, r, singular))
    r = cfg.r.matrix
    b = (1.0 + cfg.imp.kappa_t_ut) * r.copy()
    b[np.diag_indices_from(b)] += cfg.imp.kappa_r_bs * cfg.r.diagonal()
    c = r - r @ _cho_solve(b, r, singular)
    return nearly_psd(c, scale=cfg.r.max_eigenvalue)


def error_floor_iid(lam: float, kappa_t_ut: float, kappa_r_bs: float) -> float:
    """Per-antenna error floor for R = lam * I: lam (1 - 1/(1 + kt + kr))."""
    if not (lam > 0.0):
        raise ValueError(f"channel variance must be positive, got {lam}")
    if kappa_t_ut < 0.0 or kappa_r_bs < 0.0:
        raise ValueError("impairment levels must be nonnegative")
    # kt + kr first: exactly symmetric in the two levels, unlike 1 + kt + kr
    return lam * (1.0 - 1.0 / (1.0 + (kappa_t_ut + kappa_r_bs)))


def _standard_draws(s: CovarianceMatrix, h: np.ndarray,
                    rng: np.random.Generator):
    """What the uplink distortion and noise of a (count, N) batch of channels
    are made of, drawn in this order: w_t ~ CN(0, 1) per row, nu ~ CN(0, S),
    and |h| w_r with w_r ~ CN(0, 1) per entry."""
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
    c = math.sqrt(cfg.imp.kappa_r_bs * cfg.p_ut)
    for b in range(0, z.shape[0], _BLOCK):  # no chunk-sized temporary
        z[b:b + _BLOCK] += c * hw_r[b:b + _BLOCK]
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


_CHUNK = 2048
# Rows of a chunk that one elementwise temporary or rotation covers.
_BLOCK = 256


def pilot_chain(cfgs, n_samples: int, seed: int):
    """Channel draw, distorted uplink pilot, LMMSE estimate for configs that
    share R and S (the same objects): yields (i, h, h_hat, v) for config i,
    in batches of up to _CHUNK rows, n_samples rows per config in all.

    Chunk j draws h and the standard draws of the distortion and noise once
    from ``substream(seed, j)``; every config scales those same draws by its
    own p and kappa and applies its own filter. So config i gives the same
    bits in any batch, and results do not depend on how work is split.

    v is None when the rows of h and h_hat are antenna values. When the
    filter is diagonal in R's eigenbasis (see ``_eigenbasis``), v is R's
    eigenvectors and the rows are coordinates in that basis: a row x holds
    the antenna values x @ v.T. Row norms and inner products are the same
    in both.
    """
    cfgs = list(cfgs)
    r, s = cfgs[0].r, cfgs[0].s
    if any(cfg.r is not r or cfg.s is not s for cfg in cfgs):
        raise ValueError("the configs of one pilot chain must share R and S")
    v = None if _eigenbasis(cfgs[0]) is None else r.eigenvectors
    for j, start in enumerate(range(0, n_samples, _CHUNK)):
        rng = substream(seed, j)
        h = sample_cn(r, rng, size=min(_CHUNK, n_samples - start))
        w_t, nu, hw_r = _standard_draws(s, h, rng)
        if v is not None:
            # z is linear in h, nu and |h| w_r: each is rotated once per
            # chunk, and rebinding frees its antenna values
            vc = v.conj()
            h = h @ vc
            nu = nu @ vc
            hw_r = hw_r @ vc
            del vc
        draws = w_t, nu, hw_r
        del nu, hw_r
        for i, cfg in enumerate(cfgs):
            h_hat = _estimate_rows(cfg, h, draws)
            if i == len(cfgs) - 1:
                del draws  # not needed while the caller uses this chunk
            yield i, h, h_hat, v
            del h_hat  # only the caller holds it while the next is formed


def _estimate_rows(cfg: UplinkConfig, h: np.ndarray, draws) -> np.ndarray:
    """LMMSE estimates of the rows of h from their ``_standard_draws``.
    The filter is formed here, one config at a time: holding every
    config's N x N filter would cost that much memory each. On R's
    eigenbasis the filter is the diagonal d* g of ``_eigenbasis``."""
    z = _observe(cfg, h, *draws)
    basis = _eigenbasis(cfg)
    if basis is not None:
        z *= np.conj(cfg.d) * basis[2]
        return z
    a = lmmse_filter(cfg)
    if np.ndim(a) == 0:
        z *= a
        return z
    return z @ a.T


def empirical_mse_batch(cfgs, n_samples: int,
                        seed: int) -> list[MonteCarloEstimate]:
    """Monte-Carlo per-antenna MSE of each config over one shared pilot
    chain (see ``pilot_chain``)."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    cfgs = list(cfgs)
    e = [[] for _ in cfgs]
    # the error's row norms are the same in either basis of the chain
    for i, h, h_hat, _ in pilot_chain(cfgs, n_samples, seed):
        h_hat -= h  # the chain's h is shared, its h_hat is not
        e[i].append(np.sum(np.abs(h_hat) ** 2, axis=1) / cfgs[i].dim)
        del h_hat  # freed before the chain forms the next config's estimate
    out = []
    for ei in map(np.concatenate, e):
        out.append(MonteCarloEstimate(
            value=float(np.mean(ei)),
            std_error=float(np.std(ei, ddof=1) / math.sqrt(len(ei))),
            n_samples=len(ei)))
    return out


def empirical_mse(cfg: UplinkConfig, n_samples: int,
                  seed: int) -> MonteCarloEstimate:
    """Monte-Carlo per-antenna MSE over the pilot chain."""
    return empirical_mse_batch([cfg], n_samples, seed)[0]
