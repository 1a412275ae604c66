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
    """(lam, V, g, beta) when R has a constant diagonal r0 and S = s I,
    else None. Then M = alpha R + beta I, with alpha = p (1 + kappa_t_ut)
    and beta = p kappa_r_bs r0 + s, commutes with R = V diag(lam) V^H, and
    M^{-1} R = V diag(g) V^H. lam is R's spectrum clipped at 0, as its
    factor is; for R = c I it is the scalar c and V is None, so the
    identity basis is never formed.

    g = lam inv inv with inv = 1 / sqrt(alpha lam + beta): the Cholesky
    path's operations on a diagonal M, whose factor is sqrt(M) and whose
    triangular solves multiply by its reciprocal. lam / (alpha lam + beta)
    rounds differently, and at high SNR the empirical MSE magnifies that
    last bit of the filter past 1e-12 of the dense path's value.
    """
    r0, s = cfg.r.constant_diagonal, cfg.s.identity_scale
    if r0 is None or s is None:
        return None
    if cfg.r.identity_scale is None:
        lam, v = np.clip(cfg.r.eigenvalues, 0.0, None), cfg.r.eigenvectors
    else:
        lam, v = cfg.r.identity_scale, None
    alpha = cfg.p_ut * (1.0 + cfg.imp.kappa_t_ut)
    kr_r0 = cfg.p_ut * cfg.imp.kappa_r_bs * r0
    # M's eigenvalues summed in the dense path's order: alpha R + S first
    inv = 1.0 / np.sqrt(alpha * lam + s + kr_r0)
    return lam, v, lam * inv * inv, kr_r0 + s


def _on_basis(w, v: np.ndarray | None, n: int) -> CovarianceMatrix:
    """V diag(w) V^H from a spectrum on ``_eigenbasis``: the scaled
    identity w I when V is None."""
    if v is None:
        return CovarianceMatrix.identity(n).scaled(w)
    return _from_spectrum(w, v)


def _mix(r: CovarianceMatrix, a: float, b: float,
         s: CovarianceMatrix | None = None) -> np.ndarray:
    """a R + b diag(R) + S (S = 0 when None) as an N x N array."""
    m = a * r.matrix
    if s is not None:
        m += s.matrix
    m[np.diag_indices_from(m)] += b * r.diagonal()
    return m


def _solve_against_r(cfg: UplinkConfig) -> np.ndarray:
    """M^{-1} R for M = p (1 + kappa_t_ut) R + p kappa_r_bs diag(R) + S."""
    m = _mix(cfg.r, cfg.p_ut * (1.0 + cfg.imp.kappa_t_ut),
             cfg.p_ut * cfg.imp.kappa_r_bs, cfg.s)
    # cannot fail: M is positive definite whenever S is
    return _cho_solve(m, cfg.r.matrix,
                      "observation covariance is not positive definite")


def lmmse_filter(cfg: UplinkConfig) -> np.ndarray | complex:
    """Filter A such that h_hat = A z is the LMMSE channel estimate.

    A = d* R (p (1 + kappa_t_ut) R + p kappa_r_bs diag(R) + S)^{-1}.
    When R and S are scaled identities, A = a I and the scalar a is
    returned instead of the N x N array.
    """
    basis = _eigenbasis(cfg)
    if basis is None:
        # R M^{-1} = (M^{-1} R)^H since both R and M are Hermitian.
        return np.conj(cfg.d) * _solve_against_r(cfg).conj().T
    _, v, g, _ = basis
    return np.conj(cfg.d) * (g if v is None else (v * g) @ v.conj().T)


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
    basis = _eigenbasis(cfg)
    if basis is None:
        q = _mix(cfg.r, cfg.p_ut * cfg.imp.kappa_t_ut,
                 cfg.p_ut * cfg.imp.kappa_r_bs, cfg.s)
        return nearly_psd(_solve_against_r(cfg).conj().T @ q,
                          scale=cfg.r.max_eigenvalue)
    return _on_basis(_error_spectrum(cfg, basis), basis[1], cfg.dim)


def _error_spectrum(cfg: UplinkConfig, basis) -> np.ndarray:
    """Eigenvalues of C on R's eigenbasis: lam - p g lam in the form
    g (p kappa_t_ut lam + beta), which cancels nothing."""
    lam, _, g, beta = basis
    return g * (cfg.p_ut * cfg.imp.kappa_t_ut * lam + beta)


def mse_per_antenna(cfg: UplinkConfig) -> float:
    """tr(C) / N: mean-square estimation error per channel element."""
    basis = _eigenbasis(cfg)
    if basis is None:
        return error_covariance(cfg).trace() / cfg.dim
    # the mean of the spectrum, also of the one value of R = c I
    return float(np.mean(_error_spectrum(cfg, basis)))


def error_floor(cfg: UplinkConfig) -> CovarianceMatrix:
    """High-pilot-power limit of the error covariance.

    C_inf = R - R B^{-1} R with B = (1 + kappa_t_ut) R + kappa_r_bs diag(R),
    evaluated as (B^{-1} R)^H (kappa_t_ut R + kappa_r_bs diag(R)), which
    cancels nothing, and symmetrised.
    """
    singular = ("high-power bracket is singular "
                "(rank-deficient R with kappa_r_bs = 0)")
    kt, kr = cfg.imp.kappa_t_ut, cfg.imp.kappa_r_bs
    basis = _eigenbasis(cfg)
    if basis is None:
        x = _cho_solve(_mix(cfg.r, 1.0 + kt, kr), cfg.r.matrix, singular)
        return nearly_psd(x.conj().T @ _mix(cfg.r, kt, kr),
                          scale=cfg.r.max_eigenvalue)
    lam, v, _, _ = basis
    kr_r0 = kr * cfg.r.constant_diagonal
    den = (1.0 + kt) * lam + kr_r0
    if np.any(den <= 0.0):
        raise SingularMatrixError(singular)
    return _on_basis(lam * (kt * lam + kr_r0) / den, v, cfg.dim)


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
    z += math.sqrt(cfg.imp.kappa_r_bs * cfg.p_ut) * hw_r
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


_CHUNK = 256


def pilot_chain(cfgs, n_samples: int, seed: int):
    """Channel draw, distorted uplink pilot, LMMSE estimate for configs that
    share R and S (the same objects): yields (i, h, h_hat, v) for config i,
    in batches of up to _CHUNK rows, n_samples rows per config in all.

    Chunk j draws h and the standard draws of the distortion and noise once
    from ``substream(seed, j)``; every config scales those same draws by its
    own p and kappa and applies its own filter. So config i gives the same
    bits in any batch, and results do not depend on how work is split.

    v is None when the rows of h and h_hat are antenna values: on the
    dense path, and for R = c I. Otherwise the filter is diagonal in R's
    eigenbasis (see ``_eigenbasis``), v is R's eigenvectors and the rows
    are coordinates in that basis: a row x holds the antenna values
    x @ v.T. Row norms and inner products are the same in both.

    Each config's row filter is formed once, before the first chunk: the
    diagonal d* g of ``_eigenbasis``, or on the dense path the N x N
    ``lmmse_filter(cfg).T``, held for the whole chain.
    """
    cfgs = list(cfgs)
    r, s = cfgs[0].r, cfgs[0].s
    if any(cfg.r is not r or cfg.s is not s for cfg in cfgs):
        raise ValueError("the configs of one pilot chain must share R and S")
    basis = _eigenbasis(cfgs[0])
    if basis is None:
        v, apply = None, np.matmul
        filters = [lmmse_filter(cfg).T for cfg in cfgs]
    else:
        v, apply = basis[1], np.multiply
        filters = [np.conj(cfg.d) * _eigenbasis(cfg)[2] for cfg in cfgs]
    # z is linear in h, nu and |h| w_r: each chunk of them is rotated by
    # conj(V) once
    vc = None if v is None else v.conj()
    for j, start in enumerate(range(0, n_samples, _CHUNK)):
        rng = substream(seed, j)
        h = sample_cn(r, rng, size=min(_CHUNK, n_samples - start))
        w_t, nu, hw_r = _standard_draws(s, h, rng)
        if vc is not None:
            h, nu, hw_r = h @ vc, nu @ vc, hw_r @ vc
        for i, (cfg, f) in enumerate(zip(cfgs, filters)):
            yield i, h, apply(_observe(cfg, h, w_t, nu, hw_r), f), v


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
