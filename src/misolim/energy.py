"""Energy efficiency and the power-scaling sweep.

Energy efficiency is the ratio of delivered bits to radiated energy.
Rates are per channel use, so the configured bandwidth (channel uses per
second) converts the per-use rate into bits/second and powers in watts
into Joules/second, giving bits/Joule. Scaling the transmit and pilot
powers down as 1/N^t while growing the array keeps the rate bounded away
from zero, so the efficiency can grow without bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .capacity import DownlinkConfig, MonteCarloEstimate, lower_bound_mc_batch
from .estimation import ImpairmentProfile, UplinkConfig
from .randmat import _dimension, derive_seed


@dataclass(frozen=True)
class EnergyConfig:
    """Overhead multipliers, base powers at N = 1 (watts), power-scaling
    exponents, bandwidth, and optional per-antenna circuit power."""

    alpha1: float = 0.0
    alpha2: float = 0.0
    p_bs_base: float = 1.0
    p_ut_base: float = 1.0
    t_bs: float = 0.0
    t_ut: float = 0.0
    bandwidth_hz: float = 15_000.0
    circuit_power: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.alpha1 < 0.0 or self.alpha2 < 0.0:
            raise ValueError("overhead multipliers must be nonnegative")
        if not (self.p_bs_base > 0.0 and self.p_ut_base > 0.0):
            raise ValueError("base powers must be positive")
        if self.t_bs < 0.0 or self.t_ut < 0.0:
            raise ValueError("scaling exponents must be nonnegative")
        if not (self.bandwidth_hz > 0.0):
            raise ValueError("bandwidth must be positive")
        if self.circuit_power < 0.0:
            raise ValueError("circuit power must be nonnegative")

    def powers(self, n: int) -> tuple[float, float]:
        """(p_bs, p_ut) at array size n: the base powers scaled by 1/n^t."""
        return (scaled_power(self.p_bs_base, n, self.t_bs),
                scaled_power(self.p_ut_base, n, self.t_ut))

    def exponents_admissible(self) -> bool:
        """Whether the asymptotic non-zero-rate guarantee applies:
        t_bs >= 0, 0 < t_ut < 1/2, t_bs + t_ut < 1."""
        return (self.t_bs >= 0.0 and 0.0 < self.t_ut < 0.5
                and self.t_bs + self.t_ut < 1.0)


def scaled_power(p_base: float, n: int, t: float) -> float:
    """Power at array size n under 1/n^t scaling: p_base / n**t."""
    if not (p_base > 0.0) or not math.isfinite(p_base):
        raise ValueError("base power must be positive and finite")
    n = _dimension(n)
    if not (t >= 0.0) or not math.isfinite(t):
        raise ValueError("scaling exponent must be nonnegative and finite")
    return p_base / n ** t


def energy_efficiency(capacity_bits: float, p_bs: float, p_ut: float,
                      cfg: EnergyConfig, n: int = 1) -> float:
    """Bits/Joule: capacity * bandwidth / total radiated (+ circuit) power.

    The optional per-antenna circuit power adds n * circuit_power to the
    denominator; it defaults to zero.
    """
    if not (capacity_bits >= 0.0) or not math.isfinite(capacity_bits):
        raise ValueError("capacity must be nonnegative and finite")
    total = ((1.0 + cfg.alpha1) * p_bs + cfg.alpha2 * p_ut
             + n * cfg.circuit_power)
    if not (total > 0.0) or not math.isfinite(total):
        raise ValueError("total power must be positive and finite")
    return capacity_bits * cfg.bandwidth_hz / total


@dataclass(frozen=True)
class EnergyPoint:
    n: int
    hardware: str
    imp: ImpairmentProfile
    p_bs: float
    p_ut: float
    capacity: MonteCarloEstimate
    ee: float
    ee_std_error: float


def warn_if_inadmissible(ecfg: EnergyConfig) -> None:
    """UserWarning unless ``ecfg.exponents_admissible()``."""
    if not ecfg.exponents_admissible():
        warnings.warn(
            f"scaling exponents (t_bs={ecfg.t_bs:g}, t_ut={ecfg.t_ut:g}) are "
            "outside the admissible region; asymptotic rate guarantees do "
            "not apply", stacklevel=3)


def ee_points(n: int, channel, specs, n_samples: int, seed: int,
              workers: int = 1) -> list[EnergyPoint]:
    """Sweep points of an n-antenna array on one shared pilot chain:
    ``channel`` is its (R, S, sigma2_ut), ``specs`` lists one
    (EnergyConfig, hardware name, ImpairmentProfile) per point, and each
    rate is the Monte-Carlo lower bound at that point's scaled powers, on
    up to ``workers`` processes."""
    r, s, sigma2 = channel
    links = []
    for ecfg, _, imp in specs:
        p_bs, p_ut = ecfg.powers(n)
        links.append((UplinkConfig(r=r, s=s, p_ut=p_ut, imp=imp),
                      DownlinkConfig(p_bs=p_bs, sigma2_ut=sigma2, imp=imp)))
    caps = lower_bound_mc_batch(links, n_samples, seed, workers)
    points = []
    for (ecfg, hardware, imp), (ul, dl), cap in zip(specs, links, caps):
        points.append(EnergyPoint(
            n=n, hardware=hardware, imp=imp, p_bs=dl.p_bs, p_ut=ul.p_ut,
            capacity=cap,
            ee=energy_efficiency(cap.value, dl.p_bs, ul.p_ut, ecfg, n=n),
            # the efficiency is linear in the rate, so it scales the SE alike
            ee_std_error=energy_efficiency(cap.std_error, dl.p_bs, ul.p_ut,
                                           ecfg, n=n)))
    return points


def ee_sweep(channel_model, ecfg: EnergyConfig, n_grid,
             profiles: dict[str, ImpairmentProfile],
             n_samples: int, seed: int) -> list[EnergyPoint]:
    """Power-scaled efficiency sweep over array sizes: one point per (n,
    hardware profile) in grid order. The points of one n are ``ee_points``
    on one pilot chain seeded by derive_seed(seed, n), as in the CLI.
    ``channel_model(n)`` returns (R, S, sigma2_ut); it is called once per n."""
    n_grid = list(n_grid)
    if not n_grid:
        raise ValueError("array-size grid must be non-empty")
    warn_if_inadmissible(ecfg)
    specs = [(ecfg, name, imp) for name, imp in profiles.items()]
    return [pt for n in n_grid
            for pt in ee_points(n, channel_model(n), specs, n_samples,
                                derive_seed(seed, n))]
