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

from .capacity import DownlinkConfig, MonteCarloEstimate, lower_bound_mc
from .estimation import ImpairmentProfile, UplinkConfig
from .randmat import derive_seed, parallel_map


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

    def exponents_admissible(self) -> bool:
        """Whether the asymptotic non-zero-rate guarantee applies:
        t_bs >= 0, 0 < t_ut < 1/2, t_bs + t_ut < 1."""
        return (self.t_bs >= 0.0 and 0.0 < self.t_ut < 0.5
                and self.t_bs + self.t_ut < 1.0)


def scaled_power(p_base: float, n: int, t: float) -> float:
    """Power at array size n under 1/n^t scaling: p_base / n**t."""
    if not (p_base > 0.0):
        raise ValueError("base power must be positive")
    if n < 1:
        raise ValueError("array size must be a positive integer")
    if t < 0.0:
        raise ValueError("scaling exponent must be nonnegative")
    return p_base / n ** t


def energy_efficiency(capacity_bits: float, p_bs: float, p_ut: float,
                      cfg: EnergyConfig, n: int = 1) -> float:
    """Bits/Joule: capacity * bandwidth / total radiated (+ circuit) power.

    The optional per-antenna circuit power adds n * circuit_power to the
    denominator; it defaults to zero.
    """
    if capacity_bits < 0.0:
        raise ValueError("capacity must be nonnegative")
    total = ((1.0 + cfg.alpha1) * p_bs + cfg.alpha2 * p_ut
             + n * cfg.circuit_power)
    if total <= 0.0:
        raise ValueError("total power must be positive")
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


def ee_sweep(channel_model, ecfg: EnergyConfig, n_grid,
             profiles: dict[str, ImpairmentProfile],
             n_samples, seed: int, workers: int = 1) -> list[EnergyPoint]:
    """Power-scaled efficiency sweep over array sizes.

    ``channel_model(n)`` must return (R, S, sigma2_ut) for an n-antenna
    array; ``n_samples`` is either an int or a callable of n. One point is
    produced per (n, hardware profile), in grid order, each with a seed
    derived from (seed, point index) so the output does not depend on the
    worker count.
    """
    n_grid = list(n_grid)
    if not n_grid:
        raise ValueError("array-size grid must be non-empty")
    if not ecfg.exponents_admissible():
        warnings.warn(
            f"scaling exponents (t_bs={ecfg.t_bs:g}, t_ut={ecfg.t_ut:g}) are "
            "outside the admissible region; asymptotic rate guarantees do "
            "not apply",
            stacklevel=2,
        )
    tasks = list(enumerate((n, name, imp) for n in n_grid
                           for name, imp in profiles.items()))

    def one_point(task) -> EnergyPoint:
        idx, (n, name, imp) = task
        count = n_samples(n) if callable(n_samples) else int(n_samples)
        r, s, sigma2 = channel_model(n)
        p_bs = scaled_power(ecfg.p_bs_base, n, ecfg.t_bs)
        p_ut = scaled_power(ecfg.p_ut_base, n, ecfg.t_ut)
        ul = UplinkConfig(r=r, s=s, p_ut=p_ut, imp=imp)
        dl = DownlinkConfig(p_bs=p_bs, sigma2_ut=sigma2, imp=imp)
        cap = lower_bound_mc(ul, dl, count, derive_seed(seed, idx))
        return EnergyPoint(
            n=n, hardware=name, imp=imp, p_bs=p_bs, p_ut=p_ut, capacity=cap,
            ee=energy_efficiency(cap.value, p_bs, p_ut, ecfg, n=n),
            # the efficiency is linear in the rate, so it scales the SE alike
            ee_std_error=energy_efficiency(cap.std_error, p_bs, p_ut, ecfg,
                                           n=n))

    return parallel_map(one_point, tasks, workers)
