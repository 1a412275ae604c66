"""Seeded experiment drivers emitting deterministic CSV sweep tables.

Each experiment reproduces one of the standard performance figures:

* ``estimation-error``   -- per-antenna LMMSE error vs uplink SNR
* ``capacity-vs-n``      -- capacity bounds vs array size
* ``capacity-vs-kappa``  -- capacity bounds vs base-station impairments
* ``energy-efficiency``  -- bits/Joule under 1/N^t power scaling

Output schema is fixed: experiment,n,snr_db,kappa_bs,kappa_ut,t,metric,
value,std_error. Analytic metrics leave std_error empty. Tables are
byte-identical given (config, seed), regardless of worker count: the
grid points that share an array size N share one Monte-Carlo draw set,
seeded by derive_seed(seed, N), and output rows follow grid order, not
completion order.
"""

from __future__ import annotations

import math
import numbers
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .capacity import (
    DownlinkConfig,
    capacity_ideal_jensen,
    capacity_upper_bound,
    lower_bound_mc_batch,
    upper_limit_large_n,
)
from .energy import EnergyConfig, ee_points, warn_if_inadmissible
from .estimation import (
    ImpairmentProfile,
    UplinkConfig,
    empirical_mse_batch,
    error_floor,
    mse_per_antenna,
)
from .randmat import CovarianceMatrix, derive_seed, exponential_correlation

EXPERIMENTS = (
    "estimation-error",
    "capacity-vs-n",
    "capacity-vs-kappa",
    "energy-efficiency",
)

CSV_COLUMNS = ("experiment", "n", "snr_db", "kappa_bs", "kappa_ut", "t",
               "metric", "value", "std_error")

# Grid defaults: EVM levels 0/5/10/15 %, power-of-two array sizes, and the
# -10..50 dB SNR axis.
KAPPA_LEVELS = (0.0, 0.05 ** 2, 0.10 ** 2, 0.15 ** 2)
N_GRID_POW2 = tuple(2 ** k for k in range(11))
SNR_DB_GRID = tuple(float(v) for v in range(-10, 55, 5))
T_GRID = (0.0, 0.25, 0.5)

EXP_CORR_RHO = 0.7
SNR_DB_FIXED = 20.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _pilot_power(snr_db: float, n: int) -> float:
    """Pilot power p at uplink SNR snr_db = p tr R / tr S, for the runners'
    R and S: both have trace n."""
    return db_to_linear(snr_db) * n / n


# Grid field -> (what each of its values must be, the test).
_GRID_RULES = {
    "n_grid": ("integers >= 1",
               lambda n: isinstance(n, numbers.Integral) and n >= 1),
    "snr_db": ("finite", math.isfinite),
    "kappa": ("finite and >= 0", lambda k: math.isfinite(k) and k >= 0.0),
    "t": ("finite and >= 0", lambda t: math.isfinite(t) and t >= 0.0),
}


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 1
    n_samples: int | None = None  # None: 1e4 per point for N <= 256, else 1e3
    out: str | None = None
    n_grid: list[int] | None = None
    snr_db: list[float] | None = None
    kappa: list[float] | None = None
    t: list[float] | None = None
    workers: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        for name in ("seed", "n_samples", "workers"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Integral)
                    or (v is None and name == "n_samples")):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.n_samples is not None and self.n_samples < 1000:
            raise ValueError("sample count must be at least 1000")
        if self.workers < 1:
            raise ValueError("worker count must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for name, (rule, ok) in _GRID_RULES.items():
            v = getattr(self, name)
            if v is not None and len(v) == 0:
                raise ValueError(f"{name} grid must be non-empty")
            for x in v or ():
                if not ok(x):
                    raise ValueError(f"{name} values must be {rule}, got {x}")
        for value, power in self._powers():
            try:
                p = power()
            except OverflowError:
                p = math.inf
            if not 0.0 < p < math.inf:
                raise ValueError(f"{value} gives a linear power outside "
                                 "(0, inf)")

    def sizes(self) -> list[int]:
        """The run's array sizes: n_grid, or the experiment's default."""
        if self.n_grid:
            return list(self.n_grid)
        if self.experiment == "estimation-error":
            return [10, 100]
        return list(N_GRID_POW2)

    def _powers(self):
        """(grid value, power()) for every linear power the grids imply, as
        the runners form it: an SNR point's pilot power, and the
        energy-efficiency powers p_base / N^t. Each falls, or overflows, as
        N grows, so the largest N decides."""
        n = max(self.sizes())
        for snr_db in self.snr_db or ():
            yield (f"snr_db value {snr_db:g}",
                   lambda snr_db=snr_db: _pilot_power(snr_db, n))
        if self.experiment == "energy-efficiency":
            for t in T_GRID if self.t is None else self.t:
                yield (f"t value {t:g} at N = {n}",
                       lambda t=t: min(_ee_config(t).powers(n)))

    def samples_for(self, n: int) -> int:
        if self.n_samples is not None:
            return self.n_samples
        return 10_000 if n <= 256 else 1_000


@dataclass
class SweepTable:
    """Result rows in CSV_COLUMNS order."""

    rows: list[tuple] = field(default_factory=list)

    def add(self, experiment: str, metric: str, value: float, *, n=None,
            snr_db=None, kappa_bs=None, kappa_ut=None, t=None, std_error=None):
        self.rows.append((experiment, n, snr_db, kappa_bs, kappa_ut, t,
                          metric, value, std_error))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return format(float(value), ".17g")


def csv_text(table: SweepTable) -> str:
    """Header and rows, LF endings, round-trip exact 17-digit floats."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_fmt(v) for v in row) for row in table.rows)
    return "\n".join(lines) + "\n"


def write_csv(table: SweepTable, path) -> None:
    """Write ``csv_text(table)`` to ``path`` as UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text(table))


def _sweep(group_fn, n_grid: list, grid: list, workers: int) -> SweepTable:
    """Run ``group_fn(n)`` once per array size on up to ``workers`` threads
    and join the rows of the grid points in ``grid`` order, whatever the
    pool size. ``group_fn(n)`` returns {grid point: SweepTable} for every
    point with that n. Callers build covariances before the sweep; an
    exponential correlation forms its arrays where they are first used."""
    sizes = list(dict.fromkeys(n_grid))
    if workers <= 1 or len(sizes) <= 1:
        groups = [group_fn(n) for n in sizes]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(group_fn, sizes))
    tables = {point: sub for group in groups for point, sub in group.items()}
    return SweepTable([row for point in grid for row in tables[point].rows])


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# estimation-error: analytic + empirical per-antenna MSE and the error floor
# vs uplink SNR, for exponentially correlated R (trace N) and S = I.
# ---------------------------------------------------------------------------

def run_estimation_error(cfg: ExperimentConfig) -> SweepTable:
    exp = cfg.experiment
    n_grid = cfg.sizes()
    kappas = cfg.kappa if cfg.kappa is not None else list(KAPPA_LEVELS)
    snrs = cfg.snr_db if cfg.snr_db is not None else list(SNR_DB_GRID)

    covs = {n: (exponential_correlation(n, EXP_CORR_RHO),
                CovarianceMatrix.identity(n)) for n in n_grid}
    imps = {k: ImpairmentProfile(kappa_t_ut=k, kappa_r_bs=k) for k in kappas}
    points = list(dict.fromkeys((k, snr_db) for k in kappas
                                for snr_db in snrs))

    def one_n(n):
        _progress(f"estimation-error: N={n} ({len(points)} points)")
        r, s = covs[n]
        uls = [UplinkConfig(r=r, s=s, p_ut=_pilot_power(snr_db, n),
                            imp=imps[k]) for k, snr_db in points]
        ests = empirical_mse_batch(uls, cfg.samples_for(n),
                                   derive_seed(cfg.seed, n))
        floors, out = {}, {}
        for (k, snr_db), ul, est in zip(points, uls, ests):
            if k not in floors:
                floors[k] = error_floor(ul).trace() / n
            sub = out[n, k, snr_db] = SweepTable()
            kw = dict(n=n, snr_db=snr_db, kappa_bs=k, kappa_ut=k)
            sub.add(exp, "mse_analytic", mse_per_antenna(ul), **kw)
            sub.add(exp, "mse_floor", floors[k], **kw)
            sub.add(exp, "mse_empirical", est.value, std_error=est.std_error,
                    **kw)
        return out

    grid = [(n, k, snr_db) for n in n_grid for k in kappas for snr_db in snrs]
    return _sweep(one_n, n_grid, grid, cfg.workers)


# ---------------------------------------------------------------------------
# capacity experiments: R = S = I, pilot and data SNR both fixed at 20 dB.
# ---------------------------------------------------------------------------

# Fixed terminal impairment level for the BS-impairment sweep.
KAPPA_UT_FIXED = 0.05 ** 2


def run_capacity(cfg: ExperimentConfig) -> SweepTable:
    """capacity-vs-n sweeps one kappa at both ends of the link and adds the
    ideal-hardware curve and the large-array ceiling; capacity-vs-kappa
    sweeps the BS level with the terminal level fixed at KAPPA_UT_FIXED."""
    exp = cfg.experiment
    vs_n = exp == "capacity-vs-n"
    n_grid = cfg.sizes()
    kappas = cfg.kappa if cfg.kappa is not None else list(KAPPA_LEVELS)
    snr_db = cfg.snr_db[0] if cfg.snr_db else SNR_DB_FIXED

    covs = {n: CovarianceMatrix.identity(n) for n in n_grid}  # R = S = I
    ut = {k: k if vs_n else KAPPA_UT_FIXED for k in kappas}
    imps = {k: ImpairmentProfile(k, k, ut[k], ut[k]) for k in kappas}

    def one_n(n):
        _progress(f"{exp}: N={n} ({len(imps)} points)")
        r = s = covs[n]
        p = _pilot_power(snr_db, n)
        sigma2 = s.trace() / n  # per-antenna noise level
        links = [(UplinkConfig(r=r, s=s, p_ut=p, imp=imps[k]),
                  DownlinkConfig(p_bs=p, sigma2_ut=sigma2, imp=imps[k]))
                 for k in imps]
        ests = lower_bound_mc_batch(links, cfg.samples_for(n),
                                    derive_seed(cfg.seed, n))
        out = {}
        for kappa_bs, (_, dl), est in zip(imps, links, ests):
            kappa_ut = ut[kappa_bs]
            sub = out[kappa_bs, n] = SweepTable()
            kw = dict(n=n, snr_db=snr_db, kappa_bs=kappa_bs, kappa_ut=kappa_ut)
            sub.add(exp, "capacity_upper", capacity_upper_bound(r, dl), **kw)
            sub.add(exp, "capacity_lower", est.value, std_error=est.std_error,
                    **kw)
            if vs_n:
                sub.add(exp, "capacity_ideal", capacity_ideal_jensen(r, dl),
                        **kw)
                sub.add(exp, "ceiling_large_n", upper_limit_large_n(kappa_ut),
                        **kw)
        return out

    grid = [(k, n) for k in kappas for n in n_grid]
    return _sweep(one_n, n_grid, grid, cfg.workers)


# ---------------------------------------------------------------------------
# energy-efficiency: base powers 30 dBm (1 W) at N = 1, noise level chosen
# so the N = 1 average SNR is 20 dB, exponential correlation 0.7, 15 kHz.
# ---------------------------------------------------------------------------

EE_P_BASE_W = 1.0
EE_SNR_BASE_DB = 20.0
EE_KAPPA_IMPAIRED = 0.05 ** 2


def _ee_config(t: float) -> EnergyConfig:
    """Base powers EE_P_BASE_W at N = 1, both scaled as 1/N^t."""
    return EnergyConfig(p_bs_base=EE_P_BASE_W, p_ut_base=EE_P_BASE_W,
                        t_bs=t, t_ut=t)


def run_energy_efficiency(cfg: ExperimentConfig) -> SweepTable:
    n_grid = cfg.sizes()
    t_grid = cfg.t if cfg.t is not None else list(T_GRID)
    kappas = cfg.kappa if cfg.kappa is not None else [0.0, EE_KAPPA_IMPAIRED]
    profiles = {("ideal" if k == 0.0 else f"impaired[{k:g}]"):
                ImpairmentProfile.uniform(k) for k in kappas}
    sigma2 = EE_P_BASE_W / db_to_linear(EE_SNR_BASE_DB)
    channels = {n: (exponential_correlation(n, EXP_CORR_RHO),
                    CovarianceMatrix.identity(n).scaled(sigma2), sigma2)
                for n in n_grid}
    ecfgs = {t: _ee_config(t) for t in t_grid}
    for ecfg in ecfgs.values():
        warn_if_inadmissible(ecfg)
    specs = [(ecfg, name, imp) for ecfg in ecfgs.values()
             for name, imp in profiles.items()]

    def one_n(n):
        _progress(f"energy-efficiency: N={n} ({len(specs)} points)")
        pts = ee_points(n, channels[n], specs, cfg.samples_for(n),
                        derive_seed(cfg.seed, n))
        out = {}
        for (ecfg, name, imp), pt in zip(specs, pts):
            t = ecfg.t_bs
            sub = out[t, n, name] = SweepTable()
            kw = dict(n=n, snr_db=EE_SNR_BASE_DB - 10.0 * t * math.log10(n),
                      kappa_bs=imp.kappa_t_bs, kappa_ut=imp.kappa_t_ut, t=t)
            sub.add("energy-efficiency", "ee", pt.ee,
                    std_error=pt.ee_std_error, **kw)
            sub.add("energy-efficiency", "capacity_lower", pt.capacity.value,
                    std_error=pt.capacity.std_error, **kw)
        return out

    grid = [(t, n, name) for t in t_grid for n in n_grid for name in profiles]
    return _sweep(one_n, n_grid, grid, cfg.workers)


RUNNERS = {
    "estimation-error": run_estimation_error,
    "capacity-vs-n": run_capacity,
    "capacity-vs-kappa": run_capacity,
    "energy-efficiency": run_energy_efficiency,
}


def run_experiment(cfg: ExperimentConfig) -> SweepTable:
    return RUNNERS[cfg.experiment](cfg)
