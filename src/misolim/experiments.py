"""Seeded experiment drivers emitting deterministic CSV sweep tables.

Each experiment reproduces one of the standard performance figures:

* ``estimation-error``   -- per-antenna LMMSE error vs uplink SNR
* ``capacity-vs-n``      -- capacity bounds vs array size
* ``capacity-vs-kappa``  -- capacity bounds vs base-station impairments
* ``energy-efficiency``  -- bits/Joule under 1/N^t power scaling

Output columns are fixed, in CSV_COLUMNS order; closed-form metrics leave
std_error empty, and an exact capacity_lower, a quadrature, writes 0
(``capacity.lower_bound_is_exact``): every one of the capacity
experiments, which draw nothing, and the kappa = 0 rows of
energy-efficiency (their ee too). Those rows depend on neither the seed
nor the sample count; only energy-efficiency's impaired rows and
estimation-error's mse_empirical rows are sampled. Tables are
byte-identical given (config, seed), regardless of worker count:
``_sweep`` runs the grid points that share an array size N on one
Monte-Carlo draw set, seeded by derive_seed(seed, N), and writes rows in
grid order. The workers are processes that share the Monte-Carlo chunks
of each draw set, chunk j drawn from its own substream whatever process
runs it (``estimation._map_chunks``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .capacity import (
    DownlinkConfig,
    capacity_ideal_jensen,
    capacity_upper_bound,
    lower_bound_rates,
    upper_limit_large_n,
)
from .energy import EnergyConfig, ee_points, warn_if_inadmissible
from .estimation import (
    ImpairmentProfile,
    UplinkConfig,
    _check_draws,
    empirical_mse_batch,
    floor_per_antenna,
    mse_per_antenna,
)
from .randmat import (
    CovarianceMatrix,
    _is_finite,
    _is_int,
    derive_seed,
    exponential_correlation,
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
EE_KAPPA_IMPAIRED = 0.05 ** 2

# The grids each experiment's runner reads, with their defaults; the
# capacity sweeps take one SNR. A config resolves every unset grid from
# here and rejects any other grid.
GRIDS = {
    "estimation-error": dict(n_grid=(10, 100), snr_db=SNR_DB_GRID,
                             kappa=KAPPA_LEVELS),
    "capacity-vs-n": dict(n_grid=N_GRID_POW2, snr_db=(SNR_DB_FIXED,),
                          kappa=KAPPA_LEVELS),
    "capacity-vs-kappa": dict(n_grid=N_GRID_POW2, snr_db=(SNR_DB_FIXED,),
                              kappa=KAPPA_LEVELS),
    "energy-efficiency": dict(n_grid=N_GRID_POW2,
                              kappa=(0.0, EE_KAPPA_IMPAIRED), t=T_GRID),
}
EXPERIMENTS = tuple(GRIDS)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _pilot_power(snr_db: float, n: int) -> float:
    """Pilot power p at uplink SNR snr_db = p tr R / tr S, for the runners'
    R and S: both have trace n."""
    return db_to_linear(snr_db) * n / n


# Grid field -> (what each of its values must be, the test). kappa > 1 is an
# EVM above 100 %: more distortion than signal.
_GRID_RULES = {
    "n_grid": ("integers >= 1", lambda n: _is_int(n) and n >= 1),
    "snr_db": ("finite", _is_finite),
    "kappa": ("in [0, 1]", lambda k: _is_finite(k) and 0.0 <= k <= 1.0),
    "t": ("finite and >= 0", lambda t: _is_finite(t) and t >= 0.0),
}


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 1
    n_samples: int | None = None  # None: 1e4 per point for N <= 256, else 1e3
    out: str | None = None
    # grids: None takes the experiment's default from GRIDS
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
        # n_samples None takes ``samples_for``'s defaults, which pass
        _check_draws(self.samples_for(1), self.seed, 1000, self.workers)
        grids = GRIDS[self.experiment]
        for name, (rule, ok) in _GRID_RULES.items():
            v = getattr(self, name)
            if name not in grids:
                if v is not None:
                    raise ValueError(f"{self.experiment} reads no {name} grid")
                continue
            if v is None:
                v = list(grids[name])
                setattr(self, name, v)
            if len(v) == 0:
                raise ValueError(f"{name} grid must be non-empty")
            seen = set()
            for x in v:
                if not ok(x):
                    raise ValueError(f"{name} values must be {rule}, got {x}")
                if x in seen:
                    raise ValueError(f"{name} values must be distinct, "
                                     f"got {x} twice")
                seen.add(x)
        if self.experiment.startswith("capacity-") and len(self.snr_db) > 1:
            raise ValueError(f"{self.experiment} runs at one snr_db value, "
                             f"got {len(self.snr_db)}")
        for value, power in self._powers():
            try:
                p = power()
            except OverflowError:
                p = math.inf
            if not 0.0 < p < math.inf:
                raise ValueError(f"{value} gives a linear power outside "
                                 "(0, inf)")

    def _powers(self):
        """(grid value, power()) for every linear power the grids imply, as
        the runners form it: an SNR point's pilot power, and the
        energy-efficiency powers p_base / N^t. Each falls, or overflows, as
        N grows, so the largest N decides."""
        n = max(self.n_grid)
        for snr_db in self.snr_db or ():
            yield (f"snr_db value {snr_db:g}",
                   lambda snr_db=snr_db: _pilot_power(snr_db, n))
        for t in self.t or ():
            yield (f"t value {t:g} at N = {n}",
                   lambda t=t: min(_ee_config(t).powers(n)))

    def samples_for(self, n: int) -> int:
        if self.n_samples is not None:
            return self.n_samples
        return 10_000 if n <= 256 else 1_000


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return format(float(value), ".17g")


def csv_text(rows: list[tuple]) -> str:
    """Header and rows (tuples in CSV_COLUMNS order), LF endings,
    round-trip exact 17-digit floats."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(rows: list[tuple], path) -> None:
    """Write ``csv_text(rows)`` to ``path`` as UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text(rows))


def _sweep(cfg: ExperimentConfig, grid: list, one_n) -> list[tuple]:
    """The one per-N step of every experiment. For each array size n of
    ``cfg.n_grid``, in order: print a progress line to stderr, then call
    ``one_n(n, cfg.samples_for(n), derive_seed(cfg.seed, n))``, which runs
    every point of ``grid`` with that n on one draw set, its Monte-Carlo
    chunks on up to ``cfg.workers`` processes, and returns {grid point:
    (columns, [(metric, value, std_error), ...])}, columns mapping CSV
    column names to values. Returns the rows, laid out by CSV_COLUMNS and
    joined in ``grid`` order."""
    per_n = len(grid) // len(cfg.n_grid)
    points = {}
    for n in cfg.n_grid:
        sys.stderr.write(f"{cfg.experiment}: N={n} ({per_n} points)\n")
        sys.stderr.flush()
        points.update(one_n(n, cfg.samples_for(n), derive_seed(cfg.seed, n)))
    rows = []
    for point in grid:
        columns, metrics = points[point]
        for metric, value, std_error in metrics:
            rec = dict(columns, experiment=cfg.experiment, metric=metric,
                       value=value, std_error=std_error)
            rows.append(tuple(rec.get(c) for c in CSV_COLUMNS))
    return rows


# ---------------------------------------------------------------------------
# estimation-error: analytic + empirical per-antenna MSE and the error floor
# vs uplink SNR, for exponentially correlated R (trace N) and S = I.
# ---------------------------------------------------------------------------

def run_estimation_error(cfg: ExperimentConfig) -> list[tuple]:
    imps = {k: ImpairmentProfile(kappa_t_ut=k, kappa_r_bs=k)
            for k in cfg.kappa}
    points = [(k, snr_db) for k in cfg.kappa for snr_db in cfg.snr_db]

    def one_n(n, n_samples, seed):
        r = exponential_correlation(n, EXP_CORR_RHO)
        s = CovarianceMatrix.identity(n)
        uls = [UplinkConfig(r=r, s=s, p_ut=_pilot_power(snr_db, n),
                            imp=imps[k]) for k, snr_db in points]
        ests = empirical_mse_batch(uls, n_samples, seed, cfg.workers)
        floors, out = {}, {}
        for (k, snr_db), ul, est in zip(points, uls, ests):
            if k not in floors:
                floors[k] = floor_per_antenna(ul)
            out[n, k, snr_db] = (
                dict(n=n, snr_db=snr_db, kappa_bs=k, kappa_ut=k),
                [("mse_analytic", mse_per_antenna(ul), None),
                 ("mse_floor", floors[k], None),
                 ("mse_empirical", est.value, est.std_error)])
        return out

    return _sweep(cfg, [(n, *point) for n in cfg.n_grid for point in points],
                  one_n)


# ---------------------------------------------------------------------------
# capacity experiments: R = S = I, pilot and data SNR both fixed at 20 dB.
# ---------------------------------------------------------------------------

# Fixed terminal impairment level for the BS-impairment sweep.
KAPPA_UT_FIXED = 0.05 ** 2


def run_capacity(cfg: ExperimentConfig) -> list[tuple]:
    """capacity-vs-n sweeps one kappa at both ends of the link and adds the
    ideal-hardware curve and the large-array ceiling; capacity-vs-kappa
    sweeps the BS level with the terminal level fixed at KAPPA_UT_FIXED.
    R = S = I, so every lower bound is exact (``lower_bound_rates``) and
    draws nothing: n_samples and seed go unused."""
    vs_n = cfg.experiment == "capacity-vs-n"
    (snr_db,) = cfg.snr_db
    ut = {k: k if vs_n else KAPPA_UT_FIXED for k in cfg.kappa}
    imps = {k: ImpairmentProfile(k, k, ut[k], ut[k]) for k in cfg.kappa}

    def one_n(n, n_samples, seed):
        r = s = CovarianceMatrix.identity(n)
        p = _pilot_power(snr_db, n)
        sigma2 = s.trace() / n  # per-antenna noise level
        links = [(UplinkConfig(r=r, s=s, p_ut=p, imp=imp),
                  DownlinkConfig(p_bs=p, sigma2_ut=sigma2, imp=imp))
                 for imp in imps.values()]
        rates = lower_bound_rates(links, n_samples, seed, cfg.workers)
        out = {}
        for kappa_bs, (_, dl), rate in zip(imps, links, rates):
            kappa_ut = ut[kappa_bs]
            metrics = [("capacity_upper", capacity_upper_bound(r, dl), None),
                       ("capacity_lower", *rate)]
            if vs_n:
                metrics += [
                    ("capacity_ideal", capacity_ideal_jensen(r, dl), None),
                    ("ceiling_large_n", upper_limit_large_n(kappa_ut), None)]
            out[kappa_bs, n] = (dict(n=n, snr_db=snr_db, kappa_bs=kappa_bs,
                                     kappa_ut=kappa_ut), metrics)
        return out

    return _sweep(cfg, [(k, n) for k in cfg.kappa for n in cfg.n_grid], one_n)


# ---------------------------------------------------------------------------
# energy-efficiency: base powers 30 dBm (1 W) at N = 1, noise level chosen
# so the N = 1 average SNR is 20 dB, exponential correlation 0.7, 15 kHz.
# ---------------------------------------------------------------------------

EE_P_BASE_W = 1.0
EE_SNR_BASE_DB = 20.0


def _ee_config(t: float) -> EnergyConfig:
    """Base powers EE_P_BASE_W at N = 1, both scaled as 1/N^t."""
    return EnergyConfig(p_bs_base=EE_P_BASE_W, p_ut_base=EE_P_BASE_W,
                        t_bs=t, t_ut=t)


def run_energy_efficiency(cfg: ExperimentConfig) -> list[tuple]:
    profiles = {k: ImpairmentProfile.uniform(k) for k in cfg.kappa}
    sigma2 = EE_P_BASE_W / db_to_linear(EE_SNR_BASE_DB)
    ecfgs = {t: _ee_config(t) for t in cfg.t}
    for ecfg in ecfgs.values():
        warn_if_inadmissible(ecfg)
    # the hardware name labels EnergyPoint only: points are keyed by kappa
    specs = [(ecfg, "ideal" if k == 0.0 else f"impaired[{k:g}]", imp)
             for ecfg in ecfgs.values() for k, imp in profiles.items()]

    def one_n(n, n_samples, seed):
        channel = (exponential_correlation(n, EXP_CORR_RHO),
                   CovarianceMatrix.identity(n).scaled(sigma2), sigma2)
        pts = ee_points(n, channel, specs, n_samples, seed, cfg.workers)
        out = {}
        for (ecfg, _, imp), pt in zip(specs, pts):
            t = ecfg.t_bs
            out[t, n, imp.kappa_t_bs] = (
                dict(n=n, snr_db=EE_SNR_BASE_DB - 10.0 * t * math.log10(n),
                     kappa_bs=imp.kappa_t_bs, kappa_ut=imp.kappa_t_ut, t=t),
                [("ee", pt.ee, pt.ee_std_error),
                 ("capacity_lower", pt.capacity, pt.capacity_std_error)])
        return out

    grid = [(t, n, k) for t in cfg.t for n in cfg.n_grid for k in profiles]
    return _sweep(cfg, grid, one_n)


RUNNERS = {
    "estimation-error": run_estimation_error,
    "capacity-vs-n": run_capacity,
    "capacity-vs-kappa": run_capacity,
    "energy-efficiency": run_energy_efficiency,
}


def run_experiment(cfg: ExperimentConfig) -> list[tuple]:
    """The experiment's rows, tuples in CSV_COLUMNS order."""
    return RUNNERS[cfg.experiment](cfg)
