"""Acceptance gate: end-to-end numerical criteria with runtime budgets.

Each test covers one criterion, prints a single PASS/FAIL line (visible
with ``pytest -s`` or on failure), and enforces its runtime budget. Run
order follows the criterion numbering.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from misolim.capacity import (
    DownlinkConfig,
    capacity_upper_bound,
    lower_bound_mc,
    optimal_beamformer,
    sinr_of_beamformer,
    sinr_perfect_csi,
    upper_limit_large_n,
)
from misolim.energy import EnergyConfig, ee_sweep
from misolim.estimation import (
    ImpairmentProfile,
    UplinkConfig,
    empirical_mse,
    error_covariance,
    error_floor_iid,
    mse_per_antenna,
)
from misolim.experiments import ExperimentConfig, run_experiment, write_csv
from misolim.randmat import (
    CovarianceMatrix,
    exponential_correlation,
    sample_cn,
    substream,
)
from misolim.specfun import exp_integral_e1, one_minus_x_ex_e1

KAPPA = 0.05 ** 2  # reference 5 % EVM level


def _verdict(num: int, desc: str, checks, elapsed: float, budget: float):
    ok = all(cond for cond, _ in checks) and elapsed < budget
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} "
          f"({elapsed:.1f}s / budget {budget:g}s)")
    for cond, msg in checks:
        assert cond, f"criterion {num}: {msg}"
    assert elapsed < budget, f"criterion {num}: over runtime budget"


def _e1_oracle(x: float) -> float:
    if x >= 1.0:
        val, _ = quad(lambda t: math.exp(-t * x) / t, 1.0, np.inf,
                      epsabs=1e-300, epsrel=1e-13, limit=300)
        return val
    head, _ = quad(lambda u: math.exp(-u) / u, x, 1.0,
                   epsabs=0.0, epsrel=1e-13, limit=300)
    tail, _ = quad(lambda u: math.exp(-u) / u, 1.0, np.inf,
                   epsabs=1e-300, epsrel=1e-13, limit=300)
    return head + tail


def _symmetric_link(n, kappa_bs, kappa_ut, p=100.0):
    imp = ImpairmentProfile(kappa_t_bs=kappa_bs, kappa_r_bs=kappa_bs,
                            kappa_t_ut=kappa_ut, kappa_r_ut=kappa_ut)
    ul = UplinkConfig(r=CovarianceMatrix.identity(n),
                      s=CovarianceMatrix.identity(n), p_ut=p, imp=imp)
    dl = DownlinkConfig(p_bs=p, sigma2_ut=1.0, imp=imp)
    return ul, dl


def _samples(n: int) -> int:
    return 10_000 if n <= 256 else 1_000


def test_criterion_01_special_functions():
    t0 = time.perf_counter()
    worst = 0.0
    for x in np.logspace(-6, math.log10(50.0), 200):
        oracle = _e1_oracle(x)
        worst = max(worst, abs(exp_integral_e1(x) / oracle - 1.0),
                    abs(one_minus_x_ex_e1(x)
                        / (1.0 - x * math.exp(x) * oracle) - 1.0))
    elapsed = time.perf_counter() - t0
    _verdict(1, "special functions vs quadrature oracle",
             [(worst <= 1e-10, f"worst relative error {worst:.2e}")],
             elapsed, 1.0)


def test_criterion_02_estimation_error_floor():
    t0 = time.perf_counter()
    n = 10
    imp = ImpairmentProfile(kappa_t_ut=KAPPA, kappa_r_bs=KAPPA)
    ul = UplinkConfig(r=CovarianceMatrix.identity(n),
                      s=CovarianceMatrix.identity(n), p_ut=1e6, imp=imp)
    floor = error_floor_iid(1.0, KAPPA, KAPPA)
    analytic = mse_per_antenna(ul)
    emp = empirical_mse(ul, 100_000, seed=1)
    elapsed = time.perf_counter() - t0
    _verdict(2, "estimation error floor, analytic and empirical", [
        (abs(floor - 0.00497512437810945) <= 1e-12,
         f"closed-form floor {floor!r}"),
        (abs(analytic - floor) <= 1e-5,
         f"SNR 60 dB MSE {analytic!r} vs floor {floor!r}"),
        (abs(emp.value / analytic - 1.0) <= 0.01,
         f"empirical MSE {emp.value!r} vs analytic {analytic!r}"),
    ], elapsed, 30.0)


def test_criterion_03_iid_specialization():
    t0 = time.perf_counter()
    rng = substream(3)
    worst = 0.0
    for _ in range(20):
        lam = rng.uniform(0.5, 2.0)
        sigma2 = rng.uniform(0.5, 2.0)
        p = rng.uniform(0.1, 10.0)
        kt, kr = rng.uniform(0.0, 0.03, size=2)
        n = int(rng.integers(1, 6))
        imp = ImpairmentProfile(kappa_t_ut=kt, kappa_r_bs=kr)
        ul = UplinkConfig(r=CovarianceMatrix.identity(n).scaled(lam),
                          s=CovarianceMatrix.identity(n).scaled(sigma2),
                          p_ut=p, imp=imp)
        scalar = lam - p * lam ** 2 / (p * lam * (1 + kt + kr) + sigma2)
        c = error_covariance(ul).matrix
        worst = max(worst, float(np.max(np.abs(c - scalar * np.eye(n)))))
    elapsed = time.perf_counter() - t0
    _verdict(3, "matrix error covariance equals iid closed form",
             [(worst <= 1e-14, f"worst entry deviation {worst:.2e}")],
             elapsed, 1.0)


def test_criterion_04_capacity_ceiling():
    t0 = time.perf_counter()
    grid = sorted(set(np.logspace(0, 4, 25).astype(int)))
    vals = []
    for n in grid:
        dl = DownlinkConfig(p_bs=100.0, sigma2_ut=1.0,
                            imp=ImpairmentProfile(kappa_t_bs=KAPPA,
                                                  kappa_r_ut=KAPPA))
        vals.append(capacity_upper_bound(CovarianceMatrix.identity(n), dl))
    ceiling = math.log2(401.0)
    elapsed = time.perf_counter() - t0
    _verdict(4, "capacity upper bound approaches the large-N ceiling", [
        (abs(vals[-1] - ceiling) <= 0.2,
         f"N=1e4 bound {vals[-1]!r} vs ceiling {ceiling!r}"),
        (all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])),
         "bound not monotone in N"),
    ], elapsed, 5.0)


def test_criterion_05_bound_sandwich():
    t0 = time.perf_counter()
    checks = []
    for n in (4, 16, 64, 256, 1024):
        ul, dl = _symmetric_link(n, KAPPA, KAPPA)
        lower = lower_bound_mc(ul, dl, _samples(n), seed=5)
        upper = capacity_upper_bound(ul.r, dl)
        checks.append((lower.value <= upper + 3.0 * lower.std_error,
                       f"N={n}: lower {lower.value!r} above upper {upper!r}"))
        if n == 1024:
            gap = upper_limit_large_n(KAPPA) - lower.value
            checks.append((gap <= 1.5,
                           f"N=1024 lower bound {gap!r} bits below ceiling"))
    elapsed = time.perf_counter() - t0
    _verdict(5, "lower bound sandwiched under the upper bound", checks,
             elapsed, 600.0)


def test_criterion_06_bs_impairments_vanish():
    t0 = time.perf_counter()
    results = {}
    for n in (4, 1024):
        for kappa_bs in (0.0, 0.15 ** 2):
            imp = ImpairmentProfile(kappa_t_bs=kappa_bs, kappa_r_bs=kappa_bs,
                                    kappa_t_ut=KAPPA, kappa_r_ut=KAPPA)
            ul = UplinkConfig(r=CovarianceMatrix.identity(n),
                              s=CovarianceMatrix.identity(n), p_ut=100.0,
                              imp=imp)
            dl = DownlinkConfig(p_bs=100.0, sigma2_ut=1.0, imp=imp)
            results[n, kappa_bs] = lower_bound_mc(ul, dl, _samples(n), seed=6)
    big_ideal, big_bad = results[1024, 0.0], results[1024, 0.15 ** 2]
    small_ideal, small_bad = results[4, 0.0], results[4, 0.15 ** 2]
    gap_big = abs(big_ideal.value - big_bad.value)
    se_big = math.hypot(big_ideal.std_error, big_bad.std_error)
    small_margin = (small_ideal.value - small_bad.value
                    - 3.0 * math.hypot(small_ideal.std_error,
                                       small_bad.std_error))
    elapsed = time.perf_counter() - t0
    _verdict(6, "BS impairment impact vanishes as N grows", [
        (gap_big <= max(0.15, 6.0 * se_big),
         f"N=1024 gap {gap_big!r} bits"),
        (small_margin > 0.0,
         f"N=4 impaired bound not significantly lower ({small_margin!r})"),
    ], elapsed, 600.0)


def test_criterion_07_beamformer_optimality():
    t0 = time.perf_counter()
    r = exponential_correlation(8, 0.7)
    dl = DownlinkConfig(p_bs=100.0, sigma2_ut=1.0,
                        imp=ImpairmentProfile(kappa_t_bs=0.01,
                                              kappa_r_ut=KAPPA))
    dominated = strict = True
    for i in range(100):
        rng = substream(7, i)
        h = sample_cn(r, rng)
        best = sinr_perfect_csi(h, dl)
        w_opt = optimal_beamformer(h, dl)
        assert sinr_of_beamformer(h, w_opt, dl) == pytest.approx(best,
                                                                 rel=1e-10)
        mrt = np.conj(h) / np.linalg.norm(h)
        strict &= best > sinr_of_beamformer(h, mrt, dl) * (1.0 + 1e-12)
        trials = sample_cn(CovarianceMatrix.identity(8), rng, size=1000)
        trials /= np.linalg.norm(trials, axis=1, keepdims=True)
        dominated &= all(sinr_of_beamformer(h, w, dl) <= best * (1.0 + 1e-12)
                         for w in trials)
    elapsed = time.perf_counter() - t0
    _verdict(7, "closed-form beamformer dominates sampled beamformers", [
        (dominated, "a random beamformer beat the closed-form optimum"),
        (strict, "no strict improvement over exact MRT"),
    ], elapsed, 30.0)


def test_criterion_08_power_scaling_limit():
    t0 = time.perf_counter()
    n, t = 1024, 0.25
    p = 100.0 / n ** t
    ul, dl = _symmetric_link(n, KAPPA, KAPPA, p=p)
    lower = lower_bound_mc(ul, dl, _samples(n), seed=8)
    target = 0.85 * math.log2(1.0 + 1.0 / (2 * KAPPA + KAPPA ** 2))
    elapsed = time.perf_counter() - t0
    _verdict(8, "rate survives 1/N^(1/4) power scaling", [
        (lower.value + 3.0 * lower.std_error >= target,
         f"scaled-power bound {lower.value!r} below target {target!r}"),
    ], elapsed, 600.0)


def test_criterion_09_energy_efficiency_trends():
    t0 = time.perf_counter()

    def channel(n):
        return (exponential_correlation(n, 0.7),
                CovarianceMatrix.identity(n).scaled(0.01), 0.01)

    profiles = {"ideal": ImpairmentProfile(),
                "impaired": ImpairmentProfile.uniform(KAPPA)}
    n_grid = [1, 4, 16, 64, 256, 1024]
    with pytest.warns(UserWarning):
        half = ee_sweep(channel, EnergyConfig(t_bs=0.5, t_ut=0.5), n_grid,
                        profiles, n_samples=2000, seed=9)
    with pytest.warns(UserWarning):
        flat = ee_sweep(channel, EnergyConfig(t_bs=0.0, t_ut=0.0),
                        [128, 1024], {"impaired": profiles["impaired"]},
                        n_samples=2000, seed=9)
    by = {(pt.n, pt.hardware): pt for pt in half}
    curve = [by[n, "impaired"].ee for n in n_grid]
    # >= 2x per decade of array growth over the whole grid
    decades = math.log10(n_grid[-1] / n_grid[0])
    growth_ok = curve[-1] >= 2.0 ** decades * curve[0]
    gap = abs(by[256, "ideal"].ee / by[256, "impaired"].ee - 1.0)
    elapsed = time.perf_counter() - t0
    _verdict(9, "energy-efficiency scaling trends", [
        (all(a < b for a, b in zip(curve, curve[1:])),
         "t=1/2 efficiency not strictly increasing"),
        (growth_ok, "t=1/2 efficiency grows slower than 2x per decade"),
        (flat[1].ee <= 1.5 * flat[0].ee,
         f"t=0 efficiency still growing: {flat[1].ee / flat[0].ee!r}"),
        (gap <= 0.25, f"ideal-vs-impaired gap {gap!r} at N=256"),
    ], elapsed, 900.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        # energy-efficiency samples its lower bound, so its chunks are
        # drawn and, at 4 workers, split over forked processes
        cfg = ExperimentConfig(experiment="energy-efficiency", seed=11,
                               n_samples=1000, n_grid=[2, 8], t=[0.25],
                               workers=workers)
        path = tmp_path / f"{tag}.csv"
        write_csv(run_experiment(cfg), path)
        outs.append(path.read_bytes())
    elapsed = time.perf_counter() - t0
    _verdict(10, "byte-identical CSV across reruns and worker counts", [
        (outs[0] == outs[1], "rerun with identical seed changed the CSV"),
        (outs[0] == outs[2], "worker count changed the CSV"),
    ], elapsed, 60.0)
