"""The benchmark's workloads and the checks on their outputs.

Three workloads run a default experiment of the CLI on a reduced grid; the
fourth, ``bounds-large-n``, calls the closed-form bounds of the library
directly at array sizes where the dense placeholder covariances, not
Monte-Carlo sampling, dominate time and memory. BENCHMARK.json records why
each workload is in the set.

Every run's rows are checked. Rows that do not depend on the seed must
match the stored reference within ``REL_TOL``; Monte-Carlo rows must obey
relations that hold for any seed. A grid point fails when any of its rows
fails.
"""

from __future__ import annotations

import csv
import io
import math
import os

WORKLOADS = ("capacity-iid", "estimation-corr", "ee-scaling-mt",
             "bounds-large-n")

CSV_COLUMNS = ("experiment", "n", "snr_db", "kappa_bs", "kappa_ut", "t",
               "metric", "value", "std_error")
POINT_FIELDS = ("n", "snr_db", "kappa_bs", "kappa_ut", "t")
ANALYTIC = {"mse_analytic", "mse_floor", "capacity_upper", "capacity_ideal",
            "ceiling_large_n"}

# Analytic rows: ROADMAP's 1e-12 relative tolerance, with an absolute
# floor. The error covariances are differences of terms of order one
# (R minus a correction), so their roundoff is absolute, near 1e-16,
# however small the result: the ideal-hardware error floor is such a
# roundoff zero.
REL_TOL = 1e-12
ABS_TOL = 1e-14
# A Monte-Carlo row may miss its analytic relation by this many standard
# errors; at 6 a correct program fails a check about once in 5e8.
K_SE = 6.0

_CLI_GRIDS = {
    "capacity-iid": ["--experiment", "capacity-vs-n", "--n-grid",
                     "256,512,1024", "--kappa", "0.0025", "--samples", "1000"],
    "estimation-corr": ["--experiment", "estimation-error", "--n-grid",
                        "128", "--kappa", "0,0.0025", "--samples", "1000"],
    "ee-scaling-mt": ["--experiment", "energy-efficiency", "--n-grid",
                      "64,256", "--t", "0,0.25,0.5", "--samples", "1000"],
}

BOUNDS_N = (1024, 2048, 4096, 8192)
BOUNDS_KAPPA = (0.0, 0.05 ** 2, 0.10 ** 2, 0.15 ** 2)
BOUNDS_SNR_DB = tuple(float(v) for v in range(-10, 55, 5))


def workers(workload: str) -> int:
    """Grid-level threads: one per core for the parallel workload."""
    return len(os.sched_getaffinity(0)) if workload == "ee-scaling-mt" else 1


def uses_seed(workload: str) -> bool:
    """Whether the workload's outputs depend on the seed (it samples)."""
    return workload in _CLI_GRIDS


def cli_argv(workload: str) -> list[str] | None:
    """CLI arguments of an experiment workload, without seed and output;
    None for the workload that calls the library directly."""
    grid = _CLI_GRIDS.get(workload)
    if grid is None:
        return None
    return grid + ["--workers", str(workers(workload))]


def run_bounds(misolim) -> list[tuple]:
    """Closed-form bounds over BOUNDS_KAPPA x BOUNDS_SNR_DB for each N,
    with R = I and unit noise, as CSV rows."""
    rows = []
    for n in BOUNDS_N:
        r = misolim.CovarianceMatrix.identity(n)
        for kappa in BOUNDS_KAPPA:
            imp = misolim.ImpairmentProfile.uniform(kappa)
            for snr_db in BOUNDS_SNR_DB:
                dl = misolim.DownlinkConfig(p_bs=10.0 ** (snr_db / 10.0),
                                            sigma2_ut=1.0, imp=imp)
                point = ("bounds-large-n", n, snr_db, kappa, kappa, None)
                rows.append(point + ("capacity_upper",
                                     misolim.capacity_upper_bound(r, dl), None))
                rows.append(point + ("capacity_ideal",
                                     misolim.capacity_ideal_jensen(r, dl), None))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return format(float(value), ".17g")


def format_csv(rows) -> str:
    """The CLI's CSV format: 17 significant digits, LF line ends."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {reader.fieldnames}")
    return list(reader)


def point_key(row: dict) -> str:
    return ",".join(row[f] for f in POINT_FIELDS)


def group_points(rows) -> dict[str, dict[str, dict]]:
    """point key -> metric -> row."""
    points: dict[str, dict[str, dict]] = {}
    for row in rows:
        points.setdefault(point_key(row), {})[row["metric"]] = row
    return points


def make_reference(rows) -> dict:
    """Grid, metric set and seed-independent values of one run."""
    points = group_points(rows)
    metrics = sorted({m for p in points.values() for m in p})
    analytic = {f"{key},{metric}": float(row["value"])
                for key, p in points.items() for metric, row in p.items()
                if metric in ANALYTIC}
    return {"points": list(points), "metrics": metrics, "analytic": analytic}


def check_rows(rows, reference: dict) -> set[str]:
    """The grid points of one run that failed their checks."""
    points = group_points(rows)
    expected = reference["points"]
    failed = set(points) ^ set(expected)
    metrics = set(reference["metrics"])
    for key, p in points.items():
        if key in failed:
            continue
        if set(p) != metrics or not _point_ok(key, p, reference["analytic"]):
            failed.add(key)
    return failed


def _point_ok(key: str, p: dict[str, dict], analytic: dict) -> bool:
    value, se = {}, {}
    for metric, row in p.items():
        v = float(row["value"])
        if metric in ANALYTIC:
            ref = analytic[f"{key},{metric}"]
            if v != ref and not math.isclose(v, ref, rel_tol=REL_TOL,
                                             abs_tol=ABS_TOL):
                return False
        else:
            s = float(row["std_error"])
            if not (math.isfinite(v) and math.isfinite(s) and s >= 0.0):
                return False
            se[metric] = s
        value[metric] = v
    if "mse_empirical" in p and not (
            abs(value["mse_empirical"] - value["mse_analytic"])
            <= K_SE * se["mse_empirical"]):
        return False
    if "capacity_lower" in p:
        lower = value["capacity_lower"]
        if "capacity_upper" in p and not (
                lower <= value["capacity_upper"] + K_SE * se["capacity_lower"]):
            return False
        if "capacity_ideal" in p and not lower <= value["capacity_ideal"]:
            return False
    if "ee" in p and not (value["ee"] > 0.0 and value["capacity_lower"] > 0.0):
        return False
    return True
