"""Sweep benchmark for misolim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload again and again, each run in a fresh interpreter started
from this process and waited for before the next, until about S seconds
have passed and at least MIN_RUNS runs are done. Every run's outputs are
checked (see workloads.py), and every run at the given seed must write the
same CSV bytes; a run that differs fails all of its grid points.

With --trace 0 the result holds the end-to-end metrics: the median over
the runs of set-up time (process start to first grid point) and of sweep
time (first grid point to last result written), and the highest peak
resident memory of a run's process. With --trace 1 it spends half the time on
untraced runs, then makes two traced runs at the seed, whose counts must
agree exactly, and one run at REFERENCE_SEED, whose CSV is compared with
the stored reference; the result holds the per-layer metrics of the first
traced run and the tracing overhead against the untraced runs.

misolim is taken from ../src relative to this file. The thread
environment is passed on unchanged and recorded with the machine facts.
The last line of standard output is the JSON result; everything the runs
leave behind goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEED = 1
MIN_RUNS = 3
# Leave room under the 180 s limit for a run that overruns its budget.
DEADLINE_S = 160.0

# Metric -> (unit, how the runs' values are combined). Peak memory is the
# highest of the runs: which grid threads overlap varies from run to run.
END_TO_END = {"setup_s": ("s", statistics.median),
              "sweep_s": ("s", statistics.median),
              "peak_rss_mb": ("MB", max)}

PER_LAYER = (
    "randmat.psd_factor.calls",
    "randmat.psd_factor.self_s",
    "randmat.psd_factor.repeat_ratio",
    "randmat.sample_cn.calls",
    "randmat.sample_cn.self_s",
    "randmat.sample_cn.draws",
    "randmat.sample_cn.flops",
    "randmat.sample_scalar_cn.calls",
    "randmat.sample_scalar_cn.self_s",
    "randmat.CovarianceMatrix.calls",
    "randmat.CovarianceMatrix.self_s",
    "randmat.exponential_correlation.calls",
    "randmat.exponential_correlation.self_s",
    "randmat.nearly_psd.calls",
    "randmat.nearly_psd.self_s",
    "randmat.cov_dense_bytes",
    "estimation.error_covariance.calls",
    "estimation.error_covariance.self_s",
    "estimation.error_floor.calls",
    "estimation.error_floor.self_s",
    "estimation.mse_per_antenna.self_s",
    "estimation.lmmse_filter.calls",
    "estimation.lmmse_filter.self_s",
    "estimation.empirical_mse.calls",
    "estimation.empirical_mse.self_s",
    "estimation.empirical_mse.draws",
    "capacity.lower_bound_mc.calls",
    "capacity.lower_bound_mc.self_s",
    "capacity.lower_bound_mc.draws",
    "capacity.lower_bound_mc.effective_ratio",
    "capacity.capacity_upper_bound.calls",
    "capacity.capacity_upper_bound.self_s",
    "capacity.capacity_ideal_jensen.self_s",
    "specfun.one_minus_x_ex_e1.calls",
    "specfun.one_minus_x_ex_e1.self_s",
    "energy.ee_sweep.self_s",
    "experiments.worker_util",
    "experiments.run_experiment.self_s",
    "experiments.write_csv.self_s",
    "experiments.write_csv.bytes",
    "cli.main.self_s",
    "experiments.csv_identical",
    "trace.overhead_s",
)
UNITS = ((".self_s", "s"), ("overhead_s", "s"), ("_ratio", "ratio"),
         ("worker_util", "ratio"), ("bytes", "B"), (".flops", "flop"),
         ("csv_identical", "bool"))
# Layer metrics that count work; two traced runs at one seed must agree.
EXACT_SUFFIXES = (".calls", ".draws", ".flops", ".bytes", "cov_dense_bytes",
                  ".repeat_ratio", ".effective_ratio")


def child_env() -> dict:
    """This process's environment with ../src first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


class Runner:
    """Starts the runs of one invocation and keeps what they report."""

    def __init__(self, workload: str, seed: int, trace: int) -> None:
        self.workload = workload
        self.seed = seed
        self.reference = json.loads(
            (REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))
        self.out = HERE / "out" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
        self.env = child_env()
        self.started = time.monotonic()
        self.runs: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def facts(self) -> dict:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--facts"],
                              env=self.env, capture_output=True, text=True,
                              timeout=self.remaining(), check=True)
        return json.loads(proc.stdout)

    def run(self, seed: int, traced: bool) -> dict | None:
        """One run; returns its record, or None if it failed outright."""
        index = len(self.runs)
        rundir = self.out / f"run{index:02d}"
        rundir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload",
               self.workload, "--seed", str(seed), "--trace", str(int(traced)),
               "--out", str(rundir)]
        began = time.monotonic()
        with open(rundir / "stderr.txt", "w", encoding="utf-8") as err:
            try:
                spawned = time.monotonic_ns()
                proc = subprocess.run(cmd + ["--spawned", str(spawned)],
                                      env=self.env, stdout=subprocess.DEVNULL,
                                      stderr=err, timeout=max(self.remaining(), 1.0))
                status = proc.returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
        record = {"seed": seed, "traced": traced,
                  "wall_s": time.monotonic() - began}
        self.runs.append(record)
        points = len(self.reference["points"])
        self.attempted += points
        if status != 0:
            tail = (rundir / "stderr.txt").read_text(encoding="utf-8")[-2000:]
            print(f"run {index} failed ({status}):\n{tail}", file=sys.stderr)
            self.failed += points
            self.problems.append(f"run {index} exited with {status}")
            record["failed"] = points
            return None
        record.update(json.loads((rundir / "result.json").read_text(encoding="utf-8")))
        data = (rundir / "out.csv").read_bytes()
        record["csv_sha256"] = hashlib.sha256(data).hexdigest()
        bad = workloads.check_rows(workloads.parse_csv(data.decode("utf-8")),
                                      self.reference)
        if seed == self.seed:
            first = next(r for r in self.runs if r["seed"] == self.seed
                         and "csv_sha256" in r)
            if record["csv_sha256"] != first["csv_sha256"]:
                self.problems.append(f"run {index} wrote different CSV bytes")
                bad = set(self.reference["points"])
        record["failed"] = len(bad)
        self.failed += len(bad)
        return record

    def untraced(self, budget_s: float) -> list[dict]:
        """Untraced runs at the seed until the budget would be overrun."""
        done: list[dict] = []
        while True:
            elapsed = time.monotonic() - self.started
            last = done[-1]["wall_s"] if done else 0.0
            if len(done) >= MIN_RUNS and elapsed + last > budget_s:
                return done
            if self.remaining() < 2.0 * last:
                self.problems.append(f"stopped after {len(done)} runs: no time left")
                return done
            record = self.run(self.seed, traced=False)
            if record is not None:
                done.append(record)


def unit_of(layer_metric: str) -> str:
    return next((unit for suffix, unit in UNITS if layer_metric.endswith(suffix)),
                "count")


def git_rev() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(runner: Runner, traced: list[dict], untraced: list[dict]) -> dict:
    first, second = traced
    for key in first["layers"]:
        if key.endswith(EXACT_SUFFIXES) and first["layers"][key] != second["layers"][key]:
            runner.problems.append(
                f"{key} differs between traced runs: "
                f"{first['layers'][key]} vs {second['layers'][key]}")
    layers = dict(first["layers"])
    layers["trace.overhead_s"] = (
        statistics.median(r["sweep_s"] for r in traced)
        - statistics.median(r["sweep_s"] for r in untraced))
    seeded = workloads.uses_seed(runner.workload)
    reference = [r for r in runner.runs
                 if r["seed"] == REFERENCE_SEED or not seeded]
    layers["experiments.csv_identical"] = int(bool(reference) and all(
        r.get("csv_sha256") == runner.reference["csv_sha256"] for r in reference))
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description="misolim sweep benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "misolim" / "__init__.py").is_file():
        print(f"error: no misolim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.trace)
    # Also warms the file cache and compiles the package before timing.
    facts = runner.facts()
    facts.update(git_rev=git_rev(), src_sha256=src_digest(), seed=args.seed,
                 workload=args.workload, workers=workloads.workers(args.workload))
    # A traced invocation spends half its time on untraced runs, the
    # baseline of the tracing overhead, before the traced ones.
    untraced = runner.untraced(args.seconds / 2 if args.trace else args.seconds)
    traced: list[dict] = []
    if args.trace:
        traced = [r for r in (runner.run(args.seed, traced=True) for _ in range(2))
                  if r is not None]
        if workloads.uses_seed(args.workload) and args.seed != REFERENCE_SEED:
            runner.run(REFERENCE_SEED, traced=False)

    end_to_end = {}
    for name, (unit, combine) in END_TO_END.items():
        values = [r[name] for r in untraced]
        if values:
            end_to_end[name] = {"value": combine(values), "unit": unit}
            q1, q2, q3 = quartiles(values)
            print(f"{args.workload} {name:<12} {combine(values):.6g} {unit} "
                  f"({combine.__name__} of {len(values)} runs; quartiles "
                  f"{q1:.6g} {q2:.6g} {q3:.6g})")
    ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"{args.workload} {'fail_ratio':<12} {ratio:.6g} "
          f"({runner.failed} of {runner.attempted} grid points failed)")

    if args.trace and len(traced) == 2 and untraced:
        layers = layer_metrics(runner, traced, untraced)
        for name, value in layers.items():
            print(f"{args.workload} layer {name:<45} {value:.6g} "
                  f"{unit_of(name)}")
        metrics = {name: {"value": layers[name], "unit": unit_of(name)}
                   for name in PER_LAYER}
    elif args.trace:
        runner.problems.append("tracing failed; no layer metrics")
        metrics = {}
    else:
        metrics = end_to_end

    for problem in runner.problems:
        print(f"{args.workload} problem: {problem}")
    correct = (runner.failed == 0 and not runner.problems
               and len(metrics) == len(PER_LAYER if args.trace else END_TO_END))
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    runner.out.mkdir(parents=True, exist_ok=True)
    (runner.out / "result.json").write_text(
        json.dumps({"facts": facts, "runs": runner.runs, "problems": runner.problems,
                    **result}, indent=1), encoding="utf-8")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
