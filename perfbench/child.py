"""One run of a benchmark workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \\
        --out DIR --spawned NS
    python3 perfbench/child.py --facts

``--spawned`` is the monotonic clock, in ns, just before the parent
started this process; set-up time runs from it to the first grid point.
The run writes its CSV to DIR/out.csv and its timings to DIR/result.json;
a traced run adds the per-layer metrics there and its spans to
DIR/spans.json. ``--facts`` prints the interpreter, library and BLAS
facts as JSON. misolim is imported from the ``src`` directory next to
this one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _import_misolim():
    import misolim
    import misolim.cli  # noqa: F401  (binds run_experiment and write_csv)

    src = (ROOT / "src").resolve()
    if src not in Path(misolim.__file__).resolve().parents:
        raise SystemExit(f"misolim imported from {misolim.__file__}, not {src}")
    return misolim


def facts() -> dict:
    misolim = _import_misolim()
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "misolim": misolim.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def run(args) -> dict:
    misolim = _import_misolim()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(misolim)
    marks: dict[str, int] = {}
    csv_path = args.out / "out.csv"
    argv = workloads.cli_argv(args.workload)
    root = tracer.span("bench.workload") if tracer else contextlib.nullcontext()
    if argv is not None:
        cli = misolim.cli
        run_experiment = cli.run_experiment

        def first_point(cfg):
            marks["first"] = time.monotonic_ns()
            return run_experiment(cfg)

        cli.run_experiment = first_point
        with root:
            status = cli.main(argv + ["--seed", str(args.seed),
                                      "--out", str(csv_path)])
            marks["end"] = time.monotonic_ns()
        if status != 0:
            raise SystemExit(f"misolim exited with status {status}")
    else:
        with root:
            marks["first"] = time.monotonic_ns()
            rows = workloads.run_bounds(misolim)
            marks["end"] = time.monotonic_ns()
        csv_path.write_text(workloads.format_csv(rows), encoding="utf-8")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "setup_s": (marks["first"] - args.spawned) / 1e9,
        "sweep_s": (marks["end"] - marks["first"]) / 1e9,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if tracer is not None:
        from tracer import layer_stats

        result["layers"] = layer_stats(
            tracer.spans, (marks["first"], marks["end"]),
            threading.main_thread().ident, workloads.workers(args.workload))
        with open(args.out / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--facts", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spawned", type=int)
    args = parser.parse_args()
    if args.facts:
        print(json.dumps(facts()))
        return 0
    if None in (args.workload, args.seed, args.out, args.spawned):
        parser.error("--workload, --seed, --out and --spawned are required")
    result = run(args)
    with open(args.out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
