"""Write the stored reference of every workload, or of those named.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once at run.REFERENCE_SEED and stores its grid, its
seed-independent (analytic) values and the SHA-256 of its CSV in
perfbench/reference/<workload>.json. Regenerate only when a change to the
CSV bytes or to the analytic values is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import run
import workloads


def main(names: list[str]) -> int:
    env = run.child_env()
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        out = run.HERE / "out" / f"reference-{name}-{os.getpid()}"
        out.mkdir(parents=True)
        subprocess.run([sys.executable, str(run.HERE / "child.py"),
                        "--workload", name, "--seed", str(run.REFERENCE_SEED),
                        "--trace", "0", "--out", str(out),
                        "--spawned", str(time.monotonic_ns())],
                       env=env, check=True, timeout=600)
        data = (out / "out.csv").read_bytes()
        reference = {"workload": name, "seed": run.REFERENCE_SEED,
                     "csv_sha256": hashlib.sha256(data).hexdigest(),
                     **workloads.make_reference(
                         workloads.parse_csv(data.decode("utf-8")))}
        path = run.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
