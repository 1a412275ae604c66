"""Cross-machine check of the CSV values against committed golden files.

Each file in tests/golden/ is the output of

    misolim --experiment E <GRIDS[E]> --samples 1000 --out tests/golden/E.csv

at seed 1. Criterion 10 checks byte identity on one machine; this test
allows for a different BLAS or numpy, which may move the last bits: every
column except value and std_error must match exactly, and those two
within REL_TOL relative with an ABS_TOL floor for roundoff zeros.
"""

import csv
import math
from pathlib import Path

import pytest

from misolim.cli import main
from misolim.experiments import CSV_COLUMNS, EXPERIMENTS

GOLDEN = Path(__file__).parent / "golden"
GRIDS = {
    "estimation-error": ["--n-grid", "8,32", "--kappa", "0,0.0025",
                         "--snr-db=-10,10,30"],
    "capacity-vs-n": ["--n-grid", "4,64", "--kappa", "0,0.01"],
    "capacity-vs-kappa": ["--n-grid", "4,64", "--kappa", "0,0.01"],
    "energy-efficiency": ["--n-grid", "4,64", "--t", "0,0.5"],
}
REL_TOL = 1e-12
ABS_TOL = 1e-14
NUMERIC = ("value", "std_error")


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == CSV_COLUMNS
        return [dict(zip(CSV_COLUMNS, row)) for row in reader]


def close(got: str, want: str) -> bool:
    if got == want:
        return True
    if "" in (got, want):
        return False
    a, b = float(got), float(want)
    return math.isfinite(b) and abs(a - b) <= max(REL_TOL * abs(b), ABS_TOL)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_matches_golden(experiment, tmp_path):
    out = tmp_path / "out.csv"
    argv = ["--experiment", experiment, *GRIDS[experiment],
            "--samples", "1000", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    got, want = read_rows(out), read_rows(GOLDEN / f"{experiment}.csv")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for col in CSV_COLUMNS:
            if col in NUMERIC:
                assert close(g[col], w[col]), (col, g, w)
            else:
                assert g[col] == w[col], (col, g, w)
