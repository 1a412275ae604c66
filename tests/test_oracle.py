"""Analytic estimation rows against extended-precision values.

tests/oracle/exp_corr.csv holds mse_analytic and mse_floor for exponential
correlation R (rho = 0.7) and S = I, evaluated from their definitions in
80-digit arithmetic by tests/oracle/make_exp_corr.py (CI regenerates the
file and compares it byte for byte). Both estimation paths must agree
within REL_TOL relative, each checked as the CSV forms its rows:
- R's spectrum (S = I tagged as a scaled identity): ``mse_per_antenna``
  and ``floor_per_antenna``, as ``estimation-error`` prints them;
- the dense Cholesky path (the same R with an untagged S = I):
  ``mse_per_antenna`` and ``error_floor(cfg).trace() / n``. It forms the
  error covariance as R M^{-1} (M - p R) so that nothing cancels (worst
  1.5e-15; R - p R M^{-1} R was off by up to 5.6e-12 at N = 1, kappa = 0,
  50 dB).
The kappa = 0 floors are exact zeros on both paths, hence the ABS_TOL
floor.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from misolim.estimation import (
    ImpairmentProfile,
    UplinkConfig,
    error_floor,
    floor_per_antenna,
    mse_per_antenna,
)
from misolim.experiments import EXP_CORR_RHO, db_to_linear
from misolim.randmat import CovarianceMatrix, exponential_correlation

ORACLE = Path(__file__).parent / "oracle" / "exp_corr.csv"
REL_TOL = 1e-14
ABS_TOL = 1e-300

with open(ORACLE, newline="", encoding="utf-8") as fh:
    ROWS = list(csv.DictReader(fh))


def test_oracle_covers_grid():
    assert EXP_CORR_RHO == 0.7
    points = {(r["n"], r["kappa"], r["snr_db"], r["metric"]) for r in ROWS}
    assert len(points) == len(ROWS) == 4 * 3 * 4 * 2


def _check(row, s):
    n, kappa, snr_db = int(row["n"]), float(row["kappa"]), float(row["snr_db"])
    r = exponential_correlation(n, EXP_CORR_RHO)
    cfg = UplinkConfig(r=r, s=s, p_ut=db_to_linear(snr_db) * s.trace() / r.trace(),
                       imp=ImpairmentProfile(kappa_t_ut=kappa, kappa_r_bs=kappa))
    if row["metric"] == "mse_analytic":
        got = mse_per_antenna(cfg)
    elif s.identity_scale is not None:
        got = floor_per_antenna(cfg)
    else:
        got = error_floor(cfg).trace() / n
    want = float(row["value"])
    assert abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL)


def _row_id(row):
    return ",".join((row["n"], row["kappa"], row["snr_db"], row["metric"]))


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_matches_oracle(row):
    _check(row, CovarianceMatrix.identity(int(row["n"])))


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_dense_path_matches_oracle(row):
    _check(row, CovarianceMatrix(np.eye(int(row["n"]))))
