"""The exact lower bound for exponentially correlated R against 40-digit
values.

For R = c K_0.7, S = s I and every impairment level 0, ``lower_bound_iid``
takes the bound's moments on R's eigenbasis, with R's spectrum from the
KMS equation. tests/oracle/kms.csv holds E{h^T v} and E{|h^T v|^2} for
such links up to N = 1024, from a different route: the MMSE
orthogonality of a Gaussian channel (see tests/oracle/make_kms.py). The
tolerances are those of the R = c I closed forms in
tests/test_lower_bound_oracle.py, fixed before any output was looked at.
"""

import csv
import math
from pathlib import Path

import pytest

from misolim.capacity import DownlinkConfig, _iid_moments, lower_bound_iid
from misolim.estimation import UplinkConfig
from misolim.randmat import CovarianceMatrix, exponential_correlation

ORACLE = Path(__file__).parent / "oracle" / "kms.csv"
QUAD_REL = 1e-8
RATE_REL = 1e-9


def _cases():
    with open(ORACLE, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["metric"] != "eigenvalue"]
    cases = {}
    for r in rows:
        key = (float(r["rho"]), int(r["n"]), float(r["c"]), float(r["s"]),
               float(r["p"]))
        cases.setdefault(key, {})[r["metric"]] = float(r["value"])
    return cases


CASES = _cases()


def link(rho, n, c, s, p):
    ul = UplinkConfig(r=exponential_correlation(n, rho).scaled(c),
                      s=CovarianceMatrix.identity(n).scaled(s), p_ut=p)
    # the energy-efficiency run's downlink: data power p, noise s
    return ul, DownlinkConfig(p_bs=p, sigma2_ut=s)


def test_cases_reach_n_1024():
    assert max(key[1] for key in CASES) == 1024 and len(CASES) == 10


@pytest.mark.parametrize("case", CASES, ids=str)
def test_moments(case):
    want = CASES[case]
    g, g2, _ = _iid_moments(link(*case)[0])
    assert g == pytest.approx(want["mean_gain"], rel=QUAD_REL, abs=0.0)
    assert g2 == pytest.approx(want["mean_square_gain"], rel=QUAD_REL,
                               abs=0.0)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_rate(case):
    want = CASES[case]
    ul, dl = link(*case)
    g, g2 = want["mean_gain"], want["mean_square_gain"]
    rate = math.log2(1.0 + g * g / (g2 - g * g + dl.sigma2_ut / dl.p_bs))
    assert lower_bound_iid(ul, dl) == pytest.approx(rate, rel=RATE_REL)
