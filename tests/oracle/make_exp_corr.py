"""Extended-precision values of the analytic estimation rows.

For exponential correlation R (rho = 0.7, entries rho^|i-j|, unit diagonal),
S = I, kappa_t_ut = kappa_r_bs = kappa and pilot power p = 10^(snr_db/10)
(the estimation-error experiment's p = SNR tr(S) / tr(R)), this prints

    mse_analytic = tr(C) / N,    C     = R - p R M^{-1} R,
                                 M     = p (1 + kappa) R + p kappa I + I,
    mse_floor    = tr(C_inf) / N, C_inf = R - R B^{-1} R,
                                 B     = (1 + kappa) R + kappa I,

to 50 significant digits, evaluated from these definitions in 80-digit
arithmetic: tr(R X^{-1} R) = ||L^{-1} R||_F^2 for the Cholesky factor L of
X. rho and kappa are the binary doubles the program uses; at kappa = 0,
B = R and the floor is exactly 0. Needs mpmath (not a dependency of the
package); run from the repository root:

    python tests/oracle/make_exp_corr.py > tests/oracle/exp_corr.csv
"""

import mpmath as mp

mp.mp.dps = 80

RHO = 0.7
N_GRID = (1, 2, 10, 128)
KAPPAS = (0.0, 0.0025, 0.0225)
SNR_DB = (-10, 20, 40, 50)
DIGITS = 50


def exp_corr(n):
    rho = mp.mpf(RHO)
    return [[rho ** abs(i - j) for j in range(n)] for i in range(n)]


def trace_r_inv_r(r, x):
    """tr(R X^{-1} R) for symmetric positive-definite X."""
    n = len(x)
    low = [[mp.mpf(0)] * n for _ in range(n)]
    for j in range(n):
        d = x[j][j] - mp.fsum(low[j][k] ** 2 for k in range(j))
        low[j][j] = mp.sqrt(d)
        for i in range(j + 1, n):
            s = x[i][j] - mp.fsum(low[i][k] * low[j][k] for k in range(j))
            low[i][j] = s / low[j][j]
    total = mp.mpf(0)
    for col in range(n):
        y = []
        for i in range(n):
            s = r[i][col] - mp.fsum(low[i][k] * y[k] for k in range(i))
            y.append(s / low[i][i])
        total += mp.fsum(v ** 2 for v in y)
    return total


def shifted(r, a, b):
    """a R + b I."""
    n = len(r)
    return [[a * r[i][j] + (b if i == j else 0) for j in range(n)]
            for i in range(n)]


def main():
    print("n,kappa,snr_db,metric,value")
    for n in N_GRID:
        r = exp_corr(n)
        for kappa in KAPPAS:
            k = mp.mpf(kappa)
            if kappa == 0.0:
                floor = mp.mpf(0)
            else:
                floor = (n - trace_r_inv_r(r, shifted(r, 1 + k, k))) / n
            for snr_db in SNR_DB:
                p = mp.mpf(10) ** (mp.mpf(snr_db) / 10)
                m = shifted(r, p * (1 + k), p * k + 1)
                mse = (n - p * trace_r_inv_r(r, m)) / n
                for metric, value in (("mse_analytic", mse),
                                      ("mse_floor", floor)):
                    print(f"{n},{kappa!r},{snr_db},{metric},"
                          f"{mp.nstr(value, DIGITS, min_fixed=1, max_fixed=0)}")


if __name__ == "__main__":
    main()
