"""Extended-precision values for the tests of exponential correlation R.

For K_rho, the matrix with entries rho^|i-j| (the Kac-Murdock-Szego
matrix), this prints in 40-digit arithmetic:

* ``eigenvalue`` rows: the eigenvalues of K_rho at N = 64 for rho = 0.99
  and 0.999, ascending (column k), by mpmath's dense symmetric solver
  ``eigsy``, which knows nothing of the matrix's structure;
* ``mean_gain`` and ``mean_square_gain`` rows: E{h^T v} and E{|h^T v|^2}
  of the lower bound's beamformer v = conj(h_hat) / ||h_hat|| for R =
  c K_0.7, S = s I, pilot power p and every impairment level 0. There
  h_hat is the MMSE estimate of a Gaussian channel: on R's eigenbasis its
  coordinates are independent CN(0, mu_k), mu_k = p lam_k^2 / (p lam_k +
  s) for R's eigenvalues lam, and the error h - h_hat is independent of
  it, with variances c_k = lam_k s / (p lam_k + s). So

    E{h^T v}     = E||h_hat|| = (1 / (2 sqrt(pi))) int_0^inf (1 - P(t)) t^(-3/2) dt,
    E{|h^T v|^2} = sum_k mu_k + int_0^inf P(t) sum_k c_k mu_k / (1 + t mu_k) dt,

  with P(t) = prod_k 1 / (1 + t mu_k) = E e^(-t ||h_hat||^2), taken by
  mpmath's tanh-sinh rule in log t. Here lam comes from the equation of
  Kac, Murdock and Szego (J. Rational Mech. Anal. 2, 1953): lam = (1 -
  rho^2) / (1 - 2 rho cos(theta) + rho^2) at the N roots of sin((N+1)
  theta) - 2 rho sin(N theta) + rho^2 sin((N-1) theta) in (0, pi), one in
  each (k pi / N, (k+1) pi / N), each bisected to 140 bits.

rho, c, s and p are the binary doubles the tests use. Needs mpmath (not a
dependency of the package); run from the repository root:

    python tests/oracle/make_kms.py > tests/oracle/kms.csv
"""

import mpmath as mp

mp.mp.dps = 40

EIGSY_N = 64
EIGSY_RHOS = (0.99, 0.999)
RHO = 0.7
# (N, c, s, p): the energy-efficiency run's kappa = 0 points (R = K_0.7,
# S = 0.01 I, pilot power 1 / N^t for t = 0 and 0.5), and one point with
# every value off 1
MOMENT_CASES = [(1, 1.0, 0.01, 1.0)] + [
    (n, 1.0, 0.01, float(n) ** -t) for n in (2, 4, 64, 1024)
    for t in (0.0, 0.5)] + [(4, 2.0, 0.5, 3.0)]
DIGITS = 30
BISECTIONS = 140


def kms_eigenvalues(n, rho):
    """K_rho's eigenvalues from the KMS equation, ascending."""
    rho = mp.mpf(rho)

    def f(theta):
        return (mp.sin((n + 1) * theta) - 2 * rho * mp.sin(n * theta)
                + rho ** 2 * mp.sin((n - 1) * theta))

    lams = []
    for k in range(n):
        lo, hi = k * mp.pi / n, (k + 1) * mp.pi / n
        sign = 1 if k % 2 == 0 else -1  # of f just right of lo
        for _ in range(BISECTIONS):
            mid = (lo + hi) / 2
            if sign * f(mid) > 0:
                lo = mid
            else:
                hi = mid
        theta = (lo + hi) / 2
        lams.append((1 - rho ** 2) / (1 - 2 * rho * mp.cos(theta) + rho ** 2))
    return sorted(lams)


def moments(n, c, s, p):
    lam = [mp.mpf(c) * x for x in kms_eigenvalues(n, RHO)]
    s, p = mp.mpf(s), mp.mpf(p)
    mu = [p * x ** 2 / (p * x + s) for x in lam]
    ce = [x * s / (p * x + s) for x in lam]
    u0 = -mp.log(mp.fsum(mu))
    cache = {}

    def terms(u):
        # (1 - P, P sum_k c_k mu_k / (1 + t mu_k)) at t = e^u
        if u not in cache:
            t = mp.exp(u)
            log_p = -mp.fsum(mp.log1p(t * m) for m in mu)
            inner = mp.fsum(a * m / (1 + t * m) for a, m in zip(ce, mu))
            cache[u] = (-mp.expm1(log_p), mp.exp(log_p) * inner)
        return cache[u]

    # both integrands in du, t = e^u: e^(-u/2) (1 - P) and e^u P sum
    points = [-mp.inf, u0 - 20, u0 - 5, u0, u0 + 5, u0 + 20, mp.inf]
    mean_norm = mp.quad(lambda u: terms(u)[0] * mp.exp(-u / 2), points)
    mean_norm /= 2 * mp.sqrt(mp.pi)
    square = mp.fsum(mu) + mp.quad(lambda u: terms(u)[1] * mp.exp(u), points)
    return mean_norm, square


def fmt(value):
    return mp.nstr(value, DIGITS, min_fixed=1, max_fixed=0)


def main():
    print("metric,rho,n,c,s,p,k,value")
    for rho in EIGSY_RHOS:
        r = mp.mpf(rho)
        k = mp.matrix(EIGSY_N, EIGSY_N)
        for i in range(EIGSY_N):
            for j in range(EIGSY_N):
                k[i, j] = r ** abs(i - j)
        eig = sorted(mp.eigsy(k, eigvals_only=True))
        for i, value in enumerate(eig):
            print(f"eigenvalue,{rho!r},{EIGSY_N},,,,{i},{fmt(value)}")
    for n, c, s, p in MOMENT_CASES:
        for metric, value in zip(("mean_gain", "mean_square_gain"),
                                 moments(n, c, s, p)):
            print(f"{metric},{RHO!r},{n},{c!r},{s!r},{p!r},,{fmt(value)}")


if __name__ == "__main__":
    main()
