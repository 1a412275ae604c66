"""Complex Gaussian sampling and covariance-model construction.

All stochastic experiments in this package draw circularly-symmetric
complex Gaussian vectors CN(0, M) for Hermitian positive-semidefinite M.
Randomness is always routed through explicitly seeded numpy Generators;
``substream`` derives independent, reproducible sub-streams from a master
seed so Monte-Carlo results are independent of how work is partitioned.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
# numpy loads its random module on first use; load it with this one, so the
# first draw of a run does not pay for the import
import numpy.random  # noqa: F401

# Eigenvalues may dip below zero by at most this fraction of the spectral
# norm before a matrix is rejected as indefinite.
PSD_TOL = 1e-10


class InvalidMatrixError(ValueError):
    """Input is not a valid Hermitian positive-semidefinite covariance."""


class CovarianceMatrix:
    """Hermitian positive-semidefinite N x N complex covariance matrix.

    Construction validates Hermitian symmetry bit-exactly, a real
    nonnegative diagonal, and min eigenvalue >= -PSD_TOL * ||M||, and keeps
    that eigendecomposition M = V diag(w) V^H: ``eigenvalues`` w ascending,
    paired with the columns of ``eigenvectors`` V. ``factor`` =
    V sqrt(max(w, 0)), formed on first use, so factor @ factor^H = M even
    for singular M. All arrays are read-only. A matrix built from entries
    is dense: nothing reads its entries for structure.

    Two structured kinds store parameters, not arrays, and their tags are
    the only source of structure; ``constant_diagonal`` is their c, and
    None for a dense matrix:

    * ``identity(n)`` and its ``scaled`` copies are c I and store (n, c):
      ``identity_scale`` is c. Their arrays are built on each access.
    * ``exponential_correlation(n, rho)`` and its ``scaled`` copies are
      c K with K_ij = rho^|i-j|, the Kac-Murdock-Szego matrix, and store
      (n, rho, c): ``kms_rho`` is rho. K is positive definite for
      0 <= rho < 1, so nothing is validated. Its ``eigenvalues`` are c
      times K's, from the KMS equation (``_kms_eigenvalues``), with no
      eigendecomposition and no N x N array. Otherwise it is a dense
      matrix built late: ``matrix`` on first use and its eigendecomposition
      on the first use of ``eigenvectors`` or ``factor``, each kept on the
      instance, with ``factor`` formed from that decomposition as for any
      dense matrix.
    """

    _scale = _rho = _diag0 = None
    _m = _eigh = _factor = _w = None

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise InvalidMatrixError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise InvalidMatrixError("matrix has non-finite entries")
        if not np.array_equal(m, m.conj().T):
            raise InvalidMatrixError("matrix is not Hermitian")
        if np.any(np.diagonal(m).real < 0.0):
            raise InvalidMatrixError("diagonal has negative entries")
        eig, v = np.linalg.eigh(m)
        norm = max(abs(eig[0]), abs(eig[-1]))
        if eig[0] < -PSD_TOL * norm:
            raise InvalidMatrixError(
                f"matrix is indefinite: min eigenvalue {eig[0]:.3e} "
                f"below -{PSD_TOL:g} * {norm:.3e}"
            )
        self._store(m, eig, v)

    def _store(self, m, eig, v) -> "CovarianceMatrix":
        for a in (m, eig, v):
            a.flags.writeable = False
        self._n = m.shape[0]
        self._m = m
        self._eigh = eig, v
        return self

    @classmethod
    def _known(cls, m, eig, v) -> "CovarianceMatrix":
        """Unvalidated instance of a matrix with known eigendecomposition."""
        return cls.__new__(cls)._store(m, eig, v)

    @classmethod
    def _scaled_identity(cls, n: int, c: float) -> "CovarianceMatrix":
        cov = cls.__new__(cls)
        cov._n = n
        cov._scale = c
        return cov

    @classmethod
    def _kms(cls, n: int, rho: float, c: float) -> "CovarianceMatrix":
        cov = cls.__new__(cls)
        cov._n, cov._rho, cov._diag0 = n, rho, c
        return cov

    @classmethod
    def identity(cls, n: int) -> "CovarianceMatrix":
        return cls._scaled_identity(_dimension(n), 1.0)

    @property
    def identity_scale(self) -> float | None:
        """c when the matrix is c I, None otherwise."""
        return self._scale

    @property
    def kms_rho(self) -> float | None:
        """rho when the matrix is c K_rho (``exponential_correlation`` and
        its scaled copies), None otherwise; c is ``constant_diagonal``."""
        return self._rho

    @property
    def constant_diagonal(self) -> float | None:
        """c for c I and c K_rho, by their tags; None for a dense matrix."""
        return self._scale if self._scale is not None else self._diag0

    @property
    def dim(self) -> int:
        return self._n

    def _eye(self, c) -> np.ndarray:
        """A new read-only c I, n x n."""
        return _frozen(c * np.eye(self._n, dtype=np.complex128))

    @property
    def matrix(self) -> np.ndarray:
        if self._scale is not None:
            return self._eye(self._scale)
        if self._m is None:  # c K, built once
            idx = np.arange(self._n)
            k = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
            np.power(self._rho, k, out=k)
            k *= self._diag0
            self._m = _frozen(k.astype(np.complex128))
        return self._m

    def _spectrum(self):
        """(w, V); for c K, decomposed on first use."""
        if self._eigh is None:
            self._eigh = tuple(_frozen(a) for a in np.linalg.eigh(self.matrix))
        return self._eigh

    @property
    def factor(self) -> np.ndarray:
        if self._scale is not None:
            return self._eye(np.sqrt(self._scale))
        if self._factor is None:
            eig, v = self._spectrum()
            self._factor = _frozen(v * np.sqrt(np.clip(eig, 0.0, None)))
        return self._factor

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._scale is not None:
            return _frozen(np.full(self._n, self._scale))
        if self._rho is None:
            return self._spectrum()[0]
        if self._w is None:  # c K, solved once
            self._w = _frozen(self._diag0
                              * _kms_eigenvalues(self._n, self._rho))
        return self._w

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._spectrum()[1] if self._scale is None else self._eye(1.0)

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0]) if self._scale is None else self._scale

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1]) if self._scale is None else self._scale

    def trace(self) -> float:
        if self._scale is None and self._rho is None:
            return float(np.trace(self._m).real)
        return self._n * self.constant_diagonal

    def diagonal(self) -> np.ndarray:
        """Real diagonal entries (the per-antenna variances)."""
        if self._scale is None and self._rho is None:
            return np.diagonal(self._m).real.copy()
        return np.full(self._n, self.constant_diagonal)

    def scaled(self, c: float) -> "CovarianceMatrix":
        """c times this matrix, for a finite real c >= 0."""
        if not (_is_finite(c) and c >= 0.0):
            raise InvalidMatrixError(f"scale factor must be finite and >= 0, got {c!r}")
        if self._scale is not None:
            return self._scaled_identity(self._n, c * self._scale)
        if self._rho is not None:
            return self._kms(self._n, self._rho, c * self._diag0)
        # c M has eigenvalues c w and the same eigenvectors: nothing to
        # revalidate
        eig, v = self._eigh
        return self._known(c * self._m, c * eig, v)

    def __repr__(self) -> str:
        return f"CovarianceMatrix(dim={self.dim})"


def _is_int(v) -> bool:
    """An integer, numpy's included, and not a bool (which numbers.Integral
    admits)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_finite(x) -> bool:
    """A finite real, numpy's included, and not a bool (which numbers.Real
    admits), a string or an array, even a 0-d one."""
    if isinstance(x, float):  # np.float64 too; the ABC test below is slow
        return math.isfinite(x)
    try:
        return (isinstance(x, numbers.Real) and not isinstance(x, bool)
                and math.isfinite(x))
    except OverflowError:  # an int too large for a float
        return False


def _check_real(x, name: str, positive: bool = False) -> None:
    """ValueError unless _is_finite(x) and x >= 0 (x > 0 when positive)."""
    if not (_is_finite(x) and (x > 0.0 if positive else x >= 0.0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be a {kind} finite real, got {x!r}")


def _check_seed(seed) -> None:
    """ValueError unless seed is an integer >= 0 (``_is_int``), as a
    master seed of ``substream`` must be."""
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seeds must be integers >= 0, got {seed!r}")


def _check_size(size, shape: bool = False) -> None:
    """ValueError unless size is None or an integer >= 0 (``_is_int``),
    or, when ``shape``, a tuple of such integers."""
    dims = size if shape and isinstance(size, tuple) else (size,)
    if size is not None and not all(_is_int(k) and k >= 0 for k in dims):
        raise ValueError(f"sizes must be integers >= 0, got {size!r}")


def _dimension(n) -> int:
    """n as an int; InvalidMatrixError (a ValueError) unless n is a
    positive integer (``_is_int``)."""
    if not (_is_int(n) and n >= 1):
        raise InvalidMatrixError(f"dimension must be a positive integer, got {n!r}")
    return int(n)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_cov(m) -> CovarianceMatrix:
    return m if isinstance(m, CovarianceMatrix) else CovarianceMatrix(m)


def nearly_psd(m: np.ndarray, scale: float) -> CovarianceMatrix:
    """Repair roundoff in a matrix that is PSD in exact arithmetic.

    ``scale``, a finite real >= 0, is the natural magnitude of the
    computation that produced ``m`` (e.g. the spectral norm of the minuend
    in a subtraction); negative eigenvalues within -PSD_TOL * scale are
    clipped to zero, anything worse raises.
    """
    _check_real(scale, "scale")
    m = np.asarray(m, dtype=np.complex128)
    m = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(m)
    if w[0] < -PSD_TOL * scale:
        raise InvalidMatrixError(
            f"matrix is indefinite beyond roundoff: min eigenvalue {w[0]:.3e}"
        )
    # the clipped spectrum stays ascending, as eigh returns it; V diag(w)
    # V^H is Hermitian by construction and not revalidated
    w = np.clip(w, 0.0, None)
    out = (v * w) @ v.conj().T
    return CovarianceMatrix._known((out + out.conj().T) / 2.0, w, v)


def exponential_correlation(n: int, rho: float) -> CovarianceMatrix:
    """Exponential correlation model: entry (i, j) = rho^|i-j|, the
    Kac-Murdock-Szego matrix K (see ``CovarianceMatrix``), rho in [0, 1)."""
    n = _dimension(n)
    if not (_is_finite(rho) and 0.0 <= rho < 1.0):
        raise ValueError(f"correlation coefficient must lie in [0, 1), got {rho!r}")
    return CovarianceMatrix._kms(n, float(rho), 1.0)


# Steps per root of ``_kms_eigenvalues``: bisection from a bracket of
# width pi / N leaves each root within 3e-6 / N, and each Newton step
# about squares that error, to the roundoff of the equation in 2
_KMS_BISECTIONS = 20
_KMS_NEWTON = 3


def _kms_eigenvalues(n: int, rho: float) -> np.ndarray:
    """The eigenvalues of the n x n K_rho, ascending, from the equation of
    Kac, Murdock and Szego ("On the eigenvalues of certain Hermitian
    forms", J. Rational Mech. Anal. 2, 1953): they are

      lam(theta) = (1 - rho^2) / ((1 - rho)^2 + 4 rho sin^2(theta / 2))

    at the n roots in (0, pi) of sin((n+1) theta) - 2 rho sin(n theta) +
    rho^2 sin((n-1) theta), one in each (k pi / n, (k+1) pi / n). That
    function is f = sin(n theta) a + cos(n theta) b, with a = (1 - rho)^2
    - 2 (1 + rho^2) sin^2(theta / 2) and b = (1 - rho^2) sin(theta), in
    which no terms cancel, and has the sign (-1)^k just right of k pi /
    n: each root is bisected, all at once and without evaluating the
    ends, then polished by Newton steps kept in its bracket. lam falls as
    theta grows, so the largest root gives the smallest eigenvalue. O(n)
    memory and time; rho = 0 gives exactly 1."""
    k = np.arange(n)
    lo, hi = k * (math.pi / n), (k + 1) * (math.pi / n)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    one_minus, inner = (1.0 - rho) ** 2, _innovation(rho) ** 2
    b2 = 2.0 * (1.0 + rho * rho)
    for _ in range(_KMS_BISECTIONS):
        mid = 0.5 * (lo + hi)
        f = (np.sin(n * mid) * (one_minus - b2 * np.sin(0.5 * mid) ** 2)
             + np.cos(n * mid) * inner * np.sin(mid))
        right = f * sign > 0.0  # the root lies right of mid
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    theta = 0.5 * (lo + hi)
    for _ in range(_KMS_NEWTON):
        s2 = np.sin(0.5 * theta) ** 2
        sin_t = np.sin(theta)
        sn, cn = np.sin(n * theta), np.cos(n * theta)
        a, b = one_minus - b2 * s2, inner * sin_t
        # f' = n (cos(n theta) a - sin(n theta) b) + sin(n theta) a'
        # + cos(n theta) b', a' = -(1 + rho^2) sin(theta) and b' = (1 -
        # rho^2) cos(theta)
        df = (n * (cn * a - sn * b) - sn * (0.5 * b2) * sin_t
              + cn * inner * (1.0 - 2.0 * s2))
        theta = np.clip(theta - (sn * a + cn * b) / df, lo, hi)
    half = np.sin(0.5 * theta) ** 2
    return (inner / (one_minus + 4.0 * rho * half))[::-1]


def _innovation(rho: float) -> float:
    """sqrt(1 - rho^2), without cancellation as rho nears 1."""
    return math.sqrt((1.0 - rho) * (1.0 + rho))


def psd_factor(m) -> np.ndarray:
    """Read-only factor L with L @ L^H = m (see ``CovarianceMatrix.factor``)."""
    return _as_cov(m).factor


def sample_cn(m, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw x ~ CN(0, m): zero mean, E{x x^H} = m, E{x x^T} = 0.

    Returns shape (n,) or (size, n), for an integer size >= 0. The draws
    are w = (re + 1j im) / sqrt(2) for a block re of standard normals and
    then a block im, of that shape. A dense matrix returns w @ factor^T,
    with the factor formed once per CovarianceMatrix; an array ``m`` is
    validated and factored on every call. A scaled identity c I scales w
    by sqrt(c) instead of a matrix product. c K_rho scales w by sqrt(c)
    and runs it through the AR(1) recursion of K's Cholesky factor, x_0 =
    w_0 and x_i = rho x_(i-1) + sqrt(1 - rho^2) w_i: O(N) per draw, with
    the antenna axis leading in memory, so that each step reads one
    contiguous row (the result is a transposed view).
    """
    _check_size(size)
    cov = _as_cov(m)
    n, rho = cov.dim, cov.kms_rho
    shape = (n,) if size is None else (int(size), n)
    out = None if rho is None else np.empty(shape[::-1], dtype=np.complex128).T
    w = _re_plus_j_im(rng, shape, out, 1.0 / np.sqrt(2.0))
    if cov.identity_scale is None and rho is None:
        return w @ cov.factor.T
    # the product with sqrt(c) I, one entry at a time, for c I and c K
    if cov.constant_diagonal != 1.0:
        w *= np.sqrt(cov.constant_diagonal)
    if rho is not None:
        _ar1(w.T.reshape(n, -1).view(np.float64), rho)
    return w


def _ar1(x: np.ndarray, rho: float) -> None:
    """x_i <- rho x_(i-1) + sqrt(1 - rho^2) x_i along the leading axis, in
    place, from i = 1 on."""
    a = _innovation(rho)
    for prev, row in zip(x, x[1:]):
        row *= a
        row += rho * prev


def sample_scalar_cn(variance: float, rng: np.random.Generator,
                     size=None) -> complex | np.ndarray:
    """Draw zero-mean complex Gaussian scalars with E{|x|^2} = variance >= 0:
    one, or an array of shape ``size``, an integer >= 0 or a tuple of them."""
    _check_real(variance, "variance")
    _check_size(size, shape=True)
    variance = float(variance)
    scale = np.sqrt(variance / 2.0)
    x = _re_plus_j_im(rng, () if size is None else size, scale=scale or 1.0)
    if variance == 0.0:
        x *= scale
    return complex(x) if size is None else x


def _re_plus_j_im(rng, shape, out=None, scale: float = 1.0) -> np.ndarray:
    """(re + 1j * im) * scale for a block ``re`` of standard normals and
    then a block ``im``, in one complex array (``out``, of that shape, when
    given): each block is scaled before it is copied in, with no complex
    temporary. For scale > 0 that gives the product's bits, and those of
    (re + 1j * im) / (1 / scale), which numpy forms as that product."""
    x = np.empty(shape, dtype=np.complex128) if out is None else out
    block = rng.standard_normal(shape)
    block *= scale
    x.real = block
    rng.standard_normal(out=block)
    block *= scale
    x.imag = block
    return x


def _seed_sequence(seed: int, key) -> np.random.SeedSequence:
    """The SeedSequence of (seed, key), which must be integers."""
    if not all(map(_is_int, (seed, *key))):
        raise ValueError(f"seed and key must be integers, got {(seed, *key)!r}")
    return np.random.SeedSequence(entropy=int(seed),
                                  spawn_key=tuple(int(k) for k in key))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from (seed, key) by counter-style keying.

    Identical (seed, key) gives an identical stream on every platform; the
    derivation does not depend on how many other sub-streams exist.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, key)))


def derive_seed(seed: int, *key: int) -> int:
    """Stable 64-bit child seed for nested deterministic dispatch."""
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])

