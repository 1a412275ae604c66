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
    for singular M. ``constant_diagonal`` is r0 when every diagonal entry
    equals r0, else None. All arrays are read-only.

    Two structured kinds store parameters, not arrays:

    * ``identity(n)`` and its ``scaled`` copies are c I and store (n, c):
      ``identity_scale`` is c. Their arrays are built on each access.
    * ``exponential_correlation(n, rho)`` and its ``scaled`` copies are
      c K with K_ij = rho^|i-j|, the Kac-Murdock-Szego matrix, and store
      (n, rho, c): ``kms_rho`` is rho. K is positive definite for
      0 <= rho < 1, so nothing is validated. ``matrix`` is built on first
      use and its eigendecomposition on the first use of the spectrum; both
      are kept, and shared with the scaled copies as dense ones share V.
      ``factor`` is the lower Cholesky factor of c K in closed form.
    """

    _scale = None
    _rho = None
    _m = _eigh = _factor = None

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
        diag = np.diagonal(m).real
        self._n = m.shape[0]
        self._m = m
        self._eigh = eig, v
        self._diag0 = float(diag[0]) if np.all(diag == diag[0]) else None
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
    def _kms(cls, n: int, rho: float, c: float, unit=None) -> "CovarianceMatrix":
        """c K_rho; ``unit`` is the c = 1 instance that keeps K's arrays."""
        cov = cls.__new__(cls)
        cov._n, cov._rho, cov._diag0 = n, rho, c
        cov._unit = cov if unit is None else unit
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
        """r0 when every diagonal entry equals r0, None otherwise."""
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
            unit = self._unit
            if unit._m is None:
                idx = np.arange(self._n)
                lag = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
                unit._m = _frozen((self._rho ** lag).astype(np.complex128))
            self._m = (unit._m if unit is self
                       else _frozen(self._diag0 * unit._m))
        return self._m

    def _spectrum(self):
        """(w, V), computed for c K on first use: K's decomposition, with
        w scaled by c."""
        if self._eigh is None:
            unit = self._unit
            if unit._eigh is None:
                eig, v = np.linalg.eigh(unit.matrix)
                unit._eigh = _frozen(eig), _frozen(v)
            eig, v = unit._eigh
            if unit is not self:
                eig = _frozen(self._diag0 * eig)
            self._eigh = eig, v
        return self._eigh

    @property
    def factor(self) -> np.ndarray:
        if self._scale is not None:
            return self._eye(np.sqrt(self._scale))
        if self._factor is None:
            if self._rho is None:
                eig, v = self._eigh
                self._factor = _frozen(v * np.sqrt(np.clip(eig, 0.0, None)))
            else:
                self._factor = _frozen(_kms_cholesky(self._n, self._rho)
                                       * np.sqrt(self._diag0))
        return self._factor

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._scale is None:
            return self._spectrum()[0]
        return _frozen(np.full(self._n, self._scale))

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
        if not (0.0 <= c < np.inf):
            raise InvalidMatrixError(f"scale factor must be finite and >= 0, got {c}")
        if self._scale is not None:
            return self._scaled_identity(self._n, c * self._scale)
        if self._rho is not None:
            return self._kms(self._n, self._rho, c * self._diag0, self._unit)
        # c M has eigenvalues c w and the same eigenvectors: nothing to
        # revalidate
        eig, v = self._eigh
        return self._known(c * self._m, c * eig, v)

    def __repr__(self) -> str:
        return f"CovarianceMatrix(dim={self.dim})"


def _dimension(n) -> int:
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise InvalidMatrixError(f"dimension must be a positive integer, got {n!r}")
    return int(n)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_cov(m) -> CovarianceMatrix:
    return m if isinstance(m, CovarianceMatrix) else CovarianceMatrix(m)


def nearly_psd(m: np.ndarray, scale: float) -> CovarianceMatrix:
    """Repair roundoff in a matrix that is PSD in exact arithmetic.

    ``scale`` is the natural magnitude of the computation that produced
    ``m`` (e.g. the spectral norm of the minuend in a subtraction); negative
    eigenvalues within -PSD_TOL * scale are clipped to zero, anything worse
    raises.
    """
    m = np.asarray(m, dtype=np.complex128)
    m = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(m)
    if w[0] < -PSD_TOL * scale:
        raise InvalidMatrixError(
            f"matrix is indefinite beyond roundoff: min eigenvalue {w[0]:.3e}"
        )
    return _from_spectrum(np.clip(w, 0.0, None), v)


def _from_spectrum(w: np.ndarray, v: np.ndarray) -> CovarianceMatrix:
    """V diag(w) V^H for a nonnegative spectrum w and unitary V, Hermitian
    by construction and not revalidated. The stored eigenvalues are sorted
    ascending, their columns of V with them."""
    if np.any(w[1:] < w[:-1]):
        order = np.argsort(w, kind="stable")
        w, v = w[order], v[:, order]
    out = (v * w) @ v.conj().T
    return CovarianceMatrix._known((out + out.conj().T) / 2.0, w, v)


def exponential_correlation(n: int, rho: float) -> CovarianceMatrix:
    """Exponential correlation model: entry (i, j) = rho^|i-j|, the
    Kac-Murdock-Szego matrix K (see ``CovarianceMatrix``)."""
    n = _dimension(n)
    rho = float(rho)
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"correlation coefficient must lie in [0, 1), got {rho}")
    return CovarianceMatrix._kms(n, rho, 1.0)


def _innovation(rho: float) -> float:
    """sqrt(1 - rho^2), without cancellation as rho nears 1."""
    return math.sqrt((1.0 - rho) * (1.0 + rho))


def _kms_cholesky(n: int, rho: float) -> np.ndarray:
    """Lower Cholesky factor L of K_rho: L_i0 = rho^i and
    L_ij = sqrt(1 - rho^2) rho^(i-j) for 1 <= j <= i."""
    idx = np.arange(n)
    lag = idx[:, None] - idx[None, :]
    f = np.where(lag >= 0, rho ** np.abs(lag).astype(np.float64), 0.0)
    f[:, 1:] *= _innovation(rho)
    return f.astype(np.complex128)


def psd_factor(m) -> np.ndarray:
    """Read-only factor L with L @ L^H = m (see ``CovarianceMatrix.factor``)."""
    return _as_cov(m).factor


def sample_cn(m, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw x ~ CN(0, m): zero mean, E{x x^H} = m, E{x x^T} = 0.

    Returns shape (n,) or (size, n). The draws are w = (re + 1j im) /
    sqrt(2) for a block re of standard normals and then a block im, of
    that shape. A dense matrix returns w @ factor^T, with the factor
    formed once per CovarianceMatrix; an array ``m`` is validated and
    factored on every call. A scaled identity c I scales w by sqrt(c)
    instead of a matrix product. c K_rho scales w by sqrt(c) and runs it
    through the AR(1) recursion of its Cholesky factor, x_0 = w_0 and
    x_i = rho x_(i-1) + sqrt(1 - rho^2) w_i: O(N) per draw, with the
    antenna axis leading in memory, so that each step reads one contiguous
    row (the result is a transposed view).
    """
    cov = _as_cov(m)
    n, rho = cov.dim, cov.kms_rho
    shape = (n,) if size is None else (int(size), n)
    out = None if rho is None else np.empty(shape[::-1], dtype=np.complex128).T
    w = _re_plus_j_im(rng, shape, out)
    w /= np.sqrt(2.0)
    if cov.identity_scale is None and rho is None:
        return w @ cov.factor.T
    # the product with sqrt(c) I, one entry at a time, for c I and c K
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
    """Draw zero-mean complex Gaussian scalar(s) with E{|x|^2} = variance."""
    variance = float(variance)
    if variance < 0.0 or not np.isfinite(variance):
        raise ValueError(f"variance must be nonnegative, got {variance}")
    x = _re_plus_j_im(rng, () if size is None else size)
    x *= np.sqrt(variance / 2.0)
    return complex(x) if size is None else x


def _re_plus_j_im(rng: np.random.Generator, shape, out=None) -> np.ndarray:
    """re + 1j * im for a block ``re`` of standard normals and then a block
    ``im``, written into one complex array (``out``, of that shape, when
    given): the bits of that expression without its three complex
    temporaries."""
    x = np.empty(shape, dtype=np.complex128) if out is None else out
    block = rng.standard_normal(shape)
    x.real = block
    rng.standard_normal(out=block)
    x.imag = block
    return x


def _seed_sequence(seed: int, key) -> np.random.SeedSequence:
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

