"""Covariance construction and complex Gaussian sampling tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misolim.randmat import (
    PSD_TOL,
    CovarianceMatrix,
    InvalidMatrixError,
    _from_spectrum,
    exponential_correlation,
    nearly_psd,
    psd_factor,
    sample_cn,
    sample_scalar_cn,
    substream,
)


class TestCovarianceMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidMatrixError):
            CovarianceMatrix([[1.0, 0.5], [0.4, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidMatrixError):
            CovarianceMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_non_square_and_nan(self):
        with pytest.raises(InvalidMatrixError):
            CovarianceMatrix(np.ones((2, 3)))
        with pytest.raises(InvalidMatrixError):
            CovarianceMatrix([[np.nan]])

    def test_zero_matrix_is_valid(self):
        c = CovarianceMatrix(np.zeros((3, 3)))
        assert c.trace() == 0.0

    def test_matrix_is_frozen(self):
        c = CovarianceMatrix.identity(2)
        with pytest.raises(ValueError):
            c.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("c", [-1.0, np.nan, np.inf])
    def test_scaled_rejects_bad_factor(self, c):
        with pytest.raises(InvalidMatrixError):
            exponential_correlation(3, 0.5).scaled(c)

    @pytest.mark.parametrize("n", [2.5, 0, -1])
    @pytest.mark.parametrize("make", [
        CovarianceMatrix.identity,
        lambda n: exponential_correlation(n, 0.5),
    ], ids=["identity", "exponential_correlation"])
    def test_rejects_bad_dimension(self, make, n):
        with pytest.raises(ValueError):
            make(n)


class TestExponentialCorrelation:
    def test_zero_correlation_is_identity(self):
        r = exponential_correlation(3, 0.0)
        np.testing.assert_array_equal(r.matrix, np.eye(3))

    def test_entries_are_powers(self):
        r = exponential_correlation(3, 0.7)
        expected = [[1, 0.7, 0.49], [0.7, 1, 0.7], [0.49, 0.7, 1]]
        np.testing.assert_allclose(r.matrix.real, expected, rtol=0, atol=1e-15)
        assert np.all(r.matrix.imag == 0.0)

    def test_two_by_two_eigenvalues(self):
        r = exponential_correlation(2, 0.9)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(r.matrix), [0.1, 1.9], atol=1e-14)

    @pytest.mark.parametrize("rho", [1.0, 1.5, -0.1])
    def test_domain_errors(self, rho):
        with pytest.raises(ValueError):
            exponential_correlation(3, rho)

    @given(n=st.integers(1, 25),
           rho=st.floats(0.0, 0.999, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_invariants_hold(self, n, rho):
        r = exponential_correlation(n, rho)
        m = r.matrix
        assert np.array_equal(m, m.conj().T)
        eig = np.linalg.eigvalsh(m)
        assert eig[0] >= -PSD_TOL * max(abs(eig[0]), abs(eig[-1]))
        assert r.trace() == pytest.approx(n)


class TestPsdFactor:
    def test_identity(self):
        L = psd_factor(CovarianceMatrix.identity(4))
        np.testing.assert_allclose(L @ L.conj().T, np.eye(4), atol=1e-14)

    def test_zero_matrix(self):
        L = psd_factor(CovarianceMatrix(np.zeros((3, 3))))
        np.testing.assert_array_equal(L, np.zeros((3, 3)))

    def test_reconstruction(self):
        r = exponential_correlation(3, 0.7)
        L = psd_factor(r)
        err = np.linalg.norm(L @ L.conj().T - r.matrix, "fro")
        assert err <= 1e-10 * np.linalg.norm(r.matrix, "fro")

    def test_rank_deficient(self):
        m = np.ones((3, 3))  # rank 1
        L = psd_factor(CovarianceMatrix(m))
        np.testing.assert_allclose(L @ L.conj().T, m, atol=1e-12)


class TestStoredEigendecomposition:
    def test_constant_diagonal(self):
        r = exponential_correlation(5, 0.3)
        assert r.constant_diagonal == 1.0
        assert r.scaled(3.0).constant_diagonal == 3.0
        assert CovarianceMatrix.identity(3).scaled(2.0).constant_diagonal == 2.0
        assert CovarianceMatrix(np.diag([1.0, 2.0])).constant_diagonal is None

    def test_factor_is_built_from_eigenvectors(self):
        r = CovarianceMatrix(exponential_correlation(6, 0.7).matrix)
        w, v = r.eigenvalues, r.eigenvectors
        assert np.all(np.diff(w) >= 0.0)
        assert np.array_equal(r.factor, v * np.sqrt(np.clip(w, 0.0, None)))
        assert r.factor is r.factor  # formed once
        for a in (w, v, r.factor):
            assert not a.flags.writeable
        # scaled copies share V and scale the spectrum
        assert r.scaled(2.0).eigenvectors is v
        assert np.array_equal(r.scaled(2.0).eigenvalues, 2.0 * w)

    def test_spectrum_is_sorted_with_its_columns(self):
        # error_covariance builds V diag(w) V^H from a spectrum that need
        # not follow R's order
        v = exponential_correlation(4, 0.5).eigenvectors
        w = np.array([3.0, 1.0, 0.0, 2.0])
        c = _from_spectrum(w, v)
        assert np.array_equal(c.eigenvalues, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            (c.eigenvectors * c.eigenvalues) @ c.eigenvectors.conj().T,
            (v * w) @ v.conj().T, atol=1e-14)
        assert c.min_eigenvalue == 0.0 and c.max_eigenvalue == 3.0


class TestKmsTag:
    """exponential_correlation stores (n, rho); c K_rho keeps the tag."""

    def test_no_array_until_asked(self):
        n = 4096  # a dense n x n complex matrix alone is 268 MB
        tracemalloc.start()
        try:
            r = exponential_correlation(n, 0.7)
            c = r.scaled(2.0)
            facts = (r.trace(), c.trace(), r.diagonal(), c.diagonal(),
                     r.constant_diagonal, c.constant_diagonal)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert r.kms_rho == c.kms_rho == 0.7
        assert r.identity_scale is None and c.identity_scale is None
        assert facts[:2] == (n, 2.0 * n)
        assert np.array_equal(facts[2], np.ones(n))
        assert np.array_equal(facts[3], np.full(n, 2.0))
        assert facts[4:] == (1.0, 2.0)
        assert CovarianceMatrix.identity(3).kms_rho is None
        assert CovarianceMatrix(np.eye(3)).kms_rho is None

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("rho", [0.0, 0.7])
    def test_arrays_are_the_dense_ones(self, n, rho):
        # the bits of the dense matrix built from the same expression, and
        # of its eigendecomposition; scaled copies share V and scale w
        r = exponential_correlation(n, rho)
        idx = np.arange(n)
        m = rho ** np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
        dense = CovarianceMatrix(m)
        assert r.matrix is r.matrix and not r.matrix.flags.writeable
        assert _same_bits(r.matrix, dense.matrix)
        assert _same_bits(r.eigenvalues, dense.eigenvalues)
        assert _same_bits(r.eigenvectors, dense.eigenvectors)
        c = r.scaled(3.0)
        assert c.eigenvectors is r.eigenvectors
        assert _same_bits(c.eigenvalues, 3.0 * r.eigenvalues)
        assert _same_bits(c.matrix, 3.0 * r.matrix)
        assert c.max_eigenvalue == 3.0 * r.max_eigenvalue

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("rho", [0.0, 0.7, 0.95])
    def test_factor_is_cholesky(self, n, rho):
        r = exponential_correlation(n, rho).scaled(2.0)
        f = r.factor
        assert not f.flags.writeable
        assert np.array_equal(f, np.tril(f))
        np.testing.assert_allclose(f, np.linalg.cholesky(r.matrix),
                                   rtol=0.0, atol=1e-14)


class TestNearlyPsd:
    def test_clips_roundoff_negatives(self):
        m = np.diag([1.0, -1e-14])
        c = nearly_psd(m, scale=1.0)
        assert c.min_eigenvalue >= 0.0

    def test_rejects_genuinely_indefinite(self):
        with pytest.raises(InvalidMatrixError):
            nearly_psd(np.diag([1.0, -0.5]), scale=1.0)


# LAPACK rescales a matrix whose norm is below about 1e-146 before it
# decomposes it, which can move the last bit of the dense path's
# eigenvalues; from well above that threshold the paths agree bit for bit.
LAPACK_UNSCALED = 1e-140


class TestStructuredMatchesDense:
    @given(n=st.integers(1, 64), c=st.floats(0.0, 1e3))
    @example(n=2, c=1e-300)
    @settings(max_examples=60, deadline=None)
    def test_scaled_identity(self, n, c):
        fast = CovarianceMatrix.identity(n).scaled(c)
        dense = CovarianceMatrix(c * np.eye(n))
        x_fast = sample_cn(fast, substream(5, n), size=3)
        x_dense = sample_cn(dense, substream(5, n), size=3)
        assert fast.identity_scale == c and dense.identity_scale is None
        assert fast.scaled(2.0).identity_scale == 2.0 * c
        assert fast.dim == n and np.array_equal(fast.matrix, dense.matrix)
        assert not fast.matrix.flags.writeable
        np.testing.assert_array_equal(fast.diagonal(), dense.diagonal())
        assert fast.trace() == pytest.approx(dense.trace(), rel=1e-12, abs=0.0)
        assert not psd_factor(fast).flags.writeable
        assert not psd_factor(c * np.eye(n)).flags.writeable
        pairs = [(fast.min_eigenvalue, dense.min_eigenvalue),
                 (fast.max_eigenvalue, dense.max_eigenvalue)]
        if c == 0.0 or c >= LAPACK_UNSCALED:
            assert np.array_equal(fast.factor, dense.factor)
            assert all(a == b for a, b in pairs)
            assert np.array_equal(x_fast, x_dense)
        else:  # the 1e-12 relative agreement a fast path owes the dense one
            tol = 1e-12 * np.sqrt(c)
            np.testing.assert_allclose(fast.factor, dense.factor, rtol=0, atol=tol)
            np.testing.assert_allclose(x_fast, x_dense, rtol=0, atol=10 * tol)
            assert all(a == pytest.approx(b, rel=1e-12, abs=0.0) for a, b in pairs)

    # subnormal scales carry no relative precision, so they are left out
    @given(n=st.integers(1, 64),
           c=st.one_of(st.just(0.0), st.floats(1e-300, 1e3)),
           rho=st.floats(0.0, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_nearly_psd_factor_reconstructs(self, n, c, rho):
        # remove the top eigenpair: rank-deficient, with roundoff negatives
        r = exponential_correlation(n, rho).matrix
        w, v = np.linalg.eigh(r)
        m = c * (r - w[-1] * np.outer(v[:, -1], v[:, -1].conj()))
        cov = nearly_psd(m, scale=c * w[-1])
        f = cov.factor
        err = np.linalg.norm(f @ f.conj().T - cov.matrix)
        assert err <= 1e-12 * np.linalg.norm(cov.matrix)
        assert not f.flags.writeable


class TestSampleCn:
    def test_zero_covariance_gives_zero(self):
        rng = substream(0)
        x = sample_cn(CovarianceMatrix(np.zeros((3, 3))), rng)
        np.testing.assert_array_equal(x, np.zeros(3))

    def test_identity_sample_covariance(self):
        rng = substream(1)
        x = sample_cn(CovarianceMatrix.identity(2), rng, size=100_000)
        emp = x.conj().T @ x / x.shape[0]
        assert np.linalg.norm(emp - np.eye(2), "fro") <= 0.02

    def test_circular_symmetry(self):
        rng = substream(2)
        r = exponential_correlation(4, 0.7)
        x = sample_cn(r, rng, size=100_000)
        pseudo = x.T @ x / x.shape[0]  # E{x x^T} must vanish
        assert np.max(np.abs(pseudo)) <= 0.02

    def test_per_entry_variance_split(self):
        rng = substream(3)
        m = CovarianceMatrix(np.diag([1.0, 4.0]))
        x = sample_cn(m, rng, size=100_000)
        for i, var in enumerate([1.0, 4.0]):
            assert np.var(x[:, i].real) == pytest.approx(var / 2, rel=0.05)
            assert np.var(x[:, i].imag) == pytest.approx(var / 2, rel=0.05)

    def test_reproducible_given_seed(self):
        a = sample_cn(exponential_correlation(4, 0.7), substream(42, 5), size=10)
        b = sample_cn(exponential_correlation(4, 0.7), substream(42, 5), size=10)
        np.testing.assert_array_equal(a, b)

    def test_covariance_scaling(self):
        n_draws = 50_000
        r = exponential_correlation(3, 0.5)
        x1 = sample_cn(r, substream(7), size=n_draws)
        x4 = sample_cn(CovarianceMatrix(4.0 * r.matrix), substream(8), size=n_draws)
        c1 = x1.conj().T @ x1 / n_draws
        c4 = x4.conj().T @ x4 / n_draws
        # entrywise std-error of a sample covariance entry is O(1/sqrt(n))
        se = 3.0 * 4.0 / np.sqrt(n_draws)
        assert np.max(np.abs(c4 - 4.0 * c1)) <= 3.0 * se


def _same_bits(a, b):
    # c K_rho draws are a transposed view: compare them in C order
    if np.shape(a) != np.shape(b):
        return False
    a, b = (np.ascontiguousarray(np.atleast_1d(x)) for x in (a, b))
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestDrawsMatchReferenceExpression:
    """The draws are the bits of the expressions (re + 1j * im) / sqrt(2)
    (then times the factor) and sqrt(v / 2) * (re + 1j * im), signed zeros
    included, for a block re of standard normals followed by a block im."""

    @staticmethod
    def blocks(rng, shape):
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        return re + 1j * im

    @staticmethod
    def ar1(w, rho):
        """The recursion x_0 = w_0, x_i = rho x_(i-1) + sqrt(1 - rho^2) w_i
        along the last axis of w."""
        x = w.copy()
        a = np.sqrt((1.0 - rho) * (1.0 + rho))
        for i in range(1, w.shape[-1]):
            x[..., i] = rho * x[..., i - 1] + a * w[..., i]
        return x

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("size", [None, 1, 5, 2048])
    def test_sample_cn(self, n, size):
        # a dense matrix times its factor V sqrt(w), c I and c K_rho
        # scaled by sqrt(c), and c K_rho then run through its recursion
        shape = (n,) if size is None else (size, n)
        for m in (CovarianceMatrix(exponential_correlation(n, 0.7).matrix),
                  exponential_correlation(n, 0.7),
                  exponential_correlation(n, 0.7).scaled(0.01),
                  CovarianceMatrix.identity(n),
                  CovarianceMatrix.identity(n).scaled(0.01),
                  CovarianceMatrix.identity(n).scaled(0.0)):
            w = self.blocks(substream(3, n), shape) / np.sqrt(2.0)
            if m.identity_scale is None and m.kms_rho is None:
                ref = w @ m.factor.T
            else:
                ref = w * np.sqrt(m.constant_diagonal)
            if m.kms_rho is not None:
                ref = self.ar1(ref, m.kms_rho)
            assert _same_bits(sample_cn(m, substream(3, n), size), ref)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("rho", [0.0, 0.7, 0.95])
    def test_kms_draws_are_cholesky_products(self, n, rho):
        r = exponential_correlation(n, rho).scaled(2.0)
        w = self.blocks(substream(3, n), (2048, n)) / np.sqrt(2.0)
        ref = w @ np.linalg.cholesky(r.matrix).T
        np.testing.assert_allclose(sample_cn(r, substream(3, n), 2048), ref,
                                   rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("var", [0.0, 1e-300, 0.5, 1.0, 3.7, 1e300])
    @pytest.mark.parametrize("size", [None, 1, 5, (3, 4), (2048, 7), (0, 3)])
    def test_sample_scalar_cn(self, var, size):
        ref = np.sqrt(var / 2.0) * self.blocks(substream(4), size)
        x = sample_scalar_cn(var, substream(4), size)
        assert isinstance(x, complex) == (size is None)
        assert _same_bits(x, ref)


class TestSampleScalarCn:
    def test_zero_variance(self):
        assert sample_scalar_cn(0.0, substream(0)) == 0.0

    @pytest.mark.parametrize("var", [1.0, 4.0])
    def test_moments(self, var):
        x = sample_scalar_cn(var, substream(9), size=100_000)
        assert abs(np.mean(x)) <= 0.01 * max(var, 1.0)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(var, rel=0.02)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            sample_scalar_cn(-1.0, substream(0))


class TestSubstream:
    def test_independent_of_sibling_count(self):
        # deriving stream (seed, 3) must not depend on other streams existing
        a = substream(11, 3).standard_normal(4)
        _ = substream(11, 0), substream(11, 1)
        b = substream(11, 3).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = substream(11, 0).standard_normal(4)
        b = substream(11, 1).standard_normal(4)
        assert not np.array_equal(a, b)
