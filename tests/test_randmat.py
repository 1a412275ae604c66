"""Covariance construction and complex Gaussian sampling tests."""

import csv
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misolim.randmat import (
    PSD_TOL,
    CovarianceMatrix,
    InvalidMatrixError,
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

    @pytest.mark.parametrize("n", [2.5, 0, -1, True, np.nan, np.inf])
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

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_reconstructs_every_kind(self, n):
        kms = exponential_correlation(n, 0.95)
        for cov in (CovarianceMatrix.identity(n),
                    CovarianceMatrix.identity(n).scaled(3.0),
                    kms, kms.scaled(3.0), kms.scaled(1e-3),
                    CovarianceMatrix(kms.matrix).scaled(3.0),
                    nearly_psd(np.ones((n, n)), scale=n)):
            f = cov.factor
            np.testing.assert_allclose(
                f @ f.conj().T, cov.matrix, rtol=0.0,
                atol=1e-13 * n * cov.max_eigenvalue)


class TestStoredEigendecomposition:
    def test_constant_diagonal(self):
        r = exponential_correlation(5, 0.3)
        assert r.constant_diagonal == 1.0
        assert r.scaled(3.0).constant_diagonal == 3.0
        assert CovarianceMatrix.identity(3).scaled(2.0).constant_diagonal == 2.0
        assert CovarianceMatrix(np.diag([1.0, 2.0])).constant_diagonal is None
        # only the tags declare structure: a dense matrix built from
        # entries has none, whatever its entries
        for cov in (CovarianceMatrix(np.eye(3)),
                    CovarianceMatrix(np.eye(3)).scaled(2.0),
                    nearly_psd(np.eye(3), scale=1.0)):
            assert cov.constant_diagonal is None
            assert cov.identity_scale is None and cov.kms_rho is None
        assert not hasattr(CovarianceMatrix, "is_diagonal")

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

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("rho", [0.0, 0.7, 0.95])
    def test_arrays_are_the_dense_ones(self, n, rho):
        # c K is a dense matrix built late: the bits of the dense matrix
        # built from the same expression, of its eigenvectors and of its
        # factor V sqrt(w), each kept once formed. Its eigenvalues come
        # from the KMS equation instead, within 1e-12 relative of the
        # dense ones (see TestKmsEigenvalues)
        idx = np.arange(n)
        k = rho ** np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
        for c in (1.0, 3.0, 1e-3):
            r = exponential_correlation(n, rho).scaled(c)
            dense = CovarianceMatrix(c * k)
            for name in ("matrix", "eigenvalues", "eigenvectors", "factor"):
                a = getattr(r, name)
                assert a is getattr(r, name) and not a.flags.writeable
                if name == "eigenvalues":
                    np.testing.assert_allclose(a, dense.eigenvalues,
                                               rtol=1e-12, atol=0.0)
                else:
                    assert _same_bits(a, getattr(dense, name))
            assert r.max_eigenvalue == pytest.approx(dense.max_eigenvalue,
                                                     rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("rho", [0.0, 0.7, 0.95])
    def test_factor_is_cholesky(self, n, rho):
        # c K's ``factor`` is V sqrt(w); the factor sample_cn applies to
        # its unit draws is the lower Cholesky factor, run as a recursion.
        # Fed re = I and im = 0, it returns that factor's transpose / sqrt(2)
        class UnitDraws:
            def standard_normal(self, shape=None, out=None):
                if out is None:
                    return np.eye(n)
                out[...] = 0.0
                return out

        r = exponential_correlation(n, rho).scaled(2.0)
        f = sample_cn(r, UnitDraws(), n).T
        assert np.array_equal(f.imag, np.zeros((n, n)))
        assert np.array_equal(f, np.tril(f))
        np.testing.assert_allclose(f * np.sqrt(2.0),
                                   np.linalg.cholesky(r.matrix),
                                   rtol=0.0, atol=1e-14)

    def test_scaled_copy_keeps_its_own_arrays(self):
        # after first use, c K holds its matrix, V and factor and nothing
        # else: no copy of K's arrays rides along
        n = 512
        tracemalloc.start()
        try:
            r = exponential_correlation(n, 0.7).scaled(2.0)
            r.matrix, r.eigenvectors, r.factor
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 3 * n * n * 16 + 100_000

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.99])
    def test_norm_bound(self, n, rho):
        # the spectral norm that UplinkConfig's overflow check reads is
        # max_eigenvalue, from the KMS equation for c K: it lies under
        # the largest row sum (the middle row's), and within 12 % of it
        r = exponential_correlation(n, rho).scaled(3.0)
        lag = np.abs(np.arange(n) - (n - 1) // 2)
        row_sum = 3.0 * float(np.sum(rho ** lag))
        assert row_sum / 1.12 <= r.max_eigenvalue <= row_sum * (1.0 + 1e-14)
        assert r.max_eigenvalue == pytest.approx(
            CovarianceMatrix(r.matrix).max_eigenvalue, rel=1e-12)


KMS_ORACLE = Path(__file__).parent / "oracle" / "kms.csv"


class TestKmsEigenvalues:
    """c K_rho's eigenvalues come from the KMS equation, not from eigh.

    The agreement rule, fixed before any output was looked at: within
    1e-12 relative of the dense path (numpy's eigvalsh) for rho <= 0.95;
    and near rho = 1, where eigvalsh itself is off by more than that (by
    about 3e-13 at rho = 0.99 and 4e-12 at 0.999 for N = 64), within 1e-11
    relative of 40-digit eigenvalues from mpmath's dense solver, which
    judges between the two."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 100, 1024])
    @pytest.mark.parametrize("rho", [0.0, 0.7, 0.95])
    def test_match_eigvalsh(self, n, rho):
        idx = np.arange(n)
        k = rho ** np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
        got = exponential_correlation(n, rho).eigenvalues
        np.testing.assert_allclose(got, np.linalg.eigvalsh(k), rtol=1e-12,
                                   atol=0.0)

    @pytest.mark.parametrize("rho", [0.99, 0.999])
    def test_match_extended_precision(self, rho):
        with open(KMS_ORACLE, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh)
                    if r["metric"] == "eigenvalue"
                    and float(r["rho"]) == rho]
        n = int(rows[0]["n"])
        assert [int(r["k"]) for r in rows] == list(range(n))
        want = np.array([float(r["value"]) for r in rows])
        got = exponential_correlation(n, rho).eigenvalues
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1024])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.7, 0.99, 0.999])
    def test_ascending(self, n, rho):
        w = exponential_correlation(n, rho).scaled(2.0).eigenvalues
        assert w.shape == (n,) and not w.flags.writeable
        assert np.all(np.diff(w) >= 0.0) and w[0] > 0.0

    def test_no_dense_decomposition(self, monkeypatch):
        # eigenvalues, min_eigenvalue and max_eigenvalue of c K solve the
        # equation: no eigh, no eigvalsh and no N x N array
        def no_call(*args, **kwargs):
            raise AssertionError("dense decomposition called")

        monkeypatch.setattr(np.linalg, "eigh", no_call)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_call)
        n = 4096  # a dense n x n complex matrix alone is 268 MB
        tracemalloc.start()
        try:
            r = exponential_correlation(n, 0.7).scaled(3.0)
            w = r.eigenvalues
            lo, hi = r.min_eigenvalue, r.max_eigenvalue
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert (lo, hi) == (w[0], w[-1])
        # the spectrum of 3 K_0.7 lies in 3 ((1 - rho) / (1 + rho), (1 +
        # rho) / (1 - rho))
        assert 3.0 * 0.3 / 1.7 < lo < hi < 3.0 * 1.7 / 0.3
        assert r.eigenvalues is w

    def test_zero_correlation_is_exactly_one(self):
        assert np.array_equal(exponential_correlation(5, 0.0).eigenvalues,
                              np.ones(5))


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
