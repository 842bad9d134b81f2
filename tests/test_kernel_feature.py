import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from lkplo.kernel_feature import (
    DegenerateKernelError,
    KernelParams,
    _cross_kernel,
    center_gram,
    fit_kpca,
    gram_matrix,
    kpca_from_gram,
    transform,
)


def random_matrix(rng, n, d, scale=2.0):
    return scale * rng.standard_normal((n, d))


class TestRbfKernel:
    """Hand examples of the cross kernel that gram_matrix and transform use."""

    def test_zero_distance_is_one(self):
        x = np.array([[1.5, -2.0, 3.0]])
        assert _cross_kernel(x, x, KernelParams(7.3))[0, 0] == 1.0

    def test_scalar_example(self):
        got = _cross_kernel([[0.0]], [[1.0]], KernelParams(1.0))[0, 0]
        assert got == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_vector_example(self):
        # ||x - y||^2 = 25, gamma = 0.01 -> exp(-0.25)
        got = _cross_kernel([[0.0, 0.0]], [[3.0, 4.0]], KernelParams(0.01))[0, 0]
        assert got == pytest.approx(np.exp(-0.25), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _cross_kernel([[0.0]], [[0.0, 1.0]], KernelParams(1.0))

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelParams(0.0)


class TestGramMatrix:
    def test_single_point(self):
        K = gram_matrix(np.array([[3.0, 4.0]]), KernelParams(0.5))
        assert K.shape == (1, 1)
        assert K[0, 0] == 1.0

    def test_identical_rows(self):
        K = gram_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]), KernelParams(2.0))
        np.testing.assert_array_equal(K, np.ones((2, 2)))

    def test_matches_elementwise_kernel(self):
        rng = np.random.default_rng(0)
        X = random_matrix(rng, 3, 4)
        params = KernelParams(1.0)
        K = gram_matrix(X, params)
        for i in range(3):
            for j in range(3):
                assert K[i, j] == pytest.approx(
                    oracles.rbf_kernel(X[i], X[j], params), abs=1e-12
                )

    @given(st.integers(min_value=0, max_value=10_000))
    def test_symmetric_unit_diagonal_bounded(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        X = random_matrix(rng, n, int(rng.integers(1, 5)))
        gamma = float(rng.uniform(0.01, 5.0))
        K = gram_matrix(X, KernelParams(gamma))
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.ones(n))
        assert np.all(K >= 0) and np.all(K <= 1)
        # exp(-gamma * d2) underflows to exactly 0.0 for far-apart points;
        # below an exponent of 700 it is a positive double and must stay so.
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        assert np.all(K[gamma * d2 < 700] > 0)


class TestCenterGram:
    def test_constant_matrix_centers_to_zero(self):
        K = np.full((4, 4), 0.7)
        Kbar, _, total = center_gram(K)
        np.testing.assert_allclose(Kbar, 0.0, atol=1e-12)
        assert total == pytest.approx(0.7)

    def test_two_by_two_hand_formula(self):
        a = 0.3
        Kbar, row_means, total = center_gram(np.array([[1.0, a], [a, 1.0]]))
        expect = np.array([[(1 - a) / 2, (a - 1) / 2], [(a - 1) / 2, (1 - a) / 2]])
        np.testing.assert_allclose(Kbar, expect, atol=1e-12)
        np.testing.assert_allclose(row_means, (1 + a) / 2)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_row_sums_vanish(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 15))
        A = rng.standard_normal((n, n))
        K = A + A.T
        Kbar, _, _ = center_gram(K)
        assert np.abs(Kbar.sum(axis=1)).max() <= 1e-9 * n
        np.testing.assert_array_equal(Kbar, Kbar.T)

    def test_matches_out_of_place_formula_across_blocks(self):
        # 600 rows span three symmetrization blocks, the last one ragged;
        # an asymmetric K exercises the averaging of every mirrored pair.
        K = np.random.default_rng(5).standard_normal((600, 600))
        r = K.mean(axis=1)
        expect = K - r[:, None] - r[None, :] + float(K.mean())
        expect = 0.5 * (expect + expect.T)
        Kbar, _, _ = center_gram(K)
        np.testing.assert_array_equal(Kbar, expect)

    def test_idempotence(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 8))
        Kbar, _, _ = center_gram(A + A.T)
        Kbar2, _, _ = center_gram(Kbar)
        assert np.abs(Kbar2 - Kbar).max() <= 1e-9 * 8


class TestFitKpca:
    def test_two_points_clamp_to_rank_one(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = fit_kpca(X, KernelParams(1.0), q_requested=5)
        assert model.q == 1

    def test_duplicated_points_drop_rank(self):
        rng = np.random.default_rng(1)
        base = random_matrix(rng, 5, 2)
        X = np.vstack([base, base])
        model = fit_kpca(X, KernelParams(1.0), q_requested=10)
        assert model.q < 10

    def test_all_identical_points_degenerate(self):
        X = np.ones((4, 3))
        with pytest.raises(DegenerateKernelError):
            fit_kpca(X, KernelParams(1.0), q_requested=2)

    def test_eigenvalues_sorted_positive(self):
        rng = np.random.default_rng(2)
        model = fit_kpca(random_matrix(rng, 20, 3), KernelParams(0.5), 10)
        assert np.all(np.diff(model.eigenvalues) <= 0)
        assert np.all(model.eigenvalues > 0)

    def test_eigenvector_columns_orthonormal(self):
        rng = np.random.default_rng(4)
        model = fit_kpca(random_matrix(rng, 15, 2), KernelParams(1.0), 8)
        gram = model.eigenvectors.T @ model.eigenvectors
        np.testing.assert_allclose(gram, np.eye(model.q), atol=1e-8)

    def test_gram_reconstruction_at_full_rank(self):
        rng = np.random.default_rng(5)
        X = random_matrix(rng, 12, 2)
        model = fit_kpca(X, KernelParams(0.7), q_requested=12)
        K = gram_matrix(X, model.params)
        Kbar, _, _ = center_gram(K)
        F = model.train_features()
        assert np.abs(F @ F.T - Kbar).max() <= 1e-6

    def test_linear_kernel_matches_pca_scores(self):
        rng = np.random.default_rng(6)
        X = random_matrix(rng, 30, 4)
        model = kpca_from_gram(X @ X.T, X, KernelParams(1.0), q_requested=4)
        F = model.train_features()
        Xc = X - X.mean(axis=0)
        U, s, _ = np.linalg.svd(Xc, full_matrices=False)
        scores = U[:, : model.q] * s[: model.q]
        for j in range(model.q):
            col = F[:, j]
            ref = scores[:, j]
            assert min(
                np.abs(col - ref).max(), np.abs(col + ref).max()
            ) <= 1e-6

    def test_determinism(self):
        rng = np.random.default_rng(7)
        X = random_matrix(rng, 10, 3)
        m1 = fit_kpca(X, KernelParams(0.3), 5)
        m2 = fit_kpca(X, KernelParams(0.3), 5)
        np.testing.assert_array_equal(m1.eigenvectors, m2.eigenvectors)
        np.testing.assert_array_equal(m1.eigenvalues, m2.eigenvalues)


class TestTopQMatchesFullSpectrum:
    """fit_kpca solves only the top min(q, N) eigenpairs; the oracle solves
    all N and keeps the top ones. Both round differently, so they agree to
    a tolerance, and the retained count must be the same."""

    @given(
        st.integers(0, 10_000),
        st.integers(2, 60),
        st.integers(1, 4),
        st.floats(0.05, 5.0),
        st.integers(1, 63),
    )
    @example(0, 7, 2, 1.0, 20)    # q_requested > N
    @settings(deadline=None)
    def test_matches_full_spectrum(self, seed, n, d, gamma, q):
        rng = np.random.default_rng(seed)
        X = random_matrix(rng, n, d, scale=rng.uniform(0.1, 3.0))
        params = KernelParams(gamma)
        got = fit_kpca(X, params, q)
        want = oracles.fit_kpca(X, params, q)
        assert got.q == want.q
        lam = want.eigenvalues
        # Eigenvalues far above the rank floor agree to rtol 1e-10; the
        # solver's absolute error, ~1e-15 * lambda_max, bounds the rest.
        big = lam >= 1e-5 * lam[0]
        np.testing.assert_allclose(got.eigenvalues[big], lam[big], rtol=1e-10, atol=0)
        np.testing.assert_allclose(got.eigenvalues, lam, rtol=0, atol=1e-12 * lam[0])
        # An eigenvector is determined to about eps * lambda_max / gap, so
        # compare the ones whose eigenvalue is well separated from its
        # neighbours in the full spectrum, up to sign.
        full = np.linalg.eigvalsh(center_gram(gram_matrix(X, params))[0])[::-1]
        for j in range(got.q):
            gap = min(full[j - 1] - full[j] if j > 0 else np.inf,
                      full[j] - full[j + 1] if j + 1 < n else np.inf)
            if gap > 1e-4 * full[0]:
                v, w = got.eigenvectors[:, j], want.eigenvectors[:, j]
                np.testing.assert_allclose(v * np.sign(v @ w), w, rtol=0, atol=1e-9)

    def test_q_above_n_clamps_to_rank(self):
        rng = np.random.default_rng(8)
        X = random_matrix(rng, 7, 2)
        got = fit_kpca(X, KernelParams(1.0), q_requested=20)
        want = oracles.fit_kpca(X, KernelParams(1.0), q_requested=20)
        assert got.q == want.q == 6  # centering removes one dimension
        np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=1e-10)

    def test_q_above_rank_clamps_to_rank(self):
        rng = np.random.default_rng(9)
        X = np.repeat(random_matrix(rng, 4, 2), 3, axis=0)
        got = fit_kpca(X, KernelParams(1.0), q_requested=10)
        want = oracles.fit_kpca(X, KernelParams(1.0), q_requested=10)
        assert got.q == want.q == 3
        np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=1e-10)

    @pytest.mark.parametrize("q", [1, 4, 10])
    def test_identical_points_degenerate_for_any_subset(self, q):
        X = np.full((4, 3), 2.5)
        with pytest.raises(DegenerateKernelError):
            fit_kpca(X, KernelParams(1.0), q_requested=q)


class TestTransform:
    def test_training_points_reproduce_features(self):
        rng = np.random.default_rng(8)
        X = random_matrix(rng, 18, 3)
        model = fit_kpca(X, KernelParams(0.4), 6)
        np.testing.assert_allclose(
            transform(model, X), model.train_features(), atol=1e-6
        )

    def test_empty_input(self):
        rng = np.random.default_rng(9)
        model = fit_kpca(random_matrix(rng, 6, 2), KernelParams(1.0), 3)
        out = transform(model, np.empty((0, 2)))
        assert out.shape == (0, model.q)

    def test_far_point_matches_zero_kernel_limit(self):
        rng = np.random.default_rng(10)
        X = random_matrix(rng, 8, 2)
        model = fit_kpca(X, KernelParams(1.0), 4)
        far = np.array([[1e6, 1e6]])
        got = transform(model, far)
        # All k(x, x_i) underflow to 0; only the stored centering terms remain.
        kbar = -model.gram_row_means + model.gram_total_mean
        expect = (kbar @ model.eigenvectors) / np.sqrt(model.eigenvalues)
        np.testing.assert_allclose(got[0], expect, atol=1e-6)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        model = fit_kpca(random_matrix(rng, 6, 2), KernelParams(1.0), 3)
        with pytest.raises(ValueError):
            transform(model, np.zeros((3, 5)))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_transform_consistency_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 15))
    X = random_matrix(rng, n, int(rng.integers(1, 4)))
    model = fit_kpca(X, KernelParams(float(rng.uniform(0.05, 3.0))), n)
    np.testing.assert_allclose(
        transform(model, X), model.train_features(), atol=1e-6
    )
