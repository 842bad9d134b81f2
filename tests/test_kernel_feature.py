import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

import oracles
from lkplo import kernel_feature
from lkplo.data import gen_three_gaussians
from lkplo.kernel_feature import (
    ARPACK_MIN_N,
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

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_exactly_symmetric_at_size(self, layout):
        # No mirror makes K symmetric: numpy's symmetric rank-k update of a
        # C-contiguous X does. A column-strided view's general product is
        # not symmetric at this size, so gram_matrix must copy it first.
        A = np.random.default_rng(0).standard_normal((700, 8))
        X = {"C": A, "F": np.asfortranarray(A), "strided": A[:, ::2]}[layout]
        K = gram_matrix(X, KernelParams(0.2))
        assert np.array_equal(K, K.T)


class TestCenterGram:
    def test_constant_matrix_centers_to_zero(self):
        K = np.full((4, 4), 0.7)
        _, total = center_gram(K)
        np.testing.assert_allclose(K, 0.0, atol=1e-12)
        assert total == pytest.approx(0.7)

    def test_two_by_two_hand_formula(self):
        a = 0.3
        K = np.array([[1.0, a], [a, 1.0]])
        row_means, _ = center_gram(K)
        expect = np.array([[(1 - a) / 2, (a - 1) / 2], [(a - 1) / 2, (1 - a) / 2]])
        np.testing.assert_allclose(K, expect, atol=1e-12)
        np.testing.assert_allclose(row_means, (1 + a) / 2)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_row_sums_vanish(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 15))
        A = rng.standard_normal((n, n))
        K = A + A.T
        center_gram(K)
        assert np.abs(K.sum(axis=1)).max() <= 1e-9 * n
        np.testing.assert_array_equal(K, K.T)

    def test_matches_out_of_place_formula_across_blocks(self):
        # 600 rows span three 256-row chunks, the last one ragged.
        A = np.random.default_rng(5).standard_normal((600, 600))
        K = A + A.T
        r, t = K.mean(axis=1), float(K.mean())
        expect = K - (r[:, None] + r[None, :]) + t
        row_means, total_mean = center_gram(K)
        assert np.array_equal(row_means, r) and total_mean == t
        assert np.array_equal(K, expect)
        assert np.array_equal(K, K.T)

    def test_idempotence(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 8))
        Kbar = A + A.T
        center_gram(Kbar)
        Kbar2 = Kbar.copy()
        center_gram(Kbar2)
        assert np.abs(Kbar2 - Kbar).max() <= 1e-9 * 8


class TestKernelParams:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
    def test_gamma_outside_positive_finite_named(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            KernelParams(gamma)


class TestFitKpca:
    def test_two_points_clamp_to_rank_one(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        model, _ = fit_kpca(X, KernelParams(1.0), q_requested=5)
        assert model.q == 1

    def test_duplicated_points_drop_rank(self):
        rng = np.random.default_rng(1)
        base = random_matrix(rng, 5, 2)
        X = np.vstack([base, base])
        model, _ = fit_kpca(X, KernelParams(1.0), q_requested=10)
        assert model.q < 10

    @pytest.mark.parametrize("n, q, message", [
        (1, 3, "need at least 2 training points"),
        (2, 0, "q_requested must be >= 1"),
    ])
    def test_too_few_points_or_components_named(self, n, q, message):
        X = random_matrix(np.random.default_rng(3), n, 2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            kpca_from_gram(gram_matrix(X, KernelParams(1.0)), X, KernelParams(1.0), q)

    def test_all_identical_points_degenerate(self):
        X = np.ones((4, 3))
        with pytest.raises(DegenerateKernelError):
            fit_kpca(X, KernelParams(1.0), q_requested=2)

    def test_eigenvalues_sorted_positive(self):
        rng = np.random.default_rng(2)
        model, _ = fit_kpca(random_matrix(rng, 20, 3), KernelParams(0.5), 10)
        assert np.all(np.diff(model.eigenvalues) <= 0)
        assert np.all(model.eigenvalues > 0)

    def test_eigenvector_columns_orthonormal(self):
        rng = np.random.default_rng(4)
        model, F = fit_kpca(random_matrix(rng, 15, 2), KernelParams(1.0), 8)
        V = F / np.sqrt(model.eigenvalues)
        np.testing.assert_allclose(V.T @ V, np.eye(model.q), atol=1e-8)

    def test_gram_reconstruction_at_full_rank(self):
        rng = np.random.default_rng(5)
        X = random_matrix(rng, 12, 2)
        model, F = fit_kpca(X, KernelParams(0.7), q_requested=12)
        K = gram_matrix(X, model.params)
        center_gram(K)
        assert np.abs(F @ F.T - K).max() <= 1e-6

    def test_linear_kernel_matches_pca_scores(self):
        rng = np.random.default_rng(6)
        X = random_matrix(rng, 30, 4)
        model, F = kpca_from_gram(X @ X.T, X, KernelParams(1.0), q_requested=4)
        Xc = X - X.mean(axis=0)
        U, s, _ = np.linalg.svd(Xc, full_matrices=False)
        scores = U[:, : model.q] * s[: model.q]
        for j in range(model.q):
            col = F[:, j]
            ref = scores[:, j]
            assert min(
                np.abs(col - ref).max(), np.abs(col + ref).max()
            ) <= 1e-6

    def test_fit_holds_one_gram_sized_array(self):
        # The benchmark's fit_large input: three Gaussians plus 5% uniform
        # outliers, N = 2000, d = 10, standardized, gamma = 1/d, q = 20.
        # One N x N array is 30.5 MiB; the eigensolver's workspace and the
        # model's arrays add about 4 MiB. A second N x N array would not fit.
        rng = np.random.default_rng(0)
        centers = rng.normal(0.0, 3.0, size=(3, 10))
        inliers = centers[rng.integers(3, size=1900)] + rng.standard_normal((1900, 10))
        X = np.vstack([inliers, rng.uniform(inliers.min(axis=0), inliers.max(axis=0),
                                            size=(100, 10))])
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        fit_kpca(X[:10], KernelParams(0.1), 2)  # imports scipy.linalg untraced
        tracemalloc.start()
        try:
            fit_kpca(X, KernelParams(0.1), 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    def test_determinism(self):
        rng = np.random.default_rng(7)
        X = random_matrix(rng, 10, 3)
        m1, F1 = fit_kpca(X, KernelParams(0.3), 5)
        m2, F2 = fit_kpca(X, KernelParams(0.3), 5)
        np.testing.assert_array_equal(F1, F2)
        np.testing.assert_array_equal(m1.eigenvalues, m2.eigenvalues)

    def test_non_finite_row_named(self, capfd):
        # At N = 300 an inf row used to reach ARPACK, which made LAPACK
        # print a DLASCL error before scipy rejected the array.
        X = random_matrix(np.random.default_rng(12), 300, 2)
        X[123, 1] = np.inf
        X[200, 0] = np.nan
        with pytest.raises(ValueError, match="training row 123 is not finite"):
            fit_kpca(X, KernelParams(0.5), 10)
        assert capfd.readouterr().err == ""


def assert_matches_full_spectrum(seed, n, d, gamma, q):
    """fit_kpca agrees with the oracle's full-spectrum solve on a random
    (n, d) input, and keeps the same number of components, or raises
    where K = I to rounding leaves the kept components undetermined."""
    rng = np.random.default_rng(seed)
    X = random_matrix(rng, n, d, scale=rng.uniform(0.1, 3.0))
    params = KernelParams(gamma)
    try:
        got, F = fit_kpca(X, params, q)
    except DegenerateKernelError:
        lam = oracles.fit_kpca(X, params, n).model.eigenvalues
        assert q < n - 1 and len(lam) == n - 1 and np.ptp(lam) <= 1e-12 * lam[0]
        return
    want = oracles.fit_kpca(X, params, q)
    assert got.q == want.model.q
    lam = want.model.eigenvalues
    # Eigenvalues far above the rank floor agree to rtol 1e-10; the
    # solver's absolute error, ~1e-15 * lambda_max, bounds the rest.
    big = lam >= 1e-5 * lam[0]
    np.testing.assert_allclose(got.eigenvalues[big], lam[big], rtol=1e-10, atol=0)
    np.testing.assert_allclose(got.eigenvalues, lam, rtol=0, atol=1e-12 * lam[0])
    # An eigenvector is determined to about eps * lambda_max / gap, so
    # compare the ones whose eigenvalue is well separated from its
    # neighbours in the full spectrum, up to sign.
    K = gram_matrix(X, params)
    center_gram(K)
    full = np.linalg.eigvalsh(K)[::-1]
    for j in range(got.q):
        gap = min(full[j - 1] - full[j] if j > 0 else np.inf,
                  full[j] - full[j + 1] if j + 1 < n else np.inf)
        if gap > 1e-4 * full[0]:
            v, w = F[:, j] / np.sqrt(got.eigenvalues[j]), want.eigenvectors[:, j]
            np.testing.assert_allclose(v * np.sign(v @ w), w, rtol=0, atol=1e-9)


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
    @example(4, 3, 3, 1.0, 1)     # K = I to rounding: raises
    @settings(deadline=None)
    def test_matches_full_spectrum(self, seed, n, d, gamma, q):
        assert_matches_full_spectrum(seed, n, d, gamma, q)

    def test_q_above_n_clamps_to_rank(self):
        rng = np.random.default_rng(8)
        X = random_matrix(rng, 7, 2)
        got, _ = fit_kpca(X, KernelParams(1.0), q_requested=20)
        want = oracles.fit_kpca(X, KernelParams(1.0), q_requested=20).model
        assert got.q == want.q == 6  # centering removes one dimension
        np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=1e-10)

    def test_q_above_rank_clamps_to_rank(self):
        rng = np.random.default_rng(9)
        X = np.repeat(random_matrix(rng, 4, 2), 3, axis=0)
        got, _ = fit_kpca(X, KernelParams(1.0), q_requested=10)
        want = oracles.fit_kpca(X, KernelParams(1.0), q_requested=10).model
        assert got.q == want.q == 3
        np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=1e-10)

    @pytest.mark.parametrize("q", [1, 4, 10])
    def test_identical_points_degenerate_for_any_subset(self, q):
        X = np.full((4, 3), 2.5)
        with pytest.raises(DegenerateKernelError):
            fit_kpca(X, KernelParams(1.0), q_requested=q)


def copies(seed, n_copies, n_points, d, gamma):
    """n_copies translates of one random n_points configuration, so far
    apart that no kernel value between copies is above exp(-1000): every
    eigenvalue of one copy's Gram matrix repeats n_copies times (to
    rounding) in the whole one. One point per copy gives K = I to
    rounding, whose centered form has eigenvalue 1 with multiplicity
    N - 1."""
    rng = np.random.default_rng(seed)
    shape = rng.standard_normal((n_points, d))
    spacing = np.sqrt(1000.0 / gamma) + 2 * np.abs(shape).max() + 1.0
    offsets = spacing * np.arange(n_copies)[:, None, None]
    return (shape + offsets).reshape(n_copies * n_points, d)


class TestRepeatedEigenvaluesAtTheSubsetEdge:
    """Kept components that are part of a repeated eigenvalue are not
    determined. K = I to rounding (no two points within the kernel's
    reach) raises on either solver unless q >= N - 1 keeps the whole
    eigenspace, and a subset that dsyevr returns short raises too."""

    @pytest.mark.parametrize("n, q", [(8, 1), (49, 1), (50, 2), (200, 3), (250, 3)])
    def test_far_apart_points_on_a_line(self, n, q):
        # K = I; (250, 3) takes the Lanczos path. 1/49 * 49 != 1 in
        # floating point, so N = 49 pins that the check compares t to 1/N.
        X = np.arange(2.0 * n).reshape(n, 2) * 10
        with pytest.raises(DegenerateKernelError, match="gamma=1.0.*kernel's reach"):
            fit_kpca(X, KernelParams(1.0), q)

    @pytest.mark.parametrize("n, q", [(2, 1), (8, 7), (8, 8)])
    def test_far_apart_points_keeping_the_whole_eigenspace(self, n, q):
        X = np.arange(2.0 * n).reshape(n, 2) * 10
        model, F = fit_kpca(X, KernelParams(1.0), q)
        assert model.q == n - 1
        np.testing.assert_allclose(model.eigenvalues, 1.0, rtol=1e-12)
        # F^T F = diag(lambda) holds V^T V = I.
        np.testing.assert_allclose(F.T @ F, np.diag(model.eigenvalues), atol=1e-12)

    def test_short_dense_subset_raises(self, monkeypatch):
        # dsyevr can return fewer pairs than its index subset asks for
        # when a tie straddles the subset's edge; a solver that drops
        # one pair stands in for it.
        def short_eigh(a, **kwargs):
            w, v = eigh(a, **kwargs)
            return w[1:], v[:, 1:]

        monkeypatch.setattr(scipy.linalg, "eigh", short_eigh)
        X = random_matrix(np.random.default_rng(6), 20, 2)
        with pytest.raises(DegenerateKernelError, match="top q components are not"):
            fit_kpca(X, KernelParams(1.0), 3)

    @pytest.mark.parametrize("q", [10, 478])  # Lanczos, dense
    def test_huge_gamma_on_three_gaussians(self, q):
        X = gen_three_gaussians(0).X
        with pytest.raises(DegenerateKernelError, match="gamma=1e\\+300"):
            fit_kpca(X, KernelParams(1e300), q)
        assert fit_kpca(X, KernelParams(1e300), len(X) - 1)[0].q == len(X) - 1

    @given(
        st.integers(0, 10_000),
        st.integers(1, 20),
        st.integers(1, 10),
        st.integers(1, 3),
        st.floats(0.1, 10.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_fit_keeps_min_of_q_and_rank(self, seed, n_copies, n_points, d, gamma, q_frac):
        n = n_copies * n_points
        assume(2 <= n <= ARPACK_MIN_N)
        X = copies(seed, n_copies, n_points, d, gamma)
        params = KernelParams(gamma)
        q = 1 + round(q_frac * (n - 1))
        try:
            want = oracles.fit_kpca(X, params, n).model
        except DegenerateKernelError:
            with pytest.raises(DegenerateKernelError):
                fit_kpca(X, params, q)
            return
        try:
            got, F = fit_kpca(X, params, q)
        except DegenerateKernelError:
            # Allowed only where the kept components are not determined:
            # a flat spectrum, or lambda_q tied with lambda_{q+1}.
            lam, tol = want.eigenvalues, 1e-12 * want.eigenvalues[0]
            assert np.ptp(lam) <= tol or (q < want.q and lam[q - 1] - lam[q] <= tol)
            return
        assert got.q == min(q, want.q)
        np.testing.assert_allclose(got.eigenvalues, want.eigenvalues[:got.q],
                                   rtol=0, atol=1e-12 * want.eigenvalues[0])
        V = F / np.sqrt(got.eigenvalues)
        np.testing.assert_allclose(V.T @ V, np.eye(got.q), atol=1e-9)


class TestDenseSolveInPlace:
    """The dense path solves in K itself, with one dsyevr call and no
    second N x N array."""

    @pytest.mark.parametrize("X, gamma, q", [
        (random_matrix(np.random.default_rng(3), 300, 3), 0.5, 40),
        (random_matrix(np.random.default_rng(4), 50, 2), 1.0, 50),
    ], ids=["subset", "all-pairs"])
    def test_eigenpairs_equal_the_copying_path(self, monkeypatch, X, gamma, q):
        in_place = fit_kpca(X, KernelParams(gamma), q)
        calls = []

        def eigh_on_a_copy(a, **kwargs):
            calls.append(kwargs)
            return eigh(a, **{**kwargs, "overwrite_a": False})

        monkeypatch.setattr(scipy.linalg, "eigh", eigh_on_a_copy)
        assert_same_fit(fit_kpca(X, KernelParams(gamma), q), in_place)
        assert len(calls) == 1

    def test_fit_holds_one_gram_sized_array(self):
        n = 1000
        X = random_matrix(np.random.default_rng(5), n, 5)
        fit_kpca(X[:10], KernelParams(0.2), 2)  # imports scipy.linalg untraced
        tracemalloc.start()
        try:
            model, _ = fit_kpca(X, KernelParams(0.2), n // 10)  # the dense path
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.q == n // 10
        assert peak < 1.5 * 8 * n * n


@pytest.fixture
def eigsh_ks(monkeypatch):
    """The k of every call kpca_from_gram makes to scipy's eigsh."""
    ks = []

    def spy(*args, **kwargs):
        ks.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return ks


def assert_same_fit(a, b):
    """Two (KpcaModel, features) pairs hold bit-identical arrays."""
    (model_a, F_a), (model_b, F_b) = a, b
    assert np.array_equal(F_a, F_b)
    for field in dataclasses.fields(model_a):
        name = field.name
        assert np.array_equal(getattr(model_a, name), getattr(model_b, name)), name


class TestArpackPath:
    """Above ARPACK_MIN_N points, with fewer than N/10 pairs wanted, the
    top eigenpairs come from ARPACK's Lanczos solver instead of the dense
    dsyevr solve; they must agree with the full spectrum to the same
    tolerances."""

    def test_solver_switches_at_the_crossover(self, eigsh_ks):
        n, q = ARPACK_MIN_N + 1, ARPACK_MIN_N // 10
        X = random_matrix(np.random.default_rng(0), n, 2)
        fit_kpca(X[:-1], KernelParams(1.0), q)  # N at the crossover
        fit_kpca(X, KernelParams(1.0), q + 1)   # 10 q >= N
        assert eigsh_ks == []
        fit_kpca(X, KernelParams(1.0), q)
        assert eigsh_ks == [q]

    @given(
        st.integers(0, 10_000),
        st.integers(ARPACK_MIN_N + 1, 2 * ARPACK_MIN_N),
        st.integers(1, 4),
        st.floats(0.05, 5.0),
        st.integers(1, ARPACK_MIN_N // 10),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_full_spectrum(self, seed, n, d, gamma, q):
        assert_matches_full_spectrum(seed, n, d, gamma, q)

    def test_double_eigenvalue_keeps_both_copies(self):
        # A 17 x 17 lattice is symmetric under swapping its axes, so the
        # top eigenvalue of its centered Gram matrix is double.
        g = np.linspace(-1.0, 1.0, 17)
        X = np.column_stack([np.repeat(g, 17), np.tile(g, 17)])
        got, _ = fit_kpca(X, KernelParams(1.0), 5)
        want = oracles.fit_kpca(X, KernelParams(1.0), 5).model
        assert got.q == want.q == 5
        assert got.eigenvalues[0] == pytest.approx(50.51, abs=0.01)
        np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=1e-10, atol=0)

    def test_low_rank_fit_keeps_rank_and_is_deterministic(self):
        # Five distinct points give a rank-four centered Gram matrix: the
        # Lanczos basis runs out and restarts from seeded random vectors.
        X = np.repeat(random_matrix(np.random.default_rng(1), 5, 2), 60, axis=0)
        first = fit_kpca(X, KernelParams(1.0), 20)
        assert first[0].q == oracles.fit_kpca(X, KernelParams(1.0), 20).model.q == 4
        assert_same_fit(first, fit_kpca(X, KernelParams(1.0), 20))

    def test_identical_points_degenerate(self):
        # K is zero after centering, so ARPACK rejects its start vector and
        # the dense solve finds no eigenvalue above the floor.
        with pytest.raises(DegenerateKernelError):
            fit_kpca(np.full((ARPACK_MIN_N + 100, 3), 2.5), KernelParams(1.0), 5)

    def test_no_convergence_falls_back_to_dense(self, monkeypatch):
        X = random_matrix(np.random.default_rng(2), ARPACK_MIN_N + 100, 3)
        monkeypatch.setattr(kernel_feature, "ARPACK_MIN_N", len(X))
        dense = fit_kpca(X, KernelParams(0.5), 10)
        monkeypatch.undo()

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((len(X), 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        assert_same_fit(fit_kpca(X, KernelParams(0.5), 10), dense)


class TestTransform:
    def test_training_points_reproduce_features(self):
        rng = np.random.default_rng(8)
        X = random_matrix(rng, 18, 3)
        model, F = fit_kpca(X, KernelParams(0.4), 6)
        np.testing.assert_allclose(transform(model, X), F, atol=1e-6)

    def test_empty_input(self):
        rng = np.random.default_rng(9)
        model, _ = fit_kpca(random_matrix(rng, 6, 2), KernelParams(1.0), 3)
        out = transform(model, np.empty((0, 2)))
        assert out.shape == (0, model.q)

    def test_far_point_matches_zero_kernel_limit(self):
        rng = np.random.default_rng(10)
        X = random_matrix(rng, 8, 2)
        model, _ = fit_kpca(X, KernelParams(1.0), 4)
        far = np.array([[1e6, 1e6], [-1e6, 3e3]])
        assert not _cross_kernel(far, model.train_points, model.params).any()
        # All k(x, x_i) underflow to 0, so only the stored offset remains.
        np.testing.assert_array_equal(transform(model, far), [-model.offset] * 2)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        model, _ = fit_kpca(random_matrix(rng, 6, 2), KernelParams(1.0), 3)
        with pytest.raises(ValueError):
            transform(model, np.zeros((3, 5)))

    def test_non_finite_row_named(self):
        rng = np.random.default_rng(11)
        model, _ = fit_kpca(random_matrix(rng, 6, 2), KernelParams(1.0), 3)
        Xnew = np.zeros((5, 2))
        Xnew[2, 0] = np.nan
        Xnew[4, 1] = -np.inf
        with pytest.raises(ValueError, match="input row 2 is not finite"):
            transform(model, Xnew)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_transform_consistency_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 15))
    X = random_matrix(rng, n, int(rng.integers(1, 4)))
    model, F = fit_kpca(X, KernelParams(float(rng.uniform(0.05, 3.0))), n)
    np.testing.assert_allclose(transform(model, X), F, atol=1e-6)
