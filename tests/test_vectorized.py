"""The vectorized fit and score paths return exactly what the scalar
loops in oracles.py return: equal bits, not merely close values. Blocked
scoring matches the single-pass oracle exactly within one block and to
rounding across blocks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from lkplo import kernel_feature
from lkplo.clustering import _kmeanspp_init, _lloyd, _repair_empty, assign_nearest, kmeans_fit
from lkplo.data import gen_three_gaussians
from lkplo.kernel_feature import KernelParams, _cross_kernel, gram_matrix, transform
from lkplo.plo import (
    SCORE_BLOCK_BYTES,
    DegenerateDirectionsError,
    DirectionConfig,
    FitConfig,
    LossSpec,
    _block_rows,
    _losses,
    _score_block,
    fit,
    gen_directions,
    score,
)


def features(seed, n, q, n_distinct):
    """n rows drawn from n_distinct distinct points, so n_distinct < n
    gives duplicate rows (and forces empty-cluster repair when k is
    close to n)."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n_distinct, q)) * rng.uniform(0.1, 10.0)
    return points[rng.integers(n_distinct, size=n)] if n_distinct < n else points


def assert_runs_equal(got, want):
    for g, w in zip(got[:3], want[:3]):
        assert np.array_equal(g, w)
    if len(got) > 3:
        assert got[3] == want[3]


# q >= 2: with one column, F[labels == j].mean(axis=0) reduces a
# contiguous run and numpy sums it pairwise; see test_single_column.
problems = st.tuples(
    st.integers(0, 10_000),       # seed
    st.integers(1, 40),           # n
    st.integers(2, 6),            # q
    st.floats(0.0, 1.0),          # k as a fraction of n
    st.floats(0.05, 1.0),         # distinct rows as a fraction of n
)


def unpack(problem):
    seed, n, q, k_frac, distinct_frac = problem
    k = max(1, round(k_frac * n))
    F = features(seed, n, q, max(1, round(distinct_frac * n)))
    return seed, F, k


class TestKmeansMatchesScalar:
    @given(problems)
    @example((0, 12, 2, 1.0, 1.0))    # k = N
    @example((1, 12, 2, 0.9, 1.0))    # k close to N
    @example((5, 40, 6, 0.0, 1.0))    # k = 1
    @example((2, 12, 3, 0.9, 0.25))   # duplicate rows, k close to N
    @example((3, 30, 2, 1.0, 0.5))    # duplicate rows, k = N
    @settings(deadline=None)
    def test_lloyd(self, problem):
        seed, F, k = unpack(problem)
        centers = _kmeanspp_init(F, k, np.random.default_rng(seed))
        got = _lloyd(F, centers.copy())
        want = oracles.lloyd(F, centers.copy())
        assert_runs_equal(got, want)

    @given(problems)
    @example((3, 30, 2, 1.0, 0.5))
    @settings(deadline=None, max_examples=30)
    def test_kmeans_fit(self, problem):
        seed, F, k = unpack(problem)
        model = kmeans_fit(F, k, seed, n_init=3)
        want = oracles.kmeans_fit(F, k, seed, n_init=3)
        assert_runs_equal((model.centroids, model.membership, model.inertia), want)

    def test_single_column(self):
        # The scalar mean of one column sums each cluster pairwise, the
        # bincount in index order, so the centroids agree to rounding
        # only. The protocol's q is at least 5.
        F = features(4, 40, 1, 40)
        centers = _kmeanspp_init(F, 3, np.random.default_rng(4))
        got = _lloyd(F, centers.copy())
        want = oracles.lloyd(F, centers.copy())
        assert np.array_equal(got[1], want[1])
        np.testing.assert_allclose(got[0], want[0], rtol=1e-14, atol=0)

    def test_duplicates_exercise_the_repair(self):
        # Two copies of each point: k-means++ seeds distinct indices with
        # equal coordinates, the first assignment leaves clusters empty,
        # and the repair has to fill them.
        F = np.repeat(np.column_stack([np.arange(6.0), np.arange(6.0) ** 2]), 2, axis=0)
        centers = _kmeanspp_init(F, 12, np.random.default_rng(0))
        got = _lloyd(F, centers.copy())
        want = oracles.lloyd(F, centers.copy())
        assert_runs_equal(got, want)
        assert np.bincount(got[1], minlength=12).tolist() == [1] * 12

    @given(problems)
    @example((0, 12, 2, 1.0, 1.0))    # k = N
    @example((2, 12, 3, 0.9, 0.25))   # duplicate rows, k close to N
    @example((3, 30, 2, 1.0, 0.5))    # duplicate rows, k = N: zero-total draws
    @settings(deadline=None)
    def test_kmeanspp_init(self, problem):
        seed, F, k = unpack(problem)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(_kmeanspp_init(F, k, rng), oracles.kmeanspp_init(F, k, ref))
        assert rng.bit_generator.state == ref.bit_generator.state

    @given(st.integers(0, 10_000), st.integers(2, 30), st.integers(1, 29))
    def test_repair_empty(self, seed, n, n_used):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, n + 1))
        n_used = min(n_used, k)
        F = rng.standard_normal((n, 2))
        used = rng.choice(k, size=n_used, replace=False)
        labels = used[rng.integers(n_used, size=n)]
        d2 = rng.uniform(0.0, 1.0, size=n)
        d2[rng.integers(n)] = d2.max()  # a tie for the farthest point
        centers = rng.standard_normal((k, 2))
        got = (F, centers.copy(), labels.copy(), d2.copy())
        want = (F, centers.copy(), labels.copy(), d2.copy())
        _repair_empty(*got, k)
        oracles.repair_empty(*want, k)
        for g, w in zip(got[1:], want[1:]):
            assert np.array_equal(g, w)
        assert np.bincount(got[2], minlength=k).min() >= 1


class TestKernelMatchesReference:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 40),
        st.integers(0, 40),
        st.integers(1, 5),
        st.floats(1e-3, 1e3),
    )
    def test_gram_and_cross_kernel(self, seed, n, m, d, gamma):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
        Y = rng.standard_normal((m, d))
        params = KernelParams(gamma)
        assert np.array_equal(gram_matrix(X, params), oracles.gram_matrix(X, params))
        assert np.array_equal(_cross_kernel(Y, X, params),
                              oracles.cross_kernel(Y, X, params))

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_mirror_copies_the_upper_triangle(self, n, monkeypatch):
        # numpy computes X @ X.T with a symmetric rank-k update, so a real
        # Gram matrix is often symmetric before the mirror; an asymmetric
        # one shows which triangle is kept.
        A = np.random.default_rng(n).uniform(size=(n, n))
        monkeypatch.setattr(kernel_feature, "_cross_kernel", lambda *args: A.copy())
        monkeypatch.setattr(oracles, "cross_kernel", lambda *args: A.copy())
        X = np.zeros((n, 1))
        assert np.array_equal(gram_matrix(X, KernelParams(1.0)),
                              oracles.gram_matrix(X, KernelParams(1.0)))


CONFIGS = [
    DirectionConfig(),
    DirectionConfig(n_random=7, include_basis=False, n_one_point=30, n_two_points=3),
    DirectionConfig(n_random=0, include_basis=True, n_one_point=0, n_two_points=60),
    DirectionConfig(n_random=1, include_basis=False, n_one_point=1, n_two_points=1),
]


class TestDirectionsMatchScalar:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 25),
        st.integers(1, 8),
        st.sampled_from(CONFIGS),
        st.floats(0.0, 1.0),
    )
    @settings(deadline=None)
    def test_gen_directions(self, seed, n, q, config, zero_frac):
        # Some rows (and so some differences) sit exactly at zero or just
        # below the norm floor and must be dropped by both versions.
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((n, q))
        small = rng.uniform(size=n) < zero_frac
        F[small] *= rng.choice([0.0, 1e-13, 1e-12], size=(int(small.sum()), 1))
        try:
            want = oracles.gen_directions(F, config, seed)
        except DegenerateDirectionsError:
            with pytest.raises(DegenerateDirectionsError):
                gen_directions(F, config, seed)
            return
        assert np.array_equal(gen_directions(F, config, seed), want)

    def test_rows_below_the_floor_are_dropped(self):
        F = np.zeros((5, 3))
        F[1] = [1e-13, 0.0, 0.0]
        F[3] = [3.0, 4.0, 0.0]
        config = DirectionConfig(n_random=0, include_basis=False, n_one_point=5, n_two_points=0)
        got = gen_directions(F, config, seed=4)
        assert np.array_equal(got, oracles.gen_directions(F, config, seed=4))
        assert np.array_equal(got, [[0.6, 0.8, 0.0]] * len(got))


class TestScoreAssignmentMatchesScalar:
    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(c, 0.5, size=(40, 2)) for c in (-3.0, 0.0, 3.0)])
        config = FitConfig(variant="lkplo", loss=LossSpec("svm_like", 2.0),
                           gamma=0.5, q=6, k=5, seed=1)
        return fit(X, config)

    def grid(self):
        axis = np.linspace(-6.0, 6.0, 61)
        return np.array([[x, y] for x in axis for y in axis])

    def test_batch_equals_per_row(self, model):
        F = transform(model.kpca, self.grid())
        want = [oracles.assign_nearest(model.centroids, f) for f in F]
        assert np.array_equal(assign_nearest(model.centroids, F), want)

    def test_ties_break_to_lowest_index(self, model):
        # Midpoints of centroid pairs sit on (or within a rounding step
        # of) the bisector, where the per-row and batch forms must agree.
        C = model.centroids
        F = np.array([(C[a] + C[b]) / 2 for a in range(len(C)) for b in range(len(C))])
        want = [oracles.assign_nearest(C, f) for f in F]
        assert np.array_equal(assign_nearest(C, F), want)
        assert assign_nearest(C, C[2:3])[0] == 2

    def test_score_uses_the_per_row_assignment(self, model):
        # The grid spans several score blocks. BLAS may round a product's
        # rows differently for different row counts, so the reference runs
        # the same products on the same block-aligned slices and only the
        # assignment differs: per row here, batched in score.
        X = self.grid()
        b = _block_rows(model)
        assert len(X) > b
        want = np.empty(len(X))
        for s in range(0, len(X), b):
            F = transform(model.kpca, X[s:s + b])
            assign = np.array([oracles.assign_nearest(model.centroids, f) for f in F])
            block = want[s:s + b]
            for j, u in enumerate(model.directions):
                rows = assign == j
                proj = (F[rows] - model.centroids[j]) @ u.T
                losses = _losses(proj, model.medians[j], model.mads[j], model.loss)
                block[rows] = losses.max(axis=1) / model.sizes[j]
        assert np.array_equal(score(model, X), want)


class TestBlockedScore:
    @pytest.fixture(scope="class", params=[
        ("lkplo", LossSpec("svm_like", 2.0)),
        ("lkplo", LossSpec("robust_z")),
        ("kplo", LossSpec("robust_z")),
        ("plo", LossSpec("svm_like", 1.5)),
    ], ids=lambda p: f"{p[0]}-{p[1].kind}")
    def model(self, request):
        variant, loss = request.param
        X = gen_three_gaussians(3).X
        return fit(X, FitConfig(variant=variant, loss=loss, gamma=0.5, q=12, k=6, seed=2))

    def rows(self, n, seed=0):
        return np.random.default_rng(seed).uniform(-4.0, 9.0, size=(n, 2))

    @pytest.mark.parametrize("m", [0, 1, 2, 97, "B"])
    def test_one_block_equals_single_pass(self, model, m):
        if m == "B":
            m = _block_rows(model)
        X = self.rows(m)
        got = score(model, X)
        assert got.shape == (m,)
        assert np.array_equal(got, oracles.score(model, X))

    def test_several_blocks_equal_single_pass_to_rounding(self, model):
        # BLAS rounds a product's rows differently for different row
        # counts, so splitting the batch moves scores by about 1e-15.
        b = _block_rows(model)
        X = self.rows(3 * b + 17, seed=1)
        np.testing.assert_allclose(score(model, X), oracles.score(model, X),
                                   rtol=1e-12, atol=0)

    def test_score_concatenates_the_blocks(self, model):
        b = _block_rows(model)
        X = self.rows(2 * b + 5, seed=2)
        want = np.concatenate([_score_block(model, X[s:s + b])
                               for s in range(0, len(X), b)])
        assert np.array_equal(score(model, X), want)

    def test_non_finite_row_anywhere_in_the_batch_is_named(self, model):
        X = self.rows(2 * _block_rows(model) + 5)
        X[-2, 1] = np.nan
        with pytest.raises(ValueError, match=f"input row {len(X) - 2} "):
            score(model, X)


def test_score_memory_is_per_block():
    # numpy reports its buffers to tracemalloc. A single pass over 20k
    # rows at N = 480 allocates several 77 MB (M, N) temporaries; blocked
    # scoring needs a few block-sized ones plus the output.
    ds = gen_three_gaussians(0)
    q = 20
    model = fit(ds.X, FitConfig(variant="lkplo", loss=LossSpec("svm_like", 2.0),
                                gamma=0.5, q=q, k=10, seed=0))
    assert len(ds.X) >= 400
    m = 20_000
    X = np.random.default_rng(0).uniform(-4.0, 9.0, size=(m, 2))
    tracemalloc.start()
    try:
        score(model, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * SCORE_BLOCK_BYTES + m * (q + 1) * 8
