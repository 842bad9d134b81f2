"""The vectorized fit and score paths return exactly what the scalar
loops in oracles.py return: equal bits, not merely close values. Blocked
scoring matches the single-pass oracle exactly within one block and to
rounding across blocks, and the folded transform matches the centered
one to rounding."""

import json
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from lkplo import clustering, kernel_feature, plo
from lkplo.clustering import _lloyd_group, _repair_empty, _seed_group, assign_nearest, kmeans_fit
from lkplo.data import gen_three_gaussians
from lkplo.kernel_feature import (
    ABS_EIG_FLOOR,
    BLOCK_BYTES,
    REL_EIG_FLOOR,
    KernelParams,
    _cross_kernel,
    center_gram,
    gram_matrix,
    per_block,
    transform,
)
from lkplo.plo import (
    DegenerateDirectionsError,
    DirectionConfig,
    FitConfig,
    LossSpec,
    _block_width,
    _max_loss,
    _row_medians,
    _score_block,
    fit,
    gen_directions,
    model_to_dict,
    score,
)
from test_evaluation import deadline, set_usable_cpus  # noqa: F401 (a fixture)


def features(seed, n, q, n_distinct):
    """n rows drawn from n_distinct distinct points, so n_distinct < n
    gives duplicate rows (and forces empty-cluster repair when k is
    close to n)."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n_distinct, q)) * rng.uniform(0.1, 10.0)
    return points[rng.integers(n_distinct, size=n)] if n_distinct < n else points


def block_rows(model):
    """Rows per score slab: per_block of the model's widest temporary."""
    return per_block(_block_width(model))


def assert_runs_equal(got, want):
    for g, w in zip(got[:3], want[:3]):
        assert np.array_equal(g, w)
    if len(got) > 3:
        assert got[3] == want[3]


def kmeanspp_init(F, k, rng):
    """One restart's k-means++ centres, seeded as a group of one."""
    return _seed_group(F, np.ascontiguousarray(F.T), k, [rng])[0]


def recording_sums(mp, module, name):
    """Wrap module.name, an assignment returning (labels, d2), so that
    each call appends d2.sum() to the returned list as it returns, before
    any empty-cluster repair changes d2."""
    sums = []
    assign = getattr(module, name)

    def recording(*args):
        labels, d2 = assign(*args)
        sums.append(float(d2.sum()))
        return labels, d2

    mp.setattr(module, name, recording)
    return sums


def lloyd_runs(F, centers):
    """(got, want): one Lloyd run from centers as a group of one, and the
    oracle's, each as (centroids, labels, inertia, the d2.sum() of every
    assignment in the run)."""
    with pytest.MonkeyPatch.context() as mp:
        got_sums = recording_sums(mp, clustering, "_assign")
        want_sums = recording_sums(mp, oracles, "assign")
        got = tuple(part[0] for part in _lloyd_group(F, centers[None].copy()))
        want = oracles.lloyd(F, centers.copy())[:3]
    return got + (got_sums,), want + (want_sums,)


def fit_restarts(F, k, seed, n_init):
    """kmeans_fit with n_init restarts in place of N_INIT."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "N_INIT", n_init)
        return kmeans_fit(F, k, seed)


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
        centers = kmeanspp_init(F, k, np.random.default_rng(seed))
        assert_runs_equal(*lloyd_runs(F, centers))

    @given(problems)
    @example((3, 30, 2, 1.0, 0.5))
    @settings(deadline=None, max_examples=30)
    def test_kmeans_fit(self, problem):
        seed, F, k = unpack(problem)
        centroids, labels = fit_restarts(F, k, seed, 3)
        want = oracles.kmeans_fit(F, k, seed, n_init=3)
        inertia = float(((F - centroids[labels]) ** 2).sum())
        assert_runs_equal((centroids, labels, inertia), want)

    def test_single_column(self):
        # The scalar mean of one column sums each cluster pairwise, the
        # bincount in index order, so the centroids agree to rounding
        # only. The protocol's q is at least 5.
        F = features(4, 40, 1, 40)
        got, want = lloyd_runs(F, kmeanspp_init(F, 3, np.random.default_rng(4)))
        assert np.array_equal(got[1], want[1])
        np.testing.assert_allclose(got[0], want[0], rtol=1e-14, atol=0)

    def test_duplicates_exercise_the_repair(self):
        # Two copies of each point: k-means++ seeds distinct indices with
        # equal coordinates, the first assignment leaves clusters empty,
        # and the repair has to fill them.
        F = np.repeat(np.column_stack([np.arange(6.0), np.arange(6.0) ** 2]), 2, axis=0)
        got, want = lloyd_runs(F, kmeanspp_init(F, 12, np.random.default_rng(0)))
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
        assert np.array_equal(kmeanspp_init(F, k, rng), oracles.kmeanspp_init(F, k, ref))
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
        sizes = np.bincount(labels, minlength=k)
        _repair_empty(*got, sizes)
        oracles.repair_empty(*want, k)
        for g, w in zip(got[1:], want[1:]):
            assert np.array_equal(g, w)
        assert np.array_equal(sizes, np.bincount(got[2], minlength=k))
        assert sizes.min() >= 1


# Near the protocol's sizes (q 5-30, N 288-384). From q = 8 numpy sums a row
# pairwise, while the seeding adds a distance's features in order (see
# clustering._seed_group), which the q <= 6 problems above cannot see.
wide_problems = st.tuples(
    st.integers(0, 10_000),       # seed
    st.integers(8, 300),          # n
    st.integers(8, 30),           # q
    st.integers(1, 30),           # k, at most n
    st.floats(0.05, 1.0),         # distinct rows as a fraction of n
)


def unpack_wide(problem):
    seed, n, q, k, distinct_frac = problem
    return seed, features(seed, n, q, max(1, round(distinct_frac * n))), min(k, n)


def assert_fit_matches_oracle(F, k, seed, n_init, max_iter=clustering.MAX_ITER):
    centroids, labels = fit_restarts(F, k, seed, n_init)
    inertia = float(((F - centroids[labels]) ** 2).sum())
    want = oracles.kmeans_fit(F, k, seed, n_init, max_iter)
    assert_runs_equal((centroids, labels, inertia), want)


class TestKmeansAtProtocolWidth:
    @given(wide_problems)
    @example((2, 300, 30, 30, 1.0))
    @example((3, 40, 8, 30, 0.1))     # duplicate rows: zero-total draws
    @settings(deadline=None, max_examples=40)
    def test_kmeanspp_init(self, problem):
        seed, F, k = unpack_wide(problem)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(kmeanspp_init(F, k, rng), oracles.kmeanspp_init(F, k, ref))
        assert rng.bit_generator.state == ref.bit_generator.state

    @given(wide_problems)
    @example((3, 40, 8, 30, 0.1))
    @settings(deadline=None, max_examples=40)
    def test_lloyd(self, problem):
        seed, F, k = unpack_wide(problem)
        centers = kmeanspp_init(F, k, np.random.default_rng(seed))
        assert_runs_equal(*lloyd_runs(F, centers))

    @given(wide_problems)
    @example((3, 40, 8, 30, 0.1))
    @settings(deadline=None, max_examples=25)
    def test_kmeans_fit(self, problem):
        seed, F, k = unpack_wide(problem)
        assert_fit_matches_oracle(F, k, seed, n_init=3)

    @pytest.mark.parametrize("per_group", [1, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_restarts_split_into_groups(self, monkeypatch, per_group, seed):
        # A budget of per_group restarts' widest temporaries: the default
        # 10 restarts run as several groups, and the best one may sit in
        # any of them. With 9 distinct rows and k = 9, every restart finds
        # the same nine clusters, and so the same inertia, numbered its
        # own way: only the first restart's labels match the oracle.
        # The groups may run on threads and finish in any order, so each
        # group's size is recorded by its first restart index, which its
        # first generator's seed gives.
        monkeypatch.setattr(kernel_feature, "BLOCK_BYTES", per_group * 8 * 120 * 12)
        sizes = {}
        seed_group = clustering._seed_group

        def recording(F, FT, k, rngs):
            sizes[rngs[0].bit_generator.seed_seq.entropy - seed] = len(rngs)
            return seed_group(F, FT, k, rngs)

        monkeypatch.setattr(clustering, "_seed_group", recording)
        for n_distinct in (120, 9):
            sizes.clear()
            assert_fit_matches_oracle(features(seed, 120, 12, n_distinct), 9, seed, n_init=10)
            assert sizes == {r: min(per_group, 10 - r) for r in range(0, 10, per_group)}

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 4])
    def test_iteration_cap(self, monkeypatch, max_iter):
        # Restarts that reach the cap and restarts that converge finish
        # in the same group, at different steps.
        F = features(8, 200, 10, 200)
        monkeypatch.setattr(clustering, "MAX_ITER", max_iter)
        assert_fit_matches_oracle(F, 12, 3, n_init=6, max_iter=max_iter)


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


    @pytest.mark.parametrize("m", [per_block(512) - 1, per_block(512), per_block(512) + 1,
                                   2 * per_block(512) + 1])
    def test_cross_kernel_across_chunks(self, m):
        # The squared norms are added chunk by chunk, per_block(8 * 512)
        # = 32 rows of the 512 columns at a time; every chunk, the short
        # last one included, must give the oracle's doubles.
        rng = np.random.default_rng(m)
        X = rng.standard_normal((512, 3)) * 3.0
        Y = rng.standard_normal((m, 3)) * 3.0
        params = KernelParams(0.7)
        assert np.array_equal(_cross_kernel(Y, X, params),
                              oracles.cross_kernel(Y, X, params))

    def test_gram_symmetric_across_chunks(self):
        n = 513  # norm-term chunks of 16 x 31 + 17 rows
        assert n > 2 * per_block(n)
        X = np.random.default_rng(4).standard_normal((n, 3)) * 3.0
        K = gram_matrix(X, KernelParams(0.7))
        assert np.array_equal(K, K.T)
        assert np.array_equal(K, oracles.gram_matrix(X, KernelParams(0.7)))


def assert_transform_matches_centered(fit, Xnew):
    """Each feature j is an N-term product of kernel values in [0, 1]
    with A_j = v_j / sqrt(lambda_j), so the folded and the centered forms
    round it differently by up to about N * eps * |A_j|_1; components
    near the rank floor have a large A_j and round the most."""
    model = fit.model
    got = transform(model, Xnew)
    want = oracles.centered_transform(fit, Xnew)
    n = len(model.train_points)
    A_norms = np.abs(fit.eigenvectors / np.sqrt(model.eigenvalues)).sum(axis=0)
    for j, a in enumerate(A_norms):
        np.testing.assert_allclose(got[:, j], want[:, j], rtol=1e-12,
                                   atol=4 * n * np.finfo(float).eps * a)


# A fit whose last kept eigenvalue is 1.2 times the rank floor. Dropping
# the mean(k(x)) (1^T A) term from transform moves that component by
# about 1e9 times the tolerance.
AT_RANK_FLOOR = (172, 12, 2, 0.003, 1.0)


class TestTransformMatchesCentered:
    @staticmethod
    def fitted(seed, n, d, gamma, q_frac):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
        fit = oracles.fit_kpca(X, KernelParams(gamma), max(1, round(q_frac * n)))
        return fit, rng

    @given(
        st.integers(0, 10_000),
        st.integers(2, 60),
        st.integers(1, 5),
        st.floats(1e-3, 1e3),
        st.floats(0.0, 1.0),
    )
    @example(*AT_RANK_FLOOR)
    @settings(deadline=None)
    def test_transform(self, seed, n, d, gamma, q_frac):
        # The reference fit solves the full spectrum; the transform does
        # not depend on which solver produced the model. The last rows are
        # so far from every training point that each kernel value is 0.
        fit, rng = self.fitted(seed, n, d, gamma, q_frac)
        model = fit.model
        far = 1e6 * rng.choice([-1.0, 1.0], size=(3, d))
        Xnew = np.vstack([model.train_points, 3.0 * rng.standard_normal((9, d)), far])
        assert not _cross_kernel(far, model.train_points, model.params).any()
        assert_transform_matches_centered(fit, Xnew)

    def test_last_component_at_the_rank_floor(self):
        fit, rng = self.fitted(*AT_RANK_FLOOR)
        eigenvalues = fit.model.eigenvalues
        floor = max(ABS_EIG_FLOOR, REL_EIG_FLOOR * eigenvalues[0])
        assert floor < eigenvalues[-1] < 1.5 * floor
        assert_transform_matches_centered(fit, 3.0 * rng.standard_normal((50, 2)))


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


def fit_and_loop(monkeypatch, X, config, membership=None):
    """plo.fit(X, config), and the oracle loop's (directions, medians,
    MADs) on the features, centroids and membership that fit used. For
    lkplo, a membership given replaces k-means by that partition and the
    means of its clusters."""
    if config.variant == "plo":
        F = np.asarray(X, dtype=float)
        seen = dict(F=F, centroids=F.mean(axis=0)[None, :], labels=np.zeros(len(F), int))
    else:
        assert config.variant == "lkplo"
        seen = {}

    def cluster(F, k, seed):
        if membership is None:
            centroids, labels = kmeans_fit(F, k, seed)
        else:
            labels = np.asarray(membership)
            centroids = np.array([F[labels == j].mean(axis=0) for j in range(k)])
        seen.update(F=F, centroids=centroids, labels=labels)
        return centroids, labels

    monkeypatch.setattr(plo, "kmeans_fit", cluster)
    model = fit(X, config)
    return model, oracles.fit_cluster_stats(seen["F"], seen["centroids"], seen["labels"], config)


def assert_stage_equal(model, want):
    for got_arrays, want_arrays in zip((model.directions, model.medians, model.mads), want):
        assert len(got_arrays) == len(want_arrays)
        for got, expected in zip(got_arrays, want_arrays):
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestClusterStageMatchesLoop:
    """fit's directions, projection medians and MADs are the oracle
    loop's, which takes np.median per cluster: equal bits, zeros of the
    same sign."""

    @pytest.mark.parametrize("k", [2, 10, 30])
    @pytest.mark.parametrize("q", [5, 20, 30])
    @pytest.mark.parametrize("n", [288, 384])
    def test_protocol_sizes(self, monkeypatch, n, q, k):
        X = gen_three_gaussians(k).X[:n]
        config = FitConfig(variant="lkplo", loss=LossSpec("svm_like", 2.0),
                           gamma=0.5, q=q, k=k, seed=n + q)
        model, want = fit_and_loop(monkeypatch, X, config)
        assert_stage_equal(model, want)

    @pytest.mark.parametrize("direction_config", [
        DirectionConfig(),
        DirectionConfig(n_random=0),
        DirectionConfig(include_basis=False),
        DirectionConfig(n_one_point=30),  # more than any cluster has rows
    ], ids=["default", "no-random", "no-basis", "one-point-with-replacement"])
    def test_small_clusters(self, monkeypatch, direction_config):
        # Cluster 0 is a singleton: its one centered row is zero, so its
        # one-point candidate is dropped, Two-Points draws nothing, and
        # every projection, median and MAD is zero. Cluster 1 is a pair,
        # with one two-point direction.
        sizes = [1, 2, 3, 10, 24]
        membership = np.random.default_rng(1).permutation(np.repeat(np.arange(5), sizes))
        config = FitConfig(variant="lkplo", loss=LossSpec("robust_z"), gamma=0.5, q=6,
                           k=5, seed=7, direction_config=direction_config)
        model, want = fit_and_loop(monkeypatch, gen_three_gaussians(5).X[:40], config,
                                   membership)
        assert model.sizes.tolist() == sizes
        assert_stage_equal(model, want)
        assert not model.medians[0].any() and not model.mads[0].any()

    @pytest.mark.parametrize("n_zero", [4, 5])
    @pytest.mark.parametrize("direction_config", [
        DirectionConfig(), DirectionConfig(n_random=0, include_basis=False, n_two_points=200),
    ], ids=["default", "pairs-only"])
    def test_duplicate_rows(self, monkeypatch, n_zero, direction_config):
        # plo's one cluster is centered at the exact mean, zero: the zero
        # rows' one-point candidates and the differences of equal rows
        # fall below the floor, so Two-Points draws again, and every
        # projection median is zero (two middle zeros for even n, one
        # for odd n).
        rows = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -1.0], [-1.0, -2.0, 1.0]])
        X = rows[np.random.default_rng(n_zero).permutation(np.repeat([0, 1, 2], [n_zero, 3, 3]))]
        config = FitConfig(variant="plo", loss=LossSpec("robust_z"), seed=3,
                           direction_config=direction_config)
        model, want = fit_and_loop(monkeypatch, X, config)
        assert_stage_equal(model, want)
        assert not model.medians[0].any()
        if direction_config.n_random == 0:
            assert len(model.directions[0]) == 200 + len(X) - n_zero


class TestRowMedians:
    """_row_medians is np.median over the same values, byte for byte:
    ties, zeros of either sign and subnormals included."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 50, 51])
    def test_matches_np_median(self, n):
        rng = np.random.default_rng(n)
        values = np.array([-0.0, 0.0, -1.0, 1.0, 2.5, -5e-324, 5e-324])
        a = np.vstack([
            rng.choice(values, size=(300, n)),
            rng.choice(values[:2], size=(100, n)),          # only zeros
            np.round(rng.standard_normal((100, n))),        # ties
            rng.standard_normal((100, n)),
        ])
        # fit took np.median down the columns of the (n_k, D) projections.
        want = np.median(a.T, axis=0)
        assert _row_medians(a.copy()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("row,median", [
        ([-0.0], 0.0),
        ([-0.0, -0.0], 0.0),
        ([-0.0, -0.0, 0.0], 0.0),
        ([-5e-324, 0.0], -0.0),     # the sum of the middles is halved to -0.0
        ([-5e-324, -5e-324, 3.0], -5e-324),
    ])
    def test_sign_of_zero(self, row, median):
        want = np.median(np.array(row))
        assert np.array(median).tobytes() == want.tobytes()
        got = _row_medians(np.array([row]))
        assert got.tobytes() == np.array([median]).tobytes()


class TestMaxLossMatchesElementwise:
    """_max_loss is the row maximum of the elementwise oracle losses, bit
    for bit; svm_like clamps at 0 after the maximum, not before."""

    @given(
        st.integers(0, 10_000),
        st.integers(1, 30),
        st.integers(1, 12),
        st.sampled_from([LossSpec("robust_z"), LossSpec("svm_like", 0.5),
                         LossSpec("svm_like", 2.0), LossSpec("svm_like", 3.7)]),
    )
    def test_row_max(self, seed, n, n_dirs, loss):
        rng = np.random.default_rng(seed)
        medians = rng.standard_normal(n_dirs)
        mads = rng.uniform(0.0, 2.0, n_dirs) * (rng.uniform(size=n_dirs) < 0.8)
        proj = rng.standard_normal((n, n_dirs)) * rng.uniform(0.01, 5.0)
        # A row on every margin (|p| == c MAD) and one inside every
        # margin (all svm_like losses negative before the clamp).
        margin = (loss.c or 1.0) * mads
        proj[0] = margin * rng.choice([-1.0, 1.0], n_dirs)
        if n > 1:
            proj[1] = 0.25 * proj[0]
        want = oracles._losses(proj, medians, mads, loss).max(axis=1)
        got = _max_loss(proj.copy(), medians, mads, loss)
        assert np.array_equal(got, want)
        assert not np.signbit(got).any()
        if loss.kind == "svm_like":
            assert got[0] == 0.0
            assert n == 1 or got[1] == 0.0


class TestScoreAssignmentMatchesScalar:
    """score's assign_nearest against oracles.assign, the Lloyd rule's
    reference."""

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
        want = oracles.assign(F, model.centroids)[0]
        assert np.array_equal(assign_nearest(model.centroids, F), want)

    def test_ties_break_to_lowest_index(self):
        # Dyadic rows and centroids, so every distance is exact and each
        # tie below is exact too: (0, 0) ties 0 and 1, (0.5, 1) ties 0
        # and 2, (-0.5, 1) ties 1 and 2, and the repeated centroid 3
        # ties 2 everywhere.
        C = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, 2.0]])
        F = np.array([[0.0, 0.0], [0.5, 1.0], [-0.5, 1.0], [0.0, 2.0], [0.0, 7.0]])
        got = assign_nearest(C, F)
        assert got.tolist() == [0, 0, 1, 2, 2]
        assert np.array_equal(got, oracles.assign(F, C)[0])
        assert assign_nearest(C, C[3:4])[0] == 2

    def test_one_centroid(self):
        F = np.random.default_rng(6).standard_normal((50, 4))
        assert not assign_nearest(F[:1], F).any()

    def test_wide_centroid_table(self):
        # k = 40 centroids in q = 30, with exact ties: rows that repeat a
        # centroid, and a centroid that repeats another.
        rng = np.random.default_rng(7)
        C = rng.standard_normal((40, 30))
        C[25] = C[3]
        F = np.vstack([rng.standard_normal((300, 30)) * 2.0, C[[0, 3, 25, 39]]])
        got = assign_nearest(C, F)
        assert np.array_equal(got, oracles.assign(F, C)[0])
        assert got[-3:].tolist() == [3, 3, 39]

    def test_score_uses_the_per_row_assignment(self, model):
        # The grid spans several score blocks. BLAS may round a product's
        # rows differently for different row counts, so the reference runs
        # the same products on the same block-aligned slices, with the
        # oracle's assignment in place of assign_nearest.
        X = self.grid()
        b = block_rows(model)
        assert len(X) > b
        want = np.empty(len(X))
        for s in range(0, len(X), b):
            F = transform(model.kpca, X[s:s + b])
            assign = oracles.assign(F, model.centroids)[0]
            block = want[s:s + b]
            for j, u in enumerate(model.directions):
                rows = assign == j
                proj = (F[rows] - model.centroids[j]) @ u.T
                losses = oracles._losses(proj, model.medians[j], model.mads[j], model.loss)
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
            m = block_rows(model)
        X = self.rows(m)
        got = score(model, X)
        assert got.shape == (m,)
        assert np.array_equal(got, oracles.score(model, X))

    def test_several_blocks_equal_single_pass_to_rounding(self, model):
        # BLAS rounds a product's rows differently for different row
        # counts, so splitting the batch moves scores by about 1e-15.
        b = block_rows(model)
        X = self.rows(3 * b + 17, seed=1)
        np.testing.assert_allclose(score(model, X), oracles.score(model, X),
                                   rtol=1e-12, atol=0)

    def test_score_concatenates_the_blocks(self, model, monkeypatch):
        # A block computes the same doubles on any thread, so the scores
        # are a serial loop's at any CPU count.
        b = block_rows(model)
        for m in (1, b, b + 1, 7 * b + 3):
            X = self.rows(m, seed=2)
            want = np.concatenate([_score_block(model, X[s:s + b])
                                   for s in range(0, len(X), b)])
            for cpus in (1, 2, 3):
                set_usable_cpus(monkeypatch, cpus)
                assert np.array_equal(score(model, X), want), (m, cpus)

    def test_non_finite_row_anywhere_in_the_batch_is_named(self, model):
        X = self.rows(2 * block_rows(model) + 5)
        X[-2, 1] = np.nan
        with pytest.raises(ValueError, match=f"input row {len(X) - 2} "):
            score(model, X)


class TestScoreThreads:
    """score's slabs run through run_blocks on the rule every fit stage
    follows: min(usable CPUs, full BLOCK_BYTES blocks of the batch's
    widest temporary) threads, the caller being one. These stub
    _score_block to see which slabs ran."""

    @pytest.fixture(scope="class")
    def model(self):
        return fit(gen_three_gaussians(3).X, FitConfig(variant="plo", loss=LossSpec("robust_z")))

    @staticmethod
    def stub_blocks(monkeypatch, b, block):
        """Replace _score_block by block(i) for the block with index i
        of a batch from rows(); returns the started indices."""
        started = []

        def score_block(model, X):
            i = int(X[0, 0]) // b
            started.append(i)
            block(i)
            return X[:, 0]

        monkeypatch.setattr(plo, "_score_block", score_block)
        return started

    @staticmethod
    def rows(n):
        return np.column_stack([np.arange(n, dtype=float), np.zeros(n)])

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_lowest_failing_block_is_raised(self, model, monkeypatch, cpus):
        # Block 5 fails at once and block 2 only after a pause, so with
        # threads both fail and block 2's error must win over the first
        # one recorded.
        def block(i):
            if i == 2:
                time.sleep(0.2)
            if i in (2, 5):
                raise ValueError(f"block {i}")

        set_usable_cpus(monkeypatch, cpus)
        b = block_rows(model)
        self.stub_blocks(monkeypatch, b, block)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="^block 2$"):
            score(model, self.rows(9 * b))
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_no_block_starts_after_a_failure(self, model, monkeypatch, cpus):
        # Blocks 0 and 1 are still running when block 2 fails.
        def block(i):
            if i == 2:
                raise ValueError("block 2")
            time.sleep(0.1)

        set_usable_cpus(monkeypatch, cpus)
        b = block_rows(model)
        started = self.stub_blocks(monkeypatch, b, block)
        with pytest.raises(ValueError, match="^block 2$"):
            score(model, self.rows(9 * b))
        assert sorted(started) == [0, 1, 2]

    def test_interrupt_in_the_caller_joins_the_threads(self, model, monkeypatch):
        # The caller's first block raises at once; the thread's block, if
        # it took one, sleeps through the interrupt and is joined.
        def block(i):
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            time.sleep(0.1)

        set_usable_cpus(monkeypatch, 2)
        b = block_rows(model)
        started = self.stub_blocks(monkeypatch, b, block)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            score(model, self.rows(9 * b))
        assert threading.active_count() == threads
        assert len(started) <= 2

    def test_each_block_runs_once_with_more_threads_than_cores(self, model, monkeypatch):
        # A short switch interval makes a lost or repeated hand-out of a
        # block start likely if the iterator were read without the lock.
        set_usable_cpus(monkeypatch, 4 * len(os.sched_getaffinity(0)))
        b = block_rows(model)
        started = self.stub_blocks(monkeypatch, b, lambda i: None)
        n = 400
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = score(model, self.rows(n * b))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(started) == list(range(n))
        assert np.array_equal(got, np.arange(n * b))

    def test_one_cpu_or_under_two_full_blocks_starts_no_thread(self, model, monkeypatch):
        # The edge of the rule: a batch of edge - 1 rows spans two or
        # more slabs but under two full blocks, and runs on the caller
        # alone; edge rows are two full blocks, and start one thread.
        def no_start(thread):
            raise AssertionError("a thread was started")

        def serial(X):
            return np.concatenate([_score_block(model, X[s:s + b])
                                   for s in range(0, len(X), b)])

        monkeypatch.setattr(threading.Thread, "start", no_start)
        b = block_rows(model)
        edge = -(-2 * BLOCK_BYTES // (8 * _block_width(model)))
        assert edge - 1 > b
        X = self.rows(9 * b)
        set_usable_cpus(monkeypatch, 1)
        assert np.array_equal(score(model, X), serial(X))
        set_usable_cpus(monkeypatch, 3)
        assert np.array_equal(score(model, X[:edge - 1]), serial(X[:edge - 1]))
        threads = threading.active_count()
        with pytest.raises(AssertionError, match="a thread was started"):
            score(model, X[:edge])
        assert threading.active_count() == threads


def test_score_memory_is_per_block(monkeypatch):
    # numpy reports its buffers to tracemalloc. A single pass over 20k
    # rows at N = 480 allocates several 77 MB (M, N) temporaries; blocked
    # scoring holds one (B, N) kernel block and smaller ones per thread
    # plus the output (about 1.3 blocks on one thread, 2.4 on two), so a
    # second (B, N) temporary per thread fails here.
    ds = gen_three_gaussians(0)
    q = 20
    model = fit(ds.X, FitConfig(variant="lkplo", loss=LossSpec("svm_like", 2.0),
                                gamma=0.5, q=q, k=10, seed=0))
    assert len(ds.X) >= 400
    m = 20_000
    X = np.random.default_rng(0).uniform(-4.0, 9.0, size=(m, 2))
    for cpus, bound in ((1, 1.5), (2, 3)):
        set_usable_cpus(monkeypatch, cpus)
        tracemalloc.start()
        try:
            score(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * BLOCK_BYTES, cpus


def test_fit_is_the_same_at_any_block_budget(monkeypatch):
    # A budget of 8 KiB splits the Gram and its centering into chunks of
    # two rows and runs the k-means restarts one at a time. Each chunk
    # and group computes what the whole would, so the model file, which
    # holds every array score reads, keeps its bytes; the names of the
    # sections that differ are listed.
    X = gen_three_gaussians(0).X
    config = FitConfig(variant="lkplo", loss=LossSpec("svm_like", 2.0),
                       gamma=0.5, q=10, k=5, seed=3)
    want = model_to_dict(fit(X, config))
    monkeypatch.setattr(kernel_feature, "BLOCK_BYTES", 8 << 10)
    assert per_block(len(X)) == 2 and per_block(len(X) * 10) == 1
    got = model_to_dict(fit(X, config))
    assert [key for key in want if json.dumps(got[key]) != json.dumps(want[key])] == []


class TestFitThreads:
    """A fit stage runs its slabs through run_blocks on the rule score
    follows: one thread per full BLOCK_BYTES block of its temporaries, at
    most one per usable CPU; a slab computes the same doubles on any
    thread."""

    def test_same_bits_at_any_cpu_count(self, monkeypatch, deadline):
        # At 64 KiB a 300-row Gram is 10 full blocks in 12 slabs of 27
        # rows, and the k-means restarts (q = 10, k = 5) 3 full blocks in
        # 5 groups of 2, so 2 and 3 CPUs start threads in every stage.
        monkeypatch.setattr(kernel_feature, "BLOCK_BYTES", 64 << 10)
        X = gen_three_gaussians(1).X[:300]
        params = KernelParams(0.5)
        F = features(5, 300, 10, 300)
        config = FitConfig(variant="lkplo", loss=LossSpec("svm_like", 2.0),
                           gamma=0.5, q=10, k=5, seed=4)

        def centered():
            K = gram_matrix(X, params)
            return (K, *center_gram(K))

        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        results = {}
        for cpus in (1, 2, 3):
            set_usable_cpus(monkeypatch, cpus)
            stages = []
            for stage in (lambda: gram_matrix(X, params), centered,
                          lambda: kmeans_fit(F, 5, 7),
                          lambda: json.dumps(model_to_dict(fit(X, config)))):
                started.clear()
                stages.append(stage())
                assert bool(started) == (cpus > 1), (cpus, len(stages))
            results[cpus] = stages
        K, (Kc, r, t), (centroids, labels), model = results[1]
        for cpus in (2, 3):
            got_K, (got_Kc, got_r, got_t), (got_centroids, got_labels), got_model = results[cpus]
            assert np.array_equal(got_K, K)
            assert np.array_equal(got_Kc, Kc) and np.array_equal(got_r, r) and got_t == t
            assert np.array_equal(got_centroids, centroids)
            assert np.array_equal(got_labels, labels)
            assert got_model == model

    @pytest.mark.parametrize("n, q, k, threaded", [
        (384, 30, 30, False),   # tuned_cv's refits at their widest
        (480, 20, 10, False),   # score_grid's and cli_score's set-up fit
        (960, 20, 10, True),    # a Gram of 7 full blocks
    ])
    def test_thread_only_from_two_full_blocks(self, monkeypatch, deadline, n, q, k, threaded):
        def no_start(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        set_usable_cpus(monkeypatch, 4)
        X = np.vstack([gen_three_gaussians(s).X for s in (0, 1)])[:n]
        config = FitConfig(variant="lkplo", loss=LossSpec("svm_like", 2.0),
                           gamma=0.5, q=q, k=k, seed=0)
        threads = threading.active_count()
        if threaded:
            with pytest.raises(AssertionError, match="a thread was started"):
                fit(X, config)
        else:
            fit(X, config)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_lowest_failing_group_is_raised(self, monkeypatch, deadline, cpus):
        # Four groups of at most 3 restarts, 3 full blocks. Group 3 fails
        # at once and group 1 only after a pause, so with threads both
        # fail and group 1's error must win over the first one recorded.
        # A group is known by its seeding centres, which are the same on
        # any thread.
        n, q, k, seed = 120, 12, 9, 3
        monkeypatch.setattr(kernel_feature, "BLOCK_BYTES", 3 * 8 * n * q)
        F = features(seed, n, q, n)
        FT = np.ascontiguousarray(F.T)
        group_of = {}
        for g, s in enumerate(range(0, 10, 3)):
            rngs = [np.random.default_rng(seed + r) for r in range(s, min(s + 3, 10))]
            group_of[_seed_group(F, FT, k, rngs).tobytes()] = g
        lloyd_group = clustering._lloyd_group

        def failing(F, centers):
            g = group_of[centers.tobytes()]
            if g == 1:
                time.sleep(0.2)
            if g in (1, 3):
                raise ValueError(f"group {g}")
            return lloyd_group(F, centers)

        monkeypatch.setattr(clustering, "_lloyd_group", failing)
        set_usable_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="^group 1$"):
            kmeans_fit(F, k, seed)
        assert threading.active_count() == threads


def test_answers_do_not_depend_on_slab_order(monkeypatch):
    # Each slab of a run_blocks caller writes only its own rows of the
    # result, so running the slabs last to first on the calling thread
    # gives the normal runner's bits. N = 2000 is 31 Gram and centering
    # slabs; k-means at q = 20, k = 10 is 4 restart groups; the batch is
    # 6 score slabs.
    X = np.random.default_rng(0).standard_normal((2000, 10))
    F = features(1, 2000, 20, 2000)
    model = fit(gen_three_gaussians(3).X, FitConfig(
        variant="lkplo", loss=LossSpec("svm_like", 2.0), gamma=0.5, q=12, k=6, seed=2))
    rows = np.random.default_rng(2).uniform(-4.0, 9.0, size=(5 * block_rows(model) + 7, 2))
    slabs = []

    def reversed_blocks(n_rows, width, work):
        starts = range(0, n_rows, per_block(width))
        slabs.append(len(starts))
        for start in reversed(starts):
            work(slice(start, start + per_block(width)))

    def answers():
        K = gram_matrix(X, KernelParams(0.1))
        centered = K.copy()
        return (K, centered, *center_gram(centered), *kmeans_fit(F, 10, 3),
                score(model, rows))

    want = answers()
    for module in (kernel_feature, clustering, plo):
        monkeypatch.setattr(module, "run_blocks", reversed_blocks)
    got = answers()
    assert slabs == [31, 31, 4, 6]
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)
