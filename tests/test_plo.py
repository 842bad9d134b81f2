import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import special_ortho_group

import oracles
from lkplo.clustering import InvalidKError, assign_nearest
from lkplo.data import SYNTHETIC_GENERATORS, gen_three_gaussians
from lkplo.evaluation import roc_auc
from lkplo.kernel_feature import (ARPACK_MIN_N, DegenerateKernelError, KernelParams,
                                  _cross_kernel, fit_kpca, transform)
from lkplo.plo import (
    MAD_FLOOR,
    VARIANTS,
    DegenerateDirectionsError,
    DirectionConfig,
    FitConfig,
    LkploModel,
    LossSpec,
    _max_loss,
    fit,
    gen_directions,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    score,
)
from test_vectorized import block_rows


def sort_median(z):
    z = sorted(z)
    n = len(z)
    mid = n // 2
    return z[mid] if n % 2 else 0.5 * (z[mid - 1] + z[mid])


def svm_config(variant="plo", c=2.0, **kw):
    return FitConfig(variant=variant, loss=LossSpec("svm_like", c), **kw)


def rz_config(variant="plo", **kw):
    return FitConfig(variant=variant, loss=LossSpec("robust_z"), **kw)


def basis_stats(z):
    """Centroid, median and MAD that fit stores for the one-column sample
    z along the basis direction, whose projections are exactly
    z_i - centroid."""
    X = np.asarray(z, dtype=float)[:, None]
    model = fit(X, rz_config(direction_config=DirectionConfig(0, True, 0, 0)))
    return model.centroids[0, 0], model.medians[0][0], model.mads[0][0]


class TestMedianMad:
    """The per-direction medians and MADs that fit stores."""

    def test_singleton(self):
        # k = N: every cluster is one point, its only projection is 0.
        X = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        model = fit(X, rz_config("lkplo", gamma=0.1, q=2, k=3))
        for medians, mads in zip(model.medians, model.mads):
            assert np.all(medians == 0.0)
            assert np.all(mads == 0.0)

    def test_even_length_midpoint(self):
        # centered sample [-2, -1, 0, 3]
        assert basis_stats([0.0, 1.0, 2.0, 5.0])[1] == -0.5

    def test_unsorted(self):
        # centered sample [2, -1, -1]
        assert basis_stats([4.0, 1.0, 1.0])[1] == -1.0

    def test_mad_constant_is_zero(self):
        assert basis_stats([2.0] * 7)[2] == 0.0

    def test_mad_hand_example(self):
        # centered sample [-2..2]: deviations {2, 1, 0, 1, 2}, median 1
        assert basis_stats([1.0, 2.0, 3.0, 4.0, 5.0])[2] == pytest.approx(1.4826)

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = rng.standard_normal(int(rng.integers(2, 30))).tolist()
            centroid, med, mad = basis_stats(z)
            centered = [v - centroid for v in z]
            m = sort_median(centered)
            assert med == m
            assert mad == 1.4826 * sort_median([abs(v - m) for v in centered])

    def test_empty_raises(self):
        # fit rejects a sample too small to take a median and MAD of.
        for n in (0, 1):
            with pytest.raises(ValueError):
                fit(np.zeros((n, 1)), rz_config())


class TestGenDirections:
    def test_basis_only(self):
        F = np.array([[1.0, 0.0, 0.0]])
        dirs = gen_directions(
            F, DirectionConfig(0, True, 0, 0), seed=0
        )
        np.testing.assert_array_equal(dirs, np.eye(3))

    def test_one_point_single_row(self):
        F = np.array([[3.0, 4.0]])
        dirs = gen_directions(F, DirectionConfig(0, False, 1, 0), seed=0)
        np.testing.assert_allclose(dirs, [[0.6, 0.8]], atol=1e-12)

    def test_all_unit_norm(self):
        rng = np.random.default_rng(1)
        F = rng.standard_normal((20, 5))
        dirs = gen_directions(F, DirectionConfig(100, True, 10, 10), seed=2)
        np.testing.assert_allclose(
            np.linalg.norm(dirs, axis=1), 1.0, atol=1e-9
        )

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        F = rng.standard_normal((8, 3))
        cfg = DirectionConfig(20, True, 4, 4)
        np.testing.assert_array_equal(
            gen_directions(F, cfg, seed=9), gen_directions(F, cfg, seed=9)
        )

    def test_degenerate_members_raise(self):
        # All-zero rows, no random/basis directions: nothing usable.
        F = np.zeros((3, 2))
        with pytest.raises(DegenerateDirectionsError):
            gen_directions(F, DirectionConfig(0, False, 2, 2), seed=0)


class TestDirectionConfig:
    @pytest.mark.parametrize("field", ["n_random", "n_one_point", "n_two_points"])
    def test_negative_count_named(self, field):
        with pytest.raises(ValueError, match=f"DirectionConfig.{field} must be >= 0"):
            DirectionConfig(**{field: -1})

    def test_zero_and_none_counts_allowed(self):
        DirectionConfig(n_random=0, n_one_point=0, n_two_points=None)


def one_loss(f, loss, median=2.0, mad=1.4826):
    """The loss of the (centered) point f projected on the first axis, a
    direction whose training projections have this median and MAD."""
    return _max_loss(np.array([[f[0]]]), np.array([median]), np.array([mad]), loss)[0]


class TestLossSpec:
    @pytest.mark.parametrize("c", [None, 0.0, -1.0, np.inf, np.nan])
    def test_svm_like_c_outside_positive_finite_named(self, c):
        with pytest.raises(ValueError, match="svm_like loss requires a finite c > 0"):
            LossSpec("svm_like", c)


@pytest.mark.parametrize("call, message", [
    (lambda: LossSpec("bogus"), "unknown loss kind 'bogus'"),
    (lambda: LossSpec("robust_z", 2.0), "robust_z loss takes no c, got 2.0"),
    (lambda: FitConfig(variant="bogus", loss=LossSpec("robust_z")),
     "unknown variant 'bogus'"),
    (lambda: gen_directions(np.empty((0, 3)), DirectionConfig(), seed=0),
     "need at least one member row and one feature"),
])
def test_bad_argument_named(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestLosses:
    rz = LossSpec("robust_z")

    def test_robust_z_at_median(self):
        f = np.array([2.0, 5.0])  # u.f = median
        assert one_loss(f, self.rz) == 0.0

    def test_robust_z_one_scale_unit(self):
        f = np.array([2.0 + 1.4826, 0.0])
        assert one_loss(f, self.rz) == pytest.approx(1.0)

    def test_robust_z_hand_example(self):
        # projected sample [0..4]: median 2, MAD 1.4826; u.f = 5
        assert one_loss(np.array([5.0, 0.0]), self.rz) == pytest.approx(3.0 / 1.4826)

    def test_robust_z_mad_floor(self):
        assert one_loss(np.array([1e-3]), self.rz, median=0.0, mad=0.0) == (
            pytest.approx(1e-3 / MAD_FLOOR)
        )

    def test_svm_inside_margin(self):
        f = np.array([1.0, 0.0])  # |u.f| = 1 < 2 * 1.4826
        assert one_loss(f, LossSpec("svm_like", 2.0)) == 0.0

    def test_svm_hand_example(self):
        f = np.array([5.0, 0.0])
        got = one_loss(f, LossSpec("svm_like", 2.0))
        assert got == pytest.approx(5.0 - 2.9652)

    def test_svm_huge_c_swallows_everything(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = rng.standard_normal(2)
            assert one_loss(f, LossSpec("svm_like", 1e12)) == 0.0


def make_model(rng, n=20, q=3, n_dirs=10):
    """A one-cluster plo model built by hand from n random members. Its
    cluster size is 1, so score returns the local score itself."""
    members = rng.standard_normal((n, q))
    centroid = members.mean(axis=0)
    centered = members - centroid
    dirs = rng.standard_normal((n_dirs, q))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj = centered @ dirs.T
    medians = np.median(proj, axis=0)
    mads = 1.4826 * np.median(np.abs(proj - medians), axis=0)
    return LkploModel(
        variant="plo", kpca=None, loss=LossSpec("robust_z"),
        centroids=centroid[None, :], sizes=np.array([1]),
        directions=[dirs], medians=[medians], mads=[mads], d=q,
    )


def local_score(model, f, loss):
    return score(replace(model, loss=loss), f[None, :])[0]


class TestLocalScore:
    def test_single_direction(self):
        rng = np.random.default_rng(4)
        model = make_model(rng, n_dirs=1)
        f = rng.standard_normal(3)
        assert local_score(model, f, LossSpec("robust_z")) == pytest.approx(
            oracles.robust_z_loss(
                model.directions[0][0], f - model.centroids[0], oracles.stats(model, 0, 0)
            )
        )

    def test_centroid_scores_zero_under_svm(self):
        rng = np.random.default_rng(5)
        model = make_model(rng)
        assert local_score(model, model.centroids[0], LossSpec("svm_like", 1.0)) == 0.0

    def test_matches_exhaustive_max(self):
        rng = np.random.default_rng(6)
        model = make_model(rng, n_dirs=10)
        for loss in (LossSpec("robust_z"), LossSpec("svm_like", 2.0)):
            f = rng.standard_normal(3)
            naive = oracles.local_score(replace(model, loss=loss), 0, f)
            assert local_score(model, f, loss) == pytest.approx(naive, abs=1e-12)

    def test_max_dominance_adding_direction(self):
        rng = np.random.default_rng(7)
        model = make_model(rng, n_dirs=5)
        bigger = make_model(rng, n_dirs=1)
        grown = replace(
            model,
            directions=[np.vstack([model.directions[0], bigger.directions[0]])],
            medians=[np.concatenate([model.medians[0], bigger.medians[0]])],
            mads=[np.concatenate([model.mads[0], bigger.mads[0]])],
        )
        loss = LossSpec("robust_z")
        for _ in range(30):
            f = rng.standard_normal(3)
            assert local_score(grown, f, loss) >= local_score(model, f, loss) - 1e-15


class TestFit:
    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match=r"seed \(--seed\) must be >= 0, got -1"):
            svm_config(seed=-1)

    def test_plo_shape(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((15, 2))
        model = fit(X, svm_config(seed=1))
        assert model.variant == "plo"
        assert model.kpca is None
        assert len(model.centroids) == 1
        assert model.directions[0].shape[1] == 2

    def test_lkplo_k1_matches_kplo(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 2))
        kw = dict(gamma=0.5, q=5, seed=3)
        m_kplo = fit(X, svm_config("kplo", **kw))
        m_lkplo = fit(X, svm_config("lkplo", k=1, **kw))
        for field in ("centroids", "directions", "medians", "mads"):
            np.testing.assert_allclose(
                getattr(m_kplo, field)[0], getattr(m_lkplo, field)[0], atol=1e-12
            )

    def test_lkplo_recovers_blobs(self):
        rng = np.random.default_rng(10)
        centers = np.array([[0.0, 0.0], [12.0, 0.0], [6.0, 10.0]])
        X = np.vstack([c + 0.4 * rng.standard_normal((25, 2)) for c in centers])
        blob = np.repeat(np.arange(3), 25)
        model = fit(X, svm_config("lkplo", gamma=0.05, q=5, k=3, seed=4))
        _, F = fit_kpca(X, KernelParams(0.05), 5)  # the features fit clustered
        labels = assign_nearest(model.centroids, F)
        # Each blob maps to exactly one cluster.
        mapping = {b: set(labels[blob == b]) for b in range(3)}
        assert all(len(s) == 1 for s in mapping.values())
        assert len(set.union(*mapping.values())) == 3

    def test_singleton_cluster_allowed(self):
        rng = np.random.default_rng(11)
        X = np.vstack([rng.standard_normal((10, 2)), [[50.0, 50.0]]])
        model = fit(X, rz_config("lkplo", gamma=0.1, q=4, k=2, seed=0))
        assert model.sizes.min() >= 1

    def test_determinism(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((18, 3))
        cfg = svm_config("lkplo", gamma=0.3, q=4, k=2, seed=21)
        s1 = score(fit(X, cfg), X)
        s2 = score(fit(X, cfg), X)
        np.testing.assert_array_equal(s1, s2)

    @pytest.mark.parametrize("variant", ["plo", "lkplo"])
    def test_non_finite_row_named(self, variant):
        X = np.random.default_rng(21).standard_normal((12, 2))
        X[7, 0] = np.nan
        with pytest.raises(ValueError, match="training row 7 is not finite"):
            fit(X, svm_config(variant, gamma=0.5, q=3, k=2))


NAMED_FIT_ERRORS = (DegenerateKernelError, DegenerateDirectionsError, InvalidKError)


class TestDegenerateFits:
    """Degenerate training sets (duplicate rows, constant columns, k = N,
    singleton clusters) either fit to finite, non-negative scores or raise
    one of the named errors. A NaN score is never returned."""

    @given(
        st.integers(0, 10_000),            # seed
        st.integers(2, 12),                # rows
        st.integers(1, 3),                 # columns
        st.floats(0.0, 1.0),               # distinct rows as a fraction
        st.integers(0, 3),                 # constant columns
        st.sampled_from(VARIANTS),
        st.sampled_from([LossSpec("robust_z"), LossSpec("svm_like", 2.0)]),
        st.booleans(),                     # k = N
    )
    @example(0, 6, 2, 0.0, 0, "lkplo", LossSpec("robust_z"), True)   # all rows equal
    @example(1, 8, 2, 0.5, 0, "lkplo", LossSpec("robust_z"), True)   # duplicates, k = N
    @example(2, 9, 3, 1.0, 2, "lkplo", LossSpec("robust_z"), True)   # singletons
    @example(3, 7, 2, 1.0, 2, "plo", LossSpec("robust_z"), False)    # constant columns
    @example(4, 5, 1, 0.0, 1, "plo", LossSpec("svm_like", 2.0), False)
    @settings(deadline=None)
    def test_scores_finite_or_named_error(self, seed, n, d, distinct, n_const,
                                          variant, loss, k_is_n):
        rng = np.random.default_rng(seed)
        points = 2.0 * rng.standard_normal((max(1, round(distinct * n)), d))
        X = points[rng.integers(len(points), size=n)]
        X[:, :n_const] = 1.5
        config = FitConfig(
            variant=variant, loss=loss, gamma=float(rng.uniform(0.05, 5.0)),
            q=int(rng.integers(1, 8)), k=n if k_is_n else int(rng.integers(1, n + 1)),
            seed=seed,
        )
        try:
            model = fit(X, config)
        except NAMED_FIT_ERRORS:
            return
        s = score(model, np.vstack([X, 3.0 * rng.standard_normal((5, d))]))
        assert np.all(np.isfinite(s)) and np.all(s >= 0)


class TestScaleInvariance:
    """Scaling the rows by 2^m and gamma by 4^-m leaves every RBF kernel
    value's bits as they were: the squared distances scale by 4^m and
    the products by exact powers of two. So kplo and lkplo score the
    scaled rows bit for bit as they score the rows. plo works on the rows
    themselves, so its projections, medians and MADs scale by 2^m:
    robust_z scores keep their bits, svm_like scores are exactly 2^m
    times. That holds while no MAD reaches MAD_FLOOR and no direction
    candidate's norm reaches DIRECTION_NORM_FLOOR at either scale, so the
    rows here are continuous draws of order 2^m, far above both."""

    @given(
        st.integers(0, 10_000),            # seed
        st.integers(-6, 6),                # m
        st.sampled_from(VARIANTS),
        st.sampled_from([LossSpec("robust_z"), LossSpec("svm_like", 2.0)]),
    )
    @example(0, -6, "plo", LossSpec("svm_like", 2.0))
    @example(1, 6, "lkplo", LossSpec("robust_z"))
    @settings(max_examples=30, deadline=None)
    def test_scaled_rows_and_gamma_score_alike(self, seed, m, variant, loss):
        rng = np.random.default_rng(seed)
        X = np.vstack([c + rng.standard_normal((12, 2)) for c in ([0, 0], [5, 0], [0, 5])])
        Xnew = 3.0 * rng.standard_normal((10, 2))
        config = FitConfig(variant=variant, loss=loss, gamma=float(rng.uniform(0.05, 2.0)),
                           q=5, k=3, seed=seed)
        s = 2.0 ** m
        scaled = fit(s * X, replace(config, gamma=config.gamma / s ** 2))
        got = score(scaled, s * Xnew)
        want = score(fit(X, config), Xnew)
        if variant == "plo":
            assert min(mad.min() for mad in scaled.mads) > MAD_FLOOR
            if loss.kind == "svm_like":
                want *= s
        assert np.array_equal(got, want)


class TestRotationInvariance:
    """A rotation R keeps every distance, so every RBF kernel value up to
    rounding: kplo and lkplo fitted on the rotated rows score them as they
    score the rows, to rounding, and rank them alike. plo is left out: it
    projects the rows themselves onto basis directions, which R turns."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_GENERATORS))
    def test_rotated_rows_score_alike(self, name, seed):
        ds = SYNTHETIC_GENERATORS[name](seed)
        rotation = special_ortho_group.rvs(ds.X.shape[1], random_state=seed)
        for variant in ("kplo", "lkplo"):
            for loss in (LossSpec("robust_z"), LossSpec("svm_like", 2.0)):
                config = FitConfig(variant=variant, loss=loss, gamma=0.5, q=20, k=10,
                                   seed=seed)
                want = score(fit(ds.X, config), ds.X)
                got = score(fit(ds.X @ rotation.T, config), ds.X @ rotation.T)
                np.testing.assert_allclose(got, want, rtol=1e-8)
                assert roc_auc(got, ds.y) == roc_auc(want, ds.y)


class TestScore:
    def test_single_cluster_weighting(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((16, 2))
        model = fit(X, rz_config(seed=2))
        s = score(model, X)
        for i in range(16):
            assert s[i] == pytest.approx(
                oracles.local_score(model, 0, X[i]) / 16, abs=1e-12
            )

    def test_deep_inlier_scores_zero_with_svm(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((40, 2))
        model = fit(X, svm_config(c=5.0, seed=0))
        # Pick a training point whose margins all hold; it must score 0.
        for i in range(40):
            proj = model.directions[0] @ (X[i] - model.centroids[0])
            if np.all(np.abs(proj) <= model.loss.c * model.mads[0]):
                assert score(model, X[i : i + 1])[0] == 0.0
                break
        else:
            pytest.fail("no deep inlier found for c=5")

    def test_nonnegative_both_losses(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((20, 2))
        for cfg in (rz_config(seed=1), svm_config(seed=1)):
            assert np.all(score(fit(X, cfg), rng.standard_normal((30, 2))) >= 0)

    def test_svm_monotone_in_c(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((25, 2))
        Xq = rng.standard_normal((15, 2))
        prev = None
        for c in (1.0, 2.0, 4.0, 8.0):
            s = score(fit(X, svm_config(c=c, seed=3)), Xq)
            if prev is not None:
                assert np.all(s <= prev + 1e-12)
            prev = s

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(17)
        model = fit(rng.standard_normal((10, 2)), rz_config(seed=0))
        with pytest.raises(ValueError):
            score(model, np.zeros((3, 4)))

    def test_non_finite_row_named(self):
        rng = np.random.default_rng(20)
        model = fit(rng.standard_normal((10, 2)), svm_config("kplo", gamma=0.5, q=3))
        Xnew = np.zeros((6, 2))
        Xnew[4, 1] = np.inf
        Xnew[5, 0] = np.nan
        with pytest.raises(ValueError, match="input row 4 is not finite"):
            score(model, Xnew)

    @pytest.mark.parametrize("variant", ["plo", "kplo", "lkplo"])
    def test_too_large_row_named(self, variant):
        # A finite row whose squared norm reaches a quarter of the largest
        # double: the kernel's x.y would overflow, and x^2 + y^2 - 2 x.y
        # be NaN. A row below the bound scores finite, with no warning.
        X = np.random.default_rng(22).standard_normal((12, 2))
        config = svm_config(variant, gamma=0.5, q=3, k=2)
        model = fit(X, config)
        for big in (1e308, 1e160):
            with pytest.raises(ValueError, match="^training row 7 is too large"):
                fit(np.insert(X, 7, big, axis=0), config)
            with pytest.raises(ValueError, match="^input row 1 is too large"):
                score(model, np.array([[0.0, 0.0], [big, big]]))
        assert np.isfinite(score(model, np.array([[1e153, 1e153]]))).all()

    @pytest.mark.parametrize("variant", ["kplo", "lkplo"])
    def test_kernel_overflow_at_large_gamma_is_zero(self, variant):
        # At gamma = 10 the exponent of a row below the size bound
        # overflows to -inf, whose exp is the exact 0.0: the row is beyond
        # the kernel's reach, as (1e6, 1e6) is, with no warning, in a
        # score or in a fit that holds it.
        X = np.random.default_rng(23).standard_normal((12, 2))
        config = svm_config(variant, gamma=10.0, q=3, k=2)
        model = fit(X, config)
        far = score(model, np.array([[4e153, 4e153], [1e6, 1e6]]))
        assert far[0] == far[1]
        fit(np.insert(X, 7, 4e153, axis=0), config)

    def test_rows_beyond_the_kernels_reach_share_one_score(self):
        # The benchmark's score_grid model. A row whose kernel values all
        # underflow to 0 has the feature -offset, so every such row gets
        # one score, and it is below the largest training score: the far
        # field scores like an inlier. Pinned so that a change to it is
        # deliberate.
        X = gen_three_gaussians(0).X
        model = fit(X, svm_config("lkplo", gamma=0.5, q=20, k=10, seed=0))
        far = np.array([[100.0, 100.0], [-50.0, 20.0], [1e3, -1e3], [-1e6, 1e6]])
        kpca = model.kpca
        assert not _cross_kernel(far, kpca.train_points, kpca.params).any()
        np.testing.assert_array_equal(transform(kpca, far), [-kpca.offset] * len(far))
        s = score(model, far)
        assert np.all(s == s[0])
        assert 0 < s[0] < score(model, X).max()

    def test_rpd_equivalence(self):
        """Linear-global robust-Z over random-only directions is classical
        RPD up to the constant 1/N weight."""
        rng = np.random.default_rng(18)
        X = rng.standard_normal((30, 4))
        cfg = FitConfig(
            variant="plo",
            loss=LossSpec("robust_z"),
            direction_config=DirectionConfig(50, False, 0, 0),
            seed=6,
        )
        model = fit(X, cfg)
        dirs = model.directions[0]

        # Independent RPD on the same directions, raw (uncentered) data.
        proj_train = X @ dirs.T
        med = np.median(proj_train, axis=0)
        mads = 1.4826 * np.median(np.abs(proj_train - med), axis=0)
        rpd = np.abs(X @ dirs.T - med) / np.maximum(mads, MAD_FLOOR)
        rpd = rpd.max(axis=1)

        got = score(model, X) * len(X)
        np.testing.assert_allclose(got, rpd, atol=1e-9)
        np.testing.assert_array_equal(np.argsort(got), np.argsort(rpd))


class TestSerialization:
    def test_round_trip_scores_bit_identical(self, tmp_path):
        # N = 22 takes the dense eigensolver and ARPACK_MIN_N + 40 the
        # Lanczos one. On both, the fitted model's arrays are C-ordered as
        # a loaded model's are: BLAS rounds K @ projection differently for
        # an F-ordered projection.
        for n in (22, ARPACK_MIN_N + 40):
            rng = np.random.default_rng(19)
            X = rng.standard_normal((n, 2))
            model = fit(X, svm_config("lkplo", gamma=0.4, q=5, k=3, seed=8))
            for name, value in vars(model.kpca).items():
                if isinstance(value, np.ndarray):
                    assert value.flags.c_contiguous, (n, name)
            path = tmp_path / "model.json"
            save_model(model, path)
            loaded = load_model(path)
            Xq = rng.standard_normal((2 * block_rows(model) + 35, 2))
            np.testing.assert_array_equal(score(model, Xq), score(loaded, Xq))

    def test_round_trip_stores_no_derived_projection(self, tmp_path):
        # The file stores the scoring map itself, A_c and the offset that
        # transform multiplies and subtracts, and nothing it is derived
        # from: the v3 kpca keys, read back bit for bit.
        rng = np.random.default_rng(23)
        model = fit(rng.standard_normal((30, 2)), svm_config("kplo", gamma=0.4, q=6))
        Xq = rng.uniform(-4.0, 4.0, size=(2 * block_rows(model) + 35, 2))
        want = score(model, Xq)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert sorted(json.loads(path.read_text())["kpca"]) == [
            "eigenvalues", "gamma", "offset", "projection", "q", "train_points"]
        loaded = load_model(path)
        for name in ("projection", "offset"):
            assert np.array_equal(getattr(loaded.kpca, name), getattr(model.kpca, name))
        np.testing.assert_array_equal(score(loaded, Xq), want)

    def test_format_tag_checked(self):
        rng = np.random.default_rng(20)
        model = fit(rng.standard_normal((8, 2)), rz_config(seed=0))
        d = model_to_dict(model)
        assert d["format"] == "lkplo-model-v3"
        for tag in ("something-else", "lkplo-model-v1", "lkplo-model-v2"):
            d["format"] = tag
            with pytest.raises(ValueError, match=f"unsupported model format '{tag}'"):
                model_from_dict(d)
        with pytest.raises(ValueError, match="unsupported model format"):
            model_from_dict([])


def _drop_last(key):
    return lambda d: d.__setitem__(key, d[key][:-1])


# (field named in the error, corruption of a fitted lkplo model's dict)
CORRUPTIONS = [
    ("clusters.centroids", lambda d: d["clusters"].update(
        centroids=[c[:-1] for c in d["clusters"]["centroids"]])),
    ("clusters.centroids", lambda d: _drop_last("centroids")(d["clusters"])),
    ("clusters.sizes", lambda d: _drop_last("sizes")(d["clusters"])),
    ("clusters.sizes", lambda d: d["clusters"]["sizes"].__setitem__(1, 0)),
    ("per_cluster", _drop_last("per_cluster")),
    ("clusters.centroids", lambda d: d["clusters"].update(
        centroids=d["clusters"]["centroids"][0])),
    ("per_cluster[1].directions", lambda d: d["per_cluster"][1].update(
        directions=[u[:-1] for u in d["per_cluster"][1]["directions"]])),
    ("per_cluster[1].directions", lambda d: d["per_cluster"][1].update(
        directions=[], medians=[], mads=[])),
    ("per_cluster[1].medians", lambda d: _drop_last("medians")(d["per_cluster"][1])),
    ("per_cluster[1].mads", lambda d: _drop_last("mads")(d["per_cluster"][1])),
    ("per_cluster[1].medians", lambda d: d["per_cluster"][1].update(
        medians=[[m] for m in d["per_cluster"][1]["medians"]])),
    ("kpca.train_points", lambda d: d["kpca"].update(
        train_points=[x + [0.0] for x in d["kpca"]["train_points"]])),
    ("kpca.projection", lambda d: _drop_last("projection")(d["kpca"])),
    ("kpca.eigenvalues", lambda d: _drop_last("eigenvalues")(d["kpca"])),
    ("kpca.eigenvalues", lambda d: d["kpca"]["eigenvalues"].__setitem__(-1, 0.0)),
    ("kpca.offset", lambda d: _drop_last("offset")(d["kpca"])),
    # json.load reads NaN and Infinity, so every number is checked for them.
    ("per_cluster[0].mads", lambda d: d["per_cluster"][0]["mads"].__setitem__(0, math.nan)),
    ("per_cluster[1].directions", lambda d: d["per_cluster"][1]["directions"][0]
     .__setitem__(1, math.inf)),
    ("clusters.centroids", lambda d: d["clusters"]["centroids"][2].__setitem__(0, -math.inf)),
    ("kpca.projection", lambda d: d["kpca"]["projection"][3].__setitem__(0, math.nan)),
    ("kpca.gamma", lambda d: d["kpca"].update(gamma=math.inf)),
    ("kpca.offset", lambda d: d["kpca"]["offset"].__setitem__(0, math.nan)),
    ("loss.c", lambda d: d["loss"].update(c=math.nan)),
    ("variant", lambda d: d.update(variant="klpo")),
    ("kpca", lambda d: d.update(kpca=None)),
    ("kpca", lambda d: d.update(variant="plo")),
    ("clusters.sizes", lambda d: d["clusters"]["sizes"].__setitem__(0, 2.5)),
    # As an int, 1e300 wraps to -2**63 and every score of the cluster
    # comes out negative.
    ("clusters.sizes", lambda d: d["clusters"]["sizes"].__setitem__(0, 1e300)),
    # Counts are ints, named by their own field rather than by the first
    # array whose shape they set.
    ("clusters.k", lambda d: d["clusters"].update(k="3")),
    ("kpca.q", lambda d: d["kpca"].update(q=2.5)),
    ("kpca.q", lambda d: d["kpca"].update(q=4.0)),
    ("d", lambda d: d.update(d=True)),
    ("clusters.centroids", lambda d: d["clusters"]["centroids"][0].append(0.0)),
    ("kpca.gamma", lambda d: d["kpca"].update(gamma="0.5")),
    # Missing keys and values that are not objects, named by their path.
    ("loss", lambda d: d.pop("loss")),
    ("kpca.gamma", lambda d: d["kpca"].pop("gamma")),
    ("clusters", lambda d: d.update(clusters=[])),
    ("kpca", lambda d: d.update(kpca=[])),
    ("per_cluster[0]", lambda d: d["per_cluster"].__setitem__(0, [])),
    ("loss", lambda d: d.update(loss="svm")),
    # An int beyond int64 is still a number: here a size beyond 2**53.
    ("clusters.sizes", lambda d: d["clusters"]["sizes"].__setitem__(0, 10**30)),
]


class TestModelValidation:
    @pytest.fixture(scope="class")
    def model_dict(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((30, 2))
        return model_to_dict(fit(X, svm_config("lkplo", gamma=0.5, q=4, k=3, seed=2)))

    @pytest.mark.parametrize("field,corrupt", CORRUPTIONS,
                             ids=[f"{i}-{f}" for i, (f, _) in enumerate(CORRUPTIONS)])
    def test_corrupted_field_is_named(self, model_dict, field, corrupt):
        d = json.loads(json.dumps(model_dict))
        corrupt(d)
        with pytest.raises(ValueError, match=f"model field {re.escape(field)} "):
            model_from_dict(d)

    @pytest.mark.parametrize("field,corrupt,cause", [
        ("loss.kind", lambda d: d["loss"].update(kind="svm"), "unknown loss kind 'svm'"),
        ("loss.c", lambda d: d["loss"].update(c=None),
         "svm_like loss requires a finite c > 0, got None"),
        ("loss.c", lambda d: d["loss"].update(kind="robust_z"),
         "robust_z loss takes no c, got 2.0"),
        ("kpca.gamma", lambda d: d["kpca"].update(gamma=-1.0),
         "gamma must be positive and finite, got -1.0"),
    ], ids=["unknown-kind", "svm-without-c", "robust-z-with-c", "negative-gamma"])
    def test_spec_error_names_the_field(self, model_dict, field, corrupt, cause):
        # The loss and kernel parameters check themselves; the reader
        # names the field their error came from.
        d = json.loads(json.dumps(model_dict))
        corrupt(d)
        with pytest.raises(ValueError) as err:
            model_from_dict(d)
        assert str(err.value) == f"model field {field} is invalid: {cause}"

    def test_plo_centroid_width_is_d(self):
        rng = np.random.default_rng(22)
        d = model_to_dict(fit(rng.standard_normal((20, 3)), rz_config(seed=1)))
        d["d"] = 2
        with pytest.raises(ValueError, match=r"model field clusters\.centroids "):
            model_from_dict(d)
