import json
import re

import numpy as np
import pytest

from lkplo.plo import (
    MAD_FLOOR,
    ClusterScorer,
    DegenerateDirectionsError,
    DirectionConfig,
    FitConfig,
    LossSpec,
    ProjectionStats,
    fit,
    gen_directions,
    load_model,
    local_score,
    mad,
    median,
    model_from_dict,
    model_to_dict,
    robust_z_loss,
    save_model,
    score,
    svm_like_loss,
)


def sort_median(z):
    z = sorted(z)
    n = len(z)
    mid = n // 2
    return z[mid] if n % 2 else 0.5 * (z[mid - 1] + z[mid])


def svm_config(variant="plo", c=2.0, **kw):
    return FitConfig(variant=variant, loss=LossSpec("svm_like", c), **kw)


def rz_config(variant="plo", **kw):
    return FitConfig(variant=variant, loss=LossSpec("robust_z"), **kw)


class TestMedianMad:
    def test_singleton(self):
        assert median([5.0]) == 5.0
        assert mad([5.0]) == 0.0

    def test_even_length_midpoint(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_unsorted(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_mad_constant_is_zero(self):
        assert mad([2.0] * 7) == 0.0

    def test_mad_hand_example(self):
        # deviations {2, 1, 0, 1, 2}, median 1
        assert mad([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.4826)

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = rng.standard_normal(int(rng.integers(1, 30))).tolist()
            assert median(z) == sort_median(z)
            m = sort_median(z)
            assert mad(z) == 1.4826 * sort_median([abs(v - m) for v in z])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median([])
        with pytest.raises(ValueError):
            mad([])


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


class TestLosses:
    stats = ProjectionStats(
        direction=np.array([1.0, 0.0]), median_proj=2.0, mad_proj=1.4826
    )

    def test_robust_z_at_median(self):
        f = np.array([2.0, 5.0])  # u.f = median
        assert robust_z_loss(self.stats.direction, f, self.stats) == 0.0

    def test_robust_z_one_scale_unit(self):
        f = np.array([2.0 + 1.4826, 0.0])
        assert robust_z_loss(self.stats.direction, f, self.stats) == pytest.approx(1.0)

    def test_robust_z_hand_example(self):
        # projected sample [0..4]: median 2, MAD 1.4826; u.f = 5
        assert robust_z_loss(
            self.stats.direction, np.array([5.0, 0.0]), self.stats
        ) == pytest.approx(3.0 / 1.4826)

    def test_robust_z_mad_floor(self):
        stats = ProjectionStats(np.array([1.0]), 0.0, 0.0)
        assert robust_z_loss(stats.direction, np.array([1e-3]), stats) == (
            pytest.approx(1e-3 / MAD_FLOOR)
        )

    def test_svm_inside_margin(self):
        f = np.array([1.0, 0.0])  # |u.f| = 1 < 2 * 1.4826
        assert svm_like_loss(self.stats.direction, f, self.stats, c=2.0) == 0.0

    def test_svm_hand_example(self):
        f = np.array([5.0, 0.0])
        got = svm_like_loss(self.stats.direction, f, self.stats, c=2.0)
        assert got == pytest.approx(5.0 - 2.9652)

    def test_svm_huge_c_swallows_everything(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = rng.standard_normal(2)
            assert svm_like_loss(self.stats.direction, f, self.stats, c=1e12) == 0.0


def make_entry(rng, n=20, q=3, n_dirs=10):
    members = rng.standard_normal((n, q))
    centroid = members.mean(axis=0)
    centered = members - centroid
    dirs = rng.standard_normal((n_dirs, q))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj = centered @ dirs.T
    medians = np.median(proj, axis=0)
    mads = 1.4826 * np.median(np.abs(proj - medians), axis=0)
    return ClusterScorer(centroid, n, dirs, medians, mads)


class TestLocalScore:
    def test_single_direction(self):
        rng = np.random.default_rng(4)
        entry = make_entry(rng, n_dirs=1)
        f = rng.standard_normal(3)
        loss = LossSpec("robust_z")
        assert local_score(f, entry, loss) == pytest.approx(
            robust_z_loss(entry.directions[0], f - entry.centroid, entry.stats(0))
        )

    def test_centroid_scores_zero_under_svm(self):
        rng = np.random.default_rng(5)
        entry = make_entry(rng)
        assert local_score(entry.centroid, entry, LossSpec("svm_like", 1.0)) == 0.0

    def test_matches_exhaustive_max(self):
        rng = np.random.default_rng(6)
        entry = make_entry(rng, n_dirs=10)
        for loss in (LossSpec("robust_z"), LossSpec("svm_like", 2.0)):
            f = rng.standard_normal(3)
            per_dir = []
            for i in range(10):
                st = entry.stats(i)
                if loss.kind == "robust_z":
                    per_dir.append(robust_z_loss(st.direction, f - entry.centroid, st))
                else:
                    per_dir.append(
                        svm_like_loss(st.direction, f - entry.centroid, st, loss.c)
                    )
            assert local_score(f, entry, loss) == pytest.approx(max(per_dir), abs=1e-12)

    def test_max_dominance_adding_direction(self):
        rng = np.random.default_rng(7)
        entry = make_entry(rng, n_dirs=5)
        bigger = make_entry(rng, n_dirs=1)
        grown = ClusterScorer(
            entry.centroid,
            entry.size,
            np.vstack([entry.directions, bigger.directions]),
            np.concatenate([entry.medians, bigger.medians]),
            np.concatenate([entry.mads, bigger.mads]),
        )
        loss = LossSpec("robust_z")
        for _ in range(30):
            f = rng.standard_normal(3)
            assert local_score(f, grown, loss) >= local_score(f, entry, loss) - 1e-15


class TestFit:
    def test_plo_shape(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((15, 2))
        model = fit(X, svm_config(seed=1))
        assert model.variant == "plo"
        assert model.kpca is None
        assert model.clusters.k == 1
        assert model.per_cluster[0].directions.shape[1] == 2

    def test_lkplo_k1_matches_kplo(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 2))
        kw = dict(gamma=0.5, q=5, seed=3)
        m_kplo = fit(X, svm_config("kplo", **kw))
        m_lkplo = fit(X, svm_config("lkplo", k=1, **kw))
        a, b = m_kplo.per_cluster[0], m_lkplo.per_cluster[0]
        np.testing.assert_allclose(a.centroid, b.centroid, atol=1e-12)
        np.testing.assert_allclose(a.directions, b.directions, atol=1e-12)
        np.testing.assert_allclose(a.medians, b.medians, atol=1e-12)
        np.testing.assert_allclose(a.mads, b.mads, atol=1e-12)

    def test_lkplo_recovers_blobs(self):
        rng = np.random.default_rng(10)
        centers = np.array([[0.0, 0.0], [12.0, 0.0], [6.0, 10.0]])
        X = np.vstack([c + 0.4 * rng.standard_normal((25, 2)) for c in centers])
        blob = np.repeat(np.arange(3), 25)
        model = fit(X, svm_config("lkplo", gamma=0.05, q=5, k=3, seed=4))
        labels = model.clusters.membership
        # Each blob maps to exactly one cluster.
        mapping = {b: set(labels[blob == b]) for b in range(3)}
        assert all(len(s) == 1 for s in mapping.values())
        assert len(set.union(*mapping.values())) == 3

    def test_singleton_cluster_allowed(self):
        rng = np.random.default_rng(11)
        X = np.vstack([rng.standard_normal((10, 2)), [[50.0, 50.0]]])
        model = fit(X, rz_config("lkplo", gamma=0.1, q=4, k=2, seed=0))
        assert model.clusters.sizes.min() >= 1

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


class TestScore:
    def test_single_cluster_weighting(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((16, 2))
        model = fit(X, rz_config(seed=2))
        entry = model.per_cluster[0]
        s = score(model, X)
        for i in range(16):
            assert s[i] == pytest.approx(
                local_score(X[i], entry, model.loss) / 16, abs=1e-12
            )

    def test_deep_inlier_scores_zero_with_svm(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((40, 2))
        model = fit(X, svm_config(c=5.0, seed=0))
        entry = model.per_cluster[0]
        # Pick a training point whose margins all hold; it must score 0.
        for i in range(40):
            proj = entry.directions @ (X[i] - entry.centroid)
            if np.all(np.abs(proj) <= model.loss.c * entry.mads):
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
        dirs = model.per_cluster[0].directions

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
        rng = np.random.default_rng(19)
        X = rng.standard_normal((22, 2))
        model = fit(X, svm_config("lkplo", gamma=0.4, q=5, k=3, seed=8))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        Xq = rng.standard_normal((35, 2))
        np.testing.assert_array_equal(score(model, Xq), score(loaded, Xq))

    def test_format_tag_checked(self):
        rng = np.random.default_rng(20)
        model = fit(rng.standard_normal((8, 2)), rz_config(seed=0))
        d = model_to_dict(model)
        assert d["format"] == "lkplo-model-v1"
        d["format"] = "something-else"
        with pytest.raises(ValueError):
            model_from_dict(d)


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
    ("per_cluster[1].centroid", lambda d: _drop_last("centroid")(d["per_cluster"][1])),
    ("per_cluster[1].directions", lambda d: d["per_cluster"][1].update(
        directions=[u[:-1] for u in d["per_cluster"][1]["directions"]])),
    ("per_cluster[1].directions", lambda d: d["per_cluster"][1].update(
        directions=[], medians=[], mads=[])),
    ("per_cluster[1].medians", lambda d: _drop_last("medians")(d["per_cluster"][1])),
    ("per_cluster[1].mads", lambda d: _drop_last("mads")(d["per_cluster"][1])),
    ("per_cluster[1].size", lambda d: d["per_cluster"][1].update(size=0)),
    ("kpca.train_points", lambda d: d["kpca"].update(
        train_points=[x + [0.0] for x in d["kpca"]["train_points"]])),
    ("kpca.eigenvectors", lambda d: _drop_last("eigenvectors")(d["kpca"])),
    ("kpca.eigenvalues", lambda d: _drop_last("eigenvalues")(d["kpca"])),
    ("kpca.eigenvalues", lambda d: d["kpca"]["eigenvalues"].__setitem__(-1, 0.0)),
    ("kpca.gram_row_means", lambda d: _drop_last("gram_row_means")(d["kpca"])),
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

    def test_plo_centroid_width_is_d(self):
        rng = np.random.default_rng(22)
        d = model_to_dict(fit(rng.standard_normal((20, 3)), rz_config(seed=1)))
        d["d"] = 2
        with pytest.raises(ValueError, match=r"model field clusters\.centroids "):
            model_from_dict(d)
