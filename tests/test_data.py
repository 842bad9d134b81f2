import numpy as np
import pytest

from lkplo.data import (
    CsvFormatError,
    Dataset,
    apply_standardizer,
    fit_standardizer,
    gen_inside_outside,
    gen_moons,
    gen_three_gaussians,
    load_csv,
    save_csv,
)


class TestLoadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return p

    def test_basic_parse(self, tmp_path):
        p = self.write(tmp_path, "a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_csv(p)
        assert ds.X.shape == (3, 2)
        np.testing.assert_array_equal(ds.y, [0, 1, 0])
        np.testing.assert_array_equal(ds.X[1], [3.0, 4.0])

    def test_label_column_anywhere(self, tmp_path):
        p = self.write(tmp_path, "label,a\n1,7\n0,8\n")
        ds = load_csv(p)
        np.testing.assert_array_equal(ds.X[:, 0], [7.0, 8.0])

    def test_all_inliers_load_fine(self, tmp_path):
        # Single-class data loads; the evaluation layer rejects it later.
        p = self.write(tmp_path, "a,label\n1,0\n2,0\n")
        ds = load_csv(p)
        assert ds.y.sum() == 0

    def test_utf8_bom_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" and Windows Notepad start the file with a
        # BOM, which would otherwise be read into the first column's name.
        text = "label,a,b\n1,7,2\n0,8,3\n"
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + text.encode())
        ds = load_csv(p)
        want = load_csv(self.write(tmp_path, text))
        np.testing.assert_array_equal(ds.X, want.X)
        np.testing.assert_array_equal(ds.y, [1, 0])

    def test_missing_label_column(self, tmp_path):
        p = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(CsvFormatError, match="label"):
            load_csv(p)

    def test_repeated_label_column_named(self, tmp_path):
        # The second 'label' would otherwise load as a feature.
        p = self.write(tmp_path, "a,b,label,label\n1,2,0,1\n3,4,1,0\n")
        with pytest.raises(CsvFormatError, match="column 'label' repeats"):
            load_csv(p)

    def test_nan_cell_named(self, tmp_path):
        p = self.write(tmp_path, "a,b,label\n1,NaN,0\n")
        with pytest.raises(CsvFormatError, match="row 2.*'b'"):
            load_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = self.write(tmp_path, "a,label\nfoo,0\n")
        with pytest.raises(CsvFormatError, match="'foo'"):
            load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = self.write(tmp_path, "a,b,label\n1,2,0\n1,0\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(p)

    def test_bad_label(self, tmp_path):
        p = self.write(tmp_path, "a,label\n1,2\n")
        with pytest.raises(CsvFormatError, match="label"):
            load_csv(p)

    def test_label_only_named(self, tmp_path):
        # Without the check, plo and kplo fail later with errors that do
        # not say the file has no feature.
        p = self.write(tmp_path, "label\n0\n0\n1\n")
        with pytest.raises(CsvFormatError) as info:
            load_csv(p)
        assert str(info.value) == f"{p}: no feature column in header ['label']"

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("a,label\n", "no data rows"),
    ])
    def test_no_rows_named(self, tmp_path, text, message):
        p = self.write(tmp_path, text)
        with pytest.raises(CsvFormatError, match=f": {message}$"):
            load_csv(p)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset("t", rng.standard_normal((12, 3)), rng.integers(0, 2, 12))
        # Signed zero, the smallest subnormal and the largest double keep
        # their bits too.
        ds.X[0] = [-0.0, 5e-324, 1.7976931348623157e308]
        p = tmp_path / "rt.csv"
        save_csv(ds, p)
        back = load_csv(p)
        assert back.X.tobytes() == ds.X.tobytes()
        np.testing.assert_array_equal(back.y, ds.y)


class TestStandardizer:
    def test_single_row_maps_to_zero(self):
        X = np.array([[3.0, -1.0, 7.0]])
        s = fit_standardizer(X)
        np.testing.assert_array_equal(apply_standardizer(s, X), np.zeros((1, 3)))

    def test_constant_column_centered_only(self):
        X = np.array([[2.0, 1.0], [2.0, 3.0], [2.0, 5.0]])
        s = fit_standardizer(X)
        out = apply_standardizer(s, X)
        np.testing.assert_array_equal(out[:, 0], 0.0)
        assert s[1][0] == 1.0

    def test_train_statistics_recovered(self):
        rng = np.random.default_rng(1)
        X = 3.0 + 2.0 * rng.standard_normal((200, 4))
        out = apply_standardizer(fit_standardizer(X), X)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)


class TestGenerators:
    def test_three_gaussians_construction(self):
        ds = gen_three_gaussians(0)
        assert (ds.y == 0).sum() == 450
        assert (ds.y == 1).sum() == 30
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [2.5, 4.5]])
        outliers = ds.X[ds.y == 1]
        d = np.linalg.norm(outliers[:, None, :] - centers[None], axis=2)
        assert d.min() >= 2.0
        # Sample means close to the construction centers at n=150, std 0.5.
        for i, c in enumerate(centers):
            blob = ds.X[150 * i : 150 * (i + 1)]
            assert np.linalg.norm(blob.mean(axis=0) - c) < 0.15

    def test_inside_outside_construction(self):
        ds = gen_inside_outside(0)
        assert (ds.y == 0).sum() == 400
        assert (ds.y == 1).sum() == 40
        radii = np.linalg.norm(ds.X, axis=1)
        assert np.all((radii[:400] >= 2.0) & (radii[:400] <= 4.0))
        assert np.all(radii[400:420] < 1.0)  # inner blob
        scattered = radii[420:]
        assert np.all((scattered < 2.2) | (scattered > 3.8))

    def test_moons_construction(self):
        ds = gen_moons(0)
        assert (ds.y == 0).sum() == 400
        assert (ds.y == 1).sum() == 25
        inliers, outliers = ds.X[:400], ds.X[400:]
        assert inliers[:, 0].min() > -1.5
        assert inliers[:, 0].max() < 2.5
        d = np.linalg.norm(outliers[:, None, :] - inliers[None], axis=2)
        assert d.min(axis=1).min() >= 0.3

    @pytest.mark.parametrize(
        "gen", [gen_three_gaussians, gen_inside_outside, gen_moons]
    )
    def test_determinism(self, gen):
        a, b = gen(123), gen(123)
        assert a.X.tobytes() == b.X.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    @pytest.mark.parametrize(
        "gen", [gen_three_gaussians, gen_inside_outside, gen_moons]
    )
    def test_seeds_differ(self, gen):
        assert gen(1).X.tobytes() != gen(2).X.tobytes()
