"""Dataset ingestion, train-statistics standardization, and the three
2-D synthetic generators (multi-modal blobs, ring with inside/outside
outliers, interleaving moons)."""

import csv
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    name: str
    X: np.ndarray  # (N, d)
    y: np.ndarray  # (N,), 0 = inlier, 1 = outlier


class CsvFormatError(ValueError):
    """Raised on malformed dataset CSV files."""


def load_csv(path, name=None) -> Dataset:
    """Parse a dataset CSV (UTF-8, with or without a BOM): header row, a
    mandatory 'label' column in {0, 1}, all other columns numeric
    features (header order preserved)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError(f"{path}: empty file")
        if "label" not in header:
            raise CsvFormatError(f"{path}: no 'label' column in header {header}")
        if header.count("label") > 1:
            raise CsvFormatError(f"{path}: column 'label' repeats in header {header}")
        if len(header) == 1:
            raise CsvFormatError(f"{path}: no feature column in header {header}")
        label_col = header.index("label")
        feat_cols = [i for i in range(len(header)) if i != label_col]

        rows, labels = [], []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}"
                )
            feats = []
            for i in feat_cols:
                try:
                    v = float(row[i])
                except ValueError:
                    v = math.nan
                if not math.isfinite(v):
                    raise CsvFormatError(
                        f"{path}: non-numeric cell {row[i]!r} at row {rownum}, "
                        f"column {header[i]!r}"
                    )
                feats.append(v)
            if row[label_col] not in ("0", "1"):
                raise CsvFormatError(
                    f"{path}: label {row[label_col]!r} at row {rownum} not in {{0, 1}}"
                )
            rows.append(feats)
            labels.append(int(row[label_col]))

    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(
        name=name or str(path),
        X=np.asarray(rows, dtype=float),
        y=np.asarray(labels, dtype=int),
    )


def write_csv(path, header, rows):
    """Write a CSV table, UTF-8 with no BOM and LF line ends. A float cell
    is its shortest repr; a cell holding a comma or a quote is quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(dataset: Dataset, path):
    rows = zip(np.asarray(dataset.X, dtype=float).tolist(), dataset.y)
    write_csv(path, [f"f{i}" for i in range(dataset.X.shape[1])] + ["label"],
              (row + [int(label)] for row, label in rows))


@dataclass
class Standardizer:
    means: np.ndarray
    stds: np.ndarray  # divisor; zero-variance features use 1


def fit_standardizer(X_train) -> Standardizer:
    X_train = np.asarray(X_train, dtype=float)
    means = X_train.mean(axis=0)
    stds = X_train.std(axis=0)
    return Standardizer(means=means, stds=np.where(stds == 0, 1.0, stds))


def apply_standardizer(standardizer: Standardizer, X) -> np.ndarray:
    return (np.asarray(X, dtype=float) - standardizer.means) / standardizer.stds


# --- synthetic generators ----------------------------------------------------


def gen_three_gaussians(seed: int) -> Dataset:
    """Three isotropic inlier blobs plus uniform outliers kept away from
    every blob center."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [2.5, 4.5]])
    inliers = np.vstack(
        [c + 0.5 * rng.standard_normal((150, 2)) for c in centers]
    )
    outliers = []
    while len(outliers) < 30:
        p = rng.uniform(-3.0, 8.0, size=2)
        if np.min(np.linalg.norm(centers - p, axis=1)) >= 2.0:
            outliers.append(p)
    X = np.vstack([inliers, np.asarray(outliers)])
    y = np.concatenate([np.zeros(450, dtype=int), np.ones(30, dtype=int)])
    return Dataset(name="three_gaussians", X=X, y=y)


def gen_inside_outside(seed: int) -> Dataset:
    """Inlier ring with a tight outlier blob at its center and scattered
    outliers outside it."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=400)
    radii = rng.normal(3.0, 0.15, size=400)
    inliers = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])

    # Inner blob redrawn as a whole if any point strays to radius >= 1.
    while True:
        blob = 0.2 * rng.standard_normal((20, 2))
        if np.all(np.linalg.norm(blob, axis=1) < 1.0):
            break

    scattered = []
    while len(scattered) < 20:
        p = rng.uniform(-6.0, 6.0, size=2)
        r = np.linalg.norm(p)
        if not 2.2 <= r <= 3.8:
            scattered.append(p)

    X = np.vstack([inliers, blob, np.asarray(scattered)])
    y = np.concatenate([np.zeros(400, dtype=int), np.ones(40, dtype=int)])
    return Dataset(name="inside_outside", X=X, y=y)


def gen_moons(seed: int) -> Dataset:
    """Two interleaving noisy half-circles plus uniform outliers kept at
    distance >= 0.3 from every inlier."""
    rng = np.random.default_rng(seed)
    t1 = rng.uniform(0.0, np.pi, size=200)
    t2 = rng.uniform(0.0, np.pi, size=200)
    upper = np.column_stack([np.cos(t1), np.sin(t1)])
    lower = np.column_stack([1.0 - np.cos(t2), 1.0 - np.sin(t2) - 0.5])
    inliers = np.vstack([upper, lower]) + 0.08 * rng.standard_normal((400, 2))

    lo = inliers.min(axis=0) - 1.0
    hi = inliers.max(axis=0) + 1.0
    outliers = []
    while len(outliers) < 25:
        p = rng.uniform(lo, hi)
        if np.min(np.linalg.norm(inliers - p, axis=1)) >= 0.3:
            outliers.append(p)

    X = np.vstack([inliers, np.asarray(outliers)])
    y = np.concatenate([np.zeros(400, dtype=int), np.ones(25, dtype=int)])
    return Dataset(name="moons", X=X, y=y)


SYNTHETIC_GENERATORS = {
    "three_gaussians": gen_three_gaussians,
    "inside_outside": gen_inside_outside,
    "moons": gen_moons,
}
