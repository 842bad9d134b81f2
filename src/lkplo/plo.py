"""Projection-based loss outlyingness: direction ensembles, robust
losses, and the three detector variants (linear-global, kernel-global,
kernel-local).

The score of a point is the maximum loss over the stored projection
directions of its nearest cluster, centered at that cluster's centroid
and weighted by the inverse cluster size. Per-direction medians and
MADs are precomputed at fit time; scoring never touches training
features again.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .clustering import assign_nearest, kmeans_fit
from .kernel_feature import KernelParams, KpcaModel, fit_kpca, transform

MAD_CONSISTENCY = 1.4826
# Robust-Z divides by the MAD, which is 0 for constant projections; the
# floor keeps the direction set identical across points.
MAD_FLOOR = 1e-9
DIRECTION_NORM_FLOOR = 1e-12
MODEL_FORMAT = "lkplo-model-v2"
# Byte budget for one score block's widest temporary (about L2-sized):
# each (B, N) kernel, (B, k, q) assignment and (B, D) projection array
# is allocated per block of B rows, not per batch.
SCORE_BLOCK_BYTES = 1 << 20

VARIANTS = ("plo", "kplo", "lkplo")
LOSS_KINDS = ("robust_z", "svm_like")


class DegenerateDirectionsError(ValueError):
    """Raised when no usable projection direction can be generated."""


@dataclass(frozen=True)
class LossSpec:
    kind: str               # "robust_z" or "svm_like"
    c: Optional[float] = None  # margin multiplier, svm_like only

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "svm_like" and not (self.c is not None and self.c > 0):
            raise ValueError("svm_like loss requires c > 0")


@dataclass(frozen=True)
class DirectionConfig:
    """Ensemble composition; the four direction types are Random, Basis,
    One-Point and Two-Points. n_one_point/n_two_points of None mean
    min(50, available)."""

    n_random: int = 100
    include_basis: bool = True
    n_one_point: Optional[int] = None
    n_two_points: Optional[int] = None

    def __post_init__(self):
        for name in ("n_random", "n_one_point", "n_two_points"):
            count = getattr(self, name)
            if count is not None and count < 0:
                raise ValueError(f"DirectionConfig.{name} must be >= 0, got {count}")


@dataclass
class LkploModel:
    """What score reads, and nothing else. Cluster j is centroids[j] with
    size sizes[j] and the direction ensemble directions[j], whose
    projection medians and MADs are medians[j] and mads[j]."""

    variant: str                     # "plo" | "kplo" | "lkplo"
    kpca: Optional[KpcaModel]        # absent for plo
    loss: LossSpec
    centroids: np.ndarray            # (k, q)
    sizes: np.ndarray                # (k,) cluster sizes N_k, all >= 1
    directions: list                 # k arrays (D_j, q), unit rows
    medians: list                    # k arrays (D_j,)
    mads: list                       # k arrays (D_j,)
    d: int                           # input dimensionality


@dataclass(frozen=True)
class FitConfig:
    variant: str
    loss: LossSpec
    gamma: float = 1.0
    q: int = 10
    k: int = 1
    direction_config: DirectionConfig = field(default_factory=DirectionConfig)
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


def gen_directions(F_centered, config: DirectionConfig, seed: int) -> np.ndarray:
    """Direction ensemble for one cluster, built from its centered members.

    Random: normalized iid standard normals. Basis: the q canonical unit
    vectors. One-Point: normalized member rows, sampled without
    replacement (with replacement when more are requested than rows
    exist). Two-Points: normalized differences of sampled distinct row
    pairs. Near-zero candidates are resampled up to a retry budget.
    """
    F_centered = np.asarray(F_centered, dtype=float)
    n_k, q = F_centered.shape
    if n_k < 1 or q < 1:
        raise ValueError("need at least one member row and one feature")
    rng = np.random.default_rng(seed)
    out = [np.empty((0, q))]

    def norm_rows(rows):
        # A stacked 1xq @ qx1 product is the dot np.linalg.norm(r) takes,
        # so every norm is bit-identical to the per-row call.
        nrm = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])
        keep = nrm >= DIRECTION_NORM_FLOOR
        return rows[keep] / nrm[keep, None]

    if config.n_random > 0:
        kept = np.empty((0, q))
        budget = 10
        while len(kept) < config.n_random and budget > 0:
            cand = rng.standard_normal((config.n_random - len(kept), q))
            kept = np.vstack([kept, norm_rows(cand)])
            budget -= 1
        out.append(kept)

    if config.include_basis:
        out.append(np.eye(q))

    n_one = config.n_one_point
    if n_one is None:
        n_one = min(50, n_k)
    if n_one > 0:
        replace = n_one > n_k
        idx = rng.choice(n_k, size=n_one, replace=replace)
        out.append(norm_rows(F_centered[idx]))

    n_two = config.n_two_points
    if n_two is None:
        n_two = min(50, n_k * (n_k - 1) // 2)
    if n_two > 0 and n_k >= 2:
        kept = np.empty((0, q))
        budget = 10
        while len(kept) < n_two and budget > 0:
            need = n_two - len(kept)
            i = rng.integers(n_k, size=need)
            j = rng.integers(n_k, size=need)
            ok = i != j
            kept = np.vstack([kept, norm_rows(F_centered[i[ok]] - F_centered[j[ok]])])
            budget -= 1
        out.append(kept)

    directions = np.concatenate(out)
    if len(directions) == 0:
        raise DegenerateDirectionsError("no usable projection directions")
    return directions


def _losses(proj, medians, mads, loss: LossSpec):
    """Vectorized losses for projections proj of shape (..., D) along
    directions whose training projections have these medians and MADs."""
    if loss.kind == "robust_z":
        return np.abs(proj - medians) / np.maximum(mads, MAD_FLOOR)
    return np.maximum(0.0, np.abs(proj) - loss.c * mads)


def _check_finite(X, what):
    """Raise a ValueError naming the first row of X with a NaN or inf."""
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"{what} row {int(np.argmax(bad))} is not finite")


def _derive_seed(seed: int, *key) -> int:
    """A seed drawn from seed's SeedSequence child at the path key."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def fit(X, config: FitConfig) -> LkploModel:
    """Fit a detector.

    plo: raw features, one global cluster at the mean. kplo: kernel
    features, one global cluster. lkplo: kernel features partitioned by
    k-means. Directions and projection statistics are built per cluster
    from that cluster's centered members.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("X must be 2-D with at least 2 rows")
    _check_finite(X, "training")

    kpca = None
    if config.variant == "plo":
        F = X
    else:
        kpca = fit_kpca(X, KernelParams(config.gamma), config.q)
        F = kpca.train_features()

    if config.variant == "lkplo":
        centroids, membership = kmeans_fit(F, config.k, config.seed)
    else:
        centroids = F.mean(axis=0)[None, :]
        membership = np.zeros(len(F), dtype=int)

    directions, medians, mads = [], [], []
    for j, centroid in enumerate(centroids):
        centered = F[membership == j] - centroid
        u = gen_directions(
            centered, config.direction_config, _derive_seed(config.seed, j)
        )
        proj = centered @ u.T  # (n_k, D)
        median = np.median(proj, axis=0)
        directions.append(u)
        medians.append(median)
        mads.append(MAD_CONSISTENCY * np.median(
            np.abs(proj - median[None, :]), axis=0
        ))

    return LkploModel(
        variant=config.variant,
        kpca=kpca,
        loss=config.loss,
        centroids=centroids,
        sizes=np.bincount(membership, minlength=len(centroids)),
        directions=directions,
        medians=medians,
        mads=mads,
        d=X.shape[1],
    )


def _block_rows(model: LkploModel) -> int:
    """Rows per score block: SCORE_BLOCK_BYTES over the widest per-row
    temporary, the training size N (kernel rows), the direction count D
    (projections) or k * q (assignment differences)."""
    widths = [len(u) for u in model.directions]
    widths.append(model.centroids.size)
    if model.kpca is not None:
        widths.append(len(model.kpca.train_points))
    return max(1, SCORE_BLOCK_BYTES // (8 * max(widths)))


def _score_block(model: LkploModel, X) -> np.ndarray:
    """Scores of the validated rows X, all at once."""
    if model.variant == "plo":
        F = X
    else:
        F = transform(model.kpca, X)

    out = np.empty(len(F))
    assign = assign_nearest(model.centroids, F)
    for j, u in enumerate(model.directions):
        rows = assign == j
        if not np.any(rows):
            continue
        proj = (F[rows] - model.centroids[j]) @ u.T
        losses = _losses(proj, model.medians[j], model.mads[j], model.loss)
        out[rows] = losses.max(axis=1) / model.sizes[j]
    return out


def score(model: LkploModel, Xnew) -> np.ndarray:
    """Final outlyingness: (1 / N_k) * local score at the nearest cluster.

    Rows are scored in blocks of _block_rows(model), so working memory is
    O(SCORE_BLOCK_BYTES) whatever the batch size. A batch of at most one
    block is scored in one call, bit-identical to an unblocked pass;
    larger batches agree with it to rounding, because BLAS rounds a
    matrix product's rows differently for different row counts.
    """
    Xnew = np.asarray(Xnew, dtype=float)
    if Xnew.ndim != 2 or Xnew.shape[1] != model.d:
        raise ValueError(f"expected (M, {model.d}) input, got {Xnew.shape}")
    _check_finite(Xnew, "input")
    rows = _block_rows(model)
    out = np.empty(Xnew.shape[0])
    for s in range(0, len(out), rows):
        out[s:s + rows] = _score_block(model, Xnew[s:s + rows])
    return out


# --- serialization (format "lkplo-model-v2") ---------------------------------


def _arr(a):
    return np.asarray(a, dtype=float).tolist()


def model_to_dict(model: LkploModel) -> dict:
    per_cluster = zip(model.directions, model.medians, model.mads)
    d = {
        "format": MODEL_FORMAT,
        "variant": model.variant,
        "loss": {"kind": model.loss.kind, "c": model.loss.c},
        "d": model.d,
        # k is stored apart from the arrays so that a file whose arrays
        # disagree on it names the one that is wrong.
        "clusters": {
            "k": len(model.centroids),
            "centroids": _arr(model.centroids),
            "sizes": model.sizes.tolist(),
        },
        "per_cluster": [
            {"directions": _arr(u), "medians": _arr(m), "mads": _arr(s)}
            for u, m, s in per_cluster
        ],
        "kpca": None,
    }
    if model.kpca is not None:
        d["kpca"] = {
            "train_points": _arr(model.kpca.train_points),
            "gamma": model.kpca.params.gamma,
            "q": model.kpca.q,
            "eigenvalues": _arr(model.kpca.eigenvalues),
            "eigenvectors": _arr(model.kpca.eigenvectors),
            "gram_row_means": _arr(model.kpca.gram_row_means),
            "gram_total_mean": model.kpca.gram_total_mean,
        }
    return d


def _check_array(field, a, shape):
    """Raise a ValueError naming field unless a has shape (an entry of
    None matches any length) and only finite values."""
    if a.ndim != len(shape) or any(
        want is not None and got != want for got, want in zip(a.shape, shape)
    ):
        want = str(shape).replace("None", "*")
        raise ValueError(f"model field {field} has shape {a.shape}, expected {want}")
    if not np.isfinite(a).all():
        raise ValueError(f"model field {field} has a non-finite value")


def _finite(field, value):
    """value, unless it is a non-finite number (json.load reads NaN and
    Infinity); then a ValueError naming field."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"model field {field} is {value}")
    return value


def _check_model(model: LkploModel, k: int):
    """Check the variant, and every array score reads against d, q and
    the stored cluster count k, so a malformed model file fails at load,
    not halfway through a score batch. Fields are named by their path in
    the file."""
    if model.variant not in VARIANTS:
        raise ValueError(f"model field variant is {model.variant!r}, "
                         f"expected one of {VARIANTS}")
    if (model.kpca is None) != (model.variant == "plo"):
        state = "null" if model.kpca is None else "set"
        raise ValueError(f"model field kpca is {state} for variant {model.variant!r}")
    q = model.d
    if model.kpca is not None:
        kpca = model.kpca
        _check_array("kpca.train_points", kpca.train_points, (None, model.d))
        n = len(kpca.train_points)
        q = kpca.q
        _check_array("kpca.eigenvectors", kpca.eigenvectors, (n, q))
        _check_array("kpca.eigenvalues", kpca.eigenvalues, (q,))
        if not np.all(kpca.eigenvalues > 0):
            raise ValueError("model field kpca.eigenvalues has a value <= 0")
        _check_array("kpca.gram_row_means", kpca.gram_row_means, (n,))
    _check_array("clusters.centroids", model.centroids, (k, q))
    _check_array("clusters.sizes", model.sizes, (k,))
    if not np.all(model.sizes >= 1):
        raise ValueError("model field clusters.sizes has a value < 1")
    if not np.all(model.sizes == np.round(model.sizes)):
        raise ValueError("model field clusters.sizes has a non-integer value")
    if len(model.directions) != k:
        raise ValueError(
            f"model field per_cluster has {len(model.directions)} entries, expected {k}"
        )
    per_cluster = zip(model.directions, model.medians, model.mads)
    for j, (u, medians, mads) in enumerate(per_cluster):
        _check_array(f"per_cluster[{j}].directions", u, (None, q))
        n_dir = len(u)
        _check_array(f"per_cluster[{j}].medians", medians, (n_dir,))
        _check_array(f"per_cluster[{j}].mads", mads, (n_dir,))


def model_from_dict(d: dict) -> LkploModel:
    if d.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {d.get('format')!r}")
    kpca = None
    if d["kpca"] is not None:
        kd = d["kpca"]
        kpca = KpcaModel(
            train_points=np.asarray(kd["train_points"], dtype=float),
            params=KernelParams(_finite("kpca.gamma", kd["gamma"])),
            q=_finite("kpca.q", kd["q"]),
            eigenvalues=np.asarray(kd["eigenvalues"], dtype=float),
            eigenvectors=np.asarray(kd["eigenvectors"], dtype=float),
            gram_row_means=np.asarray(kd["gram_row_means"], dtype=float),
            gram_total_mean=_finite("kpca.gram_total_mean", kd["gram_total_mean"]),
        )
    cd = d["clusters"]
    model = LkploModel(
        variant=d["variant"],
        kpca=kpca,
        loss=LossSpec(kind=d["loss"]["kind"], c=_finite("loss.c", d["loss"]["c"])),
        centroids=np.asarray(cd["centroids"], dtype=float),
        # Read as floats, so that a fractional size fails the check
        # rather than being truncated.
        sizes=np.asarray(cd["sizes"], dtype=float),
        directions=[np.asarray(e["directions"], dtype=float) for e in d["per_cluster"]],
        medians=[np.asarray(e["medians"], dtype=float) for e in d["per_cluster"]],
        mads=[np.asarray(e["mads"], dtype=float) for e in d["per_cluster"]],
        d=_finite("d", d["d"]),
    )
    _check_model(model, _finite("clusters.k", cd["k"]))
    model.sizes = model.sizes.astype(int)
    return model


def save_model(model: LkploModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)
        fh.write("\n")


def load_model(path) -> LkploModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
