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
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .clustering import assign_nearest, kmeans_fit
from .kernel_feature import (KernelParams, KpcaModel, _check_finite, fit_kpca,
                             per_block, transform, usable_cpus)

MAD_CONSISTENCY = 1.4826
# Robust-Z divides by the MAD, which is 0 for constant projections; the
# floor keeps the direction set identical across points.
MAD_FLOOR = 1e-9
DIRECTION_NORM_FLOOR = 1e-12
MODEL_FORMAT = "lkplo-model-v2"

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
        if self.kind == "svm_like" and not (self.c is not None and 0 < self.c < math.inf):
            raise ValueError(f"svm_like loss requires a finite c > 0, got {self.c}")


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
        if self.seed < 0:
            raise ValueError(f"seed (--seed) must be >= 0, got {self.seed}")


def gen_directions(F_centered, config: DirectionConfig, seed: int) -> np.ndarray:
    """Direction ensemble for one cluster, built from its centered members.

    Random: normalized iid standard normals. Basis: the q canonical unit
    vectors. One-Point: normalized member rows, sampled without
    replacement (with replacement when more are requested than rows
    exist). Two-Points: normalized differences of sampled distinct row
    pairs, redrawn up to a retry budget as i == j is common. Near-zero
    candidates are dropped.
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
        out.append(norm_rows(rng.standard_normal((config.n_random, q))))

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


def _max_loss(proj, medians, mads, loss: LossSpec):
    """Each row's largest loss over projections proj (n, D) along
    directions whose training projections have these medians and MADs;
    proj is overwritten.

    robust_z: |p - median| / max(MAD, MAD_FLOOR). svm_like:
    max(0, |p| - c MAD), clamped once after the row maximum, since
    max_j max(0, a_j) == max(0, max_j a_j) exactly.
    """
    if loss.kind == "robust_z":
        proj -= medians
        np.abs(proj, out=proj)
        proj /= np.maximum(mads, MAD_FLOOR)
        return proj.max(axis=1)
    np.abs(proj, out=proj)
    proj -= loss.c * mads
    return np.maximum(proj.max(axis=1), 0.0)


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
    """Rows per score block: per_block of the widest per-row temporary,
    the training size N (kernel rows), the direction count D
    (projections) or k * q (assignment differences)."""
    widths = [len(u) for u in model.directions]
    widths.append(model.centroids.size)
    if model.kpca is not None:
        widths.append(len(model.kpca.train_points))
    return per_block(max(widths))


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
        out[rows] = _max_loss(proj, model.medians[j], model.mads[j],
                              model.loss) / model.sizes[j]
    return out


def score(model: LkploModel, Xnew) -> np.ndarray:
    """Final outlyingness: (1 / N_k) * local score at the nearest cluster.

    Rows are scored in blocks of _block_rows(model), so working memory is
    O(kernel_feature.BLOCK_BYTES) per thread whatever the batch size. The
    caller and min(blocks, usable CPUs) - 1 threads pull the next block
    from one shared iterator, and each writes its block's scores into its
    own slice of the output; numpy's large loops and BLAS release the GIL.
    A block computes the same doubles on any thread, so the scores do not
    depend on the CPU count, and a one-block batch starts no thread. After
    a block fails no further block starts, and once every thread is
    joined the lowest failed block's exception is raised.

    A batch of at most one block is bit-identical to an unblocked pass;
    larger batches agree with it to rounding, because BLAS rounds a
    matrix product's rows differently for different row counts.
    """
    Xnew = np.asarray(Xnew, dtype=float)
    if Xnew.ndim != 2 or Xnew.shape[1] != model.d:
        raise ValueError(f"expected (M, {model.d}) input, got {Xnew.shape}")
    _check_finite(Xnew, "input")
    rows = _block_rows(model)
    out = np.empty(Xnew.shape[0])
    blocks = range(0, len(out), rows)
    starts = iter(blocks)
    lock = threading.Lock()
    failed = {}

    def stop():  # hand out no further block
        with lock:
            for _ in starts:
                pass

    def pull():
        while True:
            with lock:
                s = next(starts, None)
            if s is None:
                return
            try:
                out[s:s + rows] = _score_block(model, Xnew[s:s + rows])
            except Exception as exc:  # raised by the caller, see below
                failed[s] = exc
                stop()

    n_threads = min(len(blocks), usable_cpus())
    threads = [threading.Thread(target=pull) for _ in range(n_threads - 1)]
    try:
        for thread in threads:
            thread.start()
        pull()
    finally:
        stop()
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if failed:
        raise failed[min(failed)]
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


def _array(field, value, shape=()):
    """value as a finite float array of shape (an entry of None matches
    any length), or a float when shape is (); else a ValueError naming
    field. Strings and bools are refused, which dtype=float would read."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting
        a = np.asarray(None)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"model field {field} is not a number or a regular array")
    if a.ndim != len(shape) or not all(w in (None, g) for g, w in zip(a.shape, shape)):
        want = str(shape).replace("None", "*")
        raise ValueError(f"model field {field} has shape {a.shape}, expected {want}")
    if not np.isfinite(a).all():
        raise ValueError(f"model field {field} has a non-finite value")
    return a.astype(float, copy=False) if shape else float(a)


def _count(field, value) -> int:
    """value if it is an int >= 1, not a bool or a float; else a
    ValueError naming field."""
    if type(value) is not int or value < 1:
        raise ValueError(f"model field {field} is {value!r}, expected an int >= 1")
    return value


def model_from_dict(d) -> LkploModel:
    """The model a model_to_dict dict describes. Each field is checked as
    it is read, against the sizes read before it, so a malformed file
    fails at load, not halfway through a score batch, with an error that
    names the first bad field by its path in the file."""
    tag = d.get("format") if isinstance(d, dict) else f"<a JSON {type(d).__name__}>"
    if tag != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {tag!r}")
    variant, kd = d["variant"], d["kpca"]
    if variant not in VARIANTS:
        raise ValueError(f"model field variant is {variant!r}, "
                         f"expected one of {VARIANTS}")
    if (kd is None) != (variant == "plo"):
        state = "null" if kd is None else "set"
        raise ValueError(f"model field kpca is {state} for variant {variant!r}")
    c = d["loss"]["c"]
    loss = LossSpec(d["loss"]["kind"], None if c is None else _array("loss.c", c))
    q = dim = _count("d", d["d"])
    kpca = None
    if kd is not None:
        train_points = _array("kpca.train_points", kd["train_points"], (None, dim))
        n = len(train_points)
        q = _count("kpca.q", kd["q"])
        eigenvalues = _array("kpca.eigenvalues", kd["eigenvalues"], (q,))
        if not np.all(eigenvalues > 0):
            raise ValueError("model field kpca.eigenvalues has a value <= 0")
        kpca = KpcaModel(
            train_points=train_points,
            params=KernelParams(_array("kpca.gamma", kd["gamma"])),
            q=q,
            eigenvalues=eigenvalues,
            eigenvectors=_array("kpca.eigenvectors", kd["eigenvectors"], (n, q)),
            gram_row_means=_array("kpca.gram_row_means", kd["gram_row_means"], (n,)),
            gram_total_mean=_array("kpca.gram_total_mean", kd["gram_total_mean"]),
        )
    k = _count("clusters.k", d["clusters"]["k"])
    centroids = _array("clusters.centroids", d["clusters"]["centroids"], (k, q))
    # The weight is 1 / N_k, and float64 holds every integer up to 2**53.
    sizes = _array("clusters.sizes", d["clusters"]["sizes"], (k,))
    if not np.all((sizes >= 1) & (sizes <= 2**53) & (sizes == np.round(sizes))):
        raise ValueError("model field clusters.sizes has a value that is not "
                         "a whole number in [1, 2**53]")
    entries = d["per_cluster"]
    if len(entries) != k:
        raise ValueError(f"model field per_cluster has {len(entries)} entries, "
                         f"expected {k}")
    directions, medians, mads = [], [], []
    for j, entry in enumerate(entries):
        u = _array(f"per_cluster[{j}].directions", entry["directions"], (None, q))
        directions.append(u)
        medians.append(_array(f"per_cluster[{j}].medians", entry["medians"], (len(u),)))
        mads.append(_array(f"per_cluster[{j}].mads", entry["mads"], (len(u),)))
    return LkploModel(variant, kpca, loss, centroids, sizes.astype(int),
                      directions, medians, mads, dim)


def save_model(model: LkploModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)
        fh.write("\n")


def load_model(path) -> LkploModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
