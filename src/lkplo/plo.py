"""Projection-based loss outlyingness: direction ensembles, robust
losses, and the three detector variants (linear-global, kernel-global,
kernel-local).

The score of a point is the maximum loss over the stored projection
directions of its nearest cluster, centered at that cluster's centroid
and weighted by the inverse cluster size. Per-direction medians and
MADs are precomputed at fit time; scoring never touches training
features again. Fitting a cluster costs its draws, one norm pass over
its candidates and two row-wise sorts, and gives np.median's bits.
"""

import base64
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .clustering import InvalidKError, assign_nearest, kmeans_fit
from .kernel_feature import (KernelParams, KpcaModel, _check_finite, fit_kpca,
                             run_blocks, transform)

MAD_CONSISTENCY = 1.4826
# Robust-Z divides by the MAD, which is 0 for constant projections; the
# floor keeps the direction set identical across points.
MAD_FLOOR = 1e-9
DIRECTION_NORM_FLOOR = 1e-12
MODEL_FORMAT = "lkplo-model-v4"

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
        if self.kind == "robust_z" and self.c is not None:
            raise ValueError(f"robust_z loss takes no c, got {self.c}")


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
        for name, low in (("q", 1), ("k", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} (--{name}) must be >= {low}, "
                                 f"got {getattr(self, name)}")
        KernelParams(self.gamma)  # checks gamma's range, whatever the variant


def gen_directions(F_centered, config: DirectionConfig, seed: int) -> np.ndarray:
    """Direction ensemble for one cluster, built from its centered members.

    Random: normalized iid standard normals. Basis: the q canonical unit
    vectors. One-Point: normalized member rows, sampled without
    replacement (with replacement when more are requested than rows
    exist). Two-Points: normalized differences of sampled distinct row
    pairs, redrawn up to a retry budget as i == j is common. Near-zero
    candidates are dropped. The draws come in that order; the first round
    of all four takes one norm pass, and pairs are redrawn while short.
    """
    F_centered = np.asarray(F_centered, dtype=float)
    n_k, q = F_centered.shape
    if n_k < 1 or q < 1:
        raise ValueError("need at least one member row and one feature")
    rng = np.random.default_rng(seed)
    n_one = min(50, n_k) if config.n_one_point is None else config.n_one_point
    n_two = config.n_two_points if n_k >= 2 else 0
    if n_two is None:
        n_two = min(50, n_k * (n_k - 1) // 2)

    def norm_rows(rows):
        # A stacked 1xq @ qx1 product is the dot np.linalg.norm(r) takes,
        # so every norm is bit-identical to the per-row call.
        nrm = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])
        keep = nrm >= DIRECTION_NORM_FLOOR
        return rows[keep] / nrm[keep, None], keep

    def pairs(need):
        i, j = rng.integers(n_k, size=need), rng.integers(n_k, size=need)
        ok = i != j
        return F_centered[i[ok]] - F_centered[j[ok]]

    candidates = []
    if config.n_random > 0:
        candidates.append(rng.standard_normal((config.n_random, q)))
    if config.include_basis:
        candidates.append(np.eye(q))  # norms of exactly 1: kept as they are
    if n_one > 0:
        candidates.append(F_centered[rng.choice(n_k, size=n_one, replace=n_one > n_k)])
    first = pairs(n_two)  # the last draw, so an empty one changes nothing
    rows, keep = norm_rows(np.concatenate([*candidates, first]))
    rounds, kept = [rows], np.count_nonzero(keep[len(keep) - len(first):])
    while kept < n_two and len(rounds) < 10:
        rounds.append(norm_rows(pairs(n_two - kept))[0])
        kept += len(rounds[-1])
    directions = np.concatenate(rounds)
    if len(directions) == 0:
        raise DegenerateDirectionsError("no usable projection directions")
    return directions


def _row_medians(a):
    """np.median(a, axis=1) of the C-contiguous 2-D array a, bit for bit,
    sorting each row in place. The 0.0 + repeats np.median's mean, a sum
    from +0.0: no -0.0, whichever zero of a tie sorts first."""
    a.sort()
    h = a.shape[1] // 2
    if a.shape[1] % 2:
        return 0.0 + a[:, h]
    return (0.0 + a[:, h - 1] + a[:, h]) / 2


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
    if config.variant == "lkplo" and config.k > len(X):  # before the kernel stage
        raise InvalidKError(f"k (--k) must be <= {len(X)}, the number of training "
                            f"rows, got {config.k}")

    kpca = None
    if config.variant == "plo":
        _check_finite(X, "training")
        F = X
    else:
        kpca, F = fit_kpca(X, KernelParams(config.gamma), config.q)

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
        proj = np.ascontiguousarray((centered @ u.T).T)  # (D, n_k), sorted in place
        median = _row_medians(proj)
        np.abs(np.subtract(proj, median[:, None], out=proj), out=proj)
        directions.append(u)
        medians.append(median)
        mads.append(MAD_CONSISTENCY * _row_medians(proj))

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


def _block_width(model: LkploModel) -> int:
    """The widest per-row temporary of a score block: the training size
    N (kernel rows), the direction count D (projections) or k
    (assignment distances)."""
    widths = [len(u) for u in model.directions]
    widths.append(len(model.centroids))
    if model.kpca is not None:
        widths.append(len(model.kpca.train_points))
    return max(widths)


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

    Rows are scored by the slabs of kernel_feature.run_blocks at the width
    _block_width(model), so working memory is O(BLOCK_BYTES) per thread
    whatever the batch size, and each slab writes its scores into its own
    slice of the output. A slab computes the same doubles on any thread,
    so the scores do not depend on the CPU count.

    A batch of at most one slab is bit-identical to an unblocked pass;
    larger batches agree with it to rounding, because BLAS rounds a
    matrix product's rows differently for different row counts.
    """
    Xnew = np.asarray(Xnew, dtype=float)
    if Xnew.ndim != 2 or Xnew.shape[1] != model.d:
        raise ValueError(f"expected (M, {model.d}) input, got {Xnew.shape}")
    _check_finite(Xnew, "input")
    out = np.empty(Xnew.shape[0])

    def block(s):
        out[s] = _score_block(model, Xnew[s])

    run_blocks(len(out), _block_width(model), block)
    return out


# --- serialization (format "lkplo-model-v4") ---------------------------------


def _arr(a):
    """a as the base64 of its little-endian float64 bytes, in C order."""
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


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
            "sizes": _arr(model.sizes),
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
            "projection": _arr(model.kpca.projection),
            "offset": _arr(model.kpca.offset),
        }
    return d


def _field(parent, path):
    """The value at path, the dotted path of a key of the JSON object
    parent; else a ValueError naming parent's path when parent is not an
    object, or path when the key is missing."""
    where, _, key = path.rpartition(".")
    if not isinstance(parent, dict):
        raise ValueError(f"model field {where} is a JSON {type(parent).__name__}, "
                         "expected an object")
    if key not in parent:
        raise ValueError(f"model field {path} is missing")
    return parent[key]


def _array(parent, path, shape=()):
    """_field(parent, path) as a finite float, or for a shape as the finite
    array _arr stored (None: any count >= 1); else a ValueError naming path."""
    value = _field(parent, path)
    if not shape:  # a JSON number; a bool, a string or an int beyond float is not
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"model field {path} is not a finite JSON number")
        return float(value)
    if type(value) is not str:
        raise ValueError(f"model field {path} is a JSON {type(value).__name__}, "
                         "expected a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error
        raise ValueError(f"model field {path} is not base64: {exc}") from None
    width = 8 * math.prod(w for w in shape if w is not None)
    rows = len(raw) // width if None in shape else 1
    if len(raw) != rows * width or rows < 1:
        raise ValueError(f"model field {path} holds {len(raw)} bytes, expected 8 per "
                         f"value of a {str(shape).replace('None', '*')} array")
    a = np.frombuffer(raw, "<f8").astype(float)  # a fresh aligned copy, as v3's
    if not np.isfinite(a).all():
        raise ValueError(f"model field {path} has a non-finite value")
    return a.reshape([rows if w is None else w for w in shape])


def _built(path, make, *args):
    """make(*args), a ValueError from it named as model field path's."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"model field {path} is invalid: {exc}") from None


def _count(parent, path) -> int:
    """_field(parent, path) if it is an int >= 1, not a bool or a float;
    else a ValueError naming path."""
    value = _field(parent, path)
    if type(value) is not int or value < 1:
        raise ValueError(f"model field {path} is {value!r}, expected an int >= 1")
    return value


def model_from_dict(d) -> LkploModel:
    """The model a model_to_dict dict describes. Each field is checked as
    it is read, against the sizes read before it, so a malformed file
    fails at load, not halfway through a score batch, with an error that
    names the first bad field by its path in the file."""
    tag = d.get("format") if isinstance(d, dict) else f"<a JSON {type(d).__name__}>"
    if tag != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {tag!r}")
    variant, kd = _field(d, "variant"), _field(d, "kpca")
    if variant not in VARIANTS:
        raise ValueError(f"model field variant is {variant!r}, "
                         f"expected one of {VARIANTS}")
    if (kd is None) != (variant == "plo"):
        state = "null" if kd is None else "set"
        raise ValueError(f"model field kpca is {state} for variant {variant!r}")
    ld = _field(d, "loss")
    kind = _field(ld, "loss.kind")
    c = None if _field(ld, "loss.c") is None else _array(ld, "loss.c")
    loss = _built("loss.c" if kind in LOSS_KINDS else "loss.kind", LossSpec, kind, c)
    q = dim = _count(d, "d")
    kpca = None
    if kd is not None:
        train_points = _array(kd, "kpca.train_points", (None, dim))
        q = _count(kd, "kpca.q")
        eigenvalues = _array(kd, "kpca.eigenvalues", (q,))
        if not np.all(eigenvalues > 0):
            raise ValueError("model field kpca.eigenvalues has a value <= 0")
        kpca = KpcaModel(
            train_points=train_points,
            params=_built("kpca.gamma", KernelParams, _array(kd, "kpca.gamma")),
            q=q,
            eigenvalues=eigenvalues,
            projection=_array(kd, "kpca.projection", (len(train_points), q)),
            offset=_array(kd, "kpca.offset", (q,)),
        )
    cd = _field(d, "clusters")
    k = _count(cd, "clusters.k")
    centroids = _array(cd, "clusters.centroids", (k, q))
    # The weight is 1 / N_k, and float64 holds every integer up to 2**53.
    sizes = _array(cd, "clusters.sizes", (k,))
    if not np.all((sizes >= 1) & (sizes <= 2**53) & (sizes == np.round(sizes))):
        raise ValueError("model field clusters.sizes has a value that is not "
                         "a whole number in [1, 2**53]")
    entries = _field(d, "per_cluster")
    if type(entries) is not list or len(entries) != k:
        raise ValueError(f"model field per_cluster is not a list of {k} entries")
    directions, medians, mads = [], [], []
    for j, entry in enumerate(entries):
        u = _array(entry, f"per_cluster[{j}].directions", (None, q))
        directions.append(u)
        medians.append(_array(entry, f"per_cluster[{j}].medians", (len(u),)))
        mads.append(_array(entry, f"per_cluster[{j}].mads", (len(u),)))
    return LkploModel(variant, kpca, loss, centroids, sizes.astype(int),
                      directions, medians, mads, dim)


def save_model(model: LkploModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(model_to_dict(model)) + "\n")


def load_model(path) -> LkploModel:
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"model file {path} is not UTF-8 JSON: {exc}") from None
    return model_from_dict(d)
