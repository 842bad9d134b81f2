"""Stage 2a: k-means over the kernel feature representation.

Lloyd iterations with k-means++ seeding, 10 restarts keeping the
lowest-inertia run, and empty-cluster repair so every surviving
cluster has at least one member (the 1/N_k score weighting requires
N_k >= 1).
"""

from dataclasses import dataclass

import numpy as np

N_INIT = 10
MAX_ITER = 300
SHIFT_TOL = 1e-6


class InvalidKError(ValueError):
    """Raised when k exceeds the number of points."""


@dataclass
class ClusterModel:
    centroids: np.ndarray   # (k, q)
    sizes: np.ndarray       # (k,), all >= 1
    membership: np.ndarray  # (N,) cluster indices
    inertia: float


def _assign(F, f_sq, centroids):
    """Labels and squared distances to the nearest centroid; f_sq is
    (F * F).sum(axis=1), fixed for a whole Lloyd run.

    np.argmin returns the first minimum, which implements the
    lowest-index tie-break.
    """
    d2 = (
        f_sq[:, None]
        + (centroids * centroids).sum(axis=1)[None, :]
        - 2.0 * (F @ centroids.T)
    )
    np.clip(d2, 0.0, None, out=d2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(F)), labels]


def _kmeanspp_init(F, k, rng):
    n = F.shape[0]
    centers = np.empty((k, F.shape[1]))
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centers[0] = F[first]
    chosen[first] = True
    d2 = ((F - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            # What rng.choice(n, p=d2 / total) does, without re-validating
            # and Kahan-summing p for every centre: same index, same RNG state.
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            # All remaining distances zero (duplicate points): pick any
            # index not chosen yet so k == n stays feasible.
            idx = int(rng.choice(np.flatnonzero(~chosen)))
        centers[j] = F[idx]
        chosen[idx] = True
        d2 = np.minimum(d2, ((F - centers[j]) ** 2).sum(axis=1))
    return centers


def _repair_empty(F, centers, labels, d2, k):
    """Empty-cluster repair: the farthest point from its centroid (among
    clusters that can spare one) becomes a singleton centroid.

    Donors keep at least one member, so a repair never empties another
    cluster and the empty ones can be found up front, in ascending order.
    """
    sizes = np.bincount(labels, minlength=k)
    for j in np.flatnonzero(sizes == 0):
        candidates = np.flatnonzero(sizes[labels] >= 2)
        far = int(candidates[np.argmax(d2[candidates])])
        centers[j] = F[far]
        sizes[labels[far]] -= 1
        sizes[j] = 1
        labels[far] = j
        d2[far] = 0.0


def _cluster_means(F, labels, k):
    """Per-cluster means of the rows of F; every cluster must be non-empty.

    np.bincount adds each (cluster, column) bin's values in row order,
    the order F[labels == j].mean(axis=0) uses for two or more columns,
    so the means are bit-identical to it there. (numpy sums a single
    column pairwise.)
    """
    q = F.shape[1]
    bins = (labels * q)[:, None] + np.arange(q)  # bin of F[i, c]: labels[i] * q + c
    sums = np.bincount(bins.ravel(), weights=F.ravel(), minlength=k * q)
    return sums.reshape(k, q) / np.bincount(labels, minlength=k)[:, None]


def _lloyd(F, centers):
    """One Lloyd run; returns (centroids, labels, inertia, inertia_history)."""
    k = centers.shape[0]
    f_sq = (F * F).sum(axis=1)
    history = []
    labels, d2 = _assign(F, f_sq, centers)
    for _ in range(MAX_ITER):
        _repair_empty(F, centers, labels, d2, k)
        history.append(float(d2.sum()))
        new_centers = _cluster_means(F, labels, k)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        labels, d2 = _assign(F, f_sq, centers)
        if shift < SHIFT_TOL:
            break
    _repair_empty(F, centers, labels, d2, k)
    # Final means so each centroid is exactly its members' mean; labels are
    # kept as-is so the repair cannot be undone by tie reassignment.
    centers = _cluster_means(F, labels, k)
    inertia = float(((F - centers[labels]) ** 2).sum())
    history.append(inertia)
    return centers, labels, inertia, history


def kmeans_fit(F, k: int, seed: int, n_init: int = N_INIT) -> ClusterModel:
    """Best of n_init k-means++ restarts; deterministic given (F, k, seed)."""
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise ValueError("F must be 2-D")
    n = F.shape[0]
    if not 1 <= k <= n:
        raise InvalidKError(f"k={k} outside [1, {n}]")

    best = None
    for restart in range(n_init):
        rng = np.random.default_rng(seed + restart)
        centers = _kmeanspp_init(F, k, rng)
        centers, labels, inertia, _ = _lloyd(F, centers)
        if best is None or inertia < best[2]:
            best = (centers, labels, inertia)

    centers, labels, inertia = best
    sizes = np.bincount(labels, minlength=k)
    return ClusterModel(
        centroids=centers,
        sizes=sizes,
        membership=labels,
        inertia=inertia,
    )


def assign_nearest(centroids, F):
    """Index of the nearest of the (k, q) centroids for each row of the
    (M, q) batch F; ties break to the lowest index.

    Each squared distance is summed over the contiguous feature axis, so
    a row gets exactly the index a scan over the centroids gives it.
    """
    F = np.asarray(F, dtype=float)
    q = centroids.shape[1]
    if F.ndim != 2 or F.shape[1] != q:
        raise ValueError(f"expected (M, {q}) batch, got {F.shape}")
    diff = F[:, None, :] - centroids
    d2 = np.square(diff, out=diff).sum(axis=-1)
    return np.argmin(d2, axis=-1)
