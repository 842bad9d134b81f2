"""Reference versions of the optimized production paths.

Each function is the code the production path replaced (a per-cluster
or per-row loop, k-means' per-call row norms, the single-pass score),
kept verbatim so the tests can assert the optimized version returns
bit-identical results (np.array_equal, not allclose), or, for a score
batch spanning several blocks, results equal to rounding.
"""

import numpy as np

from lkplo.clustering import MAX_ITER, N_INIT, SHIFT_TOL, _kmeanspp_init
from lkplo.clustering import assign_nearest as batch_assign_nearest
from lkplo.kernel_feature import transform
from lkplo.plo import DIRECTION_NORM_FLOOR, DegenerateDirectionsError, _losses


def assign(F, centroids):
    """Labels and squared distances to the nearest centroid.

    np.argmin returns the first minimum, which implements the
    lowest-index tie-break.
    """
    d2 = (
        (F * F).sum(axis=1)[:, None]
        + (centroids * centroids).sum(axis=1)[None, :]
        - 2.0 * (F @ centroids.T)
    )
    np.clip(d2, 0.0, None, out=d2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(F)), labels]


def repair_empty(F, centers, labels, d2, k):
    for j in range(k):
        if np.any(labels == j):
            continue
        sizes = np.bincount(labels, minlength=k)
        donors = sizes[labels] >= 2
        candidates = np.flatnonzero(donors)
        far = int(candidates[np.argmax(d2[candidates])])
        centers[j] = F[far]
        labels[far] = j
        d2[far] = 0.0


def lloyd(F, centers, max_iter=MAX_ITER, tol=SHIFT_TOL):
    """One Lloyd run; returns (centroids, labels, inertia, inertia_history)."""
    k = centers.shape[0]
    history = []
    labels, d2 = assign(F, centers)
    for _ in range(max_iter):
        repair_empty(F, centers, labels, d2, k)
        history.append(float(d2.sum()))
        new_centers = np.empty_like(centers)
        for j in range(k):
            new_centers[j] = F[labels == j].mean(axis=0)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        labels, d2 = assign(F, centers)
        if shift < tol:
            break
    repair_empty(F, centers, labels, d2, k)
    for j in range(k):
        centers[j] = F[labels == j].mean(axis=0)
    inertia = float(((F - centers[labels]) ** 2).sum())
    history.append(inertia)
    return centers, labels, inertia, history


def kmeans_fit(F, k, seed, n_init=N_INIT):
    """(centroids, labels, inertia) of the best of n_init restarts."""
    best = None
    for restart in range(n_init):
        rng = np.random.default_rng(seed + restart)
        centers = _kmeanspp_init(F, k, rng)
        centers, labels, inertia, _ = lloyd(F, centers)
        if best is None or inertia < best[2]:
            best = (centers, labels, inertia)
    return best


def gen_directions(F_centered, config, seed):
    F_centered = np.asarray(F_centered, dtype=float)
    n_k, q = F_centered.shape
    rng = np.random.default_rng(seed)
    out = []

    def norm_rows(rows):
        kept = []
        for r in rows:
            nrm = np.linalg.norm(r)
            if nrm >= DIRECTION_NORM_FLOOR:
                kept.append(r / nrm)
        return kept

    if config.n_random > 0:
        kept = []
        budget = 10
        while len(kept) < config.n_random and budget > 0:
            cand = rng.standard_normal((config.n_random - len(kept), q))
            kept.extend(norm_rows(cand))
            budget -= 1
        out.extend(kept)

    if config.include_basis:
        out.extend(np.eye(q))

    n_one = config.n_one_point
    if n_one is None:
        n_one = min(50, n_k)
    if n_one > 0:
        replace = n_one > n_k
        idx = rng.choice(n_k, size=n_one, replace=replace)
        out.extend(norm_rows(F_centered[idx]))

    n_two = config.n_two_points
    if n_two is None:
        n_two = min(50, n_k * (n_k - 1) // 2)
    if n_two > 0 and n_k >= 2:
        kept = []
        budget = 10
        while len(kept) < n_two and budget > 0:
            need = n_two - len(kept)
            i = rng.integers(n_k, size=need)
            j = rng.integers(n_k, size=need)
            ok = i != j
            kept.extend(norm_rows(F_centered[i[ok]] - F_centered[j[ok]]))
            budget -= 1
        out.extend(kept[:n_two])

    if not out:
        raise DegenerateDirectionsError("no usable projection directions")
    return np.asarray(out)


def assign_nearest(centroids, f):
    """Index of the nearest centroid to the single vector f."""
    d2 = ((centroids - f) ** 2).sum(axis=1)
    return int(np.argmin(d2))


def score(model, Xnew):
    """The single-pass score: one transform, one assignment and one
    projection per cluster over the whole batch."""
    Xnew = np.asarray(Xnew, dtype=float)
    if model.variant == "plo":
        F = Xnew
    else:
        F = transform(model.kpca, Xnew)

    m = F.shape[0]
    out = np.empty(m)
    assign = batch_assign_nearest(model.clusters, F)
    for j, entry in enumerate(model.per_cluster):
        rows = assign == j
        if not np.any(rows):
            continue
        proj = (F[rows] - entry.centroid) @ entry.directions.T
        out[rows] = _losses(proj, entry, model.loss).max(axis=1) / entry.size
    return out
