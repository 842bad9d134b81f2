"""Stage 2a: k-means over the kernel feature representation.

Lloyd iterations with k-means++ seeding, 10 restarts keeping the
lowest-inertia run, and empty-cluster repair so every surviving
cluster has at least one member (the 1/N_k score weighting requires
N_k >= 1).

Restarts run in groups, the slabs of kernel_feature.run_blocks over
N_INIT rows of width N * max(q, k), on arrays with a leading restart
axis, so one numpy call serves every restart of a group. Each restart
computes what it would alone: the same RNG draws, the same products,
and the same sums in the same order, except for the seeding distances
noted in _seed_group. A group reads only its own restarts' generators
and writes only their rows of the results, so the answer does not
depend on the thread count.

Lloyd's iterations and score's assign_nearest label rows by one rule,
_assign; at a near-tie, BLAS rounding can make a label depend on the
batch's row count.
"""

import numpy as np

from .kernel_feature import _check_finite, run_blocks

N_INIT = 10
MAX_ITER = 300
SHIFT_TOL = 1e-6


class InvalidKError(ValueError):
    """Raised when k exceeds the number of points."""


def _assign(F, norms, centers):
    """Labels (R, N) and squared distances (R, N) to the nearest of each
    restart's centres (R, k, q); norms is [f, 1] with f = (F * F).sum(axis=1),
    fixed for a whole Lloyd run.

    f_i + c_j comes from the rank-2 product [f, 1] @ [1; c^2]: two exact
    products summed with one rounding, the same double as the broadcast
    sum. np.argmin returns the first minimum, which implements the
    lowest-index tie-break.
    """
    right = np.ones((len(centers), 2, centers.shape[1]))
    right[:, 1] = (centers * centers).sum(axis=2)
    d2 = F @ centers.transpose(0, 2, 1)
    d2 *= -2.0
    d2 += norms @ right
    np.maximum(d2, 0.0, out=d2)
    labels = np.argmin(d2, axis=2)
    nearest = np.arange(0, d2.size, d2.shape[2]) + labels.ravel()
    return labels, d2.ravel()[nearest].reshape(labels.shape)


def _sq_dists(FT, points):
    """(R, N) squared distances from each of the (R, q) points to the
    rows of F, given FT = F.T as a C-contiguous (q, N) array."""
    diff = FT - points[:, :, None]
    return np.square(diff, out=diff).sum(axis=1)


def _seed_group(F, FT, k, rngs):
    """k-means++ centres (R, k, q), restart r drawing from rngs[r] in the
    one-restart order: the first index, then per centre one uniform.

    The pick is what rng.choice(n, p=d2 / total) does, without
    re-validating and Kahan-summing p for every centre: (cdf <= u)
    counted per row equals searchsorted(cdf, u, side="right") on the
    non-decreasing cdf. The one departure from a row-at-a-time sum: a
    distance adds its q squared differences in feature order, where
    numpy's row sum is pairwise for q >= 8, so it can differ by about
    5e-16 relative, and a pick only if u lands that close to a cdf step.
    """
    n = F.shape[0]
    idx = np.empty((len(rngs), k), dtype=np.intp)
    idx[:, 0] = [rng.integers(n) for rng in rngs]
    active = np.arange(len(rngs))
    d2 = _sq_dists(FT, F[idx[:, 0]])
    for j in range(1, k):
        total = d2.sum(axis=1)
        zero = total == 0
        if zero.any():
            # All remaining distances zero (duplicate points), and they
            # only shrink: pick any index not chosen yet for each centre
            # left, so k == n stays feasible.
            for r in active[zero]:
                for jj in range(j, k):
                    idx[r, jj] = rngs[r].choice(np.setdiff1d(np.arange(n), idx[r, :jj]))
            active, d2, total = active[~zero], d2[~zero], total[~zero]
            if not len(active):
                break
        cdf = np.cumsum(d2 / total[:, None], axis=1)
        cdf /= cdf[:, -1:]
        u = np.array([rngs[r].random() for r in active])
        pick = (cdf <= u[:, None]).sum(axis=1)
        idx[active, j] = pick
        np.minimum(d2, _sq_dists(FT, F[pick]), out=d2)
    return F[idx]


def _repair_empty(F, centers, labels, d2, sizes):
    """Empty-cluster repair: the farthest point from its centroid (among
    clusters that can spare one) becomes a singleton centroid. sizes is
    the member count of each cluster, updated with the labels.

    Donors keep at least one member, so a repair never empties another
    cluster and the empty ones can be found up front, in ascending order.
    """
    for j in np.flatnonzero(sizes == 0):
        candidates = np.flatnonzero(sizes[labels] >= 2)
        far = int(candidates[np.argmax(d2[candidates])])
        centers[j] = F[far]
        sizes[labels[far]] -= 1
        sizes[j] = 1
        labels[far] = j
        d2[far] = 0.0


def _repaired_means(F, weights, centers, labels, d2):
    """Repair each restart's empty clusters in place, then return the
    per-restart cluster means (R, k, q).

    The sums are one np.bincount over (R, q, N) restart-offset bins,
    (r * k + labels[r, i]) * q + c for weights[r, c, i] = F[i, c], with
    weights F.T tiled once per restart. It adds each bin's values in row
    order, the order F[labels == j].mean(axis=0) uses for two or more
    columns, so the means are bit-identical to it there. (numpy sums a
    single column pairwise.)
    """
    R, k, q = centers.shape
    bins = labels + (np.arange(R) * k)[:, None]
    sizes = np.bincount(bins.ravel(), minlength=R * k).reshape(R, k)
    for r in np.flatnonzero((sizes == 0).any(axis=1)):
        _repair_empty(F, centers[r], labels[r], d2[r], sizes[r])
        bins[r] = labels[r] + r * k
    bins *= q
    sums = np.bincount((bins[:, None, :] + np.arange(q)[:, None]).ravel(),
                       weights=weights[:bins.size * q], minlength=R * k * q)
    return sums.reshape(R, k, q) / sizes[:, :, None]


def _lloyd_group(F, centers):
    """One Lloyd run from each restart's centres (R, k, q); returns
    (centroids (R, k, q), labels (R, N), inertias (R,)).

    A restart stops when its largest centroid shift falls below
    SHIFT_TOL, or after MAX_ITER updates; it is then written out and
    dropped from the arrays the others go on with.
    """
    R, k, q = centers.shape
    n = F.shape[0]
    norms = np.ones((n, 2))
    norms[:, 0] = (F * F).sum(axis=1)
    weights = np.tile(F.T.ravel(), R)
    out_centers = np.empty_like(centers)
    out_labels = np.empty((R, n), dtype=np.intp)
    inertia = np.empty(R)

    active = np.arange(R)
    labels, d2 = _assign(F, norms, centers)
    done = np.zeros(R, dtype=bool)
    for step in range(MAX_ITER + 1):
        means = _repaired_means(F, weights, centers, labels, d2)
        if step == MAX_ITER:
            done[:] = True
        if done.any():
            # Final means so each centroid is exactly its members' mean;
            # labels are kept as-is so the repair cannot be undone by tie
            # reassignment.
            final = np.flatnonzero(done)
            err = F - np.take_along_axis(means[final], labels[final, :, None], axis=1)
            sse = np.square(err, out=err).reshape(len(final), -1).sum(axis=1)
            r = active[final]
            out_centers[r], out_labels[r], inertia[r] = means[final], labels[final], sse
            keep = ~done
            if not keep.any():
                break
            active, centers, means = active[keep], centers[keep], means[keep]
            labels, d2 = labels[keep], d2[keep]
        shift = np.sqrt(((means - centers) ** 2).sum(axis=2)).max(axis=1)
        centers = means
        labels, d2 = _assign(F, norms, centers)
        done = shift < SHIFT_TOL
    return out_centers, out_labels, inertia


def kmeans_fit(F, k: int, seed: int):
    """(centroids (k, q), labels (N,)) of the lowest-inertia of N_INIT
    k-means++ restarts, restart r seeded with seed + r; the first such
    restart on ties. Every cluster is non-empty. Deterministic given
    (F, k, seed)."""
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise ValueError("F must be 2-D")
    n, q = F.shape
    if not 1 <= k <= n:
        raise InvalidKError(f"k={k} outside [1, {n}]")
    _check_finite(F, "F")

    FT = np.ascontiguousarray(F.T)
    rngs = [np.random.default_rng(seed + r) for r in range(N_INIT)]
    centers = np.empty((N_INIT, k, q))
    labels = np.empty((N_INIT, n), dtype=np.intp)
    inertia = np.empty(N_INIT)

    def run(s):
        centers[s], labels[s], inertia[s] = _lloyd_group(F, _seed_group(F, FT, k, rngs[s]))

    run_blocks(N_INIT, n * max(q, k), run)
    best = np.argmin(inertia)  # the first of equal inertias
    return centers[best], labels[best]


def assign_nearest(centroids, F):
    """Index of the nearest of the (k, q) centroids for each row of the
    (M, q) batch F, by Lloyd's rule (_assign); ties break to the lowest
    index."""
    F = np.asarray(F, dtype=float)
    q = centroids.shape[1]
    if F.ndim != 2 or F.shape[1] != q:
        raise ValueError(f"expected (M, {q}) batch, got {F.shape}")
    norms = np.ones((len(F), 2))
    norms[:, 0] = (F * F).sum(axis=1)
    return _assign(F, norms, centroids[None])[0][0]
