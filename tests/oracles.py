"""Reference versions of the optimized production paths.

Each function is the code the production path replaced (a per-cluster
or per-row loop, fit's per-cluster stage with np.median, k-means'
per-call row norms, rng.choice in k-means++, the fancy-indexed Gram
mirror, the single-pass score), kept verbatim so
the tests can assert the optimized version returns bit-identical results
(np.array_equal, not allclose), or, for a score batch spanning several
blocks, results equal to rounding. The full-spectrum fit_kpca and
centered_transform (which centers each kernel row before projecting it)
are references to rounding, the scipy-ranked roc_auc an exact one.
The elementwise losses, whose row maxima the score's one-pass row
maximum must equal bit for bit, and the scalar kernel and per-direction
losses at the end are the textbook definitions the vectorized kernel and
score are checked against; none of them calls the code it checks.
"""

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from lkplo.clustering import MAX_ITER, N_INIT, SHIFT_TOL
from lkplo.kernel_feature import (
    ABS_EIG_FLOOR,
    REL_EIG_FLOOR,
    DegenerateKernelError,
    KpcaModel,
    _cross_kernel,
    center_gram,
    transform,
)
from lkplo.plo import (
    DIRECTION_NORM_FLOOR,
    MAD_CONSISTENCY,
    MAD_FLOOR,
    DegenerateDirectionsError,
    _derive_seed,
)


def roc_auc(scores, y):
    """AUC from scipy's average ranks (Mann-Whitney U)."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y)
    n1 = int(np.sum(y == 1))
    n0 = int(np.sum(y == 0))
    ranks = rankdata(scores)
    u = ranks[y == 1].sum() - n1 * (n1 + 1) / 2
    return float(u / (n0 * n1))


def cross_kernel(X, Y, params):
    """RBF kernel evaluations between the rows of X (M, d) and Y (N, d)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    sq = (
        (X * X).sum(axis=1)[:, None]
        + (Y * Y).sum(axis=1)[None, :]
        - 2.0 * (X @ Y.T)
    )
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-params.gamma * sq)


def gram_matrix(X, params):
    """N x N RBF Gram matrix, symmetric by construction (upper triangle
    mirrored), unit diagonal."""
    X = np.asarray(X, dtype=float)
    K = cross_kernel(X, X, params)
    i, j = np.tril_indices(K.shape[0], k=-1)
    K[i, j] = K[j, i]
    np.fill_diagonal(K, 1.0)
    return K


@dataclass
class KpcaFit:
    """The oracle fit: its eigenvectors V and centering terms r and t,
    which centered_transform uses, and the production model built from
    them."""

    model: KpcaModel
    eigenvectors: np.ndarray
    row_means: np.ndarray
    total_mean: float


def fit_kpca(X, params, q_requested):
    """fit_kpca solving the full spectrum with np.linalg.eigh."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 training points")
    if q_requested < 1:
        raise ValueError("q_requested must be >= 1")

    Kbar = gram_matrix(X, params)
    row_means, total_mean = center_gram(Kbar)

    eigvals, eigvecs = np.linalg.eigh(Kbar)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    floor = max(ABS_EIG_FLOOR, REL_EIG_FLOOR * max(eigvals[0], 0.0))
    rank = int(np.sum(eigvals > floor))
    if rank == 0:
        raise DegenerateKernelError(
            "centered Gram matrix is numerically rank zero"
        )
    q = min(q_requested, rank)
    eigvals = eigvals[:q].copy()
    eigvecs = eigvecs[:, :q].copy()

    # Deterministic sign: largest-magnitude entry of each column positive.
    for j in range(q):
        col = eigvecs[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            eigvecs[:, j] = -col

    A = eigvecs / np.sqrt(eigvals)
    model = KpcaModel(
        train_points=X.copy(),
        params=params,
        q=q,
        eigenvalues=eigvals,
        projection=A - A.mean(axis=0),
        offset=(row_means - total_mean) @ A,
    )
    return KpcaFit(model, eigvecs, row_means, total_mean)


def centered_transform(fit: KpcaFit, Xnew) -> np.ndarray:
    """Project new points into the fitted q-dimensional feature space.

    Out-of-sample centering reuses the training row means / total mean:
    kbar(x, x_i) = k(x, x_i) - mean_i'(k(x, x_i')) - row_means[i] + total_mean.
    """
    model = fit.model
    Xnew = np.asarray(Xnew, dtype=float)
    if Xnew.ndim != 2 or Xnew.shape[1] != model.train_points.shape[1]:
        raise ValueError(
            f"expected (M, {model.train_points.shape[1]}) input, got {Xnew.shape}"
        )
    Kx = _cross_kernel(Xnew, model.train_points, model.params)
    Kx_bar = (
        Kx
        - Kx.mean(axis=1)[:, None]
        - fit.row_means[None, :]
        + fit.total_mean
    )
    return (Kx_bar @ fit.eigenvectors) / np.sqrt(model.eigenvalues)


def kmeanspp_init(F, k, rng):
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
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        else:
            # All remaining distances zero (duplicate points): pick any
            # index not chosen yet so k == n stays feasible.
            idx = int(rng.choice(np.flatnonzero(~chosen)))
        centers[j] = F[idx]
        chosen[idx] = True
        d2 = np.minimum(d2, ((F - centers[j]) ** 2).sum(axis=1))
    return centers


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


def kmeans_fit(F, k, seed, n_init=N_INIT, max_iter=MAX_ITER):
    """(centroids, labels, inertia) of the best of n_init restarts."""
    best = None
    for restart in range(n_init):
        rng = np.random.default_rng(seed + restart)
        centers = kmeanspp_init(F, k, rng)
        centers, labels, inertia, _ = lloyd(F, centers, max_iter)
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


def fit_cluster_stats(F, centroids, membership, config):
    """plo.fit's per-cluster stage on features F clustered into centroids
    and membership: (directions, medians, MADs), each a list with one
    array per cluster, from np.median over the projections."""
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
    return directions, medians, mads


def _losses(proj, medians, mads, loss):
    """Elementwise losses for projections proj of shape (..., D) along
    directions whose training projections have these medians and MADs."""
    if loss.kind == "robust_z":
        return np.abs(proj - medians) / np.maximum(mads, MAD_FLOOR)
    return np.maximum(0.0, np.abs(proj) - loss.c * mads)


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
    labels = assign(F, model.centroids)[0]
    for j, u in enumerate(model.directions):
        rows = labels == j
        if not np.any(rows):
            continue
        proj = (F[rows] - model.centroids[j]) @ u.T
        losses = _losses(proj, model.medians[j], model.mads[j], model.loss)
        out[rows] = losses.max(axis=1) / model.sizes[j]
    return out


def rbf_kernel(x, y, params):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    d = x - y
    return float(np.exp(-params.gamma * np.dot(d, d)))


@dataclass(frozen=True)
class ProjectionStats:
    direction: np.ndarray  # unit q-vector
    median_proj: float
    mad_proj: float


def stats(model, j, i):
    """Direction i of cluster j with its projection statistics."""
    return ProjectionStats(
        direction=model.directions[j][i],
        median_proj=float(model.medians[j][i]),
        mad_proj=float(model.mads[j][i]),
    )


def robust_z_loss(u, f_prime, stats):
    """|u.f' - median| / MAD with the MAD floored (Stahel-Donoho form)."""
    p = float(np.dot(u, f_prime))
    return abs(p - stats.median_proj) / max(stats.mad_proj, MAD_FLOOR)


def svm_like_loss(u, f_prime, stats, c):
    """max(0, |u.f'| - c * MAD): exceedance of a robust margin.

    The projection is of the centroid-centered point, not median-shifted.
    """
    p = float(np.dot(u, f_prime))
    return max(0.0, abs(p) - c * stats.mad_proj)


def local_score(model, j, f):
    """Maximum loss of f over cluster j's directions, one scalar loss per
    direction, with f centered at the cluster centroid (no 1/N_j weight)."""
    f_prime = np.asarray(f, dtype=float) - model.centroids[j]
    per_dir = []
    for i in range(len(model.directions[j])):
        st = stats(model, j, i)
        if model.loss.kind == "robust_z":
            per_dir.append(robust_z_loss(st.direction, f_prime, st))
        else:
            per_dir.append(svm_like_loss(st.direction, f_prime, st, model.loss.c))
    return max(per_dir)

