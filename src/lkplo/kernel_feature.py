"""Stage 1: RBF kernel PCA with out-of-sample transform.

Builds the Gram matrix, double-centers it, solves the symmetric
eigenproblem for its top-q eigenpairs (Lanczos above ARPACK_MIN_N
points, a dense solve below) and keeps those above a numerical rank
floor. Training features use the sqrt(lambda)-scaled eigenvector
convention, f_i = sqrt(lambda) v_i. A new point x is centered with the
training row means r and mean t and projected onto V / sqrt(lambda),
which gives the same features on the training set. With A = V / sqrt(lambda)
that projection is k(x) A - mean(k(x)) (1^T A) - (r - t 1)^T A, and
mean(k(x)) = k(x) 1 / N folds the middle term into A itself:

    f(x) = k(x) A_c - (r - t 1)^T A,    A_c = A - 1 (1^T A) / N,

so a batch of new points costs one product and one fixed offset, with
no centered copy of its kernel rows and no pass for their means.
"""

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Eigenpairs with lambda <= max(ABS_EIG_FLOOR, REL_EIG_FLOOR * lambda_max)
# are discarded: dividing by sqrt(lambda) in transform() would blow up.
ABS_EIG_FLOOR = 1e-10
REL_EIG_FLOOR = 1e-12
BLOCK_BYTES = 1 << 20  # per block of a batched temporary, about L2-sized
# Above this many training points the top eigenpairs come from ARPACK's
# Lanczos solver, at or below it from the dense dsyevr solve; a timed
# sweep put the crossover here (README.md gives it). Lanczos also needs
# fewer than N/10 wanted pairs: it re-orthogonalizes a basis of about
# twice as many vectors on every restart, which costs more than the
# dense solve once the pairs are about a tenth of N.
ARPACK_MIN_N = 200


class DegenerateKernelError(ValueError):
    """Raised when the centered Gram matrix has no usable eigenpairs."""


@dataclass(frozen=True)
class KernelParams:
    """RBF width parameter gamma, k(x, y) = exp(-gamma * ||x - y||^2)."""

    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")


@dataclass
class KpcaModel:
    train_points: np.ndarray      # (N, d), retained for out-of-sample kernels
    params: KernelParams
    q: int                        # retained component count (<= rank)
    eigenvalues: np.ndarray       # (q,), strictly positive, non-increasing
    eigenvectors: np.ndarray      # (N, q), orthonormal columns
    gram_row_means: np.ndarray    # (N,)
    gram_total_mean: float

    def train_features(self) -> np.ndarray:
        """Training rows in feature space: f_i^(j) = sqrt(lambda_j) v_ij."""
        return self.eigenvectors * np.sqrt(self.eigenvalues)

    @cached_property
    def projection(self):
        """(A_c, (r - t 1)^T A) with A = V / sqrt(lambda) and
        A_c = A - 1 (1^T A) / N: what transform multiplies and subtracts.
        Derived from the stored fields on first use, so it is never
        written to the model file."""
        A = self.eigenvectors / np.sqrt(self.eigenvalues)
        offset = (self.gram_row_means - self.gram_total_mean) @ A
        return A - A.sum(axis=0) / len(A), offset


def per_block(width: int) -> int:
    """Rows of width doubles that fit in BLOCK_BYTES, at least one."""
    return max(1, BLOCK_BYTES // (8 * max(width, 1)))


def usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity mask, or 1
    where the OS has no affinity call."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _check_finite(X, what):
    """Raise a ValueError naming the first row of X with a NaN or inf."""
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"{what} row {int(np.argmax(bad))} is not finite")


def _cross_kernel(X, Y, params: KernelParams) -> np.ndarray:
    """RBF kernel evaluations between the rows of X (M, d) and Y (N, d);
    symmetric wherever X @ Y.T is.

    The squared norms x_i^2 + y_j^2 come from the rank-2 product
    [x^2, 1] @ [1; y^2], whose entries x_i^2 * 1 + 1 * y_j^2 are exact
    products summed with one rounding: the same doubles as the broadcast
    sum, with or without FMA, from one BLAS call per chunk. A chunk is
    an eighth of a score block, per_block(8 * len(Y)) rows, so that the
    product's temporary adds little to each scoring thread's block; the
    add is elementwise, so the chunking changes no value.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    left = np.ones((len(X), 2))
    left[:, 0] = (X * X).sum(axis=1)
    right = np.ones((2, len(Y)))
    right[1] = (Y * Y).sum(axis=1)
    K = X @ Y.T
    K *= -2.0
    rows = per_block(8 * len(Y))
    for s in range(0, len(K), rows):
        K[s:s + rows] += left[s:s + rows] @ right
    np.clip(K, 0.0, None, out=K)
    K *= -params.gamma
    return np.exp(K, out=K)


def gram_matrix(X, params: KernelParams) -> np.ndarray:
    """N x N RBF Gram matrix with unit diagonal. It is exactly symmetric
    because numpy computes X @ X.T for a C-contiguous X as a symmetric
    rank-k update (a strided X may take a general, asymmetric product)."""
    X = np.ascontiguousarray(X, dtype=float)
    K = _cross_kernel(X, X, params)
    np.fill_diagonal(K, 1.0)
    return K


def center_gram(K):
    """Double-center the symmetric K in place, K_ij - (r_i + r_j) + t,
    which keeps it exactly symmetric. Returns the row means r and the
    mean t, which center out-of-sample kernel rows consistently."""
    row_means = K.mean(axis=1)
    total_mean = float(K.mean())
    rows = per_block(len(K))
    for s in range(0, len(K), rows):
        chunk = K[s:s + rows]
        chunk -= row_means[s:s + rows, None] + row_means
        chunk += total_mean
    return row_means, total_mean


def fit_kpca(X, params: KernelParams, q_requested: int) -> KpcaModel:
    """Fit the RBF kernel feature map on the rows of X; see kpca_from_gram."""
    X = np.asarray(X, dtype=float)
    _check_finite(X, "training")
    return kpca_from_gram(gram_matrix(X, params), X, params, q_requested)


def _lanczos(K, top):
    """The top eigenpairs of the symmetric K from ARPACK's Lanczos solver,
    or None when it fails (no convergence, or K == 0, which zeroes the
    start vector).

    Lanczos needs only products K @ v, and dsymv computes them from one
    triangle of K (K.T is its column-major view, so nothing is copied).
    The start vector and restart vectors come from a fixed seed, so a fit
    is deterministic; the start is not the ones vector, which the
    centered K maps to zero. Nothing here outlives the call, so the
    caller can free K as soon as it returns.
    """
    from scipy.linalg.blas import dsymv
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    n = len(K)
    K_f = K.T
    op = LinearOperator((n, n), matvec=lambda v: dsymv(1.0, K_f, v), dtype=float)
    rng = np.random.default_rng(0)
    try:
        return eigsh(op, k=top, which="LA", tol=0,
                     v0=rng.uniform(-1.0, 1.0, n), rng=rng)
    except ArpackError:
        return None


def kpca_from_gram(K, X, params: KernelParams, q_requested: int) -> KpcaModel:
    """The kernel feature map of the training rows X from their Gram
    matrix K, keeping min(q_requested, rank) components.

    q_requested beyond the usable rank silently clamps so hyperparameter
    search never aborts on small inputs. Raises DegenerateKernelError when
    every eigenvalue sits below the floor (e.g. all points identical).
    The training features come from K alone, so any symmetric K (such as
    the linear X @ X.T) gives that kernel's; transform always evaluates
    the RBF kernel of params.

    K is centered in place. Its top min(q_requested, N) eigenpairs come
    from ARPACK's implicitly restarted Lanczos solver (scipy's eigsh) when
    N > ARPACK_MIN_N and fewer than N/10 are wanted, and otherwise, or when
    ARPACK fails, from LAPACK's dsyevr. dsyevr can return fewer pairs than
    asked when a cluster of equal eigenvalues straddles the subset's edge
    (far-apart points, whose centered K is I - 1 1^T / N); the full
    spectrum is then solved instead.
    """
    n = K.shape[0]
    if n < 2:
        raise ValueError("need at least 2 training points")
    if q_requested < 1:
        raise ValueError("q_requested must be >= 1")
    row_means, total_mean = center_gram(K)

    top = min(q_requested, n)
    solved = None
    if n > ARPACK_MIN_N and 10 * top < n:
        solved = _lanczos(K, top)
    if solved is None:
        # Imported here so that loading and scoring a model never loads scipy.
        from scipy.linalg import eigh

        # dsyevr computes eigenvectors only for the top subset, in K
        # itself: K is exactly symmetric, so K.T is the same matrix in the
        # column-major order LAPACK works in. It destroys only the
        # triangle it reads, diagonal included (K's upper one), so a
        # short subset is solved again over the full spectrum from the
        # intact lower triangle and the saved diagonal.
        diagonal = K.diagonal().copy()
        solved = eigh(K.T, subset_by_index=[n - top, n - 1], driver="evr",
                      overwrite_a=True)
        if len(solved[0]) < top:
            for i in range(n - 1):
                K[i, i + 1:] = K[i + 1:, i]
            np.fill_diagonal(K, diagonal)
            solved = eigh(K.T, driver="evr", overwrite_a=True)
    eigvals, eigvecs = solved
    # Freed before the model's arrays are allocated, so that none of them
    # sits above it in the heap and keeps its memory from the OS.
    del K
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    # Both solvers return the top subset, which holds the largest
    # eigenvalue that the rank floor is relative to.
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

    return KpcaModel(
        train_points=X.copy(),
        params=params,
        q=q,
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        gram_row_means=row_means,
        gram_total_mean=total_mean,
    )


def transform(model: KpcaModel, Xnew) -> np.ndarray:
    """Project new points into the fitted q-dimensional feature space.

    Out-of-sample centering reuses the training row means r and mean t,
    kbar(x, x_i) = k(x, x_i) - mean_i'(k(x, x_i')) - r_i + t, and the
    centered row is projected onto A = V / sqrt(lambda). Both steps are
    folded into k(x) A_c - (r - t 1)^T A with A_c = A - 1 (1^T A) / N,
    since mean(k(x)) (1^T A) = k(x) 1 (1^T A) / N; model.projection
    derives A_c and the offset once. The 1^T A term stays, inside A_c:
    the columns of V are orthogonal to the ones vector only to rounding,
    and for a component near the rank floor 1/sqrt(lambda) makes 1^T A
    far from zero.
    """
    Xnew = np.asarray(Xnew, dtype=float)
    if Xnew.ndim != 2 or Xnew.shape[1] != model.train_points.shape[1]:
        raise ValueError(
            f"expected (M, {model.train_points.shape[1]}) input, got {Xnew.shape}"
        )
    _check_finite(Xnew, "input")
    A_c, offset = model.projection
    F = _cross_kernel(Xnew, model.train_points, model.params) @ A_c
    F -= offset
    return F
