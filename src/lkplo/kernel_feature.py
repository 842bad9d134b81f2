"""Stage 1: RBF kernel PCA with out-of-sample transform.

Builds the Gram matrix, double-centers it, solves the symmetric
eigenproblem for its top-q eigenpairs and keeps those above a numerical
rank floor. Training features use the sqrt(lambda)-scaled eigenvector
convention; new points are projected with the matching 1/sqrt(lambda)
formula so that both agree exactly on the training set.
"""

from dataclasses import dataclass, field

import numpy as np

# Eigenpairs with lambda <= max(ABS_EIG_FLOOR, REL_EIG_FLOOR * lambda_max)
# are discarded: dividing by sqrt(lambda) in transform() would blow up.
ABS_EIG_FLOOR = 1e-10
REL_EIG_FLOOR = 1e-12


class DegenerateKernelError(ValueError):
    """Raised when the centered Gram matrix has no usable eigenpairs."""


@dataclass(frozen=True)
class KernelParams:
    """RBF width parameter gamma, k(x, y) = exp(-gamma * ||x - y||^2)."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass
class KpcaModel:
    train_points: np.ndarray      # (N, d), retained for out-of-sample kernels
    params: KernelParams
    q: int                        # retained component count (<= rank)
    eigenvalues: np.ndarray       # (q,), strictly positive, non-increasing
    eigenvectors: np.ndarray      # (N, q), orthonormal columns
    gram_row_means: np.ndarray    # (N,)
    gram_total_mean: float
    kernel: str = field(default="rbf")  # "linear" exists only as a test hook

    def train_features(self) -> np.ndarray:
        """Training rows in feature space: f_i^(j) = sqrt(lambda_j) v_ij."""
        return self.eigenvectors * np.sqrt(self.eigenvalues)


def rbf_kernel(x, y, params: KernelParams) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    d = x - y
    return float(np.exp(-params.gamma * np.dot(d, d)))


def _cross_kernel(X, Y, params: KernelParams, kernel: str) -> np.ndarray:
    """Kernel evaluations between the rows of X (M, d) and Y (N, d)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if kernel == "linear":
        return X @ Y.T
    sq = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :]
    cross = X @ Y.T
    cross *= 2.0
    sq -= cross
    np.clip(sq, 0.0, None, out=sq)
    sq *= -params.gamma
    return np.exp(sq, out=sq)


def gram_matrix(X, params: KernelParams) -> np.ndarray:
    """N x N RBF Gram matrix, symmetric by construction (upper triangle
    mirrored), unit diagonal."""
    X = np.asarray(X, dtype=float)
    K = _cross_kernel(X, X, params, "rbf")
    np.copyto(K, K.T.copy(), where=np.tri(K.shape[0], k=-1, dtype=bool))
    np.fill_diagonal(K, 1.0)
    return K


def center_gram(K):
    """Double centering: Kbar = K - 1K - K1 + 1K1 with 1 = ones/N.

    Returns (Kbar, row_means, total_mean); the means are needed to
    center out-of-sample kernel rows consistently.
    """
    K = np.asarray(K, dtype=float)
    row_means = K.mean(axis=1)
    total_mean = float(K.mean())
    Kbar = K - row_means[:, None] - row_means[None, :] + total_mean
    Kbar = 0.5 * (Kbar + Kbar.T)
    return Kbar, row_means, total_mean


def fit_kpca(X, params: KernelParams, q_requested: int, kernel: str = "rbf") -> KpcaModel:
    """Fit the kernel feature map, keeping min(q_requested, rank) components.

    q_requested beyond the usable rank silently clamps so hyperparameter
    search never aborts on small inputs. Raises DegenerateKernelError when
    every eigenvalue sits below the floor (e.g. all points identical).
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 training points")
    if q_requested < 1:
        raise ValueError("q_requested must be >= 1")

    if kernel == "rbf":
        K = gram_matrix(X, params)
    else:
        K = _cross_kernel(X, X, params, kernel)
    Kbar, row_means, total_mean = center_gram(K)

    # Imported here so that loading and scoring a model never loads scipy.
    from scipy.linalg import eigh

    # Only the top eigenpairs are kept, so solve only those (LAPACK's
    # dsyevr), in place: Kbar is a temporary. The rank floor needs just the
    # largest eigenvalue, which the subset contains.
    top = min(q_requested, n)
    eigvals, eigvecs = eigh(Kbar, subset_by_index=[n - top, n - 1],
                            driver="evr", overwrite_a=True)
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

    return KpcaModel(
        train_points=X.copy(),
        params=params,
        q=q,
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        gram_row_means=row_means,
        gram_total_mean=total_mean,
        kernel=kernel,
    )


def transform(model: KpcaModel, Xnew) -> np.ndarray:
    """Project new points into the fitted q-dimensional feature space.

    Out-of-sample centering reuses the training row means / total mean:
    kbar(x, x_i) = k(x, x_i) - mean_i'(k(x, x_i')) - row_means[i] + total_mean.
    """
    Xnew = np.asarray(Xnew, dtype=float)
    if Xnew.ndim != 2 or Xnew.shape[1] != model.train_points.shape[1]:
        raise ValueError(
            f"expected (M, {model.train_points.shape[1]}) input, got {Xnew.shape}"
        )
    if Xnew.shape[0] == 0:
        return np.empty((0, model.q))
    Kx = _cross_kernel(Xnew, model.train_points, model.params, model.kernel)
    Kx_bar = (
        Kx
        - Kx.mean(axis=1)[:, None]
        - model.gram_row_means[None, :]
        + model.gram_total_mean
    )
    return (Kx_bar @ model.eigenvectors) / np.sqrt(model.eigenvalues)
