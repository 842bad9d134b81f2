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
no centered copy of its kernel rows and no pass for their means. The
fit computes A_c and the offset once, and the model keeps only them.
"""

import os
import sys
import threading
from dataclasses import dataclass

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
    """Raised when the centered Gram matrix has no usable eigenpairs, or
    when its kept ones are not determined (K = I, or a short dsyevr subset)."""


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
    projection: np.ndarray        # (N, q), A_c
    offset: np.ndarray            # (q,), (r - t 1)^T A


def per_block(width: int) -> int:
    """Rows of width doubles that fit in BLOCK_BYTES, at least one."""
    return max(1, BLOCK_BYTES // (8 * max(width, 1)))


def usable_cpus() -> int:
    """CPUs this process may use, the one rule for run_blocks and _map:
    the size of its affinity mask, or 1 where the OS has no affinity call
    or multiprocessing started it (a protocol worker, say)."""
    mp = sys.modules.get("multiprocessing")  # imports nothing
    if not hasattr(os, "sched_getaffinity") or (mp and mp.parent_process()):
        return 1
    return len(os.sched_getaffinity(0))


def run_blocks(n_rows: int, width: int, work):
    """Call work(s) once for each slab s = slice(start, start + rows) of
    range(n_rows), rows = per_block(width), on min(usable CPUs, full
    BLOCK_BYTES blocks in n_rows * width doubles) threads, the caller
    included, which pull the next slab from one shared iterator; numpy's
    large loops and BLAS release the GIL. Under two full blocks, and in
    a protocol worker, which counts one usable CPU, no thread starts.
    work must write its results where its caller reads them by slab, so
    they do not depend on which thread ran it. After a slab fails no
    further slab starts, and once every thread is joined the lowest
    failed slab's exception is raised.
    """
    rows = per_block(width)
    n_threads = min(usable_cpus(), 8 * n_rows * width // BLOCK_BYTES)
    pending = iter(range(0, n_rows, rows))
    lock = threading.Lock()
    failed = {}

    def stop():  # hand out no further slab
        with lock:
            for _ in pending:
                pass

    def pull():
        while True:
            with lock:
                start = next(pending, None)
            if start is None:
                return
            try:
                work(slice(start, start + rows))
            except Exception as exc:  # raised by the caller, see below
                failed[start] = exc
                stop()

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


def _check_finite(X, what):
    """Raise a ValueError naming the first row of X with a NaN or inf, or
    with a squared norm of at least a quarter of the largest double:
    below that, every squared distance and inner product between two
    rows is finite."""
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"{what} row {int(np.argmax(bad))} is not finite")
    with np.errstate(over="ignore"):  # an overflowed norm is inf, so rejected
        huge = np.einsum("ij,ij->i", X, X) >= np.finfo(float).max / 4
    if huge.any():
        raise ValueError(f"{what} row {int(np.argmax(huge))} is too large: its "
                         "squared norm reaches a quarter of the largest double")


def _norm_factors(X, Y):
    """[x^2, 1] (M, 2) and [1; y^2] (2, N) for the rows of X and Y."""
    left = np.ones((len(X), 2))
    left[:, 0] = (X * X).sum(axis=1)
    right = np.ones((2, len(Y)))
    right[1] = (Y * Y).sum(axis=1)
    return left, right


def _rbf_in_place(K, left, right, gamma):
    """Turn the inner products K = X @ Y.T of a row slab into its RBF
    kernel values, exp(-gamma * max(0, x^2 + y^2 - 2 x.y)), in place;
    left and right are _norm_factors of the slab's rows and of Y.

    The squared norms x_i^2 + y_j^2 come from the rank-2 product
    [x^2, 1] @ [1; y^2], whose entries x_i^2 * 1 + 1 * y_j^2 are exact
    products summed with one rounding: the same doubles as the broadcast
    sum, with or without FMA, from one BLAS call per chunk. A chunk is
    an eighth of a score block, per_block(8 * len(Y)) rows, so that the
    product's temporary adds little to each scoring thread's block.
    Every step is elementwise, so neither the chunks nor the slabs
    change a value.
    """
    K *= -2.0
    rows = per_block(8 * K.shape[1])
    for s in range(0, len(K), rows):
        K[s:s + rows] += left[s:s + rows] @ right
    np.clip(K, 0.0, None, out=K)
    with np.errstate(over="ignore"):  # -inf, whose exp is the exact 0.0
        K *= -gamma
    np.exp(K, out=K)


def _cross_kernel(X, Y, params: KernelParams) -> np.ndarray:
    """RBF kernel evaluations between the rows of X (M, d) and Y (N, d),
    on the calling thread; symmetric wherever X @ Y.T is."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    K = X @ Y.T
    _rbf_in_place(K, *_norm_factors(X, Y), params.gamma)
    return K


def gram_matrix(X, params: KernelParams) -> np.ndarray:
    """N x N RBF Gram matrix with unit diagonal. It is exactly symmetric
    because numpy computes X @ X.T for a C-contiguous X as a symmetric
    rank-k update (a strided X may take a general, asymmetric product).

    That product is one BLAS call; the elementwise rest runs on the row
    slabs of run_blocks. A slab's values do not depend on the thread or
    on the slab bounds, so K is the same at any CPU count.
    """
    X = np.ascontiguousarray(X, dtype=float)
    K = X @ X.T
    left, right = _norm_factors(X, X)
    run_blocks(len(K), len(K),
               lambda s: _rbf_in_place(K[s], left[s], right, params.gamma))
    np.fill_diagonal(K, 1.0)
    return K


def center_gram(K):
    """Double-center the symmetric K in place, K_ij - (r_i + r_j) + t,
    which keeps it exactly symmetric. Returns the row means r and the
    mean t, which center out-of-sample kernel rows consistently.

    r and t are two whole-array reductions on the calling thread. Only
    the subtraction, whose broadcast temporary is a slab's, runs on the
    row slabs of one run_blocks pass; each slab writes only its own rows
    of K, so K is the same at any CPU count.
    """
    row_means = K.mean(axis=1)
    total_mean = float(K.mean())

    def subtract(s):
        chunk = K[s]
        chunk -= row_means[s, None] + row_means
        chunk += total_mean

    run_blocks(len(K), len(K), subtract)
    return row_means, total_mean


def fit_kpca(X, params: KernelParams, q_requested: int):
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


def kpca_from_gram(K, X, params: KernelParams, q_requested: int):
    """The kernel feature map of the training rows X from their Gram
    matrix K, keeping min(q_requested, rank) components, and the
    training rows' features: (KpcaModel, F) with F = V sqrt(lambda).

    q_requested beyond the usable rank silently clamps so hyperparameter
    search never aborts on small inputs. Raises DegenerateKernelError when
    every eigenvalue sits below the floor (e.g. all points identical).
    The training features come from K alone, so any symmetric K (such as
    the linear X @ X.T) gives that kernel's; transform always evaluates
    the RBF kernel of params.

    K is centered in place. Its top min(q_requested, N) eigenpairs come
    from ARPACK's implicitly restarted Lanczos solver (scipy's eigsh) when
    N > ARPACK_MIN_N and fewer than N/10 are wanted, and otherwise, or when
    ARPACK fails, from LAPACK's dsyevr. A K that is I to rounding centers
    to I - 1 1^T / N, whose eigenvalue 1 repeats N - 1 times: fewer kept
    components would be an arbitrary basis, so that K raises
    DegenerateKernelError, as does a subset that dsyevr returns short.
    """
    n = K.shape[0]
    if n < 2:
        raise ValueError("need at least 2 training points")
    if q_requested < 1:
        raise ValueError("q_requested must be >= 1")
    row_means, total_mean = center_gram(K)
    top = min(q_requested, n)
    if top < n - 1 and total_mean == 1.0 / n:
        raise DegenerateKernelError(
            f"kernel map is not determined at gamma={params.gamma}: no two "
            "training points are within the kernel's reach (K = I)")

    solved = None
    if n > ARPACK_MIN_N and 10 * top < n:
        solved = _lanczos(K, top)
    if solved is None:
        # Imported here so that loading and scoring a model never loads scipy.
        from scipy.linalg import eigh

        # dsyevr computes the eigenpairs of the top subset only, in K
        # itself: K is exactly symmetric, so K.T is the same matrix in the
        # column-major order LAPACK works in.
        solved = eigh(K.T, subset_by_index=[n - top, n - 1], driver="evr",
                      overwrite_a=True)
        if len(solved[0]) < top:
            raise DegenerateKernelError("the top q components are not determined")
    eigvals, eigvecs = solved
    # Freed before the model's arrays are allocated, so that none of them
    # sits above it in the heap and keeps its memory from the OS.
    del K

    # Both solvers return the top subset, which holds the largest
    # eigenvalue that the rank floor is relative to.
    floor = max(ABS_EIG_FLOOR, REL_EIG_FLOOR * max(eigvals.max(), 0.0))
    rank = int(np.sum(eigvals > floor))
    if rank == 0:
        raise DegenerateKernelError(
            "centered Gram matrix is numerically rank zero"
        )
    q = min(q_requested, rank)
    order = np.argsort(eigvals)[::-1][:q]
    eigvals = eigvals[order]
    # The column gather is F-ordered; the model's arrays are C-ordered, as
    # a loaded model's are, because BLAS rounds K @ projection differently
    # for the two layouts and a saved model must score as the fitted one.
    eigvecs = np.ascontiguousarray(eigvecs[:, order])
    # Deterministic sign: largest-magnitude entry of each column positive.
    peak = eigvecs[np.argmax(np.abs(eigvecs), axis=0), np.arange(q)]
    eigvecs[:, peak < 0] *= -1.0

    A = eigvecs / np.sqrt(eigvals)
    offset = (row_means - total_mean) @ A
    model = KpcaModel(train_points=X.copy(), params=params, q=q, eigenvalues=eigvals,
                      projection=A - A.sum(axis=0) / len(A), offset=offset)
    return model, eigvecs * np.sqrt(eigvals)


def transform(model: KpcaModel, Xnew) -> np.ndarray:
    """Project new points into the fitted q-dimensional feature space.

    Out-of-sample centering reuses the training row means r and mean t,
    kbar(x, x_i) = k(x, x_i) - mean_i'(k(x, x_i')) - r_i + t, and the
    centered row is projected onto A = V / sqrt(lambda). Both steps are
    folded into k(x) A_c - (r - t 1)^T A with A_c = A - 1 (1^T A) / N,
    since mean(k(x)) (1^T A) = k(x) 1 (1^T A) / N; the model holds A_c
    and the offset, so a row whose kernel row is all 0 maps to exactly
    -model.offset. The 1^T A term stays, inside A_c: the columns of V
    are orthogonal to the ones vector only to rounding, and for a
    component near the rank floor 1/sqrt(lambda) makes 1^T A far from
    zero.
    """
    Xnew = np.asarray(Xnew, dtype=float)
    if Xnew.ndim != 2 or Xnew.shape[1] != model.train_points.shape[1]:
        raise ValueError(
            f"expected (M, {model.train_points.shape[1]}) input, got {Xnew.shape}"
        )
    _check_finite(Xnew, "input")
    F = _cross_kernel(Xnew, model.train_points, model.params) @ model.projection
    F -= model.offset
    return F
