"""Exact Gaussian-process regression with an ARD exponential kernel.

Covariance between feature vectors x_i, x_j:

    k(x_i, x_j) = sigma_f^2 * exp(-sqrt(sum_m (x_im - x_jm)^2 / l_m^2))

with one length scale per feature (automatic relevance determination).
Observation noise sigma_n^2 and a small fixed jitter (1e-9 * sigma_f^2)
are added on the training diagonal for factorization stability.

Hyperparameters are fitted by maximizing the log marginal likelihood with
analytic gradients (L-BFGS with multiple seeded restarts). Features are
standardized to zero mean / unit variance with training statistics stored
on the model; targets are centered so the zero prior mean is exact.

Because the jitter scales with sigma_f^2, the regularized kernel is
sigma_f^2 A with A = E + (rho^2 + 1e-9) I, E = exp(-r) and the noise ratio
rho = sigma_n / sigma_f. So the likelihood's maximum over sigma_f has the
closed form sigma_f^2 = y^T A^-1 y / n (Rasmussen & Williams, GPML 2006,
5.4), and the optimizer searches only the log length scales and log rho
(``log_marginal_likelihood``). The gradient is
0.5 tr((alpha alpha^T / sigma_f^2 - A^-1) dA/d theta) with alpha = A^-1 y
(GPML 5.4.1, at the maximizing sigma_f). A^-1 = L^-T L^-1 comes from LAPACK
trtri on the Cholesky factor the likelihood already has
(``cholesky_inverse``).

Every distance between training rows comes from a cache built once per
training (``squared_differences``): a (d, n (n - 1) / 2) array D whose
row m holds (x_im - x_jm)^2 for the pairs i < j. With u = (l_1^-2 ...
l_d^-2), each objective call takes the pair distances r = sqrt(u^T D) as
one matrix-vector product (``pair_distances``), and all d length-scale
entries sum_ij W_ij dA_ij/d log l_m = u_m sum_{i<j} D_m,ij (W + W^T)_ij
E_ij / r_ij as a second one (``length_scale_contraction``). Every term of
both sums is non-negative or has the sign of (W + W^T)_ij, so an entry
rounds like the sum of its terms' magnitudes, also for close pairs and
offset columns, where the centring identity this replaced cancelled. Each
r_ij is within a few eps of its exact value, the n x n matrices built from
the pairs (``symmetric_matrix``) are exactly symmetric under any BLAS
thread count, and r is exactly zero wherever two rows agree. The cache
costs 4 d n (n - 1) bytes: 0.3 MB at n = 97, d = 8, 4.7 MB at n = 383,
about 0.46 GB at n = 3800. The Laplace classifier in ``gpc`` uses the same
cache. Cross distances (``predict``, ``gpc.predict_binary``) stay with
``scaled_distance``.

Both GP modules call LAPACK potrf, potrs, trtrs and trtri directly, through
``checked_lapack`` (np.linalg.LinAlgError when info != 0), rather than
through the ``scipy.linalg`` wrappers: the same routines with the same
arguments, so the same bits, without the wrappers' per-call checks, which
cost more than the arithmetic at n ~ 100. Diagonals are added in place
through ``.flat[::n + 1]`` instead of with ``np.eye``. Since nothing checks
finiteness on the way to LAPACK, every entry point refuses NaN or inf
features itself (``require_finite_features``).

Per-feature relative importance is reported as l_m / ||l||_1. Note this
assigns larger weight to larger length scales; the conventional ARD
reading (relevance ~ 1/l) is exposed separately as
``inverse_relative_importance`` so reports can show both.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri, dtrtrs
from scipy.optimize import minimize
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import (
    DegenerateTargetsError,
    DimensionMismatchError,
    SingularKernelError,
    ValidationError,
)

JITTER_FACTOR = 1e-9
MAX_JITTER_FACTOR = 1e-6
LOG_BOUND = 18.0  # |log parameter| bound during optimization
# Objective both trainers return where the model cannot be evaluated (zero
# gradient); a restart that ends at it never got past the failure.
FAILED_OBJECTIVE = 1e25


@dataclass(frozen=True)
class KernelParams:
    sigma_f: float
    length_scales: np.ndarray
    sigma_n: float = 0.0

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.length_scales, dtype=float))
        object.__setattr__(self, "length_scales", ls)
        # Written so that NaN fails every check.
        if not self.sigma_f > 0:
            raise ValidationError("sigma_f must be positive")
        if not np.all(ls > 0):
            raise ValidationError("all length scales must be positive")
        if not self.sigma_n >= 0:
            raise ValidationError("sigma_n cannot be negative")

    @property
    def n_features(self) -> int:
        return int(self.length_scales.size)


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        # Written so that NaN fails it; ``fit`` gives a constant column scale 1.0.
        if not np.all(np.asarray(self.scale) > 0):
            raise ValidationError("every scale entry must be positive")

    @staticmethod
    def fit(X: np.ndarray) -> "Standardizer":
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale < 1e-12, 1.0, scale)  # constant columns pass through
        return Standardizer(mean=mean, scale=scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.scale


@dataclass(frozen=True)
class GprModel:
    kernel: KernelParams
    X_train: np.ndarray          # standardized, n x d
    y_train: np.ndarray          # raw targets, n
    y_mean: float
    chol_lower: np.ndarray       # L with L L^T = K + (sigma_n^2 + jitter) I
    alpha: np.ndarray            # (K + ...)^-1 (y - y_mean)
    standardizer: Standardizer
    jitter: float
    feature_names: tuple[str, ...] | None = None

    @property
    def n_train(self) -> int:
        return int(self.X_train.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X_train.shape[1])


@dataclass
class GprTrainConfig:
    restarts: int = 5
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        require_optimizer_budget(self.restarts, self.max_iters)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

def checked_lapack(routine, *args, **kwargs) -> np.ndarray:
    """Call a ``scipy.linalg.lapack`` routine and return its array.

    Raises np.linalg.LinAlgError when the routine reports ``info != 0``: a
    matrix that is not positive definite (potrf), an exactly zero diagonal
    entry of a triangular factor (trtrs, trtri), or an illegal argument.
    Unlike the ``scipy.linalg`` wrappers, nothing checks the inputs for
    NaN or inf: every entry point refuses non-finite features first.
    """
    result, info = routine(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} failed with info={info}")
    return result


@functools.cache
def _blas_pools() -> tuple:
    """(get, set) of the thread count of each OpenBLAS pool found: numpy's
    and scipy's bundled builds, each reached through an extension module
    linked to it. A build without these symbols (MKL, Accelerate) is left
    out."""
    pools = []
    for module, suffix in [("numpy._core._multiarray_umath", "64_"), ("scipy.linalg._flapack", "")]:
        try:
            library = ctypes.CDLL(importlib.import_module(module).__file__)
            get = getattr(library, f"scipy_openblas_get_num_threads{suffix}")
            set_count = getattr(library, f"scipy_openblas_set_num_threads{suffix}")
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_count.argtypes, set_count.restype = [ctypes.c_int], None
        pools.append((get, set_count))
    return tuple(pools)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every OpenBLAS pool at one thread, then restore
    each pool's previous count (so nesting is safe).

    numpy and scipy each bundle their own OpenBLAS with its own thread pool,
    and GP training alternates between them on every evaluation. Unpinned,
    the two pools slow each other down many times over, and sums split
    across threads round differently, so bytes change with the thread
    count. Where the symbols are absent this does nothing.
    """
    pools = _blas_pools()
    previous = [get() for get, _ in pools]
    for _, set_count in pools:
        set_count(1)
    try:
        yield
    finally:
        for (_, set_count), count in zip(pools, previous):
            set_count(count)


def require_optimizer_budget(restarts: int, max_iters: int) -> None:
    """Refuse fewer than one restart or one iteration (ValidationError, exit 3)."""
    if restarts < 1:
        raise ValidationError(f"restarts must be at least 1, got {restarts}")
    if max_iters < 1:
        raise ValidationError(f"max_iters must be at least 1, got {max_iters}")


def require_finite_features(X: np.ndarray) -> None:
    """Refuse a feature matrix holding NaN or inf (ValidationError, exit 3)."""
    if not np.all(np.isfinite(X)):
        raise ValidationError("features contain non-finite entries")


def scaled_distance(Xa: np.ndarray, Xb: np.ndarray, length_scales: np.ndarray) -> np.ndarray:
    """Pairwise r_ij = sqrt(sum_m (x_im - x_jm)^2 / l_m^2); k = sigma_f^2 exp(-r)."""
    if Xa.shape[0] == 0 or Xb.shape[0] == 0:
        return np.zeros((Xa.shape[0], Xb.shape[0]))
    return cdist(Xa / length_scales, Xb / length_scales)


def kernel_matrix(Xa: np.ndarray, Xb: np.ndarray, kernel: KernelParams) -> np.ndarray:
    return kernel.sigma_f**2 * np.exp(-scaled_distance(Xa, Xb, kernel.length_scales))


def squared_differences(X: np.ndarray) -> np.ndarray:
    """Per-feature squared differences of the rows of ``X`` (n x d).

    Returns a (d, n (n - 1) / 2) array D whose row m holds (x_im - x_jm)^2
    for the pairs i < j in ``pdist`` order, filled one feature at a time
    (no pair x feature temporary); 4 d n (n - 1) bytes. The training
    distances and the length-scale gradient are matrix-vector products with
    it (``pair_distances``, ``length_scale_contraction``).
    """
    n, d = X.shape
    D = np.empty((d, n * (n - 1) // 2))
    for m in range(d):
        pdist(X[:, m:m + 1], "sqeuclidean", out=D[m])
    return D


def pair_distances(D: np.ndarray, length_scales: np.ndarray) -> np.ndarray:
    """Training distances r = sqrt(sum_m D[m] / l_m^2) of the pairs i < j
    (``pdist`` order), from the cache ``D = squared_differences(X)``."""
    return np.sqrt(length_scales**-2.0 @ D)


def symmetric_matrix(pairs: np.ndarray, diagonal: float) -> np.ndarray:
    """The n x n symmetric matrix holding ``pairs`` (``pdist`` order) off
    the diagonal and ``diagonal`` on it."""
    M = squareform(pairs, checks=False)
    M.flat[::M.shape[0] + 1] = diagonal
    return M


def length_scale_contraction(
    D: np.ndarray, r: np.ndarray, e: np.ndarray, W: np.ndarray, length_scales: np.ndarray
) -> np.ndarray:
    """sum_ij W_ij dE_ij / d log l_m for m = 1..d, for an n x n ``W``.

    ``D`` is the cache ``squared_differences(X)``, ``r`` its
    ``pair_distances`` and ``e = exp(-r)``, all over the pairs i < j.
    dE_ij / d log l_m = E_ij D_m,ij / (l_m^2 r_ij), zero where r_ij = 0 and
    on the diagonal, so all d entries are one product of D with the pair
    values of (W + W^T) * E / r.
    """
    v = squareform(W + W.T, checks=False)
    v = np.divide(v * e, r, out=np.zeros_like(r), where=r > 0)
    return (D @ v) * length_scales**-2.0


def cholesky_inverse(L: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 from the lower Cholesky factor, as L^-T L^-1.

    L^-1 comes from LAPACK trtri, and numpy forms L^-T L^-1 by BLAS syrk, so
    the result is exactly symmetric. ``L`` must be zero above the diagonal,
    as potrf returns it: trtri leaves that triangle in place. Unlike potri
    (trtri then lauum), this gives the same bits for one and for two BLAS
    threads at the sizes the golden outputs use, and lauum under several
    OpenBLAS threads is slow for small n.
    Raises np.linalg.LinAlgError when trtri reports failure (info != 0).
    """
    L_inv = checked_lapack(dtrtri, L, lower=1)
    return L_inv.T @ L_inv


def cholesky_lower(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``A`` from LAPACK potrf, zero above the
    diagonal (Fortran order); np.linalg.LinAlgError when ``A`` is not
    positive definite."""
    return checked_lapack(dpotrf, A, lower=1, clean=1)


def solve_lower(L: np.ndarray, b: np.ndarray, transposed: bool = False) -> np.ndarray:
    """L^-1 b (or L^-T b) for a lower factor in Fortran order, by LAPACK
    trtrs; np.linalg.LinAlgError on an exactly zero diagonal entry."""
    return checked_lapack(dtrtrs, L, b, lower=1, trans=int(transposed))


def factorize_with_jitter(
    K: np.ndarray, sigma_f: float, sigma_n: float
) -> tuple[np.ndarray, float]:
    """Factorize K + sigma_n^2 I + jitter I, escalating jitter up to the cap.

    Returns (lower factor, jitter actually used). Raises SingularKernelError
    once the jitter cap (1e-6 * sigma_f^2) is exhausted.
    """
    n = K.shape[0]
    factor = JITTER_FACTOR
    while factor <= MAX_JITTER_FACTOR * (1.0 + 1e-12):
        jitter = factor * sigma_f**2
        K_reg = K.copy()
        K_reg.flat[::n + 1] += sigma_n**2 + jitter
        try:
            return cholesky_lower(K_reg), jitter
        except np.linalg.LinAlgError:
            factor *= 10.0
    raise SingularKernelError(
        f"kernel matrix not factorizable at jitter {MAX_JITTER_FACTOR:g} * sigma_f^2"
    )


# ---------------------------------------------------------------------------
# Log marginal likelihood
# ---------------------------------------------------------------------------

def log_marginal_likelihood(
    length_scales: np.ndarray,
    noise_ratio: float,
    D: np.ndarray,
    y_centered: np.ndarray,
) -> tuple[float, np.ndarray, float]:
    """Log marginal likelihood of centered targets at its maximum over sigma_f.

    ``D`` is the training inputs' ``squared_differences``, the noise ratio
    rho = sigma_n / sigma_f, and A = E + (rho^2 + JITTER_FACTOR) I (see the
    module docstring). Returns (value, gradient, sigma_f_hat) with
    sigma_f_hat^2 = y^T A^-1 y / n, the value

        -(n/2) log sigma_f_hat^2 - n/2 - log|L_A| - (n/2) log 2 pi

    and its gradient with respect to (log l_1 ... log l_d, log rho). Both
    equal the full likelihood and its length-scale and log sigma_n entries
    at sigma_f = sigma_f_hat, sigma_n = rho sigma_f_hat. A failed
    factorization or trtri raises np.linalg.LinAlgError.
    """
    n = y_centered.size
    r = pair_distances(D, length_scales)
    e = np.exp(-r)
    L = cholesky_lower(symmetric_matrix(e, 1.0 + (noise_ratio**2 + JITTER_FACTOR)))
    alpha = checked_lapack(dpotrs, L, y_centered, lower=1)
    sigma_f2 = float(y_centered @ alpha) / n
    lml = (
        -0.5 * n * (math.log(sigma_f2) + 1.0 + math.log(2.0 * math.pi))
        - float(np.log(L.diagonal()).sum())
    )
    M = np.outer(alpha / sigma_f2, alpha) - cholesky_inverse(L)
    grad = np.empty(D.shape[0] + 1)
    grad[:-1] = 0.5 * length_scale_contraction(D, r, e, M, length_scales)
    # d A / d log rho = 2 rho^2 I
    grad[-1] = float(M.trace()) * noise_ratio**2
    return lml, grad, math.sqrt(sigma_f2)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@one_blas_thread()
def train(
    X: np.ndarray,
    y: np.ndarray,
    config: GprTrainConfig | None = None,
    feature_names: tuple[str, ...] | None = None,
) -> GprModel:
    """Fit hyperparameters by maximum marginal likelihood and build the model.

    L-BFGS-B searches (log l_1 ... log l_d, log(sigma_n / sigma_f)) on the
    likelihood concentrated over sigma_f (``log_marginal_likelihood``);
    sigma_f is its closed-form maximizer at the best point. Deterministic
    given ``config.seed``; restarts are compared by final likelihood with
    ties broken by restart index. Runs at one BLAS thread
    (``one_blas_thread``), so its bytes do not depend on the thread count.
    """
    config = config or GprTrainConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise DimensionMismatchError(f"X {X.shape} and y {y.shape} are inconsistent")
    if X.shape[0] < 2:
        raise ValidationError("training needs at least 2 samples")
    require_finite_features(X)
    if not np.all(np.isfinite(y)):
        raise ValidationError("targets contain non-finite entries")

    y_std = float(y.std())
    if y_std == 0.0:
        raise DegenerateTargetsError("targets carry zero variance")
    y_mean = float(y.mean())
    y_centered = y - y_mean

    standardizer = Standardizer.fit(X)
    Xs = standardizer.transform(X)
    n, d = Xs.shape
    D = squared_differences(Xs)

    def objective(theta):
        try:
            lml, grad, _ = log_marginal_likelihood(
                np.exp(theta[:-1]), math.exp(theta[-1]), D, y_centered
            )
        except np.linalg.LinAlgError:
            return FAILED_OBJECTIVE, np.zeros_like(theta)
        return -lml, -grad

    # A random start draws offsets of log sigma_f and log sigma_n from
    # log std(y) around its log length scales; its log noise ratio is their
    # difference.
    rng = np.random.default_rng(np.random.SeedSequence([config.seed & 0xFFFFFFFF, n, d]))
    starts = [np.append(np.zeros(d), math.log(0.1))]
    for _ in range(config.restarts - 1):
        sigma_f_offset = rng.uniform(-2.0, 2.0)
        log_length_scales = rng.uniform(math.log(0.1), math.log(10.0), size=d)
        starts.append(np.append(log_length_scales, rng.uniform(-6.0, 0.0) - sigma_f_offset))

    bounds = [(-LOG_BOUND, LOG_BOUND)] * (d + 1)
    best_theta = None
    best_value = FAILED_OBJECTIVE
    for theta0 in starts:
        result = minimize(
            objective, theta0, jac=True, method="L-BFGS-B", bounds=bounds,
            options={"maxiter": config.max_iters, "ftol": 1e-10, "gtol": 1e-9},
        )
        if result.fun < best_value:
            best_value = float(result.fun)
            best_theta = result.x
    if best_theta is None:
        raise SingularKernelError("no restart produced a usable kernel")
    length_scales, noise_ratio = np.exp(best_theta[:-1]), math.exp(best_theta[-1])
    _, _, sigma_f = log_marginal_likelihood(length_scales, noise_ratio, D, y_centered)
    del D  # posterior builds its own cache; never hold two
    kernel = KernelParams(sigma_f=sigma_f, length_scales=length_scales,
                          sigma_n=noise_ratio * sigma_f)
    return posterior(kernel, Xs, y, y_mean, standardizer, feature_names)


def posterior(
    kernel: KernelParams,
    Xs: np.ndarray,
    y: np.ndarray,
    y_mean: float,
    standardizer: Standardizer,
    feature_names: tuple[str, ...] | None = None,
) -> GprModel:
    """The regressor at fixed hyperparameters on standardized inputs ``Xs``.

    Training and model loading both build their models here.
    """
    r = pair_distances(squared_differences(Xs), kernel.length_scales)
    K = symmetric_matrix(kernel.sigma_f**2 * np.exp(-r), kernel.sigma_f**2)
    L, jitter = factorize_with_jitter(K, kernel.sigma_f, kernel.sigma_n)
    alpha = checked_lapack(dpotrs, L, y - y_mean, lower=1)
    return GprModel(
        kernel=kernel,
        X_train=Xs,
        y_train=y,
        y_mean=y_mean,
        chol_lower=L,
        alpha=alpha,
        standardizer=standardizer,
        jitter=jitter,
        feature_names=feature_names,
    )


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict(model: GprModel, X_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and variance (including observation noise) at X_star.

    ``X_star`` is in raw feature units; the stored standardizer is applied.
    Variances are clamped at zero; clamping beyond 1e-8 is reported as a
    warning since it indicates a poorly conditioned kernel.
    """
    X_star = np.asarray(X_star, dtype=float)
    if X_star.ndim == 1:
        X_star = X_star[None, :]
    if X_star.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"expected {model.n_features} features, got {X_star.shape[1]}"
        )
    if X_star.shape[0] == 0:
        return np.empty(0), np.empty(0)
    require_finite_features(X_star)

    Xs = model.standardizer.transform(X_star)
    K_star = kernel_matrix(model.X_train, Xs, model.kernel)
    mean = K_star.T @ model.alpha + model.y_mean
    v = solve_lower(model.chol_lower, K_star)
    variance = model.kernel.sigma_f**2 - np.einsum("ij,ij->j", v, v) + model.kernel.sigma_n**2
    if np.any(variance < -1e-8):
        warnings.warn("predictive variance clamped by more than 1e-8", RuntimeWarning)
    return mean, np.maximum(variance, 0.0)


def relative_importance(model: GprModel) -> np.ndarray:
    """Per-feature weight l_m / ||l||_1 from the trained length scales."""
    ls = model.kernel.length_scales
    return ls / float(np.abs(ls).sum())


def inverse_relative_importance(model: GprModel) -> np.ndarray:
    """The conventional ARD reading: weight proportional to 1 / l_m."""
    inv = 1.0 / model.kernel.length_scales
    return inv / float(inv.sum())
