"""Binary Gaussian-process classification and the three-way life DAG.

Each binary classifier places a GP prior (the regressor's ARD exponential
kernel from ``gpr``, no separate noise term) on a latent function f and maps it
through the logistic sigmoid. The non-Gaussian posterior over f is handled
with the Laplace approximation: Newton iterations find the posterior mode,
and the local Gaussian there supplies both the approximate marginal
likelihood (maximized over hyperparameters) and the predictive latent
distribution. The class-membership probability integrates the sigmoid
against that latent Gaussian with a fixed 32-node quadrature (Gauss-Hermite
for narrow latents, a complementary Gauss-Legendre form for wide ones; see
``_sigmoid_gaussian_integral``).

Each training builds the inputs' per-feature squared pair differences once
(``gpr.squared_differences``), and every evidence evaluation takes its
distances and length-scale gradient from them (see ``gpr``). The evidence is
maximized by the regressor's restart loop (``gpr.best_of_restarts``) with
the classifier's own starts, bounds and tolerances.

Each Newton step factorizes B = I + sqrtW K sqrtW by LAPACK potrf and solves
with it by two trtrs calls, made directly through ``gpr.checked_lapack``;
they are the calls the ``scipy.linalg`` wrappers make, so every bit is theirs.

Three binaries compose the {Short, Medium, Long} decision: short-vs-long
first, then the winning side's classifier against Medium. Labels come from
lifetime thresholds that shrink linearly with state of health:

    N_thr(soh) = N_thr(soh=1) * (soh - SOH_EOL) / (1 - SOH_EOL),     soh > SOH_EOL

with (upper, lower) = (450, 180) cycles for the NCA policy and (800, 200)
for the NCM policy; ``dataset.SOH_EOL`` is the end-of-life state of health.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.special import expit, ndtr

from .dataset import SOH_EOL
from .errors import DataError, NoConvergenceError, ValidationError
from .gpr import (
    FAILED_OBJECTIVE,
    KernelParams,
    Standardizer,
    best_of_restarts,
    cholesky_inverse,
    cholesky_lower,
    kernel_matrix,
    length_scale_contraction,
    one_blas_thread,
    pair_distances,
    require_finite_features,
    require_optimizer_budget,
    solve_lower,
    squared_differences,
    symmetric_matrix,
    training_inputs,
)

QUAD_NODES = 32
_GH_X, _GH_W = hermgauss(QUAD_NODES)
_GL_X, _GL_W = leggauss(QUAD_NODES)
_GL_U = 0.5 * (_GL_X + 1.0)           # Legendre nodes mapped onto (0, 1)
_GL_LOGIT = np.log(_GL_U) - np.log1p(-_GL_U)
_GL_WEIGHT = 0.5 * _GL_W

# Latent standard deviation at which the two 32-node rules swap roles; both
# are accurate to better than 1e-4 there.
WIDE_LATENT_SD = 3.0

NEWTON_MAX_ITERS = 100
NEWTON_TOL = 1e-12


class LifetimeLabel(str, Enum):
    SHORT = "Short"
    MEDIUM = "Medium"
    LONG = "Long"


@dataclass(frozen=True)
class ThresholdPolicy:
    """Lifetime thresholds (cycles) at 100% state of health."""

    upper_at_soh1: float
    lower_at_soh1: float

    def __post_init__(self):
        if not (self.upper_at_soh1 > self.lower_at_soh1 > 0):
            raise ValidationError("thresholds must satisfy upper > lower > 0")


NCA_POLICY = ThresholdPolicy(upper_at_soh1=450.0, lower_at_soh1=180.0)
NCM_POLICY = ThresholdPolicy(upper_at_soh1=800.0, lower_at_soh1=200.0)


def threshold(policy: ThresholdPolicy, soh: float) -> tuple[float, float]:
    """Thresholds scaled to the given state of health (defined for soh > SOH_EOL)."""
    if soh <= SOH_EOL:
        raise DataError(
            f"lifetime thresholds are defined for soh > SOH_EOL = {SOH_EOL}, got {soh:.4f}"
        )
    scale = (soh - SOH_EOL) / (1.0 - SOH_EOL)
    return policy.upper_at_soh1 * scale, policy.lower_at_soh1 * scale


def label_sample(rul: float, thresholds: tuple[float, float]) -> LifetimeLabel:
    """Three-way label; the middle interval is closed on both ends."""
    upper, lower = thresholds
    if rul < 0:
        raise ValidationError("remaining life cannot be negative")
    if rul > upper:
        return LifetimeLabel.LONG
    if rul < lower:
        return LifetimeLabel.SHORT
    return LifetimeLabel.MEDIUM


# ---------------------------------------------------------------------------
# Laplace-approximate binary classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryGpc:
    kernel: KernelParams            # sigma_n unused (fixed 0): no explicit noise term
    X_train: np.ndarray             # standardized, n x d
    y_train: np.ndarray             # labels in {-1, +1}
    f_hat: np.ndarray               # posterior mode of the latent function
    grad_at_mode: np.ndarray        # t - pi(f_hat); the representer weights
    sqrt_w: np.ndarray              # sqrt of the likelihood curvature at the mode
    chol_b: np.ndarray              # lower Cholesky of B = I + sqrtW K sqrtW
    evidence: float                 # Laplace-approximate log marginal likelihood
    positive_label: str = "+1"
    negative_label: str = "-1"

    @property
    def n_features(self) -> int:
        return int(self.X_train.shape[1])


@dataclass
class GpcTrainConfig:
    restarts: int = 3
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        require_optimizer_budget(self.restarts, self.max_iters)


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -z)


def _b_factor(K: np.ndarray, sqrt_w: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of B = I + sqrtW K sqrtW."""
    B = sqrt_w[:, None] * K
    B *= sqrt_w
    B.flat[::K.shape[0] + 1] += 1.0
    return cholesky_lower(B)


def _find_mode(K: np.ndarray, y: np.ndarray, f0: np.ndarray | None = None):
    """Newton iterations to the posterior mode (numerically stable form).

    Returns (f_hat, grad_at_mode, sqrt_w, chol_b, evidence). The evidence
    is the Laplace approximation psi(f_hat) - 0.5 log|B|, where
    psi(f) = log p(y|f) - 0.5 f^T K^-1 f is evaluated without forming
    K^-1 explicitly.
    """
    n = y.size
    t = (y + 1.0) / 2.0
    f = np.zeros(n) if f0 is None else f0.copy()
    a = np.zeros(n)
    psi = -np.inf
    for _ in range(NEWTON_MAX_ITERS):
        pi = expit(f)
        w = pi * (1.0 - pi)
        sqrt_w = np.sqrt(w)
        L = _b_factor(K, sqrt_w)
        b = w * f + (t - pi)
        rhs = sqrt_w * (K @ b)
        a_new = b - sqrt_w * solve_lower(L, solve_lower(L, rhs), transposed=True)
        f_new = K @ a_new
        psi_new = float(-0.5 * (a_new @ f_new) + _log_sigmoid(y * f_new).sum())
        # Damped update if a full Newton step overshoots.
        step = 1.0
        while psi_new < psi - 1e-12 and step > 1e-6:
            step *= 0.5
            a_try = a + step * (a_new - a)
            f_try = K @ a_try
            psi_try = float(-0.5 * (a_try @ f_try) + _log_sigmoid(y * f_try).sum())
            a_new, f_new, psi_new = a_try, f_try, psi_try
        converged = abs(psi_new - psi) < NEWTON_TOL
        a, f, psi = a_new, f_new, psi_new
        if converged:
            break
    else:
        raise NoConvergenceError("posterior mode search did not converge")

    pi = expit(f)
    sqrt_w = np.sqrt(pi * (1.0 - pi))
    L = _b_factor(K, sqrt_w)
    return f, (t - pi), sqrt_w, L, psi - float(np.log(L.diagonal()).sum())


def laplace_evidence(
    kernel: KernelParams, D: np.ndarray, y: np.ndarray,
    f0: np.ndarray | None = None, with_grad: bool = False,
):
    """Laplace-approximate log marginal likelihood; optional gradient.

    ``D`` is the training inputs' ``gpr.squared_differences``. Gradient is
    with respect to (log sigma_f, log l_1 .. log l_d) and accounts for the
    implicit dependence of the mode on the kernel through the standard
    explicit-plus-implicit decomposition.
    """
    r = pair_distances(D, kernel.length_scales)
    e = np.exp(-r)
    K = symmetric_matrix(kernel.sigma_f**2 * e, kernel.sigma_f**2)
    f_hat, grad_mode, sqrt_w, L, evidence = _find_mode(K, y, f0)
    if not with_grad:
        return evidence, f_hat

    pi = expit(f_hat)
    # R = sqrtW B^-1 sqrtW = (K + W^-1)^-1
    R = sqrt_w[:, None] * cholesky_inverse(L) * sqrt_w[None, :]
    C = solve_lower(L, sqrt_w[:, None] * K)
    # Implicit term: d(-0.5 log|B|)/df_i = -0.5 [(K^-1 + W)^-1]_ii dW_ii/df_i
    dw_df = pi * (1.0 - pi) * (1.0 - 2.0 * pi)
    s2 = -0.5 * (K.diagonal() - np.einsum("ij,ij->j", C, C)) * dw_df
    # Each entry is 0.5 g^T dK g - 0.5 tr(R dK) + s2^T (I - K R) dK g with
    # g = grad_mode, i.e. sum(W * dK) for the symmetric W below, u = (I - R K) s2.
    g = grad_mode
    u = s2 - R @ (K @ s2)
    W = 0.5 * (np.outer(g, g) - R + np.outer(u, g) + np.outer(g, u))
    grad = np.empty(1 + D.shape[0])
    grad[0] = 2.0 * float(np.vdot(W, K))      # dK / d log sigma_f = 2K
    grad[1:] = kernel.sigma_f**2 * length_scale_contraction(D, r, e, W, kernel.length_scales)
    return evidence, f_hat, grad


@one_blas_thread()
def train_binary(
    X: np.ndarray,
    y: np.ndarray,
    config: GpcTrainConfig | None = None,
    positive_label: str = "+1",
    negative_label: str = "-1",
) -> BinaryGpc:
    """Fit kernel hyperparameters by maximizing the Laplace evidence.

    ``X`` is expected on comparable scales (the DAG standardizes before
    delegating here); ``y`` holds labels in {-1, +1} with both classes
    present. Deterministic given ``config.seed``. Runs at one BLAS thread
    (``gpr.one_blas_thread``), so its bytes do not depend on the thread count.
    """
    config = config or GpcTrainConfig()
    X, y = training_inputs(X, y)
    if not (np.any(y > 0) and np.any(y < 0)):
        raise DataError("binary training data must contain both classes")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("labels must be -1 or +1")

    n, d = X.shape
    D = squared_differences(X)

    def new_objective():
        # Each restart's Newton searches start cold, then from the last mode.
        warm = None

        def objective(theta):
            nonlocal warm
            kernel = KernelParams(sigma_f=math.exp(theta[0]), length_scales=np.exp(theta[1:]))
            try:
                evidence, f_hat, grad = laplace_evidence(kernel, D, y, f0=warm, with_grad=True)
            except (np.linalg.LinAlgError, NoConvergenceError):
                return FAILED_OBJECTIVE, np.zeros_like(theta)
            warm = f_hat
            return -evidence, -grad
        return objective

    def draw_start(rng):
        return np.concatenate((
            [rng.uniform(math.log(0.5), math.log(8.0))],
            rng.uniform(math.log(0.3), math.log(10.0), size=d),
        ))

    best_theta = best_of_restarts(
        new_objective, np.concatenate(([math.log(2.0)], np.zeros(d))), draw_start,
        (math.log(1e-3), math.log(1e3)), config, (n, d), ftol=1e-12, gtol=1e-8,
    )
    del D  # posterior_binary builds its own cache; never hold two
    kernel = KernelParams(sigma_f=math.exp(best_theta[0]), length_scales=np.exp(best_theta[1:]))
    return posterior_binary(kernel, X, y, positive_label, negative_label)


def posterior_binary(
    kernel: KernelParams,
    X: np.ndarray,
    y: np.ndarray,
    positive_label: str = "+1",
    negative_label: str = "-1",
) -> BinaryGpc:
    """The Laplace classifier at fixed hyperparameters on inputs ``X``.

    Training and model loading both build their models here.
    """
    r = pair_distances(squared_differences(X), kernel.length_scales)
    K = symmetric_matrix(kernel.sigma_f**2 * np.exp(-r), kernel.sigma_f**2)
    f_hat, grad_mode, sqrt_w, L, evidence = _find_mode(K, y)
    return BinaryGpc(
        kernel=kernel,
        X_train=X,
        y_train=y,
        f_hat=f_hat,
        grad_at_mode=grad_mode,
        sqrt_w=sqrt_w,
        chol_b=L,
        evidence=evidence,
        positive_label=positive_label,
        negative_label=negative_label,
    )


def _sigmoid_gaussian_integral(mean: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """E[sigmoid(Z)] for Z ~ N(mean, sd^2), fixed 32-node quadrature.

    Narrow latents use Gauss-Hermite in the latent variable. Wide latents
    make the sigmoid step-like between Hermite nodes, so there the roles
    flip: sigma(z) is the CDF of a standard logistic U, and
    E[sigma(mean + sd Z)] = E_U[Phi((mean - U)/sd)], a smooth integrand
    handled by Gauss-Legendre over the logistic quantile.
    """
    probs = np.empty_like(mean)
    narrow = sd <= WIDE_LATENT_SD
    if np.any(narrow):
        z = mean[narrow, None] + math.sqrt(2.0) * sd[narrow, None] * _GH_X[None, :]
        probs[narrow] = (expit(z) @ _GH_W) / math.sqrt(math.pi)
    if np.any(~narrow):
        wide = ~narrow
        arg = (mean[wide, None] - _GL_LOGIT[None, :]) / sd[wide, None]
        probs[wide] = ndtr(arg) @ _GL_WEIGHT
    return probs


def predict_binary(model: BinaryGpc, x_star) -> float | np.ndarray:
    """Probability of the positive class at one point (or a batch of rows).

    The latent predictive Gaussian from the Laplace fit is pushed through
    the logistic sigmoid by fixed 32-node quadrature.
    """
    x = np.asarray(x_star, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.n_features:
        raise DataError(
            f"expected {model.n_features} features, got {x.shape[1]}"
        )
    require_finite_features(x)
    K_star = kernel_matrix(model.X_train, x, model.kernel)
    mean = K_star.T @ model.grad_at_mode
    v = solve_lower(model.chol_b, model.sqrt_w[:, None] * K_star)
    variance = np.maximum(model.kernel.sigma_f**2 - np.einsum("ij,ij->j", v, v), 0.0)
    probs = _sigmoid_gaussian_integral(mean, np.sqrt(variance))
    probs = np.clip(probs, 1e-300, 1.0 - 1e-16)
    return float(probs[0]) if single else probs


# ---------------------------------------------------------------------------
# Three-way DAG
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LifeDag:
    stage1: BinaryGpc        # Long (+1) vs Short (-1)
    stage2_long: BinaryGpc   # Long (+1) vs Medium (-1)
    stage2_short: BinaryGpc  # Short (+1) vs Medium (-1)
    standardizer: Standardizer
    feature_names: tuple[str, ...] | None = None

    @property
    def n_features(self) -> int:
        return self.stage1.n_features


def train_dag(
    X: np.ndarray,
    labels: list[LifetimeLabel],
    config: GpcTrainConfig | None = None,
    feature_names: tuple[str, ...] | None = None,
) -> LifeDag:
    """Train the three binaries on a shared standardizer.

    Stage 1 separates the extremes (Short vs Long); each stage-2 classifier
    separates one extreme from Medium.
    """
    config = config or GpcTrainConfig()
    X = np.asarray(X, dtype=float)
    labels = list(labels)
    if X.shape[0] != len(labels):
        raise DataError("one label per feature row required")
    require_finite_features(X)
    standardizer = Standardizer.fit(X)
    Xs = standardizer.transform(X)
    lab = np.array([l.value for l in labels])

    def subset(pos: LifetimeLabel, neg: LifetimeLabel) -> tuple[np.ndarray, np.ndarray]:
        mask = (lab == pos.value) | (lab == neg.value)
        if not np.any(lab == pos.value) or not np.any(lab == neg.value):
            raise DataError(
                f"need both {pos.value} and {neg.value} samples to train that stage"
            )
        y = np.where(lab[mask] == pos.value, 1.0, -1.0)
        return Xs[mask], y

    X1, y1 = subset(LifetimeLabel.LONG, LifetimeLabel.SHORT)
    X2l, y2l = subset(LifetimeLabel.LONG, LifetimeLabel.MEDIUM)
    X2s, y2s = subset(LifetimeLabel.SHORT, LifetimeLabel.MEDIUM)
    stage1 = train_binary(X1, y1, config, LifetimeLabel.LONG.value, LifetimeLabel.SHORT.value)
    stage2_long = train_binary(X2l, y2l, config, LifetimeLabel.LONG.value, LifetimeLabel.MEDIUM.value)
    stage2_short = train_binary(X2s, y2s, config, LifetimeLabel.SHORT.value, LifetimeLabel.MEDIUM.value)
    return LifeDag(
        stage1=stage1,
        stage2_long=stage2_long,
        stage2_short=stage2_short,
        standardizer=standardizer,
        feature_names=feature_names,
    )


def classify(dag: LifeDag, x_star) -> tuple[LifetimeLabel, float]:
    """Route one feature vector through the DAG.

    Stage 1 decides Short-vs-Long at probability 0.5; the winning side's
    stage-2 classifier produces the final label. The returned probability
    is the stage-2 membership probability of the chosen label; exact 0.5
    ties resolve to Medium.
    """
    x = np.asarray(x_star, dtype=float)
    if x.ndim != 1 or x.size != dag.n_features:
        raise DataError(f"expected a vector of length {dag.n_features}")
    xs = dag.standardizer.transform(x[None, :])[0]
    p_long = predict_binary(dag.stage1, xs)
    if p_long > 0.5:
        p = predict_binary(dag.stage2_long, xs)
        if p > 0.5:
            return LifetimeLabel.LONG, p
        return LifetimeLabel.MEDIUM, 1.0 - p
    p = predict_binary(dag.stage2_short, xs)
    if p > 0.5:
        return LifetimeLabel.SHORT, p
    return LifetimeLabel.MEDIUM, 1.0 - p
