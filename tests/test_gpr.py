import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotrf
from scipy.optimize import minimize
from scipy.spatial.distance import squareform

from batlife import gpc, gpr, modelio
from batlife.errors import (
    DataError,
    DegenerateTargetsError,
    DimensionMismatchError,
    NumericalError,
    SingularKernelError,
    ValidationError,
)

from conftest import (
    kernel_eval,
    wrapped_concentrated_log_marginal_likelihood,
    wrapped_log_marginal_likelihood,
)


def _toy_problem(n=20, d=3, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = X @ w + noise * rng.normal(size=n)
    return X, y


class TestKernelEval:
    def test_zero_distance(self):
        k = gpr.KernelParams(sigma_f=2.0, length_scales=np.ones(3))
        x = np.array([[0.3, -1.0, 2.0]])
        assert gpr.kernel_matrix(x, x, k)[0, 0] == pytest.approx(4.0)

    def test_hand_value(self):
        # exp(-sqrt(1/1 + 1/4)) = exp(-sqrt(1.25)) = 0.3269219...
        k = gpr.KernelParams(sigma_f=1.0, length_scales=np.array([1.0, 2.0]))
        value = gpr.kernel_matrix(np.zeros((1, 2)), np.ones((1, 2)), k)[0, 0]
        assert value == pytest.approx(math.exp(-math.sqrt(1.25)), abs=1e-12)
        assert value == pytest.approx(0.3269219, abs=1e-7)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.integers(1, 6)
        k = gpr.KernelParams(sigma_f=float(rng.uniform(0.1, 5.0)),
                             length_scales=rng.uniform(0.1, 5.0, size=d))
        a, b = rng.normal(size=(4, d)), rng.normal(size=(3, d))
        assert np.allclose(gpr.kernel_matrix(a, b, k), gpr.kernel_matrix(b, a, k).T,
                           rtol=1e-15, atol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.integers(1, 6)
        k = gpr.KernelParams(sigma_f=float(rng.uniform(0.1, 5.0)),
                             length_scales=rng.uniform(0.1, 5.0, size=d))
        a, b = rng.normal(size=(4, d)), rng.normal(size=(3, d))
        oracle = np.array([[kernel_eval(x, y, k) for y in b] for x in a])
        assert np.allclose(gpr.kernel_matrix(a, b, k), oracle, rtol=1e-12, atol=0.0)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValidationError):
            gpr.KernelParams(sigma_f=0.0, length_scales=np.ones(2))
        with pytest.raises(ValidationError):
            gpr.KernelParams(sigma_f=1.0, length_scales=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("kwargs", [
        {"sigma_f": math.nan, "length_scales": np.ones(2)},
        {"sigma_f": 1.0, "length_scales": np.array([1.0, math.nan])},
        {"sigma_f": 1.0, "length_scales": np.ones(2), "sigma_n": math.nan},
    ])
    def test_nan_hyperparameters(self, kwargs):
        with pytest.raises(ValidationError):
            gpr.KernelParams(**kwargs)

    @pytest.mark.parametrize("scale", [[1.0, 0.0], [1.0, -2.0], [math.nan, 1.0]])
    def test_standardizer_scale_must_be_positive(self, scale):
        with pytest.raises(ValidationError, match="scale entry must be positive"):
            gpr.Standardizer(mean=np.zeros(2), scale=np.array(scale))


def _lml_at(theta, X, y):
    """``gpr.log_marginal_likelihood`` at theta = (log l_1 ... log l_d, log(sigma_n / sigma_f))."""
    return gpr.log_marginal_likelihood(np.exp(theta[:-1]), math.exp(theta[-1]),
                                       gpr.squared_differences(X), y)


@st.composite
def _concentration_problems(draw):
    """n in [2, 40], d in [1, 5], a column offset by 1e4, at random the last
    row a copy of the first, and log noise ratios over the optimizer's box,
    its two ends drawn on their own."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d))
    X[:, draw(st.integers(0, d - 1))] += 1e4
    if draw(st.booleans()):
        X[-1] = X[0]
    length_scales = np.exp(draw(st.lists(st.floats(-2.0, 3.0), min_size=d, max_size=d)))
    bound = gpr.LOG_BOUND
    log_ratio = draw(st.one_of(st.floats(-bound, bound), st.floats(-bound, 1.0 - bound),
                               st.floats(bound - 1.0, bound)))
    y = rng.normal(size=n) * math.exp(draw(st.floats(-5.0, 5.0)))
    return X, y, length_scales, math.exp(log_ratio)


class TestLogMarginalLikelihood:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(3)
        n, d = 12, 3
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)

        for _ in range(10):
            # Draws of (log sigma_f, log l, log sigma_n), taken as
            # (log l, log sigma_n - log sigma_f).
            log_sigma_f = rng.uniform(-1, 1)
            theta = np.append(rng.uniform(-1, 1, size=d), rng.uniform(-2, -0.5) - log_sigma_f)
            _, grad, _ = _lml_at(theta, X, y)
            fd = np.zeros_like(theta)
            h = 1e-5
            for i in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (_lml_at(up, X, y)[0] - _lml_at(down, X, y)[0]) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
            assert rel < 1e-5

    @settings(max_examples=150, deadline=None)
    @given(_concentration_problems())
    def test_is_the_full_likelihood_at_its_sigma_f_maximum(self, problem):
        X, y, length_scales, ratio = problem
        n = y.size
        D = gpr.squared_differences(X)
        lml, grad, sigma_f = gpr.log_marginal_likelihood(length_scales, ratio, D, y)
        kernel = gpr.KernelParams(sigma_f=sigma_f, length_scales=length_scales,
                                  sigma_n=ratio * sigma_f)
        full, full_grad = wrapped_log_marginal_likelihood(kernel, D, y, with_grad=True)

        # Rounding bounds. The two sides round the entries of A (the full
        # kernel is sigma_f^2 A) differently, which moves the value by at
        # most sum_ij |W_ij| |dA_ij| with W = |alpha alpha^T| / sigma_f^2 +
        # |A^-1| (the magnitudes behind 0.5 tr((alpha alpha^T / sigma_f^2 -
        # A^-1) dA)); a gradient entry also carries the condition number of
        # A, times sum_ij V_ij (z_im^2 + z_jm^2), at least half the magnitude
        # sum_ij V_ij (z_im - z_jm)^2 of the contraction's terms.
        eps = np.finfo(float).eps
        r = squareform(gpr.pair_distances(D, length_scales))
        E = np.exp(-r)
        A = E + (ratio**2 + gpr.JITTER_FACTOR) * np.eye(n)
        A_inv = np.linalg.inv(A)
        alpha = A_inv @ y
        W = np.abs(np.outer(alpha, alpha)) / (y @ alpha / n) + np.abs(A_inv)
        assert abs(lml - full) <= 1e-12 * abs(full) + n * eps * np.sum(W * A)

        V = np.divide(W * E, r, out=np.zeros_like(r), where=r > 0)
        Z = (X - X.mean(axis=0)) / length_scales
        scale = np.append((Z**2).T @ V.sum(axis=1), np.trace(W) * ratio**2)
        conditioned = 2 * (n + 16) * eps * np.linalg.cond(A)
        # The length-scale and log sigma_n entries are the new gradient.
        assert np.all(np.abs(full_grad[1:] - grad) <= conditioned * scale)
        # sigma_f_hat maximizes the full likelihood at the fixed ratio: its
        # derivative along log sigma_f and log sigma_n together is zero.
        assert abs(full_grad[0] + full_grad[-1]) <= conditioned * np.sum(W * A)


def _dense_length_scale_derivatives(X, r, E, kernel):
    """dK/d log l_m, one n x n matrix per m: K (x_im - x_jm)^2 / (l_m^2 r), 0 at r = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)
    base = kernel.sigma_f**2 * E * inv_r
    return [base * (X[:, None, m] - X[None, :, m]) ** 2 / kernel.length_scales[m] ** 2
            for m in range(X.shape[1])]


def _dense_gradient(length_scales, ratio, X, y):
    """The concentrated likelihood's gradient with A^-1 = cho_solve(L, I) and
    d dense derivative matrices."""
    n = X.shape[0]
    unit = gpr.KernelParams(sigma_f=1.0, length_scales=length_scales)
    r = squareform(gpr.pair_distances(gpr.squared_differences(X), length_scales))
    E = np.exp(-r)
    L = np.linalg.cholesky(E + (ratio**2 + gpr.JITTER_FACTOR) * np.eye(n))
    alpha = cho_solve((L, True), y)
    M = np.outer(alpha, alpha) / (y @ alpha / n) - cho_solve((L, True), np.eye(n))
    return np.append(
        [0.5 * np.sum(M * dA) for dA in _dense_length_scale_derivatives(X, r, E, unit)],
        np.trace(M) * ratio**2,
    )


@st.composite
def _contraction_inputs(draw):
    """X with a duplicated row, a constant column and a column offset by 1e4."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    entry = st.floats(-4.0, 4.0)
    X = np.array(draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=n, max_size=n)))
    src, dst = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    X[dst] = X[src]
    constant, offset = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    X[:, constant] = X[0, constant]
    X[:, offset] += 1e4
    A = np.array(draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
                               min_size=n, max_size=n)))
    kernel = gpr.KernelParams(
        sigma_f=draw(st.floats(0.1, 5.0)),
        length_scales=draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d)),
    )
    return X, A + A.T, kernel


def _subnormal_weight_inputs(weight, sigma_f, length_scales):
    """Three rows, two of them equal, an offset column, and one W pair of
    ``weight``: a subnormal weight makes the products of the entry of the
    last column subnormal."""
    X = np.array([[1e4, 0.0, 0.0, 0.0], [1e4, 0.0, 0.0, 0.0], [1e4, 0.0, 0.0, 1.0]])
    W = np.zeros((3, 3))
    W[1, 2] = W[2, 1] = weight
    return X, W, gpr.KernelParams(sigma_f=sigma_f, length_scales=np.array(length_scales))


@st.composite
def _distance_inputs(draw):
    """n in [2, 40], d in [1, 6], features on mixed scales, a column offset
    by 1e4, up to three rows copied from others and, at random, a row within
    1e-9 of the first, with length scales e^-2..e^3."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * np.exp(rng.uniform(-3.0, 3.0, size=d))
    X[:, draw(st.integers(0, d - 1))] += 1e4
    if draw(st.booleans()):
        X[-1] = X[0] + 1e-9 * rng.normal(size=d)
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=3)):
        X[dst] = X[src]
    length_scales = np.exp(draw(st.lists(st.floats(-2.0, 3.0), min_size=d, max_size=d)))
    return X, length_scales


def _distance_matrix(X, length_scales):
    """The n x n training distances as the trainers build them."""
    return gpr.symmetric_matrix(gpr.pair_distances(gpr.squared_differences(X), length_scales),
                                0.0)


class TestPairDistances:
    """The training distances from the cache ``squared_differences``."""

    @settings(max_examples=150, deadline=None)
    @given(_distance_inputs())
    def test_symmetric_and_zero_exactly_where_rows_agree(self, inputs):
        X, length_scales = inputs
        r = _distance_matrix(X, length_scales)
        assert np.array_equal(r, r.T)
        same = np.all(X[:, None, :] == X[None, :, :], axis=2)  # the diagonal and copied rows
        assert np.all(r[same] == 0.0)
        assert np.all(r[~same] > 0.0)

    @settings(max_examples=150, deadline=None)
    @given(_distance_inputs())
    def test_is_within_a_few_eps_of_an_exact_sum(self, inputs):
        # Oracle: sqrt of the exactly rounded sum (math.fsum) of the terms
        # ((x_im - x_jm) / l_m)^2, pair by pair.
        X, length_scales = inputs
        n, d = X.shape
        oracle = np.array([[math.sqrt(math.fsum(((X[i, m] - X[j, m]) / length_scales[m]) ** 2
                                                for m in range(d)))
                            for j in range(n)] for i in range(n)])
        r = _distance_matrix(X, length_scales)
        assert np.all(np.abs(r - oracle) <= 2 * (d + 2) * np.finfo(float).eps * oracle)


class TestLengthScaleContraction:
    @settings(max_examples=200, deadline=None)
    @given(_contraction_inputs())
    @example(_subnormal_weight_inputs(2.2250738585072014e-313, 0.5, [1.0, 1.0, 1.0, 1.0]))
    @example(_subnormal_weight_inputs(1.1125369292536007e-308, 1.0, [1.0, 1.0, 1.0, 0.125]))
    def test_matches_dense_oracle(self, inputs):
        X, W, kernel = inputs
        n = X.shape[0]
        D = gpr.squared_differences(X)
        pairs = gpr.pair_distances(D, kernel.length_scales)
        got = kernel.sigma_f**2 * gpr.length_scale_contraction(D, pairs, np.exp(-pairs), W,
                                                               kernel.length_scales)
        r = squareform(pairs)
        E = np.exp(-r)
        terms = [W * dK for dK in _dense_length_scale_derivatives(X, r, E, kernel)]
        want = np.array([t.sum() for t in terms])
        scale = np.array([np.abs(t).sum() for t in terms])
        Z = (X - X.mean(axis=0)) / kernel.length_scales
        # A product that underflows rounds to a multiple of the smallest
        # subnormal, not to a relative eps, and the contraction then scales
        # that absolute error by sigma_f^2 and up to two factors of Z.
        underflow = (4.0 * n**2 * np.finfo(float).smallest_subnormal
                     * (1.0 + 2.0 * kernel.sigma_f**2 * (1.0 + np.abs(Z).max(axis=0)) ** 2))
        assert np.all(np.abs(got - want) <= 1e-12 * scale + underflow)

    def test_matches_dense_oracle_without_close_pairs(self):
        # On a 1/8 grid with length scales near 1, no distinct pair is close
        # and no product underflows: 1e-12 * sum|W * dK_m| alone holds.
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, d = int(rng.integers(2, 41)), int(rng.integers(1, 6))
            X = rng.integers(-32, 33, size=(n, d)) / 8.0
            X[-1] = X[0]
            X[:, 0] += 1e4
            A = rng.uniform(-1.0, 1.0, size=(n, n))
            kernel = gpr.KernelParams(sigma_f=float(rng.uniform(0.1, 5.0)),
                                      length_scales=rng.uniform(0.5, 2.0, size=d))
            D = gpr.squared_differences(X)
            pairs = gpr.pair_distances(D, kernel.length_scales)
            got = kernel.sigma_f**2 * gpr.length_scale_contraction(D, pairs, np.exp(-pairs),
                                                                   A + A.T, kernel.length_scales)
            r = squareform(pairs)
            E = np.exp(-r)
            terms = [(A + A.T) * dK for dK in _dense_length_scale_derivatives(X, r, E, kernel)]
            want = np.array([t.sum() for t in terms])
            scale = np.array([np.abs(t).sum() for t in terms])
            assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestGradientAtScale:
    def test_gradient_and_inverse_match_dense_oracle(self):
        rng = np.random.default_rng(150)
        n, d = 150, 8
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        kernel = gpr.KernelParams(sigma_f=1.3, length_scales=rng.uniform(0.5, 3.0, size=d),
                                  sigma_n=0.1)
        ratio = kernel.sigma_n / kernel.sigma_f
        _, grad, _ = gpr.log_marginal_likelihood(kernel.length_scales, ratio,
                                                 gpr.squared_differences(X), y)
        oracle = _dense_gradient(kernel.length_scales, ratio, X, y)
        assert np.linalg.norm(grad - oracle) <= 1e-10 * np.linalg.norm(oracle)

        K = gpr.kernel_matrix(X, X, kernel) + kernel.sigma_n**2 * np.eye(n)
        L = np.linalg.cholesky(K)
        K_inv = gpr.cholesky_inverse(L)
        assert np.array_equal(K_inv, K_inv.T)
        reference = cho_solve((L, True), np.eye(n))
        assert np.abs(K_inv - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_gradient_with_duplicated_rows_matches_central_differences(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(12, 3))
        X[[4, 9]] = X[2]
        y = rng.normal(size=12)
        theta = np.array([-0.2, 0.4, 0.1, -1.3])  # log sigma_n / sigma_f = -1.0 - 0.3
        _, grad, _ = _lml_at(theta, X, y)
        h = 1e-5
        fd = np.array([(_lml_at(theta + h * e, X, y)[0] - _lml_at(theta - h * e, X, y)[0]) / (2 * h)
                       for e in np.eye(theta.size)])
        assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(grad)

    def test_gradient_bits_do_not_depend_on_blas_threads(self):
        # The golden model files (n = 77) must not change with the machine's
        # core count; LAPACK potri under two OpenBLAS threads rounds otherwise.
        script = (
            "import numpy as np; from batlife import gpr\n"
            "rng = np.random.default_rng(77); X = rng.normal(size=(77, 8))\n"
            "ls = rng.uniform(0.5, 3.0, size=8)\n"
            "D = gpr.squared_differences(X)\n"
            "lml, g, s = gpr.log_marginal_likelihood(ls, 0.1 / 1.3, D, rng.normal(size=77))\n"
            "print(np.append(g, [lml, s]).tobytes().hex())\n"
        )
        outputs = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
            outputs.add(done.stdout)
        assert len(outputs) == 1

    def test_singular_factor_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            gpr.cholesky_inverse(np.zeros((3, 3)))


class TestTrain:
    def test_degenerate_targets(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(DegenerateTargetsError):
            gpr.train(X, np.full(10, 3.0))

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            gpr.train(np.zeros((1, 2)), np.array([1.0]))

    def test_non_finite_rejected(self):
        X, y = _toy_problem()
        X[0, 0] = np.nan
        with pytest.raises(ValidationError):
            gpr.train(X, y)

    def test_interpolates_linear_function(self):
        x = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
        y = x.ravel()
        model = gpr.train(x, y, gpr.GprTrainConfig(seed=0))
        mean, _ = gpr.predict(model, x)
        assert float(np.sqrt(np.mean((mean - y) ** 2))) < 1e-3

    def test_deterministic_given_seed(self):
        X, y = _toy_problem(seed=5)
        a = gpr.train(X, y, gpr.GprTrainConfig(restarts=3, seed=9))
        b = gpr.train(X, y, gpr.GprTrainConfig(restarts=3, seed=9))
        assert a.kernel.sigma_f == b.kernel.sigma_f
        assert a.kernel.sigma_n == b.kernel.sigma_n
        assert np.array_equal(a.kernel.length_scales, b.kernel.length_scales)

    def test_irrelevant_feature_gets_longer_length_scale(self):
        rng = np.random.default_rng(11)
        n = 40
        x_informative = np.linspace(-1, 1, n)
        x_noise = rng.normal(size=n)
        X = np.column_stack([x_informative, x_noise])
        y = np.sin(2.0 * x_informative) + 0.01 * rng.normal(size=n)
        model = gpr.train(X, y, gpr.GprTrainConfig(seed=2))
        assert model.kernel.length_scales[1] > model.kernel.length_scales[0]

    def test_every_restart_failing_raises(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gpr, "log_marginal_likelihood", singular)
        X, y = _toy_problem()
        with pytest.raises(SingularKernelError):
            gpr.train(X, y, gpr.GprTrainConfig(restarts=3, seed=0))

    @pytest.mark.parametrize("budget", [{"restarts": 0}, {"restarts": -2}, {"max_iters": 0}])
    def test_budget_below_one_is_refused(self, budget):
        with pytest.raises(ValidationError, match="must be at least 1") as caught:
            gpr.GprTrainConfig(**budget)
        assert isinstance(caught.value, DataError)  # exit 3

    def test_pair_cache_is_built_once_per_training(self, monkeypatch):
        # The number of caches does not grow with the optimizer's iterations.
        counts = {}
        real_cache, real_lml = gpr.squared_differences, gpr.log_marginal_likelihood

        def cache(X):
            counts["cache"] += 1
            return real_cache(X)

        def lml(*args):
            counts["lml"] += 1
            return real_lml(*args)

        monkeypatch.setattr(gpr, "squared_differences", cache)
        monkeypatch.setattr(gpr, "log_marginal_likelihood", lml)
        X, y = _toy_problem()
        seen = []
        for max_iters in (1, 500):
            counts.update(cache=0, lml=0)
            gpr.train(X, y, gpr.GprTrainConfig(restarts=2, max_iters=max_iters, seed=0))
            seen.append(dict(counts))
        assert seen[0]["cache"] == seen[1]["cache"]
        assert seen[1]["lml"] > 5 * seen[0]["lml"]

    def test_sigma_f_is_the_closed_form_maximizer(self):
        # sigma_f^2 = y^T A^-1 y / n at the trained length scales and noise ratio.
        X, y = _toy_problem(seed=4)
        model = gpr.train(X, y, gpr.GprTrainConfig(restarts=2, seed=4))
        k = model.kernel
        unit = gpr.KernelParams(sigma_f=1.0, length_scales=k.length_scales)
        A = gpr.kernel_matrix(model.X_train, model.X_train, unit)
        A += ((k.sigma_n / k.sigma_f) ** 2 + gpr.JITTER_FACTOR) * np.eye(y.size)
        y_centered = y - y.mean()
        closed_form = math.sqrt(y_centered @ np.linalg.solve(A, y_centered) / y.size)
        assert k.sigma_f == pytest.approx(closed_form, rel=1e-10)


@pytest.mark.skipif(len(gpr._blas_pools()) < 2,
                    reason="numpy's or scipy's OpenBLAS thread-count symbols are absent")
class TestOneBlasThread:
    def _counts(self):
        return [get() for get, _ in gpr._blas_pools()]

    def _set(self, counts):
        for (_, set_count), count in zip(gpr._blas_pools(), counts):
            set_count(count)

    @pytest.mark.parametrize("trainer", ["gpr", "gpc"])
    def test_one_thread_inside_the_objective_then_restored(self, monkeypatch, trainer):
        X, y = _toy_problem()
        module, train = {
            "gpr": (gpr, lambda: gpr.train(X, y, gpr.GprTrainConfig(restarts=2, max_iters=20))),
            "gpc": (gpc, lambda: gpc.train_binary(X, np.where(y > np.median(y), 1.0, -1.0),
                                                  gpc.GpcTrainConfig(restarts=2, max_iters=20))),
        }[trainer]
        seen = []

        def recording_minimize(objective, *args, **kwargs):
            def recorded(theta):
                seen.append(self._counts())
                return objective(theta)
            return minimize(recorded, *args, **kwargs)

        monkeypatch.setattr(module, "minimize", recording_minimize)
        previous = self._counts()
        self._set([2, 3])
        try:
            train()
            after = self._counts()
        finally:
            self._set(previous)
        assert len(seen) > 2
        assert seen == [[1, 1]] * len(seen)
        assert after == [2, 3]

    def test_trained_model_bytes_do_not_depend_on_the_pool_counts(self, tmp_path):
        # At n = 400 two threads round the fit differently unless training pins them.
        X, y = _toy_problem(n=400, d=8)
        config = gpr.GprTrainConfig(restarts=1, max_iters=50)
        previous = self._counts()
        built = []
        try:
            for counts in ([2, 3], [1, 1]):
                self._set(counts)
                model = gpr.train(X, y, config)
                path = tmp_path / "model.txt"
                modelio.save_model(model, path)
                built.append((path.read_bytes(), model.alpha.tobytes(),
                              model.chol_lower.tobytes()))
        finally:
            self._set(previous)
        assert built[0] == built[1]

    def test_nested_use_restores_each_level(self):
        previous = self._counts()
        self._set([2, 2])
        try:
            with gpr.one_blas_thread():
                with gpr.one_blas_thread():
                    inner = self._counts()
                middle = self._counts()
            after = self._counts()
        finally:
            self._set(previous)
        assert inner == middle == [1, 1]
        assert after == [2, 2]


class TestPredict:
    def test_empty_inputs(self):
        X, y = _toy_problem()
        model = gpr.train(X, y, gpr.GprTrainConfig(restarts=2, seed=0))
        mean, var = gpr.predict(model, np.empty((0, X.shape[1])))
        assert mean.size == 0 and var.size == 0

    def test_training_points_reproduced_at_low_noise(self):
        x = np.linspace(0.0, 1.0, 15).reshape(-1, 1)
        y = np.sin(3.0 * x.ravel())
        model = gpr.train(x, y, gpr.GprTrainConfig(seed=1))
        mean, var = gpr.predict(model, x)
        if model.kernel.sigma_n < 1e-4:
            assert np.abs(mean - y).max() < 1e-6
            assert np.all(var - model.kernel.sigma_n**2 <= 1e-6)

    def test_matches_dense_inversion_oracle(self):
        X, y = _toy_problem(n=20, d=4, seed=7)
        model = gpr.train(X, y, gpr.GprTrainConfig(restarts=3, seed=7))
        X_star = np.random.default_rng(8).normal(size=(7, 4))
        mean, var = gpr.predict(model, X_star)

        Xs = model.standardizer.transform(X)
        Xss = model.standardizer.transform(X_star)
        K = np.array([[kernel_eval(a, b, model.kernel) for b in Xs] for a in Xs])
        K_reg = K + (model.kernel.sigma_n**2 + model.jitter) * np.eye(len(y))
        K_inv = np.linalg.inv(K_reg)
        K_star = np.array([[kernel_eval(a, b, model.kernel) for b in Xss] for a in Xs])
        mean_oracle = K_star.T @ K_inv @ (y - model.y_mean) + model.y_mean
        var_oracle = (model.kernel.sigma_f**2
                      - np.einsum("ij,ji->i", K_star.T, K_inv @ K_star)
                      + model.kernel.sigma_n**2)
        assert np.abs(mean - mean_oracle).max() < 1e-8
        assert np.abs(var - var_oracle).max() < 1e-8

    def test_variance_bounded_by_prior(self):
        X, y = _toy_problem(n=25, d=3, seed=3)
        model = gpr.train(X, y, gpr.GprTrainConfig(restarts=3, seed=3))
        X_star = np.random.default_rng(4).normal(scale=3.0, size=(50, 3))
        _, var = gpr.predict(model, X_star)
        bound = model.kernel.sigma_f**2 + model.kernel.sigma_n**2
        assert np.all(var <= bound + 1e-9)

    def test_dimension_mismatch(self):
        X, y = _toy_problem()
        model = gpr.train(X, y, gpr.GprTrainConfig(restarts=2, seed=0))
        with pytest.raises(DimensionMismatchError):
            gpr.predict(model, np.zeros((2, X.shape[1] + 1)))


class TestKernelPositivity:
    def test_random_standardized_matrices_factorize(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(5, 40))
            d = int(rng.integers(1, 9))
            X = rng.normal(size=(n, d))
            X = gpr.Standardizer.fit(X).transform(X)
            kernel = gpr.KernelParams(
                sigma_f=float(rng.uniform(0.1, 100.0)),
                length_scales=rng.uniform(0.05, 20.0, size=d),
            )
            K = gpr.kernel_matrix(X, X, kernel)
            assert np.array_equal(K, K.T)
            _, jitter = gpr.factorize_with_jitter(K, kernel.sigma_f, sigma_n=0.0)
            assert jitter <= 1e-6 * kernel.sigma_f**2


class TestRelativeImportance:
    def test_uniform_length_scales(self):
        model = _model_with_scales(np.ones(4))
        assert np.allclose(gpr.relative_importance(model), 0.25)

    def test_hand_value(self):
        model = _model_with_scales(np.array([1.0, 3.0]))
        assert np.allclose(gpr.relative_importance(model), [0.25, 0.75])

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=8))
    def test_sums_to_one(self, scales):
        model = _model_with_scales(np.array(scales))
        assert gpr.relative_importance(model).sum() == pytest.approx(1.0)
        assert gpr.inverse_relative_importance(model).sum() == pytest.approx(1.0)

    def test_inverse_reading_reverses_ranking(self):
        model = _model_with_scales(np.array([1.0, 4.0]))
        direct = gpr.relative_importance(model)
        inverse = gpr.inverse_relative_importance(model)
        assert direct[1] > direct[0]
        assert inverse[1] < inverse[0]


def _model_with_scales(scales: np.ndarray) -> gpr.GprModel:
    d = scales.size
    X = np.zeros((2, d))
    X[1] = 1.0
    kernel = gpr.KernelParams(sigma_f=1.0, length_scales=scales, sigma_n=0.1)
    K = gpr.kernel_matrix(X, X, kernel)
    L, jitter = gpr.factorize_with_jitter(K, 1.0, 0.1)
    from scipy.linalg import cho_solve
    y = np.array([0.0, 1.0])
    return gpr.GprModel(kernel=kernel, X_train=X, y_train=y, y_mean=0.5,
                        chol_lower=L, alpha=cho_solve((L, True), y - 0.5),
                        standardizer=gpr.Standardizer(np.zeros(d), np.ones(d)),
                        jitter=jitter)


@st.composite
def gp_problems(draw):
    """Regression problems with n in [2, 120] and d in [1, 8], features on
    mixed scales, random kernels and, at random, the last row a copy of the
    first (r = 0 off the diagonal)."""
    n = draw(st.integers(2, 120))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * np.exp(rng.uniform(-2.0, 2.0, size=d))
    if draw(st.booleans()):
        X[-1] = X[0]
    kernel = gpr.KernelParams(
        sigma_f=math.exp(draw(st.floats(-2.0, 2.0))),
        length_scales=np.exp(rng.uniform(-2.0, 2.0, size=d)),
        sigma_n=math.exp(draw(st.floats(-6.0, 0.0))),
    )
    return X, rng.normal(size=n), kernel


class TestWrapperOracle:
    """The direct LAPACK calls give the bits of the ``scipy.linalg``
    wrapper versions kept in ``tests/conftest.py``."""

    @settings(max_examples=80, deadline=None)
    @given(gp_problems())
    def test_log_marginal_likelihood_is_bitwise_the_wrapped_one(self, problem):
        X, y, kernel = problem
        D = gpr.squared_differences(X)
        args = (kernel.length_scales, kernel.sigma_n / kernel.sigma_f, D, y)
        try:
            want_lml, want_grad, want_sigma_f = wrapped_concentrated_log_marginal_likelihood(*args)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                gpr.log_marginal_likelihood(*args)
            return
        lml, grad, sigma_f = gpr.log_marginal_likelihood(*args)
        assert lml == want_lml
        assert np.array_equal(grad, want_grad)
        assert sigma_f == want_sigma_f

    @settings(max_examples=40, deadline=None)
    @given(gp_problems())
    def test_posterior_and_predict_are_bitwise_the_wrapped_ones(self, problem):
        X, y, kernel = problem
        n, d = X.shape
        pairs = gpr.pair_distances(gpr.squared_differences(X), kernel.length_scales)
        K = kernel.sigma_f**2 * (squareform(np.exp(-pairs)) + np.eye(n))
        L, jitter = gpr.factorize_with_jitter(K, kernel.sigma_f, kernel.sigma_n)
        assert np.array_equal(L, cholesky(K + (kernel.sigma_n**2 + jitter) * np.eye(n),
                                           lower=True))
        model = gpr.posterior(kernel, X, y, 0.5, gpr.Standardizer(np.zeros(d), np.ones(d)))
        assert np.array_equal(model.alpha, cho_solve((L, True), y - 0.5))
        X_star = X[::-1] + 0.25
        K_star = gpr.kernel_matrix(X, X_star, kernel)
        v = solve_triangular(L, K_star, lower=True)
        variance = kernel.sigma_f**2 - np.einsum("ij,ij->j", v, v) + kernel.sigma_n**2
        mean, var = gpr.predict(model, X_star)
        assert np.array_equal(mean, K_star.T @ model.alpha + 0.5)
        assert np.array_equal(var, np.maximum(variance, 0.0))


def _failing_potrf(monkeypatch, fail_from: int, fail_to: float = math.inf) -> list:
    """Make LAPACK potrf report failure (info = 1) on its calls numbered
    fail_from <= k < fail_to, counted from 0. Returns the list of outcomes,
    one per call (True where it failed)."""
    calls = []

    def potrf(*args, **kwargs):
        failed = fail_from <= len(calls) < fail_to
        calls.append(failed)
        c, info = dpotrf(*args, **kwargs)
        return c, (1 if failed else info)

    monkeypatch.setattr(gpr, "dpotrf", potrf)
    return calls


class TestLapackFailure:
    def test_indefinite_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            gpr.cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            gpr.checked_lapack(dpotrf, np.array([[-1.0]]), lower=1)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_zero_on_a_factor_diagonal_raises(self, transposed):
        # trtrs would divide by the zero; it must report it instead of
        # returning inf or NaN.
        L = np.asfortranarray([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 3.0]])
        with pytest.raises(np.linalg.LinAlgError):
            gpr.solve_lower(L, np.ones(3), transposed=transposed)
        with pytest.raises(np.linalg.LinAlgError):
            gpr.solve_lower(L, np.ones((3, 2)), transposed=transposed)
        with pytest.raises(np.linalg.LinAlgError):
            gpr.cholesky_inverse(L)

    def test_failed_factorization_is_a_failed_objective(self, monkeypatch):
        # The first restart's first evaluation fails: that restart ends at
        # FAILED_OBJECTIVE, and the others still train the model.
        X, y = _toy_problem()
        results = []
        real_minimize = gpr.minimize

        def recording_minimize(*args, **kwargs):
            results.append(real_minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(gpr, "minimize", recording_minimize)
        calls = _failing_potrf(monkeypatch, 0, 1)
        model = gpr.train(X, y, gpr.GprTrainConfig(restarts=3, seed=0))
        assert calls[0] and not any(calls[1:])
        assert results[0].fun == gpr.FAILED_OBJECTIVE
        assert all(result.fun < gpr.FAILED_OBJECTIVE for result in results[1:])
        assert np.all(np.isfinite(gpr.predict(model, X)[0]))

    def test_every_factorization_failing_is_a_singular_kernel(self, monkeypatch):
        X, y = _toy_problem()
        calls = _failing_potrf(monkeypatch, 0)
        with pytest.raises(SingularKernelError) as caught:
            gpr.train(X, y, gpr.GprTrainConfig(restarts=3, seed=0))
        assert isinstance(caught.value, NumericalError)  # exit 4
        assert len(calls) >= 3 and all(calls)


class TestNonFiniteFeatures:
    def test_predict_refuses_a_nan_row(self):
        X, y = _toy_problem()
        model = gpr.train(X, y, gpr.GprTrainConfig(restarts=1, seed=0))
        X_star = X[:4].copy()
        X_star[2, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite") as caught:
            gpr.predict(model, X_star)
        assert isinstance(caught.value, DataError)  # exit 3
        with pytest.raises(ValidationError, match="non-finite"):
            gpr.predict(model, np.array([np.inf, 0.0, 0.0]))

    def test_train_names_features_and_targets_apart(self):
        X, y = _toy_problem()
        X_bad = X.copy()
        X_bad[3, 0] = np.inf
        with pytest.raises(ValidationError, match="features contain non-finite"):
            gpr.train(X_bad, y)
        y_bad = y.copy()
        y_bad[3] = np.nan
        with pytest.raises(ValidationError, match="targets contain non-finite"):
            gpr.train(X, y_bad)
