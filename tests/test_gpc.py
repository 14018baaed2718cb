import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.spatial.distance import squareform
from scipy.special import expit

from batlife import gpc, gpr
from batlife.dataset import SOH_EOL
from batlife.errors import DataError, NoConvergenceError, NumericalError, ValidationError
from batlife.gpc import (
    GpcTrainConfig,
    LifetimeLabel,
    NCA_POLICY,
    NCM_POLICY,
    classify,
    label_sample,
    laplace_evidence,
    predict_binary,
    threshold,
    train_binary,
    train_dag,
)
from batlife.gpr import KernelParams

from conftest import mode_stationarity, wrapped_find_mode, wrapped_laplace_evidence


class TestThreshold:
    def test_fresh_cell_values(self):
        assert threshold(NCA_POLICY, 1.0) == (450.0, 180.0)
        assert threshold(NCM_POLICY, 1.0) == (800.0, 200.0)

    def test_linear_scaling(self):
        upper, lower = threshold(NCA_POLICY, 0.9)
        assert upper == pytest.approx(225.0)
        assert lower == pytest.approx(90.0)

    def test_out_of_domain(self):
        with pytest.raises(DataError, match="lifetime thresholds are defined for soh > SOH_EOL"):
            threshold(NCA_POLICY, 0.8)
        with pytest.raises(DataError, match="lifetime thresholds are defined for soh > SOH_EOL"):
            threshold(NCA_POLICY, 0.5)

    def test_policy_ordering_enforced(self):
        with pytest.raises(ValidationError):
            gpc.ThresholdPolicy(upper_at_soh1=100.0, lower_at_soh1=200.0)

    def test_scale_reaches_zero_at_end_of_life(self):
        # The thresholds scale by (soh - SOH_EOL) / (1 - SOH_EOL).
        for soh in np.linspace(SOH_EOL, 1.2, 401)[1:]:
            upper, lower = threshold(NCA_POLICY, soh)
            scale = (soh - SOH_EOL) / (1.0 - SOH_EOL)
            assert upper == pytest.approx(450.0 * scale, rel=1e-12, abs=1e-9)
            assert lower == pytest.approx(180.0 * scale, rel=1e-12, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.801, max_value=1.2))
    def test_upper_stays_above_lower(self, soh):
        upper, lower = threshold(NCA_POLICY, soh)
        assert upper > lower > 0


class TestLabelSample:
    def test_examples(self):
        assert label_sample(500.0, (450.0, 180.0)) is LifetimeLabel.LONG
        assert label_sample(180.0, (450.0, 180.0)) is LifetimeLabel.MEDIUM
        assert label_sample(100.0, (450.0, 180.0)) is LifetimeLabel.SHORT

    def test_upper_boundary_is_medium(self):
        assert label_sample(450.0, (450.0, 180.0)) is LifetimeLabel.MEDIUM

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            label_sample(-1.0, (450.0, 180.0))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2000.0, allow_nan=False))
    def test_partition(self, rul):
        # every remaining life maps to exactly one label
        label = label_sample(rul, (450.0, 180.0))
        expected = (LifetimeLabel.LONG if rul > 450.0
                    else LifetimeLabel.SHORT if rul < 180.0
                    else LifetimeLabel.MEDIUM)
        assert label is expected


def _mirror_data(n_side=8, d=1, scale=1.5, spread=0.4, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(scale, spread, size=(n_side, d))
    X = np.vstack([pos, -pos])
    y = np.concatenate([np.ones(n_side), -np.ones(n_side)])
    return X, y


class TestTrainBinary:
    def test_one_class_only(self):
        X = np.zeros((4, 2))
        with pytest.raises(DataError, match="binary training data must contain both classes"):
            train_binary(X, np.ones(4))

    def test_bad_labels(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            train_binary(X, np.array([1.0, 0.5, -1.0, 1.0]))

    def test_separated_classes_sign_agreement(self):
        X, y = _mirror_data(seed=3)
        model = train_binary(X, y, GpcTrainConfig(restarts=2, seed=0))
        probs = predict_binary(model, X)
        assert np.all((probs > 0.5) == (y > 0))

    def test_deterministic(self):
        X, y = _mirror_data(seed=5)
        a = train_binary(X, y, GpcTrainConfig(restarts=2, seed=1))
        b = train_binary(X, y, GpcTrainConfig(restarts=2, seed=1))
        assert a.kernel.sigma_f == b.kernel.sigma_f
        assert np.array_equal(a.kernel.length_scales, b.kernel.length_scales)
        assert np.array_equal(a.f_hat, b.f_hat)

    def test_mode_stationarity(self):
        X, y = _mirror_data(n_side=10, seed=7)
        model = train_binary(X, y, GpcTrainConfig(restarts=2, seed=0))
        assert mode_stationarity(model) < 1e-8

    def test_evidence_gradient_matches_central_differences(self):
        rng = np.random.default_rng(13)
        X, y = _mirror_data(n_side=7, d=2, seed=13)
        for _ in range(6):
            theta = np.concatenate(([rng.uniform(-0.5, 1.0)], rng.uniform(-1, 1, size=2)))

            def kernel_of(t):
                return KernelParams(sigma_f=math.exp(t[0]), length_scales=np.exp(t[1:]))

            D = gpr.squared_differences(X)
            _, _, grad = laplace_evidence(kernel_of(theta), D, y, with_grad=True)
            fd = np.zeros_like(theta)
            h = 1e-6
            for i in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (laplace_evidence(kernel_of(up), D, y)[0]
                         - laplace_evidence(kernel_of(down), D, y)[0]) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
            assert rel < 1e-5

    def test_evidence_gradient_with_duplicated_rows_matches_central_differences(self):
        X, y = _mirror_data(n_side=7, d=3, seed=29)
        X[[1, 3]] = X[0]
        X[9] = X[8]
        theta = np.array([0.4, 0.2, -0.3, 0.5])

        def evidence(t):
            kernel = KernelParams(sigma_f=math.exp(t[0]), length_scales=np.exp(t[1:]))
            return laplace_evidence(kernel, gpr.squared_differences(X), y, with_grad=True)

        grad = evidence(theta)[2]
        h = 1e-6
        fd = np.array([(evidence(theta + h * e)[0] - evidence(theta - h * e)[0]) / (2 * h)
                       for e in np.eye(theta.size)])
        assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(grad)

    def test_pair_cache_is_built_once_per_training(self, monkeypatch):
        # The number of caches does not grow with the optimizer's iterations.
        counts = {}
        real_cache, real_evidence = gpc.squared_differences, gpc.laplace_evidence

        def cache(X):
            counts["cache"] += 1
            return real_cache(X)

        def evidence(*args, **kwargs):
            counts["evidence"] += 1
            return real_evidence(*args, **kwargs)

        monkeypatch.setattr(gpc, "squared_differences", cache)
        monkeypatch.setattr(gpc, "laplace_evidence", evidence)
        X, y = _mirror_data(n_side=10, d=2, seed=7)
        seen = []
        for max_iters in (1, 500):
            counts.update(cache=0, evidence=0)
            train_binary(X, y, GpcTrainConfig(restarts=2, max_iters=max_iters, seed=0))
            seen.append(dict(counts))
        assert seen[0]["cache"] == seen[1]["cache"]
        assert seen[1]["evidence"] > 5 * seen[0]["evidence"]

    def test_each_restart_finds_its_first_mode_cold(self, monkeypatch):
        # The warm-started mode search never carries one restart's mode into the next.
        real_minimize, real_evidence = gpr.minimize, gpc.laplace_evidence
        warm_starts = []

        def minimize(*args, **kwargs):
            warm_starts.append([])
            return real_minimize(*args, **kwargs)

        def evidence(*args, f0=None, **kwargs):
            warm_starts[-1].append(f0 is not None)
            return real_evidence(*args, f0=f0, **kwargs)

        monkeypatch.setattr(gpr, "minimize", minimize)
        monkeypatch.setattr(gpc, "laplace_evidence", evidence)
        X, y = _mirror_data(n_side=6, d=2, seed=5)
        train_binary(X, y, GpcTrainConfig(restarts=3, max_iters=20, seed=0))
        assert len(warm_starts) == 3
        assert all(run[0] is False and len(run) > 1 and all(run[1:]) for run in warm_starts)

    @pytest.mark.parametrize("failure", [np.linalg.LinAlgError, NoConvergenceError])
    def test_every_restart_failing_raises(self, monkeypatch, failure):
        def failing(*args, **kwargs):
            raise failure("evidence unavailable")

        monkeypatch.setattr(gpc, "laplace_evidence", failing)
        X, y = _mirror_data(seed=3)
        with pytest.raises(NumericalError, match="no restart produced a usable kernel"):
            train_binary(X, y, GpcTrainConfig(restarts=2, seed=0))

    @pytest.mark.parametrize("budget", [{"restarts": 0}, {"restarts": -2}, {"max_iters": 0}])
    def test_budget_below_one_is_refused(self, budget):
        with pytest.raises(ValidationError, match="must be at least 1") as caught:
            GpcTrainConfig(**budget)
        assert isinstance(caught.value, DataError)  # exit 3


class TestPredictBinary:
    def test_mirror_symmetry_gives_half(self):
        X, y = _mirror_data(seed=11)
        model = train_binary(X, y, GpcTrainConfig(restarts=2, seed=0))
        assert predict_binary(model, np.zeros(1)) == pytest.approx(0.5, abs=1e-6)

    def test_deep_inside_cluster(self):
        # Constructed at fixed moderate hyperparameters: evidence-trained
        # kernels inflate the signal variance on separable toys, and the
        # Laplace approximation then caps probabilities near 0.85 (its
        # well-known conservatism).
        X, y = _mirror_data(n_side=25, spread=0.25, seed=17)
        kernel = KernelParams(sigma_f=4.0, length_scales=np.array([1.5]))
        model = gpc.posterior_binary(kernel, X, y)
        assert predict_binary(model, np.array([1.5])) > 0.9

    def test_trained_model_confident_side(self):
        X, y = _mirror_data(seed=11)
        model = train_binary(X, y, GpcTrainConfig(restarts=2, seed=0))
        assert predict_binary(model, np.array([1.5])) > 0.8

    def test_probabilities_strictly_inside_unit_interval(self):
        X, y = _mirror_data(seed=2)
        model = train_binary(X, y, GpcTrainConfig(restarts=2, seed=0))
        points = np.linspace(-50.0, 50.0, 41).reshape(-1, 1)
        probs = predict_binary(model, points)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_dimension_mismatch(self):
        X, y = _mirror_data(seed=2)
        model = train_binary(X, y, GpcTrainConfig(restarts=2, seed=0))
        with pytest.raises(DataError, match="expected 1 features, got 3"):
            predict_binary(model, np.zeros(3))

    def test_quadrature_matches_monte_carlo(self):
        # The latent Gaussian at each test point is known in closed form
        # from the Laplace fit; push one million antithetic normal draws
        # through the sigmoid as the reference.
        X, y = _mirror_data(n_side=10, seed=17)
        model = train_binary(X, y, GpcTrainConfig(restarts=2, seed=0))
        mc_rng = np.random.default_rng(99)
        z = mc_rng.normal(size=500_000)
        for x_val in np.linspace(-2.5, 2.5, 8):
            x = np.array([x_val])
            p_quad = predict_binary(model, x)
            K_star = model.kernel.sigma_f**2 * np.exp(
                -np.abs((model.X_train - x).ravel()) / model.kernel.length_scales[0]
            )
            mean = K_star @ model.grad_at_mode
            v = solve_triangular(model.chol_b, model.sqrt_w * K_star, lower=True)
            var = max(model.kernel.sigma_f**2 - v @ v, 0.0)
            draws = np.concatenate([mean + math.sqrt(var) * z, mean - math.sqrt(var) * z])
            p_mc = float(expit(draws).mean())
            assert p_quad == pytest.approx(p_mc, abs=1e-3)


def _three_cluster_data(n_per=15, seed=0, spread=0.35):
    rng = np.random.default_rng(seed)
    centers = {LifetimeLabel.SHORT: -3.0, LifetimeLabel.MEDIUM: 0.0, LifetimeLabel.LONG: 3.0}
    X, labels = [], []
    for label, center in centers.items():
        X.append(rng.normal(center, spread, size=(n_per, 1)))
        labels.extend([label] * n_per)
    return np.vstack(X), labels


class TestDag:
    def test_routing_prefers_long_branch(self, monkeypatch):
        dag = _stub_dag()
        outputs = {id(dag.stage1): 0.9, id(dag.stage2_long): 0.8, id(dag.stage2_short): 0.1}
        monkeypatch.setattr(gpc, "predict_binary", lambda m, x: outputs[id(m)])
        label, prob = classify(dag, np.zeros(1))
        assert label is LifetimeLabel.LONG
        assert prob == 0.8

    def test_routing_short_branch_to_medium(self, monkeypatch):
        dag = _stub_dag()
        outputs = {id(dag.stage1): 0.2, id(dag.stage2_long): 0.9, id(dag.stage2_short): 0.3}
        monkeypatch.setattr(gpc, "predict_binary", lambda m, x: outputs[id(m)])
        label, prob = classify(dag, np.zeros(1))
        assert label is LifetimeLabel.MEDIUM
        assert prob == pytest.approx(0.7)

    def test_stage2_tie_routes_to_medium(self, monkeypatch):
        dag = _stub_dag()
        outputs = {id(dag.stage1): 0.9, id(dag.stage2_long): 0.5, id(dag.stage2_short): 0.5}
        monkeypatch.setattr(gpc, "predict_binary", lambda m, x: outputs[id(m)])
        label, _ = classify(dag, np.zeros(1))
        assert label is LifetimeLabel.MEDIUM

    def test_label_invariant_under_monotone_probability_rescale(self, monkeypatch):
        # Any rescaling of stage-2 probabilities preserving the 0.5 crossing
        # leaves the label unchanged.
        dag = _stub_dag()
        for p2 in (0.55, 0.7, 0.95):
            outputs = {id(dag.stage1): 0.8, id(dag.stage2_long): p2, id(dag.stage2_short): 0.5}
            monkeypatch.setattr(gpc, "predict_binary", lambda m, x: outputs[id(m)])
            label, _ = classify(dag, np.zeros(1))
            assert label is LifetimeLabel.LONG

    def test_three_clusters_classified(self):
        X, labels = _three_cluster_data(seed=23)
        dag = train_dag(X, labels, GpcTrainConfig(restarts=2, seed=0))
        rng = np.random.default_rng(5)
        centers = [(-3.0, LifetimeLabel.SHORT), (0.0, LifetimeLabel.MEDIUM),
                   (3.0, LifetimeLabel.LONG)]
        hits = total = 0
        for center, expected in centers:
            for _ in range(20):
                x = np.array([rng.normal(center, 0.35)])
                label, prob = classify(dag, x)
                hits += label is expected
                total += 1
                assert 0.0 < prob < 1.0
        assert hits / total >= 0.95

    def test_missing_class_raises(self):
        X, labels = _three_cluster_data(seed=1)
        two_class = [l if l is not LifetimeLabel.LONG else LifetimeLabel.MEDIUM
                     for l in labels]
        with pytest.raises(DataError, match="need both Long and Short samples"):
            train_dag(X, two_class, GpcTrainConfig(restarts=2, seed=0))

    def test_dimension_checked(self):
        X, labels = _three_cluster_data(seed=2)
        dag = train_dag(X, labels, GpcTrainConfig(restarts=2, seed=0))
        with pytest.raises(DataError, match="expected a vector of length 1"):
            classify(dag, np.zeros(2))


def _stub_dag() -> gpc.LifeDag:
    X, y = _mirror_data(n_side=4, seed=0)
    model = train_binary(X, y, GpcTrainConfig(restarts=1, max_iters=20, seed=0))
    from batlife.gpr import Standardizer
    # three distinct binary objects so routing can be monkeypatched by id
    m2 = train_binary(X, y, GpcTrainConfig(restarts=1, max_iters=20, seed=1))
    m3 = train_binary(X, y, GpcTrainConfig(restarts=1, max_iters=20, seed=2))
    return gpc.LifeDag(stage1=model, stage2_long=m2, stage2_short=m3,
                       standardizer=Standardizer(np.zeros(1), np.ones(1)))


@st.composite
def classification_problems(draw):
    """Binary problems with n in [2, 120] and d in [1, 8], random kernels,
    random labels holding both classes, at random a duplicated row (r = 0
    off the diagonal) and a random warm start."""
    n = draw(st.integers(2, 120))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d))
    if draw(st.booleans()):
        X[-1] = X[0]
    y = rng.choice([-1.0, 1.0], size=n)
    y[:2] = (1.0, -1.0)
    kernel = KernelParams(sigma_f=math.exp(draw(st.floats(-2.0, 3.0))),
                          length_scales=np.exp(rng.uniform(-2.0, 2.0, size=d)))
    f0 = 3.0 * rng.normal(size=n) if draw(st.booleans()) else None
    return X, y, kernel, f0


class TestWrapperOracle:
    """The direct LAPACK calls and reused temporaries give the bits of the
    ``scipy.linalg`` wrapper versions kept in ``tests/conftest.py``."""

    @settings(max_examples=60, deadline=None)
    @given(classification_problems())
    def test_mode_and_evidence_are_bitwise_the_wrapped_ones(self, problem):
        X, y, kernel, f0 = problem
        D = gpr.squared_differences(X)
        pairs = gpr.pair_distances(D, kernel.length_scales)
        K = kernel.sigma_f**2 * (squareform(np.exp(-pairs)) + np.eye(y.size))
        try:
            want_mode = wrapped_find_mode(K, y, f0)
        except (np.linalg.LinAlgError, NoConvergenceError) as exc:
            with pytest.raises(type(exc)):
                gpc._find_mode(K, y, f0)
            return
        want = wrapped_laplace_evidence(kernel, D, y, f0, with_grad=True)
        for got, expected in zip(gpc._find_mode(K, y, f0), want_mode):
            assert np.array_equal(got, expected)
        evidence, f_hat, grad = laplace_evidence(kernel, D, y, f0, with_grad=True)
        assert evidence == want[0]
        assert np.array_equal(f_hat, want[1])
        assert np.array_equal(grad, want[2])
        assert laplace_evidence(kernel, D, y, f0)[0] == want[0]

    @settings(max_examples=30, deadline=None)
    @given(classification_problems())
    def test_predict_is_bitwise_the_wrapped_one(self, problem):
        X, y, kernel, _ = problem
        model = gpc.posterior_binary(kernel, X, y)
        X_star = X[::-1] + 0.25
        got = predict_binary(model, X_star)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gpc, "solve_lower",
                          lambda L, b: solve_triangular(L, b, lower=True))
            assert np.array_equal(got, predict_binary(model, X_star))


class TestNonFiniteFeatures:
    """NaN or inf features are refused as data (exit 3), not passed to LAPACK."""

    def test_train_binary_refuses_a_nan_feature(self):
        X, y = _mirror_data(seed=3)
        X[5, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite") as caught:
            train_binary(X, y, GpcTrainConfig(restarts=1, seed=0))
        assert isinstance(caught.value, DataError)

    def test_predict_binary_refuses_a_nan_row(self):
        X, y = _mirror_data(seed=3)
        model = gpc.posterior_binary(KernelParams(sigma_f=2.0, length_scales=np.ones(1)), X, y)
        with pytest.raises(ValidationError, match="non-finite"):
            predict_binary(model, np.array([np.nan]))
        with pytest.raises(ValidationError, match="non-finite"):
            predict_binary(model, np.array([[0.5], [np.inf]]))

    def test_train_dag_refuses_a_nan_feature(self):
        X, labels = _three_cluster_data()
        X[7, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            train_dag(X, labels, GpcTrainConfig(restarts=1, seed=0))
