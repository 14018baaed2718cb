import numpy as np
import pytest

from batlife import gpc, gpr, modelio
from batlife.errors import SchemaError

from conftest import mode_stationarity


def _trained_gpr(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(15, 3))
    y = X @ np.array([2.0, -1.0, 0.5]) + 0.05 * rng.normal(size=15)
    return gpr.train(X, y, gpr.GprTrainConfig(restarts=2, seed=seed),
                     feature_names=("a", "b", "c")), X


def _assert_binaries_equal(a, b):
    for field in ("X_train", "y_train", "f_hat", "grad_at_mode", "sqrt_w", "chol_b"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.evidence == b.evidence
    assert (a.positive_label, a.negative_label) == (b.positive_label, b.negative_label)


def _trained_dag(seed=0):
    rng = np.random.default_rng(seed)
    X, labels = [], []
    for label, center in [(gpc.LifetimeLabel.SHORT, -3.0),
                          (gpc.LifetimeLabel.MEDIUM, 0.0),
                          (gpc.LifetimeLabel.LONG, 3.0)]:
        X.append(rng.normal(center, 0.4, size=(10, 1)))
        labels.extend([label] * 10)
    X = np.vstack(X)
    return gpc.train_dag(X, labels, gpc.GpcTrainConfig(restarts=2, seed=seed)), X


class TestGprSerialization:
    def test_roundtrip_predictions_identical(self, tmp_path):
        model, X = _trained_gpr()
        path = tmp_path / "model.txt"
        modelio.save_model(model, path, header_comment="batlife v0 fingerprint=test")
        loaded = modelio.load_model(path)
        assert loaded.kernel.sigma_f == model.kernel.sigma_f
        assert loaded.kernel.sigma_n == model.kernel.sigma_n
        assert np.array_equal(loaded.kernel.length_scales, model.kernel.length_scales)
        assert loaded.feature_names == model.feature_names
        assert np.array_equal(loaded.chol_lower, model.chol_lower)
        assert np.array_equal(loaded.alpha, model.alpha)
        assert loaded.jitter == model.jitter
        X_star = np.random.default_rng(5).normal(size=(6, 3))
        m0, v0 = gpr.predict(model, X_star)
        m1, v1 = gpr.predict(loaded, X_star)
        assert np.array_equal(m0, m1)
        assert np.array_equal(v0, v1)

    def test_meta_roundtrip(self, tmp_path):
        model, _ = _trained_gpr()
        path = tmp_path / "model.txt"
        modelio.save_model(model, path, meta={"feature_set": "NOVEL_PRED", "truncate": "full"})
        meta = modelio.read_model_meta(path)
        assert meta == {"feature_set": "NOVEL_PRED", "truncate": "full"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            modelio.load_model(tmp_path / "absent.txt")

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(SchemaError):
            modelio.load_model(path)


class TestDagSerialization:
    def test_roundtrip_classifications_identical(self, tmp_path):
        dag, X = _trained_dag()
        path = tmp_path / "dag.txt"
        modelio.save_model(dag, path)
        loaded = modelio.load_model(path)
        for stage in ("stage1", "stage2_long", "stage2_short"):
            _assert_binaries_equal(getattr(loaded, stage), getattr(dag, stage))
        rng = np.random.default_rng(3)
        for _ in range(15):
            x = rng.normal(0.0, 3.0, size=1)
            assert gpc.classify(loaded, x) == gpc.classify(dag, x)

    def test_mode_recomputed_on_load(self, tmp_path):
        dag, _ = _trained_dag()
        path = tmp_path / "dag.txt"
        modelio.save_model(dag, path)
        loaded = modelio.load_model(path)
        assert mode_stationarity(loaded.stage1) < 1e-8
        assert np.allclose(loaded.stage1.f_hat, dag.stage1.f_hat, atol=1e-9)

    def test_truncated_file_rejected(self, tmp_path):
        dag, _ = _trained_dag()
        path = tmp_path / "dag.txt"
        modelio.save_model(dag, path)
        lines = path.read_text().splitlines()
        (tmp_path / "cut.txt").write_text("\n".join(lines[:len(lines) // 2]) + "\n")
        with pytest.raises(SchemaError):
            modelio.load_model(tmp_path / "cut.txt")
