import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        loaded, _ = modelio.load_model(path)
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
        _, meta = modelio.load_model(path)
        assert meta == modelio.read_model_meta(path)
        assert meta == {"feature_set": "NOVEL_PRED", "truncate": "full"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            modelio.load_model(tmp_path / "absent.txt")

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(SchemaError):
            modelio.load_model(path)


# Finite floats with the awkward spellings: subnormal, signed zero, long repr.
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1 / 3, 0.1, 2.0 ** -40]),
                   st.floats(-10.0, 10.0))
NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True)


def _arrays(data, shape, elements, label):
    count = int(np.prod(shape))
    return np.array(data.draw(st.lists(elements, min_size=count, max_size=count), label=label),
                    dtype=float).reshape(shape)


class TestGprRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 30), d=st.integers(1, 8), named=st.booleans(),
           meta=st.dictionaries(NAMES, st.from_regex(r"[A-Za-z0-9_.+-]{1,10}", fullmatch=True),
                                max_size=3),
           data=st.data())
    def test_every_array_and_prediction_bitwise(self, n, d, named, meta, data):
        positive = st.floats(0.05, 20.0)
        kernel = gpr.KernelParams(sigma_f=data.draw(positive, label="sigma_f"),
                                  length_scales=_arrays(data, (d,), positive, "length_scales"),
                                  sigma_n=data.draw(st.floats(1e-3, 2.0), label="sigma_n"))
        standardizer = gpr.Standardizer(mean=_arrays(data, (d,), VALUES, "mean"),
                                        scale=_arrays(data, (d,), positive, "scale"))
        names = data.draw(st.lists(NAMES, min_size=d, max_size=d).map(tuple), label="names")
        model = gpr.posterior(kernel, _arrays(data, (n, d), VALUES, "X"),
                              _arrays(data, (n,), VALUES, "y"), data.draw(VALUES, label="y_mean"),
                              standardizer, names if named else None)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.txt"
            modelio.save_model(model, path, meta=meta)
            loaded, loaded_meta = modelio.load_model(path)
            assert loaded_meta == modelio.read_model_meta(path) == meta
        for field in ("X_train", "y_train", "chol_lower", "alpha"):
            assert getattr(loaded, field).tobytes() == getattr(model, field).tobytes(), field
        for a, b in [(loaded.kernel, model.kernel), (loaded.standardizer, model.standardizer)]:
            for field in vars(a):
                assert np.asarray(getattr(a, field)).tobytes() == \
                    np.asarray(getattr(b, field)).tobytes(), field
        assert np.float64(loaded.y_mean).tobytes() == np.float64(model.y_mean).tobytes()
        assert (loaded.jitter, loaded.feature_names) == (model.jitter, model.feature_names)
        X_star = _arrays(data, (3, d), VALUES, "X_star")
        for a, b in zip(gpr.predict(loaded, X_star), gpr.predict(model, X_star)):
            assert a.tobytes() == b.tobytes()


class TestLayout:
    def test_plain_key_value_file(self, tmp_path):
        model, _ = _trained_gpr()
        path = tmp_path / "model.txt"
        modelio.save_model(model, path, meta={"truncate": "full"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# kind=model"
        assert [line.partition(" = ")[0] for line in lines[1:]] == [
            "format", "kind", "meta.truncate", "feature_names", "x_mean", "x_scale",
            "sigma_f", "sigma_n", "length_scales", "y_mean", "X", "y"]
        assert lines[1:3] == ["format = batlife-model v2", "kind = gpr"]

    def test_dag_keys(self, tmp_path):
        dag, _ = _trained_dag()
        path = tmp_path / "dag.txt"
        modelio.save_model(dag, path)
        keys = [line.partition(" = ")[0] for line in path.read_text().splitlines()[1:]]
        stage_keys = ["positive_label", "negative_label", "sigma_f", "length_scales", "X", "y"]
        assert keys == ["format", "kind", "x_mean", "x_scale", *(
            f"{stage}.{key}" for stage in modelio.DAG_STAGES for key in stage_keys)]

    def test_v1_file_refused(self, tmp_path):
        path = tmp_path / "v1.txt"
        path.write_text("# kind=model\nbatlife-model v1 kind=gpr\nsigma_f = 1.0\nn = 1\n"
                        "X 0.5\ny = 1.0\n")
        with pytest.raises(SchemaError, match="not a batlife-model v2 file"):
            modelio.load_model(path)


class TestDagSerialization:
    def test_roundtrip_classifications_identical(self, tmp_path):
        dag, X = _trained_dag()
        path = tmp_path / "dag.txt"
        modelio.save_model(dag, path)
        loaded, _ = modelio.load_model(path)
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
        loaded, _ = modelio.load_model(path)
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
