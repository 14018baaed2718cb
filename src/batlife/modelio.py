"""Model files: what ``train-rul``/``train-class`` save and ``predict-rul``/``classify`` load.

A model file is a ``textio`` ``key = value`` file. After its ``# `` header
line come ``format = batlife-model v2``, ``kind = gpr`` or ``kind =
life-dag``, the sorted ``meta.<key>`` settings, ``feature_names`` (when
set), ``x_mean`` and ``x_scale``. A regressor then stores ``sigma_f``,
``sigma_n``, ``length_scales``, ``y_mean``, ``X`` (the standardized
training inputs, row-major in one list) and ``y``; a DAG stores
``<stage>.positive_label``, ``<stage>.negative_label``, ``<stage>.sigma_f``,
``<stage>.length_scales``, ``<stage>.X`` and ``<stage>.y`` for each of its
three stages. Numbers are spelled by ``spell_floats`` and read back by
``parse_floats``, so a round trip is exact. Factorizations and posterior
modes are recomputed on load rather than stored. A missing field, a number
that does not parse or is not finite, arrays whose sizes disagree and
parameters the models refuse (a classifier label that is not -1 or +1
among them) raise ``SchemaError`` or ``ValidationError`` naming the file
and the field.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError
from .gpc import BinaryGpc, LifeDag, posterior_binary
from .gpr import GprModel, KernelParams, Standardizer, posterior
from .textio import parse_floats, read_keys, spell, spell_floats, write_keys

FORMAT = "batlife-model v2"
DAG_STAGES = ("stage1", "stage2_long", "stage2_short")


def _floats(values) -> str:
    return ",".join(spell_floats(values))


def save_model(
    model, path, header_comment: str | None = None, meta: dict[str, str] | None = None
) -> None:
    """Serialize a model; ``meta`` records extraction settings alongside it."""
    if isinstance(model, GprModel):
        kind = "gpr"
        body = [("sigma_f", spell(model.kernel.sigma_f)), ("sigma_n", spell(model.kernel.sigma_n)),
                ("length_scales", _floats(model.kernel.length_scales)),
                ("y_mean", spell(model.y_mean)), ("X", _floats(model.X_train)),
                ("y", _floats(model.y_train))]
    elif isinstance(model, LifeDag):
        kind = "life-dag"
        body = [item for stage in DAG_STAGES
                for item in _binary_items(stage, getattr(model, stage))]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    meta = meta or {}
    names = [("feature_names", ",".join(model.feature_names))] if model.feature_names else []
    write_keys(path, header_comment or "kind=model", [
        ("format", FORMAT), ("kind", kind),
        *((f"meta.{key}", spell(meta[key])) for key in sorted(meta)), *names,
        ("x_mean", _floats(model.standardizer.mean)),
        ("x_scale", _floats(model.standardizer.scale)), *body,
    ])


def _binary_items(stage: str, model: BinaryGpc) -> list[tuple[str, str]]:
    return [(f"{stage}.positive_label", model.positive_label),
            (f"{stage}.negative_label", model.negative_label),
            (f"{stage}.sigma_f", spell(model.kernel.sigma_f)),
            (f"{stage}.length_scales", _floats(model.kernel.length_scales)),
            (f"{stage}.X", _floats(model.X_train)), (f"{stage}.y", _floats(model.y_train))]


class _Fields:
    """The fields of one model file; every refusal names the file and the field."""

    def __init__(self, path):
        self.path = Path(path)
        if not self.path.exists():
            raise SchemaError(f"no such model file: {self.path}")
        try:
            self.values = read_keys(self.path, SchemaError)
        except SchemaError as exc:  # a v1 file's matrix rows hold no '='
            raise SchemaError(f"not a {FORMAT} file: {exc}") from None
        if self.values.get("format") != FORMAT:
            raise SchemaError(f"{self.path}: not a {FORMAT} file")

    def text(self, key: str) -> str:
        if key not in self.values:
            raise SchemaError(f"{self.path}: missing model field {key!r}")
        return self.values[key]

    def floats(self, key: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
        """The numbers of ``key``, reshaped to ``shape`` when given (they must fill it)."""
        values = parse_floats(self.text(key), f"{self.path} field {key!r}")
        if shape is None:
            return values
        if values.size != np.prod(shape):
            raise ValidationError(f"{self.path} field {key!r}: {values.size} numbers, "
                                  f"not the {' x '.join(map(str, shape)) or 1} expected")
        return values.reshape(shape)

    def make(self, cls, what: str, **kwargs):
        """``cls(**kwargs)``; a ``ValidationError`` it raises names the file and ``what``."""
        try:
            return cls(**kwargs)
        except ValidationError as exc:
            raise ValidationError(f"{self.path} {what}: {exc}") from None

    def meta(self) -> dict[str, str]:
        """The ``meta.*`` key/value pairs, keys without the prefix."""
        return {key.removeprefix("meta."): value
                for key, value in self.values.items() if key.startswith("meta.")}


def read_model_meta(path) -> dict[str, str]:
    """The ``meta.*`` key/value pairs stored next to a serialized model,
    without building the model (``load_model`` returns both from one read)."""
    return _Fields(path).meta()


def load_model(path):
    """Load a serialized model and its ``meta.*`` pairs from one read of the
    file: returns ``(model, meta)``. The ``kind`` field says which model."""
    fields = _Fields(path)
    return _build_model(fields), fields.meta()


def _build_model(fields: _Fields):
    kind = fields.text("kind")
    if kind not in ("gpr", "life-dag"):
        raise SchemaError(f"{fields.path}: unknown model kind {kind!r}")
    d = fields.floats("length_scales" if kind == "gpr" else "stage1.length_scales").size
    standardizer = fields.make(Standardizer, "field 'x_scale'", mean=fields.floats("x_mean", (d,)),
                               scale=fields.floats("x_scale", (d,)))
    names = fields.values.get("feature_names")
    names = None if names is None else tuple(names.split(","))
    if names is not None and len(names) != d:
        raise ValidationError(f"{fields.path} field 'feature_names': {len(names)} names, "
                              f"not the {d} expected")
    if kind == "gpr":
        kernel = fields.make(KernelParams, "kernel",
                             sigma_f=float(fields.floats("sigma_f", ())),
                             length_scales=fields.floats("length_scales"),
                             sigma_n=float(fields.floats("sigma_n", ())))
        y = fields.floats("y")
        return posterior(kernel, fields.floats("X", (y.size, d)), y,
                         float(fields.floats("y_mean", ())), standardizer, names)
    return LifeDag(*(_load_binary(fields, stage, d) for stage in DAG_STAGES),
                   standardizer=standardizer, feature_names=names)


def _load_binary(fields: _Fields, stage: str, d: int) -> BinaryGpc:
    kernel = fields.make(KernelParams, f"{stage} kernel",
                         sigma_f=float(fields.floats(f"{stage}.sigma_f", ())),
                         length_scales=fields.floats(f"{stage}.length_scales", (d,)))
    y = fields.floats(f"{stage}.y")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError(f"{fields.path} field '{stage}.y': labels must be -1 or +1")
    return posterior_binary(kernel, fields.floats(f"{stage}.X", (y.size, d)), y,
                            fields.text(f"{stage}.positive_label"),
                            fields.text(f"{stage}.negative_label"))
