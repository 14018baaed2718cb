"""Plain-text model serialization.

Versioned key/value format with matrix rows spelled out as comma-joined
floats (spelled by ``textio``), so a save/load round trip is exact.
Factorizations and posterior modes are recomputed on load rather than
stored.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .gpc import BinaryGpc, LifeDag, posterior_binary
from .gpr import GprModel, KernelParams, Standardizer, posterior
from .textio import spell, spell_floats

FORMAT_HEADER = "batlife-model v1"


def _floats(values) -> str:
    return ",".join(spell_floats(values))


def _parse_floats(text: str) -> np.ndarray:
    if not text:
        return np.empty(0)
    return np.array([float(tok) for tok in text.split(",")])


def save_model(
    model, path, header_comment: str | None = None, meta: dict[str, str] | None = None
) -> None:
    """Serialize a model; ``meta`` records extraction settings alongside it."""
    path = Path(path)
    lines: list[str] = []
    if header_comment:
        lines.append(f"# {header_comment}")
    if isinstance(model, GprModel):
        lines.append(f"{FORMAT_HEADER} kind=gpr")
        body = _gpr_lines(model)
    elif isinstance(model, LifeDag):
        lines.append(f"{FORMAT_HEADER} kind=life-dag")
        body = _dag_lines(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    for key in sorted(meta or {}):
        lines.append(f"meta.{key} = {meta[key]}")
    lines.extend(body)
    path.write_text("\n".join(lines) + "\n")


def read_model_meta(path) -> dict[str, str]:
    """The ``meta.*`` key/value pairs stored next to a serialized model."""
    _, body = _read_model(path)
    meta_lines = list(itertools.takewhile(lambda line: line.startswith("meta."), body))
    fields, _ = _split_fields(meta_lines, path)
    return {key.removeprefix("meta."): value for key, value in fields.items()}


def _gpr_lines(model: GprModel) -> list[str]:
    lines = []
    if model.feature_names:
        lines.append("feature_names = " + ",".join(model.feature_names))
    lines.append(f"sigma_f = {spell(model.kernel.sigma_f)}")
    lines.append(f"sigma_n = {spell(model.kernel.sigma_n)}")
    lines.append("length_scales = " + _floats(model.kernel.length_scales))
    lines.append("x_mean = " + _floats(model.standardizer.mean))
    lines.append("x_scale = " + _floats(model.standardizer.scale))
    lines.append(f"y_mean = {spell(model.y_mean)}")
    lines.append(f"n = {model.n_train}")
    for row in model.X_train:
        lines.append("X " + _floats(row))
    lines.append("y = " + _floats(model.y_train))
    return lines


def _binary_lines(name: str, model: BinaryGpc) -> list[str]:
    lines = [f"begin binary {name}"]
    lines.append(f"positive_label = {model.positive_label}")
    lines.append(f"negative_label = {model.negative_label}")
    lines.append(f"sigma_f = {spell(model.kernel.sigma_f)}")
    lines.append("length_scales = " + _floats(model.kernel.length_scales))
    lines.append(f"n = {model.X_train.shape[0]}")
    for row in model.X_train:
        lines.append("X " + _floats(row))
    lines.append("y = " + _floats(model.y_train))
    lines.append("end binary")
    return lines


def _dag_lines(dag: LifeDag) -> list[str]:
    lines = []
    if dag.feature_names:
        lines.append("feature_names = " + ",".join(dag.feature_names))
    lines.append("x_mean = " + _floats(dag.standardizer.mean))
    lines.append("x_scale = " + _floats(dag.standardizer.scale))
    lines.extend(_binary_lines("stage1", dag.stage1))
    lines.extend(_binary_lines("stage2_long", dag.stage2_long))
    lines.extend(_binary_lines("stage2_short", dag.stage2_short))
    return lines


def _read_model(path) -> tuple[str, list[str]]:
    """The model kind from the format line, and the lines after it."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"no such model file: {path}")
    lines = [
        line for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    if not lines or not lines[0].startswith(FORMAT_HEADER):
        raise SchemaError(f"{path}: not a {FORMAT_HEADER} file")
    return lines[0].partition("kind=")[2].strip(), lines[1:]


def load_model(path):
    """Load a serialized model; the kind is read from the format header."""
    kind, body = _read_model(path)
    if kind == "gpr":
        return _load_gpr(body, path)
    if kind == "life-dag":
        return _load_dag(body, path)
    raise SchemaError(f"{path}: unknown model kind {kind!r}")


class _Fields(dict):
    """A model file's ``key = value`` fields; reading an absent one is a schema error."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, key):
        raise SchemaError(f"{self.path}: missing model field {key!r}")


def _split_fields(body: list[str], path) -> tuple[_Fields, list[np.ndarray]]:
    fields = _Fields(path)
    rows: list[np.ndarray] = []
    for line in body:
        if line.startswith("X "):
            rows.append(_parse_floats(line[2:]))
        elif "=" in line:
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
        else:
            raise SchemaError(f"{path}: unparseable model line {line!r}")
    return fields, rows


def _load_gpr(body: list[str], path) -> GprModel:
    fields, rows = _split_fields(body, path)
    kernel = KernelParams(
        sigma_f=float(fields["sigma_f"]),
        length_scales=_parse_floats(fields["length_scales"]),
        sigma_n=float(fields["sigma_n"]),
    )
    standardizer = Standardizer(
        mean=_parse_floats(fields["x_mean"]),
        scale=_parse_floats(fields["x_scale"]),
    )
    y = _parse_floats(fields["y"])
    y_mean = float(fields["y_mean"])
    n = int(fields["n"])
    if len(rows) != n or y.size != n:
        raise SchemaError(f"{path}: expected {n} training rows, found {len(rows)}")
    X = np.vstack(rows) if rows else np.empty((0, kernel.n_features))
    names = tuple(fields["feature_names"].split(",")) if "feature_names" in fields else None
    return posterior(kernel, X, y, y_mean, standardizer, names)


def _load_binary(block: list[str], path) -> BinaryGpc:
    fields, rows = _split_fields(block, path)
    kernel = KernelParams(
        sigma_f=float(fields["sigma_f"]),
        length_scales=_parse_floats(fields["length_scales"]),
    )
    y = _parse_floats(fields["y"])
    n = int(fields["n"])
    if len(rows) != n or y.size != n:
        raise SchemaError(f"{path}: binary block expected {n} rows, found {len(rows)}")
    return posterior_binary(
        kernel, np.vstack(rows), y,
        fields.get("positive_label", "+1"), fields.get("negative_label", "-1"),
    )


def _load_dag(body: list[str], path) -> LifeDag:
    preamble: list[str] = []
    blocks: dict[str, list[str]] = {}
    current: str | None = None
    for line in body:
        if line.startswith("begin binary "):
            current = line.removeprefix("begin binary ").strip()
            blocks[current] = []
        elif line == "end binary":
            current = None
        elif current is not None:
            blocks[current].append(line)
        else:
            preamble.append(line)
    fields, _ = _split_fields(preamble, path)
    missing = {"stage1", "stage2_long", "stage2_short"} - set(blocks)
    if missing:
        raise SchemaError(f"{path}: DAG file missing binary blocks {sorted(missing)}")
    standardizer = Standardizer(
        mean=_parse_floats(fields["x_mean"]),
        scale=_parse_floats(fields["x_scale"]),
    )
    names = tuple(fields["feature_names"].split(",")) if "feature_names" in fields else None
    return LifeDag(
        stage1=_load_binary(blocks["stage1"], path),
        stage2_long=_load_binary(blocks["stage2_long"], path),
        stage2_short=_load_binary(blocks["stage2_short"], path),
        standardizer=standardizer,
        feature_names=names,
    )
