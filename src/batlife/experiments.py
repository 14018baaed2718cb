"""Evaluation metrics, experiment drivers, and report files.

Three experiment drivers cover the study designs the library exists for:

* ``run_rul_experiment`` - remaining-useful-life regression with mixed
  operating conditions pooled per chemistry, reported per condition;
* ``run_truncation_sweep`` - the same regression repeated with the
  relaxation transient truncated to fewer samples (shorter rest
  observation);
* ``run_classification_experiment`` - three-way life classification
  trained on an aging-stage window of cycles around a test cycle.

Every report stores its per-sample predictions; every derived table
(metrics, and the truncation sweep or the classification confusion counts)
is computed from those rows by ``derive_tables``, which makes reports
self-verifying: re-reading a report directory and recomputing must
reproduce the stored tables exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import CellHistory, Chemistry, DatasetSplit, SOH_EOL
from .ecm import MIN_FIT_SAMPLES
from .errors import (
    EmptyInputError,
    EmptyWindowError,
    LengthMismatchError,
    SchemaError,
    ValidationError,
    ZeroEolError,
)
from .features import (
    FEATURE_NAMES,
    FeatureSet,
    FeatureVector,
    WindowMode,
    WindowSpec,
    assemble,
    feature_cycles,
)
from .gpc import (
    GpcTrainConfig,
    LifetimeLabel,
    NCA_POLICY,
    NCM_POLICY,
    ThresholdPolicy,
    classify,
    label_sample,
    threshold,
    train_dag,
)
from .gpr import (
    GprTrainConfig,
    inverse_relative_importance,
    predict,
    relative_importance,
    train,
)
from .textio import (
    fingerprint,
    header_comment,
    parse_value,
    read_keys,
    read_table,
    spell,
    write_keys,
    write_table,
)

ALL = "ALL"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def rmse(y, y_hat) -> float:
    """Root-mean-square error between observed and predicted values."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.size != y_hat.size:
        raise LengthMismatchError(f"lengths differ: {y.size} vs {y_hat.size}")
    if y.size == 0:
        raise EmptyInputError("rmse of an empty sample set")
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def mape(y, y_hat, eol) -> float:
    """Mean absolute percentage error with the end-of-life cycle as denominator.

    Normalizing by each sample's observed EOL (not its remaining life)
    keeps late-life samples, whose remaining life approaches zero, from
    dominating the percentage.
    """
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    eol = np.asarray(eol, dtype=float)
    if not (y.size == y_hat.size == eol.size):
        raise LengthMismatchError(
            f"lengths differ: {y.size}, {y_hat.size}, {eol.size}"
        )
    if y.size == 0:
        raise EmptyInputError("mape of an empty sample set")
    if np.any(eol <= 0):
        raise ZeroEolError("every end-of-life denominator must be positive")
    return float(np.mean(np.abs(y - y_hat) / eol) * 100.0)


# ---------------------------------------------------------------------------
# Sample construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RulSample:
    features: FeatureVector
    rul: float
    soh: float
    condition: str
    chemistry: Chemistry
    cell_id: str
    cycle: int
    eol: int

    def __post_init__(self):
        if self.rul < 0:
            raise ValidationError("remaining life cannot be negative")
        if not (0.0 < self.soh <= 1.2):
            raise ValidationError(f"state of health {self.soh:.3f} outside (0, 1.2]")


def build_rul_samples(
    cells: dict[str, CellHistory],
    ids,
    feature_set: FeatureSet,
    window: WindowSpec,
    truncate: int | None,
    stride: int,
    caches: dict[str, dict],
    first: int = 1,
    last: int | None = None,
) -> list[RulSample]:
    """Labeled regression samples for the chosen cells, in deterministic order.

    Cells that never reach end of life carry no supervised target and are
    skipped. The candidates are the cycles ``feature_cycles`` admits from
    ``first`` to ``last``, capped at each cell's end-of-life cycle; samples
    at or below ``SOH_EOL`` are excluded.
    """
    samples: list[RulSample] = []
    for cell_id in sorted(ids):
        history = cells[cell_id]
        if history.eol_cycle is None:
            continue
        cache = caches.setdefault(cell_id, {})
        stop = history.eol_cycle if last is None else min(last, history.eol_cycle)
        for m in feature_cycles(history, window, stride, first=first, last=stop):
            soh = history.soh(m)
            if soh <= SOH_EOL:
                continue
            fv = assemble(history, m, window, feature_set,
                          truncate=truncate, fit_cache=cache)
            samples.append(RulSample(
                features=fv,
                rul=float(history.eol_cycle - m),
                soh=soh,
                condition=history.condition,
                chemistry=history.chemistry,
                cell_id=cell_id,
                cycle=m,
                eol=history.eol_cycle,
            ))
    return samples


def build_classification_samples(
    cells: dict[str, CellHistory],
    ids,
    feature_set: FeatureSet,
    test_cycle: int,
    window_cycles: int,
    policy: ThresholdPolicy,
    stride: int,
    caches: dict[str, dict],
) -> list[tuple[RulSample, LifetimeLabel]]:
    """Adjacent-cycle samples within the aging-stage window, with labels.

    The window spans [test_cycle - window/2, test_cycle + window/2]; labels
    come from the SOH-scaled thresholds evaluated at each sample's own SOH.
    """
    samples = build_rul_samples(
        cells, ids, feature_set, WindowSpec(mode=WindowMode.ADJACENT), None, stride, caches,
        first=test_cycle - window_cycles // 2, last=test_cycle + window_cycles // 2,
    )
    return [(s, label_sample(s.rul, threshold(policy, s.soh))) for s in samples]


def feature_matrix(samples: list[RulSample]) -> np.ndarray:
    """The samples' feature vectors as the rows of one matrix."""
    return np.vstack([s.features.as_array() for s in samples])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    kind: str
    fingerprint: str
    config: dict[str, str]
    tables: dict[str, list[dict]] = field(default_factory=dict)

    def write(self, outdir) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        comment = header_comment(self.fingerprint, kind=self.kind)
        for name, rows in self.tables.items():
            if rows:
                columns = list(rows[0])
                write_table(outdir / f"{name}.csv", [f"{comment} table={name}"], columns,
                            ([spell(row[c]) for c in columns] for row in rows))
        write_keys(outdir / "summary.txt", comment, [
            ("kind", self.kind), ("fingerprint", self.fingerprint),
            *((f"config.{key}", self.config[key]) for key in sorted(self.config)),
        ])


def read_report(outdir) -> ExperimentReport:
    outdir = Path(outdir)
    summary = read_keys(outdir / "summary.txt", SchemaError)
    config = {key.removeprefix("config."): value for key, value in summary.items()
              if key.startswith("config.")}
    tables: dict[str, list[dict]] = {}
    for path in sorted(outdir.glob("*.csv")):
        _, header, rows = read_table(path)
        tables[path.stem] = [dict(zip(header, map(parse_value, row))) for row in rows]
    return ExperimentReport(
        kind=summary.get("kind", ""), fingerprint=summary.get("fingerprint", ""),
        config=config, tables=tables,
    )


# ---------------------------------------------------------------------------
# Metric derivation (single source for runners and verification)
# ---------------------------------------------------------------------------

def _group_rows(rows: list[dict], keys: tuple[str, ...]) -> dict[tuple, list[dict]]:
    grouped: dict[tuple, list[dict]] = {}
    for row in rows:
        grouped.setdefault(tuple(row[k] for k in keys), []).append(row)
    return grouped


def _rul_metric_rows(predictions: list[dict], extra_keys: tuple[str, ...] = ()) -> list[dict]:
    metric_rows: list[dict] = []
    for scope_keys in (
        extra_keys + ("feature_set", "chemistry", "condition"),
        extra_keys + ("feature_set", "chemistry"),
        extra_keys + ("feature_set",),
    ):
        for scope, rows in _group_rows(predictions, scope_keys).items():
            entry = dict(zip(scope_keys, scope))
            entry.setdefault("chemistry", ALL)
            entry.setdefault("condition", ALL)
            y = [r["rul_observed"] for r in rows]
            y_hat = [r["rul_predicted"] for r in rows]
            eol = [r["eol_cycles"] for r in rows]
            metric_rows.append({
                **{k: entry[k] for k in extra_keys},
                "feature_set": entry["feature_set"],
                "chemistry": entry["chemistry"],
                "condition": entry["condition"],
                "n_samples": len(rows),
                "rmse_cycles": rmse(y, y_hat),
                "mape_pct": mape(y, y_hat, eol),
            })
    return metric_rows


def _classification_metric_rows(predictions: list[dict]) -> list[dict]:
    metric_rows: list[dict] = []
    for scope_keys in (("feature_set", "condition"), ("feature_set",)):
        for scope, rows in _group_rows(predictions, scope_keys).items():
            entry = dict(zip(scope_keys, scope))
            entry.setdefault("condition", ALL)
            correct = [r["correct"] for r in rows]
            metric_rows.append({
                "feature_set": entry["feature_set"],
                "condition": entry["condition"],
                "n_samples": len(rows),
                "accuracy_pct": 100.0 * float(np.mean(correct)),
            })
    return metric_rows


def _confusion_rows(predictions: list[dict]) -> list[dict]:
    rows: list[dict] = []
    labels = [l.value for l in LifetimeLabel]
    for (feature_set,), preds in _group_rows(predictions, ("feature_set",)).items():
        counts = {(a, b): 0 for a in labels for b in labels}
        for row in preds:
            counts[(row["label_observed"], row["label_predicted"])] += 1
        for observed in labels:
            for predicted in labels:
                rows.append({
                    "feature_set": feature_set,
                    "observed": observed,
                    "predicted": predicted,
                    "count": counts[(observed, predicted)],
                })
    return rows


def _sweep_rows(metric_rows: list[dict], interval_s: float) -> list[dict]:
    return [{
        "feature_set": row["feature_set"],
        "relax_samples": row["relax_samples"],
        "relaxation_time_s": row["relax_samples"] * interval_s,
        "rmse_cycles": row["rmse_cycles"],
        "mape_pct": row["mape_pct"],
    } for row in metric_rows if row["chemistry"] == ALL and row["condition"] == ALL]


def derive_tables(report: ExperimentReport) -> dict[str, list[dict]]:
    """Every table derived from the stored per-sample predictions.

    ``metrics`` for each kind, plus ``sweep`` for a truncation report (its
    relaxation times use the config's ``sampling_interval_s``) and
    ``confusion`` for a classification report.
    """
    predictions = report.tables.get("predictions", [])
    if report.kind == "rul":
        return {"metrics": _rul_metric_rows(predictions)}
    if report.kind == "truncation":
        try:
            interval = float(report.config["sampling_interval_s"])
        except (KeyError, ValueError):
            raise SchemaError(
                "truncation report config has no numeric sampling_interval_s"
            ) from None
        metrics = _rul_metric_rows(predictions, extra_keys=("relax_samples",))
        return {"sweep": _sweep_rows(metrics, interval), "metrics": metrics}
    if report.kind == "classification":
        return {"confusion": _confusion_rows(predictions),
                "metrics": _classification_metric_rows(predictions)}
    raise ValidationError(f"unknown report kind {report.kind!r}")


def verify_report(report: ExperimentReport) -> bool:
    """True when the fingerprint is its config's and every stored derived
    table matches a recomputation from predictions."""
    return report.fingerprint == fingerprint(report.config) and all(
        report.tables.get(name, []) == rows for name, rows in derive_tables(report).items())


# ---------------------------------------------------------------------------
# Experiment configurations
# ---------------------------------------------------------------------------

@dataclass
class RulExperimentConfig:
    feature_sets: tuple[FeatureSet, ...] = (FeatureSet.NOVEL_PRED,)
    window_start: int = 1
    truncate: int | None = None
    stride: int = 1
    seed: int = 0
    restarts: int = 5
    max_iters: int = 500

    def __post_init__(self):
        self.gpr_config()  # refuses a restart or iteration budget below 1

    def window(self) -> WindowSpec:
        return WindowSpec(mode=WindowMode.FIXED_REFERENCE, reference_cycle=self.window_start)

    def gpr_config(self) -> GprTrainConfig:
        return GprTrainConfig(restarts=self.restarts, max_iters=self.max_iters, seed=self.seed)

    def to_dict(self) -> dict[str, str]:
        return {
            "experiment": "rul",
            "feature_sets": ",".join(fs.value for fs in self.feature_sets),
            "window_start": str(self.window_start),
            "truncate": "full" if self.truncate is None else str(self.truncate),
            "stride": str(self.stride),
            "soh_floor": spell(SOH_EOL),
            "seed": str(self.seed),
            "restarts": str(self.restarts),
            "max_iters": str(self.max_iters),
        }


@dataclass
class ClassificationConfig:
    feature_sets: tuple[FeatureSet, ...] = (FeatureSet.NOVEL_CLASS,)
    chemistry: Chemistry = Chemistry.NCA
    test_cycle: int = 100
    window_cycles: int = 100
    stride: int = 1
    seed: int = 0
    restarts: int = 3
    max_iters: int = 200
    allow_ncm_nca: bool = False

    def __post_init__(self):
        self.gpc_config()  # refuses a restart or iteration budget below 1

    @property
    def threshold_policy(self) -> ThresholdPolicy:
        """NCM cells get the NCM thresholds, every other chemistry the NCA ones."""
        return NCM_POLICY if self.chemistry is Chemistry.NCM else NCA_POLICY

    def gpc_config(self) -> GpcTrainConfig:
        return GpcTrainConfig(restarts=self.restarts, max_iters=self.max_iters, seed=self.seed)

    def to_dict(self) -> dict[str, str]:
        policy = self.threshold_policy
        return {
            "experiment": "classification",
            "feature_sets": ",".join(fs.value for fs in self.feature_sets),
            "chemistry": self.chemistry.value,
            "test_cycle": str(self.test_cycle),
            "window_cycles": str(self.window_cycles),
            "policy_upper": spell(policy.upper_at_soh1),
            "policy_lower": spell(policy.lower_at_soh1),
            "stride": str(self.stride),
            "soh_floor": spell(SOH_EOL),
            "seed": str(self.seed),
            "restarts": str(self.restarts),
            "max_iters": str(self.max_iters),
        }


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _cells_by_id(cells: list[CellHistory]) -> dict[str, CellHistory]:
    return {c.cell_id: c for c in cells}


def run_rul_experiment(
    cells: list[CellHistory],
    split: DatasetSplit,
    config: RulExperimentConfig,
    caches: dict[str, dict] | None = None,
) -> ExperimentReport:
    """Mixed-condition regression: one model per chemistry, pooled conditions.

    Per-condition metrics come from filtering test samples after pooled
    training, and all metrics pool samples (they are not per-cell averages).
    """
    by_id = _cells_by_id(cells)
    chemistries = sorted({c.chemistry for c in cells}, key=lambda ch: ch.value)
    caches = {} if caches is None else caches
    window = config.window()

    predictions: list[dict] = []
    importance_rows: list[dict] = []
    for feature_set in config.feature_sets:
        for chemistry in chemistries:
            train_ids = [cid for cid in split.train
                         if by_id[cid].chemistry is chemistry]
            test_ids = [cid for cid in split.test
                        if by_id[cid].chemistry is chemistry]
            if not train_ids or not test_ids:
                continue
            train_samples = build_rul_samples(
                by_id, train_ids, feature_set, window, config.truncate,
                config.stride, caches,
            )
            test_samples = build_rul_samples(
                by_id, test_ids, feature_set, window, config.truncate,
                config.stride, caches,
            )
            if not train_samples or not test_samples:
                continue
            names = FEATURE_NAMES[feature_set]
            model = train(
                feature_matrix(train_samples),
                np.array([s.rul for s in train_samples]),
                config.gpr_config(),
                feature_names=names,
            )
            mean, variance = predict(model, feature_matrix(test_samples))
            for sample, mu, var in zip(test_samples, mean, variance):
                predictions.append({
                    "feature_set": feature_set.value,
                    "chemistry": chemistry.value,
                    "condition": sample.condition,
                    "cell_id": sample.cell_id,
                    "cycle": sample.cycle,
                    "soh": sample.soh,
                    "eol_cycles": sample.eol,
                    "rul_observed": sample.rul,
                    "rul_predicted": float(mu),
                    "rul_predicted_var": float(var),
                })
            weights = relative_importance(model)
            inverse = inverse_relative_importance(model)
            for name, ls, w, wi in zip(names, model.kernel.length_scales, weights, inverse):
                importance_rows.append({
                    "feature_set": feature_set.value,
                    "chemistry": chemistry.value,
                    "feature": name,
                    "length_scale": float(ls),
                    "weight_by_length_scale": float(w),
                    "weight_by_inverse_length_scale": float(wi),
                })
    if not predictions:
        raise EmptyInputError("experiment produced no test predictions")

    cfg = config.to_dict()
    report = ExperimentReport(
        kind="rul",
        fingerprint=fingerprint(cfg),
        config=cfg,
        tables={"predictions": predictions, "importance": importance_rows},
    )
    report.tables.update(derive_tables(report))
    return report


def run_truncation_sweep(
    cells: list[CellHistory],
    split: DatasetSplit,
    config: RulExperimentConfig,
    sample_counts: list[int | None],
) -> ExperimentReport:
    """Repeat the regression at several relaxation lengths.

    ``sample_counts`` entries are retained sample counts (None = the full
    transient). The reported relaxation time follows the sampling-budget
    convention count * interval, so every cell must share one relaxation
    grid (sampling interval and full sample count); mixed grids raise
    ``ValidationError``.
    """
    for count in sample_counts:
        if count is not None and count < MIN_FIT_SAMPLES:
            raise ValidationError(
                f"truncation below {MIN_FIT_SAMPLES} samples cannot support the circuit fit")
    grids = {(cell.sampling_interval_s, cell.voltages_v.shape[1]) for cell in cells}
    if len(grids) > 1:
        raise ValidationError(
            "truncation sweep needs one relaxation grid across cells, got "
            + ", ".join(f"{n} samples every {dt:g} s" for dt, n in sorted(grids))
        )
    interval, full_count = grids.pop() if grids else (0.0, 0)
    caches: dict[str, dict] = {}
    predictions: list[dict] = []
    importance_rows: list[dict] = []
    for count in sample_counts:
        sub_config = replace(config, truncate=count)
        sub_report = run_rul_experiment(cells, split, sub_config, caches=caches)
        retained = full_count if count is None else count
        for row in sub_report.tables["predictions"]:
            predictions.append({"relax_samples": retained, **row})
        for row in sub_report.tables["importance"]:
            importance_rows.append({"relax_samples": retained, **row})

    cfg = config.to_dict()
    cfg["experiment"] = "truncation"
    cfg["sample_counts"] = ",".join(
        "full" if c is None else str(c) for c in sample_counts
    )
    cfg["sampling_interval_s"] = spell(interval)
    report = ExperimentReport(
        kind="truncation",
        fingerprint=fingerprint(cfg),
        config=cfg,
        tables={"predictions": predictions, "importance": importance_rows},
    )
    report.tables.update(derive_tables(report))
    return report


def run_classification_experiment(
    cells: list[CellHistory],
    split: DatasetSplit,
    config: ClassificationConfig,
) -> ExperimentReport:
    """Aging-stage-windowed three-way classification for one chemistry.

    Training and evaluation both draw samples from the cycle window around
    the test cycle (training cells train the DAG, test cells are routed
    through it); the predictions table doubles as the per-SOH probability
    scatter since each row carries (soh, probability, correct).
    """
    if config.chemistry is Chemistry.NCM_NCA and not config.allow_ncm_nca:
        raise ValidationError(
            "NCM+NCA cells are excluded from life classification by default; "
            "set allow_ncm_nca to override"
        )
    by_id = _cells_by_id(cells)
    policy = config.threshold_policy
    caches: dict[str, dict] = {}

    train_ids = [cid for cid in split.train if by_id[cid].chemistry is config.chemistry]
    test_ids = [cid for cid in split.test if by_id[cid].chemistry is config.chemistry]

    predictions: list[dict] = []
    for feature_set in config.feature_sets:
        train_pairs = build_classification_samples(
            by_id, train_ids, feature_set, config.test_cycle, config.window_cycles,
            policy, config.stride, caches,
        )
        if not train_pairs:
            raise EmptyWindowError(
                f"no training samples in cycles "
                f"[{config.test_cycle - config.window_cycles // 2}, "
                f"{config.test_cycle + config.window_cycles // 2}]"
            )
        test_pairs = build_classification_samples(
            by_id, test_ids, feature_set, config.test_cycle, config.window_cycles,
            policy, config.stride, caches,
        )
        X = feature_matrix([s for s, _ in train_pairs])
        labels = [label for _, label in train_pairs]
        dag = train_dag(X, labels, config.gpc_config(),
                        feature_names=FEATURE_NAMES[feature_set])
        for sample, observed in test_pairs:
            predicted, probability = classify(dag, sample.features.as_array())
            predictions.append({
                "feature_set": feature_set.value,
                "condition": sample.condition,
                "cell_id": sample.cell_id,
                "cycle": sample.cycle,
                "soh": sample.soh,
                "rul_observed": sample.rul,
                "label_observed": observed.value,
                "label_predicted": predicted.value,
                "probability": float(probability),
                "correct": int(predicted is observed),
            })
    if not predictions:
        raise EmptyInputError("classification produced no test predictions")

    cfg = config.to_dict()
    report = ExperimentReport(
        kind="classification",
        fingerprint=fingerprint(cfg),
        config=cfg,
        tables={"predictions": predictions},
    )
    report.tables.update(derive_tables(report))
    return report
