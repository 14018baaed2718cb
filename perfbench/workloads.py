"""The benchmark's workloads: inputs, the timed run and its correctness gate.

Each workload is a fixed, seeded configuration of the public library or
CLI. Set-up builds the inputs; the timed run goes from inputs to a
verified output; scoring, outside the timed run, yields an ``Outcome``:
the acceptance-level quality numbers, every failed check, and a digest of
the output bytes.

Fleet and split seeds default to the acceptance seeds of
``tests/test_acceptance.py``; perfbench/README.md names a held-out pair per
workload that passes the same gate. The benchmark's ``--seed`` only sets
the order in which the cells reach the program (list order in memory,
manifest order on disk). The acceptance floors are statistical: on a
scaled-down fleet they hold for some fleet seeds and not others, so the
fleet itself stays on seeds checked to pass.

Sizes are scaled down from the acceptance configurations (a criterion-7
run takes about a minute on two cores) so that one run finishes in a few
seconds and a benchmark invocation can take the median of several.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Program functions are called through their modules, never bound here by
# name, so that the tracer's wrappers (installed after this import) see them.
from batlife import cli, dataset, experiments, simgen
from batlife.dataset import Chemistry
from batlife.experiments import ALL, ClassificationConfig, RulExperimentConfig
from batlife.features import FeatureSet


@dataclass(frozen=True)
class Seeds:
    fleet: int
    split: int


@dataclass
class Outcome:
    """What one timed run produced, checked."""

    quality: dict[str, float]
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    facts: dict[str, int] = field(default_factory=dict)


@dataclass
class Produced:
    """What a library workload's timed run leaves for scoring: the report as
    read back from disk, whether ``verify_report`` passed on it, and (rul)
    the number of fit-cache entries."""

    report: object
    verified: bool
    fit_cache_entries: int = 0


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fleet_shape(cells) -> dict[str, int]:
    return {"cells": len(cells), "cycles": sum(c.n_cycles for c in cells)}


def _split(cells, counts: tuple[int, int], seed: int):
    """Seeded split with the same train/test counts in every condition."""
    spec = {cond: counts for cond in sorted({c.condition for c in cells})}
    return dataset.split_dataset(cells, spec, seed=seed)


def _mean_lifetime(cells) -> float:
    return float(np.mean([c.eol_cycle for c in cells if c.eol_cycle is not None]))


def _write_and_verify(report, outdir: Path) -> Produced:
    """Write the report, read it back and verify it (the program's own check)."""
    report.write(outdir)
    back = experiments.read_report(outdir)
    return Produced(back, experiments.verify_report(back))


def _verify_problems(produced: Produced) -> list[str]:
    if produced.verified:
        return []
    return ["verify_report: stored metrics differ from recomputation"]


def _overall(rows: list[dict]) -> dict[str, dict]:
    """Feature set -> its metrics row pooled over chemistries and conditions."""
    return {row["feature_set"]: row for row in rows
            if row.get("chemistry", ALL) == ALL and row["condition"] == ALL}


# ---------------------------------------------------------------------------
# Library workloads: the three experiment drivers on an in-memory fleet
# ---------------------------------------------------------------------------

# README study: four feature sets, split 3/2 per condition.
RUL_FLEET = {"cells_per_condition": 5}
RUL_SPLIT = (3, 2)
RUL_CONFIG = RulExperimentConfig(
    feature_sets=(FeatureSet.ECM, FeatureSet.STATS, FeatureSet.BENCHMARK, FeatureSet.NOVEL_PRED),
    stride=40, seed=0, restarts=5, max_iters=500,
)

# Criterion-8 style sweep on a noiseless fleet, counts from 6 to full.
TRUNCATION_FLEET = {"cells_per_condition": 4, "noise_sigma_v": 0.0}
TRUNCATION_SPLIT = (2, 2)
TRUNCATION_CONFIG = RulExperimentConfig(
    feature_sets=(FeatureSet.NOVEL_PRED,), stride=48, seed=0, restarts=4, max_iters=400,
)
TRUNCATION_COUNTS = [6, None]

# Criterion-9 aging-window classification: adjacent cycles, stride 1.
CLASSIFICATION_FLEET = {"cells_per_condition": 5, "fade_refs": (150.0, 400.0, 1000.0),
                        "temperatures": (25, 35, 45)}
CLASSIFICATION_SPLIT = (3, 2)
CLASSIFICATION_CONFIG = ClassificationConfig(
    feature_sets=(FeatureSet.NOVEL_CLASS,), chemistry=Chemistry.NCA,
    test_cycle=60, window_cycles=10, stride=1, seed=0, restarts=2, max_iters=150,
)


def fleet(fleet_kwargs: dict, seeds: Seeds, order_seed: int):
    cells = simgen.benchmark_fleet(seed=seeds.fleet, **fleet_kwargs)
    random.Random(order_seed).shuffle(cells)
    return cells


def run_rul(cells, seeds: Seeds, outdir: Path) -> Produced:
    split = _split(cells, RUL_SPLIT, seeds.split)
    caches: dict[str, dict] = {}
    report = experiments.run_rul_experiment(cells, split, RUL_CONFIG, caches=caches)
    produced = _write_and_verify(report, outdir)
    produced.fit_cache_entries = sum(len(c) for c in caches.values())
    return produced


def score_rul(cells, produced: Produced, outdir: Path) -> Outcome:
    """Criterion-7 floor: NOVEL_PRED RMSE <= 10% of mean lifetime, below ECM."""
    problems = _verify_problems(produced)
    back = produced.report
    overall = _overall(back.tables["metrics"])
    novel = overall["NOVEL_PRED"]["rmse_cycles"]
    state_only = overall["ECM"]["rmse_cycles"]
    floor = 0.10 * _mean_lifetime(cells)
    if not novel <= floor:
        problems.append(f"NOVEL_PRED RMSE {novel:.2f} above floor {floor:.2f}")
    if not novel < state_only:
        problems.append(f"NOVEL_PRED RMSE {novel:.2f} not below ECM {state_only:.2f}")
    blocks = {(r["feature_set"], r["chemistry"]) for r in back.tables["importance"]}
    return Outcome(
        quality={"rmse_cycles": novel, "floor": floor, "quality_margin": floor / novel},
        problems=problems,
        digest=digest(list(outdir.iterdir())),
        facts={"fit_cache_entries": produced.fit_cache_entries,
               "importance_blocks": len(blocks)},
    )


def run_truncation(cells, seeds: Seeds, outdir: Path) -> Produced:
    split = _split(cells, TRUNCATION_SPLIT, seeds.split)
    report = experiments.run_truncation_sweep(cells, split, TRUNCATION_CONFIG, TRUNCATION_COUNTS)
    return _write_and_verify(report, outdir)


def score_truncation(cells, produced: Produced, outdir: Path) -> Outcome:
    """Criterion-8 floor: RMSE at 6 samples <= 2x the full-transient RMSE;
    and, as an absolute floor the margin is measured against, RMSE at 6
    samples <= 10% of mean lifetime (the criterion-7 floor)."""
    problems = _verify_problems(produced)
    back = produced.report
    by_count = {row["relax_samples"]: row["rmse_cycles"] for row in back.tables["sweep"]}
    shortest = by_count[min(by_count)]
    relative = 2.0 * by_count[max(by_count)]
    floor = 0.10 * _mean_lifetime(cells)
    if not shortest <= relative:
        problems.append(f"RMSE {shortest:.2f} at {min(by_count)} samples above 2x full "
                        f"{relative:.2f}")
    if not shortest <= floor:
        problems.append(f"RMSE {shortest:.2f} at {min(by_count)} samples above floor {floor:.2f}")
    blocks = {(r["relax_samples"], r["feature_set"], r["chemistry"])
              for r in back.tables["importance"]}
    return Outcome(
        quality={"rmse_cycles": shortest, "rmse_cycles_full": by_count[max(by_count)],
                 "floor": floor, "quality_margin": floor / shortest},
        problems=problems,
        digest=digest(list(outdir.iterdir())),
        facts={"importance_blocks": len(blocks)},
    )


def run_classification(cells, seeds: Seeds, outdir: Path) -> Produced:
    split = _split(cells, CLASSIFICATION_SPLIT, seeds.split)
    report = experiments.run_classification_experiment(cells, split, CLASSIFICATION_CONFIG)
    return _write_and_verify(report, outdir)


def score_classification(cells, produced: Produced, outdir: Path) -> Outcome:
    """Criterion-9 floor: overall DAG accuracy >= 90%."""
    problems = _verify_problems(produced)
    back = produced.report
    accuracy = _overall(back.tables["metrics"])["NOVEL_CLASS"]["accuracy_pct"]
    floor = 90.0
    if not accuracy >= floor:
        problems.append(f"accuracy {accuracy:.2f}% below floor {floor:.0f}%")
    return Outcome(
        quality={"accuracy_pct": accuracy, "floor": floor, "quality_margin": accuracy / floor},
        problems=problems,
        digest=digest(list(outdir.iterdir())),
        facts={"classified_rows": len(back.tables["predictions"])},
    )


# ---------------------------------------------------------------------------
# CLI workload: in-situ scoring from disk
# ---------------------------------------------------------------------------

# Three conditions, as benchmark_fleet's defaults (which give the truth).
CLI_CELLS_PER_CONDITION = 4
CLI_DISCHARGE_KNOTS = 50
CLI_SPLIT = (3, 1)
CLI_TRAIN_STRIDE = "30"
CLI_PREDICT_STRIDE = "60"


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"batlife {argv[0]} exited with code {code}")


def cli_setup(seeds: Seeds, order_seed: int) -> None:
    """In the working directory: write the fleet with ``batlife simulate`` and
    train on the training cells with ``batlife train-rul``.

    Paths are relative so that every set-up writes the same bytes (the CLI
    fingerprints its resolved flags, paths included).
    """
    _cli(["simulate", "--cells", str(CLI_CELLS_PER_CONDITION), "--conditions", "3",
          "--discharge-knots", str(CLI_DISCHARGE_KNOTS), "--seed", str(seeds.fleet),
          "--out", "."])
    entries = dataset.read_manifest("manifest.txt")
    split = _split(entries, CLI_SPLIT, seeds.split)
    train = [e for e in entries if e.cell_id in split.train]
    test = [e for e in entries if e.cell_id in split.test]
    random.Random(order_seed).shuffle(test)
    dataset.write_manifest(train, Path("train.txt"))
    dataset.write_manifest(test, Path("test.txt"))
    _cli(["train-rul", "--manifest", "train.txt", "--feature-sets", "NOVEL_PRED",
          "--stride", CLI_TRAIN_STRIDE, "--out", "model.txt"])


def cli_truth(seeds: Seeds) -> dict[str, int]:
    """Store the ground-truth end of life of every simulated cell, from
    simgen itself; return the fleet's shape."""
    cells = simgen.benchmark_fleet(seed=seeds.fleet, cells_per_condition=CLI_CELLS_PER_CONDITION,
                                   discharge_knots=CLI_DISCHARGE_KNOTS)
    truth = {"eol": {c.cell_id: c.eol_cycle for c in cells},
             "mean_lifetime": _mean_lifetime(cells), "fleet": fleet_shape(cells)}
    Path("truth.json").write_text(json.dumps(truth))
    return truth["fleet"]


def cli_setup_files() -> list[Path]:
    return sorted(Path("cells").glob("*.csv")) + [
        Path(name) for name in ("manifest.txt", "train.txt", "test.txt", "model.txt")]


def cli_predict(inputs: str) -> None:
    """The timed run, in its own directory: ``batlife predict-rul`` over the
    test cells listed in ``inputs`` (a relative path, the same for every run)."""
    _cli(["predict-rul", "--manifest", f"{inputs}/test.txt", "--model", f"{inputs}/model.txt",
          "--stride", CLI_PREDICT_STRIDE, "--out", "predictions.csv"])


def score_cli_predict(inputs: str) -> Outcome:
    """RMSE against simgen ground truth; floor 10% of mean lifetime (criterion 7)."""
    out = Path("predictions.csv")
    truth = json.loads(Path(inputs, "truth.json").read_text())
    errors = []
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        for row in rows:
            eol = truth["eol"][row["cell_id"]]
            cycle = int(row["cycle"])
            # The same samples build_rul_samples labels: up to EOL, above the SOH floor.
            if eol is None or cycle > eol or float(row["soh"]) <= 0.8:
                continue
            errors.append(float(row["rul_predicted_cycles"]) - (eol - cycle))
    if not errors:
        return Outcome(quality={}, problems=["predict-rul produced no scorable rows"])
    rmse = float(np.sqrt(np.mean(np.square(errors))))
    floor = 0.10 * truth["mean_lifetime"]
    problems = [] if rmse <= floor else [f"predict-rul RMSE {rmse:.2f} above floor {floor:.2f}"]
    return Outcome(
        quality={"rmse_cycles": rmse, "floor": floor, "quality_margin": floor / rmse},
        problems=problems,
        digest=digest([out]),
        facts={"predicted_rows": len(rows)},
    )


@dataclass(frozen=True)
class Workload:
    name: str
    seeds: Seeds
    fleet_kwargs: dict | None = None   # library workloads: the in-memory fleet
    run: object = None                 # library workloads, timed: f(cells, seeds, outdir)
    score: object = None               # library workloads, untimed: f(cells, produced, outdir)


WORKLOADS = {
    "rul": Workload("rul", Seeds(7, 11), RUL_FLEET, run_rul, score_rul),
    "truncation": Workload("truncation", Seeds(13, 3), TRUNCATION_FLEET,
                           run_truncation, score_truncation),
    "classification": Workload("classification", Seeds(21, 5), CLASSIFICATION_FLEET,
                               run_classification, score_classification),
    "cli-predict": Workload("cli-predict", Seeds(7, 11)),
}
