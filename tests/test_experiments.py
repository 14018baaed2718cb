import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batlife import simgen
from batlife.dataset import Chemistry, DatasetSplit, SOH_EOL, split_dataset
from batlife.errors import (
    EmptyInputError,
    EmptyWindowError,
    LengthMismatchError,
    ValidationError,
    ZeroEolError,
)
from batlife.experiments import (
    ClassificationConfig,
    RulExperimentConfig,
    build_rul_samples,
    mape,
    read_report,
    rmse,
    run_classification_experiment,
    run_rul_experiment,
    run_truncation_sweep,
    verify_report,
)
from batlife.features import FeatureSet, WindowSpec

from conftest import without_cycles


class TestRmse:
    def test_identity(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_single_pair(self):
        assert rmse([10.0], [13.0]) == 3.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            rmse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            rmse([], [])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1e4), st.floats(0, 1e4)), min_size=1, max_size=30),
           st.randoms())
    def test_permutation_invariant_and_nonnegative(self, pairs, rand):
        y = [p[0] for p in pairs]
        y_hat = [p[1] for p in pairs]
        base = rmse(y, y_hat)
        assert base >= 0.0
        order = list(range(len(pairs)))
        rand.shuffle(order)
        assert rmse([y[i] for i in order], [y_hat[i] for i in order]) == pytest.approx(base)

    def test_zero_iff_equal(self):
        assert rmse([1.0, 2.0], [1.0, 2.0 + 1e-9]) > 0.0


class TestMape:
    def test_identity(self):
        assert mape([5.0, 7.0], [5.0, 7.0], [100.0, 100.0]) == 0.0

    def test_hand_value(self):
        # errors 10 and 20 against an end of life of 100: (10+20)/2 = 15%
        assert mape([100.0, 100.0], [110.0, 80.0], [100.0, 100.0]) == pytest.approx(15.0)

    def test_single_sample(self):
        assert mape([100.0], [150.0], [500.0]) == pytest.approx(10.0)

    def test_zero_eol(self):
        with pytest.raises(ZeroEolError):
            mape([1.0], [2.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            mape([1.0], [1.0], [1.0, 2.0])


def _split_for(cells, seed=3):
    conditions = sorted({c.condition for c in cells})
    counts = {cond: sum(1 for c in cells if c.condition == cond) for cond in conditions}
    spec = {cond: ((n + 1) // 2, n // 2) for cond, n in counts.items()}
    return split_dataset(cells, spec, seed=seed)


@pytest.fixture(scope="module")
def rul_report(small_fleet):
    split = _split_for(small_fleet)
    config = RulExperimentConfig(
        feature_sets=(FeatureSet.NOVEL_PRED, FeatureSet.ECM),
        stride=6, seed=0, restarts=2, max_iters=200,
    )
    return run_rul_experiment(small_fleet, split, config), config, split


class TestOptimizerBudget:
    @pytest.mark.parametrize("config", [RulExperimentConfig, ClassificationConfig])
    @pytest.mark.parametrize("budget", [{"restarts": 0}, {"restarts": -2}, {"max_iters": 0}])
    def test_below_one_is_refused(self, config, budget):
        with pytest.raises(ValidationError, match="must be at least 1"):
            config(**budget)
        with pytest.raises(ValidationError, match="must be at least 1"):
            dataclasses.replace(config(), **budget)


class TestRulExperiment:
    def test_layout_has_rows_per_feature_set_and_condition(self, rul_report):
        report, _, _ = rul_report
        metrics = report.tables["metrics"]
        conditions = {r["condition"] for r in metrics}
        feature_sets = {r["feature_set"] for r in metrics}
        assert {"NOVEL_PRED", "ECM"} <= feature_sets
        assert {"CY25-0.5/1", "CY45-0.5/1", "ALL"} <= conditions

    def test_metrics_match_recomputation(self, rul_report):
        report, _, _ = rul_report
        assert verify_report(report)

    def test_edited_config_fails_verification(self, rul_report):
        report, _, _ = rul_report
        assert not verify_report(dataclasses.replace(report, config={**report.config, "seed": "9"}))

    def test_importance_present_and_normalized(self, rul_report):
        report, _, _ = rul_report
        rows = [r for r in report.tables["importance"]
                if r["feature_set"] == "NOVEL_PRED"]
        weights = [r["weight_by_length_scale"] for r in rows]
        assert sum(weights) == pytest.approx(1.0)

    def test_report_roundtrip_and_reverify(self, rul_report, tmp_path):
        report, _, _ = rul_report
        report.write(tmp_path / "out")
        loaded = read_report(tmp_path / "out")
        assert loaded.kind == "rul"
        assert loaded.fingerprint == report.fingerprint
        assert verify_report(loaded)
        assert loaded.tables["metrics"] == report.tables["metrics"]

    def test_bit_identical_reruns(self, small_fleet, tmp_path, rul_report):
        _, config, split = rul_report
        a = run_rul_experiment(small_fleet, split, config)
        b = run_rul_experiment(small_fleet, split, config)
        a.write(tmp_path / "a")
        b.write(tmp_path / "b")
        for name in ("predictions", "metrics", "importance"):
            assert (tmp_path / "a" / f"{name}.csv").read_bytes() == \
                   (tmp_path / "b" / f"{name}.csv").read_bytes()

    def test_zero_drift_predictions_collapse_to_label_spread(self):
        # Constant aging state: every cycle looks alike, so the model can
        # only predict the mean RUL and its error equals the label spread.
        profile = simgen.DriftProfile(initial=simgen.DEFAULT_INITIAL,
                                      fade_a=0.25, fade_ref_cycles=120.0, seed=2)
        cells = [simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 100,
                                      cell_id=f"z-{i}", discharge_knots=50)
                 for i in range(4)]
        split = split_dataset(cells, {"CY25-0.5/1": (2, 2)}, seed=0)
        config = RulExperimentConfig(feature_sets=(FeatureSet.ECM,),
                                     stride=4, seed=0, restarts=2, max_iters=100)
        report = run_rul_experiment(cells, split, config)
        rows = report.tables["predictions"]
        observed = np.array([r["rul_observed"] for r in rows])
        overall = [r for r in report.tables["metrics"]
                   if r["condition"] == "ALL" and r["chemistry"] == "ALL"][0]
        assert overall["rmse_cycles"] == pytest.approx(observed.std(), rel=0.35)

    def test_no_test_cells_raises(self, small_fleet):
        split = split_dataset(small_fleet, {"CY25-0.5/1": (2, 0), "CY45-0.5/1": (2, 0)},
                              seed=0)
        config = RulExperimentConfig(feature_sets=(FeatureSet.ECM,), stride=8,
                                     restarts=2, max_iters=50)
        with pytest.raises(EmptyInputError):
            run_rul_experiment(small_fleet, split, config)


class TestSkippedSamples:
    """The RUL driver's two silent skips, pinned as they stand: a cell that
    never reaches end of life, and a chemistry whose cells give no samples.
    Each report still verifies and holds no rows for what was skipped: its
    tables are those of the run without it."""

    CONFIG = RulExperimentConfig(feature_sets=(FeatureSet.ECM,), stride=8,
                                 restarts=2, max_iters=50)

    @staticmethod
    def _tables(cells, split):
        report = run_rul_experiment(cells, split, TestSkippedSamples.CONFIG)
        assert verify_report(report)
        return report.tables

    def test_cell_that_never_reaches_eol(self, small_fleet):
        split = _split_for(small_fleet)
        skipped = sorted(split.test)[0]
        cut = []
        for cell in small_fleet:
            if cell.cell_id == skipped:  # its history ends before end of life
                cell = without_cycles(cell, cell.cycle_indices[cell.eol_cycle // 2:],
                                      eol_cycle=None)
                assert min(cell.soh(m) for m in cell.cycle_indices.tolist()) > SOH_EOL
            cut.append(cell)
        tables = self._tables(cut, split)
        assert skipped not in {row["cell_id"] for row in tables["predictions"]}
        without = DatasetSplit(split.train, split.test - {skipped}, split.seed)
        assert tables == self._tables(small_fleet, without)

    def test_chemistry_without_samples(self, small_fleet):
        # One NCM cell in train and one in test, neither reaching end of
        # life: the chemistry has cells on both sides but no samples.
        profile = simgen.DriftProfile(initial=simgen.DEFAULT_INITIAL, fade_a=0.25,
                                      fade_ref_cycles=120.0, seed=2)
        ncm = [simgen.simulate_cell(profile, simgen.NCM_PROTOCOL, 40, cell_id=f"ncm-{i}",
                                    discharge_knots=50) for i in range(2)]
        assert [cell.eol_cycle for cell in ncm] == [None, None]
        split = _split_for(small_fleet)
        with_ncm = DatasetSplit(split.train | {"ncm-0"}, split.test | {"ncm-1"}, split.seed)
        tables = self._tables(small_fleet + ncm, with_ncm)
        assert "NCM" not in {row["chemistry"] for rows in tables.values() for row in rows}
        assert tables == self._tables(small_fleet, split)


class TestTruncationSweep:
    def test_full_entry_matches_plain_experiment(self, small_fleet):
        split = _split_for(small_fleet)
        config = RulExperimentConfig(feature_sets=(FeatureSet.NOVEL_PRED,),
                                     stride=8, seed=1, restarts=2, max_iters=150)
        sweep = run_truncation_sweep(small_fleet, split, config, [6, None])
        plain = run_rul_experiment(small_fleet, split, config)
        full_rows = [
            {k: v for k, v in row.items() if k != "relax_samples"}
            for row in sweep.tables["metrics"] if row["relax_samples"] == 16
        ]
        assert full_rows == plain.tables["metrics"]

    def test_minimum_samples_enforced(self, small_fleet):
        split = _split_for(small_fleet)
        config = RulExperimentConfig(feature_sets=(FeatureSet.NOVEL_PRED,))
        with pytest.raises(ValidationError):
            run_truncation_sweep(small_fleet, split, config, [5, None])

    def test_sweep_table_reports_time_budget(self, small_fleet):
        split = _split_for(small_fleet)
        config = RulExperimentConfig(feature_sets=(FeatureSet.NOVEL_PRED,),
                                     stride=8, seed=1, restarts=2, max_iters=150)
        sweep = run_truncation_sweep(small_fleet, split, config, [6, 8])
        rows = {r["relax_samples"]: r for r in sweep.tables["sweep"]}
        assert rows[6]["relaxation_time_s"] == pytest.approx(720.0)
        assert rows[8]["relaxation_time_s"] == pytest.approx(960.0)
        assert verify_report(sweep)

    def test_mixed_relaxation_grids_rejected(self):
        # 120 s NCA next to 30 s NCM+NCA: one interval and one full count
        # cannot describe both, so the sweep refuses rather than mislabel.
        profile = simgen.condition_profile(300.0, seed=2)
        cells = [simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 5, "mix-nca",
                                      discharge_knots=50),
                 simgen.simulate_cell(profile, simgen.NCM_NCA_PROTOCOL, 5, "mix-ncmnca",
                                      discharge_knots=50)]
        split = DatasetSplit(train=frozenset({"mix-nca"}), test=frozenset({"mix-ncmnca"}),
                             seed=0)
        config = RulExperimentConfig(feature_sets=(FeatureSet.NOVEL_PRED,))
        with pytest.raises(ValidationError, match="one relaxation grid"):
            run_truncation_sweep(cells, split, config, [6, None])


class TestRulSamples:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_emits_exactly_the_admitted_cycles(self, small_fleet, data):
        cell = small_fleet[0]
        eol = cell.eol_cycle
        n = int(cell.cycle_indices[-1])
        dropped = data.draw(st.sets(st.integers(1, n), max_size=n // 2), label="dropped")
        stride = data.draw(st.integers(1, 6), label="stride")
        window_start = data.draw(st.integers(1, eol), label="window_start")
        gapped = without_cycles(cell, dropped)
        recorded = set(gapped.cycle_indices.tolist())
        samples = build_rul_samples(
            {cell.cell_id: gapped}, [cell.cell_id], FeatureSet.STATS,
            WindowSpec(reference_cycle=window_start), None, stride, {},
        )
        expected = [m for m in range(window_start + 1, n + 1, stride)
                    if m <= eol and m in recorded and window_start in recorded
                    and gapped.soh(m) > SOH_EOL]
        assert [s.cycle for s in samples] == expected
        assert [s.rul for s in samples] == [eol - m for m in expected]


@pytest.fixture(scope="module")
def classification_fleet():
    # Fade spans chosen so the window around cycle 30 labels the three
    # conditions Short / Medium / Long with comfortable threshold margins.
    return simgen.benchmark_fleet(
        seed=31, cells_per_condition=3, fade_refs=(80.0, 260.0, 1000.0),
        temperatures=(25, 35, 45), discharge_knots=200,
    )


class TestClassificationExperiment:
    CONFIG = dict(test_cycle=30, window_cycles=20, stride=1, seed=0,
                  restarts=2, max_iters=100)

    def test_accuracy_rows_per_feature_set(self, classification_fleet):
        split = _split_for(classification_fleet, seed=1)
        config = ClassificationConfig(
            feature_sets=(FeatureSet.NOVEL_CLASS, FeatureSet.RATE_CLASS),
            chemistry=Chemistry.NCA, **self.CONFIG)
        report = run_classification_experiment(classification_fleet, split, config)
        rows = report.tables["metrics"]
        sets = {r["feature_set"] for r in rows}
        assert sets == {"NOVEL_CLASS", "RATE_CLASS"}
        assert verify_report(report)
        overall = {r["feature_set"]: r["accuracy_pct"]
                   for r in rows if r["condition"] == "ALL"}
        assert overall["NOVEL_CLASS"] >= overall["RATE_CLASS"] - 1e-9

    def test_confusion_counts_match_predictions(self, classification_fleet):
        split = _split_for(classification_fleet, seed=1)
        config = ClassificationConfig(feature_sets=(FeatureSet.NOVEL_CLASS,),
                                      chemistry=Chemistry.NCA, **self.CONFIG)
        report = run_classification_experiment(classification_fleet, split, config)
        total = sum(r["count"] for r in report.tables["confusion"])
        assert total == len(report.tables["predictions"])

    def test_empty_window(self, classification_fleet):
        split = _split_for(classification_fleet, seed=1)
        config = ClassificationConfig(feature_sets=(FeatureSet.NOVEL_CLASS,),
                                      chemistry=Chemistry.NCA, test_cycle=5000,
                                      window_cycles=10, seed=0)
        with pytest.raises(EmptyWindowError):
            run_classification_experiment(classification_fleet, split, config)

    def test_mixed_chemistry_exclusion(self, classification_fleet):
        split = _split_for(classification_fleet, seed=1)
        config = ClassificationConfig(feature_sets=(FeatureSet.NOVEL_CLASS,),
                                      chemistry=Chemistry.NCM_NCA, **self.CONFIG)
        with pytest.raises(ValidationError):
            run_classification_experiment(classification_fleet, split, config)

    def test_probability_scatter_columns_present(self, classification_fleet):
        split = _split_for(classification_fleet, seed=1)
        config = ClassificationConfig(feature_sets=(FeatureSet.NOVEL_CLASS,),
                                      chemistry=Chemistry.NCA, **self.CONFIG)
        report = run_classification_experiment(classification_fleet, split, config)
        row = report.tables["predictions"][0]
        assert {"soh", "probability", "correct", "label_observed",
                "label_predicted"} <= set(row)
