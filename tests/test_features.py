import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batlife import features, simgen
from batlife.dataset import DischargeCurve, Discharges, RelaxationCurve
from batlife.errors import (
    MissingDischargeDataError,
    NoVoltageOverlapError,
    TimeGridMismatchError,
    ValidationError,
)
from batlife.features import (
    DELTA_Q_GRID_POINTS,
    FeatureSet,
    WindowMode,
    WindowSpec,
    assemble,
    benchmark_features,
    delta_q_variance,
    delta_t,
    delta_v,
    delta_v_features,
    stats_features,
)

GRID = np.arange(16) * 120.0


def _curve(voltages) -> RelaxationCurve:
    return RelaxationCurve(GRID, np.asarray(voltages, dtype=float), 120.0, 0.175)


def _rest(curve: RelaxationCurve):
    return curve.times_s, curve.voltages_v


def _rows(curve: DischargeCurve):
    return curve.charges_ah, curve.voltages_v, curve.duration_s


def _linear_discharge(capacity_ah, v_hi=4.2, v_lo=2.65, duration_s=3600.0, n=200):
    v = np.linspace(v_hi, v_lo, n)
    q = np.linspace(0.0, capacity_ah, n)
    return DischargeCurve(q, v, duration_s)


class TestDeltaV:
    def test_self_difference_is_zero(self):
        curve = _curve(np.linspace(4.1, 4.19, 16))
        assert np.all(delta_v(_rest(curve), _rest(curve)) == 0.0)

    def test_constant_offset(self):
        a = _curve(np.linspace(4.1, 4.19, 16))
        b = _curve(np.linspace(4.1, 4.19, 16) - 0.001)
        assert np.allclose(delta_v(_rest(b), _rest(a)), -0.001)

    def test_grid_mismatch(self):
        a = _curve(np.linspace(4.1, 4.19, 16))
        times = np.arange(16) * 60.0
        b = RelaxationCurve(times, np.linspace(4.1, 4.19, 16), 60.0, 0.175)
        with pytest.raises(TimeGridMismatchError):
            delta_v(_rest(a), _rest(b))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_antisymmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = _curve(4.1 + 0.05 * rng.random(16))
        b = _curve(4.1 + 0.05 * rng.random(16))
        assert np.array_equal(delta_v(_rest(a), _rest(b)), -delta_v(_rest(b), _rest(a)))

    def test_aged_cell_difference_negative(self, drifting_cell):
        dv = delta_v(drifting_cell.rest(50), drifting_cell.rest(1))
        assert np.all(dv[1:] < 0.0)


class TestDeltaVFeatures:
    def test_constant_difference_arithmetic(self):
        # 30-minute rest at 2-minute sampling: 15 summed points.
        dv = np.full(16, -0.001)
        total, last = delta_v_features(dv)
        assert total == pytest.approx(-0.015, abs=1e-15)
        assert last == pytest.approx(-0.001, abs=1e-15)

    def test_zero_difference(self):
        assert delta_v_features(np.zeros(16)) == (0.0, 0.0)

    def test_monotone_drift_gives_monotone_features(self, drifting_cell):
        window = WindowSpec(WindowMode.FIXED_REFERENCE, 1)
        sums, lasts = [], []
        for m in range(2, 60, 4):
            dv = delta_v(drifting_cell.rest(m), drifting_cell.rest(1))
            total, last = delta_v_features(dv)
            sums.append(total)
            lasts.append(last)
        assert all(b <= a for a, b in zip(sums, sums[1:]))
        assert all(b <= a for a, b in zip(lasts, lasts[1:]))


class TestStatsFeatures:
    def test_degenerate_constant_sequence(self):
        values = stats_features(np.full(3, -0.001))
        assert values["dv_variance"] == 0.0
        assert values["dv_skewness"] == 0.0
        assert values["dv_kurtosis"] == 0.0
        assert values["dv_max"] == values["dv_min"] == values["dv_mean"] == -0.001

    def test_two_point_arithmetic(self):
        values = stats_features(np.array([0.0, -0.002]))
        assert values["dv_mean"] == pytest.approx(-0.001)
        assert values["dv_variance"] == pytest.approx(2e-6)
        assert values["dv_sum"] == pytest.approx(-0.002)
        assert values["dv_last"] == pytest.approx(-0.002)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-0.05, max_value=0.05), min_size=2, max_size=20))
    def test_symmetric_sequence_has_zero_skewness(self, half):
        data = np.array(half + [-x for x in half])
        # A constant (all-zero) sequence reports skewness 0 as well.
        assert stats_features(data)["dv_skewness"] == pytest.approx(0.0, abs=1e-8)

    def test_moment_definitions_against_direct_computation(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=50)
        values = stats_features(data)
        centered = data - data.mean()
        m2 = np.mean(centered**2)
        assert values["dv_variance"] == pytest.approx(np.var(data, ddof=1))
        assert values["dv_skewness"] == pytest.approx(np.mean(centered**3) / m2**1.5)
        assert values["dv_kurtosis"] == pytest.approx(np.mean(centered**4) / m2**2)


class TestDeltaQVariance:
    def test_identical_curves_hit_floor(self):
        disc = _linear_discharge(3.5)
        assert delta_q_variance(_rows(disc), _rows(disc)) == -12.0

    def test_uniform_ramp_against_brute_force(self):
        # Q_m adds a ramp growing linearly in V with total span 0.01 Ah;
        # linear interpolation reproduces the ramp exactly on the grid, so
        # the expected value is the sample variance of that p-point ramp.
        p = DELTA_Q_GRID_POINTS
        base = _linear_discharge(3.5)
        ramp_span = 0.01
        v = base.voltages_v
        ramp = ramp_span * (v[0] - v) / (v[0] - v[-1])
        shifted = DischargeCurve(base.charges_ah + ramp, v, base.duration_s)
        oracle = math.log10(np.var(ramp_span * np.arange(p) / (p - 1), ddof=1))
        assert oracle == pytest.approx(-5.077875, abs=1e-4)
        assert delta_q_variance(_rows(shifted), _rows(base)) == pytest.approx(oracle, abs=1e-9)

    def test_no_overlap(self):
        a = _linear_discharge(3.5, v_hi=4.2, v_lo=3.6)
        b = _linear_discharge(3.5, v_hi=3.5, v_lo=2.7)
        with pytest.raises(NoVoltageOverlapError):
            delta_q_variance(_rows(a), _rows(b))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_symmetric_in_arguments(self, seed):
        rng = np.random.default_rng(seed)
        a = _linear_discharge(3.5 * (0.9 + 0.1 * rng.random()))
        b = _linear_discharge(3.5 * (0.8 + 0.1 * rng.random()))
        a, b = _rows(a), _rows(b)
        assert delta_q_variance(a, b) == pytest.approx(delta_q_variance(b, a), abs=1e-12)

    def test_fade_grows_variance(self, small_fleet):
        cell = small_fleet[0]
        later = min(40, int(cell.cycle_indices[-1]))
        near = delta_q_variance(cell.discharge(2), cell.discharge(1))
        far = delta_q_variance(cell.discharge(later), cell.discharge(1))
        assert far > near


class TestDeltaT:
    def test_equal_durations_hit_floor(self):
        disc = _linear_discharge(3.5)
        assert delta_t(disc.duration_s, disc.duration_s) == -3.0

    def test_log_identity(self):
        a = _linear_discharge(3.5, duration_s=3700.0)
        b = _linear_discharge(3.5, duration_s=3600.0)
        assert delta_t(a.duration_s, b.duration_s) == pytest.approx(2.0)

    def test_grows_with_cycle_gap(self, small_fleet):
        cell = small_fleet[0]
        d1 = cell.record(1).discharge.duration_s
        assert delta_t(cell.record(30).discharge.duration_s, d1) > \
            delta_t(cell.record(5).discharge.duration_s, d1)


class TestBenchmarkFeatures:
    def test_first_cycle(self, drifting_cell):
        sum_ah, sum_days = benchmark_features(drifting_cell, 1)
        assert sum_ah == pytest.approx(2.0 * drifting_cell.capacities_ah[0])
        assert sum_days == 0.0

    def test_constant_throughput_accumulates(self):
        profile = simgen.DriftProfile(initial=simgen.DEFAULT_INITIAL, fade_a=1e-9,
                                      fade_ref_cycles=1e9, seed=0)
        cell = simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 10, discharge_knots=50)
        sum_ah, _ = benchmark_features(cell, 10)
        assert sum_ah == pytest.approx(10 * 7.0, rel=1e-6)

    def test_unknown_cycle(self, drifting_cell):
        from batlife.errors import UnknownCycleError
        with pytest.raises(UnknownCycleError):
            benchmark_features(drifting_cell, 9999)


class TestAssemble:
    WINDOW = WindowSpec(WindowMode.FIXED_REFERENCE, 1)
    ADJACENT = WindowSpec(WindowMode.ADJACENT)

    def test_set_sizes_and_order(self, drifting_cell):
        cache = {}
        sizes = {FeatureSet.ECM: 6, FeatureSet.STATS: 8, FeatureSet.BENCHMARK: 8,
                 FeatureSet.NOVEL_PRED: 8}
        for feature_set, expected in sizes.items():
            fv = assemble(drifting_cell, 10, self.WINDOW, feature_set, fit_cache=cache)
            assert len(fv.values) == expected
            assert tuple(fv.values.keys()) == features.FEATURE_NAMES[feature_set]
        for feature_set in (FeatureSet.NOVEL_CLASS, FeatureSet.RATE_CLASS):
            fv = assemble(drifting_cell, 10, self.ADJACENT, feature_set, fit_cache=cache)
            assert len(fv.values) == {FeatureSet.NOVEL_CLASS: 8, FeatureSet.RATE_CLASS: 2}[feature_set]

    def test_ecm_set_equals_fit(self, drifting_cell):
        from batlife import ecm
        fv = assemble(drifting_cell, 5, self.WINDOW, FeatureSet.ECM)
        direct = ecm.fit(drifting_cell.record(5).relaxation).params
        assert np.array_equal(fv.as_array(), direct.as_array())

    def test_classification_sets_require_adjacent_mode(self, drifting_cell):
        with pytest.raises(ValidationError):
            assemble(drifting_cell, 10, self.WINDOW, FeatureSet.NOVEL_CLASS)

    def test_missing_discharge(self):
        profile = simgen.condition_profile(300.0, seed=5, noise_sigma_v=0.0, cell_spread=0.0)
        cell = simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 10, discharge_knots=50)
        from dataclasses import replace
        n = cell.n_cycles
        stripped = replace(cell, discharges=Discharges(np.empty(0), np.zeros(n), np.empty(0),
                                                       np.zeros(n + 1, dtype=int)))
        with pytest.raises(MissingDischargeDataError):
            assemble(stripped, 5, self.ADJACENT, FeatureSet.NOVEL_CLASS)
        assemble(stripped, 5, self.WINDOW, FeatureSet.NOVEL_PRED)  # relaxation-only is fine

    def test_reference_must_precede_current(self, drifting_cell):
        with pytest.raises(ValidationError):
            assemble(drifting_cell, 1, self.WINDOW, FeatureSet.NOVEL_PRED)

    def test_deterministic_and_order_stable(self, drifting_cell):
        a = assemble(drifting_cell, 12, self.WINDOW, FeatureSet.NOVEL_PRED)
        b = assemble(drifting_cell, 12, self.WINDOW, FeatureSet.NOVEL_PRED)
        assert a.values == b.values
        assert list(a.values) == list(b.values)

    def test_truncation_changes_horizon_features(self, drifting_cell):
        full = assemble(drifting_cell, 12, self.WINDOW, FeatureSet.NOVEL_PRED)
        short = assemble(drifting_cell, 12, self.WINDOW, FeatureSet.NOVEL_PRED, truncate=6)
        assert abs(short.values["dv_sum"]) < abs(full.values["dv_sum"])
