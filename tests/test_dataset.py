import collections
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from batlife import dataset, simgen
from batlife.cli import main
from batlife.dataset import (
    CANONICAL_COLUMNS,
    CUTOFF_C_RATE,
    VOLTAGE_MAX_V,
    VOLTAGE_MIN_V,
    CellHistory,
    CellMeta,
    Chemistry,
    CycleRecord,
    DatasetSplit,
    build_history,
    compute_eol,
    ingest_cell,
    ingest_manifest,
    moving_median,
    parse_condition,
    read_manifest,
    split_dataset,
    write_cell,
    write_manifest,
    ManifestEntry,
    RelaxationCurve,
    DischargeCurve,
)
from batlife.errors import (
    EmptyFileError,
    InsufficientCellsError,
    NeverReachedError,
    SchemaError,
    UnknownCycleError,
    ValidationError,
)

from conftest import history_bits, write_cell_per_cycle


def _simulated_cell(seed=4, horizon=30, noise=5e-4, cell_id="rt-00"):
    profile = simgen.DriftProfile(
        initial=simgen.DEFAULT_INITIAL,
        rates=simgen.DriftRates(ocv=-1e-5, r_e=1e-4),
        fade_a=0.2, fade_ref_cycles=150.0, noise_sigma_v=noise, seed=seed,
    )
    return simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, horizon,
                                cell_id=cell_id, discharge_knots=50)


class TestTypes:
    def test_relaxation_requires_zero_start(self):
        with pytest.raises(ValidationError):
            RelaxationCurve(np.array([60.0, 120.0]), np.array([4.1, 4.11]), 60.0, 0.175)

    def test_relaxation_voltage_range(self):
        with pytest.raises(ValidationError):
            RelaxationCurve(np.array([0.0, 120.0]), np.array([4.1, 4.6]), 120.0, 0.175)

    def test_relaxation_strictly_increasing(self):
        with pytest.raises(ValidationError):
            RelaxationCurve(np.array([0.0, 120.0, 120.0]),
                            np.array([4.1, 4.11, 4.12]), 120.0, 0.175)

    @pytest.mark.parametrize("times, volts, interval, current", [
        pytest.param([0.0, 120.0, 240.0], [4.1, np.nan, 4.13], 120.0, 0.175, id="nan-voltage"),
        pytest.param([0.0, 120.0, 240.0], [4.1, 4.12, np.inf], 120.0, 0.175, id="inf-voltage"),
        pytest.param([0.0, np.nan, 240.0], [4.1, 4.12, 4.13], 120.0, 0.175, id="nan-time"),
        pytest.param([0.0, 120.0, np.inf], [4.1, 4.12, 4.13], 120.0, 0.175, id="inf-time"),
        pytest.param([0.0, 120.0, 240.0], [4.1, 4.12, 4.13], np.nan, 0.175, id="nan-interval"),
        pytest.param([0.0, 120.0, 240.0], [4.1, 4.12, 4.13], np.inf, 0.175, id="inf-interval"),
        pytest.param([0.0, 120.0, 240.0], [4.1, 4.12, 4.13], 120.0, np.nan, id="nan-current"),
        pytest.param([0.0, 120.0, 240.0], [4.1, 4.12, 4.13], 120.0, np.inf, id="inf-current"),
    ])
    def test_relaxation_rejects_non_finite(self, times, volts, interval, current):
        with pytest.raises(ValidationError):
            RelaxationCurve(np.array(times), np.array(volts), interval, current)

    @pytest.mark.parametrize("charges, volts, duration", [
        pytest.param([0.0, np.nan, 2.0], [4.2, 3.8, 3.5], 3600.0, id="nan-charge"),
        pytest.param([0.0, 1.0, np.inf], [4.2, 3.8, 3.5], 3600.0, id="inf-charge"),
        pytest.param([-np.inf, 1.0, 2.0], [4.2, 3.8, 3.5], 3600.0, id="minus-inf-charge"),
        pytest.param([0.0, 1.0, 2.0], [np.inf, 3.8, 3.5], 3600.0, id="inf-voltage"),
        pytest.param([0.0, 1.0, 2.0], [4.2, np.nan, 3.5], 3600.0, id="nan-voltage"),
        pytest.param([0.0, 1.0, 2.0], [4.2, 3.8, 3.5], np.nan, id="nan-duration"),
    ])
    def test_discharge_rejects_non_finite(self, charges, volts, duration):
        with pytest.raises(ValidationError):
            DischargeCurve(np.array(charges), np.array(volts), duration)

    @pytest.mark.parametrize("capacity", [np.nan, np.inf, 0.0])
    def test_cycle_capacity_must_be_finite_and_positive(self, capacity):
        relaxation = RelaxationCurve(np.array([0.0, 120.0]), np.array([4.1, 4.11]), 120.0, 0.175)
        with pytest.raises(ValidationError):
            CycleRecord(1, relaxation, capacity, 0.0, 0.0)

    def test_discharge_monotonicity(self):
        with pytest.raises(ValidationError):
            DischargeCurve(np.array([0.0, 1.0, 0.5]), np.array([4.2, 3.8, 3.5]), 3600.0)
        with pytest.raises(ValidationError):
            DischargeCurve(np.array([0.0, 1.0, 2.0]), np.array([4.2, 3.8, 3.9]), 3600.0)

    def test_condition_code_parsing(self):
        assert parse_condition("CY25-0.5/1") == (25.0, 0.5, 1.0)
        assert parse_condition("CY45-0.25/4") == (45.0, 0.25, 4.0)
        with pytest.raises(ValidationError):
            parse_condition("25C-0.5/1")

    def test_chemistry_parsing(self):
        assert Chemistry.parse("NCM+NCA") is Chemistry.NCM_NCA
        assert Chemistry.parse("ncm_nca") is Chemistry.NCM_NCA
        with pytest.raises(ValidationError):
            Chemistry.parse("LFP")

    def test_split_overlap_rejected(self):
        with pytest.raises(ValidationError):
            DatasetSplit(train=frozenset({"a"}), test=frozenset({"a"}), seed=0)


class TestEol:
    def test_first_crossing(self):
        assert compute_eol([1.00, 0.90, 0.79], 1.0) == 3

    def test_never_reached(self):
        with pytest.raises(NeverReachedError):
            compute_eol([1.0, 0.95, 0.9], 1.0)

    def test_median_smoothing_ignores_spike(self):
        # One bad measurement dipping below threshold must not retire the cell.
        caps = [1.0, 0.99, 0.70, 0.97, 0.96, 0.95, 0.94]
        with pytest.raises(NeverReachedError):
            compute_eol(caps, 1.0)

    def test_programmed_fade_crossing(self):
        # q(m) = q0 * (1 - 0.2 * m / 500) hits 80% exactly at m = 500.
        profile = simgen.DriftProfile(initial=simgen.DEFAULT_INITIAL,
                                      fade_a=0.2, fade_ref_cycles=500.0, seed=3)
        cell = simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 510, discharge_knots=50)
        assert abs(cell.eol_cycle - 500) <= 1

    def test_eol_invariant_under_appended_cycles(self):
        # Histories extending at least two cycles past the crossing keep
        # their end of life when more cycles are appended.
        profile = simgen.DriftProfile(initial=simgen.DEFAULT_INITIAL,
                                      fade_a=0.2, fade_ref_cycles=100.0, seed=3)
        short = simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 103, discharge_knots=50)
        long = simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 140, discharge_knots=50)
        assert short.eol_cycle is not None
        assert short.eol_cycle == long.eol_cycle

    def test_gap_before_crossing_reports_real_cycle_index(self):
        # Cycles 6-19 are missing; smoothed capacity first reaches 80% at the
        # eighth recorded cycle, whose index is 22.
        curve = _simulated_cell(horizon=1).cycles[0].relaxation
        indices = [1, 2, 3, 4, 5, 20, 21, 22, 23, 24, 25]
        caps = [1.0] * 5 + [0.9, 0.85, 0.79, 0.78, 0.77, 0.76]
        meta = CellMeta("gap", Chemistry.NCA, "CY25-0.5/1", 1.0, 120.0, 1800.0)
        cell = build_history(meta, [(i, curve, None, q) for i, q in zip(indices, caps)])
        assert cell.eol_cycle == 22

    def test_moving_median_of_monotone_is_identity_inside(self):
        caps = np.linspace(1.0, 0.5, 20)
        smoothed = moving_median(caps)
        assert np.array_equal(smoothed[2:-2], caps[2:-2])


class TestRoundTrip:
    def test_write_ingest_identity(self, tmp_path):
        cell = _simulated_cell()
        path = tmp_path / "cell.csv"
        write_cell(cell, path)
        back = ingest_cell(path)
        assert back.cell_id == cell.cell_id
        assert back.chemistry is cell.chemistry
        assert back.condition == cell.condition
        assert back.nominal_capacity_ah == cell.nominal_capacity_ah
        assert back.eol_cycle == cell.eol_cycle
        assert back.n_cycles == cell.n_cycles
        for a, b in zip(cell.cycles, back.cycles):
            assert np.array_equal(a.relaxation.times_s, b.relaxation.times_s)
            assert np.array_equal(a.relaxation.voltages_v, b.relaxation.voltages_v)
            assert a.relaxation.cutoff_current_a == b.relaxation.cutoff_current_a
            assert np.array_equal(a.discharge.charges_ah, b.discharge.charges_ah)
            assert np.array_equal(a.discharge.voltages_v, b.discharge.voltages_v)
            assert a.discharge.duration_s == b.discharge.duration_s
            assert a.capacity_ah == b.capacity_ah
            assert a.cumulative_ah == b.cumulative_ah
            assert a.calendar_days == b.calendar_days

    def test_double_roundtrip_bytes_identical(self, tmp_path):
        cell = _simulated_cell()
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        write_cell(cell, p1)
        write_cell(ingest_cell(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_column_is_schema_error(self, tmp_path):
        cell = _simulated_cell(horizon=3)
        path = tmp_path / "cell.csv"
        write_cell(cell, path)
        text = path.read_text().replace("voltage_v", "volts")
        path.write_text(text)
        with pytest.raises(SchemaError):
            ingest_cell(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("cycle,phase,t_s,voltage_v,current_a,capacity_ah\n")
        with pytest.raises(EmptyFileError):
            ingest_cell(path)

    def test_non_monotone_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["# kind=cell cell_id=x chemistry=NCA condition=CY25-0.5/1 "
                "nominal_capacity_ah=3.5 sampling_interval_s=120.0 rest_duration_s=240.0",
                "cycle,phase,t_s,voltage_v,current_a,capacity_ah"]
        for t in (0.0, 120.0, 120.0, 240.0):
            rows.append(f"1,rest_post_charge,{t},4.1,0.0,3.5")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError):
            ingest_cell(path)

    def test_resampling_onto_declared_grid(self, tmp_path):
        # Off-grid rest samples are interpolated onto the declared interval.
        path = tmp_path / "offgrid.csv"
        rows = ["# kind=cell cell_id=x chemistry=NCA condition=CY25-0.5/1 "
                "nominal_capacity_ah=3.5 sampling_interval_s=100.0 rest_duration_s=300.0",
                "cycle,phase,t_s,voltage_v,current_a,capacity_ah"]
        for t, v in ((0.0, 4.00), (90.0, 4.09), (210.0, 4.21), (300.0, 4.30)):
            rows.append(f"1,rest_post_charge,{t},{v},0.0,3.5")
        path.write_text("\n".join(rows) + "\n")
        cell = ingest_cell(path)
        rel = cell.cycles[0].relaxation
        assert np.array_equal(rel.times_s, [0.0, 100.0, 200.0, 300.0])
        assert rel.voltages_v[1] == pytest.approx(4.09 + 10 / 120 * 0.12)

    def test_declared_protocol_sample_counts(self):
        # 30-min rests at 2-min sampling carry 16 samples; 60-min rests at
        # 30 s carry 121.
        profile = simgen.DriftProfile(initial=simgen.DEFAULT_INITIAL,
                                      fade_a=0.2, fade_ref_cycles=100.0, seed=0)
        nca = simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 2, discharge_knots=50)
        assert all(r.relaxation.n_samples >= 16 for r in nca.cycles)
        mixed = simgen.simulate_cell(profile, simgen.NCM_NCA_PROTOCOL, 2, discharge_knots=50)
        assert all(r.relaxation.n_samples >= 121 for r in mixed.cycles)

    def test_short_rest_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        rows = ["# kind=cell cell_id=x chemistry=NCA condition=CY25-0.5/1 "
                "nominal_capacity_ah=3.5 sampling_interval_s=120.0 rest_duration_s=1800.0",
                "cycle,phase,t_s,voltage_v,current_a,capacity_ah"]
        for t in (0.0, 120.0, 240.0):
            rows.append(f"1,rest_post_charge,{t},4.1,0.0,3.5")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError):
            ingest_cell(path)

    @pytest.mark.parametrize("last_t, spans", [(1.2e7, 100001), (1920.0, 17)])
    def test_long_rest_rejected(self, tmp_path, last_t, spans):
        # A rest is never resampled onto more grid points than the declared
        # rest spans, however far its last sample lies.
        path = tmp_path / "long.csv"
        rows = ["# kind=cell cell_id=x chemistry=NCA condition=CY25-0.5/1 "
                "nominal_capacity_ah=3.5 sampling_interval_s=120.0 rest_duration_s=1800.0",
                "cycle,phase,t_s,voltage_v,current_a,capacity_ah"]
        for t in [*(np.arange(16) * 120.0).tolist(), last_t]:
            rows.append(f"1,rest_post_charge,{t!r},4.1,0.0,3.5")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match=f"line 3: cycle 1 rest spans {spans} grid "
                           "points; the declared 1800 s rest at 120 s spacing spans 16"):
            ingest_cell(path)


def _parent_resample(times, voltages, interval_s):
    """The rest resampling of the row-by-row reader this parser replaced."""
    n = int(np.floor(times[-1] / interval_s + 1e-9)) + 1
    grid = np.arange(n) * interval_s
    if times.size == n and np.allclose(times, grid, atol=1e-9, rtol=0.0):
        return times, voltages
    return grid, np.interp(grid, times, voltages)


CAPACITY = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)
VOLTS = st.floats(min_value=VOLTAGE_MIN_V, max_value=VOLTAGE_MAX_V)


@st.composite
def _histories(draw):
    """Cells with gaps in their cycle indices, some cycles without discharge rows."""
    interval = draw(st.sampled_from([0.5, 7.3, 30.0, 120.0]))
    n = draw(st.integers(2, 8))
    nominal = draw(st.floats(0.01, 1e3))
    meta = CellMeta("prop-0", draw(st.sampled_from(list(Chemistry))), "CY25-0.5/1", nominal,
                    interval, float((n - 1) * interval))
    times = np.arange(n) * interval
    cycle_data = []
    for index in sorted(draw(st.sets(st.integers(1, 400), min_size=1, max_size=6))):
        relaxation = RelaxationCurve(times, draw(st.lists(VOLTS, min_size=n, max_size=n)),
                                     interval, CUTOFF_C_RATE * nominal)
        discharge = None
        if draw(st.booleans()):
            m = draw(st.integers(2, 6))
            charges = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m)))
            volts = sorted(draw(st.lists(VOLTS, min_size=m, max_size=m)), reverse=True)
            discharge = DischargeCurve(charges, volts, draw(st.floats(1e-3, 1e9)))
        cycle_data.append((index, relaxation, discharge, draw(CAPACITY)))
    return build_history(meta, cycle_data)


GOOD_HEADER = ("# kind=cell cell_id=x chemistry=NCA condition=CY25-0.5/1 "
               "nominal_capacity_ah=3.5 sampling_interval_s=120.0 rest_duration_s=240.0")
# File lines 3-10.
GOOD_ROWS = [
    "1,rest_post_charge,0.0,4.10,0.175,3.4",
    "1,rest_post_charge,120.0,4.12,0.0,3.4",
    "1,rest_post_charge,240.0,4.13,0.0,3.4",
    "1,discharge,0.0,4.2,-1.75,0.0",
    "1,discharge,3600.0,3.0,-1.75,3.4",
    "2,rest_post_charge,0.0,4.10,0.175,3.3",
    "2,rest_post_charge,120.0,4.12,0.0,3.3",
    "2,rest_post_charge,240.0,4.13,0.0,3.3",
]


def _cell_text(rows) -> str:
    return "\n".join([GOOD_HEADER, ",".join(CANONICAL_COLUMNS), *rows]) + "\n"


def _cli_ingest(directory: Path, cell: Path) -> int:
    entry = ManifestEntry("x", Chemistry.NCA, "CY25-0.5/1", 3.5, 120.0, 240.0, path=cell.name)
    write_manifest([entry], directory / "manifest.txt")
    return main(["ingest", "--manifest", str(directory / "manifest.txt")])


class TestColumnarIngest:
    @settings(max_examples=150, deadline=None)
    @given(cell=_histories(), rng=st.randoms(use_true_random=False))
    def test_round_trip_is_bit_exact(self, cell, rng):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cell.csv"
            write_cell(cell, path)
            assert history_bits(ingest_cell(path)) == history_bits(cell)
            # Shuffled rows, and the phases ingest skips interleaved, read the same.
            lines = path.read_text().splitlines()
            head, rows = lines[:2], lines[2:]
            for rec in cell.cycles:
                for phase in ("charge", "rest_post_discharge"):
                    rows.append(f"{rec.cycle_index},{phase},{rng.uniform(0, 1e4)},3.9,1.0,0.0")
            rng.shuffle(rows)
            path.write_text("\n".join(head + rows) + "\n")
            assert history_bits(ingest_cell(path)) == history_bits(cell)

    @settings(max_examples=100, deadline=None)
    @given(interval=st.sampled_from([7.3, 30.0, 120.0]), n=st.integers(3, 12),
           jitter=st.lists(st.floats(-0.4, 0.4), min_size=12, max_size=12),
           volts=st.lists(VOLTS, min_size=12, max_size=12), rng=st.randoms(use_true_random=False))
    def test_off_grid_rest_resamples_as_before(self, interval, n, jitter, volts, rng):
        times = np.arange(n) * interval + np.array(jitter[:n]) * interval
        times[0], times[-1] = 0.0, (n - 1) * interval + abs(jitter[-1]) * interval
        rows = [f"1,rest_post_charge,{t!r},{v!r},0.0,3.5" for t, v in zip(times.tolist(), volts)]
        rng.shuffle(rows)
        header = (f"# kind=cell cell_id=x chemistry=NCA condition=CY25-0.5/1 "
                  f"nominal_capacity_ah=3.5 sampling_interval_s={interval!r} "
                  f"rest_duration_s={(n - 1) * interval!r}")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cell.csv"
            path.write_text("\n".join([header, ",".join(CANONICAL_COLUMNS), *rows]) + "\n")
            rel = ingest_cell(path).cycles[0].relaxation
        want_t, want_v = _parent_resample(times, np.array(volts[:n]), interval)
        assert rel.times_s.tobytes() == want_t.tobytes()
        assert rel.voltages_v.tobytes() == want_v.tobytes()

    @pytest.mark.parametrize("offset", [1e-10, -1e-10, 2e-9, 1e-6])
    def test_grid_tolerance(self, tmp_path, offset):
        # Within 1e-9 s of the grid a rest is kept verbatim; beyond, resampled.
        times = np.array([0.0, 120.0 + offset, 240.0])
        path = tmp_path / "cell.csv"
        path.write_text(_cell_text([f"1,rest_post_charge,{t!r},{v},0.0,3.5"
                                    for t, v in zip(times.tolist(), (4.1, 4.12, 4.13))]))
        rel = ingest_cell(path).cycles[0].relaxation
        want_t, want_v = _parent_resample(times, np.array([4.1, 4.12, 4.13]), 120.0)
        assert rel.times_s.tobytes() == want_t.tobytes()
        assert rel.voltages_v.tobytes() == want_v.tobytes()
        assert bool(rel.times_s[1] == times[1]) == (abs(offset) <= 1e-9)

    def test_capacity_is_the_first_rest_row_in_file_order(self, tmp_path):
        path = tmp_path / "cell.csv"
        path.write_text(_cell_text(["1,rest_post_charge,240.0,4.13,0.0,3.1",
                                    "1,rest_post_charge,0.0,4.10,0.175,3.3",
                                    "1,rest_post_charge,120.0,4.12,0.0,3.2"]))
        assert ingest_cell(path).cycles[0].capacity_ah == 3.1

    @pytest.mark.parametrize("edit, line", [
        pytest.param({1: "1,rest_post_charge,120.0,4.1V,0.0,3.4"}, 4, id="unparseable-number"),
        pytest.param({1: "1,rest_post_charge,120.0,4.1_2,0.0,3.4"}, 4, id="digit-underscore"),
        pytest.param({3: "1.0,discharge,0.0,4.2,-1.75,0.0"}, 6, id="float-cycle"),
        pytest.param({1: "1,rest_post_charge,120.0,4.12,0.0"}, 4, id="too-few-fields"),
        pytest.param({3: "1,dischrge,0.0,4.2,-1.75,0.0"}, 6, id="unknown-phase"),
        pytest.param({0: "\n" + GOOD_ROWS[0], 4: "1,rest_post_discharge_x,3600.0,3.0,-1.75,3.4"},
                     8, id="unknown-phase-after-blank-line"),
        pytest.param({2: "1,rest_post_charge,120.0,4.13,0.0,3.4"}, 5, id="repeated-rest-time"),
        pytest.param({2: "1,rest_post_charge,nan,4.13,0.0,3.4"}, 5, id="rest-time-not-finite"),
        pytest.param({8: "3,charge,0.0,3.9,1.75,0.0"}, 11, id="cycle-without-rest-rows"),
        pytest.param({5: "2,rest_post_charge,0.0,4.10,0.175,0.0"}, 8, id="non-positive-capacity"),
        pytest.param({1: "1,rest_post_charge,120.0,nan,0.0,3.4"}, 4, id="nan-rest-voltage"),
        pytest.param({2: "1,rest_post_charge,240.0,-inf,0.0,3.4"}, 5, id="inf-rest-voltage"),
        pytest.param({6: "2,rest_post_charge,120.0,4.6,0.0,3.3"}, 9, id="rest-voltage-range"),
        pytest.param({0: "1,rest_post_charge,0.0,4.10,0.175,nan"}, 3, id="nan-capacity"),
        pytest.param({5: "2,rest_post_charge,0.0,4.10,0.175,inf"}, 8, id="inf-capacity"),
        pytest.param({4: "1,discharge,3600.0,nan,-1.75,3.4"}, 7, id="nan-discharge-voltage"),
        pytest.param({3: "1,discharge,nan,4.2,-1.75,0.0"}, 6, id="nan-discharge-time"),
        pytest.param({7: "2,rest_post_charge,120.5,4.13,0.0,3.3"}, 8, id="short-rest"),
        pytest.param({8: "2,rest_post_charge,360.0,4.14,0.0,3.3"}, 8, id="rest-one-interval-long"),
        pytest.param({2: "1,rest_post_charge,1.2e7,4.13,0.0,3.4"}, 3, id="rest-1.2e7-s-long"),
        # Kept as given (within 1e-9 s of the grid), so the curve starts after 0.
        pytest.param({5: "2,rest_post_charge,1e-10,4.10,0.175,3.3"}, 8, id="rest-start-after-0"),
        pytest.param({4: "1,discharge,3600.0,3.0,-1.75,-0.5"}, 7, id="falling-discharge-charge"),
        pytest.param({4: "1,discharge,3600.0,4.3,-1.75,3.4"}, 7, id="rising-discharge-voltage"),
        pytest.param({3: "1,charge,0.0,4.2,-1.75,0.0"}, 7, id="one-discharge-row"),
        pytest.param({4: "1,discharge,0.0,3.0,-1.75,3.4"}, 7, id="zero-discharge-duration"),
        pytest.param({i: "0" + GOOD_ROWS[i][1:] for i in (5, 6, 7)}, 8, id="cycle-index-0"),
    ])
    def test_rejection_names_file_and_line(self, tmp_path, capsys, edit, line):
        rows = [edit.get(i, row) for i, row in enumerate(GOOD_ROWS)]
        rows += [text for i, text in edit.items() if i >= len(GOOD_ROWS)]
        path = tmp_path / "cell.csv"
        path.write_text(_cell_text(rows))
        with pytest.raises(ValidationError, match=rf"{re.escape(str(path))} line {line}:"):
            ingest_cell(path)
        assert _cli_ingest(tmp_path, path) == 3
        assert "ValidationError" in capsys.readouterr().err

    def test_duplicated_column_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "cell.csv"
        path.write_text(_cell_text(GOOD_ROWS).replace("current_a", "voltage_v"))
        where = re.escape(f"{path} line 2")
        with pytest.raises(SchemaError, match=f"{where}: duplicated column 'voltage_v'"):
            ingest_cell(path)
        assert _cli_ingest(tmp_path, path) == 3

    def test_good_rows_ingest(self, tmp_path):
        path = tmp_path / "cell.csv"
        path.write_text(_cell_text(GOOD_ROWS))
        cell = ingest_cell(path)
        assert [rec.cycle_index for rec in cell.cycles] == [1, 2]
        assert cell.cycles[0].discharge.duration_s == 3600.0
        assert cell.cycles[1].discharge is None


def _relaxation_checks(times, volts, interval, current) -> list[tuple[str, bool]]:
    """Oracle: each check of one relaxation curve in the constructor's order,
    as (message, passed), one value at a time."""
    t, v = times.tolist(), volts.tolist()
    return [
        ("relaxation curve needs at least 2 samples", len(t) >= 2),
        ("relaxation curve must start at t = 0", bool(t) and t[0] == 0.0),
        ("relaxation times must be finite and strictly increasing",
         all(b - a > 0 for a, b in zip(t, t[1:])) and bool(t) and math.isfinite(t[-1])),
        ("relaxation voltage is not a number in [2.0, 4.5] V", all(2.0 <= x <= 4.5 for x in v)),
        ("sampling interval must be finite and positive", 0 < interval < math.inf),
        ("cutoff current must be finite and positive", 0 < current < math.inf),
    ]


def _discharge_checks(charges, volts, duration) -> list[tuple[str, bool]]:
    """Oracle: each check of one stored-charge discharge curve, as
    ``_relaxation_checks``."""
    q, v = charges.tolist(), volts.tolist()

    def monotone(x, step_ok):
        return (all(step_ok(b - a) for a, b in zip(x, x[1:]))
                and bool(x) and math.isfinite(x[0]) and math.isfinite(x[-1]))

    return [
        ("discharge curve needs at least 2 points", len(q) >= 2),
        ("discharged charge must be finite and non-decreasing", monotone(q, lambda d: d >= 0)),
        ("discharge voltage must be finite and non-increasing", monotone(v, lambda d: d <= 0)),
        ("discharge duration must be finite and positive", 0 < duration < math.inf),
    ]


def _cycle_checks(index, capacity) -> list[tuple[str, bool]]:
    """Oracle: each check of one cycle record, as ``_relaxation_checks``."""
    return [("cycle index must be a positive integer", not index < 1),
            ("capacity must be finite and positive", 0 < capacity < math.inf)]


def _block_refusal(records) -> tuple[int, str] | None:
    """Oracle: a block check's (record, problem) from each record's checks:
    the first check that some record fails, at the first record failing it."""
    for check in range(len(records[0])):
        for k, checks in enumerate(records):
            problem, passed = checks[check]
            if not passed:
                return k, problem
    return None


def _own_refusal(checks) -> str | None:
    return next((problem for problem, passed in checks if not passed), None)


def _refusal_of(make) -> str | None:
    """The message of the ValidationError ``make()`` raises, or None."""
    try:
        make()
    except ValidationError as exc:
        return str(exc)
    return None


def _located(fault):
    return None if fault is None else (fault.record, fault.problem)


def _curve_bits(curve) -> list:
    """A relaxation or discharge curve's fields, arrays as bytes."""
    if isinstance(curve, RelaxationCurve):
        return [curve.times_s.tobytes(), curve.voltages_v.tobytes(), curve.sampling_interval_s,
                curve.cutoff_current_a]
    return [curve.charges_ah.tobytes(), curve.voltages_v.tobytes(), curve.duration_s,
            curve.capacity_ah]


NOT_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def _relaxation_blocks(draw):
    """A (records x samples) voltage block with its times (one row that all
    records share, 1-D or not, or one row each), interval and current, with
    bad entries."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    interval = draw(st.sampled_from([0.5, 30.0, 120.0]))
    current = draw(st.sampled_from([0.05, 0.175]))
    rows = draw(st.sampled_from([1, k]))
    t = np.tile(np.arange(n) * interval, (rows, 1))
    v = np.array(draw(st.lists(VOLTS, min_size=k * n, max_size=k * n))).reshape(k, n)
    for _ in range(draw(st.integers(0, 3))):
        r, i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, k - 1)), draw(st.integers(1, n - 1))
        kind = draw(st.sampled_from(["voltage", "start", "order", "time", "interval", "current"]))
        if kind == "voltage":
            v[i, j - draw(st.integers(0, 1))] = draw(st.sampled_from([np.nan, 1.99, 4.51, np.inf]))
        elif kind == "start":
            t[r, 0] = draw(st.sampled_from([1e-10, -1e-10, np.nan, 0.5 * interval]))
        elif kind == "order":
            t[r, j] = t[r, j - 1] - draw(st.sampled_from([0.0, 1e-9, interval]))
        elif kind == "time":
            t[r, j] = draw(NOT_FINITE)
        elif kind == "interval":
            interval = draw(st.sampled_from([0.0, -1.0, np.inf, np.nan]))
        else:
            current = draw(st.sampled_from([0.0, -0.1, np.inf, np.nan]))
    if draw(st.integers(0, 9)) == 0:
        t, v = t[:, :1], v[:, :1]
    if rows == 1 and draw(st.booleans()):
        t = t[0]  # the shared row as simulation passes it
    return t, v, interval, current


@st.composite
def _discharge_blocks(draw):
    """Discharge curves laid end to end (charges, voltages, bounds,
    durations), as ingest sorts them, with bad entries."""
    curves = []
    for _ in range(draw(st.integers(1, 5))):
        m = draw(st.integers(2, 6))
        q = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m)))
        v = sorted(draw(st.lists(VOLTS, min_size=m, max_size=m)), reverse=True)
        curves.append([q, v, draw(st.floats(1e-3, 1e9))])
    for _ in range(draw(st.integers(0, 3))):
        q, v, _ = curve = curves[draw(st.integers(0, len(curves) - 1))]
        j = draw(st.integers(0, len(q) - 1))
        kind = draw(st.sampled_from(["falling", "rising", "charge", "voltage", "duration",
                                     "short"]))
        if kind == "falling" and j:
            q[j] = q[j - 1] - draw(st.sampled_from([1e-12, 1.0]))
        elif kind == "rising" and j:
            v[j] = v[j - 1] + draw(st.sampled_from([1e-12, 0.1]))
        elif kind == "charge":
            q[j] = draw(NOT_FINITE)
        elif kind == "voltage":
            v[j] = draw(NOT_FINITE)
        elif kind == "duration":
            curve[2] = draw(st.sampled_from([0.0, -1.0, np.inf, np.nan]))
        elif kind == "short":
            del q[1:], v[1:]
    bounds = np.cumsum([0] + [len(q) for q, _, _ in curves])
    return ([np.array(q, dtype=float) for q, _, _ in curves],
            [np.array(v, dtype=float) for _, v, _ in curves], bounds,
            np.array([d for _, _, d in curves]))


class TestBlockChecks:
    """A block check refuses as its records' constructors do, one at a time."""

    # An infinite entry next to another subtracts to NaN, as one record's check does.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
    @settings(max_examples=300, deadline=None)
    @given(block=_relaxation_blocks())
    def test_relaxation_block(self, block):
        t, v, interval, current = block
        times = [t if t.ndim == 1 else t[k if len(t) > 1 else 0] for k in range(len(v))]
        records = [_relaxation_checks(times[k], v[k], interval, current) for k in range(len(v))]
        fault = dataset.relaxation_fault(t, v, interval, current)
        assert _located(fault) == _block_refusal(records)
        if fault is not None:
            assert 0 <= fault.item < v.shape[1]
        for k, checks in enumerate(records):
            refusal = _refusal_of(lambda: RelaxationCurve(times[k], v[k], interval, current))
            assert refusal == _own_refusal(checks)
            if refusal is None:
                built = RelaxationCurve.trusted(times[k], v[k], interval, current)
                assert _curve_bits(built) == _curve_bits(
                    RelaxationCurve(times[k], v[k], interval, current))

    # An infinite entry next to another subtracts to NaN, as one record's check does.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
    @settings(max_examples=300, deadline=None)
    @given(block=_discharge_blocks())
    # A non-finite first item whose step to the next one is monotone.
    @example(block=([np.array([-np.inf, 1.0])], [np.array([4.2, 3.0])], np.array([0, 2]),
                    np.array([10.0])))
    @example(block=([np.array([0.0, 1.0]), np.array([0.0, 2.0])],
                    [np.array([4.2, 3.0]), np.array([np.inf, 3.0])], np.array([0, 2, 4]),
                    np.array([10.0, 10.0])))
    def test_discharge_block(self, block):
        charges, volts, bounds, durations = block
        records = [_discharge_checks(q, v, d) for q, v, d in zip(charges, volts, durations)]
        fault = dataset.discharge_fault(np.concatenate(charges), np.concatenate(volts), bounds,
                                        durations)
        assert _located(fault) == _block_refusal(records)
        if fault is not None:
            assert 0 <= fault.item < max(charges[fault.record].size, 1)
        for q, v, d, checks in zip(charges, volts, durations.tolist(), records):
            refusal = _refusal_of(lambda: DischargeCurve(q, v, d))
            assert refusal == _own_refusal(checks)
            if refusal is None:
                assert _curve_bits(DischargeCurve.trusted(q, v, d)) == \
                    _curve_bits(DischargeCurve(q, v, d))

    @settings(max_examples=200, deadline=None)
    @given(indices=st.lists(st.integers(-2, 400), min_size=1, max_size=6, unique=True),
           capacities=st.lists(st.one_of(CAPACITY, st.sampled_from([0.0, -1.0, np.nan, np.inf])),
                               min_size=6, max_size=6))
    def test_cycle_block(self, indices, capacities):
        indices, capacities = sorted(indices), capacities[:len(indices)]
        records = [_cycle_checks(i, c) for i, c in zip(indices, capacities)]
        want = _block_refusal(records)
        assert _located(dataset.cycle_fault(np.array(indices), np.array(capacities))) == want
        curve = RelaxationCurve(np.array([0.0, 120.0]), np.array([4.1, 4.11]), 120.0, 0.175)
        for i, c, checks in zip(indices, capacities, records):
            assert _refusal_of(lambda: CycleRecord(i, curve, c, 0.0, 0.0)) == _own_refusal(checks)
        meta = CellMeta("block", Chemistry.NCA, "CY25-0.5/1", 3.5, 120.0, 120.0)
        made = []
        refusal = _refusal_of(lambda: made.append(
            build_history(meta, [(i, curve, None, c) for i, c in zip(indices, capacities)])))
        assert refusal == (want and want[1])
        if made:
            cumulative = np.cumsum(2.0 * np.array(capacities)).tolist()
            for rec, i, c, total in zip(made[0].cycles, indices, capacities, cumulative):
                assert rec == CycleRecord(i, curve, c, total, rec.calendar_days)

    def test_block_checks_run_once_per_cell(self, monkeypatch, tmp_path):
        # The number of block checks does not grow with the cell's cycles.
        counts = collections.Counter()

        def counted(name, check):
            def count(*args):
                counts[name] += 1
                return check(*args)
            return count

        for name in ("relaxation_fault", "discharge_fault", "cycle_fault"):
            monkeypatch.setattr(dataset, name, counted(name, getattr(dataset, name)))
        monkeypatch.setattr(simgen, "relaxation_fault", dataset.relaxation_fault)
        profile = simgen.condition_profile(300.0, seed=5, noise_sigma_v=2e-4)
        seen = []
        for horizon in (3, 40):
            counts.clear()
            cell = simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, horizon, discharge_knots=50)
            simulated = dict(counts)
            write_cell(cell, tmp_path / "cell.csv")
            counts.clear()
            assert ingest_cell(tmp_path / "cell.csv").n_cycles == horizon
            seen.append((simulated, dict(counts)))
        assert seen[0] == seen[1]
        # Simulation checks its voltage block, its template (the first ramp)
        # and, in build_history, the indices and capacities; ingest checks its
        # two blocks, the indices and capacities to name a refused row, and
        # build_history checks those again.
        assert seen[1] == ({"relaxation_fault": 1, "discharge_fault": 1, "cycle_fault": 1},
                           {"relaxation_fault": 1, "discharge_fault": 1, "cycle_fault": 2})


def _same_as_oracle(cell, directory: Path) -> None:
    """``write_cell`` writes the bytes of the cycle-by-cycle oracle."""
    got, want = directory / "got.csv", directory / "want.csv"
    write_cell(cell, got, header_comment="kind=cell x=1")
    write_cell_per_cycle(cell, want, header_comment="kind=cell x=1")
    assert got.read_bytes() == want.read_bytes()


@pytest.fixture(scope="module")
def patchwork_sources():
    """Six-cycle cells whose shared arrays differ: templates of three knot
    counts and two voltage windows, and a 30 s rest grid."""
    profile = simgen.DriftProfile(initial=simgen.DEFAULT_INITIAL, noise_sigma_v=5e-4, seed=3)
    return [simgen.simulate_cell(profile, protocol, 6, discharge_knots=knots)
            for protocol, knots in [(simgen.NCA_PROTOCOL, 2), (simgen.NCA_PROTOCOL, 50),
                                    (simgen.NCA_PROTOCOL, 1000), (simgen.NCM_PROTOCOL, 50),
                                    (simgen.NCM_NCA_PROTOCOL, 50)]]


class TestWriteCellOracle:
    @pytest.mark.parametrize("knots", [2, 50, 1000])
    def test_simulated_then_ingested(self, tmp_path, knots):
        cell = simgen.simulate_cell(simgen.condition_profile(300.0, seed=5, noise_sigma_v=2e-4),
                                    simgen.NCA_PROTOCOL, 12, discharge_knots=knots)
        first, second = cell.cycles[0], cell.cycles[1]
        assert first.relaxation.times_s is second.relaxation.times_s
        assert first.discharge.voltages_v is second.discharge.voltages_v
        _same_as_oracle(cell, tmp_path)
        back = ingest_cell(tmp_path / "want.csv")
        assert back.cycles[0].discharge.voltages_v is not back.cycles[1].discharge.voltages_v
        _same_as_oracle(back, tmp_path)

    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=1, max_size=6))
    def test_cycles_of_mixed_cells(self, patchwork_sources, picks):
        # Cycle m comes from source cell i, without its discharge when asked.
        cycle_data = []
        for m, (i, drop) in enumerate(picks, start=1):
            rec = patchwork_sources[i].cycles[m - 1]
            cycle_data.append((m, rec.relaxation, None if drop else rec.discharge,
                               rec.capacity_ah))
        cell = build_history(CellMeta.of(patchwork_sources[0]), cycle_data)
        with tempfile.TemporaryDirectory() as tmp:
            _same_as_oracle(cell, Path(tmp))

    @settings(max_examples=60, deadline=None)
    @given(cell=_histories())
    def test_unshared_arrays(self, cell):
        with tempfile.TemporaryDirectory() as tmp:
            _same_as_oracle(cell, Path(tmp))


class TestZeroCRate:
    """A cycle at a zero C-rate would never end: every way a condition code
    reaches the program refuses one."""

    @pytest.mark.parametrize("code", ["CY25-0/1", "CY25-0.5/0", "CY25-0.0/0.0"])
    def test_parse_refuses_a_zero_rate(self, code):
        with pytest.raises(ValidationError, match="zero C-rate"):
            parse_condition(code)

    def test_cell_header(self, tmp_path):
        path = tmp_path / "cell.csv"
        path.write_text(_cell_text(GOOD_ROWS).replace("condition=CY25-0.5/1",
                                                      "condition=CY25-0.5/0"))
        with pytest.raises(ValidationError, match="zero C-rate"):
            ingest_cell(path)

    def test_manifest_fails_ingest_with_exit_3(self, tmp_path, capsys):
        (tmp_path / "cell.csv").write_text(_cell_text(GOOD_ROWS))
        entry = ManifestEntry("x", Chemistry.NCA, "CY25-0/1", 3.5, 120.0, 240.0, path="cell.csv")
        write_manifest([entry], tmp_path / "manifest.txt")
        assert main(["ingest", "--manifest", str(tmp_path / "manifest.txt")]) == 3
        assert "zero C-rate" in capsys.readouterr().err


class TestManifest:
    def test_manifest_roundtrip(self, tmp_path):
        cells = [_simulated_cell(seed=i, horizon=3, cell_id=f"m-{i:02d}") for i in range(3)]
        cell_dir = tmp_path / "cells"
        cell_dir.mkdir()
        entries = []
        for cell in cells:
            write_cell(cell, cell_dir / f"{cell.cell_id}.csv")
            entries.append(ManifestEntry(
                cell_id=cell.cell_id, path=f"cells/{cell.cell_id}.csv",
                chemistry=cell.chemistry, condition=cell.condition,
                nominal_capacity_ah=cell.nominal_capacity_ah,
                sampling_interval_s=120.0, rest_duration_s=1800.0,
            ))
        write_manifest(entries, tmp_path / "manifest.txt")
        parsed = read_manifest(tmp_path / "manifest.txt")
        assert [e.cell_id for e in parsed] == ["m-00", "m-01", "m-02"]
        loaded = ingest_manifest(tmp_path / "manifest.txt")
        assert [c.cell_id for c in loaded] == ["m-00", "m-01", "m-02"]

    def test_missing_manifest_key(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("cell.a.path = a.csv\ncell.a.chemistry = NCA\n")
        with pytest.raises(SchemaError):
            read_manifest(path)


class TestCellMeta:
    @settings(max_examples=200, deadline=None)
    @given(
        cell_id=st.from_regex(r"[A-Za-z0-9_.+-]{1,16}", fullmatch=True),
        chemistry=st.sampled_from(list(Chemistry)),
        condition=st.from_regex(r"CY[0-9]{1,2}-[0-9]\.[0-9]/[0-9]", fullmatch=True),
        numbers=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                         min_size=3, max_size=3),
    )
    def test_fields_parse_round_trip(self, cell_id, chemistry, condition, numbers):
        meta = CellMeta(cell_id, chemistry, condition, *numbers)
        back = CellMeta.parse(dict(meta.fields()), "round trip")
        assert back == meta
        assert back.chemistry is chemistry
        for a, b in zip(numbers, (back.nominal_capacity_ah, back.sampling_interval_s,
                                  back.rest_duration_s)):
            assert np.float64(a).tobytes() == np.float64(b).tobytes()

    @pytest.mark.parametrize("cell_id", ["a b", "a\tb", "a\rb", "a\nb", "a=b", ""])
    def test_id_that_cannot_read_back_is_rejected(self, cell_id):
        with pytest.raises(ValidationError, match="cell id"):
            CellMeta(cell_id, Chemistry.NCA, "CY25-0.5/1", 3.5, 120.0, 1800.0)

    def test_header_id_that_cannot_read_back(self, tmp_path):
        path = tmp_path / "cell.csv"
        with pytest.raises(ValidationError, match="cell id 'a b'"):
            write_cell(replace(_simulated_cell(horizon=3), cell_id="a b"), path)
        path.write_text(_cell_text(GOOD_ROWS).replace("cell_id=x", "cell_id=a=b"))
        with pytest.raises(ValidationError, match=rf"{re.escape(str(path))}: cell id 'a=b'"):
            ingest_cell(path)

    def test_manifest_id_that_cannot_read_back(self, tmp_path, capsys):
        (tmp_path / "cell.csv").write_text(_cell_text(GOOD_ROWS))
        assert _cli_ingest(tmp_path, tmp_path / "cell.csv") == 0
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("cell.x.", "cell.a b."))
        with pytest.raises(ValidationError, match="cell a b: cell id 'a b'"):
            read_manifest(manifest)
        assert main(["ingest", "--manifest", str(manifest)]) == 3
        assert "ValidationError" in capsys.readouterr().err

    def test_missing_key_is_schema_error(self):
        meta = CellMeta("x", Chemistry.NCM_NCA, "CY25-0.5/1", 3.5, 120.0, 1800.0)
        for key, _ in meta.fields():
            values = dict(meta.fields())
            del values[key]
            with pytest.raises(SchemaError, match=key):
                CellMeta.parse(values, "partial")


class TestSplit:
    def _cells(self, n, condition="CY45-0.5/1"):
        out = []
        for i in range(n):
            cell = _simulated_cell(seed=i, horizon=3, cell_id=f"s-{i:02d}")
            out.append(cell)
        # rewrite condition without resimulating
        from dataclasses import replace
        return [replace(c, condition=condition) for c in out]

    def test_counts_honored(self):
        cells = self._cells(21)
        split = split_dataset(cells, {"CY45-0.5/1": (11, 10)}, seed=0)
        assert len(split.train) == 11
        assert len(split.test) == 10
        assert not (split.train & split.test)

    def test_zero_train(self):
        cells = self._cells(4)
        split = split_dataset(cells, {"CY45-0.5/1": (0, 4)}, seed=0)
        assert len(split.train) == 0
        assert len(split.test) == 4

    def test_deterministic(self):
        cells = self._cells(10)
        a = split_dataset(cells, {"CY45-0.5/1": (5, 5)}, seed=42)
        b = split_dataset(cells, {"CY45-0.5/1": (5, 5)}, seed=42)
        assert a == b

    def test_insufficient(self):
        cells = self._cells(3)
        with pytest.raises(InsufficientCellsError):
            split_dataset(cells, {"CY45-0.5/1": (3, 1)}, seed=0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_seeds_partition(self, seed):
        cells = self._cells(6)
        split = split_dataset(cells, {"CY45-0.5/1": (3, 2)}, seed=seed)
        assert len(split.train) == 3 and len(split.test) == 2
        assert not (split.train & split.test)


class TestBookkeeping:
    def test_cumulative_throughput_is_twice_discharged(self):
        cell = _simulated_cell(horizon=10, noise=0.0)
        caps = cell.capacities()
        expected = 2.0 * np.cumsum(caps)
        got = np.array([r.cumulative_ah for r in cell.cycles])
        assert np.allclose(got, expected, rtol=0, atol=0)

    def test_calendar_starts_at_zero(self):
        cell = _simulated_cell(horizon=5)
        assert cell.cycles[0].calendar_days == 0.0
        days = [r.calendar_days for r in cell.cycles]
        assert all(b > a for a, b in zip(days, days[1:]))


class TestCycleLookup:
    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.integers(min_value=1, max_value=400), min_size=1, max_size=40),
           st.lists(st.integers(min_value=-5, max_value=410), max_size=60))
    def test_lookup_agrees_with_linear_scan(self, index_set, queries):
        # Strictly increasing indices with gaps; queries hit present,
        # missing and out-of-range cycles.
        curve = RelaxationCurve(np.arange(6) * 120.0, np.full(6, 4.1), 120.0, 0.175)
        records = tuple(
            CycleRecord(cycle_index=m, relaxation=curve, capacity_ah=3.0,
                        cumulative_ah=float(k), calendar_days=float(k))
            for k, m in enumerate(sorted(index_set))
        )
        cell = CellHistory("lk-00", Chemistry.NCA, "CY25-0.5/1", 3.5, records, None)
        for m in list(index_set) + queries:
            scanned = [rec for rec in records if rec.cycle_index == m]
            assert cell.has_cycle(m) == bool(scanned)
            if scanned:
                assert cell.record(m) is scanned[0]
            else:
                with pytest.raises(UnknownCycleError):
                    cell.record(m)
