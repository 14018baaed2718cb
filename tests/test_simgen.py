import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batlife import ecm, simgen
from batlife.dataset import CellMeta, Discharges, build_history
from batlife.errors import DataError, ValidationError

from conftest import history_bits, make_discharge, records, simulate_cell_per_cycle


def _profile(**kwargs):
    defaults = dict(initial=simgen.DEFAULT_INITIAL, seed=1)
    defaults.update(kwargs)
    return simgen.DriftProfile(**defaults)


class TestDrift:
    def test_zero_drift_zero_noise_curves_identical(self):
        cell = simgen.simulate_cell(_profile(), simgen.NCA_PROTOCOL, 12, discharge_knots=50)
        first = cell.voltages_v[0]
        for volts in cell.voltages_v[1:]:
            assert np.array_equal(volts, first)

    def test_ocv_drift_closed_form(self):
        # A drift of -2e-5 V per cycle reaches exactly -0.01 V at cycle 500.
        ocv0 = simgen.DEFAULT_INITIAL.ocv
        rates = simgen.DriftRates(ocv=-2e-5 / ocv0)
        profile = _profile(rates=rates, fade_ref_cycles=2000.0)
        params = simgen.drifted_params(profile, 500)
        assert params.ocv == ocv0 - 0.01

    def test_drift_underflow(self):
        rates = simgen.DriftRates(c_e=-0.01)
        profile = _profile(rates=rates)
        with pytest.raises(DataError, match="c_e becomes non-positive at cycle"):
            simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 150, discharge_knots=50)

    def test_capacity_strictly_decreasing(self):
        cell = simgen.simulate_cell(_profile(fade_a=0.25, fade_ref_cycles=200.0),
                                    simgen.NCA_PROTOCOL, 100, discharge_knots=50)
        caps = cell.capacities_ah
        assert np.all(np.diff(caps) < 0)

    def test_invalid_fade_rejected(self):
        with pytest.raises(ValidationError):
            _profile(fade_a=0.0)
        with pytest.raises(ValidationError):
            _profile(fade_b=-1.0)

    @pytest.mark.parametrize("name, message", [
        ("fade_a", "fade coefficients a and b must be positive"),
        ("fade_b", "fade coefficients a and b must be positive"),
        ("fade_ref_cycles", "fade reference cycle count must be positive"),
        ("noise_sigma_v", "noise sigma and cell spread must be non-negative"),
        ("cell_spread", "noise sigma and cell spread must be non-negative"),
    ])
    def test_nan_rejected(self, name, message):
        with pytest.raises(ValidationError, match=message):
            _profile(**{name: float("nan")})


class TestDeterminism:
    def test_identical_seed_bit_identical(self):
        profile = _profile(noise_sigma_v=0.001, seed=77)
        a = simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 10, discharge_knots=50)
        b = simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 10, discharge_knots=50)
        assert np.array_equal(a.voltages_v, b.voltages_v)

    def test_different_seeds_differ(self):
        a = simgen.simulate_cell(_profile(noise_sigma_v=0.001, seed=1),
                                 simgen.NCA_PROTOCOL, 5, discharge_knots=50)
        b = simgen.simulate_cell(_profile(noise_sigma_v=0.001, seed=2),
                                 simgen.NCA_PROTOCOL, 5, discharge_knots=50)
        assert not np.array_equal(a.voltages_v[0], b.voltages_v[0])

    def test_fleet_stable_under_cell_count(self):
        # Cell k is identical whether simulated in a fleet of 2 or of 4.
        profile = _profile(noise_sigma_v=0.0005, cell_spread=0.05, seed=9)
        two = simgen.simulate_fleet(profile, simgen.NCA_PROTOCOL, 5, 2, discharge_knots=50)
        four = simgen.simulate_fleet(profile, simgen.NCA_PROTOCOL, 5, 4, discharge_knots=50)
        assert np.array_equal(two[1].voltages_v[0], four[1].voltages_v[0])


class TestRoundTripOracle:
    def test_noiseless_fit_recovers_programmed_params(self):
        rates = simgen.DriftRates(ocv=-1e-5, r_o=5e-4, r_e=4e-4, c_e=-2e-4,
                                  r_c=4e-4, c_c=-2e-4)
        profile = _profile(rates=rates, fade_ref_cycles=1000.0)
        cell = simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 40, discharge_knots=50)
        for m in (1, 20, 40):
            truth = simgen.drifted_params(profile, m)
            report = ecm.fit(cell.record(m).relaxation)
            rel = np.abs(report.params.as_array() - truth.as_array()) / np.abs(truth.as_array())
            assert rel.max() < 0.01, f"cycle {m}: {rel}"

    def test_noisy_refits_scatter_with_small_amplitude_errors(self):
        # Monte-Carlo across 100 cycles at 1 mV noise: the recovered total
        # polarization amplitude stays within 5% of the programmed one.
        # Amplitudes are drawn at instrumentation scale (hundreds of mV):
        # at millivolt amplitudes the noise exceeds the per-branch signal
        # and no estimator can meet this band.
        truth = ecm.EcmParams(ocv=4.4, r_o=0.5, r_e=2.0, c_e=75.0, r_c=3.0, c_c=350.0)
        profile = _profile(initial=truth, noise_sigma_v=0.001, seed=31)
        cell = simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 100, discharge_knots=50)
        amp_truth = truth.r_e + truth.r_c
        for record in records(cell):
            fitted = ecm.fit(record.relaxation).params
            amp = fitted.r_e + fitted.r_c
            assert abs(amp - amp_truth) / amp_truth < 0.05


class TestDischarge:
    def test_template_monotone(self):
        disc = make_discharge(simgen.NCA_PROTOCOL, 3.5)
        assert np.all(np.diff(disc.charges_ah) >= 0)
        assert np.all(np.diff(disc.voltages_v) <= 0)
        assert disc.capacity_ah == 3.5
        lower, upper = simgen.NCA_PROTOCOL.voltage_window
        assert disc.voltages_v[0] == upper
        assert disc.voltages_v[-1] == lower

    def test_duration_tracks_capacity(self):
        full = make_discharge(simgen.NCA_PROTOCOL, 3.5)
        faded = make_discharge(simgen.NCA_PROTOCOL, 2.8)
        assert faded.duration_s < full.duration_s
        # CC discharge at 1C of a 3.5 Ah nominal: duration = cap / 3.5 * 3600
        assert full.duration_s == pytest.approx(3600.0)
        assert faded.duration_s == pytest.approx(2.8 / 3.5 * 3600.0)

    def test_zero_rate_protocol_is_refused(self):
        protocol = replace(simgen.NCA_PROTOCOL, condition="CY25-0.5/0")
        with pytest.raises(ValidationError, match="zero C-rate"):
            simgen.simulate_cell(_profile(), protocol, 3)


class TestDischargeRamp:
    """A simulated cycle's charges: the template's knots ramped to its capacity."""

    @pytest.mark.parametrize("fade_b", [0.7, 1.3])
    @pytest.mark.parametrize("knots", [2, 50, 1000])
    def test_charges_are_the_rows_of_the_block(self, knots, fade_b):
        profile = replace(simgen.condition_profile(300.0, seed=5), fade_b=fade_b)
        cell = simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 200, discharge_knots=knots)
        capacities = cell.capacities_ah.tolist()
        block = np.linspace(0.0, capacities, knots, axis=1)
        for rec, row in zip(records(cell), block):
            assert rec.discharge.charges_ah.tobytes() == row.tobytes()
            assert rec.discharge.capacity_ah == rec.capacity_ah

    @pytest.mark.parametrize("capacity", [np.nan, 0.0, np.inf])
    def test_capacity_must_be_finite_and_positive(self, capacity):
        # A ramp rises to its cycle's capacity, which the cell checks.
        lower, upper = simgen.NCA_PROTOCOL.voltage_window
        template = simgen._pseudo_ocv_template(upper, lower, 50)
        meta = CellMeta("ramp", simgen.NCA_PROTOCOL.chemistry, "CY25-0.5/1", 3.5, 120.0, 120.0)
        times, volts = np.array([0.0, 120.0]), np.array([[4.1, 4.11], [4.1, 4.11]])

        def cell(capacities):
            return build_history(meta, np.array([1, 2]), np.array(capacities), times, volts,
                                 Discharges(template, np.array([3600.0, 3600.0])))

        assert cell([3.5, 3.4]).record(2).discharge.capacity_ah == 3.4
        with pytest.raises(ValidationError, match="capacity must be finite and positive"):
            cell([3.5, capacity])

    def test_peak_memory_below_the_charge_block(self):
        # Stored charges would take a (cycles x knots) block per cell.
        cycles, knots = 400, 1000
        profile = simgen.condition_profile(500.0, seed=5)
        tracemalloc.start()
        try:
            cell = simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, cycles,
                                        discharge_knots=knots)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cell.n_cycles == cycles
        assert peak < cycles * knots * 8


def _outcome(simulate, *args, **kwargs):
    """What a simulator gives: the history's bits, or the error it raises."""
    try:
        return history_bits(simulate(*args, **kwargs))
    except DataError as exc:
        return type(exc), str(exc)


def _quiet_outcome(*args, **kwargs):
    """``simulate_cell``'s outcome, with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _outcome(simgen.simulate_cell, *args, **kwargs)


@st.composite
def _cells(draw):
    """Arguments of ``simulate_cell``: a benchmark-condition profile, with
    or without noise and per-cell spread, an integer or non-integer fade
    exponent, either sampling protocol, and a few discharge knot counts."""
    profile = simgen.condition_profile(
        draw(st.sampled_from([150.0, 300.0, 800.0])), seed=draw(st.integers(0, 2**40)),
        signature=draw(st.integers(0, 2)),
        noise_sigma_v=draw(st.sampled_from([0.0, 2e-4, 1e-3])),
        cell_spread=draw(st.sampled_from([0.0, 0.02, 0.05])),
    )
    profile = simgen.spread_profile(
        replace(profile, fade_b=draw(st.sampled_from([0.7, 1.0, 1.3, 2.0]))),
        draw(st.integers(0, 5)),
    )
    protocol = draw(st.sampled_from([simgen.NCA_PROTOCOL, simgen.NCM_NCA_PROTOCOL]))
    return profile, protocol, draw(st.integers(1, 60)), draw(st.sampled_from([2, 7, 50, 1000]))


# A fast branch whose time constant (480 s at cycle 0) rises above the slow
# branch's 500 s from cycle 10 to 90 and falls back below it by cycle 150.
_CROSSING = simgen.DriftProfile(
    initial=ecm.EcmParams(ocv=4.19, r_o=0.135, r_e=0.15, c_e=3200.0, r_c=0.3, c_c=5000.0 / 3.0),
    rates=simgen.DriftRates(r_e=0.01, c_e=-0.005), fade_ref_cycles=1000.0, seed=3,
)


def _violates(profile, cycle: int) -> bool:
    try:
        simgen.drifted_params(profile, cycle)
    except ValidationError:
        return True
    return False


class TestWholeCell:
    """``simulate_cell`` against the cycle-by-cycle oracle, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(args=_cells())
    def test_equals_per_cycle_oracle(self, args):
        profile, protocol, horizon, knots = args
        want = _outcome(simulate_cell_per_cycle, profile, protocol, horizon,
                        discharge_knots=knots)
        assert _quiet_outcome(profile, protocol, horizon, discharge_knots=knots) == want
        assert isinstance(want, list)

    def test_zero_amp_discharge_is_refused_as_an_infinite_duration(self):
        # A discharge rate of 1e-320 C gives an infinite duration at every cycle.
        protocol = replace(simgen.NCA_PROTOCOL, condition="CY25-0.5/0." + "0" * 319 + "1")
        got = _quiet_outcome(_profile(), protocol, 3, discharge_knots=7)
        assert got == (ValidationError, "discharge duration must be finite and positive")
        assert got == _outcome(simulate_cell_per_cycle, _profile(), protocol, 3,
                               discharge_knots=7)
        # With a 1e-5 Ah cell the discharge current underflows to 0 A, which
        # is refused the same way (not divided by).
        tiny = replace(protocol, nominal_capacity_ah=1e-5)
        assert _quiet_outcome(_profile(), tiny, 3, discharge_knots=7) == got

    def test_shared_arrays_are_one_read_only_object(self):
        cell = simgen.simulate_cell(_profile(noise_sigma_v=1e-3), simgen.NCA_PROTOCOL, 5,
                                    discharge_knots=50)
        first = cell.record(1)
        for record in records(cell):
            assert record.relaxation.times_s is first.relaxation.times_s
            assert record.discharge.voltages_v is first.discharge.voltages_v
        for array in (first.relaxation.times_s, first.relaxation.voltages_v,
                      first.discharge.charges_ah, first.discharge.voltages_v,
                      cell.relaxation(1, truncate=6).voltages_v):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_underflow_at_the_horizon(self):
        profile = _profile(rates=simgen.DriftRates(c_e=-0.01))
        with pytest.raises(DataError, match="c_e becomes non-positive at cycle 150"):
            simgen.drifted_params(profile, 150)
        got = _quiet_outcome(profile, simgen.NCA_PROTOCOL, 150, discharge_knots=50)
        assert got == (DataError, "c_e becomes non-positive at cycle 150")
        assert got == _outcome(simulate_cell_per_cycle, profile, simgen.NCA_PROTOCOL, 150,
                               discharge_knots=50)

    def test_canonical_violation_in_mid_horizon(self):
        bad = [m for m in range(1, 151) if _violates(_CROSSING, m)]
        assert bad == list(range(10, 91))
        with pytest.raises(ValidationError) as first:
            simgen.drifted_params(_CROSSING, 10)
        assert "tau_e must not exceed tau_c" in str(first.value)
        got = _quiet_outcome(_CROSSING, simgen.NCA_PROTOCOL, 150, discharge_knots=50)
        assert got == (ValidationError, str(first.value))
        assert got == _outcome(simulate_cell_per_cycle, _CROSSING, simgen.NCA_PROTOCOL, 150,
                               discharge_knots=50)

    def test_drift_check_precedes_the_curve_check_of_its_cycle(self):
        # A rising asymptote leaves the voltage range at cycle 10, the
        # cycle at which the fast branch overtakes the slow one.
        initial = replace(_CROSSING.initial, ocv=4.4)
        profile = replace(_CROSSING, initial=initial,
                          rates=replace(_CROSSING.rates, ocv=0.0024))
        ocv, r_o, r_e, c_e, r_c, c_c = simgen._drift(profile, 10)
        volts = ecm.relaxation_model(ocv, r_o, r_e, r_e * c_e, r_c, r_c * c_c,
                                     simgen.NCA_PROTOCOL.cutoff_current_a,
                                     simgen.NCA_PROTOCOL.rest_times())
        assert volts.max() > 4.5
        assert isinstance(_quiet_outcome(profile, simgen.NCA_PROTOCOL, 9, discharge_knots=7),
                          list)
        with pytest.raises(ValidationError) as drift:
            simgen.drifted_params(profile, 10)
        got = _quiet_outcome(profile, simgen.NCA_PROTOCOL, 150, discharge_knots=7)
        assert got == (ValidationError, str(drift.value))
        assert got == _outcome(simulate_cell_per_cycle, profile, simgen.NCA_PROTOCOL, 150,
                               discharge_knots=7)

    def test_ohmic_resistance_clamps_at_zero(self):
        # r_o drifts below zero from cycle 50; the t = 0 sample then carries
        # no ohmic drop, as drifted_params clamps it.
        profile = _profile(rates=simgen.DriftRates(r_o=-0.02), noise_sigma_v=1e-4)
        assert simgen.drifted_params(profile, 80).r_o == 0.0
        got = _quiet_outcome(profile, simgen.NCA_PROTOCOL, 80, discharge_knots=7)
        assert got == _outcome(simulate_cell_per_cycle, profile, simgen.NCA_PROTOCOL, 80,
                               discharge_knots=7)
        assert isinstance(got, list)

    @pytest.mark.parametrize("ocv, sigma", [(4.49, 0.01), (4.47, 0.02), (2.1, 0.02)])
    def test_noise_leaves_the_voltage_range(self, ocv, sigma):
        initial = replace(simgen.DEFAULT_INITIAL, ocv=ocv, r_o=0.0)
        quiet = _profile(initial=initial)
        assert isinstance(_quiet_outcome(quiet, simgen.NCA_PROTOCOL, 40, discharge_knots=50), list)
        profile = replace(quiet, noise_sigma_v=sigma)
        got = _quiet_outcome(profile, simgen.NCA_PROTOCOL, 40, discharge_knots=50)
        assert got == (ValidationError, "relaxation voltage is not a number in [2.0, 4.5] V")
        assert got == _outcome(simulate_cell_per_cycle, profile, simgen.NCA_PROTOCOL, 40,
                               discharge_knots=50)

    @settings(max_examples=40, deadline=None)
    @given(sigma=st.sampled_from([0.0, 0.002, 0.01]), margin=st.floats(0.0, 3.0),
           seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 150))
    def test_first_failing_check_in_cycle_order(self, sigma, margin, seed, horizon):
        # Noise on an asymptote `margin` sigmas below 4.5 V leaves the range
        # at a random cycle, racing the fast branch overtaking the slow one
        # at cycle 10: the first failure wins.
        initial = replace(_CROSSING.initial, ocv=4.5 - margin * max(sigma, 0.002))
        profile = replace(_CROSSING, initial=initial, noise_sigma_v=sigma, seed=seed)
        assert _quiet_outcome(profile, simgen.NCA_PROTOCOL, horizon, discharge_knots=7) == \
            _outcome(simulate_cell_per_cycle, profile, simgen.NCA_PROTOCOL, horizon,
                     discharge_knots=7)


class TestBenchmarkFleet:
    def test_lifetimes_bracket_fade_refs(self, small_fleet):
        eols = np.array([c.eol_cycle for c in small_fleet], dtype=float)
        assert np.all(eols > 0)
        # e.g. fade_a = 0.25 retires cells near 0.8 * fade_ref
        refs = np.array([120.0, 120.0, 240.0, 240.0])
        assert np.all(np.abs(eols / (0.8 * refs) - 1.0) < 0.15)

    def test_conditions_carry_distinct_signatures(self, small_fleet):
        # The static fast branch fingerprints the condition.
        by_condition = {}
        for cell in small_fleet:
            fitted = ecm.fit(cell.relaxation(1)).params
            by_condition.setdefault(cell.condition, []).append(fitted.r_e)
        groups = [np.mean(v) for _, v in sorted(by_condition.items())]
        assert abs(groups[0] - groups[1]) / max(groups) > 0.15
