import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

from batlife import ecm, simgen
from batlife.dataset import VOLTAGE_MAX_V, VOLTAGE_MIN_V, RelaxationCurve
from batlife.errors import InsufficientDataError, ValidationError

from conftest import (
    CUTOFF_A,
    four_start_multistart,
    initial_guesses,
    relaxation_curve,
    wrapped_project,
)


class TestEcmParams:
    def test_positivity_enforced(self):
        with pytest.raises(ValidationError):
            ecm.EcmParams(ocv=4.2, r_o=0.1, r_e=-0.01, c_e=2000.0, r_c=0.1, c_c=10000.0)

    def test_branch_order_enforced(self):
        with pytest.raises(ValidationError):
            # tau_e = 10000 s > tau_c = 100 s violates the labeling convention
            ecm.EcmParams(ocv=4.2, r_o=0.1, r_e=1.0, c_e=10000.0, r_c=1.0, c_c=100.0)

    def test_negative_ohmic_rejected(self):
        with pytest.raises(ValidationError):
            ecm.EcmParams(ocv=4.2, r_o=-0.01, r_e=0.05, c_e=2000.0, r_c=0.1, c_c=10000.0)


class TestPredictRelaxation:
    def test_approaches_asymptote(self):
        params = ecm.EcmParams(ocv=4.19, r_o=0.1, r_e=0.05, c_e=2000.0, r_c=0.1, c_c=10000.0)
        u = ecm.predict_relaxation(params, CUTOFF_A, [1e9])
        assert u[0] == pytest.approx(4.19, abs=1e-12)

    def test_zero_current_is_flat(self):
        params = ecm.EcmParams(ocv=4.19, r_o=0.1, r_e=0.05, c_e=2000.0, r_c=0.1, c_c=10000.0)
        u = ecm.predict_relaxation(params, 0.0, np.arange(0.0, 1800.0, 120.0))
        assert np.all(u == 4.19)

    def test_instantaneous_step_value(self):
        # 4.19 - 0.175 * (0.1357 + 0.05 + 0.1) = 4.1400025 at t = 0
        params = ecm.EcmParams(ocv=4.19, r_o=0.1357, r_e=0.05, c_e=2000.0,
                               r_c=0.1, c_c=10000.0)
        u0 = ecm.predict_relaxation(params, 0.175, [0.0])[0]
        assert u0 == pytest.approx(4.1400025, abs=1e-12)

    def test_negative_times_rejected(self):
        params = ecm.EcmParams(ocv=4.19, r_o=0.1, r_e=0.05, c_e=2000.0, r_c=0.1, c_c=10000.0)
        with pytest.raises(ValidationError):
            ecm.predict_relaxation(params, CUTOFF_A, [-1.0, 0.0])


class TestFit:
    def test_roundtrip_noiseless(self):
        truth = ecm.EcmParams(ocv=4.19, r_o=0.135, r_e=0.05, c_e=2400.0,
                              r_c=0.1, c_c=5000.0)
        report = ecm.fit(relaxation_curve(truth))
        rel = np.abs(report.params.as_array() - truth.as_array()) / np.abs(truth.as_array())
        assert rel.max() < 0.01
        assert report.converged

    def test_roundtrip_sub_interval_time_constant(self):
        # The fast branch (tau = 20 s) decays almost entirely below the
        # 120 s sampling grid; recovery relies on the exact-interpolation
        # wide-box pass.
        truth = ecm.EcmParams(ocv=4.19, r_o=0.1357, r_e=0.01, c_e=2000.0,
                              r_c=0.02, c_c=50000.0)
        report = ecm.fit(relaxation_curve(truth))
        rel = np.abs(report.params.as_array() - truth.as_array()) / np.abs(truth.as_array())
        assert rel.max() < 0.01

    def test_flat_curve(self):
        times = np.arange(16) * 120.0
        curve = RelaxationCurve(times, np.full(16, 4.20), 120.0, CUTOFF_A)
        report = ecm.fit(curve)
        assert report.params.ocv == pytest.approx(4.20, abs=1e-6)
        assert CUTOFF_A * report.params.r_e <= 1e-6
        assert CUTOFF_A * report.params.r_c <= 1e-6

    def test_insufficient_samples(self):
        truth = ecm.EcmParams(ocv=4.19, r_o=0.135, r_e=0.05, c_e=2400.0,
                              r_c=0.1, c_c=5000.0)
        with pytest.raises(InsufficientDataError):
            ecm.fit(relaxation_curve(truth, n_samples=5))

    def test_six_samples_suffice(self):
        truth = ecm.EcmParams(ocv=4.19, r_o=0.135, r_e=0.05, c_e=2400.0,
                              r_c=0.1, c_c=5000.0)
        report = ecm.fit(relaxation_curve(truth, n_samples=6))
        rel = np.abs(report.params.as_array() - truth.as_array()) / np.abs(truth.as_array())
        assert rel.max() < 0.01

    def test_result_beats_every_start(self):
        truth = ecm.EcmParams(ocv=4.19, r_o=0.135, r_e=0.05, c_e=2400.0,
                              r_c=0.1, c_c=5000.0)
        rng = np.random.default_rng(4)
        curve = relaxation_curve(truth, noise=5e-4, rng=rng)
        report = ecm.fit(curve)
        t_pos = curve.times_s[curve.times_s > 0]
        v_pos = curve.voltages_v[curve.times_s > 0]
        final_cost = report.residual_rms_v**2 * t_pos.size
        # The fit is no worse than the best pair of its grid, and the blind
        # starts fare no better.
        assert final_cost <= _grid_costs(curve, tight=True).min() + 1e-15
        for theta0 in initial_guesses(curve):
            start_residual = _model_residual(theta0, t_pos, v_pos, CUTOFF_A)
            assert final_cost <= float(start_residual @ start_residual) + 1e-15

    def test_branch_relabeling_symmetry(self):
        # A curve whose generating branches are written fast-last must fit
        # to the same canonically ordered parameters.
        times = np.arange(16) * 120.0
        amp_fast, tau_fast = 0.05, 120.0
        amp_slow, tau_slow = 0.1, 500.0
        v = (4.19
             - CUTOFF_A * amp_slow * np.exp(-times / tau_slow)
             - CUTOFF_A * amp_fast * np.exp(-times / tau_fast))
        v[0] -= CUTOFF_A * 0.135
        report = ecm.fit(RelaxationCurve(times, v, 120.0, CUTOFF_A))
        assert report.params.tau_e <= report.params.tau_c
        assert report.params.r_e == pytest.approx(amp_fast, rel=1e-3)
        assert report.params.r_c == pytest.approx(amp_slow, rel=1e-3)

    def test_time_shift_changes_ohmic_resistance(self):
        # Values shifted along the transient while the grid stays anchored
        # at t = 0 change the instantaneous step, hence r_o: no shift
        # invariance is claimed.
        truth = ecm.EcmParams(ocv=4.19, r_o=0.135, r_e=0.05, c_e=2400.0,
                              r_c=0.1, c_c=5000.0)
        times = np.arange(16) * 120.0
        base = ecm.fit(relaxation_curve(truth))
        shifted_v = ecm.predict_relaxation(truth, CUTOFF_A, times + 120.0)
        shifted = ecm.fit(RelaxationCurve(times, shifted_v, 120.0, CUTOFF_A))
        assert abs(shifted.params.r_o - base.params.r_o) > 0.01

    def test_ro_clamped_at_zero(self):
        # An upward step at t = 0 makes the raw formula negative.
        truth = ecm.EcmParams(ocv=4.19, r_o=0.0, r_e=0.05, c_e=2400.0,
                              r_c=0.1, c_c=5000.0)
        curve = relaxation_curve(truth)
        v = curve.voltages_v.copy()
        v[0] += 0.05
        report = ecm.fit(RelaxationCurve(curve.times_s, v, 120.0, CUTOFF_A))
        assert report.params.r_o == 0.0
        assert report.ro_clamped is True

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_randomized_noiseless(self, seed):
        rng = np.random.default_rng(seed)
        tau_e = rng.uniform(100.0, 300.0)
        tau_c = rng.uniform(tau_e * 3.5, 1500.0)
        r_e = rng.uniform(0.02, 0.12)
        r_c = rng.uniform(0.05, 0.25)
        truth = ecm.EcmParams(ocv=rng.uniform(4.0, 4.3), r_o=rng.uniform(0.02, 0.3),
                              r_e=r_e, c_e=tau_e / r_e, r_c=r_c, c_c=tau_c / r_c)
        report = ecm.fit(relaxation_curve(truth))
        rel = np.abs(report.params.as_array() - truth.as_array()) / np.abs(truth.as_array())
        assert rel.max() < 0.01


def _golden_curves() -> dict[str, RelaxationCurve]:
    """Seeded curves covering each path through ``fit``: the certified skip
    of the wide pass (noisy, uniform, >= 7 positive samples), the wide pass
    that still runs (6 positive samples, non-uniform grid), wide-box
    adoption (sub-interval time constant) and exact tight fits."""
    # simgen's fresh 3.5 Ah cell, and the sub-interval case of
    # test_roundtrip_sub_interval_time_constant.
    fresh = ecm.EcmParams(ocv=4.19, r_o=0.135, r_e=0.15, c_e=800.0, r_c=0.3, c_c=5000.0 / 3.0)
    sub_interval = ecm.EcmParams(ocv=4.19, r_o=0.1357, r_e=0.01, c_e=2000.0,
                                 r_c=0.02, c_c=50000.0)
    full = relaxation_curve(fresh)
    noisy_7 = relaxation_curve(fresh, n_samples=7, noise=2e-4, rng=np.random.default_rng(14))
    times = np.array([0.0, 60.0, 120.0, 240.0, 360.0, 600.0, 900.0, 1200.0, 1500.0, 1800.0])
    rng = np.random.default_rng(15)
    volts = ecm.predict_relaxation(fresh, CUTOFF_A, times) + rng.normal(0.0, 2e-4, times.size)
    return {
        "nca_noisy_120s_a": relaxation_curve(fresh, noise=2e-4, rng=np.random.default_rng(11)),
        "nca_noisy_120s_b": relaxation_curve(fresh, noise=2e-4, rng=np.random.default_rng(12)),
        "ncm_nca_noisy_30s": relaxation_curve(fresh, n_samples=121, noise=2e-4,
                                              rng=np.random.default_rng(13), interval=30.0,
                                              current=0.125),
        "noiseless_full": full,
        "noiseless_6": RelaxationCurve(full.times_s[:6], full.voltages_v[:6], 120.0, CUTOFF_A),
        "noiseless_7": RelaxationCurve(full.times_s[:7], full.voltages_v[:7], 120.0, CUTOFF_A),
        "noisy_7": noisy_7,
        "sub_interval_tau": relaxation_curve(sub_interval),
        "flat": RelaxationCurve(np.arange(16) * 120.0, np.full(16, 4.20), 120.0, CUTOFF_A),
        "non_uniform_noisy": RelaxationCurve(times, volts, 60.0, CUTOFF_A),
    }


# float.hex of (ocv, r_o, r_e, c_e, r_c, c_c, residual_rms_v), then iterations,
# converged, ro_clamped. Re-recorded when the variable-projection loop over
# the two time constants became the whole fit and the five-parameter polish
# went: every parameter moved by at most 2.2e-7 relative, every fit still
# converges, and iterations now count the loop's steps from the grid's best
# pair, not the polish's.
_GOLDEN = {
    'flat': ('0x1.0ccccccccdcdep+2', '0x0.0p+0', '0x1.12e0be826d698p-30', '0x1.bf08eaffffff9p+35', '0x1.12e0be826d698p-30', '0x1.bf08eaffffff9p+35', '0x1.9edd10bac250cp-37',
        2, True, True),
    'nca_noisy_120s_a': ('0x1.0c27679e40a79p+2', '0x1.f4c49797c621cp-4', '0x1.3127be796a3edp-3', '0x1.4d5e8e12fdafap+9', '0x1.40acc852b7495p-2', '0x1.832e6fb0ef459p+10', '0x1.3336cf1835e15p-13',
        6, True, False),
    'nca_noisy_120s_b': ('0x1.0c2d7e64f250fp+2', '0x1.190895b2897d0p-3', '0x1.4baae7509648bp-3', '0x1.883211c89fccap+9', '0x1.26510da8585e4p-2', '0x1.c8501c8b7c11ap+10', '0x1.8c95bb651da3bp-13',
        6, True, False),
    'ncm_nca_noisy_30s': ('0x1.0c285ece270a0p+2', '0x1.ffba6663cf6b4p-4', '0x1.3113b4b62315ap-3', '0x1.692f3ce3e0c03p+9', '0x1.3b481cca7d126p-2', '0x1.8d6c6be3d12dfp+10', '0x1.8becd2cedf9a3p-13',
        7, True, False),
    'noiseless_6': ('0x1.0c28f5c28f5e1p+2', '0x1.147ae147af494p-3', '0x1.33333333366dcp-3', '0x1.9000000000e84p+9', '0x1.3333333331a92p-2', '0x1.a0aaaaaab0b42p+10', '0x1.bab62e5228a8ap-58',
        13, True, False),
    'noiseless_7': ('0x1.0c28f5c28f5e4p+2', '0x1.147ae147af50ep-3', '0x1.3333333336b6dp-3', '0x1.9000000000d80p+9', '0x1.333333333191fp-2', '0x1.a0aaaaaab1348p+10', '0x1.54f2107b4b7bap-52',
        9, True, False),
    'noiseless_full': ('0x1.0c28f5c28f5c4p+2', '0x1.147ae147ae468p-3', '0x1.333333333361ep-3', '0x1.9000000000459p+9', '0x1.33333333330abp-2', '0x1.a0aaaaaaab105p+10', '0x1.66963926f68ddp-52',
        6, True, False),
    'noisy_7': ('0x1.0bff996d776e5p+2', '0x1.58b370582d238p-4', '0x1.10252f7f49cf0p-3', '0x1.c386094628ec6p+8', '0x1.6934de0637d0cp-2', '0x1.1633a933dd0c2p+10', '0x1.0139cccec794fp-13',
        4, True, False),
    'non_uniform_noisy': ('0x1.0c33517feadf5p+2', '0x1.18e460e6b4a2cp-3', '0x1.5f0c7f791bf6ap-3', '0x1.83e2dcc3837edp+9', '0x1.20718809d1411p-2', '0x1.e179fc7880fa1p+10', '0x1.66d06c05f834ap-13',
        6, True, False),
    'sub_interval_tau': ('0x1.0c28f5c28f5c2p+2', '0x1.15e9e1a0cd3bdp-3', '0x1.47ae1576a7303p-7', '0x1.f3fffe3f7fa40p+10', '0x1.47ae147ae11c3p-6', '0x1.869ffffffedaep+15', '0x1.a7c3ff7e3cda2p-52',
        21, True, False),
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_fit_report_bitwise(self, name):
        report = ecm.fit(_golden_curves()[name])
        p = report.params
        floats = tuple(float(x).hex() for x in (p.ocv, p.r_o, p.r_e, p.c_e, p.r_c, p.c_c,
                                                 report.residual_rms_v))
        got = floats + (report.iterations, bool(report.converged), bool(report.ro_clamped))
        assert got == _GOLDEN[name]


def _pass_inputs(curve: RelaxationCurve, tight: bool):
    """The t > 0 samples, current and box of one pass."""
    positive = curve.times_s > 0
    lower, upper = ecm._fit_bounds(curve, tight)
    return (curve.times_s[positive], curve.voltages_v[positive], curve.cutoff_current_a,
            lower, upper)


def _pass_project(log_taus, t, v, current, lower, upper):
    """``ecm._boxed_project`` at the pairs of ``log_taus`` over one pass's box,
    with floating-point warnings silenced as the pass silences them."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return ecm._boxed_project(log_taus, t, v - v.mean(), current,
                                  *np.exp([lower[1], upper[1]]), upper[0] - v.mean())


def _model_residual(theta, t, v, current):
    """The t > 0 model at a log-parameterized (ocv, r_e, tau_e, r_c, tau_c),
    minus the data."""
    return ecm.relaxation_model(theta[0], 0.0, *np.exp(theta[1:]), current, t) - v


@st.composite
def _curves(draw):
    """Relaxation curves of 6-16 samples, noiseless or noisy, on uniform or
    jittered grids, with time constants from a fifth of the first sampling
    step up to the length of the rest."""
    n = draw(st.integers(min_value=6, max_value=16))
    interval = draw(st.sampled_from([30.0, 60.0, 120.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    times = np.arange(n) * interval
    if draw(st.booleans()):  # non-uniform grid
        times[1:] += rng.uniform(-0.4, 0.4, n - 1) * interval
    taus = np.sort(np.exp(rng.uniform(math.log(times[1] / 5.0), math.log(times[-1]), 2)))
    r_e, r_c = rng.uniform(0.005, 0.3, 2)
    current = draw(st.sampled_from([0.05, CUTOFF_A, 0.5]))
    params = ecm.EcmParams(ocv=rng.uniform(4.0, 4.2), r_o=0.1, r_e=r_e, c_e=taus[0] / r_e,
                           r_c=r_c, c_c=taus[1] / r_c)
    volts = ecm.predict_relaxation(params, current, times)
    noise = draw(st.sampled_from([0.0, 1e-5, 2e-4, 2e-3]))
    volts = np.clip(volts + rng.normal(0.0, noise, n), VOLTAGE_MIN_V, VOLTAGE_MAX_V)
    return RelaxationCurve(times, volts, interval, current)


def _exact_cost(t_pos: np.ndarray) -> float:
    return t_pos.size * ecm.EXACT_RESIDUAL_V**2


class TestWidePassCertificate:
    @settings(max_examples=200, deadline=None)
    @given(
        n_samples=st.integers(min_value=8, max_value=60),
        interval=st.sampled_from([0.5, 10.0, 30.0, 120.0, 600.0]),
        current=st.floats(min_value=0.01, max_value=2.0),
        ocv=st.floats(min_value=3.0, max_value=4.4),
        log_r=st.tuples(st.floats(-20.0, 0.0), st.floats(-20.0, 0.0)),
        tau_frac=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_never_skips_noiseless_two_exponentials(self, n_samples, interval, current, ocv,
                                                    log_r, tau_frac):
        # Time constants anywhere in the wide box, [t_1 / 50, 20 t_last],
        # including far below the sampling interval.
        times = np.arange(n_samples) * interval
        t_pos = times[1:]
        lo, hi = math.log(t_pos[0] / 50.0), math.log(20.0 * t_pos[-1])
        tau_e, tau_c = (math.exp(lo + f * (hi - lo)) for f in tau_frac)
        r_e, r_c = math.exp(log_r[0]), math.exp(log_r[1])
        v_pos = (ocv - current * r_e * np.exp(-t_pos / tau_e)
                 - current * r_c * np.exp(-t_pos / tau_c))
        assert not ecm._cannot_interpolate(t_pos, v_pos, _exact_cost(t_pos))

    @settings(max_examples=25, deadline=None)
    @given(
        n_samples=st.integers(min_value=8, max_value=20),
        log_noise=st.floats(min_value=math.log(1e-9), max_value=math.log(1e-3)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_skipped_wide_pass_could_not_be_adopted(self, n_samples, log_noise, seed):
        rng = np.random.default_rng(seed)
        tau_e = rng.uniform(20.0, 300.0)
        tau_c = rng.uniform(tau_e, 3000.0)
        r_e, r_c = rng.uniform(0.01, 0.3, size=2)
        truth = ecm.EcmParams(ocv=4.19, r_o=0.135, r_e=r_e, c_e=tau_e / r_e,
                              r_c=r_c, c_c=tau_c / r_c)
        curve = relaxation_curve(truth, n_samples=n_samples, noise=math.exp(log_noise), rng=rng)
        positive = curve.times_s > 0
        t_pos = curve.times_s[positive]
        if ecm._cannot_interpolate(t_pos, curve.voltages_v[positive], _exact_cost(t_pos)):
            wide = ecm._fit_box(curve, tight=False)
            assert wide[1] > _exact_cost(t_pos)

    @pytest.mark.parametrize("seed", [7, 11, 26, 39, 56])
    def test_six_noisy_samples_never_adopt_the_wide_interpolant(self, seed):
        # Five t > 0 samples for five parameters: on these noisy curves the
        # wide box interpolates the noise exactly and the tight box does not.
        fresh = ecm.EcmParams(ocv=4.19, r_o=0.135, r_e=0.15, c_e=800.0,
                              r_c=0.3, c_c=5000.0 / 3.0)
        curve = relaxation_curve(fresh, n_samples=6, noise=2e-4, rng=np.random.default_rng(seed))
        t_pos = curve.times_s[curve.times_s > 0]
        assert ecm._fit_box(curve, tight=False)[1] <= _exact_cost(t_pos)
        tight_cost = ecm._fit_box(curve, tight=True)[1]
        report = ecm.fit(curve)
        assert report.residual_rms_v > ecm.EXACT_RESIDUAL_V
        assert report.residual_rms_v == math.sqrt(tight_cost / t_pos.size)

    def test_short_or_non_uniform_grids_prove_nothing(self):
        rng = np.random.default_rng(3)
        v_pos = 4.1 + rng.normal(0.0, 1e-2, 9)
        uniform = np.arange(1, 10) * 120.0
        non_uniform = uniform.copy()
        non_uniform[-1] += 1.0
        assert ecm._cannot_interpolate(uniform, v_pos, _exact_cost(uniform))
        assert not ecm._cannot_interpolate(non_uniform, v_pos, _exact_cost(non_uniform))
        assert not ecm._cannot_interpolate(uniform[:6], v_pos[:6], _exact_cost(uniform[:6]))


def _report_bits(report: ecm.FitReport):
    p = report.params
    return (tuple(float(x).hex() for x in (*p.as_array(), report.residual_rms_v)),
            report.iterations, report.converged, report.ro_clamped)


def _noiseless_truth(seed: int) -> ecm.EcmParams:
    rng = np.random.default_rng(seed)
    tau_e = rng.uniform(60.0, 300.0)
    tau_c = rng.uniform(tau_e, 2000.0)
    r_e, r_c = rng.uniform(0.02, 0.3, size=2)
    return ecm.EcmParams(ocv=rng.uniform(4.0, 4.3), r_o=rng.uniform(0.02, 0.3),
                         r_e=r_e, c_e=tau_e / r_e, r_c=r_c, c_c=tau_c / r_c)


def _identifiable(truth: ecm.EcmParams) -> bool:
    """Time constants at least half apart: closer ones leave a manifold of
    near-exact fits, and no fit identifies the two branches."""
    return truth.tau_c >= 1.5 * truth.tau_e


def _grid(lower, upper) -> np.ndarray:
    """The start's grid pairs (log tau_e, log tau_c), tau_e < tau_c."""
    grid = np.linspace(lower[2], upper[2], ecm._GRID_POINTS)
    return np.array(list(itertools.combinations(grid, 2)))


def _grid_costs(curve: RelaxationCurve, tight: bool) -> np.ndarray:
    """The boxed variable-projection cost of every grid pair of one pass."""
    t, v, current, lower, upper = _pass_inputs(curve, tight)
    residual = _pass_project(_grid(lower, upper), t, v, current, lower, upper)[5]
    return np.einsum("mn,mn->m", residual, residual)


def _error(params, truth: ecm.EcmParams) -> float:
    """Largest relative error of (ocv, r_e, tau_e, r_c, tau_c)."""
    want = np.array([truth.ocv, truth.r_e, truth.tau_e, truth.r_c, truth.tau_c])
    return float(np.max(np.abs(np.asarray(params) / want - 1.0)))


def _pass_params(result) -> np.ndarray:
    """(ocv, r_e, tau_e, r_c, tau_c) of one pass, branches in canonical order."""
    ocv, (r_e, tau_e, r_c, tau_c) = result[0][0], np.exp(result[0][1:])
    if tau_e > tau_c:
        r_e, tau_e, r_c, tau_c = r_c, tau_c, r_e, tau_e
    return np.array([ocv, r_e, tau_e, r_c, tau_c])


class TestExactZeroExit:
    """The four-start loop stopped at its first exact start; the one
    variable-projection pass reaches the same exact fits. Where the oracle
    fits a noiseless curve exactly, so does the pass, and its parameters lie
    within 1e-6 of the truth or no further from it than the oracle's, which
    stop at the first parameters inside ``EXACT_RESIDUAL_V``."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), n_samples=st.sampled_from([6, 16]),
           tight=st.booleans())
    def test_equals_four_start_loop(self, seed, n_samples, tight):
        truth = _noiseless_truth(seed)
        curve = relaxation_curve(truth, n_samples=n_samples)
        got, want = ecm._fit_box(curve, tight), four_start_multistart(curve, tight)
        if want[1] <= _exact_cost(curve.times_s[1:]):
            assert got[1] <= _exact_cost(curve.times_s[1:])
            if _identifiable(truth):
                assert _error(_pass_params(got), truth) <= \
                    max(_error(_pass_params(want), truth), 1e-6)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n_samples", [6, 16])
    def test_fit_report_equals_four_start_loop(self, monkeypatch, seed, n_samples):
        truth = _noiseless_truth(seed)
        curve = relaxation_curve(truth, n_samples=n_samples)
        report = ecm.fit(curve)
        monkeypatch.setattr(ecm, "_fit_box", four_start_multistart)
        oracle = ecm.fit(curve)
        if oracle.residual_rms_v <= ecm.EXACT_RESIDUAL_V:
            assert report.residual_rms_v <= ecm.EXACT_RESIDUAL_V
            fitted = [report.params, oracle.params]
            errors = [_error([p.ocv, p.r_e, p.tau_e, p.r_c, p.tau_c], truth) for p in fitted]
            assert errors[0] <= max(errors[1], 1e-6)


class TestProjectedStart:
    """The start of each pass: every pair of a time-constant grid scored by
    variable projection at once; the loop descends from the best."""

    @pytest.mark.parametrize("name", ["noisy_7", "nca_noisy_120s_a", "flat"])
    @pytest.mark.parametrize("tight", [True, False])
    def test_deterministic(self, name, tight):
        curve = _golden_curves()[name]
        first, again = ecm._fit_box(curve, tight), ecm._fit_box(curve, tight)
        assert first[0].tobytes() == again[0].tobytes() and first[1:] == again[1:]
        assert _report_bits(ecm.fit(curve)) == _report_bits(ecm.fit(curve))

    @settings(max_examples=40, deadline=None)
    @given(curve=_curves(), tight=st.booleans())
    def test_cost_is_at_most_the_grid_minimum(self, curve, tight):
        t, v, current, lower, upper = _pass_inputs(curve, tight)
        theta, cost = ecm._fit_box(curve, tight)[:2]
        np.testing.assert_allclose(theta, np.clip(theta, lower, upper), rtol=0, atol=1e-12)
        # Its cost is that of its theta, up to rounding of volts near 4 V.
        residual = _model_residual(theta, t, v, current)
        assert math.sqrt(cost) == pytest.approx(math.sqrt(residual @ residual), rel=1e-9, abs=1e-13)
        # Every grid pair scored on its own, as the one-row projection gives it.
        for pair in _grid(lower, upper):
            pair_residual = _pass_project(pair[None], t, v, current, lower, upper)[5][0]
            pair_cost = float(pair_residual @ pair_residual)
            assert math.sqrt(cost) <= math.sqrt(pair_cost) * (1.0 + 1e-9) + 1e-13

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(5, 120), rows=st.integers(1, 12), singular=st.booleans(),
           seed=st.integers(0, 2**32 - 1), interval=st.sampled_from([30.0, 120.0]))
    def test_projection_is_bitwise_the_wrapped_one(self, n, rows, singular, seed, interval):
        # Voltages centred once per pass by np.add.reduce, and no errstate of
        # its own, give the bits of the projection that centred them by
        # .mean() on every call; so does a singular row (equal time constants).
        rng = np.random.default_rng(seed)
        t = np.arange(1, n + 1) * interval
        v = 4.1 - 0.02 * np.exp(-t / rng.uniform(interval, t[-1])) + rng.normal(0.0, 1e-4, n)
        log_taus = math.log(interval) + rng.uniform(-4.0, 4.0, size=(rows, 2))
        if singular:
            log_taus[0, 1] = log_taus[0, 0]
        want = wrapped_project(log_taus, t, v, CUTOFF_A)
        with np.errstate(divide="ignore", invalid="ignore"):
            got = ecm._project(log_taus, t, v - np.add.reduce(v) / v.size, CUTOFF_A)
        for piece, expected in zip(got, want):
            assert np.array_equal(piece, expected, equal_nan=True)

    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_projection_is_the_least_squares_fit(self, name):
        # In the tight box the 2 x 2 normal equations lose no accuracy that
        # matters; the column-scaled least squares of each pair is the oracle.
        curve = _golden_curves()[name]
        t, v, current, lower, upper = _pass_inputs(curve, True)
        pairs = _grid(lower, upper)
        residual = ecm._project(pairs, t, v - v.mean(), current)[5]
        for pair, got in zip(pairs, residual):
            columns = np.column_stack((np.ones_like(t), -current * np.exp(-t[:, None] / np.exp(pair))))
            columns /= np.linalg.norm(columns, axis=0)
            want = v - columns @ np.linalg.lstsq(columns, v, rcond=None)[0]
            assert float(got @ got) == pytest.approx(float(want @ want), rel=1e-8, abs=1e-26)


class TestBoxedProjection:
    """With both time constants fixed, ``_boxed_project`` gives the exact
    least squares of ocv, r_e and r_c with both resistances in their box and
    ocv below its bound."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(5, 40), seed=st.integers(0, 2**32 - 1), singular=st.booleans(),
           lo=st.floats(-1.0, 2.0), width=st.floats(1e-3, 2.0),
           ocv_shift=st.one_of(st.none(), st.floats(-2.0, 1.0)))
    def test_is_the_bounded_least_squares(self, n, seed, singular, lo, width, ocv_shift):
        rng = np.random.default_rng(seed)
        t = np.arange(1, n + 1) * rng.choice([30.0, 120.0])
        # Time constants from half the first sample time up, at least
        # threefold apart, where the 2 x 2 normal equations lose no accuracy
        # that matters, or equal ones, where they are singular.
        log_tau_e = rng.uniform(math.log(t[0] / 2.0), math.log(t[-1]))
        log_taus = np.array([[log_tau_e, log_tau_e + (0.0 if singular else
                                                      rng.uniform(math.log(3.0), math.log(30.0)))]])
        columns = -CUTOFF_A * np.exp(-t[:, None] / np.exp(log_taus[0]))
        v = 4.1 + columns @ rng.uniform(-0.5, 0.5, 2) + rng.normal(0.0, 1e-3, n)
        v_centred = v - v.mean()
        with np.errstate(divide="ignore", invalid="ignore"):
            free = ecm._project(log_taus, t, v_centred, CUTOFF_A)[4][0]
            # A box placed against the free solution: it may hold both
            # resistances, either or neither, and leave each out on either side.
            low, scale = ((float(free.min()), float(np.ptp(free) + np.abs(free).max()))
                          if np.all(np.isfinite(free)) else (0.0, 1.0))
            r_lo = low + lo * scale
            r_hi = r_lo + width * scale
            # An ocv bound placed against the ocv of the resistances' box
            # alone: below it (ocv held), above it, or none.
            r_box = ecm._boxed_project(log_taus, t, v_centred, CUTOFF_A, r_lo, r_hi, np.inf)[4]
            rise = -float(r_box[0] @ columns.mean(axis=0))
            ocv_room = np.inf if ocv_shift is None else rise + ocv_shift * (abs(rise) + np.ptp(v))
            _, _, solved_on, inverse, r, residual, held = ecm._boxed_project(
                log_taus, t, v_centred, CUTOFF_A, r_lo, r_hi, ocv_room)
            if held[0]:
                free = ecm._solve(solved_on, v_centred - ocv_room)[1][0]
        r, residual, solved_on, held = r[0], residual[0], solved_on[0], bool(held[0])
        assert np.all((r >= r_lo) & (r <= r_hi))
        if abs(ocv_room - rise) > 1e-9 * abs(rise):  # not a tie up to rounding
            assert held == (ocv_room < rise)
        # The model of the returned resistances and ocv is the returned
        # residual; ocv is the best one for them, or its bound when held.
        model = ecm.relaxation_model(0.0, 0.0, r[0], math.exp(log_taus[0, 0]), r[1],
                                     math.exp(log_taus[0, 1]), CUTOFF_A, t)
        ocv = ocv_room if held else float((v_centred - model).mean())
        np.testing.assert_allclose(residual, v_centred - ocv - model, rtol=1e-9, atol=1e-12)
        # No worse than scipy's bounded least squares ...
        design = np.column_stack((np.ones(n), columns))
        want = lsq_linear(design, v, bounds=([-np.inf, r_lo, r_lo],
                                             [v.mean() + ocv_room, r_hi, r_hi]),
                          method="bvls", tol=1e-14)
        assert float(residual @ residual) <= float(want.fun @ want.fun) * (1.0 + 1e-9) + 1e-18
        # ... and optimal: the cost's slope along each resistance is zero
        # strictly inside the box and points out of it at a bound, and a
        # held ocv would lower the cost only by rising above its bound.
        slope = -(solved_on @ residual)
        tol = 1e-9 * np.linalg.norm(solved_on, axis=1) * np.linalg.norm(v_centred)
        assert np.all(np.where(r > r_lo, slope <= tol, True))
        assert np.all(np.where(r < r_hi, slope >= -tol, True))
        assert residual.sum() >= (-1e-9 * math.sqrt(n) * np.linalg.norm(v_centred) if held else
                                  -1e-12)
        # The inverse is that of the normal matrix of the resistances the
        # solve moves (both where the free solution is kept, else those
        # strictly inside), with zero rows and columns for the others.
        moving = np.array_equal(r, free) | ((r > r_lo) & (r < r_hi))
        gram = solved_on @ solved_on.T
        np.testing.assert_allclose((inverse[0] @ gram)[:, moving], np.eye(2)[:, moving],
                                   rtol=0, atol=1e-6)
        assert not inverse[0][~moving].any() and not inverse[0][:, ~moving].any()


class TestPairProjection:
    """A loop step scores its one pair by ``_project_pair``: bit for bit
    ``_boxed_project`` on the one-row batch, whichever path the pair takes."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), tight=st.booleans(), fractions=st.tuples(st.floats(0.0, 1.0),
                                                                   st.floats(0.0, 1.0)))
    @pytest.mark.parametrize("case", ["pass", "resistance", "ocv", "singular"])
    def test_is_bitwise_the_one_row_batch(self, small_fleet, data, tight, fractions, case):
        # Curves of the simulated fleet, cut or not, or drawn ones.
        if data.draw(st.booleans(), label="simgen"):
            cell = data.draw(st.sampled_from(small_fleet), label="cell")
            m = data.draw(st.sampled_from(cell.cycle_indices.tolist()), label="cycle")
            curve = cell.relaxation(m, data.draw(st.sampled_from([6, 8, cell.times_s.size])))
        else:
            curve = data.draw(_curves(), label="curve")
        t, v, current, lower, upper = _pass_inputs(curve, tight)
        v_centred = v - np.add.reduce(v) / v.size
        box = [t, v_centred, current, math.exp(lower[1]), math.exp(upper[1]),
               float(upper[0] - np.add.reduce(v) / v.size)]
        pair = lower[2] + np.array(fractions) * (upper[2] - lower[2])
        if case == "singular":  # tau_e = tau_c: a singular 2 x 2 system
            pair[1] = pair[0]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            free = ecm._project(pair[None], t, v_centred, current)[4][0]
            if case == "singular":
                assert not np.isfinite(free).all()
            elif case == "resistance":  # the larger free resistance leaves the box
                assume(np.isfinite(free).all() and free[0] != free[1])
                box[3:5] = free.min(), (free.min() + free.max()) / 2.0
            elif case == "ocv":  # ocv held below its bound
                pieces = ecm._boxed_project(pair[None], *box[:5], np.inf)
                rise = -float(pieces[4][0] @ pieces[0][0].mean(axis=1))
                assume(rise > 0.0)
                box[5] = data.draw(st.floats(0.0, 0.99), label="room") * rise
            want = [piece[0] for piece in ecm._boxed_project(pair[None], *box)]
            got = ecm._project_pair(pair, tuple(box))
        if case == "ocv":
            assert want[6]
        assert bool(got[6]) == bool(want[6])
        for piece, expected in zip(got[:6], want[:6]):
            assert piece.shape == expected.shape
            assert piece.tobytes() == expected.tobytes()


class TestBoxedFit:
    """The loop over the two time constants is the whole of each pass."""

    @pytest.mark.parametrize(("seed", "n_samples"), [(11, 6), (242, 6), (285, 16)])
    def test_amplitude_at_its_bound_fits_as_well_as_four_starts(self, seed, n_samples):
        # Noiseless curves whose best tight-box fit has a resistance at its
        # upper bound: a refinement that solved the resistances without
        # their box ended above the four-start oracle here, unconverged.
        curve = relaxation_curve(_noiseless_truth(seed), n_samples=n_samples)
        got, want = ecm._fit_box(curve, tight=True), four_start_multistart(curve, tight=True)
        assert got[3]
        assert got[1] <= want[1]

    def test_ocv_held_at_its_bound_fits_as_well_as_four_starts(self):
        # A noisy 6-sample curve, still rising, that the wide box fits best
        # with a slow branch whose ocv would lie above its bound.
        volts = np.array([3.9813, 4.0016, 4.0017, 4.009, 4.0111, 4.0177])
        curve = RelaxationCurve(np.arange(6) * 60.0, volts, 60.0, 0.1)
        upper = ecm._fit_bounds(curve, tight=False)[1]
        got, want = ecm._fit_box(curve, tight=False), four_start_multistart(curve, tight=False)
        assert got[0][0] == upper[0]
        assert got[3]
        assert got[1] <= want[1]

    def test_damping_does_not_oscillate_across_a_valley(self):
        # With the damping cut threefold after every accepted step, whatever
        # its gain, the loop jumped to and fro across this noisy curve's
        # valley for 917 iterations; the gain-ratio update takes 18.
        cells = simgen.benchmark_fleet(seed=21, cells_per_condition=5,
                                       fade_refs=(150.0, 400.0, 1000.0), temperatures=(25, 35, 45))
        cell = next(cell for cell in cells if cell.cell_id == "syn45-00")
        curve = cell.relaxation(577)
        report = ecm.fit(curve)
        assert report.converged
        assert report.iterations <= 30

    @pytest.mark.parametrize("tight", [True, False])
    def test_exhausted_damping_stops_at_the_start(self, monkeypatch, tight):
        # Every candidate scores four times the start's cost: 25 rejected
        # steps exhaust the damping, and the pass stops, converged, at the
        # grid pair it started from.
        project_pair = ecm._project_pair
        scored = []

        def no_descent(pair, box):
            state = project_pair(pair, box)
            scored.append((pair.tolist(), state))
            return state if len(scored) == 1 else state[:5] + (2.0 * scored[0][1][5],) + state[6:]

        monkeypatch.setattr(ecm, "_project_pair", no_descent)
        curve = _golden_curves()["noisy_7"]
        theta, cost, iterations, converged = ecm._fit_box(curve, tight)
        start_pair, start = scored[0]
        assert converged and iterations == 1 and len(scored) == 1 + 25
        assert start_pair in _grid(*_pass_inputs(curve, tight)[3:]).tolist()
        assert cost == float(start[5] @ start[5]) > 0.0
        assert [theta[2], theta[4]] == start_pair
        assert [theta[1], theta[3]] == [math.log(r) for r in start[4]]
