import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batlife import ecm
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
        lower, upper = ecm._fit_bounds(curve, tight=True)
        start, start_cost = ecm._projected_start(t_pos, v_pos, CUTOFF_A, lower, upper)
        assert final_cost <= start_cost + 1e-15
        # The start scored every grid pair, and the blind starts fare no better.
        basis, _, _, _, r, _ = ecm._project(_grid(lower, upper), t_pos, v_pos - v_pos.mean(),
                                            CUTOFF_A)
        grid_costs = ecm._boxed_start(_grid(lower, upper), basis, r, v_pos, lower, upper)[1]
        assert start_cost <= grid_costs.min()
        for theta0 in initial_guesses(curve):
            start_residual = ecm._evaluate(theta0, t_pos, v_pos, CUTOFF_A)[0]
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
        "noiseless_6": full.truncated(6),
        "noiseless_7": full.truncated(7),
        "noisy_7": noisy_7,
        "sub_interval_tau": relaxation_curve(sub_interval),
        "flat": RelaxationCurve(np.arange(16) * 120.0, np.full(16, 4.20), 120.0, CUTOFF_A),
        "non_uniform_noisy": RelaxationCurve(times, volts, 60.0, CUTOFF_A),
    }


# float.hex of (ocv, r_o, r_e, c_e, r_c, c_c, residual_rms_v), then iterations,
# converged, ro_clamped. Re-recorded when the projected start replaced the
# four blind starts: exact fits moved by rounding, noisy ones along their
# flat valleys, and every fit but sub_interval_tau and flat now converges
# in one Gauss-Newton step from its start (noisy_7 no longer runs out its
# 1000 iterations).
_GOLDEN = {
    'nca_noisy_120s_a': ('0x1.0c27679e3abb0p+2', '0x1.f4c495a886ad8p-4', '0x1.3127bf16a9ae1p-3', '0x1.4d5e8c2a4fcebp+9', '0x1.40acc87dc9cdap-2', '0x1.832e6f5872ed8p+10', '0x1.3336cf1834f83p-13',
        1, True, False),
    'nca_noisy_120s_b': ('0x1.0c2d7e64e1d34p+2', '0x1.1908952294324p-3', '0x1.4baae73260d47p-3', '0x1.883210a18995bp+9', '0x1.26510df989ff0p-2', '0x1.c8501ba84c4d6p+10', '0x1.8c95bb651c739p-13',
        1, True, False),
    'ncm_nca_noisy_30s': ('0x1.0c285ece3cadbp+2', '0x1.ffba69fcb2904p-4', '0x1.3113b6e7f7230p-3', '0x1.692f41e198308p+9', '0x1.3b481ad62c1a7p-2', '0x1.8d6c6ffeeeba2p+10', '0x1.8becd2cedf292p-13',
        1, True, False),
    'noiseless_full': ('0x1.0c28f5c28f5c3p+2', '0x1.147ae147ae338p-3', '0x1.3333333333535p-3', '0x1.9000000000470p+9', '0x1.333333333315cp-2', '0x1.a0aaaaaaaae11p+10', '0x1.c9f25c5bfedd9p-52',
        1, True, False),
    'noiseless_6': ('0x1.0c28f5c28f5e0p+2', '0x1.147ae147af0fap-3', '0x1.3333333336991p-3', '0x1.9000000000667p+9', '0x1.3333333331aa9p-2', '0x1.a0aaaaaab0a2cp+10', '0x1.43d136248490fp-51',
        1, True, False),
    'noiseless_7': ('0x1.0c28f5c28f5e4p+2', '0x1.147ae147af4f2p-3', '0x1.3333333336bd7p-3', '0x1.9000000000d7ap+9', '0x1.33333333318f7p-2', '0x1.a0aaaaaab13d2p+10', '0x0.0p+0',
        1, True, False),
    'noisy_7': ('0x1.0bff996d776e0p+2', '0x1.58b370581ccd4p-4', '0x1.10252f7f5100cp-3', '0x1.c38609461cfcbp+8', '0x1.6934de063830fp-2', '0x1.1633a933dcf52p+10', '0x1.0139cccec6855p-13',
        1, True, False),
    'sub_interval_tau': ('0x1.0c28f5c28f5c2p+2', '0x1.15e9e1a09f677p-3', '0x1.47ae1579847e5p-7', '0x1.f3fffe3a6ef21p+10', '0x1.47ae147ae1181p-6', '0x1.869fffffff56dp+15', '0x1.08654a2d4f6dap-52',
        5, True, False),
    'flat': ('0x1.0ccccccccccbdp+2', '0x0.0p+0', '0x1.12e0be826d698p-30', '0x1.bf08eaffffff9p+35', '0x1.12e0be826d698p-30', '0x1.bf08eaffffff9p+35', '0x1.b272eb3389c12p-37',
        6, True, True),
    'non_uniform_noisy': ('0x1.0c33517fb4478p+2', '0x1.18e4607e89f30p-3', '0x1.5f0c7e26dc512p-3', '0x1.83e2dc2a99ca2p+9', '0x1.207188d3870f1p-2', '0x1.e179f9eec277ap+10', '0x1.66d06c05f83b1p-13',
        1, True, False),
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


def _parent_evaluate(theta, t, v, current):
    """The per-branch model evaluation that the fused ``ecm._evaluate`` replaced."""
    r_e, tau_e, r_c, tau_c = np.exp(theta[1:])
    scaled_e = t / tau_e
    scaled_c = t / tau_c
    term_e = current * r_e * np.exp(-scaled_e)
    term_c = current * r_c * np.exp(-scaled_c)
    return theta[0] - term_e - term_c - v, (term_e, scaled_e, term_c, scaled_c)


def _parent_damped_gauss_newton(theta0, t, v, current, lower, upper, solve=np.linalg.solve):
    """The damped Gauss-Newton loop that ``ecm._damped_gauss_newton`` replaced:
    one Jacobian column per operation and ``np.linalg.solve``, whose
    ``LinAlgError`` grows the damping. The lean loop must equal it bit for bit."""
    theta = np.minimum(np.maximum(np.asarray(theta0, dtype=float), lower), upper)
    residual, terms = _parent_evaluate(theta, t, v, current)
    cost = float(residual @ residual)
    damping = 1e-3
    iterations = 0
    converged = False
    stagnant = 0
    jac = np.empty((t.size, 5))
    jac[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while iterations < ecm.MAX_ITERATIONS:
            iterations += 1
            term_e, scaled_e, term_c, scaled_c = terms
            np.negative(term_e, out=jac[:, 1])
            np.multiply(jac[:, 1], scaled_e, out=jac[:, 2])
            np.negative(term_c, out=jac[:, 3])
            np.multiply(jac[:, 3], scaled_c, out=jac[:, 4])
            grad = jac.T @ residual
            hess = jac.T @ jac
            neg_grad = -grad
            diag = hess.diagonal().copy()
            diag[diag <= 0.0] = 1.0
            for _ in range(25):
                system = hess.copy()
                system.reshape(-1)[::6] += damping * diag
                try:
                    step = solve(system, neg_grad)
                except np.linalg.LinAlgError:
                    damping *= 4.0
                    continue
                candidate = np.minimum(np.maximum(theta + step, lower), upper)
                cand_residual, cand_terms = _parent_evaluate(candidate, t, v, current)
                cand_cost = float(cand_residual @ cand_residual)
                if math.isfinite(cand_cost) and cand_cost <= cost:
                    break
                damping *= 4.0
            else:
                converged = True
                break
            moved = candidate - theta
            theta, residual, terms = candidate, cand_residual, cand_terms
            improvement = cost - cand_cost
            cost = cand_cost
            damping = max(damping / 3.0, 1e-12)
            if improvement <= ecm.RESIDUAL_REL_TOL * max(cost, 1e-300):
                converged = True
                break
            if math.sqrt(moved @ moved) <= ecm.STEP_NORM_TOL:
                converged = True
                break
            stagnant = stagnant + 1 if improvement <= 1e-7 * cost else 0
            if stagnant >= 6:
                converged = True
                break
    return theta, cost, iterations, converged


def _bits(result):
    theta, cost, iterations, converged = result
    return theta.tobytes(), float(cost).hex(), iterations, converged


def _solver_inputs(curve: RelaxationCurve, tight: bool, start: int | None):
    """One Gauss-Newton run's inputs, from the projected start (``start`` None)
    or from one of the four blind starts of the oracle, which take the
    solver through many more steps."""
    positive = curve.times_s > 0
    t, v = curve.times_s[positive], curve.voltages_v[positive]
    lower, upper = ecm._fit_bounds(curve, tight)
    if start is None:
        theta0 = ecm._projected_start(t, v, curve.cutoff_current_a, lower, upper)[0]
    else:
        theta0 = initial_guesses(curve)[start]
    return theta0, t, v, curve.cutoff_current_a, lower, upper


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


class TestLeanGaussNewton:
    """``ecm._damped_gauss_newton`` against the loop it replaced, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(curve=_curves(), tight=st.booleans(),
           start=st.none() | st.integers(min_value=0, max_value=3))
    def test_equals_parent_loop(self, curve, tight, start):
        inputs = _solver_inputs(curve, tight, start)
        assert _bits(ecm._damped_gauss_newton(*inputs)) == \
            _bits(_parent_damped_gauss_newton(*inputs))

    def test_evaluation_equals_parent(self):
        curve = _golden_curves()["non_uniform_noisy"]
        theta0, t, v, current, _, _ = _solver_inputs(curve, tight=True, start=1)
        residual, (term, scaled) = ecm._evaluate(theta0, t, v, current)
        want, (term_e, scaled_e, term_c, scaled_c) = _parent_evaluate(theta0, t, v, current)
        assert residual.tobytes() == want.tobytes()
        assert term.tobytes() == np.vstack((term_e, term_c)).tobytes()
        assert scaled.tobytes() == np.vstack((scaled_e, scaled_c)).tobytes()

    @pytest.mark.parametrize("singular", [{1}, {2, 3, 4}, {3, 6, 7, 11}, set(range(1, 26))],
                             ids=["first", "run", "scattered", "every-attempt-of-a-step"])
    def test_singular_system_grows_the_damping(self, monkeypatch, singular):
        # dgesv reporting an exactly singular system (info > 0) on chosen
        # solve attempts must act as np.linalg.solve raising LinAlgError did.
        inputs = _solver_inputs(_golden_curves()["nca_noisy_120s_a"], tight=True, start=0)
        lapack_calls = itertools.count(1)
        real_dgesv = ecm.dgesv

        def dgesv(a, b, overwrite_a=0):
            lu, piv, x, info = real_dgesv(a, b, overwrite_a=overwrite_a)
            return lu, piv, x, 1 if next(lapack_calls) in singular else info

        numpy_calls = itertools.count(1)

        def solve(a, b):
            if next(numpy_calls) in singular:
                raise np.linalg.LinAlgError("Singular matrix")
            return np.linalg.solve(a, b)

        monkeypatch.setattr(ecm, "dgesv", dgesv)
        got = ecm._damped_gauss_newton(*inputs)
        want = _parent_damped_gauss_newton(*inputs, solve=solve)
        assert _bits(got) == _bits(want)
        assert next(lapack_calls) > max(singular)  # every chosen attempt happened
        if len(singular) == 25:  # damping exhausted on the first step
            assert (got[2], got[3]) == (1, True)
            assert got[0].tobytes() == np.clip(inputs[0], inputs[4], inputs[5]).tobytes()


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
            wide = ecm._multistart(curve, tight=False)
            assert wide[1] > _exact_cost(t_pos)

    @pytest.mark.parametrize("seed", [7, 11, 26, 39, 56])
    def test_six_noisy_samples_never_adopt_the_wide_interpolant(self, seed):
        # Five t > 0 samples for five parameters: on these noisy curves the
        # wide box interpolates the noise exactly and the tight box does not.
        fresh = ecm.EcmParams(ocv=4.19, r_o=0.135, r_e=0.15, c_e=800.0,
                              r_c=0.3, c_c=5000.0 / 3.0)
        curve = relaxation_curve(fresh, n_samples=6, noise=2e-4, rng=np.random.default_rng(seed))
        t_pos = curve.times_s[curve.times_s > 0]
        assert ecm._multistart(curve, tight=False)[1] <= _exact_cost(t_pos)
        tight_cost = ecm._multistart(curve, tight=True)[1]
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
    """The projected start's grid pairs (log tau_e, log tau_c), tau_e < tau_c."""
    grid = np.linspace(lower[2], upper[2], ecm._GRID_POINTS)
    return np.array(list(itertools.combinations(grid, 2)))


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
    """The four-start loop stopped at its first exact start; the projected
    start runs Gauss-Newton once and reaches the same exact fits. Where the
    oracle fits a noiseless curve exactly, so does the projected start, and
    its parameters lie within 1e-6 of the truth or no further from it than
    the oracle's, which stop at the first parameters inside
    ``EXACT_RESIDUAL_V``."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), n_samples=st.sampled_from([6, 16]),
           tight=st.booleans())
    def test_equals_four_start_loop(self, seed, n_samples, tight):
        truth = _noiseless_truth(seed)
        curve = relaxation_curve(truth, n_samples=n_samples)
        got, want = ecm._multistart(curve, tight), four_start_multistart(curve, tight)
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
        monkeypatch.setattr(ecm, "_multistart", four_start_multistart)
        oracle = ecm.fit(curve)
        if oracle.residual_rms_v <= ecm.EXACT_RESIDUAL_V:
            assert report.residual_rms_v <= ecm.EXACT_RESIDUAL_V
            fitted = [report.params, oracle.params]
            errors = [_error([p.ocv, p.r_e, p.tau_e, p.r_c, p.tau_c], truth) for p in fitted]
            assert errors[0] <= max(errors[1], 1e-6)

    def test_exit_skips_the_remaining_starts(self, monkeypatch):
        # The golden noiseless 6-sample curve fits exactly from the one
        # projected start: a single Gauss-Newton run where the oracle ran
        # up to four.
        curve = _golden_curves()["noiseless_6"]
        calls = []
        solve = ecm._damped_gauss_newton
        monkeypatch.setattr(ecm, "_damped_gauss_newton",
                            lambda *args: calls.append(solve(*args)) or calls[-1])
        best = ecm._multistart(curve, tight=True)
        assert best[1] <= _exact_cost(curve.times_s[1:])
        assert len(calls) == 1 < len(initial_guesses(curve))


class TestProjectedStart:
    """The one start that replaced the four blind ones: a variable-projection
    grid over the two time constants, refined, then one Gauss-Newton run."""

    @pytest.mark.parametrize("name", ["noisy_7", "nca_noisy_120s_a", "flat"])
    @pytest.mark.parametrize("tight", [True, False])
    def test_deterministic(self, name, tight):
        curve = _golden_curves()[name]
        first = _solver_inputs(curve, tight, start=None)[0]
        assert first.tobytes() == _solver_inputs(curve, tight, start=None)[0].tobytes()
        assert _report_bits(ecm.fit(curve)) == _report_bits(ecm.fit(curve))

    @settings(max_examples=40, deadline=None)
    @given(curve=_curves(), tight=st.booleans())
    def test_cost_is_at_most_the_grid_minimum(self, curve, tight):
        _, t, v, current, lower, upper = _solver_inputs(curve, tight, start=None)
        theta, cost = ecm._projected_start(t, v, current, lower, upper)
        np.testing.assert_allclose(theta, np.clip(theta, lower, upper), rtol=0, atol=1e-12)
        # Its cost is that of its theta, up to rounding of volts near 4 V.
        residual = ecm._evaluate(theta, t, v, current)[0]
        assert math.sqrt(cost) == pytest.approx(math.sqrt(residual @ residual), rel=1e-9, abs=1e-13)
        # Every grid pair scored on its own, as the one-row projection gives it.
        for pair in _grid(lower, upper):
            with np.errstate(divide="ignore", invalid="ignore"):  # as the caller silences
                basis, _, _, _, r, _ = ecm._project(pair[None], t, v - v.mean(), current)
                pair_cost = ecm._boxed_start(pair[None], basis, r, v, lower, upper)[1][0]
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
        _, t, v, current, lower, upper = _solver_inputs(curve, True, start=None)
        pairs = _grid(lower, upper)
        residual = ecm._project(pairs, t, v - v.mean(), current)[5]
        for pair, got in zip(pairs, residual):
            columns = np.column_stack((np.ones_like(t), -current * np.exp(-t[:, None] / np.exp(pair))))
            columns /= np.linalg.norm(columns, axis=0)
            want = v - columns @ np.linalg.lstsq(columns, v, rcond=None)[0]
            assert float(got @ got) == pytest.approx(float(want @ want), rel=1e-8, abs=1e-26)
