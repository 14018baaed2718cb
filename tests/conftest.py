import math

import numpy as np
import pytest
from scipy.special import expit

from batlife import simgen
from batlife.dataset import RelaxationCurve
from batlife.ecm import EcmParams, predict_relaxation

CUTOFF_A = 0.175
INTERVAL_S = 120.0


def relaxation_curve(params: EcmParams, n_samples: int = 16, noise: float = 0.0,
                     rng=None, interval: float = INTERVAL_S,
                     current: float = CUTOFF_A) -> RelaxationCurve:
    """Exact model curve on the standard 2-minute grid, optional noise."""
    times = np.arange(n_samples) * interval
    voltages = predict_relaxation(params, current, times)
    if noise > 0.0:
        voltages = voltages + (rng or np.random.default_rng(0)).normal(0.0, noise, n_samples)
    return RelaxationCurve(times, voltages, interval, current)


@pytest.fixture(scope="session")
def small_fleet():
    """Two-condition, two-cell fleet for fast integration tests."""
    return simgen.benchmark_fleet(
        seed=101, cells_per_condition=2, fade_refs=(120.0, 240.0),
        temperatures=(25, 45), discharge_knots=200,
    )


@pytest.fixture(scope="session")
def drifting_cell():
    """One noiseless cell with monotone drift, modest horizon."""
    profile = simgen.condition_profile(300.0, seed=5, noise_sigma_v=0.0, cell_spread=0.0)
    return simgen.simulate_cell(profile, simgen.NCA_PROTOCOL, 60, cell_id="drift-00")


def kernel_eval(x_i, x_j, kernel) -> float:
    """Oracle: the ARD-exponential covariance of two feature vectors, one
    pair at a time (``gpr.kernel_matrix`` computes it for whole matrices)."""
    scaled = (np.asarray(x_i, dtype=float) - np.asarray(x_j, dtype=float)) / kernel.length_scales
    return float(kernel.sigma_f**2 * math.exp(-math.sqrt(float(scaled @ scaled))))


def mode_stationarity(model) -> float:
    """Oracle: max-norm of a binary GPC's posterior-mode optimality residual
    (t - pi(f_hat) - grad_at_mode; ~0 at the mode)."""
    pi = expit(model.f_hat)
    t = (model.y_train + 1.0) / 2.0
    return float(np.max(np.abs((t - pi) - model.grad_at_mode)))
