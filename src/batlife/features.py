"""Feature engineering for life prediction and classification.

Two families feed the learners:

* state features: the six circuit parameters identified from one cycle's
  relaxation transient (where the cell is on its aging trajectory), and
* rate features: how fast it is moving, measured from differences between
  cycles. For prediction these come from the relaxed-voltage difference
  within a (reference, current) cycle window; for classification from the
  capacity-vs-voltage difference and the discharge-time difference of two
  adjacent cycles.

Feature vectors carry a fixed, named ordering per feature set so trained
models remain compatible with later extractions.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ecm
from .dataset import CellHistory
from .errors import (
    MissingDischargeDataError,
    NoVoltageOverlapError,
    TimeGridMismatchError,
    ValidationError,
)

DELTA_Q_GRID_POINTS = 1000
DELTA_Q_VARIANCE_FLOOR = 1e-12  # Ah^2, keeps the log defined for identical curves
DELTA_T_FLOOR_S = 1e-3

ECM_NAMES = ecm.EcmParams.names()
STATS_NAMES = (
    "dv_variance", "dv_skewness", "dv_kurtosis",
    "dv_max", "dv_min", "dv_mean", "dv_sum", "dv_last",
)
RATE_PRED_NAMES = ("dv_sum", "dv_last")
RATE_CLASS_NAMES = ("dq_var_log10", "dt_log10")
BENCHMARK_NAMES = ("sum_ah", "sum_days")


class FeatureSet(str, Enum):
    ECM = "ECM"
    STATS = "STATS"
    BENCHMARK = "BENCHMARK"
    NOVEL_PRED = "NOVEL_PRED"
    NOVEL_CLASS = "NOVEL_CLASS"
    RATE_CLASS = "RATE_CLASS"

    @classmethod
    def parse(cls, text: str) -> "FeatureSet":
        key = text.strip().upper().replace("-", "_")
        for member in cls:
            if member.value == key:
                return member
        raise ValidationError(f"unknown feature set {text!r}")


FEATURE_NAMES: dict[FeatureSet, tuple[str, ...]] = {
    FeatureSet.ECM: ECM_NAMES,
    FeatureSet.STATS: STATS_NAMES,
    FeatureSet.BENCHMARK: ECM_NAMES + BENCHMARK_NAMES,
    FeatureSet.NOVEL_PRED: ECM_NAMES + RATE_PRED_NAMES,
    FeatureSet.NOVEL_CLASS: ECM_NAMES + RATE_CLASS_NAMES,
    FeatureSet.RATE_CLASS: RATE_CLASS_NAMES,
}

# Feature sets built on discharge data (adjacent-cycle classification).
DISCHARGE_SETS = (FeatureSet.NOVEL_CLASS, FeatureSet.RATE_CLASS)


class WindowMode(str, Enum):
    FIXED_REFERENCE = "fixed_reference"
    ADJACENT = "adjacent"


@dataclass(frozen=True)
class WindowSpec:
    """How the reference cycle n of a degradation window relates to m."""

    mode: WindowMode = WindowMode.FIXED_REFERENCE
    reference_cycle: int = 1

    def __post_init__(self):
        if self.reference_cycle < 1:
            raise ValidationError(f"reference cycle {self.reference_cycle} is not a cycle index")

    def reference_for(self, current_cycle: int) -> int:
        if self.mode is WindowMode.ADJACENT:
            n = current_cycle - 1
        else:
            n = self.reference_cycle
        if current_cycle <= n:
            raise ValidationError(
                f"window needs current cycle > reference cycle (got m={current_cycle}, n={n})"
            )
        return n


def feature_cycles(
    history: CellHistory,
    window: WindowSpec,
    stride: int = 1,
    first: int = 1,
    last: int | None = None,
) -> Iterator[int]:
    """The cycles of a cell that get a feature vector, in ascending order.

    Candidates run every ``stride`` cycles from ``first`` (or the first
    cycle the window allows, if later: 2 for adjacent windows, the
    reference plus one for a fixed reference) up to ``last`` (default: the
    last recorded cycle). A candidate m is kept when m and
    ``window.reference_for(m)`` are both recorded, looked up for every
    candidate at once in the cell's sorted cycle indices.
    """
    lowest = 2 if window.mode is WindowMode.ADJACENT else window.reference_cycle + 1
    recorded = history.cycle_indices
    stop = int(recorded[-1]) if last is None else last
    candidates = range(max(first, lowest), stop + 1, stride)
    m = np.arange(candidates.start, candidates.stop, candidates.step)
    n = m - 1 if window.mode is WindowMode.ADJACENT else np.full_like(m, window.reference_cycle)

    def is_recorded(cycles):
        return recorded[np.minimum(recorded.searchsorted(cycles), recorded.size - 1)] == cycles

    return iter(m[is_recorded(m) & is_recorded(n)].tolist())


@dataclass(frozen=True)
class FeatureVector:
    values: dict[str, float]
    cycle_index: int
    cell_id: str
    feature_set: FeatureSet

    def __post_init__(self):
        expected = FEATURE_NAMES[self.feature_set]
        if tuple(self.values.keys()) != expected:
            raise ValidationError(
                f"{self.feature_set.value} features must be ordered {expected}, "
                f"got {tuple(self.values.keys())}"
            )
        if not all(math.isfinite(v) for v in self.values.values()):
            raise ValidationError(f"non-finite feature value in {self.values}")

    def as_array(self) -> np.ndarray:
        return np.array(list(self.values.values()), dtype=float)


# ---------------------------------------------------------------------------
# Relaxed-voltage differences
# ---------------------------------------------------------------------------

def delta_v(rest_m, rest_n) -> np.ndarray:
    """Pointwise voltage difference V_m(t) - V_n(t) of two rests' (times,
    voltages) on their shared grid (``CellHistory.rest``)."""
    (times_m, volts_m), (times_n, volts_n) = rest_m, rest_n
    if times_m is not times_n and (times_m.size != times_n.size
                                   or not np.array_equal(times_m, times_n)):
        raise TimeGridMismatchError("relaxation curves are not on an identical time grid")
    return volts_m - volts_n


def delta_v_features(dv: np.ndarray) -> tuple[float, float]:
    """Summation over t > 0 and last value of a voltage difference.

    The t = 0 sample is excluded: it still carries the ohmic step under the
    cutoff current, not pure polarization decay.
    """
    dv = np.asarray(dv, dtype=float)
    return float(dv[1:].sum()), float(dv[-1])


def stats_features(dv: np.ndarray) -> dict[str, float]:
    """Eight summary statistics of a voltage-difference sequence.

    Variance uses the n-1 normalization; skewness and kurtosis are the
    third and fourth standardized central moments. A constant sequence has
    undefined shape moments: both are reported as 0.
    """
    dv = np.asarray(dv, dtype=float)
    if dv.size < 2:
        raise ValidationError("statistics need at least 2 points")
    mean = float(dv.mean())
    centered = dv - mean
    m2 = float(np.mean(centered**2))
    # Standardize before taking higher moments: powers of the raw central
    # moments underflow for near-constant sequences.
    scale = math.sqrt(m2)
    if scale == 0.0:
        skewness, kurtosis = 0.0, 0.0
    else:
        z = centered / scale
        skewness = float(np.mean(z**3))
        kurtosis = float(np.mean(z**4))
    values = {
        "dv_variance": float(centered @ centered / (dv.size - 1)),
        "dv_skewness": skewness,
        "dv_kurtosis": kurtosis,
        "dv_max": float(dv.max()),
        "dv_min": float(dv.min()),
        "dv_mean": mean,
        "dv_sum": float(dv.sum()),
        "dv_last": float(dv[-1]),
    }
    return values


# ---------------------------------------------------------------------------
# Discharge-curve differences
# ---------------------------------------------------------------------------

def _charge_of_voltage(charges_ah: np.ndarray, voltages_v: np.ndarray,
                       grid_v: np.ndarray) -> np.ndarray:
    # Discharge voltage is non-increasing along q: flip to ascending for interp.
    return np.interp(grid_v, voltages_v[::-1], charges_ah[::-1])


def delta_q_variance(disc_m, disc_n) -> float:
    """log10 sample variance of Q_m(V) - Q_n(V) on a shared voltage grid.

    ``disc_m`` and ``disc_n`` are (charges, voltages, ...) of two discharges
    (``CellHistory.discharge``). Both capacity-vs-voltage curves are
    linearly interpolated onto a uniform ``DELTA_Q_GRID_POINTS`` grid over
    their voltage overlap; the variance is floored at 1e-12 Ah^2 so
    identical curves return -12 instead of -inf.
    """
    (q_m, v_m, *_), (q_n, v_n, *_) = disc_m, disc_n
    lo = max(v_m.min(), v_n.min())
    hi = min(v_m.max(), v_n.max())
    if lo >= hi:
        raise NoVoltageOverlapError(
            f"discharge curves share no voltage range ([{lo:.3f}, {hi:.3f}])"
        )
    grid = np.linspace(lo, hi, DELTA_Q_GRID_POINTS)
    dq = _charge_of_voltage(q_m, v_m, grid) - _charge_of_voltage(q_n, v_n, grid)
    variance = float(np.var(dq, ddof=1))
    return math.log10(max(variance, DELTA_Q_VARIANCE_FLOOR))


def delta_t(duration_m_s: float, duration_n_s: float) -> float:
    """log10 absolute difference of two discharge durations (seconds)."""
    gap = abs(duration_m_s - duration_n_s)
    return math.log10(max(gap, DELTA_T_FLOOR_S))


# ---------------------------------------------------------------------------
# Throughput bookkeeping
# ---------------------------------------------------------------------------

def benchmark_features(history: CellHistory, cycle_index: int) -> tuple[float, float]:
    """Cumulative ampere-hours and calendar days up to a cycle."""
    k = history.row(cycle_index)
    return float(history.cumulative_ah[k]), float(history.calendar_days[k])


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _fitted_params(
    history: CellHistory,
    cycle_index: int,
    truncate: int | None,
    cache: dict | None,
) -> ecm.EcmParams:
    key = (cycle_index, truncate)
    if cache is not None and key in cache:
        return cache[key]
    params = ecm.fit(history.relaxation(cycle_index, truncate)).params
    if cache is not None:
        cache[key] = params
    return params


def assemble(
    history: CellHistory,
    cycle_index: int,
    window: WindowSpec,
    feature_set: FeatureSet,
    truncate: int | None = None,
    fit_cache: dict | None = None,
) -> FeatureVector:
    """Build one cycle's feature vector for the requested set.

    ``truncate`` limits each relaxation curve to its first samples (shorter
    observed rest). ``fit_cache`` memoizes circuit fits across calls for
    the same cell.
    """
    if feature_set in DISCHARGE_SETS and window.mode is not WindowMode.ADJACENT:
        raise ValidationError(
            f"{feature_set.value} uses adjacent-cycle differences; "
            "window mode must be 'adjacent'"
        )

    values: dict[str, float] = {}

    if feature_set in (FeatureSet.ECM, FeatureSet.BENCHMARK, FeatureSet.NOVEL_PRED,
                       FeatureSet.NOVEL_CLASS):
        params = _fitted_params(history, cycle_index, truncate, fit_cache)
        values.update(zip(ECM_NAMES, params.as_array()))

    if feature_set in (FeatureSet.STATS, FeatureSet.NOVEL_PRED):
        reference = window.reference_for(cycle_index)
        dv = delta_v(history.rest(cycle_index, truncate), history.rest(reference, truncate))
        if feature_set is FeatureSet.STATS:
            # Shape statistics over the polarization-decay window (t > 0),
            # the same span the summation feature is defined on.
            values.update(stats_features(dv[1:]))
        else:
            values["dv_sum"], values["dv_last"] = delta_v_features(dv)

    if feature_set in DISCHARGE_SETS:
        reference = window.reference_for(cycle_index)
        disc_m = history.discharge(cycle_index)
        disc_n = history.discharge(reference)
        if disc_m is None or disc_n is None:
            raise MissingDischargeDataError(
                f"cell {history.cell_id}: cycles {reference},{cycle_index} lack discharge data"
            )
        values["dq_var_log10"] = delta_q_variance(disc_m, disc_n)
        values["dt_log10"] = delta_t(disc_m[2], disc_n[2])

    if feature_set is FeatureSet.BENCHMARK:
        sum_ah, sum_days = benchmark_features(history, cycle_index)
        values["sum_ah"] = sum_ah
        values["sum_days"] = sum_days

    ordered = {name: values[name] for name in FEATURE_NAMES[feature_set]}
    return FeatureVector(
        values=ordered,
        cycle_index=cycle_index,
        cell_id=history.cell_id,
        feature_set=feature_set,
    )
