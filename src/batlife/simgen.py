"""Synthetic battery-aging generator.

Produces CellHistory objects whose relaxation transients are exact
evaluations of the second-order circuit model under a programmed parameter
drift, plus optional Gaussian voltage noise. Serves as the ground-truth
oracle for desk-scale pipeline experiments: every generated quantity has a
closed form, so fitted parameters and downstream features can be checked
against what was programmed.

Drift law: each circuit parameter ramps linearly from its initial value,

    p_k(m) = p_k(0) * (1 + rate_k * m),

with ``rate_k`` a fractional change per cycle. Capacity fades as

    q(m) = q0 * (1 - a * (m / m_ref)^b),

so with a = 0.2 and b = 1 the cell retires (80% of nominal) exactly at
m_ref cycles. The discharge curve is a fixed monotone pseudo-OCV template
stretched horizontally by the current capacity, which gives the
capacity-vs-voltage difference features a nonzero, fade-correlated
variance.

The drift law is written once (``_drift``): ``drifted_params`` evaluates it
at one cycle, as the closed-form oracle, and ``simulate_cell`` at every
cycle of a cell as one (cycles x 6) array. A cell is built whole, as the
columns of a ``CellHistory``: its relaxation voltages are one (cycles x
samples) block (``ecm.relaxation_model``) with the noise drawn in one call,
on one rest-time row that every cycle shares, and its discharges are one
template that every cycle ramps over to its capacity, with one duration
per cycle (``dataset.Discharges``). These arrays are read-only. The
charges of a discharge are not stored but computed on read, so a cell
holds no (cycles x knots) array. Capacities stay on ``capacity_at``'s
scalar power: an array power does not round alike for a non-integer
exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import (
    CUTOFF_WINDOWS_V,
    CUTOFF_C_RATE,
    CellHistory,
    CellMeta,
    Chemistry,
    DischargeCurve,
    Discharges,
    RelaxationCurve,
    build_history,
    discharge_fault,
    parse_condition,
    relaxation_fault,
)
from .ecm import EcmParams, relaxation_model
from .errors import DataError, ValidationError

DISCHARGE_KNOTS = 1000


@dataclass(frozen=True)
class SimProtocol:
    """Sampling and cycling protocol of a simulated test channel."""

    chemistry: Chemistry
    condition: str
    nominal_capacity_ah: float
    sampling_interval_s: float
    rest_duration_s: float

    @property
    def cutoff_current_a(self) -> float:
        return CUTOFF_C_RATE * self.nominal_capacity_ah

    @property
    def voltage_window(self) -> tuple[float, float]:
        return CUTOFF_WINDOWS_V[self.chemistry]

    def rest_times(self) -> np.ndarray:
        n = int(np.floor(self.rest_duration_s / self.sampling_interval_s + 1e-9)) + 1
        return np.arange(n) * self.sampling_interval_s


# 2-min sampling over 30-min rests (3.5 Ah class) and 30-s sampling over
# 60-min rests (2.5 Ah class), mirroring common cycler configurations.
NCA_PROTOCOL = SimProtocol(Chemistry.NCA, "CY25-0.5/1", 3.5, 120.0, 1800.0)
NCM_PROTOCOL = SimProtocol(Chemistry.NCM, "CY25-0.5/1", 3.5, 120.0, 1800.0)
NCM_NCA_PROTOCOL = SimProtocol(Chemistry.NCM_NCA, "CY25-0.5/1", 2.5, 30.0, 3600.0)


@dataclass(frozen=True)
class DriftRates:
    """Fractional change per cycle for each circuit parameter."""

    ocv: float = 0.0
    r_o: float = 0.0
    r_e: float = 0.0
    c_e: float = 0.0
    r_c: float = 0.0
    c_c: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.ocv, self.r_o, self.r_e, self.c_e, self.r_c, self.c_c])


@dataclass(frozen=True)
class DriftProfile:
    """Programmed aging of one cell."""

    initial: EcmParams
    rates: DriftRates = field(default_factory=DriftRates)
    fade_a: float = 0.2
    fade_b: float = 1.0
    fade_ref_cycles: float = 500.0
    noise_sigma_v: float = 0.0
    cell_spread: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not (self.fade_a > 0 and self.fade_b > 0):
            raise ValidationError("fade coefficients a and b must be positive")
        if not self.fade_ref_cycles > 0:
            raise ValidationError("fade reference cycle count must be positive")
        if not (self.noise_sigma_v >= 0 and self.cell_spread >= 0):
            raise ValidationError("noise sigma and cell spread must be non-negative")


def _drift(profile: DriftProfile, cycles) -> np.ndarray:
    """The linear drift law, unchecked: the six circuit quantities (in
    ``EcmParams.names()`` order, last axis) at each of ``cycles``."""
    return profile.initial.as_array() * (1.0 + np.multiply.outer(cycles, profile.rates.as_array()))


def drifted_params(profile: DriftProfile, cycle: int) -> EcmParams:
    """Circuit parameters at a given cycle under the linear drift law."""
    values = _drift(profile, cycle)
    labels = EcmParams.names()
    for name, value in zip(labels, values):
        if name in ("r_e", "c_e", "r_c", "c_c") and value <= 0:
            raise DataError(f"{name} becomes non-positive at cycle {cycle}")
    r_o = max(values[1], 0.0)
    return EcmParams(ocv=values[0], r_o=r_o, r_e=values[2], c_e=values[3],
                     r_c=values[4], c_c=values[5])


def capacity_at(profile: DriftProfile, cycle: int, nominal_capacity_ah: float) -> float:
    q = nominal_capacity_ah * (1.0 - profile.fade_a * (cycle / profile.fade_ref_cycles) ** profile.fade_b)
    if q <= 0:
        raise DataError(f"capacity becomes non-positive at cycle {cycle}")
    return q


def _pseudo_ocv_template(upper_v: float, lower_v: float, n_knots: int = DISCHARGE_KNOTS) -> np.ndarray:
    """Monotone voltage-vs-depth template: flat-ish plateau, steep tail."""
    s = np.linspace(0.0, 1.0, n_knots)
    shape = 0.5 * s + 0.5 * s**3
    return upper_v - (upper_v - lower_v) * shape


def simulate_cell(
    profile: DriftProfile,
    protocol: SimProtocol,
    horizon_cycles: int,
    cell_id: str = "sim-000",
    discharge_knots: int = DISCHARGE_KNOTS,
) -> CellHistory:
    """Simulate one cell for ``horizon_cycles`` full cycles.

    Deterministic given ``profile.seed``; two calls with identical arguments
    produce bit-identical histories. The cell's blocks are checked once
    each: the voltage block on the shared time row
    (``dataset.relaxation_fault``), the discharge template with the first
    cycle's duration (``dataset.discharge_fault``) and then every duration,
    and, in ``build_history``, the indices and capacities. A cell that one
    of these refuses, or whose drift may break the branch order, is checked
    again cycle by cycle with the checked constructors, so that it raises
    what a cycle-by-cycle loop raises first: per cycle, in order,
    ``drifted_params``, the relaxation curve and the discharge curve.
    """
    if horizon_cycles < 1:
        raise ValidationError("horizon must be at least one cycle")
    # Fail fast if the drift law would leave the physical region.
    drifted_params(profile, horizon_cycles)
    capacity_at(profile, horizon_cycles, protocol.nominal_capacity_ah)

    rng = np.random.default_rng(np.random.SeedSequence([profile.seed & 0xFFFFFFFF]))
    current = protocol.cutoff_current_a
    cycles = np.arange(1, horizon_cycles + 1)
    times = protocol.rest_times()
    ocv, r_o, r_e, c_e, r_c, c_c = _drift(profile, cycles).T[:, :, None]
    tau_e, tau_c = r_e * c_e, r_c * c_c
    voltages = relaxation_model(ocv, np.maximum(r_o, 0.0), r_e, tau_e, r_c, tau_c, current, times)
    if profile.noise_sigma_v > 0:
        voltages += rng.normal(0.0, profile.noise_sigma_v, size=voltages.shape)
    # The law is monotone in m, so quantities positive at cycle 0 and at the
    # horizon are positive in between; but tau_e(m) = r_e(m) * c_e(m) can
    # cross tau_c(m) (and NaN fails every comparison).
    suspect = ~(tau_e <= tau_c)[:, 0]
    # Capacity fades monotonically: none fails before the horizon's.
    capacities = np.array([capacity_at(profile, m, protocol.nominal_capacity_ah)
                           for m in range(1, horizon_cycles + 1)])
    lower, upper = protocol.voltage_window
    template = _pseudo_ocv_template(upper, lower, discharge_knots)
    _, _, dis_rate = parse_condition(protocol.condition)
    discharge_a = dis_rate * protocol.nominal_capacity_ah
    if not discharge_a > 0:  # the product underflows to 0 A: every duration is infinite
        raise ValidationError("discharge duration must be finite and positive")
    with np.errstate(over="ignore"):  # an infinite duration is refused below
        durations = capacities / discharge_a * 3600.0

    interval = protocol.sampling_interval_s
    if (suspect.any()
            or relaxation_fault(times, voltages, interval, current) is not None
            or discharge_fault(None, template, np.array([0, template.size]),
                               durations[:1]) is not None
            or not ((durations > 0) & (durations < np.inf)).all()):
        for m, bad, volts, capacity, duration in zip(cycles.tolist(), suspect.tolist(), voltages,
                                                     capacities.tolist(), durations.tolist()):
            if bad:
                drifted_params(profile, m)  # raises what cycle m's state violates, if anything
            RelaxationCurve(times, volts, interval, current)
            DischargeCurve(np.linspace(0.0, capacity, template.size), template, duration)

    meta = CellMeta(cell_id, protocol.chemistry, protocol.condition,
                    protocol.nominal_capacity_ah, protocol.sampling_interval_s,
                    protocol.rest_duration_s)
    return build_history(meta, cycles, capacities, times, voltages,
                         Discharges(template, durations))


def spread_profile(profile: DriftProfile, cell_index: int) -> DriftProfile:
    """Per-cell randomization of the initial state, drift, and fade speed.

    Each quantity is scaled by (1 + spread * u) with u uniform on [-1, 1],
    drawn from a stream keyed on (seed, cell_index) so fleets are stable
    under reordering.
    """
    if profile.cell_spread == 0.0:
        return replace(profile, seed=profile.seed + cell_index)
    rng = np.random.default_rng(
        np.random.SeedSequence([profile.seed & 0xFFFFFFFF, cell_index])
    )

    def jitter() -> float:
        return 1.0 + profile.cell_spread * rng.uniform(-1.0, 1.0)

    init = profile.initial
    initial = EcmParams(
        ocv=init.ocv * jitter(),
        r_o=init.r_o * jitter(),
        r_e=init.r_e * jitter(),
        c_e=init.c_e * jitter(),
        r_c=init.r_c * jitter(),
        c_c=init.c_c * jitter(),
    )
    rates = DriftRates(*(profile.rates.as_array() * np.array([jitter() for _ in range(6)])))
    fade_a = profile.fade_a * jitter()
    return replace(
        profile,
        initial=initial,
        rates=rates,
        fade_a=fade_a,
        seed=profile.seed + 104729 * (cell_index + 1),
    )


def simulate_fleet(
    profile: DriftProfile,
    protocol: SimProtocol,
    horizon_cycles: int,
    n_cells: int,
    cell_prefix: str = "sim",
    discharge_knots: int = DISCHARGE_KNOTS,
) -> list[CellHistory]:
    """Simulate ``n_cells`` cells sharing a base profile, with per-cell spread."""
    cells = []
    for i in range(n_cells):
        cell_profile = spread_profile(profile, i)
        cell_id = f"{cell_prefix}-{i:02d}"
        cells.append(simulate_cell(cell_profile, protocol, horizon_cycles, cell_id,
                                   discharge_knots=discharge_knots))
    return cells


# ---------------------------------------------------------------------------
# Desk-scale benchmark fleets
# ---------------------------------------------------------------------------

# A fresh 3.5 Ah cell with ~79 mV of total polarization at the 0.175 A
# cutoff current, relaxing with ~120 s and ~500 s time constants. The
# amplitudes sit well above the benchmark noise floor so per-cycle circuit
# fits stay light-tailed.
DEFAULT_INITIAL = EcmParams(ocv=4.19, r_o=0.135, r_e=0.15, c_e=800.0, r_c=0.3, c_c=5000.0 / 3.0)

# Per-cycle drop of the relaxation asymptote: an absolute aging clock shared
# by every condition. Per-cell asymptote offsets dwarf the accumulated drop,
# so the clock is readable only from voltage differences between cycles
# (where the offset cancels), not from any single cycle's state.
OCV_CLOCK_V_PER_CYCLE = -8e-5

# Fractional growth/shrinkage over one fade-reference span of the
# fade-coupled parameters (scaled by 1/fade_ref per cycle). The fast branch
# carries no drift: it is the static condition signature, and a static
# branch cancels exactly in voltage differences between cycles, so the
# signature is readable only from single-cycle state.
FADE_DRIFT_SPAN = {"r_o": 0.1, "r_c": 0.15, "c_c": -0.2}

# Condition signature: the fast-branch resistance shrinks as the chamber
# temperature rises, so one cycle's state identifies the condition (and
# with it the expected lifetime bracket).
SIGNATURE_RESISTANCE_FACTOR = 0.72

# Fade coefficient a of every benchmark condition: capacity reaches the 80%
# end of life near 0.8 fade-reference spans.
CONDITION_FADE_A = 0.25

# Simulated cycles past the expected end of life, as a factor: the crossing
# stays interior to every capacity trace.
HORIZON_MARGIN = 1.05


def condition_profile(
    fade_ref_cycles: float,
    seed: int,
    signature: int = 0,
    noise_sigma_v: float = 0.0002,
    cell_spread: float = 0.02,
) -> DriftProfile:
    """Drift profile for one cycling condition of the benchmark fleet.

    The three information channels are deliberately decoupled: the static
    fast branch fingerprints the condition (``signature``), the slow branch
    tracks fade progress identically under every condition, and the
    asymptote falls on the absolute per-cycle clock. Per-cell spread
    (applied by ``spread_profile``) scatters initial values, drift rates,
    and fade speed.
    """
    r_e = DEFAULT_INITIAL.r_e * SIGNATURE_RESISTANCE_FACTOR**signature
    tau_fast = DEFAULT_INITIAL.r_e * DEFAULT_INITIAL.c_e
    rates = DriftRates(
        ocv=OCV_CLOCK_V_PER_CYCLE / DEFAULT_INITIAL.ocv,
        **{k: v / fade_ref_cycles for k, v in FADE_DRIFT_SPAN.items()},
    )
    return DriftProfile(
        initial=replace(DEFAULT_INITIAL, r_e=r_e, c_e=tau_fast / r_e),
        rates=rates,
        fade_a=CONDITION_FADE_A,
        fade_b=1.0,
        fade_ref_cycles=fade_ref_cycles,
        noise_sigma_v=noise_sigma_v,
        cell_spread=cell_spread,
        seed=seed,
    )


def benchmark_fleet(
    seed: int = 7,
    cells_per_condition: int = 5,
    fade_refs: tuple[float, ...] = (300.0, 500.0, 800.0),
    temperatures: tuple[int, ...] = (25, 35, 45),
    noise_sigma_v: float = 0.0002,
    cell_spread: float = 0.02,
    discharge_knots: int = DISCHARGE_KNOTS,
) -> list[CellHistory]:
    """Heterogeneous multi-condition fleet for end-to-end experiments.

    One condition per fade-reference span (lifetimes of roughly
    0.8 * fade_ref cycles), each with its own state signature. Horizons
    extend a little past retirement so the end-of-life crossing is interior
    to every capacity trace.
    """
    cells: list[CellHistory] = []
    for k, (fade_ref, temp) in enumerate(zip(fade_refs, temperatures)):
        condition = f"CY{temp}-0.5/1"
        protocol = replace(NCA_PROTOCOL, condition=condition)
        profile = condition_profile(
            fade_ref, seed=seed + 1000 * k, signature=k,
            noise_sigma_v=noise_sigma_v, cell_spread=cell_spread,
        )
        horizon = int(fade_ref * 0.8 * HORIZON_MARGIN * (1.0 + cell_spread)) + 5
        cells.extend(
            simulate_fleet(profile, protocol, horizon, cells_per_condition,
                           cell_prefix=f"syn{temp}", discharge_knots=discharge_knots)
        )
    return cells
