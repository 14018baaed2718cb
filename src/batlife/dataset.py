"""Canonical data model for battery cycling data.

One CSV per cell, long format, columns::

    cycle, phase, t_s, voltage_v, current_a, capacity_ah

with ``phase`` one of ``charge``, ``rest_post_charge``, ``discharge``,
``rest_post_discharge``. Only the post-charge rest (the relaxation
transient used for aging features) and the CC discharge are consumed;
other phases are accepted and ignored. Rest rows carry the cycle's
measured capacity in ``capacity_ah`` so relaxation-only logs still have a
capacity trace; discharge rows carry the running discharged charge.

A cell is columnar (``CellHistory``): per-cycle arrays, one (cycles x
samples) block of post-charge rest voltages on a shared time row, and the
CC discharges as one template or as sorted columns (``Discharges``). A
checked per-cycle view (``CellHistory.record``) is built only on request.

Ingest is columnar: ``textio.read_columns`` parses the five columns it
reads in one C pass (``np.loadtxt`` reads the file from its path in large
chunks), each phase's rows are found by one comparison of the phase column
and grouped by one stable sort on (cycle, time), every check runs over whole
columns, and the rests and discharges are blocks of those columns. Rows
may come in any order; a rejected row is reported with its file line. A rest voltage, discharge value or capacity that is not a finite
number is rejected, so no NaN reaches a circuit fit.

Each record type's checks are one function over a block of records
(``relaxation_fault``, ``discharge_fault``, ``cycle_fault``; see
``Fault``), and its constructor runs that function on the one record. They
are a cell's own checks, run once per cell by the code that builds it:
``ingest_cell`` on the cell's rest block and its sorted discharge columns,
``simgen.simulate_cell`` on its voltage block and discharge template, and
``build_history`` on the cycle indices and capacities.

Two bookkeeping quantities are derived, not stored, so that a write/ingest
round trip is exact:

* cumulative throughput = twice the cumulative discharged Ah (full cycles
  charge back what they discharged), and
* calendar time = the sum of per-cycle durations reconstructed from the
  condition code (charge and discharge C-rates) plus two rest periods.

``CellMeta`` is the one cell record: id, chemistry, condition code, nominal
capacity, sampling interval and rest length, declared, spelled and parsed
once for a cell CSV's first-line comment and for the plain-text key/value
manifest that lists the cells of a dataset.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    EmptyFileError,
    InsufficientCellsError,
    NeverReachedError,
    SchemaError,
    UnknownCycleError,
    ValidationError,
)
from .textio import read_columns, read_keys, spell, spell_floats, write_keys, write_table

CANONICAL_COLUMNS = ("cycle", "phase", "t_s", "voltage_v", "current_a", "capacity_ah")
PHASES = ("charge", "rest_post_charge", "discharge", "rest_post_discharge")

VOLTAGE_MIN_V = 2.0
VOLTAGE_MAX_V = 4.5

# End-of-life state of health: RUL labels count down to the first cycle at it,
# samples stay above it, and the classification thresholds reach zero there.
SOH_EOL = 0.80
EOL_MEDIAN_WINDOW = 5

# CV-phase cutoff current as a fraction of nominal capacity per hour (0.05C).
CUTOFF_C_RATE = 0.05

SECONDS_PER_DAY = 86400.0


class Chemistry(str, Enum):
    NCA = "NCA"
    NCM = "NCM"
    NCM_NCA = "NCM+NCA"

    @classmethod
    def parse(cls, text: str) -> "Chemistry":
        normalized = text.strip().upper().replace("_", "+")
        for member in cls:
            if member.value == normalized:
                return member
        raise ValidationError(f"unknown chemistry {text!r}")


# Protocol voltage windows by chemistry (lower cutoff, upper cutoff), volts.
CUTOFF_WINDOWS_V = {
    Chemistry.NCA: (2.65, 4.2),
    Chemistry.NCM: (2.5, 4.2),
    Chemistry.NCM_NCA: (2.5, 4.2),
}

_CONDITION_RE = re.compile(r"^CY(?P<temp>\d+(?:\.\d+)?)-(?P<chg>\d+(?:\.\d+)?)/(?P<dis>\d+(?:\.\d+)?)$")


def parse_condition(code: str) -> tuple[float, float, float]:
    """Split a condition code ``CY<temp>-<charge C>/<discharge C>``.

    Returns (temperature_c, charge_rate_c, discharge_rate_c). A zero charge
    or discharge rate is refused: a cycle at it would never end.
    """
    match = _CONDITION_RE.match(code.strip())
    if match is None:
        raise ValidationError(f"condition code {code!r} is not of the form CY<T>-<chg>/<dis>")
    temperature, charge, discharge = float(match["temp"]), float(match["chg"]), float(match["dis"])
    if charge == 0.0 or discharge == 0.0:
        raise ValidationError(f"condition code {code!r} has a zero C-rate")
    return temperature, charge, discharge


class Fault(NamedTuple):
    """Where and why a block of records fails its record type's checks.

    A block check (``relaxation_fault``, ``discharge_fault``, ``cycle_fault``)
    runs the checks of a record type's constructor over many records at
    once, in the constructor's order. The first check that some record
    fails is the fault: ``record`` is the first record that fails it,
    ``item`` the first sample or point of that record that does, and
    ``problem`` the constructor's message. That record, built alone, fails
    with the same message, and a block of one record fails as its
    constructor does: each constructor runs its block check on itself.
    """

    record: int
    item: int
    problem: str


def _refuse(fault: Fault | None) -> None:
    if fault is not None:
        raise ValidationError(fault.problem)


def relaxation_fault(times_s: np.ndarray, voltages_v: np.ndarray, sampling_interval_s: float,
                     cutoff_current_a: float) -> Fault | None:
    """``RelaxationCurve``'s checks over a block of curves (see ``Fault``).

    ``voltages_v`` holds one curve, or one curve per row, and ``times_s``
    their times: one row that every curve shares, or one row per curve.
    """
    t, v = times_s, voltages_v
    n = v.shape[-1]
    if n < 2:
        return Fault(0, 0, "relaxation curve needs at least 2 samples")
    if t[..., 0].any():  # NaN is nonzero too
        return Fault(int(np.flatnonzero(t[..., 0])[0]), 0, "relaxation curve must start at t = 0")
    # Every comparison is false for NaN, and increasing times from 0 up to
    # a finite last time are all finite.
    rising = t[..., 1:] - t[..., :-1] > 0
    if not (rising.all() and math.isfinite(t[..., -1].max())):
        rising = np.atleast_2d(rising)
        k = int(np.argmin(rising.all(axis=1) & np.isfinite(np.atleast_1d(t[..., -1]))))
        j = int(np.argmin(rising[k])) + 1 if not rising[k].all() else n - 1
        return Fault(k, j, "relaxation times must be finite and strictly increasing")
    in_range = (v >= VOLTAGE_MIN_V) & (v <= VOLTAGE_MAX_V)
    if not in_range.all():
        return Fault(*divmod(int(np.argmin(in_range)), n),
                     f"relaxation voltage is not a number in [{VOLTAGE_MIN_V}, {VOLTAGE_MAX_V}] V")
    if not 0 < sampling_interval_s < math.inf:
        return Fault(0, 0, "sampling interval must be finite and positive")
    if not 0 < cutoff_current_a < math.inf:
        return Fault(0, 0, "cutoff current must be finite and positive")
    return None


@dataclass(frozen=True)
class RelaxationCurve:
    """Voltage transient during the rest after charging.

    ``times_s`` starts at 0 (the instant the charger disconnects, still at
    the CV cutoff current) and is strictly increasing; ``voltages_v`` are
    the sampled terminal voltages.
    """

    times_s: np.ndarray
    voltages_v: np.ndarray
    sampling_interval_s: float
    cutoff_current_a: float

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=float)
        v = np.asarray(self.voltages_v, dtype=float)
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "voltages_v", v)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise ValidationError("relaxation times and voltages must be 1-D and equal length")
        _refuse(relaxation_fault(t, v, self.sampling_interval_s, self.cutoff_current_a))

    @property
    def n_samples(self) -> int:
        return int(self.times_s.size)


def discharge_fault(charges_ah: np.ndarray | None, voltages_v: np.ndarray, bounds: np.ndarray,
                    durations_s: np.ndarray) -> Fault | None:
    """``DischargeCurve``'s checks over a block of curves laid end to end
    (see ``Fault``).

    Curve k is items ``bounds[k]:bounds[k + 1]`` of ``charges_ah`` and
    ``voltages_v`` and lasts ``durations_s[k]``. With ``charges_ah`` None
    the curves are ramps (see ``Discharges``), whose charges are checked
    through the cell's capacities.
    """
    sizes = np.diff(bounds)
    if (sizes < 2).any():
        return Fault(int(np.argmax(sizes < 2)), 0, "discharge curve needs at least 2 points")
    first, last = bounds[:-1], bounds[1:] - 1
    for x, compare, problem in [
        (charges_ah, np.greater_equal, "discharged charge must be finite and non-decreasing"),
        (voltages_v, np.less_equal, "discharge voltage must be finite and non-increasing"),
    ]:
        if x is None:
            continue
        # Each item steps from the one before it in the curve's direction, and
        # the curve's ends are finite: a monotone sequence without NaN steps
        # and with finite ends is finite. A first item steps from no item.
        accepted = np.empty(x.size, dtype=bool)
        compare(x[1:] - x[:-1], 0.0, out=accepted[1:])
        accepted[first] = np.isfinite(x[first])
        accepted[last] &= np.isfinite(x[last])
        if not accepted.all():
            i = int(np.argmin(accepted))
            k = int(np.searchsorted(bounds, i, side="right")) - 1
            return Fault(k, i - int(bounds[k]), problem)
    accepted = (durations_s > 0) & (durations_s < math.inf)
    if not accepted.all():
        k = int(np.argmin(accepted))
        return Fault(k, int(sizes[k]) - 1, "discharge duration must be finite and positive")
    return None


@dataclass(frozen=True)
class DischargeCurve:
    """Capacity/voltage trace of the CC discharge.

    ``charges_ah`` is the running discharged charge (non-decreasing),
    ``voltages_v`` the terminal voltage (non-increasing), ``duration_s``
    the total CC discharge time and ``capacity_ah`` the last charge.
    """

    charges_ah: np.ndarray
    voltages_v: np.ndarray
    duration_s: float

    def __post_init__(self):
        q = np.asarray(self.charges_ah, dtype=float)
        v = np.asarray(self.voltages_v, dtype=float)
        object.__setattr__(self, "charges_ah", q)
        object.__setattr__(self, "voltages_v", v)
        if q.ndim != 1 or v.ndim != 1 or q.size != v.size:
            raise ValidationError("discharge charges and voltages must be 1-D and equal length")
        _refuse(discharge_fault(q, v, np.array([0, q.size]), np.array([self.duration_s])))

    @property
    def capacity_ah(self) -> float:
        return float(self.charges_ah[-1])


def cycle_fault(cycle_indices: np.ndarray, capacities_ah: np.ndarray) -> Fault | None:
    """``CycleRecord``'s checks over a block of cycles (see ``Fault``)."""
    for accepted, problem in [
        (~(cycle_indices < 1), "cycle index must be a positive integer"),
        ((capacities_ah > 0) & (capacities_ah < math.inf), "capacity must be finite and positive"),
    ]:
        if not accepted.all():
            return Fault(int(np.argmin(accepted)), 0, problem)
    return None


@dataclass(frozen=True)
class CycleRecord:
    """One cycle of one cell: relaxation, optional discharge, bookkeeping."""

    cycle_index: int
    relaxation: RelaxationCurve
    capacity_ah: float
    cumulative_ah: float
    calendar_days: float
    discharge: DischargeCurve | None = None

    def __post_init__(self):
        _refuse(cycle_fault(np.array([self.cycle_index]), np.array([self.capacity_ah])))


@dataclass(frozen=True)
class Discharges:
    """The CC discharges of a cell's cycles; row k's lasts ``durations_s[k]``.

    With ``bounds`` None (simulation), every row ramps over the template
    ``voltages_v``: its charges, ``np.linspace(0, capacity, knots)``, are
    computed on read, so a cell holds no (cycles x knots) array. Otherwise
    (ingest) row k's points are items ``bounds[k]:bounds[k + 1]`` of
    ``charges_ah`` and ``voltages_v``; a row without points has none.
    """

    voltages_v: np.ndarray
    durations_s: np.ndarray
    charges_ah: np.ndarray | None = None
    bounds: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class CellHistory:
    """Complete cycling history of one cell, as columns; immutable after construction.

    Row k of every per-cycle array is cycle ``cycle_indices[k]`` (strictly
    increasing). ``times_s`` is the rests' time row that every cycle shares,
    or one row per cycle where ingest kept near-grid times verbatim.
    """

    cell_id: str
    chemistry: Chemistry
    condition: str
    nominal_capacity_ah: float
    sampling_interval_s: float
    cycle_indices: np.ndarray
    capacities_ah: np.ndarray
    cumulative_ah: np.ndarray
    calendar_days: np.ndarray
    times_s: np.ndarray
    voltages_v: np.ndarray
    discharges: Discharges
    eol_cycle: int | None

    def __post_init__(self):
        if self.nominal_capacity_ah <= 0:
            raise ValidationError("nominal capacity must be positive")
        parse_condition(self.condition)
        if (np.diff(self.cycle_indices) <= 0).any():
            raise ValidationError("cycle indices must be strictly increasing")
        if (np.diff(self.cumulative_ah) < 0).any():
            raise ValidationError("cumulative throughput must be non-decreasing")

    @property
    def n_cycles(self) -> int:
        return int(self.cycle_indices.size)

    @property
    def cutoff_current_a(self) -> float:
        return CUTOFF_C_RATE * self.nominal_capacity_ah

    def row(self, cycle_index: int) -> int:
        """The row of cycle ``cycle_index``; UnknownCycleError if it is not recorded."""
        indices = self.cycle_indices
        k = int(indices.searchsorted(cycle_index))
        if k == indices.size or indices[k] != cycle_index:
            raise UnknownCycleError(f"cell {self.cell_id} has no cycle {cycle_index}")
        return k

    def has_cycle(self, cycle_index: int) -> bool:
        indices = self.cycle_indices
        k = int(indices.searchsorted(cycle_index))
        return bool(k < indices.size and indices[k] == cycle_index)

    def rest(self, cycle_index: int, truncate: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """A cycle's rest (times, voltages): rows of the cell's blocks, cut to
        their first ``truncate`` samples when given."""
        k = self.row(cycle_index)
        times = self._times(k)
        if truncate is None:
            return times, self.voltages_v[k]
        if truncate < 2:
            raise ValidationError("truncation must keep at least 2 samples")
        if truncate > times.size:
            raise ValidationError(
                f"truncation to {truncate} samples exceeds the {times.size} recorded")
        return times[:truncate], self.voltages_v[k, :truncate]

    def relaxation(self, cycle_index: int, truncate: int | None = None) -> RelaxationCurve:
        """A cycle's rest as a checked curve, cut to its first ``truncate`` samples when given."""
        return RelaxationCurve(*self.rest(cycle_index, truncate), self.sampling_interval_s,
                               self.cutoff_current_a)

    def discharge(self, cycle_index: int) -> tuple[np.ndarray, np.ndarray, float] | None:
        """A cycle's discharge (charges, voltages, duration), or None if it has none."""
        return self._discharge(self.row(cycle_index))

    def _times(self, k: int) -> np.ndarray:
        return self.times_s if self.times_s.ndim == 1 else self.times_s[k]

    def _discharge(self, k: int) -> tuple[np.ndarray, np.ndarray, float] | None:
        dis = self.discharges
        if dis.bounds is None:
            charges = np.linspace(0.0, float(self.capacities_ah[k]), dis.voltages_v.size)
            charges.flags.writeable = False
            return charges, dis.voltages_v, float(dis.durations_s[k])
        lo, hi = dis.bounds[k:k + 2].tolist()
        if lo == hi:
            return None
        return dis.charges_ah[lo:hi], dis.voltages_v[lo:hi], float(dis.durations_s[k])

    def record(self, cycle_index: int) -> CycleRecord:
        """A checked view of one cycle."""
        k = self.row(cycle_index)
        discharge = self._discharge(k)
        return CycleRecord(int(self.cycle_indices[k]), self.relaxation(cycle_index),
                           float(self.capacities_ah[k]), float(self.cumulative_ah[k]),
                           float(self.calendar_days[k]),
                           None if discharge is None else DischargeCurve(*discharge))

    def soh(self, cycle_index: int) -> float:
        return float(self.capacities_ah[self.row(cycle_index)]) / self.nominal_capacity_ah


@dataclass(frozen=True)
class DatasetSplit:
    train: frozenset[str]
    test: frozenset[str]
    seed: int

    def __post_init__(self):
        overlap = self.train & self.test
        if overlap:
            raise ValidationError(f"train and test overlap: {sorted(overlap)}")


@dataclass(frozen=True)
class CellMeta:
    """The one cell record: what a cell CSV's header line and a manifest say
    about a cell besides its cycles."""

    cell_id: str
    chemistry: Chemistry
    condition: str
    nominal_capacity_ah: float
    sampling_interval_s: float
    rest_duration_s: float

    def __post_init__(self):
        # The header splits its tokens on whitespace and each at its first '=';
        # a manifest spells the id inside its keys.
        if not self.cell_id or re.search(r"[\s=]", self.cell_id):
            raise ValidationError(f"cell id {self.cell_id!r} is empty or holds whitespace or "
                                  "'=', so it would not read back from a cell header or manifest")

    @staticmethod
    def of(history: CellHistory) -> CellMeta:
        """The record of a history; rest length from its first relaxation."""
        return CellMeta(history.cell_id, history.chemistry, history.condition,
                        history.nominal_capacity_ah, history.sampling_interval_s,
                        float(history._times(0)[-1]))

    def fields(self) -> list[tuple[str, str]]:
        """The spelled ``(key, value)`` pairs, in header and manifest order."""
        return [
            ("cell_id", self.cell_id),
            ("chemistry", self.chemistry.value),
            ("condition", self.condition),
            ("nominal_capacity_ah", spell(self.nominal_capacity_ah)),
            ("sampling_interval_s", spell(self.sampling_interval_s)),
            ("rest_duration_s", spell(self.rest_duration_s)),
        ]

    @staticmethod
    def parse(values: dict[str, str], where) -> CellMeta:
        """Read the record back from ``fields``' keys; other keys are ignored.

        A missing key raises SchemaError; a cell id that would not read back,
        an unknown chemistry, or a number that is not finite and positive,
        raises ValidationError.
        """
        missing = [f.name for f in dataclasses.fields(CellMeta) if f.name not in values]
        if missing:
            raise SchemaError(f"{where}: missing cell metadata {missing}")

        def positive(key: str) -> float:
            try:
                number = float(values[key])
            except ValueError:
                number = math.nan
            if not (math.isfinite(number) and number > 0):
                raise ValidationError(f"{key} = {values[key]!r} is not a finite positive number")
            return number

        try:
            return CellMeta(values["cell_id"], Chemistry.parse(values["chemistry"]),
                            values["condition"], positive("nominal_capacity_ah"),
                            positive("sampling_interval_s"), positive("rest_duration_s"))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# End of life
# ---------------------------------------------------------------------------

def moving_median(values: np.ndarray) -> np.ndarray:
    """Centered ``EOL_MEDIAN_WINDOW``-point moving median; shrinks the window near the edges.

    Sequences shorter than one full window pass through unchanged: an edge
    median over 2-3 points would mask rather than clean a real crossing.
    """
    values = np.asarray(values, dtype=float)
    if values.size < EOL_MEDIAN_WINDOW:
        return values.copy()
    half = EOL_MEDIAN_WINDOW // 2
    out = np.empty_like(values)
    out[half:values.size - half] = np.median(sliding_window_view(values, EOL_MEDIAN_WINDOW), axis=1)
    for i in [*range(half), *range(values.size - half, values.size)]:
        out[i] = np.median(values[max(0, i - half):i + half + 1])
    return out


def compute_eol(
    capacities_ah,
    nominal_capacity_ah: float,
    cycle_indices=None,
) -> int:
    """First cycle at which smoothed capacity falls to ``SOH_EOL`` of nominal.

    A centered 5-cycle moving median is applied before threshold detection
    so isolated capacity-measurement spikes cannot trigger retirement.
    """
    caps = np.asarray(capacities_ah, dtype=float)
    if caps.size == 0:
        raise ValidationError("capacity sequence is empty")
    if cycle_indices is None:
        cycle_indices = np.arange(1, caps.size + 1)
    smoothed = moving_median(caps)
    crossed = np.nonzero(smoothed / nominal_capacity_ah <= SOH_EOL)[0]
    if crossed.size == 0:
        raise NeverReachedError(
            f"capacity never fell to {SOH_EOL:.0%} of nominal within {caps.size} cycles"
        )
    return int(np.asarray(cycle_indices)[crossed[0]])


# ---------------------------------------------------------------------------
# History assembly (shared by simulation and ingestion)
# ---------------------------------------------------------------------------

def build_history(meta: CellMeta, cycle_indices: np.ndarray, capacities_ah: np.ndarray,
                  times_s: np.ndarray, voltages_v: np.ndarray,
                  discharges: Discharges) -> CellHistory:
    """Assemble a CellHistory, deriving throughput, calendar time, and EOL.

    Row k of ``cycle_indices``, ``capacities_ah``, ``voltages_v`` and
    ``discharges`` is one cycle, and ``times_s`` is the rest's time row (or
    one per cycle); see ``CellHistory``. A cycle lasts its CC charge,
    post-charge rest, CC discharge and post-discharge rest at the
    condition's C-rates; the CV charge tail is not modeled. The per-cycle
    terms are summed in cycle order (``np.cumsum``). The cycle indices and
    capacities are checked once, as a block (``cycle_fault``); the rest and
    discharge blocks come checked. Every array is made read-only.
    """
    _, chg_rate, dis_rate = parse_condition(meta.condition)
    charge_a = chg_rate * meta.nominal_capacity_ah
    discharge_a = dis_rate * meta.nominal_capacity_ah
    cycle_indices = np.asarray(cycle_indices)
    capacities_ah = np.asarray(capacities_ah, dtype=float)
    _refuse(cycle_fault(cycle_indices, capacities_ah))
    with np.errstate(over="ignore"):  # as Python floats overflow: to inf, silently
        cumulative = np.cumsum(2.0 * capacities_ah)
        cycle_s = (capacities_ah / charge_a * 3600.0 + capacities_ah / discharge_a * 3600.0
                   + 2.0 * meta.rest_duration_s)
        calendar_days = np.concatenate(([0.0], np.cumsum(cycle_s[:-1]))) / SECONDS_PER_DAY
    try:
        eol = compute_eol(capacities_ah, meta.nominal_capacity_ah, cycle_indices=cycle_indices)
    except NeverReachedError:
        eol = None  # unlabeled: kept for feature extraction only
    arrays = [cycle_indices, capacities_ah, cumulative, calendar_days, times_s, voltages_v,
              *(x for x in vars(discharges).values() if x is not None)]
    for array in arrays:
        array.flags.writeable = False
    return CellHistory(meta.cell_id, meta.chemistry, meta.condition, meta.nominal_capacity_ah,
                       meta.sampling_interval_s, cycle_indices, capacities_ah, cumulative,
                       calendar_days, times_s, voltages_v, discharges, eol)


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------

# The columns ingest parses (``current_a`` is not read). A phase longer than
# every known one is cut to one character more than the longest, which
# still names no phase.
_COLUMN_DTYPES = {"cycle": np.int64, "phase": f"U{max(map(len, PHASES)) + 1}",
                  "t_s": np.float64, "voltage_v": np.float64, "capacity_ah": np.float64}


def _phase_rows(cycle, t_s, in_phase: np.ndarray):
    """Row indices of one phase (the rows ``in_phase`` marks) sorted by (cycle,
    time), file order among ties; its cycles, and where each cycle's run of
    sorted rows starts and ends."""
    rows = np.flatnonzero(in_phase)
    rows = rows[np.lexsort((t_s[rows], cycle[rows]))]
    cycles, starts = np.unique(cycle[rows], return_index=True)
    return rows, cycles, starts, np.append(starts[1:], rows.size)


def ingest_cell(path, meta: CellMeta | None = None) -> CellHistory:
    """Read one cell CSV into a validated CellHistory.

    ``meta`` is the cell's record from a manifest; without one it is parsed
    from the file's header line. The columns are parsed once, in bulk
    (``textio.read_columns``); rows are grouped by one stable sort on
    (cycle, time) per phase and checked in bulk. The rests on the grid are
    the rows of the cell's (cycles x samples) block and the discharges its
    sorted discharge columns; each block passes its record type's check
    once, and the first row it refuses is named. A rest's last sample must
    fall within the last interval of the declared rest, so a rest spans
    exactly the grid points of ``rest_duration_s``. A rest whose samples are
    all on the grid is kept verbatim, so canonical files round trip
    exactly; any other rest is linearly interpolated onto the grid. The
    cell keeps one time row when every rest's times are the grid's, and one
    row per cycle otherwise. The capacity is the first rest row's, in file
    order.

    Raises SchemaError when a column or a metadata key is missing or a
    column duplicated, ValidationError on structural violations or a number
    that is not finite (naming the file line), EmptyFileError on a file with
    no data rows.
    """
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"no such file: {path}")
    table = read_columns(path, _COLUMN_DTYPES)
    cycle, phase, t_s, volts, capacity = (table.values[name] for name in _COLUMN_DTYPES)
    if cycle.size == 0:
        raise EmptyFileError(f"{path} has no data rows")
    if meta is None:
        meta = CellMeta.parse(dict(token.split("=", 1) for comment in table.comments
                                   for token in comment.split() if "=" in token), path)
    interval = meta.sampling_interval_s
    cutoff_current = CUTOFF_C_RATE * meta.nominal_capacity_ah

    def fail(row, problem: str):
        raise ValidationError(f"{table.where(int(row))}: {problem}")

    # Each phase is compared once; only rows in neither consumed phase are
    # looked up among the others.
    in_rest, in_discharge = phase == "rest_post_charge", phase == "discharge"
    other = np.flatnonzero(~(in_rest | in_discharge))
    unknown = other[~np.isin(phase[other], PHASES)]
    if unknown.size:
        fail(unknown[0], f"unknown phase {str(phase[unknown[0]])!r}")
    rest, cycles, starts, ends = _phase_rows(cycle, t_s, in_rest)
    all_cycles, first_rows = np.unique(cycle, return_index=True)
    no_rest = np.flatnonzero(~np.isin(all_cycles, cycles))
    if no_rest.size:
        fail(first_rows[no_rest[0]], f"cycle {all_cycles[no_rest[0]]} has no rest_post_charge rows")

    rest_c, rest_t, rest_v = cycle[rest], t_s[rest], volts[rest]
    if not np.isfinite(rest_t).all():
        i = np.argmin(np.isfinite(rest_t))
        fail(rest[i], f"cycle {rest_c[i]} rest time is not finite")
    in_range = (rest_v >= VOLTAGE_MIN_V) & (rest_v <= VOLTAGE_MAX_V)  # false for NaN
    if not in_range.all():
        i = np.argmin(in_range)
        fail(rest[i], f"cycle {rest_c[i]} rest voltage {float(rest_v[i])!r} is not a number in "
             f"[{VOLTAGE_MIN_V}, {VOLTAGE_MAX_V}] V")
    later = np.flatnonzero((rest_t[1:] <= rest_t[:-1]) & (rest_c[1:] == rest_c[:-1])) + 1
    if later.size:
        fail(rest[later[0]], f"cycle {rest_c[later[0]]} rest times not strictly increasing")
    # Samples on the grid, grid points the last sample spans, and the points
    # the declared rest spans: a rest is resampled onto exactly those.
    position = np.arange(rest.size) - np.repeat(starts, ends - starts)
    on_grid = np.logical_and.reduceat(np.abs(rest_t - position * interval) <= 1e-9, starts)
    spans = np.floor(rest_t[ends - 1] / interval + 1e-9) + 1
    on_grid &= ends - starts == spans
    expected = int(np.floor(meta.rest_duration_s / interval + 1e-9)) + 1
    off = np.flatnonzero(spans != expected)
    if off.size:
        k = off[0]
        fail(rest[starts[k]], f"cycle {cycles[k]} rest spans {int(spans[k])} grid points; the "
             f"declared {meta.rest_duration_s:g} s rest at {interval:g} s spacing spans "
             f"{expected}")
    first_rest = np.minimum.reduceat(rest, starts)

    # Each cycle's rest on the grid is a row of one block, checked once.
    grid = np.arange(expected) * interval
    times = np.empty((cycles.size, expected))
    voltages = np.empty_like(times)
    take = starts[on_grid, None] + np.arange(expected)
    times[on_grid], voltages[on_grid] = rest_t[take], rest_v[take]
    for k in np.flatnonzero(~on_grid).tolist():
        times[k] = grid
        voltages[k] = np.interp(grid, rest_t[starts[k]:ends[k]], rest_v[starts[k]:ends[k]])
    if fault := relaxation_fault(times, voltages, interval, cutoff_current):
        k = fault.record
        fail(rest[starts[k] + fault.item] if on_grid[k] else rest[starts[k]],
             f"cycle {cycles[k]}: {fault.problem}")

    dis, dis_cycles, dis_starts, _ = _phase_rows(cycle, t_s, in_discharge)
    dis_t, dis_v, dis_q = t_s[dis], volts[dis], capacity[dis]
    finite = np.isfinite(dis_t) & np.isfinite(dis_v) & np.isfinite(dis_q)
    if not finite.all():
        i = np.argmin(finite)
        fail(dis[i], f"cycle {cycle[dis[i]]} discharge row holds a number that is not finite")
    bounds = np.append(dis_starts, dis.size)
    durations = dis_t[bounds[1:] - 1]
    if fault := discharge_fault(dis_q, dis_v, bounds, durations):
        fail(dis[bounds[fault.record] + fault.item],
             f"cycle {dis_cycles[fault.record]}: {fault.problem}")

    # Where each discharge's cycle is among the cycles (each has a rest).
    slot = np.searchsorted(cycles, dis_cycles)
    caps = capacity[first_rest]
    # A rest row whose capacity is not positive defers to the discharged charge.
    deferred = caps[slot] <= 0.0
    caps[slot[deferred]] = dis_q[bounds[1:] - 1][deferred]
    refused = ~((caps > 0.0) & (caps < math.inf))
    if refused.any():
        k = int(np.argmax(refused))
        fail(first_rest[k], f"cycle {cycles[k]} carries no finite positive capacity")
    if fault := cycle_fault(cycles, caps):
        fail(first_rest[fault.record], f"cycle {cycles[fault.record]}: {fault.problem}")

    # Each cycle's discharge points, laid end to end in cycle order.
    points = np.zeros(cycles.size, dtype=np.int64)
    points[slot] = np.diff(bounds)
    per_cycle = np.zeros(cycles.size)
    per_cycle[slot] = durations
    discharges = Discharges(dis_v, per_cycle, dis_q, np.concatenate(([0], np.cumsum(points))))
    shared = (times == grid).all()
    return build_history(meta, cycles, caps, grid if shared else times, voltages, discharges)


def write_cell(history: CellHistory, path, header_comment: str | None = None) -> None:
    """Serialize a CellHistory in the canonical CSV layout.

    Floats are spelled by ``textio`` so a write/ingest round trip
    reproduces every field bit for bit. An array that every cycle shares (a
    simulated cell's rest-time row and discharge template) is spelled once.
    The first-line comment opens with ``header_comment`` (callers pass
    ``textio.header_comment(fp, kind="cell")``, which already names the
    kind; without one it opens ``kind=cell``) and goes on with the cell's
    ``CellMeta`` fields as ``key=value`` tokens.
    """
    meta = " ".join(f"{key}={value}" for key, value in CellMeta.of(history).fields())
    cutoff = spell(history.cutoff_current_a)
    _, _, dis_rate = parse_condition(history.condition)
    discharge_current = itertools.repeat(spell(-dis_rate * history.nominal_capacity_ah))
    rest, discharge = itertools.repeat("rest_post_charge"), itertools.repeat("discharge")

    def rest_columns(times):
        return spell_floats(times), [cutoff if t == 0.0 else "0.0" for t in times.tolist()]

    rest_times = _cache_of_one(rest_columns)
    discharge_voltages = _cache_of_one(spell_floats)
    ramps: dict[int, np.ndarray] = {}

    def phases():
        # Whole columns are spelled at once: per-value formatting dominates the write.
        rows = zip(history.cycle_indices.tolist(), history.voltages_v,
                   history.capacities_ah.tolist())
        for k, (index, voltages, capacity) in enumerate(rows):
            cycle = itertools.repeat(spell(index))
            times, currents = rest_times(history._times(k))
            yield zip(cycle, rest, times, spell_floats(voltages), currents,
                      itertools.repeat(spell(capacity)))
            if (dis := history._discharge(k)) is not None:
                charges, volts, duration = dis
                n = volts.size
                if n not in ramps:
                    ramps[n] = np.arange(n) / (n - 1)
                yield zip(cycle, discharge, spell_floats(duration * ramps[n]),
                          discharge_voltages(volts), discharge_current, spell_floats(charges))

    write_table(path, [f"{header_comment or 'kind=cell'} {meta}"], CANONICAL_COLUMNS,
                itertools.chain.from_iterable(phases()))


def _cache_of_one(compute):
    """``compute`` with a cache of one: passed the same object as last time
    (by identity, not value), it returns the last result."""
    last = [None, None]

    def cached(array):
        if array is not last[0]:
            last[:] = array, compute(array)
        return last[1]

    return cached


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry(CellMeta):
    """One cell of a manifest: its record and its CSV, relative to the manifest."""

    path: str


def write_manifest(entries: list[ManifestEntry], path, header_comment: str | None = None) -> None:
    """Write the manifest; ``header_comment`` is the whole first-line comment.

    Each cell is a block of ``cell.<id>.<key> = value`` lines: ``path``,
    then its ``CellMeta`` fields after the id. Callers pass
    ``textio.header_comment(fp, kind="manifest")``, which already names the
    kind; without one the line is ``# kind=manifest``.
    """
    write_keys(path, header_comment or "kind=manifest", (
        (f"cell.{e.cell_id}.{key}", value)
        for e in entries for key, value in [("path", e.path), *e.fields()[1:]]
    ))


def read_manifest(path) -> list[ManifestEntry]:
    cells: dict[str, dict[str, str]] = {}
    for key, value in read_keys(path, SchemaError).items():
        if not key.startswith("cell."):
            continue
        cell_id, _, attr = key.removeprefix("cell.").rpartition(".")
        if not cell_id or not attr:
            raise SchemaError(f"{path}: malformed manifest key {key!r}")
        cells.setdefault(cell_id, {})[attr] = value

    entries = []
    for cell_id, values in cells.items():
        where = f"{path}: cell {cell_id}"
        if "path" not in values:
            raise SchemaError(f"{where} has no manifest path")
        meta = CellMeta.parse({**values, "cell_id": cell_id}, where)
        entries.append(ManifestEntry(**vars(meta), path=values["path"]))
    return entries


def ingest_manifest(path) -> list[CellHistory]:
    """Load every cell listed in a manifest (paths relative to the manifest)."""
    path = Path(path)
    return [ingest_cell(path.parent / entry.path, entry) for entry in read_manifest(path)]


# ---------------------------------------------------------------------------
# Train/test splitting
# ---------------------------------------------------------------------------

def split_dataset(
    cells: list[CellHistory],
    spec: dict[str, tuple[int, int]],
    seed: int,
) -> DatasetSplit:
    """Seeded per-condition train/test split with exact requested counts.

    ``spec`` maps condition code to (n_train, n_test); conditions without
    an entry contribute no cells to either side.
    """
    by_condition: dict[str, list[str]] = {}
    for cell in cells:
        by_condition.setdefault(cell.condition, []).append(cell.cell_id)

    train: set[str] = set()
    test: set[str] = set()
    for condition in sorted(spec):
        n_train, n_test = spec[condition]
        available = sorted(by_condition.get(condition, []))
        if n_train + n_test > len(available):
            raise InsufficientCellsError(
                f"condition {condition}: requested {n_train}+{n_test} cells, "
                f"only {len(available)} available"
            )
        rng = random.Random(f"{seed}:{condition}")
        rng.shuffle(available)
        train.update(available[:n_train])
        test.update(available[n_train:n_train + n_test])
    return DatasetSplit(train=frozenset(train), test=frozenset(test), seed=seed)

