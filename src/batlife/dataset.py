"""Canonical data model for battery cycling data.

One CSV per cell, long format, columns::

    cycle, phase, t_s, voltage_v, current_a, capacity_ah

with ``phase`` one of ``charge``, ``rest_post_charge``, ``discharge``,
``rest_post_discharge``. Only the post-charge rest (the relaxation
transient used for aging features) and the CC discharge are consumed;
other phases are accepted and ignored. Rest rows carry the cycle's
measured capacity in ``capacity_ah`` so relaxation-only logs still have a
capacity trace; discharge rows carry the running discharged charge.

Ingest is columnar: ``textio.read_columns`` parses the five columns it
reads in one C pass (``np.loadtxt``), the rows of each phase are grouped
by one stable sort on (cycle, time), every check runs over whole columns,
and each cycle's curves are rows or slices of those columns. Rows may come
in any order; a rejected row is reported with its file line. A rest voltage,
discharge value or capacity that is not a finite number is rejected, so
no NaN reaches a circuit fit.

Each record type's checks are one function over a block of records
(``relaxation_fault``, ``discharge_fault``, ``cycle_fault``; see
``Fault``), and its constructor runs that function on the one record. Code
that builds a whole cell runs each check once per cell, not once per cycle:
``ingest_cell`` on the cell's (cycles x samples) rest block and its sorted
discharge columns, ``simgen.simulate_cell`` on its voltage block, and
``build_history`` on the cycle indices and capacities. The records are then
made without running the checks again (``RelaxationCurve.trusted``,
``DischargeCurve.trusted``).

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
from dataclasses import dataclass, field
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


def _unchecked(cls, **fields):
    """A ``cls`` of ``fields`` that a block check has passed, built without
    running the checks again."""
    record = object.__new__(cls)
    for name, value in fields.items():
        # Not vars(record).update: materializing the instance dict costs memory.
        object.__setattr__(record, name, value)
    return record


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

    @classmethod
    def trusted(cls, times_s: np.ndarray, voltages_v: np.ndarray, sampling_interval_s: float,
                cutoff_current_a: float) -> RelaxationCurve:
        """The curve of float arrays that passed ``relaxation_fault`` within
        a block; the checks are not run again."""
        return _unchecked(cls, times_s=times_s, voltages_v=voltages_v,
                          sampling_interval_s=sampling_interval_s,
                          cutoff_current_a=cutoff_current_a)

    @property
    def n_samples(self) -> int:
        return int(self.times_s.size)

    def truncated(self, n_samples: int) -> "RelaxationCurve":
        """First ``n_samples`` samples (shorter observation of the same rest)."""
        if n_samples < 2:
            raise ValidationError("truncation must keep at least 2 samples")
        if n_samples > self.n_samples:
            raise ValidationError(
                f"truncation to {n_samples} samples exceeds the {self.n_samples} recorded"
            )
        return RelaxationCurve(
            self.times_s[:n_samples],
            self.voltages_v[:n_samples],
            self.sampling_interval_s,
            self.cutoff_current_a,
        )


def discharge_fault(charges_ah: np.ndarray | None, voltages_v: np.ndarray, bounds: np.ndarray,
                    durations_s: np.ndarray) -> Fault | None:
    """``DischargeCurve``'s checks over a block of curves laid end to end
    (see ``Fault``).

    Curve k is items ``bounds[k]:bounds[k + 1]`` of ``charges_ah`` and
    ``voltages_v`` and lasts ``durations_s[k]``. With ``charges_ah`` None
    the curves are ramps, whose charges are checked through their capacity.
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


@dataclass(frozen=True, init=False, slots=True)
class DischargeCurve:
    """Capacity/voltage trace of the CC discharge.

    ``charges_ah`` is the running discharged charge (non-decreasing),
    ``voltages_v`` the terminal voltage (non-increasing), ``duration_s``
    the total CC discharge time and ``capacity_ah`` the last charge.

    ``DischargeCurve(charges, voltages, duration)`` stores its charges, as
    ingest does. A ramp curve (``ramp``, as simulation builds) stores only
    its capacity: its charges rise linearly from 0 to the capacity over the
    knots of its voltages and are computed on each read, as a read-only
    ``np.linspace(0.0, capacity_ah, n)``. A finite positive capacity gives a
    finite, non-decreasing ramp, so a ramp's charge check is a capacity check.
    """

    voltages_v: np.ndarray
    duration_s: float
    capacity_ah: float
    _charges: np.ndarray | None = field(repr=False)

    def __init__(self, charges_ah, voltages_v, duration_s: float):
        q = np.asarray(charges_ah, dtype=float)
        v = np.asarray(voltages_v, dtype=float)
        if q.ndim != 1 or v.ndim != 1 or q.size != v.size:
            raise ValidationError("discharge charges and voltages must be 1-D and equal length")
        _refuse(discharge_fault(q, v, np.array([0, q.size]), np.array([duration_s])))
        self._fill(v, duration_s, float(q[-1]), q)

    @classmethod
    def trusted(cls, charges_ah: np.ndarray, voltages_v: np.ndarray,
                duration_s: float) -> DischargeCurve:
        """The curve of float arrays that passed ``discharge_fault`` within a
        block; the checks are not run again."""
        curve = cls.__new__(cls)
        curve._fill(voltages_v, duration_s, float(charges_ah[-1]), charges_ah)
        return curve

    @classmethod
    def ramp(cls, capacity_ah: float, voltages_v, duration_s: float) -> DischargeCurve:
        """The curve whose charges rise linearly from 0 to ``capacity_ah``
        over the knots of ``voltages_v``; the charges are not stored."""
        v = np.asarray(voltages_v, dtype=float)
        if v.ndim != 1:
            raise ValidationError("discharge charges and voltages must be 1-D and equal length")
        if v.size < 2:
            raise ValidationError("discharge curve needs at least 2 points")
        _check_ramp_capacity(capacity_ah)
        _refuse(discharge_fault(None, v, np.array([0, v.size]), np.array([duration_s])))
        curve = cls.__new__(cls)
        curve._fill(v, duration_s, float(capacity_ah), None)
        return curve

    def ramp_to(self, capacity_ah: float, duration_s: float) -> DischargeCurve:
        """``ramp`` on this curve's voltages, which are shared and not checked again."""
        _check_ramp_capacity(capacity_ah)
        if not 0 < duration_s < math.inf:
            raise ValidationError("discharge duration must be finite and positive")
        curve = type(self).__new__(type(self))
        curve._fill(self.voltages_v, duration_s, float(capacity_ah), None)
        return curve

    def _fill(self, v: np.ndarray, duration_s: float, capacity_ah: float, charges) -> None:
        object.__setattr__(self, "voltages_v", v)
        object.__setattr__(self, "duration_s", duration_s)
        object.__setattr__(self, "capacity_ah", capacity_ah)
        object.__setattr__(self, "_charges", charges)

    @property
    def charges_ah(self) -> np.ndarray:
        if self._charges is not None:
            return self._charges
        charges = np.linspace(0.0, self.capacity_ah, self.voltages_v.size)
        charges.flags.writeable = False
        return charges


def _check_ramp_capacity(capacity_ah: float) -> None:
    if not 0 < capacity_ah < math.inf:
        raise ValidationError("discharge capacity must be finite and positive")


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
class CellHistory:
    """Complete cycling history of one cell, immutable after construction."""

    cell_id: str
    chemistry: Chemistry
    condition: str
    nominal_capacity_ah: float
    cycles: tuple[CycleRecord, ...]
    eol_cycle: int | None
    # cycle_index -> record, built once so that lookups are O(1).
    _by_index: dict[int, CycleRecord] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nominal_capacity_ah <= 0:
            raise ValidationError("nominal capacity must be positive")
        parse_condition(self.condition)
        indices = [c.cycle_index for c in self.cycles]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValidationError("cycle indices must be strictly increasing")
        cum = [c.cumulative_ah for c in self.cycles]
        if any(b < a for a, b in zip(cum, cum[1:])):
            raise ValidationError("cumulative throughput must be non-decreasing")
        object.__setattr__(self, "_by_index", dict(zip(indices, self.cycles)))

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    def record(self, cycle_index: int) -> CycleRecord:
        try:
            return self._by_index[cycle_index]
        except KeyError:
            raise UnknownCycleError(f"cell {self.cell_id} has no cycle {cycle_index}") from None

    def has_cycle(self, cycle_index: int) -> bool:
        return cycle_index in self._by_index

    def soh(self, cycle_index: int) -> float:
        return self.record(cycle_index).capacity_ah / self.nominal_capacity_ah

    def capacities(self) -> np.ndarray:
        return np.array([rec.capacity_ah for rec in self.cycles])


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
        """The record of a history; interval and rest length from its first relaxation."""
        first = history.cycles[0].relaxation
        return CellMeta(history.cell_id, history.chemistry, history.condition,
                        history.nominal_capacity_ah, first.sampling_interval_s,
                        float(first.times_s[-1]))

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

def build_history(
    meta: CellMeta,
    cycle_data: list[tuple[int, RelaxationCurve, DischargeCurve | None, float]],
) -> CellHistory:
    """Assemble a CellHistory, deriving throughput, calendar time, and EOL.

    ``cycle_data`` rows are (cycle_index, relaxation, discharge, capacity_ah).
    A cycle lasts its CC charge, post-charge rest, CC discharge and
    post-discharge rest at the condition's C-rates; the CV charge tail is
    not modeled. The cycle indices and capacities are checked once, as a
    block (``cycle_fault``); the curves come checked.
    """
    _, chg_rate, dis_rate = parse_condition(meta.condition)
    charge_a = chg_rate * meta.nominal_capacity_ah
    discharge_a = dis_rate * meta.nominal_capacity_ah
    indices = [row[0] for row in cycle_data]
    capacities = [row[3] for row in cycle_data]
    _refuse(cycle_fault(np.array(indices), np.array(capacities)))
    records: list[CycleRecord] = []
    cumulative = 0.0
    calendar_s = 0.0
    for cycle_index, relaxation, discharge, capacity in cycle_data:
        cumulative += 2.0 * capacity
        records.append(_unchecked(
            CycleRecord, cycle_index=cycle_index, relaxation=relaxation, capacity_ah=capacity,
            cumulative_ah=cumulative, calendar_days=calendar_s / SECONDS_PER_DAY,
            discharge=discharge,
        ))
        calendar_s += (capacity / charge_a * 3600.0 + capacity / discharge_a * 3600.0
                       + 2.0 * meta.rest_duration_s)
    try:
        eol = compute_eol(capacities, meta.nominal_capacity_ah, cycle_indices=indices)
    except NeverReachedError:
        eol = None  # unlabeled: kept for feature extraction only
    return CellHistory(
        cell_id=meta.cell_id,
        chemistry=meta.chemistry,
        condition=meta.condition,
        nominal_capacity_ah=meta.nominal_capacity_ah,
        cycles=tuple(records),
        eol_cycle=eol,
    )


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------

# The columns ingest parses (``current_a`` is not read). A phase longer than
# every known one is cut to one character more than the longest, which
# still names no phase.
_COLUMN_DTYPES = {"cycle": np.int64, "phase": f"U{max(map(len, PHASES)) + 1}",
                  "t_s": np.float64, "voltage_v": np.float64, "capacity_ah": np.float64}


def _phase_rows(cycle, phase, t_s, name: str):
    """Row indices of one phase sorted by (cycle, time), file order among ties;
    its cycles, and where each cycle's run of sorted rows starts and ends."""
    rows = np.flatnonzero(phase == name)
    rows = rows[np.lexsort((t_s[rows], cycle[rows]))]
    cycles, starts = np.unique(cycle[rows], return_index=True)
    return rows, cycles, starts, np.append(starts[1:], rows.size)


def ingest_cell(path, meta: CellMeta | None = None) -> CellHistory:
    """Read one cell CSV into a validated CellHistory.

    ``meta`` is the cell's record from a manifest; without one it is parsed
    from the file's header line. The columns are parsed once, in bulk
    (``textio.read_columns``); rows are grouped by one stable sort on
    (cycle, time) per phase and checked in bulk. Each cycle's rest is a row
    of one (cycles x samples) block and its discharge a slice of the sorted
    discharge columns; each block passes its record type's check once, and
    the first row it refuses is named. A rest's last sample must fall within the
    last interval of the declared rest, so a rest spans exactly the grid
    points of ``rest_duration_s``. A rest whose samples are all on the grid
    is kept verbatim, so canonical files round trip exactly; any other rest
    is linearly interpolated onto the grid. The capacity is the first rest
    row's, in file order.

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

    unknown = np.flatnonzero(~np.isin(phase, PHASES))
    if unknown.size:
        fail(unknown[0], f"unknown phase {phase[unknown[0]]!r}")
    rest, cycles, starts, ends = _phase_rows(cycle, phase, t_s, "rest_post_charge")
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

    dis, dis_cycles, dis_starts, _ = _phase_rows(cycle, phase, t_s, "discharge")
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

    discharges = [None] * cycles.size
    for k, lo, hi, duration in zip(slot.tolist(), bounds[:-1].tolist(), bounds[1:].tolist(),
                                   durations.tolist()):
        discharges[k] = DischargeCurve.trusted(dis_q[lo:hi], dis_v[lo:hi], duration)
    cycle_data = [
        (index, RelaxationCurve.trusted(t, v, interval, cutoff_current), discharge, cap)
        for index, t, v, discharge, cap in zip(cycles.tolist(), times, voltages, discharges,
                                               caps.tolist())
    ]
    return build_history(meta, cycle_data)


def write_cell(history: CellHistory, path, header_comment: str | None = None) -> None:
    """Serialize a CellHistory in the canonical CSV layout.

    Floats are spelled by ``textio`` so a write/ingest round trip
    reproduces every field bit for bit. An array that a cycle shares with
    the cycle before it (a simulated cell's rest-time grid and discharge
    template) is spelled once. The first-line comment opens with
    ``header_comment`` (callers pass ``textio.header_comment(fp,
    kind="cell")``, which already names the kind; without one it opens
    ``kind=cell``) and goes on with the cell's ``CellMeta`` fields as
    ``key=value`` tokens.
    """
    meta = " ".join(f"{key}={value}" for key, value in CellMeta.of(history).fields())
    cutoff = spell(history.cycles[0].relaxation.cutoff_current_a)
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
        for rec in history.cycles:
            rel = rec.relaxation
            cycle = itertools.repeat(spell(rec.cycle_index))
            times, currents = rest_times(rel.times_s)
            yield zip(cycle, rest, times, spell_floats(rel.voltages_v), currents,
                      itertools.repeat(spell(rec.capacity_ah)))
            if rec.discharge is not None:
                dis = rec.discharge
                n = dis.voltages_v.size
                if n not in ramps:
                    ramps[n] = np.arange(n) / (n - 1)
                yield zip(cycle, discharge, spell_floats(dis.duration_s * ramps[n]),
                          discharge_voltages(dis.voltages_v), discharge_current,
                          spell_floats(dis.charges_ah))

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

