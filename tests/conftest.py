import csv
import io
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from batlife import ecm, simgen
from batlife.dataset import (
    CANONICAL_COLUMNS, CellMeta, DischargeCurve, RelaxationCurve, build_history, parse_condition,
)
from batlife.ecm import EcmParams, predict_relaxation
from batlife.errors import ValidationError
from batlife.textio import spell, spell_floats

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


def initial_guesses(curve: RelaxationCurve) -> list[np.ndarray]:
    """Oracle: the four blind starts that ``ecm.fit`` ran Gauss-Newton from
    before the projected start. The asymptote seeds ocv, the first-sample
    gap the total polarization amplitude (split between the branches), and
    a log-spaced grid over the observation window the time constants."""
    positive = curve.times_s > 0
    t_pos = curve.times_s[positive]
    v_pos = curve.voltages_v[positive]
    current = curve.cutoff_current_a
    ocv0 = float(v_pos[-1])
    amplitude = max(ocv0 - float(v_pos[0]), 1e-6)
    grid = np.geomspace(t_pos[0], t_pos[-1], 4)
    tau_pairs = [(grid[0], grid[2]), (grid[1], grid[3]), (grid[0], grid[3]), (grid[1], grid[2])]
    guesses = []
    for split, (tau_e, tau_c) in zip((0.3, 0.5, 0.7, 0.9), tau_pairs):
        r_e = max(split * amplitude / current, 1e-9)
        r_c = max((1.0 - split) * amplitude / current, 1e-9)
        guesses.append(np.array([ocv0, math.log(r_e), math.log(tau_e),
                                 math.log(r_c), math.log(tau_c)]))
    return guesses


def four_start_multistart(curve: RelaxationCurve, tight: bool):
    """Oracle: one pass of ``ecm.fit`` as it ran before the projected start,
    damped Gauss-Newton from each of the four blind starts, keeping the
    lowest cost. Drop-in for ``ecm._multistart``."""
    positive = curve.times_s > 0
    lower, upper = ecm._fit_bounds(curve, tight)
    best = None
    for theta0 in initial_guesses(curve):
        result = ecm._damped_gauss_newton(theta0, curve.times_s[positive],
                                          curve.voltages_v[positive], curve.cutoff_current_a,
                                          lower, upper)
        if best is None or result[1] < best[1]:
            best = result
    return best


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


def make_discharge(protocol: simgen.SimProtocol, capacity_ah: float,
                   n_knots: int = simgen.DISCHARGE_KNOTS) -> DischargeCurve:
    """Oracle: one cycle's discharge curve, the pseudo-OCV template stretched
    to ``capacity_ah`` (``simgen.simulate_cell`` builds a whole cell's at once)."""
    lower, upper = protocol.voltage_window
    voltages = simgen._pseudo_ocv_template(upper, lower, n_knots)
    charges = np.linspace(0.0, capacity_ah, voltages.size)
    _, _, dis_rate = parse_condition(protocol.condition)
    duration_s = capacity_ah / (dis_rate * protocol.nominal_capacity_ah) * 3600.0
    return DischargeCurve(charges, voltages, duration_s)


def simulate_cell_per_cycle(profile, protocol, horizon_cycles, cell_id="sim-000",
                            discharge_knots=simgen.DISCHARGE_KNOTS):
    """Oracle: ``simgen.simulate_cell`` one cycle at a time, each cycle built
    from ``drifted_params``, ``predict_relaxation``, ``capacity_at`` and
    ``make_discharge`` in turn, with fresh arrays and one noise draw per cycle."""
    if horizon_cycles < 1:
        raise ValidationError("horizon must be at least one cycle")
    simgen.drifted_params(profile, horizon_cycles)
    simgen.capacity_at(profile, horizon_cycles, protocol.nominal_capacity_ah)

    rng = np.random.default_rng(np.random.SeedSequence([profile.seed & 0xFFFFFFFF]))
    times = protocol.rest_times()
    cycle_data = []
    for m in range(1, horizon_cycles + 1):
        params = simgen.drifted_params(profile, m)
        voltages = predict_relaxation(params, protocol.cutoff_current_a, times)
        if profile.noise_sigma_v > 0:
            voltages = voltages + rng.normal(0.0, profile.noise_sigma_v, size=voltages.size)
        relaxation = RelaxationCurve(
            times, voltages, protocol.sampling_interval_s, protocol.cutoff_current_a
        )
        capacity = simgen.capacity_at(profile, m, protocol.nominal_capacity_ah)
        discharge = make_discharge(protocol, capacity, discharge_knots)
        cycle_data.append((m, relaxation, discharge, capacity))

    meta = CellMeta(cell_id, protocol.chemistry, protocol.condition,
                    protocol.nominal_capacity_ah, protocol.sampling_interval_s,
                    protocol.rest_duration_s)
    return build_history(meta, cycle_data)


def history_bits(cell) -> list:
    """Every field of a cell history, arrays as bytes: equal lists mean
    bit-identical histories."""
    out = [cell.cell_id, cell.chemistry, cell.condition, cell.nominal_capacity_ah,
           cell.eol_cycle]
    for rec in cell.cycles:
        rel, dis = rec.relaxation, rec.discharge
        out += [rec.cycle_index, rec.capacity_ah, rec.cumulative_ah, rec.calendar_days,
                rel.times_s.tobytes(), rel.voltages_v.tobytes(), rel.sampling_interval_s,
                rel.cutoff_current_a, dis is None]
        if dis is not None:
            out += [dis.charges_ah.tobytes(), dis.voltages_v.tobytes(), dis.duration_s]
    return out


def write_table_per_row(path, comments, columns, rows) -> None:
    """Oracle: ``textio.write_table`` with every row rendered by the ``csv``
    writer, ints spelled as ``str`` spells them."""
    path = Path(path)
    if any("\n" in comment for comment in comments):
        raise ValidationError(f"{path}: a line break in a comment would not read back")
    text = io.StringIO()
    text.writelines(f"# {comment}\n" for comment in comments)
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    rows = iter(rows)
    try:
        with path.open("w", newline="") as fh:
            while chunk := text.getvalue():
                if "\r" in chunk:
                    raise ValidationError(f"{path}: a carriage return would not read back")
                fh.write(chunk)
                text.seek(0)
                text.truncate()
                writer.writerows(itertools.islice(rows, 4096))
    except ValidationError:
        path.unlink()
        raise


def write_cell_per_cycle(history, path, header_comment=None) -> None:
    """Oracle: ``dataset.write_cell`` spelling every array of every cycle
    afresh and rendering rows through ``write_table_per_row``."""
    meta = " ".join(f"{key}={value}" for key, value in CellMeta.of(history).fields())
    cutoff = spell(history.cycles[0].relaxation.cutoff_current_a)
    _, _, dis_rate = parse_condition(history.condition)
    discharge_current = spell(-dis_rate * history.nominal_capacity_ah)

    def rows():
        for rec in history.cycles:
            rel = rec.relaxation
            cycle = itertools.repeat(rec.cycle_index)
            capacity = itertools.repeat(spell(rec.capacity_ah))
            currents = [cutoff if t == 0.0 else "0.0" for t in rel.times_s.tolist()]
            yield from zip(cycle, itertools.repeat("rest_post_charge"), spell_floats(rel.times_s),
                           spell_floats(rel.voltages_v), currents, capacity)
            if rec.discharge is not None:
                dis = rec.discharge
                n = dis.charges_ah.size
                times = dis.duration_s * (np.arange(n) / (n - 1))
                yield from zip(cycle, itertools.repeat("discharge"), spell_floats(times),
                               spell_floats(dis.voltages_v), itertools.repeat(discharge_current),
                               spell_floats(dis.charges_ah))

    write_table_per_row(path, [f"{header_comment or 'kind=cell'} {meta}"], CANONICAL_COLUMNS,
                        rows())
