import csv
import dataclasses
import io
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dtrtri
from scipy.spatial.distance import squareform
from scipy.special import expit

from batlife import ecm, gpc, gpr, simgen
from batlife.dataset import (
    CANONICAL_COLUMNS, CellMeta, DischargeCurve, Discharges, RelaxationCurve, build_history,
    parse_condition,
)
from batlife.ecm import EcmParams, predict_relaxation
from batlife.errors import NoConvergenceError, ValidationError
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


def _branch_residual(theta, t, v, current):
    """The t > 0 model minus the data at a log-parameterized theta, with the
    per-branch pieces the Jacobian reuses."""
    r_e, tau_e, r_c, tau_c = np.exp(theta[1:])
    scaled_e = t / tau_e
    scaled_c = t / tau_c
    term_e = current * r_e * np.exp(-scaled_e)
    term_c = current * r_c * np.exp(-scaled_c)
    return theta[0] - term_e - term_c - v, (term_e, scaled_e, term_c, scaled_c)


def damped_gauss_newton(theta0, t, v, current, lower, upper):
    """Oracle: the projected Levenberg-style damped Gauss-Newton over all five
    log-parameters (ocv, r_e, tau_e, r_c, tau_c) that ``ecm.fit`` ran before
    the variable-projection loop replaced it, candidate steps clipped into
    the box, with its stop rules. Returns (theta, cost, iterations, converged)."""
    theta = np.minimum(np.maximum(np.asarray(theta0, dtype=float), lower), upper)
    residual, terms = _branch_residual(theta, t, v, current)
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
                    step = np.linalg.solve(system, neg_grad)
                except np.linalg.LinAlgError:
                    damping *= 4.0
                    continue
                candidate = np.minimum(np.maximum(theta + step, lower), upper)
                cand_residual, cand_terms = _branch_residual(candidate, t, v, current)
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


def four_start_multistart(curve: RelaxationCurve, tight: bool):
    """Oracle: one pass of ``ecm.fit`` as it ran before variable projection,
    ``damped_gauss_newton`` from each of the four blind starts, keeping the
    lowest cost. Drop-in for ``ecm._fit_box``."""
    positive = curve.times_s > 0
    lower, upper = ecm._fit_bounds(curve, tight)
    best = None
    for theta0 in initial_guesses(curve):
        result = damped_gauss_newton(theta0, curve.times_s[positive], curve.voltages_v[positive],
                                     curve.cutoff_current_a, lower, upper)
        if best is None or result[1] < best[1]:
            best = result
    return best


def wrapped_cholesky_inverse(L):
    """Oracle: ``gpr.cholesky_inverse`` as L^-T L^-1 from LAPACK trtri."""
    L_inv, info = dtrtri(L, lower=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"trtri failed with info={info}")
    return L_inv.T @ L_inv


def wrapped_concentrated_log_marginal_likelihood(length_scales, noise_ratio, D, y_centered):
    """Oracle: ``gpr.log_marginal_likelihood`` through the ``scipy.linalg``
    wrappers (``cholesky``, ``cho_solve``), with fresh temporaries."""
    n, d = y_centered.size, D.shape[0]
    r = gpr.pair_distances(D, length_scales)
    e = np.exp(-r)
    A = squareform(e) + np.eye(n)
    A[np.diag_indices(n)] += noise_ratio**2 + 1e-9
    L = cholesky(A, lower=True)
    alpha = cho_solve((L, True), y_centered)
    sigma_f2 = float(y_centered @ alpha) / n
    lml = (
        -0.5 * n * (math.log(sigma_f2) + 1.0 + math.log(2.0 * math.pi))
        - float(np.log(np.diag(L)).sum())
    )
    M = np.outer(alpha / sigma_f2, alpha) - wrapped_cholesky_inverse(L)
    grad = np.empty(d + 1)
    grad[:d] = 0.5 * gpr.length_scale_contraction(D, r, e, M, length_scales)
    grad[d] = float(np.trace(M)) * noise_ratio**2
    return lml, grad, math.sqrt(sigma_f2)


def wrapped_log_marginal_likelihood(kernel, D, y_centered, with_grad=False):
    """Oracle: the full log marginal likelihood at (sigma_f, l, sigma_n),
    and its gradient in (log sigma_f, log l_1 ... log l_d, log sigma_n),
    through the ``scipy.linalg`` wrappers (``cholesky``, ``cho_solve``), on
    the inputs' ``gpr.squared_differences`` ``D``. The jitter term scales
    with sigma_f^2 and is included in the sigma_f derivative."""
    n, d = y_centered.size, D.shape[0]
    sigma_f = kernel.sigma_f
    sigma_n = kernel.sigma_n
    r = gpr.pair_distances(D, kernel.length_scales)
    e = np.exp(-r)
    E = squareform(e) + np.eye(n)
    jitter = 1e-9 * sigma_f**2
    K_reg = sigma_f**2 * E
    K_reg[np.diag_indices(n)] += sigma_n**2 + jitter
    L = cholesky(K_reg, lower=True)
    alpha = cho_solve((L, True), y_centered)
    lml = (
        -0.5 * float(y_centered @ alpha)
        - float(np.log(np.diag(L)).sum())
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    if not with_grad:
        return lml
    M = np.outer(alpha, alpha) - wrapped_cholesky_inverse(L)
    trace_m = float(np.trace(M))
    grad = np.empty(d + 2)
    grad[0] = 0.5 * float(np.sum(M * (2.0 * sigma_f**2 * E))) + trace_m * jitter
    grad[1:1 + d] = 0.5 * sigma_f**2 * gpr.length_scale_contraction(
        D, r, e, M, kernel.length_scales)
    grad[1 + d] = trace_m * sigma_n**2
    return lml, grad


def wrapped_find_mode(K, y, f0=None):
    """Oracle: ``gpc._find_mode`` through ``scipy.linalg.cholesky`` and
    ``solve_triangular``, with B built from an identity matrix."""
    n = y.size
    t = (y + 1.0) / 2.0
    f = np.zeros(n) if f0 is None else f0.copy()
    a = np.zeros(n)
    psi = -np.inf
    eye = np.eye(n)
    for _ in range(gpc.NEWTON_MAX_ITERS):
        pi = expit(f)
        w = pi * (1.0 - pi)
        sqrt_w = np.sqrt(w)
        B = eye + sqrt_w[:, None] * K * sqrt_w[None, :]
        L = cholesky(B, lower=True)
        b = w * f + (t - pi)
        rhs = sqrt_w * (K @ b)
        a_new = b - sqrt_w * solve_triangular(
            L.T, solve_triangular(L, rhs, lower=True), lower=False
        )
        f_new = K @ a_new
        psi_new = float(-0.5 * (a_new @ f_new) + gpc._log_sigmoid(y * f_new).sum())
        step = 1.0
        while psi_new < psi - 1e-12 and step > 1e-6:
            step *= 0.5
            a_try = a + step * (a_new - a)
            f_try = K @ a_try
            psi_try = float(-0.5 * (a_try @ f_try) + gpc._log_sigmoid(y * f_try).sum())
            a_new, f_new, psi_new = a_try, f_try, psi_try
        converged = abs(psi_new - psi) < gpc.NEWTON_TOL
        a, f, psi = a_new, f_new, psi_new
        if converged:
            break
    else:
        raise NoConvergenceError("posterior mode search did not converge")
    pi = expit(f)
    sqrt_w = np.sqrt(pi * (1.0 - pi))
    B = eye + sqrt_w[:, None] * K * sqrt_w[None, :]
    L = cholesky(B, lower=True)
    return f, (t - pi), sqrt_w, L, psi - float(np.log(np.diag(L)).sum())


def wrapped_laplace_evidence(kernel, D, y, f0=None, with_grad=False):
    """Oracle: ``gpc.laplace_evidence`` on ``wrapped_find_mode`` and
    ``solve_triangular``, with fresh temporaries."""
    r = gpr.pair_distances(D, kernel.length_scales)
    e = np.exp(-r)
    K = kernel.sigma_f**2 * (squareform(e) + np.eye(y.size))
    f_hat, grad_mode, sqrt_w, L, evidence = wrapped_find_mode(K, y, f0)
    if not with_grad:
        return evidence, f_hat
    pi = expit(f_hat)
    R = sqrt_w[:, None] * wrapped_cholesky_inverse(L) * sqrt_w[None, :]
    C = solve_triangular(L, sqrt_w[:, None] * K, lower=True)
    dw_df = pi * (1.0 - pi) * (1.0 - 2.0 * pi)
    s2 = -0.5 * (np.diag(K) - np.einsum("ij,ij->j", C, C)) * dw_df
    g = grad_mode
    u = s2 - R @ (K @ s2)
    W = 0.5 * (np.outer(g, g) - R + np.outer(u, g) + np.outer(g, u))
    grad = np.empty(1 + D.shape[0])
    grad[0] = 2.0 * float(np.vdot(W, K))
    grad[1:] = kernel.sigma_f**2 * gpr.length_scale_contraction(D, r, e, W, kernel.length_scales)
    return evidence, f_hat, grad


def wrapped_project(log_taus, t, v, current):
    """Oracle: ``ecm._project`` on raw voltages, centring them by ``.mean()``
    on every call under its own ``np.errstate``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = t / np.exp(log_taus)[:, :, None]
        basis = np.exp(-scaled)
        basis *= -current
        centred = basis - basis.mean(axis=2, keepdims=True)
        v_centred = v - v.mean()
        gram = centred @ centred.transpose(0, 2, 1)
        det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]
        inverse = gram[:, ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        inverse /= det[:, None, None]
        r = inverse @ (centred @ v_centred)[:, :, None]
        residual = v_centred - (r.transpose(0, 2, 1) @ centred)[:, 0]
    return basis, scaled, centred, inverse, r[:, :, 0], residual


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
    return history_of_cycles(meta, cycle_data)


def history_of_cycles(meta, cycle_data):
    """A cell of per-cycle rows (cycle index, ``RelaxationCurve``,
    ``DischargeCurve`` or None, capacity): the rows stacked into the blocks
    ``build_history`` takes, one time row per cycle and the discharges laid
    end to end. The cell's sampling interval and cutoff current are
    ``meta``'s."""
    indices, curves, discharges, capacities = zip(*cycle_data)
    present = [d for d in discharges if d is not None]
    columns = Discharges(
        np.concatenate([np.empty(0), *(d.voltages_v for d in present)]),
        np.array([0.0 if d is None else d.duration_s for d in discharges]),
        np.concatenate([np.empty(0), *(d.charges_ah for d in present)]),
        np.cumsum([0, *(0 if d is None else d.voltages_v.size for d in discharges)]),
    )
    return build_history(meta, np.array(indices), np.array(capacities, dtype=float),
                         np.array([c.times_s for c in curves]),
                         np.array([c.voltages_v for c in curves]), columns)


def without_cycles(cell, dropped, **changes):
    """``cell`` without the cycles ``dropped`` names, each kept cycle with its
    own bookkeeping; ``changes`` replace other fields (``eol_cycle``)."""
    rows = np.flatnonzero(~np.isin(cell.cycle_indices, list(dropped)))
    dis = cell.discharges
    if dis.bounds is None:
        discharges = Discharges(dis.voltages_v, dis.durations_s[rows])
    else:
        points = np.concatenate([np.arange(dis.bounds[k], dis.bounds[k + 1]) for k in rows]
                                + [np.empty(0, dtype=int)])
        discharges = Discharges(dis.voltages_v[points], dis.durations_s[rows],
                                dis.charges_ah[points],
                                np.cumsum([0, *np.diff(dis.bounds)[rows].tolist()]))
    return dataclasses.replace(
        cell, cycle_indices=cell.cycle_indices[rows], capacities_ah=cell.capacities_ah[rows],
        cumulative_ah=cell.cumulative_ah[rows], calendar_days=cell.calendar_days[rows],
        times_s=cell.times_s if cell.times_s.ndim == 1 else cell.times_s[rows],
        voltages_v=cell.voltages_v[rows], discharges=discharges, **changes)


def records(cell) -> list:
    """The checked view of every cycle of a cell, in cycle order."""
    return [cell.record(m) for m in cell.cycle_indices.tolist()]


def history_bits(cell) -> list:
    """Every field of a cell history, arrays as bytes: equal lists mean
    bit-identical histories."""
    out = [cell.cell_id, cell.chemistry, cell.condition, cell.nominal_capacity_ah,
           cell.eol_cycle]
    for rec in records(cell):
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
    cutoff = spell(records(history)[0].relaxation.cutoff_current_a)
    _, _, dis_rate = parse_condition(history.condition)
    discharge_current = spell(-dis_rate * history.nominal_capacity_ah)

    def rows():
        for rec in records(history):
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
