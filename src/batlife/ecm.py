"""Second-order equivalent-circuit identification from voltage relaxation.

After charging ends the terminal voltage approaches the open-circuit
voltage from below as two polarization branches decay:

    U(t) = ocv - I*r_e*exp(-t/(r_e*c_e)) - I*r_c*exp(-t/(r_c*c_c)),   t > 0
    U(0) = ocv - I*(r_o + r_e + r_c)

where I is the CV-phase cutoff current, which flows only at the instant
t = 0. The five parameters other than r_o are identified from the t > 0
samples by least squares, with the resistances and time constants boxed to
keep the problem well posed under noise (capacitances follow as tau/r).
r_o then follows from the t = 0 sample:

    r_o = |U(0) - ocv| / I - r_e - r_c      (clamped at zero)

Two-exponential fits are multimodal, and a solver over all five parameters
crawls along their flat valleys, so each pass fits by variable projection
(Golub & Pereyra, *SIAM J. Numer. Anal.* 10, 1973): with the two time
constants fixed, ocv and the two branch resistances are a linear least
squares, solved exactly inside their box (``_boxed_project``). Every pair
of a log-spaced grid over the box's time constants is scored in one batch,
and a damped Gauss-Newton over the two time constants alone descends from
the best pair, scoring one pair per step (``_project_pair``, ``_fit_box``).
The batch's voltage-free pieces depend only on the time row, the current and
the box's time-constant range, so the fits on a shared time row build them
once (``_start_grid``); each fit solves only its own voltages against them.
Branch labels are canonical: the 'e' branch carries the smaller time
constant.

A second pass over a wide box runs only when the tight fit does not
interpolate the data, and its result is adopted only when it does. It never
runs on the shortest curves (five t > 0 samples for five parameters), where
an exact fit interpolates noise as readily as it recovers a noiseless
transient, nor where a Hankel-rank certificate proves that no model can
interpolate the data (``_cannot_interpolate``), so a skip never changes a
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import RelaxationCurve
from .errors import InsufficientDataError, ValidationError

MIN_FIT_SAMPLES = 6

# Iteration cap of one pass. A fit mostly stops within ten iterations, and
# within 70 on every curve of the benchmark fleets; the cap bounds a crawl
# along a flat valley.
MAX_ITERATIONS = 1000
RESIDUAL_REL_TOL = 1e-10
STEP_NORM_TOL = 1e-12

@dataclass(frozen=True)
class EcmParams:
    """The six circuit quantities (ohms, farads, volts)."""

    ocv: float
    r_o: float
    r_e: float
    c_e: float
    r_c: float
    c_c: float

    def __post_init__(self):
        if min(self.r_e, self.c_e, self.r_c, self.c_c) <= 0:
            raise ValidationError("polarization resistances and capacitances must be positive")
        if self.r_o < 0:
            raise ValidationError("ohmic resistance cannot be negative")
        if self.tau_e > self.tau_c:
            raise ValidationError(
                "branch labels are canonical: tau_e must not exceed tau_c "
                f"(got {self.tau_e:.6g} > {self.tau_c:.6g})"
            )

    @property
    def tau_e(self) -> float:
        return self.r_e * self.c_e

    @property
    def tau_c(self) -> float:
        return self.r_c * self.c_c

    def as_array(self) -> np.ndarray:
        return np.array([self.ocv, self.r_o, self.r_e, self.c_e, self.r_c, self.c_c])

    @staticmethod
    def names() -> tuple[str, ...]:
        return ("ocv", "r_o", "r_e", "c_e", "r_c", "c_c")


def canonical_branches(r_e, c_e, r_c, c_c):
    """Order the two RC branches so the first has the smaller time constant."""
    if r_e * c_e <= r_c * c_c:
        return r_e, c_e, r_c, c_c
    return r_c, c_c, r_e, c_e


@dataclass(frozen=True)
class FitReport:
    params: EcmParams
    residual_rms_v: float
    iterations: int
    converged: bool
    ro_clamped: bool = False

    def __post_init__(self):
        if self.residual_rms_v < 0:
            raise ValidationError("residual RMS cannot be negative")


def predict_relaxation(params: EcmParams, cutoff_current_a: float, times_s) -> np.ndarray:
    """Evaluate the relaxation model at the given times (seconds)."""
    return relaxation_model(params.ocv, params.r_o, params.r_e, params.tau_e,
                            params.r_c, params.tau_c, cutoff_current_a, times_s)


def relaxation_model(ocv, r_o, r_e, tau_e, r_c, tau_c, current: float, times_s) -> np.ndarray:
    """The relaxation model at the given times (seconds). The circuit
    quantities broadcast against the times: scalars give one curve, (m, 1)
    columns an (m, n) block of m curves, each row bitwise the curve its
    scalars give."""
    t = np.asarray(times_s, dtype=float)
    if np.any(t < 0):
        raise ValidationError("relaxation times must be non-negative")
    u = ocv - current * r_e * np.exp(-t / tau_e) - current * r_c * np.exp(-t / tau_c)
    return np.where(t == 0.0, u - current * r_o, u)


def _fit_bounds(curve: RelaxationCurve, tight: bool) -> tuple[np.ndarray, np.ndarray]:
    """Box constraints for the two-exponential fit.

    The tight box makes the problem well posed under noise: without it,
    multi-exponential fits admit phantom solutions (a huge amplitude paired
    with a time constant far below the sampling interval leaves almost no
    trace on the sampled residual yet absorbs single-sample noise and
    destroys the recovered parameters). Amplitudes are capped by the
    observed relaxation span and time constants confined near the
    observation window. The wide box admits sub-interval time constants and
    is trusted only when the fit interpolates the data exactly.
    """
    t = curve.times_s
    v = curve.voltages_v
    positive = t > 0
    t_pos = t[positive]
    v_pos = v[positive]
    current = curve.cutoff_current_a
    span = max(float(v_pos.max() - v_pos.min()), 1e-4)
    if tight:
        r_hi = 3.0 * span / current
        tau_lo = t_pos[0] / 2.0
        tau_hi = 2.0 * t_pos[-1]
    else:
        r_hi = 1e3 * span / current
        tau_lo = t_pos[0] / 50.0
        tau_hi = 20.0 * t_pos[-1]
    lower = np.array([v.min() - 0.05, math.log(1e-9), math.log(tau_lo),
                      math.log(1e-9), math.log(tau_lo)])
    upper = np.array([v.max() + 0.3, math.log(r_hi), math.log(tau_hi),
                      math.log(r_hi), math.log(tau_hi)])
    return lower, upper


# Signs that turn a 2 x 2 matrix with swapped diagonal into its adjugate.
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _solve(columns: np.ndarray, data: np.ndarray):
    """Least squares of ``data`` on the two rows of each (2, n) block of
    ``columns``, through the adjugate of the 2 x 2 normal matrix. Returns
    the inverse of that matrix (m, 2, 2), the coefficients (m, 2) and the
    residual (m, n); a singular row gives non-finite values."""
    gram = columns @ columns.transpose(0, 2, 1)
    det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]
    inverse = gram[:, ::-1, ::-1] * _ADJUGATE_SIGNS
    inverse /= det[:, None, None]
    return (inverse,) + _fit_data(columns, inverse, data)


def _fit_data(columns: np.ndarray, inverse: np.ndarray, data: np.ndarray):
    """``_solve``'s coefficients and residual, given its inverse."""
    r = inverse @ (columns @ data)[:, :, None]
    residual = data - (r.transpose(0, 2, 1) @ columns)[:, 0]
    return r[:, :, 0], residual


def _project(log_taus: np.ndarray, t: np.ndarray, v_centred: np.ndarray, current: float):
    """Variable projection at each row (log tau_e, log tau_c) of ``log_taus``.

    With both time constants fixed, the t > 0 model ``ocv + r_e*b_e +
    r_c*b_c`` (basis ``b = -current*exp(-t/tau)``) is linear. Centring basis
    and data removes ocv and leaves 2 x 2 normal equations per row
    (``_solve``). ``v_centred`` is the data minus its mean, centred once per
    pass by the caller, which also silences floating-point warnings; means
    are ``np.add.reduce(...) / n``, as in ``.mean()`` without its overhead.
    Returns, per row: the basis and ``t/tau`` (m, 2, n), the centred basis,
    then ``_solve``'s inverse, resistances and residual ``v - model``.
    """
    scaled = t / np.exp(log_taus)[:, :, None]
    basis = np.exp(-scaled)
    basis *= -current
    centred = basis - np.add.reduce(basis, axis=2, keepdims=True) / t.size
    return (basis, scaled, centred) + _solve(centred, v_centred)


def _solve_in_box(columns, data, r_lo, r_hi, inverse, r, residual) -> None:
    """Turn ``_solve``'s result, in place, into the least squares with both
    coefficients in [r_lo, r_hi].

    Where a row's free solution leaves the box (or is not finite), the
    minimum of its convex quadratic lies on one of the box's four edges, on
    which the other coefficient is the clipped one-dimensional minimizer: the
    cheapest of these four candidates is the exact boxed minimum. Such a
    row's inverse becomes that of the free coefficient's normal matrix, with
    zero rows and columns for one held at a bound.
    """
    out = ~((r >= r_lo) & (r <= r_hi)).all(axis=1)  # NaN too
    if not out.any():
        return
    edge_c = columns[out]
    gram = edge_c @ edge_c.transpose(0, 2, 1)
    proj = edge_c @ data
    bounds = np.array([r_lo, r_hi])
    # Candidates (rows, 4, 2): r_e held at r_lo and r_hi, then r_c held.
    candidates = np.empty((edge_c.shape[0], 4, 2))
    candidates[:, :2, 0] = bounds
    candidates[:, :2, 1] = (proj[:, 1:] - gram[:, 1, :1] * bounds) / gram[:, 1, 1:]
    candidates[:, 2:, 0] = (proj[:, :1] - gram[:, 0, 1:] * bounds) / gram[:, :1, 0]
    candidates[:, 2:, 1] = bounds
    np.clip(candidates, r_lo, r_hi, out=candidates)
    residuals = data - candidates @ edge_c
    costs = np.einsum("mkn,mkn->mk", residuals, residuals)
    costs[np.isnan(costs)] = np.inf
    rows = np.arange(costs.shape[0])
    pick = np.argmin(costs, axis=1)
    r[out] = candidates[rows, pick]
    residual[out] = residuals[rows, pick]
    # On an edge at most one coefficient is free: the inverse of its normal
    # matrix is one over its diagonal entry.
    free = (r[out] > r_lo) & (r[out] < r_hi)
    inverse[out] = np.eye(2) * np.where(free, 1.0 / gram.diagonal(0, 1, 2), 0.0)[:, :, None]


def _boxed_project(log_taus: np.ndarray, t: np.ndarray, v_centred: np.ndarray, current: float,
                   r_lo: float, r_hi: float, ocv_room: float):
    """``_project`` with ocv, r_e and r_c solved exactly inside their box:
    both resistances in [r_lo, r_hi], ocv at most ``ocv_room`` above the mean
    voltage (and unbounded below: in a fit it lies above the mean voltage).

    The resistances are first solved in their box on the centred basis;
    ocv is then the mean voltage plus the branches' mean drop. Where that
    exceeds its bound, the exact minimum holds ocv at the bound (the cost is
    convex, and its best ocv is linear in the resistances), and the
    resistances are solved in their box again on the uncentred basis and the
    data minus the bound. Returns ``_project``'s pieces, with the uncentred
    basis on rows where ocv is held, and per row whether it is.
    """
    basis, scaled, columns, inverse, r, residual = _project(log_taus, t, v_centred, current)
    # ocv rises above the mean voltage by less than 2 * current * max(r_e, r_c, 0),
    # so no bound binds where that is within its bound and r in the box.
    flat = r.ravel().tolist()
    if all([r_lo <= x <= r_hi for x in flat]) and 2.0 * current * max(0.0, *flat) <= ocv_room:
        return basis, scaled, columns, inverse, r, residual, np.zeros(len(r), dtype=bool)
    _solve_in_box(columns, v_centred, r_lo, r_hi, inverse, r, residual)
    held = np.einsum("mk,mkn->m", r, basis) < -ocv_room * t.size  # false for NaN
    if held.any():
        data = v_centred - ocv_room
        pieces = _solve(basis[held], data)
        _solve_in_box(basis[held], data, r_lo, r_hi, *pieces)
        columns[held] = basis[held]
        inverse[held], r[held], residual[held] = pieces
    return basis, scaled, columns, inverse, r, residual, held


def _project_pair(pair: np.ndarray, box: tuple):
    """``_boxed_project`` at one pair (log tau_e, log tau_c), unpacked: the
    pieces of its one row, with ``held`` a bool.

    A loop step scores one pair, where numpy's per-call overhead on (1, 2, n)
    stacks outweighs the arithmetic, so the free solve runs on (2, n) arrays
    with the normal matrix's entries as floats, through the same kernels in
    the same order as ``_project`` and ``_solve``, and so gives their bits.
    A pair whose free resistances leave their box, whose ocv may reach its
    bound, or whose normal matrix is singular (non-finite resistances fail
    the check) goes to ``_boxed_project``, the one copy of the box logic.
    """
    t, v_centred, current, r_lo, r_hi, ocv_room = box
    scaled = t / np.exp(pair)[:, None]
    basis = np.exp(-scaled)
    basis *= -current
    centred = basis - np.add.reduce(basis, axis=1, keepdims=True) / t.size
    (g_ee, g_ec), (g_ce, g_cc) = (centred @ centred.T).tolist()
    inverse = np.array([[g_cc, -g_ce], [-g_ec, g_ee]]) / (g_ee * g_cc - g_ec * g_ce)
    r = inverse @ (centred @ v_centred)[:, None]
    r_e, r_c = r[:, 0].tolist()
    # The check by which _boxed_project keeps the free solution.
    if (r_lo <= r_e <= r_hi and r_lo <= r_c <= r_hi
            and 2.0 * current * max(0.0, r_e, r_c) <= ocv_room):
        return basis, scaled, centred, inverse, r[:, 0], v_centred - (r.T @ centred)[0], False
    return tuple(piece[0] for piece in _boxed_project(pair[None], *box))


# Points of the start's log-spaced grid over each time-constant range, and
# the grid's index pairs (i, j), i < j, of the pairs tau_e < tau_c.
_GRID_POINTS = 16
_GRID_PAIRS = np.transpose(np.triu_indices(_GRID_POINTS, k=1))

# Start grids kept, oldest dropped first. The fits of a benchmark run share
# one or two time rows, each with a tight and at times a wide box.
_START_GRIDS_KEPT = 8
_start_grids: dict = {}


def _start_grid(t: np.ndarray, current: float, lo: float, hi: float):
    """The start grid's pairs over the log time-constant range [lo, hi], and
    the pieces of ``_project`` there that do not depend on the voltages: the
    basis, ``t/tau``, the centred basis and the normal matrices' inverse.

    They are memoized by the exact bytes of the time row, current and range,
    so the fits on a shared time row build them once; the arrays are
    read-only. A cell whose rests lie off one shared row simply misses.
    """
    key = t.tobytes() + np.array([current, lo, hi]).tobytes()
    pieces = _start_grids.get(key)
    if pieces is None:
        log_taus = np.linspace(lo, hi, _GRID_POINTS)[_GRID_PAIRS]
        pieces = (log_taus,) + _project(log_taus, t, np.zeros_like(t), current)[:4]
        for piece in pieces:
            piece.flags.writeable = False
        if len(_start_grids) >= _START_GRIDS_KEPT:
            del _start_grids[next(iter(_start_grids))]
        _start_grids[key] = pieces
    return pieces


def _fit_box(curve: RelaxationCurve, tight: bool):
    """One pass over one box: damped Gauss-Newton on the variable-projection
    cost over (log tau_e, log tau_c) alone.

    It starts from the best of every pair tau_e < tau_c of a log-spaced grid
    over the box's time-constant range, scored in one batch at their exact
    boxed costs on the memoized grid (``_start_grid``). Where the batch
    scored that pair inside the box, its row of the batch is the start's
    state, bit for bit what ``_project_pair`` gives; else the pair is scored
    anew. It steps with Kaufman's Jacobian of the projected residual
    (*BIT* 15, 1975), scoring one candidate pair per step
    (``_project_pair``). A time constant at a bound that the step would push
    out is held there. The loop stops when a step gains no more than
    ``RESIDUAL_REL_TOL`` of the cost, moves the time constants by no more
    than ``STEP_NORM_TOL``, or finds no descent left in the box. Returns the
    log-parameterized (ocv, r_e, tau_e, r_c, tau_c), the cost, the iteration
    count and whether a stop rule (rather than the iteration cap) ended it.
    """
    positive = curve.times_s > 0
    t = curve.times_s[positive]
    v = curve.voltages_v[positive]
    current = curve.cutoff_current_a
    lower, upper = _fit_bounds(curve, tight)
    r_lo, r_hi = math.exp(lower[1]), math.exp(upper[1])
    lo, hi = lower[2], upper[2]
    v_mean = np.add.reduce(v) / v.size
    v_centred = v - v_mean
    ocv_room = float(upper[0] - v_mean)
    box = (t, v_centred, current, r_lo, r_hi, ocv_room)
    converged = False
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_taus, grid_basis, grid_scaled, grid_centred, grid_inverse = _start_grid(
            t, current, lo, hi)
        r, residual = _fit_data(grid_centred, grid_inverse, v_centred)
        # A pair whose free resistances or ocv leave the box costs at least its
        # free cost, so only those below the best pair inside need the boxed solve.
        costs = np.einsum("mn,mn->m", residual, residual)
        outside = ~(((r >= r_lo) & (r <= r_hi)).all(axis=1)
                    & (np.einsum("mk,mkn->m", r, grid_basis) >= -ocv_room * t.size))
        redo = outside & ~(costs >= costs[~outside].min(initial=np.inf))  # NaN too
        costs[outside] = np.inf
        if redo.any():
            boxed = _boxed_project(log_taus[redo], *box)[5]
            costs[redo] = np.einsum("mn,mn->m", boxed, boxed)
        costs[np.isnan(costs)] = np.inf
        best = int(np.argmin(costs))
        a_e, a_c = log_taus[best].tolist()
        if outside[best]:
            state = _project_pair(log_taus[best], box)
        else:  # a pair scored inside the box: its grid row is _project_pair's state
            state = (grid_basis[best], grid_scaled[best], grid_centred[best],
                     grid_inverse[best], r[best], residual[best], False)
        cost = float(state[5] @ state[5])
        damping = 1e-3
        for iterations in range(1, MAX_ITERATIONS + 1):
            basis, scaled, columns, inverse, r, residual, held = state
            # Rows: the Jacobian columns, minus d(model)/d(log tau) projected
            # off the span of the free linear columns (centring takes ocv's).
            slope = basis * scaled
            slope *= r[:, None]
            if not held:
                slope -= np.add.reduce(slope, axis=1, keepdims=True) / t.size
            jac = (inverse @ (columns @ slope.T)).T @ columns - slope
            (h_ee, h_ec), (_, h_cc) = (jac @ jac.T).tolist()
            g_e, g_c = (-(jac @ residual)).tolist()  # minus the gradient
            free_e = not ((a_e <= lo and g_e < 0.0) or (a_e >= hi and g_e > 0.0))
            free_c = not ((a_c <= lo and g_c < 0.0) or (a_c >= hi and g_c > 0.0))
            if not (free_e or free_c):
                converged = True  # both time constants held: no descent left in the box
                break
            # Marquardt damping in units of the diagonal: the system
            # [[1 + damping, rho], [rho, 1 + damping]] has a determinant of at
            # least 2 * damping, as |rho| <= 1.
            s_e = math.sqrt(h_ee) if h_ee > 0.0 else 1.0
            s_c = math.sqrt(h_cc) if h_cc > 0.0 else 1.0
            rho = h_ec / (s_e * s_c)
            u_e, u_c = g_e / s_e, g_c / s_c
            for _ in range(25):
                d = 1.0 + damping
                if free_e and free_c:
                    det = d * d - rho * rho
                    step_e, step_c = (u_e * d - u_c * rho) / det, (u_c * d - u_e * rho) / det
                else:
                    step_e, step_c = (u_e / d if free_e else 0.0), (u_c / d if free_c else 0.0)
                c_e = min(max(a_e + step_e / s_e, lo), hi)
                c_c = min(max(a_c + step_c / s_c, lo), hi)
                cand_state = _project_pair(np.array([c_e, c_c]), box)
                cand_cost = float(cand_state[5] @ cand_state[5])
                if math.isfinite(cand_cost) and cand_cost <= cost:
                    break
                damping *= 4.0
            else:
                converged = True  # damping exhausted: no descent left in the box
                break
            improvement = cost - cand_cost
            # Gain-ratio update (Nielsen, 1999): the damping shrinks up to
            # threefold as the decrease achieved nears the one the linear
            # model predicts for the step taken, and doubles as it falls to
            # nothing, so the loop does not jump to and fro across a valley.
            m_e, m_c = (c_e - a_e) * s_e, (c_c - a_c) * s_c
            predicted = 2.0 * (m_e * u_e + m_c * u_c) - (m_e * m_e + 2.0 * rho * m_e * m_c
                                                         + m_c * m_c)
            gain = improvement / predicted if predicted > 0.0 else 1.0
            damping = max(damping * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 1e-12)
            # A step that holds or frees ocv or a resistance changes the
            # Jacobian's form; damping learnt on the old form would stall the
            # loop on the crease.
            if (cand_state[6] != held
                    or (cand_state[3].diagonal() == 0.0).tolist()
                    != (inverse.diagonal() == 0.0).tolist()):
                damping = 1e-3
            moved = math.hypot(c_e - a_e, c_c - a_c)
            a_e, a_c, state, cost = c_e, c_c, cand_state, cand_cost
            if improvement <= RESIDUAL_REL_TOL * max(cost, 1e-300) or moved <= STEP_NORM_TOL:
                converged = True
                break
        basis, r, held = state[0], state[4], state[6]
        ocv = upper[0] if held else v_mean - float(r @ np.add.reduce(basis, axis=1)) / t.size
    theta = np.array([ocv, math.log(r[0]), a_e, math.log(r[1]), a_c])
    return theta, cost, iterations, converged


# Residual RMS below which a fit interpolates the data exactly (no noise
# left to exploit), so the wide-box solution is trustworthy.
EXACT_RESIDUAL_V = 1e-9

# Margin of the Hankel certificate over its proven bound. Rounding in the
# model evaluation, the centring and the SVD is below 1e-13 V, far inside it.
_CERTIFICATE_SAFETY = 10.0


def _cannot_interpolate(t_pos: np.ndarray, v_pos: np.ndarray, exact_cost: float) -> bool:
    """True when no constant plus two decaying exponentials, whatever their
    parameters, comes within ``exact_cost`` of the t > 0 samples.

    On a uniform grid such a model obeys a three-term linear recurrence
    (characteristic roots 1, exp(-dt/tau_e), exp(-dt/tau_c)), so the
    (n-3) x 4 Hankel matrix of its samples has rank at most 3. For samples
    v = model + e, Weyl's inequality gives
    sigma_min(H(v)) <= ||H(e)||_2 <= ||H(e)||_F <= 2 ||e||, and a model
    within the exact cost has ||e|| <= sqrt(exact_cost). A smallest singular
    value above that bound therefore rules out every model. Fewer than 7
    samples (no fourth singular value) or a non-uniform grid prove nothing.
    """
    if t_pos.size < 7:
        return False
    steps = np.diff(t_pos)
    if np.any(steps != steps[0]):
        return False
    # Subtracting a constant keeps the model family and shrinks ||H||, and
    # with it the SVD's rounding error. Row i of the strided view is samples
    # i..i+3, as sliding_window_view gives without its per-call overhead.
    shifted = v_pos - v_pos[-1]
    hankel = np.lib.stride_tricks.as_strided(shifted, (shifted.size - 3, 4), shifted.strides * 2)
    sigma_min = np.linalg.svd(hankel, compute_uv=False)[-1]
    return bool(sigma_min > _CERTIFICATE_SAFETY * 2.0 * math.sqrt(exact_cost))


def fit(curve: RelaxationCurve) -> FitReport:
    """Identify the six circuit parameters from one relaxation transient.

    Requires at least 6 samples (t = 0 plus five t > 0 points for the
    five-parameter fit). The tight-box pass is kept unless the wide-box pass,
    where it runs (see the module docstring), interpolates the data exactly
    (noiseless data whose time constants fall outside the tight box).
    ``iterations`` counts the Gauss-Newton iterations of the pass kept
    (``_fit_box``). Never raises on slow convergence: best-effort parameters
    come back with ``converged=False``.
    """
    if curve.n_samples < MIN_FIT_SAMPLES:
        raise InsufficientDataError(
            f"ECM fit needs at least {MIN_FIT_SAMPLES} relaxation samples, "
            f"got {curve.n_samples}"
        )
    t = curve.times_s
    v = curve.voltages_v
    current = curve.cutoff_current_a
    positive = t > 0
    t_pos = t[positive]

    exact_cost = t_pos.size * EXACT_RESIDUAL_V**2
    best = _fit_box(curve, tight=True)
    # On five t > 0 samples an exact wide fit is no evidence of noiseless data.
    if (best[1] > exact_cost and t_pos.size > 5
            and not _cannot_interpolate(t_pos, v[positive], exact_cost)):
        wide = _fit_box(curve, tight=False)
        if wide[1] <= exact_cost:
            best = wide

    theta, cost, iterations, converged = best
    ocv = float(theta[0])
    r_e, tau_e, r_c, tau_c = np.exp(theta[1:])
    r_e, c_e, r_c, c_c = canonical_branches(r_e, tau_e / r_e, r_c, tau_c / r_c)

    v0 = float(v[t == 0.0][0])
    r_o = abs(v0 - ocv) / current - r_e - r_c
    ro_clamped = bool(r_o < 0.0)
    r_o = max(r_o, 0.0)

    params = EcmParams(ocv=ocv, r_o=r_o, r_e=r_e, c_e=c_e, r_c=r_c, c_c=c_c)
    residual_rms = math.sqrt(cost / t_pos.size)
    return FitReport(
        params=params,
        residual_rms_v=residual_rms,
        iterations=iterations,
        converged=converged,
        ro_clamped=ro_clamped,
    )
