"""Second-order equivalent-circuit identification from voltage relaxation.

After charging ends the terminal voltage approaches the open-circuit
voltage from below as two polarization branches decay:

    U(t) = ocv - I*r_e*exp(-t/(r_e*c_e)) - I*r_c*exp(-t/(r_c*c_c)),   t > 0
    U(0) = ocv - I*(r_o + r_e + r_c)

where I is the CV-phase cutoff current, which flows only at the instant
t = 0. The five parameters other than r_o are identified from the t > 0
samples by damped Gauss-Newton least squares over log-resistances and
log-time-constants (positivity for free; capacitances follow as tau/r),
boxed to keep the problem well posed under noise. r_o then follows from
the t = 0 sample:

    r_o = |U(0) - ocv| / I - r_e - r_c      (clamped at zero)

Two-exponential fits are multimodal, and from a poor start the solver
crawls along flat valleys, so each pass computes its one start by variable
projection (Golub & Pereyra, *SIAM J. Numer. Anal.* 10, 1973): with the two
time constants fixed, ocv and the two branch resistances are a linear least
squares. Every pair of a log-spaced grid over the box's time constants is
scored at once; a Gauss-Newton over the two time constants alone refines the
best pair; the five-parameter solver then polishes that start. Branch labels
are canonical: the 'e' branch carries the smaller time constant.

A second pass over a wide box runs only when the tight fit does not
interpolate the data, and its result is adopted only when it does. It never
runs on the shortest curves (five t > 0 samples for five parameters), where
an exact fit interpolates noise as readily as it recovers a noiseless
transient. On noisy data no model can interpolate, and a Hankel-rank
certificate proves it before the wide pass runs: on a uniform grid a
constant plus two decaying exponentials makes the (n-3) x 4 Hankel matrix
of the t > 0 samples rank 3 or less, so a smallest singular value well
above twice the exact-fit residual norm rules out every model
(``_cannot_interpolate``). With six t > 0 samples, on a non-uniform grid,
or when the certificate does not hold, the wide pass runs. A certified skip
never changes a result: the report is bitwise the one the wide pass gives.

Each damped step on 5 to ~120 points is kept to a few numpy calls, as from
a poor start a fit takes hundreds of them: both branches are evaluated in one
(2, n) pass (``_evaluate``), their Jacobian columns are filled by two
strided operations, and each 5 x 5 system is solved by LAPACK ``dgesv``
called directly. The arithmetic, and its order, is that of the plain
per-branch formulation, so every ``FitReport`` is bitwise the one it gives.
The start's projections get the same treatment: each pass centres the
voltages once and hands them to every ``_project`` call under one
``np.errstate``, and means are ``np.add.reduce(...) / n``, the ufunc and
divisor ``.mean()`` uses, without its per-call overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv

from .dataset import RelaxationCurve
from .errors import InsufficientDataError, ValidationError

MIN_FIT_SAMPLES = 6

# Near-degenerate branches (a time constant well below the sampling interval
# leaves only a few samples carrying that branch's signal) converge slowly
# along the flat valley; ~400 damped iterations are observed worst case.
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


def _evaluate(theta: np.ndarray, t: np.ndarray, v, current: float):
    """Residual ``ocv - term_e - term_c - v`` of the t > 0 model at ``theta``
    (log-parameterized), plus the pieces its Jacobian reuses: the (2, n)
    branch terms ``current*r*exp(-t/tau)`` and ``t/tau``, row 0 for the 'e'
    branch and row 1 for the 'c' branch, both computed in one pass."""
    r_tau = np.exp(theta[1:])  # r_e, tau_e, r_c, tau_c
    scaled = t / r_tau[1::2, None]
    term = np.exp(-scaled)
    term *= (current * r_tau[0::2])[:, None]
    residual = theta[0] - term[0]
    residual -= term[1]
    residual -= v
    return residual, (term, scaled)


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


def _damped_gauss_newton(theta0, t, v, current, lower, upper):
    """Projected Levenberg-style damped Gauss-Newton.

    Returns (theta, cost, iters, converged). Candidate steps are clipped
    onto the feasible box; non-finite trial costs simply reject the step,
    so floating-point overflow in a wild trial is silenced. The Jacobian
    (analytic, wrt ocv, log r_e, log tau_e, log r_c, log tau_c) reuses the
    accepted candidate's fused (2, n) evaluation, filling both branches'
    columns with two strided operations: ``-current*r*decay`` rounds
    exactly as ``-(current*r*decay)``. Each damped 5 x 5 system is solved
    by LAPACK ``dgesv`` called directly, without ``np.linalg.solve``'s
    per-call wrapper; an exactly singular system (``info != 0``) is
    treated like any rejected step: the damping grows fourfold and the
    solve is retried.
    """
    theta = np.minimum(np.maximum(np.asarray(theta0, dtype=float), lower), upper)
    residual, terms = _evaluate(theta, t, v, current)
    cost = float(residual @ residual)
    damping = 1e-3
    iterations = 0
    converged = False
    stagnant = 0
    jac = np.empty((t.size, 5))
    jac[:, 0] = 1.0
    branch_r = jac[:, 1::2]  # d/d log r_e, d/d log r_c
    branch_tau = jac[:, 2::2]  # d/d log tau_e, d/d log tau_c
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while iterations < MAX_ITERATIONS:
            iterations += 1
            term, scaled = terms
            np.negative(term.T, out=branch_r)
            np.multiply(branch_r, scaled.T, out=branch_tau)
            grad = jac.T @ residual
            neg_grad = np.negative(grad, out=grad)
            hess = jac.T @ jac
            diag = hess.diagonal().copy()
            diag[diag <= 0.0] = 1.0
            for _ in range(25):
                system = hess.copy()
                system.reshape(-1)[::6] += damping * diag  # the 5x5 diagonal
                step, info = dgesv(system, neg_grad, overwrite_a=1)[2:]
                if info != 0:  # exactly singular
                    damping *= 4.0
                    continue
                candidate = theta + step
                np.maximum(candidate, lower, out=candidate)
                np.minimum(candidate, upper, out=candidate)
                cand_residual, cand_terms = _evaluate(candidate, t, v, current)
                cand_cost = float(cand_residual @ cand_residual)
                if math.isfinite(cand_cost) and cand_cost <= cost:
                    break
                damping *= 4.0
            else:
                converged = True  # damping exhausted: no descent left in the box
                break
            moved = candidate - theta
            theta, residual, terms = candidate, cand_residual, cand_terms
            improvement = cost - cand_cost
            cost = cand_cost
            damping = max(damping / 3.0, 1e-12)
            if improvement <= RESIDUAL_REL_TOL * max(cost, 1e-300):
                converged = True
                break
            if math.sqrt(moved @ moved) <= STEP_NORM_TOL:
                converged = True
                break
            # Noise-floor crawling: many consecutive marginal relative
            # improvements polish nothing but burn the iteration budget.
            stagnant = stagnant + 1 if improvement <= 1e-7 * cost else 0
            if stagnant >= 6:
                converged = True
                break
    return theta, cost, iterations, converged


# Signs that turn a 2 x 2 matrix with swapped diagonal into its adjugate.
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _project(log_taus: np.ndarray, t: np.ndarray, v_centred: np.ndarray, current: float):
    """Variable projection at each row (log tau_e, log tau_c) of ``log_taus``.

    With both time constants fixed, the t > 0 model ``ocv + r_e*b_e +
    r_c*b_c`` (basis ``b = -current*exp(-t/tau)``) is linear. Centring basis
    and data removes ocv and leaves 2 x 2 normal equations per row, solved
    through their adjugate. ``v_centred`` is the data minus its mean,
    centred once per pass by the caller, which also silences floating-point
    warnings. Returns, per row: the basis and ``t/tau``
    (m, 2, n), the centred basis, the inverse of the normal matrix
    (m, 2, 2), the resistances (m, 2) and the residual ``v - model`` (m, n).
    Nothing is clipped into the box; a singular row gives non-finite values.
    """
    scaled = t / np.exp(log_taus)[:, :, None]
    basis = np.exp(-scaled)
    basis *= -current
    centred = basis - np.add.reduce(basis, axis=2, keepdims=True) / t.size
    gram = centred @ centred.transpose(0, 2, 1)
    det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]
    inverse = gram[:, ::-1, ::-1] * _ADJUGATE_SIGNS
    inverse /= det[:, None, None]
    r = inverse @ (centred @ v_centred)[:, :, None]
    residual = v_centred - (r.transpose(0, 2, 1) @ centred)[:, 0]
    return basis, scaled, centred, inverse, r[:, :, 0], residual


def _boxed_start(log_taus: np.ndarray, basis: np.ndarray, r: np.ndarray, v: np.ndarray,
                 lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-parameterized thetas (m, 5) from projected resistances: these,
    then the best ocv given them, clipped into the box; and their costs
    (``inf`` where not finite). The caller silences floating-point warnings."""
    r = np.clip(r, math.exp(lower[1]), math.exp(upper[1]))
    model = np.einsum("mk,mkn->mn", r, basis)
    ocv = np.clip(np.add.reduce(v - model, axis=1) / v.size, lower[0], upper[0])
    residual = model - v
    residual += ocv[:, None]
    cost = np.einsum("mn,mn->m", residual, residual)
    log_r = np.log(r)
    theta = np.column_stack((ocv, log_r[:, 0], log_taus[:, 0], log_r[:, 1], log_taus[:, 1]))
    return theta, np.where(np.isfinite(cost), cost, np.inf)


# Points of the start's log-spaced grid over each time-constant range.
_GRID_POINTS = 16
# Iteration cap of the start's refinement, which mostly takes under ten.
_START_ITERATIONS = 50


def _refine_time_constants(log_taus: np.ndarray, t: np.ndarray, v_centred: np.ndarray,
                           current: float, lo: float, hi: float):
    """Damped Gauss-Newton on the variable-projection cost over the (1, 2)
    ``log_taus`` alone, with Kaufman's Jacobian of the projected residual
    (*BIT* 15, 1975). The linear parameters are re-solved at every trial,
    so it descends the narrow valleys where the five-parameter solver
    crawls. A time constant at a bound of [lo, hi] that the step would push
    out is held there. Returns the last accepted ``log_taus`` and the
    ``_project`` pieces at it.
    """
    state = _project(log_taus, t, v_centred, current)
    cost = float(state[5][0] @ state[5][0])
    damping = 1e-3
    for _ in range(_START_ITERATIONS):
        basis, scaled, centred, inverse, r, residual = (piece[0] for piece in state)
        # Rows: the Jacobian columns, minus d(model)/d(log tau) projected
        # off the span of the linear columns (centring takes ocv's).
        slope = basis * scaled
        slope *= r[:, None]
        slope -= np.add.reduce(slope, axis=1, keepdims=True) / t.size
        jac = (inverse @ (centred @ slope.T)).T @ centred - slope
        (h_ee, h_ec), (_, h_cc) = (jac @ jac.T).tolist()
        g_e, g_c = (-(jac @ residual)).tolist()  # minus the gradient
        (a_e, a_c), = log_taus.tolist()
        free_e = not ((a_e <= lo and g_e < 0.0) or (a_e >= hi and g_e > 0.0))
        free_c = not ((a_c <= lo and g_c < 0.0) or (a_c >= hi and g_c > 0.0))
        if not (free_e or free_c):
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
            candidate = np.array([[min(max(a_e + step_e / s_e, lo), hi),
                                   min(max(a_c + step_c / s_c, lo), hi)]])
            cand_state = _project(candidate, t, v_centred, current)
            cand_cost = float(cand_state[5][0] @ cand_state[5][0])
            if math.isfinite(cand_cost) and cand_cost <= cost:
                break
            damping *= 4.0
        else:
            break
        improvement = cost - cand_cost
        log_taus, state, cost = candidate, cand_state, cand_cost
        damping = max(damping / 3.0, 1e-12)
        if improvement <= RESIDUAL_REL_TOL * max(cost, 1e-300):
            break
    return log_taus, state


def _projected_start(t: np.ndarray, v: np.ndarray, current: float,
                     lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, float]:
    """The Gauss-Newton start for one box, and its cost.

    Variable projection (``_project``) scores every pair tau_e < tau_c of a
    log-spaced grid over the box's time-constant range at once, and
    ``_refine_time_constants`` refines the best pair. The refined start
    replaces the grid's only when its parameters, clipped into the box,
    cost no more. The voltages are centred once, and one ``np.errstate``
    covers every projection of the pass.
    """
    grid = np.linspace(lower[2], upper[2], _GRID_POINTS)
    log_taus = np.column_stack([grid[k] for k in np.triu_indices(_GRID_POINTS, k=1)])
    v_centred = v - np.add.reduce(v) / v.size
    with np.errstate(divide="ignore", invalid="ignore"):
        basis, _, _, _, r, _ = _project(log_taus, t, v_centred, current)
        thetas, costs = _boxed_start(log_taus, basis, r, v, lower, upper)
        best = int(np.argmin(costs))
        log_taus, state = _refine_time_constants(log_taus[best:best + 1], t, v_centred, current,
                                                 lower[2], upper[2])
        theta, refined = _boxed_start(log_taus, state[0], state[4], v, lower, upper)
    if refined[0] <= costs[best]:
        return theta[0], float(refined[0])
    return thetas[best], float(costs[best])


def _multistart(curve: RelaxationCurve, tight: bool):
    """One pass over one box: damped Gauss-Newton from the projected start,
    which scores every pair of a time-constant grid in place of running
    Gauss-Newton from several blind starts."""
    t = curve.times_s
    positive = t > 0
    t_pos = t[positive]
    v_pos = curve.voltages_v[positive]
    current = curve.cutoff_current_a
    lower, upper = _fit_bounds(curve, tight)
    theta0, _ = _projected_start(t_pos, v_pos, current, lower, upper)
    return _damped_gauss_newton(theta0, t_pos, v_pos, current, lower, upper)


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
    # with it the SVD's rounding error.
    hankel = np.lib.stride_tricks.sliding_window_view(v_pos - v_pos[-1], 4)
    sigma_min = np.linalg.svd(hankel, compute_uv=False)[-1]
    return bool(sigma_min > _CERTIFICATE_SAFETY * 2.0 * math.sqrt(exact_cost))


def fit(curve: RelaxationCurve) -> FitReport:
    """Identify the six circuit parameters from one relaxation transient.

    Requires at least 6 samples (t = 0 plus five t > 0 points for the
    five-parameter nonlinear fit). Each pass runs the damped Gauss-Newton
    once, from the variable-projection start of its box. The tight-box
    solution is preferred;
    when it cannot interpolate the data exactly, a wide-box pass runs and
    replaces it only by interpolating exactly itself (noiseless data whose
    time constants fall outside the tight box). It never runs on five t > 0
    samples, which five parameters interpolate almost whatever their noise.
    It is skipped when the Hankel-rank certificate proves no model can
    interpolate the data (noisy curves with at least 7 t > 0 samples on a
    uniform grid); since it could not have been adopted, the report is
    bitwise the same.
    Never raises on slow convergence: best-effort parameters come back with
    ``converged=False``.
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
    best = _multistart(curve, tight=True)
    # On five t > 0 samples an exact wide fit is no evidence of noiseless data.
    if (best[1] > exact_cost and t_pos.size > 5
            and not _cannot_interpolate(t_pos, v[positive], exact_cost)):
        wide = _multistart(curve, tight=False)
        if wide[1] <= exact_cost:
            best = wide

    theta, cost, iterations, converged = best
    ocv = float(theta[0])
    r_e, tau_e, r_c, tau_c = np.exp(theta[1:])
    c_e = tau_e / r_e
    c_c = tau_c / r_c
    r_e, c_e, r_c, c_c = canonical_branches(r_e, c_e, r_c, c_c)

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
