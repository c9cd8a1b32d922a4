"""Deterministic initial-state fit used to build pseudo observation paths.

The cost balances closeness to the current ensemble (through its regularized
covariance) against the terminal misfit of the drift-only flow:

    cost(x) = 0.5 <x - mu, (Sigma + eps I)^-1 (x - mu)>
            + 0.5 <y - h(F(x)), C^-1 (y - h(F(x)))>,

with F the deterministic flow over the observation interval.  The minimizer
seeds the pseudo observation path that guides the nudged filter.

The solver is a box-constrained Gauss-Newton descent, the outer loop of
incremental 4D-Var.  Each step solves N p = -g, with N = P + J^T H^T C^-1 H J,
P the regularized prior precision and H and C from the observation model.
J is the flow's tangent-linear model, the exact derivative of the discrete
RK4 map (sde.rk4_tangent), taken along the iterate's own flow, and
g = P (x - mu) + J^T grad misfit(F(x)) the exact gradient.  Gauss-Newton
drops the misfit's second-order term, so with large residuals it
converges only linearly; the fit only seeds a pseudo observation path, so
it does not chase the last digits of the minimum.  The step is projected onto a box
around the prior mean and shortened by Armijo backtracking, one step
length at a time: each trial flows alone, on rk4_path's few-row kernel,
and most line searches accept the full step.  When the full step stays
in the box and its predicted decrease is below the tolerance, the solve
stops before flowing it.  The accepted trial's flow is kept, so the best
iterate's trajectory, which the pseudo observation path samples, needs
no flow of its own, and its tangent pass runs along that flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import ObservationModel, quadratic_form
from .sde import RK4_STAGES, SdeModel, rk4_path, rk4_tangent, whole_steps

Array = np.ndarray

BLOWUP_COST = 1e12


def regularize_covariance(cov: Array, eps: float = 1e-6) -> Array:
    """Add eps I when the matrix is ill conditioned or nearly singular.

    A well conditioned covariance passes through unchanged, so sharp but
    healthy ensembles are not blurred.
    """
    cov = np.asarray(cov, dtype=float)
    eigs = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    smallest = eigs[0]
    condition = np.inf if smallest <= 0.0 else eigs[-1] / smallest
    if smallest < eps or condition > 1e8:
        return cov + eps * np.eye(cov.shape[0])
    return cov


@dataclass(frozen=True)
class VariationalProblem:
    """One initial-state fitting problem over an observation interval."""

    model: SdeModel
    obs_model: ObservationModel
    prior_mean: Array
    prior_cov: Array  # raw ensemble covariance; regularized internally
    observation: Array
    t_start: float
    t_end: float
    dt: float
    eps: float = 1e-6
    bound_sigmas: float = 10.0

    def __post_init__(self):
        mean = np.array(self.prior_mean, dtype=float)
        mean.flags.writeable = False
        object.__setattr__(self, "prior_mean", mean)
        obs = np.array(self.observation, dtype=float)
        obs.flags.writeable = False
        object.__setattr__(self, "observation", obs)
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        reg = regularize_covariance(np.asarray(self.prior_cov, float), self.eps)
        prec = np.linalg.inv(reg)
        spread = self.bound_sigmas * np.sqrt(np.diag(reg))
        object.__setattr__(self, "_prior_prec", prec)
        object.__setattr__(self, "lower", mean - spread)
        object.__setattr__(self, "upper", mean + spread)
        object.__setattr__(
            self, "n_steps", whole_steps(self.t_start, self.t_end, self.dt)
        )


def _cost_at(x: Array, flow: Array, problem: VariationalProblem) -> float:
    """Cost of the state ``x`` whose drift-only flow is ``flow``."""
    prior_term = 0.5 * quadratic_form(x - problem.prior_mean,
                                      problem._prior_prec)
    with np.errstate(over="ignore", invalid="ignore"):
        cost = prior_term + problem.obs_model.neg_log_likelihood(
            flow[-1], problem.observation
        )
    return float(cost) if np.isfinite(cost) else BLOWUP_COST


def variational_cost(x: Array, problem: VariationalProblem) -> float:
    """Prior-plus-terminal-misfit cost; BLOWUP_COST when the flow diverges."""
    x = np.asarray(x, dtype=float)
    flow = rk4_path(problem.model, x, problem.dt, problem.n_steps)
    return _cost_at(x, flow, problem)


def _tangent(
    x: Array, flow: Array, problem: VariationalProblem
) -> tuple[Array, Array]:
    """The cost's gradient at ``x`` and the flow's tangent-linear model Psi,
    from x's drift-only ``flow`` (S + 1, d).  Non-finite where the flow or
    Psi left float64, without a warning."""
    psi = rk4_tangent(problem.model, flow, problem.dt)
    with np.errstate(over="ignore", invalid="ignore"):
        misfit = problem.obs_model.nll_gradient(flow[-1], problem.observation)
        g = problem._prior_prec @ (x - problem.prior_mean) + psi.T @ misfit
    return g, psi


def variational_gradient(x: Array, problem: VariationalProblem) -> Array:
    """The exact gradient of the cost, through the flow's tangent-linear
    model."""
    x = np.asarray(x, dtype=float)
    flow = rk4_path(problem.model, x, problem.dt, problem.n_steps)
    return _tangent(x, flow, problem)[0]


def _projected_gradient(x: Array, g: Array, lower: Array, upper: Array) -> Array:
    """Gradient with components pointing out of the box zeroed."""
    pg = g.copy()
    at_lower = x <= lower + 1e-12
    at_upper = x >= upper - 1e-12
    pg[at_lower] = np.minimum(g[at_lower], 0.0)
    pg[at_upper] = np.maximum(g[at_upper], 0.0)
    return pg


def _step_direction(
    g: Array, psi: Array, problem: VariationalProblem
) -> Array:
    """The Gauss-Newton step, else -g.

    The step solves N p = -g, with N = P + (H Psi)^T C^-1 H Psi the
    Gauss-Newton normal matrix and Psi the flow's tangent-linear model.
    When N is not finite or singular, or p is no descent direction, the
    step is -g.  A non-finite Psi makes N non-finite, which falls back
    without a warning.
    """
    obs = problem.obs_model
    with np.errstate(over="ignore", invalid="ignore"):
        hj = obs.operator @ psi
        normal = problem._prior_prec + hj.T @ obs._noise_prec @ hj
        if not np.all(np.isfinite(normal)):
            return -g
        try:
            p = np.linalg.solve(normal, -g)
        except np.linalg.LinAlgError:
            return -g
        return p if np.all(np.isfinite(p)) and p @ g < 0.0 else -g


@dataclass(frozen=True)
class VariationalResult:
    x_opt: Array
    cost_opt: float
    gradient_norm: float  # infinity norm of the projected gradient
    iterations: int
    cost_evals: int
    status: str  # "gradient" | "cost_decrease" | "max_iterations" | "stalled"
    # drift-only flow of x_opt at every step of the interval, (S + 1, d)
    flow: Array | None = None
    # rows x drift evaluations of the solve's flows (RK4 stages) and
    # tangent passes (3 stages)
    drift_evals: int = 0
    # the solve's one-row flows: the start's and one per trial
    flows: int = 0
    # drift Jacobians of the tangent passes, RK4_STAGES per step
    jacobian_evals: int = 0


# Armijo step lengths 1, 1/2, ..., 2**-39 (the last one >= 1e-12), tried
# in this order
STEP_LENGTHS = 0.5 ** np.arange(40)


def minimize_cost(
    problem: VariationalProblem,
    x0: Array | None = None,
    max_iterations: int = 200,
    gradient_tol: float = 1e-5,
    cost_decrease_tol: float = 1e-9,
) -> VariationalResult:
    """Minimize the variational cost inside the coordinate box.

    Steps along the Gauss-Newton direction, or -g where that fails (see
    _step_direction).  Terminates on a small projected gradient,
    a relative cost decrease below ``cost_decrease_tol`` (measured, or
    predicted: when the full step stays inside the box and its model
    decrease 0.5 |g^T p| / max(|cost|, 1) is below the tolerance, the
    solve stops before flowing it), the iteration cap, or a failed line
    search or a non-finite gradient ("stalled"; a start whose flow leaves
    float64 stalls there); the best iterate seen is always returned and
    its cost never exceeds the cost at the starting point.  Each iterate
    is flowed once, alone, and gets one tangent pass along that flow for
    its gradient and Psi.  ``cost_evals`` counts the cost evaluations
    made, ``flows`` the flows (the start's and one per trial step length;
    each prices one cost), ``drift_evals`` every row flowed times
    RK4_STAGES per step plus three per step of each tangent pass, and
    ``jacobian_evals`` the tangent passes' RK4_STAGES Jacobians per step.

    ``flow`` of the result is the drift-only flow of ``x_opt`` at every
    step of the interval, taken without another flow: from the start's
    flow, or the accepted trial's own.  Pass it to build_pseudo_path.
    """
    model, dt, n_steps = problem.model, problem.dt, problem.n_steps
    lower, upper = problem.lower, problem.upper
    x = np.clip(problem.prior_mean if x0 is None else np.asarray(x0, float),
                lower, upper)

    flow = rk4_path(model, x, dt, n_steps)
    current = _cost_at(x, flow, problem)
    g, psi = _tangent(x, flow, problem)
    evals = tangents = 1
    status = "max_iterations"
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        if not np.all(np.isfinite(g)):
            status = "stalled"
            break
        pg = _projected_gradient(x, g, lower, upper)
        if np.max(np.abs(pg)) < gradient_tol:
            status = "gradient"
            break

        direction = _step_direction(g, psi, problem)
        full = x + direction
        predicted = 0.5 * abs(float(g @ direction)) / max(abs(current), 1.0)
        if (np.array_equal(np.clip(full, lower, upper), full)
                and predicted < cost_decrease_tol):
            status = "cost_decrease"
            break

        accepted = False
        for length in STEP_LENGTHS:
            candidate = np.clip(x + length * direction, lower, upper)
            step = candidate - x
            if not np.any(step):
                break  # projection swallowed the whole step
            trial_flow = rk4_path(model, candidate, dt, n_steps)
            evals += 1
            trial = _cost_at(candidate, trial_flow, problem)
            if trial <= current + 1e-4 * float(g @ step):
                accepted = True
                break
        if not accepted:
            status = "stalled"
            break

        decrease = current - trial
        relative = decrease / max(abs(current), abs(trial), 1.0)
        x, current, flow = candidate, trial, trial_flow
        g, psi = _tangent(x, flow, problem)
        tangents += 1
        if relative < cost_decrease_tol:
            status = "cost_decrease"
            break
    else:
        iterations = max_iterations

    pg = _projected_gradient(x, g, lower, upper)
    return VariationalResult(
        x_opt=x,
        cost_opt=current,
        gradient_norm=float(np.max(np.abs(pg))),
        iterations=iterations,
        cost_evals=evals,
        status=status,
        flow=flow,
        drift_evals=n_steps * (RK4_STAGES * evals + 3 * tangents),
        flows=evals,
        jacobian_evals=RK4_STAGES * n_steps * tangents,
    )


@dataclass(frozen=True)
class PseudoObservationPath:
    """Observations of the deterministic flow from a fitted initial state."""

    times: Array  # (M + 1,)
    states: Array  # (M + 1, d)
    observations: Array  # (M + 1, m)


def build_pseudo_path(
    model: SdeModel,
    obs_model: ObservationModel,
    x0: Array,
    t_start: float,
    t_end: float,
    n_segments: int,
    dt: float,
    flow: Array | None = None,
) -> PseudoObservationPath:
    """Sample the drift-only flow of ``x0`` at segment endpoints.

    With n_segments = 1 only the two interval endpoints appear.  The
    observations are the operator applied to the sampled states, so with an
    identity operator they coincide with the states themselves.

    ``flow``, when given, is that flow already computed at every step from
    ``t_start`` on (at least to ``t_end``), such as the ``flow`` of the
    VariationalResult whose ``x_opt`` is ``x0``; it is sampled instead of
    flowing ``x0`` again.  With a drift that acts row by row, as
    Lorenz-63's does, both give the same states bit for bit.
    """
    total = whole_steps(t_start, t_end, dt)
    if total % n_segments:
        raise ValueError("segments must divide the interval evenly")
    if flow is None:
        flow = rk4_path(model, x0, dt, total)
    elif len(flow) <= total:
        raise ValueError("flow is shorter than the interval")
    states = np.array(flow[: total + 1 : total // n_segments])
    times = t_start + (t_end - t_start) * np.arange(n_segments + 1) / n_segments
    return PseudoObservationPath(
        times=times, states=states, observations=obs_model.observe(states)
    )
