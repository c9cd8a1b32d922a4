"""Deterministic initial-state fit used to build pseudo observation paths.

The cost balances closeness to the current ensemble (through its regularized
covariance) against the terminal misfit of the drift-only flow:

    cost(x) = 0.5 <x - mu, (Sigma + eps I)^-1 (x - mu)>
            + 0.5 <y - h(F(x)), C^-1 (y - h(F(x)))>,

with F the deterministic flow over the observation interval.  The minimizer
seeds the pseudo observation path that guides the nudged filter.

The solver is a box-constrained Gauss-Newton descent, the outer loop of
incremental 4D-Var.  Each step solves (P + J^T H^T C^-1 H J) p = -g, with P
the regularized prior precision, H and C from the observation model and g
the central-difference gradient.  Column i of the flow Jacobian J is
(F(x + h_i e_i) - F(x - h_i e_i)) / 2 h_i, from the endpoints the gradient's
own difference points already flowed.  The step is projected onto a box
around the prior mean and shortened by Armijo backtracking.

The flow costs about as much for one row as for fifty, so each iteration
makes a single batched flow: the clipped candidate at every backtracking
step length, plus the difference points of the leading candidates'
gradients.  The step lengths are then scanned in order, as a sequential
search would try them.  Each candidate's misfit is formed from its own
endpoint alone, because a many-row product with a general observation
operator rounds differently from a one-row product.  With a drift that
acts row by row, as Lorenz-63's does, the iterates are then bit for bit
those of the one-trial-at-a-time search.  Only an accepted step beyond
the look-ahead needs a second flow, for its gradient.  The flow keeps
every step, so the best iterate's trajectory, which the pseudo
observation path samples, needs no flow of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .ensemble import ObservationModel
from .sde import SdeModel, rk4_step, whole_steps

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


def flow_path(model: SdeModel, x: Array, n_steps: int, dt: float) -> Array:
    """Drift-only RK4 state at every step, start included.

    Broadcasts over rows: shape (n_steps + 1,) + x.shape.  A row that blows
    up comes back non-finite, without a warning.
    """
    y = np.asarray(x, dtype=float)
    path = np.empty((n_steps + 1,) + y.shape)
    path[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(n_steps):
            y = rk4_step(model.drift, y, None, dt)
            path[s + 1] = y
    return path


def flow_states(model: SdeModel, x: Array, n_steps: int, dt: float) -> Array:
    """Drift-only RK4 endpoint after ``n_steps``; broadcasts over rows.

    A row that blows up comes back non-finite, without a warning.
    """
    return flow_path(model, x, n_steps, dt)[-1]


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
        object.__setattr__(self, "_regularized_cov", reg)
        object.__setattr__(self, "lower", mean - spread)
        object.__setattr__(self, "upper", mean + spread)
        object.__setattr__(
            self, "n_steps", whole_steps(self.t_start, self.t_end, self.dt)
        )


def _flow_path(states: Array, problem: VariationalProblem) -> Array:
    """Drift-only flow (S + 1, B, d) of (B, d) states over the interval;
    blow-ups stay non-finite."""
    return flow_path(problem.model, states, problem.n_steps, problem.dt)


def _flow_ends(states: Array, problem: VariationalProblem) -> Array:
    """Drift-only flow endpoints of (B, d) states; blow-ups stay non-finite."""
    return flow_states(problem.model, states, problem.n_steps, problem.dt)


def _costs_at(states: Array, ends: Array, problem: VariationalProblem) -> Array:
    """Cost of (B, d) states whose flow endpoints are ``ends``, shape (B,)."""
    dx = states - problem.prior_mean
    prior_term = 0.5 * np.einsum("bi,ij,bj->b", dx, problem._prior_prec, dx)
    with np.errstate(over="ignore", invalid="ignore"):
        misfit = np.asarray(
            problem.obs_model.neg_log_likelihood(ends, problem.observation)
        )
    cost = prior_term + misfit
    return np.where(np.isfinite(cost), cost, BLOWUP_COST)


def _cost_batch(states: Array, problem: VariationalProblem) -> Array:
    """Cost at a batch of candidate initial states, shape (B,)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    return _costs_at(states, _flow_ends(states, problem), problem)


def variational_cost(x: Array, problem: VariationalProblem) -> float:
    """Prior-plus-terminal-misfit cost; BLOWUP_COST when the flow diverges."""
    return float(_cost_batch(np.asarray(x, float)[None, :], problem)[0])


def _gradient_points(x: Array) -> tuple[Array, Array]:
    """The 2d central-difference points around ``x`` and their steps h."""
    h = np.maximum(1e-6, 1e-8 * np.abs(x))
    return np.concatenate([x + np.diag(h), x - np.diag(h)], axis=0), h


def _central_difference(costs: Array, h: Array) -> Array:
    d = h.shape[0]
    return (costs[:d] - costs[d:]) / (2.0 * h)


def variational_gradient(x: Array, problem: VariationalProblem) -> Array:
    """Central-difference gradient, step max(1e-6, 1e-8 |x_i|) per axis."""
    points, h = _gradient_points(np.asarray(x, dtype=float))
    return _central_difference(_cost_batch(points, problem), h)


def _projected_gradient(x: Array, g: Array, lower: Array, upper: Array) -> Array:
    """Gradient with components pointing out of the box zeroed."""
    pg = g.copy()
    at_lower = x <= lower + 1e-12
    at_upper = x >= upper - 1e-12
    pg[at_lower] = np.minimum(g[at_lower], 0.0)
    pg[at_upper] = np.maximum(g[at_upper], 0.0)
    return pg


def _gauss_newton_direction(
    g: Array, ends: Array, h: Array, problem: VariationalProblem
) -> Array:
    """Solve (P + J^T H^T C^-1 H J) p = -g; -g when p is unusable.

    J is the central-difference flow Jacobian from the flow endpoints
    ``ends`` of the 2d gradient points with steps ``h``.  A blown-up
    endpoint makes J non-finite, which falls back to -g without a warning.
    """
    d = h.shape[0]
    obs = problem.obs_model
    with np.errstate(over="ignore", invalid="ignore"):
        hj = obs.operator @ ((ends[:d] - ends[d:]) / (2.0 * h)[:, None]).T
        normal = problem._prior_prec + hj.T @ obs._noise_prec @ hj
        if not np.all(np.isfinite(normal)):
            return -g
        try:
            p = np.linalg.solve(normal, -g)
        except np.linalg.LinAlgError:  # singular normal matrix
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


# Armijo step lengths 1, 1/2, ..., 2**-39 (the last one >= 1e-12), tried
# in this order
STEP_LENGTHS = 0.5 ** np.arange(40)
# leading step lengths whose gradient points share the trials' flow
GRADIENT_LOOKAHEAD = 2


def minimize_cost(
    problem: VariationalProblem,
    x0: Array | None = None,
    max_iterations: int = 200,
    gradient_tol: float = 1e-5,
    cost_decrease_tol: float = 1e-9,
) -> VariationalResult:
    """Minimize the variational cost inside the coordinate box.

    Steps along the Gauss-Newton direction, or along -g when that is not
    a finite descent direction.  Terminates on a small projected gradient,
    a relative cost decrease below ``cost_decrease_tol``, the iteration
    cap, or a failed line search ("stalled"); the best iterate seen is
    always returned and its cost never exceeds the cost at the starting
    point.  ``cost_evals`` counts the evaluations a one-trial-at-a-time
    line search would make, not the rows flowed ahead of need.

    ``flow`` of the result is the drift-only flow of ``x_opt`` at every
    step of the interval, taken without another flow: from the start's
    flow, or from the accepted candidate's row of the line-search flow
    (also when the step was accepted beyond the look-ahead).  Pass it to
    build_pseudo_path.

    The gradient is a central difference with h = max(1e-6, 1e-8 |x_i|),
    whose rounding noise is near 1e-8 at costs of order 1-10.  A
    ``gradient_tol`` below about 1e-7 is under that noise floor, so such a
    solve may not stop on "gradient" and ends on "cost_decrease" instead.
    """
    lower, upper = problem.lower, problem.upper
    x = np.clip(problem.prior_mean if x0 is None else np.asarray(x0, float),
                lower, upper)
    d = x.shape[0]
    n_trials = STEP_LENGTHS.shape[0]

    # the start's cost and gradient share one flow
    points, h = _gradient_points(x)
    rows = np.concatenate([x[None, :], points])
    path = _flow_path(rows, problem)
    flow = path[:, 0]
    ends = path[-1]
    current = float(_costs_at(rows[:1], ends[:1], problem)[0])
    point_ends = ends[1:]
    g = _central_difference(_costs_at(points, point_ends, problem), h)
    evals = 1 + 2 * d
    status = "max_iterations"
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        pg = _projected_gradient(x, g, lower, upper)
        if np.max(np.abs(pg)) < gradient_tol:
            status = "gradient"
            break

        direction = _gauss_newton_direction(g, point_ends, h, problem)

        # one flow for every trial of the backtracking search, plus the
        # gradient points of the leading trials; the scan below then takes
        # the same decisions in the same order as trying them one by one
        candidates = np.clip(
            x + STEP_LENGTHS[:, None] * direction, lower, upper
        )
        ahead = [_gradient_points(c) for c in candidates[:GRADIENT_LOOKAHEAD]]
        rows = np.concatenate([candidates] + [p for p, _ in ahead])
        path = _flow_path(rows, problem)
        ends = path[-1]

        accepted = -1
        for k in range(n_trials):
            step = candidates[k] - x
            if not np.any(step):
                break  # projection swallowed the whole step
            evals += 1
            trial = float(_costs_at(
                candidates[k : k + 1], ends[k : k + 1], problem
            )[0])
            if trial <= current + 1e-4 * float(g @ step):
                accepted = k
                break
        if accepted < 0:
            status = "stalled"
            break

        candidate = candidates[accepted]
        evals += 2 * d
        if accepted < GRADIENT_LOOKAHEAD:
            points, h = ahead[accepted]
            lo = n_trials + 2 * d * accepted
            point_ends = ends[lo : lo + 2 * d]
        else:
            points, h = _gradient_points(candidate)
            point_ends = _flow_ends(points, problem)
        new_g = _central_difference(_costs_at(points, point_ends, problem), h)

        decrease = current - trial
        relative = decrease / max(abs(current), abs(trial), 1.0)
        x, current, g = candidate, trial, new_g
        flow = path[:, accepted]
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
        flow=flow.copy(),
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
        flow = flow_path(model, x0, total, dt)
    elif len(flow) <= total:
        raise ValueError("flow is shorter than the interval")
    states = np.array(flow[: total + 1 : total // n_segments])
    times = t_start + (t_end - t_start) * np.arange(n_segments + 1) / n_segments
    return PseudoObservationPath(
        times=times, states=states, observations=obs_model.observe(states)
    )
