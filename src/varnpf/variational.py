"""Deterministic initial-state fit used to build pseudo observation paths.

The cost balances closeness to the current ensemble (through its regularized
covariance) against the terminal misfit of the drift-only flow:

    J(x) = 0.5 <x - mu, (Sigma + eps I)^-1 (x - mu)>
         + 0.5 <y - h(F(x)), C^-1 (y - h(F(x)))>,

with F the deterministic flow over the observation interval.  The minimizer
seeds the pseudo observation path that guides the nudged filter.

The solver is a self-contained bounded limited-memory quasi-Newton descent:
two-loop recursion over recent curvature pairs, gradient projection onto a
coordinate box around the prior mean, Armijo backtracking.  Gradients come
from central finite differences, which keeps the cost function free to
contain an arbitrary flow map.

The flow costs about as much for one row as for fifty, so each iteration
makes a single batched flow: the clipped candidate at every backtracking
step length, plus the difference points of the leading candidates'
gradients.  The step lengths are then scanned in order, as a sequential
search would try them.  Each candidate's misfit is formed from its own
endpoint alone, because a many-row product with a general observation
operator rounds differently from a one-row product.  With a drift that
acts row by row, as Lorenz-63's does, the iterates are then bit for bit
those of the one-trial-at-a-time search.  Only an accepted step beyond
the look-ahead needs a second flow, for its gradient.
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


def flow_states(model: SdeModel, x: Array, n_steps: int, dt: float) -> Array:
    """Drift-only RK4 endpoint after ``n_steps``; broadcasts over rows.

    A row that blows up comes back non-finite, without a warning.
    """
    y = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            y = rk4_step(model.drift, y, None, dt)
    return y


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


def _two_loop_direction(g: Array, pairs: list[tuple[Array, Array]]) -> Array:
    """Limited-memory inverse-Hessian product, scaled by the latest pair."""
    q = g.copy()
    coeffs = []
    for s, y in reversed(pairs):
        rho = 1.0 / float(y @ s)
        alpha = rho * float(s @ q)
        q -= alpha * y
        coeffs.append((alpha, rho, s, y))
    if pairs:
        s, y = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for alpha, rho, s, y in reversed(coeffs):
        beta = rho * float(y @ q)
        q += (alpha - beta) * s
    return q


@dataclass(frozen=True)
class VariationalResult:
    x_opt: Array
    cost_opt: float
    gradient_norm: float  # infinity norm of the projected gradient
    iterations: int
    cost_evals: int
    status: str  # "gradient" | "cost_decrease" | "max_iterations" | "stalled"


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
    memory: int = 10,
) -> VariationalResult:
    """Minimize the variational cost inside the coordinate box.

    Terminates on a small projected gradient, a relative cost decrease
    below ``cost_decrease_tol``, the iteration cap, or a failed line
    search ("stalled"); the best iterate seen is always returned and its
    cost never exceeds the cost at the starting point.  ``cost_evals``
    counts the evaluations a one-trial-at-a-time line search would make,
    not the rows flowed ahead of need.
    """
    lower, upper = problem.lower, problem.upper
    x = np.clip(problem.prior_mean if x0 is None else np.asarray(x0, float),
                lower, upper)
    d = x.shape[0]
    n_trials = STEP_LENGTHS.shape[0]

    # the start's cost and gradient share one flow
    points, h = _gradient_points(x)
    rows = np.concatenate([x[None, :], points])
    ends = _flow_ends(rows, problem)
    current = float(_costs_at(rows[:1], ends[:1], problem)[0])
    g = _central_difference(_costs_at(points, ends[1:], problem), h)
    evals = 1 + 2 * d
    pairs: list[tuple[Array, Array]] = []
    status = "max_iterations"
    iterations = 0
    pg = _projected_gradient(x, g, lower, upper)

    for iterations in range(1, max_iterations + 1):
        pg = _projected_gradient(x, g, lower, upper)
        if np.max(np.abs(pg)) < gradient_tol:
            status = "gradient"
            break

        direction = -_two_loop_direction(g, pairs)
        if float(direction @ g) >= 0.0:
            direction = -g  # curvature information unusable; fall back

        # one flow for every trial of the backtracking search, plus the
        # gradient points of the leading trials; the scan below then takes
        # the same decisions in the same order as trying them one by one
        candidates = np.clip(
            x + STEP_LENGTHS[:, None] * direction, lower, upper
        )
        ahead = [_gradient_points(c) for c in candidates[:GRADIENT_LOOKAHEAD]]
        rows = np.concatenate([candidates] + [p for p, _ in ahead])
        ends = _flow_ends(rows, problem)

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
            new_g = _central_difference(
                _costs_at(points, ends[lo : lo + 2 * d], problem), h
            )
        else:
            new_g = variational_gradient(candidate, problem)
        s = candidate - x
        y = new_g - g
        if float(s @ y) > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y))
            if len(pairs) > memory:
                pairs.pop(0)

        decrease = current - trial
        relative = decrease / max(abs(current), abs(trial), 1.0)
        x, current, g = candidate, trial, new_g
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
) -> PseudoObservationPath:
    """Sample the drift-only flow of ``x0`` at segment endpoints.

    With n_segments = 1 only the two interval endpoints appear.  The
    observations are the operator applied to the sampled states, so with an
    identity operator they coincide with the states themselves.
    """
    total = whole_steps(t_start, t_end, dt)
    if total % n_segments:
        raise ValueError("segments must divide the interval evenly")
    per = total // n_segments
    x = np.asarray(x0, dtype=float)
    states = np.empty((n_segments + 1, x.shape[-1]))
    states[0] = x
    for seg in range(n_segments):
        x = flow_states(model, x, per, dt)
        states[seg + 1] = x
    times = t_start + (t_end - t_start) * np.arange(n_segments + 1) / n_segments
    return PseudoObservationPath(
        times=times, states=states, observations=obs_model.observe(states)
    )
