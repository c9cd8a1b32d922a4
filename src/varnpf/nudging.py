"""Feedback nudging from Monte Carlo estimates of a terminal value function.

For a terminal misfit g (a negative log-likelihood, so exp(-g) <= 1) the
value function of the uncontrolled diffusion started at (t, x) is

    phi(t, x) = E[ exp(-g(eta_T, y)) ],

and its state gradient can be estimated along the same realizations,

    grad phi(t, x) = -E[ exp(-g(eta_T, y)) Psi(t -> T) grad g(eta_T, y) ],

with Psi the fundamental matrix of the drift linearized along eta.  The
feedback control is u = (1/phi) R grad phi with R the diffusion matrix,
and applying it tilts the path measure, which the weights must repay
through the change-of-measure factor accumulated by rn_log_increment.
"""

from __future__ import annotations

import numbers
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diagnostics import CycleDiagnostics
# perfbench/layertrace.py still looks bayes_reweight and systematic_resample
# up in this module
from .ensemble import (  # noqa: F401
    ObservationModel,
    ParticleEnsemble,
    bayes_reweight,
    systematic_resample,
)
from .bootstrap_pf import RunContext, _close_cycle
from .sde import (
    RK4_STAGES,
    SdeModel,
    advect_particles,
    pairwise_product,
    rk4_path,
    rk4_propagators,
    whole_steps,
)
from .seeding import child_keys, key_generator, stream_key
# perfbench/layertrace.py still looks stream_generator up in this module
from .seeding import stream_generator  # noqa: F401

Array = np.ndarray

# phi is floored here when every realization's likelihood underflows;
# callers treat a floored estimate as a rollback.
PHI_FLOOR = 1e-300

# batches each later round of a control solve draws ahead, per unsettled
# solve (fewer near max_batches)
CONTROL_LOOKAHEAD = 3


def check_int(value, name: str, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) of at
    least ``minimum``, so a bad count fails at load, not inside a run."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def check_real(value, name: str) -> None:
    """Raise ValueError unless ``value`` is a real number (not a bool), so
    a number given as a string fails at load with its name instead of
    inside a comparison."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, not {value!r}")


def check_bool(value, name: str) -> None:
    """Raise ValueError unless ``value`` is a bool, so a switch given as a
    string or a number fails at load instead of reading as truthy."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, not {value!r}")


@dataclass(frozen=True)
class NudgingConfig:
    """Knobs for the batch-adaptive control solver and the rollback rule."""

    subintervals: int = 5
    batch_size: int = 2
    tolerance: float = 0.1
    max_batches: int = 50
    rollback_log_threshold: float = -2.0

    def __post_init__(self):
        for name in ("subintervals", "batch_size", "max_batches"):
            check_int(getattr(self, name), name, 1)
        for name in ("tolerance", "rollback_log_threshold"):
            check_real(getattr(self, name), name)
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if np.isnan(self.rollback_log_threshold):
            raise ValueError("rollback_log_threshold must not be nan")


@dataclass(frozen=True)
class ControlEstimate:
    """Output of one adaptive control solve."""

    control: Array
    phi: float
    grad_phi: Array
    realizations_used: int
    converged: bool
    phi_floored: bool = False

    def __post_init__(self):
        if not self.phi > 0.0:
            raise ValueError("phi must be positive")


def _squared_norms(v: Array) -> Array:
    """<v, v> for each vector along the last axis of ``v``.

    A stacked one-by-one product, so each value rounds exactly as ``v @ v``
    of that vector alone, and its square root as ``np.linalg.norm``
    (``norm(v, axis=-1)`` and a two-operand einsum do not).
    """
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _propagate_with_sensitivity(
    model: SdeModel, x: Array, increments: Array, dt: float
) -> tuple[Array, Array]:
    """Advance realizations together with the linearized-drift fundamental
    matrix Psi' = J(eta_s) Psi, Psi(0) = I, both by RK4.

    increments: (k, b, S, d), k batches of b realizations each.  x is one
    (d,) start for every row or a (k * b, d) start per row, batch after
    batch, so batches of different solves can share the pass.  The
    midpoint Jacobian uses the chord midpoint of the step, the endpoint
    Jacobian the post-noise state, so Psi follows the realized path rather
    than the drift-only flow.  The realizations run first (by rk4_path),
    and their (S + 1, k * b, d) path is kept, so the Jacobians take two
    calls per pass: one at every path state, which serves as one step's end
    and the next step's start, and one at every chord midpoint.  RK4 is
    linear in Psi, so each step multiplies it by a propagator A_s, with
    stage Jacobians (J1, J2, J3, J4) = (end, midpoint, midpoint, next end);
    all S are formed at once (sde.rk4_propagators) and multiplied pairwise
    (sde.pairwise_product): the recurrence's Psi rounded in another order.
    The noise term is a matrix product, which rounds differently for
    different row counts; one stacked matmul over the increments
    multiplies each (b, d) batch on its own, so it rounds as a batch alone
    does.  When the drift and its Jacobian act row by row (as the
    Lorenz-63 ones do), each batch's realizations come out bitwise as if
    propagated alone.  Returns endpoints (k, b, d) and fundamental
    matrices (k, b, d, d).
    """
    k, b, n_steps, d = increments.shape
    # one stacked product over the (S, k, b, d) increments: each (b, d)
    # batch is still multiplied on its own
    noise = np.matmul(
        increments.transpose(2, 0, 1, 3), model.dispersion.T
    ).reshape(n_steps, k * b, d)
    path = rk4_path(
        model, np.broadcast_to(np.asarray(x, dtype=float), (k * b, d)), dt,
        n_steps, noise=noise,
    )
    # blown-up realizations go non-finite here and are dropped by
    # _combine_terms, so their overflow is not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        ends = model.drift_jacobian(path)
        mids = model.drift_jacobian(0.5 * (path[:-1] + path[1:]))
        steps = rk4_propagators(ends[:-1], mids, mids, ends[1:], dt)
        # freed before the product allocates its levels
        del ends, mids
        fund = pairwise_product(steps)
    return path[-1].reshape(k, b, d), fund.reshape(k, b, d, d)


def _misfit_terms(
    model: SdeModel,
    obs_model: ObservationModel,
    x: Array,
    target_obs: Array,
    increments: Array,
    dt: float,
) -> tuple[Array, Array]:
    """Per-realization (g, Psi grad g) pairs for the estimator.

    x and increments (k, b, S, d) as for _propagate_with_sensitivity.  The
    observation model's products round row by row, so one call covers all
    k * b endpoints.  Returns g (k * b,) and terms (k * b, d), batch after
    batch.
    """
    ends, fund = _propagate_with_sensitivity(model, x, increments, dt)
    d = ends.shape[-1]
    ends = ends.reshape(-1, d)
    # blown-up endpoints are dropped by _combine_terms
    with np.errstate(over="ignore", invalid="ignore"):
        g = obs_model.neg_log_likelihood(ends, target_obs)
        gg = obs_model.nll_gradient(ends, target_obs)
        return g, np.einsum("nij,nj->ni", fund.reshape(-1, d, d), gg)


def _combine_terms(
    g: Array, term: Array, diffusion: Array
) -> tuple[Array, Array, Array, Array]:
    """Turn accumulated realization terms into (phi, grad_phi, control,
    floored), for one solve or a stack of them.

    g: (..., r) and term: (..., r, d), r realizations per solve; returns
    phi (...), grad_phi (..., d), control (..., d) and floored (...).
    Means are taken with the smallest misfit factored out, so the control
    ratio grad_phi / phi stays well defined even when phi itself underflows.
    Realizations that blew up (non-finite g or term) contribute nothing.
    A solve with no usable realization, or whose phi underflows, is
    floored: phi = PHI_FLOOR and a zero control.  Every reduction runs
    along one solve's own axis, so a solve rounds the same alone as in a
    stack.  A stack whose realizations are all finite skips the masks,
    which would select every value unchanged.
    """
    usable = None
    if g.shape[-1] and np.isfinite(g).all() and np.isfinite(term).all():
        g_min = g.min(axis=-1)
        s = np.exp(-(g - g_min[..., None]))
        a = s.mean(axis=-1)
        b = (s[..., None] * term).mean(axis=-2)
    else:
        ok = np.isfinite(g) & np.all(np.isfinite(term), axis=-1)
        usable = ok.any(axis=-1)
        g_min = np.where(usable, np.where(ok, g, np.inf).min(axis=-1), 0.0)
        s = np.where(
            ok, np.exp(-(np.where(ok, g, 0.0) - g_min[..., None])), 0.0
        )
        a = np.where(usable, s.mean(axis=-1), 1.0)
        b = (s[..., None] * np.where(ok[..., None], term, 0.0)).mean(axis=-2)
    scale = np.exp(-g_min)
    phi = scale * a
    grad = -scale[..., None] * b
    control = (diffusion @ (-(b / a[..., None]))[..., None])[..., 0]
    floored = phi == 0.0
    if usable is not None:
        grad = np.where(usable[..., None], grad, 0.0)
        floored |= ~usable
    return (
        np.where(floored, PHI_FLOOR, phi),
        grad,
        np.where(floored[..., None], 0.0, control),
        floored,
    )


def estimate_phi_grad(
    model: SdeModel,
    obs_model: ObservationModel,
    t: float,
    x: Array,
    horizon_end: float,
    target_obs: Array,
    n_realizations: int,
    rng: np.random.Generator,
    dt: float,
) -> tuple[float, Array]:
    """Monte Carlo estimate of (phi, grad phi) at one state.

    Draws ``n_realizations`` uncontrolled realizations over
    [t, horizon_end] and averages.  phi is floored at PHI_FLOOR (and the
    caller should fall back to zero control) only when every realization's
    exp(-g) underflows.
    """
    n_steps = whole_steps(t, horizon_end, dt)
    x = np.asarray(x, dtype=float)
    increments = rng.normal(
        0.0, np.sqrt(dt), size=(1, n_realizations, n_steps, x.shape[-1])
    )
    g, term = _misfit_terms(model, obs_model, x, target_obs, increments, dt)
    phi, grad, _, _ = _combine_terms(g, term, model.diffusion)
    return float(phi), grad


def feedback_control(phi: float, grad_phi: Array, diffusion: Array) -> Array:
    """u = (1/phi) R grad phi."""
    if not phi > 0.0:
        raise ValueError("phi must be positive")
    return np.asarray(diffusion, dtype=float) @ (
        np.asarray(grad_phi, dtype=float) / phi
    )


def adaptive_control(
    model: SdeModel,
    obs_model: ObservationModel,
    t: float,
    x: Array,
    horizon_end: float,
    target_obs: Array,
    config: NudgingConfig,
    rng: np.random.Generator,
    dt: float,
    first_pass: ControlEstimate | None = None,
) -> ControlEstimate:
    """Grow the realization set batch by batch until the control settles.

    After each batch of ``batch_size`` new realizations the control is
    recomputed from every realization drawn so far, normalized by the
    drift magnitude |f(x)| at the solve point, and compared with the
    previous batch count's value; the solve stops when the Euclidean
    change drops to ``tolerance`` or the batch budget runs out.  The
    normalization keeps one tolerance meaningful across regions where the
    drift varies by orders of magnitude.

    A standalone call is a one-row call of _solve_controls, drawing every
    batch from ``rng``, which it leaves past the spare batches of the
    solve's last round.  ``first_pass`` is the solve's settled estimate
    when a caller has already formed it together with other solves:
    _solve_controls returns each of its solves through this call, which
    then hands the estimate back unchanged.
    """
    if first_pass is not None:
        return first_pass
    return _solve_controls(
        model, obs_model, t, np.asarray(x, dtype=float)[None], horizon_end,
        target_obs, config, [rng], dt,
    )[0][0]


def _solve_controls(
    model: SdeModel,
    obs_model: ObservationModel,
    t: float,
    states: Array,
    horizon_end: float,
    target_obs: Array,
    config: NudgingConfig,
    rngs: Sequence[np.random.Generator],
    dt: float,
) -> tuple[list[ControlEstimate], dict]:
    """One adaptive_control solve per row of ``states``, each drawing from
    its own generator in ``rngs``, all of them in lockstep rounds.

    Every round draws each unsettled solve's batches in one ``normal``
    call, which gives the bits of one call per batch.  Since convergence
    compares two estimates, no solve stops before its second batch (unless
    ``max_batches`` is 1), so round 0 draws min(2, max_batches) batches per
    solve; each later round looks ahead by min(CONTROL_LOOKAHEAD,
    max_batches - drawn) batches.  Each round's batches propagate in one
    pass, each row from its own solve point.  The round's batch counts are
    then scanned in order, as a one-batch-at-a-time solve would meet them:
    at each count the solves still running hold the same number of
    batches, so their estimates, the normalized controls and the
    variations from the previous count are formed as arrays.  A solve
    settles once its variation is within ``tolerance`` or its batch budget
    is spent; the batches its round drew after that count are spare:
    propagated, never used, and its generator stays advanced past them.

    Each solve therefore uses the batches a one-batch-at-a-time solve
    would draw from its generator, each batch propagates bitwise as if
    alone, and every reduction runs along one solve's own axis (the
    variation's root of _squared_norms rounds as np.linalg.norm), so each
    solve's estimate and generator state do not depend on which solves
    share its rounds (given a drift that acts row by row, as Lorenz-63's
    does).  Each estimate returns through its own adaptive_control call.

    Also returns the solves' work as CycleDiagnostics counters:
    ``realization_steps`` of the realizations used and
    ``spare_realization_steps`` of the spare ones, ``control_passes``, and
    ``drift_evals`` (RK4_STAGES per step of every propagated realization,
    and one per solve for its denominator) and ``jacobian_evals`` (2S + 1
    per propagated realization of S steps: its path states and chord
    midpoints).  No rows means no work.
    """
    if not rngs:
        return [], {}
    x = np.asarray(states, dtype=float)
    n, d = x.shape
    b = config.batch_size
    n_steps = whole_steps(t, horizon_end, dt)
    scale = np.sqrt(dt)
    denom = np.sqrt(_squared_norms(model.drift(x)))
    # a solve at an equilibrium falls back to the raw control magnitude
    denom = np.where(denom < 1e-12, 1.0, denom)[:, None]
    phi = np.empty(n)
    grad = np.empty((n, d))
    control = np.empty((n, d))
    floored = np.empty(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    batches = np.empty(n, dtype=int)
    passes = spare = 0

    active = np.arange(n)
    g = np.empty((n, 0))
    term = np.empty((n, 0, d))
    drawn = 0
    k = min(2, config.max_batches)
    prev = None
    while active.size:
        increments = np.empty((active.size, k, b, n_steps, d))
        for r, i in enumerate(active.tolist()):
            increments[r] = rngs[i].normal(
                0.0, scale, size=(k, b, n_steps, d)
            )
        g_new, term_new = _misfit_terms(
            model, obs_model, np.repeat(x[active], k * b, axis=0),
            target_obs, increments.reshape(-1, b, n_steps, d), dt,
        )
        passes += 1
        g = np.concatenate([g, g_new.reshape(-1, k * b)], axis=1)
        term = np.concatenate([term, term_new.reshape(-1, k * b, d)], axis=1)
        for q in range(k):
            drawn += 1
            est = _combine_terms(
                g[:, : drawn * b], term[:, : drawn * b], model.diffusion
            )
            normalized = est[2] / denom[active]
            settled = np.full(active.size, drawn >= config.max_batches)
            if prev is not None:
                deltas = np.sqrt(_squared_norms(normalized - prev))
                converged[active] = deltas <= config.tolerance
                settled |= converged[active]
            done = active[settled]
            phi[done], grad[done], control[done], floored[done] = (
                part[settled] for part in est
            )
            batches[done] = drawn
            spare += (k - 1 - q) * done.size
            keep = ~settled
            active, g, term = active[keep], g[keep], term[keep]
            prev = normalized[keep]
            if not active.size:
                break
        k = min(CONTROL_LOOKAHEAD, config.max_batches - drawn)

    used = int(batches.sum()) * b
    work = {
        "realization_steps": used * n_steps,
        "spare_realization_steps": spare * b * n_steps,
        "drift_evals": RK4_STAGES * (used + spare * b) * n_steps + n,
        "jacobian_evals": (2 * n_steps + 1) * (used + spare * b),
        "control_passes": passes,
    }

    return [
        adaptive_control(
            model, obs_model, t, x[i], horizon_end, target_obs, config,
            rngs[i], dt,
            first_pass=ControlEstimate(
                control=control[i],
                phi=float(phi[i]),
                grad_phi=grad[i],
                realizations_used=int(batches[i]) * b,
                converged=bool(converged[i]),
                phi_floored=bool(floored[i]),
            ),
        )
        for i in range(n)
    ], work


def rn_log_increment(
    v_values: Array, increments: Array, dt: float
) -> float | Array:
    """Log change-of-measure contribution -sum <v, dW> - 0.5 sum |v|^2 dt.

    ``increments`` (..., S, d) holds S steps, with any leading axes for
    several particles.  ``v_values`` holds v at the left endpoint of each
    step, one row per increment, or one (..., d) vector held over all S
    steps.  For a constant v this is -<v, W> - 0.5 |v|^2 S dt, whose
    exponential has expectation one under the uncontrolled measure.
    Returns a float for one particle, else an array over the leading axes;
    each particle's sums run over its own S * d products, so it rounds
    the same alone as in a stack.
    """
    increments = np.asarray(increments, dtype=float)
    v = np.asarray(v_values, dtype=float)
    if v.ndim < increments.ndim:
        v = v[..., None, :]  # held over the steps
    v = np.broadcast_to(v, increments.shape)
    *lead, n_steps, d = increments.shape
    flat = (*lead, n_steps * d)
    total = (
        -(v * increments).reshape(flat).sum(axis=-1)
        - 0.5 * (v * v).reshape(flat).sum(axis=-1) * dt
    )
    return float(total) if total.ndim == 0 else total


def nudging_bm_ratio(u: Array, dW: Array, dt: float, dispersion: Array) -> Array:
    """Displacement ratio ||u dt|| / ||sigma dW|| for integrator steps.

    ``u`` (..., d) is one control per leading index and ``dW`` its single
    increment (..., d) or a stack (..., S, d); the ratio has shape (...,)
    respectively (..., S).  A vanishing denominator (a probability-zero
    event, or zero dispersion) is recorded as nan, i.e. missing.
    """
    u = np.asarray(u, dtype=float)
    dW = np.asarray(dW, dtype=float)
    numerator = np.sqrt(_squared_norms(u)) * dt
    if dW.ndim > u.ndim:
        numerator = numerator[..., None]
    denominator = np.linalg.norm(
        dW @ np.asarray(dispersion, dtype=float).T, axis=-1
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denominator > 0.0, numerator / denominator, np.nan)


def rollback_test(candidate_log_increment: float, config: NudgingConfig) -> bool:
    """Should a proposed subinterval control be dropped before application?

    The candidate is the deterministic part of the log change-of-measure
    increment, -0.5 |v|^2 dt_sub: the expected weight cost of nudging.
    True means roll the control back to zero.  A threshold of +inf forces
    rollback everywhere (pure bootstrap behaviour), -inf never rolls back.
    """
    return candidate_log_increment < config.rollback_log_threshold


def _nudged_sweep(
    ensemble: ParticleEnsemble,
    ctx: RunContext,
    k: int,
    target_fn: Callable[[int, Array, Array], tuple[Array, float, dict, dict]],
    reweight_obs: Array,
) -> tuple[ParticleEnsemble, CycleDiagnostics]:
    """Subinterval loop of cycle k, shared by the nudged cycles.

    Subinterval j advects along its slice of the cycle's increments.
    ``target_fn(j, states, weights) -> (target_obs, horizon_end,
    counters, timings)`` is consulted once per subinterval, after the
    increments are checked and before the control solves, so a guided
    cycle can refresh its target mid-interval; the sweep sums the
    CycleDiagnostics counters and timings it reports (a fit's work and
    seconds; empty when it did none).  ``reweight_obs`` is read only at
    the terminal reweight, so it may be a view of a target that target_fn
    fills.  Each live particle solves for its control with
    adaptive_control, drawing from its own stream (see RunContext); one
    child_keys call derives every particle's and subinterval's key, and a
    key_generator per solve seeds its Philox.  A subinterval's solves advance together,
    one propagation pass per round (see _solve_controls), and the sweep
    sums the work they report, so ``drift_evals`` counts the rows times
    drift evaluations of the guidance, the solves and the advection.  The
    rollback candidates -0.5 |sigma^T grad phi / phi|^2 dt_sub, step
    ratios and change-of-measure increments of all live particles are
    arrays, each particle rounding as it would alone; each solve that did
    not floor still meets its own rollback_test.  Controls are held
    constant within a subinterval; the weights repay each applied control
    through the accumulated change-of-measure factor at the terminal
    reweight, in bootstrap_pf._close_cycle, which also adds the
    advection's drift evaluations and keeps the cycle's work when it
    fails.
    """
    increments = ctx.increments(k, ensemble)
    n, n_steps, d = increments.shape
    model, config, dt = ctx.model, ctx.nudging, ctx.dt
    m_sub = config.subintervals
    if n_steps % m_sub:
        raise ValueError("steps per interval must divide into subintervals")
    sub_steps = n_steps // m_sub
    dt_sub = sub_steps * dt
    t_start = ctx.bounds(k)[0]
    root = ctx.control
    keys = child_keys(
        [stream_key(root.entropy, *root.spawn_key, k, i) for i in range(n)],
        m_sub,
    )

    states = np.array(ensemble.states)
    step_states = np.empty((n_steps + 1, n, d))
    step_states[0] = states
    log_rn = np.zeros(n)
    proposed = np.zeros((m_sub, n, d))
    applied = np.zeros((m_sub, n, d))
    rollbacks = np.zeros((m_sub, n), dtype=bool)
    floors = np.zeros((m_sub, n), dtype=bool)
    batches_used = np.zeros((m_sub, n), dtype=int)
    solver_converged = np.zeros((m_sub, n), dtype=bool)
    step_ratio = np.full((n_steps, n), np.nan)
    counters, timings = Counter(), Counter()  # solves' and target_fn's work
    alive = np.ones(n, dtype=bool)

    for j in range(m_sub):
        t_j = t_start + j * dt_sub
        target_obs, horizon_end, guidance, seconds = target_fn(
            j, states, ensemble.weights
        )
        counters.update(guidance)
        timings.update(seconds)

        sub_controls = np.zeros((n, d))
        sub_v = np.zeros((n, d))
        tic_c = time.perf_counter()
        live = np.flatnonzero(alive)
        estimates, work = _solve_controls(
            model, ctx.obs_model, t_j, states[live], horizon_end, target_obs,
            config, [key_generator(keys[i, j]) for i in live.tolist()], dt,
        )
        counters.update(work)
        if estimates:
            proposed[j, live] = [est.control for est in estimates]
            batches_used[j, live] = [
                est.realizations_used // config.batch_size
                for est in estimates
            ]
            solver_converged[j, live] = [est.converged for est in estimates]
            floors[j, live] = [est.phi_floored for est in estimates]
        rollbacks[j] = floors[j]  # an underflowed value function: no nudge
        solved = [est for est in estimates if not est.phi_floored]
        if solved:
            kept = live[~floors[j, live]]
            grad_over_phi = (
                np.array([est.grad_phi for est in solved])
                / np.array([est.phi for est in solved])[:, None]
            )
            v = (model.dispersion.T @ grad_over_phi[:, :, None])[:, :, 0]
            candidates = -0.5 * _squared_norms(v) * dt_sub
            rejected = np.array(
                [rollback_test(c, config) for c in candidates.tolist()]
            )
            rollbacks[j, kept[rejected]] = True
            nudged = kept[~rejected]
            sub_controls[nudged] = proposed[j, nudged]
            sub_v[nudged] = v[~rejected]
        applied[j] = sub_controls
        timings["control"] += time.perf_counter() - tic_c

        lo = j * sub_steps
        hi = (j + 1) * sub_steps
        trajs, new_failures = advect_particles(
            model, states, sub_controls, increments[:, lo:hi], dt
        )
        step_states[lo + 1 : hi + 1] = trajs[1:]
        states = trajs[-1]
        alive[new_failures] = False
        # ratio diagnostics track the proposed control: rolled-back solves
        # still tell how hard the method wanted to push
        step_ratio[lo:hi, alive] = nudging_bm_ratio(
            proposed[j, alive], increments[alive, lo:hi], dt,
            model.dispersion,
        ).T
        pushed = alive & np.any(sub_controls, axis=1)
        log_rn[pushed] += rn_log_increment(
            sub_v[pushed], increments[pushed, lo:hi], dt
        )

    return _close_cycle(
        ensemble, ctx, k, step_states, np.flatnonzero(~alive).tolist(),
        reweight_obs,
        # the run record keeps this work even when the cycle fails
        counters, timings,
        solves=dict(batches_used=batches_used, phi_floored=floors,
                    rollbacks=rollbacks),
        control_proposed=proposed,
        control_applied=applied,
        solver_converged=solver_converged,
        log_rn=log_rn,
        step_ratio=step_ratio,
    )


def npf_assimilation_cycle(
    ensemble: ParticleEnsemble, ctx: RunContext, k: int
) -> tuple[ParticleEnsemble, CycleDiagnostics]:
    """Cycle k of the nudged particle filter.

    Every subinterval solves for a feedback control toward the cycle's
    observation over the whole remaining horizon, so early subintervals
    integrate long realization bundles.
    """
    observation = ctx.observations[k]
    t_end = ctx.bounds(k)[1]

    def target_fn(j, states, weights):
        return observation, t_end, {}, {}

    return _nudged_sweep(ensemble, ctx, k, target_fn, observation)
