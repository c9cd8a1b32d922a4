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
from .bootstrap_pf import _close_cycle, _interval_steps
from .sde import (
    RK4_STAGES, SdeModel, advect_particles, rk4_states, whole_steps,
)
from .seeding import child_sequence, stream_generator

Array = np.ndarray

# phi is floored here when every realization's likelihood underflows;
# callers treat a floored estimate as a rollback.
PHI_FLOOR = 1e-300


@dataclass(frozen=True)
class NudgingConfig:
    """Knobs for the batch-adaptive control solver and the rollback rule."""

    subintervals: int = 5
    batch_size: int = 2
    tolerance: float = 0.1
    max_batches: int = 50
    rollback_log_threshold: float = -2.0

    def __post_init__(self):
        if self.subintervals < 1:
            raise ValueError("subintervals must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_batches < 1:
            raise ValueError("max_batches must be >= 1")


@dataclass(frozen=True)
class ControlEstimate:
    """Output of one adaptive control solve."""

    control: Array
    phi: float
    grad_phi: Array
    realizations_used: int
    converged: bool
    normalized_variation_history: tuple[float, ...]
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
    than the drift-only flow; a step's endpoint Jacobian is the next step's
    start Jacobian, so each step evaluates two.  The RK4 (by rk4_states)
    and Psi work runs over all k * b rows at once.  The noise term is a
    matrix product, which rounds differently for different row counts; one
    stacked matmul over the increments multiplies each (b, d) batch on its
    own, so it rounds as a batch alone does.  When the drift and its Jacobian
    act row by row (as the Lorenz-63 ones do), each batch's realizations
    come out bitwise as if propagated alone.  Returns endpoints (k, b, d)
    and fundamental matrices (k, b, d, d).
    """
    k, b, n_steps, d = increments.shape
    n = k * b
    states = np.broadcast_to(np.asarray(x, dtype=float), (n, d)).copy()
    fund = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    # one stacked product over the (S, k, b, d) increments: each (b, d)
    # batch is still multiplied on its own
    noise = np.matmul(
        increments.transpose(2, 0, 1, 3), model.dispersion.T
    ).reshape(n_steps, n, d)
    jac = model.drift_jacobian
    half = 0.5 * dt
    sixth = dt / 6.0
    # blown-up realizations go non-finite here and are dropped by
    # _combine_terms, so their overflow is not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        a0 = jac(states)
        for x1 in rk4_states(model, states, dt, n_steps, noise=noise):
            am = jac(0.5 * (states + x1))
            a1 = jac(x1)
            p1 = a0 @ fund
            p2 = am @ (fund + half * p1)
            p3 = am @ (fund + half * p2)
            p4 = a1 @ (fund + dt * p3)
            fund = fund + sixth * (p1 + 2.0 * (p2 + p3) + p4)
            states = x1  # the stepper's buffer, read before the next step
            a0 = a1
    return states.reshape(k, b, d), fund.reshape(k, b, d, d)


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
    stack.
    """
    ok = np.isfinite(g) & np.all(np.isfinite(term), axis=-1)
    usable = ok.any(axis=-1)
    g_min = np.where(usable, np.where(ok, g, np.inf).min(axis=-1), 0.0)
    s = np.where(ok, np.exp(-(np.where(ok, g, 0.0) - g_min[..., None])), 0.0)
    a = np.where(usable, s.mean(axis=-1), 1.0)
    b = (s[..., None] * np.where(ok[..., None], term, 0.0)).mean(axis=-2)
    scale = np.exp(-g_min)
    phi = scale * a
    grad = np.where(usable[..., None], -scale[..., None] * b, 0.0)
    control = (diffusion @ (-(b / a[..., None]))[..., None])[..., 0]
    floored = ~usable | (phi == 0.0)
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
    batch from ``rng``.  ``first_pass`` is the solve's settled estimate
    when a caller has already formed it together with other solves:
    _solve_controls returns each of its solves through this call, which
    then hands the estimate back unchanged.
    """
    if first_pass is not None:
        return first_pass
    return _solve_controls(
        model, obs_model, t, np.asarray(x, dtype=float)[None], horizon_end,
        target_obs, config, [rng], dt,
    )[0]


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
) -> list[ControlEstimate]:
    """One adaptive_control solve per row of ``states``, each drawing from
    its own generator in ``rngs``, all of them in lockstep rounds.

    Since convergence compares two estimates, no solve stops before its
    second batch (unless ``max_batches`` is 1), so round 0 draws
    min(2, max_batches) batches per solve; every later round draws one
    batch for each solve that has not yet settled.  Each round's batches
    propagate in one pass, each row from its own solve point.  The active
    solves then hold the same number of batches, so their estimates, the
    normalized controls and the variations from the previous batch count
    are formed as arrays (the first batch's estimate is round 0's
    reference).  A solve drops out once its variation is within
    ``tolerance`` or its batch budget is spent; the rounds end when every
    solve has.  A call therefore makes 1 + max(batches) - min(2,
    max_batches) propagation passes.

    Each generator draws its solve's batches in the order a lone solve
    would, each batch propagates bitwise as if alone, and every reduction
    runs along one solve's own axis (the variation's root of
    _squared_norms rounds as np.linalg.norm), so each solve's estimate
    and generator state do not depend on which solves share its rounds
    (given a drift that acts row by row, as Lorenz-63's does).  Each
    estimate returns through its own adaptive_control call.
    """
    if not rngs:
        return []
    x = np.asarray(states, dtype=float)
    n, d = x.shape
    b = config.batch_size
    n_steps = whole_steps(t, horizon_end, dt)
    denom = np.sqrt(_squared_norms(model.drift(x)))
    # a solve at an equilibrium falls back to the raw control magnitude
    denom = np.where(denom < 1e-12, 1.0, denom)[:, None]
    phi = np.empty(n)
    grad = np.empty((n, d))
    control = np.empty((n, d))
    floored = np.empty(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    batches = np.empty(n, dtype=int)
    variations = []  # one (n,) column per comparison, nan where settled

    active = np.arange(n)
    g = np.empty((n, 0))
    term = np.empty((n, 0, d))
    drawn = 0
    k = min(2, config.max_batches)
    prev = None
    while active.size:
        increments = np.concatenate([
            rngs[i].normal(0.0, np.sqrt(dt), size=(k, b, n_steps, d))
            for i in active.tolist()
        ])
        g_new, term_new = _misfit_terms(
            model, obs_model, np.repeat(x[active], k * b, axis=0),
            target_obs, increments, dt,
        )
        g = np.concatenate([g, g_new.reshape(-1, k * b)], axis=1)
        term = np.concatenate([term, term_new.reshape(-1, k * b, d)], axis=1)
        drawn += k
        if k == 2:  # round 0: compare with the first batch alone
            prev = _combine_terms(
                g[:, :b], term[:, :b], model.diffusion
            )[2] / denom[active]
        est = _combine_terms(g, term, model.diffusion)
        normalized = est[2] / denom[active]
        settled = np.full(active.size, drawn >= config.max_batches)
        if prev is not None:
            deltas = np.sqrt(_squared_norms(normalized - prev))
            variations.append(np.full(n, np.nan))
            variations[-1][active] = deltas
            converged[active] = deltas <= config.tolerance
            settled |= converged[active]
        done = active[settled]
        phi[done], grad[done], control[done], floored[done] = (
            part[settled] for part in est
        )
        batches[done] = drawn
        keep = ~settled
        active, g, term = active[keep], g[keep], term[keep]
        prev = normalized[keep]
        k = 1

    # a solve's variations are its first batches - 1 columns
    history = np.array(variations).T.reshape(n, -1)

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
                normalized_variation_history=tuple(
                    history[i, : batches[i] - 1].tolist()
                ),
                phi_floored=bool(floored[i]),
            ),
        )
        for i in range(n)
    ]


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
    model: SdeModel,
    obs_model: ObservationModel,
    target_fn: Callable[[int, Array, Array], tuple[Array, float, dict, dict]],
    reweight_obs: Array,
    t_start: float,
    t_end: float,
    config: NudgingConfig,
    increments: Array,
    dt: float,
    control_seqs: Sequence[np.random.SeedSequence],
    resample_rng: np.random.Generator,
    resample: bool = True,
    resample_threshold: float = 0.5,
) -> tuple[ParticleEnsemble, CycleDiagnostics]:
    """Subinterval loop shared by the nudged cycles.

    ``increments`` holds each particle's Wiener increments over the
    interval, shape (n, S, d) with S steps of size ``dt``; subinterval j
    advects along its slice of them.
    ``target_fn(j, states, weights) -> (target_obs, horizon_end, counters,
    timings)`` is consulted once per subinterval before the control
    solves, so a guided cycle can refresh its target mid-interval; the
    sweep sums the CycleDiagnostics counters and timings it reports (a
    fit's work and seconds; empty when it did none).  The increments and
    ``control_seqs`` are checked before its first call.  ``reweight_obs``
    is read only at the terminal reweight, after the last target_fn call,
    so it may be a view of a target that target_fn fills.  Each live
    particle then solves for its control with adaptive_control, drawing
    from its own ``child_sequence(control_seqs[i], j)`` generator; a
    subinterval's solves advance together, one propagation pass per round
    (see _solve_controls), and ``control_passes`` counts those passes;
    ``drift_evals`` counts the rows times drift evaluations of the
    guidance, of the solves (RK4 stages of every realization, and each
    solve's denominator) and of the advection.  The rollback candidates
    -0.5 |sigma^T grad phi / phi|^2 dt_sub, step ratios and
    change-of-measure increments of all live particles are arrays too,
    each particle rounding as it would alone; each solve that did not floor
    still meets its own rollback_test.  Controls are held constant within a
    subinterval; the weights repay each applied control through the
    accumulated change-of-measure factor at the terminal reweight.  The
    sweep ends in bootstrap_pf._close_cycle, which adds the advection's
    drift evaluations and keeps the cycle's work when it fails.
    """
    tic = time.perf_counter()
    n = ensemble.n_particles
    d = ensemble.dimension
    n_steps = _interval_steps(increments, ensemble, t_start, t_end, dt)
    if len(control_seqs) != n:
        raise ValueError("need one control stream per particle")
    m_sub = config.subintervals
    if n_steps % m_sub:
        raise ValueError("steps per interval must divide into subintervals")
    sub_steps = n_steps // m_sub
    dt_sub = sub_steps * dt

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
        horizon_steps = whole_steps(t_j, horizon_end, dt)

        sub_controls = np.zeros((n, d))
        sub_v = np.zeros((n, d))
        tic_c = time.perf_counter()
        live = np.flatnonzero(alive)
        estimates = _solve_controls(
            model, obs_model, t_j, states[live], horizon_end, target_obs,
            config,
            [stream_generator(child_sequence(control_seqs[i], j))
             for i in live.tolist()],
            dt,
        )
        if estimates:
            used = np.array([est.realizations_used for est in estimates])
            counters["realization_steps"] += int(used.sum()) * horizon_steps
            counters["drift_evals"] += (
                RK4_STAGES * int(used.sum()) * horizon_steps + len(estimates)
            )
            proposed[j, live] = [est.control for est in estimates]
            batches_used[j, live] = used // config.batch_size
            # round 0 draws min(2, max_batches) batches, later rounds one
            counters["control_passes"] += (
                1 + int(batches_used[j].max()) - min(2, config.max_batches)
            )
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
        ensemble, step_states, np.flatnonzero(~alive).tolist(), obs_model,
        reweight_obs, t_start, t_end, resample_rng, resample,
        resample_threshold, tic,
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
    ensemble: ParticleEnsemble,
    model: SdeModel,
    obs_model: ObservationModel,
    observation: Array,
    t_start: float,
    t_end: float,
    config: NudgingConfig,
    increments: Array,
    dt: float,
    control_seqs: Sequence[np.random.SeedSequence],
    resample_rng: np.random.Generator,
    resample: bool = True,
    resample_threshold: float = 0.5,
) -> tuple[ParticleEnsemble, CycleDiagnostics]:
    """Nudged particle filter over one observation interval.

    Every subinterval solves for a feedback control toward the upcoming
    observation over the whole remaining horizon, so early subintervals
    integrate long realization bundles.  ``increments`` (n, S, d) and
    ``dt`` are the particles' Wiener increments, as in the bootstrap cycle.
    """

    def target_fn(j, states, weights):
        return observation, t_end, {}, {}

    return _nudged_sweep(
        ensemble, model, obs_model, target_fn, observation,
        t_start, t_end, config, increments, dt, control_seqs, resample_rng,
        resample, resample_threshold,
    )
