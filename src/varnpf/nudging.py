"""Feedback nudging from Monte Carlo estimates of a terminal value function.

For a terminal misfit g (a negative log-likelihood, so exp(-g) <= 1) the
value function of the uncontrolled diffusion started at (t, x) is

    phi(t, x) = E[ exp(-g(eta_T, y)) ],

and its state gradient can be estimated along the same realizations,

    grad phi(t, x) = -E[ exp(-g(eta_T, y)) Psi(t -> T) grad g(eta_T, y) ],

with Psi the fundamental matrix of the drift linearized along eta.  The
feedback control is u = (1/phi) R grad phi with R the diffusion matrix,
and applying it tilts the path measure, which the weights must repay
through the change-of-measure factor accumulated in RnAccumulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diagnostics import CycleDiagnostics, CycleFailure
from .ensemble import (
    ObservationModel,
    ParticleEnsemble,
    bayes_reweight,
    effective_sample_size,
    systematic_resample,
)
from .bootstrap_pf import _apply_failures, advect_particles
from .sde import BrownianPath, SdeModel, rk4_step, whole_steps
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


@dataclass
class RnAccumulator:
    """Running log change-of-measure weight for one particle.

    Stays exactly 0.0 while the applied control is identically zero, since
    no increment is ever added for an unnudged subinterval.
    """

    log_rn: float = 0.0

    def add_subinterval(self, v_values: Array, increments: Array, dt: float):
        self.log_rn += rn_log_increment(v_values, increments, dt)


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
    start Jacobian, so each step evaluates two.  The RK4 and Psi work runs
    over all k * b rows at once.  The noise term is a matrix product,
    which rounds differently for different row counts; one stacked matmul
    over the (k, b, d) increments multiplies each (b, d) batch on its own,
    so it rounds as a batch alone does.  When the drift and its Jacobian
    act row by row (as the Lorenz-63 ones do), each batch's realizations
    come out bitwise as if propagated alone.  Returns endpoints (k, b, d)
    and fundamental matrices (k, b, d, d).
    """
    k, b, n_steps, d = increments.shape
    n = k * b
    states = np.broadcast_to(np.asarray(x, dtype=float), (n, d)).copy()
    fund = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    noise = np.empty((k, b, d))
    flat_noise = noise.reshape(n, d)
    sigma_t = model.dispersion.T
    jac = model.drift_jacobian
    half = 0.5 * dt
    sixth = dt / 6.0
    # blown-up realizations go non-finite here and are dropped by
    # _combine_terms, so their overflow is not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        a0 = jac(states)
        for s in range(n_steps):
            x0 = states
            np.matmul(increments[:, :, s], sigma_t, out=noise)
            x1 = rk4_step(model.drift, x0, None, dt) + flat_noise
            am = jac(0.5 * (x0 + x1))
            a1 = jac(x1)
            p1 = a0 @ fund
            p2 = am @ (fund + half * p1)
            p3 = am @ (fund + half * p2)
            p4 = a1 @ (fund + dt * p3)
            fund = fund + sixth * (p1 + 2.0 * (p2 + p3) + p4)
            states = x1
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

    x and increments (k, b, S, d) as for _propagate_with_sensitivity.
    The observation products are formed batch by batch: the three-operand
    einsum of the log-likelihood rounds differently once batches are
    stacked, so this loop runs once per pass rather than once per step.
    Returns g (k * b,) and terms (k * b, d), batch after batch.
    """
    ends, fund = _propagate_with_sensitivity(model, x, increments, dt)
    g = []
    term = []
    for ends_i, fund_i in zip(ends, fund):
        g.append(np.atleast_1d(np.asarray(
            obs_model.neg_log_likelihood(ends_i, target_obs), dtype=float
        )))
        gg = obs_model.nll_gradient(ends_i, target_obs)
        term.append(np.einsum("nij,nj->ni", fund_i, gg))
    return np.concatenate(g), np.concatenate(term)


def _combine_terms(
    g: Array, term: Array, diffusion: Array
) -> tuple[float, Array, Array, bool]:
    """Turn accumulated realization terms into (phi, grad_phi, control).

    Means are taken with the smallest misfit factored out, so the control
    ratio grad_phi / phi stays well defined even when phi itself underflows.
    Realizations that blew up (non-finite g or term) contribute nothing.
    """
    ok = np.isfinite(g) & np.all(np.isfinite(term), axis=1)
    d = term.shape[1]
    if not ok.any():
        return PHI_FLOOR, np.zeros(d), np.zeros(d), True
    g_min = g[ok].min()
    s = np.where(ok, np.exp(-(np.where(ok, g, 0.0) - g_min)), 0.0)
    a = s.mean()
    b = (s[:, None] * np.where(ok[:, None], term, 0.0)).mean(axis=0)
    scale = np.exp(-g_min)
    phi = scale * a
    grad = -scale * b
    control = diffusion @ (-(b / a))
    if phi == 0.0:
        return PHI_FLOOR, grad, np.zeros(d), True
    return float(phi), grad, control, False


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
    return phi, grad


def feedback_control(phi: float, grad_phi: Array, diffusion: Array) -> Array:
    """u = (1/phi) R grad phi."""
    if not phi > 0.0:
        raise ValueError("phi must be positive")
    return np.asarray(diffusion, dtype=float) @ (
        np.asarray(grad_phi, dtype=float) / phi
    )


def _first_pass(
    model: SdeModel,
    obs_model: ObservationModel,
    t: float,
    x: Array,
    horizon_end: float,
    target_obs: Array,
    config: NudgingConfig,
    rngs: Sequence[np.random.Generator],
    dt: float,
) -> tuple[Array, Array]:
    """The first min(2, max_batches) batches of several solves, in one pass.

    Since convergence compares two estimates, no solve stops before its
    second batch (unless ``max_batches`` is 1), so those batches are drawn
    and propagated before any convergence test.  x: (n, d), one solve
    point per generator in ``rngs``; each generator draws its solve's
    batches in one call, and all n * k batches propagate together, each
    row from its own solve point.  One draw of two batches gives the same
    numbers as two draws, and each batch propagates bitwise as if alone,
    so every solve's terms and generator state do not depend on how the
    batches are grouped.  Returns g (n, k * b) and terms (n, k * b, d).
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    k = min(2, config.max_batches)
    rows = k * config.batch_size
    n_steps = whole_steps(t, horizon_end, dt)
    increments = np.concatenate([
        rng.normal(0.0, np.sqrt(dt), size=(k, config.batch_size, n_steps, d))
        for rng in rngs
    ])
    g, term = _misfit_terms(
        model, obs_model, np.repeat(x, rows, axis=0), target_obs,
        increments, dt,
    )
    return g.reshape(n, rows), term.reshape(n, rows, d)


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
    first_pass: tuple[Array, Array] | None = None,
) -> ControlEstimate:
    """Grow the realization set batch by batch until the control settles.

    After each batch of ``batch_size`` new realizations the control is
    recomputed from every realization drawn so far, normalized by the
    drift magnitude |f(x)| at the solve point, and compared with the
    previous batch count's value; the solve stops when the Euclidean
    change drops to ``tolerance`` or the batch budget runs out.  The
    normalization keeps one tolerance meaningful across regions where the
    drift varies by orders of magnitude.

    The solve starts from the (g, terms) of its first pass (see
    _first_pass), which most solves never go past.  ``first_pass`` holds
    them when the caller has already drawn them from ``rng`` (the nudged
    sweep propagates every particle's first pass together); when None the
    solve builds its own.  Either way later batches are drawn from ``rng``
    and propagated one at a time.
    """
    x = np.asarray(x, dtype=float)
    n_steps = whole_steps(t, horizon_end, dt)
    d = x.shape[-1]
    b = config.batch_size
    denom = float(np.linalg.norm(model.drift(x)))
    if denom < 1e-12:
        denom = 1.0  # solving at an equilibrium; fall back to raw magnitude

    if first_pass is None:
        g_first, term_first = _first_pass(
            model, obs_model, t, x[None], horizon_end, target_obs, config,
            [rng], dt,
        )
        first_pass = g_first[0], term_first[0]
    g_all, term_all = first_pass
    drawn = len(g_all) // b
    history: list[float] = []
    prev_normalized = None
    converged = False
    batches = 0
    phi, grad, control, floored = PHI_FLOOR, np.zeros(d), np.zeros(d), True
    while batches < config.max_batches and not converged:
        if batches == drawn:
            increments = rng.normal(0.0, np.sqrt(dt), size=(1, b, n_steps, d))
            g_new, term_new = _misfit_terms(
                model, obs_model, x, target_obs, increments, dt
            )
            g_all = np.concatenate([g_all, g_new])
            term_all = np.concatenate([term_all, term_new])
            drawn += 1
        batches += 1
        used = batches * b
        phi, grad, control, floored = _combine_terms(
            g_all[:used], term_all[:used], model.diffusion
        )
        normalized = control / denom
        if prev_normalized is not None:
            delta = float(np.linalg.norm(normalized - prev_normalized))
            history.append(delta)
            converged = delta <= config.tolerance
        prev_normalized = normalized
    return ControlEstimate(
        control=np.zeros(d) if floored else control,
        phi=phi,
        grad_phi=grad,
        realizations_used=batches * b,
        converged=converged,
        normalized_variation_history=tuple(history),
        phi_floored=floored,
    )


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
    its own generator in ``rngs``.

    The first passes of all solves propagate together; the few solves they
    leave unsettled go on one batch at a time, each on its own.
    """
    if not rngs:
        return []
    g, term = _first_pass(
        model, obs_model, t, states, horizon_end, target_obs, config, rngs,
        dt,
    )
    return [
        adaptive_control(
            model, obs_model, t, x, horizon_end, target_obs, config, rng, dt,
            first_pass=(g_i, term_i),
        )
        for x, rng, g_i, term_i in zip(states, rngs, g, term)
    ]


def rn_log_increment(v_values: Array, increments: Array, dt: float) -> float:
    """Log change-of-measure contribution -sum <v, dW> - 0.5 sum |v|^2 dt.

    ``v_values`` holds v at the left endpoint of each step, one row per
    increment; a single (d,) vector is broadcast across all steps.  For a
    constant v over S steps this is -<v, W> - 0.5 |v|^2 S dt, whose
    exponential has expectation one under the uncontrolled measure.
    """
    increments = np.asarray(increments, dtype=float)
    v = np.broadcast_to(np.asarray(v_values, dtype=float), increments.shape)
    return float(-(v * increments).sum() - 0.5 * (v * v).sum() * dt)


def nudging_bm_ratio(u: Array, dW: Array, dt: float, dispersion: Array) -> Array:
    """Displacement ratio ||u dt|| / ||sigma dW|| for integrator steps.

    ``dW`` may be a single increment (d,) or a stack (..., d); the ratio is
    scalar respectively (...,).  A vanishing denominator (a probability-zero
    event, or zero dispersion) is recorded as nan, i.e. missing.
    """
    u = np.asarray(u, dtype=float)
    dW = np.asarray(dW, dtype=float)
    numerator = np.linalg.norm(u) * dt
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
    target_fn: Callable[[int, Array, Array], tuple[Array, float]],
    reweight_obs: Array,
    t_start: float,
    t_end: float,
    config: NudgingConfig,
    paths: Sequence[BrownianPath],
    control_seqs: Sequence[np.random.SeedSequence],
    resample_rng: np.random.Generator,
    resample: bool = True,
    resample_threshold: float = 0.5,
) -> tuple[ParticleEnsemble, CycleDiagnostics]:
    """Subinterval loop shared by the nudged cycles.

    ``target_fn(j, states, weights) -> (target_obs, horizon_end)`` is
    consulted once per subinterval before the control solves, so a guided
    cycle can refresh its target mid-interval.  Each live particle then
    solves for its control with adaptive_control, drawing from its own
    ``child_sequence(control_seqs[i], j)`` generator; the first passes of
    all a subinterval's solves propagate together (see _solve_controls).
    Controls are held constant within a subinterval; the weights repay each
    applied control through the accumulated change-of-measure factor at the
    terminal reweight.
    """
    tic = time.perf_counter()
    n = ensemble.n_particles
    d = ensemble.dimension
    if len(paths) != n or len(control_seqs) != n:
        raise ValueError("need one path and one control stream per particle")
    dt = paths[0].dt
    n_steps = paths[0].n_steps
    if abs((t_end - t_start) / dt - n_steps) > 1e-9:
        raise ValueError("paths must cover exactly [t_start, t_end]")
    m_sub = config.subintervals
    if n_steps % m_sub:
        raise ValueError("steps per interval must divide into subintervals")
    sub_steps = n_steps // m_sub
    dt_sub = sub_steps * dt

    states = np.array(ensemble.states)
    step_states = np.empty((n_steps + 1, n, d))
    step_states[0] = states
    accums = [RnAccumulator() for _ in range(n)]
    proposed = np.zeros((m_sub, n, d))
    applied = np.zeros((m_sub, n, d))
    rollbacks = np.zeros((m_sub, n), dtype=bool)
    floors = np.zeros((m_sub, n), dtype=bool)
    batches_used = np.zeros((m_sub, n), dtype=int)
    solver_converged = np.zeros((m_sub, n), dtype=bool)
    step_ratio = np.full((n_steps, n), np.nan)
    realization_steps = 0
    failed: set[int] = set()
    control_time = 0.0

    for j in range(m_sub):
        t_j = t_start + j * dt_sub
        target_obs, horizon_end = target_fn(j, states, ensemble.weights)
        horizon_steps = whole_steps(t_j, horizon_end, dt)

        sub_controls = np.zeros((n, d))
        sub_v = np.zeros((n, d))
        tic_c = time.perf_counter()
        live = [i for i in range(n) if i not in failed]
        estimates = _solve_controls(
            model, obs_model, t_j, states[live], horizon_end, target_obs,
            config,
            [stream_generator(child_sequence(control_seqs[i], j))
             for i in live],
            dt,
        )
        for i, est in zip(live, estimates):
            realization_steps += est.realizations_used * horizon_steps
            proposed[j, i] = est.control
            batches_used[j, i] = est.realizations_used // config.batch_size
            solver_converged[j, i] = est.converged
            floors[j, i] = est.phi_floored
            if est.phi_floored:
                rollbacks[j, i] = True  # underflowed value function: do not nudge
                continue
            v = model.dispersion.T @ (est.grad_phi / est.phi)
            candidate = -0.5 * float(v @ v) * dt_sub
            if rollback_test(candidate, config):
                rollbacks[j, i] = True
                continue
            sub_controls[i] = est.control
            sub_v[i] = v
        applied[j] = sub_controls
        control_time += time.perf_counter() - tic_c

        lo = j * sub_steps
        hi = (j + 1) * sub_steps
        sub_paths = [
            BrownianPath(dt, p.increments[lo:hi], p.stream_id) for p in paths
        ]
        trajs, new_failures = advect_particles(
            model, states, sub_controls, sub_paths, t_j
        )
        step_states[lo + 1 : hi + 1] = trajs[1:]
        states = trajs[-1]
        for i in new_failures:
            failed.add(i)
        for i in range(n):
            if i in failed:
                continue
            # ratio diagnostics track the proposed control: rolled-back
            # solves still tell how hard the method wanted to push
            step_ratio[lo:hi, i] = nudging_bm_ratio(
                proposed[j, i], sub_paths[i].increments, dt, model.dispersion
            )
            if np.any(sub_controls[i]):
                accums[i].add_subinterval(
                    sub_v[i], sub_paths[i].increments, dt
                )

    carried = _apply_failures(ensemble.weights, sorted(failed))
    advected = ParticleEnsemble(states, carried, t_end)
    prior_ness = effective_sample_size(carried)

    log_rn = np.array([acc.log_rn for acc in accums])
    # uniform shift before exponentiation; the reweight normalizes it away
    factors = np.exp(log_rn - log_rn.max())
    terminal_obs = reweight_obs() if callable(reweight_obs) else reweight_obs
    posterior, collapsed = bayes_reweight(
        advected, terminal_obs, obs_model, factors
    )
    posterior_ness = effective_sample_size(posterior.weights)

    resampled = False
    if resample and posterior_ness < resample_threshold * n:
        posterior = systematic_resample(posterior, resample_rng.random())
        resampled = True

    diag = CycleDiagnostics(
        t_start=t_start,
        t_end=t_end,
        step_times=t_start + dt * np.arange(n_steps + 1),
        step_states=step_states,
        carried_weights=carried,
        posterior=posterior,
        prior_ness=prior_ness,
        posterior_ness=posterior_ness,
        resampled=resampled,
        collapsed=collapsed,
        particle_failures=sorted(failed),
        control_proposed=proposed,
        control_applied=applied,
        rollbacks=rollbacks,
        phi_floored=floors,
        batches_used=batches_used,
        solver_converged=solver_converged,
        log_rn=log_rn,
        step_ratio=step_ratio,
        realization_steps=realization_steps,
        timings={
            "total": time.perf_counter() - tic,
            "control": control_time,
        },
    )
    return posterior, diag


def npf_assimilation_cycle(
    ensemble: ParticleEnsemble,
    model: SdeModel,
    obs_model: ObservationModel,
    observation: Array,
    t_start: float,
    t_end: float,
    config: NudgingConfig,
    paths: Sequence[BrownianPath],
    control_seqs: Sequence[np.random.SeedSequence],
    resample_rng: np.random.Generator,
    resample: bool = True,
    resample_threshold: float = 0.5,
) -> tuple[ParticleEnsemble, CycleDiagnostics]:
    """Nudged particle filter over one observation interval.

    Every subinterval solves for a feedback control toward the upcoming
    observation over the whole remaining horizon, so early subintervals
    integrate long realization bundles.
    """

    def target_fn(j, states, weights):
        return observation, t_end

    return _nudged_sweep(
        ensemble, model, obs_model, target_fn, observation,
        t_start, t_end, config, paths, control_seqs, resample_rng,
        resample, resample_threshold,
    )
