"""Bootstrap particle filter: advect, reweight, maybe resample."""

from __future__ import annotations

import time

import numpy as np

from .diagnostics import CycleDiagnostics, CycleFailure
from .ensemble import (
    ObservationModel,
    ParticleEnsemble,
    bayes_reweight,
    effective_sample_size,
    systematic_resample,
)
# integrate_path is the one-particle loop that advect_particles reproduces
# bit for bit; perfbench/layertrace.py still looks it up in this module
from .sde import BrownianPath, SdeModel, integrate_path, rk4_step  # noqa: F401

Array = np.ndarray


def advect_particles(
    model: SdeModel,
    states: Array,
    controls: Array,
    paths: list[BrownianPath],
    t_start: float,
) -> tuple[Array, list[int]]:
    """Propagate each particle along its own Brownian path.

    controls: (n, d), one constant control per particle.  All particles
    advance together, one RK4 step over the (n, d) state array per time
    step; every row gets exactly the bits a one-particle ``integrate_path``
    would give it.  A particle whose trajectory leaves float64 is frozen at
    its start state and reported in the failure list; the caller zeroes its
    weight.  Returns trajectories of shape (S + 1, n, d).
    """
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    dt = paths[0].dt
    dW = np.stack([p.increments for p in paths], axis=1)  # (S, n, d)
    # stacked row-by-row products: a plain (n, d) @ (d, d) product rounds
    # differently from the one-vector product of integrate_step
    noise = (dW[..., None, :] @ model.dispersion.T)[..., 0, :]
    out = np.empty((dW.shape[0] + 1,) + states.shape)
    out[0] = states
    failed = np.zeros(states.shape[0], dtype=bool)
    x = states
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(dW.shape[0]):
            x = rk4_step(model.drift, x, controls, dt) + noise[s]
            lost = ~np.all(np.isfinite(x), axis=1)
            if np.any(lost):
                failed |= lost
                x[lost] = states[lost]  # keep failed rows finite
            out[s + 1] = x
    out[:, failed] = states[failed]
    return out, np.flatnonzero(failed).tolist()


def _apply_failures(weights: Array, failures: list[int]) -> Array:
    """Zero the weights of failed particles and renormalize the rest."""
    if not failures:
        return weights
    w = weights.copy()
    w[failures] = 0.0
    total = w.sum()
    if total <= 0.0:
        raise CycleFailure("every particle failed during advection")
    return w / total


def pf_assimilation_cycle(
    ensemble: ParticleEnsemble,
    model: SdeModel,
    obs_model: ObservationModel,
    observation: Array,
    t_start: float,
    t_end: float,
    paths: list[BrownianPath],
    resample_rng: np.random.Generator,
    resample: bool = True,
    resample_threshold: float = 0.5,
) -> tuple[ParticleEnsemble, CycleDiagnostics]:
    """One observation interval of the bootstrap filter.

    The posterior weights from the previous cycle stay in force during
    advection; the Bayes update happens only at ``t_end``.  Resampling is
    systematic and fires when ESS < threshold * n (one uniform draw, taken
    from ``resample_rng`` only when it fires).
    """
    tic = time.perf_counter()
    n = ensemble.n_particles
    if len(paths) != n:
        raise ValueError("need one Brownian path per particle")
    dt = paths[0].dt
    n_steps = paths[0].n_steps
    if abs((t_end - t_start) / dt - n_steps) > 1e-9:
        raise ValueError("paths must cover exactly [t_start, t_end]")

    zero_controls = np.zeros_like(ensemble.states)
    trajs, failures = advect_particles(
        model, ensemble.states, zero_controls, paths, t_start
    )
    carried = _apply_failures(ensemble.weights, failures)
    advected = ParticleEnsemble(trajs[-1], carried, t_end)
    prior_ness = effective_sample_size(carried)

    posterior, collapsed = bayes_reweight(advected, observation, obs_model)
    posterior_ness = effective_sample_size(posterior.weights)

    resampled = False
    if resample and posterior_ness < resample_threshold * n:
        posterior = systematic_resample(posterior, resample_rng.random())
        resampled = True

    diag = CycleDiagnostics(
        t_start=t_start,
        t_end=t_end,
        step_times=t_start + dt * np.arange(n_steps + 1),
        step_states=trajs,
        carried_weights=carried,
        posterior=posterior,
        prior_ness=prior_ness,
        posterior_ness=posterior_ness,
        resampled=resampled,
        collapsed=collapsed,
        particle_failures=failures,
        timings={"total": time.perf_counter() - tic},
    )
    return posterior, diag
