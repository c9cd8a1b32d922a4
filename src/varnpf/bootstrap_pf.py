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
# perfbench/layertrace.py still looks integrate_path up in this module
from .sde import (  # noqa: F401
    RK4_STAGES,
    SdeModel,
    advect_particles,
    integrate_path,
    whole_steps,
)

Array = np.ndarray


def _interval_steps(
    increments: Array, ensemble: ParticleEnsemble, t_start: float,
    t_end: float, dt: float,
) -> int:
    """Steps of size ``dt`` in [t_start, t_end].

    Raises ValueError unless ``increments`` is (n, steps, d), one row of
    Wiener increments per particle of the ensemble.
    """
    n, d = ensemble.states.shape
    n_steps = whole_steps(t_start, t_end, dt)
    if np.shape(increments) != (n, n_steps, d):
        raise ValueError(
            f"increments must be (particles, steps, dimension) = "
            f"({n}, {n_steps}, {d}) for [{t_start}, {t_end}], "
            f"got {np.shape(increments)}"
        )
    return n_steps


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
    increments: Array,
    dt: float,
    resample_rng: np.random.Generator,
    resample: bool = True,
    resample_threshold: float = 0.5,
) -> tuple[ParticleEnsemble, CycleDiagnostics]:
    """One observation interval of the bootstrap filter.

    The posterior weights from the previous cycle stay in force during
    advection; the Bayes update happens only at ``t_end``.  ``increments``
    holds each particle's Wiener increments over the interval, shape
    (n, S, d) with S steps of size ``dt``.  Resampling is
    systematic and fires when ESS < threshold * n (one uniform draw, taken
    from ``resample_rng`` only when it fires).
    """
    tic = time.perf_counter()
    n = ensemble.n_particles
    n_steps = _interval_steps(increments, ensemble, t_start, t_end, dt)

    zero_controls = np.zeros_like(ensemble.states)
    trajs, failures = advect_particles(
        model, ensemble.states, zero_controls, increments, dt
    )
    drift_evals = RK4_STAGES * n * n_steps
    try:
        carried = _apply_failures(ensemble.weights, failures)
    except CycleFailure as err:
        raise CycleFailure(
            str(err), bookkeeping={"drift_evals": drift_evals}
        ) from None
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
        drift_evals=drift_evals,
        timings={"total": time.perf_counter() - tic},
    )
    return posterior, diag
