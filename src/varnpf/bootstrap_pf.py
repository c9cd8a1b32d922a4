"""Bootstrap particle filter: advect, reweight, maybe resample."""

from __future__ import annotations

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
    _interval_steps(increments, ensemble, t_start, t_end, dt)
    trajs, failures = advect_particles(
        model, ensemble.states, np.zeros_like(ensemble.states), increments,
        dt,
    )
    return _close_cycle(
        ensemble, trajs, failures, obs_model, observation, t_start, t_end,
        resample_rng, resample, resample_threshold,
    )


def _close_cycle(
    ensemble: ParticleEnsemble,
    step_states: Array,
    failures: list[int],
    obs_model: ObservationModel,
    observation: Array,
    t_start: float,
    t_end: float,
    resample_rng: np.random.Generator,
    resample: bool,
    resample_threshold: float,
    counters: dict | None = None,
    timings: dict | None = None,
    solves: dict | None = None,
    **nudged,
) -> tuple[ParticleEnsemble, CycleDiagnostics]:
    """The end of an observation interval, the same for every filter.

    ``step_states`` (S + 1, n, d) is the advected trajectory of
    ``ensemble`` and ``failures`` the particles it lost.  ``counters`` and
    ``timings`` hold the work done before the close; the advection adds
    RK4_STAGES * n * S drift evaluations.  Failed particles get zero
    weight; if none is left, CycleFailure carries the counters, timings
    and ``solves``.  Then the Bayes update with the observation
    likelihood, times exp(log_rn - max log_rn) when ``nudged`` holds the
    change-of-measure ``log_rn``, and a systematic resample when ESS <
    threshold * n (one uniform draw, taken from ``resample_rng`` only when
    it fires).  ``solves`` (its per-solve arrays) and ``nudged`` hold a
    nudged cycle's other CycleDiagnostics fields.
    """
    n_steps = step_states.shape[0] - 1
    n = step_states.shape[1]
    counters = dict(counters or {})
    counters["drift_evals"] = (
        RK4_STAGES * n * n_steps + counters.get("drift_evals", 0)
    )
    carried = ensemble.weights
    if failures:
        carried = carried.copy()
        carried[failures] = 0.0
        total = carried.sum()
        if total <= 0.0:
            raise CycleFailure(
                "every particle failed during advection", counters, timings,
                solves,
            )
        carried = carried / total
    advected = ParticleEnsemble(step_states[-1], carried, t_end)
    prior_ness = effective_sample_size(carried)

    log_rn = nudged.get("log_rn")
    # uniform shift before exponentiation; the reweight normalizes it away
    factors = None if log_rn is None else np.exp(log_rn - log_rn.max())
    posterior, collapsed = bayes_reweight(
        advected, observation, obs_model, factors
    )
    posterior_ness = effective_sample_size(posterior.weights)

    resampled = False
    if resample and posterior_ness < resample_threshold * n:
        posterior = systematic_resample(posterior, resample_rng.random())
        resampled = True

    diag = CycleDiagnostics(
        t_start=t_start,
        t_end=t_end,
        step_states=step_states,
        carried_weights=carried,
        posterior=posterior,
        prior_ness=prior_ness,
        posterior_ness=posterior_ness,
        resampled=resampled,
        collapsed=collapsed,
        particle_failures=failures,
        counters=counters,
        **(solves or {}),
        **nudged,
        timings=dict(timings or {}),
    )
    return posterior, diag
