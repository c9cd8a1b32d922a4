"""Bootstrap particle filter: advect, reweight, maybe resample.

RunContext describes the cycle every filter shares; each ends in
_close_cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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
from .seeding import KeySource

if TYPE_CHECKING:
    from .nudging import NudgingConfig
    from .var_npf import VarNpfSettings

Array = np.ndarray


@dataclass(frozen=True)
class RunContext:
    """What every cycle of one run reads; run_experiment builds it once.

    Each filter's cycle is ``cycle(ensemble, ctx, k) -> (ensemble,
    CycleDiagnostics)``.  The run's ``times`` are T steps of size ``dt``,
    in L = len(observations) observation intervals of S = T / L steps
    each.  Cycle k runs from times[kS] to times[(k + 1)S], advects
    particle i along its Wiener increments noise[i, kS:(k + 1)S] and
    assimilates observations[k].  It resamples (systematic, one uniform
    draw from ``resample_rng``) when ESS < ``resample_threshold`` * n, so
    a threshold of 0 never does.  The nudged cycles read ``nudging``, the
    guided one ``variational`` too, and particle i's control solves in
    cycle k draw from the children of ``control`` extended by (k, i).
    Raises ValueError unless ``times`` spans whole steps of ``dt``,
    ``noise`` is (n, T, d), with d the model's dimension, and T divides
    into the L intervals.
    """

    model: SdeModel
    obs_model: ObservationModel
    dt: float
    times: Array  # (T + 1,)
    observations: Array  # (L, m)
    noise: Array  # (n, T, d)
    resample_rng: np.random.Generator
    resample_threshold: float
    nudging: NudgingConfig
    variational: VarNpfSettings
    control: KeySource

    def __post_init__(self):
        t0, t1 = self.times[0], self.times[-1]
        n_steps = whole_steps(t0, t1, self.dt)
        if len(self.times) != n_steps + 1:
            raise ValueError(
                f"times must be the {n_steps + 1} points of [{t0}, {t1}] "
                f"in steps of {self.dt}, got {len(self.times)}"
            )
        want = (len(self.noise), n_steps, self.model.dimension)
        if np.shape(self.noise) != want:
            raise ValueError(
                f"increments must be (particles, steps, dimension) = "
                f"{want} for [{t0}, {t1}], got {np.shape(self.noise)}"
            )
        if n_steps % len(self.observations):
            raise ValueError(
                f"{n_steps} steps do not divide into "
                f"{len(self.observations)} observation intervals"
            )

    def bounds(self, k: int) -> tuple[float, float]:
        """Cycle k's start and end times."""
        span = (len(self.times) - 1) // len(self.observations)
        return self.times[k * span], self.times[(k + 1) * span]

    def increments(self, k: int, ensemble: ParticleEnsemble) -> Array:
        """Cycle k's (n, S, d) increments; raises ValueError unless
        ``ensemble`` has their n particles."""
        span = self.noise.shape[1] // len(self.observations)
        increments = self.noise[:, k * span:(k + 1) * span]
        if ensemble.n_particles != len(increments):
            raise ValueError(
                f"increments must be (particles, steps, dimension) = "
                f"({ensemble.n_particles}, {span}, {self.model.dimension}) "
                f"for cycle {k}, got {increments.shape}"
            )
        return increments


def pf_assimilation_cycle(
    ensemble: ParticleEnsemble, ctx: RunContext, k: int
) -> tuple[ParticleEnsemble, CycleDiagnostics]:
    """Cycle k of the bootstrap filter.

    The posterior weights from the previous cycle stay in force during
    advection; the Bayes update happens only at the cycle's end.
    """
    trajs, failures = advect_particles(
        ctx.model, ensemble.states, np.zeros_like(ensemble.states),
        ctx.increments(k, ensemble), ctx.dt,
    )
    return _close_cycle(
        ensemble, ctx, k, trajs, failures, ctx.observations[k]
    )


def _close_cycle(
    ensemble: ParticleEnsemble,
    ctx: RunContext,
    k: int,
    step_states: Array,
    failures: list[int],
    observation: Array,
    counters: dict | None = None,
    timings: dict | None = None,
    solves: dict | None = None,
    **nudged,
) -> tuple[ParticleEnsemble, CycleDiagnostics]:
    """The end of cycle k, the same for every filter.

    ``step_states`` (S + 1, n, d) is the advected trajectory of
    ``ensemble`` and ``failures`` the particles it lost.  ``counters`` and
    ``timings`` hold the work done before the close; the advection adds
    RK4_STAGES * n * S drift evaluations.  Failed particles get zero
    weight; if none is left, CycleFailure carries the counters, timings
    and ``solves``.  Then the Bayes update with the likelihood of
    ``observation``, times
    exp(log_rn - max log_rn) when ``nudged`` holds the change-of-measure
    ``log_rn``, and the context's resampling rule.  ``solves`` (its
    per-solve arrays) and ``nudged`` hold a nudged cycle's other
    CycleDiagnostics fields.
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
    t_start, t_end = ctx.bounds(k)
    advected = ParticleEnsemble(step_states[-1], carried, t_end)
    prior_ness = effective_sample_size(carried)

    log_rn = nudged.get("log_rn")
    # uniform shift before exponentiation; the reweight normalizes it away
    factors = None if log_rn is None else np.exp(log_rn - log_rn.max())
    posterior, collapsed = bayes_reweight(
        advected, observation, ctx.obs_model, factors
    )
    posterior_ness = effective_sample_size(posterior.weights)

    resampled = False
    if posterior_ness < ctx.resample_threshold * n:
        posterior = systematic_resample(
            posterior, ctx.resample_rng.random()
        )
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
