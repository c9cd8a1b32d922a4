"""Nudged filter guided by a variational pseudo observation path.

Instead of pulling every subinterval toward the far-away terminal
observation, the cycle first fits an initial state to the ensemble and the
observation, flows it deterministically across the interval, and hands the
flow samples to the control solver as near-horizon targets.  Controls then
only ever look one subinterval ahead, which keeps realization bundles short
and the change-of-measure cost small.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bootstrap_pf import _interval_steps
from .diagnostics import CycleDiagnostics
from .ensemble import (
    ObservationModel,
    ParticleEnsemble,
    empirical_moments,
)
from .nudging import NudgingConfig, _nudged_sweep, npf_assimilation_cycle
from .sde import SdeModel
from .variational import (
    VariationalProblem,
    build_pseudo_path,
    minimize_cost,
)

Array = np.ndarray


@dataclass(frozen=True)
class VarNpfSettings:
    """Configuration of the variational guidance around the nudged core."""

    regularization_eps: float = 1e-6
    bound_sigmas: float = 10.0
    max_iterations: int = 200
    # solve once per observation interval by default; True refreshes the
    # fit at every subinterval from the mid-flight ensemble
    resolve_per_subinterval: bool = False
    # terminal reweight against the pseudo observation instead of the
    # real one (ablation switch; the default keeps the true observation)
    reweight_with_pseudo: bool = False
    # bypass the guidance entirely: full horizons toward the real
    # observation, which reduces the cycle to the plain nudged filter
    skip_variational: bool = False


def var_npf_assimilation_cycle(
    ensemble: ParticleEnsemble,
    model: SdeModel,
    obs_model: ObservationModel,
    observation: Array,
    t_start: float,
    t_end: float,
    config: NudgingConfig,
    settings: VarNpfSettings,
    increments: Array,
    dt: float,
    control_seqs: Sequence[np.random.SeedSequence],
    resample_rng: np.random.Generator,
    resample: bool = True,
    resample_threshold: float = 0.5,
) -> tuple[ParticleEnsemble, CycleDiagnostics]:
    """One observation interval of the variationally guided nudged filter.

    Steps: ensemble moments -> variational fit -> pseudo observation path
    -> per-subinterval one-step-ahead control solves -> terminal Bayes
    reweight with the change-of-measure factors -> optional resample.  A
    stalled variational solve is recorded and its best iterate used; the
    guidance does not have to be optimal to be useful.  ``increments``
    (n, S, d) and ``dt`` are the particles' Wiener increments, as in the
    bootstrap cycle.
    """
    # a malformed increments array fails before the variational solve
    _interval_steps(increments, ensemble, t_start, t_end, dt)
    observation = np.asarray(observation, dtype=float)
    m_sub = config.subintervals
    dt_sub = (t_end - t_start) / m_sub

    if settings.skip_variational:
        posterior, diag = npf_assimilation_cycle(
            ensemble, model, obs_model, observation, t_start, t_end,
            config, increments, dt, control_seqs, resample_rng,
            resample, resample_threshold,
        )
        diag.variational_status = "skipped"
        diag.timings["variational"] = 0.0
        return posterior, diag

    var_time = [0.0]
    statuses: list[str] = []
    costs: list[float] = []
    iteration_total = [0]
    cost_eval_total = [0]

    def solve(mean, cov, t_from):
        tic = time.perf_counter()
        problem = VariationalProblem(
            model=model,
            obs_model=obs_model,
            prior_mean=mean,
            prior_cov=cov,
            observation=observation,
            t_start=t_from,
            t_end=t_end,
            dt=dt,
            eps=settings.regularization_eps,
            bound_sigmas=settings.bound_sigmas,
        )
        result = minimize_cost(
            problem, max_iterations=settings.max_iterations
        )
        var_time[0] += time.perf_counter() - tic
        statuses.append(result.status)
        costs.append(result.cost_opt)
        iteration_total[0] += result.iterations
        cost_eval_total[0] += result.cost_evals
        return result

    if not settings.resolve_per_subinterval:
        moments = empirical_moments(ensemble)
        result = solve(moments.mean, moments.cov, t_start)
        pseudo = build_pseudo_path(
            model, obs_model, result.x_opt, t_start, t_end, m_sub, dt,
            flow=result.flow,
        )
        targets = pseudo.observations[1:]

        def target_fn(j, states, weights):
            return targets[j], t_start + (j + 1) * dt_sub

        reweight_obs = (
            pseudo.observations[-1]
            if settings.reweight_with_pseudo
            else observation
        )
    else:
        targets = np.zeros((m_sub, observation.shape[-1]))

        def target_fn(j, states, weights):
            snapshot = ParticleEnsemble(states, weights, t_start + j * dt_sub)
            moments = empirical_moments(snapshot)
            t_j = t_start + j * dt_sub
            result = solve(moments.mean, moments.cov, t_j)
            segment = build_pseudo_path(
                model, obs_model, result.x_opt, t_j, t_j + dt_sub, 1, dt,
                flow=result.flow,
            )
            targets[j] = segment.observations[-1]
            return targets[j], t_j + dt_sub

        reweight_obs = (
            (lambda: targets[-1])
            if settings.reweight_with_pseudo
            else observation
        )

    posterior, diag = _nudged_sweep(
        ensemble, model, obs_model, target_fn, reweight_obs,
        t_start, t_end, config, increments, dt, control_seqs, resample_rng,
        resample, resample_threshold,
    )
    diag.pseudo_targets = np.array(targets)
    diag.variational_status = statuses[-1]
    diag.variational_cost = costs[-1]
    diag.variational_iterations = iteration_total[0]
    diag.variational_cost_evals = cost_eval_total[0]
    diag.timings["variational"] = var_time[0]
    return posterior, diag
