"""Nudged filter guided by a variational pseudo observation path.

Instead of pulling every subinterval toward the far-away terminal
observation, the cycle fits an initial state to the ensemble and the
observation, flows it deterministically to the end of the interval, and
hands the flow samples to the control solver as near-horizon targets.
Controls then only ever look one subinterval ahead, which keeps
realization bundles short and the change-of-measure cost small.

One guidance path serves both modes: a fit at the start of the interval,
and optionally a refit from the mid-flight ensemble at every later
subinterval, each over the rest of the interval.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bootstrap_pf import RunContext
from .diagnostics import CycleDiagnostics
from .ensemble import ParticleEnsemble, empirical_moments
from .nudging import _nudged_sweep, check_bool, check_int, check_real
from .variational import (
    VariationalProblem,
    VariationalResult,
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

    def __post_init__(self):
        for name in ("regularization_eps", "bound_sigmas"):
            check_real(getattr(self, name), name)
        if not self.regularization_eps > 0.0:
            raise ValueError("regularization_eps must be positive")
        if not self.bound_sigmas > 0.0:
            raise ValueError("bound_sigmas must be positive")
        check_int(self.max_iterations, "max_iterations", 1)
        for name in ("resolve_per_subinterval", "reweight_with_pseudo"):
            check_bool(getattr(self, name), name)


def var_npf_assimilation_cycle(
    ensemble: ParticleEnsemble, ctx: RunContext, k: int
) -> tuple[ParticleEnsemble, CycleDiagnostics]:
    """Cycle k of the variationally guided nudged filter.

    Steps: pseudo observation targets -> per-subinterval one-step-ahead
    control solves -> terminal Bayes reweight with the change-of-measure
    factors -> optional resample.  The sweep's ``target_fn`` makes the
    targets: at subinterval 0, and at every later j with
    ``resolve_per_subinterval``, it fits an initial state over [t_j, t_end]
    to the moments of the ensemble it is handed and fills ``targets[j:]``
    from the fit's flow, and reports the fit's iterations, cost
    evaluations, flows, drift and Jacobian evaluations and seconds, which
    the sweep sums (into the CycleFailure of a failing cycle too).  The
    recorded status and cost are the last fit's.  A stalled variational
    solve is recorded and its best iterate used; the guidance does not
    have to be optimal to be useful.  The settings are the context's
    ``variational``.
    """
    settings = ctx.variational
    model, obs_model, dt = ctx.model, ctx.obs_model, ctx.dt
    observation = ctx.observations[k]
    t_start, t_end = ctx.bounds(k)
    m_sub = ctx.nudging.subintervals
    dt_sub = (t_end - t_start) / m_sub
    targets = np.empty((m_sub, observation.shape[-1]))
    fits: list[VariationalResult] = []

    def target_fn(j, states, weights):
        t_j = t_start + j * dt_sub
        if j and not settings.resolve_per_subinterval:
            return targets[j], t_j + dt_sub, {}, {}
        moments = empirical_moments(ParticleEnsemble(states, weights, t_j))
        tic = time.perf_counter()
        problem = VariationalProblem(
            model=model,
            obs_model=obs_model,
            prior_mean=moments.mean,
            prior_cov=moments.cov,
            observation=observation,
            t_start=t_j,
            t_end=t_end,
            dt=dt,
            eps=settings.regularization_eps,
            bound_sigmas=settings.bound_sigmas,
        )
        result = minimize_cost(problem, max_iterations=settings.max_iterations)
        seconds = time.perf_counter() - tic
        fits.append(result)
        pseudo = build_pseudo_path(
            model, obs_model, result.x_opt, t_j, t_end, m_sub - j, dt,
            flow=result.flow,
        )
        targets[j:] = pseudo.observations[1:]
        return targets[j], t_j + dt_sub, {
            "drift_evals": result.drift_evals,
            "variational_iterations": result.iterations,
            "variational_cost_evals": result.cost_evals,
            "variational_flows": result.flows,
            "jacobian_evals": result.jacobian_evals,
        }, {"variational": seconds}

    # a view: the reweight reads the last target as the sweep left it
    reweight_obs = targets[-1] if settings.reweight_with_pseudo else observation
    posterior, diag = _nudged_sweep(ensemble, ctx, k, target_fn, reweight_obs)
    diag.pseudo_targets = targets
    diag.variational_status = fits[-1].status
    diag.variational_cost = fits[-1].cost_opt
    return posterior, diag
