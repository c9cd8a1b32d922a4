"""Per-cycle diagnostic records shared by all assimilation cycles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import ParticleEnsemble

Array = np.ndarray


class CycleFailure(RuntimeError):
    """Every particle in a cycle blew up; the run cannot continue.

    ``bookkeeping`` maps CycleDiagnostics attributes of a per-cycle series
    to the values the failing cycle had reached (its drift evaluations; a
    nudged cycle's control solves, floors, rollbacks, realization steps
    and propagation passes; and a guided cycle's variational iterations
    and cost evaluations, as its target_fn reported them), so the run
    record still counts that cycle's work.
    """

    def __init__(self, message: str, bookkeeping: dict | None = None):
        super().__init__(message)
        self.bookkeeping = dict(bookkeeping or {})


@dataclass
class CycleDiagnostics:
    """Everything a cycle observed, enough to rebuild the error metrics.

    ``step_states`` holds the advected trajectory at every integrator step,
    including both endpoints; the states at ``t_end`` are pre-update.  The
    nudging fields stay None for the plain bootstrap cycle.
    """

    t_start: float
    t_end: float
    step_states: Array  # (S + 1, n, d)
    carried_weights: Array  # (n,), weights in force during advection
    posterior: ParticleEnsemble
    prior_ness: float
    posterior_ness: float
    resampled: bool
    collapsed: bool
    particle_failures: list[int] = field(default_factory=list)
    # rows x drift evaluations of the cycle's integrators: RK4 stages of
    # advection, control realizations and variational flows, plus the
    # control solves' drift-norm denominators
    drift_evals: int = 0

    # nudged cycles only
    control_proposed: Array | None = None  # (M, n, d)
    control_applied: Array | None = None  # (M, n, d)
    rollbacks: Array | None = None  # (M, n) bool
    phi_floored: Array | None = None  # (M, n) bool
    batches_used: Array | None = None  # (M, n) int
    solver_converged: Array | None = None  # (M, n) bool
    log_rn: Array | None = None  # (n,)
    step_ratio: Array | None = None  # (S, n), nudging / Brownian magnitude
    realization_steps: int = 0
    control_passes: int = 0  # propagation passes of the control solves

    # variationally guided cycles only
    variational_status: str | None = None
    variational_cost: float | None = None
    variational_iterations: int | None = None
    variational_cost_evals: int | None = None
    pseudo_targets: Array | None = None  # (M, m)

    timings: dict = field(default_factory=dict)
