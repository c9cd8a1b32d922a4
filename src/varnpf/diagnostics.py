"""Per-cycle diagnostic records shared by all assimilation cycles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import ParticleEnsemble

Array = np.ndarray


class CycleFailure(RuntimeError):
    """Every particle in a cycle blew up; the run cannot continue.

    ``counters`` and ``timings`` hold the CycleDiagnostics counters and
    timings of the failing cycle's work so far, and ``solves`` a nudged
    cycle's per-solve arrays (batches_used, phi_floored, rollbacks), so
    the run record still counts that work.
    """

    def __init__(
        self, message: str, counters: dict | None = None,
        timings: dict | None = None, solves: dict | None = None,
    ):
        super().__init__(message)
        self.counters = dict(counters or {})
        self.timings = dict(timings or {})
        self.solves = dict(solves or {})


@dataclass
class CycleDiagnostics:
    """Everything a cycle observed, enough to rebuild the error metrics.

    ``t_start`` and ``t_end`` are RunContext.bounds(k) of cycle k.
    ``step_states`` holds the advected trajectory at every integrator step,
    including both endpoints; the states at ``t_end`` are pre-update.  The
    nudging fields stay None for the plain bootstrap cycle.  ``counters``
    maps counts of the cycle's work, each a series harness.RECORD_SERIES
    marks COUNTER, to their values; ``timings`` maps ``control`` and
    ``variational``, where the cycle did such work, to seconds.
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
    counters: dict = field(default_factory=dict)

    # nudged cycles only
    control_proposed: Array | None = None  # (M, n, d)
    control_applied: Array | None = None  # (M, n, d)
    rollbacks: Array | None = None  # (M, n) bool
    phi_floored: Array | None = None  # (M, n) bool
    batches_used: Array | None = None  # (M, n) int
    solver_converged: Array | None = None  # (M, n) bool
    log_rn: Array | None = None  # (n,)
    step_ratio: Array | None = None  # (S, n), nudging / Brownian magnitude

    # variationally guided cycles only
    variational_status: str | None = None
    variational_cost: float | None = None
    pseudo_targets: Array | None = None  # (M, m)

    timings: dict = field(default_factory=dict)
