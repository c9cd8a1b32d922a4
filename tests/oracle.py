"""Reference integrators for the bitwise tests, and cycle contexts.

``rk4_step`` is the classical RK4 update written with plain array
expressions, one new array per operation.  ``one_row_path`` is a plain
per-step loop over it with the control held constant, then the Brownian
contribution sigma dW as a one-vector product.  The package's
preallocated stepper and the batched integrators must reproduce them bit
for bit, row by row.

``cycle_context`` builds the RunContext that the tests call cycles
(``CYCLES``) with, for one or a few cycles.
"""

import numpy as np

from varnpf.bootstrap_pf import RunContext, pf_assimilation_cycle
from varnpf.nudging import NudgingConfig, npf_assimilation_cycle
from varnpf.sde import IntegrationError
from varnpf.seeding import CONTROL, stream_key
from varnpf.var_npf import VarNpfSettings, var_npf_assimilation_cycle

# each filter's cycle(ensemble, ctx, k), by filter name
CYCLES = {
    "pf": pf_assimilation_cycle,
    "npf": npf_assimilation_cycle,
    "var_npf": var_npf_assimilation_cycle,
}


def cycle_context(
    model, obs_model, observations, increments, resample_rng, **fields
):
    """A RunContext over ``increments`` (n, T, d), with one cycle per row
    of ``observations`` (one observation vector makes one cycle).

    ``fields`` overrides the other RunContext fields, whose defaults are
    dt 0.01, the grid 0, dt, .., T dt, resampling below an ESS of half
    the particles (``resample_threshold=0.0`` turns it off), default
    nudging and variational settings, and the control root (seed 0; CONTROL), so
    particle i's control streams in cycle k are the children of
    ``stream_sequence(0, CONTROL, k, i)``.
    """
    fields = {
        "dt": 0.01, "resample_threshold": 0.5,
        "nudging": NudgingConfig(), "variational": VarNpfSettings(),
        "control": stream_key(0, CONTROL), **fields,
    }
    fields.setdefault(
        "times", fields["dt"] * np.arange(np.shape(increments)[1] + 1)
    )
    return RunContext(
        model=model,
        obs_model=obs_model,
        observations=np.atleast_2d(np.asarray(observations, dtype=float)),
        noise=increments,
        resample_rng=resample_rng,
        **fields,
    )


def rk4_step(drift, x, control, dt):
    """Unchecked deterministic RK4 update for f(x) + control over ``dt``.

    ``control`` of None means f alone.  Broadcasts over leading axes, one
    row per state.  Overflow propagates as inf or nan.
    """
    def rhs(y):
        return drift(y) if control is None else drift(y) + control

    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def one_row_path(model, x0, control, increments, dt):
    """Trajectory of ``x0`` along (S, d) ``increments``, shape (S + 1, d).

    Raises IntegrationError at the first non-finite state.
    """
    x = np.asarray(x0, dtype=float)
    u = np.asarray(control, dtype=float)
    out = np.empty((len(increments) + 1,) + x.shape)
    out[0] = x
    for s, dw in enumerate(increments):
        with np.errstate(over="ignore", invalid="ignore"):
            x = rk4_step(model.drift, x, u, dt) + dw @ model.dispersion.T
        if not np.all(np.isfinite(x)):
            raise IntegrationError(f"step {s}: non-finite state")
        out[s + 1] = x
    return out
