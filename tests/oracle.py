"""Reference integrators for the bitwise tests.

``rk4_step`` is the classical RK4 update written with plain array
expressions, one new array per operation.  ``one_row_path`` is a plain
per-step loop over it with the control held constant, then the Brownian
contribution sigma dW as a one-vector product.  The package's
preallocated stepper and the batched integrators must reproduce them bit
for bit, row by row.
"""

import numpy as np

from varnpf.sde import IntegrationError


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
