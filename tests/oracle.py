"""One-row reference integrator for the bitwise tests.

A plain per-step loop with the control held constant: the classical RK4
update for f(x) + u, then the Brownian contribution sigma dW as a
one-vector product.  The batched integrator must reproduce it bit for
bit, row by row.
"""

import numpy as np

from varnpf.sde import IntegrationError, rk4_step


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
