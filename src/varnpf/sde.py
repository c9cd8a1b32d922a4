"""Diffusion models, Wiener increments and path integration.

Propagation noise is a plain array of pre-drawn Wiener increments, (S, d)
for one path or (n, S, d) for n particles.  :func:`advect_particles` is the
one stochastic integrator: it advances the drift (plus any frozen control)
with a classical RK4 stage over every row at once and adds the Brownian
contribution once at the end of the step, so it collapses to plain RK4
when the dispersion vanishes.  Strong order is 1/2, which is all the
additive noise allows anyway.  The truth runs through it on one row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray


class IntegrationError(RuntimeError):
    """A trajectory left the finite range of float64."""


@dataclass(frozen=True)
class L63Params:
    """Lorenz-63 coefficients, classical chaotic regime by default."""

    alpha: float = 10.0
    gamma: float = 28.0
    beta: float = 8.0 / 3.0


def l63_drift(state: Array, params: L63Params = L63Params()) -> Array:
    """Lorenz-63 vector field.  Broadcasts over leading axes."""
    state = np.asarray(state, dtype=float)
    x = state[..., 0]
    y = state[..., 1]
    z = state[..., 2]
    out = np.empty_like(state)
    out[..., 0] = params.alpha * (y - x)
    out[..., 1] = params.gamma * x - y - x * z
    out[..., 2] = x * y - params.beta * z
    return out


@functools.lru_cache(maxsize=8)
def _l63_jacobian_constants(alpha: float, beta: float) -> Array:
    """The state-independent entries of the Lorenz-63 Jacobian, read-only.

    Keyed by the two floats rather than by L63Params, whose generated hash
    and equality cost more than the lookup saves.
    """
    const = np.zeros((3, 3))
    const[0, 0] = -alpha
    const[0, 1] = alpha
    const[1, 1] = -1.0
    const[2, 2] = -beta
    const.flags.writeable = False
    return const


def l63_jacobian(state: Array, params: L63Params = L63Params()) -> Array:
    """Jacobian of the Lorenz-63 drift, shape (..., 3, 3)."""
    state = np.asarray(state, dtype=float)
    x = state[..., 0]
    y = state[..., 1]
    z = state[..., 2]
    jac = np.empty(state.shape[:-1] + (3, 3))
    jac[...] = _l63_jacobian_constants(params.alpha, params.beta)
    jac[..., 1, 0] = params.gamma - z
    jac[..., 1, 2] = -x
    jac[..., 2, 0] = y
    jac[..., 2, 1] = x
    return jac


def l63_fixed_points(params: L63Params = L63Params()) -> Array:
    """All three equilibria: the origin and the two lobe centers."""
    r = np.sqrt(params.beta * (params.gamma - 1.0))
    return np.array([
        [0.0, 0.0, 0.0],
        [r, r, params.gamma - 1.0],
        [-r, -r, params.gamma - 1.0],
    ])


@dataclass(frozen=True)
class SdeModel:
    """Ito diffusion dX = f(X) dt + sigma dW with constant dispersion.

    ``diffusion`` is sigma sigma^T, kept explicit because the feedback
    control and the weight formulas want it directly.
    """

    dimension: int
    drift: Callable[[Array], Array]
    drift_jacobian: Callable[[Array], Array]
    dispersion: Array
    diffusion: Array

    def __post_init__(self):
        sigma = np.array(self.dispersion, dtype=float)
        big_r = np.array(self.diffusion, dtype=float)
        sigma.flags.writeable = False
        big_r.flags.writeable = False
        object.__setattr__(self, "dispersion", sigma)
        object.__setattr__(self, "diffusion", big_r)
        d = self.dimension
        if sigma.shape != (d, d) or big_r.shape != (d, d):
            raise ValueError("dispersion and diffusion must be (d, d)")
        if not np.all(np.abs(big_r - sigma @ sigma.T) <= 1e-12):
            raise ValueError("diffusion must equal dispersion @ dispersion.T")


DEFAULT_L63_DIFFUSION = np.array(
    [[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]]
)


def lorenz63(
    params: L63Params = L63Params(), diffusion: Array | None = None
) -> SdeModel:
    """Stochastic Lorenz-63 with correlated additive noise.

    The dispersion is the lower-triangular Cholesky factor of ``diffusion``.
    Passing an all-zero diffusion gives the deterministic system.
    """
    if diffusion is None:
        diffusion = DEFAULT_L63_DIFFUSION
    diffusion = np.asarray(diffusion, dtype=float)
    if np.any(diffusion):
        dispersion = np.linalg.cholesky(diffusion)
    else:
        dispersion = np.zeros_like(diffusion)
    return SdeModel(
        dimension=3,
        drift=lambda x: l63_drift(x, params),
        drift_jacobian=lambda x: l63_jacobian(x, params),
        dispersion=dispersion,
        diffusion=diffusion,
    )


def sample_brownian_path(
    rng: np.random.Generator, n_steps: int, dim: int, dt: float
) -> Array:
    """Wiener increments on a uniform grid, shape (n_steps, dim).

    Each row is N(0, dt I).  Drawing the increments ahead of the
    integrator is what makes runs repeatable and lets filters share noise.
    """
    return rng.normal(0.0, np.sqrt(dt), size=(n_steps, dim))


def whole_steps(t0: float, t1: float, dt: float) -> int:
    """Number of integrator steps spanning [t0, t1]; must divide evenly."""
    ratio = (t1 - t0) / dt
    steps = int(round(ratio))
    if abs(ratio - steps) > 1e-9 or steps < 1:
        raise ValueError(f"[{t0}, {t1}] must span a whole number of steps")
    return steps


def rk4_step(drift: Callable[[Array], Array], x: Array,
             control: Array | None, dt: float) -> Array:
    """Unchecked deterministic RK4 update for f(x) + control over ``dt``.

    ``control`` of None means f alone.  Broadcasts over leading axes, one
    row per state, and each row's result does not depend on the others
    when the drift acts row by row.  Overflow propagates as inf or nan:
    callers decide how to check it.
    """
    def rhs(y):
        return drift(y) if control is None else drift(y) + control

    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def advect_particles(
    model: SdeModel,
    states: Array,
    controls: Array,
    increments: Array,
    dt: float,
) -> tuple[Array, list[int]]:
    """Propagate each particle along its own Wiener increments.

    controls: (n, d), one constant control per particle; increments:
    (n, S, d), particle i's S steps in row i.  All particles advance
    together, one RK4 step over the (n, d) state array per time step, and
    the Brownian contribution sigma dW is added once at the end of each
    step; a row's bits do not depend on the other rows.  A particle whose
    trajectory leaves float64 is frozen at its start state and reported in
    the failure list; the caller zeroes its weight.  Returns trajectories
    of shape (S + 1, n, d).
    """
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    # stacked one-vector products: a plain (n, d) @ (d, d) product rounds
    # differently depending on the row count
    noise = (increments[..., None, :] @ model.dispersion.T)[..., 0, :]
    n_steps = noise.shape[1]
    out = np.empty((n_steps + 1,) + states.shape)
    out[0] = states
    failed = np.zeros(states.shape[0], dtype=bool)
    x = states
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(n_steps):
            x = rk4_step(model.drift, x, controls, dt) + noise[:, s]
            # one reduction per step; the per-row test only after a loss
            if not np.isfinite(x).all():
                lost = ~np.all(np.isfinite(x), axis=1)
                failed |= lost
                x[lost] = states[lost]  # keep failed rows finite
            out[s + 1] = x
    out[:, failed] = states[failed]
    return out, np.flatnonzero(failed).tolist()


def integrate_path(
    model: SdeModel, x0: Array, increments: Array, dt: float
) -> Array:
    """Uncontrolled trajectory of ``x0`` through (S, d) ``increments``.

    One row of :func:`advect_particles`, shape (S + 1, d).  Raises
    IntegrationError when the trajectory leaves float64.
    """
    x0 = np.asarray(x0, dtype=float)
    trajs, failed = advect_particles(
        model, x0[None], np.zeros((1,) + x0.shape),
        np.asarray(increments, dtype=float)[None], dt,
    )
    if failed:
        raise IntegrationError(
            f"non-finite state within {len(trajs) - 1} steps of size {dt} "
            f"from {x0}"
        )
    return trajs[:, 0]
