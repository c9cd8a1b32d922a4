"""Diffusion models and path integration.

The integrator advances the drift (plus any frozen control) with a classical
RK4 stage and adds the Brownian contribution once at the end of the step, so
it collapses to plain RK4 when the dispersion vanishes.  Strong order is 1/2,
which is all the additive noise allows anyway.
"""

from __future__ import annotations

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


def l63_jacobian(state: Array, params: L63Params = L63Params()) -> Array:
    """Jacobian of the Lorenz-63 drift, shape (..., 3, 3)."""
    state = np.asarray(state, dtype=float)
    x = state[..., 0]
    y = state[..., 1]
    z = state[..., 2]
    jac = np.zeros(state.shape[:-1] + (3, 3))
    jac[..., 0, 0] = -params.alpha
    jac[..., 0, 1] = params.alpha
    jac[..., 1, 0] = params.gamma - z
    jac[..., 1, 1] = -1.0
    jac[..., 1, 2] = -x
    jac[..., 2, 0] = y
    jac[..., 2, 1] = x
    jac[..., 2, 2] = -params.beta
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


@dataclass(frozen=True)
class BrownianPath:
    """Pre-drawn Wiener increments on a uniform grid.

    Keeping paths explicit (rather than drawing inside the integrator) is
    what makes runs repeatable and lets two filters share the same noise.
    """

    dt: float
    increments: Array  # (n_steps, dim), each row ~ N(0, dt I)
    stream_id: str = ""

    def __post_init__(self):
        inc = np.array(self.increments, dtype=float)
        inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if inc.ndim != 2:
            raise ValueError("increments must be (n_steps, dim)")
        if not np.all(np.isfinite(inc)):
            raise ValueError("increments must be finite")

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def dimension(self) -> int:
        return self.increments.shape[1]


def sample_brownian_path(
    rng: np.random.Generator,
    n_steps: int,
    dim: int,
    dt: float,
    stream_id: str = "",
) -> BrownianPath:
    inc = rng.normal(0.0, np.sqrt(dt), size=(n_steps, dim))
    return BrownianPath(dt=dt, increments=inc, stream_id=stream_id)


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


def integrate_step(
    model: SdeModel, state: Array, control: Array, dt: float, dW: Array
) -> Array:
    """One step of the stochastic integrator.

    The control is held constant over the step, so the deterministic part is
    the standard fourth-order update for f(x) + u; the Brownian increment is
    added once at the end.  Raises IntegrationError on non-finite output.
    """
    x = np.asarray(state, dtype=float)
    u = np.asarray(control, dtype=float)
    # overflow surfaces as the IntegrationError below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        out = rk4_step(model.drift, x, u, dt) + dW @ model.dispersion.T
    if not np.all(np.isfinite(out)):
        raise IntegrationError(
            f"non-finite state after step of size {dt} from {x}"
        )
    return out


def integrate_path(
    model: SdeModel,
    x0: Array,
    controls: Array,
    path: BrownianPath,
    t0: float = 0.0,
    t1: float | None = None,
) -> Array:
    """Advance ``x0`` through every increment of ``path``.

    controls may be a single (d,) vector (constant in time) or an
    (n_steps, d) schedule, piecewise constant over the steps.  If ``t1`` is
    given, (t1 - t0) / dt must match the number of increments.  Returns the
    full trajectory, shape (n_steps + 1, d).  Two calls with the same path
    and arguments produce bit-identical trajectories.
    """
    n_steps = path.n_steps
    if t1 is not None:
        ratio = (t1 - t0) / path.dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) != n_steps:
            raise ValueError(
                "(t1 - t0) / dt must be an integer matching the path length"
            )
    x0 = np.asarray(x0, dtype=float)
    controls = np.asarray(controls, dtype=float)
    if controls.ndim == 1:
        controls = np.broadcast_to(controls, (n_steps, x0.shape[-1]))
    elif controls.shape[0] != n_steps:
        raise ValueError("control schedule must have one row per step")
    out = np.empty((n_steps + 1,) + x0.shape)
    out[0] = x0
    x = x0
    for s in range(n_steps):
        try:
            x = integrate_step(model, x, controls[s], path.dt, path.increments[s])
        except IntegrationError as err:
            raise IntegrationError(f"step {s}: {err}") from None
        out[s + 1] = x
    return out
