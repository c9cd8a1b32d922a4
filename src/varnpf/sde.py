"""Diffusion models, Wiener increments and path integration.

Propagation noise is a plain array of pre-drawn Wiener increments, (S, d)
for one path or (n, S, d) for n particles.  :func:`rk4_path` is the
package's one entry point for integrating states: it returns every step's
state, start included, of classical RK4 stages of the drift (plus any
control held constant), with the Brownian contribution added once at the
end of each step.  It picks one of two kernels; no caller chooses.

- :func:`rk4_states`, the array kernel, advances every row of a state
  array together and writes each step's state straight into the path it
  returns.  Its stage states, stage slopes and scratch are allocated once
  per call and every ufunc writes into one of them or into the path (the
  output passed positionally, which numpy parses faster than ``out=``),
  so a step costs a fixed number of ufunc calls, about 50, and no
  allocation.  A Lorenz-63 model (one with ``l63_coefficients``) has its
  drift written through column views of the stage arrays into the
  slope's columns (:func:`l63_drift_into`; :func:`l63_drift` is a wrapper
  over the same form).  Any other model's ``drift`` is called on each
  stage and copied into the slope.
- The few-row kernel integrates a Lorenz-63 model (one with
  ``l63_coefficients``) on at most SMALL_ROWS rows, row by row on Python
  floats, in the array kernel's operation order.  Below that width the
  numpy calls' fixed cost, not the arithmetic, sets the array kernel's
  time; the float kernel's grows with the rows instead, by about 1 us
  per row and step.  Best of 15, in ms, floats / arrays, on a 2-vCPU x86
  host (CPython 3.11, numpy 2.4):

      rows   10-step advection   50-step flow   50-step noisy flow
         1     0.030 / 0.297     0.048 / 1.315     0.057 / 1.334
         8     0.119 / 0.219     0.362 / 0.860     0.418 / 0.881
        16     0.223 / 0.229     0.720 / 0.883     0.831 / 0.905
        18     0.249 / 0.233     0.816 / 0.898     0.931 / 0.914
        20     0.276 / 0.235     0.895 / 0.925     1.043 / 0.913
        24     0.323 / 0.235     1.074 / 0.894     1.246 / 0.914
        40     0.532 / 0.261     1.801 / 0.912     2.079 / 0.938

  The kernels cross near 17 rows for the advection, 18 for the noisy
  flow (a control solve's realizations) and 21 for the drift-only flow,
  so SMALL_ROWS = 18 sits at the first two crossovers.  The rows that
  matter most sit far below them: a variational fit flows one row at a
  time, and the 350-step truth is one row, which takes 0.5 ms instead of
  11 ms.

Both kernels give the same bits.  Python floats and numpy's elementwise
ufuncs both round once per IEEE operation, and CPython never fuses two
operations into one (no FMA), so the same operations in the same order on
the same doubles give the same doubles, and overflow gives inf and nan in
the same places.  Each row's bits do not depend on the other rows when
the drift acts row by row, so the width that picks the kernel does not
move them either.

:func:`advect_particles` is the stochastic integrator of the filters,
over one path that freezes rows leaving float64; the truth runs through
it on one row.  With the noise added after the RK4 update, it collapses to
plain RK4 when the dispersion vanishes.  Strong order is 1/2, which is
all the additive noise allows anyway.

Perturbations of a start move through an RK4 step by a propagator formed
from the Jacobians at the step's four stage states
(:func:`rk4_propagators`), and through a whole path by the product of its
steps' propagators, taken pairwise (:func:`pairwise_product`).  The
nudged filters' sensitivity pass and :func:`rk4_tangent`, the exact
derivative of a drift-only flow for the variational fit, both use them.
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


@functools.lru_cache(maxsize=8)
def l63_drift_into(
    alpha: float, gamma: float, beta: float
) -> Callable[[tuple, tuple, Array], None]:
    """The Lorenz-63 vector field in column form, for these coefficients.

    The returned ``drift_into(columns, out_columns, scratch)`` writes the
    field of the state columns (x, y, z) into ``out_columns``, with
    ``scratch`` one column-shaped buffer.  The operations run in the order
    alpha (y - x), (gamma x - y) - x z and x y - beta z, each into a
    given output: the package's one L63 formula.  The coefficients are
    read-only 0-d arrays, which numpy takes as operands at less cost per
    call than Python floats, and round the same.  Keyed by the three
    floats, as _l63_jacobian_constants is.
    """
    alpha, gamma, beta = (np.array(c) for c in (alpha, gamma, beta))
    for c in (alpha, gamma, beta):
        c.flags.writeable = False

    def drift_into(columns, out_columns, scratch):
        x, y, z = columns
        dx, dy, dz = out_columns
        np.subtract(y, x, dx)
        np.multiply(alpha, dx, dx)
        np.multiply(gamma, x, dy)
        np.subtract(dy, y, dy)
        np.multiply(x, z, scratch)
        np.subtract(dy, scratch, dy)
        np.multiply(x, y, dz)
        np.multiply(beta, z, scratch)
        np.subtract(dz, scratch, dz)

    return drift_into


def _columns(a: Array) -> tuple:
    """The x, y and z views of a Lorenz-63 state array ``a``, 0-d arrays
    for a single row.  Taken once per RK4 step, so spelled out: a
    generator over the last axis costs about three times as much."""
    return a[..., 0], a[..., 1], a[..., 2]


def l63_drift(state: Array, params: L63Params = L63Params()) -> Array:
    """Lorenz-63 vector field.  Broadcasts over leading axes."""
    state = np.asarray(state, dtype=float)
    out = np.empty_like(state)
    l63_drift_into(params.alpha, params.gamma, params.beta)(
        _columns(state), _columns(out), np.empty(state.shape[:-1])
    )
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
    ``l63_coefficients``, (alpha, gamma, beta) when ``drift`` is the
    Lorenz-63 field, lets :func:`rk4_states` step that field in column
    form (:func:`l63_drift_into`) and :func:`rk4_path` integrate few rows
    on Python floats.
    """

    dimension: int
    drift: Callable[[Array], Array]
    drift_jacobian: Callable[[Array], Array]
    dispersion: Array
    diffusion: Array
    l63_coefficients: tuple[float, float, float] | None = None

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
        l63_coefficients=(
            float(params.alpha), float(params.gamma), float(params.beta)
        ),
    )


def sample_brownian_path(
    rng: np.random.Generator, n_steps: int, dim: int, dt: float
) -> Array:
    """Wiener increments on a uniform grid, shape (n_steps, dim).

    Each row is N(0, dt I).  Drawing the increments ahead of the
    integrator is what makes runs repeatable and lets filters share noise.
    One draw of n steps gives the same bits as consecutive draws of pieces
    summing to n from the same generator, so a run draws each particle's
    increments for all its cycles in one call.
    """
    return rng.normal(0.0, np.sqrt(dt), size=(n_steps, dim))


def whole_steps(t0: float, t1: float, dt: float) -> int:
    """Number of integrator steps spanning [t0, t1]; must divide evenly."""
    ratio = (t1 - t0) / dt
    steps = int(round(ratio))
    if abs(ratio - steps) > 1e-9 or steps < 1:
        raise ValueError(f"[{t0}, {t1}] must span a whole number of steps")
    return steps


# drift evaluations per RK4 step and row
RK4_STAGES = 4


def rk4_states(
    model: SdeModel,
    x0: Array,
    dt: float,
    n_steps: int,
    control: Array | None = None,
    noise: Array | None = None,
) -> Array:
    """The state at every one of ``n_steps`` RK4 steps of f + control.

    ``x0`` is (..., d), one row per state; ``control`` broadcasts against
    it and is held over every step (None means f alone); ``noise[s]``,
    when given, is added to step s's RK4 update, so ``noise`` is (S, ...,
    d).  Each step rounds as x + (dt/6) (k1 + 2 (k2 + k3) + k4) + noise[s]
    with k_i = f(stage_i) + control, the classical order.

    Returns a new (n_steps + 1,) + x0.shape path, ``x0`` at index 0; step
    s reads path[s] and writes path[s + 1].  ``x0`` is only read.
    Overflow propagates as inf or nan; callers decide how to check it, and
    set numpy's error state around the call.
    """
    x = np.asarray(x0, dtype=float)
    path = np.empty((n_steps + 1,) + x.shape)
    path[0] = x
    stage, k1, k2, k3, k4 = (np.empty(x.shape) for _ in range(5))
    if model.l63_coefficients is None:
        def drift_into(y, k, _):
            np.copyto(k, model.drift(y))

        def columns(a):  # the generic drift takes whole arrays
            return a
    else:
        drift_into = l63_drift_into(*model.l63_coefficients)
        columns = _columns
    # views, once per call, of every stage array a step reads or writes
    stage_cols, k1_cols = columns(stage), columns(k1)
    scratch = np.empty(x.shape[:-1])
    # 0-d step factors cost a ufunc call less than Python floats
    half, full, sixth, two = (
        np.array(c) for c in (0.5 * dt, dt, dt / 6.0, 2.0)
    )
    later = [(k2, columns(k2), half), (k3, columns(k3), half),
             (k4, columns(k4), full)]
    add, mul = np.add, np.multiply  # the last argument is the output
    for s in range(n_steps):
        x, out = path[s], path[s + 1]
        drift_into(columns(x), k1_cols, scratch)
        if control is not None:
            add(k1, control, k1)
        k = k1
        for k_next, k_next_cols, h in later:
            mul(h, k, stage)  # stage = x + h k
            add(x, stage, stage)
            drift_into(stage_cols, k_next_cols, scratch)
            if control is not None:
                add(k_next, control, k_next)
            k = k_next
        add(k2, k3, k2)  # x + (dt/6) (k1 + 2 (k2 + k3) + k4)
        mul(two, k2, k2)
        add(k1, k2, k1)
        add(k1, k4, k1)
        mul(sixth, k1, k1)
        add(x, k1, out)
        if noise is not None:
            add(out, noise[s], out)
    return path


# rk4_path integrates Lorenz-63, and ensemble.quadratic_form sums, on
# Python floats up to this many rows (see the module docstring)
SMALL_ROWS = 18


def _l63_float_rows(
    coefficients: tuple[float, float, float],
    starts: list,
    dt: float,
    n_steps: int,
    controls: list | None,
    noises: list | None,
) -> list[list[float]]:
    """rk4_states for Lorenz-63 on Python floats, one row after another.

    ``starts`` holds n [x, y, z] rows, ``controls`` n [ux, uy, uz] rows or
    None, ``noises`` n rows of n_steps [nx, ny, nz] or None.  Returns each
    row's path as one flat list, start included.  Every operation is the
    array kernel's, in its order: drift alpha (y - x), (gamma x - y) - x z
    and x y - beta z; k = f(stage) + control; stage = x + h k; then
    x + (dt/6) ((k1 + 2 (k2 + k3)) + k4) + noise[s].
    """
    alpha, gamma, beta = coefficients
    half, sixth = 0.5 * dt, dt / 6.0
    controlled = controls is not None
    paths = []
    for i, (x, y, z) in enumerate(starts):
        if controlled:
            ux, uy, uz = controls[i]
        kicks = None if noises is None else noises[i]
        path = [x, y, z]
        for s in range(n_steps):
            kx = alpha * (y - x)
            ky = (gamma * x - y) - x * z
            kz = x * y - beta * z
            if controlled:
                kx, ky, kz = kx + ux, ky + uy, kz + uz
            ax, ay, az = kx, ky, kz
            sx, sy, sz = x + half * kx, y + half * ky, z + half * kz
            kx = alpha * (sy - sx)
            ky = (gamma * sx - sy) - sx * sz
            kz = sx * sy - beta * sz
            if controlled:
                kx, ky, kz = kx + ux, ky + uy, kz + uz
            bx, by, bz = kx, ky, kz
            sx, sy, sz = x + half * kx, y + half * ky, z + half * kz
            kx = alpha * (sy - sx)
            ky = (gamma * sx - sy) - sx * sz
            kz = sx * sy - beta * sz
            if controlled:
                kx, ky, kz = kx + ux, ky + uy, kz + uz
            bx, by, bz = bx + kx, by + ky, bz + kz  # k2 + k3
            sx, sy, sz = x + dt * kx, y + dt * ky, z + dt * kz
            kx = alpha * (sy - sx)
            ky = (gamma * sx - sy) - sx * sz
            kz = sx * sy - beta * sz
            if controlled:
                kx, ky, kz = kx + ux, ky + uy, kz + uz
            x = x + sixth * ((ax + 2.0 * bx) + kx)
            y = y + sixth * ((ay + 2.0 * by) + ky)
            z = z + sixth * ((az + 2.0 * bz) + kz)
            if kicks is not None:
                nx, ny, nz = kicks[s]
                x, y, z = x + nx, y + ny, z + nz
            path += x, y, z
        paths.append(path)
    return paths


def rk4_path(
    model: SdeModel,
    x0: Array,
    dt: float,
    n_steps: int,
    control: Array | None = None,
    noise: Array | None = None,
) -> Array:
    """The states of :func:`rk4_states` at every step, start included.

    Takes the arguments of rk4_states, ``noise`` (n_steps, ..., d), and
    returns a new C-ordered (n_steps + 1,) + x0.shape array.  A Lorenz-63
    model (one with ``l63_coefficients``) on at most SMALL_ROWS rows runs
    on the few-row kernel, any other on rk4_states; both give the same
    bits.  Overflow propagates as inf or nan, without a warning.
    """
    x = np.asarray(x0, dtype=float)
    shape = (n_steps + 1,) + x.shape
    d = x.shape[-1]
    starts = x.reshape(-1, d)
    if model.l63_coefficients is not None and len(starts) <= SMALL_ROWS:
        rows = _l63_float_rows(
            model.l63_coefficients, starts.tolist(), dt, n_steps,
            None if control is None else np.broadcast_to(
                control, x.shape).reshape(-1, d).tolist(),
            None if noise is None else np.broadcast_to(
                noise, (n_steps,) + x.shape
            ).reshape(n_steps, -1, d).transpose(1, 0, 2).tolist(),
        )
        path = np.array(rows).reshape(len(starts), n_steps + 1, d)
        return np.ascontiguousarray(path.transpose(1, 0, 2)).reshape(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        return rk4_states(model, x, dt, n_steps, control, noise)


def rk4_propagators(
    j1: Array, j2: Array, j3: Array, j4: Array, dt: float
) -> Array:
    """The tangent-linear maps of RK4 steps, from their stage Jacobians.

    A step's update moves with a perturbation of its start through
    A = I + dt/6 (p1 + 2 (p2 + p3) + p4), with p1 = J1, p2 = J2 (I + dt/2
    p1), p3 = J3 (I + dt/2 p2) and p4 = J4 (I + dt p3), where J_i is the
    drift Jacobian at the state stage i reads.  The J_i are (..., d, d)
    stacks, one matrix per step (and row), and every A is formed at once
    in three buffers, p4 written over p3.  The d x d products stay
    np.matmul, which an explicit sum of d terms would round differently.
    Returns the (..., d, d) stack of A.
    """
    eye = np.eye(j1.shape[-1])
    arg = np.multiply(0.5 * dt, j1)
    arg += eye
    prop = np.matmul(j2, arg)
    np.multiply(0.5 * dt, prop, arg)
    arg += eye
    p3 = np.matmul(j3, arg)
    np.multiply(dt, p3, arg)
    arg += eye
    prop += p3
    p4 = np.matmul(j4, arg, out=p3)
    prop *= 2.0
    prop += j1
    prop += p4
    prop *= dt / 6.0
    prop += eye
    return prop


def pairwise_product(factors: Array) -> Array:
    """F_{S-1} ... F_0 of an (S, ..., d, d) stack, shape (..., d, d).

    Multiplied level by level as F_{2i+1} F_{2i}, with an odd last factor
    carried up, so ceil(log2 S) stacked matmuls replace S - 1 in turn: the
    step-by-step product rounded in another order.  Only a level with a
    carried factor is copied.
    """
    while len(factors) > 1:
        pairs = len(factors) // 2
        level = np.matmul(factors[1:2 * pairs:2], factors[:2 * pairs:2])
        factors = (
            np.concatenate((level, factors[-1:])) if len(factors) % 2
            else level
        )
    return factors[0]


def rk4_tangent(model: SdeModel, path: Array, dt: float) -> Array:
    """The derivative of a drift-only RK4 flow's last state by its start.

    ``path`` is one row's (S + 1, d) flow, as rk4_path returns it.  The
    stage states of all S steps are formed from it at once (x_s, then
    x_s + dt/2 k1, x_s + dt/2 k2 and x_s + dt k3, with k_i the drift at
    the stage before), and their 4S Jacobians take one drift_jacobian
    call.  Psi = A_{S-1} ... A_0 (rk4_propagators, pairwise_product) is
    the exact derivative of the discrete map, the tangent-linear model of
    the flow.  Costs 3S drift rows and 4S Jacobians.  Overflow propagates
    as inf or nan, without a warning.
    """
    x = path[:-1]
    stages = np.empty((4,) + x.shape)
    stages[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i, h in ((1, 0.5 * dt), (2, 0.5 * dt), (3, dt)):
            np.multiply(h, model.drift(stages[i - 1]), stages[i])
            stages[i] += x
        return pairwise_product(
            rk4_propagators(*model.drift_jacobian(stages), dt)
        )


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
    together through one :func:`rk4_path`, and the Brownian contribution
    sigma dW is added once at the end of each step; a row's bits do not
    depend on the other rows.  A particle whose trajectory leaves float64
    is frozen at its start state and reported in the failure list; the
    caller zeroes its weight.  Returns trajectories of shape (S + 1, n, d).
    """
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    # stacked one-vector products: a plain (n, d) @ (d, d) product rounds
    # differently depending on the row count
    noise = (increments[..., None, :] @ model.dispersion.T)[..., 0, :]
    out = rk4_path(
        model, states, dt, noise.shape[1], controls, noise.transpose(1, 0, 2)
    )
    failed = ~np.isfinite(out).all(axis=(0, 2))
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
