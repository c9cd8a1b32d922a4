"""Dynamics, Wiener increments, and the integrator."""

import numpy as np
import pytest

from varnpf.sde import (
    IntegrationError,
    L63Params,
    SdeModel,
    advect_particles,
    integrate_path,
    l63_drift,
    l63_fixed_points,
    l63_jacobian,
    lorenz63,
    rk4_path,
    rk4_states,
    sample_brownian_path,
    whole_steps,
)
from varnpf import sde

from oracle import rk4_step


def _reference_rk4(f, x, dt):
    """Textbook classical Runge-Kutta step, kept independent on purpose."""
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def ou_model(rate=1.0, noise=1.0):
    return SdeModel(
        dimension=1,
        drift=lambda x: -rate * x,
        drift_jacobian=lambda x: np.full(x.shape[:-1] + (1, 1), -rate),
        dispersion=np.array([[noise]]),
        diffusion=np.array([[noise**2]]),
    )


class TestDrift:
    @pytest.mark.parametrize("shape", [(3,), (7, 3), (4, 2, 3)])
    def test_matches_expression_form_bitwise(self, shape):
        rng = np.random.default_rng(9)
        states = rng.normal(scale=20.0, size=shape)
        for p in (L63Params(), L63Params(alpha=-3.5, gamma=0.0, beta=1e-3)):
            x, y, z = states[..., 0], states[..., 1], states[..., 2]
            want = np.stack([
                p.alpha * (y - x),
                p.gamma * x - y - x * z,
                x * y - p.beta * z,
            ], axis=-1)
            assert l63_drift(states, p).tobytes() == want.tobytes()

    def test_reference_point(self):
        out = l63_drift(np.array([1.0, 1.0, 1.0]))
        assert np.array_equal(out, [0.0, 26.0, 1.0 - 8.0 / 3.0])

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(0)
        states = rng.normal(size=(4, 5, 3))
        batched = l63_drift(states)
        assert batched.shape == states.shape
        for i in range(4):
            for j in range(5):
                assert np.array_equal(batched[i, j], l63_drift(states[i, j]))

    def test_fixed_points_are_roots(self):
        points = l63_fixed_points()
        assert points.shape == (3, 3)
        assert np.allclose(l63_drift(points), 0.0, atol=1e-12)
        beta, gamma = 8.0 / 3.0, 28.0
        b = np.sqrt(beta * (gamma - 1.0))
        assert np.allclose(
            sorted(points[:, 0]), [-b, 0.0, b], atol=1e-12
        )


class TestJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(-20.0, 20.0, size=3)
            jac = l63_jacobian(x)
            fd = np.empty((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[:, j] = (l63_drift(x + e) - l63_drift(x - e)) / (2.0 * h)
            scale = max(1.0, np.abs(jac).max())
            assert np.abs(jac - fd).max() / scale < 1e-6

    def test_origin_and_trace(self):
        p = L63Params()
        expect = np.array([
            [-10.0, 10.0, 0.0],
            [28.0, -1.0, 0.0],
            [0.0, 0.0, -8.0 / 3.0],
        ])
        assert np.array_equal(l63_jacobian(np.zeros(3)), expect)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.normal(scale=10.0, size=3)
            trace = np.trace(l63_jacobian(x))
            assert np.isclose(trace, -(p.alpha + 1.0 + p.beta), atol=1e-12)

    def test_batched_jacobian(self):
        rng = np.random.default_rng(3)
        states = rng.normal(size=(6, 3))
        batched = l63_jacobian(states)
        assert batched.shape == (6, 3, 3)
        for i in range(6):
            assert np.array_equal(batched[i], l63_jacobian(states[i]))

    @staticmethod
    def _zero_filled_jacobian(state, params):
        """Entry-by-entry form on a zero array: the oracle for the template."""
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

    @pytest.mark.parametrize("shape", [(3,), (7, 3), (4, 2, 3)])
    def test_template_matches_entrywise_form_bitwise(self, shape):
        rng = np.random.default_rng(5)
        states = rng.normal(scale=15.0, size=shape)
        states.reshape(-1, 3)[0] = [0.0, -0.0, 28.0]  # signed zeros, gamma - z = 0
        for params in (L63Params(), L63Params(alpha=-3.5, gamma=0.0, beta=1e-3)):
            got = l63_jacobian(states, params)
            want = self._zero_filled_jacobian(states, params)
            assert got.shape == want.shape == shape[:-1] + (3, 3)
            assert got.tobytes() == want.tobytes()
            got[...] = np.nan  # the result owns its memory
            again = l63_jacobian(states, params)
            assert again.tobytes() == want.tobytes()


class TestModel:
    def test_dispersion_reproduces_diffusion(self):
        model = lorenz63()
        err = model.dispersion @ model.dispersion.T - model.diffusion
        assert np.abs(err).max() <= 1e-12
        assert np.allclose(model.dispersion, np.tril(model.dispersion))

    def test_zero_diffusion_gives_zero_dispersion(self):
        model = lorenz63(diffusion=np.zeros((3, 3)))
        assert not np.any(model.dispersion)

    def test_mismatched_factor_rejected(self):
        with pytest.raises(ValueError):
            SdeModel(
                dimension=3,
                drift=l63_drift,
                drift_jacobian=l63_jacobian,
                dispersion=np.eye(3),
                diffusion=2.0 * np.eye(3),
            )


class TestBrownianPath:
    def test_increment_statistics(self):
        rng = np.random.default_rng(4)
        n, dt = 20000, 0.01
        inc = sample_brownian_path(rng, n, 3, dt)
        assert inc.shape == (n, 3)
        # 4 sigma bands around the exact moments
        assert np.abs(inc.mean(axis=0)).max() < 4.0 * np.sqrt(dt / n)
        var = inc.var(axis=0)
        assert np.abs(var - dt).max() < 4.0 * dt * np.sqrt(2.0 / n)

    def test_whole_steps(self):
        assert whole_steps(0.0, 0.5, 0.01) == 50
        assert whole_steps(1.0, 1.1, 0.01) == 10
        with pytest.raises(ValueError):
            whole_steps(0.0, 0.505, 0.01)
        with pytest.raises(ValueError):
            whole_steps(0.0, 0.0, 0.01)


def one_step(model, x, u, dw, dt=0.01):
    """One integrator step of a single particle."""
    trajs, failures = advect_particles(
        model, x[None], u[None], dw[None, None], dt
    )
    assert failures == []
    return trajs[-1, 0]


class TestIntegrator:
    def test_zero_noise_step_is_classical_rk4(self):
        model = lorenz63(diffusion=np.zeros((3, 3)))
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.uniform(-15.0, 15.0, size=3)
            out = one_step(model, x, np.zeros(3), np.zeros(3))
            ref = _reference_rk4(l63_drift, x, 0.01)
            assert np.allclose(out, ref, rtol=0.0, atol=1e-12)

    def test_control_enters_the_drift(self):
        model = lorenz63(diffusion=np.zeros((3, 3)))
        x = np.array([1.0, 2.0, 3.0])
        u = np.array([0.5, -1.0, 2.0])
        out = one_step(model, x, u, np.zeros(3))
        ref = _reference_rk4(lambda s: l63_drift(s) + u, x, 0.01)
        assert np.allclose(out, ref, rtol=0.0, atol=1e-12)

    def test_noise_kick_added_once(self):
        model = lorenz63()
        x = np.array([1.0, 2.0, 3.0])
        dw = np.array([0.1, -0.2, 0.05])
        with_kick = one_step(model, x, np.zeros(3), dw)
        without = one_step(model, x, np.zeros(3), np.zeros(3))
        assert np.allclose(
            with_kick - without, model.dispersion @ dw, atol=1e-14
        )

    def test_shared_path_bitwise_reproducible(self):
        model = lorenz63()
        rng = np.random.default_rng(6)
        inc = sample_brownian_path(rng, 50, 3, 0.01)
        x0 = np.array([1.508870, -1.531271, 25.46091])
        a = integrate_path(model, x0, inc, 0.01)
        b = integrate_path(model, x0, inc, 0.01)
        assert np.array_equal(a, b)
        assert a.shape == (51, 3)

    def test_deterministic_attractor_containment(self):
        model = lorenz63(diffusion=np.zeros((3, 3)))
        x0 = np.array([1.508870, -1.531271, 25.46091])
        traj = integrate_path(model, x0, np.zeros((350, 3)), 0.01)
        assert np.abs(traj).max() < 100.0

    def test_nonfinite_state_aborts(self):
        model = lorenz63()
        with pytest.raises(IntegrationError):
            integrate_path(model, np.array([1e8, 1e8, 1e8]),
                           np.zeros((10, 3)), 0.01)

    def test_strong_convergence_under_halving(self):
        # coarse grids share the fine grid's Brownian increments, so the
        # endpoint error against the fine solution must shrink with dt
        model = ou_model()
        rng = np.random.default_rng(8)
        t_final = 1.0
        dt_fine = t_final / 320.0
        n_paths = 200
        fine_inc = rng.normal(
            0.0, np.sqrt(dt_fine), size=(n_paths, 320, 1)
        )
        x0 = np.array([1.0])

        def endpoint(increments, dt):
            return integrate_path(model, x0, increments, dt)[-1, 0]

        fine_ends = np.array(
            [endpoint(fine_inc[p], dt_fine) for p in range(n_paths)]
        )
        errors = []
        for factor in (32, 16, 8, 4):
            coarse = fine_inc.reshape(n_paths, 320 // factor, factor, 1)
            coarse = coarse.sum(axis=2)
            ends = np.array(
                [endpoint(coarse[p], factor * dt_fine)
                 for p in range(n_paths)]
            )
            errors.append(np.mean(np.abs(ends - fine_ends)))
        assert errors[0] > errors[1] > errors[2] > errors[3]


def generic_l63(params=L63Params(), diffusion=None):
    """Lorenz-63 without the column form: the stepper calls ``drift``."""
    model = lorenz63(params, diffusion)
    return SdeModel(
        dimension=3,
        drift=model.drift,
        drift_jacobian=model.drift_jacobian,
        dispersion=model.dispersion,
        diffusion=model.diffusion,
    )


def oracle_steps(model, x0, dt, n_steps, control=None, noise=None):
    """Every step of the reference RK4 update, noise added after it."""
    x = np.asarray(x0, dtype=float)
    out = []
    for s in range(n_steps):
        x = rk4_step(model.drift, x, control, dt)
        if noise is not None:
            x = x + noise[s]
        out.append(x)
    return np.array(out)


def stepper_steps(model, x0, dt, n_steps, control=None, noise=None):
    """rk4_states' path after the start, checking the start is x0 and
    that x0 is only read."""
    start = np.array(x0, dtype=float)
    path = rk4_states(model, x0, dt, n_steps, control, noise)
    assert path.shape == (n_steps + 1,) + start.shape
    assert path[0].tobytes() == start.tobytes()
    assert np.asarray(x0).tobytes() == start.tobytes()
    return path[1:]


_MODELS = {
    "l63": lorenz63,
    "l63_generic": generic_l63,
    "ou": lambda: ou_model(rate=1.5, noise=0.5),
}


class TestStepper:
    """rk4_states reproduces the reference RK4 update bit for bit."""

    @staticmethod
    def _case(name, n, seed=11):
        model = _MODELS[name]()
        d = model.dimension
        rng = np.random.default_rng(seed)
        x0 = rng.normal(scale=8.0, size=(n, d))
        if d == 3:
            x0[:, 2] += 25.0
        control = rng.normal(scale=3.0, size=(n, d))
        noise = rng.normal(scale=0.1, size=(40, n, d))
        return model, x0, control, noise

    @pytest.mark.parametrize("name", list(_MODELS))
    @pytest.mark.parametrize("n", [1, 10, 88])
    @pytest.mark.parametrize("with_control", [False, True])
    @pytest.mark.parametrize("with_noise", [False, True])
    def test_matches_reference_rk4(self, name, n, with_control, with_noise):
        model, x0, control, noise = self._case(name, n)
        control = control if with_control else None
        noise = noise if with_noise else None
        got = stepper_steps(model, x0, 0.01, 40, control, noise)
        want = oracle_steps(model, x0, 0.01, 40, control, noise)
        assert got.shape == want.shape == (40,) + x0.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", list(_MODELS))
    @pytest.mark.parametrize("with_control", [False, True])
    def test_each_row_as_if_alone(self, name, with_control):
        model, x0, control, noise = self._case(name, 12)
        control = control if with_control else None
        rows = stepper_steps(model, x0, 0.01, 40, control, noise)
        for i in range(len(x0)):
            u = None if control is None else control[i]
            alone = stepper_steps(model, x0[i], 0.01, 40, u, noise[:, i])
            one_row = stepper_steps(
                model, x0[i : i + 1], 0.01, 40,
                None if u is None else u[None], noise[:, i : i + 1],
            )
            assert alone.tobytes() == rows[:, i].tobytes()
            assert one_row[:, 0].tobytes() == rows[:, i].tobytes()

    def test_column_form_equals_generic_drift(self):
        for params in (L63Params(), L63Params(alpha=-3.5, gamma=0.0)):
            _, x0, control, noise = self._case("l63", 9)
            got = stepper_steps(
                lorenz63(params), x0, 0.01, 40, control, noise
            )
            want = stepper_steps(
                generic_l63(params), x0, 0.01, 40, control, noise
            )
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["l63", "l63_generic"])
    @pytest.mark.parametrize("with_control", [False, True])
    def test_rows_that_overflow(self, name, with_control):
        model, x0, control, noise = self._case(name, 6)
        x0[[1, 4]] = [[1e8, 1e8, 1e8], [-3e7, 2e7, 1e8]]
        control = control if with_control else None
        with np.errstate(over="ignore", invalid="ignore"):
            got = stepper_steps(model, x0, 0.01, 40, control, noise)
            want = oracle_steps(model, x0, 0.01, 40, control, noise)
        lost = ~np.all(np.isfinite(got), axis=(0, 2))
        assert lost.tolist() == [False, True, False, False, True, False]
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.array_equal(got, want, equal_nan=True)


@pytest.fixture
def float_rows(monkeypatch):
    """The row counts of every call to the few-row kernel from here on."""
    calls = []
    kernel = sde._l63_float_rows

    def counting(coefficients, starts, *args):
        calls.append(len(starts))
        return kernel(coefficients, starts, *args)

    monkeypatch.setattr(sde, "_l63_float_rows", counting)
    return calls


class TestFewRowKernel:
    """rk4_path integrates Lorenz-63 on Python floats up to SMALL_ROWS rows
    and gives the array kernel's bits."""

    _case = staticmethod(TestStepper._case)

    @pytest.mark.parametrize("n", [1, 10, 16])
    @pytest.mark.parametrize("with_control", [False, True])
    @pytest.mark.parametrize("with_noise", [False, True])
    def test_matches_reference_rk4(
        self, float_rows, n, with_control, with_noise
    ):
        model, x0, control, noise = self._case("l63", n)
        control = control if with_control else None
        noise = noise if with_noise else None
        got = rk4_path(model, x0, 0.01, 40, control, noise)
        want = oracle_steps(model, x0, 0.01, 40, control, noise)
        assert float_rows == [n]
        assert got.shape == (41, n, 3) and got.flags.c_contiguous
        assert got[0].tobytes() == x0.tobytes()
        assert got[1:].tobytes() == want.tobytes()

    @pytest.mark.parametrize("with_control", [False, True])
    def test_rows_that_overflow(self, float_rows, with_control):
        model, x0, control, noise = self._case("l63", 6)
        x0[[1, 4]] = [[1e8, 1e8, 1e8], [-3e7, 2e7, 1e8]]
        control = control if with_control else None
        got = rk4_path(model, x0, 0.01, 40, control, noise)[1:]
        with np.errstate(over="ignore", invalid="ignore"):
            want = oracle_steps(model, x0, 0.01, 40, control, noise)
        assert float_rows == [6]
        lost = ~np.all(np.isfinite(got), axis=(0, 2))
        assert lost.tolist() == [False, True, False, False, True, False]
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.array_equal(got, want, equal_nan=True)

    def test_each_row_as_if_alone(self, float_rows):
        model, x0, control, noise = self._case("l63", 12)
        rows = rk4_path(model, x0, 0.01, 40, control, noise)
        for i in range(len(x0)):
            alone = rk4_path(model, x0[i], 0.01, 40, control[i], noise[:, i])
            assert alone.shape == (41, 3)
            assert alone.tobytes() == rows[:, i].tobytes()
        assert float_rows == [12] + [1] * 12

    @pytest.mark.parametrize("with_control", [False, True])
    def test_both_sides_of_the_threshold(self, float_rows, with_control):
        small = sde.SMALL_ROWS
        model, x0, control, noise = self._case("l63", small + 1)
        control = control if with_control else None
        wide = rk4_path(model, x0, 0.01, 40, control, noise)
        narrow = rk4_path(
            model, x0[:small], 0.01, 40,
            None if control is None else control[:small], noise[:, :small],
        )
        assert float_rows == [small]  # the wider call took the array kernel
        assert narrow.tobytes() == wide[:, :small].tobytes()

    @pytest.mark.parametrize("name", ["ou", "l63_generic"])
    def test_other_models_take_the_array_kernel(self, float_rows, name):
        model, x0, control, noise = self._case(name, 1)
        got = rk4_path(model, x0, 0.01, 40, control, noise)
        assert float_rows == []
        assert model.l63_coefficients is None
        want = stepper_steps(model, x0, 0.01, 40, control, noise)
        assert got[1:].tobytes() == want.tobytes()

    def test_advection_freezes_a_failed_row_on_both_kernels(self, float_rows):
        small = sde.SMALL_ROWS
        lost = [2, small - 1]
        model = lorenz63()
        rng = np.random.default_rng(12)
        states = rng.normal(scale=8.0, size=(small + 1, 3)) + [0.0, 0.0, 25.0]
        states[lost] = [[1e8, 1e8, 1e8], [-3e7, 2e7, 1e8]]
        controls = rng.normal(size=(small + 1, 3))
        incs = rng.normal(scale=0.1, size=(small + 1, 10, 3))
        wide, wide_failed = advect_particles(
            model, states, controls, incs, 0.01
        )
        narrow, narrow_failed = advect_particles(
            model, states[:small], controls[:small], incs[:small], 0.01
        )
        assert float_rows == [small]
        assert wide_failed == narrow_failed == lost
        assert np.all(np.isfinite(wide))
        assert np.all(wide[:, lost] == states[lost])
        assert narrow.tobytes() == wide[:, :small].tobytes()


class TestStackedNoise:
    """The control solve's noise: one stacked product over the increments
    transposed to (S, k, b, d) rounds as each step's (k, b, d) product,
    which multiplies each (b, d) batch on its own."""

    @pytest.mark.parametrize("k, b", [(1, 1), (1, 2), (3, 2), (2, 7), (4, 5)])
    def test_equals_per_step_batch_products(self, k, b):
        sigma_t = lorenz63().dispersion.T
        rng = np.random.default_rng(k * 10 + b)
        increments = rng.normal(scale=0.1, size=(k, b, 30, 3))
        stacked = np.matmul(increments.transpose(2, 0, 1, 3), sigma_t)
        for s in range(30):
            step = np.matmul(increments[:, :, s], sigma_t)
            assert stacked[s].tobytes() == step.tobytes()
            for i in range(k):
                alone = increments[i, :, s] @ sigma_t
                assert stacked[s, i].tobytes() == alone.tobytes()
