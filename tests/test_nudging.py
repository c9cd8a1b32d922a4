"""Feedback-control estimation, Girsanov weights, rollback semantics.

The quantitative checks ride on two oracles written from scratch here: a
1-d Ornstein-Uhlenbeck problem where the value function, its gradient,
and the control have closed Gaussian forms, and a 3-d linear-dynamics
problem whose expectation limit is computed from plain matrix algebra.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from varnpf import nudging, var_npf
from varnpf.bootstrap_pf import advect_particles, pf_assimilation_cycle
from varnpf.diagnostics import CycleDiagnostics
from varnpf.ensemble import (
    ObservationModel,
    ParticleEnsemble,
    bayes_reweight,
    effective_sample_size,
    systematic_resample,
)
from varnpf.nudging import (
    CONTROL_LOOKAHEAD,
    PHI_FLOOR,
    ControlEstimate,
    NudgingConfig,
    _combine_terms,
    _propagate_with_sensitivity,
    _solve_controls,
    adaptive_control,
    estimate_phi_grad,
    feedback_control,
    npf_assimilation_cycle,
    nudging_bm_ratio,
    rn_log_increment,
    rollback_test,
)
from varnpf.sde import (
    SdeModel,
    lorenz63,
    sample_brownian_path,
    whole_steps,
)
from varnpf.seeding import (
    CONTROL,
    child_sequence,
    stream_generator,
    stream_key,
    stream_sequence,
)
from varnpf.var_npf import VarNpfSettings, var_npf_assimilation_cycle

from oracle import CYCLES, cycle_context, rk4_step


def ou_model(rate=1.0, noise=1.0):
    return SdeModel(
        dimension=1,
        drift=lambda x: -rate * x,
        drift_jacobian=lambda x: np.full(x.shape[:-1] + (1, 1), -rate),
        dispersion=np.array([[noise]]),
        diffusion=np.array([[noise**2]]),
    )


def obs_1d(var=0.8):
    return ObservationModel(
        operator=np.array([[1.0]]), noise_cov=np.array([[var]])
    )


class OuOracle:
    """Closed forms for dX = a X dt + s dW with a Gaussian terminal factor.

    Terminal law from x over horizon tau is N(m, v); tilting by
    exp(-(eta-y)^2 / (2 sy2)) gives Gaussian integrals for the value
    function, its x-gradient, the control, and the delta-method standard
    errors of their Monte Carlo estimators.
    """

    def __init__(self, a, s, tau, y, sy2):
        self.a, self.s, self.tau, self.y, self.sy2 = a, s, tau, y, sy2
        self.growth = np.exp(a * tau)
        self.v = s * s * (np.exp(2.0 * a * tau) - 1.0) / (2.0 * a)

    def _tilted(self, lam, mu):
        # moments of z^k exp(-lam z^2) under z ~ N(mu, v), k = 0, 1, 2
        d = 1.0 + 2.0 * lam * self.v
        i0 = np.exp(-lam * mu * mu / d) / np.sqrt(d)
        mt, vt = mu / d, self.v / d
        return i0, i0 * mt, i0 * (vt + mt * mt)

    def phi(self, x):
        mu = x * self.growth - self.y
        return self._tilted(0.5 / self.sy2, mu)[0]

    def grad_phi(self, x):
        mu = x * self.growth - self.y
        total = self.sy2 + self.v
        return -self.phi(x) * mu * self.growth / total

    def control(self, x):
        mu = x * self.growth - self.y
        return -self.s * self.s * self.growth * mu / (self.sy2 + self.v)

    def standard_errors(self, x, n):
        """(se_phi, se_grad, se_control) of the n-realization estimators."""
        mu = x * self.growth - self.y
        c = 0.5 / self.sy2
        k = self.growth / self.sy2
        i0c, i1c, _ = self._tilted(c, mu)
        i0c2, i1c2, i2c2 = self._tilted(2.0 * c, mu)
        ea, ea2 = i0c, i0c2
        eb, eab, eb2 = -k * i1c, -k * i1c2, k * k * i2c2
        var_a = ea2 - ea * ea
        var_b = eb2 - eb * eb
        cov = eab - ea * eb
        se_phi = np.sqrt(var_a / n)
        se_grad = np.sqrt(var_b / n)
        r = eb / ea
        var_ratio = (var_b - 2.0 * r * cov + r * r * var_a) / (ea * ea)
        se_control = self.s * self.s * np.sqrt(max(var_ratio, 0.0) / n)
        return se_phi, se_grad, se_control


class TestOuOracle:
    def test_phi_grad_and_control_within_three_se(self):
        a, s, tau, y, sy2 = -1.0, 1.0, 0.5, 1.0, 0.8
        oracle = OuOracle(a, s, tau, y, sy2)
        model, obs = ou_model(), obs_1d(sy2)
        n = 10_000
        for idx, x in enumerate([-2.0, -1.0, 0.0, 1.0, 2.0]):
            rng = stream_generator(stream_sequence(100, idx))
            phi, grad = estimate_phi_grad(
                model, obs, 0.0, np.array([x]), tau, np.array([y]),
                n, rng, 0.01,
            )
            se_phi, se_grad, se_u = oracle.standard_errors(x, n)
            assert abs(phi - oracle.phi(x)) <= 3.0 * se_phi
            assert abs(grad[0] - oracle.grad_phi(x)) <= 3.0 * se_grad
            u = feedback_control(phi, grad, model.diffusion)
            assert abs(u[0] - oracle.control(x)) <= 3.0 * se_u

    def test_estimate_error_shrinks_with_realizations(self):
        oracle = OuOracle(-1.0, 1.0, 0.5, 1.0, 0.8)
        model, obs = ou_model(), obs_1d()
        states = [-2.0, -0.5, 0.5, 1.5, 2.5]

        def total_error(n, seed):
            err = 0.0
            for idx, x in enumerate(states):
                rng = stream_generator(stream_sequence(seed, idx))
                phi, grad = estimate_phi_grad(
                    model, obs, 0.0, np.array([x]), 0.5, np.array([1.0]),
                    n, rng, 0.01,
                )
                u = feedback_control(phi, grad, model.diffusion)
                err += (u[0] - oracle.control(x)) ** 2
            return err

        assert total_error(20_000, 7) < total_error(200, 7)

    def test_deterministic_under_shared_seed(self):
        model, obs = ou_model(), obs_1d()
        out = []
        for _ in range(2):
            rng = stream_generator(stream_sequence(21, 0))
            out.append(estimate_phi_grad(
                model, obs, 0.0, np.array([0.3]), 0.5, np.array([1.0]),
                500, rng, 0.01,
            ))
        assert out[0][0] == out[1][0]
        assert np.array_equal(out[0][1], out[1][1])


class TestLinear3d:
    def test_gradient_estimator_matches_as_written_form(self):
        # the fundamental matrix multiplies the misfit gradient directly
        # (no transpose); for linear nonsymmetric dynamics that form has
        # a clean matrix-algebra limit the estimator must agree with
        A = np.array([
            [-1.0, 2.0, 0.0],
            [0.0, -1.5, 1.0],
            [0.5, 0.0, -0.8],
        ])
        R = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])
        disp = np.linalg.cholesky(R)
        model = SdeModel(
            dimension=3,
            drift=lambda x: x @ A.T,
            drift_jacobian=lambda x: np.broadcast_to(
                A, x.shape[:-1] + (3, 3)
            ),
            dispersion=disp,
            diffusion=R,
        )
        sy = 0.8 * np.eye(3)
        obs = ObservationModel(operator=np.eye(3), noise_cov=sy)
        dt, steps = 0.01, 30
        x = np.array([0.4, -0.3, 0.2])
        y = np.array([0.6, 0.1, -0.2])

        # discrete-time limit: one RK4 step is the degree-4 polynomial of A dt
        step = np.eye(3)
        term = np.eye(3)
        for k in range(1, 5):
            term = term @ (A * dt) / k
            step = step + term
        psi = np.linalg.matrix_power(step, steps)
        v_mat = np.zeros((3, 3))
        power = np.eye(3)
        for _ in range(steps):
            v_mat += power @ R @ power.T * dt
            power = step @ power
        m = psi @ x
        total = sy + v_mat
        total_inv = np.linalg.inv(total)
        phi_limit = np.sqrt(
            np.linalg.det(sy) / np.linalg.det(total)
        ) * np.exp(-0.5 * (m - y) @ total_inv @ (m - y))
        grad_limit = phi_limit * psi @ total_inv @ (y - m)

        reps, n = 30, 2000
        estimates = np.empty((reps, 3))
        phis = np.empty(reps)
        for rep in range(reps):
            rng = stream_generator(stream_sequence(300, rep))
            phi, grad = estimate_phi_grad(
                model, obs, 0.0, x, steps * dt, y, n, rng, dt
            )
            phis[rep] = phi
            estimates[rep] = grad
        se = estimates.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(estimates.mean(axis=0) - grad_limit) <= 3 * se)
        se_phi = phis.std(ddof=1) / np.sqrt(reps)
        assert abs(phis.mean() - phi_limit) <= 3 * se_phi
        # the transposed form is measurably different here; make sure the
        # oracle actually separates the two
        wrong = phi_limit * psi.T @ total_inv @ (y - m)
        assert np.linalg.norm(wrong - grad_limit) > 10 * np.linalg.norm(se)


class TestAdaptiveBatching:
    def test_uninformative_likelihood_converges_immediately(self):
        model = ou_model()
        obs = obs_1d(var=1e300)
        config = NudgingConfig()
        rng = stream_generator(stream_sequence(31, 0))
        est = adaptive_control(
            model, obs, 0.0, np.array([0.5]), 0.5, np.array([1.0]),
            config, rng, 0.01,
        )
        assert est.converged
        assert est.realizations_used == 2 * config.batch_size
        assert abs(est.control[0]) < 1e-250

    def test_realizations_nondecreasing_as_tolerance_tightens(self):
        model, obs = ou_model(), obs_1d()
        used = []
        for tol in (0.5, 0.05, 0.005):
            config = NudgingConfig(tolerance=tol, max_batches=200)
            rng = stream_generator(stream_sequence(32, 0))
            est = adaptive_control(
                model, obs, 0.0, np.array([-1.5]), 0.5, np.array([1.0]),
                config, rng, 0.01,
            )
            used.append(est.realizations_used)
        assert used[0] <= used[1] <= used[2]

    def test_batched_stream_matches_single_shot(self):
        # draining the stream in batches of K yields the same realizations
        # as one big draw, so the combined estimate is bitwise identical
        model, obs = ou_model(), obs_1d()
        config = NudgingConfig(tolerance=1e-12, max_batches=50)
        rng_a = stream_generator(stream_sequence(33, 0))
        est = adaptive_control(
            model, obs, 0.0, np.array([0.7]), 0.5, np.array([1.0]),
            config, rng_a, 0.01,
        )
        assert not est.converged
        assert est.realizations_used == 100
        rng_b = stream_generator(stream_sequence(33, 0))
        phi, grad = estimate_phi_grad(
            model, obs, 0.0, np.array([0.7]), 0.5, np.array([1.0]),
            100, rng_b, 0.01,
        )
        assert est.phi == phi
        assert np.array_equal(est.grad_phi, grad)

    def test_history_tracks_convergence(self):
        # the solve stops at the first batch count whose variation is
        # within tolerance: capped one batch short of it, the same stream
        # never converges
        model, obs = ou_model(), obs_1d()
        config = NudgingConfig(tolerance=0.05, max_batches=200)

        def solve(config):
            return adaptive_control(
                model, obs, 0.0, np.array([0.2]), 0.5, np.array([1.0]),
                config, stream_generator(stream_sequence(34, 0)), 0.01,
            )

        est = solve(config)
        assert est.converged
        batches = est.realizations_used // config.batch_size
        assert 2 < batches < config.max_batches
        capped = solve(dataclasses.replace(config, max_batches=batches - 1))
        assert not capped.converged
        assert capped.realizations_used == (batches - 1) * config.batch_size


def _realized_steps(model, x, increments, dt):
    """Yield each step's (start, end) of a one-batch realized path."""
    n, n_steps, d = increments.shape
    states = np.broadcast_to(np.asarray(x, dtype=float), (n, d)).copy()
    sigma_t = model.dispersion.T
    for s in range(n_steps):
        x1 = (
            rk4_step(model.drift, states, None, dt)
            + increments[:, s] @ sigma_t
        )
        yield states, x1
        states = x1


def _step_propagator(jac, x0, x1, dt):
    """One step's RK4 propagator A_s of Psi, from three Jacobian calls."""
    eye = np.eye(x0.shape[-1])
    a0 = jac(x0)
    am = jac(0.5 * (x0 + x1))
    a1 = jac(x1)
    p1 = a0
    p2 = am @ (eye + (0.5 * dt) * p1)
    p3 = am @ (eye + (0.5 * dt) * p2)
    p4 = a1 @ (eye + dt * p3)
    return eye + (dt / 6.0) * (p1 + 2.0 * (p2 + p3) + p4)


def _pairwise_product(factors):
    """A_{S-1} ... A_0, multiplied level by level as A_{2i+1} A_{2i} with an
    odd last factor carried up to the next level."""
    while len(factors) > 1:
        carried = factors[-1:] if len(factors) % 2 else []
        factors = [
            factors[i + 1] @ factors[i] for i in range(0, len(factors) - 1, 2)
        ] + carried
    return factors[0]


def _propagate_oracle(model, x, increments, dt):
    """One-batch propagation: three Jacobian calls per step, each step's
    propagator, then their pairwise product."""
    factors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x0, x1 in _realized_steps(model, x, increments, dt):
            factors.append(_step_propagator(model.drift_jacobian, x0, x1, dt))
            ends = x1
        return ends, _pairwise_product(factors)


def _sequential_oracle(model, x, increments, dt):
    """Psi stepped along the realized path by the RK4 recurrence
    Psi' = J(eta_s) Psi, one step after another."""
    n, _, d = increments.shape
    fund = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    jac = model.drift_jacobian
    half = 0.5 * dt
    sixth = dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for x0, x1 in _realized_steps(model, x, increments, dt):
            a0 = jac(x0)
            am = jac(0.5 * (x0 + x1))
            a1 = jac(x1)
            p1 = a0 @ fund
            p2 = am @ (fund + half * p1)
            p3 = am @ (fund + half * p2)
            p4 = a1 @ (fund + dt * p3)
            fund = fund + sixth * (p1 + 2.0 * (p2 + p3) + p4)
    return fund


def _close_per_row(fund, want, rel=1e-12):
    """Each row's Psi within rel of that row's largest entry."""
    scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
    return bool(np.all(np.abs(fund - want) <= rel * scale))


def _combine_terms_oracle(g, term, diffusion):
    """One solve's (phi, grad_phi, control, floored), written for 1-d g."""
    ok = np.isfinite(g) & np.all(np.isfinite(term), axis=1)
    d = term.shape[1]
    if not ok.any():
        return PHI_FLOOR, np.zeros(d), np.zeros(d), True
    g_min = g[ok].min()
    s = np.where(ok, np.exp(-(np.where(ok, g, 0.0) - g_min)), 0.0)
    a = s.mean()
    b = (s[:, None] * np.where(ok[:, None], term, 0.0)).mean(axis=0)
    scale = np.exp(-g_min)
    phi = scale * a
    grad = -scale * b
    control = diffusion @ (-(b / a))
    if phi == 0.0:
        return PHI_FLOOR, grad, np.zeros(d), True
    return float(phi), grad, control, False


def _adaptive_control_oracle(
    model, obs_model, t, x, horizon_end, target_obs, config, rng, dt
):
    """The one-batch-at-a-time solve: draw, propagate, combine, compare."""
    x = np.asarray(x, dtype=float)
    n_steps = whole_steps(t, horizon_end, dt)
    d = x.shape[-1]
    denom = float(np.linalg.norm(model.drift(x)))
    if denom < 1e-12:
        denom = 1.0
    g_all = np.empty(0)
    term_all = np.empty((0, d))
    prev_normalized = None
    converged = False
    batches = 0
    phi, grad, control, floored = PHI_FLOOR, np.zeros(d), np.zeros(d), True
    while batches < config.max_batches:
        increments = rng.normal(
            0.0, np.sqrt(dt), size=(config.batch_size, n_steps, d)
        )
        ends, fund = _propagate_oracle(model, x, increments, dt)
        g_new = np.atleast_1d(np.asarray(
            obs_model.neg_log_likelihood(ends, target_obs), dtype=float
        ))
        gg = obs_model.nll_gradient(ends, target_obs)
        term_new = np.einsum("nij,nj->ni", fund, gg)
        g_all = np.concatenate([g_all, g_new])
        term_all = np.concatenate([term_all, term_new])
        batches += 1
        phi, grad, control, floored = _combine_terms_oracle(
            g_all, term_all, model.diffusion
        )
        normalized = control / denom
        if prev_normalized is not None:
            delta = float(np.linalg.norm(normalized - prev_normalized))
            if delta <= config.tolerance:
                converged = True
                break
        prev_normalized = normalized
    return ControlEstimate(
        control=np.zeros(d) if floored else control,
        phi=phi,
        grad_phi=grad,
        realizations_used=batches * config.batch_size,
        converged=converged,
        phi_floored=floored,
    )


def _same_state(a, b):
    """Bit generator states are equal (Philox holds arrays in nested dicts)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _linear_model():
    A = np.array([[-1.0, 2.0, 0.0], [0.0, -1.5, 1.0], [0.5, 0.0, -0.8]])
    R = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])
    return SdeModel(
        dimension=3,
        drift=lambda x: np.einsum("ij,...j->...i", A, x),
        drift_jacobian=lambda x: np.broadcast_to(A, x.shape[:-1] + (3, 3)),
        dispersion=np.linalg.cholesky(R),
        diffusion=R,
    )


_OPERATORS = {
    "identity": ObservationModel(
        operator=np.eye(3), noise_cov=2.0 * np.eye(3)
    ),
    "2x3": ObservationModel(
        operator=np.array([[1.0, 0.5, 0.0], [0.0, 0.3, 1.0]]),
        noise_cov=np.array([[1.0, 0.2], [0.2, 0.5]]),
    ),
}


class TestPropagationOracle:
    """The Jacobians of a whole pass, taken in two calls, equal three per
    step, and the pass's Psi is the pairwise product of its steps'
    propagators, which rounds the step-by-step recurrence in another order.
    """

    @staticmethod
    def _counting(model):
        calls = []

        def jac(x):
            calls.append(x.shape)
            return model.drift_jacobian(x)

        counted = SdeModel(
            dimension=model.dimension, drift=model.drift, drift_jacobian=jac,
            dispersion=model.dispersion, diffusion=model.diffusion,
        )
        return counted, calls

    @pytest.mark.parametrize("name", ["l63", "linear"])
    def test_matches_per_step_jacobians_bitwise(self, name):
        self._check_one_batch(name, 25)

    # odd counts carry a factor up at least one level of the product
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 7])
    @pytest.mark.parametrize("name", ["l63", "linear"])
    def test_short_horizons_bitwise(self, name, n_steps):
        self._check_one_batch(name, n_steps)

    def _check_one_batch(self, name, n_steps):
        model = lorenz63() if name == "l63" else _linear_model()
        rng = np.random.default_rng(7)
        dt = 0.01
        x = np.array([1.5, -1.5, 25.0])
        increments = rng.normal(0.0, np.sqrt(dt), size=(5, n_steps, 3))
        counted, calls = self._counting(model)
        ends, fund = _propagate_with_sensitivity(
            counted, x, increments[None], dt
        )
        want_ends, want_fund = _propagate_oracle(model, x, increments, dt)
        assert ends.shape == (1, 5, 3) and fund.shape == (1, 5, 3, 3)
        assert ends[0].tobytes() == want_ends.tobytes()
        assert fund[0].tobytes() == want_fund.tobytes()
        # one call on the path's states, one on its chord midpoints
        assert len(calls) == 2
        assert sum(np.prod(shape[:-1]) for shape in calls) == (
            (2 * n_steps + 1) * 5
        )

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 25, 50])
    @pytest.mark.parametrize("name", ["l63", "linear"])
    def test_product_matches_sequential_recurrence(self, name, n_steps):
        model = lorenz63() if name == "l63" else _linear_model()
        rng = np.random.default_rng(11)
        dt = 0.01
        x = np.array([1.5, -1.5, 25.0]) + rng.normal(scale=4.0, size=(6, 3))
        increments = rng.normal(0.0, np.sqrt(dt), size=(6, n_steps, 3))
        _, fund = _propagate_with_sensitivity(model, x, increments[None], dt)
        want = _sequential_oracle(model, x, increments, dt)
        assert np.all(np.isfinite(want))
        assert _close_per_row(fund[0], want)

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 50])
    def test_constant_jacobian_gives_a_matrix_power(self, n_steps):
        # a linear drift has one Jacobian everywhere, so every step's
        # propagator is the same A_0 and Psi = A_0^S
        model = _linear_model()
        rng = np.random.default_rng(12)
        dt = 0.01
        x = rng.normal(size=(4, 3))
        increments = rng.normal(0.0, np.sqrt(dt), size=(4, n_steps, 3))
        _, fund = _propagate_with_sensitivity(model, x, increments[None], dt)
        a0 = _step_propagator(model.drift_jacobian, x[0], x[0], dt)
        want = np.linalg.matrix_power(a0, n_steps)
        assert _close_per_row(fund[0], np.broadcast_to(want, fund[0].shape))

    def test_blowup_row_among_healthy_rows(self):
        model = lorenz63()
        rng = np.random.default_rng(8)
        dt, n_steps = 0.01, 20
        x = np.array([1.5, -1.5, 25.0]) + rng.normal(size=(4, 3))
        x[2] = 1e8
        increments = rng.normal(0.0, np.sqrt(dt), size=(4, n_steps, 3))
        ends, fund = _propagate_with_sensitivity(model, x, increments[None], dt)
        want_ends, want_fund = _propagate_oracle(model, x, increments, dt)
        assert not np.all(np.isfinite(want_ends[2]))
        assert np.all(np.isfinite(want_ends[[0, 1, 3]]))
        assert ends[0].tobytes() == want_ends.tobytes()
        assert fund[0].tobytes() == want_fund.tobytes()

    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_batches_propagate_as_if_alone(self, batch_size):
        self._check_batches(batch_size, 15)

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 7])
    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_short_horizon_batches_as_if_alone(self, batch_size, n_steps):
        self._check_batches(batch_size, n_steps)

    def _check_batches(self, batch_size, n_steps):
        model = lorenz63()
        rng = np.random.default_rng(9)
        dt = 0.01
        x = np.array([-5.0, 3.0, 20.0])
        increments = rng.normal(
            0.0, np.sqrt(dt), size=(3, batch_size, n_steps, 3)
        )
        ends, fund = _propagate_with_sensitivity(model, x, increments, dt)
        for i in range(3):
            want_ends, want_fund = _propagate_oracle(
                model, x, increments[i], dt
            )
            assert ends[i].tobytes() == want_ends.tobytes()
            assert fund[i].tobytes() == want_fund.tobytes()

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4])
    def test_stacked_batches_from_distinct_starts(self, batch_size):
        model = lorenz63()
        rng = np.random.default_rng(10)
        dt, n_steps, k = 0.01, 15, 20
        starts = np.array([-5.0, 3.0, 20.0]) + rng.normal(
            scale=4.0, size=(k, 3)
        )
        increments = rng.normal(
            0.0, np.sqrt(dt), size=(k, batch_size, n_steps, 3)
        )
        ends, fund = _propagate_with_sensitivity(
            model, np.repeat(starts, batch_size, axis=0), increments, dt
        )
        for i in range(k):
            want_ends, want_fund = _propagate_oracle(
                model, starts[i], increments[i], dt
            )
            assert ends[i].tobytes() == want_ends.tobytes()
            assert fund[i].tobytes() == want_fund.tobytes()


class TestAdaptiveControlOracle:
    """Propagating the first two batches in one pass changes no bit.

    180 seeded Lorenz-63 solves: batch size 1, 2, 3 times max_batches 1,
    2, 50 times an identity or a 2x3 operator, ten solves each.  Solve 0
    of each group aims at an unreachable target, so its value function
    floors; solve 1 has a tolerance no estimate meets; the others have
    tolerances tight enough that some solves go past two batches.
    """

    @pytest.mark.parametrize("operator", sorted(_OPERATORS))
    @pytest.mark.parametrize("max_batches", [1, 2, 50])
    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_matches_one_batch_loop(self, batch_size, max_batches, operator):
        model = lorenz63()
        obs = _OPERATORS[operator]
        m = obs.operator.shape[0]
        dt = 0.01
        seen = {"floored": 0, "unconverged": 0, "converged_late": 0}
        for idx in range(10):
            setup = np.random.default_rng(1000 + idx)
            x = np.array([1.5, -1.5, 25.0]) + setup.normal(scale=4.0, size=3)
            target = obs.observe(x) + setup.normal(scale=3.0, size=m)
            tolerance = 0.1 if idx == 2 else 0.003
            if idx == 0:
                target = np.full(m, 1e6)
            if idx == 1:
                tolerance = 1e-12
            config = NudgingConfig(
                batch_size=batch_size, max_batches=max_batches,
                tolerance=tolerance,
            )
            horizon = dt * (5 + 4 * idx)
            rng = stream_generator(stream_sequence(77, batch_size, idx))
            rng_oracle = stream_generator(stream_sequence(77, batch_size, idx))
            est = adaptive_control(
                model, obs, 0.0, x, horizon, target, config, rng, dt
            )
            want = _adaptive_control_oracle(
                model, obs, 0.0, x, horizon, target, config, rng_oracle, dt
            )
            assert est.control.tobytes() == want.control.tobytes()
            assert np.float64(est.phi).tobytes() == np.float64(want.phi).tobytes()
            assert est.grad_phi.tobytes() == want.grad_phi.tobytes()
            assert est.realizations_used == want.realizations_used
            assert est.converged == want.converged
            assert est.phi_floored == want.phi_floored
            n_steps = whole_steps(0.0, horizon, dt)
            assert _same_state(
                rng.bit_generator.state,
                _past_spare(rng_oracle, want, config, n_steps, dt),
            )
            seen["floored"] += est.phi_floored
            seen["unconverged"] += not est.converged
            seen["converged_late"] += (
                est.converged and est.realizations_used > 2 * batch_size
            )
        assert seen["floored"] >= 1
        assert seen["unconverged"] >= 1
        if max_batches == 50:
            assert seen["converged_late"] >= 2


def _solve_controls_oracle(
    model, obs_model, t, states, horizon_end, target_obs, config, rngs, dt
):
    """One particle's solve at a time, each drawn and propagated batch by
    batch: the subinterval loop before first passes were stacked."""
    return [
        _adaptive_control_oracle(
            model, obs_model, t, x, horizon_end, target_obs, config, rng, dt
        )
        for x, rng in zip(states, rngs)
    ]


def _assert_same_estimate(est, want):
    assert est.control.tobytes() == want.control.tobytes()
    assert np.float64(est.phi).tobytes() == np.float64(want.phi).tobytes()
    assert est.grad_phi.tobytes() == want.grad_phi.tobytes()
    assert est.realizations_used == want.realizations_used
    assert est.converged == want.converged
    assert est.phi_floored == want.phi_floored


_EACH_OPERATOR = pytest.mark.parametrize("operator", sorted(_OPERATORS))
# 3 ends a look-ahead round at the cap: round 0 draws two batches and the
# next round only one
_EACH_MAX_BATCHES = pytest.mark.parametrize("max_batches", [1, 2, 3, 50])
_EACH_BATCH_SIZE = pytest.mark.parametrize("batch_size", [1, 2, 3])


def _passes(most, max_batches):
    """Propagation passes of a subinterval whose solves used at most
    ``most`` batches: round 0, then one per look-ahead round."""
    first = min(2, max_batches)
    return 1 + -(-max(0, most - first) // CONTROL_LOOKAHEAD)


def _drawn(used, max_batches):
    """Batches a solve that used ``used`` batches drew: round 0's, then
    whole look-ahead rounds, the last one cut at ``max_batches``."""
    first = min(2, max_batches)
    rounds = -(-max(0, used - first) // CONTROL_LOOKAHEAD)
    return min(max_batches, first + CONTROL_LOOKAHEAD * rounds)


def _past_spare(rng, est, config, n_steps, dt):
    """The state of the one-batch loop's generator ``rng``, after its
    solve ``est`` over ``n_steps`` steps, once it also draws the spare
    batches of the solve's last look-ahead round."""
    used = est.realizations_used // config.batch_size
    spare = _drawn(used, config.max_batches) - used
    rng.normal(0.0, np.sqrt(dt), size=(
        spare, config.batch_size, n_steps, len(est.control)
    ))
    return rng.bit_generator.state


def _counting_passes(monkeypatch):
    """Count the control solves' propagation passes (_misfit_terms calls)."""
    calls = []
    original = nudging._misfit_terms

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(nudging, "_misfit_terms", counted)
    return calls


class TestStackedSolves:
    """A subinterval's solves, propagated together round by round, equal
    one-at-a-time solves bit for bit, generator states included once the
    one-at-a-time generators also draw the spare batches.

    Sixty solves per case on twelve Lorenz-63 points, one of them at 1e8
    (its realizations blow up, so its value function floors), toward five
    targets with tolerances tight enough that some solves go on past
    round 0.
    """

    @_EACH_OPERATOR
    @_EACH_MAX_BATCHES
    @_EACH_BATCH_SIZE
    def test_matches_per_particle_solves(
        self, monkeypatch, batch_size, max_batches, operator
    ):
        model = lorenz63()
        obs = _OPERATORS[operator]
        dt = 0.01
        setup = np.random.default_rng(2000)
        states = np.array([1.5, -1.5, 25.0]) + setup.normal(
            scale=4.0, size=(12, 3)
        )
        states[5] = 1e8
        seen = {"floored": 0, "unconverged": 0, "converged_late": 0,
                "spare": 0}
        for idx in range(5):
            target = obs.observe(states[idx]) + setup.normal(
                scale=3.0, size=obs.operator.shape[0]
            )
            config = NudgingConfig(
                batch_size=batch_size, max_batches=max_batches,
                tolerance=(0.1, 0.03, 0.01, 0.003, 0.001)[idx],
            )
            horizon = dt * (4 + 3 * idx)

            def generators():
                return [stream_generator(stream_sequence(78, idx, i))
                        for i in range(len(states))]

            rngs, rngs_oracle = generators(), generators()
            with monkeypatch.context() as patched:
                passes = _counting_passes(patched)
                got, work = _solve_controls(
                    model, obs, 0.0, states, horizon, target, config, rngs,
                    dt,
                )
            used = [est.realizations_used // batch_size for est in got]
            assert len(passes) == work["control_passes"] == _passes(
                max(used), max_batches
            )
            n_steps = whole_steps(0.0, horizon, dt)
            drawn = sum(_drawn(m, max_batches) for m in used)
            assert work["realization_steps"] == (
                sum(used) * batch_size * n_steps
            )
            assert work["spare_realization_steps"] == (
                (drawn - sum(used)) * batch_size * n_steps
            )
            assert work["drift_evals"] == (
                4 * drawn * batch_size * n_steps + len(states)
            )
            assert work["jacobian_evals"] == (
                (2 * n_steps + 1) * drawn * batch_size
            )
            seen["spare"] += work["spare_realization_steps"]
            want = _solve_controls_oracle(
                model, obs, 0.0, states, horizon, target, config,
                rngs_oracle, dt,
            )
            assert len(got) == len(want) == len(states)
            for est, want_est, rng, rng_oracle in zip(
                got, want, rngs, rngs_oracle
            ):
                _assert_same_estimate(est, want_est)
                assert _same_state(
                    rng.bit_generator.state,
                    _past_spare(rng_oracle, want_est, config, n_steps, dt),
                )
                seen["floored"] += est.phi_floored
                seen["unconverged"] += not est.converged
                seen["converged_late"] += (
                    est.converged and est.realizations_used > 2 * batch_size
                )
        assert seen["floored"] >= 5
        if max_batches == 50:
            # some solves settled before their round's last batch, so
            # their generators went on past spare batches
            assert seen["converged_late"] >= 5 and seen["spare"] > 0
        else:
            assert seen["unconverged"] >= 5

    def test_no_live_particles(self):
        config = NudgingConfig()
        assert _solve_controls(
            lorenz63(), _OPERATORS["identity"], 0.0, np.empty((0, 3)), 0.05,
            np.zeros(3), config, [], 0.01,
        ) == ([], {})

    @staticmethod
    def _company_case(max_batches, batch_size):
        """Twelve solve points: one at 1e8 (it floors) and one at the
        origin, an equilibrium, where the drift norm falls back to 1."""
        model = lorenz63()
        setup = np.random.default_rng(2001)
        states = np.array([1.5, -1.5, 25.0]) + setup.normal(
            scale=4.0, size=(12, 3)
        )
        states[5] = 1e8
        states[8] = 0.0
        assert not np.any(model.drift(states[8]))
        obs = _OPERATORS["2x3"]
        # near enough to the origin and to the others that only the 1e8
        # solve floors
        target = obs.observe(np.array([1.0, -1.0, 12.0]))
        config = NudgingConfig(
            batch_size=batch_size, max_batches=max_batches, tolerance=0.01
        )
        return model, obs, states, target, config

    @_EACH_MAX_BATCHES
    @_EACH_BATCH_SIZE
    def test_solve_does_not_depend_on_its_company(
        self, batch_size, max_batches
    ):
        # each solve alike whichever solves share its rounds, and in
        # whatever order: all twelve, a permutation of them, and subsets
        model, obs, states, target, config = self._company_case(
            max_batches, batch_size
        )
        dt, horizon = 0.01, 0.1

        def solve(rows):
            rngs = [stream_generator(stream_sequence(79, i)) for i in rows]
            ests, _ = _solve_controls(
                model, obs, 0.0, states[rows], horizon, target, config,
                rngs, dt,
            )
            return {
                i: (est, rng.bit_generator.state)
                for i, est, rng in zip(rows, ests, rngs)
            }

        together = solve(list(range(12)))
        perm = np.random.default_rng(2002).permutation(12).tolist()
        for rows in (perm, perm[:5], perm[5:], [5, 8], [8], [5], [3]):
            for i, (est, state) in solve(rows).items():
                _assert_same_estimate(est, together[i][0])
                assert _same_state(state, together[i][1])
        assert together[5][0].phi_floored
        assert not together[8][0].phi_floored
        used = {est.realizations_used for est, _ in together.values()}
        if max_batches == 50:  # the solves settle in different rounds
            assert len(used) >= 2

    def test_adaptive_control_is_a_one_row_solve(self):
        model, obs, states, target, config = self._company_case(50, 2)
        for i in (0, 3, 5, 8):
            rng = stream_generator(stream_sequence(80, i))
            rng_rows = stream_generator(stream_sequence(80, i))
            est = adaptive_control(
                model, obs, 0.0, states[i], 0.1, target, config, rng, 0.01
            )
            [want], _ = _solve_controls(
                model, obs, 0.0, states[i : i + 1], 0.1, target, config,
                [rng_rows], 0.01,
            )
            _assert_same_estimate(est, want)
            assert _same_state(
                rng.bit_generator.state, rng_rows.bit_generator.state
            )


def _assert_same_cycle(got, want):
    post, diag = got
    post_want, diag_want = want
    assert post.states.tobytes() == post_want.states.tobytes()
    assert post.weights.tobytes() == post_want.weights.tobytes()
    assert post.time == post_want.time
    for f in dataclasses.fields(CycleDiagnostics):
        if f.name == "timings":
            continue
        a, b = getattr(diag, f.name), getattr(diag_want, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
        elif isinstance(a, ParticleEnsemble):
            assert a.states.tobytes() == b.states.tobytes(), f.name
            assert a.weights.tobytes() == b.weights.tobytes(), f.name
        else:
            assert repr(a) == repr(b), f.name


def _nudged_sweep_oracle(ensemble, ctx, k, target_fn, reweight_obs):
    """The subinterval loop of cycle k one particle at a time: each solve,
    its rollback test, its step ratios and its change-of-measure increment
    on their own, with the norms and sums written for one vector.  It
    reads the context's fields itself, and particle i's control stream in
    subinterval j is child j of its own SeedSequence, the control root's
    key extended by (k, i)."""
    model, obs_model, config, dt = (
        ctx.model, ctx.obs_model, ctx.nudging, ctx.dt
    )
    n, d = ensemble.states.shape
    n_steps = ctx.noise.shape[1] // len(ctx.observations)
    increments = ctx.noise[:, k * n_steps:(k + 1) * n_steps]
    t_start, t_end = ctx.times[k * n_steps], ctx.times[(k + 1) * n_steps]
    root = ctx.control
    m_sub = config.subintervals
    sub_steps = n_steps // m_sub
    dt_sub = sub_steps * dt
    states = np.array(ensemble.states)
    step_states = np.empty((n_steps + 1, n, d))
    step_states[0] = states
    log_rn = [0.0] * n
    proposed = np.zeros((m_sub, n, d))
    applied = np.zeros((m_sub, n, d))
    rollbacks = np.zeros((m_sub, n), dtype=bool)
    floors = np.zeros((m_sub, n), dtype=bool)
    batches_used = np.zeros((m_sub, n), dtype=int)
    solver_converged = np.zeros((m_sub, n), dtype=bool)
    step_ratio = np.full((n_steps, n), np.nan)
    counters = Counter()  # what target_fn reports, then the solves' work
    failed = set()
    sigma_t = model.dispersion.T
    for j in range(m_sub):
        t_j = t_start + j * dt_sub
        target_obs, horizon_end, work, _ = target_fn(
            j, states, ensemble.weights
        )
        counters.update(work)
        horizon_steps = whole_steps(t_j, horizon_end, dt)
        sub_controls = np.zeros((n, d))
        sub_v = np.zeros((n, d))
        live = [i for i in range(n) if i not in failed]
        for i in live:
            rng = stream_generator(child_sequence(
                stream_sequence(root.entropy, *root.spawn_key, k, i), j
            ))
            est = _adaptive_control_oracle(
                model, obs_model, t_j, states[i], horizon_end, target_obs,
                config, rng, dt,
            )
            b = config.batch_size
            used = est.realizations_used // b
            drawn = _drawn(used, config.max_batches)
            counters["realization_steps"] += used * b * horizon_steps
            counters["spare_realization_steps"] += (
                (drawn - used) * b * horizon_steps
            )
            # four stages per step of every realization drawn, and the
            # solve's denominator
            counters["drift_evals"] += 4 * drawn * b * horizon_steps + 1
            # a Jacobian at every path state and chord midpoint
            counters["jacobian_evals"] += (
                (2 * horizon_steps + 1) * drawn * b
            )
            proposed[j, i] = est.control
            batches_used[j, i] = used
            solver_converged[j, i] = est.converged
            floors[j, i] = est.phi_floored
            if est.phi_floored:
                rollbacks[j, i] = True
                continue
            v = sigma_t @ (est.grad_phi / est.phi)
            if rollback_test(-0.5 * float(v @ v) * dt_sub, config):
                rollbacks[j, i] = True
                continue
            sub_controls[i] = est.control
            sub_v[i] = v
        if live:  # round 0's pass, then one per look-ahead round
            counters["control_passes"] += _passes(
                int(max(batches_used[j])), config.max_batches
            )
        applied[j] = sub_controls
        lo, hi = j * sub_steps, (j + 1) * sub_steps
        trajs, new_failures = advect_particles(
            model, states, sub_controls, increments[:, lo:hi], dt
        )
        step_states[lo + 1 : hi + 1] = trajs[1:]
        states = trajs[-1]
        failed.update(new_failures)
        for i in range(n):
            if i in failed:
                continue
            dw = increments[i, lo:hi]
            numerator = np.linalg.norm(proposed[j, i]) * dt
            denominator = np.linalg.norm(dw @ sigma_t, axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                step_ratio[lo:hi, i] = np.where(
                    denominator > 0.0, numerator / denominator, np.nan
                )
            if np.any(sub_controls[i]):
                v = np.broadcast_to(sub_v[i], dw.shape)
                log_rn[i] += float(
                    -(v * dw).sum() - 0.5 * (v * v).sum() * dt
                )
    counters["drift_evals"] += 4 * n * n_steps  # four RK4 stages per row
    carried = np.array(ensemble.weights)
    if failed:
        carried[sorted(failed)] = 0.0
        carried /= carried.sum()
    advected = ParticleEnsemble(states, carried, t_end)
    log_rn = np.array(log_rn)
    factors = np.exp(log_rn - log_rn.max())
    posterior, collapsed = bayes_reweight(
        advected, reweight_obs, obs_model, factors
    )
    posterior_ness = effective_sample_size(posterior.weights)
    resampled = False
    if posterior_ness < ctx.resample_threshold * n:
        posterior = systematic_resample(posterior, ctx.resample_rng.random())
        resampled = True
    return posterior, CycleDiagnostics(
        t_start=t_start,
        t_end=t_end,
        step_states=step_states,
        carried_weights=carried,
        posterior=posterior,
        prior_ness=effective_sample_size(carried),
        posterior_ness=posterior_ness,
        resampled=resampled,
        collapsed=collapsed,
        particle_failures=sorted(failed),
        counters=dict(counters),
        control_proposed=proposed,
        control_applied=applied,
        rollbacks=rollbacks,
        phi_floored=floors,
        batches_used=batches_used,
        solver_converged=solver_converged,
        log_rn=log_rn,
        step_ratio=step_ratio,
    )


class TestCycleOracle:
    """Both nudged cycles equal the one-particle-at-a-time subinterval loop.

    Six Lorenz-63 particles, one of them at 1e8: its solve floors in the
    first subinterval and it fails in advection, so later subintervals
    solve for the live particles only.  Its weight is tiny, so the
    variational fit sees the other five and guides them to reachable
    targets.
    """

    @staticmethod
    def _cycle(filter_name, config, operator, k=0):
        """Cycle k of a context with k + 1 cycles of 25 steps each."""
        model = lorenz63()
        obs = _OPERATORS[operator]
        rng = np.random.default_rng(12)
        center = np.array([1.508870, -1.531271, 25.46091])
        states = center + rng.normal(scale=np.sqrt(2.0), size=(6, 3))
        states[4] = 1e8
        weights = np.full(6, 0.2)
        weights[4] = 1e-20
        ens = ParticleEnsemble(states, weights)
        incs = np.stack([
            sample_brownian_path(rng, 25 * (k + 1), 3, 0.01)
            for _ in range(6)
        ])
        y = obs.observe(center + np.array([2.0, -1.0, 1.5]))
        ctx = cycle_context(
            model, obs, [y] * (k + 1), incs, np.random.default_rng(14),
            nudging=config, control=stream_key(13, CONTROL),
        )
        if filter_name == "npf":
            return npf_assimilation_cycle(ens, ctx, k)
        return var_npf_assimilation_cycle(ens, ctx, k)

    @staticmethod
    def _oracle_cycle(monkeypatch, *args):
        with monkeypatch.context() as patched:
            patched.setattr(nudging, "_nudged_sweep", _nudged_sweep_oracle)
            patched.setattr(var_npf, "_nudged_sweep", _nudged_sweep_oracle)
            return TestCycleOracle._cycle(*args)

    @pytest.mark.parametrize("filter_name", ["npf", "var_npf"])
    @_EACH_OPERATOR
    @_EACH_MAX_BATCHES
    @_EACH_BATCH_SIZE
    def test_matches_one_particle_loop(
        self, monkeypatch, filter_name, batch_size, max_batches, operator
    ):
        # the short horizons ask for strong controls; a low threshold keeps
        # most of them, so the change-of-measure weights are exercised too;
        # at -10 the cases range from none to every solve rolled back
        for threshold in (-30.0, -10.0):
            config = NudgingConfig(
                batch_size=batch_size, max_batches=max_batches,
                tolerance=0.03, rollback_log_threshold=threshold,
            )
            got = self._cycle(filter_name, config, operator)
            want = self._oracle_cycle(
                monkeypatch, filter_name, config, operator
            )
            _assert_same_cycle(got, want)
            diag = got[1]
            assert diag.particle_failures == [4]
            assert diag.phi_floored[0, 4]
            assert not np.any(diag.batches_used[1:, 4])
            live = [0, 1, 2, 3, 5]
            assert np.all(diag.batches_used[:, live])
            assert not np.any(diag.phi_floored[:, live])
            if threshold == -30.0:
                assert np.any(diag.control_applied)

    @pytest.mark.parametrize("filter_name", ["npf", "var_npf"])
    def test_second_cycle_matches_one_particle_loop(
        self, monkeypatch, filter_name
    ):
        # cycle 1 has its own increments, times and control streams: the
        # first cycle's controls, or cycle 0's streams, would differ
        config = NudgingConfig(
            batch_size=2, max_batches=3, tolerance=0.03,
            rollback_log_threshold=-30.0,
        )
        got = self._cycle(filter_name, config, "identity", 1)
        want = self._oracle_cycle(
            monkeypatch, filter_name, config, "identity", 1
        )
        _assert_same_cycle(got, want)
        assert got[1].t_start == 0.25 and got[1].t_end == 0.5
        assert got[1].posterior.time == 0.5
        assert np.any(got[1].control_applied)


class TestCallsPerSolve:
    """Each live solve returns through one adaptive_control call, and each
    one that did not floor through one scalar rollback_test call."""

    def test_one_control_and_one_rollback_call_per_solve(self, monkeypatch):
        controls, rollback_calls = [], []
        original_control = nudging.adaptive_control
        original_rollback = nudging.rollback_test

        def counted_control(*args, **kwargs):
            assert kwargs["first_pass"] is not None
            est = original_control(*args, **kwargs)
            controls.append(est)
            return est

        def counted_rollback(candidate, config):
            assert isinstance(candidate, float)
            rolled_back = original_rollback(candidate, config)
            rollback_calls.append(rolled_back)
            return rolled_back

        monkeypatch.setattr(nudging, "adaptive_control", counted_control)
        monkeypatch.setattr(nudging, "rollback_test", counted_rollback)
        config = NudgingConfig(
            batch_size=2, tolerance=0.03, rollback_log_threshold=-5.0
        )
        for filter_name in ("npf", "var_npf"):
            controls.clear()
            rollback_calls.clear()
            _, diag = TestCycleOracle._cycle(filter_name, config, "identity")
            solves = np.count_nonzero(diag.batches_used)
            assert len(controls) == solves == 5 * 5 + 1
            assert sum(est.phi_floored for est in controls) == 1
            assert len(rollback_calls) == solves - 1
            assert sum(rollback_calls) == np.sum(
                diag.rollbacks & ~diag.phi_floored
            )
            if filter_name == "npf":  # some rejected, some kept
                assert 0 < sum(rollback_calls) < len(rollback_calls)


class TestControlPasses:
    """A cycle's control_passes counts its solves' propagation passes."""

    @pytest.mark.parametrize("filter_name", ["npf", "var_npf"])
    @_EACH_MAX_BATCHES
    def test_counts_every_propagation_pass(
        self, monkeypatch, filter_name, max_batches
    ):
        passes = _counting_passes(monkeypatch)
        config = NudgingConfig(max_batches=max_batches, tolerance=0.01)
        _, diag = TestCycleOracle._cycle(filter_name, config, "identity")
        # every subinterval has live solves; the 1e8 particle fails in the
        # first one
        per_subinterval = [
            _passes(most, max_batches) for most in diag.batches_used.max(axis=1)
        ]
        counted = diag.counters["control_passes"]
        assert counted == len(passes) == sum(per_subinterval)
        if max_batches == 50:
            assert counted > config.subintervals


class TestStackedHelpers:
    """The helpers the sweep applies to all particles at once round each
    particle as they do for it alone."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 6, 9, 20, 41])
    def test_combine_matches_one_solve_routine(self, rows):
        rng = np.random.default_rng(rows)
        diffusion = lorenz63().diffusion
        g = rng.exponential(scale=5.0, size=(40, rows)) - 1.0
        term = rng.normal(scale=3.0, size=(40, rows, 3))
        finite = g.copy(), term.copy()  # the common case: nothing blown up
        g[1, 0] = np.inf  # one realization blown up
        term[2, -1, 1] = np.nan
        g[3] = np.nan  # every realization blown up
        g[4] += 800.0  # phi underflows
        g[5, :] = 800.0
        g[5, -1] = 700.0  # underflow in all but one realization
        flags = []
        for g, term in [(g, term), finite]:
            phi, grad, control, floored = _combine_terms(g, term, diffusion)
            for i in range(40):
                want = _combine_terms_oracle(g[i], term[i], diffusion)
                assert phi[i].tobytes() == np.float64(want[0]).tobytes()
                assert grad[i].tobytes() == want[1].tobytes()
                assert control[i].tobytes() == want[2].tobytes()
                assert floored[i] == want[3]
            flags.append(floored)
        assert flags[0][3] and flags[0][4] and not flags[0][0]
        assert not flags[1].any()

    def test_rn_increments_match_per_particle(self):
        rng = np.random.default_rng(5)
        dt = 0.01
        for steps in (1, 3, 10, 50):
            v = rng.normal(size=(7, 3))
            inc = rng.normal(0.0, 0.1, size=(7, steps, 3))
            got = rn_log_increment(v, inc, dt)
            assert got.shape == (7,)
            for i in range(7):
                want = rn_log_increment(v[i], inc[i], dt)
                assert isinstance(want, float)
                assert got[i] == want
            schedule = rng.normal(size=(7, steps, 3))
            got = rn_log_increment(schedule, inc, dt)
            for i in range(7):
                assert got[i] == rn_log_increment(schedule[i], inc[i], dt)

    def test_bm_ratios_match_per_particle(self):
        rng = np.random.default_rng(6)
        disp = lorenz63().dispersion
        u = rng.normal(scale=20.0, size=(9, 3))
        u[2] = 0.0
        dw = rng.normal(0.0, 0.1, size=(9, 10, 3))
        dw[4, 3] = 0.0
        got = nudging_bm_ratio(u, dw, 0.01, disp)
        assert got.shape == (9, 10)
        for i in range(9):
            numerator = np.linalg.norm(u[i]) * 0.01
            denominator = np.linalg.norm(dw[i] @ disp.T, axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = np.where(
                    denominator > 0.0, numerator / denominator, np.nan
                )
            assert got[i].tobytes() == want.tobytes()
        assert np.isnan(got[4, 3]) and not np.any(got[2])


class TestGirsanov:
    def test_constant_v_closed_form(self):
        rng = np.random.default_rng(0)
        v = np.array([0.3, -0.2, 0.5])
        inc = rng.normal(0.0, 0.1, size=(50, 3))
        dt = 0.01
        got = rn_log_increment(v, inc, dt)
        want = -float(v @ inc.sum(axis=0)) - 0.5 * float(v @ v) * 50 * dt
        assert np.isclose(got, want, rtol=1e-12)

    def test_schedule_sums_per_step(self):
        rng = np.random.default_rng(1)
        vs = rng.normal(size=(50, 3))
        inc = rng.normal(0.0, 0.1, size=(50, 3))
        dt = 0.01
        got = rn_log_increment(vs, inc, dt)
        want = sum(
            -float(vs[j] @ inc[j]) - 0.5 * float(vs[j] @ vs[j]) * dt
            for j in range(50)
        )
        assert np.isclose(got, want, rtol=1e-12)

    def test_martingale_mean_one(self):
        # E[exp(log RN)] = 1 for any deterministic v-schedule
        rng = np.random.default_rng(2)
        steps, dt = 50, 0.01
        vs = 0.8 * np.sin(np.arange(steps))[:, None] * np.ones(3)
        n_paths = 2000
        values = np.empty(n_paths)
        for p in range(n_paths):
            inc = rng.normal(0.0, np.sqrt(dt), size=(steps, 3))
            values[p] = np.exp(rn_log_increment(vs, inc, dt))
        se = values.std(ddof=1) / np.sqrt(n_paths)
        assert abs(values.mean() - 1.0) <= 3.0 * se


class TestRollback:
    def test_threshold_semantics(self):
        mild = -0.5 * 0.1  # a gentle control's log penalty
        harsh = -50.0
        cfg = NudgingConfig(rollback_log_threshold=-2.0)
        assert not rollback_test(mild, cfg)
        assert rollback_test(harsh, cfg)
        always = NudgingConfig(rollback_log_threshold=np.inf)
        assert rollback_test(mild, always)
        assert rollback_test(0.0, always)
        never = NudgingConfig(rollback_log_threshold=-np.inf)
        assert not rollback_test(harsh, never)

    def test_zero_penalty_kept_at_zero_threshold(self):
        cfg = NudgingConfig(rollback_log_threshold=0.0)
        assert not rollback_test(0.0, cfg)
        assert rollback_test(-1e-9, cfg)


class TestPhiFloor:
    def test_floored_estimate_is_flagged_and_zeroed(self):
        model = ou_model()
        obs = obs_1d(var=1e-4)
        config = NudgingConfig()
        rng = stream_generator(stream_sequence(35, 0))
        est = adaptive_control(
            model, obs, 0.0, np.array([100.0]), 0.5, np.array([-100.0]),
            config, rng, 0.01,
        )
        assert est.phi_floored
        assert not np.any(est.control)


class TestFeedbackControl:
    def test_formula(self):
        grad = np.array([0.5, -1.0, 2.0])
        R = lorenz63().diffusion
        u = feedback_control(0.25, grad, R)
        assert np.allclose(u, R @ grad / 0.25, atol=1e-15)

    def test_requires_positive_phi(self):
        with pytest.raises(ValueError):
            feedback_control(0.0, np.ones(3), np.eye(3))


class TestBmRatio:
    def test_reference_cases(self):
        disp = lorenz63().dispersion
        dw = np.array([0.05, -0.02, 0.01])
        assert nudging_bm_ratio(np.zeros(3), dw, 0.01, disp) == 0.0
        u = disp @ dw / 0.01
        assert np.isclose(
            nudging_bm_ratio(u, dw, 0.01, disp), 1.0, rtol=1e-12
        )
        assert np.isnan(
            nudging_bm_ratio(np.ones(3), np.zeros(3), 0.01, disp)
        )

    def test_batched_increments(self):
        rng = np.random.default_rng(3)
        disp = lorenz63().dispersion
        dw = rng.normal(0.0, 0.1, size=(7, 3))
        u = np.array([1.0, 2.0, -1.0])
        out = nudging_bm_ratio(u, dw, 0.01, disp)
        assert out.shape == (7,)
        for j in range(7):
            assert np.isclose(
                out[j], nudging_bm_ratio(u, dw[j], 0.01, disp)
            )


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            NudgingConfig(subintervals=0)
        with pytest.raises(ValueError):
            NudgingConfig(batch_size=0)
        with pytest.raises(ValueError):
            NudgingConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            NudgingConfig(max_batches=0)


class TestIncrementCheck:
    """A context checks its time grid against dt and its (n, T, d)
    increments against the grid, the model's dimension and its
    observation intervals once, when it is built, and every cycle checks
    them against the ensemble it is handed."""

    @pytest.mark.parametrize("filter_name", ["pf", "npf", "var_npf"])
    @pytest.mark.parametrize("shape, t_end", [
        ((4, 50, 3), 0.5),  # one particle short
        ((5, 40, 3), 0.5),  # too few steps
        ((5, 50, 2), 0.5),  # wrong dimension
        ((5, 50, 3), 0.505),  # not a whole number of steps
    ])
    def test_rejects_increments_off_the_interval(
        self, filter_name, shape, t_end
    ):
        rng = np.random.default_rng(42)
        states = np.array([1.508870, -1.531271, 25.46091]) + rng.normal(
            size=(5, 3)
        )
        ens = ParticleEnsemble(states, np.full(5, 0.2))
        obs = ObservationModel(operator=np.eye(3), noise_cov=2.0 * np.eye(3))
        # 50 steps over [0, t_end], against dt 0.01
        times = np.linspace(0.0, t_end, 51)
        incs = rng.normal(0.0, 0.1, size=shape)
        message = "increments must be|whole number of steps"
        with pytest.raises(ValueError, match=message):
            CYCLES[filter_name](ens, cycle_context(
                lorenz63(), obs, np.array([0.0, 0.0, 25.0]), incs,
                np.random.default_rng(44), times=times,
                control=stream_key(43, CONTROL),
            ), 0)

    def test_rejects_times_off_the_dt_grid(self):
        # [0, 0.5] in 25 steps of 0.02 where dt is 0.01
        with pytest.raises(ValueError, match="times must be the 51 points"):
            cycle_context(
                lorenz63(), ObservationModel(np.eye(3), 2.0 * np.eye(3)),
                np.zeros(3), np.zeros((5, 25, 3)),
                np.random.default_rng(49), times=np.linspace(0.0, 0.5, 26),
            )

    @pytest.mark.parametrize("observations", [3, 4, 7])
    def test_rejects_steps_off_the_intervals(self, observations):
        rng = np.random.default_rng(48)
        with pytest.raises(ValueError, match="do not divide into"):
            cycle_context(
                lorenz63(), ObservationModel(np.eye(3), 2.0 * np.eye(3)),
                np.zeros((observations, 3)), rng.normal(size=(5, 50, 3)),
                np.random.default_rng(49),
            )

    @pytest.mark.parametrize("resolve", [False, True])
    def test_var_npf_checks_before_the_variational_solve(
        self, monkeypatch, resolve
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("minimize_cost ran before the check")

        monkeypatch.setattr(var_npf, "minimize_cost", no_solve)
        rng = np.random.default_rng(45)
        states = np.array([1.508870, -1.531271, 25.46091]) + rng.normal(
            size=(5, 3)
        )
        ens = ParticleEnsemble(states, np.full(5, 0.2))
        obs = ObservationModel(operator=np.eye(3), noise_cov=2.0 * np.eye(3))
        settings = VarNpfSettings(resolve_per_subinterval=resolve)
        ctx = cycle_context(
            lorenz63(), obs, np.array([0.0, 0.0, 25.0]),
            rng.normal(size=(4, 50, 3)), np.random.default_rng(47),
            variational=settings, control=stream_key(46, CONTROL),
        )
        with pytest.raises(ValueError, match="increments must be"):
            var_npf_assimilation_cycle(ens, ctx, 0)


class TestCycleReduction:
    def test_forced_rollback_reduces_to_bootstrap_bitwise(self):
        model = lorenz63()
        obs = ObservationModel(operator=np.eye(3), noise_cov=2.0 * np.eye(3))
        rng = np.random.default_rng(4)
        states = np.array([1.508870, -1.531271, 25.46091]) + rng.normal(
            scale=np.sqrt(2.0), size=(5, 3)
        )
        ens = ParticleEnsemble(states, np.full(5, 0.2))
        incs = np.stack(
            [sample_brownian_path(rng, 50, 3, 0.01) for _ in range(5)]
        )
        y = np.array([0.0, 0.0, 25.0])
        config = NudgingConfig(rollback_log_threshold=np.inf)

        post_pf, diag_pf = pf_assimilation_cycle(ens, cycle_context(
            model, obs, y, incs, np.random.default_rng(41),
        ), 0)
        post_npf, diag_npf = npf_assimilation_cycle(ens, cycle_context(
            model, obs, y, incs, np.random.default_rng(41), nudging=config,
            control=stream_key(40, CONTROL),
        ), 0)
        assert np.array_equal(post_pf.states, post_npf.states)
        assert np.array_equal(post_pf.weights, post_npf.weights)
        assert np.array_equal(diag_pf.step_states, diag_npf.step_states)
        assert not np.any(diag_npf.log_rn)
        assert np.all(diag_npf.rollbacks)
        assert np.all(diag_npf.control_applied == 0.0)
