"""Initial-state fitting: closed-form oracles, solver behaviour, pseudo paths.

Linear-dynamics instances have an exact Gauss-Markov minimizer computed
here from matrix algebra alone, which pins both the cost definition and
the solver's accuracy.  The flow matrix of one RK4 step is the degree-4
polynomial of A dt, so the oracle matches the implemented map rather than
the continuous-time exponential (the two agree far below the tolerance).
"""

import warnings

import numpy as np
import pytest

from varnpf import variational
from varnpf.ensemble import ObservationModel
from varnpf.harness import BENCHMARK_ICS
from varnpf.sde import RK4_STAGES, SdeModel, lorenz63, rk4_path, rk4_tangent
from varnpf.variational import (
    BLOWUP_COST,
    VariationalProblem,
    VariationalResult,
    _projected_gradient,
    _step_direction,
    build_pseudo_path,
    minimize_cost,
    regularize_covariance,
    variational_cost,
    variational_gradient,
)

from oracle import one_row_path


def zero_drift_model():
    return SdeModel(
        dimension=3,
        drift=lambda x: np.zeros_like(x),
        drift_jacobian=lambda x: np.zeros(x.shape[:-1] + (3, 3)),
        dispersion=np.eye(3),
        diffusion=np.eye(3),
    )


def linear_model(A):
    return SdeModel(
        dimension=3,
        drift=lambda x: x @ A.T,
        drift_jacobian=lambda x: np.broadcast_to(A, x.shape[:-1] + (3, 3)),
        dispersion=np.eye(3),
        diffusion=np.eye(3),
    )


def rk4_step_matrix(A, dt):
    step = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 5):
        term = term @ (A * dt) / k
        step = step + term
    return step


def random_spd(rng, low=0.5, high=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q @ np.diag(rng.uniform(low, high, size=3)) @ q.T


def make_problem(model, mean, cov, obs, y, t_end=0.5, dt=0.01):
    return VariationalProblem(
        model=model,
        obs_model=obs,
        prior_mean=mean,
        prior_cov=cov,
        observation=y,
        t_start=0.0,
        t_end=t_end,
        dt=dt,
    )


class TestZeroDrift:
    def test_minimizer_is_midpoint(self):
        # flat flow, identity prior and noise: the cost is symmetric in
        # mu and y, so the optimum sits halfway between them
        mu = np.array([1.0, -2.0, 0.5])
        y = np.array([3.0, 0.0, -1.5])
        obs = ObservationModel(operator=np.eye(3), noise_cov=np.eye(3))
        problem = make_problem(zero_drift_model(), mu, np.eye(3), obs, y)
        res = minimize_cost(problem, gradient_tol=1e-8, max_iterations=500)
        assert np.max(np.abs(res.x_opt - 0.5 * (mu + y))) <= 1e-6

    def test_gradient_matches_analytic(self):
        mu = np.array([0.2, -0.4, 1.0])
        y = np.array([1.0, 1.0, -2.0])
        cov = np.diag([2.0, 1.0, 0.5])
        noise = np.diag([0.5, 2.0, 1.0])
        obs = ObservationModel(operator=np.eye(3), noise_cov=noise)
        problem = make_problem(zero_drift_model(), mu, cov, obs, y)
        x = np.array([0.7, 0.1, -0.3])
        got = variational_gradient(x, problem)
        want = np.linalg.solve(cov, x - mu) + np.linalg.solve(noise, x - y)
        assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(want))


def gauss_markov_instance(instance):
    """A linear-flow fit and its closed-form Gauss-Markov minimizer."""
    dt, t_end = 0.01, 0.5
    steps = 50
    rng = np.random.default_rng(500 + instance)
    A = 0.6 * rng.standard_normal((3, 3))
    sigma = random_spd(rng)
    sigma_y = random_spd(rng)
    H = rng.standard_normal((3, 3))
    mu = rng.normal(size=3)
    y = rng.normal(size=3)

    flow = np.linalg.matrix_power(rk4_step_matrix(A, dt), steps)
    F = H @ flow
    prec = np.linalg.inv(sigma) + F.T @ np.linalg.solve(sigma_y, F)
    rhs = np.linalg.solve(sigma, mu) + F.T @ np.linalg.solve(sigma_y, y)
    closed_form = np.linalg.solve(prec, rhs)

    obs = ObservationModel(operator=H, noise_cov=sigma_y)
    problem = make_problem(linear_model(A), mu, sigma, obs, y, t_end, dt)
    return problem, closed_form


class TestGaussMarkov:
    def test_twenty_linear_instances_match_closed_form(self):
        for instance in range(20):
            problem, closed_form = gauss_markov_instance(instance)
            res = minimize_cost(
                problem, gradient_tol=1e-8, cost_decrease_tol=1e-15,
                max_iterations=500,
            )
            assert np.max(np.abs(res.x_opt - closed_form)) <= 1e-6, (
                f"instance {instance}: {res.x_opt} vs {closed_form} "
                f"({res.status})"
            )
            # the exact gradient has no difference noise to stop under
            assert res.status == "gradient", (instance, res)

    def test_linear_instances_solve_in_one_gauss_newton_step(self):
        # the cost is quadratic and the tangent gradient exact, so the
        # first Gauss-Newton step lands on the minimizer up to rounding
        # and the second iteration only confirms it
        for instance in range(20):
            problem, closed_form = gauss_markov_instance(instance)
            res = minimize_cost(
                problem, gradient_tol=1e-7, cost_decrease_tol=1e-15,
                max_iterations=500,
            )
            assert res.status == "gradient", (instance, res)
            assert res.iterations <= 2, (instance, res)
            assert np.max(np.abs(res.x_opt - closed_form)) <= 1e-6


class TestGaussNewtonDirection:
    def test_non_finite_jacobian_falls_back_to_negative_gradient(self):
        obs = ObservationModel(operator=np.eye(3), noise_cov=np.eye(3))
        problem = make_problem(
            zero_drift_model(), np.zeros(3), np.eye(3), obs, np.ones(3)
        )
        g = np.array([1.0, -2.0, 0.5])
        for bad in (np.inf, np.nan):
            psi = np.eye(3)
            psi[0, 0] = np.inf
            psi[1, 2] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = _step_direction(g, psi, problem)
            assert np.array_equal(got, -g)

    def test_step_solves_the_normal_equations(self):
        obs = ObservationModel(
            operator=np.eye(3), noise_cov=np.diag([1.0, 0.5, 2.0])
        )
        problem = make_problem(
            zero_drift_model(), np.zeros(3), np.diag([2.0, 1.0, 4.0]), obs,
            np.ones(3),
        )
        g = np.array([1.0, -2.0, 0.5])
        J = np.array([[1.0, 0.5, 0.0], [0.0, 2.0, -1.0], [0.3, 0.0, 1.0]])
        H, noise_prec = obs.operator, np.linalg.inv(obs.noise_cov)
        normal = problem._prior_prec + J.T @ H.T @ noise_prec @ H @ J
        got = _step_direction(g, J, problem)
        assert np.array_equal(got, np.linalg.solve(normal, -g))
        assert not np.allclose(got, -g)

    def test_blown_up_gradient_point_solves_without_warning(self):
        # the drift's Jacobian is infinite from x_0 = 1 on, so the tangent
        # pass of a start at x_0 = 1 blows up, though its flow does not
        cliff = SdeModel(
            dimension=3,
            drift=lambda x: np.zeros_like(x),
            drift_jacobian=lambda x: np.where(
                x[..., :1, None] >= 1.0, np.inf, np.zeros(x.shape + (3,))
            ),
            dispersion=np.eye(3),
            diffusion=np.eye(3),
        )
        obs = ObservationModel(operator=np.eye(3), noise_cov=np.eye(3))
        mu = np.array([1.0, 0.0, 0.0])
        problem = make_problem(cliff, mu, np.eye(3), obs, np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = minimize_cost(problem)
        assert res.status == "stalled" and res.iterations == 1
        assert res.cost_opt == variational_cost(mu, problem)
        assert np.array_equal(res.x_opt, mu)


class TestTangent:
    """The tangent pass is the exact derivative of the discrete RK4 map."""

    @pytest.mark.parametrize("n_steps", [1, 2, 7, 50])
    def test_linear_flow_tangent_is_the_step_matrix_power(self, n_steps):
        dt = 0.01
        for instance in range(5):
            A = 0.6 * np.random.default_rng(700 + instance).standard_normal(
                (3, 3)
            )
            x = np.array([0.5, -1.0, 2.0])
            flow = rk4_path(linear_model(A), x, dt, n_steps)
            got = rk4_tangent(linear_model(A), flow, dt)
            want = np.linalg.matrix_power(rk4_step_matrix(A, dt), n_steps)
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("t_end", [0.1, 0.5])
    def test_l63_gradient_matches_central_differences(self, t_end):
        obs = ObservationModel(operator=np.eye(3), noise_cov=2.0 * np.eye(3))
        h = 1e-5
        for center in np.asarray(BENCHMARK_ICS):
            problem = make_problem(
                lorenz63(), center, 2.0 * np.eye(3), obs, center + 0.5, t_end
            )
            x = center + np.array([0.3, -0.2, 0.4])
            got = variational_gradient(x, problem)
            check = np.array([
                (variational_cost(x + h * e, problem)
                 - variational_cost(x - h * e, problem)) / (2.0 * h)
                for e in np.eye(3)
            ])
            assert np.max(np.abs(got - check)) <= 1e-7 * max(
                np.max(np.abs(check)), 1.0
            ), center


class TestGradientConsistency:
    def test_nonlinear_gradient_stable_under_step_choice(self):
        # an independent central difference must agree with the tangent
        # gradient to 1e-4 relative on the chaotic-flow cost
        model = lorenz63()
        obs = ObservationModel(operator=np.eye(3), noise_cov=2.0 * np.eye(3))
        mu = np.array([1.508870, -1.531271, 25.46091])
        problem = make_problem(
            model, mu, 2.0 * np.eye(3), obs, mu + 0.5, t_end=0.5
        )
        for x in (mu, mu + np.array([0.3, -0.2, 0.4])):
            got = variational_gradient(x, problem)
            h = 1e-5
            check = np.empty(3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                check[k] = (
                    variational_cost(x + e, problem)
                    - variational_cost(x - e, problem)
                ) / (2.0 * h)
            assert np.max(np.abs(got - check)) <= 1e-4 * max(
                np.max(np.abs(check)), 1.0
            )


class TestSolverContract:
    def test_cost_never_exceeds_start(self):
        model = lorenz63()
        obs = ObservationModel(operator=np.eye(3), noise_cov=2.0 * np.eye(3))
        mu = np.array([1.508870, -1.531271, 25.46091])
        problem = make_problem(
            model, mu, 2.0 * np.eye(3), obs, mu + 1.0, t_end=0.5
        )
        start_cost = variational_cost(mu, problem)
        res = minimize_cost(problem)
        assert res.cost_opt <= start_cost
        x0 = mu + np.array([2.0, 2.0, -2.0])
        res2 = minimize_cost(problem, x0=x0)
        assert res2.cost_opt <= variational_cost(x0, problem)

    def test_iteration_cap_respected(self):
        model = lorenz63()
        obs = ObservationModel(operator=np.eye(3), noise_cov=2.0 * np.eye(3))
        mu = np.array([1.508870, -1.531271, 25.46091])
        problem = make_problem(
            model, mu, 2.0 * np.eye(3), obs, mu + 1.0, t_end=0.5
        )
        res = minimize_cost(problem, max_iterations=1)
        assert res.iterations == 1
        assert res.cost_opt <= variational_cost(mu, problem)

    def test_box_clips_runaway_optimum(self):
        # pull so hard toward the observation that the unconstrained
        # optimum leaves the ten-sigma box; the solver must stop on a face
        mu = np.zeros(3)
        obs = ObservationModel(
            operator=np.eye(3), noise_cov=1e-4 * np.eye(3)
        )
        problem = make_problem(
            zero_drift_model(), mu, 1e-2 * np.eye(3), obs,
            np.full(3, 5.0),
        )
        res = minimize_cost(problem, gradient_tol=1e-10, max_iterations=500)
        assert np.allclose(res.x_opt, problem.upper, atol=1e-9)
        assert np.all(res.x_opt <= problem.upper)

    def test_blowup_cost_sentinel(self):
        model = lorenz63()
        obs = ObservationModel(operator=np.eye(3), noise_cov=2.0 * np.eye(3))
        problem = make_problem(
            model, np.zeros(3), np.eye(3), obs, np.zeros(3), t_end=0.5
        )
        assert variational_cost(np.full(3, 1e8), problem) == BLOWUP_COST

    def test_blown_up_start_stalls_at_its_start(self):
        # a start whose flow leaves float64 has no gradient to step along
        model = lorenz63()
        obs = ObservationModel(operator=np.eye(3), noise_cov=2.0 * np.eye(3))
        mu = np.full(3, 1e8)
        problem = make_problem(model, mu, np.eye(3), obs, np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = minimize_cost(problem)
        assert res.status == "stalled"
        assert res.iterations == res.cost_evals == res.flows == 1
        assert np.array_equal(res.x_opt, mu)
        assert res.cost_opt == BLOWUP_COST
        assert res.jacobian_evals == RK4_STAGES * problem.n_steps


def tangent_oracle(problem, x):
    """x's flow and the cost's gradient and flow tangent there, one step at
    a time: each step's stage states, their Jacobians and its propagator,
    then the propagators' pairwise product."""
    model, dt = problem.model, problem.dt
    eye = np.eye(x.shape[0])
    flow = rk4_path(model, x, dt, problem.n_steps)
    factors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x_s in flow[:-1]:
            stages = [x_s]
            for h in (0.5 * dt, 0.5 * dt, dt):
                stages.append(x_s + h * model.drift(stages[-1]))
            j1, j2, j3, j4 = (model.drift_jacobian(y) for y in stages)
            p1 = j1
            p2 = j2 @ (eye + (0.5 * dt) * p1)
            p3 = j3 @ (eye + (0.5 * dt) * p2)
            p4 = j4 @ (eye + dt * p3)
            factors.append(eye + (dt / 6.0) * (p1 + 2.0 * (p2 + p3) + p4))
        while len(factors) > 1:
            carried = factors[-1:] if len(factors) % 2 else []
            factors = [
                factors[i + 1] @ factors[i]
                for i in range(0, len(factors) - 1, 2)
            ] + carried
        psi = factors[0]
        g = problem._prior_prec @ (x - problem.prior_mean) + psi.T @ (
            problem.obs_model.nll_gradient(flow[-1], problem.observation)
        )
    return flow, g, psi


def sequential_minimize(problem, max_iterations=200, gradient_tol=1e-5,
                        cost_decrease_tol=1e-9):
    """One-trial-at-a-time Gauss-Newton search, kept here only as an oracle.

    Gauss-Newton steps from the tangent oracle, each shortened by Armijo
    backtracking, and a stop before the line search when the full step
    stays in the box and its predicted decrease is below
    ``cost_decrease_tol``.  Returns the result and a log: the accepted
    backtracking depth per iteration, the one-row flows minimize_cost
    makes (the start's and one per trial priced), the tangent passes (the
    start's and one per accepted step), and whether the predicted decrease
    stopped the search.
    """
    lower, upper = problem.lower, problem.upper
    obs_model = problem.obs_model
    H = obs_model.operator
    noise_prec = obs_model._noise_prec
    x = np.clip(problem.prior_mean, lower, upper)
    log = {"depths": [], "flows": 1, "tangents": 1, "predicted": False}

    def solve(matrix, g):
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(matrix)):
                return None
            try:
                p = np.linalg.solve(matrix, -g)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(p)) or float(p @ g) >= 0.0:
                return None
            return p

    current = variational_cost(x, problem)
    _, g, psi = tangent_oracle(problem, x)
    status = "max_iterations"
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if not np.all(np.isfinite(g)):
            status = "stalled"
            break
        pg = _projected_gradient(x, g, lower, upper)
        if np.max(np.abs(pg)) < gradient_tol:
            status = "gradient"
            break
        with np.errstate(over="ignore", invalid="ignore"):
            hj = H @ psi
            normal = problem._prior_prec + hj.T @ noise_prec @ hj
        direction = solve(normal, g)
        if direction is None:
            direction = -g
        full = x + direction
        inside = np.all((lower <= full) & (full <= upper))
        predicted = 0.5 * abs(float(g @ direction)) / max(abs(current), 1.0)
        if inside and predicted < cost_decrease_tol:
            status = "cost_decrease"
            log["predicted"] = True
            break
        alpha = 1.0
        depth = 0
        accepted = False
        while alpha >= 1e-12:
            candidate = np.clip(x + alpha * direction, lower, upper)
            step = candidate - x
            if not np.any(step):
                break
            trial = variational_cost(candidate, problem)
            log["flows"] += 1
            if trial <= current + 1e-4 * float(g @ step):
                accepted = True
                break
            alpha *= 0.5
            depth += 1
        if not accepted:
            status = "stalled"
            break
        log["depths"].append(depth)
        _, new_g, psi = tangent_oracle(problem, candidate)
        log["tangents"] += 1
        decrease = current - trial
        relative = decrease / max(abs(current), abs(trial), 1.0)
        x, current, g = candidate, trial, new_g
        if relative < cost_decrease_tol:
            status = "cost_decrease"
            break
    else:
        iterations = max_iterations
    pg = _projected_gradient(x, g, lower, upper)
    result = VariationalResult(
        x_opt=x, cost_opt=current, gradient_norm=float(np.max(np.abs(pg))),
        iterations=iterations, cost_evals=log["flows"], status=status,
    )
    return result, log


def counted_flows(monkeypatch):
    """Count the flows minimize_cost makes from here on."""
    calls = []
    flow = variational.rk4_path

    def counting(*args, **kwargs):
        calls.append(1)
        return flow(*args, **kwargs)

    monkeypatch.setattr(variational, "rk4_path", counting)
    return calls


def random_l63_problem(rng):
    """A fit with a random prior, operator, horizon and box width."""
    mean = rng.normal(0.0, 8.0, 3) + np.array([0.0, 0.0, 25.0])
    a = rng.normal(size=(3, 3))
    cov = a @ a.T * rng.uniform(0.1, 10.0)
    m = int(rng.integers(1, 4))
    operator = np.eye(3) if m == 3 and rng.random() < 0.5 else (
        rng.normal(size=(m, 3))
    )
    obs = ObservationModel(
        operator=operator, noise_cov=rng.uniform(0.5, 3.0) * np.eye(m)
    )
    y = operator @ (mean + rng.normal(0.0, 5.0, 3))
    return VariationalProblem(
        model=lorenz63(), obs_model=obs, prior_mean=mean, prior_cov=cov,
        observation=y, t_start=0.0, t_end=float(rng.choice([0.1, 0.3, 0.5])),
        dt=0.01, bound_sigmas=float(rng.choice([0.5, 10.0])),
    )


def assert_same_solve(got, want, problem):
    assert np.array_equal(got.x_opt, want.x_opt)
    assert repr(got.cost_opt) == repr(want.cost_opt)
    assert got.iterations == want.iterations
    assert got.cost_evals == want.cost_evals
    assert got.status == want.status
    assert repr(got.gradient_norm) == repr(want.gradient_norm)
    # the best iterate's flow, taken from the start's flow or the
    # accepted trial's, is x_opt's own
    fresh = rk4_path(problem.model, want.x_opt, problem.dt, problem.n_steps)
    assert got.flow.tobytes() == fresh.tobytes()


class TestBatchedLineSearch:
    def test_bitwise_equal_to_sequential_search(self, monkeypatch):
        rng = np.random.default_rng(2024)
        seen = {"rejected": 0, "stalled": 0, "pinned": 0, "predicted": 0,
                "measured": 0, "gradient": 0}
        flows = counted_flows(monkeypatch)
        for _ in range(40):
            problem = random_l63_problem(rng)
            cap = int(rng.choice([5, 200]))
            flows.clear()
            got = minimize_cost(problem, max_iterations=cap)
            n_flows = len(flows)
            want, log = sequential_minimize(problem, max_iterations=cap)
            assert_same_solve(got, want, problem)
            assert n_flows == log["flows"] == got.flows
            # four drift stages per flowed step, three per tangent step
            assert got.drift_evals == problem.n_steps * (
                RK4_STAGES * log["flows"] + 3 * log["tangents"]
            )
            assert got.jacobian_evals == (
                RK4_STAGES * problem.n_steps * log["tangents"]
            )
            seen["rejected"] += any(k >= 1 for k in log["depths"])
            seen["stalled"] += got.status == "stalled"
            seen["pinned"] += bool(np.any(
                (got.x_opt == problem.lower) | (got.x_opt == problem.upper)
            ))
            seen["predicted"] += log["predicted"]
            seen["measured"] += (
                got.status == "cost_decrease" and not log["predicted"]
            )
            seen["gradient"] += got.status == "gradient"
        # the seeded set covers each path through the search
        assert all(seen.values()), seen


class TestSolveFlow:
    def test_start_iterate_keeps_the_start_flow(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            problem = random_l63_problem(rng)
            res = minimize_cost(problem, gradient_tol=np.inf)
            assert res.status == "gradient" and res.iterations == 1
            start = np.clip(problem.prior_mean, problem.lower, problem.upper)
            assert np.array_equal(res.x_opt, start)
            fresh = rk4_path(
                problem.model, start, problem.dt, problem.n_steps
            )
            assert res.flow.shape == (problem.n_steps + 1, 3)
            assert res.flow.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("segments", [1, 2, 5])
    def test_pseudo_path_samples_the_given_flow(self, segments):
        rng = np.random.default_rng(32)
        for _ in range(5):
            problem = random_l63_problem(rng)
            res = minimize_cost(problem)
            total = problem.n_steps
            args = (problem.model, problem.obs_model, res.x_opt,
                    problem.t_start, problem.t_end, segments, problem.dt)
            sampled = build_pseudo_path(*args, flow=res.flow)
            fresh = build_pseudo_path(*args)
            assert sampled.states.tobytes() == fresh.states.tobytes()
            assert sampled.observations.tobytes() == (
                fresh.observations.tobytes()
            )
            assert np.array_equal(
                sampled.states, res.flow[:: total // segments]
            )

    def test_pseudo_path_rejects_a_short_flow(self):
        model = lorenz63()
        obs = ObservationModel(operator=np.eye(3), noise_cov=np.eye(3))
        x0 = np.array([1.0, 1.0, 20.0])
        flow = rk4_path(model, x0, 0.01, 49)
        with pytest.raises(ValueError):
            build_pseudo_path(model, obs, x0, 0.0, 0.5, 5, 0.01, flow=flow)


class TestRegularization:
    def test_healthy_covariance_unchanged(self):
        cov = np.diag([2.0, 1.0, 0.5])
        assert np.array_equal(regularize_covariance(cov), cov)

    def test_singular_covariance_lifted(self):
        v = np.array([1.0, 2.0, 3.0])
        cov = np.outer(v, v)
        got = regularize_covariance(cov, eps=1e-6)
        assert np.array_equal(got, cov + 1e-6 * np.eye(3))

    def test_ill_conditioned_covariance_lifted(self):
        cov = np.diag([1.0, 1e-12, 1.0])
        got = regularize_covariance(cov, eps=1e-6)
        assert np.array_equal(got, cov + 1e-6 * np.eye(3))

    def test_collapsed_ensemble_still_solvable(self):
        model = lorenz63()
        obs = ObservationModel(operator=np.eye(3), noise_cov=2.0 * np.eye(3))
        mu = np.array([1.508870, -1.531271, 25.46091])
        problem = make_problem(
            model, mu, np.zeros((3, 3)), obs, mu + 0.5, t_end=0.5
        )
        res = minimize_cost(problem)
        assert np.all(np.isfinite(res.x_opt))


class TestProblemValidation:
    def test_rejects_nonpositive_eps(self):
        obs = ObservationModel(operator=np.eye(3), noise_cov=np.eye(3))
        with pytest.raises(ValueError):
            VariationalProblem(
                model=zero_drift_model(),
                obs_model=obs,
                prior_mean=np.zeros(3),
                prior_cov=np.eye(3),
                observation=np.zeros(3),
                t_start=0.0,
                t_end=0.5,
                dt=0.01,
                eps=0.0,
            )

    def test_box_centred_on_prior_mean(self):
        obs = ObservationModel(operator=np.eye(3), noise_cov=np.eye(3))
        mu = np.array([1.0, 2.0, 3.0])
        problem = make_problem(
            zero_drift_model(), mu, 4.0 * np.eye(3), obs, np.zeros(3)
        )
        assert np.allclose(problem.lower, mu - 20.0)
        assert np.allclose(problem.upper, mu + 20.0)


class TestPseudoPath:
    def test_segment_states_follow_deterministic_flow(self):
        model = lorenz63()
        obs = ObservationModel(operator=np.eye(3), noise_cov=2.0 * np.eye(3))
        x0 = np.array([1.508870, -1.531271, 25.46091])
        path = build_pseudo_path(model, obs, x0, 0.0, 0.5, 5, 0.01)
        assert path.states.shape == (6, 3)
        assert np.array_equal(path.states[0], x0)
        assert np.allclose(
            path.times, np.linspace(0.0, 0.5, 6), atol=1e-12
        )
        silent = np.zeros((50, 3))
        traj = one_row_path(model, x0, np.zeros(3), silent, 0.01)
        for seg in range(6):
            assert np.allclose(
                path.states[seg], traj[seg * 10], atol=1e-10
            )
        assert np.array_equal(path.observations, path.states)

    def test_partial_operator_observations(self):
        model = lorenz63()
        H = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        obs = ObservationModel(operator=H, noise_cov=np.eye(2))
        x0 = np.array([1.0, 2.0, 20.0])
        path = build_pseudo_path(model, obs, x0, 0.0, 0.5, 5, 0.01)
        assert path.observations.shape == (6, 2)
        assert np.allclose(path.observations, path.states @ H.T)

    def test_single_segment_keeps_endpoints_only(self):
        model = lorenz63()
        obs = ObservationModel(operator=np.eye(3), noise_cov=np.eye(3))
        path = build_pseudo_path(
            model, obs, np.array([1.0, 1.0, 20.0]), 0.0, 0.5, 1, 0.01
        )
        assert path.states.shape == (2, 3)

    def test_rejects_nondividing_segments(self):
        model = lorenz63()
        obs = ObservationModel(operator=np.eye(3), noise_cov=np.eye(3))
        with pytest.raises(ValueError):
            build_pseudo_path(
                model, obs, np.zeros(3), 0.0, 0.5, 7, 0.01
            )

    def test_flow_matches_stepwise_integration(self):
        model = lorenz63()
        x = np.array([[0.5, -0.5, 22.0], [2.0, 1.0, 18.0]])
        out = rk4_path(model, x, 0.01, 30)[-1]
        silent = np.zeros((30, 3))
        for row in range(2):
            traj = one_row_path(model, x[row], np.zeros(3), silent, 0.01)
            assert np.allclose(out[row], traj[-1], atol=1e-12)
