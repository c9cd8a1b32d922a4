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

from varnpf.ensemble import ObservationModel
from varnpf.sde import BrownianPath, SdeModel, integrate_path, lorenz63
from varnpf.variational import (
    BLOWUP_COST,
    GRADIENT_LOOKAHEAD,
    VariationalProblem,
    VariationalResult,
    _gauss_newton_direction,
    _projected_gradient,
    build_pseudo_path,
    flow_states,
    minimize_cost,
    regularize_covariance,
    variational_cost,
    variational_gradient,
)


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

    def test_linear_instances_solve_in_one_gauss_newton_step(self):
        # the cost is quadratic, so the first Gauss-Newton step lands on
        # the minimizer up to finite-difference noise (about 1e-8 in the
        # gradient) and the second iteration only confirms it
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
        h = np.full(3, 1e-6)
        g = np.array([1.0, -2.0, 0.5])
        for bad in (np.inf, np.nan):
            ends = np.zeros((6, 3))
            ends[0] = ends[3] = np.inf  # inf - inf in column 0
            ends[4, 2] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = _gauss_newton_direction(g, ends, h, problem)
            assert np.array_equal(got, -g)

    def test_blown_up_gradient_point_solves_without_warning(self):
        # the drift is infinite right of x_0 = 1, so the first gradient
        # point of a start at x_0 = 1 blows up and the other five do not
        cliff = SdeModel(
            dimension=3,
            drift=lambda x: np.where(x > 1.0, np.inf, 0.0),
            drift_jacobian=lambda x: np.zeros(x.shape[:-1] + (3, 3)),
            dispersion=np.eye(3),
            diffusion=np.eye(3),
        )
        obs = ObservationModel(operator=np.eye(3), noise_cov=np.eye(3))
        mu = np.array([1.0, 0.0, 0.0])
        problem = make_problem(cliff, mu, np.eye(3), obs, np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = minimize_cost(problem)
        assert res.cost_opt <= variational_cost(mu, problem)
        assert np.all(np.isfinite(res.x_opt))


class TestGradientConsistency:
    def test_nonlinear_gradient_stable_under_step_choice(self):
        # independent central difference with a 10x coarser step must
        # agree to 1e-4 relative on the chaotic-flow cost
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


def sequential_minimize(problem, max_iterations=200, gradient_tol=1e-5,
                        cost_decrease_tol=1e-9):
    """One-trial-at-a-time Gauss-Newton search, kept here only as an oracle.

    Returns the result plus the accepted backtracking depth per iteration.
    """
    lower, upper = problem.lower, problem.upper
    H = problem.obs_model.operator
    noise_prec = problem.obs_model._noise_prec
    x = np.clip(problem.prior_mean, lower, upper)
    evals = [0]
    depths = []

    def cost(y):
        evals[0] += 1
        return variational_cost(y, problem)

    def grad(y):
        evals[0] += 2 * y.shape[0]
        return variational_gradient(y, problem)

    def jacobian(y):
        # flow Jacobian from variational_gradient's own difference points
        d = y.shape[0]
        h = np.maximum(1e-6, 1e-8 * np.abs(y))
        points = np.concatenate([y + np.diag(h), y - np.diag(h)])
        ends = flow_states(problem.model, points, problem.n_steps, problem.dt)
        with np.errstate(over="ignore", invalid="ignore"):
            return ((ends[:d] - ends[d:]) / (2.0 * h)[:, None]).T

    def gauss_newton(g, jac):
        with np.errstate(over="ignore", invalid="ignore"):
            hj = H @ jac
            normal = problem._prior_prec + hj.T @ noise_prec @ hj
            if not np.all(np.isfinite(normal)):
                return -g
            try:
                p = np.linalg.solve(normal, -g)
            except np.linalg.LinAlgError:
                return -g
            if not np.all(np.isfinite(p)) or float(p @ g) >= 0.0:
                return -g
            return p

    current = cost(x)
    g = grad(x)
    status = "max_iterations"
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        pg = _projected_gradient(x, g, lower, upper)
        if np.max(np.abs(pg)) < gradient_tol:
            status = "gradient"
            break
        direction = gauss_newton(g, jacobian(x))
        alpha = 1.0
        depth = 0
        accepted = False
        while alpha >= 1e-12:
            candidate = np.clip(x + alpha * direction, lower, upper)
            step = candidate - x
            if not np.any(step):
                break
            trial = cost(candidate)
            if trial <= current + 1e-4 * float(g @ step):
                accepted = True
                break
            alpha *= 0.5
            depth += 1
        if not accepted:
            status = "stalled"
            break
        depths.append(depth)
        new_g = grad(candidate)
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
        iterations=iterations, cost_evals=evals[0], status=status,
    )
    return result, depths


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


class TestBatchedLineSearch:
    def test_bitwise_equal_to_sequential_search(self):
        rng = np.random.default_rng(2024)
        seen = {"deep": 0, "stalled": 0, "pinned": 0}
        for _ in range(40):
            problem = random_l63_problem(rng)
            cap = int(rng.choice([5, 200]))
            got = minimize_cost(problem, max_iterations=cap)
            want, depths = sequential_minimize(problem, max_iterations=cap)
            assert np.array_equal(got.x_opt, want.x_opt)
            assert repr(got.cost_opt) == repr(want.cost_opt)
            assert got.iterations == want.iterations
            assert got.cost_evals == want.cost_evals
            assert got.status == want.status
            assert repr(got.gradient_norm) == repr(want.gradient_norm)
            seen["deep"] += any(k >= GRADIENT_LOOKAHEAD for k in depths)
            seen["stalled"] += got.status == "stalled"
            seen["pinned"] += bool(np.any(
                (got.x_opt == problem.lower) | (got.x_opt == problem.upper)
            ))
        # the seeded set covers each path through the scan
        assert all(seen.values()), seen


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
        silent = BrownianPath(dt=0.01, increments=np.zeros((50, 3)))
        traj = integrate_path(model, x0, np.zeros(3), silent, 0.0)
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
        out = flow_states(model, x, 30, 0.01)
        silent = BrownianPath(dt=0.01, increments=np.zeros((30, 3)))
        for row in range(2):
            traj = integrate_path(model, x[row], np.zeros(3), silent, 0.0)
            assert np.allclose(out[row], traj[-1], atol=1e-12)
