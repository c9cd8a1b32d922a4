"""Acceptance gate: thirteen checks covering exact invariants, analytic
oracles, and the desk-scale statistical benchmark.

Each test prints one ``criterion N: PASS/FAIL`` line with the measured
numbers.  Criteria 1-7 are deterministic and fast; criteria 8-13 share
two module-scoped Monte Carlo fixtures (30 paired runs at the reference
initial condition, and a 10-runs-per-condition sweep over all eleven
benchmark conditions) and take about 17 s together on a 2-vCPU host.
"""

import dataclasses
import time
import warnings

import numpy as np
import pytest

from varnpf.ensemble import (
    ObservationModel,
    effective_sample_size,
    systematic_offspring_counts,
)
from varnpf.harness import (
    BENCHMARK_ICS,
    ExperimentConfig,
    run_experiment,
    run_monte_carlo,
)
from varnpf.nudging import NudgingConfig, estimate_phi_grad, feedback_control, rn_log_increment
from varnpf.sde import SdeModel, lorenz63
from varnpf.seeding import stream_generator, stream_sequence
from varnpf.variational import (
    VariationalProblem,
    minimize_cost,
    variational_cost,
    variational_gradient,
)


def report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def star_mc():
    """30 paired runs of all three filters at the reference condition."""
    return run_monte_carlo(
        ExperimentConfig(),
        runs_per_ic=30,
        filters=("pf", "npf", "var_npf"),
    )


@pytest.fixture(scope="module")
def robustness_mc():
    """10 paired runs per benchmark condition, plain versus guided."""
    return run_monte_carlo(
        ExperimentConfig(),
        initial_conditions=BENCHMARK_ICS,
        runs_per_ic=10,
        filters=("pf", "var_npf"),
    )


def median(summary, name, key, ic=None):
    rows = summary.completed(name, ic)
    return float(np.median([getattr(r, key) for r in rows]))


# ----------------------------------------------------- deterministic suite

class TestExactProperties:
    def test_criterion_01_ess_exact_values(self):
        got = (
            effective_sample_size(np.full(10, 0.1)),
            effective_sample_size(
                np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
            ),
            effective_sample_size(np.array([0.5, 0.5, 0.0, 0.0])),
        )
        ok = got == (10.0, 1.0, 2.0)
        report(1, ok, f"ess values {got} vs (10.0, 1.0, 2.0)")

    def test_criterion_02_zero_control_reduction_bitwise(self):
        base = ExperimentConfig(particles=10, t_final=0.5, seed=2)
        forced = NudgingConfig(rollback_log_threshold=float("inf"))
        pf = run_experiment(base)
        npf = run_experiment(dataclasses.replace(
            base, filter_name="npf", nudging=forced
        ))
        var = run_experiment(dataclasses.replace(
            base, filter_name="var_npf", nudging=forced
        ))
        ok = True
        for other in (npf, var):
            ok = ok and np.array_equal(pf.step_states, other.step_states)
            ok = ok and np.array_equal(pf.step_weights, other.step_weights)
            ok = ok and np.array_equal(pf.ensemble_mean, other.ensemble_mean)
            ok = ok and not np.any(other.log_rn)
        report(
            2, ok,
            "pf / forced-zero npf / forced-zero var_npf trajectories and "
            f"weights bitwise equal: {ok}",
        )

    def test_criterion_03_girsanov_martingale(self):
        tic = time.perf_counter()
        steps, dt, n_paths = 50, 0.01, 10_000
        j = np.arange(steps)
        schedule = 0.6 * np.stack(
            [np.sin(j / 5.0), np.cos(j / 7.0), np.sin(j / 3.0)], axis=1
        )
        rng = stream_generator(stream_sequence(3000, 0))
        increments = rng.normal(0.0, np.sqrt(dt), size=(n_paths, steps, 3))
        values = np.exp([
            rn_log_increment(schedule, increments[p], dt)
            for p in range(n_paths)
        ])
        elapsed = time.perf_counter() - tic
        mean = values.mean()
        band = 3.0 * values.std(ddof=1) / np.sqrt(n_paths)
        ok = abs(mean - 1.0) <= band and elapsed < 10.0
        report(
            3, ok,
            f"mean exp(log-RN) {mean:.5f} within 1 +- {band:.5f}, "
            f"{elapsed:.2f}s < 10s",
        )

    def test_criterion_04_ou_oracle(self):
        tic = time.perf_counter()
        tau, dt, sy2, y, n = 0.5, 0.01, 0.8, 1.0, 10_000
        growth = np.exp(-tau)
        v = 0.5 * (1.0 - np.exp(-2.0 * tau))
        model = SdeModel(
            dimension=1,
            drift=lambda x: -x,
            drift_jacobian=lambda x: np.full(x.shape[:-1] + (1, 1), -1.0),
            dispersion=np.array([[1.0]]),
            diffusion=np.array([[1.0]]),
        )
        obs = ObservationModel(
            operator=np.array([[1.0]]), noise_cov=np.array([[sy2]])
        )

        def tilted(lam, mu):
            den = 1.0 + 2.0 * lam * v
            i0 = np.exp(-lam * mu * mu / den) / np.sqrt(den)
            return i0, i0 * mu / den, i0 * (v / den + (mu / den) ** 2)

        ok = True
        details = []
        for idx, x in enumerate([-2.0, -1.0, 0.0, 1.0, 2.0]):
            mu = x * growth - y
            c = 0.5 / sy2
            k = growth / sy2
            i0c, i1c, _ = tilted(c, mu)
            i0c2, i1c2, i2c2 = tilted(2.0 * c, mu)
            phi_exact = i0c
            u_exact = growth * (y - x * growth) / (sy2 + v)
            var_a = i0c2 - i0c * i0c
            eb = -k * i1c
            var_b = k * k * i2c2 - eb * eb
            cov = -k * i1c2 - i0c * eb
            se_phi = np.sqrt(var_a / n)
            r = eb / i0c
            se_u = np.sqrt(
                max(var_b - 2 * r * cov + r * r * var_a, 0.0) / n
            ) / i0c

            rng = stream_generator(stream_sequence(4000, idx))
            phi, grad = estimate_phi_grad(
                model, obs, 0.0, np.array([x]), tau, np.array([y]),
                n, rng, dt,
            )
            u = feedback_control(phi, grad, model.diffusion)[0]
            ok_phi = abs(phi - phi_exact) <= 3.0 * se_phi
            ok_u = abs(u - u_exact) <= 3.0 * se_u
            ok = ok and ok_phi and ok_u
            details.append(
                f"x={x:+.0f}: dphi={abs(phi - phi_exact) / se_phi:.2f}se "
                f"du={abs(u - u_exact) / se_u:.2f}se"
            )
        elapsed = time.perf_counter() - tic
        ok = ok and elapsed < 30.0
        report(
            4, ok,
            f"{'; '.join(details)}; {elapsed:.2f}s < 30s",
        )

    def test_criterion_05_variational_optimizer(self):
        flat = SdeModel(
            dimension=3,
            drift=lambda x: np.zeros_like(x),
            drift_jacobian=lambda x: np.zeros(x.shape[:-1] + (3, 3)),
            dispersion=np.eye(3),
            diffusion=np.eye(3),
        )
        mu = np.array([1.0, -2.0, 0.5])
        y = np.array([3.0, 0.0, -1.5])
        eye_obs = ObservationModel(operator=np.eye(3), noise_cov=np.eye(3))

        def problem(model, mean, cov, obs, target):
            return VariationalProblem(
                model=model, obs_model=obs, prior_mean=mean,
                prior_cov=cov, observation=target,
                t_start=0.0, t_end=0.5, dt=0.01,
            )

        res = minimize_cost(
            problem(flat, mu, np.eye(3), eye_obs, y),
            gradient_tol=1e-8, cost_decrease_tol=1e-15, max_iterations=500,
        )
        quad_err = float(np.max(np.abs(res.x_opt - 0.5 * (mu + y))))
        ok = quad_err <= 1e-6

        worst_linear = 0.0
        for instance in range(20):
            rng = np.random.default_rng(500 + instance)
            A = 0.6 * rng.standard_normal((3, 3))

            def spd():
                q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                return q @ np.diag(rng.uniform(0.5, 2.0, size=3)) @ q.T

            sigma, sigma_y = spd(), spd()
            H = rng.standard_normal((3, 3))
            mean = rng.normal(size=3)
            target = rng.normal(size=3)

            step = np.eye(3)
            term = np.eye(3)
            for kk in range(1, 5):
                term = term @ (A * 0.01) / kk
                step = step + term
            F = H @ np.linalg.matrix_power(step, 50)
            prec = np.linalg.inv(sigma) + F.T @ np.linalg.solve(sigma_y, F)
            rhs = np.linalg.solve(sigma, mean) + F.T @ np.linalg.solve(
                sigma_y, target
            )
            closed_form = np.linalg.solve(prec, rhs)

            model = SdeModel(
                dimension=3,
                drift=lambda x, A=A: x @ A.T,
                drift_jacobian=lambda x, A=A: np.broadcast_to(
                    A, x.shape[:-1] + (3, 3)
                ),
                dispersion=np.eye(3),
                diffusion=np.eye(3),
            )
            res = minimize_cost(
                problem(
                    model, mean, sigma,
                    ObservationModel(operator=H, noise_cov=sigma_y), target,
                ),
                gradient_tol=1e-8, cost_decrease_tol=1e-15,
                max_iterations=500,
            )
            worst_linear = max(
                worst_linear, float(np.max(np.abs(res.x_opt - closed_form)))
            )
        ok = ok and worst_linear <= 1e-6

        # independent finite differences on the chaotic-flow cost
        l63 = lorenz63()
        center = np.asarray(BENCHMARK_ICS[0])
        p = problem(
            l63, center, 2.0 * np.eye(3),
            ObservationModel(operator=np.eye(3), noise_cov=2.0 * np.eye(3)),
            center + 0.5,
        )
        x = center + np.array([0.3, -0.2, 0.4])
        got = variational_gradient(x, p)
        h = 1e-5
        check = np.empty(3)
        for kk in range(3):
            e = np.zeros(3)
            e[kk] = h
            check[kk] = (
                variational_cost(x + e, p) - variational_cost(x - e, p)
            ) / (2.0 * h)
        grad_rel = float(
            np.max(np.abs(got - check)) / max(np.max(np.abs(check)), 1.0)
        )
        ok = ok and grad_rel <= 1e-4
        report(
            5, ok,
            f"quadratic err {quad_err:.2e} <= 1e-6, worst linear err "
            f"{worst_linear:.2e} <= 1e-6, gradient rel err {grad_rel:.2e} "
            "<= 1e-4",
        )

    def test_criterion_06_systematic_resampling(self):
        n = 10
        grid = (np.arange(1000) + 0.5) / 1000.0
        rng = np.random.default_rng(600)
        ok = True
        worst_bias = 0.0
        for _ in range(50):
            w = rng.dirichlet(np.full(n, 0.8))
            lo = np.floor(n * w)
            hi = np.ceil(n * w)
            counts = np.empty((grid.size, n))
            for g, u in enumerate(grid):
                counts[g] = systematic_offspring_counts(w, u)
            ok = ok and np.all(counts >= lo) and np.all(counts <= hi)
            bias = float(np.max(np.abs(counts.mean(axis=0) - n * w)))
            worst_bias = max(worst_bias, bias)
        ok = ok and worst_bias <= 1.0 / n
        report(
            6, ok,
            "counts within floor/ceil brackets over 1000-point grid x 50 "
            f"vectors, worst bias {worst_bias:.4f} <= {1.0 / n}",
        )

    def test_criterion_07_realization_workload(self):
        base = ExperimentConfig(particles=10, t_final=1.0, seed=7)
        npf = run_experiment(
            dataclasses.replace(base, filter_name="npf")
        )
        var = run_experiment(
            dataclasses.replace(base, filter_name="var_npf")
        )
        per_cycle_ok = bool(
            np.all(var.realization_steps <= npf.realization_steps)
        )
        ratio = float(
            var.realization_steps.sum() / npf.realization_steps.sum()
        )
        ok = per_cycle_ok and ratio < 0.5
        report(
            7, ok,
            f"guided workload <= plain per cycle: {per_cycle_ok}, "
            f"total ratio {ratio:.3f} < 0.5 for M=5",
        )


# ------------------------------------------------------- statistical suite

@pytest.mark.slow
class TestBenchmark:
    def test_criterion_08_rmse_margin(self, star_mc):
        pf = median(star_mc, "pf", "rmse")
        npf = median(star_mc, "npf", "rmse")
        var = median(star_mc, "var_npf", "rmse")
        ok = var < 0.8 * pf and var < 0.8 * npf
        report(
            8, ok,
            f"median rmse var_npf {var:.3f} vs pf {pf:.3f}, npf {npf:.3f} "
            "(needs <80% of each)",
        )

    def test_criterion_09_ness_ordering(self, star_mc):
        npf = median(star_mc, "npf", "avg_ness")
        var = median(star_mc, "var_npf", "avg_ness")
        ok = var > npf
        report(
            9, ok,
            f"median normalized ess var_npf {var:.3f} > npf {npf:.3f}",
        )

    def test_criterion_10_displacement_ratio_sides(self, star_mc):
        npf = median(star_mc, "npf", "bm_ratio")
        var = median(star_mc, "var_npf", "bm_ratio")
        ok = var < 1.0 < npf
        report(
            10, ok,
            f"median nudging/noise ratio var_npf {var:.3f} < 1 < "
            f"npf {npf:.3f}",
        )

    def test_criterion_11_runtime_ordering(self, star_mc):
        npf_rows = star_mc.completed("npf")
        var_rows = star_mc.completed("var_npf")
        npf = float(np.mean([r.runtime_total for r in npf_rows]))
        var = float(np.mean([r.runtime_total for r in var_rows]))
        ok = var < npf
        report(
            11, ok,
            f"mean wall clock var_npf {var:.2f}s < npf {npf:.2f}s",
        )

    def test_criterion_12_robustness_sweep(self, robustness_mc):
        wins = 0
        margins = []
        for ic in range(len(BENCHMARK_ICS)):
            pf = median(robustness_mc, "pf", "rmse", ic)
            var = median(robustness_mc, "var_npf", "rmse", ic)
            margins.append(f"ic{ic}: {var:.2f} vs {pf:.2f}")
            if var < pf:
                wins += 1
        ok = wins >= 9
        report(
            12, ok,
            f"guided beats plain on {wins}/11 conditions (needs >= 9); "
            + "; ".join(margins),
        )

    def test_criterion_13_batch_cap_untouched(self, star_mc):
        cap = NudgingConfig().max_batches
        worst = max(
            (r.max_batches for r in star_mc.runs if not r.failed),
            default=0,
        )
        ok = worst < cap
        if not ok:
            warnings.warn(
                f"an adaptive control solve used all {cap} batches "
                "(empirical claim violated; not a failure)"
            )
        report(
            13, True,
            f"max batches used {worst} "
            + (f"< cap {cap}" if ok else f"reached cap {cap} (warned)"),
        )
