"""Variationally guided cycle: reductions, flags, recorded guidance."""

import dataclasses

import numpy as np
import pytest

from varnpf import var_npf
from varnpf.diagnostics import CycleFailure
from varnpf.ensemble import ObservationModel, ParticleEnsemble, empirical_moments
from varnpf.nudging import NudgingConfig, npf_assimilation_cycle
from varnpf.sde import SdeModel, lorenz63, sample_brownian_path
from varnpf.seeding import CONTROL, stream_key
from varnpf.var_npf import VarNpfSettings, var_npf_assimilation_cycle
from varnpf.variational import (
    VariationalProblem,
    build_pseudo_path,
    minimize_cost,
)

from oracle import CYCLES, cycle_context

DT = 0.01


def setup_cycle(seed=11, n=8):
    model = lorenz63()
    obs_model = ObservationModel(
        operator=np.eye(3), noise_cov=2.0 * np.eye(3)
    )
    rng = np.random.default_rng(seed)
    center = np.array([1.508870, -1.531271, 25.46091])
    states = center + rng.normal(scale=np.sqrt(2.0), size=(n, 3))
    ensemble = ParticleEnsemble(states, np.full(n, 1.0 / n))
    incs = np.stack(
        [sample_brownian_path(rng, 50, 3, DT) for _ in range(n)]
    )
    observation = center + np.array([2.0, -1.0, 1.5])
    return model, obs_model, ensemble, incs, observation


def control_root(seed, filter_code):
    """The control root of run (ic 0, run 0) of a filter: cycle 0 draws
    particle i's control streams from stream_sequence(seed, CONTROL,
    filter_code, 0, 0, 0, i)."""
    return stream_key(seed, CONTROL, filter_code, 0, 0)


class TestGuidedCycle:
    def test_short_horizons_cut_realization_steps(self):
        model, obs_model, ens, incs, y = setup_cycle()

        _, diag_npf = npf_assimilation_cycle(ens, cycle_context(
            model, obs_model, y, incs, np.random.default_rng(93),
            control=control_root(92, 1),
        ), 0)
        _, diag_var = var_npf_assimilation_cycle(ens, cycle_context(
            model, obs_model, y, incs, np.random.default_rng(93),
            control=control_root(92, 2),
        ), 0)
        assert 0 < diag_var.counters["realization_steps"] < (
            diag_npf.counters["realization_steps"]
        )

    def test_pseudo_targets_are_flow_samples_of_the_fit(self):
        model, obs_model, ens, incs, y = setup_cycle()
        config = NudgingConfig()
        settings = VarNpfSettings()

        _, diag = var_npf_assimilation_cycle(ens, cycle_context(
            model, obs_model, y, incs, np.random.default_rng(95),
            nudging=config, variational=settings,
            control=control_root(94, 2),
        ), 0)
        moments = empirical_moments(ens)
        problem = VariationalProblem(
            model=model,
            obs_model=obs_model,
            prior_mean=moments.mean,
            prior_cov=moments.cov,
            observation=y,
            t_start=0.0,
            t_end=0.5,
            dt=0.01,
            eps=settings.regularization_eps,
            bound_sigmas=settings.bound_sigmas,
        )
        result = minimize_cost(problem, max_iterations=settings.max_iterations)
        pseudo = build_pseudo_path(
            model, obs_model, result.x_opt, 0.0, 0.5,
            config.subintervals, 0.01,
        )
        assert np.array_equal(diag.pseudo_targets, pseudo.observations[1:])
        assert diag.pseudo_targets.shape == (config.subintervals, 3)
        assert diag.variational_cost == result.cost_opt
        assert diag.variational_status == result.status
        assert diag.timings["variational"] > 0.0

    def test_posterior_tracks_weighted_answer(self):
        model, obs_model, ens, incs, y = setup_cycle()
        post, diag = var_npf_assimilation_cycle(ens, cycle_context(
            model, obs_model, y, incs, np.random.default_rng(97),
            control=control_root(96, 2),
        ), 0)
        assert np.isclose(post.weights.sum(), 1.0)
        assert np.all(np.isfinite(post.states))
        assert diag.posterior_ness >= 1.0


class TestAblationFlags:
    def test_pseudo_reweight_changes_weights_not_paths(self):
        model, obs_model, ens, incs, y = setup_cycle()
        config = NudgingConfig()
        outputs = []
        for flag in (False, True):
            _, diag = var_npf_assimilation_cycle(ens, cycle_context(
                model, obs_model, y, incs, np.random.default_rng(99),
                nudging=config,
                variational=VarNpfSettings(reweight_with_pseudo=flag),
                control=control_root(98, 2), resample_threshold=0.0,
            ), 0)
            outputs.append(diag)
        base, ablated = outputs
        # same controls, same noise: identical trajectories ...
        assert np.array_equal(base.step_states, ablated.step_states)
        assert np.array_equal(base.log_rn, ablated.log_rn)
        # ... but the terminal reweight target moved
        assert not np.array_equal(
            base.posterior.weights, ablated.posterior.weights
        )

    def test_per_subinterval_resolve_refreshes_targets(self, monkeypatch):
        results = []

        def recording_minimize(*args, **kwargs):
            results.append(minimize_cost(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(var_npf, "minimize_cost", recording_minimize)
        model, obs_model, ens, incs, y = setup_cycle()
        config = NudgingConfig()
        _, once = var_npf_assimilation_cycle(ens, cycle_context(
            model, obs_model, y, incs, np.random.default_rng(101),
            nudging=config, control=control_root(100, 2),
        ), 0)
        _, refreshed = var_npf_assimilation_cycle(ens, cycle_context(
            model, obs_model, y, incs, np.random.default_rng(101),
            nudging=config,
            variational=VarNpfSettings(resolve_per_subinterval=True),
            control=control_root(100, 2),
        ), 0)
        # the first refit starts from the same moments over the same
        # interval as the single fit, so both agree bit for bit
        assert len(results) == 1 + config.subintervals
        single, first = results[0], results[1]
        for f in dataclasses.fields(single):
            assert (np.asarray(getattr(first, f.name)).tobytes()
                    == np.asarray(getattr(single, f.name)).tobytes()), f.name
        assert (refreshed.pseudo_targets[0].tobytes()
                == once.pseudo_targets[0].tobytes())
        assert refreshed.pseudo_targets.shape == once.pseudo_targets.shape
        assert not np.array_equal(
            refreshed.pseudo_targets, once.pseudo_targets
        )
        # one solve per subinterval costs more optimizer work
        assert (refreshed.counters["variational_iterations"]
                > once.counters["variational_iterations"])
        assert np.isclose(refreshed.posterior.weights.sum(), 1.0)

    @pytest.mark.parametrize("resolve", [False, True])
    def test_pseudo_path_sampled_from_the_solve_flow(
        self, monkeypatch, resolve
    ):
        # each pseudo path comes from its solve's own flow, bitwise equal
        # to flowing x_opt afresh
        results, paths_built = [], []

        def recording_minimize(*args, **kwargs):
            results.append(minimize_cost(*args, **kwargs))
            return results[-1]

        def checked_build(model, obs_model, x0, t0, t1, segments, dt, flow):
            assert flow is results[-1].flow
            assert np.array_equal(x0, results[-1].x_opt)
            path = build_pseudo_path(
                model, obs_model, x0, t0, t1, segments, dt, flow=flow
            )
            fresh = build_pseudo_path(
                model, obs_model, x0, t0, t1, segments, dt
            )
            assert path.states.tobytes() == fresh.states.tobytes()
            assert path.observations.tobytes() == fresh.observations.tobytes()
            assert np.array_equal(path.times, fresh.times)
            paths_built.append(path)
            return path

        monkeypatch.setattr(var_npf, "minimize_cost", recording_minimize)
        monkeypatch.setattr(var_npf, "build_pseudo_path", checked_build)
        model, obs_model, ens, incs, y = setup_cycle()
        config = NudgingConfig()
        _, diag = var_npf_assimilation_cycle(ens, cycle_context(
            model, obs_model, y, incs, np.random.default_rng(105),
            nudging=config,
            variational=VarNpfSettings(resolve_per_subinterval=resolve),
            control=control_root(104, 2),
        ), 0)
        assert len(paths_built) == len(results) == (
            config.subintervals if resolve else 1
        )
        if resolve:
            # a solve from t_j flows to t_end and its path runs to t_end;
            # subinterval j's target is the path's first sample after t_j
            assert all(len(r.flow) == 51 - 10 * j
                       for j, r in enumerate(results))
            targets = [p.observations[1] for p in paths_built]
        else:
            targets = paths_built[0].observations[1:]
        assert np.array_equal(diag.pseudo_targets, targets)

    def test_cycle_sums_optimizer_work_over_its_solves(self, monkeypatch):
        results = []

        def recording_minimize(*args, **kwargs):
            results.append(minimize_cost(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(var_npf, "minimize_cost", recording_minimize)
        model, obs_model, ens, incs, y = setup_cycle()
        config = NudgingConfig()
        _, diag = var_npf_assimilation_cycle(ens, cycle_context(
            model, obs_model, y, incs, np.random.default_rng(103),
            nudging=config,
            variational=VarNpfSettings(resolve_per_subinterval=True),
            control=control_root(102, 2),
        ), 0)
        assert len(results) == config.subintervals
        iterations = diag.counters["variational_iterations"]
        cost_evals = diag.counters["variational_cost_evals"]
        assert iterations == sum(r.iterations for r in results)
        assert cost_evals == sum(r.cost_evals for r in results)
        # a fit prices its start, then at least one trial per iteration
        # but its last, each on a flow of its own
        assert diag.counters["variational_flows"] == sum(
            r.flows for r in results
        ) == cost_evals >= iterations
        assert diag.counters["jacobian_evals"] >= sum(
            r.jacobian_evals for r in results
        ) > 0


def counting_l63(rows, jacobian_rows=None):
    """Lorenz-63 without the column form, appending the row count of each
    drift evaluation to ``rows`` (and of each Jacobian evaluation to
    ``jacobian_rows``, when given)."""
    model = lorenz63()

    def drift(x):
        rows.append(int(np.prod(np.shape(x)[:-1])))
        return model.drift(x)

    def drift_jacobian(x):
        if jacobian_rows is not None:
            jacobian_rows.append(int(np.prod(np.shape(x)[:-1])))
        return model.drift_jacobian(x)

    return SdeModel(
        dimension=3,
        drift=drift,
        drift_jacobian=drift_jacobian,
        dispersion=model.dispersion,
        diffusion=model.diffusion,
    )


class TestDriftEvals:
    """A cycle's drift_evals is the rows times drift evaluations its
    integrators and control solves make."""

    @staticmethod
    def _cycle(filter_name, model, ens, settings=VarNpfSettings()):
        _, obs_model, _, incs, y = setup_cycle()
        ctx = cycle_context(
            model, obs_model, y, incs, np.random.default_rng(95),
            variational=settings or VarNpfSettings(),
            control=control_root(94, 2),
        )
        return CYCLES[filter_name](ens, ctx, 0)

    @pytest.mark.parametrize("filter_name, settings", [
        ("pf", None),
        ("npf", None),
        ("var_npf", VarNpfSettings()),
        ("var_npf", VarNpfSettings(resolve_per_subinterval=True)),
    ], ids=["pf", "npf", "var_npf", "var_npf_refit"])
    def test_counts_every_drift_row(self, filter_name, settings):
        ens = setup_cycle()[2]
        rows = []
        post, diag = self._cycle(
            filter_name, counting_l63(rows), ens, settings
        )
        assert diag.counters["drift_evals"] == sum(rows) > 0
        if filter_name == "pf":
            assert diag.counters["drift_evals"] == 4 * 8 * 50
        # the count does not change the run: the column form gives the
        # same bits
        want, want_diag = self._cycle(filter_name, lorenz63(), ens, settings)
        assert post.states.tobytes() == want.states.tobytes()
        assert (want_diag.counters["drift_evals"]
                == diag.counters["drift_evals"])

    def test_variational_solve_counts_its_flows(self):
        model, obs_model, ens, _, y = setup_cycle()
        moments = empirical_moments(ens)
        rows, jacobian_rows = [], []
        problem = VariationalProblem(
            model=counting_l63(rows, jacobian_rows), obs_model=obs_model,
            prior_mean=moments.mean, prior_cov=moments.cov, observation=y,
            t_start=0.0, t_end=0.5, dt=DT,
        )
        result = minimize_cost(problem)
        assert result.drift_evals == sum(rows) > 0
        assert result.jacobian_evals == sum(jacobian_rows) > 0
        # four stages per step of each one-row flow, and three drift and
        # four Jacobian evaluations per step of each tangent pass
        tangents, rest = divmod(result.jacobian_evals, 4 * 50)
        assert rest == 0 and 1 <= tangents <= result.iterations + 1
        assert result.drift_evals == 4 * 50 * result.flows + 3 * 50 * tangents

    @pytest.mark.parametrize("filter_name", ["pf", "npf", "var_npf"])
    def test_failing_cycle_keeps_its_count(self, filter_name):
        model, _, ens, _, _ = setup_cycle()
        doomed = ParticleEnsemble(
            np.full_like(ens.states, 1e8), ens.weights
        )
        rows = []
        with pytest.raises(CycleFailure) as err:
            self._cycle(filter_name, counting_l63(rows), doomed)
        assert err.value.counters["drift_evals"] == sum(rows) > 0
