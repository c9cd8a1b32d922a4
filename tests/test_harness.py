"""Experiment configs, truth pairing, full runs, and sweep aggregation."""

import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest

from varnpf import harness
from varnpf.harness import (
    BENCHMARK_ICS,
    COUNTER,
    COUNTERS,
    RECORD_SERIES,
    ConfigError,
    ExperimentConfig,
    ModelConfig,
    RunMetrics,
    average_bm_ratio,
    average_posterior_ness,
    compute_rmse,
    generate_truth_and_observations,
    run_experiment,
    run_metrics,
    run_monte_carlo,
    summary_from_rows,
)
from varnpf.nudging import NudgingConfig
from varnpf.sde import sample_brownian_path
from varnpf.seeding import TRUTH, stream_generator, stream_sequence
from varnpf.var_npf import VarNpfSettings

from oracle import one_row_path

ZERO3 = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
CYCLES = (
    "pf_assimilation_cycle", "npf_assimilation_cycle",
    "var_npf_assimilation_cycle",
)


def run_keeping_cycles(monkeypatch, cfg):
    """run_experiment(cfg), and the CycleDiagnostics of every cycle that
    returned, caught by wrapping the harness's cycle names."""
    cycles = []
    for name in CYCLES:
        def kept(*args, _cycle=getattr(harness, name)):
            ensemble, diag = _cycle(*args)
            cycles.append(diag)
            return ensemble, diag

        monkeypatch.setattr(harness, name, kept)
    return run_experiment(cfg), cycles


def quick_config(**kwargs):
    kwargs.setdefault("particles", 4)
    kwargs.setdefault("t_final", 0.5)
    return ExperimentConfig(**kwargs)


class TestConfig:
    def test_round_trip_through_dict(self):
        cfg = ExperimentConfig(
            filter_name="var_npf",
            particles=7,
            seed=123,
            nudging=NudgingConfig(tolerance=0.2, subintervals=10),
            variational=VarNpfSettings(max_iterations=50),
        )
        clone = ExperimentConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_rejects_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="nudging"):
            ExperimentConfig.from_dict({"nudging": {"wat": 1}})

    def test_rejects_unknown_filter(self):
        with pytest.raises(ConfigError, match="filter"):
            ExperimentConfig(filter_name="ekf")

    def test_normalizes_hyphenated_filter_name(self):
        assert ExperimentConfig(filter_name="var-npf").filter_name == "var_npf"

    def test_rejects_misaligned_grids(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dt=0.01, dt_obs=0.505)
        with pytest.raises(ConfigError):
            ExperimentConfig(dt_obs=0.5, t_final=1.7)
        with pytest.raises(ConfigError):
            ExperimentConfig(
                filter_name="npf", nudging=NudgingConfig(subintervals=7)
            )
        with pytest.raises(ConfigError):
            ExperimentConfig(particles=0)

    @pytest.mark.parametrize("threshold", [np.inf, -np.inf])
    def test_infinite_thresholds_stay_legal(self, threshold):
        cfg = ExperimentConfig.from_dict({
            "resample_threshold": threshold,
            "nudging": {"rollback_log_threshold": threshold},
        })
        assert cfg.resample_threshold == threshold
        assert cfg.nudging.rollback_log_threshold == threshold

    def test_grid_properties(self):
        cfg = ExperimentConfig()
        assert cfg.steps_per_interval == 50
        assert cfg.n_intervals == 7
        assert cfg.n_steps == 350


class TestTruth:
    def test_observation_grid(self):
        truth = generate_truth_and_observations(ExperimentConfig())
        assert truth.trajectory.shape == (351, 3)
        assert truth.observations.shape == (7, 3)
        assert np.allclose(truth.obs_times, 0.5 * np.arange(1, 8))
        assert len(truth.digest) == 16

    def test_reproducible_and_run_indexed(self):
        cfg = ExperimentConfig()
        a = generate_truth_and_observations(cfg)
        b = generate_truth_and_observations(cfg)
        assert a.digest == b.digest
        assert np.array_equal(a.trajectory, b.trajectory)
        assert np.array_equal(a.observations, b.observations)
        other = generate_truth_and_observations(
            dataclasses.replace(cfg, run_index=1)
        )
        assert other.digest != a.digest

    def test_noise_free_observations_equal_the_flow(self):
        cfg = ExperimentConfig(
            model=ModelConfig(diffusion=ZERO3), obs_noise_cov=ZERO3
        )
        truth = generate_truth_and_observations(cfg)
        assert np.array_equal(truth.observations, truth.trajectory[50::50])

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(seed=0),
        ExperimentConfig(seed=1),
        ExperimentConfig(seed=2),
        ExperimentConfig(seed=7, ic_index=5, run_index=3,
                         truth_init=BENCHMARK_ICS[5]),
    ])
    def test_trajectory_equals_one_row_oracle(self, cfg):
        rng = stream_generator(
            stream_sequence(cfg.seed, TRUTH, cfg.ic_index, cfg.run_index)
        )
        increments = sample_brownian_path(rng, cfg.n_steps, 3, cfg.dt)
        want = one_row_path(
            cfg.build_model(), cfg.truth_init, np.zeros(3), increments, cfg.dt
        )
        got = generate_truth_and_observations(cfg).trajectory
        assert got.tobytes() == want.tobytes()

    def test_filter_choice_never_touches_the_truth(self):
        digests = set()
        for name in ("pf", "npf", "var_npf"):
            cfg = ExperimentConfig(filter_name=name, seed=5)
            digests.add(generate_truth_and_observations(cfg).digest)
        assert len(digests) == 1


class TestRunExperiment:
    def test_bitwise_reproducible(self):
        cfg = quick_config(seed=9)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert np.array_equal(a.ensemble_mean, b.ensemble_mean)
        assert np.array_equal(a.step_states, b.step_states)
        assert np.array_equal(a.step_weights, b.step_weights)
        assert a.truth_digest == b.truth_digest

    @pytest.mark.parametrize("filter_name", ["pf", "npf", "var_npf"])
    def test_cycle_looked_up_at_call_time(self, monkeypatch, filter_name):
        # a wrapper set on the module's globals after import sees every
        # cycle, as layer tracers rely on
        calls = Counter()
        for name in CYCLES:
            def counted(*args, _name=name, _cycle=getattr(harness, name)):
                calls[_name] += 1
                return _cycle(*args)

            monkeypatch.setattr(harness, name, counted)
        cfg = quick_config(filter_name=filter_name, t_final=1.0)
        assert not run_experiment(cfg).failed
        assert calls == {f"{filter_name}_assimilation_cycle": cfg.n_intervals}

    def test_observation_rows_hold_the_posterior(self, monkeypatch):
        cfg = quick_config(seed=10, t_final=1.0)
        record, cycles = run_keeping_cycles(monkeypatch, cfg)
        assert len(cycles) == 2
        for k, diag in enumerate(cycles):
            row = (k + 1) * 50
            assert np.array_equal(
                record.step_states[row], diag.posterior.states
            )
            assert np.array_equal(
                record.step_weights[row], diag.posterior.weights
            )

    def test_ensemble_mean_is_weighted(self):
        record = run_experiment(quick_config(seed=11))
        t = 25
        want = record.step_weights[t] @ record.step_states[t]
        assert np.allclose(record.ensemble_mean[t], want, atol=1e-12)

    def test_plain_filter_leaves_nudging_series_empty(self):
        record = run_experiment(quick_config(seed=12))
        assert record.step_ratio is None
        assert record.log_rn is None
        assert record.pseudo_targets is None
        assert record.runtime["control"] == 0.0
        # four RK4 stages for every particle at every step
        cfg = record.config
        assert record.drift_evals.tolist() == (
            [4 * cfg.particles * cfg.steps_per_interval] * cfg.n_intervals
        )
        assert run_metrics(record).drift_evals == (
            4 * cfg.particles * cfg.n_steps
        )

    def test_nudged_series_shapes(self):
        cfg = quick_config(filter_name="npf", seed=13)
        record = run_experiment(cfg)
        assert record.step_ratio.shape == (50, 4)
        assert record.control_proposed_norms.shape == (1, 5, 4)
        assert record.rollbacks.shape == (1, 5, 4)
        assert record.log_rn.shape == (1, 4)
        assert record.realization_steps.shape == (1,)
        assert record.variational_cost is None

    def test_guided_series_shapes(self):
        cfg = quick_config(filter_name="var_npf", seed=14)
        record = run_experiment(cfg)
        assert record.pseudo_targets.shape == (1, 5, 3)
        assert np.all(np.isfinite(record.pseudo_targets))
        assert record.variational_status[0] is not None
        assert record.runtime["variational"] > 0.0

    def test_normalized_ess_bounds(self):
        record = run_experiment(quick_config(seed=15, t_final=2.0))
        n = record.config.particles
        assert np.all(record.posterior_ness >= 1.0 - 1e-12)
        assert np.all(record.posterior_ness <= n + 1e-12)
        assert 1.0 / n <= average_posterior_ness(record) <= 1.0

    def test_rmse_of_constant_offset(self):
        record = run_experiment(quick_config(seed=16))
        offset = np.zeros_like(record.truth)
        offset[:, 0] = 0.9
        shifted = dataclasses.replace(record, series={
            **record.series, "ensemble_mean": record.truth + offset,
        })
        assert np.isclose(
            compute_rmse(shifted), 0.9 / np.sqrt(3.0), atol=1e-12
        )

    def test_bm_ratio_nan_without_control(self):
        record = run_experiment(quick_config(seed=17))
        assert np.isnan(average_bm_ratio(record))


class TestFailureHandling:
    def test_exploding_ensemble_marks_run_failed(self):
        cfg = quick_config(seed=18, ensemble_mean=(1e8, 1e8, 1e8))
        record = run_experiment(cfg)
        assert record.failed
        assert "cycle 0" in record.failure_message
        assert np.all(np.isnan(record.ensemble_mean[-1]))
        row = run_metrics(record)
        assert row.failed

    @pytest.mark.parametrize("name", ["npf", "var_npf"])
    def test_blow_up_warns_nothing_and_keeps_the_record(self, name):
        # blown-up realizations and pseudo paths go non-finite silently;
        # treating warnings as errors must not change the run
        cfg = quick_config(
            filter_name=name, seed=69, ensemble_mean=(1e8, 1e8, 1e8)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            quiet = run_experiment(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            strict = run_experiment(cfg)
        assert strict.failed
        assert strict.failure_message == quiet.failure_message
        for series in RECORD_SERIES:
            want = getattr(quiet, series.attr)
            got = getattr(strict, series.attr)
            assert (got is None) == (want is None), series.name
            if want is not None:
                assert got.tobytes() == want.tobytes(), series.name

    @pytest.mark.parametrize("name", ["npf", "var_npf"])
    def test_failing_cycle_keeps_its_control_work(self, name):
        # every particle at 1e8 floors its first solve and then fails in
        # advection; the record and the counters still count those solves
        cfg = ExperimentConfig(
            filter_name=name, seed=8, ensemble_mean=(1e8, 1e8, 1e8)
        )
        record = run_experiment(cfg)
        assert record.failed
        assert record.failure_message.startswith("cycle 0: ")
        n = cfg.particles
        batches = min(2, cfg.nudging.max_batches)
        horizon = cfg.steps_per_interval // (
            cfg.nudging.subintervals if name == "var_npf" else 1
        )
        assert np.all(record.batches_used[0, 0] == batches)
        assert np.all(record.phi_floored[0, 0])
        assert np.all(record.rollbacks[0, 0])
        assert not np.any(record.batches_used[0, 1:])
        assert record.realization_steps[0] == (
            n * batches * cfg.nudging.batch_size * horizon
        )
        row = run_metrics(record)
        assert row.control_solves == n
        assert row.floored_solves == n
        assert row.threshold_rollbacks == 0
        assert row.max_batches == batches
        assert row.realization_steps == record.realization_steps[0]
        # every solve floors in round 0, so no later round runs
        assert record.control_passes[0] == 1
        assert row.control_passes == 1
        # the advection, the realizations and one denominator per solve;
        # var_npf also flows its fit
        counted = (
            4 * n * cfg.steps_per_interval
            + 4 * int(record.realization_steps[0]) + n
        )
        # the Jacobians at the realizations' path states and chord
        # midpoints; var_npf adds its fit's tangent pass
        jacobians = (2 * horizon + 1) * (
            int(record.realization_steps[0]) // horizon
        )
        # and its seconds: the solves', and var_npf's fit
        assert record.runtime["control"] > 0.0
        if name == "npf":
            assert record.drift_evals[0] == counted
            assert record.runtime["variational"] == 0.0
        else:
            # the fit flows its start and takes one tangent pass there
            assert record.drift_evals[0] == (
                counted + (4 + 3) * cfg.steps_per_interval
            )
            jacobians += 4 * cfg.steps_per_interval
            assert record.runtime["variational"] > 0.0
            # and the fit's iterations and cost evaluations: its flow
            # leaves float64, so it stalls at its start
            assert record.variational_iterations[0] == 1
            assert record.variational_cost_evals[0] == 1
            assert row.variational_iterations == (
                record.variational_iterations[0]
            )
            assert row.variational_cost_evals == (
                record.variational_cost_evals[0]
            )
            assert row.variational_flows == record.variational_flows[0] >= 1
        assert row.drift_evals == record.drift_evals[0]
        assert row.jacobian_evals == record.jacobian_evals[0] == jacobians

    def test_sweep_keeps_failed_rows_out_of_averages(self):
        cfg = quick_config(seed=19, ensemble_mean=(1e8, 1e8, 1e8))
        summary = run_monte_carlo(
            cfg, runs_per_ic=2, filters=("pf",)
        )
        assert len(summary.runs) == 2
        assert all(row.failed for row in summary.runs)
        assert summary.completed() == []
        agg = summary.aggregate()
        assert agg[0]["failures"] == 2
        assert agg[0]["runs"] == 0
        assert np.isnan(agg[0]["avg_rmse"])


class TestCounterDeclarations:
    """A counter is declared once, as a COUNTER series of RECORD_SERIES
    and the RunMetrics field of its name."""

    def test_every_counter_series_has_a_field_and_an_average(self):
        marked = [s for s in RECORD_SERIES if s.from_cycle == COUNTER]
        assert [s.attr for s in marked] == list(COUNTERS)
        fields = {f.name for f in dataclasses.fields(RunMetrics)}
        # a tolerance some solves meet only past round 0, so look-ahead
        # rounds run and spare realizations count too
        row = run_metrics(run_experiment(quick_config(
            filter_name="var_npf", seed=19,
            nudging=NudgingConfig(tolerance=0.03),
        )))
        [averages] = summary_from_rows([row]).aggregate()
        for s in marked:
            assert s.name == s.attr and s.dtype is int, s.name
            assert s.attr in fields, s.name
            assert type(getattr(row, s.attr)) is int, s.name
            assert averages[f"avg_{s.attr}"] == getattr(row, s.attr) > 0

    @pytest.mark.parametrize("name", ["pf", "npf", "var_npf"])
    def test_every_cycle_counter_is_declared(self, monkeypatch, name):
        _, cycles = run_keeping_cycles(
            monkeypatch, quick_config(filter_name=name, seed=19, t_final=1.0)
        )
        assert len(cycles) == 2
        for diag in cycles:
            assert diag.counters
            assert set(diag.counters) <= set(COUNTERS)


class TestMonteCarlo:
    def test_paired_sweep_layout_and_determinism(self):
        cfg = quick_config(seed=20, particles=3)
        ics = BENCHMARK_ICS[:2]
        summary = run_monte_carlo(
            cfg, initial_conditions=ics, runs_per_ic=2,
            filters=("pf", "npf"),
        )
        assert len(summary.runs) == 8
        assert not any(row.failed for row in summary.runs)

        # one truth per (ic, run), shared across the filters
        digests = {}
        for row in summary.runs:
            key = (row.ic_index, row.run_index)
            digests.setdefault(key, set()).add(row.truth_digest)
        assert all(len(v) == 1 for v in digests.values())
        assert len({next(iter(v)) for v in digests.values()}) == 4

        again = run_monte_carlo(
            cfg, initial_conditions=ics, runs_per_ic=2,
            filters=("pf", "npf"),
        )
        assert [r.rmse for r in again.runs] == [
            r.rmse for r in summary.runs
        ]

    def test_aggregate_table_contents(self):
        cfg = quick_config(seed=21, particles=3)
        summary = run_monte_carlo(
            cfg, initial_conditions=BENCHMARK_ICS[:2], runs_per_ic=2,
            filters=("pf", "npf"),
        )
        agg = summary.aggregate()
        assert len(agg) == 4
        for row in agg:
            assert row["runs"] == 2
            assert row["failures"] == 0
            assert np.isfinite(row["avg_rmse"])
            assert np.isfinite(row["median_rmse"])
        npf_rows = [r for r in agg if r["filter"] == "npf"]
        assert all(r["avg_realization_steps"] > 0 for r in npf_rows)
        assert all(r["avg_drift_evals"] > 0 for r in agg)
        assert all(r["max_batches"] >= 2 for r in npf_rows)

    def test_summary_rebuilt_from_rows(self):
        cfg = quick_config(seed=22, particles=3)
        summary = run_monte_carlo(
            cfg, initial_conditions=BENCHMARK_ICS[:1], runs_per_ic=2,
            filters=("pf",),
        )
        rebuilt = summary_from_rows(summary.runs)
        assert rebuilt.filters == ("pf",)
        assert rebuilt.runs_per_ic == 2
        assert len(rebuilt.initial_conditions) == 1
        a = summary.aggregate()
        b = rebuilt.aggregate()
        assert a[0]["avg_rmse"] == b[0]["avg_rmse"]

    def test_rejects_bad_sweep_arguments(self):
        cfg = quick_config()
        with pytest.raises(ConfigError):
            run_monte_carlo(cfg, filters=("pf", "ekf"))
        with pytest.raises(ConfigError):
            run_monte_carlo(cfg, runs_per_ic=0)
        with pytest.raises(ConfigError):
            run_monte_carlo(cfg, jobs=0)


# RunMetrics fields that depend on timing rather than on the computation
TIMING_FIELDS = {
    "runtime_total", "runtime_control", "runtime_variational",
    "variational_share",
}


def _untimed(row):
    # repr makes nan equal to nan and keeps every float bit
    return {
        k: repr(v) for k, v in dataclasses.asdict(row).items()
        if k not in TIMING_FIELDS
    }


class TestTruthReuse:
    SWEEP = dict(
        initial_conditions=BENCHMARK_ICS[:2], runs_per_ic=2,
        filters=("pf", "npf", "var_npf"),
    )

    def test_one_truth_per_ic_run_pair(self, monkeypatch):
        import varnpf.harness as harness

        calls = []
        original = harness.generate_truth_and_observations

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(
            harness, "generate_truth_and_observations", counted
        )
        summary = run_monte_carlo(quick_config(seed=23, particles=3),
                                  **self.SWEEP)
        assert len(summary.runs) == 12
        assert len(calls) == 4

    def test_rows_match_per_filter_generation(self):
        cfg = quick_config(seed=24, particles=3)
        summary = run_monte_carlo(cfg, **self.SWEEP)
        expected = []
        for i, ic in enumerate(self.SWEEP["initial_conditions"]):
            for r in range(self.SWEEP["runs_per_ic"]):
                for name in self.SWEEP["filters"]:
                    own = dataclasses.replace(
                        cfg, filter_name=name, truth_init=ic,
                        ic_index=i, run_index=r,
                    )
                    expected.append(run_metrics(run_experiment(own)))
        assert [_untimed(row) for row in summary.runs] == [
            _untimed(row) for row in expected
        ]

    def test_parallel_rows_equal_serial_rows(self):
        cfg = quick_config(seed=25, particles=3)
        serial = run_monte_carlo(cfg, jobs=1, **self.SWEEP)
        parallel = run_monte_carlo(cfg, jobs=2, **self.SWEEP)
        assert [_untimed(row) for row in parallel.runs] == [
            _untimed(row) for row in serial.runs
        ]


class TestCrashSafeSweep:
    SWEEP = dict(
        initial_conditions=BENCHMARK_ICS[:2], runs_per_ic=2,
        filters=("pf", "npf", "var_npf"),
    )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unexpected_exception_becomes_a_failed_row(
        self, monkeypatch, jobs
    ):
        import varnpf.harness as harness

        cfg = quick_config(seed=26, particles=3)
        clean = run_monte_carlo(cfg, **self.SWEEP)
        original = harness.run_experiment

        def injected(config, **kwargs):
            if (config.filter_name, config.ic_index, config.run_index) == (
                "npf", 1, 0
            ):
                raise KeyError("injected")
            return original(config, **kwargs)

        # the sweep's workers are forked, so they see the patch too
        monkeypatch.setattr(harness, "run_experiment", injected)
        summary = run_monte_carlo(cfg, jobs=jobs, **self.SWEEP)
        failed = [i for i, row in enumerate(summary.runs) if row.failed]
        assert len(failed) == 1
        row = summary.runs[failed[0]]
        assert (row.filter_name, row.ic_index, row.run_index) == ("npf", 1, 0)
        assert row.failure_message == "KeyError: 'injected'"
        assert row.truth_digest == clean.runs[failed[0]].truth_digest
        assert np.isnan(row.rmse) and row.control_solves == 0
        others = [r for i, r in enumerate(summary.runs) if i != failed[0]]
        expected = [r for i, r in enumerate(clean.runs) if i != failed[0]]
        assert [_untimed(r) for r in others] == [
            _untimed(r) for r in expected
        ]
        assert summary.aggregate()[4]["failures"] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_blown_up_truth_fails_its_pair_only(self, jobs):
        cfg = quick_config(particles=3)
        ics = [(1.0, 1.0, 20.0), (1e8, 1e8, 1e8)]
        clean = run_monte_carlo(
            cfg, initial_conditions=ics[:1], filters=self.SWEEP["filters"]
        )
        summary = run_monte_carlo(
            cfg, initial_conditions=ics, filters=self.SWEEP["filters"],
            jobs=jobs,
        )
        assert [_untimed(r) for r in summary.runs[:3]] == [
            _untimed(r) for r in clean.runs
        ]
        for row, name in zip(summary.runs[3:], self.SWEEP["filters"]):
            assert (row.filter_name, row.ic_index) == (name, 1)
            assert row.failed and np.isnan(row.rmse)
            assert row.failure_message.startswith("IntegrationError: ")
            assert row.truth_digest == ""
        assert len(summary.runs) == 6
