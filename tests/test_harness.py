"""Experiment configs, truth pairing, full runs, and sweep aggregation."""

import dataclasses

import numpy as np
import pytest

from varnpf.harness import (
    BENCHMARK_ICS,
    ConfigError,
    ExperimentConfig,
    ModelConfig,
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
from varnpf.var_npf import VarNpfSettings

ZERO3 = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


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

    def test_observation_rows_hold_the_posterior(self):
        cfg = quick_config(seed=10, t_final=1.0)
        record = run_experiment(cfg, keep_cycles=True)
        assert len(record.cycles) == 2
        for k, diag in enumerate(record.cycles):
            row = (k + 1) * 50
            assert np.array_equal(
                record.step_states[row], diag.posterior.states
            )
            assert np.array_equal(
                record.step_weights[row], diag.posterior.weights
            )
        assert record.cycles == [] or run_experiment(cfg).cycles == []

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
        shifted = dataclasses.replace(
            record, ensemble_mean=record.truth + offset
        )
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
