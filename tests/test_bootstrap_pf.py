"""Bootstrap filter cycle: advection, reweighting, conditional resampling."""

import numpy as np
import pytest

from varnpf.diagnostics import CycleFailure
from varnpf.bootstrap_pf import advect_particles, pf_assimilation_cycle
from varnpf.ensemble import ObservationModel, ParticleEnsemble
from varnpf.sde import (
    IntegrationError,
    integrate_path,
    lorenz63,
    sample_brownian_path,
)
from varnpf.seeding import stream_generator, stream_sequence


def make_obs(scale=2.0):
    return ObservationModel(
        operator=np.eye(3), noise_cov=scale * np.eye(3)
    )


def make_paths(rng, n, steps=50, dt=0.01):
    return [sample_brownian_path(rng, steps, 3, dt) for _ in range(n)]


def spread_ensemble(rng, n, center=(1.508870, -1.531271, 25.46091)):
    states = np.asarray(center) + rng.normal(scale=np.sqrt(2.0), size=(n, 3))
    return ParticleEnsemble(states, np.full(n, 1.0 / n))


class TestCycle:
    def test_single_particle_posterior_weight_one(self):
        rng = np.random.default_rng(0)
        ens = spread_ensemble(rng, 1)
        paths = make_paths(rng, 1)
        post, diag = pf_assimilation_cycle(
            ens, lorenz63(), make_obs(), np.array([0.0, 0.0, 25.0]),
            0.0, 0.5, paths, np.random.default_rng(1),
        )
        assert np.array_equal(post.weights, [1.0])
        assert diag.posterior_ness == 1.0
        assert not diag.resampled

    def test_flat_likelihood_keeps_prior_weights(self):
        rng = np.random.default_rng(2)
        states = rng.normal(size=(5, 3))
        w = rng.dirichlet(np.ones(5))
        ens = ParticleEnsemble(states, w)
        paths = make_paths(rng, 5)
        post, diag = pf_assimilation_cycle(
            ens, lorenz63(), make_obs(scale=1e8), np.zeros(3),
            0.0, 0.5, paths, np.random.default_rng(3),
            resample=False,
        )
        assert np.allclose(post.weights, w, atol=1e-6)

    def test_weights_unchanged_during_advection(self):
        rng = np.random.default_rng(4)
        ens = spread_ensemble(rng, 8)
        model, obs = lorenz63(), make_obs()
        resample_rng = np.random.default_rng(5)
        paths1 = make_paths(rng, 8)
        post1, diag1 = pf_assimilation_cycle(
            ens, model, obs, np.array([0.0, 0.0, 25.0]),
            0.0, 0.5, paths1, resample_rng,
        )
        assert np.array_equal(diag1.carried_weights, ens.weights)
        paths2 = make_paths(rng, 8)
        post2, diag2 = pf_assimilation_cycle(
            post1, model, obs, np.array([1.0, 1.0, 24.0]),
            0.5, 1.0, paths2, resample_rng,
        )
        assert np.array_equal(diag2.carried_weights, post1.weights)
        assert np.isclose(
            diag2.prior_ness,
            1.0 / float(np.dot(post1.weights, post1.weights)),
        )

    def test_fixed_paths_make_cycle_deterministic(self):
        rng = np.random.default_rng(6)
        ens = spread_ensemble(rng, 6)
        paths = make_paths(rng, 6)
        y = np.array([2.0, -1.0, 24.0])
        out = []
        for _ in range(2):
            post, diag = pf_assimilation_cycle(
                ens, lorenz63(), make_obs(), y, 0.0, 0.5, paths,
                np.random.default_rng(7),
            )
            out.append((post.states, post.weights, diag.step_states))
        assert np.array_equal(out[0][0], out[1][0])
        assert np.array_equal(out[0][1], out[1][1])
        assert np.array_equal(out[0][2], out[1][2])

    def test_first_update_collapses_ness_into_degenerate_band(self):
        # prior nESS 1.0 drops to roughly 0.15 after the first update;
        # asserted as a band over seeds, not a point value
        model, obs = lorenz63(), make_obs()
        values = []
        for seed in range(20):
            rng = stream_generator(stream_sequence(seed, 0))
            truth = spread_ensemble(rng, 1).states[0]
            path_t = sample_brownian_path(rng, 50, 3, 0.01)
            from varnpf.sde import integrate_path

            y = integrate_path(model, truth, np.zeros(3), path_t)[-1]
            y = y + rng.multivariate_normal(np.zeros(3), obs.noise_cov)
            ens = spread_ensemble(rng, 10, center=truth)
            paths = make_paths(rng, 10)
            post, diag = pf_assimilation_cycle(
                ens, model, obs, y, 0.0, 0.5, paths,
                np.random.default_rng(8), resample=False,
            )
            assert diag.prior_ness == 10.0
            values.append(diag.posterior_ness / 10.0)
        mean_ness = float(np.mean(values))
        assert 0.05 < mean_ness < 0.45


class TestFailures:
    def test_failed_particle_zeroed_and_flagged(self):
        rng = np.random.default_rng(9)
        ens = spread_ensemble(rng, 4)
        states = ens.states.copy()
        states[2] = [1e8, 1e8, 1e8]  # blows up inside one step
        ens = ParticleEnsemble(states, np.full(4, 0.25))
        paths = make_paths(rng, 4)
        post, diag = pf_assimilation_cycle(
            ens, lorenz63(), make_obs(), np.array([0.0, 0.0, 25.0]),
            0.0, 0.5, paths, np.random.default_rng(10), resample=False,
        )
        assert diag.particle_failures == [2]
        assert post.weights[2] == 0.0
        assert np.isclose(post.weights.sum(), 1.0)

    def test_all_particles_failing_aborts(self):
        states = np.full((3, 3), 1e8)
        ens = ParticleEnsemble(states, np.full(3, 1.0 / 3.0))
        rng = np.random.default_rng(11)
        paths = make_paths(rng, 3)
        with pytest.raises(CycleFailure):
            pf_assimilation_cycle(
                ens, lorenz63(), make_obs(), np.zeros(3),
                0.0, 0.5, paths, np.random.default_rng(12),
            )

    def test_advect_freezes_failed_particles(self):
        rng = np.random.default_rng(13)
        states = np.array([[1.0, 1.0, 20.0], [1e8, 1e8, 1e8]])
        paths = make_paths(rng, 2, steps=10)
        trajs, failures = advect_particles(
            lorenz63(), states, np.zeros((2, 3)), paths, 0.0
        )
        assert failures == [1]
        assert np.array_equal(trajs[:, 1], np.tile(states[1], (11, 1)))
        assert np.all(np.isfinite(trajs[:, 0]))


def one_at_a_time(model, states, controls, paths):
    """The per-particle loop that batched advection must reproduce."""
    out = np.empty((paths[0].n_steps + 1,) + states.shape)
    failures = []
    for i in range(states.shape[0]):
        try:
            out[:, i] = integrate_path(model, states[i], controls[i], paths[i])
        except IntegrationError:
            out[:, i] = states[i]
            failures.append(i)
    return out, failures


class TestBatchedAdvection:
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_bitwise_equal_to_per_particle_paths(self, n):
        rng = np.random.default_rng(100 + n)
        model = lorenz63()
        for _ in range(5):
            states = spread_ensemble(rng, n).states * rng.uniform(0.5, 2.0)
            controls = rng.normal(scale=rng.uniform(0.0, 20.0), size=(n, 3))
            paths = make_paths(rng, n, steps=int(rng.integers(1, 60)))
            got = advect_particles(model, states, controls, paths, 0.0)
            want = one_at_a_time(model, states, controls, paths)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1] == []

    @pytest.mark.parametrize("bad", [0, 3, 5])
    def test_blowup_row_leaves_healthy_rows_untouched(self, bad):
        rng = np.random.default_rng(110 + bad)
        model = lorenz63()
        states = spread_ensemble(rng, 6).states.copy()
        states[bad] = 1e8
        controls = rng.normal(size=(6, 3))
        paths = make_paths(rng, 6, steps=30)
        trajs, failures = advect_particles(
            model, states, controls, paths, 0.0
        )
        want, want_failures = one_at_a_time(model, states, controls, paths)
        assert failures == want_failures == [bad]
        assert np.array_equal(trajs, want)
        assert np.array_equal(trajs[:, bad], np.tile(states[bad], (31, 1)))
        healthy = [i for i in range(6) if i != bad]
        alone, _ = advect_particles(
            model, states[healthy], controls[healthy],
            [paths[i] for i in healthy], 0.0,
        )
        assert np.array_equal(trajs[:, healthy], alone)

    def test_single_failing_particle(self):
        rng = np.random.default_rng(120)
        states = np.full((1, 3), 1e8)
        trajs, failures = advect_particles(
            lorenz63(), states, np.zeros((1, 3)), make_paths(rng, 1), 0.0
        )
        assert failures == [0]
        assert np.array_equal(trajs, np.tile(states, (51, 1, 1)))


class TestResampling:
    def test_resample_fires_only_below_threshold(self):
        rng = np.random.default_rng(14)
        ens = spread_ensemble(rng, 10)
        model, obs = lorenz63(), make_obs()
        # a far observation makes one particle dominate
        y_far = np.array([40.0, 40.0, 80.0])
        r1 = np.random.default_rng(15)
        post, diag = pf_assimilation_cycle(
            ens, model, obs, y_far, 0.0, 0.5, make_paths(rng, 10), r1
        )
        assert diag.posterior_ness < 5.0
        assert diag.resampled
        assert np.array_equal(post.weights, np.full(10, 0.1))

    def test_untriggered_resample_consumes_no_randomness(self):
        rng = np.random.default_rng(16)
        ens = spread_ensemble(rng, 10)
        r_used = np.random.default_rng(99)
        r_ref = np.random.default_rng(99)
        post, diag = pf_assimilation_cycle(
            ens, lorenz63(), make_obs(scale=1e8), np.zeros(3),
            0.0, 0.5, make_paths(rng, 10), r_used,
        )
        assert not diag.resampled
        assert r_used.random() == r_ref.random()

    def test_resample_disabled_is_respected(self):
        rng = np.random.default_rng(17)
        ens = spread_ensemble(rng, 10)
        post, diag = pf_assimilation_cycle(
            ens, lorenz63(), make_obs(), np.array([40.0, 40.0, 80.0]),
            0.0, 0.5, make_paths(rng, 10), np.random.default_rng(18),
            resample=False,
        )
        assert not diag.resampled
        assert not np.array_equal(post.weights, np.full(10, 0.1))
