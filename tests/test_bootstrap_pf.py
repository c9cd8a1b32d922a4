"""Bootstrap filter cycle: advection, reweighting, conditional resampling."""

import numpy as np
import pytest

from varnpf.diagnostics import CycleFailure
from varnpf.bootstrap_pf import advect_particles, pf_assimilation_cycle
from varnpf.ensemble import ObservationModel, ParticleEnsemble
from varnpf.sde import IntegrationError, lorenz63, sample_brownian_path
from varnpf.seeding import stream_generator, stream_sequence

from oracle import CYCLES, cycle_context, one_row_path

DT = 0.01


def make_obs(scale=2.0):
    return ObservationModel(
        operator=np.eye(3), noise_cov=scale * np.eye(3)
    )


def make_increments(rng, n, steps=50):
    """(n, steps, 3) Wiener increments on the DT grid, a draw per particle."""
    return np.stack(
        [sample_brownian_path(rng, steps, 3, DT) for _ in range(n)]
    )


def spread_ensemble(rng, n, center=(1.508870, -1.531271, 25.46091)):
    states = np.asarray(center) + rng.normal(scale=np.sqrt(2.0), size=(n, 3))
    return ParticleEnsemble(states, np.full(n, 1.0 / n))


class TestCycle:
    def test_single_particle_posterior_weight_one(self):
        rng = np.random.default_rng(0)
        ens = spread_ensemble(rng, 1)
        incs = make_increments(rng, 1)
        post, diag = pf_assimilation_cycle(ens, cycle_context(
            lorenz63(), make_obs(), np.array([0.0, 0.0, 25.0]), incs,
            np.random.default_rng(1),
        ), 0)
        assert np.array_equal(post.weights, [1.0])
        assert diag.posterior_ness == 1.0
        assert not diag.resampled

    def test_flat_likelihood_keeps_prior_weights(self):
        rng = np.random.default_rng(2)
        states = rng.normal(size=(5, 3))
        w = rng.dirichlet(np.ones(5))
        ens = ParticleEnsemble(states, w)
        incs = make_increments(rng, 5)
        post, diag = pf_assimilation_cycle(ens, cycle_context(
            lorenz63(), make_obs(scale=1e8), np.zeros(3), incs,
            np.random.default_rng(3), resample_threshold=0.0,
        ), 0)
        assert np.allclose(post.weights, w, atol=1e-6)

    def test_weights_unchanged_during_advection(self):
        rng = np.random.default_rng(4)
        ens = spread_ensemble(rng, 8)
        model, obs = lorenz63(), make_obs()
        resample_rng = np.random.default_rng(5)
        # two cycles, over [0, 0.5] and [0.5, 1]
        ctx = cycle_context(
            model, obs, [[0.0, 0.0, 25.0], [1.0, 1.0, 24.0]],
            np.concatenate(
                [make_increments(rng, 8), make_increments(rng, 8)], axis=1
            ),
            resample_rng,
        )
        post1, diag1 = pf_assimilation_cycle(ens, ctx, 0)
        assert np.array_equal(diag1.carried_weights, ens.weights)
        post2, diag2 = pf_assimilation_cycle(post1, ctx, 1)
        assert (diag2.t_start, diag2.t_end) == (0.5, 1.0)
        assert np.array_equal(diag2.carried_weights, post1.weights)
        assert np.isclose(
            diag2.prior_ness,
            1.0 / float(np.dot(post1.weights, post1.weights)),
        )

    def test_fixed_paths_make_cycle_deterministic(self):
        rng = np.random.default_rng(6)
        ens = spread_ensemble(rng, 6)
        incs = make_increments(rng, 6)
        y = np.array([2.0, -1.0, 24.0])
        out = []
        for _ in range(2):
            post, diag = pf_assimilation_cycle(ens, cycle_context(
                lorenz63(), make_obs(), y, incs, np.random.default_rng(7),
            ), 0)
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
            inc_t = sample_brownian_path(rng, 50, 3, DT)
            y = one_row_path(model, truth, np.zeros(3), inc_t, DT)[-1]
            y = y + rng.multivariate_normal(np.zeros(3), obs.noise_cov)
            ens = spread_ensemble(rng, 10, center=truth)
            incs = make_increments(rng, 10)
            post, diag = pf_assimilation_cycle(ens, cycle_context(
                model, obs, y, incs, np.random.default_rng(8),
                resample_threshold=0.0,
            ), 0)
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
        incs = make_increments(rng, 4)
        post, diag = pf_assimilation_cycle(ens, cycle_context(
            lorenz63(), make_obs(), np.array([0.0, 0.0, 25.0]), incs,
            np.random.default_rng(10), resample_threshold=0.0,
        ), 0)
        assert diag.particle_failures == [2]
        assert post.weights[2] == 0.0
        assert np.isclose(post.weights.sum(), 1.0)

    def test_all_particles_failing_aborts(self):
        states = np.full((3, 3), 1e8)
        ens = ParticleEnsemble(states, np.full(3, 1.0 / 3.0))
        rng = np.random.default_rng(11)
        incs = make_increments(rng, 3)
        with pytest.raises(CycleFailure):
            pf_assimilation_cycle(ens, cycle_context(
                lorenz63(), make_obs(), np.zeros(3), incs,
                np.random.default_rng(12),
            ), 0)

    def test_advect_freezes_failed_particles(self):
        rng = np.random.default_rng(13)
        states = np.array([[1.0, 1.0, 20.0], [1e8, 1e8, 1e8]])
        incs = make_increments(rng, 2, steps=10)
        trajs, failures = advect_particles(
            lorenz63(), states, np.zeros((2, 3)), incs, DT
        )
        assert failures == [1]
        assert np.array_equal(trajs[:, 1], np.tile(states[1], (11, 1)))
        assert np.all(np.isfinite(trajs[:, 0]))


def one_at_a_time(model, states, controls, incs):
    """The per-particle loop that batched advection must reproduce."""
    out = np.empty((incs.shape[1] + 1,) + states.shape)
    failures = []
    for i in range(states.shape[0]):
        try:
            out[:, i] = one_row_path(
                model, states[i], controls[i], incs[i], DT
            )
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
            incs = make_increments(rng, n, steps=int(rng.integers(1, 60)))
            got = advect_particles(model, states, controls, incs, DT)
            want = one_at_a_time(model, states, controls, incs)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1] == []

    @pytest.mark.parametrize("bad", [0, 3, 5])
    def test_blowup_row_leaves_healthy_rows_untouched(self, bad):
        rng = np.random.default_rng(110 + bad)
        model = lorenz63()
        states = spread_ensemble(rng, 6).states.copy()
        states[bad] = 1e8
        controls = rng.normal(size=(6, 3))
        incs = make_increments(rng, 6, steps=30)
        trajs, failures = advect_particles(
            model, states, controls, incs, DT
        )
        want, want_failures = one_at_a_time(model, states, controls, incs)
        assert failures == want_failures == [bad]
        assert np.array_equal(trajs, want)
        assert np.array_equal(trajs[:, bad], np.tile(states[bad], (31, 1)))
        healthy = [i for i in range(6) if i != bad]
        alone, _ = advect_particles(
            model, states[healthy], controls[healthy],
            incs[healthy], DT,
        )
        assert np.array_equal(trajs[:, healthy], alone)

    def test_single_failing_particle(self):
        rng = np.random.default_rng(120)
        states = np.full((1, 3), 1e8)
        trajs, failures = advect_particles(
            lorenz63(), states, np.zeros((1, 3)), make_increments(rng, 1), DT
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
        post, diag = pf_assimilation_cycle(ens, cycle_context(
            model, obs, y_far, make_increments(rng, 10), r1
        ), 0)
        assert diag.posterior_ness < 5.0
        assert diag.resampled
        assert np.array_equal(post.weights, np.full(10, 0.1))

    def test_untriggered_resample_consumes_no_randomness(self):
        rng = np.random.default_rng(16)
        ens = spread_ensemble(rng, 10)
        r_used = np.random.default_rng(99)
        r_ref = np.random.default_rng(99)
        post, diag = pf_assimilation_cycle(ens, cycle_context(
            lorenz63(), make_obs(scale=1e8), np.zeros(3),
            make_increments(rng, 10), r_used,
        ), 0)
        assert not diag.resampled
        assert r_used.random() == r_ref.random()

    def test_resample_disabled_is_respected(self):
        rng = np.random.default_rng(17)
        ens = spread_ensemble(rng, 10)
        post, diag = pf_assimilation_cycle(ens, cycle_context(
            lorenz63(), make_obs(), np.array([40.0, 40.0, 80.0]),
            make_increments(rng, 10), np.random.default_rng(18),
            resample_threshold=0.0,
        ), 0)
        assert not diag.resampled
        assert not np.array_equal(post.weights, np.full(10, 0.1))

    @pytest.mark.parametrize("threshold", [0.0, -np.inf])
    @pytest.mark.parametrize("filter_name", sorted(CYCLES))
    def test_no_positive_threshold_never_resamples(
        self, filter_name, threshold
    ):
        # a three-cycle run that resamples at the default threshold
        # resamples in no cycle at 0 or below, and draws nothing from the
        # resampling stream
        rng = np.random.default_rng(19)
        model = lorenz63()
        center = np.array([1.508870, -1.531271, 25.46091])
        truth = one_row_path(
            model, center, np.zeros(3), make_increments(rng, 1, 150)[0], DT
        )
        ens = spread_ensemble(rng, 8, center=center)
        incs = make_increments(rng, 8, 150)

        def run(resample_rng, **fields):
            ctx = cycle_context(
                model, make_obs(), truth[50::50], incs, resample_rng,
                **fields,
            )
            post, resampled = ens, []
            for k in range(3):
                post, diag = CYCLES[filter_name](post, ctx, k)
                resampled.append(diag.resampled)
            return resampled

        assert any(run(np.random.default_rng(20)))
        used = np.random.default_rng(20)
        assert not any(run(used, resample_threshold=threshold))
        assert used.bit_generator.state == (
            np.random.default_rng(20).bit_generator.state
        )
