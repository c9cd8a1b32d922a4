"""Weighted ensembles: ESS, Bayes updates, systematic resampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varnpf.ensemble import (
    ObservationModel,
    ParticleEnsemble,
    bayes_reweight,
    effective_sample_size,
    empirical_moments,
    systematic_offspring_counts,
    systematic_resample,
)


def uniform_ensemble(states):
    states = np.asarray(states, dtype=float)
    n = states.shape[0]
    return ParticleEnsemble(states, np.full(n, 1.0 / n))


def obs_1d():
    return ObservationModel(
        operator=np.array([[1.0, 0.0, 0.0]]),
        noise_cov=np.array([[2.0]]),
    )


weights_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=16
).map(lambda ws: np.asarray(ws) / np.sum(ws))


class TestEffectiveSampleSize:
    def test_exact_reference_vectors(self):
        assert effective_sample_size(np.full(10, 0.1)) == 10.0
        one_hot = np.zeros(8)
        one_hot[3] = 1.0
        assert effective_sample_size(one_hot) == 1.0
        assert effective_sample_size(
            np.array([0.5, 0.5, 0.0, 0.0])
        ) == 2.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            effective_sample_size(np.array([0.5, 0.2]))
        with pytest.raises(ValueError):
            effective_sample_size(np.array([1.5, -0.5]))

    @settings(max_examples=50, deadline=None)
    @given(weights_strategy)
    def test_range_and_scale_freedom(self, w):
        ess = effective_sample_size(w)
        assert 1.0 - 1e-9 <= ess <= len(w) + 1e-9
        rescaled = 7.25 * w
        again = effective_sample_size(rescaled / rescaled.sum())
        assert np.isclose(ess, again, rtol=1e-12)


class TestBayesReweight:
    def test_identical_likelihoods_leave_weights(self):
        rng = np.random.default_rng(0)
        w = rng.dirichlet(np.ones(6))
        states = np.tile(rng.normal(size=3), (6, 1))
        ens = ParticleEnsemble(states, w)
        out, collapsed = bayes_reweight(ens, np.array([0.3]), obs_1d())
        assert not collapsed
        assert np.allclose(out.weights, w, atol=1e-14)

    def test_likelihood_ratio_three(self):
        # misfit difference log 3 under the 1-d model: distance 2 sqrt(log 3)
        x1 = 2.0 * np.sqrt(np.log(3.0))
        states = np.array([[x1, 5.0, 5.0], [0.0, 5.0, 5.0]])
        ens = uniform_ensemble(states)
        out, collapsed = bayes_reweight(ens, np.array([0.0]), obs_1d())
        assert not collapsed
        assert np.allclose(out.weights, [0.25, 0.75], atol=1e-12)

    def test_extra_factor_ratio_three(self):
        states = np.zeros((2, 3))
        ens = uniform_ensemble(states)
        out, _ = bayes_reweight(
            ens, np.array([0.0]), obs_1d(),
            extra_factors=np.array([1.0, 3.0]),
        )
        assert np.allclose(out.weights, [0.25, 0.75], atol=1e-12)

    def test_all_ones_factors_match_no_factors(self):
        rng = np.random.default_rng(1)
        states = rng.normal(size=(5, 3))
        ens = ParticleEnsemble(states, rng.dirichlet(np.ones(5)))
        y = np.array([0.7])
        plain, _ = bayes_reweight(ens, y, obs_1d())
        ones, _ = bayes_reweight(
            ens, y, obs_1d(), extra_factors=np.ones(5)
        )
        assert np.array_equal(plain.weights, ones.weights)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-400.0, max_value=400.0))
    def test_uniform_factor_rescaling_cancels(self, log_c):
        # multiplying every unnormalized weight by e^c changes nothing;
        # large |c| exercises the max-subtraction stabilization
        rng = np.random.default_rng(2)
        states = rng.normal(size=(4, 3))
        ens = ParticleEnsemble(states, rng.dirichlet(np.ones(4)))
        y = np.array([0.1])
        base, _ = bayes_reweight(
            ens, y, obs_1d(), extra_factors=np.ones(4)
        )
        scaled, _ = bayes_reweight(
            ens, y, obs_1d(), extra_factors=np.full(4, np.exp(log_c))
        )
        assert np.allclose(scaled.weights, base.weights, atol=1e-12)

    def test_collapse_falls_back_to_uniform(self):
        states = np.zeros((2, 3))
        ens = ParticleEnsemble(states, np.array([1.0, 0.0]))
        out, collapsed = bayes_reweight(
            ens, np.array([0.0]), obs_1d(),
            extra_factors=np.array([0.0, 1.0]),
        )
        assert collapsed
        assert np.array_equal(out.weights, [0.5, 0.5])


class TestSystematicResampling:
    def test_uniform_u_zero_is_identity(self):
        states = np.arange(12.0).reshape(4, 3)
        ens = uniform_ensemble(states)
        out = systematic_resample(ens, 0.0)
        assert np.array_equal(out.states, states)
        assert np.array_equal(out.weights, np.full(4, 0.25))

    def test_one_hot_weights_clone_the_survivor(self):
        states = np.arange(12.0).reshape(4, 3)
        w = np.array([0.0, 1.0, 0.0, 0.0])
        ens = ParticleEnsemble(states, w)
        out = systematic_resample(ens, 0.6180)
        assert np.array_equal(out.states, np.tile(states[1], (4, 1)))

    @settings(max_examples=50, deadline=None)
    @given(weights_strategy, st.floats(min_value=0.0, max_value=0.999999))
    def test_offspring_counts_bracket_expectation(self, w, u):
        n = len(w)
        counts = systematic_offspring_counts(w, u)
        assert counts.sum() == n
        expected = n * w
        assert np.all(counts >= np.floor(expected) - 1e-9)
        assert np.all(counts <= np.ceil(expected) + 1e-9)

    def test_lattice_u_keeps_brackets(self):
        # w = (5, 1, 3) / 9 at u = 0: the plain cumulative sum rounds the
        # second boundary above 2/3 and took the third ancestor's only
        # offspring away
        ws = np.array([5.0, 1.0, 3.0])
        counts = systematic_offspring_counts(ws / ws.sum(), 0.0)
        assert counts.tolist() == [2, 0, 1]

    def test_unbiased_over_u_grid(self):
        rng = np.random.default_rng(3)
        w = rng.dirichlet(np.ones(6))
        grid = (np.arange(1000) + 0.5) / 1000.0
        mean_counts = np.mean(
            [systematic_offspring_counts(w, u) for u in grid], axis=0
        )
        assert np.abs(mean_counts - 6 * w).max() <= 1.0 / 6.0


class TestMoments:
    def test_single_particle(self):
        ens = ParticleEnsemble(np.array([[1.0, 2.0, 3.0]]), np.array([1.0]))
        mom = empirical_moments(ens)
        assert np.array_equal(mom.mean, [1.0, 2.0, 3.0])
        assert np.array_equal(mom.cov, np.zeros((3, 3)))

    def test_two_points_no_bessel(self):
        states = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        mom = empirical_moments(uniform_ensemble(states))
        assert np.array_equal(mom.mean, np.zeros(3))
        assert np.array_equal(mom.cov, np.diag([1.0, 0.0, 0.0]))

    def test_zero_weight_particle_ignored(self):
        states = np.array([[2.0, 2.0, 2.0], [9.0, -9.0, 9.0]])
        ens = ParticleEnsemble(states, np.array([1.0, 0.0]))
        mom = empirical_moments(ens)
        assert np.array_equal(mom.mean, states[0])
        assert np.array_equal(mom.cov, np.zeros((3, 3)))


class TestValidation:
    def test_ensemble_rejects_bad_weights(self):
        states = np.zeros((3, 2))
        with pytest.raises(ValueError):
            ParticleEnsemble(states, np.array([0.5, 0.2, 0.2]))
        with pytest.raises(ValueError):
            ParticleEnsemble(states, np.array([1.5, -0.25, -0.25]))

    def test_ensemble_rejects_nonfinite_states(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(
                np.array([[np.nan, 0.0]]), np.array([1.0])
            )

    def test_observation_model_requires_spd_noise(self):
        with pytest.raises(ValueError):
            ObservationModel(
                operator=np.eye(2),
                noise_cov=np.array([[1.0, 2.0], [2.0, 1.0]]),
            )

    def test_likelihood_matches_manual_quadratic(self):
        model = ObservationModel(
            operator=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
            noise_cov=np.array([[2.0, 0.5], [0.5, 1.0]]),
        )
        rng = np.random.default_rng(4)
        x = rng.normal(size=3)
        y = rng.normal(size=2)
        r = y - model.operator @ x
        manual = -0.5 * r @ np.linalg.solve(model.noise_cov, r)
        assert np.isclose(model.log_likelihood(x, y), manual, rtol=1e-12)

    def test_nll_gradient_matches_finite_differences(self):
        model = ObservationModel(
            operator=np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 2.0]]),
            noise_cov=np.array([[1.5, 0.25], [0.25, 0.75]]),
        )
        rng = np.random.default_rng(5)
        x = rng.normal(size=3)
        y = rng.normal(size=2)
        grad = model.nll_gradient(x, y)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (
                model.neg_log_likelihood(x + e, y)
                - model.neg_log_likelihood(x - e, y)
            ) / (2.0 * h)
            assert np.isclose(grad[j], fd, rtol=1e-5, atol=1e-8)
