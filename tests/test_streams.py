"""Whole runs against a reference loop that draws the noise cycle by cycle.

run_experiment derives every particle's propagation key in one batch and
draws its increments once for the whole run.  The reference below builds
every stream from its own SeedSequence and draws each particle's
increments afresh every cycle, and the records must agree bit for bit,
including a run that fails part-way.  The nudged cycles derive their
control keys from the context's root; the reference checks that cycle k
asks for particle i's stream (seed; CONTROL, code, ic, run, k, i) and
keys the solves from its own sequences.
"""

import dataclasses

import numpy as np
import pytest

from varnpf import nudging
from varnpf.diagnostics import CycleFailure
from varnpf.ensemble import ParticleEnsemble
from varnpf.harness import (
    ExperimentConfig,
    ModelConfig,
    generate_truth_and_observations,
    run_experiment,
)
from varnpf.sde import sample_brownian_path
from varnpf.seeding import (
    CONTROL,
    FILTER_CODES,
    INIT,
    PROPAGATION,
    RESAMPLE,
    stream_generator,
    stream_sequence,
)

from oracle import CYCLES, cycle_context


def reference_run(config, truth):
    """step_states, step_weights, ensemble_mean and failure message of a
    run that draws each particle's increments per cycle and builds each
    stream from its own SeedSequence."""
    model = config.build_model()
    n, d = config.particles, model.dimension
    span, total = config.steps_per_interval, config.n_steps
    seed, ic, run = config.seed, config.ic_index, config.run_index
    code = FILTER_CODES[config.filter_name]
    mean0 = np.asarray(
        config.truth_init if config.ensemble_mean is None
        else config.ensemble_mean,
        dtype=float,
    )
    init_rng = stream_generator(stream_sequence(seed, INIT, ic, run))
    states0 = mean0 + np.sqrt(config.ensemble_cov_scale) * (
        init_rng.standard_normal((n, d))
    )
    ens = ParticleEnsemble(states0, np.full(n, 1.0 / n), 0.0)
    prop_rngs = [
        stream_generator(stream_sequence(seed, PROPAGATION, ic, run, i))
        for i in range(n)
    ]
    # cycle k's steps of every particle, drawn cycle after cycle
    noise = np.concatenate([
        np.stack([
            sample_brownian_path(rng, span, d, config.dt) for rng in prop_rngs
        ])
        for _ in range(config.n_intervals)
    ], axis=1)
    ctx = cycle_context(
        model, config.build_obs_model(), truth.observations, noise,
        stream_generator(stream_sequence(seed, RESAMPLE, ic, run)),
        dt=config.dt, resample_threshold=config.resample_threshold,
        nudging=config.nudging, variational=config.variational,
        control=stream_sequence(seed, CONTROL, code, ic, run),
    )
    assert ctx.times.tobytes() == truth.times.tobytes()
    cycle = CYCLES[config.filter_name]
    derive_keys = nudging.child_keys
    keyed = []  # the cycles that asked for control keys

    def own_keys(seqs, count):
        k = len(keyed)
        own = [
            stream_sequence(seed, CONTROL, code, ic, run, k, i)
            for i in range(n)
        ]
        assert [(s.entropy, tuple(s.spawn_key)) for s in seqs] == [
            (s.entropy, s.spawn_key) for s in own
        ], f"cycle {k} asked for other control streams"
        keyed.append(k)
        return derive_keys(own, count)

    step_states = np.full((total + 1, n, d), np.nan)
    step_weights = np.full((total + 1, n), np.nan)
    step_states[0], step_weights[0] = ens.states, ens.weights
    failure = None
    for k in range(config.n_intervals):
        try:
            with pytest.MonkeyPatch.context() as patched:
                patched.setattr(nudging, "child_keys", own_keys)
                ens, diag = cycle(ens, ctx, k)
        except CycleFailure as err:
            failure = f"cycle {k}: {err}"
            break
        finally:
            # one key derivation per nudged cycle, cycle k's own
            if config.filter_name != "pf":
                assert keyed == list(range(k + 1))
        rows = slice(k * span + 1, (k + 1) * span + 1)
        step_states[rows] = diag.step_states[1:]
        step_states[(k + 1) * span] = diag.posterior.states
        step_weights[rows] = diag.carried_weights
        step_weights[(k + 1) * span] = diag.posterior.weights
    mean = np.einsum("tn,tnd->td", step_weights, step_states)
    return step_states, step_weights, mean, failure


# failed.yaml of the CI README step: the ensemble starts far off the
# attractor and fails in the first cycle
FAR_OFF = dict(seed=8, ensemble_mean=(1.0e8, 1.0e8, 1.0e8))
# noise 1000 times the attractor's scale, against the default truth:
# every particle leaves float64 in the third cycle
WILD = ModelConfig(diffusion=((1e6, 0, 0), (0, 1e6, 0), (0, 0, 1e6)))


@pytest.mark.parametrize(
    "config, wild, fails",
    [
        (ExperimentConfig(particles=100), False, None),
        (ExperimentConfig(filter_name="npf", particles=4, t_final=1.0),
         False, None),
        (ExperimentConfig(filter_name="var_npf", **FAR_OFF), False,
         "cycle 0"),
        (ExperimentConfig(particles=5), True, "cycle 2"),
        (ExperimentConfig(filter_name="npf", particles=5), True, "cycle 2"),
    ],
    ids=["pf-100", "npf-short", "var_npf-far-off", "pf-wild", "npf-wild"],
)
def test_run_matches_per_cycle_draws(config, wild, fails):
    truth = generate_truth_and_observations(config)
    if wild:
        config = dataclasses.replace(config, model=WILD)
    with np.errstate(over="ignore", invalid="ignore"):
        record = run_experiment(config, truth=truth)
        states, weights, mean, failure = reference_run(config, truth)
    assert record.failure_message == failure
    assert record.failed == (fails is not None)
    if fails is not None:
        assert failure.startswith(fails + ":")
    assert record.step_states.tobytes() == states.tobytes()
    assert record.step_weights.tobytes() == weights.tobytes()
    assert record.ensemble_mean.tobytes() == mean.tobytes()
