"""Experiment orchestration: configs, truth generation, runs, sweeps.

A run is fully determined by an :class:`ExperimentConfig`.  All randomness
is derived from ``(seed, stream kind, ic_index, run_index, ...)`` keys, so
runs with different filters but the same seed and indices see identical
truths, observations, initial ensembles, and propagation noise; only the
control realizations differ.  That pairing is what makes the benchmark
comparisons tight at small run counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .bootstrap_pf import pf_assimilation_cycle
from .diagnostics import CycleDiagnostics, CycleFailure
from .ensemble import ObservationModel, ParticleEnsemble
from .nudging import NudgingConfig, npf_assimilation_cycle
from .sde import (
    IntegrationError,
    L63Params,
    SdeModel,
    integrate_path,
    lorenz63,
    sample_brownian_path,
)
from .seeding import (
    CONTROL,
    FILTER_CODES,
    INIT,
    PROPAGATION,
    RESAMPLE,
    TRUTH,
    stream_generator,
    stream_sequence,
)
from .var_npf import VarNpfSettings, var_npf_assimilation_cycle

Array = np.ndarray


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configuration."""


# Benchmark initial conditions on and around the attractor.  Index 0 is the
# reference point used by the single-condition comparisons; the rest are the
# sweep set for the robustness check.
BENCHMARK_ICS: tuple[tuple[float, float, float], ...] = (
    (1.508870, -1.531271, 25.46091),
    (-3.622, 2.487, 29.784),
    (-8.587, -14.288, 16.895),
    (-14.411, -8.058, 40.440),
    (14.418, 11.236, 37.915),
    (4.133, 6.815, 14.316),
    (-2.895, -5.123, 11.843),
    (-5.802, -7.589, 20.507),
    (10.347, 17.701, 17.250),
    (3.072, -0.052, 26.056),
    (1.909, -0.842, 24.846),
)

_IDENTITY3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_DEFAULT_OBS_COV = ((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 2.0))
_DEFAULT_DIFFUSION = ((2.0, 1.0, 0.5), (1.0, 2.0, 1.0), (0.5, 1.0, 2.0))


def _freeze(value):
    """Recursively turn lists into tuples so configs compare and hash."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True)
class ModelConfig:
    """Signal model parameters; ``diffusion`` is the noise covariance."""

    alpha: float = 10.0
    gamma: float = 28.0
    beta: float = 8.0 / 3.0
    diffusion: tuple = _DEFAULT_DIFFUSION

    def __post_init__(self):
        object.__setattr__(self, "diffusion", _freeze(self.diffusion))

    def build(self) -> SdeModel:
        return lorenz63(
            L63Params(self.alpha, self.gamma, self.beta),
            np.asarray(self.diffusion, dtype=float),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one filtering run needs, serializable as nested dicts.

    ``seed`` is the base entropy; ``ic_index`` and ``run_index`` key the
    derived streams, so sweeps vary those rather than the seed itself.
    ``ensemble_mean`` of None centers the initial ensemble on the truth.
    """

    filter_name: str = "pf"
    particles: int = 10
    dt: float = 0.01
    dt_obs: float = 0.5
    t_final: float = 3.5
    seed: int = 0
    ic_index: int = 0
    run_index: int = 0
    truth_init: tuple = BENCHMARK_ICS[0]
    ensemble_mean: tuple | None = None
    ensemble_cov_scale: float = 2.0
    obs_operator: tuple = _IDENTITY3
    obs_noise_cov: tuple = _DEFAULT_OBS_COV
    resample: bool = True
    resample_threshold: float = 0.5
    model: ModelConfig = ModelConfig()
    nudging: NudgingConfig = NudgingConfig()
    variational: VarNpfSettings = VarNpfSettings()

    def __post_init__(self):
        name = str(self.filter_name).replace("-", "_")
        object.__setattr__(self, "filter_name", name)
        for key in ("truth_init", "obs_operator", "obs_noise_cov"):
            object.__setattr__(self, key, _freeze(getattr(self, key)))
        if self.ensemble_mean is not None:
            object.__setattr__(
                self, "ensemble_mean", _freeze(self.ensemble_mean)
            )
        if name not in FILTER_CODES:
            raise ConfigError(
                f"unknown filter {name!r}; expected one of "
                f"{sorted(FILTER_CODES)}"
            )
        if self.particles < 1:
            raise ConfigError("particles must be >= 1")
        if self.dt <= 0.0 or self.dt_obs <= 0.0 or self.t_final <= 0.0:
            raise ConfigError("dt, dt_obs, t_final must be positive")
        if self.ensemble_cov_scale <= 0.0:
            raise ConfigError("ensemble_cov_scale must be positive")
        ratio = self.dt_obs / self.dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError("dt_obs must be a whole multiple of dt")
        ratio = self.t_final / self.dt_obs
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError("t_final must be a whole multiple of dt_obs")
        if len(self.truth_init) != 3:
            raise ConfigError("truth_init must have three components")
        if name in ("npf", "var_npf"):
            if self.steps_per_interval % self.nudging.subintervals != 0:
                raise ConfigError(
                    "subintervals must divide the steps per interval"
                )

    @property
    def steps_per_interval(self) -> int:
        return int(round(self.dt_obs / self.dt))

    @property
    def n_intervals(self) -> int:
        return int(round(self.t_final / self.dt_obs))

    @property
    def n_steps(self) -> int:
        return self.steps_per_interval * self.n_intervals

    def build_model(self) -> SdeModel:
        return self.model.build()

    def build_obs_model(self) -> ObservationModel:
        return ObservationModel(
            operator=np.asarray(self.obs_operator, dtype=float),
            noise_cov=np.asarray(self.obs_noise_cov, dtype=float),
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return _build_config(cls, data, "")


_NESTED = {
    "model": ModelConfig,
    "nudging": NudgingConfig,
    "variational": VarNpfSettings,
}


def _build_config(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"expected a mapping at {path or 'top level'}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        where = f" under {path}" if path else ""
        raise ConfigError(f"unknown config key(s){where}: {unknown}")
    kwargs = {}
    for key, value in data.items():
        if key in _NESTED and isinstance(value, dict):
            value = _build_config(_NESTED[key], value, key)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        where = f" under {path}" if path else ""
        raise ConfigError(f"bad config value{where}: {err}") from err


def _psd_factor(cov: Array) -> Array | None:
    """Factor F with F F^T = cov, or None for an all-zero covariance."""
    cov = np.asarray(cov, dtype=float)
    if not np.any(cov):
        return None
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
        if np.min(vals) < -1e-10:
            raise ConfigError("observation noise covariance is indefinite")
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


@dataclass(frozen=True)
class TruthData:
    """Reference trajectory and its noisy observations."""

    times: Array  # (T + 1,)
    trajectory: Array  # (T + 1, 3)
    obs_times: Array  # (L,)
    observations: Array  # (L, m)
    digest: str  # content hash; equal digests mean identical data


def generate_truth_and_observations(
    config: ExperimentConfig, seed: int | None = None
) -> TruthData:
    """Simulate the signal once and observe it at the assimilation times.

    The truth stream is keyed only by (seed, ic, run), never by the filter,
    so every filter compared at the same indices sees the same data.  With
    zero model and observation noise the observations are exactly the
    observed deterministic flow.
    """
    if seed is None:
        seed = config.seed
    model = config.build_model()
    # the observation model proper needs an invertible noise covariance
    # for the Bayes update; observing the truth does not, so zero-noise
    # configurations stay legal here
    operator = np.asarray(config.obs_operator, dtype=float)
    total = config.n_steps
    span = config.steps_per_interval
    rng = stream_generator(
        stream_sequence(seed, TRUTH, config.ic_index, config.run_index)
    )
    trajectory = integrate_path(
        model,
        np.asarray(config.truth_init, dtype=float),
        sample_brownian_path(rng, total, model.dimension, config.dt),
        config.dt,
    )
    times = np.arange(total + 1) * config.dt
    obs_times = times[span::span]
    clean = trajectory[span::span] @ operator.T
    factor = _psd_factor(np.asarray(config.obs_noise_cov, dtype=float))
    if factor is None:
        observations = clean
    else:
        observations = clean + rng.standard_normal(clean.shape) @ factor.T
    digest = hashlib.sha256(
        trajectory.tobytes() + observations.tobytes()
    ).hexdigest()[:16]
    return TruthData(times, trajectory, obs_times, observations, digest)


@dataclass(kw_only=True)
class ExperimentRecord:
    """Full output of one run: series on the integrator grid plus truth.

    Every array attribute but ``times`` is a series of :data:`RECORD_SERIES`,
    which gives its axes.  ``step_states`` and ``step_weights`` hold the
    post-update ensemble at observation indices and the advected ensemble
    elsewhere, so ``ensemble_mean`` is the filter estimate at every grid
    time.  Series a filter never produces are None.  A failed run keeps its
    series up to the failing cycle; the remainder keeps its fill (nan, or 0
    for counts and flags).
    """

    config: ExperimentConfig
    times: Array
    truth: Array
    obs_times: Array
    observations: Array
    step_states: Array
    step_weights: Array
    ensemble_mean: Array
    prior_ness: Array
    posterior_ness: Array
    resampled: Array
    collapsed: Array
    drift_evals: Array | None = None
    step_ratio: Array | None = None
    control_proposed_norms: Array | None = None
    control_applied_norms: Array | None = None
    rollbacks: Array | None = None
    phi_floored: Array | None = None
    batches_used: Array | None = None
    log_rn: Array | None = None
    realization_steps: Array | None = None
    control_passes: Array | None = None
    variational_status: list | None = None  # length L
    variational_cost: Array | None = None
    variational_iterations: Array | None = None
    variational_cost_evals: Array | None = None
    pseudo_targets: Array | None = None
    runtime: dict
    truth_digest: str
    failed: bool = False
    failure_message: str | None = None
    cycles: list = field(default_factory=list)  # kept only on request


# The record.csv index column of each record axis.  ``time`` counts the
# grid times and ``step`` the integrator steps, each labelled by its
# (start) time; axes sharing a column flatten into it row-major.
RECORD_AXES = {
    "time": "time", "step": "time", "cycle": "cycle", "particle": "particle",
    "state": "component", "obs": "component", "subinterval": "component",
}


class Series(NamedTuple):
    """One numeric series of a run: record attribute and record.csv rows.

    ``from_cycle`` says how a cycle fills its rows (its index on a
    ``cycle`` axis, its steps on a ``step`` axis, the grid times it
    reaches on a ``time`` axis): True copies the CycleDiagnostics
    attribute of the same name, a callable converts the diagnostics,
    False marks a series set once per run, and COUNTER a count of a
    cycle's work, read from its ``counters`` (a failing cycle's too),
    summed into the RunMetrics field of the same name and averaged as
    ``avg_<name>`` by McSummary.aggregate.  A cycle value of None leaves
    the fill (nan, or 0 for other dtypes) in place.
    """

    name: str  # record.csv series
    attr: str  # ExperimentRecord attribute
    axes: tuple  # keys of RECORD_AXES, one per array axis
    dtype: type = float
    filters: tuple = tuple(FILTER_CODES)
    from_cycle: bool | str | Callable[[CycleDiagnostics], Array] = True


# A cycle's grid rows: the advected ensemble, with the posterior at the
# observation time.
def _step_states(diag: CycleDiagnostics) -> Array:
    rows = diag.step_states[1:].copy()
    rows[-1] = diag.posterior.states
    return rows


def _step_weights(diag: CycleDiagnostics) -> Array:
    rows = np.tile(diag.carried_weights, (len(diag.step_states) - 1, 1))
    rows[-1] = diag.posterior.weights
    return rows


def _norms(name: str) -> Callable[[CycleDiagnostics], Array]:
    return lambda diag: np.linalg.norm(getattr(diag, name), axis=2)


_NUDGED = ("npf", "var_npf")
_GUIDED = ("var_npf",)
_SUBS = ("cycle", "subinterval", "particle")
COUNTER = "counter"  # the from_cycle marker of a counter series

# Every numeric series of a run, in record.csv order.
RECORD_SERIES: tuple[Series, ...] = (
    Series("truth", "truth", ("time", "state"), from_cycle=False),
    Series("ensemble_mean", "ensemble_mean", ("time", "state"),
           from_cycle=False),
    Series("step_state", "step_states", ("time", "particle", "state"),
           from_cycle=_step_states),
    Series("step_weight", "step_weights", ("time", "particle"),
           from_cycle=_step_weights),
    Series("obs_time", "obs_times", ("cycle",), from_cycle=False),
    Series("observation", "observations", ("cycle", "obs"), from_cycle=False),
    Series("prior_ness", "prior_ness", ("cycle",)),
    Series("posterior_ness", "posterior_ness", ("cycle",)),
    Series("resampled", "resampled", ("cycle",), bool),
    Series("collapsed", "collapsed", ("cycle",), bool),
    Series("drift_evals", "drift_evals", ("cycle",), int, from_cycle=COUNTER),
    Series("step_ratio", "step_ratio", ("step", "particle"), float, _NUDGED),
    Series("control_proposed_norm", "control_proposed_norms", _SUBS, float,
           _NUDGED, _norms("control_proposed")),
    Series("control_applied_norm", "control_applied_norms", _SUBS, float,
           _NUDGED, _norms("control_applied")),
    Series("rollback", "rollbacks", _SUBS, bool, _NUDGED),
    Series("phi_floored", "phi_floored", _SUBS, bool, _NUDGED),
    Series("batches_used", "batches_used", _SUBS, int, _NUDGED),
    Series("log_rn", "log_rn", ("cycle", "particle"), float, _NUDGED),
    Series("realization_steps", "realization_steps", ("cycle",), int, _NUDGED,
           COUNTER),
    Series("control_passes", "control_passes", ("cycle",), int, _NUDGED,
           COUNTER),
    Series("variational_cost", "variational_cost", ("cycle",), float, _GUIDED),
    Series("variational_iterations", "variational_iterations", ("cycle",),
           int, _GUIDED, COUNTER),
    Series("variational_cost_evals", "variational_cost_evals", ("cycle",),
           int, _GUIDED, COUNTER),
    Series("pseudo_target", "pseudo_targets", ("cycle", "subinterval", "obs"),
           float, _GUIDED),
)
COUNTERS = tuple(s.attr for s in RECORD_SERIES if s.from_cycle == COUNTER)


def run_experiment(
    config: ExperimentConfig,
    truth: TruthData | None = None,
    keep_cycles: bool = False,
) -> ExperimentRecord:
    """Run one filter over the full horizon and collect every series.

    ``runtime['total']`` covers the assimilation loop only; generating the
    truth is timed separately since it is shared by paired runs.  The
    control and variational runtimes sum the cycles' timings.  A cycle
    abort (all particles failing) marks the record failed instead of
    raising, so sweeps can count and move on; the failing cycle's
    counters, timings and per-solve arrays still count.
    """
    model = config.build_model()
    obs_model = config.build_obs_model()
    n = config.particles
    d = model.dimension
    span = config.steps_per_interval
    n_cycles = config.n_intervals
    total = config.n_steps
    seed = config.seed
    ic = config.ic_index
    run = config.run_index
    filter_code = FILTER_CODES[config.filter_name]

    tic_truth = time.perf_counter()
    if truth is None:
        truth = generate_truth_and_observations(config)
    truth_time = time.perf_counter() - tic_truth

    tic = time.perf_counter()
    init_rng = stream_generator(stream_sequence(seed, INIT, ic, run))
    mean0 = np.asarray(
        config.truth_init if config.ensemble_mean is None
        else config.ensemble_mean,
        dtype=float,
    )
    states0 = mean0 + np.sqrt(config.ensemble_cov_scale) * (
        init_rng.standard_normal((n, d))
    )
    ens = ParticleEnsemble(states0, np.full(n, 1.0 / n), 0.0)
    prop_rngs = [
        stream_generator(stream_sequence(seed, PROPAGATION, ic, run, i))
        for i in range(n)
    ]
    resample_rng = stream_generator(
        stream_sequence(seed, RESAMPLE, ic, run)
    )

    extent = {
        "time": total + 1, "step": total, "cycle": n_cycles, "particle": n,
        "state": d, "obs": obs_model.operator.shape[0],
        "subinterval": config.nudging.subintervals,
    }
    filled = [
        s for s in RECORD_SERIES
        if s.from_cycle is not False and config.filter_name in s.filters
    ]
    series = {
        s.attr: np.full(
            [extent[axis] for axis in s.axes],
            np.nan if s.dtype is float else 0,
            dtype=s.dtype,
        )
        for s in filled
    }
    # grid row 0 holds the initial ensemble; cycles fill the rest
    series["step_states"][0] = ens.states
    series["step_weights"][0] = ens.weights
    statuses: list = [None] * n_cycles
    runtime = dict(total=0.0, truth=truth_time, control=0.0, variational=0.0)
    cycles: list[CycleDiagnostics] = []
    failed = False
    failure_message = None

    for k in range(n_cycles):
        t0k = truth.times[k * span]
        t1k = truth.times[(k + 1) * span]
        # (n, span, d): particle i's increments from its own stream
        increments = np.stack([
            sample_brownian_path(rng, span, d, config.dt) for rng in prop_rngs
        ])
        y_k = truth.observations[k]
        try:
            if config.filter_name == "pf":
                ens, diag = pf_assimilation_cycle(
                    ens, model, obs_model, y_k, t0k, t1k, increments,
                    config.dt, resample_rng,
                    config.resample, config.resample_threshold,
                )
            else:
                control_seqs = [
                    stream_sequence(
                        seed, CONTROL, filter_code, ic, run, k, i
                    )
                    for i in range(n)
                ]
                if config.filter_name == "npf":
                    ens, diag = npf_assimilation_cycle(
                        ens, model, obs_model, y_k, t0k, t1k,
                        config.nudging, increments, config.dt,
                        control_seqs, resample_rng,
                        config.resample, config.resample_threshold,
                    )
                else:
                    ens, diag = var_npf_assimilation_cycle(
                        ens, model, obs_model, y_k, t0k, t1k,
                        config.nudging, config.variational, increments,
                        config.dt, control_seqs, resample_rng,
                        config.resample, config.resample_threshold,
                    )
        except CycleFailure as err:
            failed = True
            failure_message = f"cycle {k}: {err}"
            for attr, value in err.solves.items():
                series[attr][k] = value
            work = err
        else:
            # the rows this cycle fills along a series' first axis
            rows = {
                "cycle": k,
                "step": slice(k * span, (k + 1) * span),
                "time": slice(k * span + 1, (k + 1) * span + 1),
            }
            for s in filled:
                if s.from_cycle == COUNTER:
                    continue
                value = (
                    getattr(diag, s.attr) if s.from_cycle is True
                    else s.from_cycle(diag)
                )
                if value is not None:
                    series[s.attr][rows[s.axes[0]]] = value
            statuses[k] = diag.variational_status
            if keep_cycles:
                cycles.append(diag)
            work = diag
        for attr in COUNTERS:
            if attr in series:
                series[attr][k] = work.counters.get(attr, 0)
        for key, seconds in work.timings.items():
            if key != "total":  # the loop's own total covers every cycle
                runtime[key] += seconds
        if failed:
            break

    runtime["total"] = time.perf_counter() - tic
    return ExperimentRecord(
        config=config,
        times=truth.times,
        truth=truth.trajectory,
        obs_times=truth.obs_times,
        observations=truth.observations,
        ensemble_mean=np.einsum(
            "tn,tnd->td", series["step_weights"], series["step_states"]
        ),
        variational_status=(
            statuses if config.filter_name == "var_npf" else None
        ),
        runtime=runtime,
        truth_digest=truth.digest,
        failed=failed,
        failure_message=failure_message,
        cycles=cycles,
        **series,
    )


def compute_rmse(record: ExperimentRecord) -> float:
    """Root mean square error of the filter mean over all grid times.

    The mean runs over every time and component, so a constant offset c in
    one coordinate gives c / sqrt(3).  Failed runs propagate nan.
    """
    diff = record.ensemble_mean - record.truth
    return float(np.sqrt(np.mean(diff * diff)))


def average_posterior_ness(record: ExperimentRecord) -> float:
    """Mean normalized posterior ESS over cycles, in [1/n, 1]."""
    return float(
        np.mean(record.posterior_ness) / record.config.particles
    )


def average_bm_ratio(record: ExperimentRecord) -> float:
    """Mean nudging-to-Brownian displacement ratio over controlled steps.

    Steps without control (rollbacks, plain bootstrap) are missing values;
    a run with no applied control at all reports nan.
    """
    if record.step_ratio is None:
        return float("nan")
    finite = record.step_ratio[np.isfinite(record.step_ratio)]
    if finite.size == 0:
        return float("nan")
    return float(np.mean(finite))


@dataclass(frozen=True, kw_only=True)
class RunMetrics:
    """Slim per-run summary row for sweeps and reports.

    Counters, shares and the control and variational times default to
    zero, so a row names only what its run produced.  Each COUNTER series
    of RECORD_SERIES sums into the int field of its name.
    """

    filter_name: str
    ic_index: int
    run_index: int
    seed: int
    rmse: float
    avg_ness: float
    bm_ratio: float
    runtime_total: float
    runtime_control: float = 0.0
    runtime_variational: float = 0.0
    realization_steps: int = 0
    control_passes: int = 0
    drift_evals: int = 0
    variational_iterations: int = 0
    variational_cost_evals: int = 0
    rollback_fraction: float = 0.0
    control_solves: int = 0
    floored_solves: int = 0
    threshold_rollbacks: int = 0
    max_batches: int = 0
    resampled_cycles: int = 0
    collapsed_cycles: int = 0
    variational_share: float = 0.0
    failed: bool = False
    failure_message: str = ""
    truth_digest: str


def _total(series: Array | None) -> int:
    """Sum of a count series; a series the filter never produces is 0."""
    return 0 if series is None else int(series.sum())


def run_metrics(record: ExperimentRecord) -> RunMetrics:
    cfg = record.config
    solves = {}
    if record.rollbacks is not None and record.rollbacks.size:
        solves = dict(
            rollback_fraction=float(np.mean(record.rollbacks)),
            # a cell with no batches is a particle that had failed before it
            control_solves=int(np.count_nonzero(record.batches_used)),
            floored_solves=int(np.sum(record.phi_floored)),
            threshold_rollbacks=int(
                np.sum(record.rollbacks & ~record.phi_floored)
            ),
            max_batches=int(record.batches_used.max()),
        )
    total = record.runtime["total"]
    share = (
        record.runtime["variational"] / total
        if cfg.filter_name == "var_npf" and total > 0.0
        else 0.0
    )
    return RunMetrics(
        filter_name=cfg.filter_name,
        ic_index=cfg.ic_index,
        run_index=cfg.run_index,
        seed=cfg.seed,
        rmse=compute_rmse(record),
        avg_ness=average_posterior_ness(record),
        bm_ratio=average_bm_ratio(record),
        runtime_total=total,
        runtime_control=record.runtime["control"],
        runtime_variational=record.runtime["variational"],
        **{attr: _total(getattr(record, attr)) for attr in COUNTERS},
        resampled_cycles=int(np.sum(record.resampled)),
        collapsed_cycles=int(np.sum(record.collapsed)),
        variational_share=share,
        failed=record.failed,
        failure_message=record.failure_message or "",
        truth_digest=record.truth_digest,
        **solves,
    )


def _crashed_metrics(
    config: ExperimentConfig, truth_digest: str, err: Exception,
    elapsed: float,
) -> RunMetrics:
    """The failed row of a run that raised ``err`` after ``elapsed`` s.

    ``truth_digest`` is "" when generating the truth itself raised.
    """
    nan = float("nan")
    return RunMetrics(
        filter_name=config.filter_name,
        ic_index=config.ic_index,
        run_index=config.run_index,
        seed=config.seed,
        rmse=nan,
        avg_ness=nan,
        bm_ratio=nan,
        runtime_total=elapsed,
        failed=True,
        failure_message=f"{type(err).__name__}: {err}",
        truth_digest=truth_digest,
    )


def _run_pair(configs: tuple) -> list[RunMetrics]:
    """Sweep worker: one truth, then every filter of one (ic, run) pair.

    The configs differ only in the filter, so the first one keys the truth
    for all of them.  A truth that leaves float64 gives every filter a
    failed row with an empty truth digest.  A filter that raises anything
    run_experiment does not record itself (that is, other than
    CycleFailure) gets a failed row with the message "TypeName: message",
    and the other filters still run.  Must stay picklable at module level.
    """
    try:
        truth = generate_truth_and_observations(configs[0])
    except IntegrationError as err:
        return [_crashed_metrics(cfg, "", err, 0.0) for cfg in configs]
    rows = []
    for cfg in configs:
        tic = time.perf_counter()
        try:
            rows.append(run_metrics(run_experiment(cfg, truth=truth)))
        except Exception as err:
            rows.append(_crashed_metrics(
                cfg, truth.digest, err, time.perf_counter() - tic
            ))
    return rows


@dataclass
class McSummary:
    """All per-run rows of a sweep plus the aggregation used in reports."""

    base_seed: int
    runs_per_ic: int
    filters: tuple
    initial_conditions: tuple
    runs: list

    def completed(
        self, filter_name: str | None = None, ic_index: int | None = None
    ) -> list:
        out = []
        for row in self.runs:
            if row.failed:
                continue
            if filter_name is not None and row.filter_name != filter_name:
                continue
            if ic_index is not None and row.ic_index != ic_index:
                continue
            out.append(row)
        return out

    def aggregate(self) -> list[dict]:
        """Per (initial condition, filter) averages over completed runs."""
        rows = []
        for i in range(len(self.initial_conditions)):
            for name in self.filters:
                done = self.completed(name, i)
                failures = sum(
                    1 for r in self.runs
                    if r.failed and r.filter_name == name and r.ic_index == i
                )

                def stat(fn, key):
                    vals = [getattr(r, key) for r in done]
                    vals = [v for v in vals if np.isfinite(v)]
                    return float(fn(vals)) if vals else float("nan")

                rows.append({
                    "ic_index": i,
                    "filter": name,
                    "runs": len(done),
                    "failures": failures,
                    "avg_rmse": stat(np.mean, "rmse"),
                    "median_rmse": stat(np.median, "rmse"),
                    "avg_ness": stat(np.mean, "avg_ness"),
                    "median_ness": stat(np.median, "avg_ness"),
                    "avg_bm_ratio": stat(np.mean, "bm_ratio"),
                    "median_bm_ratio": stat(np.median, "bm_ratio"),
                    "avg_runtime": stat(np.mean, "runtime_total"),
                    **{f"avg_{attr}": stat(np.mean, attr)
                       for attr in COUNTERS},
                    "max_batches": int(
                        max((r.max_batches for r in done), default=0)
                    ),
                })
        return rows


def summary_from_rows(rows, initial_conditions=None) -> McSummary:
    """Rebuild a sweep summary from stored per-run rows.

    Readers of ``summary.csv`` only have the rows; the coordinates of the
    initial conditions are optional and default to placeholders since the
    aggregation needs just their count.
    """
    rows = list(rows)
    n_ics = max((r.ic_index for r in rows), default=-1) + 1
    if initial_conditions is None:
        initial_conditions = tuple(
            (float("nan"),) * 3 for _ in range(n_ics)
        )
    filters = tuple(
        name for name in FILTER_CODES
        if any(r.filter_name == name for r in rows)
    )
    runs_per_ic = max((r.run_index for r in rows), default=-1) + 1
    return McSummary(
        base_seed=rows[0].seed if rows else 0,
        runs_per_ic=runs_per_ic,
        filters=filters,
        initial_conditions=tuple(initial_conditions),
        runs=rows,
    )


def run_monte_carlo(
    config_template: ExperimentConfig,
    initial_conditions=None,
    runs_per_ic: int = 1,
    base_seed: int | None = None,
    filters=("pf", "npf", "var_npf"),
    jobs: int = 1,
    progress: Callable[[list, int, int], None] | None = None,
) -> McSummary:
    """Paired sweep over initial conditions, repetitions, and filters.

    Every (ic, run) pair reuses one truth across all filters; the run index
    keys the streams, so a single base seed covers the whole sweep.  Failed
    runs are kept as rows with ``failed`` set and excluded from averages.
    ``progress(rows, done, total)``, when given, is called once per
    finished (ic, run) pair, in sweep order, with that pair's rows and the
    count of pairs done out of all of them.
    """
    if initial_conditions is None:
        initial_conditions = (config_template.truth_init,)
    initial_conditions = tuple(
        tuple(float(c) for c in ic) for ic in initial_conditions
    )
    if base_seed is None:
        base_seed = config_template.seed
    filters = tuple(filters)
    for name in filters:
        if name not in FILTER_CODES:
            raise ConfigError(f"unknown filter {name!r} in sweep")
    if runs_per_ic < 1:
        raise ConfigError("runs_per_ic must be >= 1")
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")

    # one task per (ic, run) pair: its filters share one truth
    tasks = [
        tuple(
            dataclasses.replace(
                config_template,
                filter_name=name,
                truth_init=ic,
                ic_index=i,
                run_index=r,
                seed=base_seed,
            )
            for name in filters
        )
        for i, ic in enumerate(initial_conditions)
        for r in range(runs_per_ic)
    ] if filters else []

    results = []

    def collect(pairs):
        for done, rows in enumerate(pairs, 1):
            results.extend(rows)
            if progress is not None:
                progress(rows, done, len(tasks))

    if jobs == 1:
        collect(_run_pair(configs) for configs in tasks)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            collect(pool.map(_run_pair, tasks))

    return McSummary(
        base_seed=base_seed,
        runs_per_ic=runs_per_ic,
        filters=filters,
        initial_conditions=initial_conditions,
        runs=results,
    )
