"""Weighted particle ensembles and the Bayes update.

Weight arithmetic lives in log space with max subtraction; nothing here
ever multiplies raw likelihoods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sde import SMALL_ROWS

Array = np.ndarray


@dataclass(frozen=True)
class ParticleEnsemble:
    """Immutable snapshot of a weighted ensemble at one time."""

    states: Array  # (n, d), finite
    weights: Array  # (n,), nonnegative, sums to one
    time: float = 0.0

    def __post_init__(self):
        states = np.array(self.states, dtype=float)
        weights = np.array(self.weights, dtype=float)
        states.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)
        if states.ndim != 2 or states.shape[0] < 1:
            raise ValueError("states must be (n, d) with n >= 1")
        if weights.shape != (states.shape[0],):
            raise ValueError("weights must be (n,)")
        if not np.all(np.isfinite(states)):
            raise ValueError("states must be finite")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one within 1e-12")

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    @property
    def dimension(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class EnsembleMoments:
    mean: Array
    cov: Array


def quadratic_form(r: Array, matrix: Array) -> Array:
    """<r, M r> for each vector along the last axis of ``r``, M = matrix.

    One running sum over (i outer, j inner) of r_i M_ij r_j, so each row
    rounds as it would alone, however many rows are stacked; a three-operand
    einsum does not for every size.  Like an einsum, it stays silent when a
    row overflows.  On at most SMALL_ROWS rows the same sum runs on Python
    floats, which round as numpy does (see sde); a 1-d ``r`` gives a numpy
    float64 either way.
    """
    if r.size <= SMALL_ROWS * r.shape[-1]:
        m = matrix.tolist()
        sums = []
        for row in r.reshape(-1, r.shape[-1]).tolist():
            total = 0.0
            for r_i, m_i in zip(row, m):
                for m_ij, r_j in zip(m_i, row):
                    total = total + r_i * m_ij * r_j
            sums.append(total)
        return np.array(sums).reshape(r.shape[:-1])[()]
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(r.shape[-1]):
            for j in range(r.shape[-1]):
                total = total + r[..., i] * matrix[i, j] * r[..., j]
    return total


@dataclass(frozen=True)
class ObservationModel:
    """Linear observation y = H x + noise, noise ~ N(0, noise_cov)."""

    operator: Array  # (m, d)
    noise_cov: Array  # (m, m), symmetric positive definite

    def __post_init__(self):
        op = np.array(self.operator, dtype=float)
        cov = np.array(self.noise_cov, dtype=float)
        op.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "operator", op)
        object.__setattr__(self, "noise_cov", cov)
        if op.ndim != 2:
            raise ValueError("operator must be (m, d)")
        m = op.shape[0]
        if cov.shape != (m, m):
            raise ValueError("noise_cov must be (m, m)")
        if np.any(np.abs(cov - cov.T) > 1e-12):
            raise ValueError("noise_cov must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("noise_cov must be positive definite") from None
        prec = np.linalg.inv(cov)
        prec.flags.writeable = False
        object.__setattr__(self, "_noise_prec", prec)

    def observe(self, state: Array) -> Array:
        """Apply the observation operator; broadcasts over leading axes.

        A stacked one-vector product per state, so each row rounds as it
        would alone, however many rows are stacked.
        """
        state = np.asarray(state, dtype=float)
        return (state[..., None, :] @ self.operator.T)[..., 0, :]

    def log_likelihood(self, state: Array, observation: Array) -> Array:
        """log p(observation | state) up to an additive constant.

        Maximized over observations exactly at observation = H state.  Each
        row rounds as it would alone, however many rows are stacked (see
        quadratic_form).
        """
        r = np.asarray(observation, dtype=float) - self.observe(state)
        return -0.5 * quadratic_form(r, self._noise_prec)

    def neg_log_likelihood(self, state: Array, observation: Array) -> Array:
        """Quadratic misfit 0.5 <r, C^-1 r>; nonnegative, zero at r = 0."""
        return -self.log_likelihood(state, observation)

    def nll_gradient(self, state: Array, observation: Array) -> Array:
        """Gradient of neg_log_likelihood with respect to the state; a
        stacked one-vector product per row, like observe."""
        r = np.asarray(observation, dtype=float) - self.observe(state)
        r = r[..., None, :]
        return -((r @ self._noise_prec) @ self.operator)[..., 0, :]


def effective_sample_size(weights: Array) -> float:
    """1 / <w, w> for normalized weights.

    Rejects unnormalized input rather than silently rescaling it: an ESS
    computed from unnormalized weights is meaningless.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-8:
        raise ValueError("weights must be normalized")
    return 1.0 / float(np.dot(w, w))


def bayes_reweight(
    ensemble: ParticleEnsemble,
    observation: Array,
    obs_model: ObservationModel,
    extra_factors: Array | None = None,
) -> tuple[ParticleEnsemble, bool]:
    """Multiply weights by observation likelihoods, in log space.

    ``extra_factors`` are optional per-particle nonnegative multipliers
    (e.g. change-of-measure weights).  Returns (ensemble, collapsed); on
    collapse (every unnormalized weight zero) the weights are reset to
    uniform so the filter can continue, and the caller records the event.
    """
    w = ensemble.weights
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
        if extra_factors is None:
            log_extra = np.zeros_like(log_w)
        else:
            extra = np.asarray(extra_factors, dtype=float)
            if extra.shape != w.shape:
                raise ValueError("extra_factors must be (n,)")
            if np.any(extra < 0.0) or not np.all(np.isfinite(extra)):
                raise ValueError("extra_factors must be finite and nonnegative")
            log_extra = np.log(extra)
    log_lik = obs_model.log_likelihood(ensemble.states, observation)
    log_unnorm = log_w + log_lik + log_extra
    log_unnorm = np.where(np.isnan(log_unnorm), -np.inf, log_unnorm)

    finite = np.isfinite(log_unnorm)
    if not np.any(finite):
        n = ensemble.n_particles
        uniform = np.full(n, 1.0 / n)
        return (
            ParticleEnsemble(ensemble.states, uniform, ensemble.time),
            True,
        )
    shifted = np.exp(log_unnorm - log_unnorm[finite].max())
    new_w = shifted / shifted.sum()
    return ParticleEnsemble(ensemble.states, new_w, ensemble.time), False


def systematic_offspring_counts(weights: Array, u: float) -> Array:
    """Offspring counts from a single uniform draw.

    Stratum k looks at position (u + k) / n in the cumulative weight
    profile, so ancestor i gets the strata k with n C_{i-1} <= u + k <
    n C_i.  Counts always land in {floor(n w), ceil(n w)} per ancestor
    and average to n w over u.
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    expected = n * w
    whole = np.floor(expected)
    # the whole parts are counted exactly and only the fractional parts
    # are accumulated, so cumulative rounding cannot take an ancestor
    # below floor(n w) or give one with a whole n w an extra offspring (a
    # plain cumsum of w could, when u sits on the stratum lattice); the
    # clip keeps the profile monotone under the exact total
    reach = np.cumsum(expected - whole)
    reach[-1] = n - whole.sum()
    reach = np.minimum(reach, reach[-1])
    hits = np.ceil(reach - u)
    return (whole + np.diff(hits, prepend=0.0)).astype(np.intp)


def systematic_resample(ensemble: ParticleEnsemble, u: float) -> ParticleEnsemble:
    """Resample with systematic strata; output weights are uniform."""
    counts = systematic_offspring_counts(ensemble.weights, u)
    states = np.repeat(ensemble.states, counts, axis=0)
    n = ensemble.n_particles
    return ParticleEnsemble(states, np.full(n, 1.0 / n), ensemble.time)


def empirical_moments(ensemble: ParticleEnsemble) -> EnsembleMoments:
    """Weighted mean and covariance (no small-sample correction)."""
    w = ensemble.weights
    states = ensemble.states
    mean = w @ states
    centered = states - mean
    cov = (w[:, None] * centered).T @ centered
    return EnsembleMoments(mean=mean, cov=cov)
