"""Particle filtering with feedback nudging and variational guidance.

The package benchmarks three sequential Monte Carlo filters on the
stochastic Lorenz-63 system: the bootstrap filter, a nudged filter whose
particles steer toward the next observation under a change-of-measure
weight correction, and a variant that steers toward pseudo observations of
a variationally fitted state instead.
"""

__version__ = "0.1.0"

from .bootstrap_pf import RunContext, pf_assimilation_cycle
from .diagnostics import CycleDiagnostics, CycleFailure
from .ensemble import (
    EnsembleMoments,
    ObservationModel,
    ParticleEnsemble,
    bayes_reweight,
    effective_sample_size,
    empirical_moments,
    systematic_resample,
)
from .harness import (
    BENCHMARK_ICS,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    McSummary,
    ModelConfig,
    RunMetrics,
    TruthData,
    average_bm_ratio,
    average_posterior_ness,
    compute_rmse,
    generate_truth_and_observations,
    run_experiment,
    run_metrics,
    run_monte_carlo,
    summary_from_rows,
)
from .nudging import (
    ControlEstimate,
    NudgingConfig,
    adaptive_control,
    estimate_phi_grad,
    feedback_control,
    npf_assimilation_cycle,
    nudging_bm_ratio,
    rn_log_increment,
)
from .sde import (
    IntegrationError,
    L63Params,
    SdeModel,
    advect_particles,
    integrate_path,
    l63_drift,
    l63_jacobian,
    lorenz63,
    sample_brownian_path,
)
from .var_npf import VarNpfSettings, var_npf_assimilation_cycle
from .variational import (
    PseudoObservationPath,
    VariationalProblem,
    VariationalResult,
    build_pseudo_path,
    minimize_cost,
    regularize_covariance,
    variational_cost,
    variational_gradient,
)
