"""Exact coverage analysis for networks scheduled by determinantal processes.

The library models slotted medium access in which the set of transmitters
active in a slot is a draw from a discrete determinantal point process.
Determinantal structure makes the usual intractable quantities exact:
SINR coverage probabilities, conditional coverage given a node transmits,
and the full local-delay law all reduce to small determinants.

Layout:

- kernels: marginal kernels, L-ensembles, builders, validation
- dpp: probabilities, Palm conditioning, kernel scaling, sampling
- propagation: geometry, path loss, fading, SINR bookkeeping
- coverage: closed-form coverage and delay reports
- montecarlo: simulation cross-checks for every closed form
- cli: JSON-config command-line front end

rng holds the seed-substream and fading-draw conventions both the
simulator and the CLI rely on for reproducibility.
"""

from .coverage import (
    CoverageReport,
    LinkReport,
    LocalDelay,
    conditional_pair_coverage,
    coverage_kernel,
    full_report,
    kernel_fingerprint,
    local_delay,
    min_coverage_for_success,
    pair_coverage,
    txrx_conditional_coverage,
    txrx_coverage,
)
from .dpp import (
    PalmKernel,
    exact_pmf,
    inclusion_probability,
    laplace_functional,
    palm_reduced,
    palm_retained,
    palm_semi_reduced,
    sample,
    sample_mask,
    scale_kernel,
    subset_probability,
)
from .errors import (
    AlwaysScheduledReceiver,
    BadArgument,
    BadFunction,
    BadScaling,
    BadSpec,
    BadSubset,
    ConfigError,
    DegenerateSignal,
    DetschedError,
    EnumerationTooLarge,
    IncompleteFading,
    KernelInvalid,
    MalformedConfig,
    NeverScheduled,
    NormalizationOverflow,
    NotLRepresentable,
    SameNode,
    SingularDistance,
)
from .kernels import (
    AlohaSpec,
    ExplicitLSpec,
    ExplicitMarginalSpec,
    GaussianSpec,
    LEnsemble,
    MarginalKernel,
    QualitySimilaritySpec,
    ValidationReport,
    build_K,
    build_L,
    k_to_l,
    l_to_k,
    validate,
)
from .montecarlo import (
    DelayEstimate,
    Estimate,
    SimulationPlan,
    simulate_local_delay,
    simulate_pair_coverage,
    simulate_txrx,
)
from .propagation import (
    NetworkGeometry,
    PowerLawPathLoss,
    PropagationParams,
    TabulatedPathLoss,
    interferer_factor,
    noise_factor,
    pair_coverage_fixed,
    path_loss,
    sinr,
)
from .rng import exponential_fading, substream

__version__ = "0.1.0"

__all__ = [
    "AlohaSpec",
    "AlwaysScheduledReceiver",
    "BadArgument",
    "BadFunction",
    "BadScaling",
    "BadSpec",
    "BadSubset",
    "ConfigError",
    "CoverageReport",
    "DegenerateSignal",
    "DelayEstimate",
    "DetschedError",
    "EnumerationTooLarge",
    "Estimate",
    "ExplicitLSpec",
    "ExplicitMarginalSpec",
    "GaussianSpec",
    "IncompleteFading",
    "KernelInvalid",
    "LEnsemble",
    "MalformedConfig",
    "LinkReport",
    "LocalDelay",
    "MarginalKernel",
    "NetworkGeometry",
    "NeverScheduled",
    "NormalizationOverflow",
    "NotLRepresentable",
    "PalmKernel",
    "PowerLawPathLoss",
    "PropagationParams",
    "QualitySimilaritySpec",
    "SameNode",
    "SimulationPlan",
    "SingularDistance",
    "TabulatedPathLoss",
    "ValidationReport",
    "build_K",
    "build_L",
    "conditional_pair_coverage",
    "coverage_kernel",
    "exact_pmf",
    "exponential_fading",
    "full_report",
    "inclusion_probability",
    "interferer_factor",
    "k_to_l",
    "kernel_fingerprint",
    "l_to_k",
    "laplace_functional",
    "local_delay",
    "min_coverage_for_success",
    "noise_factor",
    "pair_coverage",
    "pair_coverage_fixed",
    "palm_reduced",
    "palm_retained",
    "palm_semi_reduced",
    "path_loss",
    "sample",
    "sample_mask",
    "scale_kernel",
    "simulate_local_delay",
    "simulate_pair_coverage",
    "simulate_txrx",
    "sinr",
    "subset_probability",
    "substream",
    "txrx_conditional_coverage",
    "txrx_coverage",
    "validate",
    "__version__",
]
