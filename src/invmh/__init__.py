"""Involutive Metropolis-Hastings: accept-reject kernels built from an
involution on extended phase space, the sampler families they unify, and
the diagnostics that verify their structure numerically."""

__version__ = "0.1.0"

from .core import (
    AuxiliaryKernel,
    ChainResult,
    ConfigurationError,
    ExtendedPoint,
    IntegrationError,
    Involution,
    InvolutiveKernel,
    StepResult,
    TargetPotential,
    accept_prob,
    classic_mh_kernel,
    generic_log_rn,
    involution_from_proposal_map,
    mh_step,
    mixture_step,
    run_chain,
)
from .gaussian import SpectralGaussian, power_law_eigenvalues
from .integrators import (
    DivergenceError,
    FixedPointError,
    check_reversibility,
    drift,
    euler_a_step,
    euler_b_step,
    fixed_point_solve,
    kick,
    leapfrog,
    momentum_flip,
    numerical_logdet_jacobian,
    palindromic_compose,
    rotation,
    stormer_verlet,
    strang_hilbert,
)
from .finite_dim import (
    HmcConfig,
    PositionMetric,
    SamplerError,
    diagonal_quadratic_metric,
    gaussian_jump,
    gaussian_momentum,
    hmc,
    mala,
    mala_log_accept_ratio,
    relativistic_hmc,
    rmhmc,
    rwmc,
    surrogate_hmc,
)
from .hilbert import (
    AuxLaw,
    HilbertTarget,
    gen_langevin,
    hilbert_log_rn,
    inf_hmc,
    inf_mala,
    langevin_log_accept_ratio,
    leapfrog_refinement_probe,
    pcn,
    rho_from_delta,
)
from .diagnostics import (
    ChainSummary,
    detailed_balance_test,
    ess,
    moment_check,
    summarize_chain,
    transition_pairs,
)
