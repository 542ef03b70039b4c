"""Finite-volume Anderson-model simulator and verification suite for
central-limit statistics of linear eigenvalue functionals."""

from .dists import Gaussian, SiteDistribution, TwoPoint, Uniform, rademacher
from .lattice import (
    DisorderField,
    Hamiltonian,
    LatticeCube,
    assemble_hamiltonian,
    enumerate_cube,
    interior_cube,
    nested_disorder,
    sample_disorder,
    scale_sites,
    spectrum_support,
)
from .spectral import (
    EigenDecomposition,
    chain_arctan_traces,
    eig_sym,
    eigenvalues_sym,
    hellmann_feynman_check,
    spectral_diagonal,
    trace_function,
)
from .testfuncs import (
    Polynomial,
    SmoothFunction,
    bernstein_approx,
    catalog,
    chebyshev_approx,
)
from .walks import (
    WalkPolynomial,
    carleman_radius,
    dos_moment,
    growth_check,
    modified_moment,
    moment_bound_check,
    moment_polynomial,
)
from .measures import (
    EmpiricalDistribution,
    MeasureEstimate,
    derivative_sq_norm_mc,
    empirical_ids,
    ids_moment_convergence,
    modified_dos_integral_mc,
    modified_dos_moment_exact,
    modified_dos_moment_mc,
    modified_dos_poly_integral_exact,
)
from .clt import (
    EnumerationEngine,
    FiltrationPlan,
    SampleSet,
    VarianceReport,
    approx_variance_convergence,
    directional_decomposition,
    exact_variance,
    martingale_decomposition,
    normality_test,
    normality_thresholds,
    positivity_check,
    sample_centered_traces,
    variance_bound_check,
    variance_estimate,
    variance_scan,
)

__version__ = "0.1.0"
