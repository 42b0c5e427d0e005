"""Kernel density estimation via spectral smoothing and linear diffusion,
with fixed-point plug-in bandwidth selection in one and two dimensions.
"""

from .bandwidth import (
    BandwidthReport,
    functional_norm,
    gamma_chain,
    gaussian_reference_norm,
    isj_select,
    sj_normal_ref_select,
    stage_t,
)
from .comparators import (
    LscvResult,
    abramson_estimate,
    hall_park_estimate,
    lscv_select,
    sinc_kde,
)
from .diffusion import (
    DiffusionSolution,
    PilotModel,
    asymptotic_kernel,
    build_pilot,
    csiszar_divergence,
    diffusion_pipeline,
    diffusion_t_star,
    euler_sample,
    feller_explosion_check,
    lf_norm,
    sigma_inv_mean,
    solve_diffusion,
)
from .grids import (
    BinnedHistogram,
    DensityEstimate1D,
    Grid1D,
    bin_linear,
    cosine_moments,
    cosine_synthesis,
    integrate,
    make_grid,
    trapezoid_weights,
)
from .kde1d import (
    gauss_kde_exact,
    gauss_kde_spectral,
    mode_count,
    theta_kernel,
    theta_kernel_cosine,
    theta_kernel_images,
    theta_sample,
)
from .kde2d import (
    BinnedHistogram2D,
    DensityEstimate2D,
    DomainMask,
    Grid2D,
    bin_linear_2d,
    gamma_2d,
    gauss_kde_2d,
    integrate_2d,
    isj2d_select,
    make_grid_2d,
    normal_ref_2d_select,
    psi_hat,
    solve_heat_masked,
    t_stage_2d,
)
from .testbed import (
    BenchmarkResult,
    GaussianMixture,
    METHODS,
    case_grid,
    ise,
    registry,
    run_benchmark,
)

__version__ = "0.1.0"
