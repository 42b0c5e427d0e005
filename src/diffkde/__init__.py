"""Kernel density estimation via spectral smoothing and linear diffusion,
with fixed-point plug-in bandwidth selection in one and two dimensions.

The package exports the selectors, estimators and samplers, the grid and
histogram types with their binning and quadrature, and the benchmark
harness.  Stage internals stay attributes of their modules.
"""

from .bandwidth import isj_select, sj_normal_ref_select
from .comparators import abramson_estimate, hall_park_estimate, lscv_select, sinc_kde
from .diffusion import build_pilot, diffusion_pipeline, euler_sample, solve_diffusion
from .grids import BinnedHistogram, DensityEstimate1D, Grid1D, bin_linear, integrate, make_grid
from .kde1d import gauss_kde_exact, gauss_kde_spectral, theta_sample
from .kde2d import (
    DensityEstimate2D,
    DomainMask,
    Grid2D,
    bin_linear_2d,
    gauss_kde_2d,
    integrate_2d,
    isj2d_select,
    make_grid_2d,
    normal_ref_2d_select,
    solve_heat_masked,
)
from .testbed import case_grid, ise, registry, run_benchmark

__version__ = "0.1.0"
