"""Limiting spectra of correlated Gaussian block matrices.

Covariance specs induce linear maps on block-index matrices; fixed-point
and Newton solvers produce the matrix-valued Cauchy transforms; Stieltjes
inversion turns transform grids into densities, CDFs, moments and channel
capacity; a seeded finite-size Monte Carlo oracle and a non-crossing
pairing moment recursion verify everything independently.
"""

from . import errors
from .covariance import (
    CovarianceSpec,
    EtaMap,
    choi_matrix,
    eta1_map,
    eta2_map,
    eta_alpha_map,
    eta_apply,
    eta_map,
    hermitize_covariance,
    hh_star_covariance,
    isi_covariance,
    rectangular_covariance,
    selfadjoint_covariance,
    validate_covariance,
)
from .nonsep import (
    CorrelationFamily,
    FadingSolution,
    build_nonsep_eta,
    fading_density,
    hermitized_eta,
    solve_fading,
    solve_fading_block,
    validate_family,
)
from .oracle import (
    EnsembleSample,
    empirical_spectrum,
    histogram,
    ks_distance,
    nc2_moment,
    sample_block_gaussian,
)
from .solver import (
    CauchySolution,
    HHStarSolution,
    MomentEstimates,
    SolverConfig,
    max_im_eigenvalue,
    moment_check,
    newton_refine,
    solve_fixed_point,
    solve_grid,
    solve_hh_star,
    solve_hh_star_direct,
    solve_hh_star_grid,
)
from .spectrum import (
    SpectralDensity,
    capacity,
    cdf,
    check_mass,
    density_from_eta,
    density_gram,
    density_h_star_h,
    density_hh_star,
    mass,
    moments_from_density,
    stieltjes_invert,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
