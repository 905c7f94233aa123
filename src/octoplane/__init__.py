"""Harmonic analysis on the octonionic hyperbolic plane.

A numpy library (plus the ``octoplane-verify`` batch CLI) implementing the
computational objects of analysis on the unit ball of O^2: the octonion
algebra, the boundary forms and non-isotropic metric, Poisson and Szego
kernels, generalized spherical functions, the spectral density factor
c(lambda), Hardy-type and L^2-weighted norms, boundary inversion, and the
Calderon-Zygmund estimate harness that verifies the uniform kernel bounds
numerically.
"""

from .errors import NumericsError
from .octonion import (
    FANO_TRIPLES,
    basis,
    oct_conj,
    oct_inv,
    oct_mul,
    oct_norm,
    oct_norm_sq,
)
from .geometry import (
    E1,
    JordanMatrix,
    ball_volume_est,
    ball_volume_quadrature,
    boundary_embed,
    bracket,
    dist_to_e1,
    jordan_embed,
    jordan_product,
    ni_dist,
    pair,
    phi_form,
    psi_form,
    unit_rotation,
)
from .special import (
    RHO,
    KTypeIndex,
    gauss_2f1,
    hc_c_function,
    log_gamma,
    pochhammer,
    spherical_fn,
    spherical_fn_scaled,
)
from .quadrature import (
    C_ZONAL,
    S15,
    QuadratureSpec,
    ball_integrate,
    sample_sphere,
    sphere_average,
    zonal_integrate,
)
from .poisson import (
    BoundaryConstant,
    CZReport,
    EigenProfile,
    HardyNormResult,
    M2Result,
    OperatorNormResult,
    boundary_recover_gt,
    cz_suite,
    hardy_norm,
    m2_norm,
    operator_norm_est,
    poisson_kernel,
    poisson_kernel_lambda,
    poisson_transform,
    szego_kernel,
    szego_matrix,
)

__version__ = "0.1.0"
