"""Numerical laboratory for resonances of 1-D Schrodinger operators with
compactly supported potentials, and for the entire-function machinery
(Fourier transforms, zero scans, truncated canonical products) built on them.
"""

from .dickson import (
    CurvilinearCount, DicksonGeometry, ExpPolynomial, ExpTerm, SideData,
    StripData, containment_exceptions, curvilinear_count, dickson_geometry,
    model_zeros, recommended_H, recommended_alpha0, strip_membership,
    two_cosine_model,
)
from .hadamard import (
    ContourCountError, ConvergenceCurve, ProductOverflowError, StabilityRow,
    StabilityTable, TruncatedProduct, build_product, convergence_curve,
    count_difference, eval_product, fit_prefactor, mirrored_reconstruction,
    perturb_zeros, stability_experiment, tail_factor,
)
from .ftransform import (
    ExpansionResult, asymptotic_residual, conj_symmetry_residual,
    erdelyi_expansion, fourier_many, pair_function,
)
from .potential import (
    Potential, make_poly_bump, make_truncated_gaussian, load_table,
)
from .quadrature import QuadratureError, adaptive_quadrature
from .rootscan import (
    BoundaryZeroError, MatchResult, Rectangle, RootScanError, ZeroSet,
    locate_zeros, match_zero_sets, wind_count,
)
from .scatter import (
    FroeseComparison, FroesePair, JostData, JostIntegrationError,
    ScatteringMatrix, froese_compare, jost_solve, resonances,
    scattering_matrix, spectral_resonances, xhat_function,
)
from .cli import SUBCOMMANDS, ExperimentConfig, run_subcommand

__version__ = "0.1.0"
