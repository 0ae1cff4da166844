"""orbindex: orbifold, equivariant-Lefschetz and localized indices on
explicit global-quotient models, cross-verified by exact oracles and
heat-kernel quadrature."""

from .engine import (
    IndexReport,
    equivariant_lefschetz,
    finite_assembly,
    kawasaki_index,
    localized_index,
    psc_flag,
    sum_identity,
)
from .exactnum import Cyclo, Scalars
from .groups import (
    AffineIsometry,
    ConjugacyClassHandle,
    CrystGroup,
    FiniteGroupTable,
    centralizer,
    conjugate_test,
    enumerate_classes_finite,
    fixed_set,
)
from .group_algebra import GroupAlgebraElement, convolve, delta, l1_norm, localized_trace, rho
from .heat import QuadratureSpec, g_heat_trace, mckean_singer_compare, orbital_integral_euclidean, t_independence
from .sectors import (
    BundleSpec,
    QuotientModel,
    build_cutoff,
    enumerate_sectors,
    fixed_set_cutoff,
    sphere_model,
    square_torus_rotation_model,
    wallpaper_model,
)

__version__ = "0.1.0"

__all__ = [
    "AffineIsometry", "BundleSpec", "ConjugacyClassHandle", "CrystGroup",
    "Cyclo", "FiniteGroupTable", "GroupAlgebraElement", "IndexReport",
    "QuadratureSpec", "QuotientModel", "Scalars", "build_cutoff", "centralizer",
    "conjugate_test", "convolve", "delta", "enumerate_classes_finite",
    "enumerate_sectors", "equivariant_lefschetz", "finite_assembly",
    "fixed_set", "fixed_set_cutoff", "g_heat_trace", "kawasaki_index",
    "l1_norm", "localized_index", "localized_trace",
    "mckean_singer_compare", "orbital_integral_euclidean", "psc_flag", "rho",
    "sphere_model", "square_torus_rotation_model",
    "sum_identity", "t_independence", "wallpaper_model",
]
