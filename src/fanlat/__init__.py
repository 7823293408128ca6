"""fanlat: exact lattice invariants of rational fans.

Computes the sublattice generated by a fan's rays, the lattice of
integer relations among them, star-local relation lattices through
quotient fans, the codimension filtration with its local generation
check and constructive decomposition, and stellar-subdivision
experiments on filtration depths. All arithmetic is exact.
"""

from .corpus import CatalogEntry, catalog, catalog_entry
from .errors import (EnumerationLimitError, FanFileError, FanlatError,
                     FanValidationError, InternalCheckError, NotARelationError,
                     NotCompleteError, NotLocallyGeneratedError, NotSimplicialError)
from .fan import (ConeRef, Fan, QuotientFan, apply_unimodular, build_fan,
                  is_complete, localize, primitive, star)
from .fanio import dump_report, fan_from_dict, fan_to_dict, load_fan, save_fan
from .filtration import (Decomposition, FiltrationProfile, GenerationReport,
                         check_generation, depth, filtration, local_decompose)
from .intlin import (IntMatrix, Sublattice, coefficients_in, hnf, integer_kernel,
                     lattice_equal, lattice_sum, matrix_rank, member,
                     member_by_enumeration, saturation, snf, solve_columns,
                     sublattice_index, xgcd)
from .lattices import (ClassGroup, RayLattice, RelLattice, SupportPolicy,
                       class_group, ray_lattice, rel_lattice, rel_lattice_internal,
                       rel_lattice_localized, rel_lattice_star)
from .refine import (DepthRecord, SubdivisionTrace, conjecture_scan,
                     random_stellar_draw, refinement_injection, stellar_subdivide)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry", "catalog", "catalog_entry",
    "EnumerationLimitError", "FanFileError", "FanlatError", "FanValidationError",
    "InternalCheckError", "NotARelationError", "NotCompleteError",
    "NotLocallyGeneratedError", "NotSimplicialError",
    "ConeRef", "Fan", "QuotientFan", "apply_unimodular", "build_fan",
    "is_complete", "localize", "primitive", "star",
    "dump_report", "fan_from_dict", "fan_to_dict", "load_fan", "save_fan",
    "Decomposition", "FiltrationProfile", "GenerationReport",
    "check_generation", "depth", "filtration", "local_decompose",
    "IntMatrix", "Sublattice", "coefficients_in", "hnf", "integer_kernel",
    "lattice_equal", "lattice_sum", "matrix_rank", "member",
    "member_by_enumeration", "saturation", "snf", "solve_columns",
    "sublattice_index", "xgcd",
    "ClassGroup", "RayLattice", "RelLattice", "SupportPolicy",
    "class_group", "ray_lattice", "rel_lattice", "rel_lattice_internal",
    "rel_lattice_localized", "rel_lattice_star",
    "DepthRecord", "SubdivisionTrace", "conjecture_scan",
    "random_stellar_draw", "refinement_injection", "stellar_subdivide",
    "__version__",
]
