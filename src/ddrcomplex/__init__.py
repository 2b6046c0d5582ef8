"""Arbitrary-order discrete de Rham complexes on 3D polyhedral meshes.

Build the four discrete spaces and their gradient/curl/divergence operators
at any polynomial degree, identify the degree-0 complex with the mesh's CW
cochain complex, compute exact Betti numbers and cohomology generators, lift
the generators to any degree through extension maps, and certify the whole
construction with a named battery of numerical checks.
"""

from .errors import (
    BasisRankError,
    CertificationError,
    ConditioningError,
    DdrError,
    DomainError,
    GeometryError,
    InputError,
    MeshFormatError,
    MeshReferenceError,
    MeshTopologyError,
    QuadratureDegreeError,
)
from .homology import (
    BettiVector,
    CochainComplexInt,
    betti_numbers,
    build_cochain_complex,
    cohomology_generators,
    integer_rank,
)
from .layouts import DofLayout
from .lifting import (
    ExtensionMaps,
    LiftedGenerators,
    lift_generators,
    reduction_matrix,
    zero_reduction_basis,
)
from .mesh import (
    Mesh,
    OrientationTable,
    build_voxel_mesh,
    builtin_pattern,
    compute_orientation,
    load_mesh,
    mesh_from_document,
    mesh_to_document,
    parse_pattern_text,
    save_mesh,
)
from .operators import DdrComplex, ddr0_closed_forms
from .quadrature import QuadratureRule
from .spaces import space_dim
from .verification import (
    CheckResult,
    RankOptions,
    RankResult,
    VerificationReport,
    corrupt_orientation,
    numeric_rank,
    run_all,
)

__version__ = "0.1.0"

__all__ = [
    "BasisRankError", "BettiVector", "CertificationError", "CheckResult",
    "CochainComplexInt", "ConditioningError", "DdrComplex", "DdrError",
    "DofLayout", "DomainError", "ExtensionMaps", "GeometryError",
    "InputError", "LiftedGenerators", "Mesh", "MeshFormatError",
    "MeshReferenceError", "MeshTopologyError", "OrientationTable",
    "QuadratureDegreeError", "QuadratureRule", "RankOptions", "RankResult",
    "VerificationReport", "betti_numbers", "build_cochain_complex",
    "build_voxel_mesh", "builtin_pattern", "cohomology_generators",
    "compute_orientation", "corrupt_orientation", "ddr0_closed_forms",
    "integer_rank", "lift_generators", "load_mesh", "mesh_from_document",
    "mesh_to_document", "numeric_rank", "parse_pattern_text",
    "reduction_matrix", "run_all", "save_mesh", "space_dim",
    "zero_reduction_basis",
]
