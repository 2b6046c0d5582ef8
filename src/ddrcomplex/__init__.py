"""Arbitrary-order discrete de Rham complexes on 3D polyhedral meshes.

Build the four discrete spaces and their gradient/curl/divergence operators
at any polynomial degree, identify the degree-0 complex with the mesh's CW
cochain complex, compute exact Betti numbers and cohomology generators, lift
the generators to any degree through extension maps, and certify the whole
construction with a named battery of numerical checks.

Importing the package loads none of its modules: each public name and each
submodule is imported on first access (PEP 562), so loading and orienting a
mesh compiles ``errors`` and ``mesh`` alone.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "errors": ("BasisRankError", "CertificationError", "ConditioningError", "DdrError",
               "DomainError", "GeometryError", "InputError", "MeshFormatError",
               "MeshReferenceError", "MeshTopologyError", "QuadratureDegreeError"),
    "homology": ("BettiVector", "CochainComplexInt", "betti_numbers", "build_cochain_complex",
                 "cohomology_generators", "integer_rank"),
    "layouts": ("DofLayout",),
    "lifting": ("ExtensionMaps", "LiftedGenerators", "lift_generators", "reduction_matrix",
                "zero_reduction_basis"),
    "mesh": ("Mesh", "OrientationTable", "build_voxel_mesh", "builtin_pattern",
             "compute_orientation", "load_mesh", "mesh_from_document", "mesh_to_document",
             "parse_pattern_text", "save_mesh"),
    "operators": ("DdrComplex", "ddr0_closed_forms"),
    "quadrature": ("QuadratureRule",),
    "spaces": ("space_dim",),
    "verification": ("CheckResult", "RankOptions", "RankResult", "VerificationReport",
                     "corrupt_orientation", "numeric_rank", "run_all"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "monomials", "sparse", "vtkio"})

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
