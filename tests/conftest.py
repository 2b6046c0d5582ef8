"""Shared fixtures: builtin meshes and cached operator assemblies.

The heavyweight objects (DdrComplex instances, extension maps) are cached
per (mesh, degree) for the whole session; they are immutable after
construction, so sharing is safe.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import reject, settings, strategies as st

from ddrcomplex import (
    DdrComplex,
    ExtensionMaps,
    InputError,
    build_voxel_mesh,
    builtin_pattern,
    compute_orientation,
    mesh_to_document,
)

# Property tests draw the same examples on every run, with bounded cost.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=10)
settings.load_profile("tier1")

_MESHES = {}
_COMPLEXES = {}
_EXTENSIONS = {}


def mesh_and_orientation(name):
    """A builtin voxel mesh, or "graded": the graded 3x3x3 block with a cavity."""
    if name not in _MESHES:
        if name == "graded":
            _MESHES[name] = graded_block(3, cavity=True)
        else:
            mesh = build_voxel_mesh(builtin_pattern(name))
            _MESHES[name] = (mesh, compute_orientation(mesh))
    return _MESHES[name]


# grid-line spacings of the graded blocks, one list per axis
_GRADED_SPACINGS = ([0.77, 0.81, 1.39], [1.47, 1.16, 0.54], [0.83, 0.85, 1.07])


def graded_block(n, cavity=False):
    """An n x n x n block of hexahedra (n <= 3) on graded grid lines, with
    the central cell removed if ``cavity``: every element differs in shape
    from its neighbours."""
    pattern = np.ones((n, n, n), dtype=bool)
    if cavity:
        pattern[n // 2, n // 2, n // 2] = False
    mesh = build_voxel_mesh(pattern)
    lines = [np.concatenate([[0.0], np.cumsum(s[:n])]) for s in _GRADED_SPACINGS]
    grid = np.rint(mesh.vertices).astype(int)
    vertices = np.stack([lines[ax][grid[:, ax]] for ax in range(3)], axis=1)
    mesh = dataclasses.replace(mesh, vertices=vertices)
    return mesh, compute_orientation(mesh)


def complex_for(name, degree):
    key = (name, degree)
    if key not in _COMPLEXES:
        mesh, orient = mesh_and_orientation(name)
        _COMPLEXES[key] = DdrComplex(mesh, orient, degree)
    return _COMPLEXES[key]


def extensions_for(name, degree):
    key = (name, degree)
    if key not in _EXTENSIONS:
        _EXTENSIONS[key] = ExtensionMaps(complex_for(name, degree), complex_for(name, 0))
    return _EXTENSIONS[key]


def dense_rank_raise(incoming, vectors) -> tuple[int, int]:
    """The dense reference for lifted generators: the rank of
    ``[incoming | vectors...]`` and the rank of ``incoming`` plus the number
    of vectors, equal when they are independent modulo its image."""
    image = incoming.toarray()
    return (int(np.linalg.matrix_rank(np.column_stack([image, *vectors]))),
            int(np.linalg.matrix_rank(image)) + len(vectors))


@st.composite
def voxel_patterns(draw):
    """Blocks of at most 3x3x2 cells, some of them 3x3 slabs with the
    through-column (1, 1, :) removed (a tunnel: b1 = 1), with up to four
    more cells removed, kept when still face-connected (so that
    ``build_voxel_mesh`` accepts them)."""
    tunnel = draw(st.booleans())
    shape = ((3, 3) if tunnel else (draw(st.integers(1, 3)), draw(st.integers(1, 3)))) + \
        (draw(st.integers(1, 2)),)
    pattern = np.ones(shape, dtype=bool)
    if tunnel:
        pattern[1, 1, :] = False
    cells = [tuple(c) for c in np.argwhere(pattern)]
    for cell in draw(st.lists(st.sampled_from(cells), max_size=4, unique=True)):
        pattern[cell] = False
    try:
        build_voxel_mesh(pattern)
    except InputError:
        reject()
    return pattern


# Defects of a mesh document, each with the MeshFormatError message it raises.
MALFORMED = {
    "fractional face index": r"face 0: index \d+\.5 is not an integer",
    "fractional element index": r"element 0: index \d+\.5 is not an integer",
    "null face index": "face 2: index None is not an integer",
    "string element index": "element 0: index '0' is not an integer",
    "boolean face index": "face 0: index True is not an integer",
    "faces not a list": "'faces' must be a list of index lists",
    "elements not index lists": "'elements' must be a list of index lists",
    "nan coordinate": "vertex coordinates must be finite",
    "infinite coordinate": "vertex coordinates must be finite",
}


def malformed_cube_document(case):
    """The builtin cube's mesh document with the one defect named by ``case``."""
    doc = mesh_to_document(build_voxel_mesh(builtin_pattern("cube")))
    if case == "fractional face index":
        doc["faces"][0][1] += 0.5       # int() would truncate it to a valid index
    elif case == "fractional element index":
        doc["elements"][0][5] += 0.5
    elif case == "null face index":
        doc["faces"][2][0] = None
    elif case == "string element index":
        doc["elements"][0][0] = "0"
    elif case == "boolean face index":
        doc["faces"][0][0] = True
    elif case == "faces not a list":
        doc["faces"] = 5
    elif case == "elements not index lists":
        doc["elements"] = [5]
    elif case == "nan coordinate":
        doc["vertices"][3][2] = float("nan")
    elif case == "infinite coordinate":
        doc["vertices"][0][0] = float("inf")
    else:
        raise ValueError(case)
    return doc


# Elements whose boundary is not one closed surface, each with the MeshTopologyError
# message it raises.
OPEN_ELEMENTS = {
    "repeated face": "^element 0: face 0 is listed twice$",
    "dropped shared face": r"^element 0: edge 4 \(vertices 1, 4\) lies on 1 of its faces, not 2$",
    "disconnected boundary": r"^element 0: boundary is not connected \(face 11 shares no chain "
                             r"of edges with face 0\)$",
}


def open_element_document(case):
    """A mesh document with the open element named by ``case``: the builtin
    cube with face 0 listed twice, or a 1x1x2 voxel pair whose lower element
    drops the face it shares with the upper one, or a 1x1x3 voxel column whose
    two end cells form one element (two closed surfaces), the middle cell
    the other."""
    if case == "repeated face":
        doc = mesh_to_document(build_voxel_mesh(builtin_pattern("cube")))
        doc["elements"][0].append(0)
    elif case == "dropped shared face":
        doc = mesh_to_document(build_voxel_mesh(np.ones((1, 1, 2), dtype=bool)))
        lower, upper = doc["elements"]
        doc["elements"][0] = [f for f in lower if f not in upper]
    elif case == "disconnected boundary":
        doc = mesh_to_document(build_voxel_mesh(np.ones((1, 1, 3), dtype=bool)))
        bottom, middle, top = doc["elements"]
        doc["elements"] = [bottom + top, middle]
    else:
        raise ValueError(case)
    return doc


@pytest.fixture(scope="session")
def cube():
    return mesh_and_orientation("cube")


@pytest.fixture(scope="session")
def ring():
    return mesh_and_orientation("ring")


@pytest.fixture(scope="session")
def cavity():
    return mesh_and_orientation("cavity")
