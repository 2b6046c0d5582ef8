"""Voxel meshes, file round-trips, validation errors, orientation invariants."""

import json

import numpy as np
import pytest

from ddrcomplex import (
    GeometryError,
    MeshFormatError,
    MeshReferenceError,
    MeshTopologyError,
    InputError,
    build_voxel_mesh,
    builtin_pattern,
    compute_orientation,
    load_mesh,
    mesh_from_document,
    mesh_to_document,
    parse_pattern_text,
    save_mesh,
)

from conftest import MALFORMED, malformed_cube_document, mesh_and_orientation


def brute_force_voxel_counts(pattern):
    """Independent oracle: enumerate entities of the occupancy set directly."""
    cells = list(map(tuple, np.argwhere(np.asarray(pattern, dtype=bool))))
    verts, edges, faces = set(), set(), set()
    for (i, j, k) in cells:
        corners = [(i + a, j + b, k + c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        verts.update(corners)
        for a, b in [(p, q) for p in corners for q in corners
                     if sum(abs(x - y) for x, y in zip(p, q)) == 1 and p < q]:
            edges.add((a, b))
        for axis in range(3):
            for side in (0, 1):
                quad = frozenset(c for c in corners if c[axis] == (i, j, k)[axis] + side)
                faces.add(quad)
    return len(verts), len(edges), len(faces), len(cells)


@pytest.mark.parametrize("name,expected_chi", [("cube", 1), ("ring", 0), ("cavity", 2)])
def test_voxel_counts_match_enumeration(name, expected_chi):
    pattern = builtin_pattern(name)
    mesh = build_voxel_mesh(pattern)
    assert mesh.counts == brute_force_voxel_counts(pattern)
    assert mesh.euler_characteristic == expected_chi


def test_builtin_counts():
    assert build_voxel_mesh(builtin_pattern("cube")).counts == (8, 12, 6, 1)
    assert build_voxel_mesh(builtin_pattern("ring")).counts == (32, 64, 40, 8)
    assert build_voxel_mesh(builtin_pattern("cavity")).counts == (64, 144, 108, 26)


def test_voxel_input_errors():
    with pytest.raises(InputError):
        build_voxel_mesh(np.zeros((2, 2, 2), dtype=bool))
    disconnected = np.zeros((3, 1, 1), dtype=bool)
    disconnected[0] = disconnected[2] = True
    with pytest.raises(InputError, match="disconnected"):
        build_voxel_mesh(disconnected)
    with pytest.raises(InputError):
        build_voxel_mesh(np.ones((2, 2), dtype=bool))


def test_pattern_text_roundtrip():
    text = "###\n#.#\n###\n"
    pattern = parse_pattern_text(text)
    assert pattern.shape == (3, 3, 1)
    assert pattern.sum() == 8
    with pytest.raises(InputError):
        parse_pattern_text("#x#\n")


def test_mesh_json_roundtrip(tmp_path):
    mesh = build_voxel_mesh(builtin_pattern("ring"), h=0.5)
    path = tmp_path / "ring.json"
    save_mesh(mesh, str(path))
    again = load_mesh(str(path))
    assert again.counts == mesh.counts
    assert np.array_equal(again.vertices, mesh.vertices)
    assert again.face_loops == mesh.face_loops
    assert again.element_faces == mesh.element_faces
    assert np.array_equal(again.edges, mesh.edges)
    doc = json.loads(path.read_text())
    assert list(doc.keys()) == ["vertices", "faces", "elements"]


def test_degenerate_loop_rejected():
    doc = {"vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
           "faces": [[0, 1, 1, 2]], "elements": [[0, 0, 0, 0]]}
    with pytest.raises(MeshFormatError, match="degenerate loop"):
        mesh_from_document(doc)


def test_dangling_face_index_rejected():
    doc = mesh_to_document(build_voxel_mesh(builtin_pattern("cube")))
    doc["elements"][0] = [0, 1, 2, 3, 4, 99]
    with pytest.raises(MeshReferenceError, match="99"):
        mesh_from_document(doc)


@pytest.mark.parametrize("case,message", MALFORMED.items())
def test_malformed_document_rejected(case, message):
    with pytest.raises(MeshFormatError, match=message):
        mesh_from_document(malformed_cube_document(case))


def test_integral_float_indices_accepted():
    doc = mesh_to_document(build_voxel_mesh(builtin_pattern("cube")))
    doc["elements"][0] = [float(f) for f in doc["elements"][0]]
    assert mesh_from_document(doc).element_faces == ((0, 1, 2, 3, 4, 5),)


def test_face_in_three_elements_rejected():
    doc = mesh_to_document(build_voxel_mesh(builtin_pattern("cube")))
    doc["elements"].append([0, 1, 2, 3, 4, 5])
    doc["elements"].append([0, 1, 2, 3, 4, 5])
    with pytest.raises(MeshTopologyError):
        mesh_from_document(doc)


def test_nonplanar_face_rejected():
    doc = {"vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0.3], [0, 1, 0],
                        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
           "faces": [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
                     [3, 7, 6, 2], [0, 4, 7, 3], [1, 2, 6, 5]],
           "elements": [[0, 1, 2, 3, 4, 5]]}
    mesh = mesh_from_document(doc)
    with pytest.raises(GeometryError, match="non-planar"):
        compute_orientation(mesh)


@pytest.mark.parametrize("name", ["cube", "ring", "cavity"])
def test_orientation_frames_right_handed(name):
    mesh, orient = mesh_and_orientation(name)
    for e in range(mesh.n_edges):
        assert abs(np.linalg.norm(orient.edge_tangent[e]) - 1) < 1e-13
    for f in range(mesh.n_faces):
        n = orient.face_normal[f]
        t1, t2 = orient.face_tau1[f], orient.face_tau2[f]
        assert abs(np.cross(t1, t2) @ n - 1) < 1e-12
        for pos, e in enumerate(mesh.face_edges[f]):
            te = orient.edge_tangent[e]
            nfe = orient.face_edge_normal[f][pos]
            assert abs(np.linalg.norm(nfe) - 1) < 1e-12
            assert abs(nfe @ te) < 1e-12
            assert abs(nfe @ n) < 1e-12
            assert abs(np.linalg.det(np.stack([te, nfe, n])) - 1) < 1e-12


@pytest.mark.parametrize("name", ["cube", "ring", "cavity"])
def test_closed_boundary_identities(name):
    mesh, orient = mesh_and_orientation(name)
    for f in range(mesh.n_faces):
        total = np.zeros(3)
        for pos, e in enumerate(mesh.face_edges[f]):
            total += orient.face_edge_sign[f][pos] * orient.edge_length[e] \
                * orient.edge_tangent[e]
        assert np.abs(total).max() < 1e-12
    for t in range(mesh.n_elements):
        total = np.zeros(3)
        for pos, f in enumerate(mesh.element_faces[t]):
            total += orient.cell_face_sign[t][pos] * orient.face_area[f] \
                * orient.face_normal[f]
        assert np.abs(total).max() < 1e-12


@pytest.mark.parametrize("name", ["cube", "ring", "cavity"])
def test_manifold_boundary_consistency(name):
    """For each element, the two faces sharing an edge induce opposite signs."""
    mesh, orient = mesh_and_orientation(name)
    for t in range(mesh.n_elements):
        per_edge = {}
        for pos, f in enumerate(mesh.element_faces[t]):
            wtf = orient.cell_face_sign[t][pos]
            for epos, e in enumerate(mesh.face_edges[f]):
                per_edge.setdefault(e, []).append(wtf * orient.face_edge_sign[f][epos])
        for e, signs in per_edge.items():
            assert len(signs) == 2 and sum(signs) == 0


def test_unit_cube_measures(cube):
    mesh, orient = cube
    assert np.allclose(orient.edge_length, 1.0)
    assert np.allclose(orient.face_area, 1.0)
    assert np.allclose(orient.cell_volume, 1.0)
    assert np.allclose(orient.cell_center[0], [0.5, 0.5, 0.5])


def test_outward_signs_on_unit_cube(cube):
    mesh, orient = cube
    for pos, f in enumerate(mesh.element_faces[0]):
        outward = orient.cell_face_sign[0][pos] * orient.face_normal[f]
        assert orient.face_center[f] @ outward > 0.49 or \
            (orient.face_center[f] - np.array([0.5, 0.5, 0.5])) @ outward > 0.49
