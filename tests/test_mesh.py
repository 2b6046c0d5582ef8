"""Voxel meshes, file round-trips, validation errors, orientation invariants."""

import collections
import json
from pathlib import Path

import numpy as np
import pytest

from ddrcomplex import (
    DomainError,
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

from ddrcomplex import mesh as mesh_module

from conftest import (
    DOUBLED_FACES,
    MALFORMED,
    OPEN_ELEMENTS,
    doubled_face_document,
    malformed_cube_document,
    mesh_and_orientation,
    open_element_document,
)
from test_general_meshes import l_prism, prism_pair

SHEARED_RING = Path(__file__).resolve().parent.parent / "tools" / "meshes" / "sheared_ring.json"


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


@pytest.mark.parametrize("h,message", [
    (True, "cell size True is not a number"),
    ("1", "cell size '1' is not a number"),
    (None, "cell size None is not a number"),
    ([1.0], "cell size [1.0] is not a number"),
    (float("nan"), "cell size must be positive and finite, got nan"),
    (-np.inf, "cell size must be positive and finite, got -inf"),
    (0.0, "cell size must be positive and finite, got 0.0"),
])
def test_cell_size_must_be_a_positive_finite_number(h, message):
    with pytest.raises(InputError) as info:
        build_voxel_mesh(builtin_pattern("cube"), h=h)
    assert str(info.value) == message
    assert build_voxel_mesh(builtin_pattern("cube"), h=np.float32(0.5)).vertices.max() == 0.5


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


@pytest.mark.parametrize("case,message", OPEN_ELEMENTS.items())
def test_open_element_rejected(case, message):
    with pytest.raises(MeshTopologyError, match=message):
        mesh_from_document(open_element_document(case))


@pytest.mark.parametrize("case,message", DOUBLED_FACES.items())
def test_doubled_face_rejected(case, message):
    # each element of the pair is closed, but between them lies a cavity of
    # zero volume, bounded by one polygon listed twice
    with pytest.raises(MeshTopologyError, match=message):
        mesh_from_document(doubled_face_document(case))


def test_nonplanar_face_rejected():
    doc = {"vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0.3], [0, 1, 0],
                        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
           "faces": [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
                     [3, 7, 6, 2], [0, 4, 7, 3], [1, 2, 6, 5]],
           "elements": [[0, 1, 2, 3, 4, 5]]}
    mesh = mesh_from_document(doc)
    with pytest.raises(GeometryError, match="non-planar"):
        compute_orientation(mesh)


def _prism_pair(moves=()):
    """The prism pair (faces 0, 1, 5, 6 triangles, the others quadrilaterals)
    with vertices moved, ``{vertex: position}``."""
    doc = mesh_to_document(prism_pair())
    for v, x in dict(moves).items():
        doc["vertices"][v] = list(x)
    return mesh_from_document(doc)


def _dart_prism():
    """A prism over the dart (0,0), (2,1), (0,2), (1,1), whose centroid is
    its reflex vertex: the bottom (face 0) and top (face 1) have their
    centres on the lines of their two inner edges."""
    dart = [[0, 0], [2, 1], [0, 2], [1, 1]]
    return mesh_from_document({
        "vertices": [[x, y, 0] for x, y in dart] + [[x, y, 1] for x, y in dart],
        "faces": [[3, 2, 1, 0], [4, 5, 6, 7]] + [[i, (i + 1) % 4, (i + 1) % 4 + 4, i + 4]
                                                  for i in range(4)],
        "elements": [list(range(6))]})


def _three_elements(pyramid_z=-0.5, tetra_r=(1, 1, -2)):
    """A tetrahedron, a square pyramid and a second tetrahedron meeting at
    the origin, so the two tetrahedra (elements 0 and 2) are a size group
    that comes before the pyramid's (element 1).  The pyramid's apex at
    height 0 flattens it, and so does a fourth vertex of element 2 in the
    plane y = 0; a fourth vertex on the line z = -1 also makes its last face
    (face 12) a segment."""
    o, a, b, c = [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]
    d, e, f, g = [-1, 0, 0], [-1, -1, 0], [0, -1, 0], [-0.5, -0.5, pyramid_z]
    p, q, r = [1, 0, -1], [0, 0, -1], list(tetra_r)
    return mesh_from_document({
        "vertices": [o, a, b, c, d, e, f, g, p, q, r],
        "faces": [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3],
                  [0, 4, 5, 6], [0, 4, 7], [4, 5, 7], [5, 6, 7], [6, 0, 7],
                  [0, 8, 9], [0, 8, 10], [0, 9, 10], [8, 9, 10]],
        "elements": [[0, 1, 2, 3], [4, 5, 6, 7, 8], [9, 10, 11, 12]]})


def _s_voxels():
    """The voxels (0,0,0), (1,0,0), (1,1,0) and (2,1,0) merged into one
    element bounded by their 18 outer unit squares.  It is closed and
    point-symmetric about its vertex mean (1.5, 1, 0.5), which lies on the
    plane y = 1 of two of its faces (2 and 14)."""
    pattern = np.zeros((3, 2, 1), dtype=bool)
    for cell in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)):
        pattern[cell] = True
    doc = mesh_to_document(build_voxel_mesh(pattern))
    owners = collections.Counter(f for faces in doc["elements"] for f in faces)
    doc["faces"] = [loop for f, loop in enumerate(doc["faces"]) if owners[f] == 1]
    doc["elements"] = [list(range(len(doc["faces"])))]
    return mesh_from_document(doc)


# Every GeometryError of compute_orientation, with the exact message.  Where
# several entities fail, the lowest index is named, faces before elements,
# as a pass over the entities in index order would name them; a zero
# measure must be found before anything divides by it.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build,message", [
    # vertex 7 moved onto vertex 6
    (lambda: _prism_pair({7: (1, 1, 1)}), "zero-length edge"),
    # vertex 3 on the diagonal of face 5 [0, 3, 2], which flattens it to a
    # segment and bends faces 7 and 8
    (lambda: _prism_pair({3: (0.5, 0.5, 0)}), "face 5: zero area"),
    # as above, and vertex 5 off the plane x = 1 bends face 3, a
    # quadrilateral, whose size group comes after face 5's
    (lambda: _prism_pair({3: (0.5, 0.5, 0), 5: (1.2, 0, 1)}),
     "face 3: non-planar (deviation 9.901e-02 > tol)"),
    (_dart_prism, "face 0, edge 5: ambiguous boundary sign"),
    (lambda: _three_elements(tetra_r=(1, 0, -2)), "element 2: zero volume"),
    # elements 1 and 2 flat, the lower one in the later size group
    (lambda: _three_elements(pyramid_z=0, tetra_r=(1, 0, -2)), "element 1: zero volume"),
    # element 1 flat, and face 12 of element 2 a segment
    (lambda: _three_elements(pyramid_z=0, tetra_r=(2, 0, -1)), "face 12: zero area"),
    # a closed element whose centre lies on the plane of face 2
    (_s_voxels, "element 0, face 2: ambiguous boundary sign"),
], ids=["edge_length", "face_area", "face_lowest", "face_edge_sign", "element_volume",
        "element_lowest", "faces_first", "element_face_sign"])
def test_geometry_errors_name_the_lowest_failing_entity(build, message):
    with pytest.raises(GeometryError) as failure:
        compute_orientation(build())
    assert str(failure.value) == message


@pytest.mark.parametrize("knob", [{"planarity_tol": "1e-9"}, {"sign_tol": -1.0},
                                  {"sign_tol": None}])
def test_orientation_tolerances_are_constants(knob):
    # no keyword switches the guards off or reaches numpy with a wrong type;
    # with the module's tolerances the dart prism still fails its sign guard
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        compute_orientation(_dart_prism(), **knob)
    with pytest.raises(GeometryError, match="ambiguous boundary sign"):
        compute_orientation(_dart_prism())
    assert (mesh_module.PLANARITY_TOL, mesh_module.SIGN_TOL) == (1e-9, 1e-10)


def test_three_elements_are_valid_until_flattened():
    mesh = _three_elements()
    orient = compute_orientation(mesh)
    assert (orient.cell_volume > 0).all()


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


def test_geometry_of_each_kind_in_one_place():
    mesh, orient = mesh_and_orientation("ring")
    vertex, edge, face, cell = (orient.geometry(kind) for kind in ("vertex", "edge", "face", "cell"))
    assert np.array_equal(vertex.center, mesh.vertices)
    assert vertex.frame.shape == (mesh.n_vertices, 0, 3)
    assert (vertex.diameter == 1.0).all() and (vertex.measure == 1.0).all()
    assert edge.measure is edge.diameter is orient.edge_length
    assert np.array_equal(edge.frame[:, 0], orient.edge_tangent)
    assert face.measure is orient.face_area and face.diameter is orient.face_diameter
    assert np.array_equal(face.frame, np.stack([orient.face_tau1, orient.face_tau2], axis=1))
    assert cell.measure is orient.cell_volume and cell.center is orient.cell_center
    assert np.array_equal(cell.frame, np.broadcast_to(np.eye(3), (mesh.n_elements, 3, 3)))
    with pytest.raises(DomainError, match="unknown entity kind 'element'"):
        orient.geometry("element")


def _orientation_loop(mesh):
    """Reference: the orientation fields computed one face and one element
    at a time, each dot a 1-D ``@`` and each fan sum a running ``+=``."""
    verts = mesh.vertices
    tangent = verts[mesh.edges[:, 1]] - verts[mesh.edges[:, 0]]
    tangent = tangent / np.linalg.norm(tangent, axis=1)[:, None]
    midpoint = 0.5 * (verts[mesh.edges[:, 0]] + verts[mesh.edges[:, 1]])
    out = {name: [] for name in ("face_normal", "face_tau1", "face_tau2", "face_area",
                                 "face_center", "face_diameter", "face_edge_sign",
                                 "face_edge_normal", "cell_volume", "cell_center",
                                 "cell_diameter", "cell_face_sign")}

    def diameter(coords):
        return max(np.linalg.norm(coords[i] - coords[j])
                   for i in range(len(coords)) for j in range(i + 1, len(coords)))

    for f, loop in enumerate(mesh.face_loops):
        coords = verts[list(loop)]
        rel = coords - coords[0]
        normal = 0.5 * np.cross(rel, np.roll(rel, -1, axis=0)).sum(axis=0)
        area = np.linalg.norm(normal)
        n = normal / area
        pmean = coords.mean(axis=0)
        tri_area, tri_cent = np.empty(len(loop)), np.empty((len(loop), 3))
        for i in range(len(loop)):
            a, b = coords[i], coords[(i + 1) % len(loop)]
            tri_area[i] = 0.5 * np.cross(a - pmean, b - pmean) @ n
            tri_cent[i] = (pmean + a + b) / 3.0
        center = (tri_area[:, None] * tri_cent).sum(axis=0) / tri_area.sum()
        t1 = coords[1] - coords[0]
        t1 = t1 - (t1 @ n) * n
        t1 /= np.linalg.norm(t1)
        normals = np.asarray([np.cross(n, tangent[e]) for e in mesh.face_edges[f]])
        signs = tuple(1 if nfe @ (midpoint[e] - center) > 0 else -1
                      for nfe, e in zip(normals, mesh.face_edges[f]))
        for name, value in (("face_normal", n), ("face_tau1", t1), ("face_tau2", np.cross(n, t1)),
                            ("face_area", area), ("face_center", center),
                            ("face_diameter", diameter(coords)), ("face_edge_sign", signs),
                            ("face_edge_normal", normals)):
            out[name].append(value)
    face_center = np.asarray(out["face_center"])
    face_normal = np.asarray(out["face_normal"])
    for t, faces in enumerate(mesh.element_faces):
        coords = verts[list(mesh.element_vertices(t))]
        pmean = coords.mean(axis=0)
        volume, cent = 0.0, np.zeros(3)
        for f in faces:
            loop, c = mesh.face_loops[f], face_center[f]
            for i in range(len(loop)):
                a, b = verts[loop[i]], verts[loop[(i + 1) % len(loop)]]
                v6 = abs(np.dot(np.cross(a - c, b - c), pmean - c))
                volume += v6 / 6.0
                cent += (v6 / 6.0) * (pmean + a + b + c) / 4.0
        cent /= volume
        signs = tuple(1 if face_normal[f] @ (face_center[f] - cent) > 0 else -1 for f in faces)
        for name, value in (("cell_volume", volume), ("cell_center", cent),
                            ("cell_diameter", diameter(coords)), ("cell_face_sign", signs)):
            out[name].append(value)
    return out


@pytest.mark.parametrize("name", ["cube", "ring", "cavity", "graded", "prism_pair", "l_prism",
                                  "sheared_ring"])
def test_stacked_orientation_matches_the_loop_bit_for_bit(name):
    # the size-group passes round every entry as the pass entity by entity
    # does: batched row dots, and fan sums in fan order
    mesh = {"prism_pair": prism_pair, "l_prism": l_prism,
            "sheared_ring": lambda: load_mesh(str(SHEARED_RING))}.get(
        name, lambda: mesh_and_orientation(name)[0])()
    orient = compute_orientation(mesh)
    for field, want in _orientation_loop(mesh).items():
        got = getattr(orient, field)
        if field in ("face_edge_sign", "face_edge_normal", "cell_face_sign"):
            # one row per entity: its entries in loop or face order, then zeros
            assert len(got) == len(want) and all(
                np.array_equal(row[:len(w)], w) and not row[len(w):].any()
                for row, w in zip(got, want)), field
        else:
            assert np.array_equal(got, np.asarray(want)), field
