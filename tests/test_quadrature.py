"""Quadrature certificates: positive weights, measures, certified exactness.

The exactness oracle is analytic: every builtin entity is an axis-aligned
segment/rectangle/cube, so monomial integrals factor into 1D integrals
x^p over [a, b], evaluated in closed form.
"""

import itertools
import re

import numpy as np
import pytest

from ddrcomplex import DomainError, QuadratureDegreeError, compute_orientation
from ddrcomplex.operators import OPERATORS
from ddrcomplex.quadrature import _MAX_GAUSS, _gauss01, _tetra_ref, _triangle_ref

from conftest import complex_for, mesh_and_orientation
from test_general_meshes import prism_pair
from test_spaces import entity_rule


def box_monomial_integral(lo, hi, alpha):
    out = 1.0
    for a, b, p in zip(lo, hi, alpha):
        out *= (b ** (p + 1) - a ** (p + 1)) / (p + 1)
    return out


def entity_box(mesh, kind, index):
    if kind == "edge":
        pts = mesh.vertices[mesh.edges[index]]
    elif kind == "face":
        pts = mesh.vertices[list(mesh.face_loops[index])]
    else:
        pts = mesh.vertices[list(mesh.element_vertices(index))]
    return pts.min(axis=0), pts.max(axis=0)


@pytest.mark.parametrize("kind,index", [("edge", 3), ("face", 2), ("cell", 0)])
@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8])
def test_exactness_on_cube_entities(kind, index, degree):
    mesh, orient = mesh_and_orientation("cube")
    rule = entity_rule(mesh, orient, kind, index, degree)
    assert (rule.weights > 0).all()
    lo, hi = entity_box(mesh, kind, index)
    measure = orient.geometry(kind).measure[index]
    assert abs(rule.measure - measure) < 1e-12 * max(measure, 1)
    for alpha in itertools.product(range(degree + 1), repeat=3):
        if sum(alpha) > degree:
            continue
        if any(p > 0 and lo[ax] == hi[ax] for ax, p in enumerate(alpha)):
            # flat direction: the monomial is constant x^p with x = lo[ax]
            pass
        exact = 1.0
        for ax in range(3):
            if lo[ax] == hi[ax]:
                exact *= lo[ax] ** alpha[ax]
            else:
                exact *= (hi[ax] ** (alpha[ax] + 1) - lo[ax] ** (alpha[ax] + 1)) / (alpha[ax] + 1)
        got = (rule.weights * np.prod(rule.points ** np.asarray(alpha)[None, :], axis=1)).sum()
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_unit_edge_s_squared():
    mesh, orient = mesh_and_orientation("cube")
    rule = entity_rule(mesh, orient, "edge", 0, 2)
    svals = (rule.points - mesh.vertices[mesh.edges[0][0]]) @ orient.edge_tangent[0]
    assert abs((rule.weights * svals ** 2).sum() - 1 / 3) < 1e-14


def test_unit_cube_x2y():
    mesh, orient = mesh_and_orientation("cube")
    rule = entity_rule(mesh, orient, "cell", 0, 3)
    val = (rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1]).sum()
    assert abs(val - 1 / 6) < 1e-13


def test_face_xy_integral():
    mesh, orient = mesh_and_orientation("cube")
    # find the z=0 face and integrate x*y over it: 1/4
    for f in range(mesh.n_faces):
        if abs(orient.face_normal[f][2]) > 0.9 and orient.face_center[f][2] < 0.25:
            rule = entity_rule(mesh, orient, "face", f, 2)
            val = (rule.weights * rule.points[:, 0] * rule.points[:, 1]).sum()
            assert abs(val - 0.25) < 1e-13
            return
    raise AssertionError("no z=0 face found")


def test_degree_capability_error():
    with pytest.raises(QuadratureDegreeError):
        _gauss01(200)


@pytest.mark.parametrize("n", range(1, _MAX_GAUSS + 1))
def test_gauss_rules_match_leggauss_and_are_exact(n):
    # Newton's method on the Legendre recurrence: nodes and weights within a
    # few ulp of 1 (the interval's length) of numpy's eigenvalue rule, the
    # weights within leggauss's own error (up to 11 ulp at n = 64), and
    # monomials up to degree 2n - 1 integrated to 1e-13
    nodes, weights = _gauss01(n)
    x, w = np.polynomial.legendre.leggauss(n)
    eps = np.finfo(float).eps
    assert np.abs(nodes - 0.5 * (x + 1.0)).max() <= 2 * eps
    assert np.abs(weights - 0.5 * w).max() <= 16 * eps
    assert (np.diff(nodes) > 0).all() and (weights > 0).all()
    for d in range(2 * n):
        assert abs((weights * nodes ** d).sum() * (d + 1) - 1.0) < 1e-13, d
    assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("name", ["ring", "cavity"])
def test_measures_sum(name):
    mesh, orient = mesh_and_orientation(name)
    total = sum(entity_rule(mesh, orient, "cell", t, 2).measure
                for t in range(mesh.n_elements))
    assert abs(total - orient.cell_volume.sum()) < 1e-12


@pytest.mark.parametrize("degree", [0, 3, 6])
def test_reference_rules_are_cached_and_mapped_affinely(degree):
    # one read-only reference rule per degree; each simplex maps it affinely
    from ddrcomplex.quadrature import _tetra_ref, _triangle_ref, tetra_points, triangle_points

    assert _triangle_ref(degree) is _triangle_ref(degree)
    assert _tetra_ref(degree) is _tetra_ref(degree)
    assert not any(a.flags.writeable for a in _triangle_ref(degree) + _tetra_ref(degree))
    p = np.asarray([[0.3, -1.0, 2.0], [1.4, -0.8, 2.1], [0.2, 0.5, 1.9], [0.5, -0.4, 3.0]])
    xi, eta, w = _triangle_ref(degree)
    pts, wts = triangle_points(p[0], p[1], p[2], degree)
    assert np.array_equal(pts, p[0] + xi[:, None] * (p[1] - p[0]) + eta[:, None] * (p[2] - p[0]))
    assert wts.sum() == pytest.approx(0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0])))
    xi, eta, zeta, w = _tetra_ref(degree)
    pts, wts = tetra_points(p[0], p[1], p[2], p[3], degree)
    e = p[1:] - p[0]
    assert np.array_equal(pts, p[0] + xi[:, None] * e[0] + eta[:, None] * e[1]
                          + zeta[:, None] * e[2])
    assert wts.sum() == pytest.approx(abs(np.linalg.det(e)) / 6)


def _fan_rules_loop(mesh, orient, kind, index, degree):
    """Reference: the reference rule mapped onto one fan simplex at a time,
    concatenated in fan order."""
    pts, wts = [], []
    faces = [index] if kind == "face" else mesh.element_faces[index]
    for f in faces:
        loop = mesh.face_loops[f]
        for a, b in zip(loop, loop[1:] + loop[:1]):
            if kind == "face":
                p0, (xi, eta, w) = orient.face_center[f], _triangle_ref(degree)
                e1, e2 = mesh.vertices[a] - p0, mesh.vertices[b] - p0
                pts.append(p0[None, :] + xi[:, None] * e1[None, :] + eta[:, None] * e2[None, :])
                wts.append(w * np.linalg.norm(np.cross(e1, e2)))
            else:
                p0, (xi, eta, zeta, w) = orient.cell_center[index], _tetra_ref(degree)
                e1, e2, e3 = (orient.face_center[f] - p0, mesh.vertices[a] - p0,
                              mesh.vertices[b] - p0)
                pts.append(p0[None, :] + xi[:, None] * e1[None, :] + eta[:, None] * e2[None, :]
                           + zeta[:, None] * e3[None, :])
                wts.append(w * abs(np.linalg.det(np.stack([e1, e2, e3]))))
    return np.concatenate(pts), np.concatenate(wts)


def _graded_cavity():
    """The builtin cavity with its grid lines graded along each axis."""
    mesh, _ = mesh_and_orientation("cavity")
    x = mesh.vertices
    return mesh._replace(vertices=x + np.asarray([0.13, 0.07, -0.05]) * x ** 2)


@pytest.mark.parametrize("mesh", [_graded_cavity(), prism_pair()], ids=["graded", "prisms"])
@pytest.mark.parametrize("degree", [4, 6, 8])
def test_fan_rules_match_one_map_per_simplex(mesh, degree):
    # all fan simplices of an entity are mapped at once, bit for bit as one by one
    orient = compute_orientation(mesh)
    for kind, count in (("face", mesh.n_faces), ("cell", mesh.n_elements)):
        for i in range(count):
            got = entity_rule(mesh, orient, kind, i, degree)
            pts, wts = _fan_rules_loop(mesh, orient, kind, i, degree)
            assert np.array_equal(got.points, pts) and np.array_equal(got.weights, wts)


@pytest.mark.parametrize("kind,index,message", [
    ("edge", -1, "no edge -1: the mesh has 12"),
    ("edge", 12, "no edge 12: the mesh has 12"),
    ("vertex", 0, "unknown entity kind 'vertex'"),
    ("element", 0, "unknown entity kind 'element'"),
    ("edge", 1.7, "edge index 1.7 is not an integer"),
    ("face", True, "face index True is not an integer"),
    ("cell", 0.5, "cell index 0.5 is not an integer"),
])
def test_rules_of_entities_the_mesh_lacks_raise_domain_error(kind, index, message):
    # no wrap-around to the last edge, no rounding of a fraction or a bool to
    # an entity, no bare IndexError or ValueError; the local operators of
    # the kind say the same
    mesh, orient = mesh_and_orientation("cube")
    c = complex_for("cube", 0)
    with pytest.raises(DomainError) as direct:
        entity_rule(mesh, orient, kind, index, 4)
    with pytest.raises(DomainError) as cached:
        c.rule(kind, index)
    assert str(direct.value) == str(cached.value) == message
    for builder in [b.builder for op in OPERATORS for b in op.blocks if b.kind == kind]:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            getattr(c, builder)(index)


@pytest.mark.parametrize("k", [0, 2])
def test_complex_rules_view_the_rules_of_groups_of_one(k):
    mesh, orient = mesh_and_orientation("cavity")
    c = complex_for("cavity", k)
    for kind, count in (("edge", mesh.n_edges), ("face", mesh.n_faces),
                        ("cell", mesh.n_elements)):
        for i in range(count):
            degree = 2 * k if kind == "cell" else 2 * k + 4
            got, want = c.rule(kind, i), entity_rule(mesh, orient, kind, i, degree)
            assert got.entity == want.entity == (kind, i) and got.degree == want.degree
            assert np.array_equal(got.points, want.points)
            assert np.array_equal(got.weights, want.weights)
            assert got.points.base is not None and not got.points.flags.writeable
