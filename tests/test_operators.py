"""Local operator oracles, layouts, global assembly, degree-0 closed forms."""

from pathlib import Path

import numpy as np
import pytest

from ddrcomplex import (
    DdrComplex,
    DofLayout,
    DomainError,
    compute_orientation,
    ddr0_closed_forms,
    load_mesh,
)
from ddrcomplex import monomials as mono
from ddrcomplex.layouts import KINDS, PARTS, entity_count
from ddrcomplex.mesh import row_dot
from ddrcomplex.operators import OPERATORS, _add_columns, _n, _positions
from ddrcomplex.spaces import span_matrix

from conftest import complex_for, mesh_and_orientation
from test_layouts import reference_components
from test_spaces import entity_basis, frame_dot, frame_moments

MESHES = Path(__file__).resolve().parent.parent / "tools" / "meshes"


def basis(c, kind, index, degree, vector=False):
    """The scaled monomial basis of one entity of the complex ``c``."""
    return entity_basis(c.mesh, c.orient, kind, index, degree, vector)


# -- layouts -------------------------------------------------------------------

def test_layout_dims_cube_k1():
    mesh, _ = mesh_and_orientation("cube")
    dims = [DofLayout(s, 1, mesh).total for s in ("Xgrad", "Xcurl", "Xdiv", "Pk")]
    assert dims == [27, 46, 24, 4]
    assert dims[0] - dims[1] + dims[2] - dims[3] == 1


def test_layout_dims_ring_cavity_k1():
    mesh, _ = mesh_and_orientation("ring")
    dims = [DofLayout(s, 1, mesh).total for s in ("Xgrad", "Xcurl", "Xdiv", "Pk")]
    assert dims == [144, 280, 168, 32]
    mesh, _ = mesh_and_orientation("cavity")
    dims = [DofLayout(s, 1, mesh).total for s in ("Xgrad", "Xcurl", "Xdiv", "Pk")]
    assert dims == [342, 716, 480, 104]


@pytest.mark.parametrize("name,chi", [("cube", 1), ("ring", 0), ("cavity", 2)])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_layout_euler_identity(name, chi, k):
    mesh, _ = mesh_and_orientation(name)
    dims = [DofLayout(s, k, mesh).total for s in ("Xgrad", "Xcurl", "Xdiv", "Pk")]
    assert dims[0] - dims[1] + dims[2] - dims[3] == chi


def test_layout_offsets_partition():
    mesh, _ = mesh_and_orientation("cube")
    lay = DofLayout("Xcurl", 2, mesh)
    comps, _ = reference_components(lay)
    seen = sorted(np.concatenate([lay.indices(kind, i, part) for kind, i, part in comps]))
    assert seen == list(range(lay.total))


@pytest.mark.parametrize("space", ["Xgrad", "Xcurl", "Xdiv", "Pk"])
def test_layout_indices_of_an_entity_array(space):
    # one row per entity, each the component's own numbers; out of range is an error
    mesh, _ = mesh_and_orientation("ring")
    lay = DofLayout(space, 2, mesh)
    comps, _ = reference_components(lay)
    for (kind, i, part), (offset, dim) in comps.items():
        assert lay.indices(kind, i, part).tolist() == list(range(offset, offset + dim))
    for kind in {kind for kind, _, _ in comps}:
        for part in {part for kind_, _, part in comps if kind_ == kind}:
            ids = np.arange(entity_count(mesh, kind))[::-2]
            rows = lay.indices(kind, ids, part)
            assert rows.tolist() == [lay.indices(kind, int(i), part).tolist() for i in ids]
            with pytest.raises(KeyError):
                lay.indices(kind, [0, entity_count(mesh, kind)], part)


@pytest.mark.parametrize("entity", [1.7, True, [0.0, 1.0], np.array([True, False])])
def test_layout_indices_reject_float_and_bool_entities(entity):
    # a float would be scaled by the stride, a bool read as 0 or 1
    mesh, _ = mesh_and_orientation("cube")
    with pytest.raises(KeyError):
        DofLayout("Xgrad", 1, mesh).indices("edge", entity, "poly")


@pytest.mark.parametrize("degree,message", [(True, "degree True is not an integer"),
                                            (1.0, "degree 1.0 is not an integer"),
                                            (1.5, "degree 1.5 is not an integer"),
                                            (-1, "degree must be >= 0")])
def test_layout_and_complex_reject_a_bad_degree(degree, message):
    mesh, orient = mesh_and_orientation("cube")
    with pytest.raises(DomainError, match=f"^{message}$"):
        DofLayout("Xgrad", degree, mesh)
    with pytest.raises(DomainError, match=f"^{message}$"):
        DdrComplex(mesh, orient, degree)


def test_layout_and_complex_accept_a_numpy_degree():
    mesh, orient = mesh_and_orientation("cube")
    lay = DofLayout("Xgrad", np.int64(1), mesh)
    assert type(lay.degree) is int and lay.total == DofLayout("Xgrad", 1, mesh).total
    assert type(DdrComplex(mesh, orient, np.int64(1)).k) is int


def test_layout_k0_single_scalar_components():
    mesh, _ = mesh_and_orientation("cube")
    for space, count in (("Xgrad", 8), ("Xcurl", 12), ("Xdiv", 6), ("Pk", 1)):
        assert DofLayout(space, 0, mesh).total == count


# -- edge operators --------------------------------------------------------------

def test_edge_gradient_k0_unit_edge():
    c = complex_for("cube", 0)
    ops = c.edge_ops(0)
    # local dofs are (q_V1, q_V2); |E| = 1 and the gradient is the difference
    vec = np.asarray([0.0, 1.0])
    assert abs(ops.op @ vec - 1.0).max() < 1e-13


@pytest.mark.parametrize("k", [0, 1, 2])
def test_edge_trace_and_gradient_constants(k):
    c = complex_for("cube", k)
    vec = c.interpolate_grad(lambda p: 3.5)
    ops = c.edge_ops(2)
    loc = vec[ops.globals]
    trace = ops.potential @ loc
    assert abs(trace[0] - 3.5) < 1e-12 and np.abs(trace[1:]).max() < 1e-12
    assert np.abs(ops.op @ loc).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_edge_trace_exact_for_full_degree(k):
    # q in P^(k+1) restricted to an edge reproduces exactly
    c = complex_for("cube", k)
    mesh, orient = mesh_and_orientation("cube")
    q = lambda p: (p[:, 0] + 0.25) ** (k + 1)
    vec = c.interpolate_grad(q)
    for e in range(mesh.n_edges):
        if abs(orient.edge_tangent[e][0]) < 0.5:
            continue  # trace is low-degree there anyway
        ops = c.edge_ops(e)
        rule = c.rule("edge", e)
        loc = vec[ops.globals]
        vals = basis(c, "edge", e, k + 1).eval(rule.points) @ (ops.potential @ loc)
        exact = q(rule.points)
        assert np.abs(vals - exact).max() < 1e-11
        deriv = basis(c, "edge", e, k).eval(rule.points) @ (ops.op @ loc)
        dexact = np.asarray([(k + 1) * (p[0] + 0.25) ** k * orient.edge_tangent[e][0]
                             for p in rule.points])
        assert np.abs(deriv - dexact).max() < 1e-10


def test_edge_gradient_is_trace_derivative():
    # G_E^k equals the tangential derivative of the edge trace
    k = 2
    c = complex_for("cube", k)
    rng = np.random.default_rng(7)
    ops = c.edge_ops(5)
    vec = rng.standard_normal(ops.globals.size)
    rule = c.rule("edge", 5)
    from ddrcomplex import monomials as mono
    deriv = mono.derivative_matrix(1, k + 1, 0) / c.orient.edge_length[5]
    lhs = basis(c, "edge", 5, k).eval(rule.points) @ (ops.op @ vec)
    rhs = basis(c, "edge", 5, k).eval(rule.points) @ (deriv @ ops.potential @ vec)
    assert np.abs(lhs - rhs).max() < 1e-12


# -- face operators ---------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2])
def test_face_ops_on_constants(k):
    c = complex_for("cube", k)
    vec = c.interpolate_grad(lambda p: 2.0)
    ops = c.face_grad_ops(3)
    loc = vec[ops.globals]
    assert np.abs(ops.op @ loc).max() < 1e-12
    trace = ops.potential @ loc
    assert abs(trace[0] - 2.0) < 1e-11 and np.abs(trace[1:]).max() < 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_face_gradient_of_affine(k):
    c = complex_for("cube", k)
    mesh, orient = mesh_and_orientation("cube")
    coeffs = np.asarray([0.7, -1.3, 0.4])
    vec = c.interpolate_grad(lambda p: p @ coeffs + 0.2)
    for f in range(mesh.n_faces):
        ops = c.face_grad_ops(f)
        rule = c.rule("face", f)
        gv = np.einsum("pax,a->px",
                       basis(c, "face", f, k, vector=True).eval_vector(rule.points),
                       ops.op @ vec[ops.globals])
        n = orient.face_normal[f]
        expected = coeffs - (coeffs @ n) * n
        assert np.abs(gv - expected[None, :]).max() < 1e-11


def test_face_curl_k0_constant_tangential_field():
    # v_E = c . t_E for a constant c: a gradient field, so the curl vanishes
    c = complex_for("cube", 0)
    mesh, orient = mesh_and_orientation("cube")
    const = np.asarray([0.3, -0.8, 0.5])
    vglobal = orient.edge_tangent @ const
    for f in range(mesh.n_faces):
        ops = c.face_curl_ops(f)
        assert np.abs(ops.op @ vglobal[ops.globals]).max() < 1e-12


def test_face_curl_k0_unit_circulation_sign_oracle():
    c = complex_for("cube", 0)
    mesh, orient = mesh_and_orientation("cube")
    f = 0
    ops = c.face_curl_ops(f)
    vglobal = np.zeros(mesh.n_edges)
    oracle = 0.0
    for pos, e in enumerate(mesh.face_edges[f]):
        sign = orient.face_edge_sign[f][pos]
        vglobal[e] = -sign  # unit circulation aligned against omega
        oracle += sign * orient.edge_length[e] * vglobal[e]
    oracle *= -1.0 / orient.face_area[f]
    got = (ops.op @ vglobal[ops.globals])[0]
    assert abs(abs(got) - 4.0) < 1e-12
    assert abs(got - oracle) < 1e-12


def test_face_zero_input_zero_output():
    c = complex_for("cube", 1)
    ops = c.face_curl_ops(2)
    z = np.zeros(ops.globals.size)
    assert np.abs(ops.op @ z).max() == 0.0
    assert np.abs(ops.potential @ z).max() == 0.0


@pytest.mark.parametrize("k", [1, 2])
def test_tangential_trace_of_gradient_is_face_gradient(k):
    # numeric invariant: ttrace(uG restricted to the face) = face gradient
    c = complex_for("cube", k)
    mesh, _ = mesh_and_orientation("cube")
    G = c.gradient.toarray()
    for f in range(mesh.n_faces):
        fc = c.face_curl_ops(f)
        fg = c.face_grad_ops(f)
        lhs = fc.potential @ G[fc.globals, :]
        rhs = np.zeros_like(lhs)
        rhs[:, fg.globals] = fg.op
        assert np.abs(lhs - rhs).max() < 1e-11


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["cube", "ring", "cavity"])
def test_local_records_solve_their_moment_systems(name, k):
    # the extensions solve the stored moments with degree-0 data, which relies
    # on mass @ op = rhs; every record but the element gradient's has a potential
    c = complex_for(name, k)
    for block in (b for op in OPERATORS for b in op.blocks):
        for i in range(entity_count(c.mesh, block.kind)):
            ops = getattr(c, block.builder)(i)
            mass, rhs = ops.mass, ops.rhs
            assert np.abs(mass @ ops.op - rhs).max() <= 1e-12 * np.abs(rhs).max(), \
                (block.builder, i)
            assert (ops.potential is None) == (block.builder == "cell_grad_ops")


# -- element operators ---------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_element_gradient_consistency(k):
    c = complex_for("cube", k)
    vec = c.interpolate_grad(lambda p: p[:, 0])
    ops = c.cell_grad_ops(0)
    rule = c.rule("cell", 0)
    gv = np.einsum("pax,a->px",
                   basis(c, "cell", 0, k, vector=True).eval_vector(rule.points),
                   ops.op @ vec[ops.globals])
    assert np.abs(gv - np.asarray([1.0, 0.0, 0.0])[None, :]).max() < 1e-11


def test_element_curl_of_gradient_vanishes():
    c = complex_for("cube", 1)
    rng = np.random.default_rng(3)
    q = rng.standard_normal(c.layout("Xgrad").total)
    v = c.gradient @ q
    ops = c.cell_curl_ops(0)
    assert np.abs(ops.op @ v[ops.globals]).max() < 1e-10


def test_pcurl_k0_of_constant_field():
    c = complex_for("cube", 0)
    mesh, orient = mesh_and_orientation("cube")
    const = np.asarray([0.4, 1.1, -0.6])
    v = orient.edge_tangent @ const
    ops = c.cell_curl_ops(0)
    coeff = ops.potential @ v[ops.globals]
    rule = c.rule("cell", 0)
    vals = np.einsum("pax,a->px",
                     basis(c, "cell", 0, 0, vector=True).eval_vector(rule.points), coeff)
    assert np.abs(vals - const[None, :]).max() < 1e-11


def test_divergence_k0_examples():
    c = complex_for("cube", 0)
    mesh, orient = mesh_and_orientation("cube")
    ops = c.cell_div_ops(0)
    # constant normal flux of a constant field: closed surface, zero divergence
    const = np.asarray([0.9, -0.2, 0.7])
    w = orient.face_normal @ const
    assert np.abs(ops.op @ w[ops.globals]).max() < 1e-12
    # w_F = mean((x/3) . n_F): divergence theorem gives exactly 1
    w = np.empty(mesh.n_faces)
    for f in range(mesh.n_faces):
        rule = c.rule("face", f)
        w[f] = (rule.weights * ((rule.points / 3.0) @ orient.face_normal[f])).sum() \
            / orient.face_area[f]
    val = ops.op @ w[ops.globals]
    assert abs(val[0] - 1.0) < 1e-12
    # zero input
    assert np.abs(ops.potential @ np.zeros(ops.globals.size)).max() == 0.0


# -- global assembly --------------------------------------------------------------------

def test_k0_gradient_is_scaled_incidence():
    c = complex_for("cube", 0)
    mesh, orient = mesh_and_orientation("cube")
    G = c.gradient.toarray()
    assert G.shape == (12, 8)
    for e, (v1, v2) in enumerate(mesh.edges):
        row = np.zeros(8)
        row[v1], row[v2] = -1.0, 1.0
        assert np.abs(G[e] - row / orient.edge_length[e]).max() < 1e-13


@pytest.mark.parametrize("name", ["cube", "ring", "cavity"])
def test_closed_forms_match_assembly(name):
    mesh, orient = mesh_and_orientation(name)
    c = complex_for(name, 0)
    for closed, assembled in zip(ddr0_closed_forms(mesh, orient),
                                 (c.gradient, c.curl, c.divergence)):
        diff = abs(closed.toarray() - assembled.toarray()).max()
        scale = max(1.0, abs(closed.toarray()).max())
        assert diff / scale < 1e-12


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_complex_property_cube(k):
    c = complex_for("cube", k)
    cg = c.curl @ c.gradient.toarray()
    dc = c.divergence @ c.curl.toarray()
    scale_cg = max(1.0, abs(c.curl.toarray()).max() * abs(c.gradient.toarray()).max())
    scale_dc = max(1.0, abs(c.divergence.toarray()).max() * abs(c.curl.toarray()).max())
    assert abs(cg).max() / scale_cg < 1e-10
    assert abs(dc).max() / scale_dc < 1e-10


def test_local_exactness_single_element():
    # on a topologically trivial single cube the chain is exact after the head
    for k in (0, 1, 2):
        c = complex_for("cube", k)
        G = c.gradient.toarray()
        C = c.curl.toarray()
        D = c.divergence.toarray()
        dims = {s: c.layout(s).total for s in ("Xgrad", "Xcurl", "Xdiv", "Pk")}
        rG = np.linalg.matrix_rank(G)
        rC = np.linalg.matrix_rank(C)
        rD = np.linalg.matrix_rank(D)
        assert rG == dims["Xgrad"] - 1
        assert dims["Xcurl"] - rC == rG
        assert dims["Xdiv"] - rD == rC
        assert rD == dims["Pk"]


# -- interpolation ----------------------------------------------------------------------

def test_interpolate_constant():
    c = complex_for("cube", 2)
    vec = c.interpolate_grad(lambda p: 4.25)
    comps, _ = reference_components(c.layout("Xgrad"))
    for (kind, _, _), (offset, dim) in comps.items():
        block = vec[offset:offset + dim]
        if kind == "vertex":
            assert abs(block[0] - 4.25) < 1e-13
        elif dim:
            assert abs(block[0] - 4.25) < 1e-12
            assert np.abs(block[1:]).max() < 1e-12
    assert np.abs(c.gradient @ vec).max() < 1e-11


def test_interpolate_linear_k1():
    c = complex_for("cube", 1)
    mesh, orient = mesh_and_orientation("cube")
    vec = c.interpolate_grad(lambda p: p[:, 0])
    lay = c.layout("Xgrad")
    for v in range(mesh.n_vertices):
        assert vec[lay.indices("vertex", v, "val")[0]] in (0.0, 1.0)
    for e in range(mesh.n_edges):
        idx = lay.indices("edge", e, "poly")
        assert abs(vec[idx][0] - orient.edge_midpoint[e][0]) < 1e-13


@pytest.mark.parametrize("field", [lambda p: p, lambda p: p[:, :1], lambda p: np.ones(2),
                                   lambda p: None, lambda p: "a",
                                   lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0)],
                         ids=["vector", "column", "wrong_length", "none", "string", "nan"])
def test_interpolate_rejects_field_of_wrong_shape(field):
    # a field maps (n, 3) points to n finite numbers; anything else is an error
    c = complex_for("cube", 1)
    with pytest.raises(DomainError, match="interpolated field"):
        c.interpolate_grad(field)


def test_interpolate_matches_the_entity_by_entity_reference():
    # bit for bit: each entity's moments against its basis evaluated at
    # degree k-1 on its own rule, solved alone with its Gram
    c = complex_for("ring", 2)
    lay = c.layout("Xgrad")
    q = lambda p: p[:, 0] * p[:, 1] ** 2 - p[:, 2]
    vec = c.interpolate_grad(q)
    for kind in ("edge", "face", "cell"):
        for i in range(entity_count(c.mesh, kind)):
            rule = c.rule(kind, i)
            phi = basis(c, kind, i, 1).eval(rule.points)
            want = np.linalg.solve(c._grams(kind, [i], 1, 1)[0],
                                   phi.T @ (rule.weights * q(rule.points)))
            assert np.array_equal(vec[lay.indices(kind, i, "poly")], want), (kind, i)


def test_interpolate_list_of_fields_gives_one_row_per_field(monkeypatch):
    # each row is bit-identical to interpolating its field alone; the Gram
    # conditioning is checked once per size group for the whole list
    c = complex_for("ring", 2)
    fields = [lambda p: p[:, 0] * p[:, 1], lambda p: 2.5, lambda p: p[:, 2] ** 2]
    single = np.stack([c.interpolate_grad(f) for f in fields])
    conds = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: conds.append(1) or cond(a))
    rows = c.interpolate_grad(fields)
    assert rows.shape == (3, c.layout("Xgrad").total)
    assert np.array_equal(rows, single)
    assert len(conds) == sum(len(c.mesh.groups(kind)) for kind in ("edge", "face", "cell"))


def test_coo_blocks_keep_row_major_order():
    from ddrcomplex.operators import _Coo
    coo = _Coo()
    coo.add(np.asarray([4, 1]), np.asarray([0, 2, 3]), np.arange(6.0).reshape(2, 3))
    coo.add(np.asarray([[0], [3]]), np.asarray([[1], [2]]), np.asarray([[[7.0]], [[8.0]]]))
    coo.add(np.asarray([2]), np.asarray([0, 1]), np.zeros((1, 0)))     # empty: skipped
    mat = coo.build((5, 4))
    assert mat.indptr.tolist() == [0, 1, 4, 4, 5, 8]
    assert mat.indices.tolist() == [1, 0, 2, 3, 2, 0, 2, 3]
    assert mat.data.tolist() == [7.0, 3.0, 4.0, 5.0, 8.0, 0.0, 1.0, 2.0]
    assert (mat.indptr.dtype, mat.indices.dtype, mat.data.dtype) == (np.int64, np.int64, float)
    for rows, cols, match in ((np.asarray([1, 1]), np.asarray([0]), "written twice"),
                              (np.asarray([3]), np.asarray([1, 2]), "written twice"),
                              (np.asarray([0]), np.asarray([2, 1]), "do not ascend"),
                              (np.asarray([0]), np.asarray([4]), "out of range"),
                              (np.asarray([5]), np.asarray([0]), "out of range")):
        bad = _Coo()
        bad.add(np.asarray([3]), np.asarray([0]), np.ones((1, 1)))
        bad.add(rows, cols, np.ones((len(rows), len(cols))))
        with pytest.raises(ValueError, match=match):
            bad.build((5, 4))


# -- the point-level boundary terms, as a reference builder ---------------------------

class PointLevelComplex(DdrComplex):
    """The builders' boundary terms as sums over the sub-entities' rule
    points: each builder evaluates the entity's basis at every boundary
    column's points and pairs it with the weighted sub-entity traces there,
    and the element top Gram sums over all face points at once.  The
    package forms the same pairings from its boundary moments."""

    def _top_gram(self, kind):
        if kind == "cell" and kind not in self._top_grams:
            o, top = self.orient, self._top(kind)
            grams = np.empty((entity_count(self.mesh, kind), _n(kind, top), _n(kind, top)))
            for grp in self.mesh.groups(kind):
                faces, centre = grp.faces.T, o.cell_center[grp.ids]
                dist = np.abs(row_dot(o.face_normal[faces], o.face_center[faces] - centre))
                points, weights = zip(*(self._points("face", f) for f in faces))
                phi = self._eval(kind, grp.ids, np.concatenate(points, 1))
                weights = np.concatenate([w * d[:, None] for w, d in zip(weights, dist)], 1)
                degree = np.asarray([sum(a) for a in mono.monomial_powers(3, top)])
                grams[grp.ids] = (phi.swapaxes(1, 2) @ (weights[..., None] * phi)
                                  / (3 + degree[:, None] + degree))
            self._top_grams[kind] = grams
        return self._top_grams[kind] if kind == "cell" else super()._top_gram(kind)

    def _boundary_moments(self, kind):
        raise AssertionError("the point-level builders read no boundary moments")

    def _boundary(self, grp):
        o, ids = self.orient, grp.ids
        if grp.kind == "face":
            subs = grp.group.edge
            return (subs, o.face_edge_sign[ids, :subs.shape[1]].astype(float),
                    o.face_edge_normal[ids, :subs.shape[1]])
        subs = grp.group.faces
        return subs, o.cell_face_sign[ids, :subs.shape[1]].astype(float), o.face_normal[subs]

    def _grad_stack(self, grp):
        k, kind, ids = self.k, grp.kind, grp.ids
        dim = KINDS.index(kind)
        sub = KINDS[dim - 1]
        frames = self.orient.geometry(kind).frame[ids]
        inv_h = (1.0 / self.orient.geometry(kind).diameter[ids])[:, None, None]
        nk = _n(kind, k)
        vg_kk = self._grams(kind, ids, k, k, vector=True)
        b = np.zeros((len(ids), dim * nk, grp.globals.shape[1]))
        (own, _), = PARTS["Xgrad"][kind]
        c_own = grp.own(own)
        if c_own.size:
            div_k = mono.div_matrix(dim, k) * inv_h
            b[:, :, c_own] = -(self._grams(kind, ids, k - 1, k - 1) @ div_k).swapaxes(1, 2)
        subs, signs, normals = self._boundary(grp)
        boundary = []
        for j in range(subs.shape[1]):
            pts, weights, phi_s = self._own_rule(sub, subs[:, j])
            embed, potential = self._sub_data(grp, "edge_ops" if sub == "edge"
                                              else "face_grad_ops", subs[:, j])
            wphi = weights[:, :, None] * (phi_s[..., :_n(sub, k + 1)] @ potential)
            phi = self._eval(kind, ids, pts)
            vn = frame_dot(phi[..., :nk], frames, normals[:, j])
            omega = signs[:, j, None, None]
            _add_columns(b, embed, omega * vn.swapaxes(1, 2) @ wphi)
            boundary.append((omega, normals[:, j], phi, embed, wphi))
        grad = grp.solve(vg_kk, b, "gradient")
        if kind == "cell":
            return grad, None, vg_kk, b
        c2 = span_matrix("Rc", 2, k + 2)
        divf_k2 = mono.div_matrix(2, k + 2) * inv_h
        system = (divf_k2 @ c2).swapaxes(1, 2) @ self._grams(kind, ids, k + 1, k + 1)
        rhs = -(c2.T @ self._grams(kind, ids, k + 2, k, vector=True) @ grad)
        for omega, normal, phi, embed, wphi in boundary:
            wn = frame_dot(phi[..., :_n(kind, k + 2)], frames, normal) @ c2
            _add_columns(rhs, embed, omega * wn.swapaxes(1, 2) @ wphi)
        return grad, grp.solve(system, rhs, "scalar trace"), vg_kk, b

    def _curl_div_stack(self, grp, deriv, sign):
        k, kind, ids = self.k, grp.kind, grp.ids
        dim = KINDS.index(kind)
        sub = KINDS[dim - 1]
        space = grp.layout.space
        (image, _), (complement, _) = PARTS[space][kind]
        name = next(op.name for op in OPERATORS if op.source == space)
        inv_h = (1.0 / self.orient.geometry(kind).diameter[ids])[:, None, None]
        nk = _n(kind, k)
        g_kk = self._grams(kind, ids, k, k)
        b = np.zeros((len(ids), nk, grp.globals.shape[1]))
        c_img = grp.own(image)
        if c_img.size:
            img = span_matrix(image, dim, k - 1)
            vg_mm = self._grams(kind, ids, k - 1, k - 1, vector=True)
            b[:, :, c_img] = -sign * (img.T @ vg_mm @ (deriv(k) * inv_h)).swapaxes(1, 2)
        subs, signs, _ = self._boundary(grp)
        boundary = []
        for j in range(subs.shape[1]):
            pts, weights, phi_s = self._own_rule(sub, subs[:, j])
            c_s = _positions(grp.globals, grp.layout.indices(sub, subs[:, j], "poly"))
            wphi_s = weights[:, :, None] * phi_s[..., :_n(sub, k)]
            phi = self._eval(kind, ids, pts)
            omega = signs[:, j, None, None]
            _add_columns(b, c_s, sign * omega * phi[..., :nk].swapaxes(1, 2) @ wphi_s)
            boundary.append((omega, phi, c_s, wphi_s))
        op = grp.solve(g_kk, b, name)
        p0 = self._p0(kind, ids, k + 1)
        rhs1 = -sign * ((self._grams(kind, ids, k, k + 1) @ p0).swapaxes(1, 2) @ op)
        for omega, phi, c_s, wphi_s in boundary:
            phi_r = phi[..., :_n(kind, k + 1)] @ p0
            _add_columns(rhs1, c_s, omega * phi_r.swapaxes(1, 2) @ wphi_s)
        what = "tangential trace" if kind == "face" else f"{name} potential"
        potential = self._complement_solve(grp, complement, deriv(k + 1) * inv_h @ p0, rhs1,
                                           what)
        return op, potential, g_kk, b

    def _cell_curl_stack(self, grp):
        k, ids = self.k, grp.ids
        (image, _), (complement, _) = PARTS["Xcurl"]["cell"]
        count, nk = len(ids), _n("cell", k)
        inv_h = (1.0 / self.orient.geometry("cell").diameter[ids])[:, None, None]
        vg_kk = self._grams("cell", ids, k, k, vector=True)
        b = np.zeros((count, 3 * nk, grp.globals.shape[1]))
        c_r = grp.own(image)
        if c_r.size:
            r = span_matrix(image, 3, k - 1)
            vg_mm = self._grams("cell", ids, k - 1, k - 1, vector=True)
            b[:, :, c_r] = (r.T @ vg_mm @ (mono.curl_matrix(k) * inv_h)).swapaxes(1, 2)
        # (test x n_F) against the weighted tangential trace w_gt, as
        # u = w_gt @ cross(I, n_F).T at the face points
        subs, signs, normals = self._boundary(grp)
        face_frames = self.orient.geometry("face").frame
        nf_k = _n("face", k)
        boundary = []
        for j in range(subs.shape[1]):
            faces = subs[:, j]
            pts, weights, phi_f = self._own_rule("face", faces)
            embed, potential = self._sub_data(grp, "face_curl_ops", faces)
            parts = phi_f[:, None, :, :nf_k] @ potential.reshape(count, 2, nf_k, -1)
            gt_vals = np.moveaxis(parts, 1, -1) @ face_frames[faces][:, None]   # (G, q, m, 3)
            w_gt = weights[:, :, None, None] * gt_vals
            cross = np.cross(np.eye(3), normals[:, j, None, :]).swapaxes(1, 2)
            u = (w_gt.reshape(count, -1, 3) @ cross).reshape(w_gt.shape)
            phi = self._eval("cell", ids, pts)
            omega = signs[:, j, None, None]
            _add_columns(b, embed, omega * frame_moments(phi[..., :nk], u))
            boundary.append((omega, phi, embed, u))
        curl = grp.solve(vg_kk, b, "curl")
        gc1 = span_matrix("Gc", 3, k + 1)
        rhs1 = (gc1.T @ self._grams("cell", ids, k + 1, k, vector=True)) @ curl
        for omega, phi, embed, u in boundary:
            _add_columns(rhs1, embed,
                         -omega * (gc1.T @ frame_moments(phi[..., :_n("cell", k + 1)], u)))
        potential = self._complement_solve(grp, complement,
                                           mono.curl_matrix(k + 1) * inv_h @ gc1, rhs1,
                                           "curl potential")
        return curl, potential, vg_kk, b


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", ["prism_pair", "sheared_ring", "offset_block", "graded_cavity"])
def test_boundary_moments_match_the_point_level_builders(name, k):
    # every stacked field within 1e-13 of the point-level reference, in the
    # max norm relative to max(1, max |ref|)
    mesh = load_mesh(str(MESHES / f"{name}.json"))
    orient = compute_orientation(mesh)
    got, ref = DdrComplex(mesh, orient, k), PointLevelComplex(mesh, orient, k)
    for block in (b for op in OPERATORS for b in op.blocks):
        for st, want in zip(got.stacks(block.builder), ref.stacks(block.builder)):
            for field in ("op", "potential", "mass", "rhs"):
                a, w = getattr(st, field), getattr(want, field)
                assert (a is None) == (w is None), (block.builder, field)
                if w is not None and w.size:
                    err = np.abs(a - w).max() / max(1.0, np.abs(w).max())
                    assert err <= 1e-13, (block.builder, field, err)
