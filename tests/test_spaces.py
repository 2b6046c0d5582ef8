"""Polynomial subspace dimensions, exact calculus, Gram/projection behaviour.

The per-entity reference forms live here: one entity's scaled monomial
basis (:class:`ScaledMonomialBasis`, :func:`entity_basis`), its tagged
subspaces (:class:`SubspaceBasis`, :func:`subspace_basis`), its Gram
(:func:`gram_matrix`) and its quadrature rule (:func:`entity_rule`).  The
package evaluates stacks of entities at once; these forms spell out the
same quantities one entity at a time, and the tests of the stacked paths
compare against them.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from ddrcomplex import ConditioningError, DomainError, QuadratureRule, compute_orientation, space_dim
from ddrcomplex import monomials as mono
from ddrcomplex.homology import integer_rank
from ddrcomplex.mesh import checked_entity
from ddrcomplex.quadrature import rule_stack
from ddrcomplex.spaces import frame_values, span_matrix, stacked_solve

from conftest import complex_for, mesh_and_orientation
from test_general_meshes import prism_pair


# -- per-entity reference forms ------------------------------------------------

@dataclass(frozen=True)
class ScaledMonomialBasis:
    """Monomials of y = (x - center)/length, in 1/2/3 intrinsic variables.

    ``frame`` maps ambient 3D points to intrinsic coordinates: the unit
    tangent for edges, the two orthonormal in-plane axes for faces, and the
    identity for elements.  Vector-valued bases stack one copy of the scalar
    basis per intrinsic component; component c of a face basis is the 3D
    field (monomial) * frame[c].
    """

    entity: tuple[str, int]
    dim: int
    degree: int
    center: np.ndarray
    length: float
    frame: np.ndarray     # (dim, 3)
    vector: bool = False

    @property
    def n_scalar(self) -> int:
        return mono.n_monomials(self.dim, self.degree)

    @property
    def size(self) -> int:
        return self.n_scalar * (self.dim if self.vector else 1)

    def local_coords(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (pts - self.center[None, :]) @ self.frame.T / self.length

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Scalar design matrix (npts, n_scalar) at ambient points."""
        return mono.eval_monomials(self.dim, self.degree, self.local_coords(pts))

    def eval_vector(self, pts: np.ndarray) -> np.ndarray:
        """Ambient vector values (npts, size, 3) of the stacked vector basis:
        the reference form of the frame contractions of ``spaces``."""
        if not self.vector:
            raise DomainError("eval_vector on a scalar basis")
        phi = self.eval(pts)
        out = np.zeros((phi.shape[0], self.size, 3))
        n = self.n_scalar
        for c in range(self.dim):
            out[:, c * n:(c + 1) * n, :] = phi[:, :, None] * self.frame[c][None, None, :]
        return out


def entity_basis(mesh, orientation, kind, index, degree, vector=False):
    """The scaled monomial basis of one edge, face or element."""
    if kind not in ("edge", "face", "cell"):
        raise DomainError(f"unknown entity kind {kind!r}")
    if vector and kind == "edge":
        raise DomainError("vector bases live on faces and cells only")
    geometry = orientation.geometry(kind)
    return ScaledMonomialBasis(
        entity=(kind, index),
        dim=geometry.frame.shape[1],
        degree=degree,
        center=np.asarray(geometry.center[index], dtype=float),
        length=float(geometry.diameter[index]),
        frame=geometry.frame[index],
        vector=vector,
    )


class SubspaceBasis:
    """A polynomial subspace as columns over an ambient basis; ``coeffs``
    is read-only."""

    def __init__(self, ambient, kind, coeffs):
        self.ambient = ambient
        self.kind = kind
        self.coeffs = coeffs
        coeffs.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def eval_vector(self, pts: np.ndarray) -> np.ndarray:
        """Ambient 3D values (npts, dim, 3) of the subspace columns (the
        reference form of :func:`frame_values` on ``coeffs``)."""
        amb = self.ambient.eval_vector(pts)
        return np.einsum("pax,ab->pbx", amb, self.coeffs)


def subspace_basis(mesh, orientation, kind, entity, degree, rule=None):
    """A tagged subspace over the entity's scaled monomial ambient basis.

    P0 subtracts the entity mean of each non-constant monomial and therefore
    needs a quadrature ``rule``; all other kinds are quadrature-free.
    """
    ekind, eidx = entity
    dim = {"edge": 1, "face": 2, "cell": 3}[ekind]
    space_dim(kind, degree, dim)  # validates kind/dim compatibility
    if kind in ("P", "P0"):
        ambient = entity_basis(mesh, orientation, ekind, eidx, degree, vector=False)
        n = ambient.n_scalar
        if kind == "P" or degree < 0:
            return SubspaceBasis(ambient, kind, np.eye(n)[:, :space_dim(kind, degree, dim)])
        if rule is None:
            raise DomainError("P0 basis needs a quadrature rule for entity means")
        phi = ambient.eval(rule.points)
        means = rule.integrate(phi) / rule.measure
        # y^alpha - mean; 0.0 - mean keeps a zero mean +0.0
        coeffs = np.vstack([0.0 - means[1:], np.eye(n - 1)])
        return SubspaceBasis(ambient, kind, coeffs)

    ambient = entity_basis(mesh, orientation, ekind, eidx, degree, vector=True)
    if kind == "vP":
        return SubspaceBasis(ambient, kind, np.eye(ambient.size))
    return SubspaceBasis(ambient, kind, span_matrix(kind, dim, degree))


def gram_matrix(a, b, rule):
    """Ambient Gram between two (scalar or vector) bases on one entity."""
    if a.vector != b.vector:
        raise DomainError("mixed scalar/vector Gram")
    pa, pb = a.eval(rule.points), b.eval(rule.points)
    g = pa.T @ (rule.weights[:, None] * pb)
    if not a.vector:
        return g
    out = np.zeros((a.size, b.size))
    na, nb = a.n_scalar, b.n_scalar
    for c in range(a.dim):
        out[c * na:(c + 1) * na, c * nb:(c + 1) * nb] = g
    return out


def entity_rule(mesh, orientation, kind, index, degree):
    """One entity's rule: ``rule_stack`` on its row of its size group.
    An unknown kind or an index out of range raises :class:`DomainError`."""
    index = checked_entity(mesh, kind, index)
    group, row = mesh.group_table(kind)[:, index]
    pts, w = rule_stack(mesh, orientation, kind, mesh.groups(kind)[group].rows([row]), degree)
    return QuadratureRule((kind, index), pts[0], w[0], degree)


def _cube_subspace(kind, entity, degree):
    """A tagged subspace on an entity of the unit cube (P0 with a rule exact
    to degree 6, as the face rules of a degree-1 complex)."""
    mesh, orient = mesh_and_orientation("cube")
    rule = entity_rule(mesh, orient, *entity, 6) if kind == "P0" else None
    return subspace_basis(mesh, orient, kind, entity, degree, rule)


def test_space_dim_examples():
    assert space_dim("P", 2, 1) == 3          # 1, s, s^2
    assert space_dim("R", 0, 3) == 3
    assert space_dim("Gc", 1, 3) == 3
    assert space_dim("P", -1, 3) == 0
    assert space_dim("Rc", 0, 2) == 0
    assert space_dim("G", 1, 2) == 5
    with pytest.raises(DomainError):
        space_dim("R", 1, 1)
    with pytest.raises(DomainError):
        space_dim("bogus", 1, 3)


@pytest.mark.parametrize("kind,dim", [("G", 2), ("Gc", 2), ("R", 2), ("Rc", 2),
                                      ("G", 3), ("Gc", 3), ("R", 3), ("Rc", 3)])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_subspace_dimensions(kind, dim, degree):
    entity = ("face", 0) if dim == 2 else ("cell", 0)
    sub = _cube_subspace(kind, entity, degree)
    assert sub.dim == space_dim(kind, degree, dim)
    assert not sub.coeffs.flags.writeable
    if sub.dim:
        assert integer_rank(sub.coeffs) == sub.dim  # exact independence


@pytest.mark.parametrize("entity", [("face", 0), ("cell", 0)])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_complementary_pairs_span_ambient(entity, degree):
    dim = 2 if entity[0] == "face" else 3
    full = dim * space_dim("P", degree, dim)
    for a, b in (("R", "Rc"), ("G", "Gc")):
        sa = _cube_subspace(a, entity, degree)
        sb = _cube_subspace(b, entity, degree)
        assert sa.dim + sb.dim == full
        stacked = np.concatenate([sa.coeffs, sb.coeffs], axis=1)
        assert integer_rank(stacked) == full


def test_rc_face_degree_one_is_koszul_field():
    # Rc^1(F) = (x - x_F) P^0(F): single column (y1, y2) in frame coordinates
    sub = _cube_subspace("Rc", ("face", 0), 1)
    assert sub.dim == 1
    amb = sub.ambient
    pts = amb.center[None, :] + 0.3 * amb.frame[0][None, :] + 0.1 * amb.frame[1][None, :]
    vals = sub.eval_vector(pts)[0, 0]
    expected = (0.3 * amb.frame[0] + 0.1 * amb.frame[1]) / amb.length
    assert np.abs(vals - expected).max() < 1e-13


def test_differential_examples_exact():
    # physical derivatives are the integer scaled-coordinate matrices times 1/h
    c = complex_for("cube", 1)
    h = entity_basis(c.mesh, c.orient, "cell", 0, 1).length
    y1 = np.array([0, 1, 0, 0])                   # the monomial y1 = (x - x_T)_1 / h
    out = mono.grad_matrix(3, 1) @ y1
    assert out.dtype == np.int64 and np.array_equal(out, [1, 0, 0])
    assert np.array_equal(out / h, [1 / h, 0, 0])
    # div of the Koszul field x - x_T = h * (y1, y2, y3): exactly 3
    koszul = np.zeros(12, dtype=np.int64)
    koszul[1] = 1      # y1 in component 1
    koszul[4 + 2] = 1  # y2 in component 2
    koszul[8 + 3] = 1  # y3 in component 3
    out = mono.div_matrix(3, 1) @ koszul
    assert out.dtype == np.int64 and np.array_equal(out, [3])


def test_vrot_of_first_frame_coordinate():
    # vrot(s1) = (grad s1)^perp = (0, -1) in the oriented frame, s1 = h * y1
    out = mono.vrot_matrix(1) @ np.array([0, 1, 0])
    assert out.dtype == np.int64 and np.array_equal(out, [0, -1])


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_composition_identities_exact(degree):
    # unit coefficient vectors, so each product is a column of the composition
    curl_grad = mono.curl_matrix(degree - 1) @ mono.grad_matrix(3, degree)
    assert curl_grad.dtype == np.int64 and not curl_grad.any()  # curl(grad) = 0 exactly
    div_curl = mono.div_matrix(3, degree - 1) @ mono.curl_matrix(degree)
    assert div_curl.dtype == np.int64 and not div_curl.any()    # div(curl) = 0 exactly


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bijective_pairings(k):
    """div_F: Rc^k -> P^(k-1), vrot: P^{0,k} -> R^(k-1), grad: P^{0,k} -> G^(k-1),
    curl: Gc^k -> R^(k-1) are square full-rank pairings."""
    from ddrcomplex import monomials as mono

    f, t = ("face", 0), ("cell", 0)

    sub = _cube_subspace("Rc", f, k)
    div = mono.div_matrix(2, k) @ sub.coeffs
    assert np.linalg.matrix_rank(div) == div.shape[1] == space_dim("P", k - 1, 2)

    p0 = _cube_subspace("P0", f, k)
    vrot = mono.vrot_matrix(k) @ p0.coeffs
    assert np.linalg.matrix_rank(vrot) == space_dim("R", k - 1, 2) == vrot.shape[1]

    p0t = _cube_subspace("P0", t, k)
    grad = mono.grad_matrix(3, k) @ p0t.coeffs
    assert np.linalg.matrix_rank(grad) == space_dim("G", k - 1, 3) == grad.shape[1]

    gc = _cube_subspace("Gc", t, k)
    curl = mono.curl_matrix(k) @ gc.coeffs
    assert np.linalg.matrix_rank(curl) == space_dim("R", k - 1, 3) == gc.dim


def test_gram_spd_and_projection_idempotent():
    c = complex_for("cube", 2)
    rule = c.rule("cell", 0)
    basis = entity_basis(c.mesh, c.orient, "cell", 0, 2)
    gram = gram_matrix(basis, basis, rule)
    assert np.abs(gram - gram.T).max() < 1e-14
    assert np.linalg.eigvalsh(gram).min() > 0

    # projecting a member of the subspace returns identical coefficients
    sub = _cube_subspace("R", ("cell", 0), 1)
    member = sub.coeffs @ np.arange(1.0, sub.dim + 1)
    alpha = c._project("cell", [0], "R", 1, 1, member[None, :, None])[0]
    assert np.abs(alpha.ravel() - np.arange(1.0, sub.dim + 1)).max() < 1e-12


def test_mean_projection_on_unit_edge():
    # mean of the arc-length coordinate over an edge of the unit cube
    mesh, orient = mesh_and_orientation("cube")
    c = complex_for("cube", 1)
    rule = c.rule("edge", 0)
    svals = (rule.points - mesh.vertices[mesh.edges[0][0]]) @ orient.edge_tangent[0]
    mean = (rule.weights * svals).sum() / orient.edge_length[0]
    assert abs(mean - 0.5) < 1e-14


def test_p0_basis_has_zero_mean():
    c = complex_for("cube", 1)
    for entity in (("face", 0), ("cell", 0)):
        sub = _cube_subspace("P0", entity, 2)
        rule = c.rule(*entity)
        vals = sub.ambient.eval(rule.points) @ sub.coeffs
        means = rule.integrate(vals) / rule.measure
        assert np.abs(means).max() < 1e-14


def test_singular_gram_raises_conditioning_error():
    # the singular member gets the error its caller raises and a zero
    # solution; the other member is solved as usual
    singular = np.asarray([[1.0, 1.0], [1.0, 1.0]])
    named = []
    out, errors = stacked_solve(np.stack([2 * np.eye(2), singular]), np.ones((2, 2, 1)),
                                lambda g: named.append(g) or ("fine", "test system")[g])
    assert named == [1]       # only a failing member's name is formatted
    assert list(errors) == [1] and isinstance(errors[1], ConditioningError)
    assert str(errors[1]).startswith("test system: condition number ")
    assert np.array_equal(out, [[[0.5], [0.5]], [[0.0], [0.0]]])


def test_non_finite_system_raises_labelled_conditioning_error():
    # the condition estimate itself fails (SVD does not converge) on a NaN system
    _, errors = stacked_solve(np.full((1, 2, 2), np.nan), np.ones((1, 2, 1)),
                              lambda g: "test system")
    with pytest.raises(ConditioningError, match="^test system: "):
        raise errors[0]


@pytest.mark.parametrize("name,args", [("derivative", (1, 3, 0)), ("grad", (3, 2)),
                                       ("div", (2, 3)), ("curl", (2,)), ("vrot", (3,)),
                                       ("multiply", (3, 2, 1))])
def test_integer_matrices_cached_read_only(name, args):
    build = getattr(mono, f"{name}_matrix")
    got = build(*args)
    assert got is build(*args)
    assert got.dtype == np.int64
    assert not got.flags.writeable


def test_stacked_solve_matches_single_solves(monkeypatch):
    # one condition estimate for the stack; each member and each right-hand
    # side of a leading axis (as interpolation solves its fields) is solved
    # on its own, bit for bit
    rng = np.random.default_rng(3)
    system = rng.normal(size=(3, 6, 6)) + 6 * np.eye(6)
    rhs = rng.normal(size=(4, 3, 6, 1))
    conds = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: conds.append(1) or cond(a))
    got, errors = stacked_solve(system, rhs, lambda g: "test system")
    assert not errors and len(conds) == 1
    for f in range(4):
        for g in range(3):
            assert np.array_equal(got[f, g, :, 0], np.linalg.solve(system[g], rhs[f, g, :, 0]))


def _relative(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# Frame contractions of the point-level boundary terms, the reference the
# operator builders' boundary moments are checked against
# (tests/test_operators.py).  A vector basis V is phi (q, n) stacked along
# its frame (dim, 3); np.cross(V, w) is V with the frame np.cross(frame, w).

def frame_dot(phi, frame, u):
    """``V @ u`` for a 3-vector ``u``: the (q, dim n) u-components of V."""
    a = (frame @ u[..., None])[..., 0]                         # (..., dim)
    return np.concatenate([phi * a[..., c, None, None] for c in range(frame.shape[-2])],
                          axis=-1)


def frame_moments(phi, u):
    """``einsum("pax,plx->al", V, F)`` from ``u = F @ frame.T`` (q, m, dim):
    the (dim n, m) pairings of V with m vector fields, whose row block c is
    ``phi.T @ u[:, :, c]``."""
    *lead, q, n = phi.shape
    m, dim = u.shape[-2:]
    blocks = (phi.swapaxes(-1, -2) @ u.reshape(*lead, q, m * dim)).reshape(*lead, n, m, dim)
    return np.moveaxis(blocks, -1, -3).reshape(*lead, dim * n, m)


# face 4 of the prism pair lies in the x=y plane, so its frame has no axis direction
@pytest.mark.parametrize("kind,index", [("face", 4), ("cell", 0)])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_frame_contractions_match_vector_values(kind, index, degree):
    # each frame contraction against the eval_vector expression it stands for
    mesh = prism_pair()
    orient = compute_orientation(mesh)
    basis = entity_basis(mesh, orient, kind, index, degree, vector=True)
    rng = np.random.default_rng(10 * degree + len(kind))
    pts = basis.center + basis.length * rng.uniform(-0.6, 0.6, (17, 3))
    vals, phi, frame = basis.eval_vector(pts), basis.eval(pts), basis.frame
    u = rng.normal(size=3)
    assert _relative(frame_dot(phi, frame, u), vals @ u) <= 1e-14
    coeffs = rng.normal(size=(basis.size, 5))
    # a leading axis of coefficient vectors over one basis
    assert _relative(frame_values(phi, frame, coeffs.T),
                     np.einsum("pax,ab->bpx", vals, coeffs)) <= 1e-14
    assert _relative(frame_values(phi, frame, coeffs[:, 0]),
                     np.einsum("pax,a->px", vals, coeffs[:, 0])) <= 1e-14
    fields = rng.normal(size=(len(pts), 4, 3))
    assert _relative(frame_moments(phi, fields @ frame.T),
                     np.einsum("qjx,qlx->jl", vals, fields)) <= 1e-14
    normal = orient.face_normal[index] if kind == "face" else rng.normal(size=3)
    assert _relative(frame_moments(phi, fields @ np.cross(frame, normal).T),
                     np.einsum("qjx,qlx->jl", np.cross(vals, normal), fields)) <= 1e-14


def _eval_monomials_loop(dim, degree, y):
    """Reference: one column per monomial, one factor per nonzero power, the
    power of |y| with the sign restored (for p = 1, 2 exactly y ** p)."""
    powers = mono.monomial_powers(dim, degree)
    out = np.empty((y.shape[0], len(powers)))
    for j, alpha in enumerate(powers):
        col = np.ones(y.shape[0])
        for ax, p in enumerate(alpha):
            if p:
                col = col * np.copysign(np.abs(y[:, ax]) ** p, y[:, ax] if p % 2 else 1.0)
        out[:, j] = col
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_eval_monomials_matches_the_column_loop(dim):
    rng = np.random.default_rng(dim)
    for degree in range(-1, 7):
        for npts in (1, 9, 120):
            y = rng.uniform(-1.3, 1.3, (npts, dim))
            got = mono.eval_monomials(dim, degree, y)
            assert got.shape == (npts, mono.n_monomials(dim, degree))
            assert np.array_equal(got, _eval_monomials_loop(dim, degree, y))


def test_eval_monomials_powers_are_within_one_ulp_of_numpy_powers():
    # from the third on, a power of a negative base is the power of its
    # absolute value with the sign restored, not numpy's y ** p, but it
    # differs by one ulp at most and keeps the sign
    y = np.random.default_rng(5).uniform(-1.3, 1.3, (4000, 1))
    got = mono.eval_monomials(1, 12, y)
    for p in range(13):
        np.testing.assert_array_max_ulp(got[:, p], y[:, 0] ** p, maxulp=1)
    assert (np.sign(got[:, 1::2]) == np.sign(y)).all()
