"""Discrete gradient/curl/divergence operators of the arbitrary-order complex.

Every local operator is defined by moment conditions obtained from discrete
integration by parts: the unknown polynomial is tested against a space of
polynomial test functions, boundary terms feed in the traces built on the
lower-dimensional entities.  All defining systems are dense Gram or pairing
systems solved per entity; global operators collect the local blocks into
sparse matrices with deterministic (entity-index ascending) ordering.  Every
local operator is one :class:`LocalOps` record, which keeps its moment system
(:class:`Moments`) for the extensions of :mod:`.lifting` to solve with
degree-0 data.
:data:`OPERATORS` describes the complex once, operator by operator and entity
kind by entity kind; assembly, extensions and checks all loop over it.

:class:`DdrComplex` memoizes bases, quadrature rules, Gram matrices, local
operators, and assembled global matrices for one (mesh, orientation, degree).
The moment systems are written in scaled monomials centred at the entity, so
they depend on the entity's shape and not on where it sits: congruent
translated copies (see :func:`shape_key`) share one build of their local
operators, their projected blocks and their monomial means.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import monomials as mono
from .errors import DomainError
from .layouts import KINDS, PARTS, DofLayout, LocalMap, closure, entity_count
from .mesh import Mesh, OrientationTable
from .quadrature import QuadratureRule, entity_rule
from .spaces import (
    ScaledMonomialBasis,
    SubspaceBasis,
    checked_solve,
    checked_solves,
    entity_basis,
    frame_dot,
    frame_moments,
    frame_values,
    gram_matrix,
    project_columns,
    subspace_basis,
)
from .sparse import CsrMatrix


@dataclass(frozen=True)
class Moments:
    """The moment system ``mass @ op = rhs`` that defines a local operator.

    ``mass`` is the Gram matrix of the operator's target space; ``rhs`` holds
    the tested integration-by-parts terms, one column per local dof.
    """

    mass: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class LocalOps:
    """One entity's local operator, the potential built with it, and the
    operator's moment system.

    ``op`` maps the local dofs of ``lmap`` to the operator's target
    polynomials.  ``potential`` holds the edge or face scalar trace (to
    P^(k+1)), the face tangential trace or the element curl or divergence
    potential (to vP^k); the element gradient has none.
    """

    lmap: LocalMap
    op: np.ndarray
    potential: np.ndarray | None
    moments: Moments


@dataclass(frozen=True)
class Block:
    """One entity kind's share of a global operator.

    The local operator fills the target's components on the entity, read
    from :data:`.layouts.PARTS`: ``poly`` as it is, or the degree-(k-1)
    image and the degree-k complement, each the local operator's
    projection.  The extensions project the degree-0 potential onto the
    source's complement part.
    """

    kind: str
    builder: str


@dataclass(frozen=True)
class Operator:
    name: str
    source: str
    target: str
    local: str            # short name in check names
    blocks: tuple[Block, ...]


# The complex Xgrad -> Xcurl -> Xdiv -> Pk, entity kinds in order of dimension.
OPERATORS = (
    Operator("gradient", "Xgrad", "Xcurl", "grad",
             (Block("edge", "edge_ops"), Block("face", "face_grad_ops"),
              Block("cell", "cell_grad_ops"))),
    Operator("curl", "Xcurl", "Xdiv", "curl",
             (Block("face", "face_curl_ops"), Block("cell", "cell_curl_ops"))),
    Operator("divergence", "Xdiv", "Pk", "div", (Block("cell", "cell_div_ops"),)),
)


# Two entities share their local operators when every float of their shape
# keys, as a length, agrees to within this many entity diameters: 25 times
# below the tightest certificate tolerance (cw_diagram, 1e-13).
_SHAPE_TOL = 4e-15
# Grid, in entity diameters, on which keys are rounded for lookup; far
# coarser than _SHAPE_TOL, so congruent copies rarely straddle a grid line.
_SHAPE_GRID = 2.0 ** -20


def shape_key(mesh: Mesh, orientation: OrientationTable, kind: str,
              index: int) -> tuple[tuple, np.ndarray]:
    """What fixes one entity's local operators: its shape, up to translation.

    The pattern holds the local index structure of the closure (edge
    endpoints, face loops, face-edge and element-face order, all as positions
    in the local order of :func:`.layouts.closure`) and the omega_FE and
    omega_TF signs.  The lengths hold the closure's vertex coordinates
    relative to the entity centre, then per closure edge its tangent,
    centre and length, per closure face its n_FE, n_F, tau1, tau2, centre,
    diameter and area, and the element's diameter and volume.  Centres are
    relative to the entity centre; unit vectors are scaled by the entity
    diameter h, areas divided by h and volumes by h**2, so that every float
    is a length.
    """
    o = orientation
    vs, es, fs, _ = closure(mesh, kind, index)
    h = o.entity_diameter(kind, index)
    center = o.entity_center(kind, index)
    vpos = {v: n for n, v in enumerate(vs)}
    epos = {e: n for n, e in enumerate(es)}
    fpos = {f: n for n, f in enumerate(fs)}
    pattern: list = [kind, len(vs), len(es), len(fs)]
    lengths = [mesh.vertices[vs] - center]
    for e in es:
        pattern += [vpos[int(v)] for v in mesh.edges[e]]
        lengths += [o.edge_tangent[e] * h, o.edge_midpoint[e] - center, [o.edge_length[e]]]
    for f in fs:
        loop = mesh.face_loops[f]
        pattern += [len(loop), *(vpos[v] for v in loop), *(epos[e] for e in mesh.face_edges[f]),
                    *o.face_edge_sign[f]]
        lengths += [o.face_edge_normal[f] * h, o.face_normal[f] * h, o.face_tau1[f] * h,
                    o.face_tau2[f] * h, o.face_center[f] - center,
                    [o.face_diameter[f], o.face_area[f] / h]]
    if kind == "cell":
        pattern += [*(fpos[f] for f in mesh.element_faces[index]), *o.cell_face_sign[index]]
        lengths += [[o.cell_diameter[index], o.cell_volume[index] / h ** 2]]
    return tuple(pattern), np.concatenate([np.ravel(x) for x in lengths])


def _read_only(obj):
    """Mark an array, or the arrays of a local-operator record, read-only."""
    arrays = ((obj.op, obj.potential, obj.moments.mass, obj.moments.rhs)
              if isinstance(obj, LocalOps) else (obj,))
    for a in arrays:
        if a is not None:
            a.setflags(write=False)
    return obj


def _label(kind: str, index: int) -> str:
    """An entity as solve and error messages name it."""
    return f"{'element' if kind == 'cell' else kind} {index}"


class _Coo:
    """COO accumulator for dense blocks."""

    def __init__(self):
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []

    def add(self, rows: np.ndarray, cols: np.ndarray, block: np.ndarray) -> None:
        block = np.asarray(block, dtype=float)
        if block.size == 0:
            return
        self.rows.append(np.repeat(rows, len(cols)))
        self.cols.append(np.tile(cols, len(rows)))
        self.vals.append(block.ravel())

    def build(self, shape: tuple[int, int]) -> CsrMatrix:
        if not self.rows:
            return CsrMatrix.from_coo(shape, [], [], [])
        return CsrMatrix.from_coo(shape, np.concatenate(self.rows),
                                  np.concatenate(self.cols), np.concatenate(self.vals))


def _field_values(fn, points: np.ndarray) -> np.ndarray:
    """``fn`` at an ``(n, 3)`` array of points, as ``n`` floats."""
    vals = np.asarray(fn(points), dtype=float)
    try:
        return np.broadcast_to(vals, (len(points),))
    except ValueError:
        raise DomainError(f"interpolated field gave shape {vals.shape} "
                          f"at {len(points)} points; expected ({len(points)},)") from None


class DdrComplex:
    """All discrete spaces and operators of one mesh at one degree."""

    def __init__(self, mesh: Mesh, orientation: OrientationTable, degree: int):
        if degree < 0:
            raise DomainError("degree must be >= 0")
        self.mesh = mesh
        self.orient = orientation
        self.k = degree
        self.quad_degree = 2 * degree + 4
        self._layouts: dict[str, DofLayout] = {}
        self._rules: dict[tuple, QuadratureRule] = {}
        self._bases: dict[tuple, ScaledMonomialBasis] = {}
        self._grams: dict[tuple, np.ndarray] = {}
        self._subs: dict[tuple, SubspaceBasis] = {}
        self._means: dict[tuple, np.ndarray] = {}
        # shape sharing: representative per (kind, entity), lookup buckets of
        # (representative, key lengths), local operators per (kind, space) and
        # entity, projected blocks per (builder, part, representative)
        self._reps: dict[tuple[str, int], int] = {}
        self._shapes: dict[tuple, list[tuple[int, np.ndarray]]] = {}
        self._ops: dict[tuple[str, str], dict[int, LocalOps]] = {}
        self._projected: dict[tuple, np.ndarray] = {}
        self._globals: dict[str, CsrMatrix] = {}

    # -- cached geometry-level objects ------------------------------------

    def layout(self, space: str) -> DofLayout:
        if space not in self._layouts:
            self._layouts[space] = DofLayout(space, self.k, self.mesh)
        return self._layouts[space]

    def rule(self, kind: str, index: int) -> QuadratureRule:
        key = (kind, index)
        if key not in self._rules:
            self._rules[key] = entity_rule(self.mesh, self.orient, kind, index,
                                           self.quad_degree)
        return self._rules[key]

    def basis(self, kind: str, index: int, degree: int,
              vector: bool = False) -> ScaledMonomialBasis:
        key = (kind, index, degree, vector)
        if key not in self._bases:
            self._bases[key] = entity_basis(self.mesh, self.orient, kind, index,
                                            degree, vector)
        return self._bases[key]

    def gram(self, kind: str, index: int, deg_a: int, deg_b: int,
             vector: bool = False) -> np.ndarray:
        key = (kind, index, deg_a, deg_b, vector)
        if key not in self._grams:
            a = self.basis(kind, index, deg_a, vector)
            b = self.basis(kind, index, deg_b, vector)
            self._grams[key] = gram_matrix(a, b, self.rule(kind, index))
        return self._grams[key]

    def subspace(self, kind: str, entity: tuple[str, int], degree: int) -> SubspaceBasis:
        key = (kind, entity, degree)
        if key not in self._subs:
            rule = self.rule(*entity) if kind == "P0" else None
            self._subs[key] = subspace_basis(self.mesh, self.orient, kind, entity,
                                             degree, rule)
        return self._subs[key]

    def means(self, kind: str, index: int) -> np.ndarray:
        """Mean over one entity of each scalar degree-k basis monomial
        (shared by congruent copies, read-only)."""
        key = (kind, self.representative(kind, index))
        if key not in self._means:
            rule = self.rule(*key)
            phi = self.basis(*key, self.k).eval(rule.points)
            self._means[key] = _read_only(rule.integrate(phi) / rule.measure)
        return self._means[key]

    def representative(self, kind: str, index: int) -> int:
        """The entity whose local operators this one shares: the first entity
        of its kind looked up with a matching :func:`shape_key`, every float
        within 4e-15 diameters of that entity's."""
        if (kind, index) not in self._reps:
            pattern, lengths = shape_key(self.mesh, self.orient, kind, index)
            h = self.orient.entity_diameter(kind, index)
            bucket = self._shapes.setdefault(
                (pattern, round(math.log2(h) / _SHAPE_GRID),
                 np.round(lengths / (_SHAPE_GRID * h)).astype(np.int64).tobytes()), [])
            for rep, ref in bucket:
                if np.all(np.abs(lengths - ref)
                          <= _SHAPE_TOL * self.orient.entity_diameter(kind, rep)):
                    break
            else:
                rep = index
                bucket.append((rep, lengths))
            self._reps[(kind, index)] = rep
        return self._reps[(kind, index)]

    def _shared(self, build, kind: str, space: str, index: int, *data) -> LocalOps:
        """The local operators ``build`` gives an entity of ``kind`` on ``space``.

        A representative is built, as ``build(lmap, kind, index, *data)``,
        and its arrays are marked read-only; a congruent copy gets the same
        arrays with its own LocalMap.
        """
        cache = self._ops.setdefault((kind, space), {})
        if index not in cache:
            rep = self.representative(kind, index)
            lmap = self.layout(space).restriction(kind, index)
            if rep == index:
                cache[index] = _read_only(build(lmap, kind, index, *data))
            else:
                cache[index] = replace(self._shared(build, kind, space, rep, *data), lmap=lmap)
        return cache[index]

    def _inv_h(self, kind: str, index: int) -> float:
        return 1.0 / self.orient.entity_diameter(kind, index)

    def _boundary(self, kind: str, index: int):
        """``(sub-entity, omega, normal)`` for each edge of a face (omega_FE,
        n_FE) or each face of an element (omega_TF, n_F), in mesh order."""
        o = self.orient
        if kind == "face":
            return zip(self.mesh.face_edges[index], o.face_edge_sign[index],
                       o.face_edge_normal[index])
        return ((f, omega, o.face_normal[f]) for f, omega in
                zip(self.mesh.element_faces[index], o.cell_face_sign[index]))

    def project_onto(self, part: str, entity: tuple[str, int], degree: int,
                     source_degree: int, columns: np.ndarray) -> np.ndarray:
        """Project vector-valued coefficient columns (over vP^source_degree)
        onto a tagged subspace of vP^degree on the same entity (its Grams are
        those of the entity's representative)."""
        kind, idx = entity
        rep = self.representative(kind, idx)
        return project_columns(self.subspace(part, (kind, rep), degree),
                               self.gram(kind, rep, degree, degree, vector=True),
                               self.gram(kind, rep, degree, source_degree, vector=True),
                               columns)

    def _projected_op(self, block: Block, part: str, index: int, degree: int) -> np.ndarray:
        """A block's local operator projected onto a degree-k part, shared by shape."""
        rep = self.representative(block.kind, index)
        key = (block.builder, part, rep)
        if key not in self._projected:
            self._projected[key] = _read_only(self.project_onto(
                part, (block.kind, rep), degree, self.k, getattr(self, block.builder)(rep).op))
        return self._projected[key]

    def _complement_solve(self, lmap: LocalMap, entity: tuple[str, int], part: str,
                          t1: np.ndarray, rhs1: np.ndarray, what: str) -> np.ndarray:
        """A degree-k vector potential from its moments against the tests
        ``[t1 | t2]``, with ``t2`` the basis of the complement ``part``: the
        ``t1`` moments are ``rhs1``, the ``t2`` moments those of the entity's
        own ``part`` unknowns."""
        vg_kk = self.gram(*entity, self.k, self.k, vector=True)
        t2 = self.subspace(part, entity, self.k).coeffs
        tests = np.concatenate([t1, t2], axis=1)
        rhs2 = np.zeros((t2.shape[1], lmap.total))
        rhs2[:, lmap.local_indices(*entity, part)] = t2.T @ vg_kk @ t2
        return checked_solve(tests.T @ vg_kk, np.concatenate([rhs1, rhs2], axis=0), what)

    # -- local operators ------------------------------------------------------
    # edge_ops ... cell_div_ops are the blocks of OPERATORS; each returns a
    # LocalOps.  Face and element gradient are one integration by parts, as
    # are the face curl and the element divergence with their potentials.

    def edge_ops(self, e: int) -> LocalOps:
        return self._shared(self._build_edge_ops, "edge", "Xgrad", e)

    def face_grad_ops(self, f: int) -> LocalOps:
        return self._shared(self._build_grad_ops, "face", "Xgrad", f)

    def cell_grad_ops(self, t: int) -> LocalOps:
        return self._shared(self._build_grad_ops, "cell", "Xgrad", t)

    def face_curl_ops(self, f: int) -> LocalOps:
        return self._shared(self._build_curl_div_ops, "face", "Xcurl", f,
                            mono.vrot_matrix, -1)

    def cell_curl_ops(self, t: int) -> LocalOps:
        return self._shared(self._build_cell_curl_ops, "cell", "Xcurl", t)

    def cell_div_ops(self, t: int) -> LocalOps:
        return self._shared(self._build_curl_div_ops, "cell", "Xdiv", t,
                            lambda degree: mono.grad_matrix(3, degree), 1)

    def _build_edge_ops(self, lmap: LocalMap, kind: str, e: int) -> LocalOps:
        k = self.k
        mesh = self.mesh
        v1, v2 = (int(v) for v in mesh.edges[e])
        b_k1 = self.basis("edge", e, k + 1)
        ends = b_k1.eval(mesh.vertices[[v1, v2]])          # (2, k+2)
        g_mm = self.gram("edge", e, k - 1, k - 1)
        g_m1 = self.gram("edge", e, k - 1, k + 1)

        n1 = b_k1.n_scalar
        nloc = lmap.total
        c_v1 = lmap.local_indices("vertex", v1, "val")[0]
        c_v2 = lmap.local_indices("vertex", v2, "val")[0]
        c_qe = lmap.local_indices("edge", e, "poly")

        system = np.vstack([ends, g_m1])                    # (k+2, k+2)
        rhs = np.zeros((n1, nloc))
        rhs[0, c_v1] = 1.0
        rhs[1, c_v2] = 1.0
        rhs[2:, c_qe] = g_mm
        trace = checked_solve(system, rhs, f"edge {e}: scalar trace")

        g_kk = self.gram("edge", e, k, k)
        deriv = mono.derivative_matrix(1, k, 0) * self._inv_h("edge", e)
        phi_k_ends = self.basis("edge", e, k).eval(mesh.vertices[[v1, v2]])
        b = np.zeros((g_kk.shape[0], nloc))
        b[:, c_qe] = -(g_mm @ deriv).T
        b[:, c_v1] -= phi_k_ends[0]
        b[:, c_v2] += phi_k_ends[1]
        grad = checked_solve(g_kk, b, f"edge {e}: gradient")

        return LocalOps(lmap, grad, trace, Moments(g_kk, b))

    def _build_grad_ops(self, lmap: LocalMap, kind: str, i: int) -> LocalOps:
        """Face or element gradient, tested against vP^k: minus the entity's
        own P^(k-1) unknowns against the divergence of the tests, plus the
        boundary's scalar traces against their normal components.  A face
        also gets its scalar trace, which the element gradient uses."""
        k = self.k
        dim = KINDS.index(kind)
        sub = KINDS[dim - 1]
        inv_h = self._inv_h(kind, i)
        vg_kk = self.gram(kind, i, k, k, vector=True)
        nk = self.basis(kind, i, k).n_scalar
        div_k = mono.div_matrix(dim, k) * inv_h
        g_mm = self.gram(kind, i, k - 1, k - 1)

        b = np.zeros((dim * nk, lmap.total))
        (own, _), = PARTS["Xgrad"][kind]
        c_own = lmap.local_indices(kind, i, own)
        if c_own.size:
            b[:, c_own] = -(g_mm @ div_k).T

        scal_k = self.basis(kind, i, k)
        boundary = []
        for s, omega, normal in self._boundary(kind, i):
            srule = self.rule(sub, s)
            sops = (self.edge_ops if sub == "edge" else self.face_grad_ops)(s)
            embed = lmap.embed(sops.lmap)
            phi_tr = self.basis(sub, s, k + 1).eval(srule.points) @ sops.potential
            wphi = srule.weights[:, None] * phi_tr           # (q, nloc of s)
            vn = frame_dot(scal_k.eval(srule.points), scal_k.frame, normal)  # (q, dim nk)
            b[:, embed] += omega * vn.T @ wphi
            boundary.append((omega, normal, srule, embed, wphi))
        grad = checked_solve(vg_kk, b, f"{_label(kind, i)}: gradient")
        if kind == "cell":
            return LocalOps(lmap, grad, None, Moments(vg_kk, b))

        # scalar trace: pairing against Rc^(k+2), square since
        # div_F : Rc^(k+2) -> P^(k+1) is an isomorphism
        c2 = self.subspace("Rc", (kind, i), k + 2).coeffs
        scal_k2 = self.basis(kind, i, k + 2)
        divf_k2 = mono.div_matrix(2, k + 2) * inv_h
        g_11 = self.gram(kind, i, k + 1, k + 1)
        system = (divf_k2 @ c2).T @ g_11
        vg_2k = self.gram(kind, i, k + 2, k, vector=True)
        rhs = -(c2.T @ vg_2k @ grad)
        for omega, normal, srule, embed, wphi in boundary:
            wn = frame_dot(scal_k2.eval(srule.points), scal_k2.frame, normal) @ c2  # (q, m)
            rhs[:, embed] += omega * wn.T @ wphi
        trace = checked_solve(system, rhs, f"face {i}: scalar trace")
        return LocalOps(lmap, grad, trace, Moments(vg_kk, b))

    def _build_curl_div_ops(self, lmap: LocalMap, kind: str, i: int,
                            deriv: Callable[[int], np.ndarray], sign: int) -> LocalOps:
        """Face curl or element divergence, and its potential.

        The operator is tested against P^k: ``-sign`` times the entity's own
        degree-(k-1) image part against ``deriv`` of the tests (``vrot`` on a
        face, ``grad`` on an element; ``deriv(degree)`` is its integer matrix
        on P^degree), plus ``sign`` times the boundary's own
        P^k unknowns.  The potential (face tangential trace, element
        divergence potential) is tested against ``deriv`` of P^{0,k+1}:
        ``-sign`` times the operator plus the boundary terms.  With the
        degree-k complement part these tests span vP^k.
        """
        k = self.k
        sub = KINDS[KINDS.index(kind) - 1]
        (image, _), (complement, _) = PARTS[lmap.layout.space][kind]
        name = next(op.name for op in OPERATORS if op.source == lmap.layout.space)
        inv_h = self._inv_h(kind, i)
        nk = self.basis(kind, i, k).n_scalar
        g_kk = self.gram(kind, i, k, k)
        deriv_k = deriv(k) * inv_h
        sub_img = self.subspace(image, (kind, i), k - 1)
        vg_mm = self.gram(kind, i, k - 1, k - 1, vector=True)

        b = np.zeros((nk, lmap.total))
        c_img = lmap.local_indices(kind, i, image)
        if c_img.size:
            b[:, c_img] = -sign * (sub_img.coeffs.T @ vg_mm @ deriv_k).T

        scal_k = self.basis(kind, i, k)
        boundary = []
        for s, omega, _ in self._boundary(kind, i):
            srule = self.rule(sub, s)
            c_s = lmap.local_indices(sub, s, "poly")
            phi_s = self.basis(sub, s, k).eval(srule.points)
            wphi_s = srule.weights[:, None] * phi_s          # (q, n_k of s)
            phi = scal_k.eval(srule.points)                  # (q, nk)
            b[:, c_s] += sign * omega * phi.T @ wphi_s
            boundary.append((omega, srule, c_s, wphi_s))
        op = checked_solve(g_kk, b, f"{_label(kind, i)}: {name}")

        sub_p0 = self.subspace("P0", (kind, i), k + 1)
        deriv_k1 = deriv(k + 1) * inv_h
        g_k_k1 = self.gram(kind, i, k, k + 1)
        rhs1 = -sign * ((g_k_k1 @ sub_p0.coeffs).T @ op)  # (n_{k+1}-1, nloc)
        phi_k1 = self.basis(kind, i, k + 1)
        for omega, srule, c_s, wphi_s in boundary:
            phi_r = phi_k1.eval(srule.points) @ sub_p0.coeffs
            rhs1[:, c_s] += omega * phi_r.T @ wphi_s
        what = "tangential trace" if kind == "face" else f"{name} potential"
        potential = self._complement_solve(lmap, (kind, i), complement,
                                           deriv_k1 @ sub_p0.coeffs, rhs1,
                                           f"{_label(kind, i)}: {what}")
        return LocalOps(lmap, op, potential, Moments(g_kk, b))

    def _build_cell_curl_ops(self, lmap: LocalMap, kind: str, t: int) -> LocalOps:
        k = self.k
        (image, _), (complement, _) = PARTS["Xcurl"]["cell"]
        nloc = lmap.total
        nk = self.basis("cell", t, k).n_scalar
        vg_kk = self.gram("cell", t, k, k, vector=True)
        curl_k = mono.curl_matrix(k) * self._inv_h("cell", t)
        sub_r = self.subspace(image, ("cell", t), k - 1)
        vg_mm = self.gram("cell", t, k - 1, k - 1, vector=True)

        b = np.zeros((3 * nk, nloc))
        c_r = lmap.local_indices("cell", t, image)
        if c_r.size:
            b[:, c_r] = (sub_r.coeffs.T @ vg_mm @ curl_k).T

        # the boundary terms pair (test x n_F) with the weighted tangential
        # trace w_gt; the curl and its potential both read them from
        # u = w_gt @ cross(I, n_F).T
        scal_k = self.basis("cell", t, k)
        face_cache = []
        for f, omega, nf in self._boundary("cell", t):
            frule = self.rule("face", f)
            fops = self.face_curl_ops(f)
            embed = lmap.embed(fops.lmap)
            fbasis = self.basis("face", f, k)
            gt_vals = frame_values(fbasis.eval(frule.points), fbasis.frame,
                                   fops.potential)          # (q, nloc_F, 3)
            w_gt = frule.weights[:, None, None] * gt_vals
            u = (w_gt.reshape(-1, 3) @ np.cross(np.eye(3), nf).T).reshape(w_gt.shape)
            b[:, embed] += omega * frame_moments(scal_k.eval(frule.points), u)
            face_cache.append((omega, frule, embed, u))
        curl = checked_solve(vg_kk, b, f"element {t}: curl")

        # potential: tests curl(Gc^{k+1}) + Rc^k span vP^k
        sub_gc1 = self.subspace("Gc", ("cell", t), k + 1)
        curl_k1 = mono.curl_matrix(k + 1) * self._inv_h("cell", t)
        vg_k1_k = self.gram("cell", t, k + 1, k, vector=True)
        rhs1 = (sub_gc1.coeffs.T @ vg_k1_k) @ curl
        scal_k1 = self.basis("cell", t, k + 1)
        for omega, frule, embed, u in face_cache:
            rhs1[:, embed] -= omega * (sub_gc1.coeffs.T
                                       @ frame_moments(scal_k1.eval(frule.points), u))
        potential = self._complement_solve(lmap, ("cell", t), complement,
                                           curl_k1 @ sub_gc1.coeffs,
                                           rhs1, f"element {t}: curl potential")

        return LocalOps(lmap, curl, potential, Moments(vg_kk, b))

    # -- global assembly -------------------------------------------------------

    def operator(self, which: str) -> CsrMatrix:
        """The global operator named ``which``, assembled from the local
        blocks of :data:`OPERATORS` in entity order."""
        if which not in self._globals:
            op = next((op for op in OPERATORS if op.name == which), None)
            if op is None:
                raise DomainError(f"unknown operator {which!r}")
            tgt = self.layout(op.target)
            coo = _Coo()
            for block in op.blocks:
                parts = PARTS[op.target][block.kind]
                for i in range(entity_count(self.mesh, block.kind)):
                    ops = getattr(self, block.builder)(i)
                    if len(parts) == 1:
                        coo.add(tgt.indices(block.kind, i, parts[0][0]), ops.lmap.globals,
                                ops.op)
                        continue
                    for part, shift in parts:
                        coo.add(tgt.indices(block.kind, i, part), ops.lmap.globals,
                                self._projected_op(block, part, i, self.k + shift))
            self._globals[which] = coo.build((tgt.total, self.layout(op.source).total))
        return self._globals[which]

    gradient = property(lambda self: self.operator("gradient"), doc="Xgrad -> Xcurl.")
    curl = property(lambda self: self.operator("curl"), doc="Xcurl -> Xdiv.")
    divergence = property(lambda self: self.operator("divergence"), doc="Xdiv -> Pk.")

    # -- interpolation and tail maps --------------------------------------------

    def interpolate_grad(self, fn) -> np.ndarray:
        """Interpolate a scalar field: vertex values + L2 projections.

        ``fn`` is vectorised: it maps an ``(n, 3)`` array of points to ``n``
        values (a scalar broadcasts).  It is called once on the vertices and
        once on each entity's quadrature points.  A list of fields gives one
        interpolate per field, as the rows of an array; each entity's basis
        is then evaluated, and its Gram's conditioning checked, once for all
        of them, while each field keeps its own solve.
        """
        fields = list(fn) if isinstance(fn, (list, tuple)) else [fn]
        lay = self.layout("Xgrad")
        out = np.zeros((len(fields), lay.total))
        vertex_dofs = [lay.component("vertex", v, "val").offset
                       for v in range(self.mesh.n_vertices)]
        for row, field in zip(out, fields):
            row[vertex_dofs] = _field_values(field, self.mesh.vertices)
        for kind in KINDS[1:]:
            for i in range(entity_count(self.mesh, kind)):
                idx = lay.indices(kind, i, "poly")
                if idx.size == 0:
                    continue
                rule = self.rule(kind, i)
                phi = self.basis(kind, i, self.k - 1).eval(rule.points)
                rhs = [phi.T @ (rule.weights * _field_values(field, rule.points))
                       for field in fields]
                out[:, idx] = checked_solves(self.gram(kind, i, self.k - 1, self.k - 1),
                                             rhs, f"interpolation on {kind} {i}")
        return out if isinstance(fn, (list, tuple)) else out[0]

    @property
    def head_column(self) -> np.ndarray:
        """Interpolate of the constant 1 (the complex head applied to 1)."""
        lay = self.layout("Xgrad")
        out = np.zeros(lay.total)
        for c in lay.components:
            if c.dim:
                out[c.offset] = 1.0   # constant monomial is the first basis member
        return out


# ---------------------------------------------------------------------------
# degree-0 closed forms

def ddr0_closed_forms(mesh: Mesh, orientation: OrientationTable
                      ) -> tuple[CsrMatrix, CsrMatrix, CsrMatrix]:
    """Degree-0 gradient/curl/divergence from the boundary-value formulas.

    grad: (q_V2 - q_V1)/|E| per edge; curl: -(1/|F|) sum omega_FE |E| v_E;
    div: (1/|T|) sum omega_TF |F| w_F.  Must match the generically assembled
    degree-0 operators entrywise.
    """
    o = orientation
    grad = _Coo()
    for e in range(mesh.n_edges):
        v1, v2 = mesh.edges[e]
        grad.add(np.asarray([e]), np.asarray([v1, v2]),
                 np.asarray([[-1.0, 1.0]]) / o.edge_length[e])
    curl = _Coo()
    for f in range(mesh.n_faces):
        for pos, e in enumerate(mesh.face_edges[f]):
            val = -o.face_edge_sign[f][pos] * o.edge_length[e] / o.face_area[f]
            curl.add(np.asarray([f]), np.asarray([e]), np.asarray([[val]]))
    div = _Coo()
    for t in range(mesh.n_elements):
        for pos, f in enumerate(mesh.element_faces[t]):
            val = o.cell_face_sign[t][pos] * o.face_area[f] / o.cell_volume[t]
            div.add(np.asarray([t]), np.asarray([f]), np.asarray([[val]]))
    return (grad.build((mesh.n_edges, mesh.n_vertices)),
            curl.build((mesh.n_faces, mesh.n_edges)),
            div.build((mesh.n_elements, mesh.n_faces)))
