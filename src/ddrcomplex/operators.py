"""Discrete gradient/curl/divergence operators of the arbitrary-order complex.

Every local operator is defined by moment conditions obtained from discrete
integration by parts: the unknown polynomial is tested against a space of
polynomial test functions, boundary terms feed in the traces built on the
lower-dimensional entities.  All defining systems are dense Gram or pairing
systems solved per entity; global operators collect the local blocks into
sparse matrices with deterministic (entity-index ascending) ordering.  Each
gradient/curl/divergence builder keeps its moment system (:class:`Moments`),
which the extensions of :mod:`.lifting` solve with degree-0 data.

:class:`DdrComplex` memoizes bases, quadrature rules, Gram matrices, local
operators, and assembled global matrices for one (mesh, orientation, degree).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import monomials as mono
from .errors import DomainError
from .layouts import DofLayout, LocalMap
from .mesh import Mesh, OrientationTable
from .quadrature import QuadratureRule, entity_rule
from .spaces import (
    ScaledMonomialBasis,
    SubspaceBasis,
    checked_solve,
    entity_basis,
    gram_matrix,
    project_columns,
    subspace_basis,
)


@dataclass(frozen=True)
class Moments:
    """The moment system ``mass @ op = rhs`` that defines a local operator.

    ``mass`` is the Gram matrix of the operator's target space; ``rhs`` holds
    the tested integration-by-parts terms, one column per local dof.
    """

    mass: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class EdgeOps:
    lmap: LocalMap        # restriction of Xgrad to the edge
    trace: np.ndarray     # to P^(k+1)(E)
    grad: np.ndarray      # to P^k(E)
    moments: Moments      # of grad


@dataclass(frozen=True)
class FaceGradOps:
    lmap: LocalMap        # restriction of Xgrad to the face
    grad: np.ndarray      # to vP^k(F)
    trace: np.ndarray     # to P^(k+1)(F)
    moments: Moments      # of grad


@dataclass(frozen=True)
class FaceCurlOps:
    lmap: LocalMap        # restriction of Xcurl to the face
    curl: np.ndarray      # to P^k(F)
    ttrace: np.ndarray    # to vP^k(F)
    moments: Moments      # of curl


@dataclass(frozen=True)
class CellGradOps:
    lmap: LocalMap
    grad: np.ndarray      # to vP^k(T)
    moments: Moments      # of grad


@dataclass(frozen=True)
class CellCurlOps:
    lmap: LocalMap
    curl: np.ndarray      # to vP^k(T)
    potential: np.ndarray # to vP^k(T)
    moments: Moments      # of curl


@dataclass(frozen=True)
class CellDivOps:
    lmap: LocalMap
    div: np.ndarray       # to P^k(T)
    potential: np.ndarray # to vP^k(T)
    moments: Moments      # of div


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
        r, c = np.meshgrid(rows, cols, indexing="ij")
        self.rows.append(r.ravel())
        self.cols.append(c.ravel())
        self.vals.append(block.ravel())

    def build(self, shape: tuple[int, int]) -> sp.csr_matrix:
        if not self.rows:
            return sp.csr_matrix(shape)
        coo = sp.coo_matrix(
            (np.concatenate(self.vals),
             (np.concatenate(self.rows), np.concatenate(self.cols))), shape=shape)
        return coo.tocsr()


class DdrComplex:
    """All discrete spaces and operators of one mesh at one degree."""

    def __init__(self, mesh: Mesh, orientation: OrientationTable, degree: int,
                 quad_margin: int = 4):
        if degree < 0:
            raise DomainError("degree must be >= 0")
        self.mesh = mesh
        self.orient = orientation
        self.k = degree
        self.quad_degree = 2 * degree + quad_margin
        self._layouts: dict[str, DofLayout] = {}
        self._rules: dict[tuple, QuadratureRule] = {}
        self._bases: dict[tuple, ScaledMonomialBasis] = {}
        self._grams: dict[tuple, np.ndarray] = {}
        self._subs: dict[tuple, SubspaceBasis] = {}
        self._edge_ops: dict[int, EdgeOps] = {}
        self._face_grad: dict[int, FaceGradOps] = {}
        self._face_curl: dict[int, FaceCurlOps] = {}
        self._cell_grad: dict[int, CellGradOps] = {}
        self._cell_curl: dict[int, CellCurlOps] = {}
        self._cell_div: dict[int, CellDivOps] = {}
        self._globals: dict[str, sp.csr_matrix] = {}

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

    def _inv_h(self, kind: str, index: int) -> float:
        return 1.0 / self.orient.entity_diameter(kind, index)

    def project_onto(self, part: str, entity: tuple[str, int], degree: int,
                     source_degree: int, columns: np.ndarray) -> np.ndarray:
        """Project vector-valued coefficient columns (over vP^source_degree)
        onto a tagged subspace of vP^degree on the same entity."""
        sub = self.subspace(part, entity, degree)
        kind, idx = entity
        return project_columns(sub,
                               self.gram(kind, idx, degree, degree, vector=True),
                               self.gram(kind, idx, degree, source_degree, vector=True),
                               columns)

    # -- edge operators -----------------------------------------------------

    def edge_ops(self, e: int) -> EdgeOps:
        if e in self._edge_ops:
            return self._edge_ops[e]
        k = self.k
        mesh = self.mesh
        lmap = self.layout("Xgrad").restriction("edge", e)
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
        deriv = mono.to_float(mono.derivative_matrix(1, k, 0)) * self._inv_h("edge", e)
        phi_k_ends = self.basis("edge", e, k).eval(mesh.vertices[[v1, v2]])
        b = np.zeros((g_kk.shape[0], nloc))
        b[:, c_qe] = -(g_mm @ deriv).T
        b[:, c_v1] -= phi_k_ends[0]
        b[:, c_v2] += phi_k_ends[1]
        grad = checked_solve(g_kk, b, f"edge {e}: gradient")

        ops = EdgeOps(lmap, trace, grad, Moments(g_kk, b))
        self._edge_ops[e] = ops
        return ops

    # -- face operators (gradient side) --------------------------------------

    def face_grad_ops(self, f: int) -> FaceGradOps:
        if f in self._face_grad:
            return self._face_grad[f]
        k = self.k
        lmap = self.layout("Xgrad").restriction("face", f)
        nloc = lmap.total
        vg_kk = self.gram("face", f, k, k, vector=True)
        nk = self.basis("face", f, k).n_scalar
        divf_k = mono.to_float(mono.div_matrix(2, k)) * self._inv_h("face", f)
        g_mm = self.gram("face", f, k - 1, k - 1)

        b = np.zeros((2 * nk, nloc))
        c_qf = lmap.local_indices("face", f, "poly")
        if c_qf.size:
            b[:, c_qf] = -(g_mm @ divf_k).T

        vbasis_k = self.basis("face", f, k, vector=True)
        edge_cache = []
        for pos, e in enumerate(self.mesh.face_edges[f]):
            omega = self.orient.face_edge_sign[f][pos]
            nfe = self.orient.face_edge_normal[f][pos]
            erule = self.rule("edge", e)
            eops = self.edge_ops(e)
            embed = lmap.embed(eops.lmap)
            phi_tr = self.basis("edge", e, k + 1).eval(erule.points) @ eops.trace
            wphi = erule.weights[:, None] * phi_tr          # (q, nloc_E)
            vn = vbasis_k.eval_vector(erule.points) @ nfe   # (q, 2nk)
            b[:, embed] += omega * vn.T @ wphi
            edge_cache.append((pos, e, omega, erule, embed, wphi))
        grad = checked_solve(vg_kk, b, f"face {f}: gradient")

        # scalar trace: pairing against Rc^(k+2), square since
        # div_F : Rc^(k+2) -> P^(k+1) is an isomorphism
        sub_rc2 = self.subspace("Rc", ("face", f), k + 2)
        c2 = sub_rc2.coeffs_float
        divf_k2 = mono.to_float(mono.div_matrix(2, k + 2)) * self._inv_h("face", f)
        g_11 = self.gram("face", f, k + 1, k + 1)
        system = (divf_k2 @ c2).T @ g_11
        vg_2k = self.gram("face", f, k + 2, k, vector=True)
        rhs = -(c2.T @ vg_2k @ grad)
        for pos, e, omega, erule, embed, wphi in edge_cache:
            wvals = sub_rc2.eval_vector(erule.points)       # (q, m, 3)
            nfe = self.orient.face_edge_normal[f][pos]
            wn = wvals @ nfe                                # (q, m)
            rhs[:, embed] += omega * wn.T @ wphi
        trace = checked_solve(system, rhs, f"face {f}: scalar trace")

        ops = FaceGradOps(lmap, grad, trace, Moments(vg_kk, b))
        self._face_grad[f] = ops
        return ops

    def cell_grad_ops(self, t: int) -> CellGradOps:
        if t in self._cell_grad:
            return self._cell_grad[t]
        k = self.k
        lmap = self.layout("Xgrad").restriction("cell", t)
        nloc = lmap.total
        vg_kk = self.gram("cell", t, k, k, vector=True)
        nk = self.basis("cell", t, k).n_scalar
        div3 = mono.to_float(mono.div_matrix(3, k)) * self._inv_h("cell", t)
        g_mm = self.gram("cell", t, k - 1, k - 1)

        b = np.zeros((3 * nk, nloc))
        c_qt = lmap.local_indices("cell", t, "poly")
        if c_qt.size:
            b[:, c_qt] = -(g_mm @ div3).T

        vbasis_k = self.basis("cell", t, k, vector=True)
        for pos, f in enumerate(self.mesh.element_faces[t]):
            omega = self.orient.cell_face_sign[t][pos]
            nf = self.orient.face_normal[f]
            frule = self.rule("face", f)
            fops = self.face_grad_ops(f)
            embed = lmap.embed(fops.lmap)
            phi_tr = self.basis("face", f, k + 1).eval(frule.points) @ fops.trace
            wphi = frule.weights[:, None] * phi_tr
            vn = vbasis_k.eval_vector(frule.points) @ nf
            b[:, embed] += omega * vn.T @ wphi
        grad = checked_solve(vg_kk, b, f"element {t}: gradient")
        ops = CellGradOps(lmap, grad, Moments(vg_kk, b))
        self._cell_grad[t] = ops
        return ops

    # -- face operators (curl side) -------------------------------------------

    def face_curl_ops(self, f: int) -> FaceCurlOps:
        if f in self._face_curl:
            return self._face_curl[f]
        k = self.k
        lmap = self.layout("Xcurl").restriction("face", f)
        nloc = lmap.total
        nk = self.basis("face", f, k).n_scalar
        g_kk = self.gram("face", f, k, k)
        vrot_k = mono.to_float(mono.vrot_matrix(k)) * self._inv_h("face", f)
        sub_r = self.subspace("R", ("face", f), k - 1)
        sub_rc = self.subspace("Rc", ("face", f), k)
        vg_mm = self.gram("face", f, k - 1, k - 1, vector=True)

        b = np.zeros((nk, nloc))
        c_r = lmap.local_indices("face", f, "R")
        if c_r.size:
            b[:, c_r] = (sub_r.coeffs_float.T @ vg_mm @ vrot_k).T

        scal_k = self.basis("face", f, k)
        edge_cache = []
        for pos, e in enumerate(self.mesh.face_edges[f]):
            omega = self.orient.face_edge_sign[f][pos]
            erule = self.rule("edge", e)
            c_ve = lmap.local_indices("edge", e, "poly")
            phi_ve = self.basis("edge", e, k).eval(erule.points)
            wphi_ve = erule.weights[:, None] * phi_ve       # (q, k+1)
            phi_face = scal_k.eval(erule.points)            # (q, nk)
            b[:, c_ve] -= omega * phi_face.T @ wphi_ve
            edge_cache.append((e, omega, erule, c_ve, wphi_ve))
        curl = checked_solve(g_kk, b, f"face {f}: curl")

        # tangential trace: tests vrot(P^{0,k+1}) + Rc^k span vP^k
        sub_p0 = self.subspace("P0", ("face", f), k + 1)
        vrot_k1 = mono.to_float(mono.vrot_matrix(k + 1)) * self._inv_h("face", f)
        t1 = vrot_k1 @ sub_p0.coeffs_float                  # (2nk, n_{k+1}-1)
        t2 = sub_rc.coeffs_float                            # (2nk, dim Rc)
        tests = np.concatenate([t1, t2], axis=1)
        vg_kk = self.gram("face", f, k, k, vector=True)
        system = tests.T @ vg_kk

        g_k_k1 = self.gram("face", f, k, k + 1)
        rhs1 = (g_k_k1 @ sub_p0.coeffs_float).T @ curl      # (n_{k+1}-1, nloc)
        phi_k1 = self.basis("face", f, k + 1)
        for e, omega, erule, c_ve, wphi_ve in edge_cache:
            phi_r = phi_k1.eval(erule.points) @ sub_p0.coeffs_float
            rhs1[:, c_ve] += omega * phi_r.T @ wphi_ve
        rhs2 = np.zeros((t2.shape[1], nloc))
        c_rc = lmap.local_indices("face", f, "Rc")
        if c_rc.size:
            rhs2[:, c_rc] = t2.T @ vg_kk @ t2
        ttrace = checked_solve(system, np.concatenate([rhs1, rhs2], axis=0),
                               f"face {f}: tangential trace")

        ops = FaceCurlOps(lmap, curl, ttrace, Moments(g_kk, b))
        self._face_curl[f] = ops
        return ops

    def cell_curl_ops(self, t: int) -> CellCurlOps:
        if t in self._cell_curl:
            return self._cell_curl[t]
        k = self.k
        lmap = self.layout("Xcurl").restriction("cell", t)
        nloc = lmap.total
        nk = self.basis("cell", t, k).n_scalar
        vg_kk = self.gram("cell", t, k, k, vector=True)
        curl_k = mono.to_float(mono.curl_matrix(k)) * self._inv_h("cell", t)
        sub_r = self.subspace("R", ("cell", t), k - 1)
        sub_rc = self.subspace("Rc", ("cell", t), k)
        vg_mm = self.gram("cell", t, k - 1, k - 1, vector=True)

        b = np.zeros((3 * nk, nloc))
        c_r = lmap.local_indices("cell", t, "R")
        if c_r.size:
            b[:, c_r] = (sub_r.coeffs_float.T @ vg_mm @ curl_k).T

        vbasis_k = self.basis("cell", t, k, vector=True)
        face_cache = []
        for pos, f in enumerate(self.mesh.element_faces[t]):
            omega = self.orient.cell_face_sign[t][pos]
            nf = self.orient.face_normal[f]
            frule = self.rule("face", f)
            fops = self.face_curl_ops(f)
            embed = lmap.embed(fops.lmap)
            gt_vals = np.einsum("pax,ab->pbx",
                                self.basis("face", f, k, vector=True).eval_vector(frule.points),
                                fops.ttrace)                # (q, nloc_F, 3)
            w_gt = frule.weights[:, None, None] * gt_vals
            wxn = np.cross(vbasis_k.eval_vector(frule.points), nf[None, None, :])
            b[:, embed] += omega * np.einsum("qjx,qlx->jl", wxn, w_gt)
            face_cache.append((f, omega, frule, embed, w_gt, nf))
        curl = checked_solve(vg_kk, b, f"element {t}: curl")

        # potential: tests curl(Gc^{k+1}) + Rc^k span vP^k
        sub_gc1 = self.subspace("Gc", ("cell", t), k + 1)
        curl_k1 = mono.to_float(mono.curl_matrix(k + 1)) * self._inv_h("cell", t)
        t1 = curl_k1 @ sub_gc1.coeffs_float
        t2 = sub_rc.coeffs_float
        tests = np.concatenate([t1, t2], axis=1)
        system = tests.T @ vg_kk

        vg_k1_k = self.gram("cell", t, k + 1, k, vector=True)
        rhs1 = (sub_gc1.coeffs_float.T @ vg_k1_k) @ curl
        vb_k1 = self.basis("cell", t, k + 1, vector=True)
        for f, omega, frule, embed, w_gt, nf in face_cache:
            w_vals = np.einsum("pax,ab->pbx", vb_k1.eval_vector(frule.points),
                               sub_gc1.coeffs_float)
            wxn = np.cross(w_vals, nf[None, None, :])
            rhs1[:, embed] -= omega * np.einsum("qjx,qlx->jl", wxn, w_gt)
        rhs2 = np.zeros((t2.shape[1], nloc))
        c_rc = lmap.local_indices("cell", t, "Rc")
        if c_rc.size:
            rhs2[:, c_rc] = t2.T @ vg_kk @ t2
        potential = checked_solve(system, np.concatenate([rhs1, rhs2], axis=0),
                                  f"element {t}: curl potential")

        ops = CellCurlOps(lmap, curl, potential, Moments(vg_kk, b))
        self._cell_curl[t] = ops
        return ops

    # -- element operators (divergence side) ----------------------------------

    def cell_div_ops(self, t: int) -> CellDivOps:
        if t in self._cell_div:
            return self._cell_div[t]
        k = self.k
        lmap = self.layout("Xdiv").restriction("cell", t)
        nloc = lmap.total
        nk = self.basis("cell", t, k).n_scalar
        g_kk = self.gram("cell", t, k, k)
        grad3 = mono.to_float(mono.grad_matrix(3, k)) * self._inv_h("cell", t)
        sub_g = self.subspace("G", ("cell", t), k - 1)
        sub_gc = self.subspace("Gc", ("cell", t), k)
        vg_mm = self.gram("cell", t, k - 1, k - 1, vector=True)

        b = np.zeros((nk, nloc))
        c_g = lmap.local_indices("cell", t, "G")
        if c_g.size:
            b[:, c_g] = -(sub_g.coeffs_float.T @ vg_mm @ grad3).T

        scal_k = self.basis("cell", t, k)
        face_cache = []
        for pos, f in enumerate(self.mesh.element_faces[t]):
            omega = self.orient.cell_face_sign[t][pos]
            frule = self.rule("face", f)
            c_wf = lmap.local_indices("face", f, "poly")
            phi_wf = self.basis("face", f, k).eval(frule.points)
            wphi_wf = frule.weights[:, None] * phi_wf
            phi_cell = scal_k.eval(frule.points)
            b[:, c_wf] += omega * phi_cell.T @ wphi_wf
            face_cache.append((f, omega, frule, c_wf, wphi_wf))
        div = checked_solve(g_kk, b, f"element {t}: divergence")

        # potential: tests grad(P^{0,k+1}) + Gc^k span vP^k
        sub_p0 = self.subspace("P0", ("cell", t), k + 1)
        grad_k1 = mono.to_float(mono.grad_matrix(3, k + 1)) * self._inv_h("cell", t)
        t1 = grad_k1 @ sub_p0.coeffs_float
        t2 = sub_gc.coeffs_float
        tests = np.concatenate([t1, t2], axis=1)
        vg_kk = self.gram("cell", t, k, k, vector=True)
        system = tests.T @ vg_kk

        g_k1_k = self.gram("cell", t, k + 1, k)
        rhs1 = -(sub_p0.coeffs_float.T @ g_k1_k) @ div
        phi_k1 = self.basis("cell", t, k + 1)
        for f, omega, frule, c_wf, wphi_wf in face_cache:
            phi_r = phi_k1.eval(frule.points) @ sub_p0.coeffs_float
            rhs1[:, c_wf] += omega * phi_r.T @ wphi_wf
        rhs2 = np.zeros((t2.shape[1], nloc))
        c_gc = lmap.local_indices("cell", t, "Gc")
        if c_gc.size:
            rhs2[:, c_gc] = t2.T @ vg_kk @ t2
        potential = checked_solve(system, np.concatenate([rhs1, rhs2], axis=0),
                                  f"element {t}: divergence potential")

        ops = CellDivOps(lmap, div, potential, Moments(g_kk, b))
        self._cell_div[t] = ops
        return ops

    # -- global assembly -------------------------------------------------------

    @property
    def gradient(self) -> sp.csr_matrix:
        """Xgrad -> Xcurl."""
        if "gradient" in self._globals:
            return self._globals["gradient"]
        k = self.k
        src = self.layout("Xgrad")
        tgt = self.layout("Xcurl")
        coo = _Coo()
        for e in range(self.mesh.n_edges):
            ops = self.edge_ops(e)
            coo.add(tgt.indices("edge", e, "poly"), ops.lmap.globals, ops.grad)
        for f in range(self.mesh.n_faces):
            ops = self.face_grad_ops(f)
            for part, deg in (("R", k - 1), ("Rc", k)):
                coo.add(tgt.indices("face", f, part), ops.lmap.globals,
                        self.project_onto(part, ("face", f), deg, k, ops.grad))
        for t in range(self.mesh.n_elements):
            ops = self.cell_grad_ops(t)
            for part, deg in (("R", k - 1), ("Rc", k)):
                coo.add(tgt.indices("cell", t, part), ops.lmap.globals,
                        self.project_onto(part, ("cell", t), deg, k, ops.grad))
        mat = coo.build((tgt.total, src.total))
        self._globals["gradient"] = mat
        return mat

    @property
    def curl(self) -> sp.csr_matrix:
        """Xcurl -> Xdiv."""
        if "curl" in self._globals:
            return self._globals["curl"]
        k = self.k
        src = self.layout("Xcurl")
        tgt = self.layout("Xdiv")
        coo = _Coo()
        for f in range(self.mesh.n_faces):
            ops = self.face_curl_ops(f)
            coo.add(tgt.indices("face", f, "poly"), ops.lmap.globals, ops.curl)
        for t in range(self.mesh.n_elements):
            ops = self.cell_curl_ops(t)
            for part, deg in (("G", k - 1), ("Gc", k)):
                coo.add(tgt.indices("cell", t, part), ops.lmap.globals,
                        self.project_onto(part, ("cell", t), deg, k, ops.curl))
        mat = coo.build((tgt.total, src.total))
        self._globals["curl"] = mat
        return mat

    @property
    def divergence(self) -> sp.csr_matrix:
        """Xdiv -> Pk."""
        if "divergence" in self._globals:
            return self._globals["divergence"]
        src = self.layout("Xdiv")
        tgt = self.layout("Pk")
        coo = _Coo()
        for t in range(self.mesh.n_elements):
            ops = self.cell_div_ops(t)
            coo.add(tgt.indices("cell", t, "poly"), ops.lmap.globals, ops.div)
        mat = coo.build((tgt.total, src.total))
        self._globals["divergence"] = mat
        return mat

    def operator(self, which: str) -> sp.csr_matrix:
        try:
            return {"gradient": lambda: self.gradient,
                    "curl": lambda: self.curl,
                    "divergence": lambda: self.divergence}[which]()
        except KeyError:
            raise DomainError(f"unknown operator {which!r}")

    # -- interpolation and tail maps --------------------------------------------

    def interpolate_grad(self, fn) -> np.ndarray:
        """Interpolate a scalar field: vertex values + L2 projections."""
        lay = self.layout("Xgrad")
        out = np.zeros(lay.total)
        for v in range(self.mesh.n_vertices):
            out[lay.indices("vertex", v, "val")[0]] = fn(self.mesh.vertices[v])
        for kind, count in (("edge", self.mesh.n_edges), ("face", self.mesh.n_faces),
                            ("cell", self.mesh.n_elements)):
            for i in range(count):
                idx = lay.indices(kind, i, "poly")
                if idx.size == 0:
                    continue
                rule = self.rule(kind, i)
                basis = self.basis(kind, i, self.k - 1)
                phi = basis.eval(rule.points)
                vals = np.asarray([fn(p) for p in rule.points], dtype=float)
                g = phi.T @ (rule.weights[:, None] * phi)
                out[idx] = checked_solve(g, phi.T @ (rule.weights * vals),
                                         f"interpolation on {kind} {i}")
        return out

    @property
    def head_column(self) -> np.ndarray:
        """Interpolate of the constant 1 (the complex head applied to 1)."""
        lay = self.layout("Xgrad")
        out = np.zeros(lay.total)
        for c in lay.components:
            if c.dim:
                out[c.offset] = 1.0   # constant monomial is the first basis member
        return out

    @property
    def pi0(self) -> sp.csr_matrix:
        """Elementwise mean: Pk -> one value per element."""
        lay = self.layout("Pk")
        coo = _Coo()
        for t in range(self.mesh.n_elements):
            rule = self.rule("cell", t)
            phi = self.basis("cell", t, self.k).eval(rule.points)
            means = rule.integrate(phi) / rule.measure
            coo.add(np.asarray([t]), lay.indices("cell", t, "poly"), means[None, :])
        return coo.build((self.mesh.n_elements, lay.total))


# ---------------------------------------------------------------------------
# degree-0 closed forms

def ddr0_closed_forms(mesh: Mesh, orientation: OrientationTable
                      ) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
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
