"""Quadrature rules on mesh entities with certified polynomial exactness.

Edges use Gauss-Legendre.  Faces are fanned into triangles around the face
centroid and elements into tetrahedra with apex at the element centroid;
each simplex carries a collapsed (Duffy-type) tensor Gauss rule.  The
collapse maps a polynomial of total degree d to a tensor polynomial whose
per-axis degree is d plus the Jacobian degree, so per-axis Gauss orders can
be chosen to integrate total degree d exactly with all-positive weights.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureDegreeError

_MAX_GAUSS = 64


@dataclass(frozen=True)
class QuadratureRule:
    """Points (n, 3) in ambient coordinates, positive weights (n,), certified degree."""

    entity: tuple[str, int]
    points: np.ndarray
    weights: np.ndarray
    degree: int

    @property
    def measure(self) -> float:
        return float(self.weights.sum())

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Weighted sum along the first axis of pointwise values."""
        return np.tensordot(self.weights, values, axes=(0, 0))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1], read-only (shared by every caller)."""
    if n > _MAX_GAUSS:
        raise QuadratureDegreeError(f"Gauss order {n} exceeds supported maximum {_MAX_GAUSS}")
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(0.5 * (x + 1.0), 0.5 * w)


def _npts(degree: int) -> int:
    return max(1, (degree + 2) // 2)


def segment_points(p0: np.ndarray, p1: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    a, w = _gauss01(_npts(degree))
    pts = p0[None, :] + a[:, None] * (p1 - p0)[None, :]
    return pts, w * np.linalg.norm(p1 - p0)


@functools.lru_cache(maxsize=None)
def _triangle_ref(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference collapsed rule: xi, eta and weights on the unit right triangle.

    Under (a, b) -> (xi, eta) = (a, b(1-a)) the integrand of total degree d
    becomes degree d+1 in a (Jacobian 1-a) and d in b.
    """
    na, nb = _npts(degree + 1), _npts(degree)
    a, wa = _gauss01(na)
    b, wb = _gauss01(nb)
    A, B = np.meshgrid(a, b, indexing="ij")
    xi = A.ravel()
    eta = (B * (1.0 - A)).ravel()
    w = (np.outer(wa, wb) * (1.0 - A)).ravel()
    return _read_only(xi, eta, w)


@functools.lru_cache(maxsize=None)
def _tetra_ref(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reference collapsed rule: xi, eta, zeta and weights on the unit tetrahedron."""
    na, nb, nc = _npts(degree + 2), _npts(degree + 1), _npts(degree)
    a, wa = _gauss01(na)
    b, wb = _gauss01(nb)
    c, wc = _gauss01(nc)
    A, B, C = np.meshgrid(a, b, c, indexing="ij")
    xi = A.ravel()
    eta = (B * (1.0 - A)).ravel()
    zeta = (C * (1.0 - A) * (1.0 - B)).ravel()
    w = (wa[:, None, None] * wb[None, :, None] * wc[None, None, :]
         * (1.0 - A) ** 2 * (1.0 - B)).ravel()
    return _read_only(xi, eta, zeta, w)


def triangle_points(p0, p1, p2, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed tensor rule on a (possibly embedded) triangle: the cached
    reference rule mapped affinely."""
    xi, eta, w = _triangle_ref(degree)
    e1, e2 = np.asarray(p1) - p0, np.asarray(p2) - p0
    pts = p0[None, :] + xi[:, None] * e1[None, :] + eta[:, None] * e2[None, :]
    area2 = np.linalg.norm(np.cross(e1, e2))
    return pts, w * area2


def tetra_points(p0, p1, p2, p3, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed tensor rule on a tetrahedron (weights use |det|): the cached
    reference rule mapped affinely."""
    xi, eta, zeta, w = _tetra_ref(degree)
    e1, e2, e3 = np.asarray(p1) - p0, np.asarray(p2) - p0, np.asarray(p3) - p0
    pts = (p0[None, :] + xi[:, None] * e1[None, :]
           + eta[:, None] * e2[None, :] + zeta[:, None] * e3[None, :])
    vol6 = abs(np.linalg.det(np.stack([e1, e2, e3])))
    return pts, w * vol6


def edge_rule(mesh, index: int, degree: int) -> QuadratureRule:
    v1, v2 = mesh.edges[index]
    pts, w = segment_points(mesh.vertices[v1], mesh.vertices[v2], degree)
    return QuadratureRule(("edge", index), pts, w, degree)


def face_rule(mesh, orientation, index: int, degree: int) -> QuadratureRule:
    """Centroid-fan triangulation; requires the face star-shaped w.r.t. its centroid."""
    center = orientation.face_center[index]
    loop = mesh.face_loops[index]
    pts, ws = [], []
    for a, b in zip(loop, loop[1:] + loop[:1]):
        p, w = triangle_points(center, mesh.vertices[a], mesh.vertices[b], degree)
        pts.append(p)
        ws.append(w)
    return QuadratureRule(("face", index), np.concatenate(pts), np.concatenate(ws), degree)


def cell_rule(mesh, orientation, index: int, degree: int) -> QuadratureRule:
    """Apex-centroid tetrahedralization over the fan triangles of each face."""
    apex = orientation.cell_center[index]
    pts, ws = [], []
    for f in mesh.element_faces[index]:
        fc = orientation.face_center[f]
        loop = mesh.face_loops[f]
        for a, b in zip(loop, loop[1:] + loop[:1]):
            p, w = tetra_points(apex, fc, mesh.vertices[a], mesh.vertices[b], degree)
            pts.append(p)
            ws.append(w)
    return QuadratureRule(("cell", index), np.concatenate(pts), np.concatenate(ws), degree)


def entity_rule(mesh, orientation, kind: str, index: int, degree: int) -> QuadratureRule:
    if kind == "edge":
        return edge_rule(mesh, index, degree)
    if kind == "face":
        return face_rule(mesh, orientation, index, degree)
    if kind == "cell":
        return cell_rule(mesh, orientation, index, degree)
    raise ValueError(f"unknown entity kind {kind!r}")
