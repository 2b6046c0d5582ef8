"""Quadrature rules on mesh entities with certified polynomial exactness.

Edges use Gauss-Legendre.  Faces are fanned into triangles around the face
centroid and elements into tetrahedra with apex at the element centroid;
each simplex carries a collapsed (Duffy-type) tensor Gauss rule, mapped for
a whole size group at once (:func:`rule_stack`).  The collapse maps a
polynomial of total degree d to a tensor polynomial whose per-axis degree is
d plus the Jacobian degree, so per-axis Gauss orders can be chosen to
integrate total degree d exactly with all-positive weights.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureDegreeError
from .mesh import checked_entity, face_fans, row_dot

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


def _stacked(*vertices) -> list[np.ndarray]:
    """Simplex vertices, each a 3-vector or a (T, 3) array, as (T, 3) arrays."""
    return np.broadcast_arrays(*(np.atleast_2d(np.asarray(p, dtype=float)) for p in vertices))


def triangle_points(p0, p1, p2, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed tensor rule on (possibly embedded) triangles: the cached
    reference rule mapped affinely.  Each vertex is a 3-vector or a (T, 3)
    array of T triangles, whose points and weights follow one another."""
    xi, eta, w = _triangle_ref(degree)
    p0, p1, p2 = _stacked(p0, p1, p2)
    e1, e2 = p1 - p0, p2 - p0
    pts = p0[:, None] + xi[:, None] * e1[:, None] + eta[:, None] * e2[:, None]
    area2 = np.linalg.norm(np.cross(e1, e2), axis=1)
    return pts.reshape(-1, 3), (area2[:, None] * w).ravel()


def tetra_points(p0, p1, p2, p3, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed tensor rule on tetrahedra (weights use |det|): the cached
    reference rule mapped affinely.  Vertices as in :func:`triangle_points`."""
    xi, eta, zeta, w = _tetra_ref(degree)
    p0, p1, p2, p3 = _stacked(p0, p1, p2, p3)
    e1, e2, e3 = p1 - p0, p2 - p0, p3 - p0
    pts = (p0[:, None] + xi[:, None] * e1[:, None]
           + eta[:, None] * e2[:, None] + zeta[:, None] * e3[:, None])
    vol6 = np.abs(np.linalg.det(np.stack([e1, e2, e3], axis=1)))
    return pts.reshape(-1, 3), (vol6[:, None] * w).ravel()


def rule_stack(mesh, orientation, kind: str, ids, degree: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Points (G, q, 3) and weights (G, q) of the rules of the entities
    ``ids`` of one kind whose rules have one size, as in a size group:
    every segment or fan simplex of every member mapped at once.  A face's
    centroid must see its whole boundary, an element's its faces' fans."""
    ids = np.asarray(ids)
    if kind == "edge":
        a, w = _gauss01(_npts(degree))
        p0, p1 = mesh.vertices[mesh.edges[ids]].swapaxes(0, 1)
        pts = p0[:, None] + a[:, None] * (p1 - p0)[:, None]
        w = np.sqrt(row_dot(p1 - p0, p1 - p0))[:, None] * w
    elif kind in ("face", "cell"):
        faces = ids[:, None] if kind == "face" else np.asarray(
            [mesh.element_faces[t] for t in ids])
        owner, start, end = face_fans(mesh, faces)
        corners = [x.reshape(-1, 3) for x in (orientation.face_center[owner],
                                              mesh.vertices[start], mesh.vertices[end])]
        if kind == "face":
            pts, w = triangle_points(*corners, degree)
        else:
            apex = np.repeat(orientation.cell_center[ids], owner.shape[1], axis=0)
            pts, w = tetra_points(apex, *corners, degree)
    else:
        raise DomainError(f"no quadrature rule on entity kind {kind!r}")
    return pts.reshape(len(ids), -1, 3), w.reshape(len(ids), -1)


def entity_rule(mesh, orientation, kind: str, index: int, degree: int) -> QuadratureRule:
    """One entity's rule: :func:`rule_stack` on the group of one ``[index]``.
    An unknown kind or an index out of range raises :class:`DomainError`."""
    index = checked_entity(mesh, kind, index)
    pts, w = rule_stack(mesh, orientation, kind, [index], degree)
    return QuadratureRule((kind, index), pts[0], w[0], degree)
