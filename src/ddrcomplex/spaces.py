"""Scaled monomial bases on mesh entities and their structured subspaces.

An entity carries the scalar basis { y^alpha : |alpha| <= l } of its scaled
coordinates and the stacked vector basis; the gradient/rotated-gradient/curl
images G, R and their Koszul complements Gc, Rc are stored as exact-rational
coefficient matrices over the ambient vector basis.  Only Gram matrices and
L2 projections go through floating point (quadrature).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import monomials as mono
from .errors import BasisRankError, ConditioningError, DomainError
from .quadrature import QuadratureRule

KINDS = ("P", "P0", "vP", "G", "Gc", "R", "Rc")

COND_LIMIT = 1e14


def space_dim(kind: str, degree: int, dim: int) -> int:
    """Dimension of a polynomial (sub)space; degree -1 always gives 0."""
    if kind not in KINDS:
        raise DomainError(f"unknown space kind {kind!r}")
    if kind in ("P", "P0"):
        if dim not in (1, 2, 3):
            raise DomainError(f"kind {kind!r} needs dim in {{1,2,3}}, got {dim}")
    elif dim not in (2, 3):
        raise DomainError(f"kind {kind!r} needs dim in {{2,3}}, got {dim}")
    if degree < 0:
        return 0
    n = mono.n_monomials(dim, degree)
    if kind == "P":
        return n
    if kind == "P0":
        return n - 1
    if kind == "vP":
        return dim * n
    if kind == "G":
        return mono.n_monomials(dim, degree + 1) - 1
    if kind == "Gc":
        return dim * n - (mono.n_monomials(dim, degree + 1) - 1)
    if kind == "R":
        if dim == 2:
            return mono.n_monomials(2, degree + 1) - 1
        return 3 * n - mono.n_monomials(3, degree - 1)
    # Rc
    return mono.n_monomials(dim, degree - 1)


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
        """Ambient vector values (npts, size, 3) of the stacked vector basis."""
        if not self.vector:
            raise DomainError("eval_vector on a scalar basis")
        phi = self.eval(pts)
        out = np.zeros((phi.shape[0], self.size, 3))
        n = self.n_scalar
        for c in range(self.dim):
            out[:, c * n:(c + 1) * n, :] = phi[:, :, None] * self.frame[c][None, None, :]
        return out


def entity_basis(mesh, orientation, kind: str, index: int, degree: int,
                 vector: bool = False) -> ScaledMonomialBasis:
    if kind == "edge":
        frame = orientation.edge_tangent[index][None, :]
        dim = 1
    elif kind == "face":
        frame = np.stack([orientation.face_tau1[index], orientation.face_tau2[index]])
        dim = 2
    elif kind == "cell":
        frame = np.eye(3)
        dim = 3
    else:
        raise DomainError(f"unknown entity kind {kind!r}")
    if vector and dim == 1:
        raise DomainError("vector bases live on faces and cells only")
    return ScaledMonomialBasis(
        entity=(kind, index),
        dim=dim,
        degree=degree,
        center=np.asarray(orientation.entity_center(kind, index), dtype=float),
        length=orientation.entity_diameter(kind, index),
        frame=frame,
        vector=vector,
    )


class SubspaceBasis:
    """A polynomial subspace as exact-rational columns over an ambient basis."""

    def __init__(self, ambient: ScaledMonomialBasis, kind: str, coeffs: np.ndarray):
        self.ambient = ambient
        self.kind = kind
        self.coeffs = coeffs

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @functools.cached_property
    def coeffs_float(self) -> np.ndarray:
        return mono.to_float(self.coeffs)

    def eval_vector(self, pts: np.ndarray) -> np.ndarray:
        """Ambient 3D values (npts, dim, 3) of the subspace columns."""
        amb = self.ambient.eval_vector(pts)
        return np.einsum("pax,ab->pbx", amb, self.coeffs_float)


@functools.lru_cache(maxsize=None)
def _span_matrix(kind: str, dim: int, degree: int) -> np.ndarray:
    """Exact coefficient matrix of G/Gc/R/Rc over the ambient vector basis.

    Built in pure scaled coordinates (uniform positive h factors dropped:
    they rescale the defining map but not its image).  Columns are a
    deterministic leftmost-pivot independent subset of the generating set.
    """
    expected = space_dim(kind, degree, dim)
    nvec = dim * mono.n_monomials(dim, degree)
    if expected == 0:
        return mono.frac_zeros(nvec, 0)

    if kind == "G":
        cand = mono.grad_matrix(dim, degree + 1)
    elif kind == "R" and dim == 2:
        cand = mono.vrot_matrix(degree + 1)
    elif kind == "R":
        cand = mono.curl_matrix(degree + 1)
    elif kind == "Rc":
        blocks = [mono.multiply_matrix(dim, degree - 1, ax) for ax in range(dim)]
        cand = mono.block_rows(blocks)
    elif kind == "Gc" and dim == 2:
        m1 = mono.multiply_matrix(2, degree - 1, 0)
        m2 = mono.multiply_matrix(2, degree - 1, 1)
        cand = mono.block_rows([m2, -m1])
    elif kind == "Gc":
        # columns y x (m e_i) over monomials m and unit vectors e_i
        m = [mono.multiply_matrix(3, degree - 1, ax) for ax in range(3)]
        z = mono.frac_zeros(mono.n_monomials(3, degree), mono.n_monomials(3, degree - 1))
        col_e1 = mono.block_rows([z, m[2], -m[1]])     # y x e1 = (0, y3, -y2)
        col_e2 = mono.block_rows([-m[2], z, m[0]])
        col_e3 = mono.block_rows([m[1], -m[0], z])
        cand = np.concatenate([col_e1, col_e2, col_e3], axis=1)
    else:
        raise DomainError(f"no span construction for kind {kind!r}")

    keep = mono.independent_columns(cand)
    picked = cand[:, keep]
    if picked.shape[1] != expected:
        raise BasisRankError(
            f"{kind}^{degree} in dim {dim}: got rank {picked.shape[1]}, expected {expected}")
    return picked


def subspace_basis(mesh, orientation, kind: str, entity: tuple[str, int], degree: int,
                   rule: QuadratureRule | None = None) -> SubspaceBasis:
    """Build a tagged subspace over the entity's scaled monomial ambient basis.

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
            coeffs = mono.frac_eye(n)[:, :space_dim(kind, degree, dim)]
            return SubspaceBasis(ambient, kind, coeffs)
        if rule is None:
            raise DomainError("P0 basis needs a quadrature rule for entity means")
        phi = ambient.eval(rule.points)
        means = rule.integrate(phi) / rule.measure
        coeffs = mono.frac_zeros(n, n - 1)
        for j in range(1, n):
            coeffs[j, j - 1] = Fraction(1)
            coeffs[0, j - 1] = -Fraction(float(means[j]))
        return SubspaceBasis(ambient, kind, coeffs)

    ambient = entity_basis(mesh, orientation, ekind, eidx, degree, vector=True)
    if kind == "vP":
        return SubspaceBasis(ambient, kind, mono.frac_eye(ambient.size))
    return SubspaceBasis(ambient, kind, _span_matrix(kind, dim, degree))


# ---------------------------------------------------------------------------
# Gram matrices and L2 projections

def gram_matrix(a: ScaledMonomialBasis, b: ScaledMonomialBasis,
                rule: QuadratureRule) -> np.ndarray:
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


def checked_solve(system: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Dense solve with a condition-number guard (limit 1e14)."""
    if system.size == 0:
        return np.zeros((system.shape[1], *rhs.shape[1:]))
    cond = np.linalg.cond(system)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ConditioningError(f"{what}: condition number {cond:.3e} beyond limit")
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"{what}: {exc}")


def project_columns(sub: SubspaceBasis, gram_own: np.ndarray, gram_cross: np.ndarray,
                    columns: np.ndarray) -> np.ndarray:
    """L2-orthogonal projection of coefficient columns onto a subspace.

    ``gram_own`` is the Gram of the subspace's ambient basis with itself and
    ``gram_cross`` the Gram of that ambient basis against the basis the
    ``columns`` are expressed in.  Solves (C^T M C) alpha = C^T M_x g.
    """
    c = sub.coeffs_float
    if sub.dim == 0:
        return np.zeros((0, columns.shape[1]))
    return checked_solve(c.T @ gram_own @ c, c.T @ gram_cross @ columns,
                         f"projection onto {sub.kind}^{sub.ambient.degree}")
