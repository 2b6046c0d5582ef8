"""Scaled monomial bases on mesh entities and their structured subspaces.

An entity carries the scalar basis { y^alpha : |alpha| <= l } of its scaled
coordinates and the stacked vector basis; the gradient/rotated-gradient/curl
images G, R and their Koszul complements Gc, Rc are coefficient matrices
over the ambient vector basis, picked from integer matrices by exact
elimination, so their entries are integers.  Only Gram matrices and L2
projections go through floating point (quadrature).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import monomials as mono
from .errors import BasisRankError, ConditioningError, DomainError
from .homology import _echelon
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
        """Ambient vector values (npts, size, 3) of the stacked vector basis.

        The reference form of the frame contractions below, which the
        library uses instead.
        """
        if not self.vector:
            raise DomainError("eval_vector on a scalar basis")
        phi = self.eval(pts)
        out = np.zeros((phi.shape[0], self.size, 3))
        n = self.n_scalar
        for c in range(self.dim):
            out[:, c * n:(c + 1) * n, :] = phi[:, :, None] * self.frame[c][None, None, :]
        return out


# ---------------------------------------------------------------------------
# Frame contractions.  A vector basis V is its scalar design matrix phi
# (q, n) stacked along its frame (dim, 3): V[p, c n + j] = phi[p, j] frame[c].
# Products with V are products of phi with a small frame factor, so no
# (q, dim n, 3) array is built.  np.cross(V, w) is V with the frame
# np.cross(frame, w).  Leading axes of every argument stack entities.

def frame_dot(phi: np.ndarray, frame: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``V @ u`` for a 3-vector ``u``: the (q, dim n) u-components of V."""
    a = (frame @ u[..., None])[..., 0]                         # (..., dim)
    return np.concatenate([phi * a[..., c, None, None] for c in range(frame.shape[-2])],
                          axis=-1)


def frame_values(phi: np.ndarray, frame: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``einsum("pax,a->px", V, coeffs)``: the ambient values (q, 3) of a
    coefficient vector ``coeffs`` (dim n) over V."""
    dim, n = frame.shape[-2], phi.shape[-1]
    parts = phi[..., None, :, :] @ coeffs.reshape(*coeffs.shape[:-1], dim, n, 1)
    return parts[..., 0].swapaxes(-1, -2) @ frame           # (dim, q) -> (q, 3)


def frame_moments(phi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``einsum("pax,plx->al", V, F)`` from ``u = F @ frame.T`` (q, m, dim):
    the (dim n, m) pairings of V with m vector fields, whose row block c is
    ``phi.T @ u[:, :, c]``."""
    *lead, q, n = phi.shape
    m, dim = u.shape[-2:]
    blocks = (phi.swapaxes(-1, -2) @ u.reshape(*lead, q, m * dim)).reshape(*lead, n, m, dim)
    return np.moveaxis(blocks, -1, -3).reshape(*lead, dim * n, m)


def entity_basis(mesh, orientation, kind: str, index: int, degree: int,
                 vector: bool = False) -> ScaledMonomialBasis:
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

    def __init__(self, ambient: ScaledMonomialBasis, kind: str, coeffs: np.ndarray):
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


@functools.lru_cache(maxsize=None)
def span_matrix(kind: str, dim: int, degree: int) -> np.ndarray:
    """Coefficient matrix of G/Gc/R/Rc over the ambient vector basis, as
    read-only floats with integer values.

    Built in pure scaled coordinates (uniform positive h factors dropped:
    they rescale the defining map but not its image).  Columns are the
    leftmost-pivot independent subset of the integer generating set, picked
    by the exact integer elimination of :mod:`.homology`.
    """
    expected = space_dim(kind, degree, dim)
    nvec = dim * mono.n_monomials(dim, degree)
    if expected == 0:
        return np.zeros((nvec, 0))

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
        z = np.zeros((mono.n_monomials(3, degree), mono.n_monomials(3, degree - 1)),
                     dtype=np.int64)
        col_e1 = mono.block_rows([z, m[2], -m[1]])     # y x e1 = (0, y3, -y2)
        col_e2 = mono.block_rows([-m[2], z, m[0]])
        col_e3 = mono.block_rows([m[1], -m[0], z])
        cand = np.concatenate([col_e1, col_e2, col_e3], axis=1)
    else:
        raise DomainError(f"no span construction for kind {kind!r}")

    keep = _echelon(cand)[1]
    if len(keep) != expected:
        raise BasisRankError(
            f"{kind}^{degree} in dim {dim}: got rank {len(keep)}, expected {expected}")
    out = cand[:, keep].astype(float)
    out.setflags(write=False)
    return out


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


def stacked_solve(system: np.ndarray, rhs: np.ndarray, what: list[str]
                  ) -> tuple[np.ndarray, dict[int, ConditioningError]]:
    """Dense solves of a stack of systems (G, n, n) for right-hand sides
    (..., G, n, m), with one condition estimate (limit 1e14) and one solve
    for all G members; leading axes of ``rhs`` beyond G solve the same
    systems again, each on its own.

    ``what[g]`` names member g.  The members that fail the guard come back
    as ``{g: error}``, the error ``"<what[g]>: condition number … beyond
    limit"``, or the linear algebra error when the estimate itself fails;
    their solutions are zero, and the other members are solved as usual.
    """
    count, n = system.shape[0], system.shape[-1]
    if n == 0:
        return np.zeros((*rhs.shape[:-2], system.shape[1], rhs.shape[-1])), {}
    try:
        suspects = np.flatnonzero(~(np.linalg.cond(system) <= COND_LIMIT))
    except np.linalg.LinAlgError:    # a non-finite member: look at each alone
        suspects = range(count)
    errors = {}
    for g in suspects:
        try:
            cond = np.linalg.cond(system[g])
        except np.linalg.LinAlgError as exc:
            errors[int(g)] = ConditioningError(f"{what[g]}: {exc}")
            continue
        if not cond <= COND_LIMIT:
            errors[int(g)] = ConditioningError(
                f"{what[g]}: condition number {cond:.3e} beyond limit")
    if not errors:
        return np.linalg.solve(system, rhs), errors
    bad = list(errors)
    system = system.copy()
    system[bad] = np.eye(n)
    out = np.linalg.solve(system, rhs)
    out[..., bad, :, :] = 0.0
    return out, errors
