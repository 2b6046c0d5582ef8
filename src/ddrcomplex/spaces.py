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
from collections.abc import Callable

import numpy as np

from . import monomials as mono
from .errors import BasisRankError, ConditioningError, DomainError
from .homology import _pivot_columns

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


# ---------------------------------------------------------------------------
# A vector basis V is its scalar design matrix phi (q, n) stacked along its
# frame (dim, 3): V[p, c n + j] = phi[p, j] frame[c].  Leading axes stack
# entities; tests/test_spaces.py keeps the (q, dim n, 3) values.

def frame_values(phi: np.ndarray, frame: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``einsum("pax,a->px", V, coeffs)``: the ambient values (q, 3) of a
    coefficient vector ``coeffs`` (dim n) over V, with no (q, dim n, 3) array."""
    dim, n = frame.shape[-2], phi.shape[-1]
    parts = phi[..., None, :, :] @ coeffs.reshape(*coeffs.shape[:-1], dim, n, 1)
    return parts[..., 0].swapaxes(-1, -2) @ frame           # (dim, q) -> (q, 3)


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

    keep = list(_pivot_columns(cand))
    if len(keep) != expected:
        raise BasisRankError(
            f"{kind}^{degree} in dim {dim}: got rank {len(keep)}, expected {expected}")
    out = cand[:, keep].astype(float)
    out.setflags(write=False)
    return out


def stacked_solve(system: np.ndarray, rhs: np.ndarray, what: Callable[[int], str]
                  ) -> tuple[np.ndarray, dict[int, ConditioningError]]:
    """Dense solves of a stack of systems (G, n, n) for right-hand sides
    (..., G, n, m), with one condition estimate (limit 1e14) and one solve
    for all G members; leading axes of ``rhs`` beyond G solve the same
    systems again, each on its own.

    ``what(g)`` names member g, called for the failing members only.  They
    come back as ``{g: error}``, the error ``"<what(g)>: condition number …
    beyond limit"``, or the linear algebra error when the estimate itself
    fails; their solutions are zero, and the other members are solved as
    usual.
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
            errors[int(g)] = ConditioningError(f"{what(g)}: {exc}")
            continue
        if not cond <= COND_LIMIT:
            errors[int(g)] = ConditioningError(
                f"{what(g)}: condition number {cond:.3e} beyond limit")
    if not errors:
        return np.linalg.solve(system, rhs), errors
    bad = list(errors)
    system = system.copy()
    system[bad] = np.eye(n)
    out = np.linalg.solve(system, rhs)
    out[..., bad, :, :] = 0.0
    return out, errors
