"""Multi-index bookkeeping and exact calculus over scaled monomial bases.

A polynomial on a mesh entity is a coefficient vector over the monomials
``y^alpha`` of the entity-local scaled coordinates ``y = (x - x_P)/h_P``
(the arc-length coordinate on edges, frame coordinates on faces).  All
differential / Koszul operators act on coefficient vectors through
matrices with :class:`fractions.Fraction` entries, so compositions such as
``curl(grad) = 0`` or ``div(curl) = 0`` hold *exactly*, not up to roundoff.

Vector-valued polynomials stack their component coefficient vectors:
``(v_1 coeffs, ..., v_d coeffs)``.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb

import numpy as np

_F0 = Fraction(0)
_F1 = Fraction(1)


@functools.lru_cache(maxsize=None)
def monomial_powers(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent multi-indices of total degree <= degree, graded order.

    Within a degree the order is the one induced by
    ``itertools.combinations_with_replacement``, which is deterministic and
    starts from the pure x1-power.  ``degree < 0`` gives the empty basis.
    """
    if degree < 0:
        return ()
    out = []
    for deg in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(dim), deg):
            alpha = [0] * dim
            for v in combo:
                alpha[v] += 1
            out.append(tuple(alpha))
    return tuple(out)


def n_monomials(dim: int, degree: int) -> int:
    """dim P^degree in ``dim`` variables (0 for degree = -1)."""
    if degree < 0:
        return 0
    return comb(degree + dim, dim)


@functools.lru_cache(maxsize=None)
def power_index(dim: int, degree: int) -> dict[tuple[int, ...], int]:
    return {alpha: i for i, alpha in enumerate(monomial_powers(dim, degree))}


def eval_monomials(dim: int, degree: int, y: np.ndarray) -> np.ndarray:
    """Design matrix of the monomials at local coordinates y (npts, dim)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    powers = monomial_powers(dim, degree)
    out = np.empty((y.shape[0], len(powers)))
    for j, alpha in enumerate(powers):
        col = np.ones(y.shape[0])
        for ax, p in enumerate(alpha):
            if p:
                col = col * y[:, ax] ** p
        out[:, j] = col
    return out


def frac_zeros(rows: int, cols: int) -> np.ndarray:
    return np.full((rows, cols), _F0, dtype=object)


def frac_eye(n: int) -> np.ndarray:
    out = frac_zeros(n, n)
    for i in range(n):
        out[i, i] = _F1
    return out


def to_float(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=object).astype(np.float64)


@functools.lru_cache(maxsize=None)
def derivative_matrix(dim: int, degree: int, axis: int) -> np.ndarray:
    """d/dy_axis as a map of coefficients P^degree -> P^(degree-1).

    Pure scaled-coordinate derivative; physical derivatives carry an extra
    1/h_P factor applied by the caller.
    """
    src = monomial_powers(dim, degree)
    tgt_index = power_index(dim, degree - 1)
    out = frac_zeros(len(tgt_index), len(src))
    for j, alpha in enumerate(src):
        if alpha[axis] == 0:
            continue
        beta = list(alpha)
        beta[axis] -= 1
        out[tgt_index[tuple(beta)], j] = Fraction(alpha[axis])
    return out


@functools.lru_cache(maxsize=None)
def multiply_matrix(dim: int, degree: int, axis: int) -> np.ndarray:
    """Multiplication by y_axis as a map P^degree -> P^(degree+1)."""
    src = monomial_powers(dim, degree)
    tgt_index = power_index(dim, degree + 1)
    out = frac_zeros(len(tgt_index), len(src))
    for j, alpha in enumerate(src):
        beta = list(alpha)
        beta[axis] += 1
        out[tgt_index[tuple(beta)], j] = _F1
    return out


def block_rows(blocks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(blocks, axis=0)


def grad_matrix(dim: int, degree: int) -> np.ndarray:
    """Scaled-coordinate gradient: P^degree -> (P^(degree-1))^dim."""
    return block_rows([derivative_matrix(dim, degree, ax) for ax in range(dim)])


def div_matrix(dim: int, degree: int) -> np.ndarray:
    """Scaled-coordinate divergence: (P^degree)^dim -> P^(degree-1)."""
    return np.concatenate([derivative_matrix(dim, degree, ax) for ax in range(dim)], axis=1)


def curl_matrix(degree: int) -> np.ndarray:
    """Scaled-coordinate curl: (P^degree)^3 -> (P^(degree-1))^3."""
    d = [derivative_matrix(3, degree, ax) for ax in range(3)]
    n_tgt = n_monomials(3, degree - 1)
    n_src = n_monomials(3, degree)
    z = frac_zeros(n_tgt, n_src)
    row1 = np.concatenate([z, -d[2], d[1]], axis=1)
    row2 = np.concatenate([d[2], z, -d[0]], axis=1)
    row3 = np.concatenate([-d[1], d[0], z], axis=1)
    return block_rows([row1, row2, row3])


def vrot_matrix(degree: int) -> np.ndarray:
    """Scaled-coordinate face rotated gradient (grad r)^perp: P^deg -> (P^(deg-1))^2.

    perp is the rotation by -pi/2 in the oriented face frame: (a, b) -> (b, -a).
    """
    d1 = derivative_matrix(2, degree, 0)
    d2 = derivative_matrix(2, degree, 1)
    return block_rows([d2, -d1])


def independent_columns(mat: np.ndarray) -> list[int]:
    """Leftmost-pivot maximal independent column subset, exact arithmetic.

    Standard Gaussian elimination over Fractions; deterministic: a column is
    kept iff it is independent of all kept columns to its left.
    """
    rows, cols = mat.shape
    work = mat.astype(object).copy()
    pivot_rows: list[int] = []
    kept: list[int] = []
    for j in range(cols):
        col = work[:, j]
        for pr, pc in zip(pivot_rows, kept):
            factor = col[pr]
            if factor:
                col = col - factor * work[:, pc]
        pivot = next((i for i in range(rows) if col[i] != 0 and i not in pivot_rows), None)
        if pivot is None:
            continue
        work[:, j] = col / col[pivot]
        kept.append(j)
        pivot_rows.append(pivot)
    return kept


def frac_rank(mat: np.ndarray) -> int:
    return len(independent_columns(mat))
