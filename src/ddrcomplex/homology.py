"""Integer cochain complex of the mesh cell structure and its cohomology.

The mesh is a CW complex (vertices, edges, faces, elements as 0/1/2/3-cells).
Coboundary matrices use the orientation table signs:

* d0[E, V] = +1 at the head vertex of t_E, -1 at the tail;
* d1[F, E] = -omega_FE  (the sign that makes the degree-0 curl diagram commute);
* d2[T, F] = +omega_TF.

Everything here is exact.  One fraction-free elimination over Python
integers (:func:`_echelon`) gives the ranks, the kernel bases (primitive
integer vectors) and the generator selection; the integer generator
representatives are certified by rank identities.  The exact subspace
bases of :mod:`.spaces` pick their columns with the same elimination.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, DdrError, DomainError
from .mesh import Mesh, OrientationTable


@dataclass(frozen=True)
class CochainComplexInt:
    d0: np.ndarray   # (E, V) int
    d1: np.ndarray   # (F, E) int
    d2: np.ndarray   # (T, F) int

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.d0.shape[1], self.d0.shape[0], self.d1.shape[0], self.d2.shape[0])

    def boundary(self, i: int) -> np.ndarray:
        if i not in (0, 1, 2):
            raise DomainError(f"no coboundary of index {i}")
        return (self.d0, self.d1, self.d2)[i]


@dataclass(frozen=True)
class BettiVector:
    b0: int
    b1: int
    b2: int
    b3: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.b0, self.b1, self.b2, self.b3)


def _flat(table) -> tuple[np.ndarray, np.ndarray]:
    """Row numbers and entries of a table of rows of any lengths, row by row."""
    lengths = np.fromiter(map(len, table), dtype=np.int64, count=len(table))
    return (np.repeat(np.arange(len(table)), lengths),
            np.fromiter(itertools.chain.from_iterable(table), dtype=np.int64))


def _signed_incidences(mesh: Mesh, orientation: OrientationTable
                       ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Rows, columns and signs of the nonzeros of d0, d1 and d2, in entity
    order and each entity's local order, with the sign rules above."""
    edges = np.asarray(mesh.edges, dtype=np.int64).reshape(-1, 2)
    faces, face_edges = _flat(mesh.face_edges)
    cells, cell_faces = _flat(mesh.element_faces)
    return ((np.repeat(np.arange(len(edges)), 2), edges.ravel(), np.tile([-1, 1], len(edges))),
            (faces, face_edges, -_flat(orientation.face_edge_sign)[1]),
            (cells, cell_faces, _flat(orientation.cell_face_sign)[1]))


def build_cochain_complex(mesh: Mesh, orientation: OrientationTable) -> CochainComplexInt:
    counts = mesh.counts
    d0, d1, d2 = (np.zeros(shape, dtype=np.int64) for shape in zip(counts[1:], counts))
    for d, (rows, cols, signs) in zip((d0, d1, d2), _signed_incidences(mesh, orientation)):
        d[rows, cols] = signs
    if np.any(d1 @ d0) or np.any(d2 @ d1):
        raise DdrError("coboundary composition is nonzero: inconsistent orientation data")
    return CochainComplexInt(d0, d1, d2)


def _echelon(mat, reduce: bool = False) -> tuple[list[list[int]], list[int]]:
    """Exact elimination of an integer matrix over the rationals, fraction-free.

    Returns the eliminated rows and the pivot columns.  Columns are scanned
    left to right, so each pivot column is the leftmost column independent of
    the columns before it, and their number is the rank.  Every entry stays
    an integer minor of the input (Bareiss), so each division is exact and
    Python integers never overflow.  With ``reduce`` the rows above each
    pivot are eliminated too (fraction-free Gauss-Jordan): each pivot row
    then holds the last pivot value at its own pivot column and zero at the
    other pivot columns.  Entries must be integral (``1.0`` is accepted);
    any other entry raises :class:`DomainError`.
    """
    rows = np.asarray(mat).tolist()
    try:
        a = [[int(x) for x in row] for row in rows]
    except (ValueError, OverflowError):     # NaN, infinity
        a = None
    if a != rows:
        raise DomainError("exact elimination needs integral entries")
    pivots: list[int] = []
    prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        row, p = a[r], a[r][c]
        for i in range(len(a)) if reduce else range(r + 1, len(a)):
            if i == r:
                continue
            f = a[i][c]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
            elif p != prev:
                a[i] = [p * x // prev for x in a[i]]
        prev = p
        pivots.append(c)
    return a, pivots


def integer_rank(mat: np.ndarray) -> int:
    """Exact rank over the rationals via fraction-free (Bareiss) elimination."""
    return len(_echelon(np.asarray(mat))[1])


def _kernel(mat: np.ndarray) -> list[list[int]]:
    """Exact kernel basis: one primitive integer vector per free column,
    positive at that column and zero at the other free columns."""
    a, pivots = _echelon(mat, reduce=True)
    d = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for free in sorted(set(range(mat.shape[1])) - set(pivots)):
        vec = [0] * mat.shape[1]
        vec[free] = d
        for row, c in zip(a, pivots):
            vec[c] = -row[free]
        g = math.gcd(*vec) if d > 0 else -math.gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


def cohomology_dims(dims, ranks, head: int = 0) -> tuple[int, ...]:
    """Cohomology dimensions of a complex from its space dimensions and the
    ranks of its operators: at each space, the kernel of the outgoing
    operator less the image of the incoming one.  ``head`` is the rank of
    the map into the first space (1 for the constants of a de Rham complex).
    """
    incoming, outgoing = (head, *ranks), (*ranks, 0)
    return tuple(d - o - i for d, o, i in zip(dims, outgoing, incoming))


def betti_numbers(complex_: CochainComplexInt) -> BettiVector:
    ranks = [integer_rank(d) for d in (complex_.d0, complex_.d1, complex_.d2)]
    return BettiVector(*cohomology_dims(complex_.counts, ranks))


def cohomology_generators(complex_: CochainComplexInt, i: int) -> list[np.ndarray]:
    """Integer representatives of H^i generators (i in {1, 2}), certified.

    Exact linear algebra: the kernel basis of d_i whose columns are pivots of
    [d_(i-1) | kernel] beyond d_(i-1); their number is the Betti number
    dim ker d_i - rank d_(i-1).  Certificates: the generators raise the rank
    of [d_(i-1) | generators] by their count and lie in the kernel of d_i.
    """
    if i not in (1, 2):
        raise DomainError("generators are computed for cohomology indices 1 and 2")
    d_out = complex_.boundary(i)
    d_in = complex_.boundary(i - 1)
    kernel = _kernel(d_out)
    r_in = integer_rank(d_in)
    betti = len(kernel) - r_in
    gens = []
    if betti > 0:
        n = d_in.shape[1]
        stacked = np.concatenate([d_in, np.asarray(kernel, dtype=object).T], axis=1)
        gens = [np.asarray(kernel[j - n], dtype=np.int64)
                for j in _echelon(stacked)[1] if j >= n]

    if gens:
        certify = np.concatenate([d_in, np.asarray(gens, dtype=np.int64).T], axis=1)
        if integer_rank(certify) != r_in + len(gens):
            raise CertificationError("generators not independent modulo the incoming image")
    for g in gens:
        if np.any(d_out @ g):
            raise CertificationError("generator not in the kernel of the outgoing coboundary")
    if len(gens) != betti:
        raise CertificationError(f"expected {betti} generators, selected {len(gens)}")
    return gens
