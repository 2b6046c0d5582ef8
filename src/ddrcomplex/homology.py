"""Integer cochain complex of the mesh cell structure and its cohomology.

The mesh is a CW complex (vertices, edges, faces, elements as 0/1/2/3-cells).
Coboundary matrices use the orientation table signs:

* d0[E, V] = +1 at the head vertex of t_E, -1 at the tail;
* d1[F, E] = -omega_FE  (the sign that makes the degree-0 curl diagram commute);
* d2[T, F] = +omega_TF.

They are stored sparse (:class:`.sparse.CsrMatrix`; entries of +-1 are exact
in float64), and compose to zero on each face's and element's closure.
Everything here is exact.  One sparse fraction-free elimination
over Python integers (:func:`_eliminate`) gives the ranks, the kernel bases
(primitive integer vectors) and the generator selection; the integer
generator representatives are certified by rank identities.  Each
coboundary is eliminated at most once per complex
(:meth:`CochainComplexInt.echelon`).  The exact subspace bases of
:mod:`.spaces` pick their columns with the same elimination.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, DdrError, DomainError
from .mesh import Mesh, OrientationTable, checked_integer, group_closure
from .sparse import CsrMatrix, block_product


@dataclass(frozen=True)
class Echelon:
    """Row echelon form of an integer matrix over the rationals.

    ``rows`` are the pivot rows, sparse (``{column: entry}``, Python
    integers), in the order of their pivot columns ``pivots``.  Each pivot
    row is zero left of its pivot column.
    """
    rows: tuple[dict[int, int], ...]
    pivots: tuple[int, ...]
    ncols: int

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel(self) -> list[dict[int, int]]:
        """Exact kernel basis, one sparse vector per free column in ascending
        order: the primitive integer vector positive at that column and zero
        at the other free columns.  Back-substitution visits only the pivot
        rows that meet the entries found so far, right to left."""
        row_at = dict(zip(self.pivots, self.rows))
        users = defaultdict(list)        # column -> pivot columns whose rows hold it
        for c, row in row_at.items():
            for col in row:
                if col != c:
                    users[col].append(c)
        basis = []
        for free in sorted(set(range(self.ncols)) - set(self.pivots)):
            x = {free: 1}
            # columns to solve, largest first; each pushed column is left of
            # the one that pushed it, so pops never increase
            heap = [-c for c in users[free]]
            heapq.heapify(heap)
            last = None
            while heap:
                c = -heapq.heappop(heap)
                if c == last:
                    continue
                last = c
                row = row_at[c]
                s = sum(v * x[col] for col, v in row.items() if col in x)
                if not s:
                    continue
                p = row[c]
                scale = abs(p) // math.gcd(s, p)
                if scale != 1:           # keep x integral: scale it by the new denominator
                    for col in x:
                        x[col] *= scale
                    s *= scale
                x[c] = -s // p
                for u in users[c]:
                    heapq.heappush(heap, -u)
            g = math.gcd(*x.values())
            basis.append({col: v // g for col, v in x.items()})
        return basis


@dataclass(frozen=True)
class CochainComplexInt:
    d0: CsrMatrix   # (E, V), entries +-1
    d1: CsrMatrix   # (F, E)
    d2: CsrMatrix   # (T, F)
    _echelons: dict[int, Echelon] = field(default_factory=dict, init=False, repr=False,
                                          compare=False)

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.d0.shape[1], self.d0.shape[0], self.d1.shape[0], self.d2.shape[0])

    def boundary(self, i: int) -> CsrMatrix:
        i = checked_integer(i, "coboundary index")
        if i not in (0, 1, 2):
            raise DomainError(f"no coboundary of index {i}")
        return (self.d0, self.d1, self.d2)[i]

    def echelon(self, i: int) -> Echelon:
        """The elimination of ``d_i``, computed on first use and kept."""
        if i not in self._echelons:
            self._echelons[i] = _eliminate(*_integer_rows(self.boundary(i)))
        return self._echelons[i]


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
    fe, tf = orientation.face_edge_sign, orientation.cell_face_sign
    return ((np.repeat(np.arange(len(edges)), 2), edges.ravel(), np.tile([-1, 1], len(edges))),
            (faces, face_edges, -fe[fe != 0]), (cells, cell_faces, tf[tf != 0]))


def build_cochain_complex(mesh: Mesh, orientation: OrientationTable) -> CochainComplexInt:
    counts = mesh.counts
    d = [CsrMatrix.from_coo(shape, *triplets) for shape, triplets
         in zip(zip(counts[1:], counts), _signed_incidences(mesh, orientation))]
    for dim, kind in ((2, "face"), (3, "cell")):    # d1 d0 and d2 d1, on each closure
        for grp in mesh.groups(kind):
            closure = group_closure(mesh, kind, grp)
            if block_product(d[dim - 2:dim][::-1], [closure[dim - i] for i in range(3)]).any():
                raise DdrError("coboundary composition is nonzero: inconsistent orientation data")
    return CochainComplexInt(*d)


def _integer_rows(mat) -> tuple[list[dict[int, int]], int]:
    """Sparse rows (``{column: entry}``, Python integers, no zeros) and the
    column count of a 2-D array or a :class:`CsrMatrix`.  Entries must be
    integral (``1.0`` is accepted); any other entry raises
    :class:`DomainError`."""
    if isinstance(mat, CsrMatrix):
        (m, n), cols, vals = mat.shape, mat.indices, mat.data
        at = np.repeat(np.arange(m), np.diff(mat.indptr))
    else:
        arr = np.asarray(mat)
        if arr.ndim != 2:
            raise DomainError(f"exact elimination needs a 2-D matrix, got shape {arr.shape}")
        (m, n), (at, cols) = arr.shape, np.nonzero(arr)
        vals = arr[at, cols]
    values = vals.tolist()
    try:
        ints = [int(x) for x in values]
    except (TypeError, ValueError, OverflowError):     # NaN, infinity, non-numbers
        ints = None
    if ints != values:
        raise DomainError("exact elimination needs integral entries")
    rows: list[dict[int, int]] = [{} for _ in range(m)]
    for i, j, v in zip(at.tolist(), cols.tolist(), ints):
        if v:
            rows[i][j] = v
    return rows, n


def _eliminate(rows: list[dict[int, int]], ncols: int) -> Echelon:
    """Exact sparse elimination over the rationals, fraction-free; it
    consumes ``rows`` (see :func:`_integer_rows`).

    Columns are scanned left to right, so each pivot column is the leftmost
    column independent of the columns before it, whichever rows are chosen,
    and their number is the rank.  In a column the pivot row is one with a
    unit entry if any, then one with the fewest nonzeros, then the lowest
    index.  A unit pivot is subtracted from the other rows as is; otherwise
    a row is cross-multiplied with the pivot row and divided by the gcd of its
    entries, so every entry stays an integer.
    """
    holders: list = [[] for _ in range(ncols)]     # column -> rows that may hold it
    for i, row in enumerate(rows):
        for c in row:
            holders[c].append(i)
    active = [True] * len(rows)
    pivot_rows: list[dict[int, int]] = []
    pivots: list[int] = []
    for c in range(ncols):
        if len(pivots) == len(rows):
            break
        cands = [i for i in set(holders[c]) if active[i] and c in rows[i]]
        holders[c] = None       # no row gains column c from here on
        if not cands:
            continue
        p = min(cands, key=lambda i: (abs(rows[i][c]) != 1, len(rows[i]), i))
        active[p] = False
        prow, pv = rows[p], rows[p][c]
        unit = pv in (1, -1)
        for i in cands:
            if i == p:
                continue
            row, f = rows[i], rows[i][c]
            if unit:
                f *= pv
            else:
                for j in row:
                    row[j] *= pv
            for j, v in prow.items():
                new = row.get(j, 0) - f * v
                if new:
                    if j not in row:
                        holders[j].append(i)
                    row[j] = new
                else:
                    del row[j]
            if not unit:
                g = math.gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
        pivot_rows.append(prow)
        pivots.append(c)
    return Echelon(tuple(pivot_rows), tuple(pivots), ncols)


def _pivot_columns(mat) -> tuple[int, ...]:
    """The leftmost independent columns of an integer matrix, ascending."""
    return _eliminate(*_integer_rows(mat)).pivots


def integer_rank(mat) -> int:
    """Exact rank over the rationals of an integer matrix, dense or
    :class:`CsrMatrix`."""
    return len(_pivot_columns(mat))


def _with_columns(mat: CsrMatrix, columns: list[dict[int, int]]
                  ) -> tuple[list[dict[int, int]], int]:
    """The sparse rows of ``[mat | columns]``, each column given as ``{row: entry}``."""
    rows, n = _integer_rows(mat)
    for j, col in enumerate(columns, start=n):
        for i, v in col.items():
            rows[i][j] = v
    return rows, n + len(columns)


def cohomology_dims(dims, ranks, head: int = 0) -> tuple[int, ...]:
    """Cohomology dimensions of a complex from its space dimensions and the
    ranks of its operators: at each space, the kernel of the outgoing
    operator less the image of the incoming one.  ``head`` is the rank of
    the map into the first space (1 for the constants of a de Rham complex).
    """
    incoming, outgoing = (head, *ranks), (*ranks, 0)
    return tuple(d - o - i for d, o, i in zip(dims, outgoing, incoming))


def betti_numbers(complex_: CochainComplexInt) -> BettiVector:
    ranks = [complex_.echelon(i).rank for i in (0, 1, 2)]
    return BettiVector(*cohomology_dims(complex_.counts, ranks))


def cohomology_generators(complex_: CochainComplexInt, i: int) -> list[np.ndarray]:
    """Integer representatives of H^i generators (i in {1, 2}), certified.

    Exact linear algebra: the kernel basis of d_i whose columns are pivots of
    [d_(i-1) | kernel] beyond d_(i-1); their number is the Betti number
    dim ker d_i - rank d_(i-1).  Certificates: the generators raise the rank
    of [d_(i-1) | generators] by their count and lie in the kernel of d_i.
    The eliminations of d_i and d_(i-1) are the complex's own
    (:meth:`CochainComplexInt.echelon`), and a zero Betti number needs no
    other: the kernel is built only when there is something to select.
    """
    i = checked_integer(i, "cohomology index")
    if i not in (1, 2):
        raise DomainError("generators are computed for cohomology indices 1 and 2")
    d_out = complex_.boundary(i)
    d_in = complex_.boundary(i - 1)
    out = complex_.echelon(i)
    r_in = complex_.echelon(i - 1).rank
    betti = out.ncols - out.rank - r_in
    selected: list[dict[int, int]] = []
    if betti > 0:
        kernel = out.kernel()
        n = d_in.shape[1]
        selected = [kernel[j - n] for j in _eliminate(*_with_columns(d_in, kernel)).pivots
                    if j >= n]

    if selected and _eliminate(*_with_columns(d_in, selected)).rank != r_in + len(selected):
        raise CertificationError("generators not independent modulo the incoming image")
    gens = []
    for vec in selected:
        g = np.zeros(out.ncols, dtype=np.int64)
        g[list(vec)] = list(vec.values())
        if np.any(d_out @ g):
            raise CertificationError("generator not in the kernel of the outgoing coboundary")
        gens.append(g)
    if len(gens) != betti:
        raise CertificationError(f"expected {betti} generators, selected {len(gens)}")
    return gens
