"""Reductions and extensions between the degree-k and degree-0 complexes.

The reduction keeps the component attached to the lowest-dimensional entity
of each space (vertex values, edge/face means, element means).  The
extension copies the degree-0 unknowns into the leading coefficient of their
degree-k components, then solves, entity by entity and in order of
increasing dimension, the moment systems that the local operators of
:mod:`.operators` store, with the degree-0 operator value as right-hand side
and the already extended boundary as data.  The pair is a one-sided inverse
(reduction after extension is the identity) and both are cochain maps.

The de Rham scaling, diagonal in the measures of the carrier entities,
identifies the degree-0 complex with the CW cochain complex.  The generator
pipeline lifts exact CW cohomology generators through the inverse scaling
and the curl/div extension, producing certified representatives of the
degree-k cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, DomainError
# betti_numbers is unused here, but perfbench/traced.py patches it in this module
from .homology import (
    CochainComplexInt,
    build_cochain_complex,
    betti_numbers,
    cohomology_generators,
)
from .layouts import CARRIERS, PARTS, entity_count
from .mesh import OrientationTable
from .operators import OPERATORS, DdrComplex, _Coo, _label
from .spaces import checked_solve
from .sparse import CsrMatrix


# ---------------------------------------------------------------------------
# reductions

def _carrier_weights(complex_: DdrComplex, kind: str, index: int) -> np.ndarray:
    """What the reduction takes of a carrier's leading component: a vertex
    value as it is, elsewhere the mean of each basis monomial."""
    return np.ones(1) if kind == "vertex" else complex_.means(kind, index)


def reduction_matrix(complex_: DdrComplex, space: str) -> CsrMatrix:
    """Sparse reduction onto the degree-0 layout of one space."""
    lay = complex_.layout(space)
    kind = CARRIERS[space]
    count = entity_count(complex_.mesh, kind)
    coo = _Coo()
    for i in range(count):
        c = lay.entity_components(kind, i)[0]
        coo.add(np.asarray([i]), np.arange(c.offset, c.offset + c.dim),
                _carrier_weights(complex_, kind, i)[None, :])
    return coo.build((count, lay.total))


def reduce_vector(complex_: DdrComplex, space: str, vector: np.ndarray) -> np.ndarray:
    return reduction_matrix(complex_, space) @ np.asarray(vector, dtype=float)


def zero_reduction_basis(complex_: DdrComplex, space: str) -> CsrMatrix:
    """Columns spanning the kernel of the reduction (zero-mean completions).

    On the reduction-carrying entities the polynomial block is replaced by
    the monomials of degree >= 1 minus their entity mean; all other
    components contribute identity columns.
    """
    lay = complex_.layout(space)
    carrier = CARRIERS[space]
    coo = _Coo()
    col = 0
    for c in lay.components:
        if c.entity_kind != carrier:
            for j in range(c.dim):
                coo.add(np.asarray([c.offset + j]), np.asarray([col]), np.ones((1, 1)))
                col += 1
            continue
        means = _carrier_weights(complex_, carrier, c.entity)
        for j in range(1, c.dim):   # none on a vertex: its value is the reduction
            rows = np.asarray([c.offset, c.offset + j])
            coo.add(rows, np.asarray([col]), np.asarray([[-means[j]], [1.0]]))
            col += 1
    return coo.build((lay.total, col))


# ---------------------------------------------------------------------------
# the degree-0 complex as the CW cochain complex

@dataclass(frozen=True)
class DeRhamScaling:
    """Diagonal measure scalings identifying DDR(0) vectors with cochains."""

    edge: np.ndarray    # |E|
    face: np.ndarray    # |F|
    cell: np.ndarray    # |T|

    def measure(self, space: str) -> np.ndarray | None:
        """Measures of the carriers of a space's degree-0 unknowns (None for
        vertices: their values are the cochain)."""
        if space not in CARRIERS:
            raise DomainError(f"unknown space {space!r}")
        return None if CARRIERS[space] == "vertex" else getattr(self, CARRIERS[space])


def de_rham_scaling(orientation: OrientationTable) -> DeRhamScaling:
    return DeRhamScaling(edge=orientation.edge_length.copy(),
                         face=orientation.face_area.copy(),
                         cell=orientation.cell_volume.copy())


def de_rham_map(direction: str, space: str, scaling: DeRhamScaling,
                vector: np.ndarray) -> np.ndarray:
    """Diagonal identification of DDR(0) vectors with integer cochains.

    forward: vertex values id, edge values * |E|, face * |F|, element * |T|;
    inverse divides.  forward(inverse(x)) == x exactly (IEEE x/x = 1).
    """
    diag = scaling.measure(space)
    vector = np.asarray(vector, dtype=float)
    if diag is None:
        return vector.copy()
    if vector.shape[0] != diag.shape[0]:
        raise DomainError("vector length does not match the space layout")
    if direction == "forward":
        return vector * diag
    if direction == "inverse":
        return vector / diag
    raise DomainError(f"direction must be forward or inverse, got {direction!r}")


# ---------------------------------------------------------------------------
# extensions

@dataclass
class ExtensionMaps:
    """Extension matrices from the degree-0 complex into a degree-k one.

    The degree-0 unknowns are copied into the leading coefficient of their
    degree-k components.  Edges, then faces, then elements solve the
    operators' own moment systems for their remaining unknowns, with the
    already extended boundary rows as data, so that the degree-k operator
    of an extended vector is the degree-0 one.
    """

    high: DdrComplex
    low: DdrComplex
    _cache: dict[str, CsrMatrix] = field(default_factory=dict)

    def __post_init__(self):
        if self.low.k != 0:
            raise DomainError("extensions start from a degree-0 complex")
        if self.high.mesh is not self.low.mesh or self.high.orient is not self.low.orient:
            raise DomainError("extension endpoints must share mesh and orientation")

    def matrix(self, space: str) -> CsrMatrix:
        if space in self._cache:
            return self._cache[space]
        high, low, k = self.high, self.low, self.high.k
        hlay, llay = high.layout(space), low.layout(space)
        shape = (hlay.total, llay.total)
        coo = _Coo()
        for c in llay.components:
            if c.dim:  # degree-0 unknowns sit on one entity kind, one per entity
                coo.add(hlay.indices(c.entity_kind, c.entity, c.part)[:1],
                        np.asarray([c.offset]), np.ones((1, 1)))
        # Each block of the operator leaving ``space`` solves for its entities'
        # own unknowns of ``space``.  The first component is fixed by the
        # block's moment system restricted to tests: a "poly" target drops the
        # constant test function, whose moment only sees boundary data; an
        # image/complement target tests against its degree-k complement.  A
        # second component is the L2 projection of the degree-0 block's potential.
        for op, block in [(op, b) for op in OPERATORS if op.source == space for b in op.blocks]:
            kind, targets = block.kind, PARTS[op.target][block.kind]
            done = coo.build(shape)   # rows of lower-dimensional entities
            for i in range(entity_count(high.mesh, kind)):
                own, *complement = hlay.entity_components(kind, i)
                rows = hlay.indices(kind, i, own.part)
                if not rows.size:     # k = 0: nothing beyond the copied unknowns
                    continue
                hops, lops = getattr(high, block.builder)(i), getattr(low, block.builder)(i)
                cols = lops.lmap.globals
                # extended boundary rows; zero on the entity's own unknowns
                known = done.gather(hops.lmap.globals, cols)
                # The degree-0 operator value is the constant coefficient
                # leading each component, so its moments are the leading
                # columns of the mass matrix.
                mass, rhs = hops.moments.mass, hops.moments.rhs
                lead = np.arange(lops.op.shape[0]) * (mass.shape[0] // lops.op.shape[0])
                target = mass[:, lead] @ lops.op - rhs @ known
                solved = rhs[:, hops.lmap.local_indices(kind, i, own.part)]
                if len(targets) == 1:
                    solved, target = solved[1:], target[1:]
                else:
                    p = high.subspace(targets[1][0], (kind, i), k).coeffs.T
                    solved, target = p @ solved, p @ target
                coo.add(rows, cols, checked_solve(solved, target,
                                                  f"{_label(kind, i)}: {op.local} extension"))
                for c in complement:
                    coo.add(hlay.indices(kind, i, c.part), cols, high.project_onto(
                        c.part, (kind, i), k, 0, lops.potential))
        mat = coo.build(shape)
        self._cache[space] = mat
        return mat


# ---------------------------------------------------------------------------
# generator lifting

@dataclass(frozen=True)
class LiftedGenerators:
    degree: int
    index: int                       # cohomology index (1 or 2)
    space: str                       # Xcurl or Xdiv
    vectors: tuple[np.ndarray, ...]
    certificates: tuple[dict, ...]


def lift_generators(high: DdrComplex, low: DdrComplex, index: int,
                    kernel_tol: float = 1e-9, *, cochain: CochainComplexInt | None = None,
                    ext: ExtensionMaps | None = None) -> LiftedGenerators:
    """Certified degree-k cohomology representatives from CW generators.

    Pipeline: exact CW generator -> inverse de Rham scaling (a degree-0
    vector) -> curl/div extension.  Certificates: kernel residual of the
    outgoing operator below ``kernel_tol`` (relative), and each lifted
    vector raising the rank of [outgoing-image basis | lifted] by one.
    Without CW generators there is nothing to lift or certify, and no
    extension or rank is computed.  A caller that already holds the integer
    cochain complex or the extension maps of ``(high, low)`` passes them as
    ``cochain`` and ``ext``; otherwise they are built here.
    """
    if index not in (1, 2):
        raise DomainError("cohomology index must be 1 or 2")
    if ext is not None and (ext.high is not high or ext.low is not low):
        raise DomainError("extension maps of other complexes")
    mesh, orient = high.mesh, high.orient
    if cochain is None:
        cochain = build_cochain_complex(mesh, orient)
    gens = cohomology_generators(cochain, index)
    incoming, outgoing = OPERATORS[index - 1], OPERATORS[index]
    space = outgoing.source
    if not gens:
        return LiftedGenerators(high.k, index, space, (), ())
    measures = de_rham_scaling(orient).measure(space)
    ext_mat = (ext or ExtensionMaps(high, low)).matrix(space)

    vectors, certs = [], []
    image = high.operator(incoming.name).toarray()
    rank_in = np.linalg.matrix_rank(image)
    stacked = image
    for j, g in enumerate(gens):
        lifted = ext_mat @ (np.asarray(g, dtype=float) / measures)
        res = float(np.linalg.norm(high.operator(outgoing.name) @ lifted))
        rel = res / max(np.linalg.norm(lifted), 1e-300)
        if rel > kernel_tol:
            raise CertificationError(
                f"lifted generator {j}: kernel residual {rel:.3e} above {kernel_tol:.1e}")
        stacked = np.concatenate([stacked, lifted[:, None]], axis=1)
        rank_now = np.linalg.matrix_rank(stacked)
        if rank_now != rank_in + len(vectors) + 1:
            raise CertificationError(
                f"lifted generator {j}: dependent modulo the incoming image "
                f"(rank {rank_now}, expected {rank_in + len(vectors) + 1})")
        vectors.append(lifted)
        certs.append({"kernel_residual": rel, "independence_rank": int(rank_now),
                      "image_rank": int(rank_in)})
    return LiftedGenerators(high.k, index, space, tuple(vectors), tuple(certs))
