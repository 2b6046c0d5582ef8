"""Reductions and extensions between the degree-k and degree-0 complexes.

The reduction keeps the component attached to the lowest-dimensional entity
of each space (vertex values, edge/face means, element means).  The
extension copies the degree-0 unknowns into the leading coefficient of their
degree-k components, then solves, entity by entity and in order of
increasing dimension, the moment systems that the local operators of
:mod:`.operators` store, with the degree-0 operator value as right-hand side
and the already extended boundary as data.  The pair is a one-sided inverse
(reduction after extension is the identity) and both are cochain maps.

The generator pipeline lifts exact CW cohomology generators through the
inverse de Rham scaling and the curl/div extension, producing certified
representatives of the degree-k cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import CertificationError, DomainError
from .homology import (
    build_cochain_complex,
    betti_numbers,
    cohomology_generators,
    de_rham_scaling,
)
from .operators import DdrComplex, _Coo
from .spaces import checked_solve


# ---------------------------------------------------------------------------
# reductions

def reduction_matrix(complex_: DdrComplex, space: str) -> sp.csr_matrix:
    """Sparse reduction onto the degree-0 layout of one space."""
    mesh = complex_.mesh
    lay = complex_.layout(space)
    coo = _Coo()
    if space == "Xgrad":
        for v in range(mesh.n_vertices):
            coo.add(np.asarray([v]), lay.indices("vertex", v, "val"), np.ones((1, 1)))
        return coo.build((mesh.n_vertices, lay.total))
    if space == "Xcurl":
        kind, count = "edge", mesh.n_edges
    elif space == "Xdiv":
        kind, count = "face", mesh.n_faces
    elif space == "Pk":
        return complex_.pi0
    else:
        raise DomainError(f"unknown space {space!r}")
    for i in range(count):
        rule = complex_.rule(kind, i)
        phi = complex_.basis(kind, i, complex_.k).eval(rule.points)
        means = rule.integrate(phi) / rule.measure
        coo.add(np.asarray([i]), lay.indices(kind, i, "poly"), means[None, :])
    return coo.build((count, lay.total))


def reduce_vector(complex_: DdrComplex, space: str, vector: np.ndarray) -> np.ndarray:
    return reduction_matrix(complex_, space) @ np.asarray(vector, dtype=float)


def zero_reduction_basis(complex_: DdrComplex, space: str) -> sp.csr_matrix:
    """Columns spanning the kernel of the reduction (zero-mean completions).

    On the reduction-carrying entities the polynomial block is replaced by
    the monomials of degree >= 1 minus their entity mean; all other
    components contribute identity columns.
    """
    mesh = complex_.mesh
    lay = complex_.layout(space)
    carrier = {"Xgrad": "vertex", "Xcurl": "edge", "Xdiv": "face", "Pk": "cell"}[space]
    coo = _Coo()
    col = 0
    for c in lay.components:
        if c.entity_kind != carrier:
            for j in range(c.dim):
                coo.add(np.asarray([c.offset + j]), np.asarray([col]), np.ones((1, 1)))
                col += 1
            continue
        if carrier == "vertex":
            continue  # the whole component is the reduction target
        rule = complex_.rule(carrier, c.entity)
        phi = complex_.basis(carrier, c.entity, complex_.k).eval(rule.points)
        means = rule.integrate(phi) / rule.measure
        for j in range(1, c.dim):
            rows = np.asarray([c.offset, c.offset + j])
            coo.add(rows, np.asarray([col]), np.asarray([[-means[j]], [1.0]]))
            col += 1
    return coo.build((lay.total, col))


# ---------------------------------------------------------------------------
# extensions

# The components each extension solves for, in order of entity dimension:
# (entity kind, local builder, operator, solved part, tests, projected part,
# projection source).  The solved part is fixed by the builder's moment
# system restricted to the tests: ``None`` drops the constant test function,
# whose moment only sees boundary data; "Rc"/"Gc" test against that
# degree-k subspace.  The projected part is the L2 projection of the
# degree-0 operator's tangential trace or potential.
_LIFTS = {
    "Xgrad": (("edge", "edge_ops", "grad", "poly", None, None, None),
              ("face", "face_grad_ops", "grad", "poly", "Rc", None, None),
              ("cell", "cell_grad_ops", "grad", "poly", "Rc", None, None)),
    "Xcurl": (("face", "face_curl_ops", "curl", "R", None, "Rc", "ttrace"),
              ("cell", "cell_curl_ops", "curl", "R", "Gc", "Rc", "potential")),
    "Xdiv": (("cell", "cell_div_ops", "div", "G", None, "Gc", "potential"),),
    "Pk": (),
}


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
    _cache: dict[str, sp.csr_matrix] = field(default_factory=dict)

    def __post_init__(self):
        if self.low.k != 0:
            raise DomainError("extensions start from a degree-0 complex")
        if self.high.mesh is not self.low.mesh or self.high.orient is not self.low.orient:
            raise DomainError("extension endpoints must share mesh and orientation")

    def matrix(self, space: str) -> sp.csr_matrix:
        if space in self._cache:
            return self._cache[space]
        if space not in _LIFTS:
            raise DomainError(f"unknown space {space!r}")
        high, low, k, mesh = self.high, self.low, self.high.k, self.high.mesh
        hlay, llay = high.layout(space), low.layout(space)
        shape = (hlay.total, llay.total)
        coo = _Coo()
        for c in llay.components:
            if c.dim:  # degree-0 unknowns sit on one entity kind, one per entity
                coo.add(hlay.indices(c.entity_kind, c.entity, c.part)[:1],
                        np.asarray([c.offset]), np.ones((1, 1)))
        counts = {"edge": mesh.n_edges, "face": mesh.n_faces, "cell": mesh.n_elements}
        for kind, build, op, part, tests, projected, source in _LIFTS[space]:
            done = coo.build(shape)   # rows of lower-dimensional entities
            for i in range(counts[kind]):
                rows = hlay.indices(kind, i, part)
                if not rows.size:     # k = 0: nothing beyond the copied unknowns
                    continue
                hops, lops = getattr(high, build)(i), getattr(low, build)(i)
                cols = lops.lmap.globals
                # extended boundary rows; zero on the entity's own unknowns
                known = done[hops.lmap.globals][:, cols].toarray()
                # The degree-0 operator value is the constant coefficient
                # leading each component, so its moments are the leading
                # columns of the mass matrix.
                mass, rhs = hops.moments.mass, hops.moments.rhs
                low_op = getattr(lops, op)
                lead = np.arange(low_op.shape[0]) * (mass.shape[0] // low_op.shape[0])
                target = mass[:, lead] @ low_op - rhs @ known
                solved = rhs[:, hops.lmap.local_indices(kind, i, part)]
                if tests is None:
                    solved, target = solved[1:], target[1:]
                else:
                    p = high.subspace(tests, (kind, i), k).coeffs_float.T
                    solved, target = p @ solved, p @ target
                where = "element" if kind == "cell" else kind
                coo.add(rows, cols, checked_solve(solved, target,
                                                  f"{where} {i}: {op} extension"))
                if projected:
                    coo.add(hlay.indices(kind, i, projected), cols, high.project_onto(
                        projected, (kind, i), k, 0, getattr(lops, source)))
        mat = coo.build(shape)
        self._cache[space] = mat
        return mat

    def extend(self, space: str, vector: np.ndarray) -> np.ndarray:
        return self.matrix(space) @ np.asarray(vector, dtype=float)


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
                    kernel_tol: float = 1e-9) -> LiftedGenerators:
    """Certified degree-k cohomology representatives from CW generators.

    Pipeline: exact CW generator -> inverse de Rham scaling (a degree-0
    vector) -> curl/div extension.  Certificates: kernel residual of the
    outgoing operator below ``kernel_tol`` (relative), and each lifted
    vector raising the rank of [outgoing-image basis | lifted] by one.
    """
    if index not in (1, 2):
        raise DomainError("cohomology index must be 1 or 2")
    mesh, orient = high.mesh, high.orient
    cc = build_cochain_complex(mesh, orient)
    gens = cohomology_generators(cc, index)
    scaling = de_rham_scaling(orient)
    if index == 1:
        space, measures = "Xcurl", scaling.edge
        incoming, outgoing = high.gradient, high.curl
    else:
        space, measures = "Xdiv", scaling.face
        incoming, outgoing = high.curl, high.divergence
    ext = ExtensionMaps(high, low).matrix(space)

    vectors, certs = [], []
    image = incoming.toarray()
    rank_in = np.linalg.matrix_rank(image)
    stacked = image
    for j, g in enumerate(gens):
        lifted = ext @ (np.asarray(g, dtype=float) / measures)
        res = float(np.linalg.norm(outgoing @ lifted))
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
    want = betti_numbers(cc).as_tuple()[index]
    if len(vectors) != want:
        raise CertificationError(f"expected {want} lifted generators, got {len(vectors)}")
    return LiftedGenerators(high.k, index, space, tuple(vectors), tuple(certs))
