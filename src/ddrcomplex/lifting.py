"""Reductions and extensions between the degree-k and degree-0 complexes.

The reduction keeps the component attached to the lowest-dimensional entity
of each space (vertex values, edge/face means, element means), one sparse
assembly per space from the carriers' stack of means.  The extension copies
the degree-0 unknowns into the leading coefficient of their degree-k
components, then solves, in order of increasing dimension, the moment
systems that the local operators of :mod:`.operators` store, with the
degree-0 operator value as right-hand side and the already extended boundary
as data: one stacked solve per size group, read from the group stacks of the
two complexes.  The pair is a one-sided inverse (reduction after extension
is the identity) and both are cochain maps.

The degree-0 complex is the CW cochain complex up to diagonal scalings by
the measures of the carrier entities (``OrientationTable.geometry``; a
vertex has measure one).  The generator pipeline divides exact CW
cohomology generators by these measures and extends them with the
curl/div extension, producing certified representatives of the degree-k
cohomology.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CertificationError, ConditioningError, DomainError
# betti_numbers is unused here, but perfbench/traced.py patches it in this module
from .homology import (
    CochainComplexInt,
    build_cochain_complex,
    betti_numbers,
    cohomology_generators,
)
from .layouts import CARRIERS, KINDS, PARTS
from .mesh import checked_integer, is_real
from .operators import OPERATORS, DdrComplex, _Coo, _Group
from .spaces import span_matrix
from .sparse import CsrMatrix


# ---------------------------------------------------------------------------
# reductions

def _carrier_weights(complex_: DdrComplex, space: str) -> np.ndarray:
    """What the reduction takes of each carrier's component, one row per
    carrier: a vertex value as it is, elsewhere the mean of each basis
    monomial.  The carriers' components lead the layout, one after another,
    so carrier i's starts at i times the row length."""
    kind = CARRIERS[space]
    return np.ones((complex_.mesh.n_vertices, 1)) if kind == "vertex" else complex_.means(kind)


def reduction_matrix(complex_: DdrComplex, space: str) -> CsrMatrix:
    """Sparse reduction onto the degree-0 layout of one space."""
    total = complex_.layout(space).total
    weights = _carrier_weights(complex_, space)
    count, n = weights.shape
    return CsrMatrix.from_coo((count, total), np.repeat(np.arange(count), n),
                              np.arange(count * n), weights)


def zero_reduction_basis(complex_: DdrComplex, space: str) -> CsrMatrix:
    """Columns spanning the kernel of the reduction (zero-mean completions).

    On the reduction-carrying entities the polynomial block is replaced by
    the monomials of degree >= 1 minus their entity mean; all other
    components contribute identity columns.
    """
    total = complex_.layout(space).total
    weights = _carrier_weights(complex_, space)
    count, n = weights.shape
    leads = np.arange(count) * n      # each carrier's constant (on a vertex, its value)
    kept = np.delete(np.arange(total), leads)
    return CsrMatrix.from_coo((total, len(kept)),
                              np.concatenate([kept, np.repeat(leads, n - 1)]),
                              np.concatenate([np.arange(len(kept)), np.arange(count * (n - 1))]),
                              np.concatenate([np.ones(len(kept)), -weights[:, 1:].ravel()]))


# ---------------------------------------------------------------------------
# extensions

class ExtensionMaps:
    """Extension matrices from the degree-0 complex into a degree-k one.

    The degree-0 unknowns are copied into the leading coefficient of their
    degree-k components.  Edges, then faces, then elements solve the
    operators' own moment systems for their remaining unknowns, with the
    already extended boundary rows as data, so that the degree-k operator
    of an extended vector is the degree-0 one.  The systems are read from
    the size-group stacks of both complexes (:meth:`.DdrComplex.stacks`),
    with one stacked solve per size group.
    """

    __slots__ = ("high", "low", "_cache")

    def __init__(self, high: DdrComplex, low: DdrComplex):
        if low.k != 0:
            raise DomainError("extensions start from a degree-0 complex")
        if high.mesh is not low.mesh or high.orient is not low.orient:
            raise DomainError("extension endpoints must share mesh and orientation")
        self.high, self.low = high, low
        self._cache: dict[str, CsrMatrix] = {}

    def matrix(self, space: str) -> CsrMatrix:
        if space in self._cache:
            return self._cache[space]
        high, low, k = self.high, self.low, self.high.k
        hlay, llay = high.layout(space), low.layout(space)
        shape = (hlay.total, llay.total)
        # one degree-0 unknown per carrier, copied into the carrier's first
        # degree-k unknown (a carrier has one part)
        carrier, count = CARRIERS[space], llay.total
        ((part, _),) = PARTS[space][carrier]
        coo = _Coo()
        coo.add(hlay.indices(carrier, np.arange(count), part)[:, :1], np.arange(count)[:, None],
                np.ones((count, 1, 1)))
        # Each block of the operator leaving ``space`` solves for its entities'
        # own unknowns of ``space`` (none at k = 0).  The first component is
        # fixed by the block's moment system restricted to tests: a "poly"
        # target drops the constant test function, whose moment only sees
        # boundary data; an image/complement target tests against its degree-k
        # complement.  A second component is the L2 projection of the degree-0
        # block's potential.
        blocks = [(op, b) for op in OPERATORS if op.source == space for b in op.blocks]
        for op, block in blocks if k else []:
            kind, targets = block.kind, PARTS[op.target][block.kind]
            (own, _), *complement = PARTS[space][kind]
            done = coo.build(shape)   # rows of lower-dimensional entities
            failed: dict[int, ConditioningError] = {}
            for hst, lst in zip(high.stacks(block.builder), low.stacks(block.builder)):
                grp = _Group(kind, hst.group, hlay, hst.globals, failed)
                # extended boundary rows; zero on the entities' own unknowns
                known = done.gather(hst.globals, lst.globals)
                # The degree-0 operator value is the constant coefficient
                # leading each component, so its moments are the leading
                # columns of the mass matrix.
                lead = np.arange(lst.op.shape[1]) * (hst.mass.shape[1] // lst.op.shape[1])
                target = hst.mass[:, :, lead] @ lst.op - hst.rhs @ known
                solved = hst.rhs[:, :, grp.own(own)]
                if len(targets) == 1:
                    solved, target = solved[:, 1:], target[:, 1:]
                else:
                    p = span_matrix(targets[1][0], KINDS.index(kind), k).T
                    solved, target = p @ solved, p @ target
                coo.add(hst.globals[:, grp.own(own)], lst.globals,
                        grp.solve(solved, target, f"{op.local} extension"))
                for part, _ in complement:
                    coo.add(hst.globals[:, grp.own(part)], lst.globals,
                            high._project(kind, hst.ids, part, k, 0, lst.potential, failed))
            if failed:
                raise failed[min(failed)]
        mat = coo.build(shape)
        self._cache[space] = mat
        return mat


# ---------------------------------------------------------------------------
# generator lifting

class LiftedGenerators(NamedTuple):
    degree: int
    index: int                       # cohomology index (1 or 2)
    space: str                       # Xcurl or Xdiv
    vectors: tuple[np.ndarray, ...]
    certificates: tuple[dict, ...]


def lift_generators(high: DdrComplex, low: DdrComplex, index: int,
                    kernel_tol: float = 1e-9, *, cochain: CochainComplexInt | None = None,
                    ext: ExtensionMaps | None = None) -> LiftedGenerators:
    """Certified degree-k cohomology representatives from CW generators.

    Pipeline: exact CW generator g_j -> divided by the measures kappa (a
    degree-0 vector) -> curl/div extension E: ``l_j = E(g_j / kappa)``.
    Certificate: a finite nonzero lift, with the kernel residual of the
    outgoing operator below ``kernel_tol`` (relative).  The lifts are
    independent modulo the incoming image by the cochain maps: if
    ``sum c_j l_j = d_k x``, the reduction R (``RE = I``, commuting with d) gives
    ``sum c_j g_j / kappa = d_0 R x``, and the CW identification
    ``sum c_j g_j = d_CW (kappa' R x)``, which the exact certificate of
    :func:`.cohomology_generators` rules out unless every ``c_j`` is 0.
    ``run_all``'s ``generators`` family checks these premises
    (``cochain.RE_*``, ``red_*``, ``cw_*``).  Without CW generators there is
    nothing to lift or certify, and no extension is computed.  A caller that
    already holds the integer cochain complex or the extension maps of
    ``(high, low)`` passes them as ``cochain`` and ``ext``; otherwise they
    are built here.
    """
    index = checked_integer(index, "cohomology index")
    if index not in (1, 2):
        raise DomainError("cohomology index must be 1 or 2")
    if not (is_real(kernel_tol) and np.isfinite(kernel_tol) and kernel_tol > 0):
        raise DomainError(f"kernel_tol must be finite and positive, got {kernel_tol!r}")
    if ext is not None and (ext.high is not high or ext.low is not low):
        raise DomainError("extension maps of other complexes")
    mesh, orient = high.mesh, high.orient
    if cochain is None:
        cochain = build_cochain_complex(mesh, orient)
    elif cochain.counts != mesh.counts:
        raise DomainError("cochain complex of another mesh")
    gens = cohomology_generators(cochain, index)
    outgoing = OPERATORS[index]
    space = outgoing.source
    if not gens:
        return LiftedGenerators(high.k, index, space, (), ())
    measures = orient.geometry(CARRIERS[space]).measure
    ext_mat = (ext or ExtensionMaps(high, low)).matrix(space)

    vectors, certs = [], []
    for j, g in enumerate(gens):
        lifted = ext_mat @ (np.asarray(g, dtype=float) / measures)
        norm = float(np.linalg.norm(lifted))
        if norm in (0.0, np.inf):      # a NaN lift fails on its NaN residual
            raise CertificationError(f"lifted generator {j}: "
                                     + ("zero lift" if norm == 0 else "lift of infinite norm"))
        rel = float(np.linalg.norm(high.operator(outgoing.name) @ lifted)) / norm
        if not rel <= kernel_tol:
            raise CertificationError(
                f"lifted generator {j}: kernel residual {rel:.3e} above {kernel_tol:.1e}")
        vectors.append(lifted)
        certs.append({"kernel_residual": rel})
    return LiftedGenerators(high.k, index, space, tuple(vectors), tuple(certs))
