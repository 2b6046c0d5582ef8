"""Named numerical certificates for the discrete complex, with a JSON report.

Check families (selectable by name):

* ``complex``        -- the two operator products vanish, and so does the
                        gradient of the interpolated constant;
* ``cohomology``     -- the DDR cohomology dimensions equal the CW Betti
                        numbers, certified by the reduction and the
                        per-entity blocks of its kernel; Euler identities;
                        spectral gaps of those blocks;
* ``cochain``        -- the 16 diagram identities: reduction-after-extension,
                        reduction/extension commutation, and the degree-0 /
                        CW-cochain identification through the measure
                        scalings;
* ``zero_reduction`` -- exactness of the subcomplex annihilated by the
                        reductions, from the same per-entity blocks (rank
                        chain, any topology);
* ``closed_forms``   -- degree-0 boundary-value formulas equal the generic
                        assembly entrywise;
* ``consistency``    -- trace/gradient polynomial consistency sweep over all
                        monomials of degree <= k+1 of the centred, scaled
                        coordinates;
* ``generators``     -- lifted cohomology generators with kernel-residual
                        certificates, independent by the cochain-map premises.

Each family is a function ``check_<family>`` (``check_cochain_diagram`` for
``cochain``) of a :class:`VerifySession` that returns its rows; what is read
after the rows (the certificate, the ranks, the generators' lifts) stays on
the session, where :func:`run_all` and the CLI read it.

Tolerances are pinned here: 1e-12 for bookkeeping identities, 1e-10 for
assembled operator identities, 1e-9 for identities through solved local
systems, 1e-13 for the degree-0/CW diagram.  Relative residuals scale by
the max absolute entries of the product factors.  Every product of sparse
matrices is formed entity by entity, from blocks on the entity's closure.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import cached_property, partial, reduce
from operator import matmul
from typing import NamedTuple

import numpy as np

from .errors import DdrError, DomainError, InputError
from .homology import betti_numbers, build_cochain_complex, cohomology_dims
from .layouts import CARRIERS, KINDS, PARTS, SPACES, DofLayout, checked_degree, entity_count
from .lifting import (
    ExtensionMaps,
    LiftedGenerators,
    lift_generators,
    reduction_matrix,
    zero_reduction_basis,
)
from .mesh import Frozen, Mesh, OrientationTable, is_integer, is_real
from .monomials import eval_monomials, grad_matrix, monomial_powers
from .operators import (_STACK_POINTS, OPERATORS, DdrComplex, MonomialField, _label,
                        _operator_index, _slices, ddr0_closed_forms)
from .sparse import CsrMatrix, block_product

FAMILIES = ("complex", "cohomology", "cochain", "zero_reduction",
            "closed_forms", "consistency", "generators")

TOLERANCES = {
    "re_identity": 1e-12,
    "reduction_commute": 1e-10,
    "extension_commute": 1e-10,
    "cw_diagram": 1e-13,
    "complex": 1e-10,
    "closed_forms": 1e-12,
    "consistency": 1e-9,
    "generator_kernel": 1e-9,
}

MIN_SPECTRAL_GAP = 10.0


# ---------------------------------------------------------------------------
# numeric rank with gap diagnostics

class RankOptions(Frozen):
    """Singular-value thresholding rule: tau = rel_tol * sigma_max, with
    rel_tol strictly between 0 and 1, defaulting to max(m, n) * machine
    epsilon; the seed, an integer, is recorded for report reproducibility."""

    __slots__ = ("rel_tol", "seed")

    def __init__(self, rel_tol: float | None = None, seed: int = 0):
        if not is_integer(seed):
            raise InputError(f"seed {seed!r} is not an integer")
        if rel_tol is not None and not is_real(rel_tol):
            raise InputError(f"rank tolerance {rel_tol!r} is not a number")
        if rel_tol is not None and not 0.0 < rel_tol < 1.0:
            raise InputError(f"rank tolerance must lie strictly between 0 and 1, got {rel_tol}")
        self._set(rel_tol=rel_tol, seed=int(seed))

    def threshold(self, rows: int, cols: int) -> float:
        """rel_tol for a rows x cols matrix: tau is this times sigma_max."""
        return self.rel_tol if self.rel_tol is not None else max(rows, cols) * np.finfo(float).eps


class RankResult(NamedTuple):
    rank: int
    sigma_max: float
    sigma_rank: float      # smallest kept singular value
    sigma_next: float      # largest discarded singular value
    tau: float
    gap: float             # sigma_rank / sigma_next (inf when clean)

    def as_dict(self) -> dict:
        return {"rank": self.rank, "sigma_max": self.sigma_max, "tau": self.tau,
                "gap": None if np.isinf(self.gap) else self.gap}


def numeric_rank(mat: np.ndarray, opts: RankOptions | None = None) -> RankResult:
    opts = opts or RankOptions()
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise DomainError("numeric_rank: matrix has non-finite entries")
    if mat.size == 0:
        return RankResult(0, 0.0, 0.0, 0.0, 0.0, np.inf)
    sigma = np.linalg.svd(mat, compute_uv=False)
    smax = float(sigma[0])
    tau = opts.threshold(*mat.shape) * smax
    rank = int((sigma > tau).sum())
    s_rank = float(sigma[rank - 1]) if rank else float("inf")
    s_next = float(sigma[rank]) if rank < sigma.size else 0.0
    gap = np.inf if s_next == 0.0 else s_rank / s_next
    return RankResult(rank, smax, s_rank if rank else 0.0, s_next, tau, float(gap))


# ---------------------------------------------------------------------------
# results and report

class CheckResult:
    """One row of the report; :func:`run_all` names and times it."""

    __slots__ = ("name", "passed", "residual", "tolerance", "detail", "seconds", "error")

    def __init__(self, name: str, passed: bool, residual: float | None = None,
                 tolerance: float | None = None, detail: str = "", seconds: float = 0.0,
                 error: str | None = None):
        self.name, self.passed, self.residual, self.tolerance = name, passed, residual, tolerance
        self.detail, self.seconds, self.error = detail, seconds, error

    def as_dict(self) -> dict:
        out = {"name": self.name, "passed": bool(self.passed),
               "residual": self.residual, "tolerance": self.tolerance,
               "seconds": round(self.seconds, 6)}
        if self.detail:
            out["detail"] = self.detail
        if self.error:
            out["error"] = self.error
        return out


class VerificationReport:
    """What :func:`run_all` found, serialized by :meth:`as_dict`; ``session``,
    the session that produced it, is kept for callers that reuse its
    operators and never serialized."""

    __slots__ = ("mesh_counts", "degree", "dims", "ranks", "betti_cw", "cohomology_ddr",
                 "checks", "seed", "timestamp", "generators", "session")

    def __init__(self, mesh_counts: tuple[int, int, int, int], degree: int,
                 dims: dict[str, int], ranks: dict[str, dict], betti_cw: list[int],
                 cohomology_ddr: list[int] | None, checks: list[CheckResult], seed: int,
                 timestamp: str | None = None, generators: list[dict] | None = None,
                 session: VerifySession | None = None):
        self.mesh_counts, self.degree, self.dims, self.ranks = mesh_counts, degree, dims, ranks
        self.betti_cw, self.cohomology_ddr, self.checks = betti_cw, cohomology_ddr, checks
        self.seed, self.timestamp, self.session = seed, timestamp, session
        self.generators = [] if generators is None else generators

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def strip_timing(self) -> None:
        """Zero wall times (used with --no-timestamp for byte-identical output)."""
        for c in self.checks:
            c.seconds = 0.0

    def as_dict(self) -> dict:
        out = {
            "mesh": {"vertices": self.mesh_counts[0], "edges": self.mesh_counts[1],
                     "faces": self.mesh_counts[2], "elements": self.mesh_counts[3]},
            "degree": self.degree,
            "dims": self.dims,
            "ranks": self.ranks,
            "betti_cw": self.betti_cw,
            "cohomology_ddr": self.cohomology_ddr,
            "checks": [c.as_dict() for c in self.checks],
            "seed": self.seed,
            "passed": self.passed,
        }
        if self.generators:
            out["generators"] = self.generators
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
        return out


def _maxabs(mat) -> float:
    return float(np.abs(mat.data if isinstance(mat, CsrMatrix) else mat).max(initial=0.0))


def _scale(*sides: list) -> float:
    """The larger of 1 and, per side, the product of its factors' max
    absolute entries, so pure bookkeeping identities stay near 1e-16."""
    return max(1.0, *(float(np.prod([_maxabs(f) for f in side])) for side in sides if side))


# A sparse factor: its name in errors, the matrix, its rows' and columns' DofLayouts
_Factor = namedtuple("_Factor", "name mat rows cols")


# The most entries of a stack of gathered blocks (2 MB of float64): a size
# group is gathered and multiplied in chunks of its members this small.
_ENTRIES = 1 << 18

# The most reconstructed values in one chunk of monomials of the consistency
# sweep (256 kB of float64), or else one monomial: a chunk, its exact values
# and their difference stay well below the closure products' stacks.
_SWEEP_ENTRIES = 1 << 15


# ---------------------------------------------------------------------------
# the local certificate of ker R

class LocalRanks(NamedTuple):
    """One operator restricted to ker R, certified entity by entity.

    ``result`` summarises the per-entity diagonal blocks: its rank is the
    sum of their ranks, ``sigma_max`` and ``tau`` the largest of a block,
    and ``gap`` (with ``sigma_rank`` and ``sigma_next``) the smallest block
    gap, found at ``gap_at``.  ``failures`` names the blocks whose rank is
    not the one their entity's own complex needs.
    """

    result: RankResult
    gap_at: str | None
    failures: tuple[str, ...]


NO_BLOCKS = LocalRanks(RankResult(0, 0.0, 0.0, 0.0, 0.0, np.inf), None, ())


def _own_counts(complex_: DdrComplex) -> dict[str, dict[str, int]]:
    """Per space and entity kind, the own ker R coordinates of one entity."""
    return {space: {kind: sum(complex_.layout(space).dim(kind, part)
                              for part, _ in parts) - (kind == CARRIERS[space])
                    for kind, parts in PARTS[space].items()} for space in SPACES}


def _expected_ranks(own: dict[str, dict[str, int]]) -> dict[str, list[int]]:
    """Per entity kind, the ranks of its gradient, curl and divergence blocks
    that make its own complex exact: each is the own count of the
    operator's source less the rank before it.  The last must leave the
    own count of Pk."""
    out = {}
    for kind in KINDS:
        ranks, before = [], 0
        for op in OPERATORS:
            before = own[op.source].get(kind, 0) - before
            ranks.append(before)
        out[kind] = ranks
    return out


def _stacked_ranks(blocks: np.ndarray, opts: RankOptions):
    """The rule of :func:`numeric_rank` on every matrix of a stack: ranks,
    sigma_max, tau, the smallest kept and the largest discarded singular
    value (tau when the block has full rank), and their ratio, the gap."""
    count, m, n = blocks.shape
    sigma = np.linalg.svd(blocks, compute_uv=False)
    tau = opts.threshold(m, n) * sigma[:, 0]
    rank = (sigma > tau[:, None]).sum(axis=1)
    at, last = np.arange(count), sigma.shape[1] - 1
    kept = np.where(rank > 0, sigma[at, np.maximum(rank - 1, 0)], np.inf)
    following = np.where(rank <= last, sigma[at, np.minimum(rank, last)], tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.where(following > 0, kept / following, np.inf)
    return rank, sigma[:, 0], tau, kept, following, gap


# ---------------------------------------------------------------------------
# verification session

# The premises of the cohomology certificate, as rows of their own families:
# the complex property, the reductions as cochain maps that are onto
# (``reduction.onto``, no row of its own), and the degree-0 / CW
# identification.  At degree 0 the reduction is the identity.
_KERNEL_PREMISES = ("complex.curl_grad", "complex.div_curl")
_REDUCTION_PREMISES = ("cochain.red_grad", "cochain.red_curl", "cochain.red_div",
                       "reduction.onto")
_CW_PREMISES = ("cochain.cw_interp", "cochain.cw_grad", "cochain.cw_curl", "cochain.cw_div")
# The premises of independent lifted H^i generators (see ``lift_generators``):
# RE = I on their space and R commuting with the incoming operator, then its
# CW identification, last.  At degree 0, R and E are identities.
_GENERATOR_PREMISES = {1: ("cochain.RE_curl", "cochain.red_grad", "cochain.cw_grad"),
                       2: ("cochain.RE_div", "cochain.red_curl", "cochain.cw_curl")}


class VerifySession:
    """Lazily builds and shares the operators a battery of checks needs.

    The residual rows of the ``complex``, ``cochain``, ``closed_forms`` and
    ``consistency`` families are computed once (:meth:`residual`): the
    cohomology certificate reads some of them as its premises.
    :meth:`local_ranks` certifies each operator on ker R from its
    per-entity blocks, and :meth:`operator_rank` adds the exact rank of the
    CW coboundary.
    ``lifted`` holds the lifts of the last ``generators`` family.
    """

    def __init__(self, mesh: Mesh, orientation: OrientationTable, degree: int,
                 opts: RankOptions | None = None):
        self.mesh = mesh
        self.orient = orientation
        self.k = checked_degree(degree)
        self.opts = opts or RankOptions()
        self._ranks: dict[str, RankResult] = {}
        self._local: dict[str, LocalRanks] = {}
        self._residuals: dict[str, CheckResult] = {}
        self._reductions: dict[str, CsrMatrix] = {}
        self._local_matrices: set[CsrMatrix] = set()      # checked by check_local
        self.lifted: list[LiftedGenerators] = []

    @cached_property
    def high(self) -> DdrComplex:
        return DdrComplex(self.mesh, self.orient, self.k)

    @cached_property
    def low(self) -> DdrComplex:
        return self.high if self.k == 0 else DdrComplex(self.mesh, self.orient, 0)

    @cached_property
    def ext(self) -> ExtensionMaps:
        return ExtensionMaps(self.high, self.low)

    @cached_property
    def cochain(self):
        return build_cochain_complex(self.mesh, self.orient)

    @cached_property
    def betti(self):
        return betti_numbers(self.cochain)

    @property
    def dims(self) -> dict[str, int]:
        return {sp: self.high.layout(sp).total for sp in SPACES}

    def reduction(self, space: str) -> CsrMatrix:
        if space not in self._reductions:
            self._reductions[space] = reduction_matrix(self.high, space)
        return self._reductions[space]

    # -- residual rows and premises ------------------------------------------

    @cached_property
    def closed_forms(self) -> tuple[CsrMatrix, ...]:
        """The degree-0 operators from their boundary-value formulas."""
        return tuple(ddr0_closed_forms(self.mesh, self.orient))

    @cached_property
    def monomial_frame(self) -> tuple[np.ndarray, float]:
        """The centre c and scale r of the consistency monomials, which are
        monomials of y = (x - c)/r: the centre of the vertices' bounding box
        and half its longest side, so that y lies in [-1, 1]^3."""
        lo, hi = self.mesh.vertices.min(axis=0), self.mesh.vertices.max(axis=0)
        return (lo + hi) / 2, float((hi - lo).max()) / 2

    @cached_property
    def monomial_interpolates(self) -> np.ndarray:
        """The interpolates of the consistency monomials, as rows."""
        return self.high.interpolate_grad(MonomialField(self.k + 1, *self.monomial_frame))

    def _row_chunks(self, rows: DofLayout, cols: list[DofLayout]):
        """Per kind, size group and chunk of the entities with own ``rows``:
        the kind, the entities, their own rows and closure dofs in ``cols``."""
        for kind in PARTS[rows.space]:
            for g, grp in enumerate(self.mesh.groups(kind)):
                idx = [rows.own(kind, grp.ids)] + [c.closures(kind)[g] for c in cols]
                each = max(i.shape[1] for i in idx) ** 2
                for at in _slices(len(grp.ids) if idx[0].shape[1] else 0, each, _ENTRIES):
                    yield kind, grp.ids[at], [i[at] for i in idx]

    def check_local(self, f: _Factor) -> None:
        """Raise :class:`DdrError`, naming the matrix and an entity, unless
        every nonzero of ``f`` lies in ``own(X) x closure(X)`` for the entity
        X of its row; each matrix is checked once.  Products of closure
        blocks are whole products only then."""
        if f.mat not in self._local_matrices:
            # per row, its nonzeros; per entity, those its closure block holds
            nonzeros = np.diff(np.append(0, np.cumsum(f.mat.data != 0))[f.mat.indptr])
            for kind, ids, (own, closure) in self._row_chunks(f.rows, [f.cols]):
                inside = np.count_nonzero(f.mat.gather(own, closure), axis=(1, 2))
                stray = ids[inside < nonzeros[own].sum(axis=1)]
                if len(stray):
                    raise DdrError(f"{f.name}: entry outside the closure of "
                                   f"{_label(kind, int(stray[0]))}")
            self._local_matrices.add(f.mat)

    def _closure_residual(self, left: list[_Factor], right: list[_Factor],
                          scale: float) -> tuple[float, str | None]:
        """The largest entry of ``prod(left) - prod(right)`` over ``scale``,
        and its row's entity.  An entity's rows of a product are a product
        of closure blocks (:func:`.sparse.block_product`): the first factor
        on its own rows and closure, each later one on closure x closure."""
        worst = [(0.0, None)]
        for kind, ids, idx in self._row_chunks(left[0].rows, [f.cols for f in left + right]):
            diff = block_product([f.mat for f in left], idx[:len(left) + 1])
            if right:
                diff -= block_product([f.mat for f in right], idx[:1] + idx[len(left) + 1:])
            per = np.abs(diff).max(axis=(1, 2), initial=0.0)
            at = int(np.argmax(per))                    # a NaN is its own argmax
            worst.append((per[at], _label(kind, int(ids[at]))))
        value, where = worst[int(np.argmax([w[0] for w in worst]))]
        return float(value) / scale, where

    @cached_property
    def _residual_rows(self) -> dict:
        """Every residual row of the complex, cochain, closed_forms and
        consistency families, in row order, and ``reduction.onto``: name ->
        (thunk of the residual and where it is largest, tolerance).  Each
        matrix is built and :meth:`check_local` inside the first row that
        uses it; a row ending in a dense column multiplies whole matrices,
        the others closure blocks.  The CW rows compare each degree-0
        operator scaled by its target carriers' measures with the
        coboundary scaled by its source's (a vertex has measure one).  A
        consistency row is the largest entry of its (monomial, entity)
        table (:func:`_consistency_table`), the first in monomial-major
        order."""
        high, low = self.high, self.low
        rows = {}

        def op(c: DdrComplex, o, name=None, mat=None):     # or a matrix between its layouts
            return _Factor(name or f"degree-{c.k} {o.name}", c.operator(o.name) if mat is None
                           else mat, c.layout(o.target), c.layout(o.source))

        def red(sp):
            return _Factor(f"reduction of {sp}", self.reduction(sp), low.layout(sp),
                           high.layout(sp))

        def ext(sp):
            return _Factor(f"extension of {sp}", self.ext.matrix(sp), high.layout(sp),
                           low.layout(sp))

        def diagonal(sp, values, name):
            return _Factor(f"{name} of {sp}", CsrMatrix.diagonal(values), low.layout(sp),
                           low.layout(sp))

        def residual(left, right):
            left, right = left(), right()
            for f in left + right:
                if isinstance(f, _Factor):
                    self.check_local(f)
            mats = [[getattr(f, "mat", f) for f in side] for side in (left, right)]
            if isinstance(left[-1], _Factor):
                return self._closure_residual(left, right, _scale(*mats))
            # a dense column: sparse times dense products
            diff = reduce(matmul, mats[0]) - (reduce(matmul, mats[1]) if right else 0.0)
            return _maxabs(diff) / _scale(*mats), None

        def add(name, tol, left, right=list):
            rows[name] = (partial(residual, left, right), tol)

        tol = TOLERANCES["complex"]
        add("complex.grad_of_constant", tol,
            lambda: [op(high, OPERATORS[0]), high.head_column[:, None]])
        for first, then in zip(OPERATORS, OPERATORS[1:]):
            add(f"complex.{then.local}_{first.local}", tol, lambda first=first, then=then:
                [op(high, then), op(high, first)])

        tol = TOLERANCES["re_identity"]
        tags = {o.source: o.local for o in OPERATORS}
        for sp in SPACES:
            add(f"cochain.RE_{tags.get(sp, 'tail')}", tol, lambda sp=sp: [red(sp), ext(sp)],
                lambda sp=sp: [diagonal(sp, np.ones(low.layout(sp).total), "identity")])

        def onto():
            # each row of R starts at its carrier's constant, so R restricted
            # to the leads is diagonal with the mean of the constant
            return max(float(np.abs(r.data[r.indptr[:-1]] - 1.0).max(initial=0.0))
                       for r in map(self.reduction, SPACES)), None

        rows["reduction.onto"] = (onto, tol)

        tol = TOLERANCES["reduction_commute"]
        add("cochain.red_interp", tol, lambda: [red(SPACES[0]), high.head_column[:, None]],
            lambda: [low.head_column[:, None]])
        for o in OPERATORS:
            add(f"cochain.red_{o.local}", tol, lambda o=o: [red(o.target), op(high, o)],
                lambda o=o: [op(low, o), red(o.source)])

        tol = TOLERANCES["extension_commute"]
        add("cochain.ext_interp", tol, lambda: [high.head_column[:, None]],
            lambda: [ext(SPACES[0]), low.head_column[:, None]])
        for o in OPERATORS:
            add(f"cochain.ext_{o.local}", tol, lambda o=o: [op(high, o), ext(o.source)],
                lambda o=o: [ext(o.target), op(low, o)])

        tol = TOLERANCES["cw_diagram"]

        def kappa(sp):
            return diagonal(sp, self.orient.geometry(CARRIERS[sp]).measure, "measures")

        add("cochain.cw_interp", tol, lambda: [low.head_column[:, None]],
            lambda: [np.ones((self.mesh.n_vertices, 1))])
        for i, o in enumerate(OPERATORS):
            add(f"cochain.cw_{o.local}", tol, lambda o=o: [kappa(o.target), op(low, o)],
                lambda i=i, o=o: [op(low, o, f"coboundary d{i}", self.cochain.boundary(i)),
                                  kappa(o.source)])

        tol = TOLERANCES["closed_forms"]
        for i, o in enumerate(OPERATORS):
            add(f"closed_forms.{o.name}", tol, lambda o=o: [op(low, o)],
                lambda i=i, o=o: [op(low, o, f"closed-form {o.name}", self.closed_forms[i])])

        def consistency(kind, builder, trace):
            table = _consistency_table(self, kind, builder, trace)
            a, e = divmod(int(np.argmax(table)), table.shape[1])   # a NaN is its own argmax
            x, y, z = monomial_powers(3, self.k + 1)[a]
            return float(table[a, e]), f"{_label(kind, e)}, monomial x^{x} y^{y} z^{z}"

        for name, *how in _CONSISTENCY_ROWS:
            rows[f"consistency.{name}"] = (partial(consistency, *how), TOLERANCES["consistency"])
        return rows

    def residual(self, name: str) -> CheckResult:
        """The residual row ``name``, computed on first use and kept; each
        call returns a copy of its own (unnamed, untimed), and names where a
        failing residual is largest.  An error is raised, and not kept."""
        if name not in self._residual_rows:
            raise DomainError(f"unknown residual row {name!r}")
        if name not in self._residuals:
            value, tol = self._residual_rows[name]
            residual, where = value()
            row = CheckResult("", passed=residual <= tol, residual=float(residual), tolerance=tol)
            if where and not row.passed:
                row.detail = f"largest at {where}"
            self._residuals[name] = row
        row = self._residuals[name]
        return CheckResult("", row.passed, row.residual, row.tolerance, row.detail)

    def premises(self, cw: bool = True) -> tuple[str, ...]:
        """The premises of the exactness of ker R (with ``cw``, of the
        cohomology): the complex property, and above degree 0 the
        reductions as onto cochain maps; then the CW identification."""
        return (_KERNEL_PREMISES + (_REDUCTION_PREMISES if self.k else ())
                + (_CW_PREMISES if cw else ()))

    def premise_failures(self, names) -> list[str]:
        """The premises among ``names`` above their tolerance, described."""
        out = []
        for name in names:
            row = self.residual(name)
            if not row.passed:
                out.append(f"premise {name} failed (residual {row.residual:.1e}, "
                           f"tolerance {row.tolerance:.0e})")
        return out

    # -- the certificate --------------------------------------------------------

    @cached_property
    def kernel_bases(self) -> dict[str, CsrMatrix]:
        return {sp: zero_reduction_basis(self.high, sp) for sp in SPACES}

    @cached_property
    def own_counts(self) -> dict[str, dict[str, int]]:
        return _own_counts(self.high)

    def local_ranks(self, which: str) -> LocalRanks:
        """Certify one operator on ker R from its per-entity diagonal blocks.

        The zero-reduction bases' non-lead rows are the identity, so the
        non-lead rows of ``d @ B`` are d on ker R in ker R coordinates,
        ``M`` (the lead rows follow from the ``red_*`` premises).  Each
        entry of d lies in its row entity's closure (:meth:`check_local`),
        which comes before the entity in layout order, so ``M`` is block
        lower triangular and ``rank M`` is at least the sum of the ranks of
        its diagonal blocks: d on an entity's own non-lead rows and own
        columns times B on those columns and its own ker R coordinates,
        ranked by stacked SVDs a size group (in chunks) at a time.  A
        block's expected rank makes its entity's own complex exact
        (:func:`_expected_ranks`); a block off it fails, and is named.  At
        degree 0 ker R is zero: there are no blocks.
        """
        if which in self._local:
            return self._local[which]
        i = _operator_index(which)
        if self.k == 0:
            return self._local.setdefault(which, NO_BLOCKS)
        op = OPERATORS[i]
        d, basis = self.high.operator(which), self.kernel_bases[op.source]
        tgt, src = self.high.layout(op.target), self.high.layout(op.source)
        self.check_local(_Factor(f"degree-{self.k} {which}", d, tgt, src))
        # ker R numbers the unknowns other than the leads, which come first
        leads = entity_count(self.mesh, CARRIERS[op.source])
        counts = {kind: (self.own_counts[op.target].get(kind, 0),
                         self.own_counts[op.source].get(kind, 0)) for kind in KINDS}
        # per kind and entity: rank, sigma_max, tau, kept, following, gap
        ranked = {kind: np.empty((6, entity_count(self.mesh, kind))) for kind in KINDS}
        for kind, ids, (rows, _) in self._row_chunks(tgt, [src]):
            m, n = counts[kind]
            if m and n:             # else rank 0, as the sums checked by local_failures need
                cols = src.own(kind, ids)
                coords = cols[:, -n:] - (ids[:, None] + 1 if kind == CARRIERS[op.source]
                                         else leads)
                blocks = block_product([d, basis], [rows[:, -m:], cols, coords])
                if not np.all(np.isfinite(blocks)):
                    raise DomainError(f"local ranks of {which}: operator has non-finite entries")
                ranked[kind][:, ids] = _stacked_ranks(blocks, self.opts)
        failures: list[str] = []
        total, smallest, sigma_max, tau_max = 0, None, 0.0, 0.0
        for kind in (kind for kind in KINDS if all(counts[kind])):
            rank, smax, tau, kept, following, gap = ranked[kind]
            rank, want = rank.astype(int), _expected_ranks(self.own_counts)[kind][i]
            total += int(rank.sum())
            sigma_max, tau_max = max(sigma_max, float(smax.max())), max(tau_max, float(tau.max()))
            g = int(np.argmin(gap))
            if np.isfinite(gap[g]) and (smallest is None or gap[g] < smallest[2]):
                smallest = (float(kept[g]), float(following[g]), float(gap[g]), _label(kind, g))
            off = np.nonzero(rank != want)[0]
            failures += [f"{op.local}: {_label(kind, int(e))} local rank {rank[e]}, "
                         f"expected {want}" for e in off[:3]]
            if len(off) > 3:
                failures.append(f"{op.local}: {len(off) - 3} more {kind} blocks off their rank")
        kept, following, gap, gap_at = smallest or (0.0, 0.0, np.inf, None)
        self._local[which] = LocalRanks(
            RankResult(total, sigma_max, kept, following, tau_max, gap), gap_at, tuple(failures))
        return self._local[which]

    def local_failures(self) -> list[str]:
        """What breaks the local certificate: a kind whose own complex
        cannot be exact, then each operator's failures."""
        out = []
        if self.k:
            for kind, ranks in _expected_ranks(self.own_counts).items():
                if min(ranks) < 0 or ranks[-1] != self.own_counts["Pk"].get(kind, 0):
                    out.append(f"{kind}: own unknowns cannot form an exact complex")
        for op in OPERATORS:
            out += self.local_ranks(op.name).failures
        return out

    def certified(self) -> bool:
        """Whether the local certificate and every premise of the
        cohomology hold (an error computing them counts as no)."""
        try:
            return not self.local_failures() and not self.premise_failures(self.premises())
        except DdrError:
            return False

    def operator_rank(self, which: str) -> RankResult:
        """The rank of one operator: the exact rank of its CW coboundary plus
        the certified rank on ker R, with the summary of its local blocks.
        It is the operator's rank when :meth:`certified` holds."""
        if which not in self._ranks:
            i = _operator_index(which)
            local = self.local_ranks(which).result
            self._ranks[which] = local._replace(rank=self.cochain.echelon(i).rank + local.rank)
        return self._ranks[which]

    def cohomology_dims(self) -> tuple[int, int, int, int]:
        ranks = [self.operator_rank(op.name).rank for op in OPERATORS]
        return cohomology_dims(self.dims.values(), ranks, head=1)


def _timed(checks: list[CheckResult], name: str, fn) -> None:
    """Run one check body; construction errors become errored results."""
    start = time.perf_counter()
    try:
        result = fn()
        result.name = name
        result.seconds = time.perf_counter() - start
        checks.append(result)
    except DdrError as exc:
        checks.append(CheckResult(name, passed=False, seconds=time.perf_counter() - start,
                                  error=f"{type(exc).__name__}: {exc}"))


def _flag_check(ok: bool, detail: str) -> CheckResult:
    return CheckResult("", passed=bool(ok), detail=detail)


def _family_rows(s: VerifySession, family: str) -> list[CheckResult]:
    """The session's residual rows of one family, each timed on its own."""
    out: list[CheckResult] = []
    for name in s._residual_rows:
        if name.startswith(f"{family}."):
            _timed(out, name, partial(s.residual, name))
    return out


# -- families ----------------------------------------------------------------

def check_complex(s: VerifySession) -> list[CheckResult]:
    return _family_rows(s, "complex")


def check_cohomology(s: VerifySession) -> list[CheckResult]:
    """The DDR cohomology is the CW one when ker R is exact.

    R is an onto cochain map to the degree-0 complex, which is the CW
    cochain complex up to the measure scalings, so the long exact sequence
    of ``0 -> ker R -> X_k -> X_0 -> 0`` gives ``H(X_k) = H_CW`` when ker R
    is exact; its local certificate (:meth:`VerifySession.local_ranks`)
    shows that.  Each operator's rank is then the exact CW rank plus its
    certified rank on ker R.  A failed premise or local block fails
    ``betti_match``, named.
    """
    out: list[CheckResult] = []

    def betti_match():
        problems = s.local_failures() + s.premise_failures(s.premises())
        if problems:
            return _flag_check(False, "; ".join(problems))
        h = s.cohomology_dims()
        want = (0, s.betti.b1, s.betti.b2, 0)
        return _flag_check(h == want, f"H={list(h)} betti={list(s.betti)}")

    def euler_dofs():
        alt = sum((-1) ** i * d for i, d in enumerate(s.dims.values()))
        chi = s.mesh.euler_characteristic
        return _flag_check(alt == chi, f"dim alternating sum {alt} vs chi {chi}")

    def euler_betti():
        b = s.betti
        chi = s.mesh.euler_characteristic
        alt = b.b0 - b.b1 + b.b2 - b.b3
        return _flag_check(alt == chi and b.b0 == 1 and b.b3 == 0,
                           f"betti {list(b)} alternating sum {alt} vs chi {chi}")

    def spectral_gaps():
        local = {op.name: s.local_ranks(op.name) for op in OPERATORS}
        gaps = {w: r.result.gap for w, r in local.items()}
        ok = all(not np.isfinite(g) or g >= MIN_SPECTRAL_GAP for g in gaps.values())
        txt = ", ".join(f"{w}: {'inf' if np.isinf(g) else f'{g:.1e}'}" for w, g in gaps.items())
        worst = min(gaps, key=gaps.get)
        if np.isfinite(gaps[worst]):
            txt += f"; smallest at {worst}: {local[worst].gap_at}"
        return _flag_check(ok, f"rank gaps {txt}")

    _timed(out, "cohomology.betti_match", betti_match)
    _timed(out, "cohomology.euler_dofs", euler_dofs)
    _timed(out, "cohomology.euler_betti", euler_betti)
    _timed(out, "cohomology.spectral_gaps", spectral_gaps)
    return out


def check_cochain_diagram(s: VerifySession) -> list[CheckResult]:
    """Reduction and extension diagrams, and the CW identification.

    ``RE`` against the identity, and each degree-0 operator scaled by its
    target carriers' measures against the coboundary scaled by its source's.
    The rows are the session's (:meth:`VerifySession.residual`): each matrix
    is built inside the first row, of this family or a premise read before
    it, that uses it, so its cost, or the error it raises, is that row's.
    """
    return _family_rows(s, "cochain")


def check_zero_reduction(s: VerifySession) -> list[CheckResult]:
    """ker R is exact when its local certificate holds, it is a subcomplex
    (the reductions commute with the operators and are onto) and the
    operators compose to zero; the stage deficits are those of the
    certified local rank sums."""
    out: list[CheckResult] = []

    def exactness():
        if s.k == 0:
            return _flag_check(True, "trivial at degree 0 (all subspaces are zero)")
        ranks = [s.local_ranks(op.name).result.rank for op in OPERATORS]
        dims = [b.shape[1] for b in s.kernel_bases.values()]
        deficits = cohomology_dims(dims, ranks)
        problems = s.local_failures() + s.premise_failures(s.premises(cw=False))
        return _flag_check(not any(deficits) and not problems, "; ".join(
            [f"stage deficits {list(deficits)} (dims {dims}, ranks {ranks})", *problems]))

    _timed(out, "zero_reduction.exact", exactness)
    return out


def check_closed_forms(s: VerifySession) -> list[CheckResult]:
    """Each degree-0 operator against its boundary-value formula; the
    formulas are built inside the first row."""
    return _family_rows(s, "closed_forms")


def _relative_error(approx: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Max-norm error of each stack member (..., G, q, c) over max(1, its |exact|)."""
    axes = (-2, -1)
    return np.abs(approx - exact).max(axis=axes) / np.maximum(1.0, np.abs(exact).max(axis=axes))


# The rows of the consistency sweep: (name, entity kind, builder, trace); a
# trace row checks the builder's potential, a gradient row its operator.
_CONSISTENCY_ROWS = (("edge_trace", "edge", "edge_ops", True),
                     ("edge_gradient", "edge", "edge_ops", False),
                     ("face_trace", "face", "face_grad_ops", True),
                     ("face_gradient", "face", "face_grad_ops", False),
                     ("element_gradient", "cell", "cell_grad_ops", False))


def _consistency_table(s: VerifySession, kind: str, builder: str, trace: bool) -> np.ndarray:
    """The (monomial, entity) residual table of one consistency row: on the
    entities' quadrature points, in each entity's frame, the trace (P^(k+1),
    one column) or the gradient (P^k, a component per frame vector) that one
    builder reconstructs from each interpolated monomial of y (see
    :attr:`VerifySession.monomial_frame`), against the monomial's value or
    the values of the at most three monomials of its gradient in y
    (``grad_matrix``) rotated into the frame, then over the scale.
    Monomials, bases and rotated gradients are evaluated once per stack of
    at most ``_STACK_POINTS`` points or one entity's, sliced from the rule
    store (elements at rules of degree 2k, unisolvent for P^k).  The
    monomials lie on a leading axis of one product per point stack, chunked
    to at most ``_SWEEP_ENTRIES`` reconstructed values or one monomial: the
    operators act on each monomial's local dofs, and the bases on its
    coefficients, as one product per (monomial, entity) each (all monomials
    as the columns of one product would round differently)."""
    high, k = s.high, s.k
    centre, scale = s.monomial_frame
    count, degree = len(monomial_powers(3, k + 1)), k + 1 if trace else k
    out = np.empty((count, entity_count(s.mesh, kind)))
    frames = s.orient.geometry(kind).frame
    grads = grad_matrix(3, k + 1).reshape(3, -1, count)    # per axis, (P^k, P^(k+1))
    reads = [np.flatnonzero(grads[..., a].any(axis=0)) for a in range(count)]
    for st, (points, *_) in zip(high.stacks(builder), high._rule_store(kind)):
        ids, dofs = st.ids, st.globals
        ops = st.potential if trace else st.op
        for part in _slices(len(ids), points.shape[1], _STACK_POINTS):
            sub, pts = ids[part], points[part]
            phi = high._eval(kind, sub, pts, degree)
            y = ((pts - centre) / scale).reshape(-1, 3)
            values = eval_monomials(3, degree, y).reshape(*pts.shape[:2], -1)
            # P^k, P^(k+1) and the frame vectors
            rotated = None if trace else np.einsum("gdi,ijm->gjmd", frames[sub], grads)
            width = ops.shape[1] // phi.shape[-1]       # components of the reconstruction
            for chunk in _slices(count, len(sub) * pts.shape[1] * width, _SWEEP_ENTRIES):
                coeffs = ops[part] @ s.monomial_interpolates[chunk][:, dofs[part], None]
                approx = phi @ coeffs.reshape(*coeffs.shape[:2], width, -1).swapaxes(-1, -2)
                if trace:
                    exact = np.moveaxis(values[..., chunk, None], -2, 0)
                else:
                    # take copies C-contiguously, so the product rounds alike in stacks of
                    # any size; d/dx is d/dy over the scale
                    exact = np.stack([values.take(reads[a], axis=-1) @ rotated[:, reads[a], a]
                                      for a in range(count)[chunk]]) / scale
                out[chunk, sub] = _relative_error(approx, exact)
    return out


def check_consistency(s: VerifySession) -> list[CheckResult]:
    """Trace and gradient consistency for interpolated monomials of degree
    <= k+1 (:func:`_consistency_table`).  The interpolates are built inside
    the first row, so each row's seconds, or the error it reports, are its
    own."""
    return _family_rows(s, "consistency")


def check_generators(s: VerifySession) -> list[CheckResult]:
    """Lift the CW generators of H^1 and H^2 to degree k; the lifts that
    pass their own certificate replace :attr:`VerifySession.lifted`."""
    tol = TOLERANCES["generator_kernel"]
    out: list[CheckResult] = []
    s.lifted = []

    def lift(index: int) -> CheckResult:
        lg = lift_generators(s.high, s.low, index, kernel_tol=tol,
                             cochain=s.cochain, ext=s.ext)
        s.lifted.append(lg)
        want = s.betti[index]
        res = max((c["kernel_residual"] for c in lg.certificates), default=0.0)
        premises = _GENERATOR_PREMISES[index][0 if s.k else -1:]
        problems = s.premise_failures(premises) if lg.vectors else []
        return CheckResult("", passed=len(lg.vectors) == want and not problems,
                           residual=float(res), tolerance=tol, detail="; ".join(
                               [f"{len(lg.vectors)} generator(s), expected {want}", *problems]))

    for index in (1, 2):
        _timed(out, f"generators.h{index}", lambda index=index: lift(index))
    return out


# ---------------------------------------------------------------------------
# driver

def run_all(mesh: Mesh, orientation: OrientationTable, degree: int,
            selection: list[str] | None = None,
            opts: RankOptions | None = None,
            timestamp: str | None = None) -> VerificationReport:
    """Execute the selected check families (``None``: all) in the order of
    :data:`FAMILIES`; a family's error outside its rows becomes its
    ``<family>.error`` row."""
    if isinstance(selection, str):
        raise InputError(f"check families are a list of names, not the string {selection!r}")
    selection = list(FAMILIES) if selection is None else list(selection)
    if not selection:
        raise InputError(f"no check families selected; choose from {list(FAMILIES)}")
    unknown = sorted(set(selection) - set(FAMILIES))
    if unknown:
        raise InputError(f"unknown check families {unknown}; choose from {list(FAMILIES)}")
    s = VerifySession(mesh, orientation, degree, opts)

    checks: list[CheckResult] = []
    for family in FAMILIES:
        if family not in selection:
            continue
        # looked up on each call, so that a replaced check_<family> takes effect
        check = globals()["check_cochain_diagram" if family == "cochain" else f"check_{family}"]
        try:
            checks.extend(check(s))
        except DdrError as exc:
            checks.append(CheckResult(f"{family}.error", passed=False,
                                      error=f"{type(exc).__name__}: {exc}"))

    # the ranks and dimensions of an uncertified complex are not reported
    cohomology_ddr, ranks = None, {}
    if "cohomology" in selection:
        certified = s.certified()
        cohomology_ddr = list(s.cohomology_dims()) if certified else []
        if certified:
            ranks = {op.name: s.operator_rank(op.name).as_dict() for op in OPERATORS}

    try:
        betti_cw = list(s.betti)
    except DdrError:
        betti_cw = []

    return VerificationReport(
        mesh_counts=mesh.counts,
        degree=s.k,
        dims=s.dims,
        ranks=ranks,
        betti_cw=betti_cw,
        cohomology_ddr=cohomology_ddr,
        checks=checks,
        seed=(opts or RankOptions()).seed,
        timestamp=timestamp,
        generators=[{"space": lg.space, "degree": lg.degree, "cohomology_index": lg.index,
                     "vector": [float(x) for x in vec], **cert}
                    for lg in s.lifted for vec, cert in zip(lg.vectors, lg.certificates)],
        session=s,
    )


# ---------------------------------------------------------------------------
# fault injection (verification targets, not user API)

# fault kind: (orientation field, names of its indices)
_FAULTS = {"omega_tf": ("cell_face_sign", ("element", "local face")),
           "omega_fe": ("face_edge_sign", ("face", "local edge")),
           "edge_length": ("edge_length", ("edge",))}


def _fault_index(given: list[str], pos: int, count: int, what: str) -> int:
    text = given[pos] if pos < len(given) else "0"
    try:
        index = int(text)
    except ValueError:
        raise InputError(f"{what} index {text!r} is not an integer") from None
    if not 0 <= index < count:
        raise InputError(f"{what} index {index} out of range [0, {count - 1}]")
    return index


def corrupt_orientation(orientation: OrientationTable, fault: str) -> OrientationTable:
    """A copy of the table with one deliberate defect.

    ``fault`` is KIND[:i[:j]] with KIND one of omega_tf, omega_fe,
    edge_length; i selects the element/face/edge (default 0) and j the
    local face/edge position (default 0).  An index that is not an integer
    in range raises :class:`InputError`.
    """
    kind, *given = fault.split(":")
    if kind not in _FAULTS:
        raise InputError(f"unknown fault kind {kind!r} "
                         "(choose omega_tf, omega_fe, or edge_length)")
    field_name, names = _FAULTS[kind]
    if len(given) > len(names):
        raise InputError(f"fault {fault!r}: too many indices; {kind} takes "
                         f"{' and '.join(names)}")
    table = getattr(orientation, field_name).copy()
    i = _fault_index(given, 0, len(table), f"{kind}: {names[0]}")
    if kind == "edge_length":
        table[i] *= 1.0 + 1e-3
    else:       # a row of signs ends in zeros past the entity's own
        j = _fault_index(given, 1, np.count_nonzero(table[i]), f"{kind}: {names[1]}")
        table[i, j] = -table[i, j]
    return orientation._replace(**{field_name: table})
