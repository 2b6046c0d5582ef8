"""Named numerical certificates for the discrete complex, with a JSON report.

Check families (selectable by name):

* ``complex``        -- the two operator products vanish, and so does the
                        gradient of the interpolated constant;
* ``cohomology``     -- cohomology dimensions from numeric ranks equal the
                        CW Betti numbers; Euler identities; spectral gaps;
* ``cochain``        -- the 16 diagram identities: reduction-after-extension,
                        reduction/extension commutation, and the degree-0 /
                        CW-cochain identification;
* ``zero_reduction`` -- exactness of the subcomplex annihilated by the
                        reductions (rank chain, any topology);
* ``closed_forms``   -- degree-0 boundary-value formulas equal the generic
                        assembly entrywise;
* ``consistency``    -- trace/gradient polynomial consistency sweep over all
                        monomials of degree <= k+1;
* ``generators``     -- lifted cohomology generators with kernel-residual and
                        independence certificates.

Tolerances are pinned here: 1e-12 for bookkeeping identities, 1e-10 for
assembled operator identities, 1e-9 for identities through solved local
systems, 1e-13 for the degree-0/CW diagram.  Relative residuals scale by
the max absolute entries of the product factors.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .errors import DdrError, DomainError, InputError
from .homology import betti_numbers, build_cochain_complex, cohomology_dims
from .layouts import CARRIERS, SPACES, entity_count
from .lifting import (
    ExtensionMaps,
    LiftedGenerators,
    de_rham_scaling,
    lift_generators,
    reduction_matrix,
    zero_reduction_basis,
)
from .mesh import Mesh, OrientationTable
from .operators import OPERATORS, DdrComplex, _point_stacks, ddr0_closed_forms
from .spaces import frame_values
from .sparse import CsrMatrix

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

@dataclass(frozen=True)
class RankOptions:
    """Singular-value thresholding rule: tau = rel_tol * sigma_max, with
    rel_tol strictly between 0 and 1, defaulting to max(m, n) * machine
    epsilon; the seed is recorded for report reproducibility."""

    rel_tol: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.rel_tol is not None and not 0.0 < self.rel_tol < 1.0:
            raise InputError(f"rank tolerance must lie strictly between 0 and 1, "
                             f"got {self.rel_tol}")


@dataclass(frozen=True)
class RankResult:
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
    rel = opts.rel_tol if opts.rel_tol is not None else max(mat.shape) * np.finfo(float).eps
    tau = rel * smax
    rank = int((sigma > tau).sum())
    s_rank = float(sigma[rank - 1]) if rank else float("inf")
    s_next = float(sigma[rank]) if rank < sigma.size else 0.0
    gap = np.inf if s_next == 0.0 else s_rank / s_next
    return RankResult(rank, smax, s_rank if rank else 0.0, s_next, tau, float(gap))


# ---------------------------------------------------------------------------
# results and report

@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None
    detail: str = ""
    seconds: float = 0.0
    error: str | None = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "passed": bool(self.passed),
               "residual": self.residual, "tolerance": self.tolerance,
               "seconds": round(self.seconds, 6)}
        if self.detail:
            out["detail"] = self.detail
        if self.error:
            out["error"] = self.error
        return out


@dataclass
class VerificationReport:
    mesh_counts: tuple[int, int, int, int]
    degree: int
    dims: dict[str, int]
    ranks: dict[str, dict]
    betti_cw: list[int]
    cohomology_ddr: list[int] | None
    checks: list[CheckResult]
    seed: int
    timestamp: str | None = None
    generators: list[dict] = field(default_factory=list)
    # the session that produced the report, for callers that reuse its
    # operators; never serialized
    session: VerifySession | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def strip_timing(self) -> None:
        """Zero wall times (used with --no-timestamp for byte-identical output)."""
        for c in self.checks:
            c.seconds = 0.0

    def families(self) -> list[str]:
        seen = []
        for c in self.checks:
            fam = c.name.split(".", 1)[0]
            if fam not in seen:
                seen.append(fam)
        return seen

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
    if isinstance(mat, CsrMatrix):
        data = mat.data
        return float(np.abs(data).max()) if data.size else 0.0
    mat = np.asarray(mat)
    return float(np.abs(mat).max()) if mat.size else 0.0


def residual_between(left_factors: list, right_factors: list | None = None) -> float:
    """Relative max-norm residual of prod(left) - prod(right).

    The scale is the larger of 1 and the products of the factors' max
    absolute entries, so pure bookkeeping identities stay near 1e-16.
    """
    def prod(factors):
        out = factors[0]
        for f in factors[1:]:
            out = out @ f
        return out

    left = prod(left_factors)
    diff = left - prod(right_factors) if right_factors else left
    scale = max(1.0, float(np.prod([_maxabs(f) for f in left_factors])))
    if right_factors:
        scale = max(scale, float(np.prod([_maxabs(f) for f in right_factors])))
    return _maxabs(diff) / scale


# ---------------------------------------------------------------------------
# verification session

class VerifySession:
    """Lazily builds and shares the operators a battery of checks needs."""

    def __init__(self, mesh: Mesh, orientation: OrientationTable, degree: int,
                 opts: RankOptions | None = None):
        self.mesh = mesh
        self.orient = orientation
        self.k = degree
        self.opts = opts or RankOptions()
        self._ranks: dict[str, RankResult] = {}

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

    def operator_rank(self, which: str) -> RankResult:
        if which not in self._ranks:
            mat = self.high.operator(which).toarray()
            self._ranks[which] = numeric_rank(mat, self.opts)
        return self._ranks[which]

    @property
    def dims(self) -> dict[str, int]:
        return {sp: self.high.layout(sp).total for sp in SPACES}

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


def _residual_check(value: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult("", passed=value <= tol, residual=float(value), tolerance=tol,
                       detail=detail)


def _flag_check(ok: bool, detail: str) -> CheckResult:
    return CheckResult("", passed=bool(ok), detail=detail)


# -- families ----------------------------------------------------------------

def check_complex(s: VerifySession) -> list[CheckResult]:
    tol = TOLERANCES["complex"]
    out: list[CheckResult] = []
    _timed(out, "complex.grad_of_constant", lambda: _residual_check(
        residual_between([s.high.gradient, s.high.head_column[:, None]]), tol))
    for first, then in zip(OPERATORS, OPERATORS[1:]):
        _timed(out, f"complex.{then.local}_{first.local}", lambda first=first, then=then:
               _residual_check(residual_between([s.high.operator(then.name),
                                                 s.high.operator(first.name)]), tol))
    return out


def check_cohomology(s: VerifySession) -> list[CheckResult]:
    out: list[CheckResult] = []

    def betti_match():
        h = s.cohomology_dims()
        want = (0, s.betti.b1, s.betti.b2, 0)
        return _flag_check(h == want, f"H={list(h)} betti={list(s.betti.as_tuple())}")

    def euler_dofs():
        alt = sum((-1) ** i * d for i, d in enumerate(s.dims.values()))
        chi = s.mesh.euler_characteristic
        return _flag_check(alt == chi, f"dim alternating sum {alt} vs chi {chi}")

    def euler_betti():
        b = s.betti
        chi = s.mesh.euler_characteristic
        alt = b.b0 - b.b1 + b.b2 - b.b3
        return _flag_check(alt == chi and b.b0 == 1 and b.b3 == 0,
                           f"betti {list(b.as_tuple())} alternating sum {alt} vs chi {chi}")

    def spectral_gaps():
        gaps = {op.name: s.operator_rank(op.name).gap for op in OPERATORS}
        ok = all(not np.isfinite(g) or g >= MIN_SPECTRAL_GAP for g in gaps.values())
        txt = ", ".join(f"{w}: {'inf' if np.isinf(g) else f'{g:.1e}'}" for w, g in gaps.items())
        return _flag_check(ok, f"rank gaps {txt}")

    _timed(out, "cohomology.betti_match", betti_match)
    _timed(out, "cohomology.euler_dofs", euler_dofs)
    _timed(out, "cohomology.euler_betti", euler_betti)
    _timed(out, "cohomology.spectral_gaps", spectral_gaps)
    return out


def check_cochain_diagram(s: VerifySession) -> list[CheckResult]:
    """Reduction and extension diagrams, and the CW identification.

    Each reduction, extension and operator is built inside the first check
    that uses it, so its cost, or the error it raises, belongs to that check.
    """
    out: list[CheckResult] = []
    reds: dict[str, CsrMatrix] = {}

    def red(sp: str) -> CsrMatrix:
        if sp not in reds:
            reds[sp] = reduction_matrix(s.high, sp)
        return reds[sp]

    ext = s.ext.matrix   # cached by the session's extension maps
    high, low = s.high, s.low

    tol = TOLERANCES["re_identity"]
    tags = {op.source: op.local for op in OPERATORS}
    for sp in SPACES:
        _timed(out, f"cochain.RE_{tags.get(sp, 'tail')}", lambda sp=sp: _residual_check(
            residual_between([red(sp), ext(sp)], [np.eye(ext(sp).shape[1])]), tol))

    tol = TOLERANCES["reduction_commute"]
    _timed(out, "cochain.red_interp", lambda: _residual_check(
        residual_between([red(SPACES[0]), high.head_column[:, None]],
                         [low.head_column[:, None]]), tol))
    for op in OPERATORS:
        _timed(out, f"cochain.red_{op.local}", lambda op=op: _residual_check(residual_between(
            [red(op.target), high.operator(op.name)], [low.operator(op.name), red(op.source)]),
            tol))

    tol = TOLERANCES["extension_commute"]
    _timed(out, "cochain.ext_interp", lambda: _residual_check(
        residual_between([high.head_column[:, None]],
                         [ext(SPACES[0]), low.head_column[:, None]]), tol))
    for op in OPERATORS:
        _timed(out, f"cochain.ext_{op.local}", lambda op=op: _residual_check(residual_between(
            [high.operator(op.name), ext(op.source)], [ext(op.target), low.operator(op.name)]),
            tol))

    tol = TOLERANCES["cw_diagram"]
    sc = de_rham_scaling(s.mesh, s.orient)
    kappa = {sp: [] if CARRIERS[sp] == "vertex" else [np.diag(sc.measure(sp))] for sp in SPACES}
    ones = np.ones((s.mesh.n_vertices, 1))
    _timed(out, "cochain.cw_interp", lambda: _residual_check(
        residual_between([low.head_column[:, None]], [ones]), tol))
    for i, op in enumerate(OPERATORS):
        _timed(out, f"cochain.cw_{op.local}", lambda i=i, op=op: _residual_check(
            residual_between(kappa[op.target] + [low.operator(op.name).toarray()],
                             [s.cochain.boundary(i).astype(float)] + kappa[op.source]), tol))
    return out


def check_zero_reduction(s: VerifySession) -> list[CheckResult]:
    out: list[CheckResult] = []

    def exactness():
        if s.k == 0:
            return _flag_check(True, "trivial at degree 0 (all subspaces are zero)")
        bases = {sp: zero_reduction_basis(s.high, sp) for sp in SPACES}
        ranks = [numeric_rank((s.high.operator(op.name) @ bases[op.source]).toarray(),
                              s.opts).rank for op in OPERATORS]
        dims = [b.shape[1] for b in bases.values()]
        deficits = cohomology_dims(dims, ranks)
        return _flag_check(not any(deficits), f"stage deficits {list(deficits)} "
                                              f"(dims {dims}, ranks {ranks})")

    _timed(out, "zero_reduction.exact", exactness)
    return out


def check_closed_forms(s: VerifySession) -> list[CheckResult]:
    """Each degree-0 operator against its boundary-value formula; the
    formulas are built inside the first check."""
    tol = TOLERANCES["closed_forms"]
    out: list[CheckResult] = []
    closed: list[CsrMatrix] = []

    def formula(i: int) -> CsrMatrix:
        if not closed:
            closed.extend(ddr0_closed_forms(s.mesh, s.orient))
        return closed[i]

    for i, op in enumerate(OPERATORS):
        _timed(out, f"closed_forms.{op.name}", lambda i=i, op=op: _residual_check(
            residual_between([s.low.operator(op.name)], [formula(i)]), tol))
    return out


def _monomial_sweep(degree: int):
    for total in range(degree + 1):
        for ax in itertools.combinations_with_replacement(range(3), total):
            alpha = [0, 0, 0]
            for a in ax:
                alpha[a] += 1
            yield tuple(alpha)


def _monomial(alpha):
    """The monomial x^alpha as a field on an ``(n, 3)`` array of points."""
    def q(p):
        return p[:, 0] ** alpha[0] * p[:, 1] ** alpha[1] * p[:, 2] ** alpha[2]
    return q


def _monomial_gradient(p: np.ndarray, alpha) -> np.ndarray:
    """Gradient ``(n, 3)`` of x^alpha at an ``(n, 3)`` array of points."""
    g = np.zeros(p.shape)
    for ax in range(3):
        if alpha[ax]:
            b = list(alpha)
            b[ax] -= 1
            g[:, ax] = alpha[ax] * p[:, 0] ** b[0] * p[:, 1] ** b[1] * p[:, 2] ** b[2]
    return g


def _relative_error(approx: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Max-norm error of each stack member (G, ...) over max(1, its |exact|)."""
    axes = tuple(range(1, exact.ndim))
    return np.abs(approx - exact).max(axis=axes) / np.maximum(1.0, np.abs(exact).max(axis=axes))


def _worst(residuals: np.ndarray) -> tuple[float, tuple[int, int] | None]:
    """Largest entry of a (monomial, entity) residual table and its position.

    ``argmax`` scans monomial-major and keeps the first maximum; a table of
    zeros has no worst position.
    """
    if residuals.size == 0:
        return 0.0, None
    j = int(np.argmax(residuals))
    val = float(residuals.flat[j])
    return val, (divmod(j, residuals.shape[1]) if val != 0.0 else None)


# The rows of the consistency sweep: (name, entity kind, builder, trace); a
# trace row checks the builder's potential, a gradient row its operator.
_CONSISTENCY_ROWS = (("edge_trace", "edge", "edge_ops", True),
                     ("edge_gradient", "edge", "edge_ops", False),
                     ("face_trace", "face", "face_grad_ops", True),
                     ("face_gradient", "face", "face_grad_ops", False),
                     ("element_gradient", "cell", "cell_grad_ops", False))


def check_consistency(s: VerifySession) -> list[CheckResult]:
    """Trace and gradient consistency for interpolated monomials of degree <= k+1.

    Each row compares, on the entities' quadrature points, the trace
    (P^(k+1)) or the gradient (P^k, tangential on edges and faces) that one
    builder reconstructs from the interpolate with the monomial's own.  It
    reads the builder's stacks a size group at a time, on the group's point
    stacks (elements one at a time), and evaluates each monomial and the
    bases once per point stack.  The operators act on one monomial's local
    dofs at a time: a product with all monomials as columns rounds
    differently and moves the residuals and their worst places.  The
    interpolates are built inside the first row, so each row's seconds, or
    the error it reports, are its own.
    """
    tol = TOLERANCES["consistency"]
    high, k = s.high, s.k
    alphas = list(_monomial_sweep(k + 1))
    fields = [_monomial(alpha) for alpha in alphas]
    interpolates: list[np.ndarray] = []

    def vecs() -> np.ndarray:
        """One interpolate per monomial, as rows, built once."""
        if not interpolates:
            interpolates.append(high.interpolate_grad(fields))
        return interpolates[0]

    def table(kind: str, builder: str, trace: bool) -> np.ndarray:
        """The (monomial, entity) residual table of one row."""
        out = np.empty((len(alphas), entity_count(s.mesh, kind)))
        frames = s.orient.geometry(kind).frame
        for ids, _, dofs, op, potential, *_ in high.stacks(builder):
            for part in _point_stacks(kind, ids):
                sub = ids[part]
                pts = high._points(kind, sub)[0]
                flat = pts.reshape(-1, 3)
                phi = high._eval(kind, sub, pts, k + 1 if trace else k)
                for a, (vec, alpha) in enumerate(zip(vecs(), alphas)):
                    coeffs = (potential if trace else op)[part] @ vec[dofs[part]][..., None]
                    if trace:
                        approx, exact = phi @ coeffs, fields[a](flat).reshape(*pts.shape[:2], 1)
                    else:
                        exact = _monomial_gradient(flat, alpha).reshape(pts.shape)
                        if kind == "edge":     # the derivative along the tangent
                            approx = phi @ coeffs
                            exact = exact @ s.orient.edge_tangent[sub][..., None]
                        else:
                            approx = frame_values(phi, frames[sub], coeffs[..., 0])
                        if kind == "face":     # the tangential part
                            n = s.orient.face_normal[sub][..., None]
                            exact = exact - (exact @ n) * n.swapaxes(1, 2)
                    out[a, sub] = _relative_error(approx, exact)
        return out

    def row(name: str, kind: str, builder: str, trace: bool) -> CheckResult:
        """The worst of one row's residual table."""
        val, at = _worst(table(kind, builder, trace))
        detail = ""
        if at is not None:
            (a0, a1, a2), i = alphas[at[0]], at[1]
            detail = f"worst: monomial x^{a0} y^{a1} z^{a2}, {name.split('_')[0]} {i}"
        return _residual_check(val, tol, detail)

    out: list[CheckResult] = []
    for name, *how in _CONSISTENCY_ROWS:
        _timed(out, f"consistency.{name}", partial(row, name, *how))
    return out


def check_generators(s: VerifySession) -> tuple[list[CheckResult], list[LiftedGenerators]]:
    tol = TOLERANCES["generator_kernel"]
    out: list[CheckResult] = []
    lifted: list[LiftedGenerators] = []

    def lift(index: int) -> CheckResult:
        lg = lift_generators(s.high, s.low, index, kernel_tol=tol,
                             cochain=s.cochain, ext=s.ext)
        lifted.append(lg)
        want = s.betti.as_tuple()[index]
        res = max((c["kernel_residual"] for c in lg.certificates), default=0.0)
        return CheckResult("", passed=len(lg.vectors) == want, residual=float(res),
                           tolerance=tol,
                           detail=f"{len(lg.vectors)} generator(s), expected {want}")

    for index in (1, 2):
        _timed(out, f"generators.h{index}", lambda index=index: lift(index))
    return out, lifted


# ---------------------------------------------------------------------------
# driver

def run_all(mesh: Mesh, orientation: OrientationTable, degree: int,
            selection: list[str] | None = None,
            opts: RankOptions | None = None,
            timestamp: str | None = None) -> VerificationReport:
    """Execute the selected check families in dependency order."""
    selection = list(selection) if selection else list(FAMILIES)
    unknown = sorted(set(selection) - set(FAMILIES))
    if unknown:
        raise InputError(f"unknown check families {unknown}; choose from {list(FAMILIES)}")
    s = VerifySession(mesh, orientation, degree, opts)

    checks: list[CheckResult] = []
    generator_payload: list[dict] = []
    cohomology_ddr = None

    for family in FAMILIES:
        if family not in selection:
            continue
        try:
            if family == "complex":
                checks.extend(check_complex(s))
            elif family == "cohomology":
                checks.extend(check_cohomology(s))
                cohomology_ddr = list(s.cohomology_dims())
            elif family == "cochain":
                checks.extend(check_cochain_diagram(s))
            elif family == "zero_reduction":
                checks.extend(check_zero_reduction(s))
            elif family == "closed_forms":
                checks.extend(check_closed_forms(s))
            elif family == "consistency":
                checks.extend(check_consistency(s))
            elif family == "generators":
                gen_checks, lifted = check_generators(s)
                checks.extend(gen_checks)
                for lg in lifted:
                    for vec, cert in zip(lg.vectors, lg.certificates):
                        generator_payload.append({
                            "space": lg.space, "degree": lg.degree,
                            "cohomology_index": lg.index,
                            "vector": [float(x) for x in vec], **cert})
        except DdrError as exc:
            checks.append(CheckResult(f"{family}.error", passed=False,
                                      error=f"{type(exc).__name__}: {exc}"))

    ranks = {}
    for op in OPERATORS:
        if op.name in s._ranks:
            ranks[op.name] = s._ranks[op.name].as_dict()

    try:
        betti_cw = list(s.betti.as_tuple())
    except DdrError:
        betti_cw = []

    return VerificationReport(
        mesh_counts=mesh.counts,
        degree=degree,
        dims=s.dims,
        ranks=ranks,
        betti_cw=betti_cw,
        cohomology_ddr=cohomology_ddr,
        checks=checks,
        seed=(opts or RankOptions()).seed,
        timestamp=timestamp,
        generators=generator_payload,
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
    table = getattr(orientation, field_name)
    i = _fault_index(given, 0, len(table), f"{kind}: {names[0]}")
    if kind == "edge_length":
        lengths = table.copy()
        lengths[i] *= 1.0 + 1e-3
        return replace(orientation, edge_length=lengths)
    j = _fault_index(given, 1, len(table[i]), f"{kind}: {names[1]}")
    signs = [list(sg) for sg in table]
    signs[i][j] = -signs[i][j]
    return replace(orientation, **{field_name: tuple(tuple(sg) for sg in signs)})
