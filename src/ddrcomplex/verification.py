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

import numpy as np

from .errors import DdrError, DomainError, InputError
from .homology import (
    betti_numbers,
    build_cochain_complex,
    de_rham_scaling,
)
from .lifting import (
    ExtensionMaps,
    LiftedGenerators,
    lift_generators,
    reduction_matrix,
    zero_reduction_basis,
)
from .mesh import Mesh, OrientationTable
from .operators import DdrComplex, ddr0_closed_forms

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
    rel_tol defaulting to max(m, n) * machine epsilon; optional absolute
    floor; the seed is recorded for report reproducibility."""

    rel_tol: float | None = None
    abs_floor: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class RankResult:
    rank: int
    sigma_max: float
    sigma_rank: float      # smallest kept singular value
    sigma_next: float      # largest discarded singular value
    tau: float
    gap: float             # sigma_rank / sigma_next (inf when clean)

    @property
    def ambiguous(self) -> bool:
        return np.isfinite(self.gap) and self.gap < MIN_SPECTRAL_GAP

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
    tau = max(rel * smax, opts.abs_floor)
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
    if hasattr(mat, "toarray"):
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
        self._high: DdrComplex | None = None
        self._low: DdrComplex | None = None
        self._ext: ExtensionMaps | None = None
        self._ranks: dict[str, RankResult] = {}
        self._betti = None
        self._cochain = None

    @property
    def high(self) -> DdrComplex:
        if self._high is None:
            self._high = DdrComplex(self.mesh, self.orient, self.k)
        return self._high

    @property
    def low(self) -> DdrComplex:
        if self._low is None:
            self._low = self.high if self.k == 0 else DdrComplex(self.mesh, self.orient, 0)
        return self._low

    @property
    def ext(self) -> ExtensionMaps:
        if self._ext is None:
            self._ext = ExtensionMaps(self.high, self.low)
        return self._ext

    @property
    def cochain(self):
        if self._cochain is None:
            self._cochain = build_cochain_complex(self.mesh, self.orient)
        return self._cochain

    @property
    def betti(self):
        if self._betti is None:
            self._betti = betti_numbers(self.cochain)
        return self._betti

    def operator_rank(self, which: str) -> RankResult:
        if which not in self._ranks:
            mat = self.high.operator(which).toarray()
            self._ranks[which] = numeric_rank(mat, self.opts)
        return self._ranks[which]

    @property
    def dims(self) -> dict[str, int]:
        return {s: self.high.layout(s).total for s in ("Xgrad", "Xcurl", "Xdiv", "Pk")}

    def cohomology_dims(self) -> tuple[int, int, int, int]:
        d = self.dims
        rg = self.operator_rank("gradient").rank
        rc = self.operator_rank("curl").rank
        rd = self.operator_rank("divergence").rank
        return (d["Xgrad"] - rg - 1, (d["Xcurl"] - rc) - rg,
                (d["Xdiv"] - rd) - rc, d["Pk"] - rd)


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
    _timed(out, "complex.curl_grad", lambda: _residual_check(
        residual_between([s.high.curl, s.high.gradient]), tol))
    _timed(out, "complex.div_curl", lambda: _residual_check(
        residual_between([s.high.divergence, s.high.curl]), tol))
    return out


def check_cohomology(s: VerifySession) -> list[CheckResult]:
    out: list[CheckResult] = []

    def betti_match():
        h = s.cohomology_dims()
        want = (0, s.betti.b1, s.betti.b2, 0)
        return _flag_check(h == want, f"H={list(h)} betti={list(s.betti.as_tuple())}")

    def euler_dofs():
        d = s.dims
        alt = d["Xgrad"] - d["Xcurl"] + d["Xdiv"] - d["Pk"]
        chi = s.mesh.euler_characteristic
        return _flag_check(alt == chi, f"dim alternating sum {alt} vs chi {chi}")

    def euler_betti():
        b = s.betti
        chi = s.mesh.euler_characteristic
        alt = b.b0 - b.b1 + b.b2 - b.b3
        return _flag_check(alt == chi and b.b0 == 1 and b.b3 == 0,
                           f"betti {list(b.as_tuple())} alternating sum {alt} vs chi {chi}")

    def spectral_gaps():
        gaps = {w: s.operator_rank(w).gap for w in ("gradient", "curl", "divergence")}
        ok = all(not np.isfinite(g) or g >= MIN_SPECTRAL_GAP for g in gaps.values())
        txt = ", ".join(f"{w}: {'inf' if np.isinf(g) else f'{g:.1e}'}" for w, g in gaps.items())
        return _flag_check(ok, f"rank gaps {txt}")

    _timed(out, "cohomology.betti_match", betti_match)
    _timed(out, "cohomology.euler_dofs", euler_dofs)
    _timed(out, "cohomology.euler_betti", euler_betti)
    _timed(out, "cohomology.spectral_gaps", spectral_gaps)
    return out


def check_cochain_diagram(s: VerifySession) -> list[CheckResult]:
    out: list[CheckResult] = []
    spaces = ("Xgrad", "Xcurl", "Xdiv", "Pk")
    red = {sp: reduction_matrix(s.high, sp) for sp in spaces}
    ext = {sp: s.ext.matrix(sp) for sp in spaces}
    eye = {sp: np.eye(ext[sp].shape[1]) for sp in spaces}

    tol = TOLERANCES["re_identity"]
    for sp, tag in zip(spaces, ("grad", "curl", "div", "tail")):
        _timed(out, f"cochain.RE_{tag}", lambda sp=sp: _residual_check(
            residual_between([red[sp], ext[sp]], [eye[sp]]), tol))

    gk, ck, dk = s.high.gradient, s.high.curl, s.high.divergence
    g0, c0, d0 = s.low.gradient, s.low.curl, s.low.divergence
    tol = TOLERANCES["reduction_commute"]
    _timed(out, "cochain.red_interp", lambda: _residual_check(
        residual_between([red["Xgrad"], s.high.head_column[:, None]],
                         [s.low.head_column[:, None]]), tol))
    _timed(out, "cochain.red_grad", lambda: _residual_check(
        residual_between([red["Xcurl"], gk], [g0, red["Xgrad"]]), tol))
    _timed(out, "cochain.red_curl", lambda: _residual_check(
        residual_between([red["Xdiv"], ck], [c0, red["Xcurl"]]), tol))
    _timed(out, "cochain.red_div", lambda: _residual_check(
        residual_between([red["Pk"], dk], [d0, red["Xdiv"]]), tol))

    tol = TOLERANCES["extension_commute"]
    _timed(out, "cochain.ext_interp", lambda: _residual_check(
        residual_between([s.high.head_column[:, None]],
                         [ext["Xgrad"], s.low.head_column[:, None]]), tol))
    _timed(out, "cochain.ext_grad", lambda: _residual_check(
        residual_between([gk, ext["Xgrad"]], [ext["Xcurl"], g0]), tol))
    _timed(out, "cochain.ext_curl", lambda: _residual_check(
        residual_between([ck, ext["Xcurl"]], [ext["Xdiv"], c0]), tol))
    _timed(out, "cochain.ext_div", lambda: _residual_check(
        residual_between([dk, ext["Xdiv"]], [ext["Pk"], d0]), tol))

    tol = TOLERANCES["cw_diagram"]
    cc = s.cochain
    sc = de_rham_scaling(s.orient)
    kappa_c = np.diag(sc.edge)
    kappa_d = np.diag(sc.face)
    kappa_p = np.diag(sc.cell)
    ones = np.ones((s.mesh.n_vertices, 1))
    _timed(out, "cochain.cw_interp", lambda: _residual_check(
        residual_between([s.low.head_column[:, None]], [ones]), tol))
    _timed(out, "cochain.cw_grad", lambda: _residual_check(
        residual_between([kappa_c, g0.toarray()], [cc.d0.astype(float)]), tol))
    _timed(out, "cochain.cw_curl", lambda: _residual_check(
        residual_between([kappa_d, c0.toarray()], [cc.d1.astype(float), kappa_c]), tol))
    _timed(out, "cochain.cw_div", lambda: _residual_check(
        residual_between([kappa_p, d0.toarray()], [cc.d2.astype(float), kappa_d]), tol))
    return out


def check_zero_reduction(s: VerifySession) -> list[CheckResult]:
    out: list[CheckResult] = []

    def exactness():
        if s.k == 0:
            return _flag_check(True, "trivial at degree 0 (all subspaces are zero)")
        bases = {sp: zero_reduction_basis(s.high, sp).toarray()
                 for sp in ("Xgrad", "Xcurl", "Xdiv", "Pk")}
        rg = numeric_rank(s.high.gradient @ bases["Xgrad"], s.opts).rank
        rc = numeric_rank(s.high.curl @ bases["Xcurl"], s.opts).rank
        rd = numeric_rank(s.high.divergence @ bases["Xdiv"], s.opts).rank
        dims = {sp: b.shape[1] for sp, b in bases.items()}
        deficits = (dims["Xgrad"] - rg,
                    (dims["Xcurl"] - rc) - rg,
                    (dims["Xdiv"] - rd) - rc,
                    dims["Pk"] - rd)
        ok = deficits == (0, 0, 0, 0)
        return _flag_check(ok, f"stage deficits {list(deficits)} "
                               f"(dims {list(dims.values())}, ranks {[rg, rc, rd]})")

    _timed(out, "zero_reduction.exact", exactness)
    return out


def check_closed_forms(s: VerifySession) -> list[CheckResult]:
    tol = TOLERANCES["closed_forms"]
    out: list[CheckResult] = []

    def run():
        g, c, d = ddr0_closed_forms(s.mesh, s.orient)
        return {"gradient": residual_between([s.low.gradient], [g]),
                "curl": residual_between([s.low.curl], [c]),
                "divergence": residual_between([s.low.divergence], [d])}

    try:
        res = run()
    except DdrError as exc:
        return [CheckResult("closed_forms.gradient", passed=False,
                            error=f"{type(exc).__name__}: {exc}")]
    for name, value in res.items():
        out.append(CheckResult(f"closed_forms.{name}", passed=value <= tol,
                               residual=float(value), tolerance=tol))
    return out


def _monomial_sweep(degree: int):
    for total in range(degree + 1):
        for ax in itertools.combinations_with_replacement(range(3), total):
            alpha = [0, 0, 0]
            for a in ax:
                alpha[a] += 1
            yield tuple(alpha)


def check_consistency(s: VerifySession) -> list[CheckResult]:
    """Trace and gradient consistency for interpolated monomials of degree <= k+1."""
    tol = TOLERANCES["consistency"]
    high = s.high
    k = s.k
    worst = {name: (0.0, "") for name in
             ("edge_trace", "edge_gradient", "face_trace", "face_gradient",
              "element_gradient")}

    def update(name, val, where):
        if val > worst[name][0]:
            worst[name] = (val, where)

    out: list[CheckResult] = []
    start = time.perf_counter()
    try:
        for alpha in _monomial_sweep(k + 1):
            def q(p, alpha=alpha):
                return p[0] ** alpha[0] * p[1] ** alpha[1] * p[2] ** alpha[2]

            def grad_q(p, alpha=alpha):
                g = np.zeros(3)
                for ax in range(3):
                    if alpha[ax]:
                        b = list(alpha)
                        b[ax] -= 1
                        g[ax] = alpha[ax] * p[0] ** b[0] * p[1] ** b[1] * p[2] ** b[2]
                return g

            vec = high.interpolate_grad(q)
            tagged = f"monomial x^{alpha[0]} y^{alpha[1]} z^{alpha[2]}"
            for e in range(s.mesh.n_edges):
                ops = high.edge_ops(e)
                rule = high.rule("edge", e)
                loc = ops.lmap.gather(vec)
                qv = np.asarray([q(p) for p in rule.points])
                scale = max(1.0, np.abs(qv).max())
                tv = high.basis("edge", e, k + 1).eval(rule.points) @ (ops.trace @ loc)
                update("edge_trace", np.abs(tv - qv).max() / scale, f"{tagged}, edge {e}")
                dq = np.asarray([grad_q(p) @ s.orient.edge_tangent[e] for p in rule.points])
                gv = high.basis("edge", e, k).eval(rule.points) @ (ops.grad @ loc)
                update("edge_gradient", np.abs(gv - dq).max() / max(1.0, np.abs(dq).max()),
                       f"{tagged}, edge {e}")
            for f in range(s.mesh.n_faces):
                ops = high.face_grad_ops(f)
                rule = high.rule("face", f)
                loc = ops.lmap.gather(vec)
                qv = np.asarray([q(p) for p in rule.points])
                scale = max(1.0, np.abs(qv).max())
                tv = high.basis("face", f, k + 1).eval(rule.points) @ (ops.trace @ loc)
                update("face_trace", np.abs(tv - qv).max() / scale, f"{tagged}, face {f}")
                n = s.orient.face_normal[f]
                gq = np.asarray([grad_q(p) - (grad_q(p) @ n) * n for p in rule.points])
                gv = np.einsum("pax,a->px",
                               high.basis("face", f, k, vector=True).eval_vector(rule.points),
                               ops.grad @ loc)
                update("face_gradient", np.abs(gv - gq).max() / max(1.0, np.abs(gq).max()),
                       f"{tagged}, face {f}")
            for t in range(s.mesh.n_elements):
                ops = high.cell_grad_ops(t)
                rule = high.rule("cell", t)
                loc = ops.lmap.gather(vec)
                gq = np.asarray([grad_q(p) for p in rule.points])
                gv = np.einsum("pax,a->px",
                               high.basis("cell", t, k, vector=True).eval_vector(rule.points),
                               ops.grad @ loc)
                update("element_gradient", np.abs(gv - gq).max() / max(1.0, np.abs(gq).max()),
                       f"{tagged}, element {t}")
    except DdrError as exc:
        return [CheckResult("consistency.sweep", passed=False,
                            seconds=time.perf_counter() - start,
                            error=f"{type(exc).__name__}: {exc}")]
    elapsed = time.perf_counter() - start
    for name, (val, where) in worst.items():
        out.append(CheckResult(f"consistency.{name}", passed=val <= tol,
                               residual=float(val), tolerance=tol,
                               detail=f"worst: {where}" if where else "",
                               seconds=elapsed / len(worst)))
    return out


def check_generators(s: VerifySession) -> tuple[list[CheckResult], list[LiftedGenerators]]:
    tol = TOLERANCES["generator_kernel"]
    out: list[CheckResult] = []
    lifted: list[LiftedGenerators] = []
    for index, tag in ((1, "h1"), (2, "h2")):
        start = time.perf_counter()
        try:
            lg = lift_generators(s.high, s.low, index, kernel_tol=tol)
            lifted.append(lg)
            want = s.betti.as_tuple()[index]
            res = max((c["kernel_residual"] for c in lg.certificates), default=0.0)
            out.append(CheckResult(
                f"generators.{tag}", passed=len(lg.vectors) == want,
                residual=float(res), tolerance=tol,
                detail=f"{len(lg.vectors)} generator(s), expected {want}",
                seconds=time.perf_counter() - start))
        except DdrError as exc:
            out.append(CheckResult(f"generators.{tag}", passed=False,
                                   seconds=time.perf_counter() - start,
                                   error=f"{type(exc).__name__}: {exc}"))
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
    for which in ("gradient", "curl", "divergence"):
        if which in s._ranks:
            ranks[which] = s._ranks[which].as_dict()

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

def corrupt_orientation(orientation: OrientationTable, fault: str) -> OrientationTable:
    """A copy of the table with one deliberate defect.

    ``fault`` is KIND[:i[:j]] with KIND one of omega_tf, omega_fe,
    edge_length; i selects the element/face/edge (default 0) and j the
    local face/edge position (default 0).
    """
    parts = fault.split(":")
    kind = parts[0]
    i = int(parts[1]) if len(parts) > 1 else 0
    j = int(parts[2]) if len(parts) > 2 else 0
    if kind == "omega_tf":
        signs = [list(sg) for sg in orientation.cell_face_sign]
        signs[i][j] = -signs[i][j]
        return replace(orientation, cell_face_sign=tuple(tuple(sg) for sg in signs))
    if kind == "omega_fe":
        signs = [list(sg) for sg in orientation.face_edge_sign]
        signs[i][j] = -signs[i][j]
        return replace(orientation, face_edge_sign=tuple(tuple(sg) for sg in signs))
    if kind == "edge_length":
        lengths = orientation.edge_length.copy()
        lengths[i] *= 1.0 + 1e-3
        return replace(orientation, edge_length=lengths)
    raise InputError(f"unknown fault kind {kind!r} "
                     "(choose omega_tf, omega_fe, or edge_length)")
