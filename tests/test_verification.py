"""Rank diagnostics, check families, report schema, determinism, fault injection."""

import gc
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given

from ddrcomplex import (
    DomainError,
    RankOptions,
    compute_orientation,
    corrupt_orientation,
    numeric_rank,
    run_all,
    InputError,
    build_voxel_mesh,
    load_mesh,
    reduction_matrix,
)
from ddrcomplex import betti_numbers, build_cochain_complex, integer_rank, lifting, verification
from ddrcomplex.homology import cohomology_dims
from ddrcomplex.layouts import CARRIERS, PARTS, SPACES, entity_count
from ddrcomplex.monomials import monomial_powers
from ddrcomplex.sparse import CsrMatrix
from ddrcomplex.errors import ConditioningError
from ddrcomplex.operators import OPERATORS, DdrComplex, ddr0_closed_forms
from ddrcomplex.verification import (
    FAMILIES,
    TOLERANCES,
    VerifySession,
    check_closed_forms,
    check_cochain_diagram,
    check_complex,
    check_cohomology,
    check_consistency,
    check_generators,
    check_zero_reduction,
)

from conftest import (complex_for, dense_rank_raise, extensions_for, mesh_and_orientation,
                      voxel_patterns)
from test_general_meshes import prism_pair
from test_spaces import entity_basis
from test_sparse import traced_peak

MESH_FILES = Path(__file__).resolve().parent.parent / "tools" / "meshes"


def test_numeric_rank_examples():
    c0 = complex_for("cube", 0)
    res = numeric_rank(c0.gradient.toarray())
    assert res.rank == 7
    assert res.gap > 10
    assert numeric_rank(np.zeros((5, 3))).rank == 0
    c1 = complex_for("ring", 1)
    res = numeric_rank(c1.curl.toarray())
    assert res.rank == 136
    assert res.gap > 10


def test_numeric_rank_threshold_override():
    mat = np.diag([1.0, 1e-3, 1e-12])
    assert numeric_rank(mat).rank == 3
    assert numeric_rank(mat, RankOptions(rel_tol=1e-6)).rank == 2
    res = numeric_rank(mat, RankOptions(rel_tol=1e-6))
    assert res.gap == pytest.approx(1e9)


def test_cochain_diagram_sixteen_identities():
    mesh, orient = mesh_and_orientation("cube")
    s = VerifySession(mesh, orient, 1)
    checks = check_cochain_diagram(s)
    assert all(c.passed for c in checks)
    assert [c.name for c in checks] == [
        "cochain.RE_grad", "cochain.RE_curl", "cochain.RE_div", "cochain.RE_tail",
        "cochain.red_interp", "cochain.red_grad", "cochain.red_curl", "cochain.red_div",
        "cochain.ext_interp", "cochain.ext_grad", "cochain.ext_curl", "cochain.ext_div",
        "cochain.cw_interp", "cochain.cw_grad", "cochain.cw_curl", "cochain.cw_div"]


def _csr(dense):
    """A dense matrix as a CsrMatrix of its nonzeros, one block per row."""
    return CsrMatrix.from_blocks(dense.shape, [([i], np.flatnonzero(row), row[None, row != 0])
                                               for i, row in enumerate(dense)])


def _dense_residuals(s):
    """The 18 matrix rows of the complex, cochain and closed_forms families
    from dense factors: products of the densified operators, reductions,
    extensions, coboundaries and closed forms, ``np.eye`` and ``np.diag``
    measure scalings, on the scale of the rows (the largest product of the
    factors' max absolute entries of a side, at least 1)."""
    def residual(left_factors, right_factors=()):
        scale = max(1.0, *(np.prod([np.abs(f).max(initial=0.0) for f in factors])
                           for factors in (left_factors, right_factors) if factors))
        left = np.linalg.multi_dot(left_factors) if len(left_factors) > 1 else left_factors[0]
        right = (np.linalg.multi_dot(right_factors) if len(right_factors) > 1
                 else right_factors[0] if right_factors else 0.0)
        return float(np.abs(left - right).max(initial=0.0)) / scale

    def dense(c, op):
        return c.operator(op.name).toarray()

    red = {sp: reduction_matrix(s.high, sp).toarray() for sp in SPACES}
    ext = {sp: s.ext.matrix(sp).toarray() for sp in SPACES}
    out = {}
    for first, then in zip(OPERATORS, OPERATORS[1:]):
        out[f"complex.{then.local}_{first.local}"] = residual([dense(s.high, then),
                                                               dense(s.high, first)])
    tags = {op.source: op.local for op in OPERATORS}
    for sp in SPACES:
        out[f"cochain.RE_{tags.get(sp, 'tail')}"] = residual(
            [red[sp], ext[sp]], [np.eye(ext[sp].shape[1])])
    for op in OPERATORS:
        out[f"cochain.red_{op.local}"] = residual([red[op.target], dense(s.high, op)],
                                                  [dense(s.low, op), red[op.source]])
    for op in OPERATORS:
        out[f"cochain.ext_{op.local}"] = residual([dense(s.high, op), ext[op.source]],
                                                  [ext[op.target], dense(s.low, op)])
    kappa = {sp: np.diag(s.orient.geometry(CARRIERS[sp]).measure) for sp in SPACES}
    for i, op in enumerate(OPERATORS):
        cob = s.cochain.boundary(i).toarray()
        out[f"cochain.cw_{op.local}"] = residual([kappa[op.target], dense(s.low, op)],
                                                 [cob, kappa[op.source]])
    forms = ddr0_closed_forms(s.mesh, s.orient)
    for op, form in zip(OPERATORS, forms):
        out[f"closed_forms.{op.name}"] = residual([dense(s.low, op)], [form.toarray()])
    return out


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", ["cube", "ring", "cavity", "prism_pair", "sheared_ring"])
def test_sparse_cochain_residuals_equal_the_dense_ones(name, k):
    # the closure products against dense products of whole matrices, which
    # sum in another order: equal within roundoff
    if name in ("prism_pair", "sheared_ring"):
        mesh = load_mesh(str(MESH_FILES / f"{name}.json"))
        s = VerifySession(mesh, compute_orientation(mesh), k)
    else:
        mesh, orient = mesh_and_orientation(name)
        s = VerifySession(mesh, orient, k)
        s.high, s.low, s.ext = complex_for(name, k), complex_for(name, 0), extensions_for(name, k)
    want = _dense_residuals(s)
    rows = check_complex(s) + check_cochain_diagram(s) + check_closed_forms(s)
    got = {c.name: c.residual for c in rows if c.name in want}
    assert len(got) == len(want) == 18
    for row, value in want.items():
        assert abs(got[row] - value) <= 1e-15, (row, got[row], value)


def _tunnel(n):
    """An n x n x n voxel block with the column (n//2, n//2, :) removed (b1 = 1)."""
    pattern = np.ones((n, n, n), dtype=bool)
    pattern[n // 2, n // 2, :] = False
    mesh = build_voxel_mesh(pattern)
    return mesh, compute_orientation(mesh)


def test_cochain_family_memory_grows_about_linearly():
    # traced peak of the family alone, once every operator, the cochain
    # complex and the extensions exist; tunnel4 -> tunnel8 multiplies the
    # operators' nonzeros by about 8
    sizes, peaks = [], []
    for n in (4, 8):
        s = VerifySession(*_tunnel(n), 0)
        ops = [s.low.operator(op.name) for op in OPERATORS]
        s.cochain.boundary(0)
        for sp in SPACES:
            s.ext.matrix(sp)
        checks, peak = traced_peak(lambda: check_cochain_diagram(s))
        assert all(c.passed for c in checks)
        sizes.append(sum(op.nnz for op in ops))
        peaks.append(peak)
    exponent = math.log(peaks[1] / peaks[0]) / math.log(sizes[1] / sizes[0])
    assert exponent <= 1.2, (sizes, peaks)


def _battery_peak_and_kept(n, k):
    """The traced peak of ``run_all`` on tunnel``n`` at degree ``k``, and
    what its report keeps, in bytes above the start; the battery passes."""
    mesh, orient = _tunnel(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = run_all(mesh, orient, k)
        gc.collect()
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert report.passed
    return peak, kept


def test_battery_peaks_within_half_again_what_it_keeps():
    # the whole battery on tunnel4 at k = 2: the operator builds pair
    # boundary moments, with no point-level arrays over the sub-entities'
    # dofs, so the traced peak is at most 1.5 times what the report keeps
    peak, kept = _battery_peak_and_kept(4, 2)
    assert peak <= 1.5 * kept, (peak, kept)


@pytest.mark.parametrize("k", [0, 1])
def test_battery_peaks_within_a_third_more_than_it_keeps_at_low_degree(k):
    # the whole battery on tunnel6 at k = 0 and 1: interpolation and the
    # consistency sweep read point stacks of bounded size, and assembly
    # scatters its blocks into place, so the traced peak is at most 1.3
    # times what the report keeps
    peak, kept = _battery_peak_and_kept(6, k)
    assert peak <= 1.3 * kept, (peak, kept)


@pytest.mark.parametrize("name", ["cube", "ring", "cavity"])
def test_cohomology_dims_agrees_with_betti_numbers_and_session(name):
    mesh, orient = mesh_and_orientation(name)
    cc = build_cochain_complex(mesh, orient)
    (v, e, f, t), (r0, r1, r2) = cc.counts, [integer_rank(d) for d in (cc.d0, cc.d1, cc.d2)]
    betti = betti_numbers(cc)
    assert cohomology_dims(cc.counts, [r0, r1, r2]) == betti == \
        (v - r0, e - r1 - r0, f - r2 - r1, t - r2)
    for k in (0, 1, 2):
        s = VerifySession(mesh, orient, k)
        s.high = complex_for(name, k)
        dg, dc, dd, dp = s.dims.values()
        rg, rc, rd = (s.operator_rank(w).rank for w in ("gradient", "curl", "divergence"))
        want = (dg - rg - 1, dc - rc - rg, dd - rd - rc, dp - rd)
        assert s.cohomology_dims() == cohomology_dims([dg, dc, dd, dp], [rg, rc, rd], head=1) \
            == want == (0, betti[1], betti[2], 0)


def test_rank_options_reject_tolerances_outside_the_unit_interval():
    for tol in (-1.0, 0.0, 1.0, float("nan"), float("inf")):
        with pytest.raises(InputError, match="strictly between 0 and 1"):
            RankOptions(rel_tol=tol)
    assert RankOptions(rel_tol=1e-6).rel_tol == 1e-6


@pytest.mark.parametrize("field,value,message", [
    ("seed", True, "seed True is not an integer"),
    ("seed", 1.5, "seed 1.5 is not an integer"),
    ("seed", "7", "seed '7' is not an integer"),
    ("rel_tol", "0.5", "rank tolerance '0.5' is not a number"),
    ("rel_tol", True, "rank tolerance True is not a number"),
])
def test_rank_options_reject_a_seed_or_tolerance_of_the_wrong_type(field, value, message):
    with pytest.raises(InputError) as info:
        RankOptions(**{field: value})
    assert str(info.value) == message


def test_a_numpy_seed_is_reported_as_a_json_integer():
    opts = RankOptions(rel_tol=np.float64(0.5), seed=np.int64(3))
    assert type(opts.seed) is int
    mesh, orient = mesh_and_orientation("cube")
    doc = run_all(mesh, orient, 0, selection=["complex"], opts=opts).as_dict()
    assert json.loads(json.dumps(doc))["seed"] == 3


def test_cochain_checks_time_the_extension_solves(monkeypatch):
    # every extension build is slowed by a fixed delay, which the cochain
    # checks' own seconds must cover
    delay, build = 0.1, lifting.ExtensionMaps.matrix

    def slow(self, space):
        if space not in self._cache:
            time.sleep(delay)
        return build(self, space)

    monkeypatch.setattr(lifting.ExtensionMaps, "matrix", slow)
    mesh, orient = mesh_and_orientation("cube")
    checks = check_cochain_diagram(VerifySession(mesh, orient, 1))
    assert all(c.passed for c in checks)
    assert sum(c.seconds for c in checks) >= 4 * delay


def test_extension_error_names_the_check_that_built_it(monkeypatch):
    build = lifting.ExtensionMaps.matrix

    def failing(self, space):
        if space == "Xdiv":
            raise ConditioningError("planted")
        return build(self, space)

    monkeypatch.setattr(lifting.ExtensionMaps, "matrix", failing)
    mesh, orient = mesh_and_orientation("cube")
    checks = check_cochain_diagram(VerifySession(mesh, orient, 1))
    assert len(checks) == 16
    errored = [c.name for c in checks if c.error]
    assert errored == ["cochain.RE_div", "cochain.ext_curl", "cochain.ext_div"]
    assert all("planted" in c.error for c in checks if c.error)


def test_closed_form_rows_time_the_formula_build(monkeypatch):
    # the boundary-value formulas are built once, inside the first row, so a
    # delay in that build must show in the rows' own seconds
    delay, build, calls = 0.1, verification.ddr0_closed_forms, []

    def slow(mesh, orient):
        calls.append(1)
        time.sleep(delay)
        return build(mesh, orient)

    monkeypatch.setattr(verification, "ddr0_closed_forms", slow)
    mesh, orient = mesh_and_orientation("ring")
    checks = check_closed_forms(VerifySession(mesh, orient, 1))
    assert [c.name for c in checks] == ["closed_forms.gradient", "closed_forms.curl",
                                        "closed_forms.divergence"]
    assert all(c.passed for c in checks) and len(calls) == 1
    assert sum(c.seconds for c in checks) >= delay


def test_consistency_rows_time_their_own_work(monkeypatch):
    # a delay in the element gradient's stack build must show in the
    # element_gradient row alone, not spread over the sweep's rows
    delay, build = 0.2, DdrComplex._grad_stack

    def slow(self, grp):
        if grp.kind == "cell":
            time.sleep(delay)
        return build(self, grp)

    monkeypatch.setattr(DdrComplex, "_grad_stack", slow)
    mesh, orient = mesh_and_orientation("cube")
    checks = check_consistency(VerifySession(mesh, orient, 1))
    assert all(c.passed for c in checks)
    seconds = {c.name: c.seconds for c in checks}
    assert seconds.pop("consistency.element_gradient") >= delay
    assert all(sec < delay for sec in seconds.values()), seconds


@pytest.mark.parametrize("name,k", [("cube", 1), ("ring", 2)])
def test_run_all_passes(name, k):
    mesh, orient = mesh_and_orientation(name)
    report = run_all(mesh, orient, k)
    assert report.passed
    assert list(dict.fromkeys(c.name.split(".", 1)[0] for c in report.checks)) == list(FAMILIES)
    assert report.cohomology_ddr is not None


def test_run_all_selection_semantics():
    mesh, orient = mesh_and_orientation("ring")
    report = run_all(mesh, orient, 1, selection=["complex"])
    assert all(c.name.startswith("complex.") for c in report.checks)
    assert report.cohomology_ddr is None
    with pytest.raises(InputError):
        run_all(mesh, orient, 1, selection=["bogus"])


@pytest.mark.parametrize("selection,message", [
    ([], r"^no check families selected; choose from \['complex', "),
    ((), r"^no check families selected; "),
    ("complex", r"^check families are a list of names, not the string 'complex'$"),
], ids=["empty list", "empty tuple", "bare string"])
def test_run_all_rejects_an_empty_or_string_selection(selection, message, monkeypatch):
    # only None selects every family
    mesh, orient = mesh_and_orientation("cube")
    monkeypatch.setattr(verification, "check_complex", lambda s: pytest.fail("a family ran"))
    with pytest.raises(InputError, match=message):
        run_all(mesh, orient, 0, selection=selection)


@pytest.mark.parametrize("family", FAMILIES)
def test_run_all_calls_a_family_replaced_on_the_module(family, monkeypatch):
    mesh, orient = mesh_and_orientation("cube")
    name = "check_cochain_diagram" if family == "cochain" else f"check_{family}"
    monkeypatch.setattr(verification, name,
                        lambda s: [verification.CheckResult(f"{family}.stub", passed=True)])
    report = run_all(mesh, orient, 0, selection=[family])
    assert [c.name for c in report.checks] == [f"{family}.stub"]


@pytest.mark.parametrize("degree", [True, 1.0, 1.5])
def test_run_all_rejects_a_non_integer_degree_before_any_family(degree, monkeypatch):
    mesh, orient = mesh_and_orientation("cube")
    monkeypatch.setattr(verification, "check_complex", lambda s: pytest.fail("a family ran"))
    with pytest.raises(DomainError, match=f"^degree {degree!r} is not an integer$"):
        run_all(mesh, orient, degree)


def test_run_all_reports_a_numpy_degree_as_an_integer():
    mesh, orient = mesh_and_orientation("cube")
    doc = run_all(mesh, orient, np.int64(1), selection=["complex"]).as_dict()
    assert doc["degree"] == 1 and type(doc["degree"]) is int
    json.dumps(doc)


def test_run_all_reports_h1_for_ring():
    mesh, orient = mesh_and_orientation("ring")
    report = run_all(mesh, orient, 0, selection=["cohomology"])
    assert report.passed
    assert report.cohomology_ddr == [0, 1, 0, 0]
    assert report.betti_cw == [1, 1, 0, 0]


def test_report_schema():
    mesh, orient = mesh_and_orientation("cube")
    report = run_all(mesh, orient, 1, selection=["complex", "cohomology"])
    doc = report.as_dict()
    assert set(doc["mesh"]) == {"vertices", "edges", "faces", "elements"}
    assert set(doc["dims"]) == {"Xgrad", "Xcurl", "Xdiv", "Pk"}
    assert set(doc["ranks"]) == {"gradient", "curl", "divergence"}
    for c in doc["checks"]:
        assert {"name", "passed", "residual", "tolerance", "seconds"} <= set(c)
    json.dumps(doc)  # serializable


def test_report_determinism():
    mesh, orient = mesh_and_orientation("cube")
    docs = []
    for _ in range(2):
        report = run_all(mesh, orient, 1, selection=["complex", "cohomology", "cochain"],
                         opts=RankOptions(seed=42))
        report.strip_timing()
        docs.append(json.dumps(report.as_dict(), sort_keys=True))
    assert docs[0] == docs[1]


@pytest.mark.parametrize("fault", ["omega_tf", "omega_fe:2:1", "edge_length:3"])
def test_fault_injection_caught(fault):
    mesh, orient = mesh_and_orientation("cube")
    bad = corrupt_orientation(orient, fault)
    report = run_all(mesh, bad, 0)
    failed = [c.name for c in report.checks if not c.passed]
    assert failed, f"fault {fault} not caught"
    assert not report.passed


def test_fault_injection_at_degree_one():
    mesh, orient = mesh_and_orientation("cube")
    bad = corrupt_orientation(orient, "omega_fe")
    report = run_all(mesh, bad, 1, selection=["complex"])
    assert not report.passed


def test_corrupt_orientation_spec_parsing():
    mesh, orient = mesh_and_orientation("cube")
    with pytest.raises(InputError):
        corrupt_orientation(orient, "nonsense")
    bad = corrupt_orientation(orient, "edge_length:5")
    assert bad.edge_length[5] != orient.edge_length[5]
    assert bad.edge_length[0] == orient.edge_length[0]


def test_errored_checks_are_not_passed():
    # a flipped element sign makes the integer cochain build fail; the
    # affected families must report errored (failed) checks, not crash
    mesh, orient = mesh_and_orientation("cube")
    bad = corrupt_orientation(orient, "omega_tf")
    report = run_all(mesh, bad, 0, selection=["cohomology", "cochain"])
    errored = [c for c in report.checks if c.error]
    assert errored
    assert all(not c.passed for c in errored)


@pytest.mark.parametrize("fault", ["omega_tf:5:3", "omega_fe:17:2"])
def test_closed_forms_compute_residuals_under_sign_faults(fault):
    # a flipped sign breaks the integer cochain complex, but the closed forms
    # use the same signs as the degree-0 assembly: their rows compute and pass
    mesh, orient = mesh_and_orientation("ring")
    report = run_all(mesh, corrupt_orientation(orient, fault), 0,
                     selection=["cohomology", "closed_forms"])
    rows = [c for c in report.checks if c.name.startswith("closed_forms.")]
    assert len(rows) == 3 and all(c.error is None and c.passed for c in rows)
    assert all(c.residual is not None for c in rows)
    assert any(c.error for c in report.checks if c.name.startswith("cohomology."))


def test_fault_injection_completeness_sampled():
    # a sampled set of single-sign/measure corruptions must each trip a check
    mesh, orient = mesh_and_orientation("ring")
    samples = ["omega_tf:0:0", "omega_tf:5:3", "omega_fe:0:1", "omega_fe:17:2",
               "edge_length:0", "edge_length:40"]
    for fault in samples:
        bad = corrupt_orientation(orient, fault)
        report = run_all(mesh, bad, 0,
                         selection=["complex", "cochain", "closed_forms"])
        assert not report.passed, f"corruption {fault} went unnoticed"


def _pointwise_consistency(s):
    """Reference consistency sweep: every field value and gradient one point at a time.

    The monomials are those of ``y = (x - c)/r`` with ``(c, r)`` the
    session's ``monomial_frame``, and a gradient is compared by its
    components along the entity's frame vectors.  Returns ``{check name:
    (largest residual, where)}``; the first strictly larger residual in
    monomial, then entity order is the largest.
    """
    high, k, orient = s.high, s.k, s.orient
    centre, scale = s.monomial_frame

    def basis_of(kind, index, degree):
        return entity_basis(high.mesh, orient, kind, index, degree)

    worst = {name: (0.0, "") for name in ("edge_trace", "edge_gradient", "face_trace",
                                          "face_gradient", "element_gradient")}

    def update(name, approx, exact, where):
        val = np.abs(approx - exact).max() / max(1.0, np.abs(exact).max())
        if val > worst[name][0]:
            worst[name] = (val, where)

    for alpha in monomial_powers(3, k + 1):
        def q(p, alpha=alpha):
            y = (p - centre) / scale
            return y[0] ** alpha[0] * y[1] ** alpha[1] * y[2] ** alpha[2]

        def grad_q(p, alpha=alpha):
            y, g = (p - centre) / scale, np.zeros(3)
            for ax in range(3):
                if alpha[ax]:
                    b = list(alpha)
                    b[ax] -= 1
                    g[ax] = alpha[ax] * y[0] ** b[0] * y[1] ** b[1] * y[2] ** b[2] / scale
            return g

        vec = high.interpolate_grad(lambda pts: np.asarray([q(p) for p in pts]))
        tagged = f", monomial x^{alpha[0]} y^{alpha[1]} z^{alpha[2]}"
        for kind, label, builder in (("edge", "edge", high.edge_ops),
                                     ("face", "face", high.face_grad_ops),
                                     ("cell", "element", high.cell_grad_ops)):
            for e in range(entity_count(s.mesh, kind)):
                ops, rule = builder(e), high.rule(kind, e)
                loc, where = vec[ops.globals], f"{label} {e}{tagged}"
                if kind != "cell":
                    tv = basis_of(kind, e, k + 1).eval(rule.points) @ (ops.potential @ loc)
                    update(f"{kind}_trace", tv, np.asarray([q(p) for p in rule.points]), where)
                basis = basis_of(kind, e, k)
                gq = np.asarray([basis.frame @ grad_q(p) for p in rule.points])
                gv = basis.eval(rule.points) @ (ops.op @ loc).reshape(len(basis.frame), -1).T
                update(f"{label}_gradient", gv, gq, where)
    return worst


@pytest.mark.parametrize("name,k", [("cube", 0), ("ring", 0), ("cavity", 0),
                                    ("cube", 1), ("ring", 1), ("cavity", 1), ("cube", 2),
                                    ("prism_pair", 1)])
def test_consistency_matches_pointwise_oracle(name, k):
    # prism_pair brings a diagonal face and diagonal edges: tangential projections
    # that are not exact in floating point
    if name == "prism_pair":
        mesh = prism_pair()
        s = VerifySession(mesh, compute_orientation(mesh), k)
    else:
        mesh, orient = mesh_and_orientation(name)
        s = VerifySession(mesh, orient, k)
        s.high = complex_for(name, k)
    want = _pointwise_consistency(s)
    got = check_consistency(s)
    assert [c.name for c in got] == [f"consistency.{n}" for n in want]
    tol = TOLERANCES["consistency"]
    for c in got:
        val, where = want[c.name.split(".", 1)[1]]
        assert c.residual == val, c.name
        assert c.passed == (val <= tol), c.name
        assert c.detail == ("" if c.passed else f"largest at {where}"), c.name


def test_a_failing_row_names_where_its_residual_is_largest():
    # a flipped face-edge sign of face 0 fails the face rows of the sweep at
    # the constant monomial and the element row at the first linear one;
    # every passing residual row (matrix and consistency alike) carries no
    # detail
    mesh, orient = mesh_and_orientation("ring")
    report = run_all(mesh, corrupt_orientation(orient, "omega_fe"), 1)
    rows = {c.name: c for c in report.checks if c.name in report.session._residual_rows}
    assert {name: rows[name].detail for name in rows if name.startswith("consistency.")
            and not rows[name].passed} == {
        "consistency.face_trace": "largest at face 0, monomial x^0 y^0 z^0",
        "consistency.face_gradient": "largest at face 0, monomial x^0 y^0 z^0",
        "consistency.element_gradient": "largest at element 0, monomial x^1 y^0 z^0"}
    assert all(c.detail == "" for c in rows.values() if c.passed)
    assert any(c.passed for c in rows.values() if c.name.startswith("consistency."))


@pytest.mark.parametrize("call,message", [
    (lambda s: s.operator_rank("grad"), "unknown operator 'grad'"),
    (lambda s: s.local_ranks("grad"), "unknown operator 'grad'"),
    (lambda s: s.residual("nope"), "unknown residual row 'nope'"),
], ids=["operator_rank", "local_ranks", "residual"])
@pytest.mark.parametrize("k", [0, 1])
def test_session_rejects_an_unknown_name(call, message, k):
    s = VerifySession(*mesh_and_orientation("cube"), k)
    with pytest.raises(DomainError, match=message):
        call(s)


# ---------------------------------------------------------------------------
# the local certificate of ker R against the dense ranks it replaces

CERTIFIED_MESHES = ("cube", "ring", "cavity", "graded_cavity", "prism_pair", "sheared_ring",
                    "double_ring")


def _session(name, k):
    if name in ("cube", "ring", "cavity"):
        s = VerifySession(*mesh_and_orientation(name), k)
        s.high, s.low = complex_for(name, k), complex_for(name, 0)
        return s
    mesh = load_mesh(str(MESH_FILES / f"{name}.json"))
    return VerifySession(mesh, compute_orientation(mesh), k)


def _assert_certificate_equals_dense_ranks(s):
    # the dense SVD stays here as the reference: of each operator, and of
    # the operator on ker R, d @ B
    assert s.certified()
    for op in OPERATORS:
        d = s.high.operator(op.name)
        assert s.operator_rank(op.name).rank == numeric_rank(d.toarray()).rank, op.name
        on_kernel = d @ s.kernel_bases[op.source].toarray()
        assert s.local_ranks(op.name).result.rank == numeric_rank(on_kernel).rank, op.name


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", CERTIFIED_MESHES)
def test_certified_ranks_equal_the_dense_ranks(name, k):
    _assert_certificate_equals_dense_ranks(_session(name, k))


@pytest.mark.parametrize("k", [1, 2])
def test_certified_ranks_equal_the_dense_ranks_on_voxel_patterns(k):
    @given(voxel_patterns())
    def check(pattern):
        mesh = build_voxel_mesh(pattern)
        _assert_certificate_equals_dense_ranks(VerifySession(mesh, compute_orientation(mesh), k))

    check()


def _with_planted_defect(s, which, kind, entity):
    """``s`` whose operator ``which`` is a copy in which every own column of
    one entity of the source space repeats the first, so that the entity's
    diagonal block keeps rank at most 1."""
    op = next(op for op in OPERATORS if op.name == which)
    layout = s.high.layout(op.source)
    cols = np.concatenate([layout.indices(kind, entity, part)
                           for part, _ in PARTS[op.source][kind]])
    source = np.arange(layout.total)
    source[cols] = cols[0]
    planted = _csr(s.high.operator(which).toarray()[:, source])
    build = s.high.operator
    s.high.operator = lambda name: planted if name == which else build(name)
    return s


@pytest.mark.parametrize("which,kind,entity,label", [("curl", "face", 17, "face 17"),
                                                     ("divergence", "cell", 5, "element 5")])
def test_planted_local_rank_defect_fails_and_names_the_entity(which, kind, entity, label):
    mesh, orient = mesh_and_orientation("ring")
    s = _with_planted_defect(VerifySession(mesh, orient, 1), which, kind, entity)
    checks = {c.name: c for c in check_cohomology(s) + check_zero_reduction(s)}
    local = next(op.local for op in OPERATORS if op.name == which)
    for name in ("cohomology.betti_match", "zero_reduction.exact"):
        assert not checks[name].passed and checks[name].error is None, name
        assert f"{local}: {label} local rank 1, expected " in checks[name].detail, name
    assert not s.certified()


def _with_stray(mat, row, col):
    """A copy of ``mat`` with one more stored entry, 1 at ``(row, col)``."""
    blocks = []
    for i in range(mat.shape[0]):
        cols, vals = (a[mat.indptr[i]:mat.indptr[i + 1]] for a in (mat.indices, mat.data))
        if i == row:
            at = np.searchsorted(cols, col)
            cols, vals = np.insert(cols, at, col), np.insert(vals, at, 1.0)
        blocks.append(([i], cols, vals[None]))
    return CsrMatrix.from_blocks(mat.shape, blocks)


def _outside_closure(layout, kind, entity):
    """The first unknown of ``layout`` outside the closure of one entity."""
    group, row = layout.mesh.group_table(kind)[:, entity]
    return np.setdiff1d(np.arange(layout.total), layout.closures(kind)[group][row])[0]


@pytest.mark.parametrize("matrix,kind,reading", [
    ("gradient", "edge", ("complex.grad_of_constant", "complex.curl_grad", "cochain.red_grad",
                          "cochain.ext_grad")),
    ("curl", "face", ("complex.curl_grad", "complex.div_curl", "cochain.red_curl",
                      "cochain.ext_curl")),
    ("divergence", "cell", ("complex.div_curl", "cochain.red_div", "cochain.ext_div")),
    ("reduction", "edge", ("cochain.RE_curl", "cochain.red_grad", "cochain.red_curl")),
    ("extension", "face", ("cochain.RE_curl", "cochain.ext_grad", "cochain.ext_curl")),
])
def test_a_stray_entry_outside_a_closure_fails_every_row_that_reads_it(matrix, kind, reading):
    # one stored entry of the degree-1 G, C, D, or of the Xcurl reduction or
    # extension, in a row of entity 0 and a column outside its closure (a
    # session of its own: the operators of shared complexes stay as they are)
    s = VerifySession(*mesh_and_orientation("ring"), 1)
    if matrix in ("reduction", "extension"):
        low, high = s.low.layout("Xcurl"), s.high.layout("Xcurl")
        rows, cols = (low, high) if matrix == "reduction" else (high, low)
        name = f"{matrix} of Xcurl"
        mat = s.reduction("Xcurl") if matrix == "reduction" else s.ext.matrix("Xcurl")
    else:
        op = next(op for op in OPERATORS if op.name == matrix)
        rows, cols = s.high.layout(op.target), s.high.layout(op.source)
        name, mat = f"degree-1 {matrix}", s.high.operator(matrix)
    planted = _with_stray(mat, rows.own(kind, np.arange(1))[0, 0], _outside_closure(cols, kind, 0))
    if matrix == "reduction":
        s._reductions["Xcurl"] = planted
    elif matrix == "extension":
        s.ext._cache["Xcurl"] = planted
    else:
        build = s.high.operator
        s.high.operator = lambda which: planted if which == matrix else build(which)
    label = {"edge": "edge 0", "face": "face 0", "cell": "element 0"}[kind]
    error = f"DdrError: {name}: entry outside the closure of {label}"
    checks = check_complex(s) + check_cochain_diagram(s) + check_closed_forms(s)
    assert sorted(c.name for c in checks if not c.passed) == sorted(reading)
    assert all(c.error == error for c in checks if not c.passed)
    if matrix == "extension":
        # no premise of the cohomology reads E; the generators' RE_curl does
        h1, _ = check_generators(s)
        assert h1.error == error
        assert s.certified()
    else:
        assert not s.certified()


def test_local_blocks_use_the_rank_tolerance():
    # at k = 2 an edge's gradient block has two singular values less than a
    # factor 2 apart: --rank-tol 0.5 drops the smaller, and the edges are named
    mesh, orient = mesh_and_orientation("cube")
    s = VerifySession(mesh, orient, 2, RankOptions(rel_tol=0.5))
    s.high = complex_for("cube", 2)
    assert s.local_failures()[0] == "grad: edge 0 local rank 1, expected 2"
    assert not s.certified()
    report = run_all(mesh, orient, 2, selection=["cohomology"], opts=RankOptions(rel_tol=0.5))
    assert not report.passed and report.ranks == {} and report.cohomology_ddr == []


def test_local_ranks_at_degree_zero_have_no_blocks():
    mesh, orient = mesh_and_orientation("ring")
    s = VerifySession(mesh, orient, 0)
    report = run_all(mesh, orient, 0, selection=["cohomology"])
    assert report.cohomology_ddr == [0, 1, 0, 0]
    assert report.ranks == {op.name: {"rank": s.cochain.echelon(i).rank, "sigma_max": 0.0,
                                      "tau": 0.0, "gap": None}
                            for i, op in enumerate(OPERATORS)}


def test_certificate_memory_grows_about_linearly():
    # traced peak of the cohomology and zero_reduction families, once the
    # operators and the premises exist; tunnel4 -> tunnel6 multiplies the
    # operators' nonzeros by about 3.4 (dense ranks grew with exponent 1.9)
    sizes, peaks = [], []
    for n in (4, 6):
        s = VerifySession(*_tunnel(n), 1)
        ops = [s.high.operator(op.name) for op in OPERATORS]
        assert s.premise_failures(s.premises()) == []
        checks, peak = traced_peak(lambda: check_cohomology(s) + check_zero_reduction(s))
        assert all(c.passed for c in checks)
        sizes.append(sum(op.nnz for op in ops))
        peaks.append(peak)
    exponent = math.log(peaks[1] / peaks[0]) / math.log(sizes[1] / sizes[0])
    assert exponent <= 1.2, (sizes, peaks)


# ---------------------------------------------------------------------------
# lifted generators: independence from the cochain-map premises, against the
# dense rank it replaces


def _assert_lifts_raise_the_dense_rank(s):
    # the dense rank stays here as the reference: each passing generators
    # row's lifts raise the rank of [incoming | lifts] by their count
    checks = check_generators(s)
    assert all(c.passed for c in checks), [c.as_dict() for c in checks]
    for lg in s.lifted:
        incoming = s.high.operator(OPERATORS[lg.index - 1].name)
        ranked, expected = dense_rank_raise(incoming, lg.vectors)
        assert ranked == expected, lg.index


def test_generator_lifts_are_kept_on_the_session_and_reported():
    # each call of the family replaces the session's lifts; the report's
    # generator vectors are those lifts
    mesh, orient = mesh_and_orientation("ring")
    report = run_all(mesh, orient, 1, selection=["generators"])
    s = report.session
    assert [lg.index for lg in s.lifted] == [1, 2]
    vectors = [vec for lg in s.lifted for vec in lg.vectors]
    assert len(vectors) == len(report.generators) == 1
    assert np.array_equal(report.generators[0]["vector"], vectors[0])
    first = s.lifted
    check_generators(s)
    assert [lg.index for lg in s.lifted] == [1, 2] and s.lifted is not first


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", CERTIFIED_MESHES)
def test_certified_generators_raise_the_dense_rank(name, k):
    _assert_lifts_raise_the_dense_rank(_session(name, k))


def _holed(shape):
    """A voxel block of ``shape`` with the column (1, 1, :) removed (b1 = 1)."""
    pattern = np.ones(shape, dtype=bool)
    pattern[1, 1, :] = False
    return pattern


@pytest.mark.parametrize("k", [0, 1, 2])
def test_certified_generators_raise_the_dense_rank_on_voxel_patterns(k):
    # two members with b1 = 1 are pinned, whatever the family draws
    @given(voxel_patterns())
    @example(_holed((3, 3, 1)))
    @example(_holed((3, 3, 2)))
    def check(pattern):
        mesh = build_voxel_mesh(pattern)
        _assert_lifts_raise_the_dense_rank(VerifySession(mesh, compute_orientation(mesh), k))

    check()


@pytest.mark.parametrize("broken", ["zero", "exact"])
def test_lifts_of_a_broken_extension_fail_on_re_identity(broken):
    # an Xcurl extension replaced by zero, whose zero lift fails generators.h1
    # as such, or by G N, N putting each edge's value into its own Xgrad
    # unknown: its lifts are exact, so that their kernel residual still
    # passes, and it reaches only closures: no rank is computed, and the
    # failed premise RE = I fails generators.h1, named
    s = _session("ring", 1)
    shape = s.ext.matrix("Xcurl").shape
    edges = np.arange(s.mesh.n_edges)
    into = s.high.layout("Xgrad").indices("edge", edges, "poly")[:, 0]
    bubbles = CsrMatrix.from_blocks((s.high.layout("Xgrad").total, len(edges)),
                                    [(into[:, None], edges[:, None], np.ones((len(edges), 1, 1)))])
    s.ext._cache["Xcurl"] = (CsrMatrix.from_blocks(shape, []) if broken == "zero" else
                             _csr(s.high.gradient @ bubbles.toarray()))
    h1, h2 = check_generators(s)
    lifted = s.lifted
    if broken == "zero":
        assert not h1.passed and h2.passed and len(lifted) == 1
        assert h1.error == "CertificationError: lifted generator 0: zero lift"
        return
    lg = lifted[0]
    assert not h1.passed and h1.error is None and h1.residual <= h1.tolerance
    assert h1.detail.startswith("1 generator(s), expected 1; premise cochain.RE_curl failed")
    assert h2.passed
    ranked, expected = dense_rank_raise(s.high.gradient, lg.vectors)
    assert ranked < expected          # the dense reference: dependent modulo the image


def test_generator_family_memory_grows_about_linearly():
    # traced peak of the generators family alone, once the operators, the
    # extensions, the cochain complex and its premises exist; tunnel4 ->
    # tunnel6 at k = 1 multiplies the operators' nonzeros by about 3.4 (the
    # dense independence rank grew with exponent 1.85)
    sizes, peaks = [], []
    for n in (4, 6):
        s = VerifySession(*_tunnel(n), 1)
        ops = [s.high.operator(op.name) for op in OPERATORS]
        assert all(c.passed for c in check_cochain_diagram(s)) and s.betti.b1 == 1
        checks, peak = traced_peak(lambda: check_generators(s))
        assert all(c.passed for c in checks) and len(s.lifted[0].vectors) == 1
        sizes.append(sum(op.nnz for op in ops))
        peaks.append(peak)
    exponent = math.log(peaks[1] / peaks[0]) / math.log(sizes[1] / sizes[0])
    assert exponent <= 1.2, (sizes, peaks)
