"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here exactly as stated; nothing is deferred to
later calibration.  Runtime bounds are asserted where the criterion gives
one.
"""

import time

import numpy as np
import pytest

from ddrcomplex import (
    DofLayout,
    betti_numbers,
    build_cochain_complex,
    ddr0_closed_forms,
    lift_generators,
    numeric_rank,
    zero_reduction_basis,
)
from ddrcomplex.cli import main as cli_main
from ddrcomplex.verification import VerifySession, check_cochain_diagram, check_consistency

from conftest import complex_for, dense_rank_raise, extensions_for, mesh_and_orientation

MESHES = ("cube", "ring", "cavity")


def _announce(num, text):
    print(f"[PASS] criterion {num}: {text}")


def _session(name, k):
    mesh, orient = mesh_and_orientation(name)
    s = VerifySession(mesh, orient, k)
    s.high = complex_for(name, k)
    s.low = complex_for(name, 0)
    return s


def test_criterion_01_betti_numbers():
    start = time.time()
    expected = {"cube": (1, 0, 0, 0), "ring": (1, 1, 0, 0), "cavity": (1, 0, 1, 0)}
    for name in MESHES:
        t0 = time.time()
        mesh, orient = mesh_and_orientation(name)
        b = betti_numbers(build_cochain_complex(mesh, orient))
        assert b == expected[name], name
        v, e, f, t = mesh.counts
        assert v - e + f - t == b.b0 - b.b1 + b.b2 - b.b3, name
        assert time.time() - t0 < 1.0, f"{name}: Betti computation exceeded 1s"
    _announce(1, f"exact Betti numbers + Euler identity on all meshes "
                 f"({time.time() - start:.2f}s)")


def test_criterion_02_cohomology_dimensions():
    concrete = {("ring", 0): ((32, 64, 40, 8), (31, 32, 8)),
                ("cavity", 0): ((64, 144, 108, 26), (63, 81, 26))}
    for name in MESHES:
        mesh, orient = mesh_and_orientation(name)
        b = betti_numbers(build_cochain_complex(mesh, orient))
        for k in (0, 1, 2):
            t0 = time.time()
            c = complex_for(name, k)
            dims = [c.layout(s).total for s in ("Xgrad", "Xcurl", "Xdiv", "Pk")]
            rk = {}
            for which in ("gradient", "curl", "divergence"):
                res = numeric_rank(c.operator(which).toarray())
                assert not np.isfinite(res.gap) or res.gap >= 10, \
                    f"{name} k={k} {which}: spectral gap {res.gap:.2f} < 10"
                rk[which] = res.rank
            h = (dims[0] - rk["gradient"] - 1,
                 dims[1] - rk["curl"] - rk["gradient"],
                 dims[2] - rk["divergence"] - rk["curl"],
                 dims[3] - rk["divergence"])
            assert h == (0, b.b1, b.b2, 0), f"{name} k={k}: H={h}"
            assert time.time() - t0 < 60, f"{name} k={k} exceeded 60s"
            if (name, k) in concrete:
                cdims, cranks = concrete[(name, k)]
                assert tuple(dims) == cdims
                assert (rk["gradient"], rk["curl"], rk["divergence"]) == cranks
        if name == "cube":
            assert numeric_rank(complex_for("cube", 1).gradient.toarray()).rank == 26
    _announce(2, "DDR cohomology dimensions equal (0, b1, b2, 0) for k in {0,1,2}, "
                 "concrete rank chains and gaps >= 10 verified")


def test_criterion_03_complex_property():
    def rel(a, b):
        a, b = a.toarray(), b.toarray()
        return abs(a @ b).max() / max(1.0, abs(a).max() * abs(b).max())

    for name in MESHES:
        for k in (0, 1, 2):
            c = complex_for(name, k)
            assert rel(c.curl, c.gradient) <= 1e-10, (name, k)
            assert rel(c.divergence, c.curl) <= 1e-10, (name, k)
    t0 = time.time()
    c = complex_for("cube", 3)
    assert rel(c.curl, c.gradient) <= 1e-10
    assert rel(c.divergence, c.curl) <= 1e-10
    assert time.time() - t0 < 120
    _announce(3, "curl.grad and div.curl vanish at 1e-10 relative "
                 "(all meshes k<=2, cube k=3)")


def test_criterion_04_cochain_identities():
    for name, k in (("cube", 1), ("ring", 1), ("cavity", 1), ("cube", 2)):
        extensions_for(name, k)  # warm the cache shared with the session
        checks = check_cochain_diagram(_session(name, k))
        assert len(checks) == 16
        for c in checks:
            assert c.passed, f"{name} k={k}: {c.name} residual {c.residual}"
            if c.name.startswith("cochain.RE_"):
                assert c.tolerance == 1e-12
            elif c.name.startswith("cochain.cw_"):
                assert c.tolerance == 1e-13
            else:
                assert c.tolerance == 1e-10
    _announce(4, "R.E identities at 1e-12, eight commutation identities at 1e-10, "
                 "degree-0/CW diagram at 1e-13")


def test_criterion_05_zero_reduction_exactness():
    for name in ("ring", "cavity"):
        for k in (1, 2):
            high = complex_for(name, k)
            bg = zero_reduction_basis(high, "Xgrad").toarray()
            bc = zero_reduction_basis(high, "Xcurl").toarray()
            bd = zero_reduction_basis(high, "Xdiv").toarray()
            bp = zero_reduction_basis(high, "Pk").toarray()
            rg = numeric_rank(high.gradient @ bg).rank
            rc = numeric_rank(high.curl @ bc).rank
            rd = numeric_rank(high.divergence @ bd).rank
            chain_ok = (rg == bg.shape[1] and bc.shape[1] - rc == rg
                        and bd.shape[1] - rd == rc and rd == bp.shape[1])
            assert chain_ok, f"{name} k={k}: zero-reduction chain not exact"
    _announce(5, "zero-reduction subcomplex exact on ring and cavity for k in {1,2}")


def test_criterion_06_euler_dof_identity():
    expected = {("ring", 1): ([144, 280, 168, 32], 0),
                ("cavity", 1): ([342, 716, 480, 104], 2)}
    for name in MESHES:
        mesh, _ = mesh_and_orientation(name)
        chi = mesh.euler_characteristic
        for k in (0, 1, 2, 3):
            dims = [DofLayout(s, k, mesh).total
                    for s in ("Xgrad", "Xcurl", "Xdiv", "Pk")]
            assert dims[0] - dims[1] + dims[2] - dims[3] == chi, (name, k)
            if (name, k) in expected:
                assert dims == expected[(name, k)][0]
                assert chi == expected[(name, k)][1]
    _announce(6, "alternating DOF sums equal the Euler characteristic for k <= 3, "
                 "integer exact")


def test_criterion_07_generator_lifting():
    for k in (1, 2):
        lifted = lift_generators(complex_for("ring", k), complex_for("ring", 0), 1)
        assert len(lifted.vectors) == 1
        high = complex_for("ring", k)
        g = lifted.vectors[0]
        assert np.linalg.norm(high.curl @ g) <= 1e-9 * np.linalg.norm(g)
        ranked, expected = dense_rank_raise(high.gradient, lifted.vectors)
        assert ranked == expected
    lifted = lift_generators(complex_for("cavity", 1), complex_for("cavity", 0), 2)
    assert len(lifted.vectors) == 1
    high = complex_for("cavity", 1)
    g = lifted.vectors[0]
    assert np.linalg.norm(high.divergence @ g) <= 1e-9 * np.linalg.norm(g)
    ranked, expected = dense_rank_raise(high.curl, lifted.vectors)
    assert ranked == expected
    for index in (1, 2):
        empty = lift_generators(complex_for("cube", 2), complex_for("cube", 0), index)
        assert len(empty.vectors) == 0
    _announce(7, "one certified H1 generator on the ring (k in {1,2}), one H2 on the "
                 "cavity, none on the cube")


def test_criterion_08_closed_forms():
    for name in MESHES:
        mesh, orient = mesh_and_orientation(name)
        c = complex_for(name, 0)
        for closed, assembled in zip(ddr0_closed_forms(mesh, orient),
                                     (c.gradient, c.curl, c.divergence)):
            scale = max(1.0, abs(closed.toarray()).max())
            assert abs(closed.toarray() - assembled.toarray()).max() / scale <= 1e-12
    _announce(8, "degree-0 closed forms equal the generic assembly entrywise at 1e-12")


def test_criterion_09_consistency_sweep():
    for name in MESHES:
        for k in (0, 1, 2):
            checks = check_consistency(_session(name, k))
            for c in checks:
                assert c.passed, f"{name} k={k}: {c.name} residual {c.residual} ({c.detail})"
                assert c.tolerance == 1e-9
    _announce(9, "trace/gradient consistency sweep (monomials of degree <= k+1, "
                 "k <= 2, all meshes) at 1e-9")


@pytest.mark.parametrize("fault", ["omega_tf", "omega_fe", "edge_length"])
def test_criterion_10_fault_injection(tmp_path, fault):
    out = tmp_path / "report.json"
    code = cli_main(["verify", "--builtin", "cube", "--degree", "0",
                     "--inject-fault", fault, "--out", str(out), "--no-timestamp"])
    assert code == 1, f"fault {fault}: expected exit code 1, got {code}"
    import json
    failed = [c["name"] for c in json.loads(out.read_text())["checks"] if not c["passed"]]
    assert failed, f"fault {fault}: no named check failed"
    _announce(10, f"fault {fault} -> exit 1 with named failures {failed[:3]}")
