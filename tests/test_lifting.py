"""Reduction/extension identities, zero-reduction exactness, generator lifting."""

import re

import numpy as np
import pytest

from ddrcomplex import (
    CertificationError,
    DomainError,
    ExtensionMaps,
    build_cochain_complex,
    lift_generators,
    numeric_rank,
    reduction_matrix,
    zero_reduction_basis,
)
from ddrcomplex.sparse import CsrMatrix

from conftest import complex_for, dense_rank_raise, extensions_for, mesh_and_orientation
from test_spaces import entity_basis

SPACES = ("Xgrad", "Xcurl", "Xdiv", "Pk")


@pytest.mark.parametrize("name,k", [("cube", 1), ("cube", 2), ("cube", 3), ("ring", 1),
                                    ("cavity", 1), ("graded", 2)])
def test_reduction_after_extension_is_identity(name, k):
    high = complex_for(name, k)
    ext = extensions_for(name, k)
    for space in SPACES:
        e = ext.matrix(space)
        r = reduction_matrix(high, space)
        eye = np.eye(e.shape[1])
        assert np.abs(r @ e.toarray() - eye).max() < 1e-12


def test_reduction_of_interpolate_is_vertex_values():
    c = complex_for("cube", 2)
    mesh, _ = mesh_and_orientation("cube")
    vec = c.interpolate_grad(lambda p: p[:, 0] * p[:, 1] + 2.0)
    red = reduction_matrix(c, "Xgrad") @ vec
    expected = np.asarray([p[0] * p[1] + 2.0 for p in mesh.vertices])
    assert np.abs(red - expected).max() < 1e-13


def test_extension_of_constant_is_interpolate():
    # extending constant vertex data gives the degree-k interpolate of it
    for name, k in (("cube", 2), ("ring", 1)):
        high = complex_for(name, k)
        ext = extensions_for(name, k)
        mesh, _ = mesh_and_orientation(name)
        c = 2.75
        lifted = ext.matrix("Xgrad") @ np.full(mesh.n_vertices, c)
        expected = c * high.head_column
        assert np.abs(lifted - expected).max() < 1e-11


def test_extension_of_zero_is_zero():
    ext = extensions_for("ring", 1)
    for space in SPACES:
        m = ext.matrix(space)
        assert np.abs(m @ np.zeros(m.shape[1])).max() == 0.0


@pytest.mark.parametrize("name,k", [("cube", 1), ("cube", 2), ("cube", 3), ("ring", 1),
                                    ("ring", 2), ("cavity", 1)])
def test_extension_cochain_identities(name, k):
    high = complex_for(name, k)
    low = complex_for(name, 0)
    ext = extensions_for(name, k)
    e = {s: ext.matrix(s).toarray() for s in SPACES}
    gk, ck, dk = high.gradient, high.curl, high.divergence
    g0, c0, d0 = low.gradient, low.curl, low.divergence
    assert np.abs(gk @ e["Xgrad"] - e["Xcurl"] @ g0.toarray()).max() < 1e-10
    assert np.abs(ck @ e["Xcurl"] - e["Xdiv"] @ c0.toarray()).max() < 1e-10
    assert np.abs(dk @ e["Xdiv"] - e["Pk"] @ d0.toarray()).max() < 1e-10
    assert np.abs(high.head_column - e["Xgrad"] @ low.head_column).max() < 1e-11


# from k = 2 on, the faces and elements of the graded block each have their
# own monomial means
@pytest.mark.parametrize("name,k", [("cube", 1), ("ring", 1), ("ring", 2), ("cavity", 1),
                                    ("graded", 2)])
def test_reduction_cochain_identities(name, k):
    high = complex_for(name, k)
    low = complex_for(name, 0)
    r = {s: reduction_matrix(high, s).toarray() for s in SPACES}
    gk, ck, dk = high.gradient.toarray(), high.curl.toarray(), high.divergence.toarray()
    g0, c0, d0 = low.gradient.toarray(), low.curl.toarray(), low.divergence.toarray()
    assert np.abs(r["Xgrad"] @ high.head_column - low.head_column).max() < 1e-12
    assert np.abs(r["Xcurl"] @ gk - g0 @ r["Xgrad"]).max() < 1e-10
    assert np.abs(r["Xdiv"] @ ck - c0 @ r["Xcurl"]).max() < 1e-10
    assert np.abs(r["Pk"] @ dk - d0 @ r["Xdiv"]).max() < 1e-10


def test_random_vector_cochain_identity():
    # the matrix identity applied to a concrete random degree-0 vector
    ext = extensions_for("ring", 2)
    high = complex_for("ring", 2)
    low = complex_for("ring", 0)
    rng = np.random.default_rng(5)
    q0 = rng.standard_normal(low.layout("Xgrad").total)
    lhs = high.gradient @ (ext.matrix("Xgrad") @ q0)
    rhs = ext.matrix("Xcurl") @ (low.gradient @ q0)
    assert np.abs(lhs - rhs).max() < 1e-10
    v0 = low.gradient @ q0
    lhs = high.curl @ (ext.matrix("Xcurl") @ v0)
    rhs = ext.matrix("Xdiv") @ (low.curl @ v0)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_zero_reduction_bases_are_kernels():
    for high in (complex_for("ring", 2), complex_for("graded", 2)):
        for space in SPACES:
            basis = zero_reduction_basis(high, space).toarray()
            red = reduction_matrix(high, space).toarray()
            assert np.abs(red @ basis).max() < 1e-13
            lay = high.layout(space)
            assert basis.shape == (lay.total, lay.total - red.shape[0])
            assert np.linalg.matrix_rank(basis) == basis.shape[1]


@pytest.mark.parametrize("name,k", [("ring", 1), ("ring", 2), ("cavity", 1),
                                    ("cavity", 2), ("cube", 2)])
def test_zero_reduction_subcomplex_exact(name, k):
    high = complex_for(name, k)
    bg = zero_reduction_basis(high, "Xgrad").toarray()
    bc = zero_reduction_basis(high, "Xcurl").toarray()
    bd = zero_reduction_basis(high, "Xdiv").toarray()
    bp = zero_reduction_basis(high, "Pk").toarray()
    rg = numeric_rank(high.gradient @ bg).rank
    rc = numeric_rank(high.curl @ bc).rank
    rd = numeric_rank(high.divergence @ bd).rank
    assert rg == bg.shape[1]                    # injective head
    assert bc.shape[1] - rc == rg               # ker = im at the curl stage
    assert bd.shape[1] - rd == rc               # ker = im at the div stage
    assert rd == bp.shape[1]                    # onto the zero-mean tail


@pytest.mark.parametrize("name,k,index,count", [
    ("cube", 2, 1, 0), ("cube", 2, 2, 0),
    ("ring", 1, 1, 1), ("ring", 2, 1, 1), ("ring", 1, 2, 0),
    ("cavity", 1, 2, 1), ("cavity", 1, 1, 0)])
def test_lift_generators(name, k, index, count):
    high = complex_for(name, k)
    low = complex_for(name, 0)
    lifted = lift_generators(high, low, index)
    assert len(lifted.vectors) == count
    assert lifted.space == ("Xcurl" if index == 1 else "Xdiv")
    incoming, outgoing = ((high.gradient, high.curl), (high.curl, high.divergence))[index - 1]
    for vec, cert in zip(lifted.vectors, lifted.certificates):
        assert np.linalg.norm(outgoing @ vec) <= 1e-9 * np.linalg.norm(vec)
        assert set(cert) == {"kernel_residual"}
    # the dense reference: the lifts are independent modulo the incoming image
    ranked, expected = dense_rank_raise(incoming, lifted.vectors)
    assert ranked == expected


@pytest.mark.parametrize("index", [True, 1.0, 1.5, 2.0])
def test_lift_generators_rejects_a_non_integer_index(index):
    with pytest.raises(DomainError, match=f"^cohomology index {re.escape(repr(index))} "
                                          "is not an integer$"):
        lift_generators(complex_for("ring", 1), complex_for("ring", 0), index)


def test_lift_generators_stores_a_numpy_index_as_an_integer():
    lifted = lift_generators(complex_for("ring", 1), complex_for("ring", 0), np.int64(1))
    assert type(lifted.index) is int and lifted.index == 1 and len(lifted.vectors) == 1


@pytest.mark.parametrize("index", [1, 2])
def test_lift_without_generators_builds_nothing(monkeypatch, index):
    # b1 = b2 = 0 on the cube: no extension matrix is needed
    import ddrcomplex.lifting as lifting

    def unexpected(*args, **kwargs):
        raise AssertionError("extension built without generators")

    monkeypatch.setattr(lifting.ExtensionMaps, "matrix", unexpected)
    lifted = lift_generators(complex_for("cube", 1), complex_for("cube", 0), index)
    assert (lifted.vectors, lifted.certificates) == ((), ())
    assert lifted.space == ("Xcurl" if index == 1 else "Xdiv")


@pytest.mark.parametrize("k", [1, 2])
def test_potentials_reproduce_extended_constant_fields(k):
    # extending constant tangential/flux data and reconstructing the potential
    # must return the constant field (degree-0 consistency carried to degree k)
    high = complex_for("cube", k)
    ext = extensions_for("cube", k)
    mesh, orient = mesh_and_orientation("cube")
    const = np.asarray([0.3, -0.7, 1.1])
    rule = high.rule("cell", 0)
    basis = entity_basis(high.mesh, high.orient, "cell", 0, k, vector=True)

    vk = ext.matrix("Xcurl") @ (orient.edge_tangent @ const)
    ops = high.cell_curl_ops(0)
    vals = np.einsum("pax,a->px", basis.eval_vector(rule.points),
                     ops.potential @ vk[ops.globals])
    assert np.abs(vals - const[None, :]).max() < 1e-11

    wk = ext.matrix("Xdiv") @ (orient.face_normal @ const)
    dops = high.cell_div_ops(0)
    vals = np.einsum("pax,a->px", basis.eval_vector(rule.points),
                     dops.potential @ wk[dops.globals])
    assert np.abs(vals - const[None, :]).max() < 1e-11


def test_generator_family_reuses_the_session(monkeypatch):
    # the cochain complex and each extension matrix are built once per verify run
    import ddrcomplex.lifting as lifting
    import ddrcomplex.verification as verification
    from ddrcomplex import run_all

    cochains, extensions = [], []
    build = verification.build_cochain_complex
    matrix = lifting.ExtensionMaps.matrix

    def counting_build(mesh, orient):
        cochains.append(1)
        return build(mesh, orient)

    def counting_matrix(self, space):
        if space not in self._cache:
            extensions.append(space)
        return matrix(self, space)

    monkeypatch.setattr(verification, "build_cochain_complex", counting_build)
    monkeypatch.setattr(lifting, "build_cochain_complex", counting_build)
    monkeypatch.setattr(lifting.ExtensionMaps, "matrix", counting_matrix)
    mesh, orient = mesh_and_orientation("ring")
    report = run_all(mesh, orient, 1, ["cochain", "generators"])
    assert report.passed and len(report.generators) == 1
    assert len(cochains) == 1
    assert sorted(extensions) == ["Pk", "Xcurl", "Xdiv", "Xgrad"]


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9,
                                 True, "1e-9", None, [1e-9]])
def test_lift_rejects_a_kernel_tolerance_that_certifies_nothing(tol):
    # a NaN tolerance used to certify every generator: rel > NaN is False; a
    # bool is not a tolerance, and a string, None or a list is not a number
    with pytest.raises(DomainError, match="kernel_tol must be finite and positive"):
        lift_generators(complex_for("ring", 1), complex_for("ring", 0), 1, kernel_tol=tol)


def test_lift_fails_a_nan_residual():
    # an extension poisoned with NaN gives a NaN kernel residual, which is not
    # below any tolerance
    high, low = complex_for("ring", 1), complex_for("ring", 0)
    ext = ExtensionMaps(high, low)
    good = ext.matrix("Xcurl")
    ext._cache["Xcurl"] = CsrMatrix(good.shape, good.indptr, good.indices,
                                    np.full_like(good.data, np.nan))
    with pytest.raises(CertificationError, match="kernel residual nan above"):
        lift_generators(high, low, 1, ext=ext)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("scale,cause", [(0.0, "zero lift"), (1e200, "lift of infinite norm")])
def test_lift_fails_a_zero_or_infinite_lift(scale, cause):
    # a zero lift has kernel residual 0 and used to be certified; a lift
    # whose norm overflows would have residual inf / inf
    high, low = complex_for("ring", 1), complex_for("ring", 0)
    ext = ExtensionMaps(high, low)
    good = ext.matrix("Xcurl")
    ext._cache["Xcurl"] = CsrMatrix(good.shape, good.indptr, good.indices, scale * good.data)
    with pytest.raises(CertificationError, match=f"^lifted generator 0: {cause}$"):
        lift_generators(high, low, 1, ext=ext)


def test_verify_names_a_zero_lift(monkeypatch, capsys):
    # the battery runs on, exits 1, and its generators.h1 row names the cause
    import ddrcomplex.lifting as lifting
    from ddrcomplex import run_all
    from ddrcomplex.cli import main

    matrix = lifting.ExtensionMaps.matrix

    def zero_curl(self, space):
        mat = matrix(self, space)
        return CsrMatrix.from_coo(mat.shape, [], [], []) if space == "Xcurl" else mat

    monkeypatch.setattr(lifting.ExtensionMaps, "matrix", zero_curl)
    report = run_all(*mesh_and_orientation("ring"), 1, ["generators"])
    rows = {c.name: c for c in report.checks}
    assert not report.passed and rows["generators.h2"].passed
    assert rows["generators.h1"].error == "CertificationError: lifted generator 0: zero lift"
    assert main(["verify", "--builtin", "ring", "--degree", "1", "--checks", "generators"]) == 1
    assert "lifted generator 0: zero lift" in capsys.readouterr().out


def test_lift_rejects_extensions_of_other_complexes():
    with pytest.raises(DomainError, match="extension maps"):
        lift_generators(complex_for("ring", 1), complex_for("ring", 0), 1,
                        ext=extensions_for("ring", 2))


@pytest.mark.parametrize("mesh,other", [("ring", "cube"), ("cube", "ring")])
def test_lift_rejects_a_cochain_complex_of_another_mesh(mesh, other):
    # the cube's complex on the ring used to give no generator (b1 = 1 there),
    # the ring's on the cube a numpy ValueError
    cochain = build_cochain_complex(*mesh_and_orientation(other))
    with pytest.raises(DomainError, match="cochain complex of another mesh"):
        lift_generators(complex_for(mesh, 1), complex_for(mesh, 0), 1, cochain=cochain)
