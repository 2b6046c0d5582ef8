"""Polynomial subspace dimensions, exact calculus, Gram/projection behaviour."""

from fractions import Fraction

import numpy as np
import pytest

from ddrcomplex import DomainError, space_dim
from ddrcomplex import monomials as mono
from ddrcomplex.monomials import frac_rank, to_float
from ddrcomplex.spaces import gram_matrix, project_columns

from conftest import complex_for, mesh_and_orientation


def test_space_dim_examples():
    assert space_dim("P", 2, 1) == 3          # 1, s, s^2
    assert space_dim("R", 0, 3) == 3
    assert space_dim("Gc", 1, 3) == 3
    assert space_dim("P", -1, 3) == 0
    assert space_dim("Rc", 0, 2) == 0
    assert space_dim("G", 1, 2) == 5
    with pytest.raises(DomainError):
        space_dim("R", 1, 1)
    with pytest.raises(DomainError):
        space_dim("bogus", 1, 3)


@pytest.mark.parametrize("kind,dim", [("G", 2), ("Gc", 2), ("R", 2), ("Rc", 2),
                                      ("G", 3), ("Gc", 3), ("R", 3), ("Rc", 3)])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_subspace_dimensions(kind, dim, degree):
    c = complex_for("cube", 1)
    entity = ("face", 0) if dim == 2 else ("cell", 0)
    sub = c.subspace(kind, entity, degree)
    assert sub.dim == space_dim(kind, degree, dim)
    if sub.dim:
        assert frac_rank(sub.coeffs) == sub.dim  # exact independence


@pytest.mark.parametrize("entity", [("face", 0), ("cell", 0)])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_complementary_pairs_span_ambient(entity, degree):
    c = complex_for("cube", 1)
    dim = 2 if entity[0] == "face" else 3
    full = dim * space_dim("P", degree, dim)
    for a, b in (("R", "Rc"), ("G", "Gc")):
        sa = c.subspace(a, entity, degree)
        sb = c.subspace(b, entity, degree)
        assert sa.dim + sb.dim == full
        stacked = np.concatenate([sa.coeffs, sb.coeffs], axis=1)
        assert frac_rank(stacked) == full


def test_rc_face_degree_one_is_koszul_field():
    # Rc^1(F) = (x - x_F) P^0(F): single column (y1, y2) in frame coordinates
    c = complex_for("cube", 1)
    sub = c.subspace("Rc", ("face", 0), 1)
    assert sub.dim == 1
    amb = sub.ambient
    pts = amb.center[None, :] + 0.3 * amb.frame[0][None, :] + 0.1 * amb.frame[1][None, :]
    vals = sub.eval_vector(pts)[0, 0]
    expected = (0.3 * amb.frame[0] + 0.1 * amb.frame[1]) / amb.length
    assert np.abs(vals - expected).max() < 1e-13


def test_differential_examples_exact():
    # physical derivatives are the scaled-coordinate matrices times 1/h
    c = complex_for("cube", 1)
    h = Fraction(float(c.basis("cell", 0, 1).length))
    coeffs = np.full(4, Fraction(0), dtype=object)
    coeffs[1] = Fraction(1)                       # the monomial y1 = (x - x_T)_1 / h
    out = mono.grad_matrix(3, 1) @ coeffs / h
    assert out[0] == 1 / h and out[1] == 0 and out[2] == 0
    # div of the Koszul field x - x_T = h * (y1, y2, y3): exactly 3
    koszul = np.full(12, Fraction(0), dtype=object)
    koszul[1] = h      # y1 in component 1
    koszul[4 + 2] = h  # y2 in component 2
    koszul[8 + 3] = h  # y3 in component 3
    out = mono.div_matrix(3, 1) @ koszul / h
    assert out[0] == 3 and all(x == 0 for x in out[1:])


def test_vrot_of_first_frame_coordinate():
    # vrot(s1) = (grad s1)^perp = (0, -1) in the oriented frame
    c = complex_for("cube", 1)
    h = Fraction(float(c.basis("face", 0, 1).length))
    coeffs = np.full(3, Fraction(0), dtype=object)
    coeffs[1] = h                                  # s1 = h * y1
    out = mono.vrot_matrix(1) @ coeffs / h
    assert np.allclose(to_float(out), [0.0, -1.0])


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_composition_identities_exact(degree):
    # unit coefficient vectors, so each product is a column of the composition
    curl_grad = mono.curl_matrix(degree - 1) @ mono.grad_matrix(3, degree)
    assert all(x == 0 for x in curl_grad.ravel())  # curl(grad) = 0 exactly
    div_curl = mono.div_matrix(3, degree - 1) @ mono.curl_matrix(degree)
    assert all(x == 0 for x in div_curl.ravel())   # div(curl) = 0 exactly


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bijective_pairings(k):
    """div_F: Rc^k -> P^(k-1), vrot: P^{0,k} -> R^(k-1), grad: P^{0,k} -> G^(k-1),
    curl: Gc^k -> R^(k-1) are square full-rank pairings."""
    from ddrcomplex import monomials as mono

    c = complex_for("cube", k)
    f, t = ("face", 0), ("cell", 0)

    sub = c.subspace("Rc", f, k)
    div = to_float(mono.div_matrix(2, k)) @ sub.coeffs_float
    assert np.linalg.matrix_rank(div) == div.shape[1] == space_dim("P", k - 1, 2)

    p0 = c.subspace("P0", f, k)
    vrot = to_float(mono.vrot_matrix(k)) @ p0.coeffs_float
    assert np.linalg.matrix_rank(vrot) == space_dim("R", k - 1, 2) == vrot.shape[1]

    p0t = c.subspace("P0", t, k)
    grad = to_float(mono.grad_matrix(3, k)) @ p0t.coeffs_float
    assert np.linalg.matrix_rank(grad) == space_dim("G", k - 1, 3) == grad.shape[1]

    gc = c.subspace("Gc", t, k)
    curl = to_float(mono.curl_matrix(k)) @ gc.coeffs_float
    assert np.linalg.matrix_rank(curl) == space_dim("R", k - 1, 3) == gc.dim


def test_gram_spd_and_projection_idempotent():
    c = complex_for("cube", 2)
    rule = c.rule("cell", 0)
    basis = c.basis("cell", 0, 2)
    gram = gram_matrix(basis, basis, rule)
    assert np.abs(gram - gram.T).max() < 1e-14
    assert np.linalg.eigvalsh(gram).min() > 0

    # projecting a member of the subspace returns identical coefficients
    sub = c.subspace("R", ("cell", 0), 1)
    vg = c.gram("cell", 0, 1, 1, vector=True)
    member = sub.coeffs_float @ np.arange(1.0, sub.dim + 1)
    alpha = project_columns(sub, vg, vg, member[:, None])
    assert np.abs(alpha.ravel() - np.arange(1.0, sub.dim + 1)).max() < 1e-12


def test_mean_projection_on_unit_edge():
    # mean of the arc-length coordinate over an edge of the unit cube
    mesh, orient = mesh_and_orientation("cube")
    c = complex_for("cube", 1)
    rule = c.rule("edge", 0)
    svals = (rule.points - mesh.vertices[mesh.edges[0][0]]) @ orient.edge_tangent[0]
    mean = (rule.weights * svals).sum() / orient.edge_length[0]
    assert abs(mean - 0.5) < 1e-14


def test_p0_basis_has_zero_mean():
    c = complex_for("cube", 1)
    for entity in (("face", 0), ("cell", 0)):
        sub = c.subspace("P0", entity, 2)
        rule = c.rule(*entity)
        vals = sub.ambient.eval(rule.points) @ sub.coeffs_float
        means = rule.integrate(vals) / rule.measure
        assert np.abs(means).max() < 1e-14


def test_singular_gram_raises_conditioning_error():
    from ddrcomplex import ConditioningError
    from ddrcomplex.spaces import checked_solve
    singular = np.asarray([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ConditioningError):
        checked_solve(singular, np.eye(2), "test system")

