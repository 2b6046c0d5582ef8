"""Integer cochain complex, exact ranks, Betti numbers, generators, measure scalings."""

import collections
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given

from ddrcomplex import (
    DdrError,
    DomainError,
    betti_numbers,
    build_cochain_complex,
    build_voxel_mesh,
    builtin_pattern,
    cohomology_generators,
    compute_orientation,
    corrupt_orientation,
    homology,
    integer_rank,
    lifting,
    load_mesh,
    run_all,
    verification,
)
from ddrcomplex.cli import main

from conftest import complex_for, mesh_and_orientation, voxel_patterns


def test_coboundary_shapes_and_rows(cube):
    mesh, orient = cube
    cc = build_cochain_complex(mesh, orient)
    assert cc.d0.shape == (12, 8)
    d0 = cc.d0.toarray()
    assert ((d0 == 1).sum(axis=1) == 1).all()
    assert ((d0 == -1).sum(axis=1) == 1).all()
    d1, d2 = cc.d1.toarray(), cc.d2.toarray()
    assert not (d1 @ d0).any() and not (d2 @ d1).any()


@pytest.mark.parametrize("index", [True, 1.0, 1.5])
def test_coboundary_and_cohomology_indices_must_be_integers(ring, index):
    cc = build_cochain_complex(*ring)
    with pytest.raises(DomainError, match=f"^coboundary index {re.escape(repr(index))} "
                                          "is not an integer$"):
        cc.boundary(index)
    with pytest.raises(DomainError, match=f"^cohomology index {re.escape(repr(index))} "
                                          "is not an integer$"):
        cohomology_generators(cc, index)


def test_numpy_integer_indices_are_accepted(ring):
    cc = build_cochain_complex(*ring)
    assert cc.boundary(np.int64(1)) is cc.d1
    [got] = cohomology_generators(cc, np.int64(1))
    [want] = cohomology_generators(cc, 1)
    assert np.array_equal(got, want)


def test_cube_integer_ranks(cube):
    mesh, orient = cube
    cc = build_cochain_complex(mesh, orient)
    assert (integer_rank(cc.d0), integer_rank(cc.d1), integer_rank(cc.d2)) == (7, 5, 1)


def test_integer_rank_basics():
    assert integer_rank(np.eye(3, dtype=int)) == 3
    assert integer_rank(np.zeros((4, 5), dtype=int)) == 0
    # large-entry matrix exercises arbitrary-precision arithmetic
    big = np.asarray([[10 ** 12, 1], [1, 10 ** 12]], dtype=object)
    assert integer_rank(big) == 2
    # integral floats are integers; any other entry is refused, not truncated
    assert integer_rank(np.asarray([[1.0, 2.0], [2.0, 4.0]])) == 1
    for bad in ([[0.5]], [[0.5, 0.0], [0.0, 1.0]], [[np.nan]], [[np.inf]]):
        with pytest.raises(DomainError):
            integer_rank(np.asarray(bad))


@pytest.mark.parametrize("shape", [(2,), (), (2, 2, 2)])
def test_integer_rank_names_the_shape_of_a_non_matrix(shape):
    with pytest.raises(DomainError, match=re.escape(f"needs a 2-D matrix, got shape {shape}")):
        integer_rank(np.ones(shape, dtype=int))


@pytest.mark.parametrize("name,expected", [
    ("cube", (1, 0, 0, 0)), ("ring", (1, 1, 0, 0)), ("cavity", (1, 0, 1, 0))])
def test_betti_numbers(name, expected):
    mesh, orient = mesh_and_orientation(name)
    b = betti_numbers(build_cochain_complex(mesh, orient))
    assert b == expected
    assert b.b0 - b.b1 + b.b2 - b.b3 == mesh.euler_characteristic


def test_generators_cube_empty(cube):
    mesh, orient = cube
    cc = build_cochain_complex(mesh, orient)
    assert cohomology_generators(cc, 1) == []
    assert cohomology_generators(cc, 2) == []


def test_generator_ring_h1(ring):
    mesh, orient = ring
    cc = build_cochain_complex(mesh, orient)
    gens = cohomology_generators(cc, 1)
    assert len(gens) == 1
    g = gens[0]
    assert np.abs(cc.d1 @ g).max() == 0
    stacked = np.concatenate([cc.d0.toarray(), g[:, None]], axis=1)
    assert integer_rank(stacked) == integer_rank(cc.d0) + 1


def test_empty_generator_selection_needs_no_certifying_rank(ring, monkeypatch, tmp_path):
    # every elimination is recorded by the shape of the matrix it eliminates
    calls = []
    original = homology._eliminate

    def counting(rows, ncols):
        calls.append((len(rows), ncols))
        return original(rows, ncols)

    monkeypatch.setattr(homology, "_eliminate", counting)
    mesh, orient = ring
    # b2 = 0 on a fresh complex: the eliminations of d2 and d1 settle it
    cc = build_cochain_complex(mesh, orient)
    assert cohomology_generators(cc, 2) == []
    assert calls == [cc.d2.shape, cc.d1.shape]

    # after the Betti numbers, h2 costs no elimination, and h1 only the
    # selection from [d0 | I] on the free rows of d1 and its certificate
    # [d0 | generator]
    cc = build_cochain_complex(mesh, orient)
    betti_numbers(cc)
    calls.clear()
    assert cohomology_generators(cc, 2) == []
    assert calls == []
    assert len(cohomology_generators(cc, 1)) == 1
    (v, e, _, _), kernel_dim = cc.counts, cc.d1.shape[1] - cc.echelon(1).rank
    assert calls == [(kernel_dim, v + kernel_dim), (e, v + 1)]

    # a whole ``cohomology --generators`` session eliminates each coboundary once
    calls.clear()
    assert main(["cohomology", "--builtin", "ring", "--degree", "0", "--no-timestamp",
                 "--generators", str(tmp_path / "g.vtk"), "--out", str(tmp_path / "r.json")]) == 0
    shapes = collections.Counter(calls)
    assert [shapes[d.shape] for d in (cc.d0, cc.d1, cc.d2)] == [1, 1, 1]


@pytest.mark.parametrize("name, index", [("double_ring", 1), ("double_cavity", 2)])
def test_selection_back_substitutes_only_the_generators(name, index, monkeypatch):
    # b_i = 2 of many free columns: only the two selected kernel vectors are built
    mesh = load_mesh(str(Path(__file__).resolve().parent.parent / "tools" / "meshes"
                         / f"{name}.json"))
    cc = build_cochain_complex(mesh, compute_orientation(mesh))
    betti = betti_numbers(cc)
    assert betti[index] == 2 and cc.counts[index] - cc.echelon(index).rank > 2
    built = []
    original = homology.Echelon.kernel_vector

    def counting(self, free):
        built.append(free)
        return original(self, free)

    monkeypatch.setattr(homology.Echelon, "kernel_vector", counting)
    assert len(cohomology_generators(cc, index)) == 2
    assert len(built) == 2


def test_generator_cavity_h2(cavity):
    mesh, orient = cavity
    cc = build_cochain_complex(mesh, orient)
    gens = cohomology_generators(cc, 2)
    assert len(gens) == 1
    g = gens[0]
    assert np.abs(cc.d2 @ g).max() == 0
    stacked = np.concatenate([cc.d1.toarray(), g[:, None]], axis=1)
    assert integer_rank(stacked) == integer_rank(cc.d1) + 1


def test_elimination_against_sympy_on_voxel_patterns():
    sympy = pytest.importorskip("sympy")

    def rank(mat):
        return sympy.Matrix(mat).rank()

    ring = builtin_pattern("ring")
    tunnel = np.concatenate([ring, ring], axis=2)

    @given(voxel_patterns())
    @example(ring)
    @example(tunnel)
    @example(np.concatenate([ring, np.ones_like(ring)], axis=2))   # a dent, no tunnel
    def check(pattern):
        mesh = build_voxel_mesh(pattern)
        cc = build_cochain_complex(mesh, compute_orientation(mesh))
        for d in (cc.d0, cc.d1, cc.d2):
            assert integer_rank(d) == rank(d.toarray().astype(np.int64))
        betti = betti_numbers(cc)
        assert betti.b0 - betti.b1 + betti.b2 - betti.b3 == mesh.euler_characteristic
        for i in (1, 2):
            gens = cohomology_generators(cc, i)
            assert len(gens) == betti[i]
            d_in, d_out = (cc.boundary(j).toarray().astype(np.int64) for j in (i - 1, i))
            for g in gens:
                assert not np.any(d_out @ g)
            if gens:
                stacked = np.concatenate([d_in, np.asarray(gens).T], axis=1)
                assert rank(stacked) == rank(d_in) + len(gens)

    check()


def test_generators_and_lifts_share_one_betti_computation(ring, monkeypatch):
    calls = collections.Counter()
    for module in (homology, lifting, verification):
        original = module.betti_numbers

        def counting(cc, _original=original, _name=module.__name__):
            calls[_name] += 1
            return _original(cc)

        monkeypatch.setattr(module, "betti_numbers", counting)
    mesh, orient = ring
    report = run_all(mesh, orient, 1, ["cohomology", "generators"])
    assert report.passed
    assert sum(calls.values()) == 1


def test_de_rham_map_quarter_edge():
    # a degree-0 edge value times the edge's measure is its cochain
    mesh = build_voxel_mesh(builtin_pattern("cube"), h=0.25)
    orient = compute_orientation(mesh)
    assert np.abs(orient.geometry("edge").measure - 0.25).max() < 1e-15


def test_de_rham_roundtrip(ring):
    mesh, orient = ring
    rng = np.random.default_rng(11)
    for n, kind in zip(mesh.counts, ("vertex", "edge", "face", "cell")):
        measure = orient.geometry(kind).measure
        assert measure.shape == (n,)
        v = rng.standard_normal(n)
        assert np.array_equal(v * measure / measure, v)  # exact for these measures
    assert np.array_equal(orient.geometry("vertex").measure, np.ones(mesh.n_vertices))


@pytest.mark.parametrize("name", ["cube", "ring", "cavity"])
def test_diagram_commutation(name):
    mesh, orient = mesh_and_orientation(name)
    c0 = complex_for(name, 0)
    cc = build_cochain_complex(mesh, orient)
    kc, kd, kp = (np.diag(orient.geometry(kind).measure) for kind in ("edge", "face", "cell"))
    G0, C0, D0 = (m.toarray() for m in (c0.gradient, c0.curl, c0.divergence))
    d0, d1, d2 = (d.toarray() for d in (cc.d0, cc.d1, cc.d2))
    assert np.abs(kc @ G0 - d0).max() < 1e-13
    assert np.abs(kd @ C0 - d1 @ kc).max() < 1e-13
    assert np.abs(kp @ D0 - d2 @ kd).max() < 1e-13
    assert np.abs(c0.head_column - 1.0).max() == 0.0  # kappa_grad I0 = i_R


def test_flipped_sign_breaks_cochain_build(cube):
    mesh, orient = cube
    bad = corrupt_orientation(orient, "omega_tf:0:2")
    with pytest.raises(DdrError):
        build_cochain_complex(mesh, bad)


@pytest.mark.parametrize("fault", ["omega_fe", "omega_tf:3:2", "edge_length"])
def test_composition_check_on_each_closure(ring, fault):
    # a flipped face-edge sign breaks d1 d0 = 0 on that face's closure, a
    # flipped element-face sign d2 d1 = 0 on that element's; a length does
    # not enter the coboundaries
    mesh, orient = ring
    bad = corrupt_orientation(orient, fault)
    if fault == "edge_length":
        assert betti_numbers(build_cochain_complex(mesh, bad)) == (1, 1, 0, 0)
        return
    with pytest.raises(DdrError, match="^coboundary composition is nonzero: "
                                       "inconsistent orientation data$"):
        build_cochain_complex(mesh, bad)


def test_voxel_family_draws_holes():
    # the draws the property tests see include domains with a tunnel, so
    # their cross-checks meet nonzero cohomology
    drawn = []

    @given(voxel_patterns())
    def collect(pattern):
        mesh = build_voxel_mesh(pattern)
        betti = betti_numbers(build_cochain_complex(mesh, compute_orientation(mesh)))
        drawn.append((pattern.shape, betti))

    collect()
    assert any(b1 >= 1 for _, (_, b1, _, _) in drawn), drawn
