"""The sparse exact elimination against a dense fraction-free Bareiss reference.

Both scan columns left to right, so their pivot columns are the leftmost
independent columns whichever rows they choose, and the kernel vector of a
free column (primitive, positive there, zero at the other free columns) is
unique.  Ranks, pivot columns, kernel bases, generator selections and the
column picks of the exact subspace bases must therefore be equal, not just
equivalent.
"""

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ddrcomplex import (
    build_cochain_complex,
    build_voxel_mesh,
    builtin_pattern,
    cohomology_generators,
    compute_orientation,
    homology,
    load_mesh,
    mesh_from_document,
    spaces,
)

from conftest import graded_block, voxel_patterns
from test_general_meshes import prism_pair

ROOT = Path(__file__).resolve().parent.parent


def bareiss(mat, reduce=False):
    """Dense fraction-free elimination: the eliminated rows and the pivot
    columns, taking the first nonzero row of each column as its pivot."""
    a = [[int(x) for x in row] for row in np.asarray(mat).tolist()]
    pivots = []
    prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        row, p = a[r], a[r][c]
        for i in range(len(a)) if reduce else range(r + 1, len(a)):
            if i == r:
                continue
            f = a[i][c]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
            elif p != prev:
                a[i] = [p * x // prev for x in a[i]]
        prev = p
        pivots.append(c)
    return a, pivots


def bareiss_kernel(mat):
    """One primitive integer vector per free column, by Gauss-Jordan."""
    a, pivots = bareiss(mat, reduce=True)
    n = np.asarray(mat).shape[1]
    d = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        vec = [0] * n
        vec[free] = d
        for row, c in zip(a, pivots):
            vec[c] = -row[free]
        g = math.gcd(*vec) if d > 0 else -math.gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


def bareiss_generators(cc, i):
    """The kernel vectors of d_i that are pivots of [d_(i-1) | kernel]."""
    d_in, d_out = (cc.boundary(j).toarray().astype(np.int64) for j in (i - 1, i))
    kernel = bareiss_kernel(d_out)
    if len(kernel) - len(bareiss(d_in)[1]) <= 0:
        return []
    n = d_in.shape[1]
    stacked = np.concatenate([d_in, np.asarray(kernel, dtype=object).T], axis=1)
    return [kernel[j - n] for j in bareiss(stacked)[1] if j >= n]


def dense(vec, n):
    out = [0] * n
    for j, v in vec.items():
        out[j] = v
    return out


def assert_matches_bareiss(mat):
    """Rank, pivot columns and kernel basis of one integer matrix."""
    rows, n = homology._integer_rows(mat)
    ech = homology._eliminate(rows, n)
    _, pivots = bareiss(mat)
    assert list(ech.pivots) == pivots
    assert homology.integer_rank(mat) == len(pivots)
    free = sorted(set(range(n)) - set(ech.pivots))
    assert [dense(ech.kernel_vector(f), n) for f in free] == bareiss_kernel(mat)


def assert_complex_matches_bareiss(mesh):
    cc = build_cochain_complex(mesh, compute_orientation(mesh))
    for i in (0, 1, 2):
        d = cc.boundary(i).toarray().astype(np.int64)
        assert_matches_bareiss(d)
        assert list(cc.echelon(i).pivots) == bareiss(d)[1]
    for i in (1, 2):
        assert [g.tolist() for g in cohomology_generators(cc, i)] == bareiss_generators(cc, i)


def voxel(shape, removed):
    pattern = np.ones(shape, dtype=bool)
    for cell in removed:
        pattern[cell] = False
    return build_voxel_mesh(pattern)


NAMED = {
    "cube": lambda: build_voxel_mesh(builtin_pattern("cube")),
    "ring": lambda: build_voxel_mesh(builtin_pattern("ring")),
    "cavity": lambda: build_voxel_mesh(builtin_pattern("cavity")),
    "graded": lambda: graded_block(3, cavity=True)[0],
    "prism_pair": prism_pair,
    "sheared_ring": lambda: load_mesh(str(ROOT / "tools" / "meshes" / "sheared_ring.json")),
    # two, three tunnels through a slab; two cavities in a block
    "b1_2": lambda: voxel((5, 3, 1), [(1, 1, 0), (3, 1, 0)]),
    "b1_3": lambda: voxel((7, 3, 1), [(1, 1, 0), (3, 1, 0), (5, 1, 0)]),
    "b2_2": lambda: voxel((5, 3, 3), [(1, 1, 1), (3, 1, 1)]),
}


@pytest.mark.parametrize("name", NAMED)
def test_elimination_matches_bareiss_on_named_meshes(name):
    assert_complex_matches_bareiss(NAMED[name]())


def test_elimination_matches_bareiss_on_voxel_patterns():
    @given(voxel_patterns())
    @example(builtin_pattern("ring"))
    def check(pattern):
        assert_complex_matches_bareiss(build_voxel_mesh(pattern))

    check()


def test_elimination_matches_bareiss_on_workload_meshes():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for seed in range(1, 11):
        for workload in WORKLOADS.values():
            for make in (workload.make, workload.probe):
                assert_complex_matches_bareiss(mesh_from_document(make(random.Random(seed)).doc))


@st.composite
def integer_matrices(draw):
    """Up to 6x6, a rank-2 product of small integers plus, half the time,
    small noise: non-unit pivots, dependent columns and cancellations."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))

    def block(r, c):
        entries = draw(st.lists(st.integers(-3, 3), min_size=r * c, max_size=r * c))
        return np.asarray(entries, dtype=np.int64).reshape(r, c)

    return block(m, 2) @ block(2, n) + draw(st.integers(0, 1)) * block(m, n)


@settings(max_examples=200)
@given(integer_matrices())
@example(np.asarray([[2, 4, 1], [3, 6, 5]]))
def test_elimination_matches_bareiss_on_integer_matrices(mat):
    assert_matches_bareiss(mat)


def test_span_column_picks_match_bareiss(monkeypatch):
    seen = []
    original = spaces._pivot_columns

    def recording(mat):
        picks = original(mat)
        seen.append((np.array(mat), picks))
        return picks

    monkeypatch.setattr(spaces, "_pivot_columns", recording)
    spaces.span_matrix.cache_clear()
    try:
        for kind, dims in (("G", (2, 3)), ("R", (2, 3)), ("Gc", (2, 3)), ("Rc", (2, 3))):
            for dim in dims:
                for degree in range(4):
                    spaces.span_matrix(kind, dim, degree)
    finally:
        spaces.span_matrix.cache_clear()
    assert len(seen) > 20
    for mat, picks in seen:
        assert list(picks) == bareiss(mat)[1]
