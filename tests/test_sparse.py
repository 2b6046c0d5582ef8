"""The numpy CSR class of the global operators, against dense and scipy oracles."""

import tracemalloc

import numpy as np
import pytest

from ddrcomplex.sparse import CsrMatrix, block_product

from conftest import complex_for

SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (6, 5), (9, 13), (40, 30)]
SEEDS = [0, 1, 2]


def random_coo(rng, shape, density=0.25, repeat=0.3, multiple=True):
    """Triplets with empty rows, explicit (also negative) zeros and repeated keys.

    With ``multiple`` a key may appear any number of times; without, a key
    appears at most twice.
    """
    m, n = shape
    if not m or not n:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    filled = rng.permutation(m)[:max(1, (2 * m) // 3)]       # the other rows stay empty
    count = max(1, int(density * m * n))
    rows, cols = rng.choice(filled, count), rng.integers(0, n, count)
    if not multiple:
        keys = np.unique(rows * n + cols)
        rows, cols = keys // n, keys % n
    again = rng.random(len(rows)) < repeat
    rows = np.concatenate([rows, rows[again]])
    cols = np.concatenate([cols, cols[again]])
    vals = rng.standard_normal(len(rows))
    vals[rng.random(len(vals)) < 0.1] = 0.0
    vals[rng.random(len(vals)) < 0.05] = -0.0
    order = rng.permutation(len(rows))
    return rows[order], cols[order], vals[order]


def random_csr(rng, shape, **kw):
    return CsrMatrix.from_coo(shape, *random_coo(rng, shape, **kw))


def ascending(rng, n, shape):
    """Columns for gathers: ``shape[-1]`` (at most ``n``) distinct columns
    below ``n`` per block, ascending, with leading axes ``shape[:-1]``."""
    lead, count = shape[:-1], min(shape[-1], n)
    draws = [np.sort(rng.permutation(n)[:count]) for _ in range(int(np.prod(lead)))]
    return np.asarray(draws, dtype=int).reshape(*lead, count)


def dense_of(shape, rows, cols, vals):
    out = np.zeros(shape)
    np.add.at(out, (rows, cols), vals)
    return out


def loop_product(a: CsrMatrix, b) -> np.ndarray:
    """Dense ``a @ b`` by loops: each entry adds its products one at a time, from 0."""
    b = b.toarray() if isinstance(b, CsrMatrix) else np.asarray(b, dtype=float)
    out = np.zeros((a.shape[0],) + b.shape[1:])
    for i in range(a.shape[0]):
        for p in range(a.indptr[i], a.indptr[i + 1]):
            out[i] += a.data[p] * b[a.indices[p]]
    return out


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- dense oracle --------------------------------------------------------------

@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_from_coo_sums_duplicates(shape, seed):
    rows, cols, vals = random_coo(np.random.default_rng(seed), shape)
    mat = CsrMatrix.from_coo(shape, rows, cols, vals)
    assert mat.shape == shape
    assert np.array_equal(mat.toarray(), dense_of(shape, rows, cols, vals))
    assert mat.nnz == len(np.unique(rows * shape[1] + cols)) == len(mat.indices)
    assert len(mat.indptr) == shape[0] + 1 and mat.indptr[-1] == mat.nnz
    for i in range(shape[0]):
        assert np.all(np.diff(mat.indices[mat.indptr[i]:mat.indptr[i + 1]]) > 0)


def test_from_coo_keeps_explicit_zeros_and_rejects_bad_triplets():
    mat = CsrMatrix.from_coo((2, 3), [0, 0, 1], [2, 2, 0], [1.0, -1.0, 0.0])
    assert mat.nnz == 2
    assert mat.toarray().tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    with pytest.raises(ValueError):
        CsrMatrix.from_coo((2, 3), [2], [0], [1.0])
    with pytest.raises(ValueError):
        CsrMatrix.from_coo((2, 3), [0], [-1], [1.0])
    with pytest.raises(ValueError):
        CsrMatrix.from_coo((2, 3), [0, 1], [0], [1.0])


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_gather_matches_dense(shape, seed):
    rng = np.random.default_rng(seed)
    mat = random_csr(rng, shape)
    dense = mat.toarray()
    m, n = shape
    for rows, cols in ((np.arange(m), np.arange(n)),
                       (rng.integers(0, m, 5) if m else [], ascending(rng, n, (7,))),
                       (rng.permutation(m)[:3], ascending(rng, n, (4,))),
                       ([], np.arange(n))):
        got = mat.gather(rows, cols)
        want = dense[np.asarray(rows, dtype=int)][:, np.asarray(cols, dtype=int)]
        assert same_bits(got, want + 0.0)
        assert got.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("shape", [shape for shape in SHAPES if all(shape)])
@pytest.mark.parametrize("seed", SEEDS)
def test_gather_stacks_blocks_along_leading_axes(shape, seed):
    # each block as the 2-D call gives it, repeated rows included
    rng = np.random.default_rng(seed)
    mat = random_csr(rng, shape)
    m, n = shape
    rows, cols = rng.integers(0, m, (2, 3, 4)), ascending(rng, n, (2, 3, 5))
    got = mat.gather(rows, cols)
    assert got.shape == (2, 3, 4, min(n, 5)) and got.flags["C_CONTIGUOUS"]
    for g in np.ndindex(2, 3):
        assert same_bits(got[g], mat.gather(rows[g], cols[g]))


@pytest.mark.parametrize("rows,cols", [([[0], [1]], [[3], [0]]), ([2], [0]), ([-1], [0])],
                         ids=["column_past_the_end", "row_past_the_end", "negative_row"])
def test_gather_rejects_an_index_outside_the_shape(rows, cols):
    # a column past the end once aliased the next block's keys: block 1
    # read A[1, 1] for A[1, 0]
    a = CsrMatrix.diagonal([5.0, 7.0])
    with pytest.raises(ValueError, match=r"gather index out of range for shape \(2, 2\)"):
        a.gather(rows, cols)


@pytest.mark.parametrize("cols", [[[0, 1], [1, 1]], [[0, 1], [1, 0]]],
                         ids=["repeated_column", "descending_columns"])
def test_gather_rejects_columns_not_ascending(cols):
    # a block's columns are distinct and ascending; any other order is refused
    a = CsrMatrix.diagonal([5.0, 7.0])
    with pytest.raises(ValueError, match="gather columns are not distinct and ascending"):
        a.gather([[0], [1]], cols)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_products_match_dense(shape, seed):
    rng = np.random.default_rng(seed)
    a = random_csr(rng, shape)
    m, n = shape
    vec = rng.standard_normal(n)
    block = rng.standard_normal((n, 3))
    assert same_bits(a @ vec, loop_product(a, vec))
    assert same_bits(a @ block, loop_product(a, block))
    assert np.allclose(a @ block, a.toarray() @ block, rtol=1e-13, atol=1e-13)
    assert same_bits(a @ np.arange(n), loop_product(a, np.arange(n)))
    with pytest.raises(TypeError):          # no product of two sparse matrices
        a @ random_csr(rng, (n, 3))


@pytest.mark.parametrize("n", [0, 1, 7])
def test_diagonal_matches_dense(n):
    values = np.random.default_rng(n).standard_normal(n)
    values[::3] = -0.0
    diag = CsrMatrix.diagonal(values)
    assert diag.shape == (n, n) and diag.nnz == n
    assert same_bits(diag.toarray(), np.diag(values) + 0.0)


@pytest.mark.parametrize("shape", [shape for shape in SHAPES if all(shape)])
@pytest.mark.parametrize("seed", SEEDS)
def test_block_products_match_dense(shape, seed):
    # a stack of three blocks of a chain of three factors, against the dense
    # product of the gathered dense blocks
    rng = np.random.default_rng(seed)
    m, n = shape
    a, b, c = random_csr(rng, (m, n)), random_csr(rng, (n, n)), random_csr(rng, (n, 4))
    idx = [rng.integers(0, m, (3, 2)), ascending(rng, n, (3, 5)), ascending(rng, n, (3, 4)),
           ascending(rng, 4, (3, 3))]
    got = block_product([a, b, c], idx)
    dense = [f.toarray() for f in (a, b, c)]
    for g in range(3):
        want = np.linalg.multi_dot([f[np.ix_(r, k)] for f, r, k in
                                    zip(dense, [i[g] for i in idx], [i[g] for i in idx[1:]])])
        assert np.allclose(got[g], want, rtol=1e-13, atol=1e-13)
    assert same_bits(block_product([a], idx[:2]), a.gather(*idx[:2]))


def test_mismatched_shapes_raise():
    a = CsrMatrix.from_coo((2, 3), [0], [1], [1.0])
    with pytest.raises(ValueError):
        a @ np.ones(2)
    with pytest.raises(TypeError):
        a @ CsrMatrix.from_coo((3, 2), [], [], [])
    with pytest.raises(TypeError):
        a - a
    with pytest.raises(TypeError):
        np.ones((2, 2)) @ a


# -- scipy, bit for bit -------------------------------------------------------------

def as_scipy(sp, mat: CsrMatrix):
    return sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


def same_csr(mine: CsrMatrix, theirs) -> bool:
    theirs = theirs.tocsr()
    theirs.sort_indices()
    return (mine.shape == theirs.shape and mine.nnz == theirs.nnz
            and np.array_equal(mine.indptr, theirs.indptr)
            and np.array_equal(mine.indices, theirs.indices)
            and same_bits(mine.data, theirs.data))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_bitwise_equal_to_scipy(shape, seed):
    sp = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(seed)
    m, n = shape
    rows, cols, vals = random_coo(rng, shape, multiple=False)
    a = CsrMatrix.from_coo(shape, rows, cols, vals)
    sa = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    assert same_csr(a, sa)
    assert a.nnz == sa.nnz
    assert same_bits(a.toarray(), sa.toarray())
    vec, block = rng.standard_normal(n), rng.standard_normal((n, 4))
    assert same_bits(a @ vec, sa @ vec)
    assert same_bits(a @ block, sa @ block)
    diag = rng.standard_normal(m)
    assert same_csr(CsrMatrix.diagonal(diag), sp.diags(diag))


@pytest.mark.parametrize("k", [1, 2])
def test_operator_products_equal_scipy(k):
    sp = pytest.importorskip("scipy.sparse")
    c = complex_for("cavity", k)
    for mat in (c.gradient, c.curl):
        x = np.random.default_rng(k).standard_normal((mat.shape[1], 5))
        assert same_bits(mat @ x, as_scipy(sp, mat) @ x)
        assert same_bits(mat @ x[:, 0], as_scipy(sp, mat) @ x[:, 0])


# -- memory -----------------------------------------------------------------------

def traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_sparse_times_dense_peaks_at_a_small_multiple_of_its_output():
    rng = np.random.default_rng(5)
    n, per_row = 1000, 12
    a = CsrMatrix.from_coo((n, n), np.repeat(np.arange(n), per_row),
                           rng.integers(0, n, n * per_row), rng.standard_normal(n * per_row))
    x = rng.standard_normal((n, 64))
    out, peak = traced_peak(lambda: a @ x)
    # an (nnz, 64) intermediate alone would be about per_row times the output
    assert peak <= 4 * out.nbytes
