"""Compressed sparse row matrices on numpy, for the global operators.

:class:`CsrMatrix` holds what the package needs of a sparse matrix and no
more: assembly from COO triplets (duplicates summed) or from a diagonal,
densification, products with dense arrays and dense gathers of ``(rows,
cols)`` blocks, each block's columns ascending.  Entries are float64.  Two
sparse matrices do not multiply: :func:`block_product` multiplies gathered
blocks, the whole product on rows whose stored entries the blocks hold (an
entity's rows, on its closure).

A product with a dense array sums in the order of the classic CSR kernels
(scipy's ``sparsetools``): each output entry starts from 0 and accumulates
its products one at a time, in the stored order of the row.  Results are
therefore reproducible bit for bit, and equal to scipy's.  Like scipy,
assembly keeps explicit zeros (``nnz`` counts them).
"""

from __future__ import annotations

import numpy as np


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + n)`` over pairs of ``starts, lens``."""
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(ends[-1] if len(ends) else 0)


class CsrMatrix:
    """A float64 matrix in compressed sparse row form, with sorted column indices."""

    # ndarray operators return NotImplemented, so ``array @ csr`` raises
    # TypeError instead of building an object array.
    __array_ufunc__ = None

    def __init__(self, shape: tuple[int, int], indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = indptr
        self.indices = indices
        self.data = data

    @classmethod
    def from_coo(cls, shape: tuple[int, int], rows, cols, vals) -> CsrMatrix:
        """Assemble triplets; duplicates are summed in their input order."""
        m, n = int(shape[0]), int(shape[1])
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=float).ravel()
        if not len(rows) == len(cols) == len(vals):
            raise ValueError("rows, cols and vals differ in length")
        if len(rows) and (rows.min() < 0 or rows.max() >= m
                          or cols.min() < 0 or cols.max() >= n):
            raise ValueError(f"triplet index out of range for shape {(m, n)}")
        keys = rows * n + cols
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        data = vals[first]
        if not first.all():
            # the first value of each key, then the later ones in order
            np.add.at(data, np.cumsum(first)[~first] - 1, vals[~first])
        return cls._from_keys((m, n), keys[first], data)

    @classmethod
    def _from_keys(cls, shape: tuple[int, int], keys: np.ndarray, data: np.ndarray) -> CsrMatrix:
        """From ascending distinct keys ``row * ncols + col`` and their values."""
        m, n = shape
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // max(n, 1), minlength=m), out=indptr[1:])
        return cls(shape, indptr, keys % max(n, 1), data)

    @classmethod
    def diagonal(cls, values) -> CsrMatrix:
        """The square matrix with ``values`` on its diagonal."""
        values = np.asarray(values, dtype=float)
        n = len(values)
        return cls((n, n), np.arange(n + 1), np.arange(n), values)

    @property
    def nnz(self) -> int:
        """Stored entries, explicit zeros included."""
        return len(self.data)

    def _row_of_entries(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        # accumulated into zeros, as the CSR kernels do: -0.0 reads 0.0
        out[self._row_of_entries(), self.indices] = self.data + 0.0
        return out

    def gather(self, rows, cols) -> np.ndarray:
        """The dense block ``A[rows][:, cols]``, in C order.  Leading axes of
        ``rows`` and ``cols`` (equal) stack blocks: ``out[g]`` is the block
        of ``rows[g]`` and ``cols[g]``.  Each block's columns are distinct
        and ascending, or a ``ValueError`` is raised."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        for idx, size in zip((rows, cols), self.shape):
            if idx.size and (idx.min() < 0 or idx.max() >= size):
                raise ValueError(f"gather index out of range for shape {self.shape}")
        if np.any(cols[..., 1:] <= cols[..., :-1]):
            raise ValueError("gather columns are not distinct and ascending in each block")
        lead, m, n = rows.shape[:-1], rows.shape[-1], cols.shape[-1]
        count, rows = int(np.prod(lead)), rows.ravel()
        # each block's columns keyed by (block, column), so already ascending
        wanted = (np.arange(count)[:, None] * self.shape[1] + cols.reshape(count, n)).ravel()
        lens = self.indptr[rows + 1] - self.indptr[rows]
        pos = _ranges(self.indptr[rows], lens)
        out = np.zeros((count, m, n))
        if len(pos) and len(wanted):
            block_rows = np.repeat(np.arange(len(rows)), lens)
            found = block_rows // m * self.shape[1] + self.indices[pos]
            at = np.minimum(np.searchsorted(wanted, found), len(wanted) - 1)
            hit = wanted[at] == found
            out.reshape(-1, n)[block_rows[hit], at[hit] % n] = self.data[pos[hit]] + 0.0
        return out.reshape(*lead, m, n)

    def __matmul__(self, other):
        if isinstance(other, CsrMatrix):
            return NotImplemented       # no sparse product: see block_product
        other = np.asarray(other)
        if other.ndim not in (1, 2) or other.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        return self._times_dense(other)

    def _times_dense(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.shape[0],) + x.shape[1:], dtype=np.result_type(self.data, x))
        lens = np.diff(self.indptr)
        by_length = np.argsort(-lens, kind="stable")
        # longer[j]: how many rows store more than j entries (a prefix of by_length)
        longer = np.searchsorted(-lens[by_length], -np.arange(lens.max(initial=0)), "left")
        shape = (-1,) + (1,) * (x.ndim - 1)
        for j, count in enumerate(longer):
            rows = by_length[:count]
            pos = self.indptr[rows] + j
            terms = x[self.indices[pos]].astype(out.dtype, copy=False)  # a copy: scaled in place
            terms *= self.data[pos].reshape(shape)
            out[rows] += terms
        return out


def block_product(factors: list[CsrMatrix], indices: list) -> np.ndarray:
    """The stacked product of the blocks ``factors[i].gather(indices[i],
    indices[i + 1])``: the product's rows ``indices[0]`` on the columns
    ``indices[-1]`` where each block holds what its rows store."""
    out = factors[0].gather(indices[0], indices[1])
    for mat, rows, cols in zip(factors[1:], indices[1:], indices[2:]):
        out = out @ mat.gather(rows, cols)
    return out
