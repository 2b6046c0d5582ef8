"""Compressed sparse row matrices on numpy, for the global operators.

:class:`CsrMatrix` holds what the package needs of a sparse matrix and no
more: assembly from COO triplets (duplicates summed) or from a diagonal,
densification, products with dense arrays and with other CSR matrices,
differences of two CSR matrices, and a dense gather of a ``(rows, cols)``
block.  Entries are float64.

Every sum is formed in a fixed order, the one of the classic CSR kernels
(scipy's ``sparsetools``): each output entry starts from 0 and accumulates its
products one at a time, in the stored order of the left factor's row and then
of the right factor's.  Results are therefore reproducible bit for bit, and
equal to scipy's.  Like scipy, assembly keeps explicit zeros (``nnz`` counts
them), while a sparse product or difference drops the entries that come out
exactly zero.
"""

from __future__ import annotations

import numpy as np

# Size of a row block of a sparse product: at most this many expanded
# products, and this many (row, column) keys in the block's slot table.
_BLOCK = 1 << 18


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
        """The dense block ``A[rows][:, cols]``, in C order."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        order = np.argsort(cols, kind="stable")
        wanted = cols[order]
        lens = self.indptr[rows + 1] - self.indptr[rows]
        pos = _ranges(self.indptr[rows], lens)
        out = np.zeros((len(rows), len(cols)))
        if len(pos) and len(cols):
            found = self.indices[pos]
            at = np.minimum(np.searchsorted(wanted, found), len(cols) - 1)
            hit = wanted[at] == found
            block_rows = np.repeat(np.arange(len(rows)), lens)
            out[block_rows[hit], order[at[hit]]] = self.data[pos[hit]] + 0.0
            # a repeated column copies its first occurrence
            first = np.searchsorted(wanted, wanted)
            repeated = first != np.arange(len(cols))
            if repeated.any():
                out[:, order[repeated]] = out[:, order[first[repeated]]]
        return out

    def __matmul__(self, other):
        if isinstance(other, CsrMatrix):
            return self._times_csr(other)
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

    def _times_csr(self, other: CsrMatrix) -> CsrMatrix:
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        m, n = self.shape[0], other.shape[1]
        per_entry = np.diff(other.indptr)[self.indices]   # products of each stored entry
        before = np.concatenate([[0], np.cumsum(per_entry)])[self.indptr]
        entry_row = self._row_of_entries()
        # Rows go in blocks (see _BLOCK).  ``slot`` maps a block's keys to
        # their output entries; only the entries of keys that occur are read.
        block_rows = max(1, _BLOCK // max(n, 1))
        slot = np.empty(block_rows * n, dtype=np.int64)
        out_keys, out_data = [], []
        start = 0
        while start < m:
            stop = min(m, start + block_rows,
                       int(np.searchsorted(before, before[start] + _BLOCK, "right")) - 1)
            stop = max(stop, start + 1)
            first, last = self.indptr[start], self.indptr[stop]
            counts = per_entry[first:last]
            right = _ranges(other.indptr[self.indices[first:last]], counts)
            keys = np.repeat((entry_row[first:last] - start) * n, counts) + other.indices[right]
            products = np.repeat(self.data[first:last], counts) * other.data[right]
            order = np.arange(len(keys))
            slot[keys] = order
            distinct = np.sort(keys[slot[keys] == order])   # one product per key wins
            slot[distinct] = np.arange(len(distinct))
            # bincount adds each entry's products one at a time, in order, from 0
            sums = np.bincount(slot[keys], products, len(distinct))
            nonzero = sums != 0
            out_keys.append(distinct[nonzero] + start * n)
            out_data.append(sums[nonzero])
            start = stop
        return CsrMatrix._from_keys((m, n),
                                    np.concatenate(out_keys + [np.zeros(0, dtype=np.int64)]),
                                    np.concatenate(out_data + [np.zeros(0)]))

    def __sub__(self, other):
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError(f"cannot subtract {other.shape} from {self.shape}")
        diff = CsrMatrix.from_coo(
            self.shape,
            np.concatenate([self._row_of_entries(), other._row_of_entries()]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.data, -other.data]))
        keep = diff.data != 0
        indptr = np.concatenate([[0], np.cumsum(keep)])[diff.indptr]
        return CsrMatrix(self.shape, indptr, diff.indices[keep], diff.data[keep])
