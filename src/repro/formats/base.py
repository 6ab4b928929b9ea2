"""Shared behaviour of the binary sparse adjacency formats."""

from __future__ import annotations

import numpy as np

INDEX_DTYPE = np.int32
"""Index dtype used by every format (matches the CUDA implementation)."""

INDEX_BYTES = 4
"""Bytes per stored index word; the unit of the memory-footprint model."""


def as_index_array(values, *, name: str) -> np.ndarray:
    """Return ``values`` as a contiguous int32 index array.

    Raises ``ValueError`` for negative entries or values that do not fit in
    int32 -- both would silently corrupt a CUDA kernel, so they are rejected
    eagerly here.
    """
    arr = np.ascontiguousarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.equal(np.mod(arr, 1), 0)):
            raise ValueError(f"{name} must contain integers")
    if arr.size:
        lo = int(arr.min())
        hi = int(arr.max())
        if lo < 0:
            raise ValueError(f"{name} contains negative index {lo}")
        if hi > np.iinfo(INDEX_DTYPE).max:
            raise ValueError(f"{name} contains index {hi} too large for int32")
    return arr.astype(INDEX_DTYPE, copy=False)


def distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``keys``: one sort, then drop each value
    equal to its neighbour (``np.unique``'s default hash path is 20-90x
    slower on int64 keys)."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def segment_operators(row: np.ndarray, col_ptr: np.ndarray, shape: tuple[int, int]):
    """Compiled ``(gather, scatter)`` operators over column-major index arrays.

    ``gather @ X`` is ``A^T X`` (a CSR view of the columns) and
    ``scatter @ X`` is ``A X`` (a CSC view); both wrap ``row``/``col_ptr``
    without copying them and share one float64 ones array.
    """
    from scipy.sparse import csc_array, csr_array

    ones = np.ones(row.size)
    n_rows, n_cols = shape
    return (csr_array((ones, row, col_ptr), shape=(n_cols, n_rows)),
            csc_array((ones, row, col_ptr), shape=(n_rows, n_cols)))


def row_major_plan(row: np.ndarray, col: np.ndarray, n_rows: int):
    """Row-major traversal plan ``(row_ptr, cols_in_row_order)`` of entries
    given column-major as ``(row, col)``.

    ``row_ptr[r] .. row_ptr[r + 1]`` slices ``cols_in_row_order`` into the
    columns of row ``r``'s entries, ascending (the stable sort keeps each
    row's entries in storage order).
    """
    order = np.argsort(row, kind="stable")
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n_rows), out=row_ptr[1:])
    return row_ptr, col[order]


class BinaryMatrixBase:
    """Common interface shared by COOC/CSC/CSR matrices.

    Subclasses expose ``shape``, ``nnz`` and ``memory_words`` and implement
    ``to_dense``; everything else here is derived.
    """

    shape: tuple[int, int]
    nnz: int

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def memory_words(self) -> int:
        """Number of 4-byte index words this format stores on the device."""
        raise NotImplementedError

    def push_operator(self):
        """Row-major operator ``A`` (``n_rows x n_cols``) of the restricted
        push products in :mod:`repro.spmv._spmm`.

        A symmetric structure (every undirected graph) is its own transpose,
        so this is the cached gather operator itself; otherwise a CSR view
        of :meth:`scatter_plan`'s arrays sharing the gather operator's ones
        array, so no second m-sized index copy is made.  Formats that offer
        it define ``spmm_operators``, ``scatter_plan``, ``symmetric`` and a
        ``_push_op`` cache slot.
        """
        gather = self.spmm_operators()[0]
        if self.symmetric:
            return gather
        if self._push_op is None:
            from scipy.sparse import csr_array

            row_ptr, cols = self.scatter_plan()
            # int32 pointers (m fits, as col_ptr does), so SciPy keeps
            # ``cols`` as is instead of widening a copy of it to int64
            self._push_op = csr_array((gather.data, cols, row_ptr.astype(cols.dtype)),
                                      shape=self.shape)
        return self._push_op

    @property
    def memory_bytes(self) -> int:
        return self.memory_words * INDEX_BYTES

    def to_dense(self) -> np.ndarray:
        raise NotImplementedError

    def __eq__(self, other) -> bool:  # structural equality, used in tests
        if not isinstance(other, BinaryMatrixBase):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.to_dense(), other.to_dense())

    def __hash__(self):  # matrices are mutable containers; keep them unhashable
        raise TypeError(f"{type(self).__name__} is unhashable")

    def __repr__(self) -> str:
        r, c = self.shape
        return f"{type(self).__name__}(shape=({r}, {c}), nnz={self.nnz})"
