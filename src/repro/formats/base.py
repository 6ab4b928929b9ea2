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
