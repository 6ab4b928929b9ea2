"""Coordinate formats: COO and the paper's COOC (transposed-COO) layout.

The COOC format of the paper stores two arrays per matrix ``A``:

* ``row`` -- the row indices of the non-zeros, identical to the row array of
  the CSC format (i.e. ordered by column, then by row within a column);
* ``col`` -- the column index of each non-zero, in the same order.

Because the entries are ordered column-major, a thread-per-edge kernel that
scatters into ``y[col[k]]`` writes runs of identical destinations, which is
what makes the scCOOC kernel's atomics cheap on regular graphs.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import (
    BinaryMatrixBase,
    INDEX_DTYPE,
    as_index_array,
    row_major_plan,
    segment_operators,
)


class COOMatrix(BinaryMatrixBase):
    """Plain coordinate-format binary matrix (row-major entry order).

    This is the interchange format: generators and I/O produce COO, and
    :mod:`repro.formats.convert` turns it into the device formats.
    """

    def __init__(self, row, col, shape: tuple[int, int]):
        self.row = as_index_array(row, name="row")
        self.col = as_index_array(col, name="col")
        if self.row.size != self.col.size:
            raise ValueError(
                f"row and col must have equal length, got {self.row.size} != {self.col.size}"
            )
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"shape must be non-negative, got {shape}")
        if self.row.size:
            if int(self.row.max()) >= n_rows:
                raise ValueError(f"row index {int(self.row.max())} out of range for {n_rows} rows")
            if int(self.col.max()) >= n_cols:
                raise ValueError(
                    f"column index {int(self.col.max())} out of range for {n_cols} columns"
                )
        self.shape = (n_rows, n_cols)

    @property
    def nnz(self) -> int:
        return int(self.row.size)

    @property
    def memory_words(self) -> int:
        return 2 * self.nnz

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.int8)
        dense[self.row, self.col] = 1
        return dense

    def transpose(self) -> "COOMatrix":
        return COOMatrix(self.col.copy(), self.row.copy(), (self.shape[1], self.shape[0]))


class COOCMatrix(BinaryMatrixBase):
    """The paper's COOC format: coordinate entries sorted column-major.

    Invariants enforced at construction:

    * ``col`` is non-decreasing;
    * ``row`` is strictly increasing within each column run (entries are
      unique -- a binary matrix has no duplicates).
    """

    def __init__(
        self,
        row,
        col,
        shape: tuple[int, int],
        *,
        _skip_checks: bool = False,
        version: int = 0,
        symmetric: bool = False,
    ):
        self.row = as_index_array(row, name="row")
        self.col = as_index_array(col, name="col")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        self.shape = (n_rows, n_cols)
        # Edit generation; same identity-cache contract as CSCMatrix.version.
        self.version = int(version)
        # Same contract as CSCMatrix.symmetric.
        self.symmetric = bool(symmetric)
        if self.row.size != self.col.size:
            raise ValueError(
                f"row and col must have equal length, got {self.row.size} != {self.col.size}"
            )
        self._txn_cache: dict = {}
        self._col_counts: np.ndarray | None = None
        self._col_ptr: np.ndarray | None = None
        self._spmm_ops: tuple | None = None
        self._scatter_plan: tuple[np.ndarray, np.ndarray] | None = None
        self._push_op = None
        if not _skip_checks:
            self._validate()

    def _validate(self) -> None:
        if self.row.size == 0:
            return
        if int(self.row.max()) >= self.n_rows:
            raise ValueError(f"row index {int(self.row.max())} out of range for {self.n_rows}")
        if int(self.col.max()) >= self.n_cols:
            raise ValueError(f"column index {int(self.col.max())} out of range for {self.n_cols}")
        dcol = np.diff(self.col)
        if np.any(dcol < 0):
            raise ValueError("COOC entries must be sorted by column")
        same_col = dcol == 0
        if np.any(self.row[1:][same_col] <= self.row[:-1][same_col]):
            raise ValueError("COOC rows must be strictly increasing within a column (no duplicates)")

    @property
    def nnz(self) -> int:
        return int(self.row.size)

    @property
    def memory_words(self) -> int:
        """COOC stores ``2 m`` index words (row and col arrays)."""
        return 2 * self.nnz

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.int8)
        dense[self.row, self.col] = 1
        return dense

    def to_coo(self) -> COOMatrix:
        return COOMatrix(self.row.copy(), self.col.copy(), self.shape)

    def column_counts(self) -> np.ndarray:
        """In-degree of each column (number of stored entries per column).

        Cached (do not mutate) -- kernel-stats evaluations read it per launch.
        """
        if self._col_counts is None:
            self._col_counts = np.bincount(self.col, minlength=self.n_cols).astype(INDEX_DTYPE)
        return self._col_counts

    def column_ptr(self) -> np.ndarray:
        """CSC-style column pointer over the column-sorted entries (cached).

        Valid because COOC entries are sorted by column: entries of column
        ``c`` occupy ``column_ptr()[c] .. column_ptr()[c + 1]``.
        """
        if self._col_ptr is None:
            ptr = np.zeros(self.n_cols + 1, dtype=INDEX_DTYPE)
            np.cumsum(self.column_counts(), out=ptr[1:])
            self._col_ptr = ptr
        return self._col_ptr

    def spmm_operators(self) -> tuple:
        """Compiled ``(gather, scatter)`` operators over the column-major
        entries (``row`` and :meth:`column_ptr`); same contract and cache
        lifetime as :meth:`repro.formats.csc.CSCMatrix.spmm_operators`.
        """
        if self._spmm_ops is None:
            self._spmm_ops = segment_operators(self.row, self.column_ptr(), self.shape)
        return self._spmm_ops

    def scatter_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """Row-major traversal plan ``(row_ptr, cols_in_row_order)``; same
        contract as :meth:`repro.formats.csc.CSCMatrix.scatter_plan`."""
        if self._scatter_plan is None:
            self._scatter_plan = row_major_plan(self.row, self.col, self.n_rows)
        return self._scatter_plan

    def row_counts(self) -> np.ndarray:
        """Out-degree of each row."""
        return np.bincount(self.row, minlength=self.n_rows).astype(INDEX_DTYPE)

    def full_gather_transactions(
        self, which: str, element_bytes: int, *, l2_bytes: int | None = None
    ) -> int:
        """L2-bounded DRAM transactions of a full warp gather through one of
        the two index arrays -- the access pattern of the scCOOC kernel's
        every launch, so it is computed once and cached per matrix.
        """
        from repro.gpusim import warp as W

        if l2_bytes is None:
            l2_bytes = W.L2_BYTES
        key = (which, element_bytes, l2_bytes)
        if key not in self._txn_cache:
            idx = self.row if which == "row" else self.col
            words = self.n_rows if which == "row" else self.n_cols
            self._txn_cache[key] = W.cached_gather_transactions(
                idx, element_bytes, words, l2_bytes=l2_bytes
            )
        return self._txn_cache[key]
