"""Compressed Sparse Column storage for binary adjacency matrices.

For an ``n x n`` adjacency matrix with ``m`` non-zeros the CSC format stores

* ``col_ptr`` (size ``n_cols + 1``) -- ``col_ptr[c] .. col_ptr[c + 1]`` is the
  slice of ``row`` holding column ``c``'s row indices (the paper's ``CP_A``);
* ``row`` (size ``m``) -- row indices, sorted within each column (the paper's
  ``row_A``).

The value array of the binary matrix is never stored -- the paper's first
memory optimization -- so the device footprint is ``n + 1 + m`` words.
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


class CSCMatrix(BinaryMatrixBase):
    """Binary sparse matrix in CSC layout."""

    def __init__(
        self,
        col_ptr,
        row,
        shape: tuple[int, int],
        *,
        _skip_checks: bool = False,
        version: int = 0,
        symmetric: bool = False,
    ):
        self.col_ptr = as_index_array(col_ptr, name="col_ptr")
        self.row = as_index_array(row, name="row")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        self.shape = (n_rows, n_cols)
        # Edit generation of the structure this matrix was built from.  The
        # derived traversal plans below are keyed on object identity, so an
        # edit must never mutate an existing matrix in place -- it builds a
        # new one with ``version + 1`` (see repro.formats.edits) and the old
        # plans die with the old object.
        self.version = int(version)
        # Whether the structure is known to equal its transpose (an
        # undirected graph's); never inferred, so False is always safe.
        self.symmetric = bool(symmetric)
        self._col_of_nnz: np.ndarray | None = None
        self._col_counts: np.ndarray | None = None
        self._scatter_plan: tuple[np.ndarray, np.ndarray] | None = None
        self._tile_plans: dict = {}
        # One-entry memo of repro.spmv.tcspmm.active_tile_stats.
        self._active_tile_memo: tuple | None = None
        # The tile directory grouped by row stripe (tcspmm.level_tile_stats).
        self._tile_row_order: tuple | None = None
        self._spmm_ops: tuple | None = None
        self._push_op = None
        self._txn_cache: dict = {}
        if not _skip_checks:
            self._validate()

    def _validate(self) -> None:
        if self.col_ptr.size != self.n_cols + 1:
            raise ValueError(
                f"col_ptr must have length n_cols + 1 = {self.n_cols + 1}, got {self.col_ptr.size}"
            )
        if self.col_ptr[0] != 0:
            raise ValueError("col_ptr must start at 0")
        if int(self.col_ptr[-1]) != self.row.size:
            raise ValueError(
                f"col_ptr must end at nnz = {self.row.size}, got {int(self.col_ptr[-1])}"
            )
        if np.any(np.diff(self.col_ptr) < 0):
            raise ValueError("col_ptr must be non-decreasing")
        if self.row.size:
            if int(self.row.max()) >= self.n_rows:
                raise ValueError(
                    f"row index {int(self.row.max())} out of range for {self.n_rows} rows"
                )
            # rows strictly increasing within each column => sorted + unique
            interior = np.ones(self.row.size, dtype=bool)
            boundaries = self.col_ptr[1:-1]  # column starts
            interior[boundaries[boundaries < self.row.size]] = False
            bad = self.row[1:][interior[1:]] <= self.row[:-1][interior[1:]]
            if np.any(bad):
                raise ValueError("rows must be strictly increasing within each column")

    @property
    def nnz(self) -> int:
        return int(self.row.size)

    @property
    def memory_words(self) -> int:
        """CSC stores ``(n_cols + 1) + m`` index words."""
        return self.n_cols + 1 + self.nnz

    def column(self, c: int) -> np.ndarray:
        """Row indices of column ``c`` (a view, do not mutate)."""
        return self.row[self.col_ptr[c] : self.col_ptr[c + 1]]

    def column_counts(self) -> np.ndarray:
        """Entries per column (the in-degree when A[r, c] means edge r->c).

        Cached (do not mutate): every kernel-stats evaluation reads it, so
        rebuilding the O(n) diff per launch would dominate small-frontier
        levels.
        """
        if self._col_counts is None:
            self._col_counts = np.diff(self.col_ptr).astype(INDEX_DTYPE)
        return self._col_counts

    def column_of_nnz(self) -> np.ndarray:
        """Column index of every stored entry, in storage order.

        This is exactly the ``col`` array of the COOC format; kernels that
        need a per-non-zero destination use it.  Cached (do not mutate).
        """
        if self._col_of_nnz is None:
            self._col_of_nnz = np.repeat(
                np.arange(self.n_cols, dtype=INDEX_DTYPE), np.diff(self.col_ptr)
            )
        return self._col_of_nnz

    def scatter_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """Row-major traversal plan ``(row_ptr, cols_in_row_order)``.

        ``row_ptr[r] .. row_ptr[r + 1]`` slices ``cols_in_row_order`` into the
        column indices of row ``r``'s stored entries, sorted ascending (the
        stable sort keeps each row's entries in storage order).  Cached: the
        pull and scatter kernels' cost models read it every level.
        """
        if self._scatter_plan is None:
            self._scatter_plan = row_major_plan(self.row, self.column_of_nnz(), self.n_rows)
        return self._scatter_plan

    def spmm_operators(self) -> tuple:
        """Compiled ``(gather, scatter)`` operators of the batched kernels.

        SciPy CSR/CSC views over ``row``/``col_ptr`` (no copy) plus one
        m-word float64 ones array: ``gather @ X`` is ``A^T X`` and
        ``scatter @ X`` is ``A X``, each accumulated in storage order.  Like
        :meth:`scatter_plan` this is a host-side traversal plan, never
        charged against the device budget.  Cached per matrix object, so an
        edit (a new object, ``version + 1``) discards it with the old matrix.
        """
        if self._spmm_ops is None:
            self._spmm_ops = segment_operators(self.row, self.col_ptr, self.shape)
        return self._spmm_ops

    def tile_plan(self, tile: int = 16) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Blocked tiling directory ``(tile_row, tile_col, tile_nnz)``.

        Partitions the stored structure into ``tile x tile`` blocks and
        returns, for every *occupied* block, its block-row index, block-column
        index and stored-entry count, ordered by (block-column, block-row) --
        the traversal order of the blocked tensor-core kernel.  Like
        :meth:`scatter_plan` this is a host-side traversal plan derived from
        the stored indices, not an extra device copy of the matrix, so it is
        never charged against the ``7n + 1 + m`` device budget.  Cached: the
        blocked kernel and the dispatcher's cost model read it every level.
        """
        if tile <= 0:
            raise ValueError(f"tile must be positive, got {tile}")
        if tile not in self._tile_plans:
            if self.nnz == 0:
                empty = np.zeros(0, dtype=np.int64)
                self._tile_plans[tile] = (empty, empty.copy(), empty.copy())
            else:
                t_row = self.row.astype(np.int64) // tile
                t_col = self.column_of_nnz().astype(np.int64) // tile
                n_tile_rows = -(-self.n_rows // tile)
                keys, counts = np.unique(t_col * n_tile_rows + t_row,
                                         return_counts=True)
                self._tile_plans[tile] = (
                    keys % n_tile_rows,
                    keys // n_tile_rows,
                    counts.astype(np.int64),
                )
        return self._tile_plans[tile]

    def full_gather_transactions(
        self, element_bytes: int, *, l2_bytes: int | None = None
    ) -> int:
        """L2-bounded DRAM transactions of a warp gather through the whole
        ``row`` array -- the unmasked veCSC access pattern, cached because
        the backward stage issues it once per level.
        """
        from repro.gpusim import warp as W

        if l2_bytes is None:
            l2_bytes = W.L2_BYTES
        key = (element_bytes, l2_bytes)
        if key not in self._txn_cache:
            self._txn_cache[key] = W.cached_gather_transactions(
                self.row, element_bytes, self.n_rows, l2_bytes=l2_bytes
            )
        return self._txn_cache[key]

    def full_atomic_conflict_cycles(self) -> int:
        """Intra-warp atomic conflicts of one thread per stored entry adding
        into its own column -- the thread-per-entry gather with every column
        selected, which every backward level issues; cached like
        :meth:`full_gather_transactions`.
        """
        from repro.gpusim import warp as W

        key = "atomic_conflicts"
        if key not in self._txn_cache:
            self._txn_cache[key] = W.atomic_conflict_cycles(self.column_of_nnz())
        return self._txn_cache[key]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.int8)
        dense[self.row, self.column_of_nnz()] = 1
        return dense

    def to_scipy(self):
        """Return the equivalent ``scipy.sparse.csc_array`` (values all 1)."""
        from scipy.sparse import csc_array

        data = np.ones(self.nnz, dtype=np.int8)
        return csc_array((data, self.row, self.col_ptr), shape=self.shape)

    @classmethod
    def from_scipy(cls, mat) -> "CSCMatrix":
        """Build from any scipy sparse matrix, treating non-zeros as 1."""
        csc = mat.tocsc()
        csc.sum_duplicates()
        csc.sort_indices()
        return cls(csc.indptr, csc.indices, csc.shape)
