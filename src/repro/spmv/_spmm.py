"""Shared numerics of the batched (SpMM) kernel variants.

The batched kernels multiply the sparse adjacency structure by an ``n x B``
frontier *matrix* -- one column per BFS source -- instead of a vector.  Their
results must match the per-source SpMV kernels bit for bit (DESIGN.md §7,
"Bit-exactness contract"):

* the SpMV kernels accumulate with ``np.bincount``, which sums its weights
  sequentially in storage order **in float64** and casts afterwards;
* the batched sums are one compiled SciPy sparse x dense product over the
  format's own column-major index arrays (``spmm_operators``).  Its
  ``csr_matvecs``/``csc_matvecs`` loops start every output row at zero and
  add ``1.0 * x`` one stored entry at a time in storage order -- the same
  sequential float64 order as ``bincount``, unlike the pairwise loop of
  ``np.add.reduceat`` (DESIGN.md §9);
* masked-out (column, lane) sums are zeroed after the product, so a mask
  never changes the arithmetic of an allowed lane.
"""

from __future__ import annotations

import numpy as np


def as_frontier_matrix(X: np.ndarray, n_rows: int) -> np.ndarray:
    """Validate an ``(n_rows, B)`` frontier matrix with ``B >= 1``."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != n_rows or X.shape[1] < 1:
        raise ValueError(
            f"frontier matrix must have shape ({n_rows}, B >= 1), got {X.shape}"
        )
    return X


def check_allowed_matrix(allowed, n_cols: int, B: int) -> np.ndarray:
    """Validate a per-(column, lane) boolean mask of shape ``(n_cols, B)``."""
    allowed = np.asarray(allowed)
    if allowed.shape != (n_cols, B) or allowed.dtype != bool:
        raise ValueError(f"allowed must be a boolean mask of shape ({n_cols}, {B})")
    return allowed


def gather_spmm_values(fmt, X: np.ndarray, allowed: np.ndarray | None = None) -> np.ndarray:
    """Column sums ``sums[c, j] = sum_{k in column c} X[row[k], j]`` in float64.

    ``fmt`` is a :class:`~repro.formats.csc.CSCMatrix` or
    :class:`~repro.formats.coo.COOCMatrix`; ``allowed`` (an ``(n_cols, B)``
    bool mask) zeroes the masked-out (column, lane) sums.  The result is the
    pre-cast accumulator of every per-column SpMV: callers cast to the
    output dtype exactly like the SpMV kernels do.
    """
    sums = fmt.spmm_operators()[0] @ X.astype(np.float64, copy=False)
    if allowed is not None and not allowed.all():
        sums[~allowed] = 0.0
    return sums


def scatter_spmm_values(fmt, X: np.ndarray) -> np.ndarray:
    """Row sums ``sums[r, j] = sum_{k in row r} X[col[k], j]`` in float64.

    Each row accumulates its entries in column-major storage order, the
    order of the per-source scatter SpMV's ``bincount``.
    """
    return fmt.spmm_operators()[1] @ X.astype(np.float64, copy=False)


def cast_like_spmv(sums: np.ndarray, out_dtype, *, positive_only: bool) -> np.ndarray:
    """Cast the float64 accumulator to the kernel output dtype.

    ``positive_only`` reproduces the gather kernels' ``sum > 0`` write
    sparsity (scatter kernels store every accumulated row).  Int overflow is
    allowed to wrap exactly as in the SpMV kernels -- the sigma check
    surfaces it.
    """
    out = np.zeros(sums.shape, dtype=out_dtype)
    with np.errstate(invalid="ignore"):
        if positive_only:
            written = sums > 0
            out[written] = sums[written].astype(out_dtype, copy=False)
        else:
            out[...] = sums.astype(out_dtype, copy=False)
    return out
