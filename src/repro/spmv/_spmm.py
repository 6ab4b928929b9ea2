"""The one numeric engine of every SpMV and SpMM kernel.

The per-source (SpMV) kernels multiply the sparse adjacency structure by a
frontier vector; the batched (SpMM) kernels by an ``n x B`` frontier
*matrix*, one column per BFS source.  A vector is a width-1 matrix: both
go through the same compiled SciPy sparse x dense product over the
format's own column-major index arrays (``spmm_operators``), so batched
lanes match the per-source kernels bit for bit (DESIGN.md §7,
"Bit-exactness contract"):

* SciPy's ``csr_matvec(s)``/``csc_matvec(s)`` loops start every output
  entry at zero and add ``1.0 * x`` one stored entry at a time in storage
  order, in float64 -- the sequential order of ``np.bincount``, unlike the
  pairwise loop of ``np.add.reduceat`` (DESIGN.md §9);
* masked-out gather sums are zeroed after the product, so a mask never
  changes the arithmetic of an allowed column;
* scatter products only see positive sources (``where(x > 0, x, 0)``);
* the float64 accumulator is cast to the kernel dtype once, afterwards,
  in one branch-free ``where`` pass (:func:`cast_like_spmv`).

The SpMM kernels' stats reduce ``(n, B)`` bool lane masks along the lane
axis -- written columns, active rows, lanes per column.  :func:`lane_any`
and :func:`lane_count` read each mask row as ``ceil(B / 8)`` 8-byte words
(``!= 0``, and a byte sum by one multiply) instead of a short-axis
``any``/``sum``.

:mod:`repro.spmv.reference` keeps an independent ``np.add.at`` oracle.
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


def as_frontier_vector(x, n_rows: int) -> np.ndarray:
    """Validate a length-``n_rows`` frontier vector."""
    x = np.asarray(x)
    if x.shape != (n_rows,):
        raise ValueError(f"x must have shape ({n_rows},), got {x.shape}")
    return x


def check_allowed_vector(allowed, n_cols: int) -> np.ndarray:
    """Validate a per-column boolean mask; ``None`` allows every column."""
    if allowed is None:
        return np.ones(n_cols, dtype=bool)
    allowed = np.asarray(allowed)
    if allowed.shape != (n_cols,) or allowed.dtype != bool:
        raise ValueError(f"allowed must be a boolean mask of shape ({n_cols},)")
    return allowed


def gather_spmm_values(fmt, X: np.ndarray, allowed: np.ndarray | None = None) -> np.ndarray:
    """Column sums ``sums[c, j] = sum_{k in column c} X[row[k], j]`` in float64.

    ``fmt`` is a :class:`~repro.formats.csc.CSCMatrix` or
    :class:`~repro.formats.coo.COOCMatrix`; ``allowed`` (an ``(n_cols, B)``
    bool mask) zeroes the masked-out (column, lane) sums.  The result is the
    pre-cast accumulator of every gather kernel; ``X`` may also be a
    length-``n_rows`` vector with an ``(n_cols,)`` mask.
    """
    sums = fmt.spmm_operators()[0] @ X.astype(np.float64, copy=False)
    if allowed is not None and not allowed.all():
        sums[~allowed] = 0.0
    return sums


def scatter_spmm_values(fmt, X: np.ndarray) -> np.ndarray:
    """Row sums ``sums[r, j] = sum_{k in row r} X[col[k], j]`` in float64.

    Each row accumulates its entries in column-major storage order; ``X``
    may also be a vector.
    """
    return fmt.spmm_operators()[1] @ X.astype(np.float64, copy=False)


def gather_spmv(fmt, x: np.ndarray, allowed, out_dtype) -> tuple[np.ndarray, int]:
    """Masked gather ``y = A^T x`` of the SpMV kernels and its write count.

    ``y`` stores only the positive sums (the kernels' ``if sum > 0``);
    the count of those stores feeds the kernels' write traffic.
    """
    sums = gather_spmm_values(fmt, x, allowed)
    y = cast_like_spmv(sums, out_dtype or x.dtype, positive_only=True)
    return y, int(np.count_nonzero(sums > 0))


def scatter_spmv(fmt, x: np.ndarray, out_dtype) -> np.ndarray:
    """Scatter ``y = A x`` of the SpMV kernels: only positive ``x`` entries
    contribute, and every accumulated row is stored."""
    sums = scatter_spmm_values(fmt, np.where(x > 0, x, x.dtype.type(0)))
    return cast_like_spmv(sums, out_dtype or x.dtype, positive_only=False)


def cast_like_spmv(sums: np.ndarray, out_dtype, *, positive_only: bool) -> np.ndarray:
    """Cast the float64 accumulator to the kernel output dtype.

    ``positive_only`` reproduces the gather kernels' ``sum > 0`` write
    sparsity (scatter kernels store every accumulated row) with one
    branch-free ``where`` pass rather than a boolean-mask scatter.  Int
    overflow is allowed to wrap -- the sigma check surfaces it.
    """
    if positive_only:
        sums = np.where(sums > 0, sums, 0.0)
    with np.errstate(invalid="ignore"):
        return sums.astype(out_dtype, copy=False)


def _lane_words(mask: np.ndarray) -> np.ndarray:
    """An ``(n, B)`` bool mask as ``(n, ceil(B / 8))`` uint64 words.

    A bool is one 0/1 byte, so each word packs eight lanes of one row; a
    C-contiguous mask with ``B % 8 == 0`` is viewed in place, anything else
    is first copied into a zero-padded C-contiguous buffer.
    """
    mask = np.asarray(mask, dtype=bool)
    n, B = mask.shape
    if B % 8 or not mask.flags.c_contiguous:
        padded = np.zeros((n, -(-B // 8) * 8), dtype=bool)
        padded[:, :B] = mask
        mask = padded
    return mask.view(np.uint64)


def lane_any(mask: np.ndarray) -> np.ndarray:
    """``mask.any(axis=1)`` of an ``(n, B)`` bool mask, read word-wise.

    The :func:`~repro.spmv.tcspmm.stripe_any` trick along the lane axis: a
    row is set iff one of its words is nonzero, which is ~100x faster than
    a short-axis ``any()`` at B = 8.
    """
    words = _lane_words(mask)
    acc = words[:, 0]
    for j in range(1, words.shape[1]):
        acc = acc | words[:, j]
    return acc != 0


_BYTE_SUM = np.uint64(0x0101010101010101)
_TOP_BYTE = np.uint64(56)


def lane_count(mask: np.ndarray) -> np.ndarray:
    """``mask.sum(axis=1)`` of an ``(n, B)`` bool mask as int64.

    Every set lane is one 0x01 byte, so multiplying a word by
    ``0x0101010101010101`` (wrapping) sums its eight bytes into the top
    byte; the sum is at most 8, so no byte carries.
    """
    words = _lane_words(mask)
    count = (words[:, 0] * _BYTE_SUM) >> _TOP_BYTE
    for j in range(1, words.shape[1]):
        count += (words[:, j] * _BYTE_SUM) >> _TOP_BYTE
    return count.astype(np.int64)
