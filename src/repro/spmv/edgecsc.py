"""Thread-per-edge (scCOOC-style) SpMV over the CSC format.

The adaptive dispatcher (DESIGN.md §10) switches kernels *mid-traversal*,
but the paper's single-format memory discipline stores the matrix exactly
once -- CSC, ``n + 1 + m`` words.  The scCOOC strategy normally reads its
column index from the COOC ``col`` array; over CSC that array does not
exist, so each thread recovers its column with a binary search on ``CP_A``
(the standard COO-from-CSR trick of merge/nnz-split SpMV kernels)::

    k = thread id                      # one thread per stored entry
    c = upper_bound(CP_A, k) - 1       # ceil(log2 n) probes, L2-resident
    if sigma[c] == 0:                  # fused mask (forward stage)
        if x[row_A[k]] > 0:
            atomicAdd(&y[c], x[row_A[k]])

Per-edge work stays flat under degree outliers -- the property that makes
the scCOOC strategy the right choice on hub levels -- at the price of the
lookup cycles every thread pays.  Unlike the COOC kernel, the mask is
fused (checked *before* the ``x`` gather), so discovered hub columns cost
no atomics: the d=2 atomic storm of the unmasked COOC kernel on mawi-shape
graphs never happens.

Numerics are byte-for-byte the CSC kernels' storage-order product
(:mod:`repro.spmv._spmm`), so per-level switching between this kernel and
scCSC/veCSC is bit-identical to any static kernel choice.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import INDEX_DTYPE
from repro.formats.csc import CSCMatrix
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelStats
from repro.gpusim import warp as W
from repro.spmv import _spmm as M

#: Issue cycles every thread pays: index math, row load, mask compare.
_BASE_CYCLES = 6
#: Extra issue cycles for an active lane: x test + atomic issue.
_ACTIVE_CYCLES = 4


def lookup_cycles(n_cols: int) -> int:
    """Binary-search probes into ``CP_A``: ``ceil(log2 n)`` iterations."""
    return max(1, int(np.ceil(np.log2(max(n_cols, 2)))))


def _lookup_txn(csc: CSCMatrix, l2_bytes: int) -> int:
    """DRAM transactions of the per-thread ``CP_A`` binary search.

    All ``m`` threads probe the same (n+1)-word array; the L2 compulsory
    bound caps the traffic at the array's own segment count.
    """
    return W.capped_random_transactions(csc.nnz, csc.n_cols + 1, 4, l2_bytes=l2_bytes)


def edgecsc_spmv(
    device: Device,
    csc: CSCMatrix,
    x: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked gather product ``y = A^T x``, one thread per stored entry.

    Semantically identical to :func:`repro.spmv.sccsc.sccsc_spmv` -- only
    the hardware cost differs (flat per-edge work + CP_A lookup instead of
    a per-column scan).
    """
    x = M.as_frontier_vector(x, csc.n_rows)
    n = csc.n_cols
    allowed = M.check_allowed_vector(allowed, n)
    y, _ = M.gather_spmv(csc, x, allowed, out_dtype)

    col_of_nnz = csc.column_of_nnz()
    sel = allowed[col_of_nnz]
    sel_rows = csc.row[sel]
    vals = x[sel_rows]
    m = csc.nnz
    l2 = device.spec.l2_bytes
    itemsize = x.dtype.itemsize
    dtype_factor = W.dtype_cycle_factor(x.dtype)
    contrib = vals > 0
    n_contrib = int(np.count_nonzero(contrib))
    dst_contrib = col_of_nnz[sel][contrib]
    read_txn = (
        W.coalesced_transactions(m)                      # row_A sweep
        + _lookup_txn(csc, l2)                           # CP_A binary search
        + W.cached_gather_transactions(sel_rows, itemsize, csc.n_rows, l2_bytes=l2)
    )
    write_txn = (
        W.cached_gather_transactions(dst_contrib, itemsize, n, l2_bytes=l2)
        if n_contrib
        else 0
    )
    serial = (
        int(np.bincount(dst_contrib, minlength=1).max()) * dtype_factor
        if n_contrib
        else 0
    )
    look = lookup_cycles(n)
    stats = KernelStats(
        name="edgecsc_spmv",
        threads=m,
        warp_cycles=(
            W.uniform_warp_cycles(m, _BASE_CYCLES + look)
            + W.warp_count(n_contrib) * _ACTIVE_CYCLES * dtype_factor
            + W.atomic_conflict_cycles(dst_contrib) * dtype_factor
        ),
        dram_read_bytes=(read_txn + write_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * m + int(sel_rows.size) + 2 * n_contrib) * itemsize,
        serial_updates=serial,
        critical_warp_cycles=_BASE_CYCLES + look + _ACTIVE_CYCLES,  # flat per-edge work
        flops=n_contrib,
    )
    return y, device.launch(stats, tag=tag)


def edgecsc_spmv_scatter(
    device: Device,
    csc: CSCMatrix,
    x: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Scatter product ``y = A x``, one thread per stored entry.

    Each thread whose column value is positive atomically adds it to its
    row's ``y`` entry; used by the backward stage on digraphs.
    """
    x = M.as_frontier_vector(x, csc.n_cols)
    y = M.scatter_spmv(csc, x, out_dtype)

    n = csc.n_cols
    active = x > 0
    col_of_nnz = csc.column_of_nnz()
    rows_sel = csc.row[active[col_of_nnz]]

    m = csc.nnz
    l2 = device.spec.l2_bytes
    itemsize = x.dtype.itemsize
    dtype_factor = W.dtype_cycle_factor(x.dtype)
    n_contrib = int(rows_sel.size)
    # x gather: consecutive threads of a column read the same x word, so the
    # access merges like a gather at the column indices themselves.
    read_txn = (
        W.coalesced_transactions(m)
        + _lookup_txn(csc, l2)
        + W.cached_gather_transactions(col_of_nnz, itemsize, n, l2_bytes=l2)
    )
    write_txn = (
        W.cached_gather_transactions(rows_sel, itemsize, csc.n_rows, l2_bytes=l2)
        if n_contrib
        else 0
    )
    # Longest same-address atomic chain: active entries per row (exact).
    serial = int(M.scatter_spmm_values(csc, active).max(initial=0)) * dtype_factor
    look = lookup_cycles(n)
    stats = KernelStats(
        name="edgecsc_spmv_scatter",
        threads=m,
        warp_cycles=(
            W.uniform_warp_cycles(m, _BASE_CYCLES + look)
            + W.warp_count(n_contrib) * _ACTIVE_CYCLES * dtype_factor
            + W.atomic_conflict_cycles(rows_sel) * dtype_factor
        ),
        dram_read_bytes=(read_txn + write_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * m + 2 * n_contrib) * itemsize,
        serial_updates=serial,
        critical_warp_cycles=_BASE_CYCLES + look + _ACTIVE_CYCLES,
        flops=n_contrib,
    )
    return y, device.launch(stats, tag=tag)


# -- batched (SpMM) variants --------------------------------------------------
#
# The SpMM keeps the thread-per-edge shape: each thread locates its column
# once (one lookup amortised B-fold versus B SpMV launches), reads the
# B-wide lane mask, fetches the B-wide frontier row coalesced, and issues
# one atomic per contributing lane into the destination's B-wide row.


def edgecsc_spmm(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked batched gather product ``Y = A^T X``, one thread per entry.

    Lane results are bit-identical to B separate :func:`edgecsc_spmv`
    calls (the same storage-order accumulation as the CSC SpMM kernels).
    """
    X = M.as_frontier_matrix(X, csc.n_rows)
    n = csc.n_cols
    B = X.shape[1]
    if allowed is None:
        allowed = np.ones((n, B), dtype=bool)
    else:
        allowed = M.check_allowed_matrix(allowed, n, B)
    sums = M.gather_spmm_values(csc, X, allowed)
    out_dtype = out_dtype or X.dtype
    Y = M.cast_like_spmv(sums, out_dtype, positive_only=True)

    m = csc.nnz
    l2 = device.spec.l2_bytes
    itemsize = X.dtype.itemsize
    dtype_factor = W.dtype_cycle_factor(X.dtype)
    degrees = csc.column_counts()
    lanes = M.lane_count(allowed)
    col_select = lanes > 0
    scanned = np.where(col_select, degrees, 0).astype(np.int64)
    total_scanned = int(scanned.sum())
    lane_entries = int((scanned * lanes).sum())
    if col_select.all():
        # every backward level and every unmasked forward one: a constant
        conflicts = csc.full_atomic_conflict_cycles()
    else:
        # Entries of the selected columns in storage order (column-major),
        # i.e. column_of_nnz() filtered by col_select, without an O(nnz)
        # mask pass.
        sel_cols = np.flatnonzero(col_select).astype(INDEX_DTYPE)
        conflicts = W.atomic_conflict_cycles(np.repeat(sel_cols, degrees[col_select]))
    written_cols = int(np.count_nonzero(M.lane_any(sums > 0)))
    look = lookup_cycles(n)
    read_txn = (
        W.coalesced_transactions(m)                                  # row_A sweep
        + _lookup_txn(csc, l2)                                       # CP_A search
        + W.coalesced_transactions(m * B, 1)                         # lane-mask rows
        + W.bwide_gather_transactions(total_scanned, B, csc.n_rows, itemsize,
                                      l2_bytes=l2)
    )
    write_txn = (
        W.bwide_gather_transactions(written_cols, B, n, itemsize, l2_bytes=l2)
        if written_cols
        else 0
    )
    # Longest same-address chain: every entry of a selected column hits it.
    serial = int(degrees[col_select].max(initial=0)) * dtype_factor
    stats = KernelStats(
        name="edgecsc_spmm",
        threads=m,
        warp_cycles=(
            W.uniform_warp_cycles(m, _BASE_CYCLES + look)
            + W.warp_count(lane_entries) * _ACTIVE_CYCLES * dtype_factor
            + conflicts * dtype_factor
        ),
        dram_read_bytes=(read_txn + write_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(m + total_scanned) * 4 + (m * B + lane_entries) * itemsize,
        serial_updates=serial,
        critical_warp_cycles=_BASE_CYCLES + look + _ACTIVE_CYCLES * B,
        flops=lane_entries,
    )
    return Y, device.launch(stats, tag=tag)


def edgecsc_spmm_scatter(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Batched scatter product ``Y = A X``, one thread per entry.

    Lane results are bit-identical to B separate
    :func:`edgecsc_spmv_scatter` calls (both accumulate each row in
    storage order).
    """
    X = M.as_frontier_matrix(X, csc.n_cols)
    n = csc.n_cols
    B = X.shape[1]
    pos = X > 0
    Xp = np.where(pos, X, X.dtype.type(0))
    sums = M.scatter_spmm_values(csc, Xp)
    out_dtype = out_dtype or X.dtype
    Y = M.cast_like_spmv(sums, out_dtype, positive_only=False)

    m = csc.nnz
    l2 = device.spec.l2_bytes
    itemsize = X.dtype.itemsize
    dtype_factor = W.dtype_cycle_factor(X.dtype)
    lanes_per_col = M.lane_count(pos)
    lane_entries = int(lanes_per_col @ csc.column_counts())
    # rows of the entries with a contributing lane, in storage order
    rows_contrib = csc.row[M.column_entries(csc.col_ptr, np.flatnonzero(lanes_per_col))]
    look = lookup_cycles(n)
    read_txn = (
        W.coalesced_transactions(m)
        + _lookup_txn(csc, l2)
        + W.bwide_gather_transactions(m, B, n, itemsize, l2_bytes=l2)
    )
    write_txn = (
        W.bwide_gather_transactions(int(rows_contrib.size), B, csc.n_rows, itemsize,
                                    l2_bytes=l2)
        if rows_contrib.size
        else 0
    )
    serial = (
        int(np.bincount(rows_contrib, minlength=1).max()) * dtype_factor
        if rows_contrib.size
        else 0
    )
    stats = KernelStats(
        name="edgecsc_spmm_scatter",
        threads=m,
        warp_cycles=(
            W.uniform_warp_cycles(m, _BASE_CYCLES + look)
            + W.warp_count(lane_entries) * _ACTIVE_CYCLES * dtype_factor
            + W.atomic_conflict_cycles(rows_contrib) * dtype_factor
        ),
        dram_read_bytes=(read_txn + write_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(m + int(rows_contrib.size)) * 4
        + (m * B + lane_entries) * itemsize,
        serial_updates=serial,
        critical_warp_cycles=_BASE_CYCLES + look + _ACTIVE_CYCLES * B,
        flops=lane_entries,
    )
    return Y, device.launch(stats, tag=tag)
