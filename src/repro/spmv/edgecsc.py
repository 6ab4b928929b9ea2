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


def _gather_cost(csc: CSCMatrix, p: M.Product, name: str, l2_bytes: int) -> KernelStats:
    """Hardware stats of a thread-per-entry masked gather.

    The SpMV thread loads ``x`` only for an allowed column and issues an
    atomic only for a positive value.  The SpMM thread locates its column
    once (one lookup amortised B-fold versus B SpMV launches), reads the
    B-wide lane mask, fetches the B-wide frontier row coalesced, and issues
    one atomic per allowed lane into the column's B-wide row.
    """
    m, n = csc.nnz, csc.n_cols
    itemsize = p.x_dtype.itemsize
    dtype_factor = W.dtype_cycle_factor(p.x_dtype)
    if p.vector:
        sel = M.column_entries(csc.col_ptr, np.flatnonzero(p.lanes))
        sel_rows = csc.row[sel]
        dst = csc.column_of_nnz()[sel][p.active[sel_rows]]
        work = int(dst.size)
        x_txn = W.cached_gather_transactions(sel_rows, itemsize, csc.n_rows, l2_bytes=l2_bytes)
        write_txn = (W.cached_gather_transactions(dst, itemsize, n, l2_bytes=l2_bytes)
                     if work else 0)
        serial = int(np.bincount(dst, minlength=1).max()) if work else 0
        conflicts = W.atomic_conflict_cycles(dst)
        requested = (2 * m + int(sel_rows.size) + 2 * work) * itemsize
    else:
        degrees = csc.column_counts()
        col_select = p.lanes > 0
        total_scanned = int(degrees[col_select].sum())
        work = int(p.lanes @ degrees)
        if total_scanned == m:
            # every backward level and every unmasked forward one: a constant
            conflicts = csc.full_atomic_conflict_cycles()
        else:
            # the selected columns' entries, in storage order
            sel = M.column_entries(csc.col_ptr, np.flatnonzero(col_select))
            conflicts = W.atomic_conflict_cycles(csc.column_of_nnz()[sel])
        x_txn = (
            W.coalesced_transactions(m * p.B, 1)                     # lane-mask rows
            + W.bwide_gather_transactions(total_scanned, p.B, csc.n_rows, itemsize,
                                          l2_bytes=l2_bytes)
        )
        write_txn = (W.bwide_gather_transactions(p.written, p.B, n, itemsize,
                                                 l2_bytes=l2_bytes) if p.written else 0)
        # Longest same-address chain: every entry of a selected column hits it.
        serial = int(degrees[col_select].max(initial=0))
        requested = (m + total_scanned) * 4 + (m * p.B + work) * itemsize
    look = lookup_cycles(n)
    # the row_A sweep and the CP_A binary search, then the frontier loads
    read_txn = W.coalesced_transactions(m) + _lookup_txn(csc, l2_bytes) + x_txn
    return KernelStats(
        name=name,
        threads=m,
        warp_cycles=(
            W.uniform_warp_cycles(m, _BASE_CYCLES + look)
            + W.warp_count(work) * _ACTIVE_CYCLES * dtype_factor
            + conflicts * dtype_factor
        ),
        dram_read_bytes=(read_txn + write_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=requested,
        serial_updates=serial * dtype_factor,
        critical_warp_cycles=_BASE_CYCLES + look + _ACTIVE_CYCLES * p.B,  # flat per-edge work
        flops=work,
    )


def _scatter_cost(csc: CSCMatrix, p: M.Product, name: str, l2_bytes: int) -> KernelStats:
    """Hardware stats of a thread-per-entry scatter: each thread whose
    column has a positive lane atomically adds it (B-wide for the SpMM)
    into its row's output."""
    m, n = csc.nnz, csc.n_cols
    itemsize = p.x_dtype.itemsize
    dtype_factor = W.dtype_cycle_factor(p.x_dtype)
    # rows of the entries with a contributing lane, in storage order
    rows = csc.row[M.column_entries(csc.col_ptr, np.flatnonzero(p.active))]
    n_contrib = int(rows.size)
    work = int(p.active @ csc.column_counts())
    if p.vector:
        # x gather: consecutive threads of a column read the same x word,
        # so the access merges like a gather at the column indices themselves
        x_txn = W.cached_gather_transactions(csc.column_of_nnz(), itemsize, n,
                                             l2_bytes=l2_bytes)
        write_txn = (W.cached_gather_transactions(rows, itemsize, csc.n_rows,
                                                  l2_bytes=l2_bytes) if n_contrib else 0)
        requested = (2 * m + 2 * n_contrib) * itemsize
    else:
        x_txn = W.bwide_gather_transactions(m, p.B, n, itemsize, l2_bytes=l2_bytes)
        write_txn = (W.bwide_gather_transactions(n_contrib, p.B, csc.n_rows, itemsize,
                                                 l2_bytes=l2_bytes) if n_contrib else 0)
        requested = (m + n_contrib) * 4 + (m * p.B + work) * itemsize
    # Longest same-address atomic chain: active entries per row (exact).
    serial = int(np.bincount(rows, minlength=1).max()) if n_contrib else 0
    look = lookup_cycles(n)
    # the row_A sweep and the CP_A binary search, then the frontier loads
    read_txn = W.coalesced_transactions(m) + _lookup_txn(csc, l2_bytes) + x_txn
    return KernelStats(
        name=name,
        threads=m,
        warp_cycles=(
            W.uniform_warp_cycles(m, _BASE_CYCLES + look)
            + W.warp_count(work) * _ACTIVE_CYCLES * dtype_factor
            + W.atomic_conflict_cycles(rows) * dtype_factor
        ),
        dram_read_bytes=(read_txn + write_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=requested,
        serial_updates=serial * dtype_factor,
        critical_warp_cycles=_BASE_CYCLES + look + _ACTIVE_CYCLES * p.B,
        flops=work,
    )


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
    p = M.product(csc, x, batched=False, allowed=allowed, out_dtype=out_dtype,
                  need="lanes active")
    return p.y, device.launch(_gather_cost(csc, p, "edgecsc_spmv", device.spec.l2_bytes),
                              tag=tag)


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
    p = M.product(csc, x, batched=False, scatter=True, out_dtype=out_dtype, need="active")
    return p.y, device.launch(
        _scatter_cost(csc, p, "edgecsc_spmv_scatter", device.spec.l2_bytes), tag=tag)


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
    p = M.product(csc, X, batched=True, allowed=allowed, out_dtype=out_dtype,
                  need="lanes written")
    return p.y, device.launch(_gather_cost(csc, p, "edgecsc_spmm", device.spec.l2_bytes),
                              tag=tag)


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
    p = M.product(csc, X, batched=True, scatter=True, out_dtype=out_dtype, need="active")
    return p.y, device.launch(
        _scatter_cost(csc, p, "edgecsc_spmm_scatter", device.spec.l2_bytes), tag=tag)
