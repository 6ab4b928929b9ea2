"""The veCSC kernel: warp-per-column vector SpMV over the CSC format.

The paper's Algorithm 4 -- the CSC analogue of Bell & Garland's CSR-vector
kernel -- assigns a full warp to each matrix column.  The 32 lanes stream
the column's ``row_A`` slice cooperatively (coalesced, 8 words per 32 B
transaction), accumulate private partial sums, and reduce them with five
``__shfl_down_sync`` steps; lane 0 writes the result.

This removes both scalar-kernel pathologies on irregular graphs: a
49k-degree kron hub occupies one warp for ``ceil(49k / 32)`` iterations with
every lane busy (no divergence waste), and the ``row_A`` loads coalesce
perfectly.  The price is that *low*-degree columns waste 31 of 32 lanes,
which is why scalar kernels keep winning on regular graphs.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csc import CSCMatrix
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelStats
from repro.gpusim import warp as W
from repro.spmv import _spmm as M

#: Issue cycles per warp for setup: pointer loads, mask compare, bookkeeping.
_BASE_CYCLES = 6
#: Issue cycles per 32-entry strip of a column (load rows, gather x, add).
_CYCLES_PER_STRIP = 4
#: The shuffle reduction: log2(32) steps, ~2 cycles each.
_SHUFFLE_CYCLES = 10


def _veccsc_stats(
    csc: CSCMatrix,
    processed: np.ndarray,
    x: np.ndarray,
    sel_entries: np.ndarray,
    n_written: int,
    name: str,
    l2_bytes: int,
    x_txn: int | None = None,
    serial_updates: int = 0,
) -> KernelStats:
    """Hardware stats for a warp-per-column pass over ``processed`` columns."""
    n = csc.n_cols
    dtype_factor = W.dtype_cycle_factor(x.dtype)
    degrees = csc.column_counts().astype(np.int64)
    scanned = np.where(processed, degrees, 0)
    strips = (scanned + W.WARP_SIZE - 1) // W.WARP_SIZE
    total_scanned = int(scanned.sum())
    active = scanned > 0
    warp_cycles = int(
        n * _BASE_CYCLES
        + (strips * _CYCLES_PER_STRIP * dtype_factor).sum()
        + int(active.sum()) * _SHUFFLE_CYCLES * dtype_factor
    )
    critical = W.max_warp_cycles(
        strips, cycles_per_unit=4 * _CYCLES_PER_STRIP * dtype_factor
    )
    # row_A loads coalesce within the warp: ~8 words per transaction, plus
    # one boundary transaction per non-empty column.
    row_txn = int(np.sum((scanned + 7) // 8)) + int(active.sum())
    # x gather: lanes of one warp load 32 different rows at once; the memory
    # system merges addresses in the same 32 B segment.  sel_entries is the
    # concatenation of the processed columns' row indices in storage order,
    # which is exactly the per-warp access sequence (strip boundaries align
    # with columns up to one extra transaction counted in `active` above).
    if x_txn is None:
        x_txn = W.cached_gather_transactions(sel_entries, x.dtype.itemsize, csc.n_rows,
                                             l2_bytes=l2_bytes)
    ptr_txn = 2 * W.coalesced_transactions(n)
    return KernelStats(
        name=name,
        threads=32 * n,
        warp_cycles=warp_cycles,
        dram_read_bytes=(ptr_txn + row_txn + x_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=W.capped_random_transactions(n_written, n, 4) * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + total_scanned) * 4
        + total_scanned * x.dtype.itemsize,
        serial_updates=serial_updates,
        critical_warp_cycles=critical,
        flops=total_scanned,
    )


def veccsc_spmv(
    device: Device,
    csc: CSCMatrix,
    x: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked gather product with the veCSC (warp-per-column) kernel.

    Semantically identical to :func:`repro.spmv.sccsc.sccsc_spmv` -- only
    the hardware cost differs.
    """
    x = M.as_frontier_vector(x, csc.n_rows)
    x_txn = None
    if allowed is None:
        x_txn = csc.full_gather_transactions(x.dtype.itemsize,
                                             l2_bytes=device.spec.l2_bytes)
    allowed = M.check_allowed_vector(allowed, csc.n_cols)
    y, n_written = M.gather_spmv(csc, x, allowed, out_dtype)
    # The per-warp x access sequence: the processed columns' row indices.
    sel_rows = csc.row[allowed[csc.column_of_nnz()]] if x_txn is None else None
    stats = _veccsc_stats(csc, allowed, x, sel_rows, n_written, "veccsc_spmv",
                          device.spec.l2_bytes, x_txn=x_txn)
    return y, device.launch(stats, tag=tag)


def veccsc_spmv_scatter(
    device: Device,
    csc: CSCMatrix,
    x: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Scatter product ``y = A x`` with a warp-per-column kernel.

    Each warp whose column value is positive atomically adds it across the
    column's rows with coalesced accesses; used by the backward stage on
    digraphs.
    """
    x = M.as_frontier_vector(x, csc.n_cols)
    y = M.scatter_spmv(csc, x, out_dtype)

    active = x > 0
    rows_sel = csc.row[active[csc.column_of_nnz()]]
    # Longest same-address atomic chain: active entries per row (exact).
    serial = int(M.scatter_spmm_values(csc, active).max(initial=0))
    stats = _veccsc_stats(csc, active, x, rows_sel,
                          int(rows_sel.size), "veccsc_spmv_scatter",
                          device.spec.l2_bytes, serial_updates=serial)
    return y, device.launch(stats, tag=tag)


# -- batched (SpMM) variants --------------------------------------------------
#
# The warp-per-column SpMM streams each selected column's 32-entry strips
# once for all B lanes: the lanes load 32 row indices coalesced, fetch 32
# B-wide frontier rows (B-word coalesced transactions instead of scattered
# words), accumulate B partial sums and run one shuffle reduction per lane.
# Crucially, the frontier-load transaction count has a closed form
# (:func:`repro.gpusim.warp.bwide_gather_transactions`) -- no per-launch
# index sort like the SpMV's warp-merge accounting.


def _veccsc_spmm_stats(
    csc: CSCMatrix,
    lanes: np.ndarray,
    B: int,
    x_dtype,
    write_txn: int,
    name: str,
    l2_bytes: int,
    *,
    serial_updates: int = 0,
) -> KernelStats:
    """Hardware stats for a warp-per-column SpMM pass over the columns with
    ``lanes > 0`` (``lanes[c]`` = batch lanes column ``c`` contributes to)."""
    x_itemsize = np.dtype(x_dtype).itemsize
    dtype_factor = W.dtype_cycle_factor(x_dtype)
    n = csc.n_cols
    degrees = csc.column_counts()
    scanned = np.where(lanes > 0, degrees, 0).astype(np.int64)
    strips = (scanned + W.WARP_SIZE - 1) // W.WARP_SIZE
    total_scanned = int(scanned.sum())
    lane_entries = int((scanned * lanes).sum())
    active = scanned > 0
    warp_cycles = int(
        n * _BASE_CYCLES
        + ((strips * (_CYCLES_PER_STRIP + lanes)) * dtype_factor).sum()
        + int((lanes[active]).sum()) * _SHUFFLE_CYCLES * dtype_factor
    )
    critical = W.max_warp_cycles(
        strips * (_CYCLES_PER_STRIP + lanes),
        cycles_per_unit=4 * dtype_factor,
    )
    row_txn = int(np.sum((scanned + 7) // 8)) + int(active.sum())
    x_txn = W.bwide_gather_transactions(
        total_scanned, B, csc.n_rows, x_itemsize, l2_bytes=l2_bytes
    )
    ptr_txn = 2 * W.coalesced_transactions(n)
    mask_txn = W.coalesced_transactions(n * B)
    return KernelStats(
        name=name,
        threads=32 * n,
        warp_cycles=warp_cycles,
        dram_read_bytes=(ptr_txn + mask_txn + row_txn + x_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + n * B + total_scanned) * 4
        + lane_entries * x_itemsize,
        serial_updates=serial_updates,
        critical_warp_cycles=critical,
        flops=lane_entries,
    )


def veccsc_spmm(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked batched gather product ``Y = A^T X`` with the veCSC kernel.

    Semantically identical to :func:`repro.spmv.sccsc.sccsc_spmm` -- only
    the hardware cost differs (warp-per-column streaming, no divergence on
    hub columns).
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

    written_cols = int(np.count_nonzero(M.lane_any(sums > 0)))
    write_txn = written_cols * (-(-B * np.dtype(out_dtype).itemsize // W.TRANSACTION_BYTES))
    lanes = M.lane_count(allowed)
    stats = _veccsc_spmm_stats(csc, lanes, B, X.dtype, write_txn, "veccsc_spmm",
                               device.spec.l2_bytes)
    return Y, device.launch(stats, tag=tag)


def veccsc_spmm_scatter(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Batched scatter product ``Y = A X`` with a warp-per-column kernel.

    Lane results are bit-identical to B separate
    :func:`veccsc_spmv_scatter` calls.
    """
    X = M.as_frontier_matrix(X, csc.n_cols)
    B = X.shape[1]
    pos = X > 0
    Xp = np.where(pos, X, X.dtype.type(0))
    sums = M.scatter_spmm_values(csc, Xp)
    out_dtype = out_dtype or X.dtype
    Y = M.cast_like_spmv(sums, out_dtype, positive_only=False)

    lanes = M.lane_count(pos)
    degrees = csc.column_counts()
    total_scanned = int(np.where(lanes > 0, degrees, 0).sum())
    write_txn = W.bwide_gather_transactions(
        total_scanned, B, csc.n_rows, np.dtype(out_dtype).itemsize,
        l2_bytes=device.spec.l2_bytes,
    )
    row_ptr, _ = csc.scatter_plan()
    serial = int(np.diff(row_ptr).max()) if csc.nnz else 0
    stats = _veccsc_spmm_stats(csc, lanes, B, X.dtype, write_txn,
                               "veccsc_spmm_scatter", device.spec.l2_bytes,
                               serial_updates=serial)
    return Y, device.launch(stats, tag=tag)
