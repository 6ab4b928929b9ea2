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


def _cost(csc: CSCMatrix, p: M.Product, name: str, l2_bytes: int) -> KernelStats:
    """Hardware stats of a warp-per-column pass.

    A gather streams the columns with an allowed lane, a scatter the
    columns with a positive lane (atomically adding across the column's
    rows with coalesced accesses).  The SpMM streams each such column's
    32-entry strips once for all B lanes: the lanes load 32 row indices
    coalesced, fetch 32 B-wide frontier rows (B-word coalesced
    transactions, a closed form -- no per-launch index sort like the SpMV's
    warp-merge accounting), accumulate B partial sums and run one shuffle
    reduction per lane.
    """
    lanes = p.active if p.scatter else p.lanes
    x_itemsize = p.x_dtype.itemsize
    dtype_factor = W.dtype_cycle_factor(p.x_dtype)
    n, B = csc.n_cols, p.B
    scanned = np.where(lanes, csc.column_counts(), 0).astype(np.int64)
    strips = (scanned + W.WARP_SIZE - 1) // W.WARP_SIZE
    total_scanned = int(scanned.sum())
    lane_entries = int((scanned * lanes).sum())
    active = scanned > 0
    serial = 0
    if p.vector:
        strip_cycles, mask_words = _CYCLES_PER_STRIP, 0
        # x gather: lanes of one warp load 32 different rows at once; the
        # memory system merges addresses in the same 32 B segment.  The
        # selected columns' row indices in storage order are exactly the
        # per-warp access sequence (strip boundaries align with columns up
        # to one extra transaction counted in `row_txn` below).
        if p.scatter or p.masked:
            sel_rows = csc.row[M.column_entries(csc.col_ptr, np.flatnonzero(lanes))]
            x_txn = W.cached_gather_transactions(sel_rows, x_itemsize, csc.n_rows,
                                                 l2_bytes=l2_bytes)
        else:
            x_txn = csc.full_gather_transactions(x_itemsize, l2_bytes=l2_bytes)
        n_written = int(sel_rows.size) if p.scatter else p.written
        write_txn = W.capped_random_transactions(n_written, n, 4)
        if p.scatter:
            # Longest same-address atomic chain: active entries per row (exact).
            serial = int(M.scatter_spmm_values(csc, lanes).max(initial=0))
    else:
        strip_cycles, mask_words = _CYCLES_PER_STRIP + lanes, n * B
        x_txn = W.bwide_gather_transactions(total_scanned, B, csc.n_rows, x_itemsize,
                                            l2_bytes=l2_bytes)
        if p.scatter:
            write_txn = W.bwide_gather_transactions(
                total_scanned, B, csc.n_rows, p.out_dtype.itemsize, l2_bytes=l2_bytes)
            row_ptr, _ = csc.scatter_plan()
            serial = int(np.diff(row_ptr).max()) if csc.nnz else 0
        else:
            write_txn = p.written * p.out_row_txn
    warp_cycles = int(
        n * _BASE_CYCLES
        + ((strips * strip_cycles) * dtype_factor).sum()
        + int((lanes[active]).sum()) * _SHUFFLE_CYCLES * dtype_factor
    )
    # row_A loads coalesce within the warp: ~8 words per transaction, plus
    # one boundary transaction per non-empty column.
    row_txn = int(np.sum((scanned + 7) // 8)) + int(active.sum())
    ptr_txn = 2 * W.coalesced_transactions(n)
    mask_txn = W.coalesced_transactions(mask_words)
    return KernelStats(
        name=name,
        threads=32 * n,
        warp_cycles=warp_cycles,
        dram_read_bytes=(ptr_txn + mask_txn + row_txn + x_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + mask_words + total_scanned) * 4
        + lane_entries * x_itemsize,
        serial_updates=serial,
        critical_warp_cycles=W.max_warp_cycles(strips * strip_cycles,
                                               cycles_per_unit=4 * dtype_factor),
        flops=lane_entries,
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
    p = M.product(csc, x, batched=False, allowed=allowed, out_dtype=out_dtype,
                  need="lanes written")
    return p.y, device.launch(_cost(csc, p, "veccsc_spmv", device.spec.l2_bytes), tag=tag)


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
    p = M.product(csc, x, batched=False, scatter=True, out_dtype=out_dtype, need="active")
    return p.y, device.launch(_cost(csc, p, "veccsc_spmv_scatter", device.spec.l2_bytes),
                              tag=tag)


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
    p = M.product(csc, X, batched=True, allowed=allowed, out_dtype=out_dtype,
                  need="lanes written")
    return p.y, device.launch(_cost(csc, p, "veccsc_spmm", device.spec.l2_bytes), tag=tag)


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
    p = M.product(csc, X, batched=True, scatter=True, out_dtype=out_dtype, need="active")
    return p.y, device.launch(_cost(csc, p, "veccsc_spmm_scatter", device.spec.l2_bytes),
                              tag=tag)
