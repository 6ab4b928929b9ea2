"""The scCSC kernel: thread-per-column masked SpMV over the CSC format.

The CUDA kernel (paper's Algorithm 3, parallelised) assigns one thread to
each matrix column ``i``::

    if sigma[i] == 0:                      # the fused mask
        sum = 0
        for k in CP_A[i] .. CP_A[i+1]-1:   # scan the column
            sum += x[row_A[k]]
        if sum > 0:                        # sparsity of x
            y[i] = sum

Fusing the ``sigma == 0`` mask into the SpMV is TurboBC's second
optimization: already-discovered columns cost one compare instead of a
column scan.  The kernel's weakness is intra-warp divergence -- a warp
retires at the speed of its largest column -- which is why it only wins on
*regular* graphs (near-uniform degrees).  Loads of ``row_A`` are sequential
per lane (L1-assisted, ~8 words per 32 B line) but the ``x`` gather is fully
uncoalesced: one transaction per stored entry scanned.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csc import CSCMatrix
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelStats
from repro.gpusim import warp as W
from repro.spmv import _spmm as M

#: Issue cycles per thread for index math + the mask compare.
_BASE_CYCLES = 4
#: Issue cycles per scanned entry (load row index, load x, accumulate).
_CYCLES_PER_ENTRY = 3
#: Critical-path cycles per entry for the *longest* lane: a serial chain of
#: dependent gathers exposes memory latency (~8 cycles survive pipelining)
#: on top of the issue cost.
_CRITICAL_CYCLES_PER_ENTRY = 12


def _cost(csc: CSCMatrix, p: M.Product, name: str, l2_bytes: int) -> KernelStats:
    """Hardware stats of a thread-per-column pass.

    A gather scans the columns with an allowed lane, a scatter the columns
    with a positive lane, atomically adding each entry; other columns cost
    one compare.  The SpMV loads one uncoalesced ``x`` word per scanned
    entry.  The SpMM scans a column once for the whole batch: per entry one
    row index (amortised B-fold versus B SpMV launches) and one B-word row
    of the row-major frontier matrix (coalesced into ``ceil(B*itemsize/32)``
    transactions, versus B scattered words), accumulating B partial sums.
    """
    lanes = p.active if p.scatter else p.lanes
    x_itemsize = p.x_dtype.itemsize
    dtype_factor = W.dtype_cycle_factor(p.x_dtype)
    n, B = csc.n_cols, p.B
    scanned = np.where(lanes, csc.column_counts(), 0).astype(np.int64)
    total_scanned = int(scanned.sum())
    lane_entries = int((scanned * lanes).sum())
    x_words, serial = lane_entries, 0
    if p.vector:
        mask_words = 0
        if p.scatter:
            x_txn = W.capped_random_transactions(total_scanned, n, x_itemsize,
                                                 l2_bytes=l2_bytes)
            # Per-lane serial atomic stores, thrashing-bounded like the gathers.
            write_txn = W.scalar_gather_transactions(total_scanned, csc.n_rows, 4,
                                                     l2_bytes=l2_bytes)
            work = scanned * (_CYCLES_PER_ENTRY + 2)
            critical = scanned * _CRITICAL_CYCLES_PER_ENTRY
            x_words = int(np.count_nonzero(lanes))
            # Longest same-address atomic chain: active entries per row (exact).
            serial = int(M.scatter_spmm_values(csc, lanes).max(initial=0))
        else:
            # one 32 B transaction per x entry (uncoalesced gather)
            x_txn = W.scalar_gather_transactions(total_scanned, csc.n_rows, x_itemsize,
                                                 l2_bytes=l2_bytes)
            write_txn = p.written  # scattered single-word stores
            work = scanned * (_CYCLES_PER_ENTRY * dtype_factor)
            critical = scanned * (_CRITICAL_CYCLES_PER_ENTRY * dtype_factor)
    else:
        mask_words = n * B
        x_txn = W.bwide_gather_transactions(total_scanned, B, csc.n_rows, x_itemsize,
                                            l2_bytes=l2_bytes)
        work = scanned * (2 + p.scatter) + scanned * lanes * dtype_factor
        critical = scanned * (_CRITICAL_CYCLES_PER_ENTRY + lanes * dtype_factor)
        if p.scatter:
            write_txn = W.bwide_gather_transactions(
                total_scanned, B, csc.n_rows, p.out_dtype.itemsize, l2_bytes=l2_bytes)
            # Longest same-address atomic chain: a row's entries can all
            # target one (row, lane) slot, so the row multiplicity bounds it.
            row_ptr, _ = csc.scatter_plan()
            serial = int(np.diff(row_ptr).max()) if csc.nnz else 0
        else:
            write_txn = p.written * p.out_row_txn
    # Per-lane sequential scans: ~ceil(deg / 8) L1-line fills for row_A.
    row_txn = int(np.sum((scanned + 7) // 8))
    ptr_txn = 2 * W.coalesced_transactions(n)
    mask_txn = W.coalesced_transactions(mask_words)
    return KernelStats(
        name=name,
        threads=n,
        warp_cycles=W.divergent_warp_cycles(work, base_cycles=_BASE_CYCLES),
        dram_read_bytes=(ptr_txn + mask_txn + row_txn + x_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + mask_words + total_scanned) * 4 + x_words * x_itemsize,
        serial_updates=serial,
        critical_warp_cycles=W.max_warp_cycles(critical),
        flops=lane_entries,
    )


def sccsc_spmv(
    device: Device,
    csc: CSCMatrix,
    x: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked gather product with the scCSC kernel.

    ``allowed`` is the fused mask (the forward stage passes
    ``sigma == 0``); ``None`` processes every column (the unmasked SpMV of
    the backward stage on undirected graphs).
    """
    p = M.product(csc, x, batched=False, allowed=allowed, out_dtype=out_dtype,
                  need="lanes written")
    return p.y, device.launch(_cost(csc, p, "sccsc_spmv", device.spec.l2_bytes), tag=tag)


def sccsc_spmv_scatter(
    device: Device,
    csc: CSCMatrix,
    x: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Scatter product ``y = A x`` with a thread-per-column CSC kernel.

    Each thread whose column value is positive atomically adds it to the
    ``y`` entries of its column's rows; used by the backward stage on
    digraphs.  The sparsity of ``x`` is exploited: masked columns cost one
    compare.
    """
    p = M.product(csc, x, batched=False, scatter=True, out_dtype=out_dtype, need="active")
    return p.y, device.launch(_cost(csc, p, "sccsc_spmv_scatter", device.spec.l2_bytes),
                              tag=tag)


def sccsc_spmm(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked batched gather product ``Y = A^T X`` with the scCSC kernel.

    ``X`` is an ``(n, B)`` frontier matrix; ``allowed`` an ``(n, B)``
    per-(column, lane) mask (the batched forward stage passes
    ``sigma == 0 & lane-active``).  Column ``c``'s entries are scanned once
    if *any* lane allows it; lane results are bit-identical to B separate
    :func:`sccsc_spmv` calls.
    """
    p = M.product(csc, X, batched=True, allowed=allowed, out_dtype=out_dtype,
                  need="lanes written")
    return p.y, device.launch(_cost(csc, p, "sccsc_spmm", device.spec.l2_bytes), tag=tag)


def sccsc_spmm_scatter(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Batched scatter product ``Y = A X`` with a thread-per-column kernel.

    Each thread whose column has any positive lane value atomically adds its
    B-wide value row across the column's rows; lane results are bit-identical
    to B separate :func:`sccsc_spmv_scatter` calls (both accumulate each row
    in storage order).
    """
    p = M.product(csc, X, batched=True, scatter=True, out_dtype=out_dtype, need="active")
    return p.y, device.launch(_cost(csc, p, "sccsc_spmm_scatter", device.spec.l2_bytes),
                              tag=tag)
