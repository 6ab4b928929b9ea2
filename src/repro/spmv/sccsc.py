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


def _sccsc_stats(
    csc: CSCMatrix,
    allowed: np.ndarray,
    x_dtype,
    n_written: int,
    name: str,
    l2_bytes: int,
) -> KernelStats:
    """Hardware stats for a masked thread-per-column pass."""
    x_itemsize = np.dtype(x_dtype).itemsize
    dtype_factor = W.dtype_cycle_factor(x_dtype)
    n = csc.n_cols
    degrees = csc.column_counts().astype(np.int64)
    scanned = np.where(allowed, degrees, 0)
    total_scanned = int(scanned.sum())
    # Per-lane sequential scans: ~ceil(deg / 8) L1-line fills for row_A, one
    # 32 B transaction per x entry (uncoalesced gather).
    row_txn = int(np.sum((scanned + 7) // 8))
    x_txn = W.scalar_gather_transactions(total_scanned, csc.n_rows, x_itemsize,
                                         l2_bytes=l2_bytes)
    ptr_txn = 2 * W.coalesced_transactions(n)
    write_txn = n_written  # scattered single-word stores
    return KernelStats(
        name=name,
        threads=n,
        warp_cycles=W.divergent_warp_cycles(
            scanned * _CYCLES_PER_ENTRY * dtype_factor, base_cycles=_BASE_CYCLES
        ),
        dram_read_bytes=(ptr_txn + row_txn + x_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + total_scanned) * 4 + total_scanned * x_itemsize,
        critical_warp_cycles=W.max_warp_cycles(
            scanned, cycles_per_unit=_CRITICAL_CYCLES_PER_ENTRY * dtype_factor
        ),
        flops=total_scanned,
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
    x = M.as_frontier_vector(x, csc.n_rows)
    allowed = M.check_allowed_vector(allowed, csc.n_cols)
    y, n_written = M.gather_spmv(csc, x, allowed, out_dtype)
    stats = _sccsc_stats(csc, allowed, x.dtype, n_written, "sccsc_spmv",
                         device.spec.l2_bytes)
    return y, device.launch(stats, tag=tag)


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
    x = M.as_frontier_vector(x, csc.n_cols)
    y = M.scatter_spmv(csc, x, out_dtype)

    n = csc.n_cols
    active = x > 0
    degrees = csc.column_counts().astype(np.int64)
    scanned = np.where(active, degrees, 0)
    total = int(scanned.sum())
    row_txn = int(np.sum((scanned + 7) // 8))
    # Per-lane serial atomic stores, thrashing-bounded like the gathers.
    write_txn = W.scalar_gather_transactions(total, csc.n_rows, 4,
                                             l2_bytes=device.spec.l2_bytes)
    # Longest same-address atomic chain: active entries per row (exact).
    serial = int(M.scatter_spmm_values(csc, active).max(initial=0))
    stats = KernelStats(
        name="sccsc_spmv_scatter",
        threads=n,
        warp_cycles=W.divergent_warp_cycles(
            scanned * (_CYCLES_PER_ENTRY + 2), base_cycles=_BASE_CYCLES
        ),
        dram_read_bytes=(
            2 * W.coalesced_transactions(n)
            + row_txn
            + W.capped_random_transactions(total, csc.n_cols, x.dtype.itemsize,
                                           l2_bytes=device.spec.l2_bytes)
        )
        * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + total) * 4 + int(np.count_nonzero(active)) * x.dtype.itemsize,
        serial_updates=serial,
        critical_warp_cycles=W.max_warp_cycles(
            scanned, cycles_per_unit=_CRITICAL_CYCLES_PER_ENTRY
        ),
        flops=total,
    )
    return y, device.launch(stats, tag=tag)


# -- batched (SpMM) variants --------------------------------------------------
#
# The SpMM kernel is the same thread-per-column loop, but each thread scans
# its column once for a whole batch of B frontiers: per entry it loads one
# row index (amortised B-fold versus B SpMV launches) and one B-word row of
# the row-major frontier matrix (coalesced into ceil(B*itemsize/32)
# transactions, versus B scattered words), accumulating B partial sums.


def _sccsc_spmm_stats(
    csc: CSCMatrix,
    lanes: np.ndarray,
    B: int,
    x_dtype,
    write_txn: int,
    name: str,
    l2_bytes: int,
    *,
    serial_updates: int = 0,
    atomic: bool = False,
) -> KernelStats:
    """Hardware stats for a thread-per-column SpMM pass.

    ``lanes[c]`` is the number of batch lanes column ``c`` is processed for;
    columns with ``lanes == 0`` cost one B-wide mask compare only.  The
    ``atomic`` flavour (scatter) pays an extra store per lane-entry.
    """
    x_itemsize = np.dtype(x_dtype).itemsize
    dtype_factor = W.dtype_cycle_factor(x_dtype)
    n = csc.n_cols
    degrees = csc.column_counts()
    scanned = np.where(lanes > 0, degrees, 0).astype(np.int64)
    total_scanned = int(scanned.sum())
    lane_entries = int((scanned * lanes).sum())
    per_entry = 2 + (1 if atomic else 0)
    row_txn = int(np.sum((scanned + 7) // 8))
    x_txn = W.bwide_gather_transactions(
        total_scanned, B, csc.n_rows, x_itemsize, l2_bytes=l2_bytes
    )
    ptr_txn = 2 * W.coalesced_transactions(n)
    mask_txn = W.coalesced_transactions(n * B)
    work = scanned * per_entry + scanned * lanes * dtype_factor
    return KernelStats(
        name=name,
        threads=n,
        warp_cycles=W.divergent_warp_cycles(work, base_cycles=_BASE_CYCLES),
        dram_read_bytes=(ptr_txn + mask_txn + row_txn + x_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + n * B + total_scanned) * 4
        + lane_entries * x_itemsize,
        serial_updates=serial_updates,
        critical_warp_cycles=W.max_warp_cycles(
            scanned * (_CRITICAL_CYCLES_PER_ENTRY + lanes * dtype_factor)
        ),
        flops=lane_entries,
    )


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
    stats = _sccsc_spmm_stats(csc, lanes, B, X.dtype, write_txn, "sccsc_spmm",
                              device.spec.l2_bytes)
    return Y, device.launch(stats, tag=tag)


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
    # Longest same-address atomic chain: a row's entries can all target one
    # (row, lane) slot, so the cached row multiplicity bounds it.
    row_ptr, _ = csc.scatter_plan()
    serial = int(np.diff(row_ptr).max()) if csc.nnz else 0
    stats = _sccsc_spmm_stats(csc, lanes, B, X.dtype, write_txn,
                              "sccsc_spmm_scatter", device.spec.l2_bytes,
                              serial_updates=serial, atomic=True)
    return Y, device.launch(stats, tag=tag)
