"""The scCOOC kernel: thread-per-edge SpMV over the COOC format.

The CUDA kernel (paper's Algorithm 2, parallelised) assigns one thread to
each stored entry ``k``::

    if x[row[k]] > 0:
        atomicAdd(&y[col[k]], x[row[k]])

Per-edge work is constant regardless of the degree distribution, which is
why scCOOC tolerates the extreme degree outliers of the mawi traces that
stall the thread-per-column scCSC kernel.  The costs are: a coalesced sweep
of ``row`` (every thread), an uncoalesced gather of ``x`` (every thread), a
coalesced-but-sparse read of ``col`` plus an atomic scatter into ``y``
(active threads only).  COOC's column-major ordering makes active lanes
write *runs of identical columns*, so intra-warp atomic conflicts -- counted
exactly by :func:`repro.gpusim.warp.atomic_conflict_cycles` -- are the
kernel's main issue cost on low-degree graphs.
"""

from __future__ import annotations

import numpy as np

from repro.formats.coo import COOCMatrix
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelStats
from repro.gpusim import warp as W
from repro.spmv import _spmm as M

#: Issue cycles every thread pays: index math, row load, compare.
_BASE_CYCLES = 6
#: Extra issue cycles for an active lane: col load + atomic issue.
_ACTIVE_CYCLES = 4


def _sccooc_common(
    device: Device,
    cooc: COOCMatrix,
    src_idx: np.ndarray,
    dst_idx: np.ndarray,
    segment_sums,
    x: np.ndarray,
    n_out: int,
    name: str,
    tag: str,
    out_dtype,
    x_gather_txn: int,
) -> tuple[np.ndarray, KernelLaunch]:
    """Shared implementation of gather/scatter scCOOC (they differ only in
    which COOC array is the load index and which is the store index).

    ``segment_sums`` is the matching storage-order product
    (``M.gather_spmm_values`` or ``M.scatter_spmm_values``); the index
    arrays drive the cost model only.
    """
    l2_bytes = device.spec.l2_bytes
    m = src_idx.size
    y = M.cast_like_spmv(
        segment_sums(cooc, np.where(x > 0, x, x.dtype.type(0))), out_dtype,
        positive_only=False,
    )
    active = x[src_idx] > 0
    n_active = int(np.count_nonzero(active))
    dst_active = dst_idx[active]

    itemsize = x.dtype.itemsize
    dtype_factor = W.dtype_cycle_factor(x.dtype)
    read_txn = (
        W.coalesced_transactions(m)                          # src index sweep
        + x_gather_txn                                       # x gather (cached per matrix)
        + W.gather_transactions(np.flatnonzero(active))      # sparse dst-index read
    )
    # Atomic read-modify-write on y: one transaction in, one out per distinct
    # warp segment of the destination addresses, L2-merged across the kernel.
    write_txn = (
        W.cached_gather_transactions(dst_active, itemsize, n_out, l2_bytes=l2_bytes)
        if n_active
        else 0
    )
    # Longest same-address atomic chain: active entries per destination.
    serial = int(segment_sums(cooc, x > 0).max(initial=0)) * dtype_factor
    stats = KernelStats(
        name=name,
        threads=m,
        warp_cycles=(
            W.uniform_warp_cycles(m, _BASE_CYCLES)
            + W.warp_count(n_active) * _ACTIVE_CYCLES * dtype_factor
            + W.atomic_conflict_cycles(dst_active) * dtype_factor
        ),
        dram_read_bytes=(read_txn + write_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * m + 2 * n_active) * itemsize,
        serial_updates=serial,
        critical_warp_cycles=_BASE_CYCLES + _ACTIVE_CYCLES,  # flat per-edge work
        flops=n_active,
    )
    return y, device.launch(stats, tag=tag)


def sccooc_spmv(
    device: Device,
    cooc: COOCMatrix,
    x: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Gather product ``y = A^T x`` with the scCOOC kernel.

    Exploits the sparsity of ``x``: only entries whose source value is
    positive contribute (Algorithm 2, line 5).
    """
    x = M.as_frontier_vector(x, cooc.n_rows)
    return _sccooc_common(
        device, cooc, cooc.row, cooc.col, M.gather_spmm_values, x,
        cooc.n_cols, "sccooc_spmv", tag,
        out_dtype or x.dtype,
        cooc.full_gather_transactions("row", x.dtype.itemsize,
                                      l2_bytes=device.spec.l2_bytes),
    )


def sccooc_spmv_scatter(
    device: Device,
    cooc: COOCMatrix,
    x: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Scatter product ``y = A x`` with the scCOOC kernel (swapped roles of
    the two COOC index arrays); used by the backward stage on digraphs."""
    x = M.as_frontier_vector(x, cooc.n_cols)
    return _sccooc_common(
        device, cooc, cooc.col, cooc.row, M.scatter_spmm_values, x,
        cooc.n_rows, "sccooc_spmv_scatter", tag,
        out_dtype or x.dtype,
        cooc.full_gather_transactions("col", x.dtype.itemsize,
                                      l2_bytes=device.spec.l2_bytes),
    )


# -- batched (SpMM) variants --------------------------------------------------
#
# The SpMM kernel keeps the thread-per-edge shape: each thread loads its
# source index once (amortised B-fold versus B SpMV launches), fetches the
# B-wide frontier row with coalesced B-word transactions, and issues one
# atomic per positive lane into the destination's B-wide output row.


def _sccooc_spmm_common(
    device: Device,
    cooc: COOCMatrix,
    src_idx: np.ndarray,
    dst_idx: np.ndarray,
    segment_sums,
    X: np.ndarray,
    n_out: int,
    name: str,
    tag: str,
    out_dtype,
) -> tuple[np.ndarray, KernelLaunch]:
    """Shared batched gather/scatter scCOOC.

    ``src_idx``/``dst_idx`` are the storage-order load/store index arrays
    (for the cost model); ``segment_sums`` is the matching compiled product
    (``M.gather_spmm_values`` or ``M.scatter_spmm_values``), which
    accumulates every destination in storage order, so lane results are
    bit-identical to B per-source SpMV calls.
    """
    l2_bytes = device.spec.l2_bytes
    m = src_idx.size
    B = X.shape[1]
    pos = X > 0
    Xp = np.where(pos, X, X.dtype.type(0))
    sums = segment_sums(cooc, Xp)
    y = M.cast_like_spmv(sums, out_dtype, positive_only=False)

    lanes_per_src = M.lane_count(pos)
    src_lanes = lanes_per_src[src_idx]
    entry_active = src_lanes > 0
    n_active = int(np.count_nonzero(entry_active))
    lane_total = int(src_lanes.sum())
    dst_active = dst_idx[entry_active]

    itemsize = X.dtype.itemsize
    dtype_factor = W.dtype_cycle_factor(X.dtype)
    read_txn = (
        W.coalesced_transactions(m)                                    # src sweep
        + W.bwide_gather_transactions(m, B, Xp.shape[0], itemsize,     # X rows
                                      l2_bytes=l2_bytes)
        + W.capped_random_transactions(n_active, m, 4, l2_bytes=l2_bytes)
    )
    write_txn = (
        W.bwide_gather_transactions(n_active, B, n_out, itemsize, l2_bytes=l2_bytes)
        if n_active
        else 0
    )
    serial = (
        int(np.bincount(dst_active, minlength=1).max()) * dtype_factor
        if n_active
        else 0
    )
    stats = KernelStats(
        name=name,
        threads=m,
        warp_cycles=(
            W.uniform_warp_cycles(m, _BASE_CYCLES)
            + W.warp_count(lane_total) * _ACTIVE_CYCLES * dtype_factor
            + W.atomic_conflict_cycles(dst_active) * dtype_factor
        ),
        dram_read_bytes=(read_txn + write_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(m + n_active) * 4 + (m * B + lane_total) * itemsize,
        serial_updates=serial,
        critical_warp_cycles=_BASE_CYCLES + _ACTIVE_CYCLES * B,
        flops=lane_total,
    )
    return y, device.launch(stats, tag=tag)


def sccooc_spmm(
    device: Device,
    cooc: COOCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Batched gather product ``Y = A^T X`` with the scCOOC kernel.

    ``X`` is the ``(n, B)`` frontier matrix; like the SpMV there is no fused
    mask (the batched update kernel applies it) and only positive lane
    values contribute (Algorithm 2, line 5, per lane).
    """
    X = M.as_frontier_matrix(X, cooc.n_rows)
    return _sccooc_spmm_common(
        device, cooc, cooc.row, cooc.col, M.gather_spmm_values, X,
        cooc.n_cols, "sccooc_spmm", tag, out_dtype or X.dtype,
    )


def sccooc_spmm_scatter(
    device: Device,
    cooc: COOCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Batched scatter product ``Y = A X`` with the scCOOC kernel (swapped
    index-array roles); used by the batched backward stage on digraphs."""
    X = M.as_frontier_matrix(X, cooc.n_cols)
    return _sccooc_spmm_common(
        device, cooc, cooc.col, cooc.row, M.scatter_spmm_values, X,
        cooc.n_rows, "sccooc_spmm_scatter", tag, out_dtype or X.dtype,
    )
