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


def _cost(cooc: COOCMatrix, p: M.Product, name: str, l2_bytes: int) -> KernelStats:
    """Hardware stats of a thread-per-edge pass.

    Gather and scatter differ only in which COOC array is the load index
    and which the store index.  A thread whose source has a positive lane
    issues one atomic per such lane into its destination's output row; the
    SpMM loads its source index once for the whole batch and the B-wide
    frontier row with coalesced transactions.
    """
    src_idx, dst_idx = (cooc.col, cooc.row) if p.scatter else (cooc.row, cooc.col)
    n_in, n_out = (cooc.n_cols, cooc.n_rows) if p.scatter else (cooc.n_rows, cooc.n_cols)
    m = src_idx.size
    src_lanes = p.active[src_idx]
    entry_active = src_lanes > 0
    n_active = int(np.count_nonzero(entry_active))
    lane_total = int(src_lanes.sum())
    dst_active = dst_idx[entry_active]
    itemsize = p.x_dtype.itemsize
    dtype_factor = W.dtype_cycle_factor(p.x_dtype)
    if p.vector:
        # x gather (cached per matrix), then the sparse dst-index read; the
        # atomic read-modify-write on y is one transaction in, one out per
        # distinct warp segment of the destination addresses, L2-merged
        read_txn = (
            cooc.full_gather_transactions("col" if p.scatter else "row", itemsize,
                                          l2_bytes=l2_bytes)
            + W.gather_transactions(np.flatnonzero(entry_active))
        )
        write_txn = (W.cached_gather_transactions(dst_active, itemsize, n_out,
                                                  l2_bytes=l2_bytes) if n_active else 0)
        requested = (2 * m + 2 * n_active) * itemsize
    else:
        read_txn = (
            W.bwide_gather_transactions(m, p.B, n_in, itemsize, l2_bytes=l2_bytes)
            + W.capped_random_transactions(n_active, m, 4, l2_bytes=l2_bytes)
        )
        write_txn = (W.bwide_gather_transactions(n_active, p.B, n_out, itemsize,
                                                 l2_bytes=l2_bytes) if n_active else 0)
        requested = (m + n_active) * 4 + (m * p.B + lane_total) * itemsize
    read_txn += W.coalesced_transactions(m)  # src index sweep
    # Longest same-address atomic chain: active entries per destination.
    serial = int(np.bincount(dst_active, minlength=1).max()) * dtype_factor if n_active else 0
    return KernelStats(
        name=name,
        threads=m,
        warp_cycles=(
            W.uniform_warp_cycles(m, _BASE_CYCLES)
            + W.warp_count(lane_total) * _ACTIVE_CYCLES * dtype_factor
            + W.atomic_conflict_cycles(dst_active) * dtype_factor
        ),
        dram_read_bytes=(read_txn + write_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=requested,
        serial_updates=serial,
        critical_warp_cycles=_BASE_CYCLES + _ACTIVE_CYCLES * p.B,  # flat per-edge work
        flops=lane_total,
    )


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
    p = M.product(cooc, x, batched=False, atomic=True, out_dtype=out_dtype, need="active")
    return p.y, device.launch(_cost(cooc, p, "sccooc_spmv", device.spec.l2_bytes), tag=tag)


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
    p = M.product(cooc, x, batched=False, scatter=True, out_dtype=out_dtype, need="active")
    return p.y, device.launch(_cost(cooc, p, "sccooc_spmv_scatter", device.spec.l2_bytes),
                              tag=tag)


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
    p = M.product(cooc, X, batched=True, atomic=True, out_dtype=out_dtype, need="active")
    return p.y, device.launch(_cost(cooc, p, "sccooc_spmm", device.spec.l2_bytes), tag=tag)


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
    p = M.product(cooc, X, batched=True, scatter=True, out_dtype=out_dtype, need="active")
    return p.y, device.launch(_cost(cooc, p, "sccooc_spmm_scatter", device.spec.l2_bytes),
                              tag=tag)
