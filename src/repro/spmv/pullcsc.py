"""The pullCSC kernel: direction-optimised (bottom-up) masked SpMV.

The push kernels expand the frontier outward: every undiscovered column's
scan gathers frontier *values* -- one uncoalesced ``x`` load per stored
entry.  The pull formulation (Beamer's bottom-up BFS, in linear-algebra
form) keeps the same thread-per-column loop but probes a packed frontier
*bitmap* instead::

    build bitmap: bit r set iff x[r] > 0          # fused coalesced pass
    if sigma[i] == 0:                             # the fused mask
        for k in CP_A[i] .. CP_A[i+1]-1:          # phase 1: discovery
            if bitmap[row_A[k]]: break            # early exit on first parent
        else: return                              # no frontier parent
        for k in CP_A[i] .. CP_A[i+1]-1:          # phase 2: sigma accumulation
            if bitmap[row_A[k]]: sum += x[row_A[k]]
        y[i] = sum

Two structural effects make pull win on dense mid-BFS frontiers:

* the ``n/8``-byte bitmap is L2-resident, so phase-1 probes cost issue
  cycles but almost no DRAM -- the expensive scattered ``x`` gathers shrink
  from *every scanned entry* (push) to the contributing entries only;
* the early exit caps the discovery scan at the first frontier parent --
  on a dense frontier that is O(1) probes per column instead of the full
  degree, and sequential ``row_A`` probes prefetch well, so far less load
  latency survives on a hub column's critical path than the push kernels'
  dependent-gather chain.

BC needs *all* parents' sigma (not just reachability), so discovered
columns re-scan in phase 2 -- the early exit only prunes the columns that
turn out to have no frontier parent this level.  Pull loses when the
frontier is sparse (phase 1 rarely exits early, and the O(n) bitmap build
is pure overhead) -- exactly the levels the dispatcher keeps on push.

The accumulation is the same storage-order float64 product as every
other kernel (:mod:`repro.spmv._spmm`), so results are bit-identical to
``sccsc``; only the KernelStats differ.
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
#: Issue cycles per bitmap probe (load row index, test one bit).
_PROBE_CYCLES = 2
#: Issue cycles per contributing entry (gather x, accumulate).
_GATHER_CYCLES = 3
#: Issue cycles per frontier word of the fused bitmap-build pass.
_BITMAP_BUILD_CYCLES = 2
#: Critical-path cycles per probed entry on the slowest lane: sequential
#: ``row_A`` probes prefetch, so only ~2 latency cycles survive pipelining
#: on top of the issue cost (the push kernels' dependent gathers keep 12).
_CRITICAL_PROBE_CYCLES = 4
#: Critical-path cycles per contributing gather (same dependent-load chain
#: as the push kernels).
_CRITICAL_GATHER_CYCLES = 12


def first_hit_probes(
    csc: CSCMatrix, allowed: np.ndarray, active_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Structure-exact phase-1 probe counts per column.

    ``probe[c]`` is the number of entries column ``c``'s discovery loop
    scans before the early exit: the storage-order position of the first
    entry whose row is in ``active_rows`` (plus one), or the full degree if
    the column has no frontier parent.  Masked columns probe nothing.
    ``discovered[c]`` marks the columns phase 2 re-scans.
    """
    deg = csc.column_counts().astype(np.int64)
    probe = np.where(allowed, deg, 0)
    discovered = np.zeros(csc.n_cols, dtype=bool)
    if csc.nnz == 0:
        return probe, discovered
    col_of = csc.column_of_nnz()
    hit_idx = np.flatnonzero(active_rows[csc.row] & allowed[col_of])
    if hit_idx.size:
        cols_hit = col_of[hit_idx]
        first = np.ones(cols_hit.size, dtype=bool)
        first[1:] = cols_hit[1:] != cols_hit[:-1]
        first_cols = cols_hit[first]
        probe[first_cols] = hit_idx[first] - csc.col_ptr[first_cols] + 1
        discovered[first_cols] = True
    return probe, discovered


def _gather_cost(csc: CSCMatrix, p: M.Product, name: str, l2_bytes: int) -> KernelStats:
    """Hardware stats of a masked bottom-up (pull) pass.

    The SpMM probes a B-lane bitmap (one packed word per entry covers every
    lane) and gathers the B-wide frontier row only for entries active in at
    least one lane.  Without a mask (``allowed=None``) no discovery decision
    exists, so every column scans once with no phase-1 loop.
    """
    x_itemsize = p.x_dtype.itemsize
    dtype_factor = W.dtype_cycle_factor(p.x_dtype)
    n, B = csc.n_cols, p.B
    n_rows = csc.n_rows
    allowed = p.lanes > 0
    active_rows = p.active > 0
    deg = csc.column_counts().astype(np.int64)
    if p.masked:
        probe, discovered = first_hit_probes(csc, allowed, active_rows)
        rescan = np.where(discovered, deg, 0)
    else:
        probe = np.where(allowed, deg, 0)
        rescan = np.zeros(n, dtype=np.int64)
    scanned = probe + rescan
    total_scanned = int(scanned.sum())

    # Contributing entries (bitmap hits): the only scattered x gathers.
    # Active rows per column is an exact integer count in float64.
    contrib_per_col = M.gather_spmm_values(csc, active_rows, allowed).astype(np.int64)
    total_contrib = int(contrib_per_col.sum())

    bitmap_words = -(-n_rows * B // 32)
    row_txn = int(np.sum((scanned + 7) // 8))
    probe_txn = W.capped_random_transactions(
        total_scanned, bitmap_words, 4, l2_bytes=l2_bytes
    )
    x_txn = W.bwide_gather_transactions(
        total_contrib, B, n_rows, x_itemsize, l2_bytes=l2_bytes
    )
    ptr_txn = 2 * W.coalesced_transactions(n)
    # Fused bitmap build: one coalesced sweep of the frontier, packed writes.
    build_txn = W.coalesced_transactions(n_rows * B, x_itemsize) + W.coalesced_transactions(
        bitmap_words
    )
    mask_txn = 0 if p.vector else W.coalesced_transactions(n * B)

    # a vector's lanes are 0/1 and its hits are 0 where it has none
    work = scanned * _PROBE_CYCLES + contrib_per_col * p.lanes * _GATHER_CYCLES * dtype_factor
    warp_cycles = W.divergent_warp_cycles(
        work, base_cycles=_BASE_CYCLES
    ) + W.uniform_warp_cycles(n_rows * B, _BITMAP_BUILD_CYCLES)
    critical = W.max_warp_cycles(
        scanned * _CRITICAL_PROBE_CYCLES
        + contrib_per_col * p.lanes * _CRITICAL_GATHER_CYCLES * dtype_factor
    )
    return KernelStats(
        name=name,
        threads=n,
        warp_cycles=warp_cycles,
        dram_read_bytes=(ptr_txn + mask_txn + row_txn + probe_txn + x_txn + build_txn)
        * W.TRANSACTION_BYTES,
        dram_write_bytes=p.written * p.out_row_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + n * B + 2 * total_scanned) * 4
        + (n_rows * B + total_contrib * B) * x_itemsize,
        critical_warp_cycles=critical,
        flops=total_contrib * B,
    )


def _scatter_cost(csc: CSCMatrix, p: M.Product, name: str, l2_bytes: int) -> KernelStats:
    """Hardware stats of a scatter pulled through the row-major plan: one
    thread owns each output row, probes the active-column bitmap (B lanes
    per packed word for the SpMM) and gathers the frontier where it hits."""
    n, B = csc.n_cols, p.B
    row_deg = np.diff(csc.scatter_plan()[0]).astype(np.int64)
    # Exact per-row hit counts: entries in a column active in any lane.
    contrib_per_row = M.scatter_spmm_values(csc, p.active > 0).astype(np.int64)
    total = int(row_deg.sum())
    total_contrib = int(contrib_per_row.sum())
    dtype_factor = W.dtype_cycle_factor(p.x_dtype)
    item = p.x_dtype.itemsize
    bitmap_words = -(-n * B // 32)
    write_rows = int(np.count_nonzero(contrib_per_row))
    if p.vector:
        x_txn = W.scalar_gather_transactions(total_contrib, n, item, l2_bytes=l2_bytes)
        write_txn = W.coalesced_transactions(write_rows, item)
    else:
        x_txn = W.bwide_gather_transactions(total_contrib, B, n, item, l2_bytes=l2_bytes)
        write_txn = write_rows * p.out_row_txn
    return KernelStats(
        name=name,
        threads=csc.n_rows,
        warp_cycles=W.divergent_warp_cycles(
            row_deg * _PROBE_CYCLES
            + contrib_per_row * B * _GATHER_CYCLES * dtype_factor,
            base_cycles=_BASE_CYCLES,
        )
        + W.uniform_warp_cycles(n * B, _BITMAP_BUILD_CYCLES),
        dram_read_bytes=(
            2 * W.coalesced_transactions(csc.n_rows)
            + int(np.sum((row_deg + 7) // 8))
            + W.capped_random_transactions(total, bitmap_words, 4, l2_bytes=l2_bytes)
            + x_txn
            + W.coalesced_transactions(n * B, item)
            + W.coalesced_transactions(bitmap_words)
        )
        * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * csc.n_rows + 2 * total) * 4
        + (n * B + total_contrib * B) * item,
        critical_warp_cycles=W.max_warp_cycles(
            row_deg * _CRITICAL_PROBE_CYCLES
            + contrib_per_row * B * _CRITICAL_GATHER_CYCLES * dtype_factor
        ),
        flops=total_contrib * B,
    )


def pullcsc_spmv(
    device: Device,
    csc: CSCMatrix,
    x: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked gather product with the pull (bottom-up) kernel.

    ``allowed`` is the fused mask (the forward stage passes ``sigma == 0``);
    with a mask the two-phase early-exit discovery model applies.  ``None``
    processes every column in a single pass (the backward stage's unmasked
    product -- still a pull win: bitmap probes instead of scattered loads
    for the zero-heavy dependency vector).
    """
    p = M.product(csc, x, batched=False, allowed=allowed, out_dtype=out_dtype,
                  need="lanes active written")
    return p.y, device.launch(_gather_cost(csc, p, "pullcsc_spmv", device.spec.l2_bytes),
                              tag=tag)


def pullcsc_spmv_scatter(
    device: Device,
    csc: CSCMatrix,
    x: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Scatter product ``y = A x`` pulled through the row-major plan.

    The pull formulation of the backward digraph product: one thread *owns*
    each output row, scans the row's stored entries via the cached
    ``scatter_plan`` and gathers ``x`` where the active-column bitmap hits.
    Because every output location has a single owner there is no atomic
    chain at all -- the structural advantage over the push scatter kernels
    on hub rows.  Results are bit-identical to :func:`sccsc_spmv_scatter`
    (same storage-order accumulation).
    """
    p = M.product(csc, x, batched=False, scatter=True, out_dtype=out_dtype, need="active")
    return p.y, device.launch(
        _scatter_cost(csc, p, "pullcsc_spmv_scatter", device.spec.l2_bytes), tag=tag)


def pullcsc_spmm(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked batched gather product ``Y = A^T X`` with the pull kernel.

    Phase-1 discovery probes the lane-union bitmap: a column early-exits
    once *any* lane finds a frontier parent (per-lane decisions resolve in
    phase 2's masked accumulation).  Lane results are bit-identical to B
    separate :func:`pullcsc_spmv` calls.
    """
    p = M.product(csc, X, batched=True, allowed=allowed, out_dtype=out_dtype,
                  need="lanes active written")
    return p.y, device.launch(_gather_cost(csc, p, "pullcsc_spmm", device.spec.l2_bytes),
                              tag=tag)


def pullcsc_spmm_scatter(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Batched scatter product ``Y = A X`` pulled through the row plan.

    Thread-per-output-row over the cached ``scatter_plan`` with B-wide
    masked accumulation: no atomics (each row has one owner), bit-identical
    to B separate :func:`pullcsc_spmv_scatter` calls.
    """
    p = M.product(csc, X, batched=True, scatter=True, out_dtype=out_dtype, need="active")
    return p.y, device.launch(
        _scatter_cost(csc, p, "pullcsc_spmm_scatter", device.spec.l2_bytes), tag=tag)
