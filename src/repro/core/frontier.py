"""The non-SpMV kernels of the TurboBC pipeline (Figure 2).

Besides the SpMV, each BFS level launches one elementwise *update* kernel
(mask + ``S``/``sigma`` update + convergence flag), and each backward level
launches a ``delta_u`` builder and a ``delta`` updater; one final kernel
accumulates ``bc``.  They are all O(n) streaming kernels; their cost is what
makes deep BFS trees slow (the luxembourg road network pays ~1000 of them
per source), so they are modeled here with the same transaction accounting
as the SpMVs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelStats
from repro.gpusim import warp as W

#: Issue cycles per thread of a simple streaming kernel.
_STREAM_CYCLES = 3


def _stream_stats(
    name: str,
    n: int,
    *,
    read_words: int,
    sparse_writes: np.ndarray | None = None,
    dense_write_words: int = 0,
    extra_cycles: int = 0,
) -> KernelStats:
    """Stats for a one-thread-per-vertex streaming kernel.

    ``read_words`` counts coalesced 4-byte loads; sparse writes (only the
    touched vertices) are transaction-counted from their indices.
    """
    write_txn = W.coalesced_transactions(dense_write_words)
    if sparse_writes is not None and sparse_writes.size:
        write_txn += W.gather_transactions(sparse_writes)
    return KernelStats(
        name=name,
        threads=n,
        warp_cycles=W.uniform_warp_cycles(n, _STREAM_CYCLES) + extra_cycles,
        dram_read_bytes=W.coalesced_transactions(read_words) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=read_words * 4,
    )


def init_source_kernel(device: Device, n: int, *, tag: str = "") -> KernelLaunch:
    """Set ``f[s] = 1`` and ``sigma[s] = 1`` (Algorithm 1 lines 15-18)."""
    stats = KernelStats(
        name="bfs_init",
        threads=1,
        warp_cycles=2,
        dram_write_bytes=2 * W.TRANSACTION_BYTES,
        requested_load_bytes=0,
    )
    return device.launch(stats, tag=tag)


def frontier_update_kernel(
    device: Device,
    ft: np.ndarray,
    sigma: np.ndarray,
    S: np.ndarray,
    depth: int,
    *,
    masked_spmv: bool,
    tag: str = "",
) -> tuple[np.ndarray, bool, KernelLaunch]:
    """Lines 20-27 of Algorithm 1: mask, depth stamp, sigma update, flag.

    Computes the new frontier ``f = ft where sigma == 0 else 0``, stamps
    ``S`` with the current depth and accumulates ``sigma`` for discovered
    vertices, and returns the convergence flag ``c`` (any new vertex?).

    ``masked_spmv``: when the SpMV already fused the sigma mask (CSC
    kernels), this kernel skips the mask pass and reads one array less --
    the COOC pipeline pays for its unmasked SpMV here.
    """
    n = sigma.size
    if masked_spmv:
        f = ft  # the SpMV produced zeros on discovered vertices already
    else:
        f = np.where(sigma == 0, ft, 0).astype(ft.dtype, copy=False)
    touched = np.flatnonzero(f)
    if touched.size:
        S[touched] = depth
        sigma[touched] += f[touched]
    c = touched.size > 0
    read_words = n if masked_spmv else 2 * n  # ft (+ sigma for the mask)
    stats = _stream_stats(
        "bfs_update",
        n,
        read_words=read_words,
        extra_cycles=2 * touched.size,  # sigma read-modify-write lanes
    )
    # Sparse S and sigma writes: twice the touched vertices' transactions.
    touched_txn = W.gather_transactions(touched) if touched.size else 0
    stats = replace(stats, dram_write_bytes=2 * touched_txn * W.TRANSACTION_BYTES)
    return f, c, device.launch(stats, tag=tag)


def delta_u_kernel(
    device: Device,
    S: np.ndarray,
    sigma: np.ndarray,
    delta: np.ndarray,
    depth: int,
    *,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Lines 32-36: ``delta_u = (1 + delta) / sigma`` on the depth-d slice."""
    sel = (S == depth) & (sigma > 0)
    delta_u = np.zeros_like(delta)
    idx = np.flatnonzero(sel)
    if idx.size:
        delta_u[idx] = (1.0 + delta[idx]) / sigma[idx]
    stats = _stream_stats(
        "delta_u",
        sigma.size,
        read_words=3 * sigma.size,  # S, sigma, delta
        sparse_writes=idx,
        extra_cycles=4 * idx.size,  # FP divide lanes
    )
    stats.flops = idx.size
    return delta_u, device.launch(stats, tag=tag)


def delta_update_kernel(
    device: Device,
    S: np.ndarray,
    sigma: np.ndarray,
    delta: np.ndarray,
    delta_ut: np.ndarray,
    depth: int,
    *,
    tag: str = "",
) -> KernelLaunch:
    """Lines 38-40: ``delta += delta_ut * sigma`` on the depth-(d-1) slice.

    Mutates ``delta`` in place (it is a device-resident vector).
    """
    sel = S == (depth - 1)
    idx = np.flatnonzero(sel)
    if idx.size:
        delta[idx] += delta_ut[idx] * sigma[idx]
    stats = _stream_stats(
        "delta_update",
        sigma.size,
        read_words=4 * sigma.size,  # S, sigma, delta, delta_ut
        sparse_writes=idx,
        extra_cycles=2 * idx.size,
    )
    stats.flops = 2 * idx.size
    return device.launch(stats, tag=tag)


def init_sources_kernel(
    device: Device, n: int, batch: int, *, tag: str = ""
) -> KernelLaunch:
    """Batched lines 15-18: ``F[s_j, j] = 1``, ``Sigma[s_j, j] = 1``."""
    stats = KernelStats(
        name="bfs_init",
        threads=batch,
        warp_cycles=2 * W.warp_count(batch),
        dram_write_bytes=2 * batch * W.TRANSACTION_BYTES,
        requested_load_bytes=0,
    )
    return device.launch(stats, tag=tag)


def frontier_update_batch_kernel(
    device: Device,
    Ft: np.ndarray,
    Sigma: np.ndarray,
    S: np.ndarray,
    depth: int,
    *,
    masked_spmv: bool,
    tag: str = "",
) -> tuple[np.ndarray, np.ndarray, KernelLaunch]:
    """Batched lines 20-27: mask, depth stamp, sigma update, per-lane flags.

    Operates on ``(n, B)`` arrays -- one BFS lane per column.  Drained lanes
    have all-zero frontier columns, so the elementwise update is a no-op for
    them; every touched element gets exactly the per-source kernel's update
    (same expressions, same dtypes).  Returns the new frontier matrix, the
    per-lane count of newly discovered vertices (the convergence bitmap is
    ``counts > 0``), and the launch record.

    The touched elements are one row-major flat index list (the order of a
    boolean mask), so the updates and the write accounting touch only them.
    """
    n, B = Sigma.shape
    if masked_spmv:
        F = Ft  # the SpMM produced zeros on discovered vertices already
    else:
        F = np.where(Sigma == 0, Ft, Ft.dtype.type(0))
    flat = np.flatnonzero(F)
    if flat.size:
        np.put(S, flat, depth)
        sigma = np.take(Sigma, flat)
        sigma += np.take(F, flat)
        np.put(Sigma, flat, sigma)
    new_per_lane = np.bincount(flat % B, minlength=B)
    read_words = n * B if masked_spmv else 2 * n * B
    stats = _stream_stats(
        "bfs_update",
        n * B,
        read_words=read_words,
        extra_cycles=2 * flat.size,  # sigma read-modify-write lanes
    )
    # Sparse S and Sigma writes: twice the touched elements' transactions.
    touched_txn = W.gather_transactions(flat) if flat.size else 0
    stats = replace(stats, dram_write_bytes=2 * touched_txn * W.TRANSACTION_BYTES)
    return F, new_per_lane, device.launch(stats, tag=tag)


def delta_u_batch_kernel(
    device: Device,
    Sigma: np.ndarray,
    Delta: np.ndarray,
    level: np.ndarray,
    *,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Batched lines 32-36 on the ``(n, B)`` depth-d slice.

    ``level`` is the slice as row-major flat indices,
    ``np.flatnonzero(S == d)``; the backward stage passes the list it
    already built for the previous level's :func:`delta_update_batch_kernel`.
    Lanes whose BFS tree is shorter than ``d`` contribute no indices (their
    ``S`` column never reaches it), so a batch walks down from the deepest
    lane with shallow lanes riding along as exact no-ops.
    """
    idx = level[np.take(Sigma, level) > 0]
    Delta_u = np.zeros_like(Delta)
    if idx.size:
        np.put(Delta_u, idx, (1.0 + np.take(Delta, idx)) / np.take(Sigma, idx))
    n, B = Sigma.shape
    stats = _stream_stats(
        "delta_u",
        n * B,
        read_words=3 * n * B,  # S, Sigma, Delta
        sparse_writes=idx,
        extra_cycles=4 * idx.size,  # FP divide lanes
    )
    stats.flops = idx.size
    return Delta_u, device.launch(stats, tag=tag)


def delta_update_batch_kernel(
    device: Device,
    Sigma: np.ndarray,
    Delta: np.ndarray,
    Delta_ut: np.ndarray,
    level: np.ndarray,
    *,
    tag: str = "",
) -> KernelLaunch:
    """Batched lines 38-40: ``Delta += Delta_ut * Sigma`` on the depth-(d-1)
    slice.  Mutates ``Delta`` in place.  ``level`` is that slice as
    row-major flat indices, ``np.flatnonzero(S == d - 1)``."""
    if level.size:
        delta = np.take(Delta, level)
        delta += np.take(Delta_ut, level) * np.take(Sigma, level)
        np.put(Delta, level, delta)
    n, B = Sigma.shape
    stats = _stream_stats(
        "delta_update",
        n * B,
        read_words=4 * n * B,  # S, Sigma, Delta, Delta_ut
        sparse_writes=level,
        extra_cycles=2 * level.size,
    )
    stats.flops = 2 * level.size
    return device.launch(stats, tag=tag)


def bc_update_batch_kernel(
    device: Device,
    bc: np.ndarray,
    Delta: np.ndarray,
    sources,
    *,
    undirected: bool,
    skip: np.ndarray | None = None,
    tag: str = "",
) -> KernelLaunch:
    """Batched lines 43-47: fold every batch lane's ``delta`` into ``bc``.

    Lanes are accumulated *in batch order* with the per-source kernel's
    exact expression, so the float32 accumulation into ``bc`` matches the
    sequential driver bit for bit.  ``skip`` masks out lanes whose sigma
    overflowed (their re-run accumulates instead).
    """
    n = bc.size
    scale = 0.5 if undirected else 1.0
    folded = 0
    for j, s in enumerate(sources):
        if skip is not None and skip[j]:
            continue
        saved = bc[s]
        bc += scale * Delta[:, j]
        bc[s] = saved
        folded += 1
    stats = _stream_stats(
        "bc_update",
        n * max(folded, 1),
        read_words=2 * n * folded,  # bc, Delta column
        dense_write_words=n * folded,
        extra_cycles=n * folded,
    )
    stats.flops = n * folded
    return device.launch(stats, tag=tag)


def bc_update_kernel(
    device: Device,
    bc: np.ndarray,
    delta: np.ndarray,
    source: int,
    *,
    undirected: bool,
    tag: str = "",
) -> KernelLaunch:
    """Lines 43-47: accumulate ``bc += delta`` for every vertex but the source.

    For undirected graphs the contribution is halved (Brandes'
    double-counting compensation, Section 3.2).  Mutates ``bc`` in place.
    """
    n = bc.size
    scale = 0.5 if undirected else 1.0
    saved = bc[source]
    bc += scale * delta
    bc[source] = saved
    stats = _stream_stats(
        "bc_update",
        n,
        read_words=2 * n,  # bc, delta
        dense_write_words=n,
        extra_cycles=n,
    )
    stats.flops = n
    return device.launch(stats, tag=tag)


def level_density(frontier: np.ndarray, sigma: np.ndarray) -> dict:
    """Both sides of a level's density: the frontier and the unvisited set.

    Direction-optimizing traversal (DESIGN.md §12) needs *two* densities to
    reason about a level: the frontier fraction (push cost is proportional
    to the frontier's out-edges) and the unvisited fraction (pull cost is
    proportional to the unvisited side's in-edges).  The PR 4 accounting
    reported only ``frontier_size``; per-level spans now carry both sides
    so perf reports can attribute *why* a direction won.

    Works for the per-source vectors and the batched ``(n, B)`` matrices
    alike -- the fractions are taken over all elements, so a batched level
    reports the lane-averaged densities (``sigma.size == n * B``).
    """
    total = int(sigma.size)
    frontier_size = int(np.count_nonzero(frontier))
    unvisited = total - int(np.count_nonzero(sigma))
    return {
        "frontier_size": frontier_size,
        "frontier_frac": round(frontier_size / max(total, 1), 6),
        "unvisited": unvisited,
        "unvisited_frac": round(unvisited / max(total, 1), 6),
    }
