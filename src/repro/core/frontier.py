"""The non-SpMV kernels of the TurboBC pipeline (Figure 2).

Besides the SpMV, each BFS level launches one elementwise *update* kernel
(mask + ``S``/``sigma`` update + convergence flag), and each backward level
launches a ``delta_u`` builder and a ``delta`` updater; one final kernel
accumulates ``bc``.  They are all O(n) streaming kernels; their cost is what
makes deep BFS trees slow (the luxembourg road network pays ~1000 of them
per source), so they are modeled here with the same transaction accounting
as the SpMVs.

Each streaming kernel is a numerics function plus a cost function of
per-level counts, which returns the levels' launch rows as one
:class:`~repro.gpusim.kernel.LaunchTable`: a stage, per source or batched,
runs the numerics for every level and then charges all levels with one
cost call, whose rows its replay launches in its stage table
(:mod:`repro.core.levels`).  The ``bc`` fold kernel launches at once, for
any number of lanes.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, LaunchTable
from repro.gpusim import warp as W
from repro.spmv._spmm import keep_bits

#: Issue cycles per thread of a simple streaming kernel.
_STREAM_CYCLES = 3


def _stream_stats(
    name: str,
    threads: int,
    *,
    read_words: int,
    write_txn=0,
    extra_cycles=0,
    flops=0,
) -> LaunchTable:
    """Rows of one-thread-per-element streaming kernels, one per level.

    ``read_words`` counts coalesced 4-byte loads of every element; the
    write transactions, extra issue cycles and flops are ints or per-level
    arrays (sparse writes are transaction-counted from their index lists
    by the caller).
    """
    return LaunchTable.of(
        name, threads=threads,
        warp_cycles=W.uniform_warp_cycles(threads, _STREAM_CYCLES) + np.asarray(extra_cycles),
        dram_read_bytes=W.coalesced_transactions(read_words) * W.TRANSACTION_BYTES,
        dram_write_bytes=np.asarray(write_txn) * W.TRANSACTION_BYTES,
        requested_load_bytes=read_words * 4, flops=flops,
    )


# -- the three per-level streaming kernels: numerics, then costs --------------
#
# The numerics work on flat index lists of any width: a per-source vector,
# or an ``(n, B)`` matrix read in row-major order (one lane per column).
# The cost functions take per-level counts and the thread count ``n * B``,
# so a traversal of any width charges all its levels in one call.


def frontier_update(
    Ft: np.ndarray, Sigma: np.ndarray, S: np.ndarray, depth: int, *, masked_spmv: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Lines 20-27 of Algorithm 1: mask, depth stamp and sigma update.

    The new frontier is ``Ft where Sigma == 0 else 0``; its nonzero
    elements get ``S = depth`` and ``Sigma += F``.  Returns the frontier and
    its sorted flat index list (empty: the traversal converged).

    ``masked_spmv``: the SpMV already fused the ``Sigma == 0`` mask (CSC
    kernels), so ``Ft`` is the frontier as is; the COOC pipeline's unmasked
    product is masked here, in place (:func:`~repro.spmv._spmm.keep_bits`).
    """
    F = Ft if masked_spmv else keep_bits(Ft, Sigma == 0)
    flat = np.flatnonzero(F != 0)  # from a bool mask: ~5x faster than from F
    if flat.size:
        np.put(S, flat, depth)
        sigma = np.take(Sigma, flat)
        sigma += np.take(F, flat)
        np.put(Sigma, flat, sigma)
    return F, flat


def frontier_update_costs(threads: int, touched, touched_txn, *, masked_spmv: bool):
    """``bfs_update`` stats per level: ``touched`` elements discovered, whose
    index lists take ``touched_txn`` transactions.  The fused kernel reads
    ``Ft`` only; the unfused one reads ``Sigma`` too, for the mask."""
    return _stream_stats(
        "bfs_update", threads,
        read_words=threads if masked_spmv else 2 * threads,
        write_txn=2 * np.asarray(touched_txn),  # sparse S and sigma writes
        extra_cycles=2 * np.asarray(touched),   # sigma read-modify-write lanes
    )


def delta_u(
    Sigma: np.ndarray, Delta: np.ndarray, level: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lines 32-36: ``delta_u = (1 + delta) / sigma`` on the depth-d slice.

    ``level`` is the slice as sorted flat indices; elements with
    ``sigma <= 0`` are skipped.  Returns ``delta_u`` and the written list.
    """
    idx = level[np.take(Sigma, level) > 0]
    Delta_u = np.zeros_like(Delta)
    if idx.size:
        np.put(Delta_u, idx, (1.0 + np.take(Delta, idx)) / np.take(Sigma, idx))
    return Delta_u, idx


def delta_u_costs(threads: int, written, written_txn):
    """``delta_u`` stats per level: reads ``S``, ``sigma`` and ``delta``."""
    written = np.asarray(written)
    return _stream_stats(
        "delta_u", threads, read_words=3 * threads, write_txn=written_txn,
        extra_cycles=4 * written, flops=written,  # FP divide lanes
    )


def delta_update(
    Sigma: np.ndarray, Delta: np.ndarray, Delta_ut: np.ndarray, level: np.ndarray
) -> None:
    """Lines 38-40: ``delta += delta_ut * sigma`` on the depth-(d-1) slice
    ``level`` (sorted flat indices).  Mutates ``Delta`` in place."""
    if level.size:
        delta = np.take(Delta, level)
        delta += np.take(Delta_ut, level) * np.take(Sigma, level)
        np.put(Delta, level, delta)


def delta_update_costs(threads: int, updated, updated_txn):
    """``delta_update`` stats per level: reads ``S``, ``sigma``, ``delta``
    and ``delta_ut``."""
    updated = np.asarray(updated)
    return _stream_stats(
        "delta_update", threads, read_words=4 * threads, write_txn=updated_txn,
        extra_cycles=2 * updated, flops=2 * updated,
    )


def init_costs(batch: int, tag: str) -> LaunchTable:
    """Lines 15-18 for ``batch`` lanes: ``F[s_j, j] = 1`` and
    ``Sigma[s_j, j] = 1`` (a per-source stage is one lane)."""
    return LaunchTable.of("bfs_init", tag=tag, threads=batch,
                          warp_cycles=2 * W.warp_count(batch),
                          dram_write_bytes=2 * batch * W.TRANSACTION_BYTES)


def bc_update_kernel(
    device: Device,
    bc: np.ndarray,
    Delta: np.ndarray,
    sources,
    *,
    undirected: bool,
    skip: np.ndarray | None = None,
    tag: str = "",
) -> KernelLaunch:
    """Lines 43-47: fold each lane's ``delta`` column into ``bc``, for
    every vertex but the lane's source.

    ``Delta`` holds one column per source (a per-source stage passes its
    vector as one column).  Lanes are accumulated in batch order, each as
    ``bc += scale * Delta[:, j]`` with ``bc[s]`` restored, so any batching
    gives the sequential driver's float32 accumulation bit for bit.  For
    undirected graphs the contribution is halved (Brandes' double-counting
    compensation, Section 3.2).  ``skip`` masks out lanes whose sigma
    overflowed (their re-run accumulates instead).  Mutates ``bc`` in place.
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
    (stats,) = _stream_stats(
        "bc_update",
        n * max(folded, 1),
        read_words=2 * n * folded,  # bc, Delta column
        write_txn=W.coalesced_transactions(n * folded),
        extra_cycles=n * folded,
        flops=n * folded,
    )
    return device.launch(stats, tag=tag)


def level_density(frontier_size: int, visited: int, total: int) -> dict:
    """Both sides of a level's density: the frontier and the unvisited set.

    Direction-optimizing traversal (DESIGN.md §12) needs *two* densities to
    reason about a level: the frontier fraction (push cost is proportional
    to the frontier's out-edges) and the unvisited fraction (pull cost is
    proportional to the unvisited side's in-edges).  The PR 4 accounting
    reported only ``frontier_size``; per-level spans now carry both sides
    so perf reports can attribute *why* a direction won.

    ``visited`` counts the nonzero sigma elements out of ``total``: a
    batched level passes ``n * B`` and so reports lane-averaged densities.
    """
    unvisited = total - visited
    return {
        "frontier_size": frontier_size,
        "frontier_frac": round(frontier_size / max(total, 1), 6),
        "unvisited": unvisited,
        "unvisited_frac": round(unvisited / max(total, 1), 6),
    }
