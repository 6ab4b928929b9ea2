"""A gunrock-style GPU betweenness centrality on the simulated device.

Reproduces the two properties of gunrock's BC that the paper measures
against:

* **the array inventory** of Figure 4 -- CSR *and* CSC copies of the graph
  plus labels, preds, sigmas, deltas, bc and two frontier queues
  (``9n + 2m`` words).  Allocations go through the same device allocator as
  TurboBC, so the Table 4 out-of-memory verdicts fall out of the sizes;
* **the kernel pipeline shape** -- gunrock's advance/filter frontier
  machinery launches more kernels per BFS level than TurboBC's two, and
  each kernel drags more arrays through DRAM (labels, preds, queues).  Its
  merge-based load balancing, on the other hand, is excellent: per-edge
  issue cost is flat (no scalar-kernel divergence), which is why gunrock
  stays competitive on the big irregular graphs (Table 3's kron rows) while
  losing up to 2.7x on small deep-BFS regular graphs where per-level
  overhead dominates.

The numerical result is exact (verified against Brandes); the stats are
counted per level from the same frontier structure gunrock's kernels would
process, with direction-optimization (push/pull) on the forward stage.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.result import BCResult, BCRunStats
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_sigma_levels
from repro.gpusim.device import Device
from repro.gpusim.errors import DeviceOutOfMemoryError
from repro.gpusim.kernel import KERNEL, READBACK, KernelStats, LaunchTable
from repro.gpusim import warp as W
from repro.perf.memory_model import GUNROCK_WORKSPACE_WORDS_PER_VERTEX, advise_fit

#: Bookkeeping kernels per forward level besides the two advances:
#: filter/compact, bitmask update, frontier bookkeeping.
_FORWARD_AUX_LAUNCHES = 4
#: Kernel launches per backward level: two advances (sigma-scaled push and
#: accumulate) plus a filter.
_BACKWARD_LAUNCHES = 3
#: Issue cycles per frontier edge in the load-balanced advance.
_ADVANCE_CYCLES_PER_EDGE = 5
#: Pull switches on when the frontier's edges exceed this fraction of m.
_PULL_THRESHOLD = 0.05
#: A host readback of one 4-byte word (the frontier length or a sync flag).
_READBACK = KernelStats(name="sync_readback", threads=0, dram_read_bytes=4)


def _advance_stats(
    name: str, edges: int, vertices: int, n: int, serial_updates: int = 0,
    l2_bytes: int | None = None,
) -> KernelStats:
    """Stats of one load-balanced advance/filter sweep over ``edges``.

    Per edge gunrock touches: the column index (coalesced), the label
    (random), sigma (random read-modify-write) and the pred slot (random
    write); per frontier vertex the queue entry and row pointers; the filter
    pass re-reads the label array.
    """
    if l2_bytes is None:
        l2_bytes = W.L2_BYTES
    edge_read_txn = (
        W.coalesced_transactions(edges)                                  # neighbour indices
        + W.capped_random_transactions(edges, n, l2_bytes=l2_bytes)      # labels gather
        + W.capped_random_transactions(edges, n, l2_bytes=l2_bytes)      # sigma atomic read
    )
    edge_write_txn = 2 * W.capped_random_transactions(edges, n, l2_bytes=l2_bytes)
    vertex_txn = W.coalesced_transactions(3 * vertices) + W.coalesced_transactions(n)
    return KernelStats(
        name=name,
        threads=max(edges, vertices),
        warp_cycles=W.uniform_warp_cycles(edges, _ADVANCE_CYCLES_PER_EDGE)
        + W.uniform_warp_cycles(vertices + n, 2),
        dram_read_bytes=(edge_read_txn + vertex_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=edge_write_txn * W.TRANSACTION_BYTES,
        # gunrock's queue-mediated loads are single-use: SM-side requests
        # track DRAM traffic instead of being cache-amplified, which is why
        # its GLT sits below the theoretical line in the paper's Figure 5b.
        requested_load_bytes=int(0.9 * (edge_read_txn + vertex_txn) * W.TRANSACTION_BYTES),
        serial_updates=serial_updates,
        flops=edges,
    )


def _aux_stats(name: str, n: int) -> KernelStats:
    """A bookkeeping kernel streaming one n-vector."""
    return KernelStats(
        name=name,
        threads=n,
        warp_cycles=W.uniform_warp_cycles(n, 2),
        dram_read_bytes=W.coalesced_transactions(n) * W.TRANSACTION_BYTES,
        dram_write_bytes=W.coalesced_transactions(n) * W.TRANSACTION_BYTES,
        requested_load_bytes=int(0.9 * 4 * n),
    )


def _alloc_gunrock_arrays(device: Device, graph: Graph) -> list:
    """Transfer/allocate the full Figure 4 gunrock array set."""
    mem = device.memory
    csr = graph.to_csr()
    csc = graph.to_csc()
    n = graph.n
    arrays: list = []
    try:
        arrays.append(mem.h2d("csr_row_ptr", csr.row_ptr))
        arrays.append(mem.h2d("csr_col", csr.col))
        arrays.append(mem.h2d("csc_col_ptr", csc.col_ptr))
        arrays.append(mem.h2d("csc_row", csc.row))
        for name in ("labels", "preds", "frontier_in", "frontier_out"):
            arrays.append(mem.alloc(name, n, np.int32))
        for name in ("sigmas", "deltas", "bc"):
            arrays.append(mem.alloc(name, n, np.float32))
        # enactor runtime workspace (scan space, partition tables, LB
        # buffers) -- see repro.perf.memory_model for the sizing rationale
        arrays.append(
            mem.alloc("enactor_workspace",
                      GUNROCK_WORKSPACE_WORDS_PER_VERTEX * n, np.int32)
        )
    except Exception as exc:
        for arr in arrays:
            mem.free(arr)
        if isinstance(exc, DeviceOutOfMemoryError) and exc.advice is None:
            # The gunrock OOM is the Table 4 scenario; attach the what-if
            # advisor so the forensic report can say how much smaller the
            # graph would have to be (DESIGN.md §13).
            exc.advice = advise_fit(
                mem.capacity_bytes, graph.n, graph.m, system="gunrock"
            )
        raise
    return arrays


def _launch(device: Device, rows: list) -> None:
    """Launch one source's ``(stats, tag)`` rows as one table, in order;
    ``None`` stats stand for a one-word host readback."""
    stats = [_READBACK if s is None else s for s, _ in rows]
    kinds = [READBACK if s is None else KERNEL for s, _ in rows]
    device.launch(LaunchTable.from_stats(stats, [tag for _, tag in rows], kinds))


def _backward_pass(graph: Graph, sigma, levels, depth: int, device: Device,
                   rows: list) -> np.ndarray:
    """Dependency accumulation: numerics, and per level gunrock's launch
    rows appended to ``rows`` (:func:`_launch`)."""
    n = graph.n
    csc = graph.to_csc()
    col_of_nnz = csc.column_of_nnz()
    delta = np.zeros(n, dtype=np.float64)
    level_of_nnz_dst = levels[col_of_nnz]
    level_of_nnz_src = levels[csc.row]
    for d in range(depth, 1, -1):
        sel_v = (levels == d) & (sigma > 0)
        delta_u = np.zeros(n, dtype=np.float64)
        idx = np.flatnonzero(sel_v)
        delta_u[idx] = (1.0 + delta[idx]) / sigma[idx]
        if graph.directed:
            sel_e = (level_of_nnz_dst == d) & (level_of_nnz_src == d - 1)
            dests = csc.row[sel_e]
            contrib = np.bincount(
                dests, weights=delta_u[col_of_nnz[sel_e]], minlength=n
            )
        else:
            sel_e = (level_of_nnz_src == d) & (level_of_nnz_dst == d - 1)
            dests = col_of_nnz[sel_e]
            contrib = np.bincount(
                dests, weights=delta_u[csc.row[sel_e]], minlength=n
            )
        upd = levels == (d - 1)
        delta[upd] += contrib[upd] * sigma[upd]
        edges = int(np.count_nonzero(sel_e))
        serial = int(np.bincount(dests, minlength=1).max()) if dests.size else 0
        l2 = device.spec.l2_bytes
        tag = f"d={d}"
        rows += [
            (_advance_stats("gunrock_bc_advance", edges, idx.size, n, serial, l2), tag),
            (_advance_stats("gunrock_bc_accum", edges, idx.size, n, serial, l2), tag),
            (_aux_stats("gunrock_bc_filter", n), tag),
            (_aux_stats("gunrock_bc_update", n), tag),
            (None, tag),
        ]
    return delta


def gunrock_bc(
    graph: Graph,
    *,
    sources=None,
    device: Device | None = None,
) -> BCResult:
    """gunrock-style BC on the simulated device.

    Raises :class:`~repro.gpusim.errors.DeviceOutOfMemoryError` when the
    array set (the Figure 4 inventory plus enactor workspace, ``22n + 2m``
    words -- see :mod:`repro.perf.memory_model`) does not fit: the paper's
    Table 4 scenario.  Source conventions match
    :func:`repro.core.bc.turbo_bc`.
    """
    if sources is None:
        src_list = list(range(graph.n))
    elif isinstance(sources, (int, np.integer)):
        src_list = [int(sources)]
    else:
        src_list = [int(s) for s in sources]
    device = device or Device()

    t0 = time.perf_counter()
    launches_before = device.profiler.total_launches()
    gpu_time_before = device.profiler.total_time_s()
    arrays = _alloc_gunrock_arrays(device, graph)
    n, m = graph.n, graph.m
    bc = np.zeros(n, dtype=np.float64)
    depths = []
    try:
        for s in src_list:
            sigma, levels, depth, trace = bfs_sigma_levels(graph, s)
            depths.append(depth)
            rows = []  # the source's launches, in order
            # forward stage stats: direction-optimized advance per level
            for lvl in range(trace.depth):
                edges = trace.frontier_edges[lvl]
                pull = edges > _PULL_THRESHOLD * m and trace.unvisited_in_edges[lvl] < edges
                work_edges = trace.unvisited_in_edges[lvl] if pull else edges
                name = "gunrock_bfs_pull" if pull else "gunrock_bfs_push"
                # gunrock's BC forward runs two advances per level: one for
                # labels, one accumulating sigmas.
                serial = trace.max_target_multiplicity[lvl]
                tag = f"d={lvl + 1}"
                rows += [
                    (_advance_stats(name, work_edges, trace.frontier_sizes[lvl], n,
                                    serial, device.spec.l2_bytes), tag),
                    (_advance_stats("gunrock_sigma_advance", work_edges,
                                    trace.frontier_sizes[lvl], n, serial,
                                    device.spec.l2_bytes), tag),
                ]
                rows += [(_aux_stats(f"gunrock_bfs_aux{k}", n), tag)
                         for k in range(_FORWARD_AUX_LAUNCHES)]
                # gunrock reads the output frontier length back to size the
                # next level's grid, and syncs once more around the filter.
                rows += [(None, tag)] * 2
            if depth > 1:
                delta = _backward_pass(graph, sigma, levels, depth, device, rows)
                scale = 0.5 if not graph.directed else 1.0
                saved = bc[s]
                bc += scale * delta
                bc[s] = saved
                rows.append((_aux_stats("gunrock_bc_accumulate", n), f"s={s}"))
            _launch(device, rows)
    finally:
        for arr in arrays:
            if not arr.is_freed:
                device.memory.free(arr)

    stats = BCRunStats(
        algorithm="gunrock",
        n=n,
        m=m,
        sources=len(src_list),
        gpu_time_s=device.profiler.total_time_s() - gpu_time_before,
        kernel_launches=device.profiler.total_launches() - launches_before,
        transfer_time_s=device.memory.transfer_time_s(),
        peak_memory_bytes=device.memory.peak_bytes,
        depth_per_source=depths,
        wall_time_s=time.perf_counter() - t0,
    )
    return BCResult(bc=bc, stats=stats)
