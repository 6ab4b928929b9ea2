"""Edge betweenness centrality in the language of linear algebra.

Brandes' edge variant: the dependency of a source ``s`` on an edge
``(u, v)`` lying on a shortest-path DAG is ``sigma_u / sigma_v *
(1 + delta_v)`` where ``v`` is the downhill endpoint.  All the per-source
state TurboBC already computes -- ``sigma``, the depth vector ``S`` and the
backward ``delta`` -- is exactly what the edge accumulation needs, so edge
BC costs one extra streaming kernel per source over the stored non-zeros.

Device-side cost: one additional ``m``-word float vector (the per-edge
accumulator), so the footprint grows from ``7n + m`` to ``7n + 2m`` words.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.backward import accumulate_dependencies
from repro.core.bc import TurboBCAlgorithm, _resolve_algorithm
from repro.core.context import TurboBCContext
from repro.core.forward import bfs_forward
from repro.core.result import BCRunStats
from repro.core.validate import resolve_sources
from repro.graphs.graph import Graph
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelStats
from repro.gpusim import warp as W


@dataclass
class EdgeBCResult:
    """Edge betweenness over the graph's stored non-zeros.

    ``scores[k]`` belongs to the canonical edge ``(graph.src[k],
    graph.dst[k])``.  For undirected graphs each edge is stored in both
    orientations; :meth:`undirected_pairs` folds them.
    """

    graph: Graph
    scores: np.ndarray
    stats: BCRunStats

    def undirected_pairs(self) -> dict[tuple[int, int], float]:
        """Map ``(min(u,v), max(u,v)) -> score`` (undirected graphs only)."""
        if self.graph.directed:
            raise ValueError("undirected_pairs is defined for undirected graphs")
        out: dict[tuple[int, int], float] = {}
        src = self.graph.src
        dst = self.graph.dst
        for k in range(src.size):
            key = (int(min(src[k], dst[k])), int(max(src[k], dst[k])))
            out[key] = out.get(key, 0.0) + float(self.scores[k])
        return out

    def top(self, k: int = 10) -> list[tuple[int, int, float]]:
        """The ``k`` highest-scoring stored edges as ``(u, v, score)``."""
        k = min(k, self.scores.size)
        idx = np.argsort(-self.scores, kind="stable")[:k]
        return [
            (int(self.graph.src[i]), int(self.graph.dst[i]), float(self.scores[i]))
            for i in idx
        ]


def _edge_update_kernel(
    device: Device,
    graph: Graph,
    sigma: np.ndarray,
    S: np.ndarray,
    delta: np.ndarray,
    ebc: np.ndarray,
    *,
    tag: str = "",
) -> None:
    """Accumulate per-edge dependencies for one source (thread per edge)."""
    su = sigma[graph.src]
    sv = sigma[graph.dst]
    downhill = (S[graph.dst] == S[graph.src] + 1) & (sv > 0) & (su > 0)
    idx = np.flatnonzero(downhill)
    if idx.size:
        d = graph.dst[idx]
        ebc[idx] += (su[idx] / sv[idx]) * (1.0 + delta[d])
    m = graph.m
    cooc = graph.to_cooc()
    stats = KernelStats(
        name="edge_bc_update",
        threads=m,
        warp_cycles=W.uniform_warp_cycles(m, 8),
        dram_read_bytes=(
            W.coalesced_transactions(2 * m)                      # row + col index sweep
            + 2 * cooc.full_gather_transactions("row", 4)        # sigma/S at u
            + 2 * cooc.full_gather_transactions("col", 4)        # sigma/delta at v
        )
        * W.TRANSACTION_BYTES,
        dram_write_bytes=W.coalesced_transactions(idx.size) * W.TRANSACTION_BYTES,
        requested_load_bytes=6 * m * 4,
        flops=3 * idx.size,
    )
    device.launch(stats, tag=tag)


def edge_betweenness(
    graph: Graph,
    *,
    sources=None,
    algorithm: str | TurboBCAlgorithm | None = None,
    device: Device | None = None,
    forward_dtype=np.int64,
) -> EdgeBCResult:
    """Edge BC over the stored non-zeros, on the simulated device.

    Undirected scores follow the networkx convention (each undirected pair
    counted once; fold orientations with
    :meth:`EdgeBCResult.undirected_pairs`).  Source conventions match
    :func:`repro.core.bc.turbo_bc`.
    """
    algorithm = _resolve_algorithm(graph, algorithm)
    device = device or Device()
    src_list = resolve_sources(graph, sources)

    t0 = time.perf_counter()
    launches_before = device.profiler.total_launches()
    gpu_before = device.profiler.total_time_s()
    ctx = TurboBCContext(
        device, graph, algorithm.name,
        forward_dtype=forward_dtype, backward_dtype=np.float64,
    )
    ebc_arr = device.memory.alloc("ebc", graph.m, np.float64)
    ebc = ebc_arr.data
    depths = []
    try:
        for s in src_list:
            fwd = bfs_forward(ctx, s)
            depths.append(fwd.depth)
            if fwd.depth >= 1:
                delta = (
                    accumulate_dependencies(ctx, fwd)
                    if fwd.depth > 1
                    else np.zeros(graph.n, dtype=np.float64)
                )
                _edge_update_kernel(
                    device, graph, fwd.sigma, fwd.levels, delta, ebc, tag=f"s={s}"
                )
            ctx.release_source()
        scores = device.memory.d2h(ebc_arr)
        device.memory.free(ebc_arr)
        ctx.close()
    except BaseException:
        if not ebc_arr.is_freed:
            device.memory.free(ebc_arr)
        ctx.abort()
        raise
    if not graph.directed:
        scores /= 2.0

    stats = BCRunStats(
        algorithm=f"{algorithm.label} (edge BC)",
        n=graph.n,
        m=graph.m,
        sources=len(src_list),
        gpu_time_s=device.profiler.total_time_s() - gpu_before,
        kernel_launches=device.profiler.total_launches() - launches_before,
        transfer_time_s=device.memory.transfer_time_s(),
        peak_memory_bytes=device.memory.peak_bytes,
        depth_per_source=depths,
        wall_time_s=time.perf_counter() - t0,
    )
    return EdgeBCResult(graph=graph, scores=scores, stats=stats)
