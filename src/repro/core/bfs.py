"""Standalone TurboBFS: the forward stage as a public algorithm.

The companion paper (Artiles & Saeed, IPDPSW 2021, reference [1]) publishes
the BFS stage as its own linear-algebraic GPU algorithm; TurboBC builds on
it.  :func:`turbo_bfs` exposes it directly: shortest-path counts, discovery
levels and the BFS-tree depth from one source, with the same kernel
selection and device accounting as the full BC driver.
"""

from __future__ import annotations

import numpy as np

from repro.core.bc import TurboBCAlgorithm, _resolve_algorithm
from repro.core.context import TurboBCContext
from repro.core.forward import bfs_forward
from repro.core.result import BFSResult
from repro.graphs.graph import Graph
from repro.gpusim.device import Device


def turbo_bfs(
    graph: Graph,
    source: int,
    *,
    algorithm: str | TurboBCAlgorithm | None = None,
    device: Device | None = None,
    forward_dtype=np.int32,
    direction: str = "auto",
) -> BFSResult:
    """Linear-algebraic BFS from ``source`` on the simulated device.

    Returns a host-side :class:`~repro.core.result.BFSResult`; the device is
    left clean (all arrays freed), with the run recorded in its profiler.
    ``direction`` constrains the adaptive dispatcher to push/pull kernels
    (see :func:`repro.core.bc.turbo_bc`); it is only meaningful with
    ``algorithm="adaptive"``.
    """
    algorithm = _resolve_algorithm(graph, algorithm)
    device = device or Device()
    ctx = TurboBCContext(device, graph, algorithm.name, forward_dtype=forward_dtype,
                         direction=direction)
    try:
        fwd = bfs_forward(ctx, source)
        result = BFSResult(
            source=fwd.source,
            sigma=fwd.sigma.copy(),
            levels=fwd.levels.copy(),
            depth=fwd.depth,
            frontier_sizes=list(fwd.frontier_sizes),
        )
    finally:
        ctx.abort()
    return result
