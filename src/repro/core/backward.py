"""The backward (dependency-accumulation) stage of Algorithm 1, lines 31-42.

Walks the BFS levels in reverse, applying the Brandes recurrence (Eq. 4)
with three kernel launches per level (the Figure 2 pipeline): build
``delta_u`` from the depth-d slice, one SpMV, then fold the weighted result
into ``delta`` on the depth-(d-1) slice.
"""

from __future__ import annotations

import numpy as np

from repro.core import frontier as FK
from repro.core.context import TurboBCContext
from repro.core.result import BatchedBFSResult, BFSResult
from repro.obs import telemetry as obs


def accumulate_dependencies(ctx: TurboBCContext, fwd: BFSResult) -> np.ndarray:
    """Run the backward stage and return the ``delta`` vector.

    The context swaps its forward frontier arrays for the float dependency
    vectors first (Section 3.4's allocation choreography).  ``fwd.sigma``
    and ``fwd.levels`` are read in place.
    """
    with obs.span("backward", source=fwd.source, phase="backward"):
        delta, _delta_u, _delta_ut = ctx.swap_to_backward()
        sigma = fwd.sigma
        S = fwd.levels
        depth = fwd.depth
        while depth > 1:
            tag = f"d={depth}"
            with obs.span("level", depth=depth) as sp:
                delta_u, _ = FK.delta_u_kernel(ctx.device, S, sigma, delta, depth, tag=tag)
                delta_ut, _ = ctx.spmv_backward(
                    delta_u.astype(ctx.backward_dtype, copy=False), tag=tag
                )
                if ctx.dispatcher is not None:
                    sp.set(**ctx.dispatcher.last.span_attrs())
                FK.delta_update_kernel(ctx.device, S, sigma, delta, delta_ut, depth, tag=tag)
            depth -= 1
    return delta


def accumulate_dependencies_batch(ctx: TurboBCContext, fwd: BatchedBFSResult) -> np.ndarray:
    """Batched backward stage: the Brandes recurrence on ``(n, B)`` matrices.

    Walks from the *deepest* lane's level down to 2; a lane whose BFS tree
    is shorter selects no vertices at the deeper levels (its ``S`` column
    never holds them), so its delta column stays exactly zero until the walk
    reaches its own depth -- from where it proceeds identically to the
    per-source :func:`accumulate_dependencies`.  Per-lane results are
    bit-identical to the sequential stage.
    """
    with obs.span("backward", sources=fwd.sources, batch=fwd.batch_size, phase="backward"):
        Delta, _Delta_u, _Delta_ut = ctx.swap_to_backward_batch()
        Sigma = fwd.sigma
        S = fwd.levels
        depth = fwd.depth
        # Flat indices of the depth-d slice.  They come from ``S`` as it is
        # now -- the driver has zeroed overflowed lanes since the forward pass
        # -- and the depth-(d-1) list serves this level's update and the
        # next level's delta_u.
        level = np.flatnonzero(S == depth)
        while depth > 1:
            tag = f"d={depth}"
            with obs.span("level", depth=depth) as sp:
                Delta_u, _ = FK.delta_u_batch_kernel(ctx.device, Sigma, Delta, level, tag=tag)
                Delta_ut, _ = ctx.spmm_backward(
                    Delta_u.astype(ctx.backward_dtype, copy=False), tag=tag
                )
                if ctx.dispatcher is not None:
                    sp.set(**ctx.dispatcher.last.span_attrs())
                level = np.flatnonzero(S == depth - 1)
                FK.delta_update_batch_kernel(ctx.device, Sigma, Delta, Delta_ut, level, tag=tag)
            depth -= 1
    return Delta
