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
from repro.core.levels import SpmvLevels, flatten, list_costs
from repro.core.result import BatchedBFSResult, BFSResult
from repro.obs import telemetry as obs


def accumulate_dependencies(ctx: TurboBCContext, fwd: BFSResult) -> np.ndarray:
    """Run the backward stage and return the ``delta`` vector.

    The context swaps its forward frontier arrays for the float dependency
    vectors first (Section 3.4's allocation choreography).  ``fwd`` is
    :func:`~repro.core.forward.bfs_forward`'s result: ``sigma`` is read in
    place and the depth slices are its recorded ``discovered`` lists.  The
    levels are planned from those slices, computed, and then replayed as
    the pipeline's launches (:mod:`repro.core.levels`).
    """
    with obs.span("backward", source=fwd.source, phase="backward"):
        delta, _delta_u, _delta_ut = ctx.swap_to_backward()
        sigma, depth = fwd.sigma, fwd.depth
        # slices[d - 1]: the vertices at depth d, as the forward stage found them
        slices = fwd.discovered

        def operands(k):
            # delta on the depth-d slice is final once level d + 1 has run
            return FK.delta_u(sigma, delta, slices[depth - k - 1])[0], None

        spmv = SpmvLevels(ctx, "backward", _planned_rows(sigma, delta.dtype, slices, depth),
                          None, delta.dtype, operands)
        scaled, written = _backward_numerics(ctx, sigma, delta, slices, depth, spmv)
        spmv.price(written)
        _replay_backward(ctx, slices, depth, scaled, spmv)
    return delta


def _planned_rows(sigma, dtype, slices, depth) -> list[np.ndarray]:
    """Each level's active rows, depth ``depth`` down to 2, before its
    numerics: the depth-d slice where ``1 / sigma``, evaluated as
    ``delta_u`` evaluates ``(1 + delta) / sigma``, is positive in ``dtype``.

    These are exactly the rows where ``delta_u > 0``.  Every rounding step
    of ``delta_u`` is monotone in ``delta >= 0``, so a row with a positive
    ``1 / sigma`` is active.  A row whose ``1 / sigma`` underflows to 0 is
    not: its successors have ``sigma`` at least as large, so (by induction
    from the deepest level) their ``delta_u`` are 0, its ``delta`` stays 0
    and its ``delta_u`` is that underflowed ``1 / sigma``.
    """
    flat, bounds = flatten([slices[d - 1] for d in range(depth, 1, -1)])
    sig = np.take(sigma, flat)
    keep = sig > 0
    keep[keep] = (np.ones(np.count_nonzero(keep), dtype=dtype) / sig[keep]).astype(dtype) > 0
    return [flat[lo:hi][keep[lo:hi]] for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def _backward_numerics(ctx, sigma, delta, slices, depth, spmv):
    """Lines 31-42 per level, depth ``depth`` down to 2.

    Each level's product runs the kernel ``spmv`` planned for it: its
    entry point, against a recorder, or the SpMV engine for a level the
    tables price (``spmv.stats`` gets the recorded ``KernelStats``).
    Returns per level the ``delta_u`` writes and the product's
    positive-sum count.
    """
    scaled, written = [], []
    for k, d in enumerate(range(depth, 1, -1)):
        delta_u, idx = FK.delta_u(sigma, delta, slices[d - 1])
        scaled.append(idx)
        kernel = None if spmv.priced[k] else spmv.kernels[k]
        delta_ut, n_written, spmv.stats[k] = ctx.product("backward", delta_u, kernel=kernel)
        written.append(n_written)
        FK.delta_update(sigma, delta, delta_ut, slices[d - 2])
    return scaled, written


def _replay_backward(ctx, slices, depth, scaled, spmv) -> None:
    """Launch the computed levels: per level ``delta_u``, the SpMV and the
    ``delta`` update, each level in its own span."""
    walk = range(depth, 1, -1)
    n = ctx.graph.n
    scales = FK.delta_u_costs(n, *list_costs(scaled))
    updates = FK.delta_update_costs(n, *list_costs([slices[d - 2] for d in walk]))
    for k, d in enumerate(walk):
        tag = f"d={d}"
        with obs.span("level", depth=d) as sp:
            ctx.device.launch(scales[k], tag=tag)
            spmv.launch(k, tag)
            if spmv.decisions is not None:
                sp.set(**spmv.decisions[k].span_attrs())
            ctx.device.launch(updates[k], tag=tag)


def accumulate_dependencies_batch(ctx: TurboBCContext, fwd: BatchedBFSResult) -> np.ndarray:
    """Batched backward stage: the Brandes recurrence on ``(n, B)`` matrices.

    Walks from the *deepest* lane's level down to 2 over the forward
    stage's recorded slices (``fwd.discovered``, less any overflowed lane
    the driver dropped); a lane whose BFS tree is shorter has no entries at
    the deeper levels, so its delta column stays exactly zero until the walk
    reaches its own depth -- from where it proceeds identically to the
    per-source :func:`accumulate_dependencies`.  Per-lane results are
    bit-identical to the sequential stage.
    """
    with obs.span("backward", sources=fwd.sources, batch=fwd.batch_size, phase="backward"):
        Delta, _Delta_u, _Delta_ut = ctx.swap_to_backward()
        Sigma, slices = fwd.sigma, fwd.discovered
        for d in range(fwd.depth, 1, -1):
            tag = f"d={d}"
            with obs.span("level", depth=d) as sp:
                Delta_u, _ = FK.delta_u_batch_kernel(ctx.device, Sigma, Delta, slices[d - 1],
                                                     tag=tag)
                Delta_ut, _ = ctx.spmm_backward(
                    Delta_u.astype(ctx.backward_dtype, copy=False), tag=tag
                )
                if ctx.dispatcher is not None:
                    sp.set(**ctx.dispatcher.last.span_attrs())
                FK.delta_update_batch_kernel(ctx.device, Sigma, Delta, Delta_ut, slices[d - 2],
                                             tag=tag)
    return Delta
