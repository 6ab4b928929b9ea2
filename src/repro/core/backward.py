"""The backward (dependency-accumulation) stage of Algorithm 1, lines 31-42.

The pipeline walks the BFS levels in reverse, applying the Brandes
recurrence (Eq. 4) with three kernel launches per level (the Figure 2
pipeline): build ``delta_u`` from the depth-d slice, one SpMV, then fold
the weighted result into ``delta`` on the depth-(d-1) slice.

Both stages compute delta first and then launch the levels through one
replay (:func:`_replay_backward`) at their width.  The per-source stage
computes it in one sweep over the source's level-major BFS DAG
(:func:`_sweep`, DESIGN.md §7 "Backward delta as one sweep") and prices
its products from level tables (:mod:`repro.core.levels`); the batched
stage runs the level loop on ``(n, B)`` matrices, deciding each level's
kernel and recording its stats as it goes.
"""

from __future__ import annotations

import numpy as np

from repro.core import frontier as FK
from repro.core.context import TurboBCContext
from repro.core.levels import LevelDAG, SpmvLevels, flatten, label, level_dag, list_costs
from repro.core.result import BatchedBFSResult, BFSResult
from repro.obs import telemetry as obs
from repro.spmv._spmm import cast_like_spmv


def accumulate_dependencies(ctx: TurboBCContext, fwd: BFSResult) -> np.ndarray:
    """Run the backward stage and return the ``delta`` vector.

    The context swaps its forward frontier arrays for the float dependency
    vectors first (Section 3.4's allocation choreography).  ``fwd`` is
    :func:`~repro.core.forward.bfs_forward`'s result: ``sigma`` is read in
    place, the depth slices are its recorded ``discovered`` lists, and its
    BFS DAG is reused where the forward solve built one.  The levels are
    planned from the slices, delta is computed by :func:`_sweep`, the
    levels the tables price get their ``KernelStats``, and the replay
    launches them all (:mod:`repro.core.levels`).
    """
    with obs.span("backward", source=fwd.source, phase="backward"):
        delta, _delta_u, _delta_ut = ctx.swap_to_backward()
        sigma, depth = fwd.sigma, fwd.depth
        # slices[d - 1]: the vertices at depth d, as the forward stage found them
        slices = fwd.discovered
        push = ctx.matrix.push_operator()
        active = _planned_rows(sigma, delta.dtype, slices, depth)
        spmv = SpmvLevels(ctx, "backward", _operands(sigma, delta, slices, depth))
        spmv.plan(active, None, delta.dtype)
        _sweep(_dag(push, fwd), sigma, delta, scatter=ctx.graph.directed)
        if any(spmv.priced):
            # only the priced levels' counts are read: the others count nothing
            rows = [a if priced else a[:0] for a, priced in zip(active, spmv.priced)]
            spmv.price(_written_counts(push, rows, fwd.levels, depth))
        _replay_backward(ctx, (sigma.size, *list_costs(slices)), depth, spmv)
    return delta


def _operands(sigma, delta, slices, depth):
    """``operands(k)``: the ``(x, None)`` of the ``k``-th level launched,
    depth ``depth - k``.  ``x`` is ``delta_u`` on the final delta: delta on
    the depth-d slice is final once level d + 1 has run."""
    return lambda k: (FK.delta_u(sigma, delta, slices[depth - k - 1])[0], None)


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


def _dag(push, fwd: BFSResult) -> LevelDAG:
    """The forward's BFS DAG: the solve's, else built from its slices."""
    if fwd.dag is not None:
        return fwd.dag
    perm, bounds = flatten([np.array([fwd.source])] + fwd.discovered[:fwd.depth])
    return level_dag(push, perm, bounds)


def _sweep(dag: LevelDAG, sigma, delta, *, scatter: bool) -> None:
    """Lines 31-42 for every level of the level-major BFS DAG, the deepest
    down to 2; writes ``delta`` in place.

    Each level is the pipeline's three steps on contiguous rank blocks, with
    the kernels' operand dtypes: ``delta_u``'s expression on the depth-d
    block, each parent's sum of its children's ``delta_u`` (``np.bincount``
    adds in float64 from +0.0 in input order, which is the engine's storage
    order), the product's cast to the delta dtype, and ``delta_ut * sigma``
    on the depth-(d-1) block.  The bits are the level loop's (DESIGN.md §7):
    the terms the DAG leaves out are +-0.0 added to a sum that starts at
    +0.0, and each vertex's delta is updated once, so ``0 + delta_ut *
    sigma`` is the product.  Every discovered vertex has ``sigma > 0``
    (an overflowing forward raises), so ``delta_u`` covers its whole slice.
    """
    perm, bounds, indptr, child = dag
    sig = sigma[perm]
    acc = np.zeros(perm.size, dtype=delta.dtype)  # delta in rank order
    # each edge's parent and child as offsets into their levels' blocks
    starts = np.repeat(bounds[:-1], np.diff(bounds))
    parent = np.repeat(np.arange(perm.size) - starts, np.diff(indptr))
    child = child - starts[child]
    for d in range(bounds.size - 2, 1, -1):
        lo, mid, hi = bounds[d - 1:d + 2].tolist()
        x = ((1.0 + acc[mid:hi]) / sig[mid:hi]).astype(acc.dtype, copy=False)
        e0, e1 = indptr[lo], indptr[mid]
        sums = np.bincount(parent[e0:e1], weights=x[child[e0:e1]], minlength=mid - lo)
        acc[lo:mid] = cast_like_spmv(sums, acc.dtype, positive_only=not scatter) * sig[lo:mid]
    delta[perm] = acc


def _written_counts(push, active, S, depth) -> np.ndarray:
    """Per launch, the undirected gather's positive sums: the distinct
    neighbours of the launch's ``active`` rows, counted in one O(m) pass.

    A neighbour of a depth-d row lies at depth d - 1, d or d + 1, so a
    vertex has at most three (vertex, launch) pairs, one cell each of a
    ``3 n`` flag array; ``S`` holds the depths.
    """
    k1 = label(active, push.shape[0])  # launch + 1 of an active row, else 0
    entry = np.repeat(k1, np.diff(push.indptr))
    live = np.flatnonzero(entry)
    col = push.indices[live].astype(np.int64)
    # launch k's rows lie at depth - k
    slot = (depth + 2) - entry[live] - S[col]
    hit = np.zeros(3 * push.shape[0], dtype=bool)
    hit[3 * col + slot] = True
    cells = np.flatnonzero(hit)
    launch = depth + 1 - S[cells // 3] - cells % 3
    return np.bincount(launch, minlength=len(active))


def _replay_backward(ctx, costs, depth, spmv) -> None:
    """Launch the computed levels as one table: per level ``delta_u``, the
    product and the ``delta`` update; under telemetry each level's rows are
    reported in its own span.

    ``costs`` holds the kernels' thread count ``n * B`` and, at index
    ``d - 1``, the depth-d slice's size and gather transactions:
    ``delta_u`` writes the depth-d slice and the update the depth-(d-1)
    one.  A level whose stats are unknown runs its kernel's entry point
    against the context's recorder, on ``spmv.operands``.
    """
    threads, sizes, txn = costs
    walk = np.arange(depth, 1, -1)
    timed = spmv.launch(
        [FK.delta_u_costs(threads, sizes[walk - 1], txn[walk - 1]), None,
         FK.delta_update_costs(threads, sizes[walk - 2], txn[walk - 2])],
        [f"d={d}" for d in walk.tolist()])
    if obs.get_telemetry() is not None:
        spmv.spans(timed, 0, walk.tolist())


def accumulate_dependencies_batch(ctx: TurboBCContext, fwd: BatchedBFSResult) -> np.ndarray:
    """Batched backward stage: the Brandes recurrence on ``(n, B)`` matrices.

    Walks from the *deepest* lane's level down to 2 over the forward
    stage's recorded slices (``fwd.discovered``, less any overflowed lane
    the driver dropped); a lane whose BFS tree is shorter has no entries at
    the deeper levels, so its delta column stays exactly zero until the walk
    reaches its own depth -- from where it proceeds identically to the
    per-source :func:`accumulate_dependencies`.  Per-lane results are
    bit-identical to the sequential stage.  Each level's ``delta_u``, its
    product (:meth:`SpmvLevels.product`) and the ``delta`` update are
    computed first; the replay launches them, with the slices' sizes and
    the gather transactions the forward stage counted.
    """
    with obs.span("backward", sources=fwd.sources, batch=fwd.batch_size, phase="backward"):
        Delta, _Delta_u, _Delta_ut = ctx.swap_to_backward()
        Sigma, slices, depth = fwd.sigma, fwd.discovered, fwd.depth
        spmv = SpmvLevels(ctx, "backward", _operands(Sigma, Delta, slices, depth))
        for d in range(depth, 1, -1):
            Delta_u, _ = FK.delta_u(Sigma, Delta, slices[d - 1])
            FK.delta_update(Sigma, Delta, spmv.product(Delta_u, None), slices[d - 2])
        sizes = np.array([flat.size for flat in slices])
        _replay_backward(ctx, (Sigma.size, sizes, fwd.txn), depth, spmv)
    return Delta
