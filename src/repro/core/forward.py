"""The forward (BFS) stage of Algorithm 1, lines 11-28.

Level-synchronous masked-SpMV BFS: each iteration multiplies the frontier
vector by :math:`A^T`, masks out already-discovered vertices (``sigma != 0``)
and folds the surviving path counts into ``sigma`` while stamping discovery
depths into ``S``.  Two kernel launches per level, exactly as in the
Figure 2 pipeline: the (init+)SpMV kernel and the update kernel.  Both
stages, per source and batched, compute their levels first and then
launch them through one replay (:func:`_replay_forward`,
:mod:`repro.core.levels`) at their width.  Both record each level's
discovered list (vertex ids, or row-major flat indices of the ``(n, B)``
arrays), which is the slice the backward stage walks.

The per-source numerics take one of two routes to the same bits.  The
level loop (:func:`_forward_numerics`) runs one product and one frontier
update per level.  On a deep BFS under the adaptive dispatcher, one sparse
triangular solve over the BFS DAG gives sigma instead
(:func:`_forward_solve`, DESIGN.md §7 "Forward sigma as one solve"), and
the level lists the replay needs come from the solve's vertex order.  The
batched numerics (:func:`_forward_numerics_batch`) run one masked SpMM of
every lane per level; the dispatcher decides each level there, and the
replay records the decisions as it launches the levels.

One pseudocode correction (documented in DESIGN.md §2): the printed
Algorithm 1 never clears frontier entries of discovered vertices; the
implemented semantics is ``f <- ft masked to sigma == 0, else 0``, which is
what makes the loop terminate.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import __version__ as _scipy_version
from scipy.sparse import csc_array, eye_array
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import spsolve_triangular

from repro.core import frontier as FK
from repro.core.context import TurboBCContext
from repro.core.levels import SpmvLevels, label, level_dag, list_costs
from repro.core.result import BatchedBFSResult, BFSResult
from repro.gpusim import warp as W
from repro.gpusim.device import readbacks
from repro.obs import telemetry as obs


class SigmaOverflowError(RuntimeError):
    """Shortest-path counts overflowed the forward integer dtype.

    The CUDA implementation stores ``sigma`` in int32 (Section 3.4); graphs
    with combinatorially many equal-length paths can exceed it.  Re-run with
    ``forward_dtype=np.int64`` or ``np.float64``.
    """


#: The shallowest BFS (in levels) whose per-source forward is one triangular
#: solve; a shallower one keeps the level loop, whose few products cost less
#: than building the system.  On a 2-core x86-64 VM the solve took 1.6-2.7x
#: the loop's time at depth 5-8, 1.1x at depth 14 and 0.65-0.85x at depth
#: 18-23 (DESIGN.md §7).
SOLVE_MIN_DEPTH = 16

#: ``spsolve_triangular`` runs SuperLU's column sweep from SciPy 1.14 on;
#: the exactness argument of :func:`_forward_solve` is about that sweep.
_SUPERLU_SWEEP = tuple(int(p) for p in _scipy_version.split(".")[:2]) >= (1, 14)


def bfs_forward(ctx: TurboBCContext, source: int) -> BFSResult:
    """Run the forward stage from ``source`` on an initialised context.

    The context must have its forward arrays allocated by the caller (the
    driver owns the allocation choreography).  Returns the
    :class:`BFSResult`; ``sigma``/``S`` stay device-resident for the
    backward stage.

    The levels are computed first -- by one triangular solve where
    :func:`_forward_solve` applies, else by the level loop -- and then
    replayed as the pipeline's launches -- per level the SpMV, the update
    kernel and the convergence readback -- with their spans and telemetry
    (:mod:`repro.core.levels`).
    """
    graph = ctx.graph
    n = graph.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for n = {n}")
    sigma, S, f = ctx.alloc_forward()

    tel = obs.get_telemetry()
    with obs.span("forward", source=source, phase="forward"):
        discovered, active, written, stats, dag = (
            _forward_solve(ctx, source, sigma, S) or _forward_numerics(ctx, source, sigma, S, f))
        found, operands = _frontier_operands(ctx, sigma, discovered, source, None)
        spmv = SpmvLevels(ctx, "forward", operands).plan(active, found(), sigma.dtype)
        spmv.stats = stats
        spmv.price(written)
        sizes, txn = list_costs(discovered)
        _replay_forward(ctx, spmv, sizes[:, None], txn, False, tel)
        depth = len(discovered) - 1  # the last level discovered nothing (line 29)
        if tel is not None and tel.metrics is not None:
            tel.metrics.histogram("bfs_depth").record(depth)
    overflowed = (
        np.any(sigma < 0)
        if np.issubdtype(sigma.dtype, np.signedinteger)
        else not np.all(np.isfinite(sigma))
    )
    if overflowed:
        raise SigmaOverflowError(
            f"sigma overflowed dtype {sigma.dtype} during BFS from {source}"
        )
    return BFSResult(
        source=source,
        sigma=sigma,
        levels=S,
        depth=depth,
        frontier_sizes=[int(t.size) for t in discovered[:-1]],
        discovered=discovered,
        dag=dag,
    )


def _forward_numerics(ctx, source, sigma, S, f):
    """Algorithm 1 lines 15-28 with the SpMV engine only.

    Returns per level (depth 1, 2, ...): the discovered list, the active
    rows of the level's product (the previous level's positive frontier
    entries; the source for depth 1), and the product's positive-sum count
    and recorded ``KernelStats`` (see ``TurboBCContext.product``); then
    ``None`` for the BFS DAG, which the loop does not build.  The last
    level discovers nothing.  A static algorithm's entry point
    computes the products; adaptive levels are planned from these lists
    afterwards, so the SpMV engine computes theirs.
    """
    kernel = None if ctx.dispatcher is not None else ctx.algorithm
    f[source] = 1
    sigma[source] = 1
    x = f
    discovered, active, written, stats = [], [np.array([source])], [], []
    depth = 0
    while True:
        depth += 1
        ft, n_written, level_stats = ctx.product("forward", x, sigma == 0, kernel=kernel)
        x, touched = FK.frontier_update(ft, sigma, S, depth, masked_spmv=ctx.mask_fused)
        discovered.append(touched)
        written.append(n_written)
        stats.append(level_stats)
        if not touched.size:
            break
        active.append(touched[np.take(x, touched) > 0])
    f[source] = 0  # the drained frontier
    return discovered, active, written, stats, None


def _forward_solve(ctx, source, sigma, S):
    """Algorithm 1 lines 15-28 as one sparse triangular solve, or ``None``
    where the level loop must run.  Returns :func:`_forward_numerics`'s
    lists and the BFS DAG (:class:`~repro.core.levels.LevelDAG`), which
    the backward stage walks too.

    sigma over the BFS DAG solves ``(I - P) sigma = e_source``, where ``P``
    holds the stored entries from level d - 1 to level d.  With the
    vertices ordered level-major, ascending by id within a level, ``I - P``
    is unit lower triangular, and SuperLU's column sweep adds each parent's
    sigma into its children in ascending parent order, starting from +0.0:
    the level loop's storage-order sums with their zero terms dropped, so
    the bits are the loop's (DESIGN.md §7).  Every sum is positive, so a
    level's discovered list is its vertices, its positive-sum count their
    number, and they are the next level's active rows.

    It applies under the adaptive dispatcher (a static kernel records its
    stats level by level in the loop), from ``SOLVE_MIN_DEPTH`` levels of
    its own BFS on, to a float64 forward whose sigma is finite and to an
    integer one whose sigma fits the dtype (integer sums are exact in any
    order).  A float32 forward rounds once per level, and an overflowing
    integer one wraps, so only the loop gives their bits -- except that the
    int32 attempt of a ``"auto"`` run (``ctx.restart_on_overflow``) raises
    :class:`SigmaOverflowError` here, before any launch, since the driver
    discards it for a float64 restart anyway.
    """
    dtype = sigma.dtype
    if (ctx.dispatcher is None or not _SUPERLU_SWEEP
            or not (dtype == np.float64 or dtype.kind in "iu")):
        return None
    n = ctx.graph.n
    push = ctx.matrix.push_operator()  # row r: the columns c of entries (r, c)
    order, parent = breadth_first_order(push, source, directed=True,
                                        return_predecessors=True)
    # BFS order is level-major, and each vertex's parent precedes it, so
    # level k + 1 ends before the first vertex whose parent is past level k.
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(order.size)
    parent_pos = pos[parent[order[1:]]]
    bounds = [0, 1]
    while bounds[-1] < order.size:
        bounds.append(1 + int(np.searchsorted(parent_pos, bounds[-1])))
    depth = len(bounds) - 2
    if depth < SOLVE_MIN_DEPTH:
        return None
    bounds = np.array(bounds)
    lev = np.repeat(np.arange(depth + 1), np.diff(bounds))
    perm = np.sort(lev * n + order) % n  # level-major, ascending id within a level

    # Row j of the DAG holds perm[j]'s children: column j of P in the solve
    # order.
    dag = level_dag(push, perm, bounds)
    L = eye_array(perm.size, format="csc") - csc_array(
        (np.ones(dag.child.size), dag.child, dag.indptr), shape=(perm.size,) * 2)
    rhs = np.zeros(perm.size)
    rhs[0] = 1.0
    x = spsolve_triangular(L, rhs, lower=True, overwrite_A=True, overwrite_b=True,
                           unit_diagonal=True)

    top = np.inf if dtype.kind == "f" else float(np.iinfo(dtype).max) + 1
    if not x.max() < top:
        if dtype.kind != "f" and ctx.restart_on_overflow:
            raise SigmaOverflowError(
                f"sigma overflowed dtype {dtype} during BFS from {source}")
        return None
    sigma[perm] = x
    S[perm] = lev
    lists = np.split(perm, bounds[1:-1])  # levels 0 .. depth
    discovered = lists[1:] + [perm[:0]]
    written = [int(d.size) for d in discovered]
    return discovered, lists, written, [None] * len(discovered), dag


def _frontier_operands(ctx, sigma, discovered, roots, lanes):
    """``found()``, the discovery level of every element of ``sigma`` (0
    at the ``roots``, ``len(discovered)`` where never discovered), built on
    first use, and ``operands(k)``, level ``k``'s exact ``(x, allowed)``
    rebuilt from the recorded lists: ``x`` is sigma on the previous level's
    list, and the allowed elements are those discovered at this level or
    later, in the lanes that discovered something at the previous level
    (``lanes[k - 1]`` of a batched stage)."""

    @functools.cache
    def found():
        return levels_of(discovered, sigma.size, len(discovered), roots).reshape(sigma.shape)

    def operands(k):
        prev = discovered[k - 1] if k else roots
        x = np.zeros_like(sigma)
        np.put(x, prev, np.take(sigma, prev))
        if not ctx.mask_fused:
            return x, None
        allowed = found() >= k + 1
        if k and sigma.ndim == 2:
            allowed &= lanes[k - 1] > 0
        return x, allowed

    return found, operands


def _replay_forward(ctx, spmv, lanes, txn, batched, tel) -> None:
    """Launch the computed levels as one table: init, then per level the
    product, the update kernel and the readback of the convergence flags;
    under telemetry each level's rows are reported in its own span.

    ``lanes[k]`` holds level ``k``'s discoveries per lane (one column per
    source of the stage) and ``txn[k]`` the gather transactions of its
    discovered list.  The kernels run ``n * B`` threads and the readback
    reads ``B`` words.  A ``batched`` stage's level spans always carry the
    lane-averaged densities and the number of lanes that discovered
    something; a per-source level span carries its densities when it
    discovered something.
    """
    n, B = ctx.graph.n, lanes.shape[1]
    sizes = lanes.sum(axis=1)
    depths = range(1, len(lanes) + 1)
    # The host must read the convergence flags back each level to decide
    # whether to launch the next one.
    timed = spmv.launch(
        [None, FK.frontier_update_costs(n * B, sizes, txn, masked_spmv=ctx.mask_fused),
         readbacks(B, len(lanes))],
        [f"d={d}" for d in depths], head=FK.init_costs(B, "d=1"))
    if tel is None:
        return
    visited = np.cumsum(sizes) + B

    def densities(k, sp):
        got = lanes[k][lanes[k] > 0].tolist()
        if batched or got:
            sp.set(**FK.level_density(int(sizes[k]), int(visited[k]), n * B),
                   **({"active_lanes": len(got)} if batched else {}))
        if tel.metrics is not None:
            for size in got:
                tel.metrics.histogram("frontier_size").record(size)

    spmv.spans(timed, 1, depths, densities)


def levels_of(discovered, size: int, undiscovered: int, roots) -> np.ndarray:
    """Discovery level of every element from the recorded lists: 0 at the
    ``roots``, ``undiscovered`` where no list holds it."""
    found = label(discovered, size, fill=undiscovered)
    found[roots] = 0
    return found


def bfs_forward_batch(ctx: TurboBCContext, sources) -> BatchedBFSResult:
    """Run the forward stage for a whole batch of sources at once.

    One BFS lane per column of the ``(n, B)`` arrays; each level is a single
    masked SpMM plus one batched update kernel.  The batch runs until every
    lane's frontier has drained (the per-lane convergence bitmap), with
    drained lanes masked out of the SpMM.  The levels are computed first
    (:func:`_forward_numerics_batch`) and then replayed as the pipeline's
    launches by the per-source stage's replay.  Per-lane results are
    bit-identical to :func:`bfs_forward`.

    Sigma overflow is reported per lane in the result's ``overflowed``
    bitmap instead of raising -- the driver re-runs only the affected
    sources (or raises, for an explicitly requested integer dtype).
    """
    graph = ctx.graph
    n = graph.n
    src = [int(s) for s in sources]
    B = len(src)
    if B < 1:
        raise ValueError("sources batch must be non-empty")
    for s in src:
        if not 0 <= s < n:
            raise ValueError(f"source {s} out of range for n = {n}")
    Sigma, S, F = ctx.alloc_forward(B)
    roots = np.array(src, dtype=np.int64) * B + np.arange(B)  # (s_j, j), row-major

    tel = obs.get_telemetry()
    with obs.span("forward", sources=src, batch=B, phase="forward"):
        spmv = SpmvLevels(ctx, "forward", None)
        discovered, lanes, txn = _forward_numerics_batch(ctx, spmv, roots, Sigma, S, F)
        _, spmv.operands = _frontier_operands(ctx, Sigma, discovered, roots, lanes)
        _replay_forward(ctx, spmv, lanes, txn, True, tel)
        depths = np.count_nonzero(lanes, axis=0)
        if tel is not None and tel.metrics is not None:
            for d in depths.tolist():
                tel.metrics.histogram("bfs_depth").record(d)

    if np.issubdtype(Sigma.dtype, np.signedinteger):
        overflowed = (Sigma < 0).any(axis=0)
    else:
        overflowed = ~np.isfinite(Sigma).all(axis=0)
    return BatchedBFSResult(
        sources=src,
        sigma=Sigma,
        levels=S,
        depths=depths.tolist(),
        frontier_sizes=[col[col > 0].tolist() for col in lanes.T],
        overflowed=overflowed,
        discovered=discovered,
        txn=txn,
    )


def _forward_numerics_batch(ctx, spmv, roots, Sigma, S, F):
    """Batched lines 15-28: per level one product of every lane's frontier
    (:meth:`SpmvLevels.product`: the level's decision and its entry point
    against a recorder), masked where the kernel fuses the mask to the
    undiscovered elements of the lanes still active, and the frontier
    update.

    Returns per level the discovered row-major flat list, the ``(levels,
    B)`` per-lane discovery counts and each list's gather transactions,
    counted once for the update kernel and both backward kernels.
    """
    B = Sigma.shape[1]
    np.put(F, roots, 1)
    np.put(Sigma, roots, 1)
    X = F
    active = np.ones(B, dtype=bool)
    discovered, lanes, txn = [], [], []
    while active.any():
        allowed = (Sigma == 0) & active if ctx.mask_fused else None
        Ft = spmv.product(X, allowed)
        X, flat = FK.frontier_update(Ft, Sigma, S, len(discovered) + 1,
                                     masked_spmv=ctx.mask_fused)
        per_lane = np.bincount(flat % B, minlength=B)
        discovered.append(flat)
        lanes.append(per_lane)
        txn.append(W.gather_transactions(flat))
        active &= per_lane > 0
    np.put(F, roots, 0)  # the drained frontier
    return discovered, np.array(lanes), np.array(txn)
