"""Level tables: the cost side of a stage, for all its levels.

Every stage computes its levels first and then replays their launches
(DESIGN.md §7, "Numerics, then costs"); :class:`SpmvLevels` holds the
product side of those levels for the replay at any width.  A batched
stage decides each level and records its stats in its numerics
(:meth:`SpmvLevels.product`).  The per-source stages
(:func:`repro.core.forward.bfs_forward`,
:func:`repro.core.backward.accumulate_dependencies`) plan theirs from the
lists their numerics record:

1. the numerics: the forward's level loop computes sigma and ``S`` level
   by level, recording each level's index lists -- the rows that are
   active, the elements each streaming kernel writes.  On a deep adaptive
   forward one triangular solve replaces the loop
   (:func:`repro.core.forward._forward_solve`), and the lists are slices
   of its level-major vertex order (:class:`LevelDAG`).  The backward
   computes delta in one sweep over that DAG
   (:func:`repro.core.backward._sweep`);
2. a replay issues the stage's launches, dispatch decisions, spans and
   telemetry in the pipeline's order.  Under the adaptive dispatcher its
   cost inputs come from the tables here: O(n + m) array passes over the
   lists give every level's statistics at once, and the cost functions
   take per-level arrays.

The forward lists are recorded, not inferred from the final ``S``: in an
int32 attempt, wrapped negative sigma values change which rows are active
and which columns a gather writes, and only the recorded lists stay exact.
(The solve never runs on a forward that wraps, so there a level's
active rows are the previous level's discovered list and its written
columns its own.)

A static algorithm's forward runs its kernel's entry point in the level
loop itself, against a recorder, and the replay launches the recorded
stats.  Under the adaptive dispatcher, a level whose gather picks
``tcspmm`` is priced from the tables.  Any other level, and every backward
level of a static algorithm, runs its kernel's entry point in the replay,
on the level's reconstructed operands, which are exact.  In the forward
the frontier is sigma on the previous level's discovered list, and the
allowed columns are the vertices discovered at this level or later.  In
the backward ``x`` is ``delta_u`` on the final delta: delta on the depth-d
slice is final once level d + 1 has run.  Where the solve gave sigma, or
the sweep delta, that replay call is the level's only product.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.gpusim import warp as W
from repro.spmv.tcspmm import _tc_stats, level_tile_stats


class LevelDAG(NamedTuple):
    """One source's BFS DAG, level-major.

    ``perm`` lists the reached vertices level by level, ascending by id
    within a level, with level ``d`` at ``perm[bounds[d]:bounds[d + 1]]``;
    a vertex's *rank* is its position in ``perm``.  Row ``j`` (vertex
    ``perm[j]``) holds the ranks of its children one level down at
    ``child[indptr[j]:indptr[j + 1]]``, ascending: the stored entries
    ``(perm[j], c)`` of ``push_operator()`` whose ``c`` is one level down,
    in storage order.  That is the order in which the engine accumulates a
    child's sigma into its gather sum (column ``c``'s rows ascending) and a
    parent's dependency sum, gathered (undirected) or scattered (row ``r``'s
    columns ascending).
    """

    perm: np.ndarray
    bounds: np.ndarray
    indptr: np.ndarray
    child: np.ndarray


def level_dag(push, perm: np.ndarray, bounds: np.ndarray) -> LevelDAG:
    """The :class:`LevelDAG` of the level-major vertex order ``perm``
    (levels split at ``bounds``) over the row-major operator ``push``.
    Every column of a reached vertex's row is reached, so only the ranks
    and levels of ``perm`` are read."""
    n = push.shape[0]
    lev = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    level = np.empty(n, dtype=np.int64)
    level[perm] = lev
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(perm.size)
    rows = push[perm]
    keep = level[rows.indices] == np.repeat(lev + 1, np.diff(rows.indptr))
    kept = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    return LevelDAG(perm, bounds, kept[rows.indptr], rank[rows.indices[keep]])


def flatten(lists: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-level index lists: ``(indices, bounds)`` with level
    ``k`` at ``indices[bounds[k]:bounds[k + 1]]``."""
    bounds = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum([a.size for a in lists], out=bounds[1:])
    if not lists:
        return np.zeros(0, dtype=np.int64), bounds
    return np.concatenate(lists).astype(np.int64, copy=False), bounds


def list_costs(lists: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-level ``(sizes, gather transactions)`` of sorted index lists."""
    flat, bounds = flatten(lists)
    return np.diff(bounds), W.level_gather_transactions(flat, bounds)


def label(lists: list[np.ndarray], size: int, fill: int = 0) -> np.ndarray:
    """``out[i] = k + 1`` for ``i`` in ``lists[k]`` (lists are disjoint);
    ``fill`` elsewhere."""
    flat, bounds = flatten(lists)
    out = np.full(size, fill, dtype=np.int64)
    out[flat] = np.repeat(np.arange(1, len(lists) + 1), np.diff(bounds))
    return out


class SpmvLevels:
    """The SpMV side of a stage's levels, in launch order.

    ``operands(k)`` rebuilds level ``k``'s exact ``(x, allowed)``.
    ``stats[k]`` is the level's ``KernelStats`` once known -- recorded by
    an entry point in the numerics, or priced from the tables -- and
    ``None`` where the replay runs the entry point.  ``decisions`` are the
    dispatcher's (``None`` without one); :meth:`launch` records each as
    its level launches.

    A batched stage adds its levels one at a time as its numerics run
    (:meth:`product`); a per-source stage plans them all from its lists
    (:meth:`plan`).
    """

    def __init__(self, ctx, stage: str, operands):
        self.ctx = ctx
        self.stage = stage
        self.operands = operands
        self.stats: list = []
        self.kernels: list[str] = []
        self.priced: list[bool] = []
        self.decisions = None if ctx.dispatcher is None else []

    def product(self, x: np.ndarray, allowed: np.ndarray | None) -> np.ndarray:
        """One batched level's numerics: the dispatcher's decision for the
        ``(n, B)`` operand ``x`` under the ``allowed`` mask, planned here
        and recorded at launch, then the chosen entry point against the
        context's recorder.  Returns the product."""
        ctx = self.ctx
        kernel = ctx.algorithm
        if self.decisions is not None:
            decision = ctx.dispatcher.decide(self.stage, len(self.decisions), x, allowed)
            self.decisions.append(decision)
            kernel = decision.kernel
        y, _, stats = ctx.product(self.stage, x, allowed, kernel=kernel)
        self.kernels.append(kernel)
        self.stats.append(stats)
        self.priced.append(False)
        return y

    def plan(self, active, allowed_level, dtype) -> "SpmvLevels":
        """Plan a per-source stage's levels from their lists.

        ``active[k]`` lists the rows whose ``x`` entry is positive at level
        ``k`` and ``allowed_level[c]`` the last level at which column ``c``
        may be written (``None``: all columns, every level).  Under the
        adaptive dispatcher one pass over the lists gives every level's
        frontier size, degree mass, the allowed side's degree mass, count
        and maximum, and active tiles.  Levels whose gather picks
        ``tcspmm`` (``priced``) get their ``KernelStats`` from the same
        tables (:meth:`price`); every other level's product runs its
        kernel's entry point.
        """
        ctx = self.ctx
        levels = len(active)
        self.stats = [None] * levels
        self.kernels = [ctx.algorithm] * levels
        self.priced = [False] * levels
        self.allowed_level = allowed_level
        self.dtype = dtype
        #: Per-level cost inputs (arrays in launch order) of a planned stage.
        self.tables: dict[str, np.ndarray] = {}
        disp = ctx.dispatcher
        if disp is None or levels == 0:
            return self
        csc = ctx.matrix
        self.row_level = label(active, csc.n_rows)
        t = self.tables
        t["n_active"], t["nnz_active"], t["max_tile"], t["chain"] = (
            a[1:] for a in level_tile_stats(csc, self.row_level, allowed_level, levels))
        t["nnz_x"] = np.array([a.size for a in active], dtype=np.int64)
        t["e_active"] = np.bincount(self.row_level, weights=disp.rowdeg,
                                    minlength=levels + 1)[1:].astype(np.int64)
        if allowed_level is None:
            t["s_allowed"] = np.full(levels, disp.m, dtype=np.int64)
            t["n_allowed"] = np.full(levels, disp.n, dtype=np.int64)
            t["dmax"] = np.full(levels, disp.deg.max() if disp.n else 0, dtype=np.int64)
        else:
            # column c is allowed at levels 1 .. allowed_level[c]
            last = np.minimum(allowed_level, levels)
            count = np.bincount(last, minlength=levels + 1)
            mass = np.bincount(last, weights=disp.deg, minlength=levels + 1)
            top = np.zeros(levels + 1, dtype=np.int64)
            np.maximum.at(top, last, disp.deg)
            t["n_allowed"] = np.cumsum(count[::-1])[::-1][1:]
            t["s_allowed"] = np.cumsum(mass[::-1])[::-1][1:].astype(np.int64)
            t["dmax"] = np.maximum.accumulate(top[::-1])[::-1][1:]
        self.decisions = disp.plan(
            self.stage, nnz_x=t["nnz_x"], e_active=t["e_active"],
            s_allowed=t["s_allowed"], n_allowed=t["n_allowed"],
            max_deg_allowed=t["dmax"], tiles_active=t["n_active"],
            tile_nnz_active=t["nnz_active"], tile_chain=t["chain"], dtype=dtype,
        )
        self.kernels = [d.kernel for d in self.decisions]
        gather = self.stage == "forward" or not ctx.graph.directed
        self.priced = [gather and kernel == "tcspmm" for kernel in self.kernels]
        return self

    def price(self, written) -> None:
        """``KernelStats`` of the priced levels, whose products wrote
        ``written[k]`` positive sums."""
        if not any(self.priced):
            return
        csc = self.ctx.matrix
        t = self.tables
        # tensor-core flops: stored entries with an active row in an allowed column
        entry_level = self.row_level[csc.row]
        useful = entry_level > 0
        if self.allowed_level is not None:
            useful &= self.allowed_level[csc.column_of_nnz()] >= entry_level
        levels = len(self.stats)
        t["n_flops"] = np.bincount(entry_level[useful], minlength=levels + 1)[1:]
        written = [w if priced else 0 for w, priced in zip(written, self.priced)]
        tc_stats = _tc_stats(
            csc, (t["n_active"], t["nnz_active"], t["max_tile"], t["chain"]), 1,
            self.dtype, written, t["n_flops"], "tcspmm_spmv",
            self.ctx.device.spec.l2_bytes, masked=self.allowed_level is not None,
        )
        for k in np.flatnonzero(self.priced):
            self.stats[k] = tc_stats[k]

    def launch(self, k: int, tag: str) -> None:
        """Record level ``k``'s decision and launch its product."""
        if self.decisions is not None:
            self.ctx.dispatcher.record(self.decisions[k])
        self.ctx.launch_spmv(self.stage, lambda: self.operands(k), kernel=self.kernels[k],
                             stats=self.stats[k], tag=tag)
