"""Level tables: the cost side of a stage, for all its levels.

Every stage computes its levels first and then launches them (DESIGN.md
§7, "Numerics, then costs"); :class:`SpmvLevels` holds the product side of
a stage's levels at any width.  The level loop of either stage, on a
vector or an ``(n, B)`` matrix, decides each level and records its stats
in its numerics (:meth:`SpmvLevels.product`).  A per-source forward that
solves sigma instead, and the backward sweep after it, plan their levels
from index lists (:meth:`SpmvLevels.plan`) -- each level's active rows and
the elements each streaming kernel writes: the forward takes them from its
triangular solve's level-major order (:class:`LevelDAG`), which the
backward sweep walks too.  O(n + m) passes over the lists give every
level's statistics, one :class:`~repro.core.dispatch.DecisionTable` the
stage's decisions, and the cost functions price the levels whose gather
picks ``tcspmm``.

A replay launches the stage as one
:class:`~repro.gpusim.kernel.LaunchTable`, in launch order, with one device
call (:meth:`SpmvLevels.launch`), and records its decisions as one block
with the products' measured times.  A product row is a level loop's
recorded stats, a priced row, or else the row of the level's entry point
run against the context's recorder on the level's exact operands: in the
forward ``x`` is sigma on the previous level's discovered list and the
allowed columns are those discovered at this level or later; in the
backward ``x`` is ``delta_u`` on the final delta.  Under telemetry
:meth:`SpmvLevels.spans` reports the rows level by level, each level span opened
and closed at the table's clock around its rows; with no session, no
per-level ``KernelStats``, ``KernelLaunch``, ``DispatchDecision`` or span
attribute is built.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.dispatch import DecisionTable
from repro.gpusim import warp as W
from repro.gpusim.kernel import LaunchTable
from repro.obs import telemetry as obs
from repro.spmv.tcspmm import _tc_stats, level_tile_stats


#: Rows per level of a stage table (forward: the product, ``bfs_update``
#: and the readback; backward: ``delta_u``, the product, ``delta_update``).
LEVEL_ROWS = 3


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
    ``stats[k]`` is the ``KernelStats`` its numerics recorded, if any, and
    ``priced[k]`` marks a level whose row the level tables give (``rows``).
    ``decisions`` are the dispatcher's (``None`` without one).  A level
    loop adds its levels as its numerics run (:meth:`product`); a solved
    forward and its backward sweep plan them all from their lists
    (:meth:`plan`).
    """

    def __init__(self, ctx, stage: str, operands):
        self.ctx = ctx
        self.stage = stage
        self.operands = operands
        self.stats: list = []
        self.kernels: list[str] = []
        self.priced: list[bool] = []
        self.rows = None
        self.decisions = None if ctx.dispatcher is None else []

    def product(self, x: np.ndarray, allowed: np.ndarray | None) -> np.ndarray:
        """One loop level's numerics: the dispatcher's decision for the
        vector or ``(n, B)`` operand ``x`` under the ``allowed`` mask,
        planned here and recorded at launch, then the chosen entry point
        against the context's recorder.  Returns the product."""
        ctx = self.ctx
        kernel = ctx.algorithm
        if self.decisions is not None:
            decision = ctx.dispatcher.decide(self.stage, len(self.decisions), x, allowed)
            self.decisions.append(decision)
            kernel = decision.kernels[0]
        y, stats = ctx.product(self.stage, x, allowed, kernel=kernel)
        self.kernels.append(kernel)
        self.stats.append(stats)
        self.priced.append(False)
        return y

    def plan(self, active, allowed_level, dtype) -> "SpmvLevels":
        """Plan a solved forward's or a backward sweep's levels from their
        lists.

        ``active[k]`` lists the rows whose ``x`` entry is positive at level
        ``k`` and ``allowed_level[c]`` the last level at which column ``c``
        may be written (``None``: all columns, every level).  Under the
        adaptive dispatcher one pass over the lists gives every level's
        frontier size, degree mass, the allowed side's degree mass, count
        and maximum, and active tiles, and one :class:`DecisionTable` their
        decisions.  Levels whose gather picks ``tcspmm`` (``priced``) get
        their launch rows from the same tables (:meth:`price`).
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
        self.kernels = self.decisions.kernels
        gather = self.stage == "forward" or not ctx.graph.directed
        self.priced = [gather and kernel == "tcspmm" for kernel in self.kernels]
        return self

    def price(self, written) -> None:
        """Launch rows of the priced levels, whose products wrote
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
        written = np.where(self.priced, written, 0)
        self.rows = _tc_stats(
            csc, (t["n_active"], t["nnz_active"], t["max_tile"], t["chain"]), 1,
            self.dtype, written, t["n_flops"], "tcspmm_spmv",
            self.ctx.device.spec.l2_bytes, masked=self.allowed_level is not None,
        )

    def table(self) -> LaunchTable:
        """The products' launch rows, one per level: priced rows from the
        level tables, the others from recorded stats or the level's entry
        point run against the context's recorder."""
        for k in range(len(self.stats)):
            if self.stats[k] is None and not self.priced[k]:
                x, allowed = self.operands(k)
                self.stats[k] = self.ctx.product(self.stage, x, allowed, kernel=self.kernels[k])[1]
        rest = LaunchTable.from_stats([s for s in self.stats if s is not None], ())
        if self.rows is None:
            return rest
        table, unpriced = self.rows, ~np.array(self.priced)
        table.counts[unpriced], table.ids[unpriced] = rest.counts, rest.ids + len(table.names)
        return LaunchTable(table.names + rest.names, table.ids, table.counts, table.kinds, ())

    def launch(self, body: list, tags: list[str], head: LaunchTable | None = None) -> LaunchTable:
        """Launch the stage as one table: ``head``'s rows, then for each
        level ``k`` (tagged ``tags[k]``) row ``k`` of each of the
        :data:`LEVEL_ROWS` ``body`` tables, ``None`` standing for the
        products (:meth:`table`).  Records the decisions with the products'
        measured times (and audits them)."""
        ctx, levels, width = self.ctx, len(tags), LEVEL_ROWS
        if len(body) != width:
            raise ValueError(f"a level launches {width} rows, got {len(body)} tables")
        col = body.index(None)
        body[col] = self.table()
        table = LaunchTable.cat(body, tags)
        table = LaunchTable.cat([head, table]) if head else table
        start = len(table) - levels * width
        timed = ctx.device.launch(table, report=False)
        if isinstance(self.decisions, list):  # a batched stage's one-level tables
            self.decisions = DecisionTable.cat(self.decisions) if self.decisions else None
        if self.decisions is not None:
            ctx.dispatcher.record_measured(self.decisions, timed.exec_s[start + col::width])
            tel = obs.get_telemetry()
            if tel is not None and tel.audit_dispatch:
                for k, decision in enumerate(self.decisions.rows()):
                    ctx.audit_replay(self.stage, decision, *self.operands(k))
        return timed

    def spans(self, timed: LaunchTable, start: int, depths, each=None) -> None:
        """Report the launched stage table to the active telemetry: rows
        before ``start`` in the enclosing span, then each level's
        :data:`LEVEL_ROWS` rows in a span opened and closed at the table's
        clock around them, with the level's decision; ``each(k, span)`` adds
        level ``k``'s own."""
        device = self.ctx.device
        clock = timed.clock.tolist()
        device.report(timed, slice(start))
        rows = None if self.decisions is None else self.decisions.rows()
        for k, depth in enumerate(depths):
            lo, hi = start + LEVEL_ROWS * k, start + LEVEL_ROWS * (k + 1)
            with obs.span("level", gpu=(clock[lo], clock[hi]), depth=depth) as sp:
                device.report(timed, slice(lo, hi))
                if rows is not None:
                    sp.set(**rows[k].span_attrs())
                if each is not None:
                    each(k, sp)
