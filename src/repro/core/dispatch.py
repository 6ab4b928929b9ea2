"""Per-level adaptive kernel dispatch (``algorithm="adaptive"``).

The paper picks ONE SpMV kernel per run from the graph-level ``scf``
metric, but frontier shape changes drastically across BFS levels: the
sparse early/late frontiers favour the thread-per-edge strategy, the dense
middle levels favour the column kernels, and a single undiscovered hub
column can stall scCSC's critical path by milliseconds while leaving the
other kernels untouched.  :class:`AdaptiveDispatcher` therefore re-picks
the kernel *every level*, for both stages, from cheap frontier statistics:

* ``nnz(frontier)`` and the frontier fraction ``nnz / n``;
* the degree mass of the active columns (average and maximum degree);
* the degree mass and maximum degree of the *allowed* (undiscovered)
  columns, which is what the masked column kernels actually scan.

All of these are single reductions over precomputed degree arrays -- on
real hardware they cost one tiny kernel per level, negligible next to the
SpMV itself.  From the statistics the dispatcher evaluates a closed-form
cost estimate per kernel strategy, mirroring the dominant terms of each
kernel's hardware model (issue cycles, DRAM transactions, the critical
warp path and the same-address atomic chain), and launches the argmin.

A stage's decisions are planned and recorded as one
:class:`DecisionTable` -- the chosen kernel per level and the raw
estimates -- and :class:`DispatchDecision` rows are built from it on demand,
for the decision log and the per-level ``obs`` spans, so a trace shows
exactly which kernel served every level and why.

The kernel strategies dispatch over the *single stored CSC format* (the
paper's ``7n + m`` discipline): ``sccooc`` here means the thread-per-edge
strategy of :mod:`repro.spmv.edgecsc`, which recovers each entry's column
with a binary search on ``CP_A``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.formats.csc import CSCMatrix
from repro.gpusim import warp as W
from repro.gpusim.device import DeviceSpec
from repro.spmv._spmm import lane_any
from repro.spmv.edgecsc import lookup_cycles
from repro.spmv import sccsc as _sccsc
from repro.spmv import veccsc as _veccsc
from repro.spmv import edgecsc as _edgecsc
from repro.spmv import pullcsc as _pullcsc
from repro.spmv import tcspmm as _tcspmm

#: Kernel strategies the dispatcher switches between.
STRATEGIES = ("sccooc", "sccsc", "veccsc", "pullcsc", "tcspmm")

#: Traversal direction of each strategy: the warp kernels iterate from the
#: frontier side gathering values (push); ``pullcsc`` probes the frontier
#: bitmap from the unvisited side, and the blocked tensor-core kernel prunes
#: tiles against the same bitmap, so both are pull-shaped.
DIRECTION = {
    "sccooc": "push",
    "sccsc": "push",
    "veccsc": "push",
    "pullcsc": "pull",
    "tcspmm": "pull",
}

#: Valid values of the ``direction`` override on the dispatcher / driver.
DIRECTIONS = ("auto", "push", "pull")

#: Divergence inflation applied to scCSC's mean per-entry issue cost: a warp
#: retires at its slowest lane, so the aggregate runs above the mean even on
#: near-uniform degrees (calibrated against the simulated kernel models).
_SCCSC_DIVERGENCE = 2.0


@dataclass(frozen=True)
class DispatchDecision:
    """One per-level kernel choice with the statistics that drove it."""

    stage: str                 # "forward" | "backward"
    depth: int
    kernel: str                # one of STRATEGIES
    nnz_frontier: int
    frontier_frac: float
    avg_deg_active: float
    max_deg_allowed: int
    batch: int = 1
    #: Traversal direction of the chosen kernel (``DIRECTION[kernel]``): the
    #: per-level push<->pull decision this row records.
    direction: str = "push"
    #: Unvisited-side density ``n_allowed / n``: the pull kernels scan the
    #: *undiscovered* columns, so their cost tracks this, not the frontier
    #: nnz (which is what the push cost tracks).
    unvisited_frac: float = 1.0
    est_us: dict = field(default_factory=dict)   # strategy -> estimated µs
    #: Measured modeled time per strategy, in µs.  The chosen kernel's entry
    #: is filled on every adaptive launch; the others only under
    #: ``RunTelemetry(audit_dispatch=True)``, which replays them on a shadow
    #: device (obs/audit.py turns the gap into a regret report).  Mutable by
    #: design -- the decision identity is the frozen statistics above.
    measured_us: dict = field(default_factory=dict, compare=False)

    def measure(self, kernel: str, launch) -> None:
        """Record ``launch``'s in-kernel time as ``kernel``'s measured time."""
        self.measured_us[kernel] = _us(launch.exec_time_s)

    def span_attrs(self) -> dict:
        """Attributes recorded on the level span for this decision."""
        return {
            # The run phase this level belongs to -- the memory profiler's
            # phase derivation reads it when the span *names* alone don't
            # identify the stage (DESIGN.md §13).
            "phase": self.stage,
            f"{self.stage}_kernel": self.kernel,
            f"{self.stage}_direction": self.direction,
            "nnz_frontier": self.nnz_frontier,
            "frontier_frac": round(self.frontier_frac, 6),
            "unvisited_frac": round(self.unvisited_frac, 6),
            "avg_deg_active": round(self.avg_deg_active, 3),
            "max_deg_allowed": self.max_deg_allowed,
        }


def _pull_phases(n_allowed: int, s_allowed: int, avg_deg_allowed: float,
                 p_row: float) -> tuple:
    """Expected pull probes of one level: ``(phase-1 probes, discovered
    columns)``.

    The first frontier parent sits ~1/p entries into a column's scan
    (geometric), capped by the column's expected degree; undiscovered
    columns scan fully either way, and the discovered fraction re-scans in
    phase 2.  Evaluated per level on Python numbers (the ``expm1`` result
    is a NumPy scalar), whatever SIMD path an array call would take.
    """
    if p_row > 0.0 and avg_deg_allowed > 0.0:
        probes1 = n_allowed * min(avg_deg_allowed, 1.0 / p_row)
        disc_cols = n_allowed * -np.expm1(
            avg_deg_allowed * np.log1p(-min(p_row, 1.0 - 1e-12))
        )
        return probes1, disc_cols
    return float(s_allowed), 0.0


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


class DecisionTable:
    """The decisions of consecutive ``stage`` levels, as columns.

    Level ``i`` (depth ``first + i``) chose ``kernels[i]``, the argmin of
    its raw estimates ``est[k][i]`` (seconds, per strategy in estimate
    order); ``stats[:, i]`` holds its ``nnz_x``, ``e_active``, ``n_allowed``
    and ``max_deg_allowed`` and ``measured`` (set at launch) the chosen
    kernel's in-kernel time.  :meth:`rows` builds the
    :class:`DispatchDecision` objects once, on first read.
    """

    def __init__(self, stage, first, est, stats, batch, n):
        self.stage, self.first, self.est, self.stats = stage, first, est, stats
        self.batch, self.n = batch, n
        names = tuple(est)
        times = np.stack([np.asarray(v, dtype=np.float64) for v in est.values()], axis=1)
        # first minimum wins, as min(est, key=est.get)
        self.kernels = [names[i] for i in times.argmin(axis=1).tolist()]
        self.measured: np.ndarray | None = None
        self._rows: list[DispatchDecision] | None = None

    @classmethod
    def cat(cls, tables) -> "DecisionTable":
        """One table of consecutive one-stage tables."""
        t = tables[0]
        return cls(t.stage, t.first, {k: np.concatenate([u.est[k] for u in tables]) for k in t.est},
                   np.concatenate([u.stats for u in tables], axis=1), t.batch, t.n)

    def rows(self) -> list[DispatchDecision]:
        if self._rows is None:
            nnz_x, e_active, n_allowed, dmax = self.stats.tolist()
            measured = self.measured.tolist() if self.measured is not None else [None] * len(
                self.kernels)
            n = max(self.n, 1)
            self._rows = [
                DispatchDecision(
                    stage=self.stage, depth=self.first + i, kernel=kernel,
                    nnz_frontier=nnz_x[i], frontier_frac=nnz_x[i] / n,
                    avg_deg_active=e_active[i] / max(nnz_x[i], 1),
                    max_deg_allowed=dmax[i], batch=self.batch, direction=DIRECTION[kernel],
                    unvisited_frac=n_allowed[i] / n,
                    est_us={k: _us(v) for k, v in zip(self.est, est)},
                    measured_us={} if measured[i] is None else {kernel: _us(measured[i])},
                )
                for i, (kernel, est) in enumerate(zip(
                    self.kernels, zip(*(v.tolist() for v in self.est.values()))))
            ]
        return self._rows


class AdaptiveDispatcher:
    """Chooses a kernel strategy per SpMV/SpMM launch from frontier stats."""

    def __init__(self, csc: CSCMatrix, spec: DeviceSpec, *, direction: str = "auto"):
        if direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {direction!r}; expected one of {DIRECTIONS}"
            )
        self.csc = csc
        self.spec = spec
        self.direction = direction
        self.n = csc.n_cols
        self.m = csc.nnz
        self.deg = csc.column_counts().astype(np.int64)
        if csc.nnz:
            self.rowdeg = np.bincount(csc.row, minlength=csc.n_rows).astype(np.int64)
        else:
            self.rowdeg = np.zeros(csc.n_rows, dtype=np.int64)
        self._log: list[DecisionTable] = []

    def _tile_stats(
        self, active_rows: np.ndarray, allowed: np.ndarray | None
    ) -> tuple[int, int, int]:
        """Exact active-tile statistics for the blocked-kernel estimate.

        Returns ``(tiles_active, nnz_active, chain)``: occupied 16x16 tiles
        whose column stripe has an allowed column *and* whose row stripe has
        a frontier entry, their stored-entry total, and the longest
        output-stripe commit chain.  One O(n + tiles) reduction over the
        cached tile directory, shared with the ``tcspmm`` launch that asks
        for the same stripes (:func:`repro.spmv.tcspmm.active_tile_stats`).
        """
        row_ok = _tcspmm.stripe_any(active_rows)
        col_ok = (
            _tcspmm.stripe_any(allowed)
            if allowed is not None
            else np.ones(-(-self.n // W.MMA_TILE), dtype=bool)
        )
        n_active, nnz_active, _, chain, _ = _tcspmm.active_tile_stats(
            self.csc, row_ok, col_ok
        )
        return n_active, nnz_active, chain

    # -- cost estimation -----------------------------------------------------

    def _estimate(
        self,
        *,
        nnz_x,
        e_active,
        s_allowed,
        n_allowed,
        max_deg_allowed,
        dtype,
        batch: int = 1,
        tiles_active=0,
        tile_nnz_active=0,
        tile_chain=0,
    ) -> dict:
        """Closed-form time estimate (seconds) per kernel strategy.

        Mirrors the dominant terms of each kernel's hardware model: issue
        cycles / warp-issue rate, DRAM transactions / bandwidth, the two
        latency floors (critical warp path, same-address atomic chain) and,
        for the tensor-core strategy, the MMA-pipe busy time.  Strategies
        excluded by a forced ``direction`` are not estimated (and so never
        chosen, measured or audited).

        The statistics are ints (one level; the estimates are numbers) or
        per-level int arrays (every level of a stage at once; the estimates
        are arrays).  Both run the same expressions: ``W.vmin``/``W.vmax``/
        ``W.trunc`` are the builtins on numbers and elementwise on arrays,
        so each array entry is the float the one-level evaluation gives.
        """
        spec = self.spec
        n, m = self.n, self.m
        stats = (nnz_x, e_active, s_allowed, n_allowed, max_deg_allowed,
                 tiles_active, tile_nnz_active, tile_chain)
        vector = any(isinstance(a, np.ndarray) for a in stats)
        if vector:
            (nnz_x, e_active, s_allowed, n_allowed, max_deg_allowed, tiles_active,
             tile_nnz_active, tile_chain) = np.broadcast_arrays(
                *(np.asarray(a, dtype=np.int64) for a in stats))
        issue = spec.warp_issue_rate
        bw = spec.dram_bandwidth_gbs * 1e9
        clk = spec.clock_ghz * 1e9
        l2 = spec.l2_bytes
        dt = np.dtype(dtype)
        dtf = W.dtype_cycle_factor(dt)
        item = dt.itemsize
        B = max(1, batch)
        p = nnz_x / max(n, 1)
        avg_deg = self.m / max(self.n, 1)
        # Contributions: entries in an allowed column whose source is active.
        # (``s_allowed * e_active`` <= m^2 < 2^53: an int64 product divides to
        # the float the Python ints would.)
        contrib = W.vmin(e_active, s_allowed,
                         W.trunc(s_allowed * e_active / max(m, 1)) + 1)
        txn = W.TRANSACTION_BYTES

        est: dict = {}

        # -- sccooc strategy (thread per edge over CSC, fused mask) ----------
        look = lookup_cycles(n)
        run = W.vmin(avg_deg * p, 31.0)  # expected same-column run per warp
        compute = (
            W.uniform_warp_cycles(m, _edgecsc._BASE_CYCLES + look)
            + W.warp_count(contrib * B) * _edgecsc._ACTIVE_CYCLES * dtf
            + 2.0 * W.warp_count(contrib) * run * dtf
        ) / issue
        mem_txn = (
            W.coalesced_transactions(m)
            + W.capped_random_transactions(m, n + 1, 4, l2_bytes=l2)
            + W.capped_random_transactions(s_allowed, n, item, l2_bytes=l2) * B
            + W.capped_random_transactions(contrib, n, item, l2_bytes=l2) * B
        )
        # Expected longest same-address atomic chain: the biggest allowed
        # column's expected number of active sources.
        ser_updates = max_deg_allowed * p * B
        serial = W.vmax(
            ser_updates * spec.atomic_serialization_s,
            (_edgecsc._BASE_CYCLES + look + _edgecsc._ACTIVE_CYCLES * B) / clk,
        )
        est["sccooc"] = W.vmax(compute, mem_txn * txn / bw, serial)

        # -- sccsc strategy (thread per column, fused mask) ------------------
        compute = (
            W.uniform_warp_cycles(n, _sccsc._BASE_CYCLES)
            + (s_allowed * _sccsc._CYCLES_PER_ENTRY * dtf * B * _SCCSC_DIVERGENCE)
            / W.WARP_SIZE
        ) / issue
        mem_txn = (
            2 * W.coalesced_transactions(n)
            + (s_allowed + 7) // 8
            + W.scalar_gather_transactions(s_allowed, n, item, l2_bytes=l2) * B
        )
        serial = (
            max_deg_allowed
            * (_sccsc._CRITICAL_CYCLES_PER_ENTRY + (B - 1))
            * dtf
            / clk
        )
        est["sccsc"] = W.vmax(compute, mem_txn * txn / bw, serial)

        # -- veccsc strategy (warp per column) -------------------------------
        strips = s_allowed / W.WARP_SIZE + n_allowed
        compute = (
            n * _veccsc._BASE_CYCLES
            + strips * (_veccsc._CYCLES_PER_STRIP + (B - 1)) * dtf
            + n_allowed * _veccsc._SHUFFLE_CYCLES * dtf * B
        ) / issue
        mem_txn = (
            2 * W.coalesced_transactions(n)
            + (s_allowed + 7) // 8
            + n_allowed
            + W.capped_random_transactions(s_allowed, n, item, l2_bytes=l2) * B
        )
        serial = (
            -(-max_deg_allowed // W.WARP_SIZE)
            * 4
            * (_veccsc._CYCLES_PER_STRIP + (B - 1))
            * dtf
            / clk
        )
        est["veccsc"] = W.vmax(compute, mem_txn * txn / bw, serial)

        # -- pullcsc strategy (bottom-up, bitmap probes + early exit) --------
        avg_deg_allowed = s_allowed / W.vmax(n_allowed, 1)
        p_row = nnz_x / max(n, 1)
        if vector:
            phases = list(map(_pull_phases, n_allowed.tolist(), s_allowed.tolist(),
                              avg_deg_allowed.tolist(), p_row.tolist()))
            probes1 = np.array([a for a, _ in phases])
            disc_cols = np.array([b for _, b in phases])
            geometric = np.array([isinstance(b, np.floating) for _, b in phases])
        else:
            probes1, disc_cols = _pull_phases(n_allowed, s_allowed, avg_deg_allowed, p_row)
        total_probes = probes1 + disc_cols * avg_deg_allowed
        bitmap_words = -(-n * B // 32)
        compute = (
            W.uniform_warp_cycles(n * B, _pullcsc._BITMAP_BUILD_CYCLES)
            + W.uniform_warp_cycles(n, _pullcsc._BASE_CYCLES)
            + (
                total_probes * _pullcsc._PROBE_CYCLES
                + contrib * B * _pullcsc._GATHER_CYCLES * dtf
            )
            * _SCCSC_DIVERGENCE
            / W.WARP_SIZE
        ) / issue
        mem_txn = (
            2 * W.coalesced_transactions(n)
            + W.coalesced_transactions(n * B, item)
            + 2 * W.coalesced_transactions(bitmap_words)
            + W.trunc(total_probes + 7) // 8
            + W.capped_random_transactions(W.trunc(total_probes), bitmap_words, 4,
                                           l2_bytes=l2)
            + W.bwide_gather_transactions(contrib, B, n, item, l2_bytes=l2)
        )
        # Critical path: the slowest lane probes its whole column and then
        # gathers its expected active entries (deg * p) across all B lanes
        # at full gather latency -- on a dense frontier this, not the probe
        # loop, is what the pull kernel's exec time degenerates to.
        serial = (
            max_deg_allowed
            * (
                _pullcsc._CRITICAL_PROBE_CYCLES
                + W.vmin(p_row, 1.0) * B * _pullcsc._CRITICAL_GATHER_CYCLES * dtf
                + (B - 1)
            )
            / clk
        )
        memory = mem_txn * txn / bw
        est["pullcsc"] = W.vmax(compute, memory, serial)
        if vector:
            # A one-level estimate is a NumPy scalar where the geometric
            # (expm1) compute arm wins -- and ``round`` on one rounds the
            # NumPy way, which the decisions' ``est_us`` keep.
            pull = est["pullcsc"].astype(object)
            for i in np.flatnonzero(geometric & (compute >= memory)
                                    & (compute >= serial)):
                pull[i] = np.float64(pull[i])
            est["pullcsc"] = pull

        # -- tcspmm strategy (blocked tensor-core SpMM) ----------------------
        # Exact active-tile statistics come from the cached tile directory;
        # the MMA arm is the dense-flop cost of feeding every active tile.
        mma_per_tile = -(-B // W.MMA_TILE)
        mma_t = (
            W.mma_ops_for_tiles(tiles_active, B)
            * W.MMA_FLOPS_PER_OP
            / (spec.mma_tflops * 1e12)
        )
        compute = (
            tiles_active
            * (_tcspmm._TILE_BASE_CYCLES + mma_per_tile * _tcspmm._MMA_ISSUE_CYCLES)
            + tile_nnz_active * _tcspmm._DECODE_CYCLES
        ) / issue
        n_tiles = self.csc.tile_plan(W.MMA_TILE)[0].size
        mem_txn = (
            W.coalesced_transactions(3 * n_tiles)
            + W.coalesced_transactions(tile_nnz_active)
            + W.bwide_gather_transactions(tiles_active * W.MMA_TILE, B, n, item,
                                          l2_bytes=l2)
            + W.coalesced_transactions(n * B)
        )
        serial = (
            tile_chain
            * (_tcspmm._TILE_BASE_CYCLES + mma_per_tile * _tcspmm._MMA_ISSUE_CYCLES)
            / clk
        )
        est["tcspmm"] = W.vmax(compute, mem_txn * txn / bw, mma_t, serial)

        if self.direction != "auto":
            est = {k: v for k, v in est.items() if DIRECTION[k] == self.direction}
        return est

    def plan(
        self,
        stage: str,
        *,
        nnz_x,
        e_active,
        s_allowed,
        n_allowed,
        max_deg_allowed,
        tiles_active,
        tile_nnz_active,
        tile_chain,
        dtype,
        batch: int = 1,
    ) -> DecisionTable:
        """The decisions of a run of consecutive ``stage`` levels.

        Takes each level's frontier statistics as ints or per-level arrays
        and evaluates every level's estimates at once.  The table is
        returned, not recorded: :meth:`record_measured` logs it as its levels
        launch, so the log and ``last`` follow the launch order.
        """
        est = self._estimate(
            nnz_x=nnz_x, e_active=e_active, s_allowed=s_allowed, n_allowed=n_allowed,
            max_deg_allowed=max_deg_allowed, dtype=dtype, batch=batch,
            tiles_active=tiles_active, tile_nnz_active=tile_nnz_active,
            tile_chain=tile_chain,
        )
        if not any(isinstance(v, np.ndarray) for v in est.values()):
            # one level: keep each estimate's own type, whose round() est_us keeps
            est = {k: np.array([v], dtype=object) for k, v in est.items()}
        stats = np.array([nnz_x, e_active, n_allowed, max_deg_allowed], dtype=np.int64)
        return DecisionTable(stage, self._next_depth(stage), est, stats.reshape(4, -1), batch,
                             self.n)

    def record_measured(self, decisions: DecisionTable, exec_s: np.ndarray) -> None:
        """Log a stage's ``decisions`` as the latest (their levels launched
        now), with each level's chosen kernel's measured modeled time.

        In-kernel time only (``exec_s``, seconds): the estimates being
        audited exclude launch overhead too, and overhead is identical
        across strategies so regret comparisons are unaffected.
        """
        decisions.measured = exec_s
        self._log.append(decisions)

    @property
    def decisions(self) -> list[DispatchDecision]:
        """The decision log, one :class:`DispatchDecision` per level."""
        return [d for t in self._log for d in t.rows()]

    @property
    def last(self) -> DispatchDecision | None:
        return self._log[-1].rows()[-1] if self._log else None

    def decide(self, stage: str, ahead: int, x: np.ndarray,
               allowed: np.ndarray | None) -> DecisionTable:
        """The decision of one level's product of the operand ``x`` (a
        vector, or ``(n, B)`` with one lane per column) under the
        ``allowed`` mask (``None``: every column), not recorded.  ``ahead``
        counts the levels of the same stage run decided before it and not
        yet recorded, so the depth is the one it takes when the levels are
        recorded in order."""
        if x.ndim == 2:
            active_rows, batch = lane_any(x > 0), x.shape[1]
            allowed = None if allowed is None else lane_any(allowed)
        else:
            active_rows, batch = x > 0, 1
        nnz_x = int(np.count_nonzero(active_rows))
        e_active = int(self.rowdeg[active_rows].sum()) if nnz_x else 0
        if allowed is None:
            s_allowed = self.m
            n_allowed = self.n
            dmax = int(self.deg.max()) if self.n else 0
        else:
            deg_allowed = self.deg[allowed]
            s_allowed = int(deg_allowed.sum())
            n_allowed = int(deg_allowed.size)
            dmax = int(deg_allowed.max()) if deg_allowed.size else 0
        tiles_active, tile_nnz_active, tile_chain = self._tile_stats(
            active_rows, allowed
        )
        decision = self.plan(
            stage, nnz_x=nnz_x, e_active=e_active, s_allowed=s_allowed,
            n_allowed=n_allowed, max_deg_allowed=dmax, tiles_active=tiles_active,
            tile_nnz_active=tile_nnz_active, tile_chain=tile_chain, dtype=x.dtype,
            batch=batch,
        )
        decision.first += ahead
        return decision

    def _decide(self, stage: str, x: np.ndarray, allowed: np.ndarray | None) -> DispatchDecision:
        self._log.append(self.decide(stage, 0, x, allowed))
        return self.last

    # -- one-level choices, recorded as they are made -------------------------

    def choose_forward(self, x: np.ndarray, allowed: np.ndarray) -> str:
        """Kernel for a forward-stage masked gather ``ft = A^T f``."""
        return self._decide("forward", x, allowed).kernel

    def choose_backward(self, x: np.ndarray) -> str:
        """Kernel for a backward-stage unmasked product (gather or scatter)."""
        return self._decide("backward", x, None).kernel

    def choose_forward_batch(self, X: np.ndarray, allowed: np.ndarray) -> str:
        """Kernel for a batched forward masked gather ``Ft = A^T F``."""
        return self._decide("forward", X, allowed).kernel

    def choose_backward_batch(self, X: np.ndarray) -> str:
        """Kernel for a batched backward unmasked product."""
        return self._decide("backward", X, None).kernel

    def _next_depth(self, stage: str) -> int:
        """Sequential launch index within the current stage run (for the
        decision log; the level spans carry the authoritative depth)."""
        if self._log and self._log[-1].stage == stage:
            return self._log[-1].first + len(self._log[-1].kernels)
        return 1

    # -- summaries -----------------------------------------------------------

    def kernel_mix(self) -> dict[str, int]:
        """Decision counts per strategy (telemetry/benchmark summary)."""
        return dict(Counter(d.kernel for d in self.decisions))
