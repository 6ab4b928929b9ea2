"""Incremental BC on dynamic graphs (DESIGN.md §14).

TurboBC's linear-algebra formulation makes incremental recomputation
tractable: per-source work is a BFS DAG (depth stamps ``S`` + path counts
``sigma``) plus a dependency sweep, and an edge edit only invalidates
sources whose DAG actually changes.  :class:`DynamicBC` -- the handle
returned by ``turbo_bc(..., keep_state=True)`` -- retains per-source depth
vectors, sigma counts and the exact per-source BC contribution folded by
``bc_update_kernel``; :meth:`DynamicBC.update` then

1. applies the edit script to the graph (:meth:`Graph.apply_edits` -- a new
   immutable graph, so every identity-keyed structure cache dies with the
   old object);
2. walks the stored depth vectors with the affected-source predicate
   (:func:`edit_affected_mask`) to find the sources whose DAG the edits
   touch;
3. re-runs only those sources through the ordinary driver (same kernels,
   same device arena, batched re-runs admitted by the memory model);
4. re-folds the per-source contributions -- stored for untouched sources,
   fresh for re-run ones -- in source order with the fold kernel's exact
   float expression, which makes the result *bit-identical* to a
   from-scratch ``turbo_bc`` on the edited graph.

Churn above :attr:`DynamicBC.churn_threshold` (default: >50% of sources
affected) falls back to a full recompute, as does any run in the sigma
overflow regime, where the from-scratch fold order is dtype-mixed and not
worth replicating incrementally.  The edit-script conformance layer
(``repro conformance --recipes edits``) machine-checks the bit-identity
claim across every registered kernel/batch configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.result import BCResult, BCRunStats
from repro.core.validate import resolve_sources
from repro.graphs.graph import Graph
from repro.obs import telemetry as obs

#: Fraction of sources above which an update abandons the incremental path
#: and recomputes from scratch (re-running nearly everything costs full-run
#: device time *plus* the predicate walk, so the fallback is strictly safer).
DEFAULT_CHURN_THRESHOLD = 0.5


@dataclass
class SourceState:
    """Retained forward/backward state of one source.

    ``contrib`` is exactly the addend ``scale * delta`` that
    ``bc_update_kernel`` folded for this source's lane (``None`` when the BFS tree
    had depth <= 1 and the driver skipped the backward stage), so re-folding
    stored contributions reproduces the driver's float32 accumulation bit
    for bit.
    """

    source: int
    levels: np.ndarray
    sigma: np.ndarray
    contrib: np.ndarray | None
    depth: int
    overflowed: bool = False


class StateCapture:
    """Collector the drivers fill when ``turbo_bc`` runs with a capture.

    ``begin`` is called once per (re)started run -- the dtype-auto restart
    calls it again with the promoted dtype, discarding the partial int32
    states -- and ``record`` once per source, *before* the driver releases
    the source's arena slots (the arrays are copied host-side here).
    """

    def __init__(self):
        self.states: dict[int, SourceState] = {}
        self.forward_dtype: np.dtype | None = None

    def begin(self, forward_dtype) -> None:
        self.states = {}
        self.forward_dtype = np.dtype(forward_dtype)

    def record(
        self,
        source: int,
        levels: np.ndarray,
        sigma: np.ndarray,
        contrib: np.ndarray | None,
        depth: int,
        *,
        overflowed: bool = False,
    ) -> None:
        self.states[int(source)] = SourceState(
            source=int(source),
            levels=np.array(levels, copy=True),
            sigma=np.array(sigma, copy=True),
            contrib=None if contrib is None else np.array(contrib, copy=True),
            depth=int(depth),
            overflowed=overflowed,
        )

    @property
    def any_overflow(self) -> bool:
        return any(st.overflowed for st in self.states.values())


def edit_affected_mask(
    levels: np.ndarray,
    sigma: np.ndarray,
    op: str,
    u: int,
    v: int,
    *,
    directed: bool,
) -> np.ndarray:
    """Which sources does one edge edit affect?

    ``levels``/``sigma`` are ``(S, n)`` stacks of the retained per-source
    depth/path-count vectors (row ``i`` = source ``i`` of the caller's
    order).  Returns an ``(S,)`` bool mask: True where the edit can change
    the source's BFS DAG, hence its sigma/delta, hence its BC contribution.

    The predicates (exact for edits that actually change the edge set, and
    conservative -- never false-negative -- otherwise):

    * insert ``u -> v``: affected iff ``s`` reaches ``u`` and ``v`` is
      unreachable or ``depth_s[v] > depth_s[u]`` (the new arc lands on or
      shortens a shortest path; ``depth_s[v] <= depth_s[u]`` makes the arc
      strictly longer than every existing path, leaving the DAG untouched);
    * insert undirected ``{u, v}``: affected iff exactly one endpoint is
      reachable, or both are and ``depth_s[u] != depth_s[v]`` (a same-depth
      edge joins two vertices no shortest path can cross);
    * delete ``u -> v``: affected iff the arc is in the DAG --
      ``depth_s[v] == depth_s[u] + 1`` with both reachable;
    * delete undirected: DAG membership in either direction,
      ``|depth_s[u] - depth_s[v]| == 1``.

    Endpoints at or beyond the stored ``n`` (vertices added by this very
    edit script) are treated as unreachable, which is exact: a retained
    source that could reach a new vertex would be flagged by the edit that
    attached it.  Multi-edit scripts take the union of per-edit masks over
    the *pre-update* state; this is sound by induction -- a source no
    single edit affects keeps its state exactly through any application
    order, so each predicate keeps evaluating against the true state.
    """
    n_sources, n = levels.shape
    u, v = int(u), int(v)
    if u == v:  # self-loops never enter the canonical edge set
        return np.zeros(n_sources, dtype=bool)

    def endpoint(w: int) -> tuple[np.ndarray, np.ndarray]:
        if w >= n:
            zero = np.zeros(n_sources, dtype=levels.dtype)
            return np.zeros(n_sources, dtype=bool), zero
        return sigma[:, w] > 0, levels[:, w]

    ru, du = endpoint(u)
    rv, dv = endpoint(v)
    if op == "add":
        if directed:
            return ru & (~rv | (dv > du))
        both = ru & rv
        return (ru ^ rv) | (both & (du != dv))
    if op == "remove":
        if directed:
            return ru & rv & (dv == du + 1)
        diff = np.abs(du.astype(np.int64) - dv.astype(np.int64))
        return ru & rv & (diff == 1)
    raise ValueError(f"op must be 'add' or 'remove', got {op!r}")


def affected_sources(
    states: dict[int, SourceState],
    order: list[int],
    edits: list[tuple[str, int, int]],
    *,
    directed: bool,
) -> np.ndarray:
    """Union of :func:`edit_affected_mask` over an edit script.

    ``edits`` is a list of ``(op, u, v)`` with op ``"add"``/``"remove"``;
    returns a bool mask aligned with ``order``.
    """
    if not order or not edits:
        return np.zeros(len(order), dtype=bool)
    levels = np.stack([states[s].levels for s in order])
    sigma = np.stack([states[s].sigma for s in order])
    mask = np.zeros(len(order), dtype=bool)
    for op, u, v in edits:
        mask |= edit_affected_mask(levels, sigma, op, u, v, directed=directed)
        if mask.all():
            break
    return mask


def _normalise_pairs(pairs) -> np.ndarray:
    """Edit pairs as an ``(k, 2)`` int64 array (validation in formats.edits)."""
    from repro.formats.edits import _as_pair_arrays

    a, b = _as_pair_arrays(pairs)
    return np.column_stack([a, b]) if a.size else np.zeros((0, 2), dtype=np.int64)


def _pad_state(st: SourceState, n: int) -> SourceState:
    """Grow a retained state to ``n`` vertices (new vertices unreachable).

    Zero padding is exact everywhere: sigma 0 / level 0 is the stored
    encoding of "unreachable", and folding an appended ``+0.0`` contribution
    leaves every float bit pattern unchanged (contributions are
    non-negative, so no ``-0.0`` can be lurking in ``bc``).
    """
    old = st.levels.size
    if old == n:
        return st
    pad = n - old
    return SourceState(
        source=st.source,
        levels=np.concatenate([st.levels, np.zeros(pad, dtype=st.levels.dtype)]),
        sigma=np.concatenate([st.sigma, np.zeros(pad, dtype=st.sigma.dtype)]),
        contrib=(
            None
            if st.contrib is None
            else np.concatenate([st.contrib, np.zeros(pad, dtype=st.contrib.dtype)])
        ),
        depth=st.depth,
        overflowed=st.overflowed,
    )


class DynamicBC:
    """Incremental BC handle over a mutating graph.

    Create via ``turbo_bc(graph, keep_state=True, ...)``; thereafter
    :meth:`update` applies an edit script and returns a :class:`BCResult`
    for the edited graph that is bit-identical to a from-scratch run with
    the same parameters.  ``.bc``/``.result`` always reflect the latest
    graph; ``.graph`` is the current (immutable) :class:`Graph`.
    """

    def __init__(self, *, graph, result, states, order, all_sources, device,
                 algorithm_arg, forward_dtype, backward_dtype, batch_size,
                 direction, volatile_dtype):
        self.graph: Graph = graph
        self.result: BCResult = result
        self.churn_threshold: float = DEFAULT_CHURN_THRESHOLD
        self._states: dict[int, SourceState] = states
        self._order: list[int] = order
        self._all_sources = all_sources
        self.device = device
        self._algorithm_arg = algorithm_arg
        self._forward_dtype = forward_dtype
        self._backward_dtype = backward_dtype
        self._batch_size = batch_size
        self._direction = direction
        # True whenever the retained states were captured in the sigma
        # overflow regime (promoted-f64 sequential restart or per-lane f64
        # batched re-runs): the from-scratch fold there mixes dtypes, so
        # updates recompute from scratch instead of re-folding.
        self._volatile_dtype = volatile_dtype

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, graph: Graph, *, sources, algorithm, device, forward_dtype,
               backward_dtype, batch_size, direction) -> "DynamicBC":
        from repro.core.bc import turbo_bc
        from repro.gpusim.device import Device

        device = device or Device()
        cap = StateCapture()
        result = turbo_bc(
            graph, sources=sources, algorithm=algorithm, device=device,
            forward_dtype=forward_dtype, backward_dtype=backward_dtype,
            batch_size=batch_size, direction=direction, _capture=cap,
        )
        return cls(
            graph=graph,
            result=result,
            states=cap.states,
            order=resolve_sources(graph, sources),
            all_sources=sources is None,
            device=device,
            algorithm_arg=algorithm,
            forward_dtype=forward_dtype,
            backward_dtype=backward_dtype,
            batch_size=batch_size,
            direction=direction,
            volatile_dtype=cls._capture_volatile(cap, forward_dtype),
        )

    @staticmethod
    def _capture_volatile(cap: StateCapture, forward_dtype) -> bool:
        dtype_is_auto = isinstance(forward_dtype, str) and forward_dtype == "auto"
        if not dtype_is_auto:
            return False
        promoted = (
            cap.forward_dtype is not None and cap.forward_dtype == np.float64
        )
        return promoted or cap.any_overflow

    # -- convenience ---------------------------------------------------------

    @property
    def bc(self) -> np.ndarray:
        return self.result.bc

    @property
    def sources(self) -> list[int]:
        """Current source order (grows with the graph in all-sources mode)."""
        return list(self._order)

    def __repr__(self) -> str:
        return (
            f"DynamicBC({self.graph!r}, sources={len(self._order)}, "
            f"churn_threshold={self.churn_threshold})"
        )

    # -- the update path -----------------------------------------------------

    def update(self, edges_added=(), edges_removed=()) -> BCResult:
        """Apply an edit script and return the edited graph's BC.

        ``edges_added``/``edges_removed`` are iterables of ``(u, v)`` pairs;
        within one call removals apply before additions (an edge named in
        both ends up present).  Inserting an already-present edge or
        removing an absent one is a no-op.  Added endpoints ``>= n`` grow
        the graph; in all-sources mode the new vertices join the source set.

        The returned :class:`BCResult` is bit-identical to
        ``turbo_bc(edited_graph, ...)`` with this handle's parameters; its
        stats carry ``update_mode`` (``"incremental"`` or ``"full"``),
        ``affected_sources`` and ``skipped_sources``.
        """
        added = _normalise_pairs(edges_added)
        removed = _normalise_pairs(edges_removed)
        t0 = time.perf_counter()
        new_graph = self.graph.apply_edits(added=added, removed=removed)
        edits = [("remove", int(u), int(v)) for u, v in removed]
        edits += [("add", int(u), int(v)) for u, v in added]

        with obs.span(
            "bc_update",
            added=int(added.shape[0]),
            removed=int(removed.shape[0]),
            n=new_graph.n,
            m=new_graph.m,
        ):
            result = self._update_inner(new_graph, edits, t0)
        self.graph = new_graph
        self.result = result
        return result

    def _update_inner(self, new_graph: Graph, edits, t0: float) -> BCResult:
        tel = obs.get_telemetry()
        if self._volatile_dtype:
            return self._full_recompute(new_graph, t0, reason="overflow-regime")

        with obs.span("affected_scan", edits=len(edits)):
            mask = affected_sources(
                self._states, self._order, edits, directed=self.graph.directed
            )
        rerun = [s for s, hit in zip(self._order, mask) if hit]
        new_order = list(self._order)
        if self._all_sources and new_graph.n > self.graph.n:
            grown = list(range(self.graph.n, new_graph.n))
            rerun += grown       # ascending, matching the from-scratch order
            new_order += grown
        total = len(new_order)
        if total and len(rerun) / total > self.churn_threshold:
            return self._full_recompute(new_graph, t0, reason="churn")

        sub_stats = None
        cap = StateCapture()
        if rerun:
            from repro.core.bc import turbo_bc

            sub = turbo_bc(
                new_graph, sources=rerun, algorithm=self._algorithm_arg,
                device=self.device, forward_dtype=self._forward_dtype,
                backward_dtype=self._backward_dtype,
                batch_size=self._batch_size, direction=self._direction,
                _capture=cap,
            )
            if self._capture_volatile(cap, self._forward_dtype):
                # The re-run hit the overflow regime: a from-scratch run on
                # this graph would promote/fold differently, so the stored
                # contributions no longer compose.  Recompute wholesale.
                return self._full_recompute(new_graph, t0, reason="overflow-regime")
            sub_stats = sub.stats

        states = {}
        for s in new_order:
            if s in cap.states:
                states[s] = cap.states[s]
            else:
                states[s] = _pad_state(self._states[s], new_graph.n)
        bc = self._fold(states, new_order, new_graph.n)

        skipped = total - len(rerun)
        if tel is not None and tel.metrics is not None:
            tel.metrics.counter("incremental_updates").inc()
            tel.metrics.counter("incremental_sources_rerun").inc(len(rerun))
            tel.metrics.counter("incremental_sources_skipped").inc(skipped)
        stats = BCRunStats(
            algorithm=(sub_stats.algorithm if sub_stats is not None
                       else self.result.stats.algorithm),
            n=new_graph.n,
            m=new_graph.m,
            sources=total,
            gpu_time_s=sub_stats.gpu_time_s if sub_stats else 0.0,
            kernel_launches=sub_stats.kernel_launches if sub_stats else 0,
            transfer_time_s=sub_stats.transfer_time_s if sub_stats else 0.0,
            peak_memory_bytes=sub_stats.peak_memory_bytes if sub_stats else 0,
            depth_per_source=[states[s].depth for s in new_order],
            wall_time_s=time.perf_counter() - t0,
            batch_size=sub_stats.batch_size if sub_stats else 1,
            rerun_sources=list(sub_stats.rerun_sources) if sub_stats else [],
            update_mode="incremental",
            affected_sources=len(rerun),
            skipped_sources=skipped,
        )
        self._states = states
        self._order = new_order
        return BCResult(bc=bc, stats=stats, forward=None, telemetry=tel)

    def _fold(self, states, order, n: int) -> np.ndarray:
        """Re-fold per-source contributions with the fold kernel's exact
        expression and order -- the bit-identity linchpin.

        ``bc_update_kernel`` runs ``saved = bc[s]; bc += scale * Delta[:, j];
        bc[s] = saved`` per lane ``j`` (source ``s``), in source order,
        into a zeroed backward-dtype vector, at every batch size (a
        per-source run folds one lane); ``contrib`` stores ``scale *
        Delta[:, j]`` verbatim, so replaying the same statements reproduces
        the driver's accumulator to the bit.
        """
        bc = np.zeros(n, dtype=np.dtype(self._backward_dtype))
        for s in order:
            contrib = states[s].contrib
            if contrib is None:
                continue
            saved = bc[s]
            bc += contrib
            bc[s] = saved
        return bc.astype(np.float64)

    def _full_recompute(self, new_graph: Graph, t0: float, *, reason: str) -> BCResult:
        from repro.core.bc import turbo_bc

        with obs.span("full_recompute", reason=reason):
            cap = StateCapture()
            res = turbo_bc(
                new_graph,
                sources=None if self._all_sources else self._order,
                algorithm=self._algorithm_arg, device=self.device,
                forward_dtype=self._forward_dtype,
                backward_dtype=self._backward_dtype,
                batch_size=self._batch_size, direction=self._direction,
                _capture=cap,
            )
        self._order = resolve_sources(
            new_graph, None if self._all_sources else self._order
        )
        self._states = cap.states
        self._volatile_dtype = self._capture_volatile(cap, self._forward_dtype)
        tel = obs.get_telemetry()
        if tel is not None and tel.metrics is not None:
            tel.metrics.counter("incremental_updates").inc()
            tel.metrics.counter("incremental_full_recomputes").inc()
            tel.metrics.counter("incremental_sources_rerun").inc(len(self._order))
            tel.metrics.counter("incremental_sources_skipped").inc(0)
        stats = res.stats
        stats.update_mode = "full"
        stats.affected_sources = len(self._order)
        stats.skipped_sources = 0
        stats.wall_time_s = time.perf_counter() - t0
        return BCResult(bc=res.bc, stats=stats, forward=res.forward,
                        telemetry=res.telemetry)
