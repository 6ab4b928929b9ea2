"""The TurboBC driver: algorithm selection + the two-stage BC computation.

One run body, :func:`_turbo_bc_batched`, serves every batch width B: it owns
the run's bookkeeping (clocks, ledger record, ``bc_run`` span, context
lifetime) and takes the sources in chunks of B -- through the paper's
per-source pipeline when B is 1, through B SpMM lanes otherwise.
:func:`_turbo_bc_impl` resolves the configuration, admits the batch and
applies the run-level overflow policy of ``forward_dtype="auto"``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core import frontier as FK
from repro.core.backward import accumulate_dependencies, accumulate_dependencies_batch
from repro.core.context import ALGORITHMS, TurboBCContext
from repro.core.forward import SigmaOverflowError, bfs_forward, bfs_forward_batch
from repro.core.result import BCResult, BCRunStats, BFSResult
from repro.core.validate import resolve_sources
from repro.graphs.graph import Graph
from repro.graphs.metrics import SCF_IRREGULAR_THRESHOLD, scale_free_metric
from repro.gpusim import warp as W
from repro.gpusim.device import Device
from repro.gpusim.errors import DeviceOutOfMemoryError
from repro.obs import telemetry as obs
from repro.perf.memory_model import advise_fit, turbobc_batched_footprint_bytes

if TYPE_CHECKING:  # pragma: no cover - keep_state's return type lives downstream
    from repro.core.incremental import DynamicBC

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TurboBCAlgorithm:
    """A named TurboBC variant (kernel choice)."""

    name: str

    def __post_init__(self):
        if self.name not in ALGORITHMS:
            raise ValueError(
                f"unknown TurboBC algorithm {self.name!r}; expected one of {sorted(ALGORITHMS)}"
            )

    @property
    def label(self) -> str:
        pretty = {
            "sccooc": "scCOOC",
            "sccsc": "scCSC",
            "veccsc": "veCSC",
            "pullcsc": "pullCSC",
            "tcspmm": "tcSpMM",
            "adaptive": "Adaptive",
        }
        return f"TurboBC-{pretty[self.name]}"


#: Degree-outlier ratio beyond which scCOOC beats scCSC on regular graphs
#: (thread-per-edge work is flat under outliers; Section 4.1, Table 2).
_OUTLIER_RATIO = 64.0


def select_algorithm(
    graph: Graph, *, scf: float | None = None, mode: str = "static"
) -> TurboBCAlgorithm:
    """Pick the TurboBC kernel for a graph, following the paper's findings.

    * irregular graphs (``scf`` above the threshold) -> ``veccsc``;
    * regular graphs whose max degree is an extreme outlier versus the mean
      (mawi / com-Youtube shape) -> ``sccooc``;
    * other regular graphs -> ``sccsc``.

    ``scf`` may be passed in when already computed (it is O(m) to measure).

    ``mode="adaptive"`` skips the static whole-graph choice and returns the
    per-level dispatching algorithm (DESIGN.md §10): the kernel is re-picked
    every BFS/backward level from frontier statistics, which dominates any
    static choice on graphs whose frontier shape varies across levels.
    """
    if mode not in ("static", "adaptive"):
        raise ValueError(f"mode must be 'static' or 'adaptive', got {mode!r}")
    if mode == "adaptive":
        return TurboBCAlgorithm("adaptive")
    if scf is None:
        scf = scale_free_metric(graph)
    if scf > SCF_IRREGULAR_THRESHOLD:
        return TurboBCAlgorithm("veccsc")
    deg = graph.out_degree()
    mean = float(deg.mean()) if deg.size else 0.0
    if mean > 0 and float(deg.max()) > _OUTLIER_RATIO * mean:
        return TurboBCAlgorithm("sccooc")
    return TurboBCAlgorithm("sccsc")


def _resolve_algorithm(graph: Graph, algorithm) -> TurboBCAlgorithm:
    """``algorithm`` as a :class:`TurboBCAlgorithm`: a name is looked up,
    ``None`` takes :func:`select_algorithm`'s choice for ``graph``."""
    if isinstance(algorithm, str):
        return TurboBCAlgorithm(algorithm)
    if algorithm is None:
        algorithm = select_algorithm(graph)
        logger.debug("auto-selected %s for n=%d m=%d", algorithm.label, graph.n, graph.m)
    return algorithm


#: Cap on the auto-sized batch: past ~64 lanes the per-launch savings have
#: flattened while the host-side (n, B) working set keeps growing.
_AUTO_BATCH_CAP = 64


def _auto_batch_size(graph: Graph, device: Device, n_sources: int, fmt: str,
                     forward_dtype, backward_dtype) -> int:
    """Size ``batch_size="auto"`` from the device memory model.

    The largest B whose batched footprint fits the device's free memory,
    clamped to ``[1, min(n_sources, 64)]``.  Callers pass the *worst-case*
    vector dtypes (:func:`_worst_dtypes`): a batch admitted on the
    int32/float32 footprint could strand the float64 re-run without memory.
    """
    if n_sources <= 1:
        return 1
    fixed = turbobc_batched_footprint_bytes(graph.n, graph.m, 1, fmt, forward_dtype,
                                            backward_dtype)
    per_lane = turbobc_batched_footprint_bytes(
        graph.n, graph.m, 2, fmt, forward_dtype, backward_dtype) - fixed
    headroom = device.memory.free_bytes - (fixed - per_lane)
    if per_lane <= 0:
        return 1
    batch = int(headroom // per_lane)
    return max(1, min(batch, n_sources, _AUTO_BATCH_CAP))


def _is_auto(forward_dtype) -> bool:
    return isinstance(forward_dtype, str) and forward_dtype == "auto"


def _worst_dtypes(forward_dtype, backward_dtype) -> tuple:
    """The widest vector dtypes a run can reach: the overflow re-run of
    ``forward_dtype="auto"`` promotes both stages to float64, so ``"auto"``
    batch sizing, the re-run's admission and OOM advice size against them."""
    if _is_auto(forward_dtype):
        return np.float64, np.float64
    return forward_dtype, backward_dtype


def _resolve_batch(graph: Graph, device: Device, n_sources: int, batch_size,
                   fmt: str, forward_dtype, backward_dtype) -> int:
    """Validate ``batch_size`` and resolve it to the run's width B: an int
    is clamped to the source count, ``"auto"`` is sized against ``device``
    at the worst-case dtypes.  Every driver resolves its batch here."""
    if isinstance(batch_size, str):
        if batch_size != "auto":
            raise ValueError(
                f"batch_size must be a positive int or 'auto', got {batch_size!r}"
            )
        return _auto_batch_size(graph, device, n_sources, fmt,
                                *_worst_dtypes(forward_dtype, backward_dtype))
    batch = int(batch_size)
    if batch < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch}")
    return min(batch, max(n_sources, 1))


def turbo_bc(
    graph: Graph,
    *,
    sources=None,
    algorithm: str | TurboBCAlgorithm | None = None,
    device: Device | None = None,
    forward_dtype="auto",
    backward_dtype=np.float32,
    batch_size: int | str = 1,
    keep_forward: bool = False,
    direction: str = "auto",
    keep_state: bool = False,
    _capture=None,
) -> "BCResult | DynamicBC":
    """Compute betweenness centrality with TurboBC on the simulated device.

    Parameters
    ----------
    graph:
        The input graph (directed or undirected, unweighted).
    sources:
        ``None`` for the exact BC over all sources, an int for the paper's
        BC/vertex experiments, or an iterable of source vertices.
    algorithm:
        ``"sccooc"``, ``"sccsc"``, ``"veccsc"``, ``"adaptive"`` (per-level
        kernel dispatch over the stored CSC format) or ``None`` for the
        scf-based auto-selection of :func:`select_algorithm`.
    device:
        A :class:`~repro.gpusim.Device`; a fresh TITAN Xp is created when
        omitted.  Pass your own to inspect the profiler afterwards.
    forward_dtype / backward_dtype:
        Vector dtypes of the two stages (Section 3.4 uses int32 / float32).
        The default ``"auto"`` runs the paper's int32 forward vectors and
        transparently restarts with float64 if the shortest-path counts
        overflow (deep meshes have combinatorially many equal-length paths,
        which the CUDA code's int32 sigma cannot represent).  A run of
        ``batch_size=1`` restarts every source; a batched run restarts
        *only the overflowed sources*.
    batch_size:
        Number of BFS lanes run simultaneously through the SpMM kernels.
        ``1`` (the default) is the paper's per-source pipeline; an int ``B``
        processes sources in chunks of B columns; ``"auto"`` picks the
        largest batch whose working set fits the device's free memory
        (capped at 64).  Results are identical to ``batch_size=1`` up to
        float accumulation order.
    keep_forward:
        Attach the last source's :class:`BFSResult` (copied host-side) to
        the returned result.
    direction:
        Traversal-direction constraint for ``algorithm="adaptive"``:
        ``"auto"`` (the default) lets the dispatcher switch push/pull per
        level, ``"push"`` restricts it to the top-down kernels (PR 4
        behaviour) and ``"pull"`` to the bottom-up ones.  Results are
        bit-identical across all three -- only the modeled time moves.
    keep_state:
        Return a :class:`~repro.core.incremental.DynamicBC` handle instead
        of a plain result: the run retains per-source depth/sigma vectors
        and BC contributions so subsequent edge edits can be applied with
        ``handle.update(edges_added, edges_removed)``, re-running only the
        sources whose BFS DAG the edits touch (DESIGN.md §14).
    _capture:
        Internal -- a :class:`~repro.core.incremental.StateCapture` the
        drivers fill with per-source state; used by the ``keep_state``
        machinery and the conformance harness.

    Returns
    -------
    BCResult
        ``bc`` in float64 with Brandes' convention (undirected contributions
        halved); ``stats`` carries the modeled device time, launch count,
        transfer time and peak memory.

    Raises
    ------
    DeviceOutOfMemoryError
        When the run cannot fit the device.  Every escape path carries the
        forensic payload of DESIGN.md §13: the live-allocation table, the
        run phase, and a :class:`~repro.perf.memory_model.FitAdvice`
        reporting the largest ``n`` / ``batch_size`` / dtype configuration
        that *would* have fit.
    """
    if keep_state:
        if _capture is not None:
            raise ValueError("keep_state=True manages its own state capture")
        from repro.core.incremental import DynamicBC

        return DynamicBC.create(
            graph,
            sources=sources,
            algorithm=algorithm,
            device=device,
            forward_dtype=forward_dtype,
            backward_dtype=backward_dtype,
            batch_size=batch_size,
            direction=direction,
        )
    return _turbo_bc_impl(
        graph,
        sources=sources,
        algorithm=algorithm,
        device=device,
        forward_dtype=forward_dtype,
        backward_dtype=backward_dtype,
        batch_size=batch_size,
        keep_forward=keep_forward,
        direction=direction,
        capture=_capture,
    )


def _turbo_bc_impl(
    graph: Graph,
    *,
    sources=None,
    algorithm: str | TurboBCAlgorithm | None = None,
    device: Device | None = None,
    forward_dtype="auto",
    backward_dtype=np.float32,
    batch_size: int | str = 1,
    keep_forward: bool = False,
    direction: str = "auto",
    capture=None,
) -> BCResult:
    """The body of :func:`turbo_bc`: resolve the run, admit its batch and
    apply the run-level overflow policy of ``forward_dtype="auto"``.

    A run of width B >= 2 re-runs only its overflowed lanes, inside
    :func:`_turbo_bc_batched`.  A run of width 1 is the paper's sequential
    driver: its int32 attempt is discarded whole on the first overflow and
    every source restarts in float64.  An OOM inside a run carries a
    :class:`~repro.perf.memory_model.FitAdvice` at the resolved batch: for
    the dtypes a B = 1 attempt ran, for the worst-case (float64) dtypes of
    a B >= 2 ``"auto"`` run.
    """
    algorithm = _resolve_algorithm(graph, algorithm)
    device = device or Device()
    src_list = resolve_sources(graph, sources)

    fmt = ALGORITHMS[algorithm.name][0]
    dtype_is_auto = _is_auto(forward_dtype)
    batch = _resolve_batch(graph, device, len(src_list), batch_size, fmt,
                           forward_dtype, backward_dtype)
    if batch > 1:
        admission_fdt = np.int32 if dtype_is_auto else forward_dtype
        need = max(
            turbobc_batched_footprint_bytes(graph.n, graph.m, batch, fmt,
                                            admission_fdt, backward_dtype),
            # the sequential float64 re-run of overflowed lanes
            turbobc_batched_footprint_bytes(graph.n, graph.m, 1, fmt,
                                            *_worst_dtypes(forward_dtype, backward_dtype)),
        )
        if not device.memory.fits(need):
            # This OOM never reaches DeviceMemory.alloc (it is admission
            # control, not an allocation), so the forensic payload -- the
            # terminal telemetry event, the live table, and the what-if
            # advice -- is assembled here (DESIGN.md §13).
            what = f"batched working set (B={batch})"
            tel = obs.get_telemetry()
            phase = None
            if tel is not None:
                phase = tel.on_oom(what, need, device.memory.used_bytes,
                                   device.memory.capacity_bytes)
            exc = DeviceOutOfMemoryError(
                need, device.memory.used_bytes, device.memory.capacity_bytes,
                what, live=device.memory.live_table(), phase=phase,
            )
            exc.advice = advise_fit(
                device.memory.free_bytes, graph.n, graph.m,
                system="turbobc", fmt=fmt, batch=batch,
                forward_dtype=admission_fdt, backward_dtype=backward_dtype,
            )
            raise exc

    def attempt(fdt, bdt, restart_on_overflow=False):
        try:
            return _turbo_bc_batched(
                graph, src_list, algorithm, device, forward_dtype=fdt,
                backward_dtype=bdt, batch=batch, keep_forward=keep_forward,
                direction=direction, capture=capture,
                restart_on_overflow=restart_on_overflow,
            )
        except DeviceOutOfMemoryError as exc:
            if exc.advice is None:
                wfdt, wbdt = _worst_dtypes(fdt, bdt)
                exc.advice = advise_fit(
                    exc.capacity, graph.n, graph.m, system="turbobc", fmt=fmt,
                    batch=batch, forward_dtype=wfdt, backward_dtype=wbdt,
                )
            raise

    if batch > 1 or not dtype_is_auto:
        return attempt(forward_dtype, backward_dtype)
    try:
        return attempt(np.int32, backward_dtype, restart_on_overflow=True)
    except SigmaOverflowError:
        logger.warning(
            "sigma overflowed int32; re-running all %d source(s) in float64",
            len(src_list),
        )
        tel = obs.get_telemetry()
        if tel is not None and tel.metrics is not None:
            tel.metrics.counter("sigma_overflow_reruns").inc(len(src_list))
        device.reset()
        return attempt(np.float64, np.float64)


def _bc_source(ctx: TurboBCContext, s: int, *, capture, keep: bool, tag: str,
               overflowed: bool = False) -> tuple[int, BFSResult | None]:
    """One source of a sequential pass: forward, backward, the ``bc`` fold
    and the capture record, in a ``source`` span; releases the source's
    arena slots.  Returns the BFS depth and, when ``keep``, a copy of the
    forward result."""
    graph = ctx.graph
    with obs.span("source", source=s):
        fwd = bfs_forward(ctx, s)
        kept = None
        if keep:
            kept = BFSResult(
                source=s,
                sigma=fwd.sigma.copy(),
                levels=fwd.levels.copy(),
                depth=fwd.depth,
                frontier_sizes=list(fwd.frontier_sizes),
            )
        delta = None
        if fwd.depth > 1:
            delta = accumulate_dependencies(ctx, fwd)
            FK.bc_update_kernel(
                ctx.device, ctx.bc_arr.data, delta[:, None], [s],
                undirected=not graph.directed, tag=tag,
            )
        if capture is not None:
            # `scale * delta` is bitwise the addend the fold kernel just
            # accumulated; copied before the arena slots are released below.
            scale = 0.5 if not graph.directed else 1.0
            capture.record(
                s, fwd.levels, fwd.sigma,
                None if delta is None else scale * delta,
                fwd.depth,
                overflowed=overflowed,
            )
        ctx.release_source()
    return fwd.depth, kept


def _bc_batch(
    ctx: TurboBCContext, chunk: list[int], *, capture, keep: bool
) -> tuple[dict[int, int], BFSResult | None, list[int]]:
    """One chunk of a batched pass, one SpMM lane per source: forward,
    backward, the ``bc`` fold and the capture records, in a ``batch`` span;
    releases the chunk's arena slots.  Returns the BFS depth of every lane
    that finished, when ``keep`` a copy of the last lane's forward result,
    and the sources whose sigma overflowed.

    An overflowed lane is excluded from the backward stage: its columns are
    zeroed, its recorded level entries dropped and its ``bc`` fold skipped.
    """
    graph = ctx.graph
    with obs.span("batch", sources=chunk):
        fwd = bfs_forward_batch(ctx, chunk)
        over = fwd.overflowed
        overflowed = [chunk[j] for j in np.flatnonzero(over)]
        if overflowed:
            # A zeroed column holds no garbage and is an exact no-op in every
            # batched kernel; the level lists lose exactly its entries.
            fwd.sigma[:, over] = 0
            fwd.levels[:, over] = 0
            for j in np.flatnonzero(over):
                fwd.depths[j] = 0
            fwd.discovered = [flat[~over[flat % len(chunk)]] for flat in fwd.discovered]
            fwd.txn = np.array([W.gather_transactions(flat) for flat in fwd.discovered])
        depths = {s: fwd.depths[j] for j, s in enumerate(chunk) if not over[j]}
        kept = fwd.lane(len(chunk) - 1) if keep and not over[-1] else None
        delta = None
        if fwd.depth > 1:
            delta = accumulate_dependencies_batch(ctx, fwd)
            FK.bc_update_kernel(
                ctx.device, ctx.bc_arr.data, delta, chunk,
                undirected=not graph.directed, skip=over if over.any() else None,
                tag=f"s={chunk[0]}..{chunk[-1]}",
            )
        if capture is not None:
            # Overflowed lanes are recorded by the float64 re-run; folding a
            # shallow lane's zero delta column is an exact no-op, so contrib
            # None and the zero column are interchangeable.
            scale = 0.5 if not graph.directed else 1.0
            for j, s in enumerate(chunk):
                if not over[j]:
                    capture.record(
                        s, fwd.levels[:, j], fwd.sigma[:, j],
                        None if delta is None else scale * delta[:, j],
                        fwd.depths[j],
                    )
        ctx.release_source()
    return depths, kept, overflowed


def _turbo_bc_batched(
    graph: Graph,
    src_list: list[int],
    algorithm: TurboBCAlgorithm,
    device: Device,
    *,
    forward_dtype,
    backward_dtype,
    batch: int,
    keep_forward: bool,
    direction: str = "auto",
    capture=None,
    restart_on_overflow: bool = False,
) -> BCResult:
    """The run body for every width B: sources in chunks of B.

    Each chunk runs :func:`_bc_source` when the run's B is 1 and
    :func:`_bc_batch` (SpMM lanes) when it is 2 or more, so a width-1 tail
    chunk of a batched run stays a batch.  With ``forward_dtype="auto"``
    (B >= 2 only; :func:`_turbo_bc_impl` restarts a B = 1 run whole) the
    chunks run the paper's int32 vectors and the overflowed lanes' sources
    re-run sequentially in float64 after the run's context closes -- only
    they pay the wide-dtype cost; an explicit integer dtype raises
    :class:`SigmaOverflowError` after the chunk.  ``restart_on_overflow``
    marks the int32 attempt of a B = 1 ``"auto"`` run (see
    :class:`TurboBCContext`).
    """
    dtype_is_auto = _is_auto(forward_dtype)
    fdt = np.dtype(np.int32 if dtype_is_auto else forward_dtype)
    if capture is not None:
        capture.begin(fdt)

    t0 = time.perf_counter()
    launches_before = device.profiler.total_launches()
    gpu_time_before = device.profiler.total_time_s()
    tel = obs.get_telemetry()
    if tel is not None:
        tel.bind_device(device)
    ledger_mark = (
        tel.ledger_mark() if tel is not None and tel.ledger is not None else None
    )
    device.memory.reset_run_peak()

    with obs.span(
        "bc_run",
        algorithm=algorithm.label,
        n=graph.n,
        m=graph.m,
        sources=len(src_list),
        batch_size=batch,
    ):
        ctx = TurboBCContext(
            device,
            graph,
            algorithm.name,
            forward_dtype=fdt,
            backward_dtype=backward_dtype,
            direction=direction,
            restart_on_overflow=restart_on_overflow,
        )
        depth_map: dict[int, int] = {}
        rerun_sources: list[int] = []
        last_forward = None
        try:
            for start in range(0, len(src_list), batch):
                chunk = src_list[start : start + batch]
                keep = keep_forward and chunk[-1] == src_list[-1]
                if batch == 1:
                    depth_map[chunk[0]], kept = _bc_source(
                        ctx, chunk[0], capture=capture, keep=keep, tag=f"s={chunk[0]}")
                else:
                    depths, kept, overflowed = _bc_batch(ctx, chunk, capture=capture,
                                                         keep=keep)
                    if overflowed and not dtype_is_auto:
                        raise SigmaOverflowError(
                            f"sigma overflowed dtype {fdt} during BFS from "
                            f"source(s) {overflowed}"
                        )
                    depth_map.update(depths)
                    rerun_sources += overflowed
                if kept is not None:
                    last_forward = kept
            bc = ctx.close().astype(np.float64)
        except BaseException:
            ctx.abort()
            raise
        if tel is not None and ctx.dispatcher is not None:
            tel.dispatch_decisions.extend(ctx.dispatcher.decisions)

        if rerun_sources:
            logger.warning(
                "sigma overflowed int32 in %d batched lane(s); re-running "
                "source(s) %s in float64", len(rerun_sources), rerun_sources,
            )
            if tel is not None and tel.metrics is not None:
                tel.metrics.counter("sigma_overflow_reruns").inc(len(rerun_sources))
            # Re-run only the overflowed sources, sequentially, with float64
            # vectors -- after the batch context released its working set.
            with obs.span("rerun", sources=rerun_sources):
                rctx = TurboBCContext(
                    device,
                    graph,
                    algorithm.name,
                    forward_dtype=np.float64,
                    backward_dtype=np.float64,
                    direction=direction,
                )
                try:
                    for s in rerun_sources:
                        depth_map[s], kept = _bc_source(
                            rctx, s, capture=capture, tag=f"s={s} f64", overflowed=True,
                            keep=keep_forward and s == src_list[-1])
                        if kept is not None:
                            last_forward = kept
                    bc += rctx.close().astype(np.float64)
                except BaseException:
                    rctx.abort()
                    raise
                if tel is not None and rctx.dispatcher is not None:
                    tel.dispatch_decisions.extend(rctx.dispatcher.decisions)

    stats = BCRunStats(
        algorithm=algorithm.label,
        n=graph.n,
        m=graph.m,
        sources=len(src_list),
        gpu_time_s=device.profiler.total_time_s() - gpu_time_before,
        kernel_launches=device.profiler.total_launches() - launches_before,
        transfer_time_s=device.memory.transfer_time_s(),
        peak_memory_bytes=device.memory.run_peak_bytes,
        depth_per_source=[depth_map[s] for s in src_list],
        wall_time_s=time.perf_counter() - t0,
        batch_size=batch,
        rerun_sources=rerun_sources,
    )
    if tel is not None and tel.ledger_active:
        _append_ledger_record(
            tel, ledger_mark, graph, algorithm, direction, batch, fdt,
            backward_dtype, src_list, stats, device, launches_before,
        )
    return BCResult(bc=bc, stats=stats, forward=last_forward, telemetry=tel)


def _append_ledger_record(
    tel, ledger_mark, graph, algorithm, direction, batch, forward_dtype,
    backward_dtype, src_list, stats, device, launches_before,
):
    """One identity-keyed ledger record for a finished single-device run.

    The config fingerprint hashes the *resolved* execution shape (concrete
    dtypes, effective batch), so two sessions over the same graph/config
    produce byte-identical fingerprints regardless of how the caller spelled
    ``"auto"`` arguments.  Purely observational: reads the stats, the run's
    launch slice and the telemetry -- never the result vectors.
    """
    from repro.obs.ledger import build_run_record, sources_fingerprint

    config = {
        "driver": "turbo_bc",
        "algorithm": algorithm.name,
        "direction": direction,
        "batch_size": int(batch),
        "forward_dtype": str(np.dtype(forward_dtype)),
        "backward_dtype": str(np.dtype(backward_dtype)),
        "n_devices": 1,
        "scheduler": None,
        "sources": len(src_list),
        "sources_hash": sources_fingerprint(src_list),
    }
    phase, counters = tel.ledger_delta(ledger_mark)
    tel.record_run(build_run_record(
        kind="bc",
        graph=graph,
        config=config,
        stats=stats,
        phase_time_s=phase,
        counters=counters,
        launches=device.profiler.launches[launches_before:],
        spec=device.spec,
    ))
