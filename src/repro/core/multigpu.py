"""Multi-GPU betweenness centrality (the Pan et al. extension).

The paper's related work (reference [16], Multi-GPU Graph Analytics)
motivates scaling BC across devices.  Because Brandes' algorithm is a sum
of independent per-source passes, the natural multi-GPU decomposition is
*source partitioning*: every device holds a full graph replica and
processes a subset of the sources; the host reduces the partial ``bc``
vectors at the end.

The decomposition and the placement are deliberately decoupled
(DESIGN.md §15):

* the run is cut into **tasks** -- contiguous chunks of the canonical
  source list, one SpMM batch each -- by :func:`~repro.core.schedule.\
partition_sources`.  Task boundaries depend only on ``(sources, batch)``,
  never on the device count or the scheduler, and every task runs through
  the ordinary TurboBC driver with a fresh accumulator.  The host folds
  the per-task partial vectors *in canonical task order*, so the combined
  ``bc`` is bit-identical across 1..k devices and across schedulers;
* tasks are **placed** by the communication-aware cost-model scheduler of
  :mod:`repro.core.schedule` (or the legacy round-robin deal, kept as the
  audit baseline).  Placement moves only the modeled makespan.

The reported wall-clock model is the maximum over devices (they run
concurrently) plus one partial-vector transfer per *active* device over
its :class:`~repro.gpusim.link.Link`, serialised at the host ingest point.
Every run carries a :class:`~repro.obs.schedaudit.ScheduleAudit` replaying
the static round-robin deal on the measured per-task times, so the regret
of (not) trusting the cost model is always visible.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.bc import (
    ALGORITHMS,
    TurboBCAlgorithm,
    _resolve_algorithm,
    _resolve_batch,
    turbo_bc,
)
from repro.core.result import BCResult, BCRunStats
from repro.core.schedule import (
    SCHEDULERS,
    estimate_task_costs,
    partition_sources,
    schedule_tasks,
)
from repro.core.validate import resolve_sources
from repro.graphs.graph import Graph
from repro.gpusim.device import Device, DeviceSpec, TITAN_XP
from repro.gpusim.link import Link
from repro.obs import telemetry as obs
from repro.obs.schedaudit import audit_schedule


@dataclass
class MultiGpuStats:
    """Per-device accounting of a multi-GPU run.

    ``device_times_s`` and ``transfer_times_s`` have one entry per device
    (idle devices hold 0.0); ``placements`` maps each task to its device in
    canonical task order; ``audit`` carries the scheduler-vs-round-robin
    regret comparison; ``devices`` keeps the active simulated devices for
    post-run inspection (profiler, roofline) -- idle slots hold ``None``.
    """

    scheduler: str = "cost"
    device_times_s: list = field(default_factory=list)
    transfer_times_s: list = field(default_factory=list)
    reduction_time_s: float = 0.0
    placements: list = field(default_factory=list)
    audit: object = None
    devices: list = field(default_factory=list, repr=False)

    @property
    def active_devices(self) -> int:
        """Devices that received at least one task (and so transfer a
        partial vector); the complement is :attr:`idle_devices`."""
        return len(set(self.placements))

    @property
    def idle_devices(self) -> int:
        return max(len(self.device_times_s) - self.active_devices, 0)

    @property
    def makespan_s(self) -> float:
        """Concurrent device compute + the serialised host-side reduction."""
        return (max(self.device_times_s) if self.device_times_s else 0.0) + (
            self.reduction_time_s
        )

    @property
    def parallel_efficiency(self) -> float:
        """sum(work) / (active devices * makespan): 1.0 = perfect scaling.

        Efficiency is a statement about the devices that *worked*: dividing
        by the full device count would let idle devices (k devices, fewer
        tasks) deflate a perfectly balanced run.
        """
        active = self.active_devices
        if not active or self.makespan_s <= 0.0:
            return 0.0
        total = sum(self.device_times_s)
        return total / (active * self.makespan_s)


def multi_gpu_bc(
    graph: Graph,
    *,
    n_devices: int,
    sources=None,
    algorithm: str | TurboBCAlgorithm | None = None,
    spec: DeviceSpec = TITAN_XP,
    forward_dtype="auto",
    batch_size: int | str = 1,
    scheduler: str = "cost",
) -> tuple[BCResult, MultiGpuStats]:
    """Source-partitioned BC over ``n_devices`` simulated GPUs.

    Sources are cut into contiguous per-batch tasks and placed by
    ``scheduler`` (``"cost"``, the communication-aware cost-model list
    scheduler, or ``"roundrobin"``, the static deal).  Returns the combined
    result plus per-device stats; ``result.stats.gpu_time_s`` is the
    modeled makespan.  ``batch_size`` sets the task granularity and is
    forwarded to each task's :func:`~repro.core.bc.turbo_bc` call
    (``"auto"`` is resolved once, against a pristine device of ``spec``,
    so the task decomposition stays placement-independent).

    The full source list is validated here -- duplicates split across
    devices would evade every per-device check and silently double-count.
    """
    if n_devices < 1:
        raise ValueError(f"n_devices must be >= 1, got {n_devices}")
    if scheduler not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}"
        )
    algorithm = _resolve_algorithm(graph, algorithm)
    src_list = resolve_sources(graph, sources)

    # Resolve the task batch once, placement-independently: "auto" sizes
    # against a pristine (unbacked) device of the same spec, exactly the
    # free-memory state every per-task context starts from.
    batch = _resolve_batch(graph, Device(spec, backed=False), len(src_list), batch_size,
                           ALGORITHMS[algorithm.name][0], forward_dtype, np.float32)

    chunks = partition_sources(src_list, batch)
    tasks = estimate_task_costs(
        graph, chunks, spec=spec, algorithm=algorithm.name, batch=batch
    )
    transfer_s = spec.link_latency_s + graph.n * 8 / (
        spec.link_bandwidth_gbs * 1e9
    )
    est_costs = [t.est_cost_s for t in tasks]
    placements = schedule_tasks(
        est_costs, n_devices, scheduler, transfer_s=transfer_s
    )

    mg = MultiGpuStats(scheduler=scheduler, placements=list(placements))
    partials: list = [None] * len(tasks)
    measured = [0.0] * len(tasks)
    launches = 0
    peak = 0
    depth_map: dict[int, int] = {}
    tel = obs.get_telemetry()
    ledger_mark = (
        tel.ledger_mark() if tel is not None and tel.ledger is not None else None
    )
    # The per-task turbo_bc calls below are internal plumbing: suspend the
    # ledger around them so a multi-GPU run lands as *one* record (appended
    # after the fold), not one per task.
    suspend = tel.suspend_ledger() if tel is not None else nullcontext()
    with suspend:
        for d in range(n_devices):
            task_ids = [i for i, p in enumerate(placements) if p == d]
            if not task_ids:
                mg.device_times_s.append(0.0)
                mg.transfer_times_s.append(0.0)
                mg.devices.append(None)
                continue
            device = Device(spec)
            n_src = sum(len(chunks[i]) for i in task_ids)
            with obs.span(
                "device", index=d, sources=n_src, tasks=len(task_ids),
                scheduler=scheduler,
            ) as sp:
                for i in task_ids:
                    part = turbo_bc(
                        graph,
                        sources=list(chunks[i]),
                        algorithm=algorithm,
                        device=device,
                        forward_dtype=forward_dtype,
                        batch_size=batch,
                    )
                    partials[i] = part.bc
                    measured[i] = part.stats.gpu_time_s
                    launches += part.stats.kernel_launches
                    peak = max(peak, part.stats.peak_memory_bytes)
                    for s, dep in zip(chunks[i], part.stats.depth_per_source):
                        depth_map[s] = dep
                # Per-task gpu times, not the profiler total: a sigma-overflow
                # float64 re-run resets the device mid-stream, and the per-call
                # deltas are the placement-independent quantity the audit needs.
                compute_s = sum(measured[i] for i in task_ids)
                sp.set(gpu_time_s=compute_s)
            mg.device_times_s.append(compute_s)
            # One partial-bc vector (n float64) back over this device's link.
            link = Link(device)
            launch = link.transfer(
                graph.n * 8, src=f"gpu{d}", dst="host", tag=f"bc_partial d{d}"
            )
            mg.transfer_times_s.append(launch.time_s)
            mg.devices.append(device)
    # Only devices that produced a partial vector transfer one; the host
    # drains their links serially.
    mg.reduction_time_s = sum(mg.transfer_times_s)

    # Canonical-order fold in float64: per-task partials are placement-
    # independent, so this reproduces the same bits for every device count
    # and scheduler.
    bc = np.zeros(graph.n, dtype=np.float64)
    for i in range(len(tasks)):
        if partials[i] is not None:
            bc += partials[i]

    mg.audit = audit_schedule(
        scheduler=scheduler,
        n_devices=n_devices,
        placements=placements,
        est_costs_s=est_costs,
        measured_s=measured,
        task_sizes=[len(t.sources) for t in tasks],
        transfer_s=transfer_s,
    )
    if tel is not None:
        tel.schedule_audits.append(mg.audit)

    stats = BCRunStats(
        algorithm=f"{algorithm.label} x{n_devices} GPUs",
        n=graph.n,
        m=graph.m,
        sources=len(src_list),
        gpu_time_s=mg.makespan_s,
        kernel_launches=launches,
        transfer_time_s=mg.reduction_time_s,
        peak_memory_bytes=peak,
        depth_per_source=[depth_map[s] for s in src_list if s in depth_map],
        batch_size=batch,
    )
    if tel is not None and tel.ledger_active:
        from repro.obs.ledger import build_run_record, sources_fingerprint

        phase, run_counters = tel.ledger_delta(ledger_mark)
        all_launches = [
            launch for dev in mg.devices if dev is not None
            for launch in dev.profiler.launches
        ]
        tel.record_run(build_run_record(
            kind="multigpu",
            graph=graph,
            config={
                "driver": "multi_gpu_bc",
                "algorithm": algorithm.name,
                "batch_size": int(batch),
                "forward_dtype": (
                    forward_dtype if isinstance(forward_dtype, str)
                    else str(np.dtype(forward_dtype))
                ),
                "n_devices": int(n_devices),
                "scheduler": scheduler,
                "sources": len(src_list),
                "sources_hash": sources_fingerprint(src_list),
            },
            stats=stats,
            phase_time_s=phase,
            counters=run_counters,
            audit=mg.audit,
            launches=all_launches,
            spec=spec,
            extra={
                "parallel_efficiency": float(mg.parallel_efficiency),
                "reduction_time_s": float(mg.reduction_time_s),
            },
        ))
    return BCResult(bc=bc, stats=stats), mg
