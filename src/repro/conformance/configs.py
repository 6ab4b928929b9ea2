"""The registry of execution configurations the conformance harness runs.

An :class:`ExecutionConfig` is anything that maps ``(graph, sources)`` to a
BC vector.  The default registry spans every execution axis the repository
has grown: the three SpMV kernels plus the per-level adaptive dispatcher,
the batched SpMM lanes
(``batch_size in {1, B, "auto"}``), single- vs multi-GPU source
partitioning, telemetry on/off, and the sequential CSC implementation as an
independent fourth system.  The harness compares every registered
configuration against the Brandes oracle, which makes all of them
transitively consistent with each other.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core import forward
from repro.core.bc import turbo_bc
from repro.core.multigpu import multi_gpu_bc
from repro.core.sequential import sequential_bc
from repro.graphs.graph import Graph
from repro.obs import telemetry as obs_telemetry
from repro.obs.telemetry import RunTelemetry
from repro.spmv import KERNEL_NAMES

Runner = Callable[[Graph, Sequence[int] | None], np.ndarray]

#: Batch sizes every kernel is exercised with: the paper's per-source
#: pipeline, a fixed SpMM batch, and the memory-model auto sizing.
BATCH_AXIS: tuple[int | str, ...] = (1, 4, "auto")


@dataclass(frozen=True)
class ExecutionConfig:
    """A named way of computing betweenness centrality."""

    name: str
    runner: Runner
    description: str = ""
    axes: dict = field(default_factory=dict, compare=False)

    def run(self, graph: Graph, sources=None) -> np.ndarray:
        return np.asarray(self.runner(graph, sources), dtype=np.float64)


def _turbo_runner(kernel: str, batch: int | str) -> Runner:
    def run(graph: Graph, sources=None) -> np.ndarray:
        return turbo_bc(
            graph,
            sources=sources,
            algorithm=kernel,
            forward_dtype="auto",
            batch_size=batch,
        ).bc

    return run


def _multigpu_runner(
    kernel: str, n_devices: int, batch: int | str, scheduler: str = "cost"
) -> Runner:
    def run(graph: Graph, sources=None) -> np.ndarray:
        result, _ = multi_gpu_bc(
            graph,
            n_devices=n_devices,
            sources=sources,
            algorithm=kernel,
            forward_dtype="auto",
            batch_size=batch,
            scheduler=scheduler,
        )
        return result.bc

    return run


def _telemetry_runner(kernel: str, batch: int | str) -> Runner:
    inner = _turbo_runner(kernel, batch)

    def run(graph: Graph, sources=None) -> np.ndarray:
        tel = RunTelemetry(trace=True)
        obs_telemetry.activate(tel)
        try:
            return inner(graph, sources)
        finally:
            if tel.tracer is not None:
                tel.tracer.finish()
            obs_telemetry.deactivate()

    return run


def _solve_runner() -> Runner:
    """Adaptive B = 1 with the forward's triangular solve on every BFS,
    however shallow: fuzz graphs rarely reach ``SOLVE_MIN_DEPTH``."""
    inner = _turbo_runner("adaptive", 1)

    def run(graph: Graph, sources=None) -> np.ndarray:
        saved = forward.SOLVE_MIN_DEPTH
        forward.SOLVE_MIN_DEPTH = 0
        try:
            return inner(graph, sources)
        finally:
            forward.SOLVE_MIN_DEPTH = saved

    return run


def _sequential_runner() -> Runner:
    def run(graph: Graph, sources=None) -> np.ndarray:
        return sequential_bc(graph, sources=sources).bc

    return run


def default_configs() -> list[ExecutionConfig]:
    """The full registry: every execution axis the repository supports.

    kernel x batch covers the single-GPU grid, plus adaptive B = 1 with the
    forward's triangular solve forced at every depth; the multi-GPU entries
    exercise source partitioning (with and without batching underneath);
    the telemetry entries assert instrumentation cannot perturb results;
    ``sequential`` is the CPU Algorithm 1 as an independent implementation.
    """
    configs: list[ExecutionConfig] = []
    for kernel in (*KERNEL_NAMES, "adaptive"):
        for batch in BATCH_AXIS:
            configs.append(ExecutionConfig(
                name=f"{kernel}/b{batch}",
                runner=_turbo_runner(kernel, batch),
                description=f"turbo_bc {kernel}, batch_size={batch!r}",
                axes={"kernel": kernel, "batch": batch, "gpus": 1,
                      "telemetry": False},
            ))
    # The PR 6 direction-optimized additions: the pull-mode kernel and the
    # blocked tensor-core kernel, each single-lane and batched.  They are
    # outside KERNEL_NAMES (the paper's trio) but must be bit-identical to
    # it -- these configs plus the kernel differential enforce that.
    for kernel in ("pullcsc", "tcspmm"):
        for batch in (1, 4):
            configs.append(ExecutionConfig(
                name=f"{kernel}/b{batch}",
                runner=_turbo_runner(kernel, batch),
                description=f"turbo_bc {kernel}, batch_size={batch!r}",
                axes={"kernel": kernel, "batch": batch, "gpus": 1,
                      "telemetry": False},
            ))
    configs.append(ExecutionConfig(
        name="adaptive/b1/solve",
        runner=_solve_runner(),
        description="turbo_bc adaptive, batch_size=1, forward sigma by one "
                    "triangular solve at every depth",
        axes={"kernel": "adaptive", "batch": 1, "gpus": 1, "telemetry": False},
    ))
    # Multi-GPU: the scheduler axis must be invisible in the results --
    # cost-model placement, the static round-robin deal, and any device
    # count all fold the same per-task partials in canonical order.
    configs.append(ExecutionConfig(
        name="sccsc/b1/gpus2",
        runner=_multigpu_runner("sccsc", 2, 1),
        description="multi_gpu_bc sccsc, 2 devices, cost-model scheduler",
        axes={"kernel": "sccsc", "batch": 1, "gpus": 2,
              "scheduler": "cost", "telemetry": False},
    ))
    configs.append(ExecutionConfig(
        name="sccsc/b1/gpus2/rr",
        runner=_multigpu_runner("sccsc", 2, 1, scheduler="roundrobin"),
        description="multi_gpu_bc sccsc, 2 devices, static round-robin deal",
        axes={"kernel": "sccsc", "batch": 1, "gpus": 2,
              "scheduler": "roundrobin", "telemetry": False},
    ))
    configs.append(ExecutionConfig(
        name="veccsc/b4/gpus3",
        runner=_multigpu_runner("veccsc", 3, 4),
        description="multi_gpu_bc veccsc, 3 devices, SpMM batch of 4",
        axes={"kernel": "veccsc", "batch": 4, "gpus": 3,
              "scheduler": "cost", "telemetry": False},
    ))
    configs.append(ExecutionConfig(
        name="adaptive/b4/gpus4",
        runner=_multigpu_runner("adaptive", 4, 4),
        description="multi_gpu_bc adaptive dispatch, 4 devices, scheduled",
        axes={"kernel": "adaptive", "batch": 4, "gpus": 4,
              "scheduler": "cost", "telemetry": False},
    ))
    configs.append(ExecutionConfig(
        name="sccooc/b1/telemetry",
        runner=_telemetry_runner("sccooc", 1),
        description="turbo_bc sccooc under an active telemetry session",
        axes={"kernel": "sccooc", "batch": 1, "gpus": 1, "telemetry": True},
    ))
    configs.append(ExecutionConfig(
        name="sccsc/bauto/telemetry",
        runner=_telemetry_runner("sccsc", "auto"),
        description="batched turbo_bc sccsc under an active telemetry session",
        axes={"kernel": "sccsc", "batch": "auto", "gpus": 1, "telemetry": True},
    ))
    configs.append(ExecutionConfig(
        name="sequential",
        runner=_sequential_runner(),
        description="sequential CSC Algorithm 1 (CPU)",
        axes={"kernel": "sequential", "batch": 1, "gpus": 0,
              "telemetry": False},
    ))
    return configs


def dynamic_configs() -> list[ExecutionConfig]:
    """The execution grid the edit-script conformance layer runs on.

    Incremental updates re-run affected sources through the same kernel
    dispatch as the original computation, so the edit-identity check must
    cover every kernel x batch combination that can disagree on
    accumulation order: the paper's trio plus the adaptive dispatcher and
    the PR 6 direction-optimized kernels, each single-lane and batched,
    plus one auto-batched entry and one under an active telemetry session.
    The ``runner`` stays the standard from-scratch ``turbo_bc`` (it is the
    comparison baseline); the edit harness reads ``axes`` to build the
    matching :class:`~repro.core.incremental.DynamicBC` handle.
    """
    configs: list[ExecutionConfig] = []
    for kernel in (*KERNEL_NAMES, "adaptive", "pullcsc", "tcspmm"):
        for batch in (1, 4):
            configs.append(ExecutionConfig(
                name=f"dyn/{kernel}/b{batch}",
                runner=_turbo_runner(kernel, batch),
                description=f"DynamicBC {kernel}, batch_size={batch!r}",
                axes={"kernel": kernel, "batch": batch, "gpus": 1,
                      "telemetry": False},
            ))
    configs.append(ExecutionConfig(
        name="dyn/adaptive/bauto",
        runner=_turbo_runner("adaptive", "auto"),
        description="DynamicBC adaptive, memory-model auto batch sizing",
        axes={"kernel": "adaptive", "batch": "auto", "gpus": 1,
              "telemetry": False},
    ))
    configs.append(ExecutionConfig(
        name="dyn/sccsc/b4/telemetry",
        runner=_turbo_runner("sccsc", 4),
        description="DynamicBC sccsc batch 4 under an active telemetry session",
        axes={"kernel": "sccsc", "batch": 4, "gpus": 1, "telemetry": True},
    ))
    return configs


def filter_configs(
    configs: Sequence[ExecutionConfig], patterns: Sequence[str] | None
) -> list[ExecutionConfig]:
    """Select configs whose name matches any glob/substring pattern.

    A pattern without glob metacharacters matches as a substring, so
    ``--config veccsc`` selects every veCSC configuration.
    """
    if not patterns:
        return list(configs)
    selected = []
    for cfg in configs:
        for pat in patterns:
            glob = pat if any(ch in pat for ch in "*?[") else f"*{pat}*"
            if fnmatch.fnmatch(cfg.name, glob):
                selected.append(cfg)
                break
    return selected
