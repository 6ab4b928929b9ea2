"""Result containers for BFS and BC runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs is standalone)
    from repro.core.levels import LevelDAG
    from repro.obs.telemetry import RunTelemetry


@dataclass
class BFSResult:
    """Output of the forward (BFS) stage for one source.

    Attributes
    ----------
    source:
        Root of the BFS tree.
    sigma:
        Shortest-path counts from the source (``sigma[source] == 1``;
        0 for unreachable vertices).
    levels:
        Discovery depth per vertex (the paper's ``S`` vector): the source
        holds 0, unreachable vertices also hold 0 but have ``sigma == 0``.
    depth:
        Height of the BFS tree (the paper's ``d``).
    frontier_sizes:
        Number of vertices discovered at each level ``1 .. depth``.
    discovered:
        The vertex lists :func:`~repro.core.forward.bfs_forward` recorded
        for levels ``1 .. depth + 1`` (the last one empty), sorted; the
        backward stage walks them.  ``None`` on host-side copies.
    dag:
        The level-major BFS DAG where the forward solve built it, which
        the backward stage then sweeps; ``None`` where the level loop ran,
        and the backward runs its level loop too.
    """

    source: int
    sigma: np.ndarray
    levels: np.ndarray
    depth: int
    frontier_sizes: list[int] = field(default_factory=list)
    discovered: list[np.ndarray] | None = field(default=None, repr=False, compare=False)
    dag: LevelDAG | None = field(default=None, repr=False, compare=False)

    @property
    def reached(self) -> np.ndarray:
        """Boolean mask of vertices reachable from the source."""
        return self.sigma > 0


@dataclass
class BatchedBFSResult:
    """Output of the batched forward stage for one batch of sources.

    Column ``j`` of every array belongs to ``sources[j]``.

    Attributes
    ----------
    sources:
        The batch's BFS roots.
    sigma:
        ``(n, B)`` shortest-path counts (``sigma[sources[j], j] == 1``).
    levels:
        ``(n, B)`` discovery depths (the paper's ``S``, one column per lane).
    depths:
        Per-lane BFS-tree height; the batch ran ``max(depths)`` levels.
    frontier_sizes:
        Per-lane discovery counts per level ``1 .. depths[j]``.
    overflowed:
        ``(B,)`` bool: lanes whose sigma overflowed the forward dtype.  The
        driver re-runs *only* those sources in float64.
    discovered:
        Per level ``1 .. depth + 1`` (the last one empty), the sorted
        row-major flat indices the forward stage stamped into ``levels``;
        the backward stage walks them.
    txn:
        Per level, the gather transactions of its ``discovered`` list,
        counted once for the forward update kernel and both backward
        kernels.
    """

    sources: list[int]
    sigma: np.ndarray
    levels: np.ndarray
    depths: list[int]
    frontier_sizes: list[list[int]]
    overflowed: np.ndarray
    discovered: list[np.ndarray] = field(repr=False, compare=False)
    txn: np.ndarray = field(repr=False, compare=False)

    @property
    def batch_size(self) -> int:
        return len(self.sources)

    @property
    def depth(self) -> int:
        """The batch's level count (deepest lane)."""
        return max(self.depths, default=0)

    def lane(self, j: int) -> BFSResult:
        """Extract lane ``j`` as a host-side per-source :class:`BFSResult`."""
        return BFSResult(
            source=self.sources[j],
            sigma=self.sigma[:, j].copy(),
            levels=self.levels[:, j].copy(),
            depth=self.depths[j],
            frontier_sizes=list(self.frontier_sizes[j]),
        )


@dataclass
class BCRunStats:
    """Performance accounting of a (possibly multi-source) BC run.

    Times are *modeled* device times from the simulator, not wall-clock; the
    harness reports both where useful.
    """

    algorithm: str
    n: int
    m: int
    sources: int
    gpu_time_s: float
    kernel_launches: int
    transfer_time_s: float
    peak_memory_bytes: int
    depth_per_source: list[int] = field(default_factory=list)
    wall_time_s: float = 0.0
    #: Sources processed per forward/backward pass (1 = the sequential driver).
    batch_size: int = 1
    #: Sources whose sigma overflowed in a batch and were re-run in float64.
    rerun_sources: list[int] = field(default_factory=list)
    #: ``"incremental"`` or ``"full"`` when this run was a ``DynamicBC.update``
    #: (None for ordinary from-scratch runs).
    update_mode: str | None = None
    #: Sources the affected-region predicate re-ran (update runs only).
    affected_sources: int | None = None
    #: Sources whose stored contributions were reused (update runs only).
    skipped_sources: int | None = None

    @property
    def max_depth(self) -> int:
        return max(self.depth_per_source, default=0)

    def mteps(self) -> float:
        """Paper-convention traversed-edges-per-second, in millions.

        BC/vertex runs (one source) use ``m / t``; exact-BC runs use
        ``m * n_sources / t`` (Section 4).
        """
        if self.gpu_time_s <= 0:
            return 0.0
        return self.m * self.sources / self.gpu_time_s / 1e6

    @property
    def runtime_ms(self) -> float:
        return self.gpu_time_s * 1e3

    def to_dict(self) -> dict:
        """Machine-readable snapshot (the CLI's ``--stats-json`` payload)."""
        return {
            "schema": "repro/bc_run_stats/v1",
            "algorithm": self.algorithm,
            "n": self.n,
            "m": self.m,
            "sources": self.sources,
            "gpu_time_s": self.gpu_time_s,
            "runtime_ms": self.runtime_ms,
            "mteps": self.mteps(),
            "kernel_launches": self.kernel_launches,
            "transfer_time_s": self.transfer_time_s,
            "peak_memory_bytes": self.peak_memory_bytes,
            "depth_per_source": list(self.depth_per_source),
            "max_depth": self.max_depth,
            "wall_time_s": self.wall_time_s,
            "batch_size": self.batch_size,
            "rerun_sources": list(self.rerun_sources),
            **(
                {
                    "update_mode": self.update_mode,
                    "affected_sources": self.affected_sources,
                    "skipped_sources": self.skipped_sources,
                }
                if self.update_mode is not None
                else {}
            ),
        }


@dataclass
class BCResult:
    """Betweenness-centrality output.

    ``bc`` follows the paper's (Brandes') convention: unnormalised pairwise
    dependencies, halved for undirected graphs to compensate for the double
    counting of each vertex pair.
    """

    bc: np.ndarray
    stats: BCRunStats
    forward: BFSResult | None = None
    #: The telemetry session that observed the run (``None`` unless one was
    #: active -- see :mod:`repro.obs`); carries the span tree and metrics.
    telemetry: "RunTelemetry | None" = None

    @property
    def n(self) -> int:
        return self.bc.size

    def top(self, k: int = 10) -> list[tuple[int, float]]:
        """The ``k`` highest-BC vertices as ``(vertex, score)`` pairs."""
        k = min(k, self.bc.size)
        idx = np.argpartition(self.bc, -k)[-k:] if k else np.empty(0, dtype=np.int64)
        idx = idx[np.argsort(-self.bc[idx], kind="stable")]
        return [(int(v), float(self.bc[v])) for v in idx]
