"""Kernel launch records and the timing model.

A simulated kernel does two things: it computes its result with vectorised
NumPy, and it reports a :class:`KernelStats` describing what the equivalent
CUDA kernel would have done -- warp cycles (divergence-aware), DRAM traffic
(transaction-exact) and SM-side requested load bytes.  The device turns the
stats into a :class:`KernelLaunch` with the canonical bulk-parallel timing
model::

    time = max(compute_time, memory_time) + launch_overhead

    compute_time = warp_cycles / (SMs * schedulers_per_SM * clock)
    memory_time  = dram_bytes  / peak_DRAM_bandwidth

This is the roofline abstraction: a kernel is either issue-bound (divergence
shows up here) or bandwidth-bound (coalescing shows up here).  The GLT
profiler metric of the paper's Figure 5b is ``requested_load_bytes / time``
-- requested bytes count each lane's load, so cache hits and broadcasts can
push GLT *above* DRAM bandwidth, exactly as nvprof reports for TurboBC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

import numpy as np

from repro.gpusim.errors import InvalidKernelError

#: The count fields of :class:`KernelStats`, the columns of a :class:`LaunchTable`.
COUNTS = ("threads", "warp_cycles", "dram_read_bytes", "dram_write_bytes",
          "requested_load_bytes", "serial_updates", "critical_warp_cycles", "flops",
          "mma_ops")
#: Launch kinds: a kernel is timed from its counts; a host readback and a link
#: transfer take their fixed latency (a transfer's payload on the link arm).
KERNEL, READBACK, LINK = 0, 1, 2
_counts = attrgetter(*COUNTS)


@dataclass
class KernelStats:
    """What a kernel did, in hardware-visible units.

    Attributes
    ----------
    name:
        Kernel identity, e.g. ``"sccsc_spmv"``; the profiler aggregates by it.
    threads:
        Launched thread count.
    warp_cycles:
        Total issue cycles summed over warps, *including* divergence stalls.
    dram_read_bytes / dram_write_bytes:
        DRAM traffic after coalescing (transactions x 32 B).
    requested_load_bytes:
        Bytes requested by lanes before coalescing/caching -- the numerator
        of the GLT metric.
    serial_updates:
        Length of the same-address atomic chain: the maximum number of
        atomic updates any single location receives.  The memory system
        serialises these, so they floor the kernel's latency no matter the
        parallelism -- the dominant cost on hub graphs (mawi traces).
    critical_warp_cycles:
        Cycles of the single slowest warp (divergence critical path): a
        kernel cannot retire before its longest warp does, which is what
        kills thread-per-column kernels on hub columns.
    flops:
        Arithmetic operations (informational).
    mma_ops:
        16x16x16 matrix-multiply-accumulate operations issued to the MMA
        pipe (tensor-core kernels only).  Each op performs
        ``MMA_FLOPS_PER_OP`` dense flops regardless of how many are useful;
        the ratio ``flops / (mma_ops * MMA_FLOPS_PER_OP / 2)`` is the
        tile-fill occupancy the counters report.
    """

    name: str
    threads: int = 0
    warp_cycles: int = 0
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    requested_load_bytes: int = 0
    serial_updates: int = 0
    critical_warp_cycles: int = 0
    flops: int = 0
    mma_ops: int = 0

    def __post_init__(self):
        if min(_counts(self)) < 0:
            LaunchTable.from_stats([self], [""]).check()

    @property
    def dram_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Combine stats of two kernels fused into one launch."""
        return KernelStats(
            name=self.name,
            threads=max(self.threads, other.threads),
            warp_cycles=self.warp_cycles + other.warp_cycles,
            dram_read_bytes=self.dram_read_bytes + other.dram_read_bytes,
            dram_write_bytes=self.dram_write_bytes + other.dram_write_bytes,
            requested_load_bytes=self.requested_load_bytes + other.requested_load_bytes,
            serial_updates=max(self.serial_updates, other.serial_updates),
            critical_warp_cycles=max(self.critical_warp_cycles, other.critical_warp_cycles),
            flops=self.flops + other.flops,
            mma_ops=self.mma_ops + other.mma_ops,
        )


@dataclass(frozen=True)
class KernelLaunch:
    """A timed kernel execution, as recorded by the profiler."""

    stats: KernelStats
    compute_time_s: float
    memory_time_s: float
    overhead_s: float
    serial_time_s: float = 0.0
    #: Time the MMA pipe is busy: ``mma_ops * MMA_FLOPS_PER_OP`` dense flops
    #: against the spec's ``mma_tflops`` ceiling.  A fourth roofline arm --
    #: tensor-core kernels can be MMA-bound while the CUDA cores idle.
    mma_time_s: float = 0.0
    #: Time the inter-device link is busy moving this launch's payload (the
    #: pseudo-launches :class:`~repro.gpusim.link.Link` records).  A fifth
    #: roofline arm: bulk transfers are link-bound, tiny ones latency-bound
    #: (their fixed link latency lands in ``overhead_s``).
    link_time_s: float = 0.0
    tag: str = field(default="", compare=False)

    @property
    def name(self) -> str:
        return self.stats.name

    @cached_property
    def exec_time_s(self) -> float:
        """In-kernel time (excludes launch overhead)."""
        return max(self.compute_time_s, self.memory_time_s, self.serial_time_s,
                   self.mma_time_s, self.link_time_s)

    @cached_property
    def time_s(self) -> float:
        return self.exec_time_s + self.overhead_s

    @property
    def is_memory_bound(self) -> bool:
        return self.memory_time_s >= self.compute_time_s

    @property
    def glt_bytes_per_s(self) -> float:
        """Global-memory Load Throughput: requested load bytes / exec time.

        Zero-duration launches (empty work) report zero throughput.
        """
        t = self.exec_time_s
        if t <= 0.0:
            return 0.0
        return self.stats.requested_load_bytes / t


class LaunchTable:
    """Launches as columns, in launch order: row ``i`` is kernel
    ``names[ids[i]]`` with the counts ``counts[i]`` (:data:`COUNTS`, int64),
    of kind ``kinds[i]``, tagged ``tags[i]``.  A stage builds its whole
    launch sequence as one table for the device to time (:meth:`timed`).
    Iterating yields each row's :class:`KernelStats`, and :meth:`launches`
    each timed row's :class:`KernelLaunch`, built on demand.
    """

    def __init__(self, names, ids, counts, kinds, tags):
        self.names, self.ids, self.counts, self.kinds, self.tags = (
            tuple(names), ids, counts, kinds, tags)
        self._launches: list[KernelLaunch] | None = None

    @classmethod
    def of(cls, name: str, *, kind: int = KERNEL, tag: str = "", rows: int | None = None,
           **counts) -> "LaunchTable":
        """Rows of one kernel: each count an int or a per-row array (absent:
        0); ``rows`` of them (default: the arrays' length, or one).  Raises
        :class:`InvalidKernelError` on a negative count, as ``KernelStats``
        does, so every launched row is checked once."""
        if rows is None:
            rows = max((v.size for v in counts.values() if isinstance(v, np.ndarray)), default=1)
        table = np.zeros((rows, len(COUNTS)), dtype=np.int64)
        for f, v in counts.items():
            table[:, COUNTS.index(f)] = v
        table = cls((name,), np.zeros(rows, dtype=np.intp), table,
                    np.full(rows, kind, dtype=np.int8), [tag] * rows)
        table.check()
        return table

    @classmethod
    def from_stats(cls, stats, tags, kinds=None) -> "LaunchTable":
        """Rows from ``KernelStats`` objects, their tags and their kinds
        (default: kernels)."""
        names: dict[str, int] = {}
        ids = np.array([names.setdefault(s.name, len(names)) for s in stats], dtype=np.intp)
        counts = np.array([_counts(s) for s in stats], dtype=np.int64).reshape(-1, len(COUNTS))
        kinds = np.zeros(len(ids), dtype=np.int8) if kinds is None else np.array(kinds, np.int8)
        return cls(names, ids, counts, kinds, list(tags))

    @classmethod
    def cat(cls, tables, tags=None) -> "LaunchTable":
        """The rows of ``tables`` one after another, or with ``tags`` row ``k``
        of each table in turn for each ``k``, tagged ``tags[k]`` (a stage's levels)."""
        names, ids = [], []
        for t in tables:
            ids.append(t.ids + len(names))
            names += t.names
        if tags is None:
            return cls(names, np.concatenate(ids), np.concatenate([t.counts for t in tables]),
                       np.concatenate([t.kinds for t in tables]),
                       [tag for t in tables for tag in t.tags])
        return cls(names, np.array(ids).T.ravel(),
                   np.concatenate([t.counts for t in tables], axis=1).reshape(-1, len(COUNTS)),
                   np.array([t.kinds for t in tables]).T.ravel(),
                   [tag for tag in tags for _ in tables])

    def check(self) -> None:
        """Raise :class:`InvalidKernelError` naming the first negative count."""
        if self.counts.min(initial=0) < 0:
            row, col = np.argwhere(self.counts < 0)[0].tolist()
            raise InvalidKernelError(
                f"{self.names[self.ids[row]]}: {COUNTS[col]} must be non-negative")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        names = self.names
        return (KernelStats(names[i], *c) for i, c in zip(self.ids.tolist(), self.counts.tolist()))

    def timed(self, arms: np.ndarray, total_s: float) -> "LaunchTable":
        """Take the device's times: ``arms[i]`` holds row ``i``'s compute,
        memory, serial, MMA and link times and its overhead.  ``exec_s`` is
        the largest arm and ``clock`` the device's running total before the
        first row and after each row: a sequential left fold from
        ``total_s``, as launch-by-launch adds."""
        self.arms, self.exec_s = arms, np.maximum.reduce(arms[:, :5], axis=1)
        self.clock = np.empty(len(arms) + 1)
        self.clock[0] = total_s
        np.add(self.exec_s, arms[:, 5], out=self.clock[1:])
        np.add.accumulate(self.clock, out=self.clock)
        return self

    def launches(self, stats=None) -> list[KernelLaunch]:
        """The timed rows' :class:`KernelLaunch` records, built on first call
        (``stats``: the rows' ``KernelStats``, if the caller holds them)."""
        if self._launches is None:
            self._launches = [
                KernelLaunch(s, compute_time_s=c, memory_time_s=m, overhead_s=o,
                             serial_time_s=ser, mma_time_s=mma, link_time_s=link, tag=tag)
                for s, tag, (c, m, ser, mma, link, o) in zip(
                    stats or self, self.tags, self.arms.tolist())
            ]
        return self._launches
