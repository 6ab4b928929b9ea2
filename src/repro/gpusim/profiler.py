"""An nvprof-like profiler for the simulated device.

Logs every launch and answers the questions the paper's evaluation asks:
total GPU time, per-kernel-name aggregates, and the Global-memory Load
Throughput (GLT) of the hottest kernels (Figure 5b/5c).  The log holds a
timed :class:`~repro.gpusim.kernel.LaunchTable` per device call;
:attr:`Profiler.launches` builds ``KernelLaunch`` records on first read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.kernel import KernelLaunch, LaunchTable


@dataclass(frozen=True)
class KernelSummary:
    """Aggregate of all launches sharing a kernel name."""

    name: str
    launches: int
    total_time_s: float
    exec_time_s: float
    dram_bytes: int
    requested_load_bytes: int
    warp_cycles: int

    @property
    def glt_bytes_per_s(self) -> float:
        """Aggregate GLT: requested load bytes over in-kernel time."""
        if self.exec_time_s <= 0.0:
            return 0.0
        return self.requested_load_bytes / self.exec_time_s

    @property
    def glt_gbs(self) -> float:
        return self.glt_bytes_per_s / 1e9


class Profiler:
    """Event log of kernel launches with aggregate queries."""

    def __init__(self):
        self.clear()

    def append(self, table: LaunchTable, arms) -> LaunchTable:
        """Log ``table`` with its rows' five time arms and overhead.  The
        running total stays a left fold over the launches, bit-identical to
        ``sum()`` over them, so span clocks are O(1)."""
        self._log.append(table.timed(arms, self._total_time_s))
        self._n += len(table)
        self._total_time_s = float(table.clock[-1])
        return table

    def clear(self) -> None:
        self._log: list[LaunchTable] = []
        self._view: list[KernelLaunch] = []
        self._viewed = 0  # log entries already built into _view
        self._n = 0
        self._total_time_s = 0.0

    @property
    def launches(self) -> list[KernelLaunch]:
        """Every launch, built from the log on first read."""
        for timed in self._log[self._viewed:]:
            self._view += timed.launches()
        self._viewed = len(self._log)
        return self._view

    # -- aggregate queries ----------------------------------------------------

    def total_time_s(self) -> float:
        """Sum of all launch times (kernels execute back-to-back in-stream)."""
        return self._total_time_s

    def total_launches(self) -> int:
        return self._n

    def kernel_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for l in self.launches:
            seen.setdefault(l.name)
        return list(seen)

    def summary(self, name: str) -> KernelSummary:
        """Aggregate stats for one kernel name (raises if never launched)."""
        sel = [l for l in self.launches if l.name == name]
        if not sel:
            raise KeyError(f"kernel {name!r} was never launched")
        return KernelSummary(
            name=name,
            launches=len(sel),
            total_time_s=sum(l.time_s for l in sel),
            exec_time_s=sum(l.exec_time_s for l in sel),
            dram_bytes=sum(l.stats.dram_bytes for l in sel),
            requested_load_bytes=sum(l.stats.requested_load_bytes for l in sel),
            warp_cycles=sum(l.stats.warp_cycles for l in sel),
        )

    def summaries(self) -> list[KernelSummary]:
        """Per-kernel aggregates, hottest (most total time) first.

        A single pass over the launch log -- the naive per-name rescan is
        O(names x launches), which an exact-BC run (millions of launches,
        a dozen names) turns into a visible report-time stall.
        """
        agg: dict[str, list] = {}
        for l in self.launches:
            a = agg.get(l.name)
            if a is None:
                a = agg[l.name] = [0, 0.0, 0.0, 0, 0, 0]
            a[0] += 1
            a[1] += l.time_s
            a[2] += l.exec_time_s
            a[3] += l.stats.dram_bytes
            a[4] += l.stats.requested_load_bytes
            a[5] += l.stats.warp_cycles
        out = [
            KernelSummary(
                name=name,
                launches=a[0],
                total_time_s=a[1],
                exec_time_s=a[2],
                dram_bytes=a[3],
                requested_load_bytes=a[4],
                warp_cycles=a[5],
            )
            for name, a in agg.items()
        ]
        out.sort(key=lambda s: -s.total_time_s)
        return out

    def report(self) -> str:
        """Human-readable profile table."""
        rows = self.summaries()
        total = self.total_time_s()
        lines = [
            f"{'kernel':28s} {'launches':>8s} {'time(ms)':>10s} {'%':>6s} "
            f"{'DRAM(MiB)':>10s} {'GLT(GB/s)':>10s}"
        ]
        for s in rows:
            pct = 100.0 * s.total_time_s / total if total else 0.0
            lines.append(
                f"{s.name:28s} {s.launches:8d} {s.total_time_s * 1e3:10.3f} {pct:6.1f} "
                f"{s.dram_bytes / 2**20:10.2f} {s.glt_gbs:10.1f}"
            )
        lines.append(f"{'total':28s} {len(self.launches):8d} {total * 1e3:10.3f}")
        return "\n".join(lines)
