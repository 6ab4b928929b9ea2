"""The simulated device: spec, launch bookkeeping, memory, profiler.

:meth:`Device.launch` times a :class:`~repro.gpusim.kernel.LaunchTable` --
a stage's whole launch sequence, or one kernel, readback or transfer -- in a
few NumPy operations, with the per-element arithmetic of a launch-by-launch
evaluation, so every time and the running clock keep their bits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.gpusim.kernel import (COUNTS, KERNEL, LINK, READBACK, KernelLaunch, KernelStats,
                                 LaunchTable)
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.profiler import Profiler
from repro.gpusim.warp import MMA_FLOPS_PER_OP
from repro.obs.telemetry import get_telemetry


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware parameters of the simulated GPU.

    Defaults reproduce the NVIDIA TITAN Xp the paper used (Section 4):
    30 SMs x 128 cores, 1.58 GHz boost clock, 12196 MB global memory.  The
    theoretical GLT ceiling of 575 GB/s quoted by the paper is carried
    explicitly because Figure 5b plots kernels against it.
    """

    name: str = "NVIDIA TITAN Xp (simulated)"
    num_sms: int = 30
    cores_per_sm: int = 128
    warp_size: int = 32
    warp_schedulers_per_sm: int = 4
    clock_ghz: float = 1.58
    global_memory_bytes: int = 12196 * 2**20
    #: L2 capacity; scaled-down suite instances scale this too so the
    #: cache-residency regime of the paper-scale run is preserved (see
    #: DESIGN.md on the scaled-device mode).
    l2_bytes: int = 3 * 2**20
    dram_bandwidth_gbs: float = 547.6
    theoretical_glt_gbs: float = 575.0
    kernel_launch_overhead_us: float = 5.0
    sync_readback_us: float = 28.0
    #: Same-address atomic updates serialise at the L2; ~2.5 ns per update
    #: on Pascal-class parts.
    atomic_serialization_s: float = 2.5e-9
    #: Inter-device interconnect of the multi-GPU extension: the bandwidth
    #: and latency a :class:`~repro.gpusim.link.Link` charges per transfer.
    #: The default models the paper server's PCIe-attached peers (matching
    #: the 11 GB/s effective host-transfer rate the memory model uses);
    #: NVLink-class parts raise ``link_bandwidth_gbs`` to 25+ GB/s.
    link_bandwidth_gbs: float = 11.0
    link_latency_s: float = 10e-6
    #: Peak MMA-pipe throughput in TFLOP/s for the blocked tensor-core
    #: kernels.  The TITAN Xp (Pascal) has no tensor cores; this is a
    #: *simulated* Volta-class extension (V100 tensor peak ~112 TFLOP/s,
    #: half of it modeled as sustainable on this part's 30 SMs) so the
    #: dispatcher and roofline can attribute when a blocked MMA formulation
    #: would beat the warp kernels.  Compare the CUDA-core FMA peak of
    #: ~12 GFLOP/s x 512 = 6.07 TFLOP/s: the MMA pipe is ~9x denser, but
    #: only sparse tiles that are actually occupied make use of it.
    mma_tflops: float = 56.0

    @property
    def warp_issue_rate(self) -> float:
        """Warp-instructions issued per second, device-wide."""
        return self.num_sms * self.warp_schedulers_per_sm * self.clock_ghz * 1e9

    @property
    def max_resident_threads(self) -> int:
        return self.num_sms * 2048


TITAN_XP = DeviceSpec()


def _parse_slowdown(value: str) -> dict[str, float]:
    """Parse ``REPRO_INJECT_SLOWDOWN`` into ``{kernel_name: factor}``.

    A bare number (``"2.0"``) slows every kernel; ``"sccsc_spmv:2,bfs:3"``
    slows only the named ones.  The hook scales *modeled time only* --
    results are untouched -- and exists so the perf-regression gate can be
    tested end-to-end against a genuine (injected) slowdown.
    """
    value = value.strip()
    if not value:
        return {}
    factors: dict[str, float] = {}
    for part in value.split(","):
        name, _, factor = part.rpartition(":")
        factors[name.strip() or "*"] = float(factor)
    return factors


#: Counts -> the arms' integer inputs (an exact int64 product): warp cycles,
#: DRAM read + write bytes, critical-warp cycles, MMA ops, none (the link
#: arm, set for transfers only) and the serial updates.
_ARMS = np.zeros((len(COUNTS), 6), dtype=np.int64)
_ARMS[[1, 2, 3, 6, 8, 5], [0, 1, 1, 2, 3, 5]] = 1


def readbacks(words: int, rows: int, tag: str = "") -> LaunchTable:
    """``rows`` host readbacks of ``words`` 4-byte flags (:meth:`Device.sync_readback`)."""
    return LaunchTable.of("sync_readback", kind=READBACK, tag=tag, rows=rows,
                          dram_read_bytes=4 * words)


class Device:
    """A simulated GPU: spec + memory + profiler + launch timing.

    Parameters
    ----------
    spec:
        Hardware description; defaults to the paper's TITAN Xp.
    backed:
        If False the device only *plans* allocations (sizes, OOM) without
        backing NumPy arrays -- used for paper-scale footprint experiments.
    """

    def __init__(self, spec: DeviceSpec = TITAN_XP, *, backed: bool = True):
        self.spec = spec
        self.memory = DeviceMemory(spec.global_memory_bytes, backed=backed)
        self.profiler = Profiler()
        self._slowdown = _parse_slowdown(os.environ.get("REPRO_INJECT_SLOWDOWN", ""))
        # the spec's rates and per-kind overheads, in the arms' order
        self._rates = np.array([spec.warp_issue_rate, spec.dram_bandwidth_gbs * 1e9,
                                spec.clock_ghz * 1e9, spec.mma_tflops * 1e12 / MMA_FLOPS_PER_OP,
                                1.0, 1.0])
        self._overheads = np.array([spec.kernel_launch_overhead_us * 1e-6,
                                    spec.sync_readback_us * 1e-6, spec.link_latency_s])

    def launch(self, work: KernelStats | LaunchTable, *, tag: str = "",
               report: bool = True) -> KernelLaunch | LaunchTable:
        """Time launches and log them with the profiler: one kernel's stats,
        tagged ``tag`` (e.g. the BFS level), returning its
        :class:`KernelLaunch`, or a :class:`LaunchTable`, returned timed.
        Each launch is reported to the active telemetry unless ``report`` is
        false: a stage replay reports its levels inside their spans.
        """
        one = isinstance(work, KernelStats)
        table = LaunchTable.from_stats([work], [tag]) if one else work
        counts, kinds = table.counts, table.kinds
        # each count over its rate (the MMA rate is per op: dividing by it
        # rounds as the exact flops over the flop rate would)
        arms = (counts @ _ARMS) / self._rates
        # Two latency floors throughput cannot hide: the same-address atomic
        # chain and the slowest warp's own execution.  The MMA pipe runs
        # concurrently with the CUDA cores; its busy time is a fourth arm.
        np.maximum(arms[:, 5] * self.spec.atomic_serialization_s, arms[:, 2], out=arms[:, 2])
        if self._slowdown:
            factor = [self._slowdown.get(n, self._slowdown.get("*", 1.0)) for n in table.names]
            arms[:, :4] *= np.array(factor)[table.ids, None]
        if np.count_nonzero(kinds):
            link = kinds == LINK
            arms[kinds != KERNEL, :4] = 0.0
            arms[link, 4] = counts[link, 2] / (self.spec.link_bandwidth_gbs * 1e9)
            arms[:, 5] = self._overheads[kinds]
        else:
            arms[:, 5] = self._overheads[KERNEL]
        timed = self.profiler.append(table, arms)
        launches = timed.launches([work]) if one else None
        if report:
            self.report(timed)
        return launches[0] if one else timed

    def report(self, timed: LaunchTable, rows: slice = slice(None)) -> None:
        """Hand the ``rows`` of a launched table to the active telemetry,
        each with the device clock after it."""
        tel = get_telemetry()
        if tel is not None:
            for launch, total in zip(timed.launches()[rows], timed.clock[1:][rows].tolist()):
                tel.on_kernel_launch(launch, total, spec=self.spec)

    def sync_readback(self, *, words: int = 1, tag: str = "") -> KernelLaunch:
        """A host-blocking device-to-host readback (e.g. a convergence flag).

        Level-synchronous GPU BFS must learn each level whether the frontier
        emptied; the ``cudaMemcpy`` + stream-sync latency this costs is what
        dominates deep-BFS graphs (the paper's luxembourg row runs at
        ~48 us/level).  Modeled as a fixed-latency pseudo-launch.
        """
        return self.launch(readbacks(words, 1, tag)).launches()[0]

    def reset(self) -> None:
        """Free all memory and clear the profiler (fresh run)."""
        self.memory.free_all()
        self.profiler.clear()
        tel = get_telemetry()
        if tel is not None and tel.memtrace is not None:
            tel.memtrace.on_device_reset()

    def __repr__(self) -> str:
        return (
            f"Device({self.spec.name!r}, "
            f"{self.memory.used_bytes / 2**20:.0f}/{self.spec.global_memory_bytes / 2**20:.0f} MiB, "
            f"{self.profiler.total_launches()} launches)"
        )
