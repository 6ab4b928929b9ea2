"""The modeled inter-device link (multi-GPU partial-vector reduction).

A :class:`Link` is a device's interconnect to its peers/host: transfers are
charged ``link_latency_s + nbytes / link_bandwidth_gbs`` from the owning
device's :class:`~repro.gpusim.device.DeviceSpec` and recorded as
pseudo-launches on that device's profiler -- the same pattern as
``Device.sync_readback`` -- with the payload time on the dedicated
``link_time_s`` roofline arm.  That routes every transfer through the
existing observability stack for free: telemetry counters, chrome-trace
events, and the roofline's ``link`` bound class all see it.

The multi-GPU driver gives each device one link and sends each partial
``bc`` vector through it; the scheduler charges the same closed-form
transfer term when placing tasks, so the audit can compare like with like.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.kernel import LINK, KernelLaunch, LaunchTable
from repro.obs.telemetry import get_telemetry


@dataclass(frozen=True)
class TransferEvent:
    """One modeled transfer over an inter-device link."""

    src: str
    dst: str
    nbytes: int
    time_s: float
    tag: str = ""


@dataclass
class Link:
    """A device's interconnect; accumulates modeled transfer events.

    ``device`` owns the link: transfers land on its profiler (and through it
    on any active telemetry session), so per-device accounting keeps compute
    and communication in one launch stream while ``events`` preserves the
    transfer-level view.
    """

    device: "object"  # repro.gpusim.device.Device (import cycle avoided)
    events: list[TransferEvent] = field(default_factory=list)

    @property
    def spec(self):
        return self.device.spec

    def transfer_time_s(self, nbytes: int) -> float:
        """Closed-form cost of moving ``nbytes``: latency + payload/bandwidth.

        This is the exact term the scheduler charges when weighing a
        placement, so the modeled run can never disagree with the plan.
        """
        spec = self.spec
        return spec.link_latency_s + nbytes / (spec.link_bandwidth_gbs * 1e9)

    def transfer(self, nbytes: int, *, src: str = "device", dst: str = "host",
                 tag: str = "") -> KernelLaunch:
        """Move ``nbytes`` over the link; records a pseudo-launch.

        The fixed link latency is charged as launch overhead (it is a
        per-transfer setup cost no payload size amortises) and the payload
        time as ``link_time_s``, so the roofline classifies bulk transfers
        as link-bound and empty ones as overhead-bound.
        """
        if nbytes < 0:
            raise ValueError(f"transfer size must be non-negative, got {nbytes}")
        table = LaunchTable.of("link_transfer", kind=LINK, tag=tag, dram_read_bytes=nbytes,
                               requested_load_bytes=nbytes)
        launch = self.device.launch(table).launches()[0]
        event = TransferEvent(
            src=src, dst=dst, nbytes=nbytes, time_s=launch.time_s, tag=tag
        )
        self.events.append(event)
        tel = get_telemetry()
        if tel is not None and tel.metrics is not None:
            tel.metrics.counter("link_transfers").inc()
            tel.metrics.counter("link_transfer_bytes").inc(nbytes)
        return launch

    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self.events)

    @property
    def total_time_s(self) -> float:
        return sum(e.time_s for e in self.events)
