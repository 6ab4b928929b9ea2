"""Device, kernel timing model and profiler tests."""

import pytest

from repro.gpusim.device import TITAN_XP
from repro.gpusim.errors import InvalidKernelError
from repro.gpusim.kernel import KernelLaunch, KernelStats


class TestSpec:
    def test_titan_xp_parameters(self):
        assert TITAN_XP.num_sms == 30
        assert TITAN_XP.cores_per_sm == 128
        assert TITAN_XP.global_memory_bytes == 12196 * 2**20
        assert TITAN_XP.theoretical_glt_gbs == 575.0

    def test_warp_issue_rate(self):
        expected = 30 * 4 * 1.58e9
        assert TITAN_XP.warp_issue_rate == pytest.approx(expected)

    def test_spec_is_frozen(self):
        with pytest.raises(Exception):
            TITAN_XP.num_sms = 10


class TestKernelStats:
    def test_rejects_negative_counters(self):
        with pytest.raises(InvalidKernelError):
            KernelStats(name="k", warp_cycles=-1)

    def test_dram_bytes_sums_read_write(self):
        s = KernelStats(name="k", dram_read_bytes=10, dram_write_bytes=5)
        assert s.dram_bytes == 15

    def test_merge_accumulates(self):
        a = KernelStats(name="k", threads=10, warp_cycles=5, dram_read_bytes=32)
        b = KernelStats(name="other", threads=20, warp_cycles=7, dram_write_bytes=64)
        m = a.merge(b)
        assert m.name == "k"
        assert m.threads == 20
        assert m.warp_cycles == 12
        assert m.dram_bytes == 96


class TestTimingModel:
    def test_compute_bound_kernel(self, device):
        cycles = int(TITAN_XP.warp_issue_rate)  # exactly 1 s of issue
        launch = device.launch(KernelStats(name="k", warp_cycles=cycles))
        assert launch.compute_time_s == pytest.approx(1.0)
        assert not launch.is_memory_bound

    def test_memory_bound_kernel(self, device):
        gb = int(TITAN_XP.dram_bandwidth_gbs * 1e9)
        launch = device.launch(KernelStats(name="k", dram_read_bytes=gb))
        assert launch.memory_time_s == pytest.approx(1.0)
        assert launch.is_memory_bound

    def test_roofline_takes_max(self, device):
        s = KernelStats(
            name="k",
            warp_cycles=int(TITAN_XP.warp_issue_rate),       # 1 s compute
            dram_read_bytes=int(TITAN_XP.dram_bandwidth_gbs * 1e9 * 2),  # 2 s memory
        )
        launch = device.launch(s)
        assert launch.exec_time_s == pytest.approx(2.0)

    def test_launch_overhead_added(self, device):
        launch = device.launch(KernelStats(name="empty"))
        assert launch.time_s == pytest.approx(TITAN_XP.kernel_launch_overhead_us * 1e-6)

    def test_glt_can_exceed_dram_bandwidth(self, device):
        """Requested (SM-side) load bytes can beat the DRAM roofline -- the
        paper's Figure 5b shows TurboBC's kernels above the 575 GB/s line."""
        gb = int(TITAN_XP.dram_bandwidth_gbs * 1e9)
        s = KernelStats(
            name="k", dram_read_bytes=gb, requested_load_bytes=3 * gb
        )
        launch = device.launch(s)
        assert launch.glt_bytes_per_s / 1e9 > TITAN_XP.theoretical_glt_gbs

    def test_glt_zero_time(self):
        launch = KernelLaunch(
            stats=KernelStats(name="k"), compute_time_s=0, memory_time_s=0, overhead_s=0
        )
        assert launch.glt_bytes_per_s == 0.0

    def test_sync_readback_cost(self, device):
        launch = device.sync_readback()
        assert launch.time_s == pytest.approx(TITAN_XP.sync_readback_us * 1e-6)

    def test_reset_clears_everything(self, device):
        device.memory.alloc("x", 100, "int32")
        device.launch(KernelStats(name="k"))
        device.reset()
        assert device.memory.used_bytes == 0
        assert device.profiler.total_launches() == 0


class TestProfiler:
    def test_total_time_accumulates(self, device):
        device.launch(KernelStats(name="a"))
        device.launch(KernelStats(name="b"))
        expected = 2 * TITAN_XP.kernel_launch_overhead_us * 1e-6
        assert device.profiler.total_time_s() == pytest.approx(expected)

    def test_summary_aggregates_by_name(self, device):
        device.launch(KernelStats(name="a", dram_read_bytes=32))
        device.launch(KernelStats(name="a", dram_read_bytes=64))
        device.launch(KernelStats(name="b"))
        s = device.profiler.summary("a")
        assert s.launches == 2
        assert s.dram_bytes == 96

    def test_summary_unknown_kernel(self, device):
        with pytest.raises(KeyError):
            device.profiler.summary("nope")

    def test_summaries_sorted_hottest_first(self, device):
        device.launch(KernelStats(name="cold"))
        device.launch(KernelStats(name="hot", warp_cycles=10**9))
        names = [s.name for s in device.profiler.summaries()]
        assert names[0] == "hot"

    def test_report_renders(self, device):
        device.launch(KernelStats(name="spmv", dram_read_bytes=1 << 20))
        report = device.profiler.report()
        assert "spmv" in report and "GLT" in report

    def test_kernel_names_in_first_seen_order(self, device):
        device.launch(KernelStats(name="b"))
        device.launch(KernelStats(name="a"))
        device.launch(KernelStats(name="b"))
        assert device.profiler.kernel_names() == ["b", "a"]


class TestLaunchTable:
    """A stage's launches timed as one table equal the same launches made one
    by one: every record, the running clock bit for bit, the aggregates."""

    @staticmethod
    def _mixed():
        import numpy as np

        from repro.core import frontier as FK
        from repro.gpusim.device import readbacks
        from repro.gpusim.kernel import LINK, LaunchTable

        streaming = FK.delta_u_costs(3_000, np.array([5, 0, 170]), np.array([2, 0, 31]))
        tensor = LaunchTable.from_stats([KernelStats(
            name="tcspmm_spmv", threads=96, warp_cycles=4_321, dram_read_bytes=8_192,
            dram_write_bytes=64, requested_load_bytes=9_000, serial_updates=40_000,
            critical_warp_cycles=700, flops=55, mma_ops=12_345)], ["d=2"])
        link = LaunchTable.of("link_transfer", kind=LINK, tag="xfer",
                              dram_read_bytes=80_000, requested_load_bytes=80_000)
        table = LaunchTable.cat([streaming, tensor, readbacks(4, 2, "d=3"), link])
        table.tags = ["d=1", "d=1", "d=2", "d=2", "d=3", "d=3", "xfer"]
        return table

    @staticmethod
    def _devices():
        """Two devices whose clocks already ran a launch, to seed the fold."""
        from repro.gpusim.device import Device

        devices = Device(), Device()
        for device in devices:
            device.launch(KernelStats(name="warmup", warp_cycles=7, dram_read_bytes=96))
        return devices

    @staticmethod
    def _one_by_one(table, device):
        from repro.gpusim.kernel import KERNEL, LINK
        from repro.gpusim.link import Link

        for stats, kind, tag in zip(table, table.kinds.tolist(), table.tags):
            if kind == KERNEL:
                device.launch(stats, tag=tag)
            elif kind == LINK:
                Link(device).transfer(stats.dram_read_bytes, tag=tag)
            else:
                device.sync_readback(words=stats.dram_read_bytes // 4, tag=tag)

    @staticmethod
    def _reference_arms(stats, kind):
        """The launch-by-launch timing model on Python numbers."""
        from repro.gpusim.kernel import KERNEL, LINK
        from repro.gpusim.warp import MMA_FLOPS_PER_OP

        spec = TITAN_XP
        if kind != KERNEL:
            link = stats.dram_read_bytes / (spec.link_bandwidth_gbs * 1e9) if kind == LINK else 0.0
            overhead = spec.link_latency_s if kind == LINK else spec.sync_readback_us * 1e-6
            return 0.0, 0.0, 0.0, 0.0, link, overhead
        return (
            stats.warp_cycles / spec.warp_issue_rate,
            stats.dram_bytes / (spec.dram_bandwidth_gbs * 1e9),
            max(stats.serial_updates * spec.atomic_serialization_s,
                stats.critical_warp_cycles / (spec.clock_ghz * 1e9)),
            stats.mma_ops * MMA_FLOPS_PER_OP / (spec.mma_tflops * 1e12) if stats.mma_ops else 0.0,
            0.0,
            spec.kernel_launch_overhead_us * 1e-6,
        )

    def test_one_call_equals_launch_by_launch(self):
        got, want = self._devices()
        got.launch(self._mixed())
        self._one_by_one(self._mixed(), want)
        fields = ("stats", "compute_time_s", "memory_time_s", "overhead_s", "serial_time_s",
                  "mma_time_s", "link_time_s", "tag")
        assert len(got.profiler.launches) == len(want.profiler.launches) == 8
        for a, b in zip(got.profiler.launches, want.profiler.launches):
            assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
            assert a.time_s.hex() == b.time_s.hex()
        launches = got.profiler.launches
        for ln, kind in zip(launches[1:], self._mixed().kinds.tolist()):
            assert self._reference_arms(ln.stats, kind) == (
                ln.compute_time_s, ln.memory_time_s, ln.serial_time_s, ln.mma_time_s,
                ln.link_time_s, ln.overhead_s)
        assert launches[4].mma_time_s > 0 and launches[7].link_time_s > 0
        assert [ln.name for ln in launches[5:7]] == ["sync_readback"] * 2
        # the running clock is the launch-by-launch left fold, bit for bit
        assert got.profiler.total_time_s().hex() == want.profiler.total_time_s().hex()
        assert got.profiler.total_launches() == 8
        assert got.profiler.kernel_names() == want.profiler.kernel_names() == [
            "warmup", "delta_u", "tcspmm_spmv", "sync_readback", "link_transfer"]
        assert got.profiler.summaries() == want.profiler.summaries()

    def test_negative_count_names_kernel_and_field(self):
        import numpy as np

        from repro.gpusim.kernel import LaunchTable

        with pytest.raises(InvalidKernelError, match="bad: serial_updates must be non-negative"):
            LaunchTable.of("bad", flops=np.array([3, -1]), serial_updates=-2)
        table = LaunchTable.cat([LaunchTable.of("ok", warp_cycles=np.array([1, 2])),
                                 LaunchTable.of("bad", flops=np.array([3, 4]))])
        table.counts[3, 7] = -1  # a negative count set after construction
        with pytest.raises(InvalidKernelError, match="bad: flops must be non-negative"):
            table.check()
        with pytest.raises(InvalidKernelError, match="k: flops must be non-negative"):
            KernelStats(name="k", flops=-3)

    def test_mma_product_past_int64_priced_as_python_ints(self):
        import numpy as np

        from repro.gpusim.device import Device
        from repro.gpusim.kernel import LaunchTable
        from repro.gpusim.warp import MMA_FLOPS_PER_OP

        mma_ops = [2**62 + 12_345, 2**53 + 1, 3]
        assert mma_ops[0] * MMA_FLOPS_PER_OP > 2**63
        device = Device()
        device.launch(LaunchTable.of("tc", mma_ops=np.array(mma_ops)))
        for ln, ops in zip(device.profiler.launches, mma_ops):
            assert ln.mma_time_s == ops * MMA_FLOPS_PER_OP / (TITAN_XP.mma_tflops * 1e12) > 0
