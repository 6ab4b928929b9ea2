"""Performance-attribution tests: counters, roofline, dispatch audit, report.

The invariant under test everywhere: the attribution layer only *reads*
the launch records the timing model produced -- counter values must equal
the model's own closed-form terms, every launch must classify into exactly
one bound class, and the audit machinery must never perturb the run it
observes (parity is covered in test_obs.py).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs, turbo_bc
from repro.core.dispatch import DispatchDecision
from repro.gpusim.device import TITAN_XP, Device
from repro.gpusim.kernel import KernelStats
from repro.gpusim.warp import WARP_SIZE
from repro.obs.audit import audit_dispatch, launch_drift
from repro.obs.counters import counters_for_launch
from repro.obs.roofline import (
    classify_launch,
    peak_gflops,
    roofline_for_launch,
    roofline_report,
)
from repro.spmv import _spmm as M
from repro.spmv.sccsc import _cost as sccsc_cost, sccsc_spmv
from tests.conftest import random_graph


@pytest.fixture(autouse=True)
def no_leaked_session():
    yield
    leaked = obs.get_telemetry()
    obs.deactivate()
    assert leaked is None


class TestCounters:
    def test_counters_match_closed_form_stats(self):
        """Counter values ARE the timing model's terms on a known kernel."""
        g = random_graph(60, 0.15, directed=False, seed=5)
        csc = g.to_csc()
        dev = Device()
        x = np.zeros(g.n, dtype=np.int32)
        x[0] = 1
        allowed = np.ones(g.n, dtype=bool)
        y, launch = sccsc_spmv(dev, csc, x, allowed=allowed)
        expected = sccsc_cost(
            csc, M.product(csc, x, batched=False, allowed=allowed, need="lanes written"),
            "sccsc_spmv", dev.spec.l2_bytes,
        )
        c = counters_for_launch(launch, dev.spec)
        assert c.dram_read_bytes == expected.dram_read_bytes
        assert c.dram_write_bytes == expected.dram_write_bytes
        assert c.requested_load_bytes == expected.requested_load_bytes
        assert c.flops == expected.flops
        assert c.warp_cycles == expected.warp_cycles
        assert c.threads == expected.threads == g.n
        assert c.warps == -(-g.n // WARP_SIZE)

    def test_occupancy_and_rates(self):
        dev = Device()
        stats = KernelStats(
            name="k", threads=1000, warp_cycles=320, dram_read_bytes=3200,
            dram_write_bytes=1600, requested_load_bytes=6400, flops=100,
        )
        launch = dev.launch(stats)
        c = counters_for_launch(launch, dev.spec)
        assert c.occupancy == pytest.approx(1000 / dev.spec.max_resident_threads)
        assert c.dram_gbs == pytest.approx(4800 / launch.exec_time_s / 1e9)
        assert c.glt_gbs == pytest.approx(6400 / launch.exec_time_s / 1e9)
        assert c.gflops == pytest.approx(100 / launch.exec_time_s / 1e9)
        assert c.dram_bytes == 4800

    def test_occupancy_saturates_at_one(self):
        dev = Device()
        launch = dev.launch(KernelStats(name="big", threads=10**7, warp_cycles=1))
        assert counters_for_launch(launch, dev.spec).occupancy == 1.0

    def test_no_spec_means_zero_occupancy(self):
        dev = Device()
        launch = dev.launch(KernelStats(name="k", threads=64, warp_cycles=4))
        assert counters_for_launch(launch).occupancy == 0.0

    def test_divergence_is_critical_over_mean(self):
        dev = Device()
        # 2 warps, 100 total cycles -> mean 50; critical warp 80 -> 1.6
        launch = dev.launch(KernelStats(
            name="k", threads=64, warp_cycles=100, critical_warp_cycles=80,
        ))
        c = counters_for_launch(launch, dev.spec)
        assert c.warp_divergence == pytest.approx(1.6)
        assert c.atomic_conflicts == 0


class TestRoofline:
    def _launch(self, dev, **kw):
        return dev.launch(KernelStats(name=kw.pop("name", "k"), **kw))

    def test_classifies_bandwidth_bound(self):
        dev = Device()
        launch = self._launch(dev, dram_read_bytes=100 << 20, warp_cycles=10,
                              threads=1 << 20)
        assert classify_launch(launch) == "bandwidth"
        assert launch.is_memory_bound

    def test_classifies_compute_bound(self):
        dev = Device()
        launch = self._launch(dev, warp_cycles=10**9, dram_read_bytes=32,
                              threads=1 << 20)
        assert classify_launch(launch) == "compute"

    def test_classifies_latency_bound(self):
        dev = Device()
        launch = self._launch(dev, serial_updates=10**6, warp_cycles=10,
                              dram_read_bytes=32, threads=64)
        assert launch.serial_time_s > launch.memory_time_s
        assert classify_launch(launch) == "latency"

    def test_classifies_overhead_bound(self):
        dev = Device()
        assert classify_launch(dev.sync_readback()) == "overhead"
        tiny = self._launch(dev, warp_cycles=1, threads=32)
        assert classify_launch(tiny) == "overhead"

    def test_attained_never_exceeds_ceiling(self):
        dev = Device()
        rng = np.random.default_rng(0)
        for _ in range(50):
            wc = int(rng.integers(1, 10**7))
            launch = self._launch(
                dev,
                warp_cycles=wc,
                dram_read_bytes=32 * int(rng.integers(1, 10**5)),
                # a warp issue moves at most 32 lane-flops, so this is the
                # physical flop ceiling the model's 'by construction' relies on
                flops=int(rng.integers(0, wc * WARP_SIZE + 1)),
                threads=int(rng.integers(32, 10**6)),
            )
            lr = roofline_for_launch(launch, dev.spec)
            assert lr.attained_gflops <= lr.ceiling_gflops * (1 + 1e-9)
            assert 0.0 <= lr.attained_frac <= 1.0 + 1e-9
            assert lr.bw_frac <= 1.0 + 1e-9

    def test_report_attributes_all_time(self):
        """The acceptance criterion: >= 95% of GPU time classified."""
        g = random_graph(80, 0.1, directed=False, seed=2)
        dev = Device()
        turbo_bc(g, sources=[0, 1, 2], algorithm="adaptive", device=dev)
        rep = roofline_report(dev.profiler.launches, dev.spec)
        assert rep.total_time_s == pytest.approx(dev.profiler.total_time_s())
        assert rep.classified_frac >= 0.95
        assert sum(rep.bound_time_s.values()) == pytest.approx(rep.total_time_s)
        assert sum(k.launches for k in rep.kernels.values()) == len(
            dev.profiler.launches
        )
        # JSON-able end to end
        import json

        json.dumps(rep.to_dict())

    def test_peak_gflops_formula(self):
        assert peak_gflops(TITAN_XP) == pytest.approx(30 * 128 * 1.58)


class TestDispatchAudit:
    def _decision(self, kernel, est, measured, stage="forward", depth=1):
        return DispatchDecision(
            stage=stage, depth=depth, kernel=kernel, nnz_frontier=10,
            frontier_frac=0.1, avg_deg_active=2.0, max_deg_allowed=4,
            est_us=est, measured_us=measured,
        )

    def test_regret_detected_from_measured_times(self):
        d = self._decision(
            "sccsc",
            {"sccsc": 5.0, "veccsc": 9.0, "sccooc": 10.0},
            {"sccsc": 8.0, "veccsc": 3.0, "sccooc": 12.0},
        )
        audit = audit_dispatch([d])
        assert audit.measured_complete
        assert len(audit.regrets) == 1
        r = audit.regrets[0]
        assert r.chosen == "sccsc" and r.fastest == "veccsc"
        assert r.regret_us == pytest.approx(5.0)
        assert audit.regret_frac == 1.0

    def test_no_regret_when_chosen_is_fastest(self):
        d = self._decision(
            "veccsc",
            {"sccsc": 5.0, "veccsc": 2.0, "sccooc": 10.0},
            {"sccsc": 6.0, "veccsc": 2.5, "sccooc": 11.0},
        )
        audit = audit_dispatch([d])
        assert audit.regrets == []
        assert audit.calibration["veccsc"].drift == pytest.approx(2.5 / 2.0)

    def test_estimate_only_decisions_have_no_false_regret(self):
        """Without replays the chosen kernel is the est argmin -- no regret."""
        d = self._decision(
            "sccsc",
            {"sccsc": 5.0, "veccsc": 9.0, "sccooc": 10.0},
            {"sccsc": 8.0},  # only the chosen kernel measured
        )
        audit = audit_dispatch([d])
        assert not audit.measured_complete
        assert audit.regrets == []
        assert audit.calibration["sccsc"].measured_total_us == 8.0

    def test_level_mix_matches_dispatcher(self):
        g = random_graph(60, 0.12, directed=False, seed=8)
        dev = Device()
        with obs.session() as tel:
            turbo_bc(g, sources=[0, 1], algorithm="adaptive", device=dev)
        audit = audit_dispatch(tel.dispatch_decisions)
        # the audit's mix re-derives exactly the dispatcher's kernel_mix
        total = {}
        for mix in audit.level_mix.values():
            for k, v in mix.items():
                total[k] = total.get(k, 0) + v
        assert sum(total.values()) == len(tel.dispatch_decisions)
        assert set(audit.level_mix) <= {"forward", "backward"}

    def test_empty_audit(self):
        audit = audit_dispatch([])
        assert audit.regret_frac == 0.0
        assert audit.to_dict()["decisions"] == 0


class TestLaunchDrift:
    def test_serial_floor_shows_as_drift(self):
        dev = Device()
        fast = dev.launch(KernelStats(name="plain", threads=1 << 20,
                                      dram_read_bytes=1 << 20, warp_cycles=100))
        slow = dev.launch(KernelStats(name="atomic", threads=1 << 20,
                                      dram_read_bytes=1 << 20, warp_cycles=100,
                                      serial_updates=10**6))
        rows = launch_drift([fast, slow])
        assert rows[0].name == "atomic" and rows[0].drift > 1.0
        assert rows[1].name == "plain" and rows[1].drift == pytest.approx(1.0)

    def test_overhead_only_launches_skipped(self):
        dev = Device()
        dev.sync_readback()
        assert launch_drift(dev.profiler.launches) == []


class TestPerfReport:
    def test_report_renders_all_sections(self):
        g = random_graph(70, 0.12, directed=False, seed=4)
        dev = Device()
        with obs.session(audit_dispatch=True) as tel:
            turbo_bc(g, sources=[0, 1], algorithm="adaptive", device=dev)
        text = obs.perf_report_for_run(dev, tel, title="t")
        assert "## Roofline attribution" in text
        assert "## Adaptive dispatch audit" in text
        assert "## Calibration drift" in text
        assert "measured (all strategies replayed)" in text
        assert "level mix (forward)" in text

    def test_report_without_adaptive_run(self):
        g = random_graph(40, 0.1, directed=False, seed=6)
        dev = Device()
        with obs.session() as tel:
            turbo_bc(g, sources=0, algorithm="veccsc", device=dev)
        text = obs.perf_report_for_run(dev, tel)
        assert "no dispatch decisions recorded" in text

    def test_cli_perf_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.md"
        js = tmp_path / "report.json"
        rc = main([
            "perf-report", "mycielskian15", "--sources", "2",
            "--out", str(out), "--json", str(js),
        ])
        assert rc == 0
        text = out.read_text()
        assert "## Roofline attribution" in text
        assert "attributed to a bound class" in text
        import json

        doc = json.loads(js.read_text())
        assert doc["schema"] == "repro.obs/perf-report/v1"
        assert doc["roofline"]["classified_frac"] >= 0.95
        assert doc["dispatch_audit"]["measured_complete"] is True
        assert "perf-report" in capsys.readouterr().out
