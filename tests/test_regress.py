"""Regression-gate tests: baselines, flattening, bootstrap CI, perf-diff.

Covers the full gate path: bench JSON -> flatten -> bootstrap comparison ->
markdown/exit code, including the end-to-end ``REPRO_INJECT_SLOWDOWN``
drill that the ``make perf-gate`` acceptance criterion relies on.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.baseline import (
    BASELINE_SCHEMA,
    flatten_metrics,
    load_bench_json,
    make_baseline,
    write_baseline,
)
from repro.cli import main
from repro.core.bc import turbo_bc
from repro.obs.regress import (
    bootstrap_ratio_ci,
    compare_metrics,
    format_report,
    metric_direction,
)
from tests.conftest import random_graph


class TestBaseline:
    def test_round_trip(self, tmp_path):
        doc = make_baseline(
            "t", [{"graph": "a", "runtime_ms": 1.5}], meta={"rev": "x"}
        )
        assert doc["schema"] == BASELINE_SCHEMA
        p = tmp_path / "b.json"
        write_baseline(p, doc)
        assert load_bench_json(p) == doc
        # stable formatting: newline-terminated, key-sorted
        text = p.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_rows_with_to_dict(self, tmp_path):
        class Row:
            def to_dict(self):
                return {"name": "k", "gpu_time_s": 2.0}

        doc = make_baseline("t", [Row()])
        assert doc["rows"] == [{"name": "k", "gpu_time_s": 2.0}]

    def test_load_rejects_non_object(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError):
            load_bench_json(p)


class TestFlatten:
    def test_identity_keyed_lists(self):
        doc = {
            "schema": "x",  # skipped
            "meta": {"rev": "abc"},  # skipped
            "graphs": [
                {
                    "graph": "mawi",
                    "n": 100,
                    "rows": [
                        {"algorithm": "sccsc", "gpu_time_s": 0.5},
                        {"algorithm": "adaptive", "gpu_time_s": 0.25},
                    ],
                },
            ],
        }
        flat = flatten_metrics(doc)
        assert flat["graphs[mawi].rows[sccsc].gpu_time_s"] == [0.5]
        assert flat["graphs[mawi].rows[adaptive].gpu_time_s"] == [0.25]
        assert flat["graphs[mawi].n"] == [100.0]
        assert not any(k.startswith(("schema", "meta")) for k in flat)

    def test_reordered_rows_pair_up(self):
        a = {"rows": [{"name": "x", "v_ms": 1.0}, {"name": "y", "v_ms": 2.0}]}
        b = {"rows": [{"name": "y", "v_ms": 2.0}, {"name": "x", "v_ms": 1.0}]}
        assert flatten_metrics(a) == flatten_metrics(b)

    def test_sample_lists_and_skipped_types(self):
        flat = flatten_metrics({
            "samples_ms": [1.0, 2.0, 3.0],
            "ok": True,  # bool skipped
            "label": "hi",  # string skipped
            "nested": {"count": 4},
        })
        assert flat == {"samples_ms": [1.0, 2.0, 3.0], "nested.count": [4.0]}

    def test_real_bench_adaptive_shape(self):
        """The actual BENCH_adaptive.json payload shape flattens usefully."""
        payload = {
            "min_speedup": 1.15,
            "smoke": False,
            "graphs": [{
                "graph": "mawi", "n": 10, "m": 20, "n_sources": 2,
                "rows": [
                    {"algorithm": "sccsc", "gpu_time_s": 0.5,
                     "kernel_launches": 40},
                    {"algorithm": "adaptive", "gpu_time_s": 0.2,
                     "kernel_launches": 38,
                     "kernel_mix": {"forward": {"sccsc": 3}}},
                ],
                "best_static": "sccsc",
                "speedup_vs_best_static": 2.5,
                "alloc_events": {"one_source": 7, "2_sources": 7},
            }],
            "best_speedup": {"mawi": 2.5},
        }
        flat = flatten_metrics(payload)
        assert "graphs[mawi].rows[adaptive].gpu_time_s" in flat
        assert "graphs[mawi].speedup_vs_best_static" in flat
        assert "best_speedup.mawi" in flat


class TestDirection:
    @pytest.mark.parametrize("name,expected", [
        ("gpu_time_s", "lower"),
        ("runtime_ms", "lower"),
        ("kernel_launches", "lower"),
        ("graphs[mawi].rows[adaptive].gpu_time_s", "lower"),
        ("mteps", "higher"),
        ("speedup_vs_best_static", "higher"),
        ("cases_per_s", "higher"),  # "per_s" must win over "_s"
        ("dram_gbs", "higher"),
        ("occupancy_pct", "higher"),
        ("total_regret_us", "lower"),
        # the mem-telemetry family (DESIGN.md §13): byte peaks, OOM and
        # fallback counts, fragmentation gauges all regress upward
        ("mem_peak_bytes", "lower"),
        ("graphs[mawi].rows[adaptive].mem_peak_bytes", "lower"),
        ("mem_oom_events", "lower"),
        ("mem_arena_fallbacks{reason=fragmented}", "lower"),
        ("mem_arena_holes", "lower"),
        ("mem_arena_frag_ratio", "lower"),
        ("n", "none"),
        ("nnz_frontier", "none"),
    ])
    def test_heuristics(self, name, expected):
        assert metric_direction(name) == expected


class TestBootstrapCI:
    def test_deterministic_pair_is_zero_width(self):
        lo, hi = bootstrap_ratio_ci(np.array([2.0]), np.array([2.0]))
        assert lo == hi == 1.0

    def test_ci_contains_true_ratio(self):
        rng = np.random.default_rng(7)
        old = rng.normal(100.0, 5.0, size=40)
        new = old * 1.5 + rng.normal(0.0, 1.0, size=40)
        lo, hi = bootstrap_ratio_ci(old, new, seed=1)
        assert lo < 1.5 < hi
        assert hi - lo < 0.2  # paired resampling keeps it tight

    def test_seed_reproducible(self):
        old = np.array([1.0, 2.0, 3.0])
        new = np.array([1.1, 2.2, 3.1])
        assert bootstrap_ratio_ci(old, new, seed=5) == bootstrap_ratio_ci(
            old, new, seed=5
        )

    def test_zero_over_zero_is_no_change(self):
        lo, hi = bootstrap_ratio_ci(np.array([0.0]), np.array([0.0]))
        assert lo == hi == 1.0


class TestCompare:
    def test_clean_pair_passes(self):
        flat = {"a.gpu_time_s": [1.0], "b.mteps": [50.0], "n": [5.0]}
        report = compare_metrics(flat, dict(flat))
        assert report.passed
        assert report.regressions == []
        assert {c.verdict for c in report.comparisons} == {"ok", "info"}

    def test_slowdown_is_regression_and_direction_aware(self):
        old = {"gpu_time_s": [1.0], "mteps": [100.0]}
        new = {"gpu_time_s": [2.0], "mteps": [50.0]}
        report = compare_metrics(old, new)
        assert not report.passed
        assert {c.name for c in report.regressions} == {"gpu_time_s", "mteps"}

    def test_speedup_is_improvement(self):
        report = compare_metrics({"gpu_time_s": [2.0]}, {"gpu_time_s": [1.0]})
        assert report.passed
        assert [c.name for c in report.improvements] == ["gpu_time_s"]

    def test_noise_floor_suppresses_small_moves(self):
        report = compare_metrics(
            {"gpu_time_s": [1.0]}, {"gpu_time_s": [1.04]}, noise_floor=0.05
        )
        assert report.passed and not report.improvements
        report = compare_metrics(
            {"gpu_time_s": [1.0]}, {"gpu_time_s": [1.04]}, noise_floor=0.01
        )
        assert not report.passed

    def test_directionless_metrics_never_fail(self):
        report = compare_metrics({"nnz_frontier": [2.0]}, {"nnz_frontier": [64.0]})
        assert report.passed
        assert report.comparisons[0].verdict == "info"

    def test_disjoint_metrics_reported(self):
        report = compare_metrics({"a_ms": [1.0]}, {"b_ms": [1.0]})
        assert report.only_old == ["a_ms"] and report.only_new == ["b_ms"]
        assert report.comparisons == []

    def test_format_report_headline(self):
        report = compare_metrics({"t_ms": [1.0]}, {"t_ms": [3.0]})
        text = format_report(report, old_name="base.json", new_name="new.json")
        assert "**FAIL**" in text and "1 regression(s)" in text
        assert "| `t_ms` | 1 | 3 | 3.000x |" in text
        clean = format_report(compare_metrics({"t_ms": [1.0]}, {"t_ms": [1.0]}))
        assert "**PASS**" in clean


def _run_stats_doc(graph, *, monkeypatch=None, slowdown=None):
    if slowdown is not None:
        monkeypatch.setenv("REPRO_INJECT_SLOWDOWN", slowdown)
    res = turbo_bc(graph, sources=[0, 1], algorithm="adaptive")
    if slowdown is not None:
        monkeypatch.delenv("REPRO_INJECT_SLOWDOWN")
    return {
        "graphs": [{
            "graph": "g",
            "rows": [{
                "algorithm": "adaptive",
                "gpu_time_s": res.stats.gpu_time_s,
                "kernel_launches": res.stats.kernel_launches,
            }],
        }],
    }


class TestInjectedSlowdownGate:
    """The acceptance drill: a modeled 2x slowdown must fail the gate."""

    def test_injected_slowdown_flags_and_clean_stays_green(
        self, tmp_path, monkeypatch, capsys
    ):
        # big enough that in-kernel time is a real share of the total --
        # tiny graphs are pure launch overhead, which the injection leaves
        # alone (as real slow kernel code would)
        g = random_graph(3000, 0.05, directed=False, seed=9)
        base = _run_stats_doc(g)
        clean = _run_stats_doc(g)
        slow = _run_stats_doc(g, monkeypatch=monkeypatch, slowdown="2.0")

        assert clean == base  # the model is deterministic
        assert slow["graphs"][0]["rows"][0]["gpu_time_s"] > (
            base["graphs"][0]["rows"][0]["gpu_time_s"]
        )
        # results must be untouched by the injection -- only the clock moves
        monkeypatch.setenv("REPRO_INJECT_SLOWDOWN", "2.0")
        bc_slow = turbo_bc(g, sources=[0, 1], algorithm="adaptive").bc
        monkeypatch.delenv("REPRO_INJECT_SLOWDOWN")
        bc_base = turbo_bc(g, sources=[0, 1], algorithm="adaptive").bc
        assert np.array_equal(bc_slow, bc_base)

        old_p = tmp_path / "old.json"
        new_p = tmp_path / "new.json"
        report_p = tmp_path / "report.md"
        json_p = tmp_path / "verdict.json"
        old_p.write_text(json.dumps(base))

        # clean pair -> exit 0, PASS
        new_p.write_text(json.dumps(clean))
        assert main(["perf-diff", str(old_p), str(new_p)]) == 0
        assert "**PASS**" in capsys.readouterr().out

        # injected slowdown -> exit 1, the slowed metric named
        new_p.write_text(json.dumps(slow))
        rc = main([
            "perf-diff", str(old_p), str(new_p),
            "--report", str(report_p), "--json", str(json_p),
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "**FAIL**" in out
        assert "gpu_time_s" in out
        verdict = json.loads(json_p.read_text())
        assert verdict["schema"] == "repro.obs/perf-diff/v1"
        assert verdict["passed"] is False
        assert any(
            "gpu_time_s" in c["name"] for c in verdict["regressions"]
        )
        assert "**FAIL**" in report_p.read_text()

    def test_per_kernel_slowdown_syntax(self, monkeypatch):
        g = random_graph(50, 0.15, directed=False, seed=12)
        base = turbo_bc(g, sources=[0], algorithm="veccsc")
        monkeypatch.setenv("REPRO_INJECT_SLOWDOWN", "veccsc_spmv:3.0")
        slow = turbo_bc(g, sources=[0], algorithm="veccsc")
        assert slow.stats.gpu_time_s > base.stats.gpu_time_s
        assert np.array_equal(slow.bc, base.bc)


class TestSlowdownOnStageTables:
    """The slowdown hook scales a named kernel's rows inside a stage table."""

    def test_named_kernel_arms_scale_and_others_stay_bit_identical(self, monkeypatch):
        from repro.gpusim.device import Device
        from repro.graphs.generators.road import road_network_graph

        graph = road_network_graph(24, 24, segments=2, keep_prob=0.8, seed=1)

        def launches(slowdown):
            if slowdown:
                monkeypatch.setenv("REPRO_INJECT_SLOWDOWN", slowdown)
            device = Device()
            monkeypatch.delenv("REPRO_INJECT_SLOWDOWN", raising=False)
            res = turbo_bc(graph, sources=[0, graph.n - 1], algorithm="adaptive",
                           batch_size=1, forward_dtype=np.float64, device=device)
            assert min(res.stats.depth_per_source) >= 40
            return res.bc, device.profiler.launches

        base_bc, base = launches(None)
        slow_bc, slow = launches("tcspmm_spmv:3")
        assert np.array_equal(base_bc, slow_bc)
        assert [ln.name for ln in slow] == [ln.name for ln in base]
        arms = ("compute_time_s", "memory_time_s", "serial_time_s", "mma_time_s")
        scaled = 0
        for b, s in zip(base, slow):
            if b.name == "tcspmm_spmv":
                scaled += 1
                assert [getattr(s, a) for a in arms] == [getattr(b, a) * 3 for a in arms]
                assert (s.link_time_s, s.overhead_s, s.stats) == (
                    b.link_time_s, b.overhead_s, b.stats)
            else:
                assert s == b and s.tag == b.tag and s.time_s.hex() == b.time_s.hex()
        assert scaled > 40


class TestPerfDiffCLI:
    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "a.json"
        p.write_text("{}")
        assert main(["perf-diff", str(p), str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unparseable_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        ok = tmp_path / "ok.json"
        ok.write_text('{"t_ms": 1.0}')
        assert main(["perf-diff", str(bad), str(ok)]) == 2
        assert "could not parse" in capsys.readouterr().err

    def test_disjoint_files_are_usage_error(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text('{"x_ms": 1.0}')
        b = tmp_path / "b.json"
        b.write_text('{"y_ms": 1.0}')
        assert main(["perf-diff", str(a), str(b)]) == 2
        assert "share no numeric metrics" in capsys.readouterr().err
