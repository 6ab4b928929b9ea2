"""Tests of the benchmark itself, on seconds-scale variants of each workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, tracer, workloads  # noqa: E402

WORKLOADS = sorted(inputs.SPECS)
LAYERS = ("graphs.read", "graphs.build", "formats.convert", "spmv", "gpusim",
          "core.dispatch", "core.frontier", "core.driver", "core.incremental", "obs")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, tmp_path, *, trace, seed=5, **kwargs):
    script = inputs.generate(workload, seed, tmp_path / workload, small=True)
    runner = workloads.Runner(script, 0.2, trace, time.monotonic(), **kwargs)
    runner.run()
    return runner


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    a = inputs.generate(workload, 11, tmp_path / "a", small=True)["digests"]
    b = inputs.generate(workload, 11, tmp_path / "b", small=True)["digests"]
    c = inputs.generate(workload, 12, tmp_path / "c", small=True)["digests"]
    assert a == b
    assert a["graph.txt"] != c["graph.txt"]
    assert a["script.json"] != c["script.json"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    runner = _run(workload, tmp_path, trace=False)
    assert runner.failed == 0, runner.messages
    metrics = runner.end_to_end()
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    for name, (value, unit, _, _) in metrics.items():
        assert value is not None and value > 0, name
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v[1] for k, v in metrics.items()} == units
    # each host time is scaled by the calibration samples around it
    cal = runner.calibration
    assert len(cal.samples) >= 2
    assert max(runner.query_k) <= len(cal.samples) - 1  # a sample follows every op
    scaled = [x * cal.factor_near(k) for x, k in zip(runner.query_s, runner.query_k)]
    assert metrics["query_s"][0] == pytest.approx(np.median(scaled))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_modeled_metrics_repeat_exactly(workload, tmp_path):
    first = _run(workload, tmp_path / "1", trace=False).end_to_end()
    second = _run(workload, tmp_path / "2", trace=False).end_to_end()
    for name in ("model_gpu_s", "device_peak_bytes"):
        assert first[name][0] == second[name][0], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_covers_every_layer_and_is_removed(workload, tmp_path):
    runner = _run(workload, tmp_path, trace=True)
    # the run itself checks traced bc == untraced bc bit for bit
    assert runner.failed == 0, runner.messages
    for layer in LAYERS:
        assert runner.tracer.calls[layer] > 0, layer
    assert sorted(runner.per_layer()) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for owner, attr, _, _ in tracer._targets():
        assert not hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)
    from repro.core import context

    for table in (context._ADAPTIVE_SPMV, context._ADAPTIVE_SPMM, context._STATIC_SPMV):
        assert not any(hasattr(fn, "__wrapped__") for fn in table.values())


def test_traced_bc_is_bit_identical_and_bound_names_are_intercepted():
    from repro import turbo_bc
    from repro.graphs.generators.road import road_network_graph

    graph = road_network_graph(6, 6, segments=2, seed=3)
    plain = turbo_bc(graph, sources=[0, 5, 9], algorithm="adaptive")
    with tracer.Tracer() as t:
        traced = turbo_bc(graph, sources=[0, 5, 9], algorithm="adaptive")
    assert traced.bc.tobytes() == plain.bc.tobytes()
    # reached only through names bound at import time
    assert t.calls["core.forward.bfs_forward"] == 3
    assert t.calls["spmv"] > 0 and t.calls["gpusim"] > 0
    assert t.sources_requested == 3 and t.forward_passes >= 3


def test_perturbed_result_counts_as_failed(tmp_path):
    runner = _run("edit-stream", tmp_path, trace=False, perturb_first=True)
    assert runner.failed == 1
    assert any("differs from brandes_bc" in m for m in runner.messages)
    assert runner.end_to_end()["ok_frac"][0] < 1.0


def test_checks():
    a = np.array([1.0, 2.0, 3.0])
    assert workloads.check_close(a + 1e-9, a) is None
    assert workloads.check_close(a * 1.01, a) is not None
    assert workloads.check_identical(a.copy(), a) is None
    assert workloads.check_identical(np.nextafter(a, 9), a) is not None


def test_oracle_answers_and_leaves_no_process():
    with workloads.Oracle() as oracle:
        first = oracle.submit(sum, [1, 2])
        second = oracle.submit(divmod, 7, 2)
        failing = oracle.submit(int, "x")
        assert second() == (3, 1)
        assert first() == 3 and first() == 3
        with pytest.raises(ValueError):
            failing()
        assert oracle(len, "abc") == 3
        pid = oracle._proc.pid
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)  # stopped and reaped
    children = Path(f"/proc/self/task/{os.getpid()}/children")
    if children.exists():
        assert children.read_text().split() == []


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-road", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
