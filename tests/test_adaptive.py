"""Adaptive per-level dispatch, the device arena, and the bugfix sweep.

Covers the PR 4 surface: golden-corpus bit-identity of ``algorithm="adaptive"``
against every static kernel, dispatch decisions surfacing as span attributes,
flat allocator traffic under the arena, the vectorized ``bfs_levels`` gather,
the ``approximate_bc(k == n)`` degeneration, and worst-case batch admission
for the int32 overflow re-run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc
from repro.conformance.golden import ATOL, RTOL, iter_golden
from repro.core.approx import approximate_bc
from repro.core.bc import _auto_batch_size, select_algorithm, turbo_bc
from repro.core.dispatch import STRATEGIES, AdaptiveDispatcher
from repro.graphs.graph import Graph
from repro.graphs.metrics import bfs_levels
from repro.gpusim.device import Device, DeviceSpec
from repro.obs import telemetry as obs
from repro.perf.memory_model import (
    turbobc_arena_slab_bytes,
    turbobc_batched_footprint_bytes,
    turbobc_batched_footprint_words,
)
from tests.conftest import assert_bc_close, random_graph

GOLDEN = list(iter_golden())
STATIC = list(STRATEGIES)


def doubling_ladder(layers: int = 32) -> Graph:
    """Root plus ``layers`` levels of 2 vertices, complete bipartite between
    consecutive levels: sigma at level k is ``2**(k-1)``, so a BFS from the
    root overflows int32 at level 32 while n stays tiny (``2*layers + 1``).
    """
    edges = [(0, 1), (0, 2)]
    for k in range(1, layers):
        a, b = 2 * k - 1, 2 * k
        for u in (a, b):
            for v in (a + 2, b + 2):
                edges.append((u, v))
    return Graph.from_edges(edges, 2 * layers + 1, directed=False)


class TestAdaptiveGolden:
    """Tentpole: adaptive must be *bit-identical* to the static kernels.

    The edgecsc thread-per-edge kernel reduces over column-major order like
    sccsc's bincount, so switching kernels mid-traversal cannot move a bit.
    """

    @pytest.mark.parametrize("name,graph,expected", GOLDEN,
                             ids=[g[0] for g in GOLDEN])
    def test_matches_stored_vectors(self, name, graph, expected):
        bc = turbo_bc(graph, algorithm="adaptive").bc
        np.testing.assert_allclose(bc, expected, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("name,graph,expected", GOLDEN,
                             ids=[g[0] for g in GOLDEN])
    def test_bit_identical_to_static_kernels(self, name, graph, expected, batch):
        adaptive = turbo_bc(graph, algorithm="adaptive", batch_size=batch).bc
        for kernel in STATIC:
            static = turbo_bc(graph, algorithm=kernel, batch_size=batch).bc
            assert np.array_equal(adaptive, static), (
                f"{name}: adaptive/b{batch} diverges bitwise from {kernel}"
            )

    @pytest.mark.parametrize("directed", [True, False])
    def test_random_graphs_vs_brandes(self, directed):
        g = random_graph(48, 0.09, directed=directed, seed=7)
        res = turbo_bc(g, algorithm="adaptive", batch_size="auto")
        assert_bc_close(res.bc, brandes_bc(g), rtol=1e-6, atol=1e-9)

    def test_select_algorithm_mode(self, small_undirected):
        algo = select_algorithm(small_undirected, mode="adaptive")
        assert algo.name == "adaptive"
        with pytest.raises(ValueError):
            select_algorithm(small_undirected, mode="nope")


class TestDispatchObservability:
    def test_level_spans_carry_kernel_choice(self, small_undirected):
        with obs.session() as tel:
            turbo_bc(small_undirected, sources=[0], algorithm="adaptive")
        (run,) = [r for r in tel.roots if r.name == "bc_run"]
        levels = [s for s in run.walk() if s.name == "level"]
        assert levels, "adaptive run recorded no level spans"
        forward = [s for s in levels if "forward_kernel" in s.attrs]
        backward = [s for s in levels if "backward_kernel" in s.attrs]
        assert forward and backward
        for sp in forward + backward:
            kernel = sp.attrs.get("forward_kernel", sp.attrs.get("backward_kernel"))
            assert kernel in STRATEGIES
            assert sp.attrs["nnz_frontier"] >= 1
            assert 0.0 < sp.attrs["frontier_frac"] <= 1.0

    def test_dispatcher_records_every_launch(self, small_directed):
        g = small_directed
        disp = AdaptiveDispatcher(g.to_csc(), Device().spec)
        x = np.zeros(g.n, dtype=np.int32)
        x[0] = 1
        allowed = x == 0
        kernel = disp.choose_forward(x, allowed)
        assert kernel in STRATEGIES
        (dec,) = disp.decisions
        assert dec.stage == "forward" and dec.kernel == kernel
        assert set(dec.est_us) == set(STRATEGIES)
        assert all(v > 0.0 for v in dec.est_us.values())
        assert dec.kernel == min(dec.est_us, key=dec.est_us.get)
        assert set(disp.kernel_mix()) <= set(STRATEGIES)

    def test_decision_depths_across_batched_chunks(self):
        """A chunk of isolated sources makes one forward level and no
        backward, so the next chunk's forward numbers its levels on from
        that level (the decision log's sequential launch index), and its
        backward from 1.  Each decision holds the chosen kernel's time."""
        path = Graph.from_edges([(i, i + 1) for i in range(5)], n=8, directed=False)
        with obs.session() as tel:
            turbo_bc(path, sources=[6, 7, 0, 5], algorithm="adaptive", batch_size=2)
        got = [(d.stage, d.depth, d.kernel) for d in tel.dispatch_decisions]
        assert got == (
            [("forward", 1, "sccooc")]
            + [("forward", d, "sccooc") for d in range(2, 6)]
            + [("forward", 6, "pullcsc"), ("forward", 7, "sccsc")]
            + [("backward", d, "sccooc") for d in range(1, 5)]
        )
        assert all(set(d.measured_us) == {d.kernel} for d in tel.dispatch_decisions)


class TestArenaAccounting:
    """Satellite: one slab per run -- allocator traffic flat in #sources."""

    def _memory_events(self, graph, n_sources, batch):
        with obs.session() as tel:
            turbo_bc(graph, sources=list(range(n_sources)),
                     algorithm="adaptive", batch_size=batch)
        return len(tel.memory_timeline)

    @pytest.mark.parametrize("batch", [1, 4])
    def test_events_flat_in_source_count(self, small_undirected, batch):
        counts = {k: self._memory_events(small_undirected, k, batch)
                  for k in (1, 4, 8)}
        assert len(set(counts.values())) == 1, (
            f"alloc/free events grow with source count: {counts}"
        )

    def test_arena_counters_exported(self, small_undirected):
        with obs.session() as tel:
            turbo_bc(small_undirected, sources=[0, 1], algorithm="adaptive")
        assert tel.metrics.counter("arena_carves").value >= 4
        assert tel.metrics.counter("arena_reuses").value >= 1

    def test_slab_model_matches_paper_accounting(self, small_undirected):
        g = small_undirected
        res = turbo_bc(g, sources=list(range(4)), algorithm="adaptive",
                       batch_size=1, forward_dtype=np.int32)
        fixed = 4 * (turbobc_batched_footprint_words(g.n, g.m, 1, "csc")
                     - 5 * g.n)
        slab = turbobc_arena_slab_bytes(g.n, 1)
        assert res.stats.peak_memory_bytes == fixed + slab

    def test_static_kernels_share_the_arena(self, small_undirected):
        # The arena is wired into the context, not the adaptive mode: the
        # static kernels get the same flat allocator profile.
        with obs.session() as tel:
            turbo_bc(small_undirected, sources=[0, 1, 2], algorithm="sccsc")
        with obs.session() as tel1:
            turbo_bc(small_undirected, sources=[0], algorithm="sccsc")
        assert len(tel.memory_timeline) == len(tel1.memory_timeline)


class TestBfsLevelsHub:
    """Satellite: the vectorized gather on hub-dominated graphs.

    The old per-vertex Python loop made each level O(frontier) interpreter
    iterations; correctness is asserted here (timing is modeled, not
    wall-clock, so the regression guard is the vectorized code path itself
    exercised on the shapes that were slow: huge frontiers off one hub).
    """

    def _reference_levels(self, graph, source):
        from collections import deque

        adj = [[] for _ in range(graph.n)]
        for u, v in zip(graph.src, graph.dst):
            adj[int(u)].append(int(v))
            if not graph.directed:
                adj[int(v)].append(int(u))
        level = [-1] * graph.n
        level[source] = 0
        q = deque([source])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return np.asarray(level, dtype=np.int64)

    def test_star_hub_and_leaf(self):
        g = Graph.from_edges([(0, i) for i in range(1, 6)], 6, directed=False)
        np.testing.assert_array_equal(bfs_levels(g, 0), [0, 1, 1, 1, 1, 1])
        np.testing.assert_array_equal(bfs_levels(g, 3), [1, 2, 2, 0, 2, 2])

    def test_wide_hub_layers(self):
        # Hub -> 400 leaves -> a second hub: one gather spans 400 segments.
        edges = [(0, i) for i in range(1, 401)]
        edges += [(i, 401) for i in range(1, 401)]
        g = Graph.from_edges(edges, 402, directed=False)
        got = bfs_levels(g, 0)
        np.testing.assert_array_equal(got, self._reference_levels(g, 0))
        assert got[401] == 2

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("directed", [True, False])
    def test_random_vs_reference(self, seed, directed):
        g = random_graph(60, 0.07, directed=directed, seed=seed)
        for source in (0, 17, 59):
            np.testing.assert_array_equal(
                bfs_levels(g, source), self._reference_levels(g, source)
            )

    def test_isolated_source(self):
        g = Graph.from_edges([(0, 1)], 3, directed=False)
        np.testing.assert_array_equal(bfs_levels(g, 2), [-1, -1, 0])


class TestApproxExhaustive:
    """Satellite: ``n_pivots == n`` degenerates to the exact computation."""

    @pytest.mark.parametrize("algorithm", [*STATIC, "adaptive"])
    def test_bit_identical_to_exact(self, small_undirected, algorithm):
        exact = turbo_bc(small_undirected, algorithm=algorithm)
        approx = approximate_bc(small_undirected, small_undirected.n,
                                algorithm=algorithm)
        assert np.array_equal(approx.bc, exact.bc)

    @pytest.mark.parametrize("batch", [1, 4, "auto"])
    def test_bit_identical_across_batches(self, small_directed, batch):
        exact = turbo_bc(small_directed, batch_size=batch)
        approx = approximate_bc(small_directed, small_directed.n,
                                batch_size=batch)
        assert np.array_equal(approx.bc, exact.bc)

    def test_subsample_still_rescales(self, small_undirected):
        res = approximate_bc(small_undirected, 5, seed=3)
        assert res.bc.shape == (small_undirected.n,)
        assert res.stats.sources == 5

    def test_telemetry_propagates(self, small_undirected):
        with obs.session() as tel:
            res = approximate_bc(small_undirected, small_undirected.n)
        assert res.telemetry is tel


class TestOverflowBatchAdmission:
    """Satellite: ``batch_size="auto"`` sizes against the float64 re-run."""

    def test_ladder_overflows_int32(self):
        g = doubling_ladder()
        from repro.core.forward import SigmaOverflowError

        with pytest.raises(SigmaOverflowError):
            turbo_bc(g, sources=[0], forward_dtype=np.int32)

    def test_worst_case_sizing_is_tighter(self):
        g = doubling_ladder()
        cap = turbobc_batched_footprint_bytes(g.n, g.m, 2, "csc", np.float64, np.float64)
        dev = Device(DeviceSpec(global_memory_bytes=cap))
        naive = _auto_batch_size(g, dev, 8, "csc", np.int32, np.float32)
        worst = _auto_batch_size(g, dev, 8, "csc", np.float64, np.float64)
        assert worst == 2
        assert naive > worst, (
            "int32/float32 sizing admits no more lanes than float64 -- the "
            "worst-case guard would be vacuous on this graph"
        )

    def test_rerun_fits_at_admitted_batch(self):
        # The admitted B must leave room for the sequential float64 re-run:
        # on a device sized to exactly the worst-case B=2 footprint, the
        # forced overflow re-run completes and matches the oracle.
        g = doubling_ladder()
        cap = turbobc_batched_footprint_bytes(g.n, g.m, 2, "csc", np.float64, np.float64)
        dev = Device(DeviceSpec(global_memory_bytes=cap))
        res = turbo_bc(g, sources=[0, 1, 2, 3], device=dev,
                       batch_size="auto", forward_dtype="auto")
        assert res.stats.batch_size == 2
        assert res.stats.rerun_sources == [0]
        ref = turbo_bc(g, sources=[0, 1, 2, 3], forward_dtype=np.float64,
                       backward_dtype=np.float64)
        assert_bc_close(res.bc, ref.bc, rtol=1e-6, atol=1e-9)

    def test_explicit_batch_admission_boundary(self):
        g = doubling_ladder()
        from repro.gpusim.memory import DeviceOutOfMemoryError

        # The B=2 int32/float32 working set and the B=1 float64 re-run both
        # cost matrix + 44n bytes: admitting the batch guarantees the re-run
        # fits.  At exactly that capacity the forced-overflow run completes;
        # one byte less and admission rejects it up front.
        batch_need = turbobc_batched_footprint_bytes(g.n, g.m, 2, "csc", np.int32, np.float32)
        rerun_need = turbobc_batched_footprint_bytes(g.n, g.m, 1, "csc", np.float64,
                                                     np.float64)
        assert batch_need == rerun_need
        dev = Device(DeviceSpec(global_memory_bytes=batch_need))
        res = turbo_bc(g, sources=[0, 1], device=dev, batch_size=2,
                       forward_dtype="auto")
        assert res.stats.rerun_sources == [0]
        tight = Device(DeviceSpec(global_memory_bytes=batch_need - 1))
        with pytest.raises(DeviceOutOfMemoryError):
            turbo_bc(g, sources=[0, 1], device=tight, batch_size=2,
                     forward_dtype="auto")

    def test_rerun_matches_unconstrained_run(self):
        g = doubling_ladder()
        res = turbo_bc(g, batch_size=4, forward_dtype="auto")
        assert res.stats.rerun_sources  # the root lane overflowed
        assert_bc_close(res.bc, brandes_bc(g), rtol=1e-6, atol=1e-9)


class TestDecisionTable:
    """A planned stage's decisions are one table; the DispatchDecision rows
    built from it equal those of per-level ``decide`` + ``record_measured``."""

    def test_planned_stages_equal_per_level_decisions(self, monkeypatch):
        from repro.core import levels as L
        from repro.core.backward import accumulate_dependencies
        from repro.core.context import TurboBCContext
        from repro.core.forward import bfs_forward
        from repro.graphs.generators.road import road_network_graph

        graph = road_network_graph(12, 12, segments=1, keep_prob=0.9, seed=3)
        stages = []  # (stage, each level's exact operands), in launch order
        launch = L.SpmvLevels.launch

        def recording(self, body, tags, head=None):
            stages.append((self.stage, [self.operands(k) for k in range(len(tags))]))
            return launch(self, body, tags, head)

        monkeypatch.setattr(L.SpmvLevels, "launch", recording)
        ctx = TurboBCContext(Device(), graph, "adaptive", forward_dtype=np.float64)
        fwd = bfs_forward(ctx, 0)
        accumulate_dependencies(ctx, fwd)
        ctx.release_source()
        bfs_forward(ctx, graph.n - 1)
        got = ctx.dispatcher.decisions

        ref = TurboBCContext(Device(), graph, "adaptive", forward_dtype=np.float64)
        for stage, operands in stages:
            for x, allowed in operands:
                decision = ref.dispatcher.decide(stage, 0, x, allowed)
                _, launched = ref._entry(Device(), stage, decision.kernels[0], x, allowed)
                ref.dispatcher.record_measured(decision, np.array([launched.exec_time_s]))
        want = ref.dispatcher.decisions
        assert [s for s, _ in stages] == ["forward", "backward", "forward"]
        assert [(d.stage, d.depth, d.kernel) for d in got] == [
            (d.stage, d.depth, d.kernel) for d in want]
        assert {d.kernel for d in got} >= {"tcspmm"}  # priced levels are in the sequence
        for g, w in zip(got, want):
            assert g == w and g.span_attrs() == w.span_attrs()
            for mine, theirs in ((g.est_us, w.est_us), (g.measured_us, w.measured_us)):
                assert list(mine.items()) == list(theirs.items())
                assert [type(v) for v in mine.values()] == [type(v) for v in theirs.values()]
            assert list(g.measured_us) == [g.kernel]
            assert all(type(v) is float for v in g.measured_us.values())

    def test_stage_without_levels_records_and_reports_nothing(self):
        from repro.core.backward import accumulate_dependencies
        from repro.core.context import TurboBCContext
        from repro.core.forward import bfs_forward

        graph = Graph.from_edges([(0, 1)], n=3, directed=False)
        ctx = TurboBCContext(Device(), graph, "adaptive")
        with obs.session() as tel:
            delta = accumulate_dependencies(ctx, bfs_forward(ctx, 2))  # isolated source
        assert not delta.any()
        assert [(d.stage, d.depth) for d in ctx.dispatcher.decisions] == [("forward", 1)]
        (backward,) = [s for root in tel.roots for s in root.find("backward")]
        assert not backward.children and backward.gpu_time_s == 0.0

    def test_estimate_tie_goes_to_the_first_kernel(self):
        from repro.core.dispatch import DecisionTable

        est = {"sccooc": np.array([2.0, 1.0, 5.0]), "sccsc": np.array([1.0, 1.0, 5.0]),
               "veccsc": np.array([1.0, 3.0, 5.0])}
        stats = np.full((4, 3), 3)
        table = DecisionTable("forward", 1, est, stats, 1, 10)
        rows = [dict(zip(est, r)) for r in zip(*(v.tolist() for v in est.values()))]
        assert table.kernels == [min(r, key=r.get) for r in rows] == [
            "sccsc", "sccooc", "sccooc"]
        assert [d.kernel for d in table.rows()] == table.kernels
        assert [d.depth for d in table.rows()] == [1, 2, 3]


class TestNoPerLevelObjects:
    """With no telemetry session a per-source stage builds no per-level
    KernelStats, KernelLaunch or DispatchDecision objects."""

    def test_deep_run_builds_objects_only_for_entry_point_levels(self, monkeypatch):
        from repro.core.dispatch import DispatchDecision
        from repro.gpusim.kernel import KernelLaunch, KernelStats
        from repro.graphs.generators.road import road_network_graph

        # the benchmark's deep road grid, where the tables price nearly every level
        graph = road_network_graph(60, 60, segments=2, keep_prob=0.8, seed=1)
        built = {cls: 0 for cls in (KernelStats, KernelLaunch, DispatchDecision)}
        for cls in built:
            def counting(self, *args, __init=cls.__init__, __cls=cls, **kwargs):
                built[__cls] += 1
                __init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        sources = [0, graph.n // 2, graph.n - 1]
        device = Device()
        res = turbo_bc(graph, sources=sources, algorithm="adaptive", batch_size=1,
                       forward_dtype=np.float64, device=device)
        counts = dict(built)
        monkeypatch.undo()
        with obs.session(trace=False, metrics=False) as tel:
            turbo_bc(graph, sources=sources, algorithm="adaptive", batch_size=1,
                     forward_dtype=np.float64)
        levels = len(tel.dispatch_decisions)
        # entry-point levels: those whose product the level tables do not price
        unpriced = sum(d.kernel != "tcspmm" for d in tel.dispatch_decisions)
        assert levels > 100 and unpriced < levels // 10
        assert min(res.stats.depth_per_source) >= 100
        assert counts[DispatchDecision] == 0
        # one bc fold launch per source, and one stats record per entry-point level
        assert counts[KernelLaunch] == len(sources)
        assert counts[KernelStats] == len(sources) + unpriced
        assert device.profiler.total_launches() == res.stats.kernel_launches > 3 * levels
