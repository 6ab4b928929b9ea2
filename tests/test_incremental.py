"""Incremental BC on dynamic graphs (DESIGN.md §14).

The headline claim under test: every ``DynamicBC.update`` chain is
*bit-identical* (``array_equal``, never ``allclose``) to a from-scratch
``turbo_bc`` on the edited graph with the same configuration.  Around it:
the affected-source predicate proven sound against per-source brute force,
the structured zero-affected identities (same-depth insert, non-DAG
delete), the churn and overflow full-recompute fallbacks, graph growth in
both source modes, cache invalidation across edits, and the observability
contract (update spans + ``incremental_sources_*`` counters).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.bc import turbo_bc
from repro.core.incremental import (
    DEFAULT_CHURN_THRESHOLD,
    DynamicBC,
    edit_affected_mask,
)
from repro.formats.convert import canonical_edges
from repro.formats.edits import apply_edge_edits, cooc_apply_edits, csc_apply_edits
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.graph import Graph
from repro.graphs.metrics import scale_free_metric


def _rng(*key):
    return np.random.default_rng(list(key))


def _random_graph(seed: int, n: int = 24, p: float = 0.12, directed: bool = False):
    return erdos_renyi_graph(n, p, seed=seed, directed=directed)


def grid_2d(rows: int, cols: int) -> Graph:
    e = []
    for i in range(rows):
        for j in range(cols):
            v = cols * i + j
            if j < cols - 1:
                e.append((v, v + 1))
            if i < rows - 1:
                e.append((v, v + cols))
    return Graph.from_edges(e, rows * cols, directed=False)


def _k33() -> Graph:
    # Complete bipartite K_{3,3}: sides {0,1,2} and {3,4,5}.
    return Graph.from_edges(
        [(i, 3 + j) for i in range(3) for j in range(3)], 6, directed=False
    )


def assert_bit_identical(handle: DynamicBC, **kwargs) -> None:
    scratch = turbo_bc(handle.graph, **kwargs)
    np.testing.assert_array_equal(handle.bc, scratch.bc)


class TestKeepState:
    def test_keep_state_returns_handle_with_identical_bc(self):
        g = _random_graph(1)
        handle = turbo_bc(g, keep_state=True)
        assert isinstance(handle, DynamicBC)
        np.testing.assert_array_equal(handle.bc, turbo_bc(g).bc)
        assert handle.churn_threshold == DEFAULT_CHURN_THRESHOLD

    def test_keep_state_rejects_internal_capture(self):
        with pytest.raises(ValueError):
            turbo_bc(_random_graph(1), keep_state=True, _capture=object())

    def test_empty_update_is_pure_refold(self):
        g = _random_graph(2)
        handle = turbo_bc(g, keep_state=True)
        before = handle.bc.copy()
        res = handle.update()
        np.testing.assert_array_equal(res.bc, before)
        assert res.stats.update_mode == "incremental"
        assert res.stats.affected_sources == 0
        assert res.stats.skipped_sources == g.n

    def test_explicit_sources_subset(self):
        g = _random_graph(3, directed=True)
        srcs = [0, 5, 9, 17]
        handle = turbo_bc(g, sources=srcs, keep_state=True)
        handle.update(edges_added=[(0, 7)], edges_removed=[(2, 3)])
        assert_bit_identical(handle, sources=srcs)


class TestAffectedPredicate:
    """Soundness: a source the mask clears must have an unchanged
    single-source BC vector on the edited graph, bit for bit."""

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sound_against_brute_force(self, directed, seed):
        g = _random_graph(seed, n=20, p=0.15, directed=directed)
        rng = _rng(7, seed, int(directed))
        handle = turbo_bc(g, keep_state=True)
        # One random insert and one random delete, no growth.
        u, v = int(rng.integers(0, g.n)), int(rng.integers(0, g.n))
        if u == v:
            v = (v + 1) % g.n
        pairs = list(zip(g.src.tolist(), g.dst.tolist()))
        ru, rv = pairs[int(rng.integers(0, len(pairs)))]
        levels = np.stack([handle._states[s].levels for s in handle._order])
        sigma = np.stack([handle._states[s].sigma for s in handle._order])
        mask = edit_affected_mask(levels, sigma, "add", u, v, directed=directed)
        mask |= edit_affected_mask(levels, sigma, "remove", ru, rv,
                                   directed=directed)
        edited = g.apply_edits(added=[(u, v)], removed=[(ru, rv)])
        for i, s in enumerate(handle._order):
            if mask[i]:
                continue
            old = turbo_bc(g, sources=[s]).bc
            new = turbo_bc(edited, sources=[s]).bc
            np.testing.assert_array_equal(
                old, new,
                err_msg=f"predicate cleared source {s} but its BC moved",
            )

    def test_same_depth_insert_affects_zero_sources(self):
        # From any opposite-side source both endpoints of a same-side edge
        # sit at depth 1, so the insert cannot enter any shortest path.
        g = _k33()
        srcs = [3, 4, 5]
        handle = turbo_bc(g, sources=srcs, keep_state=True)
        res = handle.update(edges_added=[(0, 1)])
        assert res.stats.update_mode == "incremental"
        assert res.stats.affected_sources == 0
        assert res.stats.skipped_sources == len(srcs)
        assert_bit_identical(handle, sources=srcs)

    def test_non_dag_delete_affects_zero_sources(self):
        # The same-side edge is in no opposite-side source's BFS DAG
        # (|du - dv| == 0), so deleting it back out affects nobody.
        g = _k33().apply_edits(added=[(0, 1)])
        srcs = [3, 4, 5]
        handle = turbo_bc(g, sources=srcs, keep_state=True)
        res = handle.update(edges_removed=[(0, 1)])
        assert res.stats.update_mode == "incremental"
        assert res.stats.affected_sources == 0
        assert_bit_identical(handle, sources=srcs)

    def test_self_loop_edit_affects_zero_sources(self):
        g = _random_graph(4)
        handle = turbo_bc(g, keep_state=True)
        res = handle.update(edges_added=[(3, 3)])
        assert res.stats.affected_sources == 0
        np.testing.assert_array_equal(res.bc, turbo_bc(g).bc)


class TestUpdateIdentity:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("batch", [1, 4])
    def test_chain_matches_from_scratch(self, directed, batch):
        g = _random_graph(10, n=26, p=0.12, directed=directed)
        rng = _rng(11, int(directed), batch)
        handle = turbo_bc(g, algorithm="adaptive", batch_size=batch,
                          keep_state=True)
        for _ in range(3):
            pairs = list(zip(handle.graph.src.tolist(),
                             handle.graph.dst.tolist()))
            rem = [pairs[int(rng.integers(0, len(pairs)))]] if pairs else []
            u = int(rng.integers(0, handle.graph.n))
            v = int(rng.integers(0, handle.graph.n))
            add = [(u, v)] if u != v else []
            handle.update(edges_added=add, edges_removed=rem)
            assert_bit_identical(handle, algorithm="adaptive", batch_size=batch)

    def test_remove_then_add_same_edges_is_noop(self):
        g = _random_graph(12)
        edges = list(zip(g.src.tolist(), g.dst.tolist()))[:5]
        handle = turbo_bc(g, keep_state=True)
        before = handle.bc.copy()
        res = handle.update(edges_added=edges, edges_removed=edges)
        np.testing.assert_array_equal(res.bc, before)
        assert handle.graph.m == g.m

    def test_churn_fallback_is_full_recompute(self):
        g = grid_2d(5, 5)
        handle = turbo_bc(g, keep_state=True)
        # A hub wired to everything affects (nearly) every source.
        res = handle.update(edges_added=[(0, v) for v in range(2, g.n)])
        assert res.stats.update_mode == "full"
        assert res.stats.affected_sources == g.n
        assert res.stats.skipped_sources == 0
        assert_bit_identical(handle)

    def test_churn_threshold_is_tunable(self):
        g = grid_2d(4, 4)
        handle = turbo_bc(g, keep_state=True)
        handle.churn_threshold = 0.0  # any affected source now trips it
        res = handle.update(edges_added=[(0, 15)])
        assert res.stats.update_mode == "full"
        assert_bit_identical(handle)

    def test_growth_all_sources_mode(self):
        g = _random_graph(13, n=18)
        handle = turbo_bc(g, keep_state=True)
        res = handle.update(edges_added=[(17, 18), (18, 19)])
        assert handle.graph.n == 20
        assert res.bc.size == 20
        assert res.stats.sources == 20  # new vertices joined the source set
        assert_bit_identical(handle)

    def test_growth_explicit_sources_mode(self):
        g = _random_graph(14, n=18)
        srcs = [0, 1, 2]
        handle = turbo_bc(g, sources=srcs, keep_state=True)
        res = handle.update(edges_added=[(17, 19)])
        assert handle.graph.n == 20
        assert res.stats.sources == len(srcs)  # the source set does not grow
        assert_bit_identical(handle, sources=srcs)


class TestOverflowRegime:
    """Sigma overflow forces dtype promotion; the retained fold order is
    then dtype-mixed, so updates must full-recompute -- bit-identically."""

    @pytest.mark.parametrize("batch", [1, 4])
    def test_volatile_handle_full_recomputes(self, batch):
        from repro.conformance.fuzzer import diamond_chain

        g = diamond_chain(34)  # sigma 2^34 overflows int32/f32 exact range
        handle = turbo_bc(g, sources=[0, 1], batch_size=batch, keep_state=True)
        assert handle._volatile_dtype
        res = handle.update(edges_removed=[(0, 1)])
        assert res.stats.update_mode == "full"
        assert_bit_identical(handle, sources=[0, 1], batch_size=batch)

    def test_update_triggered_promotion_goes_volatile(self):
        from repro.conformance.fuzzer import diamond_chain

        # Sever the chain at the middle diamond (both parallel branches,
        # or sigma merely halves): source 0 then counts at most 2^17 paths
        # and the handle starts non-volatile.  Re-adding the two branch
        # edges reconnects the 2^34-path graph and the sub-run promotes to
        # float64 -- the handle must notice and go volatile.
        g = diamond_chain(34)
        entry = 3 * 17
        cuts = [(entry, entry + 1), (entry, entry + 2)]
        broken = g.apply_edits(removed=cuts)
        handle = turbo_bc(broken, sources=[0], keep_state=True)
        assert not handle._volatile_dtype
        handle.update(edges_added=cuts)
        assert handle._volatile_dtype
        assert_bit_identical(handle, sources=[0])


class TestCacheInvalidation:
    """Edits must never let identity-keyed caches serve stale answers."""

    def test_apply_edits_bumps_cache_version(self):
        g = _random_graph(20)
        g2 = g.apply_edits(added=[(0, 9)])
        assert g2 is not g
        assert g2.cache_version == g.cache_version + 1
        g3 = g2.apply_edits(removed=[(0, 9)])
        assert g3.cache_version == g2.cache_version + 1

    def test_edited_graph_gets_fresh_format_objects_and_tile_plans(self):
        g = _random_graph(21)
        csc = g.to_csc()
        plan = csc.tile_plan(16)
        g2 = g.apply_edits(added=[(0, 11)])
        csc2 = g2.to_csc()
        assert csc2 is not csc
        assert csc2.version == csc.version + 1
        assert csc2.tile_plan(16) is not plan
        # The old object's memo is untouched (it still describes the old graph).
        assert csc.tile_plan(16) is plan

    def test_scf_memo_cannot_leak_across_edits(self):
        g = grid_2d(4, 4)
        scf = scale_free_metric(g)
        assert getattr(g, "_scf_cache", None) == scf
        g2 = g.apply_edits(added=[(0, v) for v in range(2, 16)])
        assert not hasattr(g2, "_scf_cache")
        assert scale_free_metric(g2) != scf

    @pytest.mark.parametrize("script", [
        "add-and-remove", "remove-absent", "add-present", "remove-and-re-add",
        "grow-n", "out-of-range-removal", "remove-all-of-a-column",
    ])
    def test_format_level_edits_match_graph_rebuild(self, script):
        g = _random_graph(22, directed=True)
        stored = np.column_stack([g.src, g.dst])
        dense = g.to_csc().to_dense()
        absent = next([u, v] for u in range(g.n) for v in range(g.n)
                      if u != v and not dense[u, v])
        added, removed = {
            "add-and-remove": ([[0, 13], [5, 2]], stored[:1]),
            "remove-absent": ([[0, 13]], [absent]),
            "add-present": (stored[3:5], stored[7:8]),
            "remove-and-re-add": (stored[2:4], stored[2:4]),
            "grow-n": ([[g.n + 6, 1], [2, g.n]], stored[-2:]),
            "out-of-range-removal": ([[1, 2]], [[g.n + 40, 0], [0, 2**40]]),
            "remove-all-of-a-column": ([], stored[g.dst == g.dst[0]]),
        }[script]
        added, removed = np.array(added).reshape(-1, 2), np.array(removed).reshape(-1, 2)
        g2 = g.apply_edits(added=added, removed=removed)
        csc2 = csc_apply_edits(g.to_csc(), added, removed)
        cooc2 = cooc_apply_edits(g.to_cooc(), added, removed)
        ref_csc, ref_cooc = g2.to_csc(), g2.to_cooc()
        np.testing.assert_array_equal(csc2.col_ptr, ref_csc.col_ptr)
        np.testing.assert_array_equal(csc2.row, ref_csc.row)
        np.testing.assert_array_equal(cooc2.row, ref_cooc.row)
        np.testing.assert_array_equal(cooc2.col, ref_cooc.col)

    def test_apply_edge_edits_resorts_canonically(self):
        src = np.array([4, 0, 2], dtype=np.int64)
        dst = np.array([1, 3, 2], dtype=np.int64)
        out_src, out_dst, n = apply_edge_edits(
            src, dst, 5, added=np.array([[0, 1], [0, 1]]),
            removed=np.array([[2, 2], [9, 9]]),
        )
        # Sorted by (dst, src), deduped, self-loop dropped, out-of-range
        # removal ignored.
        assert n == 5
        assert list(zip(out_src.tolist(), out_dst.tolist())) == [
            (0, 1), (4, 1), (0, 3)]


def _rebuilt(src, dst, n, added, removed, drop):
    """The edited edge list built from scratch: a set of arcs, then
    ``canonical_edges``."""
    arcs = set(zip(np.asarray(src).tolist(), np.asarray(dst).tolist()))
    arcs -= {tuple(e) for e in np.asarray(removed).reshape(-1, 2).tolist()}
    arcs |= {tuple(e) for e in np.asarray(added).reshape(-1, 2).tolist()}
    n = max([n] + [max(u, v) + 1 for u, v in arcs])
    src, dst = (np.array([e[i] for e in arcs], dtype=np.int64) for i in (0, 1))
    return (*canonical_edges(src, dst, n, drop_self_loops=drop), n)


class TestEdgeSplice:
    """``apply_edge_edits`` splices edits into the canonical order; its
    arrays equal a rebuild of the edited edge list from scratch."""

    @pytest.mark.parametrize("drop", [True, False])
    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_scripts_match_rebuild(self, seed, canonical, drop):
        rng = _rng(seed, canonical, drop)
        n = int(rng.integers(2, 30))
        src, dst = rng.integers(0, n, 80), rng.integers(0, n, 80)
        if canonical:
            src, dst = canonical_edges(src, dst, n, drop_self_loops=drop)
        for _ in range(4):
            k = int(rng.integers(0, 6))
            stored = np.column_stack([src, dst])
            removed = np.concatenate([
                stored[rng.integers(0, max(stored.shape[0], 1), k)] if stored.size
                else np.zeros((0, 2), dtype=np.int64),
                rng.integers(0, n + 3, (k, 2)),        # mostly absent, some out of range
            ])
            added = np.concatenate([
                rng.integers(0, n + 2, (k, 2)),       # may grow n or add a self-loop
                removed[: k // 2],                    # removed and re-added
                stored[: k // 2],                     # already present
            ])
            want = _rebuilt(src, dst, n, added, removed, drop)
            got = apply_edge_edits(src, dst, n, added, removed, drop_self_loops=drop)
            assert got[2] == want[2]
            for a, b in zip(got[:2], want[:2]):
                assert a.dtype == np.int32 and np.array_equal(a, b)
            src, dst, n = got

    @pytest.mark.parametrize("drop", [True, False])
    @pytest.mark.parametrize("added,removed", [
        ([], [[3, 0]]),                 # remove an absent arc
        ([[1, 0]], []),                 # add a present arc
        ([[1, 0]], [[1, 0]]),           # remove and re-add a present arc
        ([[2, 1]], [[2, 1]]),           # remove and add an absent arc
        ([[2, 2]], []),                 # add a self-loop
        ([], [[9, 9], [0, 2**40]]),     # out-of-range removals
        ([[7, 2]], []),                 # grow n
    ])
    def test_named_edits_match_rebuild(self, added, removed, drop):
        src, dst = np.array([1, 2, 0], dtype=np.int32), np.array([0, 0, 1], dtype=np.int32)
        got = apply_edge_edits(src, dst, 3, np.array(added).reshape(-1, 2),
                               np.array(removed).reshape(-1, 2), drop_self_loops=drop)
        want = _rebuilt(src, dst, 3, added, removed, drop)
        assert got[2] == want[2]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("arc", [[2**31, 0], [0, 2**31], [2**32 + 1, 1]])
    def test_added_id_past_int32_raises(self, arc):
        src, dst = np.array([1], dtype=np.int32), np.array([0], dtype=np.int32)
        with pytest.raises(ValueError, match="too large for int32"):
            apply_edge_edits(src, dst, 2, np.array([arc]), np.zeros((0, 2)))


class TestObservability:
    def test_update_metrics_and_spans(self, tmp_path):
        g = grid_2d(5, 4)
        tel = obs.RunTelemetry(trace=True)
        obs.activate(tel)
        try:
            handle = turbo_bc(g, keep_state=True)
            res = handle.update(edges_added=[(0, 7)])
        finally:
            tel.tracer.finish()
            obs.deactivate()
        counters = tel.metrics.to_dict()["counters"]
        assert counters["incremental_updates"] == 1
        assert (counters["incremental_sources_rerun"]
                == res.stats.affected_sources)
        assert (counters["incremental_sources_skipped"]
                == res.stats.skipped_sources)
        out = tmp_path / "trace.json"
        obs.write_chrome_trace(out, tel)
        import json

        doc = json.load(open(out))
        events = doc["traceEvents"] if isinstance(doc, dict) else doc
        names = {e.get("name") for e in events}
        assert "bc_update" in names
        assert "affected_scan" in names

    def test_stats_dict_carries_update_fields(self):
        g = grid_2d(4, 4)
        handle = turbo_bc(g, keep_state=True)
        res = handle.update(edges_added=[(0, 10)])
        d = res.stats.to_dict()
        assert d["update_mode"] in ("incremental", "full")
        assert d["affected_sources"] + d["skipped_sources"] == d["sources"]
        # A plain from-scratch run does not grow the new keys.
        assert "update_mode" not in turbo_bc(g).stats.to_dict()


@pytest.mark.dynamic
@pytest.mark.slow
class TestScaling:
    def test_single_edit_on_10k_graph_is_incremental_and_fast(self):
        # Two G(n, p) components: a ~9k bulk and a ~1k island.  An edit
        # inside the island can only affect island sources, so the bulk's
        # 60-source share of the work is skipped entirely.
        bulk = erdos_renyi_graph(9000, 0.0004, seed=100)
        island = erdos_renyi_graph(1000, 0.004, seed=101)
        src = np.concatenate([bulk.src, island.src + bulk.n])
        dst = np.concatenate([bulk.dst, island.dst + bulk.n])
        g = Graph(src, dst, bulk.n + island.n, directed=False)
        sources = list(range(60)) + [bulk.n + i for i in range(4)]

        handle = turbo_bc(g, sources=sources, algorithm="adaptive",
                          batch_size=4, keep_state=True)
        u = bulk.n + 10
        v = bulk.n + 500
        res = handle.update(edges_added=[(u, v)])

        assert res.stats.update_mode == "incremental"
        assert res.stats.affected_sources < 0.3 * len(sources)
        scratch = turbo_bc(g.apply_edits(added=[(u, v)]), sources=sources,
                           algorithm="adaptive", batch_size=4)
        np.testing.assert_array_equal(res.bc, scratch.bc)
        assert scratch.stats.gpu_time_s >= 2.0 * res.stats.gpu_time_s
