"""Conformance subsystem: fuzzer determinism, the config registry, the
delta-debugging shrink, metamorphic oracles, the golden corpus, and the
headline demonstration -- an injected off-by-one in a scratch kernel copy
is caught with a shrunk counterexample of <= 10 vertices."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc
from repro.conformance import (
    METAMORPHIC_ORACLES,
    ExecutionConfig,
    FuzzCase,
    GraphFuzzer,
    bless_golden,
    check_golden,
    default_configs,
    diamond_chain,
    filter_configs,
    golden_dir,
    load_golden_case,
    run_conformance,
    shrink_counterexample,
)
from repro.conformance.harness import counterexample_graph
from repro.conformance.oracles import check_sigma_doubling
from repro.graphs.graph import Graph
from repro.spmv import KERNEL_NAMES


def _graphs_equal(a: Graph, b: Graph) -> bool:
    return (a.n == b.n and a.directed == b.directed
            and np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst))


class TestFuzzer:
    def test_case_is_deterministic_in_seed_and_index(self):
        for i in (0, 3, 17, 31):
            a, b = GraphFuzzer(7).case(i), GraphFuzzer(7).case(i)
            assert a.recipe == b.recipe
            assert a.sources == b.sources
            assert _graphs_equal(a.graph, b.graph)

    def test_case_independent_of_budget(self):
        stream = list(GraphFuzzer(3).cases(20))
        for i in (0, 5, 19):
            assert _graphs_equal(stream[i].graph, GraphFuzzer(3).case(i).graph)

    def test_different_seeds_differ(self):
        a = [GraphFuzzer(0).case(i).graph for i in range(16)]
        b = [GraphFuzzer(1).case(i).graph for i in range(16)]
        assert any(not _graphs_equal(x, y) for x, y in zip(a, b))

    def test_adversarial_coverage(self):
        """A modest budget must hit every adversarial feature class."""
        cases = list(GraphFuzzer(0).cases(64))
        recipes = " ".join(c.recipe for c in cases)
        for tag in ("selfloops", "dupedges", "isolated", "dropedges"):
            assert tag in recipes, f"no case exercised {tag}"
        assert any(c.graph.directed for c in cases)
        assert any(not c.graph.directed for c in cases)
        # Disconnected instances (isolated vertices or dropped edges).
        assert any(c.graph.n > 0 and len(
            np.union1d(c.graph.src, c.graph.dst)) < c.graph.n for c in cases)

    def test_source_sampling_policy(self):
        for c in GraphFuzzer(0).cases(48):
            if c.graph.n <= 16:
                assert c.sources is None
                assert c.source_list == list(range(c.graph.n))
            else:
                assert c.sources is not None
                assert len(c.sources) <= 8
                assert all(0 <= s < c.graph.n for s in c.sources)

    def test_diamond_chain_sigma(self):
        g = diamond_chain(3)
        assert g.n == 10 and not g.directed
        from repro.core.bfs import turbo_bfs
        assert int(turbo_bfs(g, 0).sigma[g.n - 1]) == 8

    def test_diamond_chain_rejects_negative(self):
        with pytest.raises(ValueError):
            diamond_chain(-1)


class TestConfigRegistry:
    def test_covers_every_execution_axis(self):
        configs = default_configs()
        names = {c.name for c in configs}
        assert len(names) == len(configs) == 24
        # the scheduler axis: cost-model and round-robin placements both
        # present among the multi-GPU entries
        scheds = {c.axes.get("scheduler") for c in configs
                  if c.axes.get("gpus", 1) > 1}
        assert scheds == {"cost", "roundrobin"}
        for kernel in (*KERNEL_NAMES, "adaptive"):
            for batch in (1, 4, "auto"):
                assert f"{kernel}/b{batch}" in names
        for kernel in ("pullcsc", "tcspmm"):
            for batch in (1, 4):
                assert f"{kernel}/b{batch}" in names
        by_axes = [c.axes for c in configs]
        assert any(a.get("gpus", 1) > 1 for a in by_axes)
        assert any(a.get("telemetry") for a in by_axes)
        assert "sequential" in names

    def test_configs_agree_on_a_small_graph(self):
        g = Graph.from_edges([(i, i + 1) for i in range(5)], 6, directed=False)
        want = brandes_bc(g)
        for config in default_configs():
            got = config.run(g, None)
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9,
                                       err_msg=config.name)

    def test_filter_substring_and_glob(self):
        configs = default_configs()
        assert [c.name for c in filter_configs(configs, ["veccsc"])] == [
            "veccsc/b1", "veccsc/b4", "veccsc/bauto", "veccsc/b4/gpus3"]
        assert [c.name for c in filter_configs(configs, ["*/b1"])] == [
            "sccooc/b1", "sccsc/b1", "veccsc/b1", "adaptive/b1",
            "pullcsc/b1", "tcspmm/b1"]
        assert [c.name for c in filter_configs(configs, ["adaptive*"])] == [
            "adaptive/b1", "adaptive/b4", "adaptive/bauto",
            "adaptive/b1/solve", "adaptive/b4/gpus4"]
        assert filter_configs(configs, None) == list(configs)
        assert filter_configs(configs, ["nosuchconfig"]) == []


class TestShrink:
    def test_minimizes_to_the_triggering_core(self):
        # Predicate: the graph contains a vertex of degree >= 3.  Planted in
        # a star-4 buried inside a 30-vertex path; the shrink must strip the
        # path and return (close to) the claw alone.
        e = [(i, i + 1) for i in range(29)] + [(30, 31), (30, 32), (30, 33)]
        g = Graph.from_edges(e, 34, directed=False)

        def has_claw(graph: Graph) -> bool:
            if graph.n == 0:
                return False
            deg = np.bincount(graph.src, minlength=graph.n)
            return bool(deg.max(initial=0) >= 3)

        shrunk = shrink_counterexample(g, has_claw)
        assert has_claw(shrunk)
        assert shrunk.n <= 4

    def test_returns_input_when_predicate_fails(self):
        g = Graph.from_edges([(0, 1)], 2, directed=False)
        assert shrink_counterexample(g, lambda _: False) is g

    def test_respects_budget(self):
        calls = 0

        def predicate(graph: Graph) -> bool:
            nonlocal calls
            calls += 1
            return True

        g = Graph.from_edges([(i, i + 1) for i in range(19)], 20,
                             directed=False)
        shrink_counterexample(g, predicate, max_checks=10)
        assert calls <= 10 + 4  # budget + one bounded pass per chunk size


# -- the headline acceptance test: a scratch kernel copy with an injected
#    off-by-one must be caught and shrunk to <= 10 vertices ------------------


def _scratch_bc(graph: Graph, sources=None, *, skip_deepest_level=False):
    """A scratch level-synchronous copy of the BC kernel (pure python).

    With ``skip_deepest_level=True`` the backward sweep starts one level
    short -- the classic off-by-one a hand-copied kernel picks up -- so the
    deepest frontier never propagates its dependency upward.
    """
    n = graph.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
        adj[u].append(v)
    src_list = range(n) if sources is None else [int(s) for s in sources]
    bc = np.zeros(n)
    for s in src_list:
        level = np.full(n, -1)
        sigma = np.zeros(n)
        level[s], sigma[s] = 0, 1.0
        frontier, d = [s], 0
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if level[v] == -1:
                        level[v] = d + 1
                        nxt.append(v)
                    if level[v] == d + 1:
                        sigma[v] += sigma[u]
            frontier, d = nxt, d + 1
        max_level = d - 1
        delta = np.zeros(n)
        start = max_level - 1 if skip_deepest_level else max_level
        for depth in range(start, 0, -1):
            for v in range(n):
                if level[v] != depth - 1:
                    continue
                for w in adj[v]:
                    if level[w] == depth:
                        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
        delta[s] = 0.0
        bc += delta
    if not graph.directed:
        bc /= 2.0
    return bc


def _buried_bug_case() -> FuzzCase:
    # A 12-vertex path (where the off-by-one bites) welded to a 7-clique of
    # noise: 19 vertices in, so an unshrunk counterexample would fail the
    # <= 10 bound.
    e = [(i, i + 1) for i in range(11)]
    e += [(12 + i, 12 + j) for i in range(7) for j in range(i + 1, 7)]
    e += [(11, 12)]
    g = Graph.from_edges(e, 19, directed=False)
    return FuzzCase(index=0, recipe="buried-path", graph=g, sources=None)


class TestInjectedBug:
    def test_scratch_copy_without_the_bug_conforms(self):
        ok_config = ExecutionConfig(
            name="scratch/fixed",
            runner=lambda g, s=None: _scratch_bc(g, s),
        )
        report = run_conformance(
            [ok_config], cases=[_buried_bug_case()],
            kernel_checks=False, metamorphic=False,
        )
        assert report.ok, [d.to_record() for d in report.divergences]

    def test_off_by_one_is_caught_with_shrunk_counterexample(self):
        broken = ExecutionConfig(
            name="scratch/off-by-one",
            runner=lambda g, s=None: _scratch_bc(g, s, skip_deepest_level=True),
        )
        report = run_conformance(
            [broken], cases=[_buried_bug_case()],
            kernel_checks=False, metamorphic=False,
        )
        assert not report.ok
        div = report.divergences[0]
        assert div.kind == "oracle-mismatch"
        assert div.config == "scratch/off-by-one"
        ce = div.counterexample
        assert ce is not None and ce["n"] <= 10, ce
        # The shrunk witness must still reproduce the divergence.
        g = counterexample_graph(ce)
        got = broken.run(g, ce["sources"])
        want = brandes_bc(g, sources=ce["sources"])
        assert not np.allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_crashing_config_reported_as_exception(self):
        def crash(graph, sources=None):
            if graph.m > 2:
                raise RuntimeError("scratch kernel fell over")
            return brandes_bc(graph, sources=sources)

        report = run_conformance(
            [ExecutionConfig(name="scratch/crash", runner=crash)],
            cases=[_buried_bug_case()],
            kernel_checks=False, metamorphic=False,
        )
        assert not report.ok
        div = report.divergences[0]
        assert div.kind == "exception"
        assert "fell over" in div.detail
        assert div.counterexample["n"] <= 10


class TestMetamorphicOracles:
    def _run(self, g, sources=None):
        return brandes_bc(g, sources=sources)

    @pytest.mark.parametrize("name", sorted(METAMORPHIC_ORACLES))
    @pytest.mark.parametrize("directed", (False, True))
    def test_oracles_hold_for_brandes(self, name, directed):
        rng = np.random.default_rng(11)
        g = Graph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5)], 6,
            directed=directed)
        assert METAMORPHIC_ORACLES[name](self._run, g, rng) is None

    def test_relabel_catches_label_dependence(self):
        rng = np.random.default_rng(0)
        g = Graph.from_edges([(0, 1), (1, 2)], 3, directed=False)
        labels = lambda graph, sources=None: np.arange(graph.n, dtype=float)
        assert METAMORPHIC_ORACLES["relabel"](labels, g, rng) is not None

    def test_pendant_catches_nonzero_leaf(self):
        rng = np.random.default_rng(0)
        g = Graph.from_edges([(0, 1), (1, 2)], 3, directed=False)
        ones = lambda graph, sources=None: np.ones(graph.n)
        assert "pendant" in METAMORPHIC_ORACLES["pendant"](ones, g, rng)

    def test_union_catches_cross_component_leakage(self):
        rng = np.random.default_rng(0)
        g = Graph.from_edges([(0, 1), (1, 2)], 3, directed=False)

        def leaky(graph, sources=None):
            bc = brandes_bc(graph, sources=sources)
            return bc + (graph.n > 3)  # drifts once the union grows the graph
        assert METAMORPHIC_ORACLES["disjoint-union"](leaky, g, rng) is not None

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_sigma_doubling(self, kernel):
        assert check_sigma_doubling(kernel) is None


class TestGoldenCorpus:
    def test_checked_in_corpus_is_blessed(self, tmp_path):
        """Re-blessing into a scratch dir must reproduce tests/golden/
        byte-for-byte -- the corpus on disk matches its builders."""
        fresh = bless_golden(tmp_path)
        # other golden artifacts (the canary budget spec) share the
        # directory; only corpus-schema files are bless products
        pinned = sorted(
            p for p in golden_dir().glob("*.json")
            if json.loads(p.read_text()).get("schema")
            == "repro/conformance/golden/v1"
        )
        assert [p.name for p in sorted(fresh)] == [p.name for p in pinned]
        for new, old in zip(sorted(fresh), pinned):
            assert new.read_bytes() == old.read_bytes(), old.name

    def test_corpus_passes_for_default_configs(self):
        configs = filter_configs(default_configs(),
                                 ["sccooc/b1", "veccsc/bauto", "sequential"])
        assert check_golden(configs) == []

    def test_load_golden_case_roundtrip(self):
        path = golden_dir() / "asym-digraph.json"
        graph, bc, rec = load_golden_case(path)
        assert graph.directed and graph.n == 7
        np.testing.assert_allclose(bc, brandes_bc(graph), rtol=1e-12, atol=0)
        assert rec["schema"] == "repro/conformance/golden/v1"

    def test_corrupted_vector_is_caught(self, tmp_path):
        bless_golden(tmp_path)
        path = tmp_path / "path-5.json"
        rec = json.loads(path.read_text())
        rec["bc"][2] += 0.5
        path.write_text(json.dumps(rec))
        configs = filter_configs(default_configs(), ["sequential"])
        divs = check_golden(configs, tmp_path)
        assert any(d.kind == "golden-mismatch" and "path-5" in d.case
                   for d in divs)

    def test_missing_corpus_is_reported(self, tmp_path):
        divs = check_golden(default_configs(), tmp_path / "empty")
        assert len(divs) == 1 and divs[0].kind == "golden-missing"

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "something/else"}')
        with pytest.raises(ValueError, match="schema"):
            load_golden_case(path)


class TestHarnessRuns:
    def test_small_clean_run(self):
        configs = filter_configs(default_configs(),
                                 ["sccsc/b4", "sccooc/bauto", "sequential"])
        report = run_conformance(configs, seed=0, budget=6)
        assert report.ok, [d.to_record() for d in report.divergences]
        assert report.cases_run == 6
        assert report.checks_run > 6 * len(configs)
        records = report.to_records()
        assert records[0]["schema"] == "repro/conformance/report/v1"
        assert records[-1]["ok"] is True

    def test_time_limit_stops_early(self):
        configs = filter_configs(default_configs(), ["sequential"])
        report = run_conformance(configs, seed=0, budget=10_000,
                                 time_limit_s=0.5)
        assert report.stopped_early
        assert report.cases_run < 10_000

    @pytest.mark.slow
    def test_fuzz_soak_all_configs(self):
        """The nightly-able soak: every registered config, a real budget."""
        report = run_conformance(seed=1, budget=48)
        assert report.ok, [d.to_record() for d in report.divergences]
        assert report.cases_run == 48


class TestConformanceCLI:
    def test_smoke_run_with_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.jsonl"
        rc = main(["conformance", "--seed", "0", "--budget", "3",
                   "--config", "sequential", "--skip-golden",
                   "--report", str(out)])
        assert rc == 0
        assert "conformance[graphs]: 3 fuzz cases" in capsys.readouterr().out
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["type"] == "conformance_run"
        assert records[-1] == {
            "type": "summary", "cases_run": 3,
            "checks_run": records[-1]["checks_run"], "divergences": 0,
            "elapsed_s": records[-1]["elapsed_s"], "stopped_early": False,
            "ok": True, "recipes": "graphs",
        }

    def test_bless_writes_corpus(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["conformance", "--bless", "--golden-dir", str(tmp_path)])
        assert rc == 0
        assert "blessed 20 golden corpus files" in capsys.readouterr().out
        assert len(list(tmp_path.glob("*.json"))) == 14
        # The edit-script corpus lands in the edits/ subdirectory.
        assert len(list((tmp_path / "edits").glob("*.json"))) == 6

    def test_golden_check_uses_golden_dir(self, tmp_path, capsys):
        from repro.cli import main

        main(["conformance", "--bless", "--golden-dir", str(tmp_path)])
        capsys.readouterr()
        rc = main(["conformance", "--budget", "1", "--config", "sequential",
                   "--golden-dir", str(tmp_path)])
        assert rc == 0
        assert "golden corpus reproduced" in capsys.readouterr().out

    def test_unknown_config_exits_2(self, capsys):
        from repro.cli import main

        rc = main(["conformance", "--config", "nosuchkernel", "--budget", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no execution config matches" in err
        assert "sccooc/b1" in err  # lists the known configs

    def test_missing_golden_dir_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["conformance", "--budget", "1", "--config", "sequential",
                   "--golden-dir", str(tmp_path / "nowhere")])
        assert rc == 1
        assert "golden-missing" in capsys.readouterr().out
