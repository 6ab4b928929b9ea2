"""Forward sigma by one triangular solve (``core/forward.py``
``_forward_solve``): bit-identical to the level loop where it applies, and
the level loop everywhere else."""

import json
import logging

import numpy as np
import pytest

from repro import Device, Graph, turbo_bc
from repro.core import forward as F
from repro.core.context import TurboBCContext
from repro.graphs.generators.road import road_network_graph
from repro.graphs.generators.social import powerlaw_cluster_graph
from repro.graphs.generators.webgraph import preferential_attachment_digraph
from repro.obs import telemetry as obs


def _diamond_chain(k: int, star: int = 0) -> Graph:
    """``k`` chained diamonds: 2k levels, sigma = 2^k at the far end; then,
    apart from them, a vertex joined to ``star`` leaves."""
    edges = [(3 * i + a, 3 * i + b)
             for i in range(k) for a, b in ((0, 1), (0, 2), (1, 3), (2, 3))]
    edges += [(3 * k + 1, 3 * k + 1 + i) for i in range(1, star + 1)]
    return Graph.from_edges(edges, n=3 * k + 1 + (star and star + 1), directed=False,
                            name="chain")


def _layered(levels: int, seed: int) -> Graph:
    """Vertex 0, then ``levels`` layers of 3-6 vertices, each joined to a
    random 1..all of the layer before it; the other ids shuffled.  From 0,
    the layers are the BFS levels; most vertices have
    three or more parents and sigma passes 2^53 near level 35 with varied
    values, so the order of a parent sum changes its bits."""
    rng = np.random.default_rng(seed)
    bounds = np.cumsum([0, 1, *rng.integers(3, 7, size=levels)])
    ids = np.concatenate([[0], 1 + rng.permutation(int(bounds[-1]) - 1)])
    edges = []
    for lo, mid, hi in zip(bounds, bounds[1:], bounds[2:]):
        for v in range(mid, hi):
            k = rng.integers(1, mid - lo + 1)
            edges += [(ids[u], ids[v]) for u in rng.choice(np.arange(lo, mid), k, replace=False)]
    return Graph.from_edges(edges, n=int(bounds[-1]), directed=False, name="layered")


def _numerics(graph, source, dtype, *, solve: bool, algorithm="adaptive"):
    """One source's forward numerics by the solve or by the level loop:
    ``(recorded lists or None, sigma, S, f)``."""
    ctx = TurboBCContext(Device(), graph, algorithm, forward_dtype=dtype)
    sigma, S, f = ctx.alloc_forward()
    if solve:
        rec = F._forward_solve(ctx, source, sigma, S)
    else:
        rec = F._forward_numerics(ctx, source, sigma, S, f)
    return rec, sigma.copy(), S.copy(), f.copy()


def _order_sensitive(graph, sigma, S) -> int:
    """How many vertices' sigma would change if their parents were added in
    descending id; asserts that ascending id gives ``sigma``."""
    csc = graph.to_csc()
    count = 0
    for v in np.flatnonzero(S > 0):
        col = csc.row[csc.col_ptr[v]:csc.col_ptr[v + 1]]
        parents = np.sort(col[S[col] == S[v] - 1])
        ascending = descending = 0.0
        for u in parents:
            ascending += float(sigma[u])
        for u in parents[::-1]:
            descending += float(sigma[u])
        assert ascending == sigma[v]
        count += ascending != descending
    return count


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def solve_everywhere(monkeypatch):
    monkeypatch.setattr(F, "SOLVE_MIN_DEPTH", 0)


@pytest.fixture
def solves(monkeypatch):
    """Counts the forwards the solve computed (not handed to the loop)."""
    done = []
    inner = F._forward_solve

    def counted(*args):
        rec = inner(*args)
        done.append(rec is not None)
        return rec

    monkeypatch.setattr(F, "_forward_solve", counted)
    return done


GRAPHS = {
    # sigma reaches ~1e28, past 2^53, so float64 sums round
    "road": lambda: road_network_graph(60, 60, segments=2, keep_prob=0.8, seed=1),
    # 800 levels, sigma = 2^400 at the far end
    "chain": lambda: _diamond_chain(400),
    "digraph": lambda: preferential_attachment_digraph(600, mean_degree=6, seed=4),
    # 80 levels of 3-6 vertices: the only graph here where the order of a
    # parent sum changes its bits (the chain has two parents a vertex, the
    # digraph's sigma stays below 2^53)
    "layered": lambda: _layered(80, seed=7),
}


class TestSolveMatchesTheLoop:
    @pytest.mark.parametrize("gname", sorted(GRAPHS))
    def test_sigma_levels_and_lists_bit_identical(self, solve_everywhere, gname):
        g = GRAPHS[gname]()
        big, reordered = 0.0, 0
        for s in (0, g.n // 3, g.n - 1):
            got, g_sigma, g_S, g_f = _numerics(g, s, np.float64, solve=True)
            want, w_sigma, w_S, w_f = _numerics(g, s, np.float64, solve=False)
            assert got is not None
            assert np.array_equal(g_sigma.view(np.uint64), w_sigma.view(np.uint64))
            assert _same_bits(g_S, w_S) and _same_bits(g_f, w_f)
            for got_lists, want_lists in zip(got[:2], want[:2]):  # discovered, active
                assert len(got_lists) == len(want_lists)
                for a, b in zip(got_lists, want_lists):
                    assert a.dtype == b.dtype == np.int64
                    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
            assert list(got[2]) == list(want[2]) and got[3] == want[3]
            big = max(big, float(g_sigma.max()))
            if gname == "layered":
                reordered += _order_sensitive(g, w_sigma, w_S)
        if gname == "layered":
            assert reordered >= 10  # 53 over the three sources
        if gname == "road":
            assert big > 2.0**53
        if gname == "chain":
            assert big == 2.0**400
            assert len(got[0]) - 1 >= 790

    def test_int32_and_int64_within_range(self, solve_everywhere):
        g = GRAPHS["digraph"]()
        for dtype in (np.int32, np.int64):
            got, g_sigma, g_S, _ = _numerics(g, 5, dtype, solve=True)
            want, w_sigma, w_S, _ = _numerics(g, 5, dtype, solve=False)
            assert got is not None
            assert _same_bits(g_sigma, w_sigma) and _same_bits(g_S, w_S)
            assert [a.tolist() for a in got[0]] == [a.tolist() for a in want[0]]

    def test_launches_and_result_equal_the_loop(self, monkeypatch, solves):
        """The replay reads the solve's lists: same launches, same result."""
        g = road_network_graph(14, 14, segments=1, keep_prob=0.9, seed=2)

        def run(min_depth):
            monkeypatch.setattr(F, "SOLVE_MIN_DEPTH", min_depth)
            dev = Device()
            res = turbo_bc(g, sources=[0, 77, 150], algorithm="adaptive", device=dev,
                           forward_dtype=np.float64, backward_dtype=np.float64)
            return res, [(ln.name, ln.tag, ln.stats, ln.time_s) for ln in dev.profiler.launches]

        solved, solved_launches = run(0)
        assert solves and all(solves)
        looped, looped_launches = run(10**9)
        assert _same_bits(solved.bc, looped.bc)
        assert solved_launches == looped_launches
        assert solved.stats.depth_per_source == looped.stats.depth_per_source


class TestLoopStays:
    """Where only the level loop gives the bits, the solve hands over."""

    def test_float32(self, solve_everywhere):
        rec, sigma, S, _ = _numerics(_diamond_chain(10), 0, np.float32, solve=True)
        assert rec is None
        assert not sigma.any() and not S.any()

    @pytest.mark.parametrize("algorithm", ["sccsc", "veccsc", "pullcsc", "tcspmm", "sccooc"])
    def test_static_kernels(self, solve_everywhere, algorithm):
        rec, *_ = _numerics(_diamond_chain(10), 0, np.float64, solve=True,
                            algorithm=algorithm)
        assert rec is None

    def test_int32_overflow_leaves_sigma_and_levels_to_the_loop(self, solve_everywhere):
        g = _diamond_chain(40)  # sigma 2^40
        rec, sigma, S, _ = _numerics(g, 0, np.int32, solve=True)
        assert rec is None
        assert not sigma.any() and not S.any()
        # the loop's wrapped values still raise at the end of the stage
        with pytest.raises(F.SigmaOverflowError):
            F.bfs_forward(TurboBCContext(Device(), g, "adaptive", forward_dtype=np.int32), 0)

    def test_int32_overflow_raises_before_any_launch_when_restartable(self):
        g = _diamond_chain(40)
        dev = Device()
        ctx = TurboBCContext(dev, g, "adaptive", forward_dtype=np.int32,
                             restart_on_overflow=True)
        with pytest.raises(F.SigmaOverflowError):
            F.bfs_forward(ctx, 0)
        assert dev.profiler.total_launches() == 0

    def test_below_the_crossover(self):
        g = powerlaw_cluster_graph(300, mean_degree=5, seed=1)
        rec, *_ = _numerics(g, 0, np.float64, solve=True)
        assert rec is None
        rec, *_ = _numerics(_diamond_chain(F.SOLVE_MIN_DEPTH // 2), 0, np.float64,
                            solve=True)
        assert rec is not None

    def test_each_forward_decides_from_its_own_bfs(self, solves):
        """A shallow source (a small component) first leaves a later deep
        source of the same context to the solve."""
        k = F.SOLVE_MIN_DEPTH  # 2k levels from vertex 0
        g = _diamond_chain(k, star=3)
        ctx = TurboBCContext(Device(), g, "adaptive", forward_dtype=np.float64)
        for s in (3 * k + 1, 0):  # the star's centre: 1 level
            F.bfs_forward(ctx, s)
            ctx.release_source()
        assert solves == [False, True]

    def test_float64_overflow_to_inf(self, solve_everywhere):
        g = _diamond_chain(1100)  # sigma 2^1100 overflows float64
        rec, sigma, *_ = _numerics(g, 0, np.float64, solve=True)
        assert rec is None and not sigma.any()


def test_auto_run_that_overflows_starts_in_float64(monkeypatch, caplog, solves):
    """A B = 1 ``"auto"`` run whose first source overflows int32: a
    launch-free int32 forward, then the float64 run, with the warning and
    the re-run counter; the result is the explicit float64 run's."""
    g = _diamond_chain(40)  # sigma 2^40 from source 0, 2^20 from source 60
    replays = []
    replay = F._replay_forward
    monkeypatch.setattr(F, "_replay_forward",
                        lambda ctx, *a: replays.append(ctx.forward_dtype) or replay(ctx, *a))
    with caplog.at_level(logging.WARNING, logger="repro.core.bc"):
        with obs.session(trace=False) as tel:
            res = turbo_bc(g, sources=[0, 60], algorithm="adaptive", device=Device())
    assert "sigma overflowed int32" in caplog.text
    assert tel.metrics.to_dict()["counters"]["sigma_overflow_reruns"] == 2
    # the int32 attempt raised inside source 0's solve, before its replay
    assert replays == [np.float64, np.float64] and solves == [True, True]
    ref = turbo_bc(g, sources=[0, 60], algorithm="adaptive", device=Device(),
                   forward_dtype=np.float64, backward_dtype=np.float64)
    assert _same_bits(res.bc, ref.bc)
    assert res.stats.gpu_time_s == ref.stats.gpu_time_s
    assert res.stats.kernel_launches == ref.stats.kernel_launches


def test_solve_leaves_the_modeled_snapshot_unchanged(monkeypatch, solves):
    """Every B = 1 snapshot cell the solve applies to (adaptive runs, the
    per-source edge BC and BFS cells) with the solve forced at every depth."""
    import tests.test_modeled_snapshot as snap

    monkeypatch.setattr(F, "SOLVE_MIN_DEPTH", 0)
    want = json.loads(snap.SNAPSHOT.read_text())["cells"]
    cells = [c for c in want
             if (c.startswith("bc/") and "/adaptive-" in c and "/b1/" in c)
             or (c.startswith("audit/") and c.endswith("/b1"))
             or (c.startswith(("edge_bc/", "bfs/")) and "/adaptive" in c)
             or c == "telemetry/diamonds/b1"]
    assert len(cells) == 36 + 3 + 3 + 6 + 1
    changed = [c for c in cells if snap._digest(c) != want[c]]
    assert not changed, changed[:20]
    assert sum(solves) >= 350  # 380 on the committed cells
