"""The per-source pipeline's level tables against per-level recomputation.

A per-source forward that solves sigma, and the backward sweep after it,
plan and price their levels from tables built over the recorded lists
(``repro.core.levels``).  Here a test-local reference loop on the SpMV
engine recomputes every level level by level -- the frontier ``x``, the
``sigma == 0`` mask -- and each table entry, decision and tensor-core
``KernelStats`` must equal the one-level formula on those operands.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Graph
from repro.core import frontier as FK
from repro.core.context import TurboBCContext
from repro.core import forward as F
from repro.core.backward import _planned_rows, _sweep, _written_counts
from repro.core.forward import bfs_forward, levels_of
from repro.core.levels import SpmvLevels
from repro.gpusim import warp as W
from repro.gpusim.device import Device
from repro.graphs.generators.road import road_network_graph
from repro.spmv import _spmm
from repro.spmv.tcspmm import active_tile_stats, stripe_any, tcspmm_spmv
from tests.conftest import random_graph


class TestLevelGatherTransactions:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_level_gather(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [0, 1, 31, 32, 33, 1000, 0, 64, 5]
        rng.shuffle(sizes)
        lists = []
        for size in sizes:
            # dense stretches put neighbouring entries in one segment, so
            # segments straddle warp boundaries
            hi = int(rng.choice([size + 3, 8 * size + 8, 100_000]))
            lists.append(np.sort(rng.choice(hi, size=size, replace=False)))
        flat = np.concatenate(lists)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        for element_bytes in (4, 8):
            got = W.level_gather_transactions(flat, bounds, element_bytes)
            want = [W.gather_transactions(a, element_bytes) for a in lists]
            assert got.tolist() == want

    def test_segments_straddling_warps_and_levels(self):
        # 4..35 is warp 1 (segments 0-4), 36..39 warp 2 (segment 4 again);
        # then two levels sharing segment 0 each pay for it
        lists = [np.arange(4, 40), np.array([0, 1, 2]), np.array([3, 4])]
        flat = np.concatenate(lists)
        got = W.level_gather_transactions(flat, [0, 36, 39, 41])
        assert got.tolist() == [6, 1, 1]
        assert got.tolist() == [W.gather_transactions(a) for a in lists]

    def test_no_levels_and_all_empty(self):
        assert W.level_gather_transactions(np.zeros(0, int), [0]).tolist() == []
        assert W.level_gather_transactions(np.zeros(0, int), [0, 0, 0]).tolist() == [0, 0]


def _diamonds(k: int = 40) -> Graph:
    """``k`` chained diamonds and a tail: sigma reaches 2^k."""
    edges = [(3 * i + a, 3 * i + b)
             for i in range(k) for a, b in ((0, 1), (0, 2), (1, 3), (2, 3))]
    return Graph.from_edges(edges + [(3 * k, 3 * k + 1), (3 * k + 1, 3 * k + 2)],
                            n=3 * k + 3, directed=False)


def _engine_forward(ctx, source):
    """The per-source level loop on the SpMV engine alone: each level's
    ``(x, allowed)``; the lists the level tables read -- per level the
    discovered vertices, the active rows (the previous level's positive
    frontier entries; the source for depth 1) and the product's
    positive-sum count; and the final sigma."""
    n = ctx.graph.n
    sigma = np.zeros(n, dtype=ctx.forward_dtype)
    S = np.zeros(n, dtype=np.int32)
    x = np.zeros(n, dtype=ctx.forward_dtype)
    x[source] = sigma[source] = 1
    levels, discovered, active, written = [], [], [np.array([source])], []
    depth = 0
    while True:
        depth += 1
        allowed = sigma == 0
        levels.append((x.copy(), allowed))
        p = _spmm.product(ctx.matrix, x, batched=False, allowed=allowed, need="written")
        x, touched = FK.frontier_update(p.y, sigma, S, depth, masked_spmv=ctx.mask_fused)
        discovered.append(touched)
        written.append(p.written)
        if not touched.size:
            return levels, (discovered, active, written), sigma
        active.append(touched[np.take(x, touched) > 0])


GRAPHS = {
    "undirected": lambda: random_graph(90, 0.05, directed=False, seed=3),
    "digraph": lambda: random_graph(90, 0.06, directed=True, seed=4),
    "road-like": lambda: Graph.from_edges(
        [(i, i + 1) for i in range(299) if i % 20 != 19]
        + [(i, i + 20) for i in range(280)], n=300, directed=False),
    # picks tcspmm at dozens of levels of both stages
    "road-12x12": lambda: road_network_graph(12, 12, seed=1),
    "diamonds-int32": _diamonds,
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_forward_tables_match_per_level_formulas(name):
    graph = GRAPHS[name]()
    fdt = np.int32 if name.endswith("int32") else np.float64
    priced = 0
    for source in (0, graph.n - 1):
        ctx = TurboBCContext(Device(), graph, "adaptive", forward_dtype=fdt)
        live, (discovered, active, written), sigma = _engine_forward(ctx, source)
        if name.endswith("int32"):
            assert (sigma < 0).any()  # the attempt wrapped
        found = levels_of(discovered, graph.n, len(discovered), source)

        def operands(k):
            prev = discovered[k - 1] if k else np.array([source])
            x = np.zeros(graph.n, dtype=sigma.dtype)
            x[prev] = sigma[prev]
            return x, found >= k + 1

        spmv = SpmvLevels(ctx, "forward", operands).plan(active, found, sigma.dtype)
        spmv.price(written)
        tc_rows = list(spmv.rows) if spmv.rows is not None else []
        assert len(live) == len(discovered) == len(spmv.kernels)
        csc = ctx.matrix
        disp = ctx.dispatcher
        check = TurboBCContext(Device(), graph, "adaptive").dispatcher
        for k, (x, allowed) in enumerate(live):
            rx, rallowed = operands(k)
            assert rx.tobytes() == x.tobytes() and (rallowed == allowed).all()
            assert active[k].tolist() == np.flatnonzero(x > 0).tolist()
            rows = x > 0
            n_active, nnz_active, max_tile, chain, _ = active_tile_stats(
                csc, stripe_any(rows), stripe_any(allowed))
            t = {key: int(v[k]) for key, v in spmv.tables.items()}
            assert (t["n_active"], t["nnz_active"], t["max_tile"], t["chain"]) == (
                n_active, nnz_active, max_tile, chain)
            assert t["nnz_x"] == int(rows.sum())
            assert t["e_active"] == int(disp.rowdeg[rows].sum())
            assert t["s_allowed"] == int(disp.deg[allowed].sum())
            assert t["n_allowed"] == int(allowed.sum())
            assert t["dmax"] == int(disp.deg[allowed].max(initial=0))
            want = check._decide("forward", x, allowed)
            got = spmv.decisions.rows()[k]
            assert got == want and got.est_us == want.est_us
            assert [type(v) for v in got.est_us.values()] == [
                type(v) for v in want.est_us.values()]
            if spmv.priced[k]:
                priced += 1
                assert t["n_flops"] == int(allowed @ (csc.spmm_operators()[0] @ rows))
                assert tc_rows[k] == tcspmm_spmv(Device(), csc, x, allowed=allowed)[1].stats
            else:
                assert spmv.stats[k] is None  # the entry point runs at launch
    if name.startswith("road-12"):
        assert priced  # adaptive-chosen tcspmm levels were priced from the tables


def _live_backward(ctx, fwd):
    """The old level-by-level backward loop on the SpMV engine: each level's
    ``delta_u`` and positive-sum count (``None`` for a digraph's scatter),
    and the final ``delta``."""
    sigma = fwd.sigma
    delta = np.zeros(ctx.graph.n, dtype=ctx.backward_dtype)
    scatter = ctx.graph.directed
    xs, written = [], []
    for d in range(fwd.depth, 1, -1):
        delta_u, _ = FK.delta_u(sigma, delta, fwd.discovered[d - 1])
        xs.append(delta_u)
        p = _spmm.product(ctx.matrix, delta_u, batched=False, scatter=scatter,
                          need="" if scatter else "written")
        written.append(p.written)
        FK.delta_update(sigma, delta, p.y, fwd.discovered[d - 2])
    return xs, delta, written


@pytest.mark.parametrize("name", ["undirected", "digraph", "road-like", "road-12x12",
                                  "diamonds-155"])
def test_backward_plan_matches_per_level_formulas(monkeypatch, name):
    monkeypatch.setattr(F, "SOLVE_MIN_DEPTH", 0)  # the forward solves: the backward sweeps
    graph = _diamonds(155) if name == "diamonds-155" else GRAPHS[name]()
    ctx = TurboBCContext(Device(), graph, "adaptive", forward_dtype=np.float64,
                         backward_dtype=np.float32)
    fwd = bfs_forward(ctx, 0)
    assert fwd.dag is not None
    xs, want_delta, want_written = _live_backward(ctx, fwd)
    planned = _planned_rows(fwd.sigma, np.float32, fwd.discovered, fwd.depth)
    for rows, x in zip(planned, xs):
        assert rows.tolist() == np.flatnonzero(x > 0).tolist()
    # past sigma = 2^150, 1 / sigma underflows float32: those rows are inactive
    discovered = np.concatenate(fwd.discovered[1:fwd.depth])
    underflowed = np.count_nonzero(fwd.sigma[discovered] > 2.0**150)
    assert underflowed if name == "diamonds-155" else not underflowed
    delta, _, _ = ctx.swap_to_backward()

    def operands(k):  # as accumulate_dependencies rebuilds them for the replay
        return FK.delta_u(fwd.sigma, delta, fwd.discovered[fwd.depth - k - 1])[0], None

    spmv = SpmvLevels(ctx, "backward", operands).plan(planned, None, delta.dtype)
    push = ctx.matrix.push_operator()
    _sweep(fwd.dag, fwd.sigma, delta, scatter=graph.directed)
    assert delta.tobytes() == want_delta.tobytes()
    if not graph.directed:
        written = _written_counts(push, planned, fwd.levels, fwd.depth)
        assert written.tolist() == want_written
        spmv.price(written)
    check = TurboBCContext(Device(), graph, "adaptive").dispatcher
    table = ctx._kernels("backward", False)
    csc = ctx.matrix
    for k, x in enumerate(xs):
        want = check._decide("backward", x, None)
        got = spmv.decisions.rows()[k]
        assert got == want and got.est_us == want.est_us
        assert spmv.priced[k] == (want.kernel == "tcspmm" and not graph.directed)
        # priced levels are known before the replay; the replay runs the
        # entry point of the others on operands(k), which are the level's x
        assert operands(k)[0].tobytes() == x.tobytes()
        entry = table[want.kernel](Device(), csc, x)[1].stats
        if spmv.priced[k]:
            assert list(spmv.rows)[k] == entry
        assert spmv.stats[k] is None  # recorded by neither numerics nor tables
    if name == "road-12x12":
        assert any(spmv.priced)


@pytest.mark.parametrize("direction", ["auto", "push", "pull"])
def test_estimate_arrays_are_per_level_scalar_evaluations(direction):
    """Every entry of an array estimate is the one-level estimate, type and
    all -- including the NumPy-scalar pull arm, whose ``round`` differs."""
    from repro.core.dispatch import AdaptiveDispatcher
    from repro.gpusim.device import TITAN_XP

    csc = random_graph(400, 0.05, directed=False, seed=3).to_csc()
    disp = AdaptiveDispatcher(csc, TITAN_XP, direction=direction)
    rng = np.random.default_rng(1)
    levels, n, m = 300, disp.n, disp.m
    stats = dict(
        nnz_x=rng.integers(0, n + 1, levels), e_active=rng.integers(0, m + 1, levels),
        s_allowed=rng.integers(0, m + 1, levels), n_allowed=rng.integers(0, n + 1, levels),
        max_deg_allowed=rng.integers(0, 60, levels),
        tiles_active=rng.integers(0, 300, levels),
        tile_nnz_active=rng.integers(0, m + 1, levels),
        tile_chain=rng.integers(0, 30, levels),
    )
    stats["nnz_x"][:20] = 0  # the non-geometric pull branch
    numpy_typed = 0
    for batch in (1, 8, 64):
        for dtype in (np.int32, np.float32, np.float64):
            est = {k: v.tolist() for k, v in
                   disp._estimate(dtype=dtype, batch=batch, **stats).items()}
            for i in range(levels):
                one = disp._estimate(dtype=dtype, batch=batch,
                                     **{k: int(v[i]) for k, v in stats.items()})
                assert list(one) == list(est)
                for k, v in one.items():
                    got = est[k][i]
                    assert type(got) is type(v) and got == v, (k, i)
                    assert round(got * 1e6, 3) == round(v * 1e6, 3)
                    numpy_typed += isinstance(v, np.floating)
    if direction != "push":
        assert numpy_typed  # the NumPy-scalar arm was exercised
