"""The per-source backward as one sweep over the BFS DAG (``core/backward.py``
``_sweep``): delta and the per-launch positive-sum counts are the level
loop's, bit for bit, for every algorithm and dtype."""

import numpy as np
import pytest

from repro import Device, Graph, turbo_bc
from repro.core import backward as BW
from repro.core import bc as bc_mod
from repro.core.context import TurboBCContext
from repro.core.forward import bfs_forward
from repro.graphs.generators.road import road_network_graph
from repro.graphs.generators.smallworld import small_world_graph
from repro.graphs.generators.webgraph import preferential_attachment_digraph
from repro.spmv import _spmm
from tests.conftest import random_graph
from tests.test_forward_solve import _layered
from tests.test_levels import _diamonds, _live_backward


def _two_components() -> Graph:
    """A random graph on 0..59 and, apart from it, a path on 60..79."""
    g = random_graph(60, 0.08, directed=False, seed=5)
    edges = list(zip(g.src.tolist(), g.dst.tolist()))
    edges += [(60 + i, 61 + i) for i in range(19)]
    return Graph.from_edges(edges, n=80, directed=False, name="two-components")


#: name -> (graph, sources, whether an int32 forward fits)
GRAPHS = {
    # 155 levels from vertex 0, sigma 2.5e18: past 2^53, so sums round
    "road": (lambda: road_network_graph(40, 40, segments=2, keep_prob=0.8, seed=1),
             (0,), False),
    # the order of a parent sum changes its bits (test below)
    "layered": (lambda: _layered(80, seed=7), (0,), False),
    "digraph": (lambda: preferential_attachment_digraph(600, mean_degree=6, seed=4),
                (0, 599), True),
    # past sigma = 2^150, float32 1 / sigma underflows to 0
    "diamonds-155": (lambda: _diamonds(155), (0,), False),
    "two-components": (_two_components, (0, 70), True),
}
ALGORITHMS = ["sccooc", "sccsc", "veccsc", "pullcsc", "tcspmm", "adaptive"]
DTYPES = {"f64-f64": (np.float64, np.float64), "f64-f32": (np.float64, np.float32),
          "i32-f32": (np.int32, np.float32)}
CASES = [(g, a, d) for g, (_, _, fits) in GRAPHS.items() for a in ALGORITHMS
         for d in DTYPES if fits or d != "i32-f32"]


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(f"u{a.itemsize}")


@pytest.mark.parametrize("gname,algorithm,dtypes", CASES)
def test_delta_and_written_counts_equal_the_level_loop(gname, algorithm, dtypes):
    make, sources, _ = GRAPHS[gname]
    graph = make()
    fdt, bdt = DTYPES[dtypes]
    ctx = TurboBCContext(Device(), graph, algorithm, forward_dtype=fdt, backward_dtype=bdt)
    push = ctx.matrix.push_operator()
    for s in sources:
        fwd = bfs_forward(ctx, s)
        assert fwd.depth > 1
        _, want, want_written = _live_backward(ctx, fwd)
        got = BW.accumulate_dependencies(ctx, fwd)
        assert got.dtype == want.dtype and np.array_equal(_bits(got), _bits(want))
        if not graph.directed:
            planned = BW._planned_rows(fwd.sigma, got.dtype, fwd.discovered, fwd.depth)
            written = BW._written_counts(push, planned, fwd.levels, fwd.depth)
            assert written.tolist() == want_written
        ctx.release_source()
    if gname == "road":
        assert fwd.sigma.max() > 2.0**53
    if gname == "diamonds-155" and bdt == np.float32:
        assert np.count_nonzero(fwd.sigma > 2.0**150)
    if gname == "two-components":
        assert np.count_nonzero(fwd.sigma == 0) == 60  # the other component


def test_descending_sums_would_change_bits():
    """The sweep's parent sums add children in ascending id; in descending
    id they give other bits on the layered graph."""
    g = _layered(80, seed=7)
    ctx = TurboBCContext(Device(), g, "adaptive", forward_dtype=np.float64,
                         backward_dtype=np.float64)
    fwd = bfs_forward(ctx, 0)
    _, want, _ = _live_backward(ctx, fwd)
    dag = BW._dag(ctx.matrix.push_operator(), fwd)
    parent = np.repeat(np.arange(dag.perm.size), np.diff(dag.indptr))
    for child, same in ((dag.child, True),
                        (dag.child[np.lexsort((-dag.child, parent))], False)):
        delta = np.zeros(g.n)
        BW._sweep(dag._replace(child=child), fwd.sigma, delta, scatter=False)
        assert np.array_equal(_bits(delta), _bits(want)) == same
    assert np.count_nonzero(delta != want) >= 10


def test_priced_backward_makes_no_engine_product(monkeypatch):
    """An adaptive B = 1 run on the road grid, where the tables price every
    backward level: the backward stage calls no product and reuses the
    forward solve's DAG; a static run builds the DAG once a source."""
    g = GRAPHS["road"][0]()
    calls, dags, priced = [], [], []
    product, level_dag, replay = _spmm.product, BW.level_dag, BW._replay_backward
    inside = []

    def counted_product(*args, **kwargs):
        calls.append(bool(inside))
        return product(*args, **kwargs)

    def backward(ctx, fwd):
        inside.append(True)
        try:
            return BW.accumulate_dependencies(ctx, fwd)
        finally:
            inside.pop()

    monkeypatch.setattr(_spmm, "product", counted_product)
    monkeypatch.setattr(bc_mod, "accumulate_dependencies", backward)
    monkeypatch.setattr(BW, "level_dag", lambda *a: dags.append(1) or level_dag(*a))
    monkeypatch.setattr(BW, "_replay_backward",
                        lambda ctx, sl, depth, spmv: priced.append(all(spmv.priced))
                        or replay(ctx, sl, depth, spmv))
    sources = [0, g.n - 1]
    res = turbo_bc(g, sources=sources, algorithm="adaptive", device=Device(),
                   forward_dtype=np.float64, batch_size=1)
    assert priced == [True, True] and not dags
    assert not any(calls)
    calls.clear()
    ref = turbo_bc(g, sources=sources, algorithm="sccsc", device=Device(),
                   forward_dtype=np.float64, batch_size=1)
    assert len(dags) == 2 and any(calls)  # each level's entry point, in the replay
    assert np.array_equal(res.bc, ref.bc)


def test_written_counts_of_priced_levels_ignore_unpriced_rows(monkeypatch):
    """The backward counts written sums over the priced levels' rows alone;
    on a small-world graph, where adaptive prices some backward levels and
    not others, each priced count equals the count over every level's rows."""
    g = small_world_graph(2_000, k=10, rewire_p=0.08, seed=1)
    planned_rows, written_counts, replay = (BW._planned_rows, BW._written_counts,
                                            BW._replay_backward)
    active, counted, priced = [], [], []

    def counts(push, rows, S, depth):
        # S is the context's level array: count over every level's rows now
        got = written_counts(push, rows, S, depth)
        counted.append((rows, got, written_counts(push, active[-1], S, depth)))
        return got

    monkeypatch.setattr(BW, "_planned_rows",
                        lambda *a: active.append(planned_rows(*a)) or active[-1])
    monkeypatch.setattr(BW, "_written_counts", counts)
    monkeypatch.setattr(BW, "_replay_backward",
                        lambda ctx, sl, depth, spmv: priced.append(np.array(spmv.priced))
                        or replay(ctx, sl, depth, spmv))
    turbo_bc(g, sources=[0, 1_000], algorithm="adaptive", device=Device(),
             forward_dtype=np.float64, batch_size=1)
    assert len(counted) == len(priced) == 2
    for (rows, got, full), p in zip(counted, priced):
        assert p.any() and not p.all()
        assert not any(r.size for r, k in zip(rows, p) if not k)
        assert np.array_equal(got[p], full[p]) and not got[~p].any()
