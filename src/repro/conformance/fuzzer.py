"""Seedable adversarial graph fuzzer for the conformance harness.

Instances are drawn from two pools:

* *structured* families with known failure affinity -- paths, stars,
  cliques, grids, trees, bipartite graphs (mask and frontier edge cases),
  diamond chains (sigma doubling, the int32 overflow re-run path);
* *random* families from the generator library -- G(n, p) both directions,
  configuration-model regular graphs, power-law social graphs, R-MAT and
  preferential-attachment digraphs (directed asymmetry).

Every case then passes through a mutation stage that injects exactly the
inputs canonicalisation must absorb: self-loops, duplicate edges, isolated
vertices, deleted edges (disconnected components) and random edge
orientations.  Determinism is per-case, not per-stream: case ``i`` under
master seed ``s`` is always built from ``default_rng([s, i])``, so a
counterexample's ``(seed, index)`` pair reproduces it exactly regardless of
budget or filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.graphs.generators import (
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    preferential_attachment_digraph,
    random_regular_graph,
    rmat_edges,
)
from repro.graphs.graph import Graph

#: Cases with at most this many vertices run every source; larger cases run
#: a deterministic sample (keeps a fuzz budget of hundreds of cases cheap).
_ALL_SOURCES_MAX_N = 16
_SAMPLED_SOURCES = 8


@dataclass(frozen=True)
class FuzzCase:
    """One fuzz instance: a graph plus the sources every config must run."""

    index: int
    recipe: str
    graph: Graph
    #: ``None`` means all sources; otherwise a sorted vertex sample.
    sources: tuple[int, ...] | None

    @property
    def source_list(self) -> list[int]:
        if self.sources is None:
            return list(range(self.graph.n))
        return list(self.sources)


def diamond_chain(k: int, *, directed: bool = False) -> Graph:
    """``k`` chained diamonds: sigma at the sink is exactly ``2**k``.

    The sigma-stress family: each diamond doubles the number of shortest
    paths, so ``k >= 32`` overflows int32 shortest-path counts and forces
    the float64 re-run path of the driver.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    edges = []
    v = 0
    nxt = 1
    for _ in range(k):
        a, b, w = nxt, nxt + 1, nxt + 2
        edges += [(v, a), (v, b), (a, w), (b, w)]
        v, nxt = w, w + 1
    return Graph.from_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                            nxt, directed=directed, name=f"diamond-chain-{k}")


# -- structured base recipes -------------------------------------------------


def _path(rng):
    n = int(rng.integers(2, 24))
    e = [(i, i + 1) for i in range(n - 1)]
    return Graph.from_edges(e, n, directed=bool(rng.integers(2))), f"path-{n}"


def _cycle(rng):
    n = int(rng.integers(3, 24))
    e = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(e, n, directed=bool(rng.integers(2))), f"cycle-{n}"


def _star(rng):
    n = int(rng.integers(3, 24))
    e = [(0, i) for i in range(1, n)]
    return Graph.from_edges(e, n, directed=False), f"star-{n}"


def _clique(rng):
    n = int(rng.integers(3, 10))
    e = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(e, n, directed=False), f"clique-{n}"


def _bipartite(rng):
    a, b = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    e = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph.from_edges(e, a + b, directed=False), f"bipartite-{a}x{b}"


def _binary_tree(rng):
    depth = int(rng.integers(2, 5))
    n = 2 ** (depth + 1) - 1
    e = [(p, c) for p in range(n // 2) for c in (2 * p + 1, 2 * p + 2)]
    return Graph.from_edges(e, n, directed=False), f"btree-{depth}"


def _grid(rng):
    r, c = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    e = []
    for i in range(r):
        for j in range(c):
            v = i * c + j
            if j + 1 < c:
                e.append((v, v + 1))
            if i + 1 < r:
                e.append((v, v + c))
    return Graph.from_edges(e, r * c, directed=False), f"grid-{r}x{c}"


def _diamond_chain(rng):
    # Occasionally push sigma past int32 to exercise the overflow re-run
    # path; usually stay small and cheap.
    k = 33 if rng.random() < 0.2 else int(rng.integers(2, 12))
    return diamond_chain(k, directed=bool(rng.integers(2))), f"diamond-chain-{k}"


# -- random base recipes -----------------------------------------------------


def _gnp_undirected(rng):
    n = int(rng.integers(4, 30))
    p = float(rng.uniform(0.03, 0.3))
    return (erdos_renyi_graph(n, p, directed=False, seed=rng),
            f"gnp-u-{n}-p{p:.2f}")


def _gnp_directed(rng):
    n = int(rng.integers(4, 30))
    p = float(rng.uniform(0.03, 0.3))
    return (erdos_renyi_graph(n, p, directed=True, seed=rng),
            f"gnp-d-{n}-p{p:.2f}")


def _gnp_sparse(rng):
    n = int(rng.integers(8, 32))
    p = float(rng.uniform(0.01, 0.06))  # very likely disconnected
    return (erdos_renyi_graph(n, p, directed=bool(rng.integers(2)), seed=rng),
            f"gnp-sparse-{n}-p{p:.2f}")


def _regular(rng):
    n = int(rng.integers(4, 16)) * 2
    d = int(rng.integers(2, min(6, n - 1)))
    if (n * d) % 2:
        d += 1
    return random_regular_graph(n, d, seed=rng), f"regular-{n}-d{d}"


def _powerlaw(rng):
    n = int(rng.integers(16, 32))
    g = powerlaw_cluster_graph(n, mean_degree=4.0, seed=rng)
    return g, f"powerlaw-{n}"


def _webgraph(rng):
    n = int(rng.integers(32, 40))  # generator requires n >= 32
    g = preferential_attachment_digraph(n, mean_degree=2.0, seed=rng)
    return g, f"webgraph-{n}"


def _rmat(rng):
    src, dst = rmat_edges(4, 48, seed=rng)
    return (Graph(src, dst, 16, directed=True, name="rmat-16"), "rmat-16")


def _random_orientation(rng):
    """Directed asymmetry: orient each undirected edge one random way."""
    n = int(rng.integers(6, 24))
    g = erdos_renyi_graph(n, 0.2, directed=False, seed=rng)
    keep = g.src < g.dst
    src, dst = g.src[keep].copy(), g.dst[keep].copy()
    flip = rng.random(src.size) < 0.5
    src[flip], dst[flip] = g.dst[keep][flip], g.src[keep][flip]
    return Graph(src, dst, n, directed=True), f"oriented-gnp-{n}"


_BASE_RECIPES = (
    _path,
    _gnp_undirected,
    _star,
    _gnp_directed,
    _cycle,
    _powerlaw,
    _clique,
    _gnp_sparse,
    _binary_tree,
    _webgraph,
    _grid,
    _random_orientation,
    _bipartite,
    _regular,
    _diamond_chain,
    _rmat,
)


# -- mutation stage ----------------------------------------------------------


def _mutate(graph: Graph, rng, label: str) -> tuple[Graph, str]:
    """Re-feed the graph through the constructor with adversarial raw edges.

    The mutations target canonicalisation and frontier bookkeeping:
    self-loops (must be dropped), duplicate edges (must be deduplicated),
    isolated vertices (n grows past the largest endpoint), deleted edges
    (disconnected components / unreachable vertices).
    """
    src = graph.src.astype(np.int64, copy=True)
    dst = graph.dst.astype(np.int64, copy=True)
    n = graph.n
    tags = []

    if rng.random() < 0.35 and src.size:
        loops = rng.integers(0, n, size=int(rng.integers(1, 4)))
        src = np.concatenate([src, loops])
        dst = np.concatenate([dst, loops])
        tags.append("selfloops")
    if rng.random() < 0.35 and src.size:
        pick = rng.integers(0, src.size, size=int(rng.integers(1, 6)))
        src = np.concatenate([src, src[pick]])
        dst = np.concatenate([dst, dst[pick]])
        tags.append("dupedges")
    if rng.random() < 0.3:
        n += int(rng.integers(1, 4))
        tags.append("isolated")
    if rng.random() < 0.3 and src.size > 4:
        drop = rng.random(src.size) < 0.25
        src, dst = src[~drop], dst[~drop]
        tags.append("dropedges")

    if not tags:
        return graph, label
    # Undirected graphs are stored symmetrized; the constructor mirrors its
    # input, so feeding the stored arrays back yields the same graph modulo
    # the mutations (mirrored pairs dedup away).
    g = Graph(src, dst, n, directed=graph.directed, name=graph.name)
    return g, f"{label}+{'+'.join(tags)}"


def _pick_sources(graph: Graph, rng) -> tuple[int, ...] | None:
    if graph.n <= _ALL_SOURCES_MAX_N:
        return None
    k = min(_SAMPLED_SOURCES, graph.n)
    return tuple(sorted(int(s) for s in rng.choice(graph.n, size=k, replace=False)))


class GraphFuzzer:
    """Deterministic adversarial graph stream.

    ``GraphFuzzer(seed).cases(budget)`` yields ``budget`` fuzz cases; case
    ``i`` depends only on ``(seed, i)``.  Recipes rotate round-robin so any
    budget covers every family.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def case(self, index: int) -> FuzzCase:
        rng = np.random.default_rng([self.seed, index])
        base = _BASE_RECIPES[index % len(_BASE_RECIPES)]
        graph, label = base(rng)
        graph, label = _mutate(graph, rng, label)
        return FuzzCase(
            index=index,
            recipe=label,
            graph=graph,
            sources=_pick_sources(graph, rng),
        )

    def cases(self, budget: int) -> Iterator[FuzzCase]:
        for i in range(budget):
            yield self.case(i)


# -- edit-script fuzzing (DESIGN.md §14) --------------------------------------
#
# A dynamic-graph fuzz case is a base graph plus a *segmented* edit script:
# each segment is one ``DynamicBC.update(added, removed)`` call, so a case
# with three segments exercises a three-update chain.  The conformance check
# is that the chained incremental results are bit-identical to from-scratch
# runs on every intermediate graph, across every registered kernel/batch
# configuration.


@dataclass(frozen=True)
class EditScriptCase:
    """One dynamic-graph fuzz instance: a base graph plus an edit script.

    ``segments[k]`` is ``(added, removed)`` -- the pairs passed to the
    ``k``-th ``update`` call (removals apply before additions within a
    segment, matching :meth:`Graph.apply_edits`).
    """

    index: int
    recipe: str
    graph: Graph
    segments: tuple[tuple[tuple[tuple[int, int], ...],
                          tuple[tuple[int, int], ...]], ...]
    sources: tuple[int, ...] | None

    @property
    def source_list(self) -> list[int]:
        if self.sources is None:
            return list(range(self.graph.n))
        return list(self.sources)


def replay_edit_script(graph: Graph, segments) -> Graph:
    """Set-based reference application of an edit script.

    Deliberately independent of :meth:`Graph.apply_edits` (python sets, no
    canonical re-sort): maintains the edge set per segment -- removals
    first, then additions, self-loops dropped, growth by max endpoint --
    and rebuilds the final graph from scratch.  The conformance harness
    differentials ``apply_edits`` chains against this replay, so a bug in
    the array-level edit application cannot hide behind itself.
    """
    def key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if graph.directed else (min(u, v), max(u, v))

    if graph.directed:
        edges = set(zip(graph.src.tolist(), graph.dst.tolist()))
    else:
        edges = {key(u, v) for u, v in zip(graph.src.tolist(), graph.dst.tolist())}
    n = graph.n
    for added, removed in segments:
        for u, v in removed:
            edges.discard(key(int(u), int(v)))
        for u, v in added:
            u, v = int(u), int(v)
            if u == v:
                continue
            n = max(n, u + 1, v + 1)
            edges.add(key(u, v))
    return Graph.from_edges(sorted(edges), n, directed=graph.directed,
                            name=f"{graph.name}+replay" if graph.name else "")


def _existing_pairs(graph: Graph) -> list[tuple[int, int]]:
    """Distinct edges as pairs (one orientation for undirected graphs)."""
    if graph.directed:
        return list(zip(graph.src.tolist(), graph.dst.tolist()))
    keep = graph.src < graph.dst
    return list(zip(graph.src[keep].tolist(), graph.dst[keep].tolist()))


def _random_pairs(rng, n: int, k: int) -> list[tuple[int, int]]:
    pairs = []
    for _ in range(k):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            pairs.append((u, v))
    return pairs


def _edit_hub_deletion(rng):
    """Delete edges incident to the highest-degree hub of a star-ish graph."""
    n = int(rng.integers(6, 16))
    g = Graph.from_edges(
        [(0, i) for i in range(1, n)] + [(1, 2), (3, 4)],
        n, directed=False,
    )
    spokes = [(0, int(v)) for v in rng.choice(np.arange(1, n), size=3, replace=False)]
    k = int(rng.integers(1, 4))
    return g, ((tuple(), tuple(spokes[:k])),), f"edits-hub-del-{n}"


def _edit_bridge_insertion(rng):
    """Bridge two disjoint components; only sources near the seam change."""
    a = int(rng.integers(3, 8))
    b = int(rng.integers(3, 8))
    e = [(i, i + 1) for i in range(a - 1)]                      # path 0..a-1
    e += [(a + i, a + j) for i in range(b) for j in range(i + 1, b)]  # clique
    g = Graph.from_edges(e, a + b, directed=False)
    u = int(rng.integers(0, a))
    v = a + int(rng.integers(0, b))
    segments = [((((u, v),), tuple()))]
    if rng.random() < 0.5:  # sometimes a second bridge in a second segment
        segments.append((((0, a + b - 1),), tuple()))
    return g, tuple(segments), f"edits-bridge-{a}+{b}"


def _edit_shortcut(rng):
    """Depth-collapsing shortcut across a path: every source's DAG moves."""
    n = int(rng.integers(6, 20))
    g = Graph.from_edges([(i, i + 1) for i in range(n - 1)], n,
                         directed=bool(rng.integers(2)))
    far = int(rng.integers(n // 2, n))
    return g, (((((0, far),)), tuple()),), f"edits-shortcut-{n}"


def _edit_noop_reinsert(rng):
    """No-op scripts: remove+re-add the same edges, re-add present edges."""
    n = int(rng.integers(5, 14))
    g = erdos_renyi_graph(n, 0.25, directed=bool(rng.integers(2)), seed=rng)
    pairs = _existing_pairs(g)
    if not pairs:
        g = Graph.from_edges([(0, 1), (1, 2)], n, directed=g.directed)
        pairs = _existing_pairs(g)
    k = min(len(pairs), int(rng.integers(1, 4)))
    pick = [pairs[int(i)] for i in rng.choice(len(pairs), size=k, replace=False)]
    segments = [
        (tuple(pick), tuple(pick)),   # removed then re-added: graph no-op
        (tuple(pick[:1]), tuple()),   # re-insert an already-present edge
    ]
    return g, tuple(segments), f"edits-noop-{n}"


def _edit_random_mixed(rng):
    """1-32 random edits across 1-4 segments on a G(n, p) graph."""
    n = int(rng.integers(6, 28))
    g = erdos_renyi_graph(n, float(rng.uniform(0.08, 0.25)),
                          directed=bool(rng.integers(2)), seed=rng)
    total = int(rng.integers(1, 33))
    n_segments = int(rng.integers(1, 5))
    pairs = _existing_pairs(g)
    segments = []
    for _ in range(n_segments):
        k = max(1, total // n_segments)
        adds, rems = [], []
        for _ in range(k):
            if rng.random() < 0.5 and pairs:
                rems.append(pairs[int(rng.integers(0, len(pairs)))])
            else:
                adds.extend(_random_pairs(rng, n, 1))
        segments.append((tuple(adds), tuple(rems)))
    return g, tuple(segments), f"edits-mixed-{n}-k{total}"


def _edit_insert_only(rng):
    """Insert-only script on a sparse (likely disconnected) graph."""
    n = int(rng.integers(8, 24))
    g = erdos_renyi_graph(n, 0.04, directed=bool(rng.integers(2)), seed=rng)
    k = int(rng.integers(1, 9))
    return (g, ((tuple(_random_pairs(rng, n, k)), tuple()),),
            f"edits-insert-{n}-k{k}")


def _edit_delete_only(rng):
    """Delete-only script; includes deletes of absent edges (no-ops)."""
    n = int(rng.integers(6, 18))
    g = erdos_renyi_graph(n, 0.3, directed=bool(rng.integers(2)), seed=rng)
    pairs = _existing_pairs(g)
    k = min(len(pairs), int(rng.integers(1, 6)))
    rems = [pairs[int(i)] for i in rng.choice(len(pairs), size=k, replace=False)] \
        if pairs else []
    rems += _random_pairs(rng, n, 1)  # probably absent: must be a no-op
    return g, ((tuple(), tuple(rems)),), f"edits-delete-{n}-k{k}"


def _edit_growth(rng):
    """Edits whose endpoints grow the vertex set past the stored ``n``."""
    n = int(rng.integers(4, 12))
    g = erdos_renyi_graph(n, 0.2, directed=bool(rng.integers(2)), seed=rng)
    grow = [(int(rng.integers(0, n)), n + i) for i in range(int(rng.integers(1, 4)))]
    segments = [((tuple(grow), tuple()))]
    if rng.random() < 0.5:  # then wire the new vertices together
        segments.append((((n, n + len(grow) - 1),), tuple())
                        if len(grow) > 1 else ((tuple(grow[:1])), tuple()))
    return g, tuple(segments), f"edits-growth-{n}+{len(grow)}"


_EDIT_RECIPES = (
    _edit_random_mixed,
    _edit_hub_deletion,
    _edit_bridge_insertion,
    _edit_shortcut,
    _edit_noop_reinsert,
    _edit_insert_only,
    _edit_delete_only,
    _edit_growth,
)


class EditScriptFuzzer:
    """Deterministic dynamic-graph fuzz stream.

    Same determinism contract as :class:`GraphFuzzer` with a distinct RNG
    stream (``default_rng([seed, index, 2])``), so graph cases and edit
    cases at the same ``(seed, index)`` never correlate.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def case(self, index: int) -> EditScriptCase:
        rng = np.random.default_rng([self.seed, index, 2])
        base = _EDIT_RECIPES[index % len(_EDIT_RECIPES)]
        graph, segments, label = base(rng)
        return EditScriptCase(
            index=index,
            recipe=label,
            graph=graph,
            segments=segments,
            sources=_pick_sources(graph, rng),
        )

    def cases(self, budget: int) -> Iterator[EditScriptCase]:
        for i in range(budget):
            yield self.case(i)
