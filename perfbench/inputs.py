"""Seeded input generation.

Every workload input is a pure function of ``(workload, seed, small)``: an
edge-list file for the graph and a JSON script holding the query source
sets, the held sources of the dynamic handle and the edit batches.  The
program under test only ever sees these two files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path


@dataclass(frozen=True)
class Spec:
    """One workload's query shape and edit stream (``BENCHMARK.json`` says why)."""

    batch: int            # BFS lanes per turbo_bc call (1 = per-source pipeline)
    query_sets: int       # distinct 8-source query sets in the script
    held: int             # sources held by the DynamicBC handle
    edit_batches: int     # edit batches in the script
    stream: bool          # True: updates and queries alternate on a moving graph
    # Queries (static) or update/query pairs (stream) that every run
    # completes; the modeled metrics use this prefix alone, so they repeat.
    prefix: int


QUERY_SOURCES = 8

SPECS = {
    "wide-smallworld": Spec(batch=8, query_sets=1, held=QUERY_SOURCES, edit_batches=2,
                            stream=False, prefix=2),
    "deep-road": Spec(batch=1, query_sets=3, held=QUERY_SOURCES, edit_batches=4,
                      stream=False, prefix=3),
    # The stream's edit mix repeats every three batches (see generate), so
    # its prefix and every extension are whole multiples of three pairs.
    "edit-stream": Spec(batch=8, query_sets=12, held=32, edit_batches=12,
                        stream=True, prefix=3),
}


def make_graph(name: str, seed: int, *, small: bool = False):
    """The workload's graph; ``small`` gives a seconds-scale test variant."""
    from repro.graphs.generators.road import road_network_graph
    from repro.graphs.generators.smallworld import small_world_graph
    from repro.graphs.generators.social import powerlaw_cluster_graph

    if name == "wide-smallworld":
        return small_world_graph(2_000 if small else 100_000, k=10,
                                 rewire_p=0.08, seed=seed)
    if name == "deep-road":
        side = 8 if small else 60
        return road_network_graph(side, side, segments=2, keep_prob=0.8, seed=seed)
    if name == "edit-stream":
        return powerlaw_cluster_graph(1_000 if small else 20_000, mean_degree=5,
                                      seed=seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {sorted(SPECS)}")


class _EditableGraph:
    """Undirected adjacency that follows the edit script as it is drawn, plus
    BFS depths from the held sources (scipy, independent of the program)."""

    def __init__(self, graph, held: list[int]):
        self.n = graph.n
        self.held = held
        ones = np.ones(graph.src.size, dtype=np.int8)
        self._adj = sp.csr_matrix((ones, (graph.src, graph.dst)), shape=(self.n, self.n)).tolil()
        self._edges = np.column_stack([graph.src, graph.dst])
        self.refresh()

    def refresh(self) -> None:
        csr = self._adj.tocsr()
        self._ptr, self._row = csr.indptr, csr.indices
        self.depth = shortest_path(csr, unweighted=True, directed=False, indices=self.held)

    def nbrs(self, v: int) -> np.ndarray:
        return self._row[self._ptr[v]:self._ptr[v + 1]]

    def has(self, u: int, v: int) -> bool:
        return bool(np.any(self.nbrs(u) == v))

    def wedge(self, rng) -> tuple[int, int, int]:
        """A uniformly drawn edge endpoint ``v`` (so hubs often) and two of
        its neighbours ``u``, ``w``."""
        while True:
            v = int(self._edges[rng.integers(len(self._edges)), 0])
            nb = self.nbrs(v)
            if nb.size >= 2:
                i, j = rng.choice(nb.size, 2, replace=False)
                return int(nb[i]), v, int(nb[j])

    def affected(self, op: str, u: int, v: int) -> np.ndarray:
        """Held sources whose BFS DAG the edit touches: the exact predicates
        of ``repro.core.incremental.edit_affected_mask``, undirected case."""
        du, dv = self.depth[:, u], self.depth[:, v]
        if op == "remove":
            return np.abs(du - dv) == 1
        return (np.isfinite(du) != np.isfinite(dv)) | (np.isfinite(du) & (du != dv))

    def apply(self, batch: dict) -> None:
        for (u, v), value in [(e, 0) for e in batch["removed"]] + [(e, 1) for e in batch["added"]]:
            self._adj[u, v] = self._adj[v, u] = value
        self.refresh()


#: Share of held sources a "global" batch must touch (the update then falls
#: back to a full run) and a "local" batch may touch at most (it re-runs
#: incrementally); the churn threshold of ``DynamicBC`` is 0.5.
GLOBAL_SHARE, LOCAL_SHARE = 0.8, 0.2


def _edit_batch(g: _EditableGraph, rng, kind: str) -> dict:
    """One edit batch; removals apply before additions, as in ``DynamicBC.update``.

    ``"global"``: delete a random existing edge and insert a triadic closure
    ``u - v - w  =>  u - w``, redrawn until together they touch at least
    ``GLOBAL_SHARE`` of the held sources.  ``"local"``: delete one edge of a
    triangle ``u - v - w - u``, redrawn until it touches at most
    ``LOCAL_SHARE`` of them.  No delete leaves a vertex isolated.  After
    500 draws the closest candidate is taken.
    """
    held = len(g.held)
    best, best_gap = None, None
    for _ in range(500):
        u, v, w = g.wedge(rng)
        if kind == "global":
            a, b = u, v
            x, _, y = g.wedge(rng)
            if x == y or g.has(x, y) or {x, y} == {a, b}:
                continue
            hit = g.affected("remove", a, b) | g.affected("add", x, y)
            gap = GLOBAL_SHARE * held - hit.sum()
            batch = {"added": [[min(x, y), max(x, y)]], "removed": [[min(a, b), max(a, b)]]}
        else:
            a, b = u, w
            if not g.has(a, b):
                continue
            gap = g.affected("remove", a, b).sum() - LOCAL_SHARE * held
            batch = {"added": [], "removed": [[min(a, b), max(a, b)]]}
        if min(g.nbrs(a).size, g.nbrs(b).size) < 2:
            continue
        if best_gap is None or gap < best_gap:
            best, best_gap = batch, gap
        if gap <= 0:
            break
    g.apply(best)
    return best


def _source_set(rng, n: int, k: int) -> list[int]:
    return sorted(int(s) for s in rng.choice(n, k, replace=False))


def generate(name: str, seed: int, out_dir: Path, *, small: bool = False) -> dict:
    """Write ``graph.txt`` and ``script.json`` under ``out_dir``.

    Returns the script plus the file paths and a sha256 digest of each
    file, so two calls can be compared byte for byte.
    """
    from repro.graphs.io import write_edge_list

    spec = SPECS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    graph = make_graph(name, seed, small=small)
    n = graph.n
    query_rng = np.random.default_rng([seed, 1])
    edit_rng = np.random.default_rng([seed, 2])
    queries = [_source_set(query_rng, n, QUERY_SOURCES) for _ in range(spec.query_sets)]
    held = queries[0] if spec.held == QUERY_SOURCES else _source_set(query_rng, n, spec.held)
    # Every third batch of a stream is local (an incremental update), the
    # others global (a full-run fallback): a fixed mix, so the median update
    # stays in one mode and the update rate does not depend on the seed.
    editable = _EditableGraph(graph, held)
    edits = [
        _edit_batch(editable, edit_rng, "local" if spec.stream and i % 3 == 2 else "global")
        for i in range(spec.edit_batches)
    ]
    script = {
        "workload": name, "seed": seed, "small": small, "n": n, "m": graph.m,
        "batch": spec.batch, "held": held, "queries": queries, "edits": edits,
    }
    graph_path = out_dir / "graph.txt"
    script_path = out_dir / "script.json"
    write_edge_list(graph, graph_path, comment=f"{name} seed={seed}")
    script_path.write_text(json.dumps(script, sort_keys=True) + "\n")
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (graph_path, script_path)
    }
    return {**script, "graph_path": graph_path, "digests": digests}
