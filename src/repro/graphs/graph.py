"""The :class:`Graph` container used throughout the reproduction.

A :class:`Graph` is an unweighted graph over vertices ``0 .. n-1`` stored as
canonical (column-major sorted, deduplicated) edge arrays.  Undirected graphs
are stored *symmetrized* -- each undirected edge appears as two directed
entries -- so that ``m`` matches the paper's convention: the number of
non-zeros of the adjacency matrix (this is why the paper's mean degree always
equals ``m / n``).

The adjacency-matrix convention is ``A[u, v] == 1 iff edge u -> v``, so that
the forward BFS frontier update is ``f_t = A^T f`` as in Algorithm 1.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import INDEX_DTYPE
from repro.formats import convert
from repro.formats.coo import COOCMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix


class Graph:
    """Unweighted directed or undirected graph with cached sparse views."""

    def __init__(self, src, dst, n: int, *, directed: bool, name: str = ""):
        """Build a graph from raw edge arrays.

        ``src``/``dst`` may contain duplicates and self-loops; both are
        removed (self-loops never contribute to betweenness).  For undirected
        graphs each input edge is mirrored before canonicalisation.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        src = np.asarray(src)
        dst = np.asarray(dst)
        if not directed and src.size:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        src, dst = convert.canonical_edges(src, dst, n)
        self._src = src
        self._dst = dst
        self.n = int(n)
        self.directed = bool(directed)
        self.name = name
        self._csc: CSCMatrix | None = None
        self._cooc: COOCMatrix | None = None
        self._csr: CSRMatrix | None = None
        self._out_degree: np.ndarray | None = None
        self._in_degree: np.ndarray | None = None
        # Edit generation, bumped by apply_edits().  Graphs are immutable:
        # downstream caches keyed on object identity (tile plans, gather
        # transaction caches, the memoized scf metric) stay valid for this
        # object's whole lifetime, and edited graphs are new objects carrying
        # a higher version so stale plans are unreachable by construction.
        self.cache_version = 0

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_edges(cls, edges, n: int, *, directed: bool, name: str = "") -> "Graph":
        """Build from an ``(m, 2)`` array-like or an iterable of pairs."""
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) array, got shape {arr.shape}")
        return cls(arr[:, 0], arr[:, 1], n, directed=directed, name=name)

    @classmethod
    def from_scipy(cls, mat, *, directed: bool, name: str = "") -> "Graph":
        """Build from any scipy sparse matrix (non-zeros become edges)."""
        coo = mat.tocoo()
        if coo.shape[0] != coo.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got {coo.shape}")
        return cls(coo.row, coo.col, coo.shape[0], directed=directed, name=name)

    @classmethod
    def from_networkx(cls, nxg, name: str = "") -> "Graph":
        """Build from a ``networkx`` graph (nodes must be 0..n-1 integers)."""
        directed = nxg.is_directed()
        n = nxg.number_of_nodes()
        edges = np.asarray(list(nxg.edges()), dtype=np.int64).reshape(-1, 2)
        return cls.from_edges(edges, n, directed=directed, name=name)

    # -- basic properties ----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of adjacency-matrix non-zeros (paper's ``m``)."""
        return int(self._src.size)

    @property
    def num_undirected_edges(self) -> int:
        """For undirected graphs, the number of distinct edges (``m / 2``)."""
        if self.directed:
            raise ValueError("num_undirected_edges is defined for undirected graphs only")
        return self.m // 2

    @property
    def src(self) -> np.ndarray:
        """Source endpoint of every stored non-zero (column-major order)."""
        return self._src

    @property
    def dst(self) -> np.ndarray:
        """Destination endpoint of every stored non-zero (column-major order)."""
        return self._dst

    def out_degree(self) -> np.ndarray:
        """Out-degree per vertex (== degree for undirected graphs)."""
        if self._out_degree is None:
            self._out_degree = np.bincount(self._src, minlength=self.n).astype(INDEX_DTYPE)
        return self._out_degree

    def in_degree(self) -> np.ndarray:
        """In-degree per vertex (== degree for undirected graphs)."""
        if self._in_degree is None:
            self._in_degree = np.bincount(self._dst, minlength=self.n).astype(INDEX_DTYPE)
        return self._in_degree

    # -- sparse views (cached) -----------------------------------------------

    def to_csc(self) -> CSCMatrix:
        """CSC view of the adjacency matrix (shared, do not mutate)."""
        if self._csc is None:
            counts = np.bincount(self._dst, minlength=self.n)
            col_ptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=col_ptr[1:])
            self._csc = CSCMatrix(
                col_ptr, self._src, (self.n, self.n),
                _skip_checks=True, version=self.cache_version,
                symmetric=not self.directed,
            )
        return self._csc

    def to_cooc(self) -> COOCMatrix:
        """COOC view of the adjacency matrix (shared, do not mutate)."""
        if self._cooc is None:
            self._cooc = COOCMatrix(
                self._src, self._dst, (self.n, self.n),
                _skip_checks=True, version=self.cache_version,
                symmetric=not self.directed,
            )
        return self._cooc

    def to_csr(self) -> CSRMatrix:
        """CSR view (used only by the gunrock baseline)."""
        if self._csr is None:
            self._csr = convert.edges_to_csr(self._src, self._dst, self.n)
        return self._csr

    def to_scipy_csc(self):
        """Adjacency matrix as ``scipy.sparse.csc_array`` with unit values."""
        return self.to_csc().to_scipy()

    def to_networkx(self):
        """Convert to a networkx (Di)Graph; requires networkx."""
        import networkx as nx

        nxg = nx.DiGraph() if self.directed else nx.Graph()
        nxg.add_nodes_from(range(self.n))
        nxg.add_edges_from(zip(self._src.tolist(), self._dst.tolist()))
        return nxg

    # -- derived graphs --------------------------------------------------------

    def reverse(self) -> "Graph":
        """Graph with every edge direction flipped (== self when undirected)."""
        g = Graph.__new__(Graph)
        src, dst = convert.canonical_edges(self._dst, self._src, self.n)
        g._src, g._dst = src, dst
        g.n = self.n
        g.directed = self.directed
        g.name = f"{self.name}^T" if self.name else ""
        g._csc = g._cooc = g._csr = None
        g._out_degree = g._in_degree = None
        g.cache_version = 0
        return g

    def apply_edits(self, added=(), removed=()) -> "Graph":
        """New graph with ``removed`` edges deleted and ``added`` inserted.

        ``added``/``removed`` are iterables of ``(u, v)`` pairs.  Within one
        call removals apply before additions, so a script naming an edge in
        both ends with the edge present.  For undirected graphs each pair
        edits both stored arcs.  Removing an absent edge or re-adding a
        present one is a no-op; adding endpoints ``>= n`` grows the graph.

        Returns a *new* :class:`Graph` (this one is untouched) whose stored
        edge order is bit-identical to building the edited edge list from
        scratch, with ``cache_version`` bumped -- all sparse views and
        degree caches are rebuilt lazily on the new object.
        """
        from repro.formats.edits import _as_pair_arrays, apply_edge_edits

        add_src, add_dst = _as_pair_arrays(added)
        rem_src, rem_dst = _as_pair_arrays(removed)
        if not self.directed:
            add_src, add_dst = (np.concatenate([add_src, add_dst]),
                                np.concatenate([add_dst, add_src]))
            rem_src, rem_dst = (np.concatenate([rem_src, rem_dst]),
                                np.concatenate([rem_dst, rem_src]))
        src, dst, n = apply_edge_edits(
            self._src, self._dst, self.n,
            np.column_stack([add_src, add_dst]),
            np.column_stack([rem_src, rem_dst]),
        )
        g = Graph.__new__(Graph)
        g._src, g._dst = src, dst
        g.n = n
        g.directed = self.directed
        g.name = f"{self.name}+edit" if self.name else ""
        g._csc = g._cooc = g._csr = None
        g._out_degree = g._in_degree = None
        g.cache_version = self.cache_version + 1
        return g

    def relabel(self, perm) -> "Graph":
        """Graph with vertex ``v`` renamed ``perm[v]`` (a permutation).

        Betweenness is a graph invariant, so ``bc(g.relabel(p))[p[v]]``
        must equal ``bc(g)[v]`` -- the conformance suite's relabeling
        oracle.
        """
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.n,):
            raise ValueError(f"perm must have shape ({self.n},), got {perm.shape}")
        if np.unique(perm).size != self.n or (self.n and (perm.min() < 0 or perm.max() >= self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        return Graph(
            perm[self._src], perm[self._dst], self.n,
            directed=self.directed,
            name=f"{self.name}~pi" if self.name else "",
        )

    def subgraph(self, vertices) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``, relabelled to ``0..k-1``.

        Returns ``(subgraph, mapping)`` where ``mapping[i]`` is the original
        id of the subgraph's vertex ``i``.
        """
        keep = np.unique(np.asarray(list(vertices), dtype=np.int64))
        if keep.size and (keep[0] < 0 or keep[-1] >= self.n):
            raise ValueError("subgraph vertices out of range")
        relabel = np.full(self.n, -1, dtype=np.int64)
        relabel[keep] = np.arange(keep.size)
        mask = (relabel[self._src] >= 0) & (relabel[self._dst] >= 0)
        sub = Graph(
            relabel[self._src[mask]],
            relabel[self._dst[mask]],
            keep.size,
            directed=self.directed,
            name=f"{self.name}[{keep.size}]" if self.name else "",
        )
        return sub, keep

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        label = f" {self.name!r}" if self.name else ""
        return f"Graph({kind}{label}, n={self.n}, m={self.m})"
