"""Graph I/O: MatrixMarket (.mtx, the SuiteSparse interchange format) and
plain whitespace edge lists (the SNAP interchange format).

Only the coordinate / pattern-or-value flavours of MatrixMarket that occur in
the paper's benchmark collections are supported; values are discarded because
the paper treats every graph as unweighted.
"""

from __future__ import annotations

import io as _io
import warnings
from pathlib import Path

import numpy as np

from repro.graphs.graph import Graph


def write_matrix_market(graph: Graph, path) -> None:
    """Write the graph's adjacency pattern as a MatrixMarket coordinate file.

    Undirected graphs are written with ``symmetric`` storage (lower triangle
    only), matching SuiteSparse convention; directed graphs as ``general``.
    """
    path = Path(path)
    sym = "general" if graph.directed else "symmetric"
    with path.open("w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate pattern {sym}\n")
        fh.write(f"% written by repro (TurboBC reproduction): {graph.name}\n")
        if graph.directed:
            src, dst = graph.src, graph.dst
        else:
            keep = graph.src >= graph.dst  # lower triangle incl. diagonal
            src, dst = graph.src[keep], graph.dst[keep]
        fh.write(f"{graph.n} {graph.n} {src.size}\n")
        # one-based indices, row column order
        np.savetxt(fh, np.column_stack([src + 1, dst + 1]), fmt="%d")


def read_matrix_market(path, *, name: str = "") -> Graph:
    """Read a MatrixMarket coordinate file as an unweighted graph.

    ``symmetric`` / ``skew-symmetric`` / ``hermitian`` storage produces an
    undirected graph; ``general`` produces a directed one.
    """
    path = Path(path)
    with path.open("r") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError(f"{path}: not a MatrixMarket file")
        fields = header.strip().lower().split()
        if "coordinate" not in fields:
            raise ValueError(f"{path}: only coordinate MatrixMarket files are supported")
        symmetric = any(f in fields for f in ("symmetric", "skew-symmetric", "hermitian"))
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed size line {line!r}")
        n_rows, n_cols, nnz = (int(p) for p in parts)
        if n_rows != n_cols:
            raise ValueError(f"{path}: adjacency matrix must be square, got {n_rows}x{n_cols}")
        body = np.loadtxt(fh, ndmin=2, max_rows=nnz) if nnz else np.empty((0, 2))
    if body.shape[0] != nnz:
        raise ValueError(f"{path}: expected {nnz} entries, found {body.shape[0]}")
    if body.shape[1] < 2:
        raise ValueError(f"{path}: entries need a row and a column index")
    idx = body[:, :2]
    if not (np.isfinite(idx).all() and (idx == np.round(idx)).all()):
        bad = int(np.flatnonzero(~(np.isfinite(idx) & (idx == np.round(idx))).all(axis=1))[0])
        raise ValueError(f"{path}: entry {bad + 1} has a non-integral index {idx[bad].tolist()}")
    src = body[:, 0].astype(np.int64) - 1
    dst = body[:, 1].astype(np.int64) - 1
    return Graph(src, dst, n_rows, directed=not symmetric, name=name or path.stem)


def write_edge_list(graph: Graph, path, *, comment: str = "") -> None:
    """Write a SNAP-style whitespace edge list (zero-based vertex ids)."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"# {graph.name or 'graph'}: n={graph.n} m={graph.m}"
                 f" {'directed' if graph.directed else 'undirected'}\n")
        if comment:
            fh.write(f"# {comment}\n")
        if graph.directed:
            src, dst = graph.src, graph.dst
        else:
            keep = graph.src < graph.dst
            src, dst = graph.src[keep], graph.dst[keep]
        np.savetxt(fh, np.column_stack([src, dst]), fmt="%d")


def read_edge_list(path, *, n: int | None = None, directed: bool = True, name: str = "") -> Graph:
    """Read a SNAP-style whitespace edge list.

    Blank lines and everything after a ``#`` or ``%`` are skipped; every
    other line holds an edge in its first two columns (further columns are
    ignored).  A line with one column or a non-integer vertex id raises
    ``ValueError``.  If ``n`` is omitted it is inferred as
    ``max vertex id + 1``.  Parsed by NumPy's C reader.
    """
    path = Path(path)
    # Both comment characters become "#": NumPy's C tokenizer handles one
    # comment string, and a tuple of them sends every line through a
    # per-line Python pass (~4x the parse time of a 1M-arc file).
    # NumPy parses the decoded text, not the path: freeing the text buffer
    # (~4 bytes a character) raises glibc's dynamic mmap/trim thresholds.
    # Without that, a later 100k-vertex batched query re-faults its
    # per-level (n, B) temporaries every level (x86-64 glibc, 2-core VM,
    # 1.0M arcs: ~8,000 minor page faults a query instead of 0-4, and a
    # few percent more wall time).
    text = _io.StringIO(path.read_text().replace("%", "#"))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            edges = np.loadtxt(text, comments="#", usecols=(0, 1),
                               dtype=np.int64, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed edge list: {exc}") from exc
    edges = edges.reshape(-1, 2)
    if n is None:
        n = int(edges.max()) + 1 if edges.size else 0
    return Graph(edges[:, 0], edges[:, 1], n, directed=directed, name=name or path.stem)
