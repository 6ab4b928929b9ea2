"""Conversions between edge lists and the device storage formats.

All builders accept raw ``(src, dst)`` edge arrays, canonicalise them
(column-major sort, duplicate removal, optional self-loop removal) and emit
the requested format.  Canonicalisation is done once here so that every
format sees identical entry ordering -- the COOC ``row`` array is by
construction equal to the CSC ``row`` array, exactly as the paper describes.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import INDEX_DTYPE, as_index_array, distinct_sorted
from repro.formats.coo import COOCMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix


# Bits of the source id in an arc's sort key: every int32 id fits.
_KEY_SHIFT = 31
_KEY_MASK = (1 << _KEY_SHIFT) - 1


def edge_keys(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """One int64 key per arc, ``dst * 2^31 + src`` (below ``2^62``).

    Ascending keys are the column-major order (by dst, then src), so a
    canonical edge list is exactly one with strictly increasing keys.
    ``src``/``dst`` must already be valid int32 ids (:func:`as_index_array`).
    """
    return (dst.astype(np.int64) << _KEY_SHIFT) | src


def split_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`edge_keys`: the int32 ``(src, dst)`` of each key."""
    return ((keys & _KEY_MASK).astype(INDEX_DTYPE),
            (keys >> _KEY_SHIFT).astype(INDEX_DTYPE))


def canonical_edges(
    src, dst, n: int, *, drop_self_loops: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Return edge arrays sorted column-major (by dst, then src), deduplicated.

    Parameters
    ----------
    src, dst:
        Edge endpoint arrays; an entry ``(src[k], dst[k])`` is the matrix
        non-zero ``A[src[k], dst[k]]``, i.e. the edge ``src[k] -> dst[k]``.
    n:
        Number of vertices; endpoints must lie in ``[0, n)``.
    drop_self_loops:
        Self-loops never lie on a shortest path between distinct vertices, so
        BC ignores them; dropping them matches the paper's preprocessing.

    One sort of the arcs' :func:`edge_keys` (DESIGN.md "Graph ingest"):
    equal keys are equal pairs, so dropping repeats deduplicates.
    """
    src = as_index_array(src, name="src")
    dst = as_index_array(dst, name="dst")
    if src.size != dst.size:
        raise ValueError(f"src and dst must have equal length, got {src.size} != {dst.size}")
    if src.size and (int(src.max()) >= n or int(dst.max()) >= n):
        raise ValueError(f"edge endpoint out of range for n = {n}")
    keys = edge_keys(src, dst)
    if drop_self_loops:
        keys = keys[src != dst]
    return split_keys(distinct_sorted(keys))


def edges_to_cooc(src, dst, n: int, *, drop_self_loops: bool = True) -> COOCMatrix:
    """Build a COOC matrix from raw edges (``src -> dst`` becomes A[src, dst])."""
    row, col = canonical_edges(src, dst, n, drop_self_loops=drop_self_loops)
    return COOCMatrix(row, col, (n, n), _skip_checks=True)


def edges_to_csc(src, dst, n: int, *, drop_self_loops: bool = True) -> CSCMatrix:
    """Build a CSC matrix from raw edges."""
    row, col = canonical_edges(src, dst, n, drop_self_loops=drop_self_loops)
    counts = np.bincount(col, minlength=n)
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    return CSCMatrix(col_ptr, row, (n, n), _skip_checks=True)


def edges_to_csr(src, dst, n: int, *, drop_self_loops: bool = True) -> CSRMatrix:
    """Build a CSR matrix from raw edges."""
    src = as_index_array(src, name="src")
    dst = as_index_array(dst, name="dst")
    # Row-major canonicalisation: reuse canonical_edges on the transpose.
    col, row = canonical_edges(dst, src, n, drop_self_loops=drop_self_loops)
    counts = np.bincount(row, minlength=n)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return CSRMatrix(row_ptr, col, (n, n), _skip_checks=True)


def cooc_to_csc(mat: COOCMatrix) -> CSCMatrix:
    """Compress a COOC matrix's column array into column pointers."""
    counts = np.bincount(mat.col, minlength=mat.n_cols)
    col_ptr = np.zeros(mat.n_cols + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    return CSCMatrix(col_ptr, mat.row.copy(), mat.shape, _skip_checks=True,
                     symmetric=mat.symmetric)


def csc_to_cooc(mat: CSCMatrix) -> COOCMatrix:
    """Expand a CSC matrix's column pointers into an explicit column array."""
    return COOCMatrix(mat.row.copy(), mat.column_of_nnz(), mat.shape, _skip_checks=True,
                      symmetric=mat.symmetric)


def csc_to_csr(mat: CSCMatrix) -> CSRMatrix:
    """Re-sort a CSC matrix's entries row-major."""
    return edges_to_csr(mat.row, mat.column_of_nnz(), mat.n_rows, drop_self_loops=False)


def csr_to_csc(mat: CSRMatrix) -> CSCMatrix:
    """Re-sort a CSR matrix's entries column-major."""
    return edges_to_csc(mat.row_of_nnz(), mat.col, mat.n_rows, drop_self_loops=False)


def format_coherence_report(graph) -> list[str]:
    """Cross-check a graph's cached sparse views against each other.

    The paper's single-format discipline relies on the COOC ``row`` array
    being *by construction* equal to the CSC ``row`` array, and on the CSR
    view being the same matrix re-sorted row-major.  A violated invariant
    here means a kernel could read a different matrix depending on the
    format the selected algorithm stores -- exactly the class of divergence
    the conformance harness hunts.  Returns a list of violation messages
    (empty = coherent); O(m log m).
    """
    errors: list[str] = []
    csc, cooc, csr = graph.to_csc(), graph.to_cooc(), graph.to_csr()
    if not np.array_equal(csc.row, cooc.row):
        errors.append("CSC row array != COOC row array")
    if not np.array_equal(csc.column_of_nnz(), cooc.col):
        errors.append("CSC column-of-nnz != COOC col array")
    if csc.nnz != csr.nnz:
        errors.append(f"CSC nnz {csc.nnz} != CSR nnz {csr.nnz}")
    else:
        # Same entry set under the two sort orders.
        csc_keys = csc.column_of_nnz() * graph.n + csc.row
        csr_keys = csr.col * graph.n + csr.row_of_nnz()
        if not np.array_equal(np.sort(csc_keys), np.sort(csr_keys)):
            errors.append("CSC and CSR encode different entry sets")
    if np.any(csc.row == csc.column_of_nnz()):
        errors.append("stored self-loop survived canonicalisation")
    if not graph.directed and csc.nnz:
        # Symmetric storage: (u, v) stored iff (v, u) stored.
        fwd = csc.row * graph.n + csc.column_of_nnz()
        rev = csc.column_of_nnz() * graph.n + csc.row
        if not np.array_equal(np.sort(fwd), np.sort(rev)):
            errors.append("undirected graph's stored matrix is not symmetric")
    return errors
