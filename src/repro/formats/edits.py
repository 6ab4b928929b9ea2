"""Edge-edit application for the device storage formats (DESIGN.md §14).

Dynamic graphs mutate by small edit scripts; the storage formats are
column-major sorted and deduplicated, so every edit application must end in
the same canonical entry order a from-scratch build would produce.  This
module is the single place that discipline lives:

* :func:`apply_edge_edits` -- arc-level edits on canonical edge arrays
  (remove, then add, each spliced into the column-major order);
* :func:`csc_apply_edits` / :func:`cooc_apply_edits` -- the same edits on a
  built CSC / COOC matrix, emitting a *new* matrix whose entry order is
  bit-identical to rebuilding from the edited edge list.

Edited matrices are always new objects with a bumped ``version``: consumers
that memoize on object identity (tile plans, transaction caches, the scf
metric) can never observe a stale plan after an edit, because the edited
object never aliases the original.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import INDEX_DTYPE, as_index_array, distinct_sorted
from repro.formats.convert import canonical_edges, edge_keys, split_keys
from repro.formats.coo import COOCMatrix
from repro.formats.csc import CSCMatrix


def _as_pair_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Normalise an iterable of ``(u, v)`` pairs to two int64 arrays."""
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                     dtype=np.int64)
    if arr.size == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edits must be (k, 2) pairs, got shape {arr.shape}")
    if arr.min() < 0:
        raise ValueError("edit endpoints must be non-negative")
    return arr[:, 0].copy(), arr[:, 1].copy()


def apply_edge_edits(
    src: np.ndarray,
    dst: np.ndarray,
    n: int,
    added,
    removed,
    *,
    drop_self_loops: bool = True,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Apply arc-level edits to canonical edge arrays.

    ``added`` / ``removed`` are iterables of ``(u, v)`` *arcs* (callers
    mirror pairs for undirected graphs before calling).  Semantics:

    * removals apply first, then additions -- so an edit script carrying
      both ``-e`` and ``+e`` ends with ``e`` present;
    * removing an absent arc and re-adding a present one are no-ops;
    * ``n`` grows to cover added endpoints; removals referencing vertices
      outside the current graph match nothing.

    Returns ``(src, dst, n)`` exactly as a from-scratch build of the edited
    edge list (column-major sorted, deduplicated).  The edits are spliced
    into the canonical order by binary search (DESIGN.md "Graph ingest"),
    so a batch of ``k`` edits costs ``O(m + k log m)``; input that is not
    canonical is canonicalised first.
    """
    add_src, add_dst = _as_pair_arrays(added)
    rem_src, rem_dst = _as_pair_arrays(removed)
    # validated before any key is formed: an id >= 2^31 must raise, not wrap
    add_src = as_index_array(add_src, name="added src")
    add_dst = as_index_array(add_dst, name="added dst")
    new_n = int(n)
    if add_src.size:
        new_n = max(new_n, int(add_src.max()) + 1, int(add_dst.max()) + 1)

    src, dst, keys = _canonical(src, dst, new_n, drop_self_loops)
    if drop_self_loops:
        loop = add_src == add_dst
        add_src, add_dst = add_src[~loop], add_dst[~loop]
    new = distinct_sorted(edge_keys(add_src, add_dst))
    fits = np.maximum(rem_src, rem_dst) <= np.iinfo(INDEX_DTYPE).max
    gone = distinct_sorted(edge_keys(rem_src[fits], rem_dst[fits]))
    # an arc removed and re-added stays; an added arc already stored is a no-op
    gone = gone[~_find(new, gone)[1]]
    cut, hit = _find(keys, gone)
    cut = cut[hit]
    at, hit = _find(keys, new)
    new, at = new[~hit], at[~hit]
    # ``at`` indexes the unedited arrays; shift it past the cut entries before it
    at -= np.searchsorted(cut, at)
    new_src, new_dst = split_keys(new)
    src = np.insert(np.delete(src, cut), at, new_src)
    dst = np.insert(np.delete(dst, cut), at, new_dst)
    return src, dst, new_n


def _canonical(src, dst, n: int, drop_self_loops: bool):
    """``canonical_edges(src, dst, n, ...)`` and its keys.  Input it would
    return unchanged -- strictly increasing keys, endpoints below ``n``, no
    self-loop when they are dropped -- passes through without a sort."""
    src = as_index_array(src, name="src")
    dst = as_index_array(dst, name="dst")
    if src.size == dst.size:
        keys = edge_keys(src, dst)
        if keys.size == 0 or (np.all(keys[1:] > keys[:-1])
                              and int(src.max()) < n and int(dst[-1]) < n
                              and not (drop_self_loops and np.any(src == dst))):
            return src, dst, keys
    src, dst = canonical_edges(src, dst, n, drop_self_loops=drop_self_loops)
    return src, dst, edge_keys(src, dst)


def _find(keys: np.ndarray, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion points of ``probe`` in the strictly increasing ``keys``,
    and which probes are stored there."""
    at = np.searchsorted(keys, probe)
    hit = np.zeros(probe.size, dtype=bool)
    inside = at < keys.size
    hit[inside] = keys[at[inside]] == probe[inside]
    return at, hit


def csc_apply_edits(mat: CSCMatrix, added, removed) -> CSCMatrix:
    """Edited copy of a CSC matrix (square shapes only).

    The stored entries minus ``removed`` plus ``added``, re-sorted
    column-major -- a new :class:`CSCMatrix` with ``version`` bumped so any
    identity-keyed consumer cache (tile plans, gather-transaction caches)
    is invalidated by construction.
    """
    if mat.n_rows != mat.n_cols:
        raise ValueError(f"csc_apply_edits needs a square matrix, got {mat.shape}")
    src, dst, n = apply_edge_edits(
        mat.row, mat.column_of_nnz(), mat.n_cols, added, removed,
        drop_self_loops=False,
    )
    counts = np.bincount(dst, minlength=n)
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    return CSCMatrix(col_ptr, src, (n, n), _skip_checks=True,
                     version=mat.version + 1)


def cooc_apply_edits(mat: COOCMatrix, added, removed) -> COOCMatrix:
    """Edited copy of a COOC matrix (square shapes only); see
    :func:`csc_apply_edits` -- by construction the edited COOC ``row`` array
    equals the edited CSC ``row`` array for the same edits."""
    if mat.n_rows != mat.n_cols:
        raise ValueError(f"cooc_apply_edits needs a square matrix, got {mat.shape}")
    src, dst, n = apply_edge_edits(
        mat.row, mat.col, mat.n_cols, added, removed, drop_self_loops=False,
    )
    return COOCMatrix(src, dst, (n, n), _skip_checks=True,
                      version=mat.version + 1)
