"""The tcSpMM kernel: blocked-bitmap SpMM on the (simulated) tensor cores.

Following the BFS-as-SpMM-on-MMA formulation of Elbek & Kaya (PAPERS.md),
the stored CSC is viewed through a 16x16 *tile directory*
(:meth:`CSCMatrix.tile_plan`): for every occupied tile the kernel

1. decodes the tile's stored entries into a dense 16x16 A-fragment,
2. loads the matching 16-row stripe of the frontier matrix as the
   B-fragment, and
3. issues ``ceil(B / 16)`` 16x16x16 MMA ops, accumulating into the output
   stripe's C-fragment.

Tiles whose column stripe is fully masked or whose row stripe holds no
frontier entry are skipped from the directory alone (the blocked-bitmap
pruning), so the MMA pipe only sees *active* tiles.  Each MMA op costs
``MMA_FLOPS_PER_OP`` dense flops against the spec's ``mma_tflops`` ceiling
no matter how sparse the tile: the counters' tile-fill occupancy
(``flops / (mma_ops * MMA_FLOPS_PER_OP / 2)``) is exactly the fraction of
that dense work which was useful.  Wide batches over dense-frontier
levels amortise a tile's decode over up to 16 lanes; but pruning also makes
a B = 1 level cost only its few active tiles, so on deep sparse-frontier
traversals (road networks) the adaptive dispatcher picks this kernel for
almost every per-source SpMV.  The dispatcher's estimate and the launch
share one active-tile reduction per level (:func:`active_tile_stats`).

The modeled MMA pipe is dtype-agnostic (an A100-style double-precision
tensor pipe, scaled to this part); see DeviceSpec.mma_tflops for why this
is a documented simulated extension of the paper's Pascal card.

The *results* never touch a tensor-core numeric path: accumulation is the
same storage-order float64 product as every other kernel
(:mod:`repro.spmv._spmm`), so outputs are bit-identical to ``sccsc`` --
only the KernelStats (and so the modeled time) reflect the MMA execution.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import distinct_sorted
from repro.formats.csc import CSCMatrix
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelStats, LaunchTable
from repro.gpusim import warp as W
from repro.spmv import _spmm as M

#: Warp issue cycles per active tile: directory read, fragment zero-fill,
#: stripe bookkeeping and the C-fragment commit.
_TILE_BASE_CYCLES = 24
#: Issue cycles per stored entry decoded into the dense A-fragment.
_DECODE_CYCLES = 2
#: Warp cycles to issue one 16x16x16 MMA op (the op itself then runs on the
#: MMA pipe, modeled separately via ``KernelStats.mma_ops``).
_MMA_ISSUE_CYCLES = 8


def stripe_any(mask: np.ndarray) -> np.ndarray:
    """Per-stripe OR of a boolean vector over ``MMA_TILE``-wide stripes:
    ``out[s] = mask[s*16:(s+1)*16].any()``."""
    mask = np.ascontiguousarray(mask, dtype=bool)
    pad = (-mask.size) % W.MMA_TILE
    if pad:
        mask = np.concatenate([mask, np.zeros(pad, dtype=bool)])
    # A bool is one 0/1 byte, so a stripe is set iff one of its 8-byte words
    # is nonzero; OR-ing the word columns is 3-12x faster than a short-axis
    # any() at n = 10k-100k.
    words = mask.view(np.uint64).reshape(-1, W.MMA_TILE // 8)
    acc = words[:, 0].copy()
    for j in range(1, words.shape[1]):
        acc |= words[:, j]
    return acc != 0


def active_tile_stats(
    csc: CSCMatrix, row_stripe_ok: np.ndarray, col_stripe_ok: np.ndarray
) -> tuple[int, int, int, int, int]:
    """Reduce the tile directory to the tiles active under two stripe bitmaps.

    A tile is active when its row stripe holds a frontier entry and its
    column stripe an allowed column.  Returns ``(n_active, nnz_active,
    max_tile, chain_col, chain_row)``: the active tile count, their stored
    entries, the fullest active tile, and the most active tiles sharing one
    column / row stripe (the commit chains of gather / scatter products).

    The dispatcher's estimate and the launch it picks ask for the same
    bitmaps, so the last answer is memoised on the matrix, keyed by the
    bitmaps' bytes; an edit builds a new matrix and so a fresh memo.
    """
    key = (row_stripe_ok.tobytes(), col_stripe_ok.tobytes())
    memo = csc._active_tile_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    t_row, t_col, t_cnt = csc.tile_plan(W.MMA_TILE)
    active = (
        col_stripe_ok[t_col] & row_stripe_ok[t_row]
        if t_row.size
        else np.zeros(0, dtype=bool)
    )
    n_active = int(np.count_nonzero(active))
    if n_active:
        cnt = t_cnt[active]
        stats = (
            n_active, int(cnt.sum()), int(cnt.max()),
            int(np.bincount(t_col[active]).max()),
            int(np.bincount(t_row[active]).max()),
        )
    else:
        stats = (0, 0, 0, 0, 0)
    csc._active_tile_memo = (key, stats)
    return stats


def level_tile_stats(
    csc: CSCMatrix, row_level: np.ndarray, col_level: np.ndarray | None, n_levels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`active_tile_stats` of every level of one traversal at once.

    ``row_level[r]`` is the one level at which row ``r`` holds a frontier
    entry (``0``: none); ``col_level[c]`` is the last level at which column
    ``c`` is allowed (``None``: every column at every level).  Returns
    ``(n_active, nnz_active, max_tile, chain_col)``, each indexed by level
    ``0 .. n_levels``.

    The active (level, row stripe) pairs are expanded over the tile
    directory grouped by row stripe, then filtered by the column stripe's
    last allowed level -- O(n + active tiles) for the whole traversal
    instead of a pass over the directory per level.
    """
    t_row, t_col, t_cnt = csc.tile_plan(W.MMA_TILE)
    out = tuple(np.zeros(n_levels + 1, dtype=np.int64) for _ in range(4))
    rows = np.flatnonzero(row_level)
    if rows.size == 0 or t_row.size == 0:
        return out
    n_row_stripes = -(-csc.n_rows // W.MMA_TILE)
    n_col_stripes = -(-csc.n_cols // W.MMA_TILE)
    pairs = distinct_sorted(row_level[rows].astype(np.int64) * n_row_stripes
                            + rows // W.MMA_TILE)
    p_level, p_stripe = pairs // n_row_stripes, pairs % n_row_stripes
    if csc._tile_row_order is None:
        order = np.argsort(t_row, kind="stable")
        starts = np.zeros(n_row_stripes + 1, dtype=np.int64)
        np.cumsum(np.bincount(t_row, minlength=n_row_stripes), out=starts[1:])
        csc._tile_row_order = (starts, t_col[order], t_cnt[order])
    starts, col_by_row, cnt_by_row = csc._tile_row_order
    # expand every pair over its row stripe's tiles: positions into the
    # row-grouped directory, each pair's run starting at its stripe's start
    per_pair = starts[p_stripe + 1] - starts[p_stripe]
    idx = np.repeat(starts[p_stripe] - (np.cumsum(per_pair) - per_pair), per_pair)
    idx += np.arange(idx.size)
    col = col_by_row[idx]
    level = np.repeat(p_level, per_pair)
    if col_level is not None:
        pad = np.zeros(n_col_stripes * W.MMA_TILE, dtype=np.int64)
        pad[: csc.n_cols] = col_level
        stripe_last = pad.reshape(-1, W.MMA_TILE).max(axis=1)
        keep = stripe_last[col] >= level
        idx, col, level = idx[keep], col[keep], level[keep]
    if idx.size == 0:
        return out
    n_active, nnz_active, max_tile, chain_col = out
    # ``level`` is sorted (the pairs were), so each level is one run
    n_active[:] = np.bincount(level, minlength=n_levels + 1)
    ends = np.cumsum(n_active)
    cnt = cnt_by_row[idx]
    csum = np.concatenate(([0], np.cumsum(cnt)))
    nnz_active[:] = csum[ends] - csum[ends - n_active]
    busy = n_active > 0
    max_tile[busy] = np.maximum.reduceat(cnt, (ends - n_active)[busy])
    # active tiles per (level, column stripe), a block of levels at a time
    # so the dense histogram stays small
    block = max(1, 2**22 // n_col_stripes)
    for lo in range(1, n_levels + 1, block):
        hi = min(lo + block, n_levels + 1)
        sel = slice(ends[lo - 1], ends[hi - 1])
        hist = np.bincount((level[sel] - lo) * n_col_stripes + col[sel],
                           minlength=(hi - lo) * n_col_stripes)
        chain_col[lo:hi] = hist.reshape(hi - lo, n_col_stripes).max(axis=1)
    return out


def _tc_stats(
    csc: CSCMatrix,
    tiles,
    B: int,
    x_dtype,
    write_txn,
    n_flops,
    name: str,
    l2_bytes: int,
    *,
    masked: bool,
) -> LaunchTable:
    """Launch rows of blocked tensor-core passes over the active tiles.

    ``tiles`` is ``(n_active, nnz_active, max_tile, chain)`` where
    ``chain`` is the most active tiles sharing one output stripe (column
    stripes for gather products, row stripes for scatter): those commit
    their C-fragments in sequence, which is the kernel's critical path.
    Every argument but the structure may be a per-level array; one row per
    level comes back.
    """
    n_tiles = csc.tile_plan(W.MMA_TILE)[0].size
    n_active, nnz_active, max_tile, chain, write_txn, n_flops = (
        np.atleast_1d(np.asarray(a, dtype=np.int64))
        for a in (*tiles, write_txn, n_flops)
    )
    mma_per_tile = -(-B // W.MMA_TILE)
    item = np.dtype(x_dtype).itemsize
    n = csc.n_cols

    dir_txn = W.coalesced_transactions(3 * n_tiles)
    ent_txn = W.coalesced_transactions(nnz_active)
    x_txn = W.bwide_gather_transactions(
        n_active * W.MMA_TILE, B, csc.n_rows, item, l2_bytes=l2_bytes
    )
    mask_txn = W.coalesced_transactions(n * B) if masked else 0
    stripe_txn = W.coalesced_transactions(csc.n_rows) + W.coalesced_transactions(n)

    tile_cycles = _TILE_BASE_CYCLES + mma_per_tile * _MMA_ISSUE_CYCLES
    return LaunchTable.of(
        name,
        threads=n_active * W.WARP_SIZE,
        warp_cycles=n_active * tile_cycles + nnz_active * _DECODE_CYCLES,
        dram_read_bytes=(dir_txn + ent_txn + x_txn + mask_txn + stripe_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(3 * n_tiles + nnz_active + (n * B if masked else 0)) * 4
        + n_active * W.MMA_TILE * B * item,
        critical_warp_cycles=chain * tile_cycles + max_tile * _DECODE_CYCLES,
        flops=n_flops,
        mma_ops=W.mma_ops_for_tiles(n_active, B),
    )


def _cost(csc: CSCMatrix, p: M.Product, name: str, l2_bytes: int) -> KernelStats:
    """:func:`_tc_stats` of one launch.

    A gather's active tiles have a row stripe with an active row and a
    column stripe with an allowed lane, and commit along column stripes; a
    scatter's tiles with an active column stripe multiply un-transposed,
    committing into row stripes.
    """
    if p.scatter:
        row_ok = np.ones(-(-csc.n_rows // W.MMA_TILE), dtype=bool)
        col_ok = stripe_any(p.active)
        n_flops = int(p.active @ csc.column_counts())
    else:
        active_rows = p.active > 0
        row_ok, col_ok = stripe_any(active_rows), stripe_any(p.lanes)
        # allowed lanes x active rows per column: an exact integer in float64
        n_flops = int(p.lanes @ M.gather_spmm_values(csc, active_rows, p.lanes > 0))
    n_active, nnz_active, max_tile, chain_col, chain_row = active_tile_stats(
        csc, row_ok, col_ok
    )
    tiles = (n_active, nnz_active, max_tile, chain_row if p.scatter else chain_col)
    (stats,) = _tc_stats(csc, tiles, p.B, p.x_dtype, p.written * p.out_row_txn, n_flops,
                         name, l2_bytes, masked=p.masked)
    return stats


def tcspmm_spmv(
    device: Device,
    csc: CSCMatrix,
    x: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked gather product on the blocked tensor-core path (B = 1).

    A single frontier vector fills one of 16 operand lanes, so tile-fill is
    poor by construction; what this form wins on is pruning.  On deep,
    sparse-frontier traversals only a handful of tiles are active per level,
    so the dispatcher picks it for nearly every per-source launch there.
    """
    p = M.product(csc, x, batched=False, allowed=allowed, out_dtype=out_dtype,
                  need="lanes active written")
    return p.y, device.launch(_cost(csc, p, "tcspmm_spmv", device.spec.l2_bytes), tag=tag)


def tcspmm_spmv_scatter(
    device: Device,
    csc: CSCMatrix,
    x: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Scatter product ``y = A x`` on the blocked path: tiles with an active
    column stripe multiply un-transposed, committing into row stripes."""
    p = M.product(csc, x, batched=False, scatter=True, out_dtype=out_dtype,
                  need="active written")
    return p.y, device.launch(_cost(csc, p, "tcspmm_spmv_scatter", device.spec.l2_bytes),
                              tag=tag)


def tcspmm_spmm(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked batched gather product ``Y = A^T X`` on the blocked path.

    This is the kernel's home regime: B frontier lanes fill the MMA
    operand, so each active tile amortises its decode over ``ceil(B/16)``
    dense ops.  Lane results are bit-identical to B separate
    :func:`tcspmm_spmv` calls.
    """
    p = M.product(csc, X, batched=True, allowed=allowed, out_dtype=out_dtype,
                  need="lanes active written")
    return p.y, device.launch(_cost(csc, p, "tcspmm_spmm", device.spec.l2_bytes), tag=tag)


def tcspmm_spmm_scatter(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Batched scatter product ``Y = A X`` on the blocked path; lane results
    bit-identical to B separate :func:`tcspmm_spmv_scatter` calls."""
    p = M.product(csc, X, batched=True, scatter=True, out_dtype=out_dtype,
                  need="active written")
    return p.y, device.launch(_cost(csc, p, "tcspmm_spmm_scatter", device.spec.l2_bytes),
                              tag=tag)
