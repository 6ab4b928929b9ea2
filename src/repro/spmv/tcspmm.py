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
that dense work which was useful.  The path therefore wins only on wide
batches over dense-frontier levels of clustered graphs -- which is when the
adaptive dispatcher picks it.

The modeled MMA pipe is dtype-agnostic (an A100-style double-precision
tensor pipe, scaled to this part); see DeviceSpec.mma_tflops for why this
is a documented simulated extension of the paper's Pascal card.

The *results* never touch a tensor-core numeric path: accumulation is the
same storage-order float64 ``bincount`` as every other kernel
(:mod:`repro.spmv._spmm`), so outputs are bit-identical to ``sccsc`` --
only the KernelStats (and so the modeled time) reflect the MMA execution.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csc import CSCMatrix
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelStats
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


def stripe_any(mask: np.ndarray, tile: int = W.MMA_TILE) -> np.ndarray:
    """Per-stripe OR of a boolean vector: ``out[s] = mask[s*tile:(s+1)*tile].any()``."""
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return np.zeros(0, dtype=bool)
    pad = (-mask.size) % tile
    if pad:
        mask = np.concatenate([mask, np.zeros(pad, dtype=bool)])
    return mask.reshape(-1, tile).any(axis=1)


def _tc_stats(
    csc: CSCMatrix,
    row_stripe_ok: np.ndarray,
    col_stripe_ok: np.ndarray,
    B: int,
    x_dtype,
    write_txn: int,
    n_flops: int,
    name: str,
    l2_bytes: int,
    *,
    chain_axis: str,
    masked: bool,
) -> KernelStats:
    """Hardware stats for a blocked tensor-core pass over the active tiles.

    ``chain_axis`` names the output-stripe axis ("col" for gather products,
    "row" for scatter): tiles sharing an output stripe commit their
    C-fragments in sequence, which is the kernel's critical path.
    """
    t_row, t_col, t_cnt = csc.tile_plan(W.MMA_TILE)
    if t_row.size:
        active = col_stripe_ok[t_col] & row_stripe_ok[t_row]
    else:
        active = np.zeros(0, dtype=bool)
    n_active = int(np.count_nonzero(active))
    nnz_active = int(t_cnt[active].sum()) if n_active else 0
    max_tile = int(t_cnt[active].max()) if n_active else 0
    chain_of = t_col if chain_axis == "col" else t_row
    chain = int(np.bincount(chain_of[active]).max()) if n_active else 0

    mma_per_tile = -(-B // W.MMA_TILE)
    mma_ops = W.mma_ops_for_tiles(n_active, B)
    item = np.dtype(x_dtype).itemsize
    n = csc.n_cols

    dir_txn = W.coalesced_transactions(3 * t_row.size)
    ent_txn = W.coalesced_transactions(nnz_active)
    x_txn = W.bwide_gather_transactions(
        n_active * W.MMA_TILE, B, csc.n_rows, item, l2_bytes=l2_bytes
    )
    mask_txn = W.coalesced_transactions(n * B) if masked else 0
    stripe_txn = W.coalesced_transactions(csc.n_rows) + W.coalesced_transactions(n)

    warp_cycles = (
        n_active * (_TILE_BASE_CYCLES + mma_per_tile * _MMA_ISSUE_CYCLES)
        + nnz_active * _DECODE_CYCLES
    )
    critical = (
        chain * (_TILE_BASE_CYCLES + mma_per_tile * _MMA_ISSUE_CYCLES)
        + max_tile * _DECODE_CYCLES
    )
    return KernelStats(
        name=name,
        threads=n_active * W.WARP_SIZE,
        warp_cycles=warp_cycles,
        dram_read_bytes=(dir_txn + ent_txn + x_txn + mask_txn + stripe_txn)
        * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(3 * t_row.size + nnz_active + (n * B if masked else 0)) * 4
        + n_active * W.MMA_TILE * B * item,
        critical_warp_cycles=critical,
        flops=n_flops,
        mma_ops=mma_ops,
    )


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
    poor by construction -- the dispatcher only reaches for this on wide
    batches, but the SpMV form exists so the static ``tcspmm`` algorithm
    and the conformance configs exercise the same code path everywhere.
    """
    x = np.asarray(x)
    if x.shape != (csc.n_rows,):
        raise ValueError(f"x must have shape ({csc.n_rows},), got {x.shape}")
    n = csc.n_cols
    masked = allowed is not None
    if allowed is None:
        allowed = np.ones(n, dtype=bool)
    else:
        allowed = np.asarray(allowed)
        if allowed.shape != (n,) or allowed.dtype != bool:
            raise ValueError(f"allowed must be a boolean mask of shape ({n},)")

    col_of_nnz = csc.column_of_nnz()
    sel = allowed[col_of_nnz]
    vals = x[csc.row[sel]]
    sums = np.bincount(col_of_nnz[sel], weights=vals, minlength=n)
    out_dtype = out_dtype or x.dtype
    y = np.zeros(n, dtype=out_dtype)
    written = sums > 0
    with np.errstate(invalid="ignore"):  # int overflow surfaces via the sigma check
        y[written] = sums[written].astype(out_dtype, copy=False)

    active_rows = x > 0
    stats = _tc_stats(
        csc, stripe_any(active_rows), stripe_any(allowed), 1, x.dtype,
        int(np.count_nonzero(written)),
        int(np.count_nonzero(active_rows[csc.row[sel]])),
        "tcspmm_spmv", device.spec.l2_bytes, chain_axis="col", masked=masked,
    )
    return y, device.launch(stats, tag=tag)


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
    x = np.asarray(x)
    if x.shape != (csc.n_cols,):
        raise ValueError(f"x must have shape ({csc.n_cols},), got {x.shape}")
    active = x > 0
    col_of_nnz = csc.column_of_nnz()
    sel = active[col_of_nnz]
    rows_sel = csc.row[sel]
    out_dtype = out_dtype or x.dtype
    y = np.zeros(csc.n_rows, dtype=out_dtype)
    if rows_sel.size:
        acc = np.bincount(rows_sel, weights=x[col_of_nnz[sel]], minlength=csc.n_rows)
        with np.errstate(invalid="ignore"):
            y[: acc.size] = acc.astype(out_dtype, copy=False)

    n_tile_rows = -(-csc.n_rows // W.MMA_TILE)
    stats = _tc_stats(
        csc, np.ones(n_tile_rows, dtype=bool), stripe_any(active), 1, x.dtype,
        int(np.count_nonzero(y != 0)),
        int(rows_sel.size),
        "tcspmm_spmv_scatter", device.spec.l2_bytes, chain_axis="row",
        masked=False,
    )
    return y, device.launch(stats, tag=tag)


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
    X = M.as_frontier_matrix(X, csc.n_rows)
    n = csc.n_cols
    B = X.shape[1]
    masked = allowed is not None
    if allowed is None:
        allowed = np.ones((n, B), dtype=bool)
    else:
        allowed = M.check_allowed_matrix(allowed, n, B)
    sums = M.gather_spmm_values(csc, X, allowed)
    out_dtype = out_dtype or X.dtype
    Y = M.cast_like_spmv(sums, out_dtype, positive_only=True)

    written_cols = int(np.count_nonzero((sums > 0).any(axis=1)))
    write_txn = written_cols * (-(-B * np.dtype(out_dtype).itemsize // W.TRANSACTION_BYTES))
    active_rows = (X > 0).any(axis=1)
    lanes = allowed.sum(axis=1, dtype=np.int64)
    col_select = lanes > 0
    # allowed lanes x active rows per column: an exact integer in float64
    n_flops = int(lanes @ (csc.spmm_operators()[0] @ active_rows))
    stats = _tc_stats(
        csc, stripe_any(active_rows), stripe_any(col_select), B, X.dtype,
        write_txn, n_flops, "tcspmm_spmm", device.spec.l2_bytes,
        chain_axis="col", masked=masked,
    )
    return Y, device.launch(stats, tag=tag)


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
    X = M.as_frontier_matrix(X, csc.n_cols)
    B = X.shape[1]
    Xp = np.where(X > 0, X, X.dtype.type(0))
    sums = M.scatter_spmm_values(csc, Xp)
    out_dtype = out_dtype or X.dtype
    Y = M.cast_like_spmv(sums, out_dtype, positive_only=False)

    active_cols = (Xp > 0).any(axis=1)
    lanes = np.count_nonzero(Xp, axis=1).astype(np.int64)
    n_flops = int(lanes @ csc.column_counts())
    written_rows = int(np.count_nonzero((sums != 0).any(axis=1)))
    write_txn = written_rows * (-(-B * np.dtype(out_dtype).itemsize // W.TRANSACTION_BYTES))
    n_tile_rows = -(-csc.n_rows // W.MMA_TILE)
    stats = _tc_stats(
        csc, np.ones(n_tile_rows, dtype=bool), stripe_any(active_cols), B,
        X.dtype, write_txn, n_flops, "tcspmm_spmm_scatter",
        device.spec.l2_bytes, chain_axis="row", masked=False,
    )
    return Y, device.launch(stats, tag=tag)
