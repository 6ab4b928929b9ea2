"""Warp-level access-pattern analysis.

CUDA performance on sparse kernels is dominated by two structural effects:

* **memory coalescing** -- a warp's 32 simultaneous loads are serviced in
  32-byte DRAM transactions; 32 adjacent 4-byte words need 4 transactions,
  32 scattered words need up to 32;
* **intra-warp divergence** -- a warp retires at the speed of its slowest
  lane, so a thread-per-vertex kernel over a skewed degree distribution
  wastes most lanes.

The functions here compute exact transaction and cycle counts from the very
index arrays the kernels dereference, vectorised over all warps at once.

The count helpers (transactions, warps, MMA ops) take a Python int and
return one, or take an int array -- one entry per BFS level -- and return
the array of per-level counts, so a whole traversal's costs are one call
(DESIGN.md §7, "Numerics, then costs").
"""

from __future__ import annotations

import functools

import numpy as np

WARP_SIZE = 32
TRANSACTION_BYTES = 32
#: MMA fragment edge: the tensor-core pipe multiplies 16x16 tiles.
MMA_TILE = 16
#: Dense flops of one 16x16x16 matrix-multiply-accumulate op (2 * 16^3:
#: a multiply and an add per scalar MAC).  Every MMA op costs this against
#: the device's ``mma_tflops`` ceiling no matter how sparse the tile is --
#: tile-fill occupancy is what decides whether the pipe was worth feeding.
MMA_FLOPS_PER_OP = 2 * MMA_TILE**3
#: TITAN Xp L2 cache; random gathers within an array that fits here cost at
#: most one DRAM fill per 32 B segment per kernel.
L2_BYTES = 3 * 2**20


def dtype_cycle_factor(dtype) -> int:
    """Arithmetic/atomic issue-cost multiplier for a vector dtype.

    Pascal consumer parts run fp64 at 1/32 the fp32 rate and implement fp64
    atomics as CAS loops; int32/fp32 share the fast path.  This is the
    compute side of the paper's Section 3.4 finding that the integer
    forward-stage SpMV runs up to 2.7x faster than the floating-point one.
    """
    import numpy as np

    dt = np.dtype(dtype)
    if dt == np.float64:
        return 6
    if dt.kind == "f":
        return 2
    return 1


def _negative(x) -> bool:
    """Whether a count (an int or a per-level int array) has a negative entry."""
    return bool((x < 0).any()) if isinstance(x, np.ndarray) else x < 0


def vmin(*args):
    """``min`` of numbers, elementwise when an argument is a per-level array.

    On scalars this *is* the builtin (it returns the first minimal
    argument, type and all), so a one-level cost evaluation keeps plain
    Python number semantics.
    """
    if any(isinstance(a, np.ndarray) for a in args):
        return functools.reduce(np.minimum, args)
    return min(args)


def vmax(*args):
    """``max`` of numbers, elementwise when an argument is a per-level array
    (the builtin on scalars, like :func:`vmin`)."""
    if any(isinstance(a, np.ndarray) for a in args):
        return functools.reduce(np.maximum, args)
    return max(args)


def trunc(x):
    """``int(x)``, elementwise (toward zero, as int64) on a per-level array."""
    return x.astype(np.int64) if isinstance(x, np.ndarray) else int(x)


def coalesced_transactions(n_elements, element_bytes: int = 4):
    """Transactions for a fully coalesced sweep over ``n_elements`` words."""
    if _negative(n_elements):
        raise ValueError(f"n_elements must be non-negative, got {n_elements}")
    return -(-n_elements * element_bytes // TRANSACTION_BYTES)


def gather_transactions(
    indices: np.ndarray,
    element_bytes: int = 4,
    *,
    warp_size: int = WARP_SIZE,
) -> int:
    """DRAM transactions for a warp-sequential gather at ``indices``.

    Lanes ``k*32 .. k*32+31`` issue loads at ``indices[k*32 : k*32+32]``;
    the memory system merges addresses falling in the same 32-byte segment.
    This returns the exact number of distinct segments touched per warp,
    summed over all warps -- the quantity nvprof reports as
    ``gld_transactions`` for the access.
    """
    idx = np.asarray(indices)
    if idx.size == 0:
        return 0
    segs = (idx.astype(np.int64) * element_bytes) // TRANSACTION_BYTES
    pad = (-segs.size) % warp_size
    if pad:
        # Pad with each warp's own last segment so padding never adds a
        # distinct segment.
        segs = np.concatenate([segs, np.full(pad, segs[-1])])
    per_warp = segs.reshape(-1, warp_size)
    per_warp = np.sort(per_warp, axis=1)
    distinct = 1 + np.count_nonzero(np.diff(per_warp, axis=1), axis=1)
    return int(distinct.sum())


def level_gather_transactions(
    indices: np.ndarray,
    bounds: np.ndarray,
    element_bytes: int = 4,
    *,
    warp_size: int = WARP_SIZE,
) -> np.ndarray:
    """:func:`gather_transactions` of many sorted index lists at once.

    ``indices[bounds[k]:bounds[k + 1]]`` is level ``k``'s list, sorted
    ascending; each level's warps are its own 32-lane chunks.  A sorted
    warp touches one segment more than the segment changes between its
    adjacent lanes, so the per-level counts are warp starts plus changes
    that do not open a warp.  Returns ``len(bounds) - 1`` counts.
    """
    idx = np.asarray(indices, dtype=np.int64)
    bounds = np.asarray(bounds, dtype=np.int64)
    sizes = np.diff(bounds)
    if idx.size == 0:
        return np.zeros(sizes.size, dtype=np.int64)
    segs = idx * element_bytes // TRANSACTION_BYTES
    # lane of every entry within its own level's warps
    lane = np.arange(idx.size, dtype=np.int64) - np.repeat(bounds[:-1], sizes)
    lane %= warp_size
    change = np.ones(idx.size, dtype=bool)
    np.not_equal(segs[1:], segs[:-1], out=change[1:])
    change[lane == 0] = False
    level = np.repeat(np.arange(sizes.size), sizes)
    changes = np.bincount(level[change], minlength=sizes.size)
    return -(-sizes // warp_size) + changes


def cached_gather_transactions(
    indices: np.ndarray,
    element_bytes: int,
    array_words: int,
    *,
    l2_bytes: int = L2_BYTES,
) -> int:
    """Gather transactions with the L2 compulsory-miss bound applied.

    A kernel's random gathers into an array of ``array_words`` elements
    cannot miss DRAM more often than the array has 32 B segments while the
    array fits in L2; past L2 capacity the bound relaxes linearly (a
    fraction ``l2 / footprint`` of segments stays resident).
    """
    txn = gather_transactions(indices, element_bytes)
    return _apply_l2_bound(txn, indices.size, element_bytes, array_words, l2_bytes)


def capped_random_transactions(
    n_accesses,
    array_words: int,
    element_bytes: int = 4,
    *,
    l2_bytes: int = L2_BYTES,
):
    """L2-bounded transaction count for ``n_accesses`` *uncoalesced* loads.

    For access patterns where per-warp merging is unavailable (per-lane
    serial streams, baseline models without index arrays): one transaction
    per access, bounded by the compulsory-miss footprint as above.
    """
    if _negative(n_accesses) or array_words < 0:
        raise ValueError("counts must be non-negative")
    return _apply_l2_bound(n_accesses, n_accesses, element_bytes, array_words, l2_bytes)


def _apply_l2_bound(txn, n_accesses, element_bytes: int, array_words: int, l2_bytes: int):
    footprint_bytes = array_words * element_bytes
    footprint_txn = -(-footprint_bytes // TRANSACTION_BYTES) if footprint_bytes else 0
    if footprint_bytes <= l2_bytes:
        return vmin(txn, footprint_txn)
    resident = l2_bytes / footprint_bytes
    bounded = footprint_txn + trunc((txn - footprint_txn) * (1.0 - resident))
    capped = vmin(txn, vmax(bounded, footprint_txn))
    if isinstance(txn, np.ndarray):
        return np.where(txn > footprint_txn, capped, txn)
    return capped if txn > footprint_txn else txn


def bwide_gather_transactions(
    n_rows_loaded,
    lanes: int,
    n_rows: int,
    element_bytes: int = 4,
    *,
    l2_bytes: int = L2_BYTES,
):
    """DRAM transactions for B-wide row loads out of an ``(n_rows, lanes)`` matrix.

    The batched-frontier access pattern: for every scanned sparse entry the
    kernel loads one *row* of the row-major frontier matrix -- ``lanes``
    consecutive words -- so the lanes of a warp coalesce into
    ``ceil(lanes * element_bytes / 32)`` transactions per entry instead of one
    scattered transaction per (entry, lane).  This is the load-coalescing win
    of SpMM over per-source SpMV.  L2-bounded like the other gathers.
    """
    if _negative(n_rows_loaded) or lanes < 0 or n_rows < 0:
        raise ValueError("counts must be non-negative")
    per_row = -(-lanes * element_bytes // TRANSACTION_BYTES) if lanes else 0
    return _apply_l2_bound(
        n_rows_loaded * per_row,
        n_rows_loaded * lanes,
        element_bytes,
        n_rows * lanes,
        l2_bytes,
    )


def scalar_gather_transactions(
    n_accesses,
    array_words: int,
    element_bytes: int = 4,
    *,
    miss_rate: float = 0.25,
    l2_bytes: int = L2_BYTES,
):
    """DRAM transactions for *per-lane serial* gathers (scalar kernels).

    Thread-per-vertex kernels issue one uncoalesced load per scanned entry
    from tens of thousands of concurrent lanes with no intra-warp merging;
    once the array outgrows a fraction of L2 the scattered reuse window
    collapses and a ``miss_rate`` share of the accesses goes to DRAM.  The
    floor scales with the footprint/L2 pressure, so small working sets keep
    their cache residency (as on real hardware).
    """
    if _negative(n_accesses) or array_words < 0:
        raise ValueError("counts must be non-negative")
    capped = capped_random_transactions(
        n_accesses, array_words, element_bytes, l2_bytes=l2_bytes
    )
    footprint = array_words * element_bytes
    pressure = min(1.0, footprint / l2_bytes) if l2_bytes else 1.0
    return vmax(capped, trunc(n_accesses * miss_rate * pressure))


def max_warp_cycles(
    work_per_thread: np.ndarray,
    *,
    cycles_per_unit: int = 1,
    warp_size: int = WARP_SIZE,
) -> int:
    """Cycles of the single slowest warp -- the kernel's critical path.

    A kernel cannot finish before its longest warp does, no matter how many
    SMs sit idle; for a thread-per-column kernel hitting a 10^6-degree hub
    this floor, not aggregate throughput, decides the runtime.
    """
    w = np.asarray(work_per_thread, dtype=np.int64)
    if w.size == 0:
        return 0
    return int(w.max()) * cycles_per_unit


def divergent_warp_cycles(
    work_per_thread: np.ndarray,
    *,
    base_cycles: int = 0,
    warp_size: int = WARP_SIZE,
) -> int:
    """Warp cycles for a thread-per-element kernel with uneven work.

    A warp's cost is ``base_cycles + max(work of its 32 lanes)``: lanes with
    less work sit masked while the longest lane finishes (this is the warp
    divergence that ruins scCSC on irregular graphs).  Returns the total over
    all warps.
    """
    w = np.asarray(work_per_thread, dtype=np.int64)
    if w.size == 0:
        return 0
    if np.any(w < 0):
        raise ValueError("work_per_thread must be non-negative")
    pad = (-w.size) % warp_size
    if pad:
        w = np.concatenate([w, np.zeros(pad, dtype=np.int64)])
    per_warp_max = w.reshape(-1, warp_size).max(axis=1)
    n_warps = per_warp_max.size
    return int(per_warp_max.sum()) + base_cycles * n_warps


def uniform_warp_cycles(
    n_threads,
    cycles_per_thread: int,
    *,
    warp_size: int = WARP_SIZE,
):
    """Warp cycles for a kernel whose threads all do identical work."""
    if _negative(n_threads) or cycles_per_thread < 0:
        raise ValueError("n_threads and cycles_per_thread must be non-negative")
    return -(-n_threads // warp_size) * cycles_per_thread


def atomic_conflict_cycles(
    targets: np.ndarray,
    *,
    cycles_per_conflict: int = 2,
    warp_size: int = WARP_SIZE,
) -> int:
    """Serialisation cycles for intra-warp atomic-add conflicts.

    When several lanes of a warp atomically update the *same* address the
    hardware serialises them; the cost per warp is proportional to the
    maximum multiplicity of any target within the warp.  COOC's column-major
    ordering makes this the dominant atomic cost on low-degree graphs.
    """
    t = np.asarray(targets)
    if t.size == 0:
        return 0
    pad = (-t.size) % warp_size
    if pad:
        # Pad with unique sentinels so padding adds no conflicts.
        sentinel = np.arange(pad, dtype=np.int64) + (np.int64(t.max()) + 1 if t.size else 0)
        t = np.concatenate([t.astype(np.int64), sentinel])
    flat = np.sort(t.reshape(-1, warp_size), axis=1).reshape(-1)
    # dup[i]: target i repeats target i - 1 of the same warp.  Sorted per
    # warp, a group of k equal targets is a run of k - 1 dups, and the
    # trailing False closes the last run.
    dup = np.zeros(flat.size + 1, dtype=bool)
    np.equal(flat[1:], flat[:-1], out=dup[1:-1])
    dup[::warp_size] = False
    edges = np.flatnonzero(dup[1:] != dup[:-1])  # alternating run starts/ends
    if edges.size == 0:
        return 0
    starts, ends = edges[0::2], edges[1::2]
    # No run spans two warps; reduce each warp's runs to its longest.
    warp = starts // warp_size
    first = np.flatnonzero(np.concatenate(([True], warp[1:] != warp[:-1])))
    longest = np.maximum.reduceat(ends - starts, first)
    return int(longest.sum()) * cycles_per_conflict


def warp_count(n_threads, *, warp_size: int = WARP_SIZE):
    """Number of warps needed for ``n_threads`` threads."""
    if _negative(n_threads):
        raise ValueError(f"n_threads must be non-negative, got {n_threads}")
    return -(-n_threads // warp_size)


def mma_ops_for_tiles(n_tiles, lanes: int, *, tile: int = MMA_TILE):
    """16x16x16 MMA operations to multiply ``n_tiles`` sparse 16x16 tiles
    against a ``lanes``-wide dense operand.

    Each occupied tile of the adjacency structure needs ``ceil(lanes / 16)``
    MMA ops -- a single SpMV (lanes=1) still pays a full op per tile, which
    is why the tensor-core path only wins on wide batches and dense tiles.
    """
    if _negative(n_tiles) or lanes < 0:
        raise ValueError("n_tiles and lanes must be non-negative")
    return n_tiles * -(-lanes // tile)
