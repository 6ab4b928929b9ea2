"""The one numerics step of every SpMV and SpMM kernel.

The six kernels compute the same masked product and differ only in how a
GPU would schedule it.  So every entry point makes three calls: this
module's :func:`product` (validate the operand and mask, multiply, cast
once), its kernel's cost function of the returned counts
(:class:`Product`), and ``device.launch``.  The per-source (SpMV) kernels
multiply the sparse adjacency structure by a frontier vector; the batched
(SpMM) kernels by an ``n x B`` frontier *matrix*, one column per BFS
source.  A vector is a width-1 matrix: both go through the same compiled
SciPy sparse x dense product over the format's own column-major index
arrays (``spmm_operators``), so batched lanes match the per-source kernels
bit for bit (DESIGN.md §7, "Bit-exactness contract"):

* SciPy's ``csr_matvec(s)``/``csc_matvecs`` loops start every output
  entry at +0.0 and add ``1.0 * x`` one stored entry at a time in storage
  order, in float64 -- the sequential order of ``np.bincount``, unlike the
  pairwise loop of ``np.add.reduceat`` (DESIGN.md §9);
* masked-out gather sums are dropped after the product, so a mask never
  changes the arithmetic of an allowed column;
* atomic products -- every scatter, and scCOOC's gather -- only see
  positive inputs and store every sum; the other gathers store the
  positive allowed sums only.  Each drop is a branch-free bit multiply
  (:func:`keep_bits`: +0.0 whatever the value held), a gather's mask and
  positive filter one multiply on the accumulator it casts;
* the float64 accumulator is cast to the kernel dtype once, afterwards
  (:func:`cast_like_spmv`).  An integer dtype receives ``iinfo.min`` for
  every sum whose truncation it cannot hold, and for NaN, on every
  platform -- so int32 sigma overflow always shows as ``sigma < 0``.

Products are frontier-proportional.  Omitting a stored entry changes no
bit when its input row is zero in every lane, or (masked gather) its
output column is disallowed in every lane: the omitted term is ``1.0 * 0``
(+-0.0), a running sum that starts at +0.0 is never -0.0, and adding +-0.0
to it is the identity -- wrapped negative int32, NaN and inf included.  So
:func:`gather_spmm_values` runs one of three products, each keeping
storage order:

* **push** -- ``push_operator()[rows].T @ X[rows]`` over the rows with a
  nonzero lane: a CSC product adds each output's inputs in ascending row
  order, which is CSC/COOC storage order (rows strictly increase within a
  column);
* **pull** -- ``gather[cols] @ X`` over the columns with an allowed lane,
  scattered into zeros;
* **full** -- ``gather @ X``.

:func:`choose_path` takes the smaller entry mass and keeps the full product
when it exceeds ``RESTRICT_MAX_SHARE * m``; below ``m * B`` =
``FULL_BELOW_LANE_ENTRIES`` no mass is even computed.
:func:`scatter_spmm_values` restricts the same way to the columns with a
nonzero lane.  The O(nnz) integer counts of the cost functions run through
the same two functions (exact in any order) and are reduced as integers:
a float64 dot is a BLAS call, which OpenBLAS may thread.

The counts reduce ``(n, B)`` bool lane masks along the lane axis --
written columns, active rows, lanes per column.  :func:`lane_any` and
:func:`lane_count` read each mask row as ``ceil(B / 8)`` 8-byte words
(``!= 0``, and a byte sum by one multiply) instead of a short-axis
``any``/``sum``.

:mod:`repro.spmv.reference` keeps an independent ``np.add.at`` oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.gpusim.warp import TRANSACTION_BYTES


class Product(NamedTuple):
    """One product's output and the counts its kernel's cost function reads.

    A vector operand is priced as a width-1 matrix: ``B == 1``, and its
    ``lanes``/``active`` are bool vectors (zero or one lane).  ``lanes``,
    ``active`` and ``written`` are ``None`` unless :func:`product` was
    asked for them.
    """

    y: np.ndarray
    scatter: bool
    #: the operand was a vector (an SpMV entry point)
    vector: bool
    B: int
    x_dtype: np.dtype
    out_dtype: np.dtype
    #: a gather's ``allowed`` was given: veCSC, pullCSC and tcSpMM price
    #: ``None`` apart from an all-true mask
    masked: bool
    #: allowed lanes per output column of a gather
    lanes: np.ndarray | None
    #: positive lanes per input index: rows of a gather, columns of a scatter
    active: np.ndarray | None
    #: outputs with a positive (gather) or nonzero (scatter) lane sum
    written: int | None

    @property
    def out_row_txn(self) -> int:
        """Transactions that store one B-wide output row."""
        return -(-self.B * self.out_dtype.itemsize // TRANSACTION_BYTES)


def product(fmt, x, *, batched: bool, scatter: bool = False, atomic: bool = False,
            allowed=None, out_dtype=None, need: str = "") -> Product:
    """The numerics of one SpMV/SpMM entry point.

    ``x`` must be an ``(n, B)`` matrix with ``B >= 1`` when ``batched``
    (the ``*_spmm*`` entry points), a length-``n`` vector otherwise; a
    gather's ``allowed`` mask has the output's shape.  A gather computes
    ``y = A^T x`` (``y[c] += x[r]`` per stored ``(r, c)``), a ``scatter``
    ``y = A x``; see the module docstring for ``atomic``.  ``need`` names
    the :class:`Product` counts to compute: any of ``lanes``, ``active``,
    ``written``.
    """
    n_in, n_out = (fmt.n_cols, fmt.n_rows) if scatter else (fmt.n_rows, fmt.n_cols)
    x = np.asarray(x)
    if batched:
        if x.ndim != 2 or x.shape[0] != n_in or x.shape[1] < 1:
            raise ValueError(
                f"frontier matrix must have shape ({n_in}, B >= 1), got {x.shape}")
    elif x.shape != (n_in,):
        raise ValueError(f"x must have shape ({n_in},), got {x.shape}")
    masked = allowed is not None
    if masked:
        allowed = np.asarray(allowed)
        if allowed.shape != (n_out,) + x.shape[1:] or allowed.dtype != bool:
            raise ValueError(
                f"allowed must be a boolean mask of shape {(n_out,) + x.shape[1:]}")
    atomic = atomic or scatter
    pos = x > 0 if atomic or "active" in need else None
    if atomic:
        inputs = keep_bits(x.copy(), pos)
        sums = (scatter_spmm_values if scatter else gather_spmm_values)(fmt, inputs)
    else:
        sums = _gather_sums(fmt, x, allowed)
    out_dtype = np.dtype(out_dtype or x.dtype)
    y = cast_like_spmv(sums, out_dtype, positive_only=not atomic, allowed=allowed)
    B = x.shape[1] if batched else 1
    lanes = active = written = None
    if "lanes" in need:
        if not masked:
            lanes = np.full(n_out, B, dtype=np.int64) if batched else np.ones(n_out, bool)
        else:
            lanes = lane_count(allowed) if batched else allowed
    if "active" in need:
        active = lane_count(pos) if batched else pos
    if "written" in need:
        written = int(np.count_nonzero(_row_any(sums != 0 if scatter else sums > 0)))
    return Product(y, scatter, not batched, B, x.dtype, out_dtype, masked, lanes,
                   active, written)


#: Restricted products pay a fixed Python cost (masses, index lists, a
#: sliced operator); below this many lane-entries ``m * B`` every call keeps
#: the full product.  On a 2-core x86-64 VM a masked push call at
#: ``m * B`` = 25.7k took 0.32-0.41 ms against 0.20-0.22 ms for the full
#: one; at 139k push won below 5% live rows.
FULL_BELOW_LANE_ENTRIES = 1 << 17
#: A restricted product runs only while its entry mass is at most this share
#: of ``m``: slicing the operator copies the entries it keeps, so a product
#: over most of them gains nothing.
RESTRICT_MAX_SHARE = 0.5


def _row_any(mask: np.ndarray) -> np.ndarray:
    """The rows of a vector or ``(n, B)`` mask set in some lane, as a bool
    vector."""
    return mask if mask.ndim == 1 else lane_any(mask)


def _live(mask: np.ndarray) -> np.ndarray:
    """Indices of the rows of a vector or ``(n, B)`` mask set in some lane."""
    return np.flatnonzero(_row_any(mask))


def _mass(indptr: np.ndarray, major: np.ndarray) -> int:
    """Stored entries of the operator rows (CSR) / columns (CSC) ``major``."""
    return int((indptr[major + 1] - indptr[major]).sum(dtype=np.int64))


def column_entries(col_ptr: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Storage positions of the entries of the ascending columns ``cols``,
    in storage order -- O(their entries), not a pass over all ``m``."""
    counts = col_ptr[cols + 1] - col_ptr[cols]
    pos = np.repeat(col_ptr[cols] - (np.cumsum(counts) - counts), counts)
    pos += np.arange(pos.size, dtype=pos.dtype)
    return pos


def choose_path(m: int, push: int, pull: int | None) -> str:
    """``"push"``, ``"pull"`` or ``"full"`` for a product over ``m`` stored
    entries whose restricted forms touch ``push`` / ``pull`` of them
    (``pull=None``: not offered); the cheaper mass wins unless it exceeds
    ``RESTRICT_MAX_SHARE * m``."""
    path, mass = ("pull", pull) if pull is not None and pull < push else ("push", push)
    return path if mass <= RESTRICT_MAX_SHARE * m else "full"


def _past_floor(fmt, X: np.ndarray) -> bool:
    """Whether ``fmt @ X`` is past the ``m * B`` floor of restricted products."""
    return fmt.nnz * (X.shape[1] if X.ndim == 2 else 1) >= FULL_BELOW_LANE_ENTRIES


def gather_spmm_values(fmt, X: np.ndarray, allowed: np.ndarray | None = None) -> np.ndarray:
    """Column sums ``sums[c, j] = sum_{k in column c} X[row[k], j]`` in float64.

    ``fmt`` is a :class:`~repro.formats.csc.CSCMatrix` or
    :class:`~repro.formats.coo.COOCMatrix`; ``allowed`` (an ``(n_cols, B)``
    bool mask) zeroes the masked-out (column, lane) sums.  The result is the
    pre-cast accumulator of every gather kernel; ``X`` may also be a
    length-``n_rows`` vector with an ``(n_cols,)`` mask.

    The product runs over the live rows only (push), over the allowed
    columns only (pull) or over every entry (full), whichever
    :func:`choose_path` picks; the three are bit-identical (module
    docstring).
    """
    sums = _gather_sums(fmt, X, allowed)
    return sums if allowed is None else keep_bits(sums, allowed)


def _gather_sums(fmt, X: np.ndarray, allowed: np.ndarray | None) -> np.ndarray:
    """:func:`gather_spmm_values` before the mask, which only picks the path."""
    gather = fmt.spmm_operators()[0]
    masked = allowed is not None and not allowed.all()
    path = "full"
    if _past_floor(fmt, X):
        push_op = fmt.push_operator()
        rows = _live(X != 0)
        cols = _live(allowed) if masked else None
        path = choose_path(fmt.nnz, _mass(push_op.indptr, rows),
                           None if cols is None else _mass(gather.indptr, cols))
    if path == "pull":
        sums = np.zeros((fmt.n_cols,) + X.shape[1:])
        sums[cols] = gather[cols] @ X.astype(np.float64, copy=False)
        return sums
    if path == "push":
        return push_op[rows].T @ X[rows].astype(np.float64, copy=False)
    return gather @ X.astype(np.float64, copy=False)


def scatter_spmm_values(fmt, X: np.ndarray) -> np.ndarray:
    """Row sums ``sums[r, j] = sum_{k in row r} X[col[k], j]`` in float64.

    Each row accumulates its entries in column-major storage order; ``X``
    may also be a vector.  Past the same crossover as
    :func:`gather_spmm_values` only the columns with a nonzero lane are
    multiplied (``scatter[:, cols] @ X[cols]`` keeps storage order).
    """
    scatter = fmt.spmm_operators()[1]
    if _past_floor(fmt, X):
        cols = _live(X != 0)
        if choose_path(fmt.nnz, _mass(scatter.indptr, cols), None) == "push":
            return scatter[:, cols] @ X[cols].astype(np.float64, copy=False)
    return scatter @ X.astype(np.float64, copy=False)


def raw_cast(sums: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The platform's float64 -> ``dtype`` conversion.

    Out-of-range float -> int conversion is undefined in C: x86 stores
    ``INT_MIN``, aarch64 saturates.  :func:`cast_like_spmv` fixes those
    values afterwards, so its result does not depend on this function's.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return sums.astype(dtype, copy=False)


def keep_bits(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Zero ``a`` outside the bool mask ``keep``, in place; returns ``a``.

    Each element's bits, viewed as a same-width unsigned integer, times its
    0/1 ``keep`` byte: a kept value keeps its bits, a dropped one becomes
    +0.0 (NaN, +-inf and -0.0 included) -- the bytes of a boolean-mask
    assignment or ``np.where``, which branch on every element, in one
    branch-free pass."""
    bits = a.view(f"u{a.itemsize}")
    np.multiply(bits, keep, out=bits)
    return a


def cast_like_spmv(sums: np.ndarray, out_dtype, *, positive_only: bool,
                   allowed: np.ndarray | None = None) -> np.ndarray:
    """Cast the float64 accumulator to the kernel output dtype.

    Consumes ``sums``, a fresh accumulator zeroed in place.  ``positive_only``
    reproduces the gather kernels' ``sum > 0`` write sparsity (scatter
    kernels store every accumulated row), and drops the sums a gather's
    ``allowed`` masks out in the same :func:`keep_bits` pass.  An integer
    dtype receives ``iinfo.min`` for NaN and for every sum whose truncation
    toward zero it cannot hold (what x86 stores, on every platform), so
    sigma overflow is always negative; a max (and, for possibly negative
    sums, min) reduction keeps the in-range case to one extra pass.
    """
    if positive_only:
        keep = sums > 0
        if allowed is not None:
            keep &= allowed
        keep_bits(sums, keep)
    out_dtype = np.dtype(out_dtype)
    y = raw_cast(sums, out_dtype)
    if out_dtype.kind in "iu" and sums.size:
        info = np.iinfo(out_dtype)
        top = float(info.max) + 1  # trunc(v) fits iff info.min <= v < top
        # NaN fails every comparison, so it takes the mapping too
        if not (sums.max() < top and (positive_only or sums.min() >= info.min)):
            fits = (sums >= info.min) & (sums < top)
            keep_bits(y, fits)
            y += ~fits * out_dtype.type(info.min)
    return y


def _lane_words(mask: np.ndarray) -> np.ndarray:
    """An ``(n, B)`` bool mask as ``(n, ceil(B / 8))`` uint64 words.

    A bool is one 0/1 byte, so each word packs eight lanes of one row; a
    C-contiguous mask with ``B % 8 == 0`` is viewed in place, anything else
    is first copied into a zero-padded C-contiguous buffer.
    """
    mask = np.asarray(mask, dtype=bool)
    n, B = mask.shape
    if B % 8 or not mask.flags.c_contiguous:
        padded = np.zeros((n, -(-B // 8) * 8), dtype=bool)
        padded[:, :B] = mask
        mask = padded
    return mask.view(np.uint64)


def lane_any(mask: np.ndarray) -> np.ndarray:
    """``mask.any(axis=1)`` of an ``(n, B)`` bool mask, read word-wise.

    The :func:`~repro.spmv.tcspmm.stripe_any` trick along the lane axis: a
    row is set iff one of its words is nonzero, which is ~100x faster than
    a short-axis ``any()`` at B = 8.
    """
    words = _lane_words(mask)
    acc = words[:, 0]
    for j in range(1, words.shape[1]):
        acc = acc | words[:, j]
    return acc != 0


_BYTE_SUM = np.uint64(0x0101010101010101)
_TOP_BYTE = np.uint64(56)


def lane_count(mask: np.ndarray) -> np.ndarray:
    """``mask.sum(axis=1)`` of an ``(n, B)`` bool mask as int64.

    Every set lane is one 0x01 byte, so multiplying a word by
    ``0x0101010101010101`` (wrapping) sums its eight bytes into the top
    byte; the sum is at most 8, so no byte carries.
    """
    words = _lane_words(mask)
    count = (words[:, 0] * _BYTE_SUM) >> _TOP_BYTE
    for j in range(1, words.shape[1]):
        count += (words[:, j] * _BYTE_SUM) >> _TOP_BYTE
    return count.astype(np.int64)
