"""Device-side state of a TurboBC run.

Owns exactly the arrays of the paper's Figure 4 data flow (TurboBC column):
the single sparse-format copy of the adjacency matrix, the forward-stage
int vectors (``f``, ``ft``, ``sigma``, ``S``), the backward-stage float
vectors (``delta``, ``delta_u``, ``delta_ut``) and the ``bc`` output -- and
enforces the Section 3.4 choreography: the forward vectors are *freed*
before the backward vectors are allocated, so the device peak stays at
``7 n + m`` words for CSC.
"""

from __future__ import annotations

import numpy as np

from repro import spmv
from repro.core.dispatch import AdaptiveDispatcher, DIRECTIONS
from repro.formats.coo import COOCMatrix
from repro.formats.csc import CSCMatrix
from repro.gpusim.device import Device
from repro.gpusim.memory import DeviceArena
from repro.obs import telemetry as obs
from repro.perf.memory_model import turbobc_arena_slab_bytes
from repro.spmv import _spmm as M

#: Kernel name -> (storage format attribute, mask fused into the SpMV?)
#: ``adaptive`` stores CSC (the paper's ``7n + m`` discipline) and re-picks
#: the kernel strategy every level; its thread-per-edge strategy runs over
#: CSC via :mod:`repro.spmv.edgecsc`, so the mask stays fused.  ``pullcsc``
#: (bottom-up) and ``tcspmm`` (blocked tensor-core) are first-class static
#: algorithms too -- all over the same stored CSC.
ALGORITHMS = {
    "sccooc": ("cooc", False),
    "sccsc": ("csc", True),
    "veccsc": ("csc", True),
    "pullcsc": ("csc", True),
    "tcspmm": ("csc", True),
    "adaptive": ("csc", True),
}

#: Adaptive strategy -> the :mod:`repro.spmv` kernel that runs it over CSC
#: (the thread-per-edge ``sccooc`` strategy is edgeCSC).
_STRATEGY_KERNEL = {"sccooc": "edgecsc", "sccsc": "sccsc", "veccsc": "veccsc",
                    "pullcsc": "pullcsc", "tcspmm": "tcspmm"}


def _entry_points(product: str) -> dict:
    """Adaptive strategy -> its ``product`` entry point (``spmv``,
    ``spmv_scatter``, ``spmm`` or ``spmm_scatter``)."""
    return {k: getattr(spmv, f"{kernel}_{product}") for k, kernel in _STRATEGY_KERNEL.items()}


_ADAPTIVE_SPMV = _entry_points("spmv")
_ADAPTIVE_SPMV_SCATTER = _entry_points("spmv_scatter")
_ADAPTIVE_SPMM = _entry_points("spmm")
_ADAPTIVE_SPMM_SCATTER = _entry_points("spmm_scatter")
#: (``(n, B)`` operand?, scatter?) -> the adaptive strategies' entry points.
_ADAPTIVE = {
    (False, False): _ADAPTIVE_SPMV,
    (False, True): _ADAPTIVE_SPMV_SCATTER,
    (True, False): _ADAPTIVE_SPMM,
    (True, True): _ADAPTIVE_SPMM_SCATTER,
}
#: The same keys -> the ``sccooc`` algorithm's entry point over COOC.
_SCCOOC = {
    (False, False): spmv.sccooc_spmv,
    (False, True): spmv.sccooc_spmv_scatter,
    (True, False): spmv.sccooc_spmm,
    (True, True): spmv.sccooc_spmm_scatter,
}
#: Static CSC algorithm -> its per-source gather; the benchmark's tests
#: check that none of these stays wrapped after a traced run.
_STATIC_SPMV = {k: _ADAPTIVE_SPMV[k] for k in ("sccsc", "veccsc", "pullcsc", "tcspmm")}


class _StatsRecorder:
    """Stands in for the device when an entry point runs inside a numerics
    loop: ``launch`` hands the kernel's ``KernelStats`` back, and the replay
    launches them on the device in pipeline order."""

    def __init__(self, spec):
        self.spec = spec

    def launch(self, stats, *, tag: str = ""):
        return stats


class TurboBCContext:
    """Transfers the graph once and manages the per-source vector arrays."""

    def __init__(
        self,
        device: Device,
        graph,
        algorithm: str,
        *,
        forward_dtype=np.int32,
        backward_dtype=np.float32,
        direction: str = "auto",
        restart_on_overflow: bool = False,
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {sorted(ALGORITHMS)}"
            )
        if direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {direction!r}; expected one of {DIRECTIONS}"
            )
        if direction != "auto" and algorithm != "adaptive":
            raise ValueError(
                "direction forcing requires algorithm='adaptive' "
                f"(got algorithm={algorithm!r}, direction={direction!r})"
            )
        self.device = device
        self.graph = graph
        self.algorithm = algorithm
        self.forward_dtype = np.dtype(forward_dtype)
        self.backward_dtype = np.dtype(backward_dtype)
        self.mask_fused = ALGORITHMS[algorithm][1]
        #: The run is the int32 attempt of a ``forward_dtype="auto"`` run,
        #: which a :class:`~repro.core.forward.SigmaOverflowError` restarts
        #: in float64: a forward that knows it will overflow may raise
        #: before its launches.
        self.restart_on_overflow = restart_on_overflow

        fmt = ALGORITHMS[algorithm][0]
        mem = device.memory
        if fmt == "cooc":
            self.matrix: COOCMatrix | CSCMatrix = graph.to_cooc()
            self._mat_arrays = [
                mem.h2d("row_A", self.matrix.row),
                mem.h2d("col_A", self.matrix.col),
            ]
        else:
            self.matrix = graph.to_csc()
            self._mat_arrays = [
                mem.h2d("CP_A", self.matrix.col_ptr),
                mem.h2d("row_A", self.matrix.row),
            ]
        self.bc_arr = mem.alloc("bc", graph.n, self.backward_dtype)
        # per-source arrays, carved from the run's arena slab
        self._forward_arrs: list = []
        self._backward_arrs: list = []
        self._arena: DeviceArena | None = None
        #: Per-level kernel chooser; only set for ``algorithm="adaptive"``.
        self.dispatcher: AdaptiveDispatcher | None = (
            AdaptiveDispatcher(self.matrix, device.spec, direction=direction)
            if algorithm == "adaptive"
            else None
        )
        #: Lazily-created shadow device for dispatch-audit replays.
        self._shadow: Device | None = None
        self._recorder = _StatsRecorder(device.spec)

    # -- per-source array lifecycle -------------------------------------------
    #
    # All per-source arrays are carved from a per-run DeviceArena slab
    # (DESIGN.md §10): one device allocation sized to the per-source peak
    # serves every source/batch of the run, so the allocator sees zero
    # alloc/free traffic after the first source.  The slab is
    # turbobc_arena_slab_bytes: max(forward chunk, backward chunk) bytes of
    # the footprint model -- exactly the old per-phase
    # maximum, so the run peak (and the paper's 7n + 1 + m accounting) is
    # byte-identical to per-source allocation.

    def _ensure_arena(self, batch: int) -> DeviceArena:
        if self._arena is None:
            self._arena = DeviceArena(self.device.memory, turbobc_arena_slab_bytes(
                self.graph.n, batch, self.forward_dtype.itemsize,
                self.backward_dtype.itemsize))
        return self._arena

    def _carve(self, shape, blocks) -> list:
        """Carve ``(name, dtype)`` blocks of ``shape`` from the arena: a
        vector keeps the lower-case names, an ``(n, B)`` matrix capitalises
        them (``F``, ``Sigma``, ``Delta_u``, ...)."""
        arena = self._ensure_arena(shape[1] if len(shape) == 2 else 1)
        return [arena.carve(name if len(shape) == 1 else name.capitalize(),
                            shape, dtype) for name, dtype in blocks]

    def alloc_forward(self, batch: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Allocate ``f``/``ft`` (int), ``sigma`` (int), ``S`` (int32):
        vectors, or with a ``batch`` ``(n, B)`` matrices, one lane per
        column.  Row-major layout keeps each vertex's B lane values
        contiguous -- the B-wide coalesced loads the SpMM cost model charges
        for.

        Returns the backing arrays for (sigma, S, f); ``ft`` lives inside the
        product.  (The simulator charges the allocation; the CUDA code
        holds ``ft`` as a separate device vector, so it is allocated here
        too.)
        """
        if batch is not None and batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        shape = (self.graph.n,) if batch is None else (self.graph.n, batch)
        fdt = self.forward_dtype
        self._forward_arrs = self._carve(
            shape, (("f", fdt), ("ft", fdt), ("sigma", fdt), ("S", np.int32)))
        f, _ft, sigma, S = self._forward_arrs
        return sigma.data, S.data, f.data

    def swap_to_backward(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Free ``f``/``ft`` and allocate the float backward vectors, in the
        forward arrays' shape.

        This is the Section 3.4 memory optimization: the int frontier
        vectors never coexist with all three float dependency vectors, so
        the batched peak -- matrix + ``bc`` + ``sigma`` + ``S`` + three
        deltas -- is the ``5nB + 2n + 1 + m`` words of the batched
        footprint model.  Returns (delta, delta_u, delta_ut) backing arrays.
        ``sigma`` and ``S`` survive the swap (the backward stage reads them).
        """
        f, ft, sigma, S = self._forward_arrs
        self._arena.release(f)
        self._arena.release(ft)
        self._forward_arrs = [sigma, S]
        bdt = self.backward_dtype
        self._backward_arrs = self._carve(
            sigma.shape, (("delta", bdt), ("delta_u", bdt), ("delta_ut", bdt)))
        return tuple(a.data for a in self._backward_arrs)

    def release_source(self) -> None:
        """Release every per-source array back to the arena, keeping
        matrix + ``bc`` (and the arena slab, for the next source)."""
        for arr in self._forward_arrs + self._backward_arrs:
            if not arr.is_freed:
                self._arena.release(arr)
        self._forward_arrs = []
        self._backward_arrs = []

    def _record_arena_metrics(self) -> None:
        tel = obs.get_telemetry()
        if tel is not None and tel.metrics is not None and self._arena is not None:
            tel.metrics.counter("arena_carves").inc(self._arena.carves)
            tel.metrics.counter("arena_reuses").inc(self._arena.reuses)
            if self._arena.fallback_oversized:
                tel.metrics.counter("arena_fallbacks", reason="oversized").inc(
                    self._arena.fallback_oversized)
            if self._arena.fallback_fragmented:
                tel.metrics.counter("arena_fallbacks", reason="fragmented").inc(
                    self._arena.fallback_fragmented)

    def abort(self) -> None:
        """Free everything device-side without transferring results."""
        self.release_source()
        self._record_arena_metrics()
        if self._arena is not None:
            self._arena.destroy()
        mem = self.device.memory
        for arr in [self.bc_arr, *self._mat_arrays]:
            if not arr.is_freed:
                mem.free(arr)

    def close(self) -> np.ndarray:
        """Transfer ``bc`` back and free everything device-side."""
        bc = self.device.memory.d2h(self.bc_arr)
        self.release_source()
        self._record_arena_metrics()
        if self._arena is not None:
            self._arena.destroy()
        self.device.memory.free(self.bc_arr)
        for arr in self._mat_arrays:
            self.device.memory.free(arr)
        return bc

    # -- products -------------------------------------------------------------
    #
    # Every stage computes its levels first and then replays their launches
    # (core/levels.py, DESIGN.md §7 "Numerics, then costs"): ``product`` is
    # a level's numerics at any width, and its stats the level's launch row.

    def _kernels(self, stage: str, batched: bool) -> dict:
        """Kernel name -> entry point of ``stage``'s product over a vector,
        or with ``batched`` an ``(n, B)`` operand: the line-19 gather, or
        the line-37 product, which on digraphs is the scatter ``A x`` of the
        same stored format, so dependencies flow against edge direction (the
        paper's single-format discipline; see DESIGN.md on this pseudocode
        correction)."""
        key = (batched, stage == "backward" and self.graph.directed)
        if self.algorithm == "sccooc":
            return {"sccooc": _SCCOOC[key]}
        table = _ADAPTIVE[key]
        return table if self.dispatcher is not None else {self.algorithm: table[self.algorithm]}

    def _entry(self, device, stage: str, kernel: str, x, allowed, **kwargs):
        """Run ``kernel``'s entry point of ``stage`` on ``device`` for the
        operand ``x``; the gather masks by ``allowed`` where the kernel
        fuses the mask, and the COOC kernel leaves it to the update
        kernel."""
        if allowed is not None and self.mask_fused:
            kwargs["allowed"] = allowed
        return self._kernels(stage, x.ndim == 2)[kernel](device, self.matrix, x, **kwargs)

    def product(self, stage: str, x: np.ndarray, allowed: np.ndarray | None = None,
                *, kernel: str | None = None):
        """The numerics of one level's product of ``stage``, without a launch.

        Returns ``(y, n_written, stats)`` for a vector or ``(n, B)`` operand
        ``x``.  With a ``kernel``, its entry point runs against a recorder,
        so ``stats`` is the level's exact ``KernelStats`` for the replay to
        launch.  Without one (a per-source forward level under the
        dispatcher) the SpMV engine computes ``y`` alone: ``stats`` is
        ``None`` and ``n_written`` counts the positive sums for the level
        tables.  Every kernel of the stage computes this ``y``.
        """
        if kernel is not None:
            y, stats = self._entry(self._recorder, stage, kernel, x, allowed)
            return y, None, stats
        p = M.product(self.matrix, x, batched=False, allowed=allowed, need="written")
        return p.y, p.written, None

    # -- dispatch audit ---------------------------------------------------------

    def audit_replay(self, stage: str, decision, x, allowed) -> None:
        """Measure ``decision``'s unchosen strategies on its level's exact
        operands (``RunTelemetry(audit_dispatch=True)``), so obs/audit.py
        can report regret.  They run on a private shadow device with
        telemetry suppressed, so the main run's launches, modeled times and
        metrics are those of the un-audited run.
        """
        if self._shadow is None:
            self._shadow = Device(self.device.spec)
        prev = obs.get_telemetry()
        obs.deactivate()
        try:
            # Replay only the strategies the decision actually estimated: a
            # forced direction narrows the candidate set, and regret is only
            # meaningful against candidates the dispatcher could have chosen.
            for kernel in self._kernels(stage, x.ndim == 2):
                if kernel == decision.kernel or kernel not in decision.est_us:
                    continue
                _, launch = self._entry(self._shadow, stage, kernel, x, allowed)
                decision.measure(kernel, launch)
        finally:
            if prev is not None:
                obs.activate(prev)
