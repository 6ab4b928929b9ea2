"""Timing wrappers installed around each layer's public entry points.

Nothing inside ``src/repro`` is changed: :class:`Tracer` replaces functions
and methods from the outside and puts the originals back on
:meth:`Tracer.uninstall`.  Several names are bound at import time
(``core/context.py`` copies the kernels into its dispatch tables,
``core/bc.py`` imports ``bfs_forward`` by name, ...), so a module-level
function is replaced wherever the *same object* is bound: in every
``repro`` module namespace and in every dict held by one.

Each call records a span ``(name, start, end, parent, op)``.  A span's self
time is its duration minus the durations of its child spans; self time and
call counts are summed into named buckets as the spans close.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

SPMV_KERNELS = ("sccooc", "sccsc", "veccsc", "edgecsc", "pullcsc", "tcspmm")

#: ``turbo_bc`` entry points whose self time is the run bookkeeping not covered
#: by any named span: ``trace.attributed_frac`` is one minus their share.
ENTRY_BUCKET = "core.driver.entry"


def _targets():
    """``(owner, attribute, span name, buckets)`` for every wrapped entry point.

    ``owner`` is a module (the function is replaced wherever it is bound)
    or a class (the method is replaced on the class).
    """
    from repro.core import backward, bc, context, dispatch, forward, frontier, incremental
    from repro.formats.csc import CSCMatrix
    from repro.gpusim import device, memory, warp
    from repro.graphs import graph, io
    from repro.obs import telemetry

    out = [
        (io, "read_edge_list", "graphs.read_edge_list", ("graphs.read",)),
        (graph.Graph, "__init__", "graphs.Graph.__init__", ("graphs.build",)),
        (CSCMatrix, "tile_plan", "formats.CSCMatrix.tile_plan", ("formats.convert",)),
    ]
    for meth in ("to_csc", "to_cooc", "to_csr", "apply_edits"):
        out.append((graph.Graph, meth, f"formats.Graph.{meth}", ("formats.convert",)))
    for kernel in SPMV_KERNELS:
        mod = sys.modules[f"repro.spmv.{kernel}"]
        for suffix in ("spmv", "spmv_scatter", "spmm", "spmm_scatter"):
            fn = f"{kernel}_{suffix}"
            out.append((mod, fn, f"spmv.{fn}", ("spmv", f"spmv.{kernel}")))
    for fn in _module_functions(warp):
        out.append((warp, fn, f"gpusim.warp.{fn}", ("gpusim",)))
    for meth in ("launch", "sync_readback"):
        out.append((device.Device, meth, f"gpusim.Device.{meth}", ("gpusim",)))
    for meth in ("alloc", "free", "h2d", "d2h"):
        out.append((memory.DeviceMemory, meth, f"gpusim.DeviceMemory.{meth}", ("gpusim",)))
    for meth in ("carve", "release"):
        out.append((memory.DeviceArena, meth, f"gpusim.DeviceArena.{meth}", ("gpusim",)))
    for meth in ("choose_forward", "choose_backward", "choose_forward_batch",
                 "choose_backward_batch", "record_measured"):
        out.append((dispatch.AdaptiveDispatcher, meth, f"core.dispatch.{meth}",
                    ("core.dispatch",)))
    for fn in _module_functions(frontier):
        out.append((frontier, fn, f"core.frontier.{fn}", ("core.frontier",)))
    for fn in ("turbo_bc", "_turbo_bc_impl", "_turbo_bc_batched"):
        out.append((bc, fn, f"core.bc.{fn}", ("core.driver", ENTRY_BUCKET)))
    for mod, fn in ((forward, "bfs_forward"), (forward, "bfs_forward_batch"),
                    (backward, "accumulate_dependencies"),
                    (backward, "accumulate_dependencies_batch")):
        out.append((mod, fn, f"core.{mod.__name__.rsplit('.', 1)[1]}.{fn}",
                    ("core.driver",)))
    for meth, fn in vars(context.TurboBCContext).items():
        if inspect.isfunction(fn) and (not meth.startswith("__") or meth == "__init__"):
            out.append((context.TurboBCContext, meth, f"core.context.{meth}",
                        ("core.driver",)))
    out.append((incremental.DynamicBC, "update", "core.incremental.update",
                ("core.incremental",)))
    out.append((telemetry, "span", "obs.span", ("obs",)))
    for meth in ("on_kernel_launch", "on_memory"):
        out.append((telemetry.RunTelemetry, meth, f"obs.RunTelemetry.{meth}", ("obs",)))
    return out


def _module_functions(mod) -> list[str]:
    return [
        name for name, fn in inspect.getmembers(mod, inspect.isfunction)
        if fn.__module__ == mod.__name__ and not name.startswith("__")
    ]


class Tracer:
    """In-memory spans and per-bucket self time / call counts."""

    def __init__(self):
        self.spans: list = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.op = 0                 # operation id stamped on each span
        self.sources_requested = 0  # sources asked of outermost turbo_bc calls
        self.forward_passes = 0     # per-source BFS passes actually run
        self._stack: list = []
        self._bc_depth = 0
        self._patches: list = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str, buckets: tuple):
        spans, stack, self_s, calls = self.spans, self._stack, self.self_s, self.calls
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            entry = [idx, 0.0]
            stack.append(entry)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, t0, t1, parent, tracer.op)
                own = dur - entry[1]
                calls[name] += 1
                for b in buckets:
                    self_s[b] += own
                    calls[b] += 1

        return wrapper

    def _counting(self, name: str, fn):
        """Extra bookkeeping for the calls whose arguments carry counts."""
        tracer = self
        if name == "core.bc.turbo_bc":
            @functools.wraps(fn)
            def turbo_bc(graph, *args, **kwargs):
                if tracer._bc_depth == 0:
                    sources = kwargs.get("sources")
                    tracer.sources_requested += (
                        graph.n if sources is None
                        else 1 if isinstance(sources, int) else len(sources)
                    )
                tracer._bc_depth += 1
                try:
                    return fn(graph, *args, **kwargs)
                finally:
                    tracer._bc_depth -= 1
            return turbo_bc
        if name == "core.forward.bfs_forward":
            @functools.wraps(fn)
            def bfs_forward(ctx, source):
                tracer.forward_passes += 1
                return fn(ctx, source)
            return bfs_forward
        if name == "core.forward.bfs_forward_batch":
            @functools.wraps(fn)
            def bfs_forward_batch(ctx, sources):
                tracer.forward_passes += len(sources)
                return fn(ctx, sources)
            return bfs_forward_batch
        return fn

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, buckets in _targets():
            original = owner.__dict__[attr]
            wrapped = self._wrap(self._counting(name, original), name, buckets)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapped)
            else:
                self._rebind(original, wrapped)
        return self

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapped)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, v))
                            value[k] = wrapped

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if type(owner) is dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def top_level_bc_s(self) -> float:
        """Wall time of the outermost ``turbo_bc`` spans."""
        names = [s[0] if s else None for s in self.spans]
        total = 0.0
        for span in self.spans:
            if span is None or span[0] != "core.bc.turbo_bc":
                continue
            parent = span[3]
            while parent >= 0 and names[parent] != "core.bc.turbo_bc":
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def write(self, path) -> None:
        """Write every span as one line ``name start end parent op``."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(f"{span[0]} {span[1]:.9f} {span[2]:.9f} {span[3]} {span[4]}\n")
