"""Run-level tracing: a nestable span tree over a TurboBC run.

A :class:`Span` is one timed region of a run -- the whole run, one source's
pass, one pipeline stage, one BFS level.  Spans nest into a tree (run ->
batch/source -> stage -> level) and each records wall-clock time, the
simulated GPU time that elapsed inside it, the memory high-water mark it
reached, arbitrary attributes (``frontier_size``, ``depth``, ...) and the
kernel launches that happened inside it (as leaf events).

The :class:`Tracer` owns the span stack.  Production code never talks to a
tracer directly: it calls :func:`repro.obs.telemetry.span`, which returns the
shared :data:`NOOP_SPAN` when no telemetry session is active -- the disabled
path costs one module-global read and allocates nothing that survives the
``with`` statement, so tracing is zero-cost when off.
"""

from __future__ import annotations

import time


class _NoopSpan:
    """The disabled-tracing span: every operation is a no-op.

    A single shared instance is returned by ``obs.span(...)`` whenever no
    telemetry session is active, so the instrumented hot loops (one span per
    BFS level) pay only a global load and an empty ``with`` block.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass

    def event(self, name: str, **fields) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Span:
    """One node of the trace tree (see module docstring for the taxonomy)."""

    __slots__ = (
        "name",
        "attrs",
        "start_s",
        "end_s",
        "gpu_start_s",
        "gpu_end_s",
        "mem_start_bytes",
        "mem_peak_bytes",
        "children",
        "events",
    )

    def __init__(self, name: str, attrs: dict, start_s: float):
        self.name = name
        self.attrs = attrs
        self.start_s = start_s
        self.end_s: float | None = None
        self.gpu_start_s: float | None = None
        self.gpu_end_s: float | None = None
        self.mem_start_bytes: int | None = None
        self.mem_peak_bytes: int | None = None
        self.children: list[Span] = []
        self.events: list[dict] = []

    # -- measurements --------------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Wall-clock time spent inside the span (0 while still open)."""
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    @property
    def gpu_time_s(self) -> float:
        """Simulated GPU time that elapsed inside the span."""
        if self.gpu_start_s is None or self.gpu_end_s is None:
            return 0.0
        return self.gpu_end_s - self.gpu_start_s

    @property
    def mem_high_water_delta_bytes(self) -> int:
        """Peak device memory reached inside the span over its entry level."""
        if self.mem_start_bytes is None or self.mem_peak_bytes is None:
            return 0
        return self.mem_peak_bytes - self.mem_start_bytes

    def set(self, **attrs) -> None:
        """Attach attributes to an open span (e.g. the level's frontier size)."""
        self.attrs.update(attrs)

    def event(self, name: str, **fields) -> None:
        """Append a point event (e.g. a kernel launch) to this span."""
        self.events.append({"name": name, **fields})

    # -- tree queries ---------------------------------------------------------

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """All descendants (including self) with the given span name."""
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> dict:
        """Recursive JSON-able form (the JSONL exporter flattens this)."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "gpu_time_s": self.gpu_time_s,
            "mem_high_water_delta_bytes": self.mem_high_water_delta_bytes,
            "events": list(self.events),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.3f} ms wall, "
            f"{len(self.children)} children, {len(self.events)} events)"
        )


class _OpenSpan:
    """Context-manager handle pairing a Span with its tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_gpu", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict, gpu):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._gpu = gpu
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs, self._gpu)
        return self._span

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self._span, self._gpu)
        return False


class Tracer:
    """Builds the span tree of one run.

    ``bind_device`` points the tracer at a simulated device so spans can
    snapshot its GPU clock (cumulative modeled time) and memory gauge on
    entry/exit; unbound spans simply record wall-clock only.  The driver
    rebinds on every :func:`~repro.core.bc.turbo_bc` call, so multi-GPU
    simulations attribute each slice to its own device.
    """

    def __init__(self, *, clock=time.perf_counter):
        self._clock = clock
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._gpu_clock = None
        self._mem_gauge = None

    def bind_device(self, device) -> None:
        """Snapshot GPU time / memory from ``device`` on future span edges."""
        self._gpu_clock = device.profiler.total_time_s
        self._mem_gauge = lambda: device.memory.used_bytes

    # -- span lifecycle -------------------------------------------------------

    def span(self, name: str, *, gpu=None, **attrs) -> _OpenSpan:
        """A context manager opening a child span of the current one.
        ``gpu``: the span's GPU clock at entry and exit, for a span emitted
        after its launches were timed (default: read the bound device's)."""
        return _OpenSpan(self, name, attrs, gpu)

    def _open(self, name: str, attrs: dict, gpu=None) -> Span:
        span = Span(name, attrs, self._clock())
        if self._gpu_clock is not None:
            span.gpu_start_s = self._gpu_clock() if gpu is None else gpu[0]
        if self._mem_gauge is not None:
            used = self._mem_gauge()
            span.mem_start_bytes = used
            span.mem_peak_bytes = used
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span, gpu=None) -> None:
        # Tolerate mispaired exits (an exception unwinding several levels):
        # pop up to and including the span being closed.
        while self._stack:
            top = self._stack.pop()
            top.end_s = self._clock()
            if self._gpu_clock is not None:
                top.gpu_end_s = gpu[1] if gpu is not None and top is span else self._gpu_clock()
            if top is span:
                break

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # -- event feeds (called by the instrumented simulator) -------------------

    def add_event(self, name: str, **fields) -> None:
        """Record a point event on the innermost open span (dropped if none)."""
        if self._stack:
            self._stack[-1].events.append({"name": name, **fields})

    def observe_memory(self, used_bytes: int) -> None:
        """Fold a memory sample into every open span's high-water mark."""
        for span in self._stack:
            if span.mem_peak_bytes is None or used_bytes > span.mem_peak_bytes:
                span.mem_peak_bytes = used_bytes

    def finish(self) -> list[Span]:
        """Close any spans left open (crash paths) and return the roots."""
        while self._stack:
            self._close(self._stack[-1])
        return self.roots
