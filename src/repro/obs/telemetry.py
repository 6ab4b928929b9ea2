"""RunTelemetry: one run's tracer + metrics, and the active-session switch.

The simulator and the drivers are instrumented against *this module*, not
against a concrete tracer: they call :func:`span`, :func:`get_telemetry` and
the ``on_*`` hooks of whatever :class:`RunTelemetry` is active.  When nothing
is active (the default), :func:`span` hands back the shared no-op span and
:func:`get_telemetry` returns ``None`` -- the instrumented paths cost a
module-global read, which is what keeps tier-1 timings and results untouched.

Typical use::

    from repro import obs

    with obs.session() as tel:
        result = turbo_bc(graph, sources=0)
    obs.write_chrome_trace("trace.json", tel)
    json.dump(tel.snapshot(), open("metrics.json", "w"))
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.memtrace import MemTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NOOP_SPAN, Span, Tracer


class RunTelemetry:
    """Everything observed about one run: a span tree plus a metrics registry.

    The simulated device feeds it through :meth:`on_kernel_launch` and
    :meth:`on_memory`; the drivers open spans through it.  ``tracer`` or
    ``metrics`` may be disabled independently (``None``).
    """

    def __init__(self, *, trace: bool = True, metrics: bool = True,
                 audit_dispatch: bool = False, memtrace: bool = False,
                 ledger=None, clock=time.perf_counter):
        self.tracer: Tracer | None = Tracer(clock=clock) if trace else None
        self.metrics: MetricsRegistry | None = MetricsRegistry() if metrics else None
        #: Optional run ledger (DESIGN.md §16): a
        #: :class:`~repro.obs.ledger.Ledger` or a path to one.  When set, the
        #: drivers append one identity-keyed record per finished run; purely
        #: additive -- results are bit-identical with and without it.
        if ledger is not None and not hasattr(ledger, "append"):
            from repro.obs.ledger import Ledger

            ledger = Ledger(ledger)
        self.ledger = ledger
        self._ledger_suspend = 0
        #: Modeled GPU seconds per run phase (setup/forward/backward/rerun),
        #: attributed by the open span stack at each launch.
        self.phase_gpu_time_s: dict[str, float] = {}
        #: When set, adaptive contexts replay the *unchosen* strategies on a
        #: private shadow device so the regret report can compare measured
        #: times (see obs/audit.py).  Off by default: shadow replays cost
        #: real work, though they never touch the main device's profiler.
        self.audit_dispatch = audit_dispatch
        #: DispatchDecision lists pushed by finished adaptive runs.
        self.dispatch_decisions: list = []
        #: ScheduleAudit records pushed by finished multi-GPU runs (one per
        #: ``multi_gpu_bc`` call; see obs/schedaudit.py).
        self.schedule_audits: list = []
        #: The spec of the last device whose launches were observed; lets
        #: report code roofline the run without re-plumbing the device.
        self.device_spec = None
        #: (wall_s, used_bytes) samples, one per device alloc/free.
        self.memory_timeline: list[tuple[float, int]] = []
        self._clock = clock
        self._t0 = clock()
        # per-kernel GLT accumulators: name -> [requested_load_bytes, exec_s]
        self._glt: dict[str, list] = {}
        self._handles: dict[tuple, object] = {}  # (kind, metric, kernel) -> metric
        #: Opt-in allocation-timeline profiler (DESIGN.md §13); ``None``
        #: keeps the allocator hooks on their zero-extra-work path.
        self.memtrace: MemTrace | None = (
            MemTrace(now=lambda: self._clock() - self._t0,
                     phase=self.current_phase, metrics=self.metrics)
            if memtrace else None
        )

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return NOOP_SPAN
        return self.tracer.span(name, **attrs)

    def current_phase(self) -> str:
        """The run phase implied by the open span stack.

        Walking innermost-out: a ``rerun`` span wins (the sigma-overflow
        float64 replay), then the nearest ``forward``/``backward`` span or
        a span carrying a ``phase`` attribute (the dispatch stages tag
        themselves).  Anything outside those -- graph upload, context
        setup, teardown -- is ``setup``.
        """
        if self.tracer is None:
            return "setup"
        for s in reversed(self.tracer._stack):
            if s.name == "rerun":
                return "rerun"
            if s.name in ("forward", "backward"):
                return s.name
            phase = s.attrs.get("phase")
            if phase in ("forward", "backward", "rerun"):
                return phase
        return "setup"

    def bind_device(self, device) -> None:
        if self.tracer is not None:
            self.tracer.bind_device(device)

    # -- the run ledger -------------------------------------------------------

    @property
    def ledger_active(self) -> bool:
        """Whether a finishing driver should append a ledger record."""
        return self.ledger is not None and self._ledger_suspend == 0

    @contextmanager
    def suspend_ledger(self):
        """Mute ledger appends for a block.

        Composite drivers (``multi_gpu_bc``) run their per-task work through
        the ordinary ``turbo_bc`` path; suspending around the task loop keeps
        the ledger at one record per user-visible run instead of one per
        internal task.
        """
        self._ledger_suspend += 1
        try:
            yield
        finally:
            self._ledger_suspend -= 1

    def record_run(self, record: dict) -> None:
        """Append ``record`` to the ledger if one is active (else drop it)."""
        if self.ledger_active:
            self.ledger.append(record)

    def _counter_totals(self) -> dict:
        """Counters summed by base name (``kernel_launches{kernel=x}`` and
        ``{kernel=y}`` roll up into one ``kernel_launches``)."""
        out: dict[str, float] = {}
        if self.metrics is not None:
            for key, value in self.metrics.to_dict()["counters"].items():
                base = key.split("{", 1)[0]
                out[base] = out.get(base, 0) + value
        return out

    def ledger_mark(self):
        """Snapshot the cumulative phase/counter state at a run boundary.

        A session can span many runs; ledger records carry per-run *deltas*
        (:meth:`ledger_delta` against the mark), not session totals.
        """
        return (dict(self.phase_gpu_time_s), self._counter_totals())

    def ledger_delta(self, mark) -> tuple[dict, dict]:
        """Per-run ``(phase_time_s, counters)`` since :meth:`ledger_mark`."""
        phase0, counters0 = mark
        phase = {
            k: v - phase0.get(k, 0.0)
            for k, v in self.phase_gpu_time_s.items()
            if v - phase0.get(k, 0.0) > 0.0
        }
        counters = {
            k: v - counters0.get(k, 0)
            for k, v in self._counter_totals().items()
            if v - counters0.get(k, 0)
        }
        return phase, counters

    # -- simulator hooks ------------------------------------------------------

    def on_kernel_launch(self, launch, gpu_total_s: float, spec=None) -> None:
        """Record one kernel launch (called by ``Device.launch``).

        ``gpu_total_s`` is the device's cumulative modeled time *after* the
        launch, so the launch occupies ``[gpu_total_s - time_s, gpu_total_s]``
        on the modeled-GPU timeline.  ``spec`` (the launching device's
        :class:`~repro.gpusim.device.DeviceSpec`) enables the hardware-style
        counters -- occupancy needs the resident-thread capacity.
        """
        from repro.obs.counters import counters_for_launch

        name = launch.name
        counters = counters_for_launch(launch, spec)
        if spec is not None:
            self.device_spec = spec
        phase = self.current_phase()
        self.phase_gpu_time_s[phase] = (
            self.phase_gpu_time_s.get(phase, 0.0) + launch.time_s
        )
        if self.metrics is not None:
            self._kernel_metric("counter", "kernel_launches", name).inc()
            for field in ("dram_read_bytes", "dram_write_bytes", "flops",
                          "atomic_conflicts"):
                amount = getattr(counters, field)
                if amount:
                    self._kernel_metric("counter", field, name).inc(amount)
            if counters.threads:
                self._kernel_metric("histogram", "occupancy_pct", name).record(
                    round(counters.occupancy * 100))
            acc = self._glt.setdefault(name, [0, 0.0])
            acc[0] += launch.stats.requested_load_bytes
            acc[1] += launch.exec_time_s
        if self.tracer is not None:
            self.tracer.add_event(
                "kernel",
                kernel=name,
                tag=launch.tag,
                gpu_ts_s=gpu_total_s - launch.time_s,
                gpu_dur_s=launch.time_s,
                occupancy=counters.occupancy,
                dram_gbs=counters.dram_gbs,
            )

    def _kernel_metric(self, kind: str, metric: str, kernel: str):
        """The registry's ``kind`` metric labelled ``kernel``, looked up once."""
        key = (kind, metric, kernel)
        handle = self._handles.get(key)
        if handle is None:
            handle = self._handles[key] = getattr(self.metrics, kind)(metric, kernel=kernel)
        return handle

    def on_memory(self, used_bytes: int, delta_bytes: int, name: str,
                  obj=None) -> None:
        """Record one allocation/free (called by ``DeviceMemory``).

        ``obj`` is the :class:`~repro.gpusim.memory.DeviceArray` involved;
        the memtrace profiler keys lifetimes on its identity.  Optional so
        older callers (and tests) remain valid.
        """
        if self.metrics is not None:
            self.metrics.gauge("device_mem_used_bytes").set(used_bytes)
        self.memory_timeline.append((self._clock() - self._t0, used_bytes))
        if self.tracer is not None:
            self.tracer.observe_memory(used_bytes)
        if self.memtrace is not None:
            self.memtrace.on_device_event(name, delta_bytes, used_bytes, obj)

    def on_oom(self, name: str, requested: int, used_bytes: int,
               capacity_bytes: int) -> str:
        """Record a failed allocation attempt; returns the current phase.

        Called by whatever is about to raise
        :class:`~repro.gpusim.errors.DeviceOutOfMemoryError` -- the device
        allocator or the batched-admission check -- so the terminal event
        lands in the timeline even though no allocation happened.  Always
        counted and traced (satellite of DESIGN.md §13); the structured
        forensic record additionally lands in the memtrace when enabled.
        """
        phase = self.current_phase()
        if self.metrics is not None:
            self.metrics.counter("mem_oom_events").inc()
        if self.tracer is not None:
            self.tracer.add_event(
                "oom", array=name, requested_bytes=int(requested),
                used_bytes=int(used_bytes), capacity_bytes=int(capacity_bytes),
                phase=phase,
            )
        if self.memtrace is not None:
            self.memtrace.record_oom(name, requested, used_bytes,
                                     capacity_bytes, phase)
        return phase

    # -- results --------------------------------------------------------------

    @property
    def roots(self) -> list[Span]:
        """Top-level spans of the trace (empty when tracing is disabled)."""
        return self.tracer.roots if self.tracer is not None else []

    def per_kernel_glt_gbs(self) -> dict[str, float]:
        """Aggregate Global-memory Load Throughput per kernel, in GB/s."""
        out = {}
        for name, (req, exec_s) in sorted(self._glt.items()):
            out[name] = (req / exec_s / 1e9) if exec_s > 0 else 0.0
        return out

    def snapshot(self) -> dict:
        """The run's metrics as one JSON-able dict (``--metrics-json``)."""
        metrics = self.metrics.to_dict() if self.metrics is not None else {}
        peak = max((u for _, u in self.memory_timeline), default=0)
        out = {
            "schema": "repro.obs/metrics/v1",
            "metrics": metrics,
            "per_kernel_glt_gbs": self.per_kernel_glt_gbs(),
            "run_peak_memory_bytes": peak,
            "memory_timeline_samples": len(self.memory_timeline),
        }
        if self.phase_gpu_time_s:
            out["phase_gpu_time_s"] = {
                k: self.phase_gpu_time_s[k] for k in sorted(self.phase_gpu_time_s)
            }
        # Multi-GPU digests (schedule audits + link traffic): without these
        # the snapshot -- and everything built on it, the ledger above all --
        # was blind to multi-device runs unless callers replayed telemetry.
        if self.schedule_audits:
            out["schedule_audits"] = [a.to_dict() for a in self.schedule_audits]
        counters = metrics.get("counters", {}) if metrics else {}
        transfers = sum(
            v for k, v in counters.items()
            if k.split("{", 1)[0] == "link_transfers"
        )
        if transfers:
            out["link"] = {
                "transfers": int(transfers),
                "bytes": int(sum(
                    v for k, v in counters.items()
                    if k.split("{", 1)[0] == "link_transfer_bytes"
                )),
            }
        if self.memtrace is not None:
            out["mem"] = self.memtrace.summary()
        return out


# -- the active session -------------------------------------------------------

_ACTIVE: RunTelemetry | None = None


def get_telemetry() -> RunTelemetry | None:
    """The active telemetry session, or ``None`` (the zero-cost default)."""
    return _ACTIVE


def span(name: str, *, gpu=None, **attrs):
    """Open a span on the active session; a shared no-op when inactive
    (``gpu``: the span's GPU clock at entry and exit, :meth:`Tracer.span`)."""
    tel = _ACTIVE
    if tel is None or tel.tracer is None:
        return NOOP_SPAN
    return tel.tracer.span(name, gpu=gpu, **attrs)


def activate(telemetry: RunTelemetry) -> RunTelemetry:
    """Install ``telemetry`` as the active session (returns it)."""
    global _ACTIVE
    _ACTIVE = telemetry
    return telemetry


def deactivate() -> None:
    """Clear the active session (instrumentation reverts to no-ops)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def session(telemetry: RunTelemetry | None = None, **kwargs):
    """Run a block with an active telemetry session, restoring the previous.

    ``kwargs`` construct a fresh :class:`RunTelemetry` when none is passed.
    Nested sessions stack: the inner session captures, the outer resumes.
    """
    global _ACTIVE
    tel = telemetry if telemetry is not None else RunTelemetry(**kwargs)
    prev = _ACTIVE
    _ACTIVE = tel
    try:
        yield tel
    finally:
        if tel.tracer is not None:
            tel.tracer.finish()
        _ACTIVE = prev
