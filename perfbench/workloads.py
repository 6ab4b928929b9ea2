"""Drive one workload through the public API, check every output, collect metrics.

Every operation goes through the public surface only: ``read_edge_list``
-> ``Graph.to_csc`` -> ``turbo_bc`` / ``DynamicBC.update``, single process,
single thread.  Each operation is timed on the host clock around the API
call alone; its output is checked afterwards, outside the timed region.
An operation that raises, times out or fails its check is counted as
failed with a message on stderr; the run goes on with the next one.
"""

from __future__ import annotations

import gc
import logging
import os
import pickle
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.inputs import SPECS
from perfbench.tracer import ENTRY_BUCKET, SPMV_KERNELS, Tracer

#: Query results must match ``brandes_bc`` to this share of the largest
#: reference value (the backward stage accumulates in float32).
RTOL = 1e-4
#: Hard limit on one operation or check; beyond it the operation fails.
OP_LIMIT_S = 90.0
#: No optional (beyond-prefix) operation starts after this much run time,
#: and no operation at all runs past the deadline (the run must end < 180 s).
EXTEND_UNTIL_S = 110.0
RUN_DEADLINE_S = 165.0
#: Wall time of one ``Calibration.sample`` on the reference machine (a shared
#: 2-core x86-64 VM at its usual speed).  Each timed operation is scaled by
#: ``CAL_REF_S`` / (the mean of the samples taken just before and just after
#: it), so a run made while the machine is faster or slower than usual, or
#: whose speed drifts mid-run, reports about the same numbers.
CAL_REF_S = 0.15
#: A calibration sample is taken before a timed operation once this much
#: timed work has passed since the previous sample.
CAL_EVERY_S = 0.5
#: Usual wall time of one ``Calibration.parse_sample`` on the reference
#: machine.  Set-up of a static workload is edge-list parsing alone: pure
#: interpreter work, whose speed on a shared host swings by up to 1.8x within
#: seconds while NumPy work barely moves.  Each such set-up is scaled by
#: ``PARSE_REF_S`` / (the mean of parse samples taken right before and after it).
PARSE_REF_S = 0.0055


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"exceeded {OP_LIMIT_S:.0f} s")


def _reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # peak then covers the whole process lifetime


def _peak_rss_mib() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Calibration:
    """A fixed NumPy + interpreter workload, independent of the program under
    test, timed between operations to measure how fast the machine runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._idx = rng.integers(0, 100_000, 400_000)
        self._vals = rng.random(400_000)
        self._lines = [f"{i} {(i * 7919) % 20_000}" for i in range(6_000)]
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(2):
            np.bincount(self._idx, weights=self._vals, minlength=100_000)
            np.argsort(self._idx, kind="stable")
            counts: dict[int, int] = {}
            for i in range(60_000):
                counts[i & 1023] = counts.get(i & 1023, 0) + i
        self.samples.append(time.perf_counter() - t0)

    def parse_sample(self) -> float:
        """Wall time of a short interpreter job shaped like ``read_edge_list``.

        The cyclic GC is paused, so a collection owed to the heap the
        program left behind is not charged to the machine's speed.
        """
        gc.disable()
        try:
            t0 = time.perf_counter()
            counts: dict[int, int] = {}
            for i in range(20_000):
                counts[i & 1023] = counts.get(i & 1023, 0) + i
            rows = []
            for line in self._lines:
                parts = line.strip().split()
                rows.append((int(parts[0]), int(parts[1])))
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def factor(self) -> float:
        """Reference speed over this run's speed (1.0 without samples)."""
        return CAL_REF_S / statistics.median(self.samples) if self.samples else 1.0

    def factor_near(self, k: int) -> float:
        """Reference speed over the speed around an operation that ran while
        ``k`` samples existed: samples ``k - 1`` (before it) and ``k`` (after)."""
        near = self.samples[max(0, k - 1):k + 1]
        return CAL_REF_S / statistics.fmean(near) if near else 1.0


class OverflowLogCounter(logging.Filter):
    """Counts and swallows turbo_bc's per-query int32 overflow warning."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def filter(self, record: logging.LogRecord) -> bool:
        if record.getMessage().startswith("sigma overflowed int32"):
            self.count += 1
            return False
        return True


def relative_error(bc: np.ndarray, ref: np.ndarray) -> float:
    """Largest absolute difference as a share of the largest reference value."""
    if bc.shape != ref.shape:
        return float("inf")
    return float(np.max(np.abs(bc - ref), initial=0.0)) / max(1.0, float(np.max(np.abs(ref), initial=0.0)))


def check_close(bc: np.ndarray, ref: np.ndarray) -> str | None:
    err = relative_error(bc, ref)
    return None if err <= RTOL else f"differs from brandes_bc: relative error {err:.3g} > {RTOL:g}"


def check_identical(got: np.ndarray, want: np.ndarray) -> str | None:
    same = got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    if same:
        return None
    diff = int(np.count_nonzero(got != want)) if got.shape == want.shape else -1
    return f"not bit-identical to the from-scratch run ({diff} entries differ)"


def reference_bc(src, dst, n: int, sources) -> np.ndarray:
    """``brandes_bc`` over ``sources`` on the undirected graph with these arcs."""
    from repro import Graph, brandes_bc

    return brandes_bc(Graph(src, dst, n, directed=False), sources=sources)


class InProcess:
    """Oracle that calls in this process (tests: no worker start-up)."""

    def submit(self, fn, *args):
        value = fn(*args)
        return lambda: value

    def __call__(self, fn, *args):
        return fn(*args)


class OracleLost(Exception):
    pass


class Oracle(InProcess):
    """Runs input generation and the Brandes references in one worker
    process, so their memory never shows in the measured process's peak RSS.

    The worker is a plain ``python3`` child fed pickled ``(fn, args)``
    requests over its stdin; it answers in order on a private copy of its
    stdout.  ``submit`` lets the worker compute while this process does
    other untimed work (verification runs); every pending result is
    collected before the next timed operation starts, so the worker is idle
    while one is timed.  No ``multiprocessing`` machinery is used, so the
    worker is the only process this benchmark ever starts, and ``__exit__``
    kills it and waits for it on every way out.
    """

    def __init__(self):
        self._proc = None
        self._next = 0          # ticket of the next request
        self._base = 0          # ticket of the current worker's first request
        self._received = 0      # answers read from the current worker
        self._answers = {}

    def _start(self) -> None:
        root = Path(__file__).resolve().parent.parent
        code = "import sys; sys.path[:0] = sys.argv[1:3]; from perfbench.workloads import serve; serve()"
        self._proc = subprocess.Popen(
            [sys.executable, "-c", code, str(root / "src"), str(root)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root)
        self._base, self._received = self._next, 0

    def _stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.kill()
        proc.wait()
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()
            except OSError:
                pass

    def __enter__(self) -> "Oracle":
        self._start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def submit(self, fn, *args):
        ticket = self._next
        self._next += 1
        kept = []  # the answer, once read: ``get`` may be called again
        try:
            pickle.dump((fn, args), self._proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            self._proc.stdin.flush()
        except OSError as exc:
            kept.append((False, OracleLost(f"the oracle worker is gone: {exc}")))

        def get():
            if not kept:
                kept.append(self._receive(ticket))
            ok, value = kept[0]
            if not ok:
                raise value
            return value

        return get

    def _receive(self, ticket: int):
        if ticket < self._base:
            raise OracleLost("the oracle worker was restarted before answering")
        try:
            while ticket not in self._answers:
                ok, value = pickle.load(self._proc.stdout)
                self._answers[self._base + self._received] = (ok, value)
                self._received += 1
        except OpTimeout:
            # the worker is stuck on the abandoned call: replace it
            self._stop()
            self._answers.clear()
            self._start()
            raise
        except EOFError:
            raise OracleLost("the oracle worker exited") from None
        return self._answers.pop(ticket)

    def __call__(self, fn, *args):
        return self.submit(fn, *args)()


def serve() -> None:
    """Worker loop of ``Oracle``: answer pickled requests until stdin closes.

    A reader thread drains stdin into a queue, so the parent never blocks
    writing requests while this process computes or waits to send answers.
    """
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # anything printed by the callee goes to stderr
    inbox: queue.SimpleQueue = queue.SimpleQueue()

    def read():
        try:
            while True:
                inbox.put(pickle.load(sys.stdin.buffer))
        except (EOFError, OSError):
            inbox.put(None)

    threading.Thread(target=read, daemon=True).start()
    while (request := inbox.get()) is not None:
        fn, args = request
        try:
            answer = (True, fn(*args))
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            try:
                pickle.dumps(exc)
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            answer = (False, exc)
        try:
            pickle.dump(answer, out, protocol=pickle.HIGHEST_PROTOCOL)
            out.flush()
        except OSError:
            return


@dataclass
class Op:
    label: str
    failed: bool = False


@dataclass
class Runner:
    """One run: operation bookkeeping, timings and (traced) layer totals."""

    script: dict
    seconds: float
    trace: bool
    started: float
    oracle: InProcess = field(default_factory=InProcess)
    perturb_first: bool = False     # drill: corrupt the first query result
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    # raw wall seconds of the timed operations, each with the number of
    # calibration samples taken before it (``Calibration.factor_near``)
    setup_s: list = field(default_factory=list)
    setup_k: list = field(default_factory=list)
    setup_parse_f: list = field(default_factory=list)  # static workloads only
    query_s: list = field(default_factory=list)
    query_k: list = field(default_factory=list)
    query_sources: int = 0
    update_s: list = field(default_factory=list)
    update_k: list = field(default_factory=list)
    core_stats: list = field(default_factory=list)
    update_stats: list = field(default_factory=list)
    host_peak_mib: float = 0.0
    untraced_s: list = field(default_factory=list)
    obs_s: list = field(default_factory=list)
    traced_s: list = field(default_factory=list)
    tracer: Tracer | None = None
    overflow: OverflowLogCounter = field(default_factory=OverflowLogCounter)
    traced_overflow_logs: int = 0
    calibration: Calibration = field(default_factory=Calibration)
    since_calibration: float = float("inf")

    def __post_init__(self):
        import repro
        from repro.graphs import io as gio

        self.repro, self.gio = repro, gio
        self.spec = SPECS[self.script["workload"]]
        self.batch = self.script["batch"]
        self.held = self.script["held"]
        if self.trace:
            self.tracer = Tracer()

    # -- operation plumbing ----------------------------------------------------

    def remaining(self) -> float:
        return self.started + RUN_DEADLINE_S - time.monotonic()

    def may_extend(self) -> bool:
        """Whether an optional operation past the fixed prefix may start."""
        return not self.trace and time.monotonic() - self.started < EXTEND_UNTIL_S

    def fail(self, op: Op, message: str) -> None:
        if not op.failed:
            op.failed = True
            self.failed += 1
        self.messages.append(f"{op.label}: {message}")
        print(f"perfbench: FAILED {op.label}: {message}", file=sys.stderr)

    def _guarded(self, op: Op, fn):
        """``fn()`` under the per-operation time limit; failures are recorded."""
        limit = min(OP_LIMIT_S, self.remaining() - 2.0)
        if limit <= 0:
            self.fail(op, "skipped: run deadline reached")
            return None
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            return fn()
        except OpTimeout as exc:
            self.fail(op, f"timed out: {exc}")
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return None

    def timed(self, label: str, fn, *, traced: bool = True):
        """Run one operation; returns ``(op, result, seconds)``.

        ``seconds`` is the host wall time of ``fn()`` alone.  Under
        ``--trace 1`` the layer wrappers are installed around the call.
        """
        op = Op(label)
        self.attempted += 1
        box = {}

        def call():
            _reset_peak_rss()
            tracer = self.tracer if traced else None
            logs = self.overflow.count
            if tracer is not None:
                tracer.op = self.attempted
                tracer.install()
            try:
                t0 = time.perf_counter()
                box["result"] = fn()
                box["seconds"] = time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.uninstall()
                    self.traced_overflow_logs += self.overflow.count - logs
            self.host_peak_mib = max(self.host_peak_mib, _peak_rss_mib())
            return True

        self._maybe_calibrate()
        self._guarded(op, call)
        self.since_calibration += box.get("seconds", 0.0)
        return op, box.get("result"), box.get("seconds")

    def _maybe_calibrate(self) -> None:
        if not self.trace and self.since_calibration >= CAL_EVERY_S:
            self.calibration.sample()
            self.since_calibration = 0.0

    def check(self, op: Op, fn) -> None:
        """Run a correctness check (untimed); a message or exception fails ``op``."""
        message = self._guarded(op, fn)
        if message:
            self.fail(op, message)

    # -- the public API calls ----------------------------------------------------

    def _load(self):
        graph = self.gio.read_edge_list(self.script["graph_path"], n=self.script["n"],
                                        directed=False)
        graph.to_csc()
        return graph

    def reference(self, graph, sources):
        """Start ``brandes_bc`` in the oracle; returns a getter for the result."""
        return self.oracle.submit(reference_bc, graph.src, graph.dst, graph.n, sources)

    def _bc(self, graph, sources, **kwargs):
        return self.repro.turbo_bc(graph, sources=sources, algorithm="adaptive",
                                   batch_size=self.batch, **kwargs)

    def _setup_once(self):
        graph = self._load()
        if self.spec.stream:
            return graph, self._bc(graph, self.held, keep_state=True)
        return graph, None

    # -- phases ----------------------------------------------------------------

    def setup(self):
        """Time load (+ the initial stateful run on a stream) several times."""
        reps, min_reps, min_total, max_reps = 0, 1 if self.trace else 3, 1.5, 200
        loaded = None
        bracket = not self.trace and not self.spec.stream
        cal = self.calibration
        while True:
            if bracket:
                self._maybe_calibrate()  # not between the bracket and the op
                before = cal.parse_sample()
            op, out, dt = self.timed(f"setup#{reps}", self._setup_once, traced=True)
            reps += 1
            if out is None:
                return None
            self.setup_s.append(dt)
            self.setup_k.append(len(cal.samples))
            if bracket:
                self.setup_parse_f.append(PARSE_REF_S / statistics.fmean((before, cal.parse_sample())))
            graph = out[0]
            if graph.n != self.script["n"] or graph.m != self.script["m"]:
                self.fail(op, f"loaded n={graph.n} m={graph.m}, expected "
                              f"n={self.script['n']} m={self.script['m']}")
            loaded = out
            if reps >= min_reps and (self.trace or sum(self.setup_s) >= min_total or reps >= max_reps):
                return loaded

    def query(self, label: str, graph, sources, reference=None, *, core: bool):
        """One query; returns its deferred check against ``brandes_bc``.

        ``reference`` is a getter for a reference computed earlier; without
        one, the reference starts in the oracle once the query has run, so
        the caller can do other untimed work before calling the check.
        Under ``--trace 1`` the query also runs untraced and under a
        telemetry session, and all three must agree bit for bit.
        """
        if self.trace:
            _, plain, plain_s = self.timed(label + "/untraced", lambda: self._bc(graph, sources),
                                           traced=False)

            def with_obs():
                with self.repro.obs.session():
                    return self._bc(graph, sources)

            _, under_obs, obs_s = self.timed(label + "/obs", with_obs, traced=False)
        op, res, dt = self.timed(label, lambda: self._bc(graph, sources))
        if res is None:
            return lambda: None
        if self.perturb_first and not self.query_s:
            res.bc[int(np.argmax(res.bc))] += 1e-2 * max(1.0, float(np.max(res.bc)))
        self.query_s.append(dt)
        self.query_k.append(len(self.calibration.samples))
        self.query_sources += len(sources)
        if core:
            self.core_stats.append(res.stats)
        if reference is None:
            reference = self.reference(graph, sources)
        if self.trace and plain is not None and under_obs is not None:
            self.untraced_s.append(plain_s)
            self.obs_s.append(obs_s)
            self.traced_s.append(dt)
            self.check(op, lambda: check_identical(res.bc, plain.bc))
            self.check(op, lambda: check_identical(under_obs.bc, plain.bc))
        return lambda: self.check(op, lambda: check_close(res.bc, reference()))

    def update(self, label: str, dyn, edit: dict, *, core: bool):
        """One edit batch; returns its deferred check against a from-scratch run."""
        op, res, dt = self.timed(label, lambda: dyn.update(edit["added"], edit["removed"]))
        if res is None:
            return op, lambda: None
        self.update_s.append(dt)
        self.update_k.append(len(self.calibration.samples))
        self.update_stats.append(res.stats)
        if core:
            self.core_stats.append(res.stats)
        graph = dyn.graph
        return op, lambda: self.check(
            op, lambda: check_identical(res.bc, self._bc(graph, self.held).bc))

    def run_static(self) -> None:
        loaded = self.setup()
        if loaded is None:
            return
        graph = loaded[0]
        queries = self.script["queries"]
        refs = [self.reference(graph, q) for q in queries]
        # A handle holding the first query's sources, for the edit batches
        # that make update time exist on this graph too; built (untimed)
        # while the oracle computes the references.
        prep = Op("prepare-state")
        self.attempted += 1
        dyn = self._guarded(prep, lambda: self._bc(graph, self.held, keep_state=True))
        for get in refs:
            self._guarded(prep, get)
        if dyn is not None:
            self.check(prep, lambda: check_close(dyn.bc, refs[0]()))
        core = self.spec.prefix
        i = 0
        while True:
            k = i % len(queries)
            self.query(f"query#{i}", graph, queries[k], refs[k], core=i < core)()
            i += 1
            if i >= core and (sum(self.query_s) >= self.seconds or not self.may_extend()):
                break
        if dyn is None:
            return
        for j, edit in enumerate(self.script["edits"]):
            self.update(f"update#{j}", dyn, edit, core=True)[1]()

    def run_stream(self) -> None:
        loaded = self.setup()
        if loaded is None:
            return
        dyn = loaded[1]
        last = None
        for i, (edit, sources) in enumerate(zip(self.script["edits"], self.script["queries"])):
            core = i < self.spec.prefix
            last, check_update = self.update(f"update#{i}", dyn, edit, core=core)
            check_query = self.query(f"query#{i}", dyn.graph, sources, core=core)
            check_update()  # runs here while the oracle computes the query's reference
            check_query()
            spent = sum(self.query_s) + sum(self.update_s)
            if (i + 1) % self.spec.prefix == 0 and (spent >= self.seconds or not self.may_extend()):
                break
        if last is not None:
            final = self.reference(dyn.graph, self.held)
            self.check(last, lambda: check_close(dyn.bc, final()))

    def run(self) -> None:
        logger = logging.getLogger("repro.core.bc")
        logger.addFilter(self.overflow)
        try:
            (self.run_stream if self.spec.stream else self.run_static)()
        finally:
            logger.removeFilter(self.overflow)
        if not self.trace:
            self.calibration.sample()

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self) -> dict:
        """``name -> (value, unit, clock, note)``; ``None`` where nothing was measured.

        Host times are speed-normalised: each operation's wall time x
        ``Calibration.factor_near`` for that operation, or for a static
        workload's set-ups x its parse-bracket factor (``PARSE_REF_S``);
        medians and rates are taken over the normalised times.  Each note
        gives the raw wall-clock value.
        """
        def med(xs):
            return statistics.median(xs) if xs else None

        def rate(count, xs):
            return count / sum(xs) if xs and sum(xs) > 0 else None

        def norm(xs, ks):
            return [x * self.calibration.factor_near(k) for x, k in zip(xs, ks)]

        def raw(value):
            return "raw n/a" if value is None else f"raw {value:.6g}"

        stats = self.core_stats
        clock = "host, speed-normalised"
        setup_n = ([x * f for x, f in zip(self.setup_s, self.setup_parse_f)] if self.setup_parse_f
                   else norm(self.setup_s, self.setup_k))
        query_n = norm(self.query_s, self.query_k)
        update_n = norm(self.update_s, self.update_k)
        setup, setup_raw = med(setup_n), raw(med(self.setup_s))
        query, query_raw = med(query_n), raw(med(self.query_s))
        sps, sps_raw = rate(self.query_sources, query_n), raw(rate(self.query_sources, self.query_s))
        update, update_raw = med(update_n), raw(med(self.update_s))
        ups, ups_raw = rate(len(update_n), update_n), raw(rate(len(self.update_s), self.update_s))
        return {
            "setup_s": (setup, "s", clock, f"median of {len(self.setup_s)}, {setup_raw}"),
            "query_s": (query, "s", clock, f"median of {len(self.query_s)}, {query_raw}"),
            "sources_per_s": (sps, "1/s", clock, f"{self.query_sources} sources, {sps_raw}"),
            "update_s": (update, "s", clock, f"median of {len(self.update_s)}, {update_raw}"),
            "updates_per_s": (ups, "1/s", clock, f"{len(self.update_s)} batches, {ups_raw}"),
            "model_gpu_s": (statistics.fmean(s.gpu_time_s for s in stats) if stats else None,
                            "s", "modeled", f"mean of {len(stats)} prefix ops"),
            "device_peak_bytes": (max(s.peak_memory_bytes for s in stats) if stats else None,
                                  "B", "modeled", f"max of {len(stats)} prefix ops"),
            "host_peak_mb": (self.host_peak_mib or None, "MiB", "host", "peak RSS in timed ops"),
            "ok_frac": ((self.attempted - self.failed) / self.attempted if self.attempted else None,
                        "ratio", "-", f"{self.attempted - self.failed}/{self.attempted} ops"),
        }

    def per_layer(self) -> dict:
        t = self.tracer
        s, c = t.self_s, t.calls
        ups = self.update_stats
        bc_wall = t.top_level_bc_s()
        out = {
            "graphs.read_s": (s["graphs.read"], "s"),
            "graphs.build_s": (s["graphs.build"], "s"),
            "formats.convert_s": (s["formats.convert"], "s"),
            "spmv.self_s": (s["spmv"], "s"),
            "spmv.calls": (c["spmv"], "count"),
        }
        for k in SPMV_KERNELS:
            out[f"spmv.{k}.self_s"] = (s[f"spmv.{k}"], "s")
            out[f"spmv.{k}.calls"] = (c[f"spmv.{k}"], "count")
        out.update({
            "gpusim.self_s": (s["gpusim"], "s"),
            "gpusim.launches": (c["gpusim.Device.launch"], "count"),
            "gpusim.alloc_calls": (c["gpusim.DeviceMemory.alloc"] + c["gpusim.DeviceArena.carve"],
                                   "count"),
            "core.dispatch.self_s": (s["core.dispatch"], "s"),
            "core.dispatch.calls": (c["core.dispatch"] - c["core.dispatch.record_measured"],
                                    "count"),
            "core.frontier.self_s": (s["core.frontier"], "s"),
            "core.driver.self_s": (s["core.driver"], "s"),
            "core.forward.passes": (t.forward_passes, "count"),
            "core.forward.useful_frac": (
                t.sources_requested / t.forward_passes if t.forward_passes else 1.0, "ratio"),
            "core.forward.overflow_logs": (self.traced_overflow_logs, "count"),
            "core.incremental.self_s": (s["core.incremental"], "s"),
            "core.incremental.rerun_frac": (
                sum(u.affected_sources or 0 for u in ups) / max(1, sum(u.sources for u in ups)),
                "ratio"),
            "core.incremental.full_frac": (
                sum(u.update_mode == "full" for u in ups) / max(1, len(ups)), "ratio"),
            "obs.self_s": (s["obs"], "s"),
            "obs.overhead_frac": (_overhead(self.obs_s, self.untraced_s), "ratio"),
            "trace.attributed_frac": (1.0 - s[ENTRY_BUCKET] / bc_wall if bc_wall else 0.0, "ratio"),
            "trace.overhead_frac": (_overhead(self.traced_s, self.untraced_s), "ratio"),
        })
        return out


def _overhead(measured: list, baseline: list) -> float:
    return sum(measured) / sum(baseline) - 1.0 if baseline and sum(baseline) > 0 else 0.0
