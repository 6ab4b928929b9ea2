"""Exact snapshot of every modeled quantity over a fixed grid of runs.

Each cell runs one configuration on a fresh device and folds into a sha256:
the ``bc`` bytes, every launch's ``KernelStats`` fields, name, tag and
``time_s``, every ``DispatchDecision`` field (``est_us`` and
``measured_us`` included) and the modeled ``BCRunStats`` fields.  The
``kernel/...`` cells call the 24 SpMV/SpMM entry points directly, on
operands the drivers never build (wrapped negative int32, float32 and
float64 frontiers; no, all-true, partial and all-false masks; B in
{1, 3, 8, 9}), and fold each call's ``y`` bytes and launch.  The
digests live in ``modeled_snapshot.json`` beside this file; a one-ulp or
one-count change to any of them fails the cell that produced it.

Regenerate (and review the diff) with ``make bless-modeled``, i.e.
``PYTHONPATH=src python -m tests.test_modeled_snapshot --bless``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
from repro import Device, Graph, spmv, turbo_bc
from repro.core.bfs import turbo_bfs
from repro.core.forward import SigmaOverflowError
from repro.extensions.edge_bc import edge_betweenness
from repro.graphs.generators.road import road_network_graph
from repro.graphs.generators.smallworld import small_world_graph
from repro.graphs.generators.social import powerlaw_cluster_graph
from repro.graphs.generators.webgraph import preferential_attachment_digraph
from repro.obs import telemetry as obs

SNAPSHOT = Path(__file__).with_name("modeled_snapshot.json")

#: ``(algorithm, direction)`` of every configuration column.
CONFIGS = (
    ("sccooc", "auto"), ("sccsc", "auto"), ("veccsc", "auto"), ("pullcsc", "auto"),
    ("tcspmm", "auto"), ("adaptive", "auto"), ("adaptive", "push"), ("adaptive", "pull"),
)
BATCHES = (1, 3, 8)
DTYPES = ("auto", "float64")
N_SOURCES = 9


def _disconnected() -> Graph:
    a = small_world_graph(60, k=4, rewire_p=0.2, seed=5)
    b = road_network_graph(5, 5, segments=1, seed=6)
    src = np.concatenate([a.src, b.src + a.n])
    dst = np.concatenate([a.dst, b.dst + a.n])
    return Graph(src, dst, a.n + b.n + 4, directed=False)  # + 4 isolated vertices


def _diamond_chain() -> Graph:
    """40 chained diamonds and a tail: sigma reaches 2^40, overflowing int32."""
    diamonds = [(3 * i + a, 3 * i + b)
                for i in range(40) for a, b in ((0, 1), (0, 2), (1, 3), (2, 3))]
    tail = [(120 + i, 121 + i) for i in range(3)]
    return Graph.from_edges(diamonds + tail, n=124, directed=False, name="diamonds")


GRAPHS = {
    "road12": lambda: road_network_graph(12, 12, segments=1, keep_prob=0.9, seed=3),
    "smallworld": lambda: small_world_graph(240, k=6, rewire_p=0.1, seed=1),
    "powerlaw": lambda: powerlaw_cluster_graph(240, mean_degree=5, seed=2),
    "digraph": lambda: preferential_attachment_digraph(200, mean_degree=6, seed=4),
    "disconnected": _disconnected,
    "diamonds": _diamond_chain,
}


def _canon(v) -> str:
    """A type-independent text form: equal values give equal text."""
    if v is None or isinstance(v, (bool, np.bool_, str)):
        return repr(v if not isinstance(v, np.bool_) else bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_canon(x) for x in v) + "]"
    if dataclasses.is_dataclass(v):
        return v.__class__.__name__ + _canon(
            {f.name: getattr(v, f.name) for f in dataclasses.fields(v)})
    raise TypeError(f"cannot canonicalise {type(v).__name__}")


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def feed(self, *values) -> None:
        for v in values:
            if isinstance(v, np.ndarray):
                self._h.update(str(v.dtype).encode())
                self._h.update(np.ascontiguousarray(v).tobytes())
            else:
                self._h.update(_canon(v).encode())
            self._h.update(b"\0")

    def device(self, dev: Device) -> None:
        for launch in dev.profiler.launches:
            self.feed(launch.stats, launch.name, launch.tag, launch.time_s)

    def run_stats(self, stats) -> None:
        self.feed(stats.algorithm, stats.n, stats.m, stats.sources, stats.gpu_time_s,
                  stats.kernel_launches, stats.transfer_time_s,
                  stats.peak_memory_bytes, stats.depth_per_source,
                  stats.batch_size, stats.rerun_sources)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _sources(graph: Graph) -> list[int]:
    # The deep diamond chain (~80 levels a source) gets fewer sources.
    size = 4 if graph.name == "diamonds" else N_SOURCES
    rng = np.random.default_rng(0)
    return sorted(int(s) for s in rng.choice(graph.n, size=size, replace=False))


def _bc_cell(graph, algorithm, direction, batch, dtype, *, audit=False) -> str:
    d = _Digest()
    dev = Device()
    fdt = dtype if dtype == "auto" else np.dtype(dtype)
    bdt = np.float32 if dtype == "auto" else np.float64
    with obs.session(trace=False, metrics=False, audit_dispatch=audit) as tel:
        res = turbo_bc(graph, sources=_sources(graph), algorithm=algorithm, device=dev,
                       forward_dtype=fdt, backward_dtype=bdt, batch_size=batch,
                       direction=direction)
    d.feed(res.bc)
    d.device(dev)
    d.run_stats(res.stats)
    d.feed(tel.dispatch_decisions)
    return d.hexdigest()


def _edge_bc_cell(graph, algorithm) -> str:
    d = _Digest()
    dev = Device()
    res = edge_betweenness(graph, sources=_sources(graph), algorithm=algorithm, device=dev)
    d.feed(res.scores)
    d.device(dev)
    d.run_stats(res.stats)
    return d.hexdigest()


def _bfs_cell(graph, algorithm, dtype) -> str:
    d = _Digest()
    dev = Device()
    for s in _sources(graph)[:3]:
        try:
            r = turbo_bfs(graph, s, algorithm=algorithm, device=dev, forward_dtype=dtype)
        except SigmaOverflowError as exc:  # int32 on the diamond chain
            d.feed(str(exc))
            continue
        d.feed(r.sigma, r.levels, r.depth, r.frontier_sizes)
    d.device(dev)
    return d.hexdigest()


def _telemetry_cell(graph, batch) -> str:
    """Span names and attributes in tree order, the kernel events each span
    saw, and the metrics registry, for a traced adaptive run."""
    d = _Digest()
    dev = Device()
    with obs.session() as tel:
        res = turbo_bc(graph, sources=_sources(graph), algorithm="adaptive", device=dev,
                       batch_size=batch)
    d.feed(res.bc)
    d.device(dev)
    for root in tel.roots:
        for span in root.walk():
            d.feed(span.name, span.attrs, span.events, span.gpu_time_s)
    d.feed(tel.metrics.to_dict())
    for name, hist in sorted(tel.metrics._histograms.items()):
        d.feed(name, hist.samples)
    return d.hexdigest()


#: Kernel name -> the graph format its entry points read.
KERNELS = {"sccooc": "cooc", "sccsc": "csc", "veccsc": "csc", "edgecsc": "csc",
           "pullcsc": "csc", "tcspmm": "csc"}
KERNEL_WIDTHS = (1, 3, 8, 9)


def _kernel_operand(dtype: str, shape, rng) -> np.ndarray:
    """A frontier with zeros and negatives: int32 values past 2^30 (so
    column sums overflow int32) and a few wrapped ones near ``INT_MIN``,
    or normal floats with zeros, a negative zero, an infinity and a NaN."""
    if dtype == "int32":
        x = rng.integers(-3, 6, size=shape).astype(np.int32)
        big = rng.random(shape) < 0.1
        x[big] = rng.integers(1 << 30, (1 << 31) - 1, size=int(big.sum()))
        x.flat[::17] = np.iinfo(np.int32).min + 3
        return x
    x = rng.standard_normal(shape).astype(dtype) * 4
    x[rng.random(shape) < 0.4] = 0
    x.flat[1], x.flat[2], x.flat[5], x.flat[7] = -0.0, np.inf, 0, np.nan
    return x


def _kernel_masks(n: int, B: int | None, rng):
    shape = (n,) if B is None else (n, B)
    yield "none", None
    yield "all", np.ones(shape, dtype=bool)
    yield "partial", rng.random(shape) < 0.6
    yield "empty", np.zeros(shape, dtype=bool)


def _kernel_cell(graph, kernel, suffix, dtype) -> str:
    """Every call of one entry point over one operand dtype: each width,
    and for masked gathers each mask."""
    d = _Digest()
    dev = Device()
    fn = getattr(spmv, f"{kernel}_{suffix}")
    mat = graph.to_cooc() if KERNELS[kernel] == "cooc" else graph.to_csc()
    masked = kernel != "sccooc" and "scatter" not in suffix
    rng = np.random.default_rng(sum(map(ord, f"{kernel}{suffix}{dtype}")))
    for B in ((None,) if "spmv" in suffix else KERNEL_WIDTHS):
        x = _kernel_operand(dtype, (graph.n,) if B is None else (graph.n, B), rng)
        masks = _kernel_masks(graph.n, B, rng) if masked else (("none", None),)
        for mname, allowed in masks:
            kwargs = {} if allowed is None else {"allowed": allowed}
            y, launch = fn(dev, mat, x, tag=f"{B}/{mname}", **kwargs)
            d.feed(B, mname, y, launch.stats, launch.name, launch.tag, launch.time_s)
        if dtype == "int32":
            y, launch = fn(dev, mat, x, out_dtype=np.float64, tag=f"{B}/f64")
            d.feed(B, y, launch.stats, launch.name, launch.time_s)
    return d.hexdigest()


def _cells():
    """``cell id -> zero-argument digest function`` for the whole grid."""
    cells = {}
    for gname, make in GRAPHS.items():
        for algorithm, direction in CONFIGS:
            for batch in BATCHES:
                for dtype in DTYPES:
                    cid = f"bc/{gname}/{algorithm}-{direction}/b{batch}/{dtype}"
                    cells[cid] = (_bc_cell, make, (algorithm, direction, batch, dtype))
    for gname in ("road12", "digraph", "diamonds"):
        for batch in (1, 3):
            cells[f"audit/{gname}/b{batch}"] = (
                _bc_cell, GRAPHS[gname], ("adaptive", "auto", batch, "auto"), {"audit": True})
    for gname in ("road12", "digraph", "disconnected"):
        for algorithm in ("sccooc", "tcspmm", "adaptive"):
            cells[f"edge_bc/{gname}/{algorithm}"] = (_edge_bc_cell, GRAPHS[gname], (algorithm,))
    for gname in ("road12", "digraph", "diamonds"):
        for algorithm in ("sccooc", "pullcsc", "adaptive"):
            for dtype in ("int32", "float64"):
                cells[f"bfs/{gname}/{algorithm}/{dtype}"] = (
                    _bfs_cell, GRAPHS[gname], (algorithm, dtype))
    cells["telemetry/diamonds/b1"] = (_telemetry_cell, GRAPHS["diamonds"], (1,))
    cells["telemetry/road12/b3"] = (_telemetry_cell, GRAPHS["road12"], (3,))
    for gname in ("disconnected", "digraph"):
        for kernel in KERNELS:
            for suffix in ("spmv", "spmv_scatter", "spmm", "spmm_scatter"):
                for dtype in ("int32", "float32", "float64"):
                    cells[f"kernel/{gname}/{kernel}_{suffix}/{dtype}"] = (
                        _kernel_cell, GRAPHS[gname], (kernel, suffix, dtype))
    return cells


_GRAPH_CACHE: dict = {}


def _digest(cid: str) -> str:
    fn, make, args, *kw = _cells()[cid]
    if make not in _GRAPH_CACHE:
        _GRAPH_CACHE[make] = make()
    return fn(_GRAPH_CACHE[make], *args, **(kw[0] if kw else {}))


def compute_all() -> dict[str, str]:
    return {cid: _digest(cid) for cid in _cells()}


def test_modeled_snapshot_unchanged():
    want = json.loads(SNAPSHOT.read_text())["cells"]
    assert sorted(want) == sorted(_cells()), "cell grid differs from the snapshot"
    changed = [cid for cid in want if _digest(cid) != want[cid]]
    assert not changed, (
        f"{len(changed)} modeled snapshot cell(s) changed: {changed[:20]}")


def main(argv) -> int:
    if argv != ["--bless"]:
        print(__doc__)
        return 2
    cells = compute_all()
    SNAPSHOT.write_text(json.dumps({"cells": cells}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {SNAPSHOT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
