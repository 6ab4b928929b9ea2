"""Batched (SpMM) driver: parity with the sequential driver, overflow
re-runs, auto batch sizing, memory admission and source validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bc import turbo_bc
from repro.core.forward import SigmaOverflowError
from repro.core.multigpu import multi_gpu_bc
from repro.core.approx import approximate_bc
from repro.core.validate import resolve_sources
from repro.graphs.graph import Graph
from repro.gpusim.device import Device, DeviceSpec
from repro.gpusim.errors import DeviceOutOfMemoryError
from repro.perf.memory_model import turbobc_batched_footprint_words

from tests.conftest import assert_bc_close, random_graph

BATCHES = (2, 8, 32)


class TestBatchedParity:
    """batch_size=B must reproduce the sequential driver within 1e-9 (the
    kernels are in fact bit-exact; the tests assert the documented bound)."""

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("algorithm", ("sccooc", "sccsc", "veccsc"))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_matches_sequential(self, directed, algorithm, batch):
        g = random_graph(60, 0.05, directed=directed, seed=7)
        seq = turbo_bc(g, algorithm=algorithm)
        bat = turbo_bc(g, algorithm=algorithm, batch_size=batch)
        assert_bc_close(bat.bc, seq.bc)
        assert bat.stats.depth_per_source == seq.stats.depth_per_source
        assert bat.stats.batch_size == min(batch, g.n)

    def test_batch_not_dividing_source_count(self):
        g = random_graph(50, 0.06, directed=True, seed=3)
        srcs = list(range(0, 50, 2))  # 25 sources, B = 8 -> chunks 8,8,8,1
        seq = turbo_bc(g, sources=srcs)
        bat = turbo_bc(g, sources=srcs, batch_size=8)
        assert_bc_close(bat.bc, seq.bc)

    @pytest.mark.parametrize("algorithm", ("sccsc", "adaptive"))
    def test_width_is_a_run_property(self, algorithm):
        """The run's B, not a chunk's width, picks the pipeline: the width-1
        tail chunk of 9 sources at B = 8 still launches SpMM products, and a
        B = 1 run launches only SpMV ones."""
        g = random_graph(50, 0.06, directed=True, seed=3)
        device = Device()
        res = turbo_bc(g, sources=range(9), algorithm=algorithm, device=device,
                       batch_size=8)
        assert res.stats.batch_size == 8
        names = [launch.stats.name for launch in device.profiler.launches]
        folds = [i for i, name in enumerate(names) if name == "bc_update"]
        assert len(folds) == 2  # one fold per chunk: 8 lanes, then 1
        tail = [name for name in names[folds[0] + 1:] if "_spm" in name]
        assert tail and all("_spmm" in name for name in tail), tail

        device = Device()
        turbo_bc(g, sources=range(9), algorithm=algorithm, device=device, batch_size=1)
        products = [launch.stats.name for launch in device.profiler.launches
                    if "_spm" in launch.stats.name]
        assert products and all("_spmv" in name for name in products), products

    @pytest.mark.parametrize("name,n_sources", [
        ("mycielskian15", 6),   # undirected, veccsc-classified
        ("mark3jac060sc", 6),   # directed, sccsc-classified
    ])
    def test_suite_graphs(self, name, n_sources):
        from repro.graphs import suite

        g = suite.get(name).build()
        srcs = list(range(n_sources))
        seq = turbo_bc(g, sources=srcs)
        for batch in (2, 4):
            bat = turbo_bc(g, sources=srcs, batch_size=batch)
            assert_bc_close(bat.bc, seq.bc)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        directed=st.booleans(),
        batch=st.integers(2, 16),
    )
    def test_property_random_graphs(self, seed, directed, batch):
        g = random_graph(30, 0.1, directed=directed, seed=seed)
        seq = turbo_bc(g, algorithm="sccsc")
        bat = turbo_bc(g, algorithm="sccsc", batch_size=batch)
        assert_bc_close(bat.bc, seq.bc)

    def test_keep_forward_last_source(self):
        g = random_graph(40, 0.08, directed=True, seed=5)
        srcs = [3, 9, 17, 25, 33]
        seq = turbo_bc(g, sources=srcs, keep_forward=True)
        bat = turbo_bc(g, sources=srcs, batch_size=2, keep_forward=True)
        assert bat.forward is not None
        assert bat.forward.source == srcs[-1]
        np.testing.assert_array_equal(bat.forward.sigma, seq.forward.sigma)
        np.testing.assert_array_equal(bat.forward.levels, seq.forward.levels)


class TestBatchedBitIdentity:
    """The SpMM path is *bit-identical* (np.array_equal, not allclose) to B
    independent single-source runs accumulated in source order.  Both sides
    run the backward stage in float64 so accumulation order is the only
    possible source of drift -- and the masked SpMM lanes perform exactly
    the per-source arithmetic, so there is none."""

    @pytest.mark.parametrize("seed", range(50))
    def test_fifty_seeded_random_graphs(self, seed):
        algorithm = ("sccooc", "sccsc", "veccsc")[seed % 3]
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 28))
        g = random_graph(n, 0.12, directed=bool(seed % 2), seed=seed + 1000)
        k = int(rng.integers(2, 7))
        srcs = sorted(rng.choice(n, size=k, replace=False).tolist())
        batch = len(srcs) if seed % 5 else "auto"
        bat = turbo_bc(g, sources=srcs, algorithm=algorithm, batch_size=batch,
                       backward_dtype=np.float64)
        lanes = np.zeros(g.n)
        for s in srcs:
            lanes += turbo_bc(g, sources=[s], algorithm=algorithm,
                              backward_dtype=np.float64).bc
        np.testing.assert_array_equal(bat.bc, lanes)

    def test_lane_identity_survives_partial_batches(self):
        # 7 sources through B=3: chunks of 3, 3, 1.
        g = random_graph(24, 0.1, directed=True, seed=77)
        srcs = [0, 3, 5, 9, 14, 18, 23]
        bat = turbo_bc(g, sources=srcs, batch_size=3,
                       backward_dtype=np.float64)
        lanes = np.zeros(g.n)
        for s in srcs:
            lanes += turbo_bc(g, sources=[s], backward_dtype=np.float64).bc
        np.testing.assert_array_equal(bat.bc, lanes)

    def test_segment_sums_follow_bincount_order(self):
        """Regression: the batched segment sum must round exactly like the
        sequential ``np.bincount`` accumulation.  ``np.add.reduceat`` does
        not (its float64 loop goes pairwise past a few entries), which once
        made SpMM lanes drift ULPs from SpMV on columns of degree >= ~7."""
        from repro.formats.csc import CSCMatrix
        from repro.spmv._spmm import gather_spmm_values

        rng = np.random.default_rng(3)
        seg_ptr = np.array([0, 1, 1, 9, 40, 40, 73])
        vals = rng.uniform(0.1, 3.0, size=(seg_ptr[-1], 4))
        # entry k of the segments is row k, so the gather sums ``vals`` rows
        segments = CSCMatrix(seg_ptr, np.arange(seg_ptr[-1]),
                             (seg_ptr[-1], seg_ptr.size - 1))
        sums = gather_spmm_values(segments, vals)
        seg_of_entry = np.repeat(np.arange(seg_ptr.size - 1), np.diff(seg_ptr))
        for j in range(vals.shape[1]):
            want = np.bincount(seg_of_entry, weights=vals[:, j],
                               minlength=seg_ptr.size - 1)
            np.testing.assert_array_equal(sums[:, j], want)

    def test_batched_float32_matches_sequential_float32(self):
        """At the default float32 backward dtype the batched driver is still
        bit-identical to the sequential driver (same device accumulation
        order), even though both differ from a float64 host sum."""
        for seed in (0, 1, 2):
            g = random_graph(30, 0.1, directed=bool(seed % 2), seed=seed)
            seq = turbo_bc(g, algorithm="sccsc")
            bat = turbo_bc(g, algorithm="sccsc", batch_size=8)
            np.testing.assert_array_equal(bat.bc, seq.bc)


def _hub_matrix():
    """700 x 600 CSC with hub segments of degree >= 500 and >= 7 in both
    directions (columns for the gather, rows for the scatter) plus empty
    columns and rows."""
    from scipy.sparse import csc_array

    from repro.formats.csc import CSCMatrix

    rng = np.random.default_rng(14)
    dense = rng.random((700, 600)) < 0.01
    dense[:650, 0] = True        # hub column, degree 650
    dense[:9, 1] = True          # degree >= 9
    dense[:, 2:4] = False        # empty columns
    dense[5, 4:] = True          # hub row, degree ~600
    dense[6, 4:14] = True        # degree >= 10
    dense[690:, :] = False       # empty rows
    return CSCMatrix.from_scipy(csc_array(dense))


def _spmm_input(n: int, B: int, dtype, rng) -> np.ndarray:
    """Frontier values spanning ~80 binades, so float64 sums round and their
    order matters; int32 values are large enough that hub sums wrap."""
    if np.dtype(dtype).kind == "f":
        X = (rng.uniform(0.1, 3.0, (n, B))
             * 2.0 ** rng.integers(-40, 40, (n, B))).astype(dtype)
    else:
        X = rng.integers(2**30, 2**31 - 1, (n, B), dtype=np.int32)
    X[rng.random(n) < 0.3] = 0   # all-zero frontier rows
    return X


def _per_lane(reduce, seg_ptr, vals, n_segments) -> np.ndarray:
    """Apply a 1-D segment reduction to each lane of storage-ordered values."""
    out = np.zeros((n_segments, vals.shape[1]))
    for j in range(vals.shape[1]):
        out[:, j] = reduce(seg_ptr, np.ascontiguousarray(vals[:, j]), n_segments)
    return out


def _bincount(seg_ptr, v, n_segments):
    seg = np.repeat(np.arange(n_segments), np.diff(seg_ptr))
    return np.bincount(seg, weights=v, minlength=n_segments)


def _reduceat(seg_ptr, v, n_segments):
    out = np.zeros(n_segments)
    nonempty = np.flatnonzero(np.diff(seg_ptr))
    out[nonempty] = np.add.reduceat(v, seg_ptr[nonempty])
    return out


class TestSpmmEngineBitIdentity:
    """The compiled gather/scatter products equal a per-lane ``np.bincount``
    in storage order bit for bit (``.view(np.uint64)``), on inputs where
    ``np.add.reduceat`` provably rounds differently."""

    @pytest.mark.parametrize("dtype", (np.float64, np.float32, np.int32))
    @pytest.mark.parametrize("B", (1, 3, 8, 17))
    def test_gather_and_scatter_match_bincount(self, dtype, B):
        from repro.spmv._spmm import gather_spmm_values, scatter_spmm_values

        csc = _hub_matrix()
        assert csc.n_rows != csc.n_cols
        rng = np.random.default_rng(B)
        # gather: column segments over rows of X, in storage order
        X = _spmm_input(csc.n_rows, B, dtype, rng)
        vals = X[csc.row].astype(np.float64)
        want = _per_lane(_bincount, csc.col_ptr, vals, csc.n_cols)
        pairwise = _per_lane(_reduceat, csc.col_ptr, vals, csc.n_cols)
        allowed = rng.random((csc.n_cols, B)) < 0.7
        allowed[10:20] = False               # deselected segments
        masked = np.where(allowed, want, 0.0)
        # scatter: row segments over rows of Y, each in storage order
        Y = _spmm_input(csc.n_cols, B, dtype, rng)
        row_ptr, cols_in_row_order = csc.scatter_plan()
        svals = Y[cols_in_row_order].astype(np.float64)
        swant = _per_lane(_bincount, row_ptr, svals, csc.n_rows)
        spairwise = _per_lane(_reduceat, row_ptr, svals, csc.n_rows)
        if np.dtype(dtype).kind == "f":
            # the fixture is not vacuous: pairwise summation rounds differently
            assert (pairwise.view(np.uint64) != want.view(np.uint64)).any()
            assert (spairwise.view(np.uint64) != swant.view(np.uint64)).any()
        else:
            # hub sums leave int32, so the kernels' output cast wraps
            assert want.max() > np.iinfo(np.int32).max
            assert swant.max() > np.iinfo(np.int32).max

        for got, ref in ((gather_spmm_values(csc, X), want),
                         (gather_spmm_values(csc, X, allowed), masked),
                         (scatter_spmm_values(csc, Y), swant)):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("B", (1, 8))
    def test_wrapping_int32_lanes_match_spmv(self, B):
        from repro.spmv.sccsc import (
            sccsc_spmm, sccsc_spmm_scatter, sccsc_spmv, sccsc_spmv_scatter,
        )

        csc = _hub_matrix()
        rng = np.random.default_rng(7)
        device = Device()
        X = _spmm_input(csc.n_rows, B, np.int32, rng)
        Y = _spmm_input(csc.n_cols, B, np.int32, rng)
        got, _ = sccsc_spmm(device, csc, X)
        sgot, _ = sccsc_spmm_scatter(device, csc, Y)
        for j in range(B):
            np.testing.assert_array_equal(got[:, j], sccsc_spmv(device, csc, X[:, j])[0])
            np.testing.assert_array_equal(
                sgot[:, j], sccsc_spmv_scatter(device, csc, Y[:, j])[0])


class TestSpmmOperatorCache:
    """The compiled operators are per-matrix traversal plans: built once,
    zero-copy over the stored indices, and discarded with the matrix."""

    @pytest.mark.parametrize("fmt", ("to_csc", "to_cooc"))
    def test_built_once_and_zero_copy(self, fmt):
        g = random_graph(40, 0.1, directed=True, seed=11)
        mat = getattr(g, fmt)()
        ops = mat.spmm_operators()
        turbo_bc(g, sources=[0, 1, 2], batch_size=3,
                 algorithm="sccooc" if fmt == "to_cooc" else "sccsc")
        assert mat.spmm_operators() is ops
        col_ptr = mat.col_ptr if fmt == "to_csc" else mat.column_ptr()
        for op in ops:
            assert np.shares_memory(op.indices, mat.row)
            assert np.shares_memory(op.indptr, col_ptr)
        assert np.shares_memory(ops[0].data, ops[1].data)

    def test_edit_gets_fresh_operators_and_frees_old(self):
        import gc
        import weakref

        g = random_graph(40, 0.1, directed=True, seed=11)
        gather = g.to_csc().spmm_operators()[0]
        g2 = g.apply_edits(added=[(0, 39), (39, 0)])
        assert g2.to_csc().spmm_operators()[0] is not gather
        dead = weakref.ref(gather)
        del g, gather
        gc.collect()
        assert dead() is None

def overflow_graph() -> Graph:
    """40 chained diamonds: sigma from vertex 0 is 2^40, overflowing int32."""
    edges = []
    v = 0
    for _ in range(40):
        a, b, c = v + 1, v + 2, v + 3
        edges += [(v, a), (v, b), (a, c), (b, c)]
        v = c
    return Graph.from_edges(edges, v + 1, directed=True)


class TestBatchedOverflow:
    def test_reruns_only_overflowed_sources(self):
        from repro.baselines.brandes import brandes_bc

        g = overflow_graph()
        srcs = [0, 115, 118]  # 0 overflows int32; the late sources don't
        res = turbo_bc(g, sources=srcs, batch_size=3)
        assert res.stats.rerun_sources == [0]
        assert res.stats.batch_size == 3
        assert_bc_close(res.bc, brandes_bc(g, sources=srcs), rtol=1e-6, atol=1e-6)

    def test_rerun_matches_sequential_auto(self):
        g = overflow_graph()
        srcs = [0, 115, 118]
        bat = turbo_bc(g, sources=srcs, batch_size=3)
        seq = turbo_bc(g, sources=srcs)
        assert_bc_close(bat.bc, seq.bc)
        assert bat.stats.depth_per_source == seq.stats.depth_per_source

    def test_explicit_int_dtype_raises(self):
        g = overflow_graph()
        with pytest.raises(SigmaOverflowError):
            turbo_bc(g, sources=[0, 115], batch_size=2, forward_dtype=np.int32)

    def test_device_clean_after_rerun(self):
        device = Device()
        turbo_bc(overflow_graph(), sources=[0, 115], batch_size=2, device=device)
        assert device.memory.used_bytes == 0


class TestAutoBatchAndMemory:
    def test_auto_batch_runs_and_matches(self, small_directed):
        res = turbo_bc(small_directed, batch_size="auto")
        seq = turbo_bc(small_directed)
        assert res.stats.batch_size >= 1
        assert_bc_close(res.bc, seq.bc)

    def test_auto_batch_caps_at_64(self, small_undirected):
        # plenty of memory for this tiny graph -> the cap binds
        res = turbo_bc(small_undirected, batch_size="auto")
        assert res.stats.batch_size <= 64

    def test_auto_batch_shrinks_on_small_device(self):
        g = random_graph(200, 0.03, directed=True, seed=9)
        big = turbo_bc(g, batch_size="auto").stats.batch_size
        # a device barely larger than the B=2 footprint forces a small batch
        words = turbobc_batched_footprint_words(g.n, g.m, 3)
        small_dev = Device(DeviceSpec(name="tiny", global_memory_bytes=words * 4))
        small = turbo_bc(g, batch_size="auto", device=small_dev).stats.batch_size
        assert small < big
        assert small >= 1

    def test_oversized_explicit_batch_rejected(self):
        g = random_graph(200, 0.03, directed=True, seed=9)
        words = turbobc_batched_footprint_words(g.n, g.m, 2)
        tiny = Device(DeviceSpec(name="tiny", global_memory_bytes=words * 4))
        with pytest.raises(DeviceOutOfMemoryError):
            turbo_bc(g, batch_size=64, device=tiny)

    def test_peak_memory_matches_footprint_model(self):
        g = random_graph(300, 0.02, directed=True, seed=4)
        batch = 8
        device = Device()
        turbo_bc(g, batch_size=batch, device=device, algorithm="sccsc",
                 forward_dtype=np.int32)
        expected = turbobc_batched_footprint_words(g.n, g.m, batch, "csc") * 4
        assert device.memory.peak_bytes == expected

    def test_batch_size_one_keeps_sequential_footprint(self):
        from repro.perf.memory_model import turbobc_footprint_words

        assert turbobc_batched_footprint_words(5, 7, 1, "csc") == (
            turbobc_footprint_words(5, 7, "csc")
        )
        assert turbobc_batched_footprint_words(5, 7, 1, "cooc") == (
            turbobc_footprint_words(5, 7, "cooc")
        )


class TestSourceValidation:
    def test_out_of_range_rejected(self, small_directed):
        with pytest.raises(ValueError, match="out of range"):
            turbo_bc(small_directed, sources=[0, 40])
        with pytest.raises(ValueError, match="out of range"):
            turbo_bc(small_directed, sources=-1)

    def test_duplicates_rejected(self, small_directed):
        with pytest.raises(ValueError, match="duplicate"):
            turbo_bc(small_directed, sources=[1, 2, 1])

    def test_resolve_sources_helper(self, small_directed):
        assert resolve_sources(small_directed, None) == list(range(40))
        assert resolve_sources(small_directed, 5) == [5]
        assert resolve_sources(small_directed, [3, 1]) == [3, 1]

    def test_bad_batch_size_rejected(self, small_directed):
        with pytest.raises(ValueError, match="batch_size"):
            turbo_bc(small_directed, batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            turbo_bc(small_directed, batch_size="huge")


class TestBatchedWiring:
    def test_approximate_bc_batched(self):
        g = random_graph(60, 0.06, directed=False, seed=8)
        seq = approximate_bc(g, 16, seed=1)
        bat = approximate_bc(g, 16, seed=1, batch_size=8)
        assert_bc_close(bat.bc, seq.bc)

    def test_multi_gpu_batched(self):
        # batch_size sets the task granularity, i.e. how many sources share
        # one float32 device accumulator before the host's float64 fold --
        # so different batches agree to accumulation order (same tolerance
        # as multi-device vs single-device); bit-identity is only promised
        # across device counts/schedulers at a fixed batch (test_multigpu).
        g = random_graph(60, 0.06, directed=True, seed=8)
        seq, _ = multi_gpu_bc(g, n_devices=2)
        bat, _ = multi_gpu_bc(g, n_devices=2, batch_size=8)
        assert_bc_close(bat.bc, seq.bc, rtol=1e-6, atol=1e-6)

    def test_cli_batch_size(self, tmp_path, capsys):
        from repro.cli import main

        g = random_graph(30, 0.1, directed=False, seed=2)
        path = tmp_path / "g.el"
        with open(path, "w") as fh:
            for u, v in zip(g.src, g.dst):
                fh.write(f"{u} {v}\n")
        assert main(["bc", str(path), "--batch-size", "8", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "batch=8" in out
