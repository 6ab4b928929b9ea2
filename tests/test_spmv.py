"""SpMV kernel tests: every kernel against the reference oracle."""

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.gpusim.device import Device
from repro.spmv import (
    reference_spmv,
    reference_spmv_scatter,
    sccooc_spmv,
    sccooc_spmv_scatter,
    sccsc_spmv,
    sccsc_spmv_scatter,
    veccsc_spmv,
    veccsc_spmv_scatter,
)
from tests.conftest import random_graph

GATHER_KERNELS = {
    "sccooc": lambda dev, g, x, **kw: sccooc_spmv(dev, g.to_cooc(), x, **kw),
    "sccsc": lambda dev, g, x, **kw: sccsc_spmv(dev, g.to_csc(), x, **kw),
    "veccsc": lambda dev, g, x, **kw: veccsc_spmv(dev, g.to_csc(), x, **kw),
}
SCATTER_KERNELS = {
    "sccooc": lambda dev, g, x, **kw: sccooc_spmv_scatter(dev, g.to_cooc(), x, **kw),
    "sccsc": lambda dev, g, x, **kw: sccsc_spmv_scatter(dev, g.to_csc(), x, **kw),
    "veccsc": lambda dev, g, x, **kw: veccsc_spmv_scatter(dev, g.to_csc(), x, **kw),
}


@pytest.fixture
def graph():
    return random_graph(120, 0.04, directed=True, seed=11)


@pytest.fixture
def x_int(graph, rng):
    return rng.integers(0, 4, graph.n).astype(np.int32)


@pytest.fixture
def x_float(graph, rng):
    return (rng.random(graph.n) * (rng.random(graph.n) < 0.5)).astype(np.float32)


class TestGatherKernels:
    @pytest.mark.parametrize("name", GATHER_KERNELS)
    def test_matches_reference_int(self, name, graph, x_int, device):
        y, _ = GATHER_KERNELS[name](device, graph, x_int)
        np.testing.assert_array_equal(y, reference_spmv(graph.to_csc(), x_int))

    @pytest.mark.parametrize("name", GATHER_KERNELS)
    def test_matches_reference_float(self, name, graph, x_float, device):
        y, _ = GATHER_KERNELS[name](device, graph, x_float)
        np.testing.assert_allclose(
            y, reference_spmv(graph.to_csc(), x_float.astype(np.float64)), rtol=1e-6
        )

    @pytest.mark.parametrize("name", GATHER_KERNELS)
    def test_zero_vector(self, name, graph, device):
        x = np.zeros(graph.n, dtype=np.int32)
        y, _ = GATHER_KERNELS[name](device, graph, x)
        assert not y.any()

    @pytest.mark.parametrize("name", GATHER_KERNELS)
    def test_rejects_wrong_shape(self, name, graph, device):
        with pytest.raises(ValueError, match="shape"):
            GATHER_KERNELS[name](device, graph, np.zeros(graph.n + 1, dtype=np.int32))

    @pytest.mark.parametrize("name", ["sccsc", "veccsc"])
    def test_mask_zeroes_disallowed_columns(self, name, graph, x_int, device, rng):
        allowed = rng.random(graph.n) < 0.4
        y, _ = GATHER_KERNELS[name](device, graph, x_int, allowed=allowed)
        full = reference_spmv(graph.to_csc(), x_int)
        np.testing.assert_array_equal(y, np.where(allowed, full, 0))

    @pytest.mark.parametrize("name", ["sccsc", "veccsc"])
    def test_mask_must_be_bool(self, name, graph, x_int, device):
        with pytest.raises(ValueError, match="boolean"):
            GATHER_KERNELS[name](device, graph, x_int, allowed=np.ones(graph.n))

    @pytest.mark.parametrize("name", GATHER_KERNELS)
    def test_out_dtype_override(self, name, graph, x_int, device):
        y, _ = GATHER_KERNELS[name](device, graph, x_int, out_dtype=np.float32)
        assert y.dtype == np.float32


class TestScatterKernels:
    @pytest.mark.parametrize("name", SCATTER_KERNELS)
    def test_matches_reference(self, name, graph, x_int, device):
        y, _ = SCATTER_KERNELS[name](device, graph, x_int)
        np.testing.assert_array_equal(y, reference_spmv_scatter(graph.to_csc(), x_int))

    @pytest.mark.parametrize("name", SCATTER_KERNELS)
    def test_scatter_is_gather_of_transpose(self, name, graph, x_int, device):
        y, _ = SCATTER_KERNELS[name](device, graph, x_int)
        yt = reference_spmv(graph.reverse().to_csc(), x_int)
        np.testing.assert_array_equal(y, yt)

    @pytest.mark.parametrize("name", SCATTER_KERNELS)
    def test_rejects_wrong_shape(self, name, graph, device):
        with pytest.raises(ValueError, match="shape"):
            SCATTER_KERNELS[name](device, graph, np.zeros(graph.n - 1, dtype=np.int32))


class TestKernelStats:
    def test_launch_recorded(self, graph, x_int):
        dev = Device()
        _, launch = sccsc_spmv(dev, graph.to_csc(), x_int)
        assert dev.profiler.total_launches() == 1
        assert launch.stats.name == "sccsc_spmv"

    def test_sccooc_threads_equal_edges(self, graph, x_int, device):
        _, launch = sccooc_spmv(device, graph.to_cooc(), x_int)
        assert launch.stats.threads == graph.m

    def test_sccsc_threads_equal_vertices(self, graph, x_int, device):
        _, launch = sccsc_spmv(device, graph.to_csc(), x_int)
        assert launch.stats.threads == graph.n

    def test_veccsc_threads_are_warp_per_column(self, graph, x_int, device):
        _, launch = veccsc_spmv(device, graph.to_csc(), x_int)
        assert launch.stats.threads == 32 * graph.n

    def test_mask_reduces_work(self, graph, x_int, device):
        _, full = sccsc_spmv(device, graph.to_csc(), x_int)
        allowed = np.zeros(graph.n, dtype=bool)
        _, masked = sccsc_spmv(device, graph.to_csc(), x_int, allowed=allowed)
        assert masked.stats.dram_bytes < full.stats.dram_bytes
        assert masked.stats.warp_cycles < full.stats.warp_cycles

    def test_divergence_hurts_sccsc_not_veccsc(self, device, rng):
        """A degree-skewed graph must cost scCSC more warp cycles per edge
        than veCSC -- the paper's central kernel-selection argument."""
        # one high-degree column per warp of otherwise tiny columns: each
        # scCSC warp stalls on its hub lane while veCSC streams them.
        n = 2048
        hubs = np.arange(0, n, 32)
        hub_src = np.concatenate([rng.choice(n, 900, replace=False) for _ in hubs])
        hub_dst = np.repeat(hubs, 900)
        chain = np.arange(n - 1)
        src = np.concatenate([hub_src, chain])
        dst = np.concatenate([hub_dst, chain + 1])
        from repro.graphs.graph import Graph

        g = Graph(src, dst, n, directed=True)
        x = np.ones(n, dtype=np.int32)
        _, sc = sccsc_spmv(device, g.to_csc(), x)
        _, ve = veccsc_spmv(device, g.to_csc(), x)
        assert sc.stats.warp_cycles > 2 * ve.stats.warp_cycles

    def test_empty_graph_kernels(self, device):
        from repro.graphs.graph import Graph

        g = Graph([], [], 8, directed=True)
        x = np.ones(8, dtype=np.int32)
        for name, k in {**GATHER_KERNELS, **SCATTER_KERNELS}.items():
            y, _ = k(device, g, x)
            assert not y.any(), name


# -- one numeric engine for SpMV and SpMM ------------------------------------


def _hub_csc():
    """700 x 600 CSC with a hub column and a hub row of degree >= 500, plus
    empty columns and empty rows."""
    from scipy.sparse import csc_array

    from repro.formats.csc import CSCMatrix

    rng = np.random.default_rng(15)
    dense = rng.random((700, 600)) < 0.01
    dense[:650, 0] = True        # hub column, degree 650
    dense[:, 2:4] = False        # empty columns
    dense[5, 4:] = True          # hub row, degree ~600
    dense[690:, :] = False       # empty rows
    return CSCMatrix.from_scipy(csc_array(dense))


def _engine_input(n: int, dtype, rng) -> np.ndarray:
    """Values spanning ~80 binades (float sums round, so order matters) with
    some negatives; int32 values large enough that hub sums wrap."""
    if np.dtype(dtype).kind == "f":
        x = (rng.uniform(0.1, 3.0, n) * 2.0 ** rng.integers(-40, 40, n)).astype(dtype)
        x[rng.random(n) < 0.1] *= -1
    else:
        x = rng.integers(2**30, 2**31 - 1, n, dtype=np.int32)
    x[rng.random(n) < 0.3] = 0
    return x


def _bincount_gather(csc, x, allowed):
    """The per-source gather formula the kernels used before the shared
    engine: a fancy-indexed ``bincount`` over the allowed columns."""
    col_of_nnz = csc.column_of_nnz()
    sel = allowed[col_of_nnz]
    sums = np.bincount(col_of_nnz[sel], weights=x[csc.row[sel]], minlength=csc.n_cols)
    y = np.zeros(csc.n_cols, dtype=x.dtype)
    written = sums > 0
    with np.errstate(invalid="ignore"):
        y[written] = sums[written].astype(x.dtype, copy=False)
    return y


def _bincount_positive(src_idx, dst_idx, x, n_out):
    """The former scatter / scCOOC formula: positive sources only."""
    vals = x[src_idx]
    active = vals > 0
    y = np.zeros(n_out, dtype=x.dtype)
    if active.any():
        acc = np.bincount(dst_idx[active], weights=vals[active], minlength=n_out)
        with np.errstate(invalid="ignore"):
            y[:] = acc.astype(x.dtype, copy=False)
    return y


def _max_chain(idx) -> int:
    return int(np.bincount(idx, minlength=1).max()) if idx.size else 0


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64 if a.itemsize == 8 else np.uint32)


ENGINE_KERNELS = ("sccsc", "veccsc", "edgecsc", "pullcsc", "tcspmm")
ENGINE_DTYPES = (np.float64, np.float32, np.int32)


class TestSpmvEngineBitIdentity:
    """Every B = 1 entry point equals the former ``bincount`` formula bit for
    bit, and the stats counts now taken from the compiled operators equal
    the former fancy-index counts."""

    @pytest.mark.parametrize("masked", (False, True))
    @pytest.mark.parametrize("dtype", ENGINE_DTYPES)
    @pytest.mark.parametrize("name", ENGINE_KERNELS)
    def test_gather(self, name, dtype, masked):
        import repro.spmv as S

        csc = _hub_csc()
        rng = np.random.default_rng(3)
        x = _engine_input(csc.n_rows, dtype, rng)
        allowed = rng.random(csc.n_cols) < 0.6 if masked else None
        allowed_all = allowed if masked else np.ones(csc.n_cols, dtype=bool)
        want = _bincount_gather(csc, x, allowed_all)
        if dtype is np.int32:
            assert want.min() < 0  # the hub sum wrapped
        y, launch = getattr(S, f"{name}_spmv")(Device(), csc, x, allowed=allowed)
        assert y.dtype == want.dtype
        np.testing.assert_array_equal(_bits(y), _bits(want))
        if name in ("tcspmm", "pullcsc"):
            sel = allowed_all[csc.column_of_nnz()]
            assert launch.stats.flops == int(np.count_nonzero(x[csc.row[sel]] > 0))

    @pytest.mark.parametrize("dtype", ENGINE_DTYPES)
    @pytest.mark.parametrize("name", ENGINE_KERNELS)
    def test_scatter(self, name, dtype):
        import repro.spmv as S
        from repro.gpusim import warp as W

        csc = _hub_csc()
        x = _engine_input(csc.n_cols, dtype, np.random.default_rng(4))
        col_of_nnz = csc.column_of_nnz()
        want = _bincount_positive(col_of_nnz, csc.row, x, csc.n_rows)
        y, launch = getattr(S, f"{name}_spmv_scatter")(Device(), csc, x)
        assert y.dtype == want.dtype
        np.testing.assert_array_equal(_bits(y), _bits(want))
        rows_sel = csc.row[(x > 0)[col_of_nnz]]
        stats = launch.stats
        if name in ("sccsc", "veccsc"):
            assert stats.serial_updates == _max_chain(rows_sel)
        elif name == "edgecsc":
            assert stats.serial_updates == (
                _max_chain(rows_sel) * W.dtype_cycle_factor(x.dtype))
        else:
            assert stats.flops == rows_sel.size

    @pytest.mark.parametrize("scatter", (False, True))
    @pytest.mark.parametrize("dtype", ENGINE_DTYPES)
    def test_sccooc(self, dtype, scatter):
        from repro.formats.convert import csc_to_cooc
        from repro.gpusim import warp as W

        cooc = csc_to_cooc(_hub_csc())
        if scatter:
            src, dst, n_in, n_out = cooc.col, cooc.row, cooc.n_cols, cooc.n_rows
            kernel = sccooc_spmv_scatter
        else:
            src, dst, n_in, n_out = cooc.row, cooc.col, cooc.n_rows, cooc.n_cols
            kernel = sccooc_spmv
        x = _engine_input(n_in, dtype, np.random.default_rng(5))
        want = _bincount_positive(src, dst, x, n_out)
        y, launch = kernel(Device(), cooc, x)
        np.testing.assert_array_equal(_bits(y), _bits(want))
        assert launch.stats.serial_updates == (
            _max_chain(dst[x[src] > 0]) * W.dtype_cycle_factor(x.dtype))


class TestActiveTileMemo:
    """The active-tile reduction is shared by the dispatcher's estimate and
    the ``tcspmm`` launch through a one-entry memo on the matrix."""

    @staticmethod
    def _from_scratch(csc, row_ok, col_ok):
        t_row, t_col, t_cnt = csc.tile_plan(16)
        active = col_ok[t_col] & row_ok[t_row]
        if not active.any():
            return (0, 0, 0, 0, 0)
        return (int(active.sum()), int(t_cnt[active].sum()), int(t_cnt[active].max()),
                int(np.bincount(t_col[active]).max()),
                int(np.bincount(t_row[active]).max()))

    def test_matches_fresh_reduction_as_masks_change(self):
        from repro.spmv.tcspmm import active_tile_stats, stripe_any

        csc = random_graph(200, 0.03, directed=True, seed=8).to_csc()
        rng = np.random.default_rng(8)
        rows = [rng.random(200) < p for p in (0.04, 0.04, 0.3, 0.0)]
        cols = [rng.random(200) < q for q in (0.04, 0.04, 0.3, 1.0)]
        # each step changes the row mask, the column mask, both, or neither
        masks = [(rows[0], cols[0]), (rows[0], cols[1]), (rows[1], cols[1]),
                 (rows[0], cols[0]), (rows[0], cols[0]), (rows[2], cols[2]),
                 (rows[3], cols[3])]
        seen = []
        for r, c in masks:
            row_ok, col_ok = stripe_any(r), stripe_any(c)
            got = active_tile_stats(csc, row_ok, col_ok)
            assert got == self._from_scratch(csc, row_ok, col_ok)
            assert active_tile_stats(csc, row_ok, col_ok) == got   # memo hit
            assert csc._active_tile_memo[1] == got
            seen.append(got)
        # the fixture is not vacuous: single-mask changes change the answer
        assert seen[0] != seen[1] != seen[2]

    def test_matches_compaction_on_random_stripe_bitmaps(self):
        """The index-list reduction against the boolean-compaction form, on
        bitmaps drawn per stripe (all-false and all-true included) and on an
        empty directory."""
        from repro.spmv.tcspmm import active_tile_stats

        rng = np.random.default_rng(12)
        graphs = [random_graph(300, 0.02, directed=True, seed=12),
                  random_graph(150, 0.05, directed=False, seed=13),
                  Graph(np.zeros(0, np.int64), np.zeros(0, np.int64), 40, directed=True)]
        for g in graphs:
            csc = g.to_csc()
            shape = (-(-csc.n_rows // 16), -(-csc.n_cols // 16))
            draws = [(np.zeros(shape[0], bool), np.zeros(shape[1], bool)),
                     (np.ones(shape[0], bool), np.ones(shape[1], bool)),
                     (np.ones(shape[0], bool), np.zeros(shape[1], bool))]
            draws += [(rng.random(shape[0]) < p, rng.random(shape[1]) < q)
                      for p, q in ((0.1, 0.9), (0.5, 0.5), (0.9, 0.2), (1.0, 0.3))]
            for row_ok, col_ok in draws:
                csc._active_tile_memo = None
                got = active_tile_stats(csc, row_ok, col_ok)
                assert got == self._from_scratch(csc, row_ok, col_ok)
                assert all(type(v) is int for v in got)

    def test_edited_matrix_never_sees_the_old_entry(self):
        from repro.spmv.tcspmm import active_tile_stats

        g = random_graph(64, 0.02, directed=True, seed=9)
        csc = g.to_csc()
        row_ok = np.ones(4, dtype=bool)
        col_ok = np.ones(4, dtype=bool)
        old = active_tile_stats(csc, row_ok, col_ok)
        # a dense new block in tile (3, 3) changes every statistic
        block = [(r, c) for r in range(48, 64) for c in range(48, 64) if r != c]
        g2 = g.apply_edits(added=block)
        csc2 = g2.to_csc()
        assert csc2 is not csc and csc2._active_tile_memo is None
        new = active_tile_stats(csc2, row_ok, col_ok)
        assert new != old
        assert new == self._from_scratch(csc2, row_ok, col_ok)
        assert active_tile_stats(csc, row_ok, col_ok) == old

    def test_audit_dispatch_runs_stay_bit_identical(self):
        from repro.core.bc import turbo_bc
        from repro.graphs.generators.road import road_network_graph
        from repro.obs import telemetry as obs

        g = road_network_graph(12, 12, segments=2, keep_prob=0.8, seed=2)
        runs = []
        for audit in (False, True):
            with obs.session(audit_dispatch=audit) as tel:
                res = turbo_bc(g, sources=[0, 7], algorithm="adaptive",
                               device=Device())
            runs.append((res, tel.dispatch_decisions))
        (plain, plain_dec), (audited, audit_dec) = runs
        assert any(d.kernel == "tcspmm" for d in plain_dec)
        assert plain.bc.tobytes() == audited.bc.tobytes()
        assert plain.stats.gpu_time_s == audited.stats.gpu_time_s
        assert plain.stats.kernel_launches == audited.stats.kernel_launches
        assert [d.est_us for d in plain_dec] == [d.est_us for d in audit_dec]
        for p, a in zip(plain_dec, audit_dec):
            assert p.measured_us[p.kernel] == a.measured_us[a.kernel]


def test_only_the_engine_sums_with_bincount_weights():
    """One numeric engine: no kernel module accumulates values with a
    weighted ``np.bincount`` of its own (counting bincounts are fine)."""
    import ast
    from pathlib import Path

    import repro.spmv

    allowed = {"_spmm.py", "reference.py"}
    offenders = []
    for path in sorted(Path(repro.spmv.__file__).parent.glob("*.py")):
        if path.name in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "bincount"
                    and (len(node.args) > 1
                         or any(k.arg == "weights" for k in node.keywords))):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_entry_points_are_numerics_cost_launch():
    """Every one of the 24 entry points is three calls: the shared numerics
    step, its kernel's cost function, ``device.launch``; no kernel module
    validates, multiplies for ``y`` or casts on its own."""
    import ast
    import inspect

    import repro.spmv as S

    for kernel in ("sccooc", "sccsc", "veccsc", "edgecsc", "pullcsc", "tcspmm"):
        module = getattr(S, kernel)
        source = inspect.getsource(module)
        for name in ("cast_like_spmv", "raw_cast", "astype(out_dtype"):
            assert name not in source, (kernel, name)
        for suffix in ("spmv", "spmv_scatter", "spmm", "spmm_scatter"):
            fn = getattr(module, f"{kernel}_{suffix}")
            body = ast.parse(inspect.getsource(fn)).body[0].body[1:]  # skip docstring
            assert len(body) == 2, fn.__name__
            step, ret = body
            assert ast.unparse(step.value.func) == "M.product", fn.__name__
            assert isinstance(ret, ast.Return), fn.__name__
            launch = ret.value.elts[1]
            assert ast.unparse(launch.func) == "device.launch", fn.__name__
            assert ast.unparse(launch.args[0].func).startswith("_"), fn.__name__


class TestLaneReductions:
    """``lane_any``/``lane_count`` read an ``(n, B)`` bool mask as words and
    must equal the short-axis ``any``/``sum`` they replace."""

    @staticmethod
    def _masks(B, rng):
        n = 37
        yield np.zeros((n, B), dtype=bool)
        yield np.ones((n, B), dtype=bool)
        for p in (0.05, 0.5, 0.95):
            yield rng.random((n, B)) < p
        wide = rng.random((n, B + 5)) < 0.5
        yield wide[:, 2 : 2 + B]                    # column slice
        yield rng.standard_normal((B, n)).T > 0     # transposed comparison
        yield (rng.random((2 * n, B)) < 0.5)[::2]   # row-strided view
        yield np.zeros((0, B), dtype=bool)

    @pytest.mark.parametrize("B", (1, 2, 7, 8, 9, 16, 63, 64))
    def test_match_short_axis_reductions(self, B):
        from repro.spmv._spmm import lane_any, lane_count

        rng = np.random.default_rng(B)
        for mask in self._masks(B, rng):
            before = mask.copy()
            any_ = lane_any(mask)
            count = lane_count(mask)
            assert any_.dtype == bool and count.dtype == np.int64
            np.testing.assert_array_equal(any_, mask.any(axis=1))
            np.testing.assert_array_equal(count, mask.sum(axis=1))
            np.testing.assert_array_equal(mask, before)   # input untouched

    @pytest.mark.parametrize("out_dtype", (np.int32, np.int64, np.float32, np.float64))
    @pytest.mark.parametrize("positive_only", (True, False))
    def test_cast_matches_masked_assignment(self, out_dtype, positive_only):
        """The explicit rule: a float dtype takes the rounded value; an
        integer dtype the truncation where it fits, ``iinfo.min`` for NaN
        and for every value whose truncation does not fit."""
        from repro.spmv._spmm import cast_like_spmv

        rng = np.random.default_rng(3)
        sums = rng.standard_normal((50, 9)) * 1e3
        sums.flat[:14] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 2.0**31, 4.83e9, -3e9,
                          1e300, 2.0**31 - 0.5, -(2.0**31) - 0.5, 2.0**63, -(2.0**63),
                          2.0**62]
        want = np.zeros(sums.shape, dtype=out_dtype)
        keep = sums > 0 if positive_only else np.ones(sums.shape, dtype=bool)
        if np.dtype(out_dtype).kind == "i":
            info = np.iinfo(out_dtype)
            # -2^(bits-1) <= trunc(v) < 2^(bits-1), exact in float64
            t = np.trunc(sums)
            fits = (t >= -(2.0 ** (info.bits - 1))) & (t < 2.0 ** (info.bits - 1))
            want[keep & fits] = t[keep & fits]
            want[keep & ~fits] = info.min
        else:
            with np.errstate(over="ignore"):
                want[keep] = sums[keep]
        got = cast_like_spmv(sums, out_dtype, positive_only=positive_only)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def _saturating_cast(sums, dtype):
    """An aarch64-style conversion: out-of-range values clamp, NaN -> 0."""
    if np.dtype(dtype).kind != "i":
        return sums.astype(dtype)
    info = np.iinfo(dtype)
    return np.nan_to_num(np.clip(sums, info.min, info.max), nan=0.0).astype(dtype)


class TestPlatformIndependentOverflow:
    """int32 sigma overflow must show as ``sigma < 0`` whatever the platform's
    float -> int conversion does with out-of-range values."""

    def test_saturating_platform_cast_is_mapped(self, monkeypatch):
        from repro.spmv import _spmm as M

        monkeypatch.setattr(M, "raw_cast", _saturating_cast)
        sums = np.array([3e9, 2.0**31, np.nan, np.inf, 5.0, 2.0**31 - 1])
        got = M.cast_like_spmv(sums, np.int32, positive_only=True)
        int_min = np.iinfo(np.int32).min
        np.testing.assert_array_equal(got, [int_min, int_min, 0, int_min, 5, 2**31 - 1])

    @pytest.mark.parametrize("batch", (1, 3))
    def test_diamonds_still_overflow_and_rerun(self, monkeypatch, batch):
        from repro import turbo_bc
        from repro.obs import telemetry as obs
        from repro.spmv import _spmm as M
        from tests.test_modeled_snapshot import GRAPHS

        graph = GRAPHS["diamonds"]()
        sources = [0, 3, 60, 121]
        want = turbo_bc(graph, sources=sources, algorithm="sccsc", batch_size=batch)
        monkeypatch.setattr(M, "raw_cast", _saturating_cast)
        with obs.session(trace=False) as tel:
            got = turbo_bc(graph, sources=sources, algorithm="sccsc", batch_size=batch)
        assert tel.metrics.counter("sigma_overflow_reruns").value > 0
        if batch > 1:
            assert got.stats.rerun_sources
        assert got.bc.tobytes() == want.bc.tobytes()


def test_no_short_axis_lane_reductions_in_kernels_or_dispatch():
    """Lane-axis reductions go through ``lane_any``/``lane_count``: no
    ``any``/``sum``/``count_nonzero`` with ``axis=1`` in ``spmv/`` or the
    dispatcher."""
    import ast
    from pathlib import Path

    import repro.core.dispatch
    import repro.spmv

    paths = sorted(Path(repro.spmv.__file__).parent.glob("*.py"))
    paths.append(Path(repro.core.dispatch.__file__))
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if name in ("any", "sum", "count_nonzero") and any(
                k.arg == "axis" and isinstance(k.value, ast.Constant) and k.value.value == 1
                for k in node.keywords
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def _bool_exprs(tree):
    """A predicate for syntactically boolean index expressions -- a
    comparison, ``~``/``not``, an ``&``/``|``/``^`` (mask algebra), or a name
    assigned one somewhere in ``tree`` -- and the set of those names."""
    import ast

    names: set[str] = set()

    def is_bool(node) -> bool:
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            return True
        if isinstance(node, ast.UnaryOp):
            return isinstance(node.op, (ast.Invert, ast.Not))
        if isinstance(node, ast.BinOp):
            return isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.BitXor))
        if isinstance(node, ast.IfExp):
            return is_bool(node.body) or is_bool(node.orelse)
        return isinstance(node, ast.Name) and node.id in names

    for _ in range(3):  # names assigned from names assigned from comparisons
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)) and is_bool(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names, is_bool


def test_level_numerics_are_branch_free():
    """The batched level passes zero values by bit multiplies
    (``keep_bits``), not by per-element branches: no ``np.where(`` and no
    boolean-mask subscript assignment in ``spmv/_spmm.py`` or
    ``core/frontier.py``, and no boolean-index compaction in
    ``tcspmm.active_tile_stats``."""
    import ast
    import inspect
    from pathlib import Path

    import repro.core.frontier
    import repro.spmv._spmm
    import repro.spmv.tcspmm

    offenders = []
    for module in (repro.spmv._spmm, repro.core.frontier):
        path = Path(module.__file__)
        tree = ast.parse(path.read_text())
        _, is_bool = _bool_exprs(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.where", "where"):
                offenders.append(f"{path.name}:{node.lineno} np.where")
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AugAssign) else [])
            offenders += [f"{path.name}:{node.lineno} {ast.unparse(t)}" for t in targets
                          if isinstance(t, ast.Subscript) and is_bool(t.slice)]
    fn = ast.parse(inspect.getsource(repro.spmv.tcspmm.active_tile_stats))
    _, is_bool = _bool_exprs(fn)
    offenders += [f"active_tile_stats: {ast.unparse(node)}" for node in ast.walk(fn)
                  if isinstance(node, ast.Subscript) and is_bool(node.slice)]
    assert not offenders, offenders


def test_branch_free_guard_catches_the_old_forms():
    """The guard's predicate flags the forms the level passes used to take."""
    import ast

    old = ("sums[~allowed] = 0.0\n"
           "part[~allowed[cols]] = 0.0\n"
           "y[~((sums >= lo) & (sums < top))] = lo\n"
           "active = col_ok[t_col] & row_ok[t_row] if t_row.size else empty\n"
           "cnt = t_cnt[active]\n")
    tree = ast.parse(old)
    names, is_bool = _bool_exprs(tree)
    assert names == {"active"}
    subscripts = [node for node in ast.walk(tree) if isinstance(node, ast.Subscript)]
    flagged = {ast.unparse(node) for node in subscripts if is_bool(node.slice)}
    assert flagged == {"sums[~allowed]", "part[~allowed[cols]]",
                       "y[~((sums >= lo) & (sums < top))]", "t_cnt[active]"}


# -- frontier-proportional products ------------------------------------------

RESTRICT_PATHS = ("push", "pull", "full")


def _force_path(monkeypatch, path: str) -> None:
    """Send every engine product through ``path``, whatever its size (pull
    only where a mask offers it; a scatter's only restricted form is push)."""
    from repro.spmv import _spmm as M

    monkeypatch.setattr(M, "FULL_BELOW_LANE_ENTRIES", 0)
    monkeypatch.setattr(
        M, "choose_path",
        lambda m, push, pull: "full" if path == "pull" and pull is None else path)


def _restrict_graphs():
    """An undirected graph with isolated vertices, and a digraph."""
    from repro.graphs.generators.smallworld import small_world_graph
    from repro.graphs.generators.webgraph import preferential_attachment_digraph

    sw = small_world_graph(150, k=6, rewire_p=0.2, seed=7)
    return {
        "undirected+isolated": Graph(sw.src, sw.dst, sw.n + 6, directed=False),
        "digraph": preferential_attachment_digraph(160, mean_degree=6, seed=8),
    }


def _restrict_input(n: int, B: int, dtype, rng) -> np.ndarray:
    """Mostly-zero rows (so restriction skips entries), rows live in only some
    lanes, whole rows of -0.0, wrapped negative int32, and +-inf / NaN."""
    shape = (n,) if B == 1 else (n, B)
    if np.dtype(dtype).kind == "f":
        X = (rng.uniform(0.1, 3.0, shape) * 2.0 ** rng.integers(-40, 40, shape)).astype(dtype)
        X[rng.random(shape) < 0.1] *= -1
        X[rng.random(shape) < 0.03] = np.inf
        X[rng.random(shape) < 0.03] = -np.inf
        X[rng.random(shape) < 0.03] = np.nan
    else:
        X = rng.integers(2**30, 2**31 - 1, shape, dtype=np.int32)
        X[rng.random(shape) < 0.3] = rng.integers(-(2**31), -1, dtype=np.int32)
    X[rng.random(shape) < 0.4] = 0
    dead = rng.random(n) < 0.7
    X[dead] = 0
    if np.dtype(dtype).kind == "f":
        X[dead & (rng.random(n) < 0.5)] = -0.0
    return X


def _restrict_masks(n: int, B: int, rng):
    shape = (n,) if B == 1 else (n, B)
    return {"none": None, "all-true": np.ones(shape, dtype=bool),
            "partial": rng.random(shape) < 0.3, "all-false": np.zeros(shape, dtype=bool)}


class TestRestrictedProducts:
    """Push, pull and full products return the same bytes as the full
    operator product, for either format, any width and any input."""

    @pytest.mark.parametrize("dtype", (np.int32, np.float32, np.float64))
    @pytest.mark.parametrize("B", (1, 3, 8))
    @pytest.mark.parametrize("fmt_name", ("csc", "cooc"))
    @pytest.mark.parametrize("path", RESTRICT_PATHS)
    def test_engine_bytes_equal_full_product(self, monkeypatch, path, fmt_name, B, dtype):
        from repro.spmv import _spmm as M

        _force_path(monkeypatch, path)
        rng = np.random.default_rng(B)
        for gname, g in _restrict_graphs().items():
            fmt = g.to_csc() if fmt_name == "csc" else g.to_cooc()
            assert fmt.symmetric == (not g.directed)
            gather, scatter = fmt.spmm_operators()
            frontiers = [_restrict_input(g.n, B, dtype, rng),
                         np.zeros((g.n,) if B == 1 else (g.n, B), dtype=dtype)]
            for X in frontiers:
                X64 = X.astype(np.float64)
                full = gather @ X64
                for mname, allowed in _restrict_masks(g.n, B, rng).items():
                    want = full.copy()
                    if allowed is not None:
                        want[~allowed] = 0.0
                    got = M.gather_spmm_values(fmt, X, allowed)
                    assert got.dtype == np.float64 and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (gname, mname)
                got = M.scatter_spmm_values(fmt, X)
                assert got.tobytes() == (scatter @ X64).tobytes(), gname

    @pytest.mark.parametrize("cast", ("native", "saturating"))
    @pytest.mark.parametrize("path", RESTRICT_PATHS)
    def test_product_bytes_equal_the_mask_then_where_formula(self, monkeypatch, path, cast):
        """``product`` drops masked-out and non-positive gather sums with one
        bit multiply, in place; its output and counts must be those of the
        old formula -- ``sums[~allowed] = 0.0``, then ``np.where(sums > 0,
        sums, 0.0)``, then the cast with an ``iinfo.min`` assignment -- for
        every path, width, output dtype and platform cast."""
        from repro.spmv import _spmm as M

        _force_path(monkeypatch, path)
        if cast == "saturating":
            monkeypatch.setattr(M, "raw_cast", _saturating_cast)

        def old_cast(sums, out_dtype, positive_only):
            if positive_only:
                sums = np.where(sums > 0, sums, 0.0)
            y = M.raw_cast(sums, out_dtype)
            if np.dtype(out_dtype).kind == "i":
                info = np.iinfo(out_dtype)
                y[~((sums >= info.min) & (sums < float(info.max) + 1))] = info.min
            return y

        rng = np.random.default_rng(21)
        g = _restrict_graphs()["digraph"]
        fmt = g.to_csc()
        gather, scatter = fmt.spmm_operators()
        seen = set()
        for B in (1, 3, 8):
            for x_dtype in (np.int32, np.float32, np.float64):
                X = _restrict_input(g.n, B, x_dtype, rng)
                X64 = X.astype(np.float64)
                pos64 = np.where(X > 0, X, X.dtype.type(0)).astype(np.float64)
                for out_dtype in (np.int32, np.float32, np.float64):
                    for mname, allowed in _restrict_masks(g.n, B, rng).items():
                        want = gather @ X64
                        if allowed is not None:
                            want[~allowed] = 0.0
                        want_written = int(np.count_nonzero(
                            (want > 0) if B == 1 else (want > 0).any(axis=1)))
                        p = M.product(fmt, X, batched=B > 1, allowed=allowed,
                                      out_dtype=out_dtype, need="written")
                        assert p.y.tobytes() == old_cast(want, out_dtype, True).tobytes(), (
                            B, x_dtype, out_dtype, mname)
                        assert p.written == want_written
                    for scat in (False, True):
                        op = scatter if scat else gather
                        p = M.product(fmt, X, batched=B > 1, scatter=scat, atomic=True,
                                      out_dtype=out_dtype)
                        want = old_cast(op @ pos64, out_dtype, False)
                        assert p.y.tobytes() == want.tobytes(), (B, x_dtype, out_dtype, scat)
                raw = gather @ X64
                seen.update(k for k, hit in (
                    ("nan", np.isnan(raw).any()), ("inf", np.isinf(raw).any()),
                    ("negative", (raw < 0).any()), ("zero", (raw == 0).any()),
                    ("past int32", (raw >= 2.0**31).any())) if hit)
        # the special sums are really there
        assert seen == {"nan", "inf", "negative", "zero", "past int32"}

    def test_keep_bits_zeroes_every_special_value(self):
        from repro.spmv._spmm import keep_bits

        rng = np.random.default_rng(4)
        for dtype in (np.float64, np.float32, np.int32, np.int64, np.uint8):
            a = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, -3.5, 2.0, 7.0] * 5)
            a = a.astype(dtype) if np.dtype(dtype).kind == "f" else rng.integers(
                -100 if np.dtype(dtype).kind == "i" else 0, 100, 40).astype(dtype)
            full = a.reshape(8, 5)
            view = full[:, ::2]                 # a strided view is zeroed in place
            keep = rng.random(view.shape) < 0.5
            want, rest = np.where(keep, view, dtype(0)), full[:, 1::2].copy()
            assert keep_bits(view, keep) is view
            assert full[:, ::2].tobytes() == want.tobytes(), dtype
            assert full[:, 1::2].tobytes() == rest.tobytes(), dtype

    def test_choose_path_crossover(self):
        from repro.spmv._spmm import RESTRICT_MAX_SHARE, choose_path

        m = 1000
        half = int(RESTRICT_MAX_SHARE * m)
        assert choose_path(m, 10, 20) == "push"
        assert choose_path(m, 20, 10) == "pull"
        assert choose_path(m, 10, None) == "push"
        assert choose_path(m, half, None) == "push"
        assert choose_path(m, half + 1, None) == "full"
        assert choose_path(m, half + 1, half + 2) == "full"
        assert choose_path(m, m, half) == "pull"

    def test_below_the_floor_no_mass_is_computed(self, monkeypatch):
        from repro.spmv import _spmm as M

        def fail(*args):
            raise AssertionError("choose_path called below the floor")

        monkeypatch.setattr(M, "choose_path", fail)
        csc = _restrict_graphs()["digraph"].to_csc()
        assert csc.nnz * 8 < M.FULL_BELOW_LANE_ENTRIES
        X = np.ones((csc.n_rows, 8))
        M.gather_spmm_values(csc, X, np.ones((csc.n_cols, 8), dtype=bool))
        M.scatter_spmm_values(csc, X)
        assert csc._push_op is None and csc._scatter_plan is None

    def test_undirected_push_operator_is_the_gather_operator(self):
        g = _restrict_graphs()["undirected+isolated"]
        for fmt in (g.to_csc(), g.to_cooc()):
            assert fmt.push_operator() is fmt.spmm_operators()[0]
            assert fmt._push_op is None and fmt._scatter_plan is None

    def test_digraph_push_operator_shares_the_plan(self):
        d = _restrict_graphs()["digraph"]
        for fmt in (d.to_csc(), d.to_cooc()):
            op = fmt.push_operator()
            row_ptr, cols = fmt.scatter_plan()
            assert np.shares_memory(op.indices, cols)
            assert np.shares_memory(op.data, fmt.spmm_operators()[0].data)
            np.testing.assert_array_equal(op.toarray(), fmt.to_dense())
            assert fmt.push_operator() is op

    def test_column_entries_and_conflict_memo(self):
        from repro.gpusim import warp as W
        from repro.spmv._spmm import column_entries

        csc = _restrict_graphs()["digraph"].to_csc()
        rng = np.random.default_rng(2)
        for cols in (np.arange(csc.n_cols), np.flatnonzero(rng.random(csc.n_cols) < 0.3),
                     np.zeros(0, dtype=np.int64)):
            want = np.flatnonzero(np.isin(csc.column_of_nnz(), cols))
            np.testing.assert_array_equal(column_entries(csc.col_ptr, cols), want)
        assert csc.full_atomic_conflict_cycles() == W.atomic_conflict_cycles(
            csc.column_of_nnz())

    @pytest.mark.parametrize("path", ("push", "pull"))
    def test_entry_points_match_the_full_path(self, monkeypatch, path):
        """Every B = 1 and B >= 2 entry point: output bytes and launch stats
        under a forced restricted path equal those of the full product."""
        import repro.spmv as S

        rng = np.random.default_rng(9)
        cases = []
        for g in _restrict_graphs().values():
            for family in ("sccooc", "sccsc", "veccsc", "edgecsc", "pullcsc", "tcspmm"):
                fmt = g.to_cooc() if family == "sccooc" else g.to_csc()
                for B in (1, 3):
                    kind = "spmv" if B == 1 else "spmm"
                    for dtype in (np.int32, np.float32):
                        X = _restrict_input(g.n, B, dtype, rng)
                        mask = _restrict_masks(g.n, B, rng)["partial"]
                        if family != "sccooc":   # the COOC gather is unmasked
                            cases.append((f"{family}_{kind}", fmt, X, {"allowed": mask}))
                        cases.append((f"{family}_{kind}", fmt, X, {}))
                        cases.append((f"{family}_{kind}_scatter", fmt, X, {}))

        def run(name, fmt, X, kw):
            y, launch = getattr(S, name)(Device(), fmt, X, **kw)
            return y.tobytes(), launch.stats

        with monkeypatch.context() as mp:
            _force_path(mp, "full")
            want = [run(*c) for c in cases]
        _force_path(monkeypatch, path)
        got = [run(*c) for c in cases]
        for case, w, g_ in zip(cases, want, got):
            assert g_ == w, case[0]


def test_restricted_path_leaves_the_modeled_snapshot_unchanged(monkeypatch):
    """The B >= 2 and digraph cells of the modeled snapshot with a restricted
    product (push or pull, whichever is cheaper) forced on every level."""
    import json

    from repro.spmv import _spmm as M
    import tests.test_modeled_snapshot as snap

    monkeypatch.setattr(M, "FULL_BELOW_LANE_ENTRIES", 0)
    monkeypatch.setattr(M, "RESTRICT_MAX_SHARE", float("inf"))
    want = json.loads(snap.SNAPSHOT.read_text())["cells"]
    cells = [c for c in want if "/digraph/" in c or "/b3/" in c or "/b8/" in c
             or c.endswith("/b3")]
    assert len(cells) > 200
    changed = [c for c in cells if snap._digest(c) != want[c]]
    assert not changed, changed[:20]
