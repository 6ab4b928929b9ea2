"""Device-array choreography tests (the Section 3.4 memory optimization)."""

import numpy as np
import pytest

from repro.core.context import TurboBCContext
from repro.gpusim.device import Device
from tests.conftest import random_graph


@pytest.fixture
def graph():
    return random_graph(50, 0.08, directed=True, seed=3)


class TestAllocationChoreography:
    def test_csc_transfers_two_arrays(self, graph):
        device = Device()
        ctx = TurboBCContext(device, graph, "sccsc")
        names = {a.name for a in device.memory.live_arrays}
        assert {"CP_A", "row_A", "bc"} == names
        ctx.abort()

    def test_cooc_transfers_two_arrays(self, graph):
        device = Device()
        ctx = TurboBCContext(device, graph, "sccooc")
        names = {a.name for a in device.memory.live_arrays}
        assert {"row_A", "col_A", "bc"} == names
        ctx.abort()

    def test_single_format_discipline(self, graph):
        """TurboBC never holds CSR+CSC simultaneously (unlike gunrock)."""
        device = Device()
        ctx = TurboBCContext(device, graph, "veccsc")
        n, m = graph.n, graph.m
        matrix_bytes = sum(
            a.nbytes for a in device.memory.live_arrays if a.name != "bc"
        )
        assert matrix_bytes == 4 * (n + 1 + m)  # one CSC copy only
        ctx.abort()

    @pytest.mark.parametrize("batch", (None, 3), ids=("vector", "n-by-3"))
    def test_forward_arrays_freed_before_backward(self, graph, batch):
        """The Section 3.4 choreography now runs inside the arena slab: the
        int frontier blocks are released before the float delta blocks are
        carved, so they never coexist.  A vector keeps lower-case names, an
        ``(n, B)`` matrix capitalised ones."""
        name = str if batch is None else str.capitalize
        shape = (graph.n,) if batch is None else (graph.n, batch)
        device = Device()
        ctx = TurboBCContext(device, graph, "sccsc")
        sigma, S, f = ctx.alloc_forward(batch)
        assert sigma.shape == S.shape == f.shape == shape
        fwd_blocks = {a.name: a for a in ctx._forward_arrs}
        assert set(fwd_blocks) == {name(b) for b in ("f", "ft", "sigma", "S")}
        f, ft = fwd_blocks[name("f")], fwd_blocks[name("ft")]
        deltas = ctx.swap_to_backward()
        assert all(d.shape == shape and d.dtype == np.float32 for d in deltas)
        assert f.is_freed and ft.is_freed
        live = {a.name for a in ctx._forward_arrs + ctx._backward_arrs}
        assert live == {name(b) for b in ("sigma", "S", "delta", "delta_u", "delta_ut")}
        # the released frontier bytes were recycled into the delta blocks
        assert ctx._arena.reuses >= 2
        ctx.abort()

    @pytest.mark.parametrize("batch", (None, 3), ids=("vector", "n-by-3"))
    def test_peak_is_footprint_model(self, graph, batch):
        """The paper's headline footprint -- 7n + m words for CSC -- and its
        batched twin: the run peak is the footprint model's, and nothing is
        left live after ``close``."""
        from repro.perf.memory_model import turbobc_batched_footprint_bytes

        device = Device()
        ctx = TurboBCContext(device, graph, "sccsc")
        ctx.alloc_forward(batch)
        ctx.swap_to_backward()
        ctx.release_source()
        n, m = graph.n, graph.m
        assert device.memory.run_peak_bytes == turbobc_batched_footprint_bytes(
            n, m, batch or 1, "csc", np.int32, np.float32)
        if batch is None:
            assert device.memory.peak_bytes == 4 * (7 * n + 1 + m)
        ctx.close()
        assert device.memory.used_bytes == 0
        assert not device.memory.live_arrays

    @pytest.mark.parametrize("batch", (None, 3), ids=("vector", "n-by-3"))
    def test_release_source_keeps_matrix(self, graph, batch):
        """Matrix, ``bc`` and the arena slab survive a source release; the
        per-source blocks return to the slab without touching the allocator."""
        device = Device()
        ctx = TurboBCContext(device, graph, "sccsc")
        ctx.alloc_forward(batch)
        ctx.release_source()
        names = {a.name for a in device.memory.live_arrays}
        assert names == {"CP_A", "row_A", "bc", "arena"}
        assert ctx._arena.free_bytes == ctx._arena.capacity_bytes
        ctx.abort()

    def test_alloc_forward_rejects_empty_batch(self, graph):
        with pytest.raises(ValueError, match="batch"):
            TurboBCContext(Device(), graph, "sccsc").alloc_forward(0)

    def test_close_frees_everything_and_returns_bc(self, graph):
        device = Device()
        ctx = TurboBCContext(device, graph, "sccsc")
        ctx.bc_arr.data[0] = 42.0
        bc = ctx.close()
        assert bc[0] == 42.0
        assert device.memory.used_bytes == 0

    def test_abort_idempotent_cleanup(self, graph):
        device = Device()
        ctx = TurboBCContext(device, graph, "sccsc")
        ctx.alloc_forward()
        ctx.abort()
        assert device.memory.used_bytes == 0

    def test_unknown_algorithm(self, graph):
        with pytest.raises(ValueError, match="unknown algorithm"):
            TurboBCContext(Device(), graph, "csr5")

    def test_mask_fused_flags(self, graph):
        assert TurboBCContext(Device(), graph, "sccsc").mask_fused
        assert TurboBCContext(Device(), graph, "veccsc").mask_fused
        assert not TurboBCContext(Device(), graph, "sccooc").mask_fused


class TestBackwardDispatch:
    def test_directed_uses_scatter(self, graph):
        device = Device()
        ctx = TurboBCContext(device, graph, "sccsc")
        x = np.zeros(graph.n, dtype=np.float32)
        x[0] = 1.0
        _, _, stats = ctx.product("backward", x, kernel="sccsc")
        assert "scatter" in stats.name

    def test_undirected_uses_gather(self):
        g = random_graph(50, 0.08, directed=False, seed=4)
        device = Device()
        ctx = TurboBCContext(device, g, "sccsc")
        x = np.zeros(g.n, dtype=np.float32)
        x[0] = 1.0
        _, _, stats = ctx.product("backward", x, kernel="sccsc")
        assert stats.name == "sccsc_spmv"

    @pytest.mark.parametrize("alg", ["sccooc", "sccsc", "veccsc"])
    def test_backward_directed_equals_reverse_gather(self, graph, alg, rng):
        """On digraphs every backward entry point must compute A x (reverse
        edges)."""
        from repro.spmv import reference_spmv

        ctx = TurboBCContext(Device(), graph, alg)
        x = rng.random(graph.n).astype(np.float64)
        expected = reference_spmv(graph.reverse().to_csc(), x)
        kernels = ctx._kernels("backward", False)
        assert kernels
        for fn in kernels.values():
            y, launch = fn(Device(), ctx.matrix, x)
            assert "scatter" in launch.stats.name
            np.testing.assert_allclose(y, expected, rtol=1e-6)
