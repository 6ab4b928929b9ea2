"""Unit tests of the non-SpMV pipeline kernels (core.frontier)."""

import numpy as np
import pytest

from repro.core import frontier as FK
from repro.gpusim import warp as W
from repro.gpusim.device import Device


@pytest.fixture
def device():
    return Device()


class TestInitKernel:
    def test_records_launch(self, device):
        # one lane: the per-source stage's init
        (launch,) = device.launch(FK.init_costs(1, "d=1")).launches()
        assert device.profiler.kernel_names() == ["bfs_init"]
        stats = launch.stats
        assert (stats.threads, stats.warp_cycles, stats.dram_write_bytes) == (
            1, 2, 2 * W.TRANSACTION_BYTES)


class TestFrontierUpdate:
    def test_masks_discovered_when_not_fused(self, device):
        ft = np.array([3, 2, 5, 0], dtype=np.int64)
        sigma = np.array([1, 0, 0, 0], dtype=np.int64)
        S = np.zeros(4, dtype=np.int32)
        f, touched = FK.frontier_update(ft, sigma, S, 2, masked_spmv=False)
        assert f.tolist() == [0, 2, 5, 0]
        assert touched.size > 0  # the convergence flag: not converged
        assert touched.tolist() == [1, 2]
        assert sigma.tolist() == [1, 2, 5, 0]
        assert S.tolist() == [0, 2, 2, 0]

    def test_fused_mask_passthrough(self, device):
        # CSC kernels already zeroed discovered entries
        ft = np.array([0, 2, 0], dtype=np.int64)
        sigma = np.array([1, 0, 0], dtype=np.int64)
        S = np.zeros(3, dtype=np.int32)
        f, touched = FK.frontier_update(ft, sigma, S, 1, masked_spmv=True)
        assert f is ft
        assert touched.size > 0

    def test_convergence_flag_false_when_empty(self, device):
        ft = np.zeros(3, dtype=np.int64)
        sigma = np.array([1, 1, 1], dtype=np.int64)
        S = np.zeros(3, dtype=np.int32)
        _, touched = FK.frontier_update(ft, sigma, S, 3, masked_spmv=True)
        assert touched.size == 0

    def test_fused_reads_fewer_words(self, device):
        ft = np.ones(64, dtype=np.int64)
        sigma = np.zeros(64, dtype=np.int64)
        _, touched = FK.frontier_update(ft, sigma, np.zeros(64, np.int32), 1,
                                        masked_spmv=True)
        txn = W.gather_transactions(touched)
        (fused,) = FK.frontier_update_costs(64, touched.size, txn, masked_spmv=True)
        (unfused,) = FK.frontier_update_costs(64, touched.size, txn, masked_spmv=False)
        assert fused.requested_load_bytes < unfused.requested_load_bytes


class TestBackwardKernels:
    def test_delta_u_selects_depth_slice(self, device):
        S = np.array([0, 1, 2, 2, 0], dtype=np.int32)
        sigma = np.array([1, 1, 2, 0, 0], dtype=np.float64)
        delta = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        delta_u, written = FK.delta_u(sigma, delta, np.flatnonzero(S == 2))
        # only vertex 2 qualifies (S == 2 and sigma > 0)
        assert delta_u.tolist() == [0, 0, (1 + 1.0) / 2, 0, 0]
        assert written.tolist() == [2]

    def test_delta_u_skips_sigma_zero(self, device):
        S = np.array([2], dtype=np.int32)
        sigma = np.array([0.0])
        delta_u, _ = FK.delta_u(sigma, np.zeros(1), np.flatnonzero(S == 2))
        assert delta_u[0] == 0

    def test_delta_update_in_place(self, device):
        S = np.array([0, 1, 1, 2], dtype=np.int32)
        sigma = np.array([1.0, 2.0, 3.0, 1.0])
        delta = np.zeros(4)
        delta_ut = np.array([9.0, 0.5, 0.25, 9.0])
        FK.delta_update(sigma, delta, delta_ut, np.flatnonzero(S == 1))
        # only S == 1 vertices updated: delta += delta_ut * sigma
        assert delta.tolist() == [0.0, 1.0, 0.75, 0.0]

    def test_bc_update_excludes_source_and_halves(self, device):
        bc = np.zeros(3)
        delta = np.array([5.0, 4.0, 2.0])
        launch = FK.bc_update_kernel(device, bc, delta[:, None], [0], undirected=True)
        assert bc.tolist() == [0.0, 2.0, 1.0]
        # one lane is one n-thread streaming pass over bc and delta
        (want,) = FK._stream_stats("bc_update", 3, read_words=6,
                                   write_txn=W.coalesced_transactions(3),
                                   extra_cycles=3, flops=3)
        assert launch.stats == want

    def test_bc_update_directed_full_weight(self, device):
        bc = np.ones(3)
        delta = np.array([5.0, 4.0, 2.0])
        FK.bc_update_kernel(device, bc, delta[:, None], [1], undirected=False)
        assert bc.tolist() == [6.0, 1.0, 3.0]


# -- batched levels -----------------------------------------------------------
# Test-local copies of the boolean-mask formulas the batched stages used before
# they moved to flat index lists, and of the one-level streaming-kernel stats;
# the numerics on an ``(n, B)`` level, and the cost functions of its counts at
# ``n * B`` threads, must match values and every KernelStats field.


def _stream_stats(name, n, *, read_words, sparse_writes, extra_cycles):
    from repro.gpusim.kernel import KernelStats

    write_txn = W.gather_transactions(sparse_writes) if sparse_writes.size else 0
    return KernelStats(
        name=name, threads=n, warp_cycles=W.uniform_warp_cycles(n, 3) + extra_cycles,
        dram_read_bytes=W.coalesced_transactions(read_words) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=read_words * 4,
    )


def _mask_frontier_update(device, Ft, Sigma, S, depth, *, masked_spmv):
    from repro.gpusim.kernel import KernelStats

    n, B = Sigma.shape
    F = Ft if masked_spmv else np.where(Sigma == 0, Ft, Ft.dtype.type(0))
    touched = F != 0
    rows, cols = np.nonzero(touched)
    if rows.size:
        S[touched] = depth
        Sigma[touched] += F[touched]
    flat = rows * B + cols
    stats = _stream_stats(
        "bfs_update", n * B,
        read_words=n * B if masked_spmv else 2 * n * B,
        sparse_writes=flat, extra_cycles=2 * rows.size,
    )
    stats = stats.merge(KernelStats(
        name="bfs_update",
        dram_write_bytes=(W.gather_transactions(flat) if rows.size else 0)
        * W.TRANSACTION_BYTES,
    ))
    return F, np.count_nonzero(touched, axis=0), device.launch(stats)


def _mask_delta_u(device, S, Sigma, Delta, depth):
    sel = (S == depth) & (Sigma > 0)
    Delta_u = np.zeros_like(Delta)
    rows, cols = np.nonzero(sel)
    if rows.size:
        Delta_u[sel] = (1.0 + Delta[sel]) / Sigma[sel]
    n, B = Sigma.shape
    stats = _stream_stats(
        "delta_u", n * B, read_words=3 * n * B,
        sparse_writes=rows * B + cols, extra_cycles=4 * rows.size,
    )
    stats.flops = rows.size
    return Delta_u, device.launch(stats)


def _mask_delta_update(device, S, Sigma, Delta, Delta_ut, depth):
    sel = S == (depth - 1)
    rows, cols = np.nonzero(sel)
    if rows.size:
        Delta[sel] += Delta_ut[sel] * Sigma[sel]
    n, B = Sigma.shape
    stats = _stream_stats(
        "delta_update", n * B, read_words=4 * n * B,
        sparse_writes=rows * B + cols, extra_cycles=2 * rows.size,
    )
    stats.flops = 2 * rows.size
    return device.launch(stats)


def _batch_state(B, sigma_dtype, seed):
    """A mid-traversal ``(n, B)`` state: int32 Sigma wraps to non-positive
    values in places, and lane 1 is overflow-zeroed (Sigma and S columns
    set to 0, as the driver does before the backward stage)."""
    rng = np.random.default_rng(seed)
    n = 300
    Sigma = np.where(rng.random((n, B)) < 0.4, rng.integers(1, 9, (n, B)), 0)
    Sigma = Sigma.astype(sigma_dtype)
    if np.dtype(sigma_dtype) == np.int32:
        wrapped = rng.random((n, B)) < 0.05
        Sigma[wrapped] = np.array([-2**31, -7, 0])[rng.integers(0, 3, int(wrapped.sum()))]
    S = np.where(Sigma != 0, rng.integers(1, 5, (n, B)), 0).astype(np.int32)
    Sigma[:, 1] = 0
    S[:, 1] = 0
    Ft = np.where(rng.random((n, B)) < 0.3, rng.integers(1, 50, (n, B)), 0)
    Ft = Ft.astype(sigma_dtype)
    Ft[: n // 3, 0] = 0  # a drained stretch of lane 0
    return rng, Sigma, S, Ft


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.uint8), np.ascontiguousarray(want).view(np.uint8)
    )


def _launched(stats):
    return Device().launch(stats)


class TestBatchFrontierKernels:
    @pytest.mark.parametrize("B", (2, 8, 9))
    @pytest.mark.parametrize("sigma_dtype", (np.int32, np.float64))
    @pytest.mark.parametrize("masked_spmv", (True, False))
    def test_frontier_update_matches_mask_formula(self, B, sigma_dtype, masked_spmv):
        _, Sigma, S, Ft = _batch_state(B, sigma_dtype, seed=B)
        Sigma2, S2, Ft2 = Sigma.copy(), S.copy(), Ft.copy()
        got_F, got_flat = FK.frontier_update(Ft, Sigma, S, 5, masked_spmv=masked_spmv)
        got_counts = np.bincount(got_flat % B, minlength=B)
        (got,) = FK.frontier_update_costs(Sigma.size, got_flat.size,
                                          W.gather_transactions(got_flat),
                                          masked_spmv=masked_spmv)
        want_F, want_counts, want = _mask_frontier_update(
            Device(), Ft2, Sigma2, S2, 5, masked_spmv=masked_spmv
        )
        for g, w in ((got_F, want_F), (Sigma, Sigma2), (S, S2)):
            _same_bytes(g, w)
        _same_bytes(got_counts, want_counts)
        # the returned slice is exactly what was stamped at this depth
        np.testing.assert_array_equal(got_flat, np.flatnonzero(S == 5))
        assert got == want.stats
        assert _launched(got).time_s == want.time_s

    @pytest.mark.parametrize("B", (1, 8))
    @pytest.mark.parametrize("sigma_dtype", (np.int32, np.float32, np.float64))
    def test_unfused_mask_bytes_equal_where(self, B, sigma_dtype):
        """The unfused path masks ``Ft`` in place with one bit multiply; the
        frontier, its index list and the stamped state must be the bytes of
        ``np.where(Sigma == 0, Ft, 0)`` -- NaN, +-inf, -0.0 and negative
        ``Ft`` entries included."""
        rng, Sigma, S, Ft = _batch_state(max(B, 2), sigma_dtype, seed=30 + B)
        Sigma, S, Ft = Sigma[:, :B].copy(), S[:, :B].copy(), Ft[:, :B].copy()
        if B == 1:
            Sigma, S, Ft = Sigma[:, 0], S[:, 0], Ft[:, 0]
        if np.dtype(sigma_dtype).kind == "f":
            special = rng.random(Ft.shape) < 0.2
            Ft[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0, -3.0], special.sum())
        else:
            Ft[rng.random(Ft.shape) < 0.1] = -(2**31)
        want_F = np.where(Sigma == 0, Ft, Ft.dtype.type(0))
        Sigma2, S2 = Sigma.copy(), S.copy()
        touched = want_F != 0
        S2[touched] = 5
        Sigma2[touched] += want_F[touched]
        got_F, flat = FK.frontier_update(Ft, Sigma, S, 5, masked_spmv=False)
        assert got_F is Ft
        for g, w in ((got_F, want_F), (Sigma, Sigma2), (S, S2)):
            _same_bytes(g, w)
        np.testing.assert_array_equal(flat, np.flatnonzero(touched))

    def test_frontier_update_empty_frontier(self):
        Sigma = np.ones((40, 8), dtype=np.int32)
        S = np.ones((40, 8), dtype=np.int32)
        F, flat = FK.frontier_update(np.zeros((40, 8), np.int32), Sigma, S, 3,
                                     masked_spmv=True)
        assert flat.size == 0
        assert np.bincount(flat % 8, minlength=8).tolist() == [0] * 8
        (stats,) = FK.frontier_update_costs(Sigma.size, flat.size,
                                            W.gather_transactions(flat), masked_spmv=True)
        assert stats.dram_write_bytes == 0

    @pytest.mark.parametrize("B", (2, 8, 9))
    @pytest.mark.parametrize("sigma_dtype", (np.int32, np.float64))
    @pytest.mark.parametrize("delta_dtype", (np.float32, np.float64))
    def test_backward_kernels_match_mask_formula(self, B, sigma_dtype, delta_dtype):
        rng, Sigma, S, _ = _batch_state(B, sigma_dtype, seed=10 + B)
        Delta = (rng.random(Sigma.shape) * 3).astype(delta_dtype)
        Delta[:, 1] = 0  # the overflow-zeroed lane carries no dependencies
        for depth in (4, 3, 2):
            level = np.flatnonzero(S == depth)
            got_u, written = FK.delta_u(Sigma, Delta, level)
            (got,) = FK.delta_u_costs(Sigma.size, written.size,
                                      W.gather_transactions(written))
            want_u, want = _mask_delta_u(Device(), S, Sigma, Delta, depth)
            _same_bytes(got_u, want_u)
            assert got == want.stats and _launched(got).time_s == want.time_s

            Delta_ut = (rng.random(Sigma.shape) * 2).astype(delta_dtype)
            got_D, want_D = Delta.copy(), Delta.copy()
            level = np.flatnonzero(S == depth - 1)
            FK.delta_update(Sigma, got_D, Delta_ut, level)
            (got,) = FK.delta_update_costs(Sigma.size, level.size,
                                           W.gather_transactions(level))
            want = _mask_delta_update(Device(), S, Sigma, want_D, Delta_ut, depth)
            _same_bytes(got_D, want_D)
            assert got == want.stats and _launched(got).time_s == want.time_s
            Delta = got_D
        assert not Delta[:, 1].any()
