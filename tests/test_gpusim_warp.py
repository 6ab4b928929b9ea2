"""Warp-level access-pattern analysis tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.gpusim import warp as W


class TestCoalesced:
    def test_exact_multiples(self):
        assert W.coalesced_transactions(8) == 1      # 8 x 4B = 32B
        assert W.coalesced_transactions(16) == 2

    def test_round_up(self):
        assert W.coalesced_transactions(9) == 2

    def test_zero(self):
        assert W.coalesced_transactions(0) == 0

    def test_other_element_size(self):
        assert W.coalesced_transactions(4, element_bytes=8) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            W.coalesced_transactions(-1)


class TestGather:
    def test_contiguous_indices_coalesce(self):
        idx = np.arange(32)
        assert W.gather_transactions(idx) == 4  # 32 words / 8 per segment

    def test_fully_scattered(self):
        idx = np.arange(32) * 64  # every index a distinct segment
        assert W.gather_transactions(idx) == 32

    def test_broadcast_same_address(self):
        idx = np.zeros(32, dtype=np.int64)
        assert W.gather_transactions(idx) == 1

    def test_padding_adds_nothing(self):
        # 33 scattered indices = 2 warps; second warp has 1 real lane
        idx = np.arange(33) * 64
        assert W.gather_transactions(idx) == 33

    def test_empty(self):
        assert W.gather_transactions(np.array([])) == 0

    def test_bounds(self):
        rng = np.random.default_rng(7)
        idx = rng.integers(0, 10_000, 1000)
        txn = W.gather_transactions(idx)
        assert np.ceil(1000 / 8) <= txn <= 1000


class TestCachedGather:
    def test_cap_when_array_fits_l2(self):
        rng = np.random.default_rng(1)
        array_words = 1000  # 4 KB << L2
        idx = rng.integers(0, array_words, 100_000)
        txn = W.cached_gather_transactions(idx, 4, array_words)
        assert txn <= -(-array_words * 4 // 32)

    def test_no_cap_for_huge_array(self):
        rng = np.random.default_rng(2)
        array_words = 10 * W.L2_BYTES  # way past L2
        idx = rng.integers(0, array_words, 2000)
        assert W.cached_gather_transactions(idx, 4, array_words) == pytest.approx(
            W.gather_transactions(idx), rel=0.15
        )

    def test_capped_random_within_bounds(self):
        assert W.capped_random_transactions(10_000, 100) <= -(-100 * 4 // 32)
        assert W.capped_random_transactions(5, 100) == 5

    def test_capped_random_rejects_negative(self):
        with pytest.raises(ValueError):
            W.capped_random_transactions(-1, 10)


class TestDivergence:
    def test_uniform_work(self):
        w = np.full(64, 5)
        assert W.divergent_warp_cycles(w) == 2 * 5

    def test_one_hot_warp(self):
        w = np.zeros(32, dtype=np.int64)
        w[0] = 100
        assert W.divergent_warp_cycles(w) == 100

    def test_base_cycles_per_warp(self):
        w = np.zeros(64, dtype=np.int64)
        assert W.divergent_warp_cycles(w, base_cycles=3) == 6

    def test_skew_costs_more_than_balanced(self):
        """Same total work, divergent layout costs more -- the scCSC story."""
        balanced = np.full(320, 10)
        skewed = np.zeros(320, dtype=np.int64)
        skewed[::32] = 100  # same total, one big lane per warp
        assert W.divergent_warp_cycles(skewed) > W.divergent_warp_cycles(balanced) * 2

    def test_empty(self):
        assert W.divergent_warp_cycles(np.array([], dtype=np.int64)) == 0

    def test_rejects_negative_work(self):
        with pytest.raises(ValueError):
            W.divergent_warp_cycles(np.array([-1]))


class TestUniformAndAtomic:
    def test_uniform_warp_cycles(self):
        assert W.uniform_warp_cycles(64, 3) == 6
        assert W.uniform_warp_cycles(1, 3) == 3
        assert W.uniform_warp_cycles(0, 3) == 0

    def test_warp_count(self):
        assert W.warp_count(0) == 0
        assert W.warp_count(1) == 1
        assert W.warp_count(33) == 2

    def test_atomic_no_conflicts(self):
        t = np.arange(32) * 100
        assert W.atomic_conflict_cycles(t) == 0

    def test_atomic_full_conflict(self):
        t = np.zeros(32, dtype=np.int64)
        assert W.atomic_conflict_cycles(t) == 31 * 2

    def test_atomic_partial(self):
        t = np.repeat(np.arange(8), 4)  # runs of 4 within one warp
        assert W.atomic_conflict_cycles(t) == 3 * 2

    def test_atomic_empty(self):
        assert W.atomic_conflict_cycles(np.array([], dtype=np.int64)) == 0

    def test_atomic_padding_no_conflict(self):
        # 33 identical targets: warp 1 has 32 (31 conflicts), warp 2 has 1
        t = np.zeros(33, dtype=np.int64)
        assert W.atomic_conflict_cycles(t) == 31 * 2


def _loop_atomic_conflict_cycles(targets, cycles_per_conflict=2, warp_size=32):
    """Test-local copy of the former per-lane-column loop formulation."""
    t = np.asarray(targets)
    if t.size == 0:
        return 0
    pad = (-t.size) % warp_size
    if pad:
        sentinel = np.arange(pad, dtype=np.int64) + (np.int64(t.max()) + 1)
        t = np.concatenate([t.astype(np.int64), sentinel])
    per_warp = np.sort(t.reshape(-1, warp_size), axis=1)
    eq = np.diff(per_warp, axis=1) == 0
    run = np.zeros(eq.shape[0], dtype=np.int64)
    cur = np.zeros(eq.shape[0], dtype=np.int64)
    for j in range(eq.shape[1]):
        cur = np.where(eq[:, j], cur + 1, 0)
        np.maximum(run, cur, out=run)
    return int(run.sum()) * cycles_per_conflict


class TestAtomicConflictAgainstLoop:
    @pytest.mark.parametrize("targets", [
        np.array([], dtype=np.int64),
        np.array([5, 5, 2, 5, 2], dtype=np.int32),            # one partial warp
        np.full(100, 7, dtype=np.int64),                       # all equal
        np.repeat(np.arange(50), 7),                           # sorted runs crossing warps
        np.array([3, 1, 3, 3, 1, 0, 3] * 13, dtype=np.int64),  # unsorted
    ], ids=["empty", "partial-warp", "all-equal", "sorted", "unsorted"])
    def test_cases(self, targets):
        got = W.atomic_conflict_cycles(targets)
        assert got == _loop_atomic_conflict_cycles(targets)
        assert type(got) is int

    def test_random_sorted_padded(self):
        rng = np.random.default_rng(0)
        for i in range(300):
            t = rng.integers(0, int(rng.integers(1, 300)), int(rng.integers(1, 2000)))
            if i % 3 == 1:
                t = np.sort(t)
            ws = 32 if i % 4 else int(rng.integers(1, 40))
            for cyc in (1, 2):
                assert W.atomic_conflict_cycles(
                    t, cycles_per_conflict=cyc, warp_size=ws
                ) == _loop_atomic_conflict_cycles(t, cyc, ws)


@given(st.lists(st.integers(0, 10_000), min_size=0, max_size=400))
def test_gather_transactions_bounds_property(idx):
    arr = np.asarray(idx, dtype=np.int64)
    txn = W.gather_transactions(arr)
    if arr.size == 0:
        assert txn == 0
    else:
        assert -(-arr.size // 8) <= txn <= arr.size


@given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
def test_divergence_at_least_mean_work_property(work):
    w = np.asarray(work, dtype=np.int64)
    total = W.divergent_warp_cycles(w)
    assert total >= -(-int(w.sum()) // 32)  # can't beat perfect balance
    assert total <= int(w.sum())            # can't exceed serial
