"""Edge-list canonicalisation and format-conversion tests."""

import numpy as np
import pytest

from repro.formats import convert


class TestCanonicalEdges:
    def test_sorts_column_major(self):
        src, dst = convert.canonical_edges([2, 0, 1], [1, 2, 0], 3)
        assert dst.tolist() == sorted(dst.tolist())

    def test_secondary_sort_by_src(self):
        src, dst = convert.canonical_edges([3, 1, 2], [0, 0, 0], 4)
        assert src.tolist() == [1, 2, 3]

    def test_dedup(self):
        src, dst = convert.canonical_edges([0, 0, 0], [1, 1, 1], 2)
        assert src.size == 1

    def test_drops_self_loops(self):
        src, dst = convert.canonical_edges([0, 1], [0, 0], 2)
        assert src.tolist() == [1]
        assert dst.tolist() == [0]

    def test_keeps_self_loops_when_asked(self):
        src, dst = convert.canonical_edges([0], [0], 1, drop_self_loops=False)
        assert src.size == 1

    def test_empty(self):
        src, dst = convert.canonical_edges([], [], 5)
        assert src.size == 0 and dst.size == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            convert.canonical_edges([0], [9], 3)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            convert.canonical_edges([0, 1], [0], 3)


def _lexsort_reference(src, dst, drop_self_loops):
    """Column-major order by ``np.lexsort`` on (dst, src), then dedup."""
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    if drop_self_loops:
        src, dst = src[src != dst], dst[src != dst]
    order = np.lexsort((src, dst))
    src, dst = src[order], dst[order]
    keep = np.ones(src.size, dtype=bool)
    keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    return src[keep].tolist(), dst[keep].tolist()


TOP = 2**31 - 1


class TestCanonicalOrder:
    """``canonical_edges`` (one int64 key per arc) against a lexsort reference."""

    @pytest.mark.parametrize("drop", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_arcs_match_lexsort(self, seed, drop):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        m = int(rng.integers(1, 400))
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        # duplicates and self-loops
        src = np.concatenate([src, src[: m // 3], np.arange(min(n, 5))])
        dst = np.concatenate([dst, dst[: m // 3], np.arange(min(n, 5))])
        self._check(src, dst, n, drop)

    @pytest.mark.parametrize("drop", [True, False])
    def test_ids_at_the_int32_limit(self, drop):
        rng = np.random.default_rng(7)
        ids = np.array([0, 1, 2, TOP - 2, TOP - 1, TOP])
        src, dst = rng.choice(ids, 200), rng.choice(ids, 200)
        self._check(src, dst, 2**33, drop)

    @pytest.mark.parametrize("src,dst", [([], []), ([3], [1]), ([2], [2]), ([TOP], [0])])
    @pytest.mark.parametrize("drop", [True, False])
    def test_empty_and_single_arc(self, src, dst, drop):
        self._check(src, dst, 2**31, drop)

    def _check(self, src, dst, n, drop):
        out = convert.canonical_edges(src, dst, n, drop_self_loops=drop)
        want = _lexsort_reference(src, dst, drop)
        for got, ref in zip(out, want):
            assert got.dtype == np.int32 and got.flags.c_contiguous
            assert got.tolist() == ref


class TestBuilders:
    SRC = [0, 0, 1, 3, 2, 2]
    DST = [1, 2, 3, 0, 1, 1]  # one duplicate (2,1)
    N = 4

    def dense(self):
        d = np.zeros((self.N, self.N), dtype=np.int8)
        d[self.SRC, self.DST] = 1
        return d

    def test_edges_to_cooc(self):
        mat = convert.edges_to_cooc(self.SRC, self.DST, self.N)
        assert np.array_equal(mat.to_dense(), self.dense())
        assert mat.nnz == 5

    def test_edges_to_csc(self):
        mat = convert.edges_to_csc(self.SRC, self.DST, self.N)
        assert np.array_equal(mat.to_dense(), self.dense())

    def test_edges_to_csr(self):
        mat = convert.edges_to_csr(self.SRC, self.DST, self.N)
        assert np.array_equal(mat.to_dense(), self.dense())

    def test_cooc_row_equals_csc_row(self):
        """The paper's COOC/CSC invariant: shared row array."""
        cooc = convert.edges_to_cooc(self.SRC, self.DST, self.N)
        csc = convert.edges_to_csc(self.SRC, self.DST, self.N)
        assert np.array_equal(cooc.row, csc.row)

    def test_cooc_to_csc_roundtrip(self):
        cooc = convert.edges_to_cooc(self.SRC, self.DST, self.N)
        csc = convert.cooc_to_csc(cooc)
        back = convert.csc_to_cooc(csc)
        assert np.array_equal(back.row, cooc.row)
        assert np.array_equal(back.col, cooc.col)

    def test_csc_csr_roundtrip(self):
        csc = convert.edges_to_csc(self.SRC, self.DST, self.N)
        csr = convert.csc_to_csr(csc)
        back = convert.csr_to_csc(csr)
        assert np.array_equal(back.to_dense(), csc.to_dense())

    def test_validators_accept_builder_output(self):
        """Builders use _skip_checks; their output must still be valid."""
        from repro.formats import COOCMatrix, CSCMatrix

        cooc = convert.edges_to_cooc(self.SRC, self.DST, self.N)
        COOCMatrix(cooc.row, cooc.col, cooc.shape)  # re-validate
        csc = convert.edges_to_csc(self.SRC, self.DST, self.N)
        CSCMatrix(csc.col_ptr, csc.row, csc.shape)
