"""MatrixMarket / edge-list I/O tests."""

import numpy as np
import pytest

from repro.graphs import io
from repro.graphs.graph import Graph
from tests.conftest import random_graph


class TestMatrixMarket:
    def test_directed_roundtrip(self, tmp_path):
        g = random_graph(30, 0.1, directed=True, seed=3)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        back = io.read_matrix_market(path)
        assert back.directed
        assert back.n == g.n and back.m == g.m
        assert np.array_equal(back.src, g.src)
        assert np.array_equal(back.dst, g.dst)

    def test_undirected_roundtrip_symmetric_storage(self, tmp_path):
        g = random_graph(30, 0.1, directed=False, seed=4)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        text = path.read_text()
        assert "symmetric" in text.splitlines()[0]
        back = io.read_matrix_market(path)
        assert not back.directed
        assert back.m == g.m

    def test_header_declares_pattern(self, tmp_path):
        g = Graph([0], [1], 2, directed=True)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        assert path.read_text().startswith("%%MatrixMarket matrix coordinate pattern")

    def test_read_rejects_non_mm(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("hello\n")
        with pytest.raises(ValueError, match="not a MatrixMarket"):
            io.read_matrix_market(path)

    def test_read_rejects_dense(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(ValueError, match="coordinate"):
            io.read_matrix_market(path)

    def test_read_rejects_rectangular(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 1\n")
        with pytest.raises(ValueError, match="square"):
            io.read_matrix_market(path)

    def test_read_with_comments(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "% a comment\n% another\n3 3 2\n1 2\n2 3\n"
        )
        g = io.read_matrix_market(path)
        assert g.m == 2
        assert g.src.tolist() == [0, 1]

    def test_empty_graph(self, tmp_path):
        g = Graph([], [], 4, directed=True)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        back = io.read_matrix_market(path)
        assert back.n == 4 and back.m == 0


class TestEdgeList:
    def test_roundtrip_directed(self, tmp_path):
        g = random_graph(25, 0.12, directed=True, seed=5)
        path = tmp_path / "g.txt"
        io.write_edge_list(g, path)
        back = io.read_edge_list(path, n=g.n, directed=True)
        assert back.m == g.m
        assert np.array_equal(back.src, g.src)

    def test_roundtrip_undirected(self, tmp_path):
        g = random_graph(25, 0.12, directed=False, seed=6)
        path = tmp_path / "g.txt"
        io.write_edge_list(g, path)
        back = io.read_edge_list(path, n=g.n, directed=False)
        assert back.m == g.m

    def test_infers_n(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0 5\n2 3\n")
        g = io.read_edge_list(path)
        assert g.n == 6

    def test_comment_written(self, tmp_path):
        g = Graph([0], [1], 2, directed=True, name="tiny")
        path = tmp_path / "g.txt"
        io.write_edge_list(g, path, comment="hello")
        assert "hello" in path.read_text()

    def test_comments_blank_lines_and_extra_columns(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(
            "# SNAP header\n% another comment style\n\n"
            "0 1\n   \n1\t2  7 9\n2 3 # trailing comment\n\n"
        )
        g = io.read_edge_list(path, directed=True)
        assert (g.n, g.m) == (4, 3)
        assert sorted(zip(g.src.tolist(), g.dst.tolist())) == [(0, 1), (1, 2), (2, 3)]

    def test_n_inference_and_explicit_n(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 9\n")
        assert io.read_edge_list(path).n == 10
        assert io.read_edge_list(path, n=12).n == 12
        path.write_text("# nothing but comments\n\n")
        empty = io.read_edge_list(path)
        assert (empty.n, empty.m) == (0, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_comments_match_a_python_reference_parse(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        lines = []
        for _ in range(300):
            u, v = rng.integers(0, 50, 2).tolist()
            gap = rng.choice([" ", "\t", "  ", " \t "])
            lines.append(rng.choice([
                f"{u}{gap}{v}",
                f"{u}{gap}{v}{gap}{rng.integers(9)}",        # an extra column
                f"{u}{gap}{v}%x {rng.integers(9)}",          # % right after a digit
                f"{u}{gap}{v} # trailing {rng.integers(9)}",
                f"\t{u}{gap}{v}\t% trailing",
                f"# {u} {v}", f"% {u} {v}", f"%{u}", "#", "", "   ",
            ]))
        text = "\r\n".join(lines) + "\r\n\r\n\n"
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode())
        want = []
        for line in text.splitlines():
            fields = line.split("#")[0].split("%")[0].split()
            if fields:
                want.append((int(fields[0]), int(fields[1])))
        g = io.read_edge_list(path, n=50, directed=True)
        ref = Graph.from_edges(want, 50, directed=True)
        assert np.array_equal(g.src, ref.src) and np.array_equal(g.dst, ref.dst)

    @pytest.mark.parametrize("line", ["5", "5 % 6", "0 x", "0 1.5", "1.0 2", "0 1e3"])
    def test_malformed_line_raises_value_error(self, tmp_path, line):
        path = tmp_path / "g.txt"
        path.write_text(f"0 1\n{line}\n2 3\n")
        with pytest.raises(ValueError, match="malformed edge list"):
            io.read_edge_list(path)


class TestMatrixMarketIndices:
    @pytest.mark.parametrize("entry", ["1.5 2", "1 2.25", "nan 1", "inf 2"])
    def test_rejects_non_integral_indices(self, tmp_path, entry):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n" + entry + "\n")
        with pytest.raises(ValueError, match="non-integral"):
            io.read_matrix_market(path)

    def test_integral_floats_and_values_column_accepted(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 0.5\n3.0 1 -2\n")
        g = io.read_matrix_market(path)
        assert sorted(zip(g.src.tolist(), g.dst.tolist())) == [(0, 1), (2, 0)]
