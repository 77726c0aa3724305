"""Link graph construction, degree counts, and k-core decomposition."""

from __future__ import annotations

import gzip
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickroles.errors import DataError
from clickroles.ingest import ParseStats, parse_clickstream
from clickroles.linkgraph import (
    EdgeStats,
    LinkGraph,
    build_graph,
    degrees,
    graph_from_file,
    kcore_decomposition,
    network_features,
    parse_edges,
    read_network_table,
    undirected_projection,
    write_network_table,
)


def node_ids(graph: LinkGraph) -> dict[str, int]:
    """title -> node id: a graph's titles are listed by id."""
    return {title: i for i, title in enumerate(graph.titles)}


def dense_degree_oracle(n: int, edges: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """In/out degrees as column/row sums of a dense 0-1 adjacency matrix."""
    mat = np.zeros((n, n), dtype=np.int64)
    for s, t in edges:
        mat[s, t] = 1
    np.fill_diagonal(mat, 0)
    return mat.sum(axis=0).tolist(), mat.sum(axis=1).tolist()


def peeling_core_oracle(n: int, und_edges: set[frozenset[int]]) -> list[int]:
    """Core numbers by repeated deletion: for each k, strip nodes of
    degree < k until stable; survivors have core >= k."""
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for edge in und_edges:
        u, v = tuple(edge)
        adj[u].add(v)
        adj[v].add(u)
    core = [0] * n
    for k in range(1, n + 1):
        alive = set(range(n))
        changed = True
        while changed:
            changed = False
            for v in list(alive):
                if len(adj[v] & alive) < k:
                    alive.discard(v)
                    changed = True
        if not alive:
            break
        for v in alive:
            core[v] = k
    return core


def reference_kcore(graph: LinkGraph) -> list[int]:
    """Core numbers by Batagelj-Zaversnik bucket peeling, one node at a
    time in increasing current degree, on plain lists."""
    n = graph.node_count
    lo, hi = undirected_projection(graph)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(lo.tolist(), hi.tolist()):
        adjacency[u].append(v)
        adjacency[v].append(u)
    deg = [len(a) for a in adjacency]
    if n == 0:
        return []
    max_deg = max(deg)

    # vert: nodes sorted by degree; pos[v]: index of v in vert;
    # bin_start[d]: first index in vert with degree >= d
    counts = [0] * (max_deg + 1)
    for d in deg:
        counts[d] += 1
    bin_start = [0] * (max_deg + 2)
    for d in range(max_deg + 1):
        bin_start[d + 1] = bin_start[d] + counts[d]
    fill = bin_start[:-1].copy()
    vert = [0] * n
    pos = [0] * n
    for v in range(n):
        p = fill[deg[v]]
        vert[p] = v
        pos[v] = p
        fill[deg[v]] += 1

    for i in range(n):
        v = vert[i]
        dv = deg[v]
        for u in adjacency[v]:
            du = deg[u]
            if du > dv:
                # swap u with the first node of its degree bucket, then
                # shrink the bucket so u drops into the one below
                pu = pos[u]
                pw = bin_start[du]
                w = vert[pw]
                if u != w:
                    vert[pu] = w
                    vert[pw] = u
                    pos[w] = pu
                    pos[u] = pw
                bin_start[du] += 1
                deg[u] = du - 1
    return deg


@st.composite
def edge_streams(draw) -> list[tuple[str, str]]:
    """Title pairs built from disjoint cliques, stars, self-loop-only
    nodes and random blocks, plus cross edges, duplicates and
    antiparallel copies, in a drawn order; may be empty."""
    pairs: list[tuple[int, int]] = []
    base = 0
    parts = st.tuples(st.sampled_from(["clique", "star", "loops", "random"]), st.integers(1, 9))
    for kind, size in draw(st.lists(parts, max_size=6)):
        nodes = range(base, base + size)
        base += size
        if kind == "clique":
            pairs += [(a, b) for a in nodes for b in nodes if a < b]
        elif kind == "star":
            pairs += [(nodes[0], leaf) for leaf in nodes[1:]]
        elif kind == "loops":
            pairs += [(v, v) for v in nodes]
        else:
            node = st.sampled_from(nodes)
            pairs += draw(st.lists(st.tuples(node, node), max_size=3 * size))
    if base:
        node = st.integers(0, base - 1)
        pairs += draw(st.lists(st.tuples(node, node), max_size=base))
    if pairs:
        copies = draw(st.lists(st.tuples(st.integers(0, len(pairs) - 1), st.booleans()), max_size=10))
        pairs += [pairs[i][::-1] if flip else pairs[i] for i, flip in copies]
    order = draw(st.permutations(range(len(pairs))))
    return [(f"N{pairs[i][0]}", f"N{pairs[i][1]}") for i in order]


def random_graph(rng: np.random.Generator, n: int, p: float) -> list[tuple[int, int]]:
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    return [(int(s), int(t)) for s, t in zip(*np.nonzero(mask))]


class TestBuild:
    def test_dedup_and_self_loop(self):
        stats = EdgeStats()
        g = build_graph([("A", "B"), ("A", "B"), ("A", "A")], stats)
        assert g.node_count == 2
        assert g.edge_count == 1
        assert stats.self_loops == 1
        assert stats.duplicates == 1

    def test_empty(self):
        g = build_graph([], EdgeStats())
        assert g.node_count == 0
        assert g.edge_count == 0
        assert kcore_decomposition(g).shape == (0,)

    def test_first_appearance_ids(self):
        g = build_graph([("C", "A"), ("B", "C")], EdgeStats())
        assert g.titles == ["C", "A", "B"]
        assert node_ids(g) == {"C": 0, "A": 1, "B": 2}

    def test_edge_arrays_sorted(self):
        g = build_graph([("B", "A"), ("A", "B"), ("A", "C")], EdgeStats())
        pairs = list(zip(g.sources.tolist(), g.targets.tolist()))
        assert pairs == sorted(pairs)

    def test_counts_consistent_with_arrays(self):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "A")], EdgeStats())
        assert len(g.sources) == len(g.targets) == g.edge_count
        assert max(g.sources.max(), g.targets.max()) < g.node_count


class TestParseEdges:
    def test_lenient_skips_malformed(self):
        stats = EdgeStats()
        lines = ["A\tB", "bad line", "C\t", "D\tE"]
        assert list(parse_edges(lines, False, stats, "edges.tsv")) == [("A", "B"), ("D", "E")]
        assert stats.malformed == 2

    def test_strict_raises_with_line_number(self):
        with pytest.raises(DataError, match="^edges.tsv:2: "):
            list(parse_edges(["A\tB", "oops"], True, EdgeStats(), "edges.tsv"))

    def test_gzip_file(self, tmp_path):
        path = tmp_path / "edges.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("A\tB\nB\tC\n")
        g = graph_from_file(path, False, EdgeStats())
        assert g.node_count == 3
        assert g.edge_count == 2


class TestClickstreamEdges:
    def test_only_internal_transitions(self):
        # graph --clickstream's edges: the records with a referring article
        lines = [
            "A\tB\tlink\t15",
            "other-search\tB\texternal\t90",
            "other-empty\tC\texternal\t12",
            "other-search\tD\tlink\t20",
            "B\tC\tlink\t11",
        ]
        records = parse_clickstream(lines, False, ParseStats(), "dump.tsv")
        links = [(referrer, resource) for referrer, resource, _ in records if referrer is not None]
        assert links == [("A", "B"), ("B", "C")]


class TestDegrees:
    def test_cycle(self):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "A")], EdgeStats())
        in_deg, out_deg, deg = degrees(g)
        assert in_deg.tolist() == [1, 1, 1]
        assert out_deg.tolist() == [1, 1, 1]
        assert deg.tolist() == [2, 2, 2]

    def test_star(self):
        g = build_graph([("Hub", f"Leaf{i}") for i in range(5)], EdgeStats())
        in_deg, out_deg, deg = degrees(g)
        assert out_deg[0] == 5 and in_deg[0] == 0
        assert in_deg[1:].tolist() == [1] * 5
        assert deg.sum() == 2 * g.edge_count

    @pytest.mark.parametrize("seed,n,p", [(0, 30, 0.1), (1, 60, 0.05), (2, 100, 0.02)])
    def test_against_dense_matrix(self, seed, n, p):
        rng = np.random.default_rng(seed)
        edges = random_graph(rng, n, p)
        titles = [f"N{i:03d}" for i in range(n)]
        g = build_graph(((titles[s], titles[t]) for s, t in edges), EdgeStats())
        index = node_ids(g)
        ids = [index[t] for t in titles if t in index]
        in_oracle, out_oracle = dense_degree_oracle(n, edges)
        in_deg, out_deg, deg = degrees(g)
        for i, title in enumerate(titles):
            if title not in index:
                assert in_oracle[i] == 0 and out_oracle[i] == 0
                continue
            v = index[title]
            assert in_deg[v] == in_oracle[i]
            assert out_deg[v] == out_oracle[i]
            assert deg[v] == in_oracle[i] + out_oracle[i]
        assert sorted(ids) == list(range(g.node_count))


class TestProjection:
    def test_antiparallel_collapse(self):
        g = build_graph([("A", "B"), ("B", "A"), ("B", "C")], EdgeStats())
        lo, hi = undirected_projection(g)
        assert len(lo) == 2
        assert all(a < b for a, b in zip(lo.tolist(), hi.tolist()))


class TestKCore:
    def test_triangle(self):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "A")], EdgeStats())
        assert kcore_decomposition(g).tolist() == [2, 2, 2]

    def test_star(self):
        g = build_graph([("Hub", f"Leaf{i}") for i in range(5)], EdgeStats())
        assert kcore_decomposition(g).tolist() == [1, 1, 1, 1, 1, 1]

    def test_clique_plus_tail(self):
        # K4 on A-D, pendant path D-E-F
        clique = ["A", "B", "C", "D"]
        edges = [(a, b) for i, a in enumerate(clique) for b in clique[i + 1 :]]
        edges += [("D", "E"), ("E", "F")]
        g = build_graph(edges, EdgeStats())
        core = kcore_decomposition(g)
        expect = {"A": 3, "B": 3, "C": 3, "D": 3, "E": 1, "F": 1}
        for title, k in expect.items():
            assert core[node_ids(g)[title]] == k

    @pytest.mark.parametrize("seed", range(6))
    def test_against_iterative_deletion(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        p = float(rng.uniform(0.01, 0.08))
        edges = random_graph(rng, n, p)
        if not edges:
            return
        titles = [f"N{i:03d}" for i in range(n)]
        g = build_graph(((titles[s], titles[t]) for s, t in edges), EdgeStats())
        und = {frozenset((s, t)) for s, t in edges}
        # re-index the oracle's node ids to graph ids
        index = node_ids(g)
        remap = {i: index[titles[i]] for i in range(n) if titles[i] in index}
        oracle_full = peeling_core_oracle(n, und)
        core = kcore_decomposition(g)
        for i, expected in enumerate(oracle_full):
            if i in remap:
                assert core[remap[i]] == expected

    def test_core_subgraph_min_degree(self):
        # within the subgraph induced by {v: core[v] >= k}, every node
        # keeps at least k neighbours; that is what the index promises
        rng = np.random.default_rng(7)
        edges = random_graph(rng, 80, 0.06)
        titles = [f"N{i}" for i in range(80)]
        g = build_graph(((titles[s], titles[t]) for s, t in edges), EdgeStats())
        core = kcore_decomposition(g)
        lo, hi = undirected_projection(g)
        for k in range(1, int(core.max()) + 1):
            members = set(np.nonzero(core >= k)[0].tolist())
            inside = {v: 0 for v in members}
            for u, v in zip(lo.tolist(), hi.tolist()):
                if u in members and v in members:
                    inside[u] += 1
                    inside[v] += 1
            assert all(d >= k for d in inside.values())

    def test_edge_removal_monotone(self):
        rng = np.random.default_rng(11)
        edges = random_graph(rng, 50, 0.08)
        titles = [f"N{i}" for i in range(50)]
        g_full = build_graph(((titles[s], titles[t]) for s, t in edges), EdgeStats())
        core_full = kcore_decomposition(g_full)
        for drop in rng.choice(len(edges), size=min(5, len(edges)), replace=False):
            kept = [e for i, e in enumerate(edges) if i != drop]
            g_less = build_graph(((titles[s], titles[t]) for s, t in kept), EdgeStats())
            core_less = kcore_decomposition(g_less)
            full_ids = node_ids(g_full)
            for v, title in enumerate(g_less.titles):
                assert core_less[v] <= core_full[full_ids[title]]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 24), st.integers(0, 24)),
            min_size=1,
            max_size=120,
        ),
        st.randoms(use_true_random=False),
    )
    def test_stream_order_irrelevant(self, pairs, rnd):
        named = [(f"N{s}", f"N{t}") for s, t in pairs]
        g1 = build_graph(named, EdgeStats())
        shuffled = list(named)
        rnd.shuffle(shuffled)
        g2 = build_graph(shuffled, EdgeStats())
        core1 = kcore_decomposition(g1)
        core2 = kcore_decomposition(g2)
        in1, out1, _ = degrees(g1)
        in2, out2, _ = degrees(g2)
        ids2 = node_ids(g2)
        for a, title in enumerate(g1.titles):
            if title not in ids2:
                # a node appearing only in self-loops can vanish only if
                # every mention was a self-loop; degrees must be 0 then
                assert in1[a] == out1[a] == 0
                continue
            b = ids2[title]
            assert core1[a] == core2[b]
            assert in1[a] == in2[b]
            assert out1[a] == out2[b]


    @settings(max_examples=200, deadline=None)
    @given(edge_streams())
    def test_equals_bucket_peel(self, pairs):
        g = build_graph(pairs, EdgeStats())
        core = kcore_decomposition(g)
        assert core.dtype == np.int64
        assert core.tolist() == reference_kcore(g)

    def test_long_path_is_linear(self):
        # a path peels two nodes per round, n/2 rounds at level 1; a
        # round that rescans every node would take ~20 s here
        n = 100_000
        ids = np.arange(n, dtype=np.int64)
        g = LinkGraph([f"N{i}" for i in range(n)], ids[:-1], ids[1:])
        start = time.perf_counter()
        core = kcore_decomposition(g)
        elapsed = time.perf_counter() - start
        assert core.tolist() == [1] * n
        assert elapsed < 5.0

    def test_large_clique(self):
        n = 300
        src, dst = np.triu_indices(n, 1)
        g = LinkGraph([f"N{i}" for i in range(n)], src.astype(np.int64), dst.astype(np.int64))
        assert kcore_decomposition(g).tolist() == [n - 1] * n


def traced_peak(fn, *args):
    """fn(*args) and the most memory it held at once above what was
    allocated before the call, numpy buffers included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peak bytes per edge of the graph build and the k-core, on a seeded
    heavy-tailed stream of 300k pairs (161,675 distinct edges). The
    int64 pipeline took 53.1 B per pair and 41.0 B per edge, the int32
    one takes 20.1 and 23.0; the build bound also fails (24.6) if the id
    arrays outlive the key build."""

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(0)
        n, m = 20_000, 300_000
        s = rng.integers(0, n, m)
        t = (s + 1 + rng.zipf(1.5, m) % (n - 1)) % n
        return [(f"N{a}", f"N{b}") for a, b in zip(s.tolist(), t.tolist())]

    def test_build_graph_peak_per_pair(self, pairs):
        g, peak = traced_peak(build_graph, pairs, EdgeStats())
        assert g.edge_count == 161_675
        assert g.sources.dtype == g.targets.dtype == np.int32
        assert peak / len(pairs) < 23

    def test_kcore_peak_per_edge(self, pairs):
        g = build_graph(pairs, EdgeStats())
        core, peak = traced_peak(kcore_decomposition, g)
        assert core.tolist() == reference_kcore(g)
        assert peak / g.edge_count < 27

    def test_projection_is_int32_for_int64_graphs(self):
        ids = np.arange(4, dtype=np.int64)
        g = LinkGraph([f"N{i}" for i in range(4)], ids[[1, 2, 3]], ids[[0, 1, 0]])
        lo, hi = undirected_projection(g)
        assert lo.dtype == hi.dtype == np.int32
        assert list(zip(lo.tolist(), hi.tolist())) == [(0, 1), (0, 3), (1, 2)]


class TestNetworkTable:
    def test_features_and_roundtrip(self, tmp_path):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "A"), ("C", "D")], EdgeStats())
        feats = network_features(g)
        assert feats.articles == ("A", "B", "C", "D")
        assert feats["out_degree"].tolist() == [1, 1, 2, 0]
        assert feats["kcore"].tolist() == [2, 2, 2, 1]
        path = tmp_path / "network.tsv"
        write_network_table(path, feats)
        back = read_network_table(path)
        assert back.articles == feats.articles
        assert {k: v.tolist() for k, v in back.columns.items()} == {k: v.tolist() for k, v in feats.columns.items()}

    def test_rows_in_title_order(self):
        # node ids follow first appearance; the table follows the titles
        feats = network_features(build_graph([("C", "A"), ("B", "C")], EdgeStats()))
        assert feats.articles == ("A", "B", "C")
        assert feats["in_degree"].tolist() == [1, 0, 1]

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "network.tsv"
        path.write_text(
            "article\tin_degree\tout_degree\tdegree\tkcore\nA\t1\t1\t2\t1\nA\t1\t1\t2\t1\n"
        )
        with pytest.raises(DataError, match="duplicate"):
            read_network_table(path)
