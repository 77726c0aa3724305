"""Directed article link network: construction, degrees, k-core.

Nodes get dense int32 ids (NODE_ID) in order of first appearance; edges
are deduplicated and stripped of self-loops at build time, then held as
a pair of sorted int32 arrays, 8 bytes per edge. Each id is appended
straight to a C int array, and the int64 pair keys are built, sorted
and deduplicated in place, so at most one int64 key array is alive at
a time.
``graph --clickstream`` builds its graph from the internal links that
``ingest.parse_clickstream``, which owns the dump's referrer rule, yields.

The k-core index is computed on the undirected projection (an edge
exists if either direction exists) by level-wise frontier peeling over
an int32 CSR adjacency, placed from the projection's sorted pairs with
one argsort: at level k every live node of degree <= k has core k, and
each round peels one frontier and looks only at its neighbours, so a
round costs the frontier's edges, not the node count.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError
from .tableio import COUNT, ColumnTable, iter_lines, read_columns, write_columns

NETWORK = dict.fromkeys(("in_degree", "out_degree", "degree", "kcore"), COUNT)
NODE_ID = np.int32  # node id dtype, from the edge stream to the last k-core round
_PACK_BLOCK = 1 << 16  # values moved per step by sorted_unique's in-place pack


@dataclass
class EdgeStats:
    lines: int = 0
    malformed: int = 0
    self_loops: int = 0
    duplicates: int = 0


@dataclass
class LinkGraph:
    titles: list[str]  # by node id
    sources: np.ndarray  # NODE_ID, lexicographically sorted with targets
    targets: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.titles)

    @property
    def edge_count(self) -> int:
        return len(self.sources)


def parse_edges(
    lines: Iterable[str], strict: bool, stats: EdgeStats, source: str | Path
) -> Iterator[tuple[str, str]]:
    """Yield (source, target) title pairs from tab-separated lines; a
    strict-mode error names ``path:N``, the `source` file and the line."""
    for lineno, line in enumerate(lines, start=1):
        stats.lines += 1
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            if strict:
                raise DataError(f"{source}:{lineno}: expected 2 tab-separated titles")
            stats.malformed += 1
            continue
        yield fields[0], fields[1]


def build_graph(edges: Iterable[tuple[str, str]], stats: EdgeStats) -> LinkGraph:
    """Build a deduplicated, self-loop-free directed graph.

    Node ids are assigned by first appearance in the edge stream (source
    before target within a pair), so the id assignment is deterministic
    for a given stream. Each pair's ids are appended to two C int
    arrays, 4 bytes a pair end, and the pair keys are built, sorted and
    deduplicated in one int64 array once the stream has ended. Past
    2**31 - 1 titles the append raises OverflowError; the title dict
    alone would then outgrow memory.
    """
    index: dict[str, int] = {}
    get = index.get
    src = array("i")  # C int, 4 bytes: NODE_ID
    dst = array("i")
    add_src = src.append
    add_dst = dst.append
    for source, target in edges:
        s = get(source)
        if s is None:
            s = index[source] = len(index)
        t = get(target)
        if t is None:
            t = index[target] = len(index)
        if s == t:
            stats.self_loops += 1
            continue
        add_src(s)
        add_dst(t)

    titles = list(index)  # insertion order is id order
    n = len(titles)
    pairs = len(src)
    keys = _pair_keys(np.frombuffer(src, NODE_ID), np.frombuffer(dst, NODE_ID), n)
    del src, dst, add_src, add_dst  # the bound appends hold the arrays too
    keys = sorted_unique(keys)
    stats.duplicates += pairs - len(keys)
    return LinkGraph(titles, *_split_keys(keys, n))


def _pair_keys(heads: np.ndarray, tails: np.ndarray, n: int) -> np.ndarray:
    """heads * n + tails as one new int64 array, built in place."""
    keys = heads.astype(np.int64)
    keys *= n
    keys += tails
    return keys


def _split_keys(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys // n, keys % n) as NODE_ID arrays, with no int64 temporary."""
    heads = np.empty(len(keys), dtype=NODE_ID)
    tails = np.empty(len(keys), dtype=NODE_ID)
    np.divmod(keys, n, out=(heads, tails), casting="unsafe")
    return heads, tails


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique(keys) of an integer array, in place: sorts `keys`, moves
    its distinct values to the front and returns that prefix, a view of
    `keys`, so no second array of its size is made. One sort, which on
    large arrays numpy 2.x runs many times faster than np.unique."""
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    size = 0
    for start in range(0, len(keys), _PACK_BLOCK):
        # the block is copied out before any write, and writes land at or
        # before `start`, so no value is overwritten before it is read
        block = keys[start : start + _PACK_BLOCK][first[start : start + _PACK_BLOCK]]
        keys[size : size + len(block)] = block
        size += len(block)
    return keys[:size]


def graph_from_file(path: str | Path, strict: bool, stats: EdgeStats) -> LinkGraph:
    return build_graph(parse_edges(iter_lines(path), strict, stats, path), stats)


def degrees(graph: LinkGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(in_degree, out_degree, degree) per node id, exact counts."""
    n = graph.node_count
    out_deg = np.bincount(graph.sources, minlength=n)
    in_deg = np.bincount(graph.targets, minlength=n)
    return in_deg, out_deg, in_deg + out_deg


def undirected_projection(graph: LinkGraph) -> tuple[np.ndarray, np.ndarray]:
    """Unique undirected edges (u < v) of the graph as NODE_ID arrays,
    sorted by (u, v); int64 edge arrays are cast."""
    n = graph.node_count
    lo = np.minimum(graph.sources, graph.targets)
    hi = np.maximum(graph.sources, graph.targets)
    keys = _pair_keys(lo, hi, n)
    del lo, hi
    return _split_keys(sorted_unique(keys), n)


def kcore_decomposition(graph: LinkGraph) -> np.ndarray:
    """Core number per node id (int64) on the undirected projection.

    Level-wise frontier peel (the core definition of Batagelj & Zaversnik,
    peeled a level at a time). Node ids and the CSR neighbour array are
    NODE_ID; the CSR is placed from the projection's pairs, already
    grouped by their lower end, and one argsort groups them by the upper
    end. The order of neighbours within a node's slice does not change
    any core number.

    At level k (the larger of the last level and the least live degree)
    every live node of degree <= k gets core k: a round peels the
    frontier, takes one off a live node's degree per peeled neighbour,
    and makes the next frontier of just those neighbours now at degree
    <= k. A round thus costs O(edges of the frontier), not O(n); over the
    whole peel each edge is gathered at most twice, and the live set is
    compacted once per level.
    """
    n = graph.node_count
    lo, hi = undirected_projection(graph)
    # CSR: node v's slice holds its neighbours below v, then those above.
    # The pairs are grouped by lo, so the ones above are `hi` as it
    # stands; the ones below take one argsort of `hi`.
    upper = np.bincount(lo, minlength=n)  # neighbours above each node
    lower = np.bincount(hi, minlength=n)
    degree = lower + upper
    below = lo[np.argsort(hi)]
    del lo
    is_upper = np.repeat(np.tile([False, True], n), np.stack([lower, upper], axis=1).ravel())
    del lower, upper
    neighbors = np.empty(len(is_upper), dtype=NODE_ID)
    neighbors[is_upper] = hi
    del hi
    np.logical_not(is_upper, out=is_upper)
    neighbors[is_upper] = below
    del below, is_upper
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=offsets[1:])

    deg = degree.astype(NODE_ID)  # degree among live nodes
    core = np.full(n, -1, dtype=np.int64)  # -1 while live
    live = np.arange(n, dtype=NODE_ID)
    k = 0
    while len(live):
        live_deg = deg[live]
        k = max(k, int(live_deg.min()))
        frontier = live[live_deg <= k]
        while len(frontier):
            core[frontier] = k
            # the frontier's CSR slices, gathered as one index array
            starts = offsets[frontier]
            lengths = degree[frontier]
            ends = np.cumsum(lengths)
            slots = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
            touched = neighbors[slots]
            touched = touched[core[touched] < 0]
            np.subtract.at(deg, touched, 1)
            frontier = sorted_unique(touched[deg[touched] <= k])
        live = live[core[live] < 0]
    return core


def network_features(graph: LinkGraph) -> ColumnTable:
    """Degrees and core number per article, in node id order until
    ColumnTable.in_title_order puts them in title order."""
    columns = dict(zip(NETWORK, (*degrees(graph), kcore_decomposition(graph))))
    return ColumnTable.in_title_order(graph.titles, columns)


def write_network_table(path: str | Path, features: ColumnTable) -> None:
    write_columns(path, NETWORK, features)


def read_network_table(path: str | Path) -> ColumnTable:
    return read_columns(path, NETWORK)
